"""Every diagnostic of the scenario front end, pinned by class, place and text.

Each script case gives the error class, the line and column it is reported
at, and the whole message.  The cases cover the parser's syntax checks, the
evaluation errors of semantics and the engine's step errors, plus the
evaluation paths that are not errors; the API cases reach the checks that
no script can.
"""

import math

import pytest

from qgas.errors import (
    ExecutionError,
    HeaderMissingError,
    IncompatibleReductionError,
    ScenarioSyntaxError,
    UndefinedNameError,
)
from qgas.observers import Observer
from qgas.protocol import ast, execute, semantics
from qgas.protocol.ast import render
from qgas.protocol.engine import run_protocol
from qgas.protocol.parser import parse
from qgas.thermo import QuantumContents

Q = "HEADER dim=2 temperature=1.0 particles=1.0\n"
QUAD = "HEADER dim=4 temperature=1.0 particles=1.0\n"
C = "HEADER classical temperature=1.0 particles=1.0\n"
# Lines 1-6: a dim-2 header, one observer, two kets and their states.
P = Q + (
    "OBSERVER lab full\n"
    "DEFINE_STATE zp ket(1, 0)\n"
    "DEFINE_STATE zm ket(0, 1)\n"
    "DEFINE_STATE zs proj(zp)\n"
    "DEFINE_STATE ms proj(zm)\n"
)
CL = C + "CLASSICAL_CHAMBER u 1.0 a=1\n"

SYNTAX = [
    ("end-of-line", Q + "CLAIM_CYCLE now\n", 2, 13, "end of line"),
    ("real-number", Q + "EXPECT Q_total ~= 0.5i\n", 2, 19, "a real number"),
    (
        "imaginary-part", Q + "DEFINE_STATE k ket(0.6+0.8, 0)\n",
        2, 24, "an imaginary part ending in i",
    ),
    ("key-value", "HEADER dim=2 temp=1.0 particles=1.0\n", 1, 14, "temperature=<value>"),
    ("single-header", Q + Q, 2, 1, "a single HEADER line"),
    (
        "zero-dim", "HEADER dim=0 temperature=1.0 particles=1.0\n",
        1, 12, "a positive integer dimension",
    ),
    (
        "fractional-dim", "HEADER dim=2.5 temperature=1.0 particles=1.0\n",
        1, 12, "a positive integer dimension",
    ),
    (
        "header-variant", "HEADER quantum temperature=1.0 particles=1.0\n",
        1, 8, "dim=<int> or classical",
    ),
    (
        "temperature", "HEADER dim=2 temperature=-1.0 particles=1.0\n",
        1, 27, "a positive temperature",
    ),
    (
        "particles", "HEADER dim=2 temperature=1.0 particles=0\n",
        1, 40, "a positive particle amount",
    ),
    ("keep", QUAD + "OBSERVER o reduce 2 2 middle\n", 2, 23, "first or second"),
    (
        "factor-dims", QUAD + "OBSERVER o reduce 0.5 8 first\n",
        2, 19, "positive integer factor dims",
    ),
    ("observer-mode", Q + "OBSERVER o partial\n", 2, 12, "full, reduce, or classical"),
    ("identity-integer", Q + "ROTATE u identity(1.5)\n", 2, 19, "an integer dimension"),
    ("reserved-name", Q + "DEFINE_STATE ket proj(ket(1, 0))\n", 2, 14, "a non-reserved name"),
    (
        "no-elements", Q + "DEFINE_INSTRUMENT m\n",
        2, 1, "at least one projector or eigenbasis-of(...)",
    ),
    ("outcome-labels", P + "DEFINE_INSTRUMENT m a=zp a=zm\n", 7, 1, "distinct outcome labels"),
    ("chamber-fraction", P + "CHAMBER u 1.5 zs\n", 7, 11, "a fraction in (0, 1]"),
    ("species-weight", C + "CLASSICAL_CHAMBER u 1.0 a=0\n", 2, 27, "a positive weight"),
    ("no-species", C + "CLASSICAL_CHAMBER u 1.0\n", 2, 1, "at least one species"),
    (
        "permeability-word", CL + "CLASSICAL_SEPARATE a=absorbed\n",
        3, 22, "transmitted or reflected",
    ),
    ("permeability-map", CL + "CLASSICAL_SEPARATE\n", 3, 1, "a permeability map"),
    ("mix-mode", P + "CHAMBER u 1.0 zs\nMIX partial\n", 8, 5, "distinguishing or free"),
    (
        "partition-fraction", P + "CHAMBER u 1.0 zs\nPARTITION u 1.5 -0.5 -> x y\n",
        8, 13, "fractions in (0, 1)",
    ),
    (
        "partition-whole", P + "CHAMBER u 1.0 zs\nPARTITION u 1.0 0.5 -> x y\n",
        8, 13, "fractions in (0, 1)",
    ),
    (
        "two-fractions", P + "CHAMBER u 1.0 zs\nPARTITION u 0.5 -> x\n",
        8, 1, "at least two fractions",
    ),
    (
        "name-per-fraction", P + "CHAMBER u 1.0 zs\nPARTITION u 0.5 0.5 -> x\n",
        8, 21, "one name per fraction",
    ),
    ("tolerance", Q + "EXPECT Q_total ~= 0.5 -1e-3\n", 2, 24, "a positive tolerance"),
    (
        "verdict-outcome", P + "EXPECT verdict lab broken\n",
        7, 20, "violation, satisfied, or not_applicable",
    ),
    ("expect-subject", Q + "EXPECT heat ~= 0.5\n", 2, 8, "Q_total or verdict"),
    ("ket-cut-by-comment", Q + "DEFINE_STATE a ket(1, # 0)\n", 2, 27, "a number"),
    # Only LF, CRLF and a lone CR end a line; the other breaks of
    # str.splitlines() are whitespace inside it.
    *(
        (name, Q + f"DEFINE_STATE a ket(1, 0){end}DEFINE_STATE b ket(0, 1))\n",
         3, 25, "end of line")
        for name, end in [
            ("line-end-lf", "\n"), ("line-end-crlf", "\r\n"), ("line-end-cr", "\r"),
            *((f"no-line-end-{ord(c):x}", c + "\n")
              for c in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
        ]
    ),
]


@pytest.mark.parametrize(
    "text, line, col, expected", [case[1:] for case in SYNTAX], ids=[case[0] for case in SYNTAX]
)
def test_syntax_diagnostic(text, line, col, expected):
    with pytest.raises(ScenarioSyntaxError) as err:
        parse(text)
    assert (err.value.line, err.value.column, err.value.expected) == (line, col, expected)
    assert str(err.value) == f"line {line}, col {col}: expected {expected}"


NAMES_AND_HEADERS = [
    ("no-header", "", HeaderMissingError, 1, 1, "the script must contain a HEADER line"),
    (
        "comments-only", "# nothing\n\n",
        HeaderMissingError, 1, 1, "the script must contain a HEADER line",
    ),
    (
        "undefined-instrument", P + "CHAMBER u 1.0 zs\nSEPARATE nope\n",
        UndefinedNameError, 8, 10, "instrument 'nope' is not defined",
    ),
]

# Errors raised while a script runs: by semantics at the expression, or by
# the engine at the statement.
EXECUTION = [
    (
        "bad-ket", Q + "DEFINE_STATE k ket(1, 1)\n",
        2, 16, "bad ket: norm 1.4142135623730951 differs from 1 beyond 1e-12",
    ),
    (
        "mix-of-a-ket", P + "DEFINE_STATE b mix(0.5*zp + 0.5*ms)\n",
        7, 16, "mix(...) terms must be states; wrap kets in proj()",
    ),
    (
        "tensor-of-kinds", P + "DEFINE_STATE b tensor(zp, ms)\n",
        7, 16, "tensor(...) needs two kets or two states, not a mix of kinds",
    ),
    (
        "identity-as-state", P + "DEFINE_STATE b identity(2)\n",
        7, 16, "unitary expressions are only valid in ROTATE statements",
    ),
    (
        "rotation-as-state", P + "DEFINE_STATE b rotate_to(zp, zm)\n",
        7, 16, "unitary expressions are only valid in ROTATE statements",
    ),
    (
        "eigenbasis-as-state", P + "DEFINE_STATE b eigenbasis-of(zs)\n",
        7, 16, "eigenbasis-of(...) is only valid in DEFINE_INSTRUMENT",
    ),
    ("proj-of-a-state", P + "DEFINE_STATE b proj(zs)\n", 7, 16, "proj(...) needs a ket argument"),
    (
        "bad-rotation", P + "CHAMBER u 1.0 zs\nROTATE u rotate_to(zp, ket(1, 0, 0, 0))\n",
        8, 10, "bad rotation: dims 2 and 4",
    ),
    (
        "not-a-unitary", P + "CHAMBER u 1.0 zs\nROTATE u zp\n",
        8, 10, "a unitary expression: rotate_to, identity, or tensor of those",
    ),
    (
        "eigenbasis-of-a-ket", P + "DEFINE_INSTRUMENT m eigenbasis-of(zp)\n",
        7, 1, "eigenbasis-of(...) needs a state argument",
    ),
    (
        "incomplete-instrument", P + "DEFINE_INSTRUMENT m a=zs\n",
        7, 1, "bad instrument 'm': projectors do not sum to the identity",
    ),
    ("no-chambers", P + "MIX free\n", 7, 1, "no chambers exist yet"),
    (
        "chamber-of-a-ket", P + "CHAMBER u 1.0 zp\n",
        7, 1, "'zp' is a ket; chamber contents must be a state (wrap it in proj())",
    ),
    (
        "chamber-dimension", P + "DEFINE_STATE big proj(tensor(zp, zp))\nCHAMBER u 1.0 big\n",
        8, 1, "state 'big' has dimension 4, scenario declares 2",
    ),
    (
        "separation-positions",
        P + "DEFINE_INSTRUMENT m a/b=zp b=zm\nCHAMBER u 0.5 zs\nCHAMBER u/a 0.5 ms\nSEPARATE m\n",
        10, 1, "separation produced duplicate positions ['u/a/b', 'u/a/b']",
    ),
]


@pytest.mark.parametrize(
    "text, cls, line, col, message",
    [case[1:] for case in NAMES_AND_HEADERS]
    + [(text, ExecutionError, line, col, message) for _, text, line, col, message in EXECUTION],
    ids=[case[0] for case in NAMES_AND_HEADERS + EXECUTION],
)
def test_located_diagnostic(text, cls, line, col, message):
    with pytest.raises(cls) as err:
        execute(parse(text))
    assert type(err.value) is cls
    assert (err.value.line, err.value.column) == (line, col)
    assert str(err.value) == f"line {line}, col {col}: {message}"


class TestPathsThatAreNotErrors:
    def test_purely_imaginary_amplitude(self):
        protocol = parse(Q + "DEFINE_STATE k ket(0.6i, -0.8i)\n")
        assert protocol.statements[0].expr.amplitudes == (0.6j, -0.8j)
        assert "ket(0.6i, -0.8i)" in render(protocol)
        assert parse(render(protocol)) == protocol

    def test_tensor_of_two_states_is_a_state(self):
        text = QUAD + "DEFINE_STATE s tensor(proj(ket(1, 0)), proj(ket(0, 1)))\nCHAMBER u 1.0 s\n"
        result = run_protocol(parse(text))
        (chamber,) = result.final_chambers
        assert isinstance(chamber.contents, QuantumContents)
        assert chamber.contents.assembled().matrix.entries[1, 1] == 1.0

    def test_classical_weights_whose_sum_overflows_are_normalised(self):
        # 1e308 + 1e308 overflows; the weights are divided by the largest first.
        result = run_protocol(parse(C + "CLASSICAL_CHAMBER c 1.0 a=1e308 b=1e308\n"))
        (chamber,) = result.final_chambers
        assert chamber.contents.weights == {"a": 0.5, "b": 0.5}

    @pytest.mark.parametrize(
        "elements", ["a=zp b=zm", "a=zs b=ms"], ids=["kets", "states"]
    )
    def test_kets_and_states_serve_as_instrument_elements(self, elements):
        text = P + f"DEFINE_INSTRUMENT m {elements}\nCHAMBER u 1.0 zs\nSEPARATE m\n"
        result = execute(parse(text)).result
        assert [c.label for c in result.final_chambers] == ["u/a"]


HEADER = ast.Header(2, 1.0, 1.0, ())
CLASSICAL_HEADER = ast.Header(None, 1.0, 1.0, ())


class TestApiBuiltProtocols:
    def test_duplicate_observer_names(self):
        observers = [Observer.quantum("a"), Observer.quantum("a")]
        with pytest.raises(IncompatibleReductionError) as err:
            run_protocol(ast.Protocol(HEADER, ()), observers)
        assert str(err.value) == "duplicate observer names in ['a', 'a']"

    def test_unsupported_statement(self):
        protocol = ast.Protocol(HEADER, (ast.NameRef("x", line=3, col=2),))
        with pytest.raises(ExecutionError) as err:
            run_protocol(protocol)
        assert str(err.value) == "line 3, col 2: unsupported statement NameRef"

    @pytest.mark.parametrize(
        "stmt, message",
        [
            (ast.ChamberStmt("c", 1.0, "nope", line=5, col=1), "state 'nope' is not defined"),
            (ast.SeparateStmt("nope", line=5, col=1), "instrument 'nope' is not defined"),
        ],
        ids=["state", "instrument"],
    )
    def test_undefined_name_in_a_statement(self, stmt, message):
        with pytest.raises(ExecutionError) as err:
            run_protocol(ast.Protocol(HEADER, (stmt,)))
        assert str(err.value) == f"line 5, col 1: {message}"

    def test_undefined_name_in_an_expression(self):
        stmt = ast.DefineState("s", ast.NameRef("nope", line=4, col=7), line=4, col=1)
        with pytest.raises(ExecutionError) as err:
            run_protocol(ast.Protocol(HEADER, (stmt,)))
        assert str(err.value) == "line 4, col 7: name 'nope' is not defined"

    @pytest.mark.parametrize(
        "weight", [0.0, -1.0, math.inf, math.nan], ids=["zero", "negative", "inf", "nan"]
    )
    def test_classical_chamber_weight_must_be_finite_and_positive(self, weight):
        stmt = ast.ClassicalChamberStmt("c", 1.0, (("x", weight),), line=2, col=1)
        with pytest.raises(ExecutionError) as err:
            run_protocol(ast.Protocol(CLASSICAL_HEADER, (stmt,)))
        message = f"species 'x' weight {weight!r} is not finite and > 0"
        assert str(err.value) == f"line 2, col 1: {message}"

    def test_classical_separate_names_each_species_once(self):
        statements = (
            ast.ClassicalChamberStmt("c", 1.0, (("x", 1.0),), line=2, col=1),
            ast.ClassicalSeparateStmt((("x", "transmitted"), ("x", "reflected")), line=3, col=1),
        )
        with pytest.raises(ExecutionError) as err:
            run_protocol(ast.Protocol(CLASSICAL_HEADER, statements))
        assert str(err.value) == "line 3, col 1: species 'x' is named twice"


@pytest.mark.parametrize(
    "call, cls, message",
    [
        (
            lambda: semantics.eval_value(ast.ClaimCycleStmt(line=3, col=4), {}),
            ExecutionError,
            "line 3, col 4: unsupported expression ClaimCycleStmt",
        ),
        (
            lambda: render(ast.Protocol(HEADER, (ast.NameRef("x"),))),
            TypeError,
            "unknown statement NameRef(name='x')",
        ),
        (
            lambda: ast.render_expr(ast.ClaimCycleStmt()),
            TypeError,
            "unknown expression ClaimCycleStmt()",
        ),
    ],
    ids=["eval-unknown-node", "render-unknown-statement", "render-unknown-expression"],
)
def test_protocol_input_checks(call, cls, message):
    with pytest.raises(cls) as err:
        call()
    assert str(err.value) == message
