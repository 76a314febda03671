"""A well-formed operation line that holds no expression is parsed whole.

After a script's first operation, a SEPARATE, CLASSICAL_SEPARATE, MIX,
CLASSICAL_MIX, PARTITION, REMOVE_PARTITION or CLAIM_CYCLE line that fits its
shape in the parser's ``_SHAPES`` and passes the token path's checks becomes
its statement with no tokens.  The token path (``_tokenize_line`` read by
``_Parser.parse_line``) is what it must agree with: the same statement, floats
to the bit, line and column included, and for any other line the same
outcome, which only the token path produces.  The token path is reached here
by emptying ``_SHAPES``; ``_Parser.parse_whole`` is wrapped to count the
lines parsed whole.
"""

import time
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest
from conftest import load_workloads
from hypothesis import given
from hypothesis import strategies as st

from qgas.errors import ProtocolError
from qgas.protocol import parser
from qgas.protocol.parser import _CONSTRUCTORS, parse
from qgas.scenarios import BUNDLED, scenario_text

FIXTURES = Path(__file__).parent / "fixtures"


def prelude(instrument: str = "z") -> str:
    """Five lines ending in the first operation, so that line 6 may be parsed whole."""
    return (
        "HEADER dim=2 temperature=1.0 particles=1.0\n"
        "DEFINE_STATE up ket(1, 0)\n"
        f"DEFINE_INSTRUMENT {instrument} eigenbasis-of(up)\n"
        "CHAMBER gas 1 up\n"
        "CLAIM_CYCLE\n"
    )


def bits(node):
    """A node as nested tuples, its kind, line and column first and floats by
    ``float.hex``."""
    if isinstance(node, float):
        return node.hex()
    if isinstance(node, tuple):
        return tuple(map(bits, node))
    if is_dataclass(node):
        return (type(node).__name__, *(bits(getattr(node, f.name)) for f in fields(node)))
    return node


def outcome(text: str):
    """The statements to the bit, or the error's class and text."""
    try:
        protocol = parse(text)
    except ProtocolError as err:
        return type(err).__name__, str(err)
    return [bits(s) for s in protocol.statements]


def token_path(text: str):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parser, "_SHAPES", {})
        return outcome(text)


def counted(call):
    """``call()`` and the number of lines ``_Parser.parse_whole`` read."""
    whole = []
    read = parser._Parser.parse_whole

    def counting(self, *args):
        statement = read(self, *args)
        whole.append(statement is not None)
        return statement

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parser._Parser, "parse_whole", counting)
        return call(), sum(whole)


_GAPS = st.sampled_from([" ", "  ", "\t", "\x0b", " \x0b\t"])
_OPTIONAL_GAPS = st.sampled_from(["", "", " ", "\t", "\x0b"])
_TAILS = st.sampled_from(["", " ", "\t", " # a comment", "# ket(1) x=reflected", "#"])
_NAMES = st.one_of(
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_/]{0,6}", fullmatch=True),
    st.sampled_from(["_", "s00", "a/b_1", "free", "transmitted", "ket", "PARTITION"]),
)
_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


@st.composite
def fractions(draw):
    """Texts of 2-6 fractions that sum to 1, in repr, exponent, leading-point
    and Arabic-Indic spellings."""
    weights = draw(st.lists(st.integers(1, 1000), min_size=2, max_size=6))
    texts = []
    for weight in weights:
        value = weight / sum(weights)
        spell = draw(st.sampled_from(["repr", "e", "E", "point", "arabic"]))
        if spell in "eE":
            text = f"{value:.17{spell}}"
        elif spell == "point":
            text = repr(value).removeprefix("0")
        else:
            text = repr(value).translate(_ARABIC_INDIC)
        texts.append(text)
    return texts


@st.composite
def target(draw, after_keyword: bool):
    """An optional ``-> <name>``; right after the keyword a gap comes first."""
    if not draw(st.booleans()):
        return ""
    gap = draw(_GAPS if after_keyword else _OPTIONAL_GAPS)
    return f"{gap}->{draw(_OPTIONAL_GAPS)}{draw(_NAMES)}"


@st.composite
def operation_lines(draw):
    """A prelude and one well-formed line of a drawn shape that passes every check."""
    shape = draw(st.sampled_from(sorted(parser._SHAPES)))
    instrument = "z"
    if shape == "SEPARATE":
        instrument = draw(_NAMES.filter(lambda name: name not in _CONSTRUCTORS | {"up"}))
        body = f"{draw(_GAPS)}{instrument}"
    elif shape == "CLASSICAL_SEPARATE":
        names = draw(st.lists(_NAMES, min_size=1, max_size=20, unique=True))
        body = "".join(
            f"{draw(_GAPS)}{name}{draw(_OPTIONAL_GAPS)}={draw(_OPTIONAL_GAPS)}"
            f"{draw(st.sampled_from(['transmitted', 'reflected']))}"
            for name in names
        )
    elif shape.endswith("MIX"):
        mode = draw(st.sampled_from(["distinguishing", "free"]))
        positions = "".join(f"{draw(_GAPS)}{name}" for name in draw(st.lists(_NAMES, max_size=4)))
        body = f"{draw(_GAPS)}{mode}{positions}{draw(target(after_keyword=False))}"
    elif shape == "PARTITION":
        texts = draw(fractions())
        numbers = "".join(f"{draw(_GAPS)}{text}" for text in texts)
        names = draw(_GAPS).join(draw(_NAMES) for _ in texts)
        arrow = f"{draw(_OPTIONAL_GAPS)}->{draw(_OPTIONAL_GAPS)}"
        body = f"{draw(_GAPS)}{draw(_NAMES)}{numbers}{arrow}{names}"
    elif shape == "REMOVE_PARTITION":
        positions = draw(st.lists(_NAMES, max_size=4))
        body = "".join(f"{draw(_GAPS)}{name}" for name in positions)
        body += draw(target(after_keyword=not positions))
    else:
        body = ""
    return prelude(instrument), shape + body + draw(_TAILS)


@given(operation_lines())
def test_a_well_formed_line_is_parsed_whole_to_the_token_path_statement(case):
    head, line = case
    text = head + line + "\n"
    result, whole = counted(lambda: outcome(text))
    assert whole == 1
    assert result == token_path(text)
    assert result[-1][1:3] == (6, 1)  # line and column of the statement


_EDITS = st.sampled_from(list(" \t\x0b#-=>.0123456789eEi+a_/٣*(") + ["->", "free", "  "])


@given(operation_lines(), st.lists(st.tuples(st.integers(0, 200), _EDITS, st.booleans()),
                                   min_size=1, max_size=3))
def test_an_edited_line_keeps_its_token_path_outcome(case, edits):
    """Characters inserted into or replaced in a well-formed line: whatever
    the line becomes, both paths give the same statement or diagnostic."""
    head, line = case
    for at, text, replace in edits:
        at %= len(line) + 1
        line = line[:at] + text + line[at + replace:]
    text = head + line + "\n"
    assert outcome(text) == token_path(text)


# Lines that fail or miss a shape keep the parent's outcome: the statement
# when the token path takes the line, else its diagnostic.  ``whole`` says
# whether the line is parsed whole.
HALVES = ("0x1.0000000000000p-1", "0x1.0000000000000p-1")
SYNTAX = "ScenarioSyntaxError"
NEAR_MISSES = [
    ("PARTITION gas +0.5 0.5 -> a b", ("PartitionStmt", 6, 1, "gas", HALVES, ("a", "b")), False),
    ("PARTITION gas 1 0.5 -> a b", (SYNTAX, "line 6, col 15: expected fractions in (0, 1)"), False),
    ("PARTITION gas 1.0 -> a", (SYNTAX, "line 6, col 15: expected fractions in (0, 1)"), False),
    ("PARTITION gas 1e-9 0.999999999 -> a b",
     (SYNTAX, "line 6, col 15: expected a fraction above 1e-09"), False),
    ("PARTITION gas 0.5 0.500000002 -> a b",
     (SYNTAX, "line 6, col 1: expected fractions summing to 1"), False),
    ("PARTITION gas 0.5 -> a", (SYNTAX, "line 6, col 1: expected at least two fractions"), False),
    ("PARTITION gas 0.5 0.5 -> a b c",
     (SYNTAX, "line 6, col 23: expected one name per fraction"), False),
    ("PARTITION gas 0.5i 0.5 -> a b", (SYNTAX, "line 6, col 15: expected a real number"), False),
    ("PARTITION gas 0.50.5 -> a b",
     (SYNTAX, "line 6, col 19: expected a gap between two numbers"), False),
    ("MIX free->gas", ("MixStmt", 6, 1, False, (), "gas", False), True),
    ("MIX freegas", (SYNTAX, "line 6, col 5: expected distinguishing or free"), False),
    ("MIX free a ket(1)", (SYNTAX, "line 6, col 15: expected a chamber position"), False),
    ("REMOVE_PARTITION a -> b c", (SYNTAX, "line 6, col 25: expected end of line"), False),
    ("SEPARATE nope",
     ("UndefinedNameError", "line 6, col 10: instrument 'nope' is not defined"), False),
    ("SEPARATE up", ("UndefinedNameError", "line 6, col 10: instrument 'up' is not defined"), False),
    ("CLAIM_CYCLE now", (SYNTAX, "line 6, col 13: expected end of line"), False),
    ("PARTITIONgas 0.5 0.5 -> a b",
     (SYNTAX, "line 6, col 1: expected a known statement keyword"), False),
    (" PARTITION gas 0.5 0.5 -> a b", ("PartitionStmt", 6, 2, "gas", HALVES, ("a", "b")), False),
    ("CLASSICAL_SEPARATE a=reflected b=transmitted a=transmitted",
     (SYNTAX, "line 6, col 46: expected a species not named before on this line"), False),
    ("CLASSICAL_SEPARATE a=transmited",
     (SYNTAX, "line 6, col 22: expected transmitted or reflected"), False),
    ("CLASSICAL_SEPARATE a=reflected b=",
     (SYNTAX, "line 6, col 34: expected transmitted or reflected"), False),
    ("CLASSICAL_SEPARATE s00 transmitted", (SYNTAX, "line 6, col 24: expected ="), False),
    ("CLASSICAL_SEPARATE 0x=reflected",
     (SYNTAX, "line 6, col 20: expected <species>=transmitted|reflected"), False),
    ("CLASSICAL_SEPARATEs00=reflected",
     (SYNTAX, "line 6, col 1: expected a known statement keyword"), False),
    ("CLASSICAL_SEPARATE", (SYNTAX, "line 6, col 1: expected a permeability map"), False),
    ("CLASSICAL_SEPARATE  # no map",
     (SYNTAX, "line 6, col 1: expected a permeability map"), False),
    ("CLASSICAL_SEPARATE a=reflectedb=transmitted",
     (SYNTAX, "line 6, col 22: expected transmitted or reflected"), False),
    ("CLASSICAL_SEPARATE a=reflected b=transmitted_",
     (SYNTAX, "line 6, col 34: expected transmitted or reflected"), False),
    ("CLASSICAL_SEPARATE a = = reflected",
     (SYNTAX, "line 6, col 24: expected transmitted or reflected"), False),
    ("CLASSICAL_SEPARATE a=reflected b\u0663=transmitted",
     (SYNTAX, "line 6, col 33: expected ="), False),
    ("CLASSICAL_SEPARATE a=reflected b=transmitted\xa0*",
     (SYNTAX, "line 6, col 46: expected <species>=transmitted|reflected"), False),
]


@pytest.mark.parametrize(
    "line, expected, whole", NEAR_MISSES, ids=[repr(line) for line, _, _ in NEAR_MISSES]
)
def test_a_near_miss_keeps_its_outcome(line, expected, whole):
    text = prelude() + line + "\n"
    result, count = counted(lambda: outcome(text))
    assert result == token_path(text)
    assert (result if isinstance(result, tuple) else result[-1]) == expected
    assert count == whole


@pytest.mark.parametrize(
    "line",
    ["PARTITION gas " + "1" * 20000 + "x 0.5 -> a b",
     "PARTITION gas 0.5 " + "1" * 20000 + ".5e" + "1" * 20000 + "i -> a b"],
    ids=["digits", "digits-point-exponent"],
)
def test_a_long_number_that_misses_its_shape_is_declined_in_linear_time(line):
    """A shape's NUMBER can split a run of digits only one way, so a line that
    misses its shape is declined after a linear scan: milliseconds on a
    2-vCPU Xeon VM, where a NUMBER pattern that backtracks through every
    split of the run took about 15 s per line."""
    text = prelude() + line + "\n"
    start = time.perf_counter()
    result = outcome(text)
    assert time.perf_counter() - start < 1.0
    assert result == token_path(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("PARTITION gas 0.5 0.5 -> a b\n" + prelude(),
         "line 1, col 1: the script must start with a HEADER line"),
        # The first operation is read by the token path, which checks that
        # the chambers fill the container.
        (prelude().replace("CHAMBER gas 1", "CHAMBER gas 0.5").replace("CLAIM_CYCLE", "MIX free"),
         "line 5, col 1: expected fractions summing to 1, not 0.5"),
    ],
    ids=["before-header", "first-operation"],
)
def test_lines_before_the_first_operation_take_the_token_path(text, message):
    result, whole = counted(lambda: outcome(text))
    assert (result[1], whole) == (message, 0)
    assert result == token_path(text)


_TEXTS = {name: scenario_text(name) for name in BUNDLED} | {
    stem: (FIXTURES / f"{stem}.qg").read_text()
    for stem in ("classical_ledger-1", "classical_ledger-2", "deep_protocol-1", "deep_protocol-2")
}


@pytest.mark.parametrize("text", _TEXTS.values(), ids=_TEXTS.keys())
def test_the_bundled_scenarios_and_fixtures_parse_to_the_token_path_statements(text):
    assert outcome(text) == token_path(text)


def _whole_lines_and_tokens(texts: list[str]) -> tuple[int, int, int]:
    """Lines parsed whole, lines in all, and tokens lexed for the rest."""
    lexed = []
    tokenize = parser._tokenize_line

    def counting(*args):
        tokens = tokenize(*args)
        lexed.append(len(tokens))
        return tokens

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parser, "_tokenize_line", counting)
        _, whole = counted(lambda: [parse(text) for text in texts])
    lines = sum(len(text.split("\n")) for text in texts)
    return whole, lines, sum(lexed)


@pytest.mark.parametrize(
    "workload, source, counts",
    [
        ("classical_ledger", "seed 0", (162, 174, 200)),
        ("classical_ledger", "classical_ledger-1", (162, 174, 200)),
        ("classical_ledger", "classical_ledger-2", (162, 174, 200)),
        ("deep_protocol", "seed 0", (18, 86, 598)),
        ("deep_protocol", "deep_protocol-1", (18, 86, 598)),
        ("deep_protocol", "deep_protocol-2", (18, 86, 598)),
        ("bundled_suite", "BUNDLED", (18, 179, 690)),
    ],
)
def test_how_many_lines_are_parsed_whole(workload, source, counts):
    """A silent fall-back to the token path moves these counts.  The bundled
    scenarios' 82 blank or comment-only lines are not lexed."""
    if source == "seed 0":
        texts = [text for _, text in load_workloads().GENERATORS[workload](0).scripts]
    elif source == "BUNDLED":
        texts = [scenario_text(name) for name in BUNDLED]
    else:
        texts = [_TEXTS[source]]
    assert _whole_lines_and_tokens(texts) == counts
