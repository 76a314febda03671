from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgas.errors import (
    DuplicateNameError,
    HeaderMissingError,
    ProtocolError,
    ScenarioSyntaxError,
    UndefinedNameError,
)
from qgas.protocol import ast, execute
from qgas.protocol.parser import _tokenize_line, parse
from qgas.protocol.ast import render
from qgas.scenarios import BUNDLED, scenario_text

FIXTURES = sorted((Path(__file__).parent / "fixtures").glob("*.qg"))

MINIMAL = """\
HEADER dim=2 temperature=1.0 particles=1.0
OBSERVER lab full
DEFINE_STATE zp ket(1, 0)
DEFINE_STATE zs proj(zp)
CHAMBER main 1.0 zs
"""


class TestBasics:
    def test_minimal_script(self):
        protocol = parse(MINIMAL)
        assert protocol.header.dim == 2
        assert protocol.header.temperature == 1.0
        assert [obs.name for obs in protocol.header.observers] == ["lab"]
        assert len(protocol.statements) == 3
        chamber = protocol.statements[-1]
        assert isinstance(chamber, ast.ChamberStmt)
        assert chamber.position == "main"
        assert chamber.fraction == 1.0

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n\n" + MINIMAL + "\n# trailing\n"
        assert parse(text) == parse(MINIMAL)

    def test_crlf_accepted(self):
        assert parse(MINIMAL.replace("\n", "\r\n")) == parse(MINIMAL)

    def test_classical_header(self):
        protocol = parse(
            "HEADER classical temperature=2.0 particles=3.0\n"
            "OBSERVER marie classical\n"
            "CLASSICAL_CHAMBER main 1.0 argon=1\n"
        )
        assert protocol.header.dim is None
        assert protocol.header.particles == 3.0

    def test_complex_amplitudes(self):
        protocol = parse(
            "HEADER dim=2 temperature=1.0 particles=1.0\n"
            "DEFINE_STATE spiral ket(0.7071067811865476, 0.5+0.5i)\n"
        )
        define = protocol.statements[0]
        assert define.expr.amplitudes[1] == pytest.approx(0.5 + 0.5j)

    def test_bundled_scenarios_all_parse(self):
        for name in BUNDLED:
            protocol = parse(scenario_text(name))
            assert protocol.statements

    def test_peres_tatiana_statement_counts(self):
        protocol = parse(scenario_text("peres_tatiana"))
        operational = [
            s
            for s in protocol.statements
            if isinstance(
                s,
                (
                    ast.SeparateStmt, ast.MixStmt, ast.RotateStmt,
                    ast.PartitionStmt, ast.RemovePartitionStmt, ast.ClaimCycleStmt,
                ),
            )
        ]
        # mix, separate, three rotations, remove-partition, partition, claim.
        assert len(operational) == 8
        assert len(protocol.statements) == 21


class TestErrors:
    def test_header_missing(self):
        with pytest.raises(HeaderMissingError) as err:
            parse("DEFINE_STATE zp ket(1, 0)\n")
        assert err.value.line == 1

    def test_forward_reference(self):
        text = (
            "HEADER dim=2 temperature=1.0 particles=1.0\n"
            "CHAMBER upper 0.5 zplus\n"
        )
        with pytest.raises(UndefinedNameError) as err:
            parse(text)
        assert err.value.line == 2

    def test_undefined_name_in_expression(self):
        text = (
            "HEADER dim=2 temperature=1.0 particles=1.0\n"
            "DEFINE_STATE s mix(0.5*ghost + 0.5*ghost)\n"
        )
        with pytest.raises(UndefinedNameError) as err:
            parse(text)
        assert err.value.line == 2
        assert err.value.column > 1

    def test_duplicate_name(self):
        text = (
            "HEADER dim=2 temperature=1.0 particles=1.0\n"
            "DEFINE_STATE zp ket(1, 0)\n"
            "DEFINE_STATE zp ket(0, 1)\n"
        )
        with pytest.raises(DuplicateNameError) as err:
            parse(text)
        assert err.value.line == 3

    def test_syntax_error_carries_position(self):
        with pytest.raises(ScenarioSyntaxError) as err:
            parse("HEADER dim=2 temperature=1.0 particles=1.0\nDEFINE_STATE s ket(1, ]\n")
        assert err.value.line == 2
        assert err.value.column == 23
        assert err.value.expected == "a token, not ']'"

    def test_unknown_keyword(self):
        with pytest.raises(ScenarioSyntaxError):
            parse("HEADER dim=2 temperature=1.0 particles=1.0\nFROBNICATE now\n")

    def test_chamber_after_operation_rejected(self):
        text = (
            "HEADER dim=2 temperature=1.0 particles=1.0\n"
            "DEFINE_STATE zp ket(1, 0)\n"
            "DEFINE_STATE zs proj(zp)\n"
            "DEFINE_STATE zm ket(0, 1)\n"
            "DEFINE_INSTRUMENT zb a=proj(zp) b=proj(zm)\n"
            "CHAMBER main 1.0 zs\n"
            "SEPARATE zb\n"
            "CHAMBER late 0.5 zs\n"
        )
        with pytest.raises(ScenarioSyntaxError) as err:
            parse(text)
        assert err.value.line == 8

    def test_partition_fraction_sum_checked(self):
        text = (
            "HEADER dim=2 temperature=1.0 particles=1.0\n"
            "DEFINE_STATE zp ket(1, 0)\n"
            "DEFINE_STATE zs proj(zp)\n"
            "CHAMBER main 1.0 zs\n"
            "PARTITION main 0.5 0.6 -> a b\n"
        )
        with pytest.raises(ScenarioSyntaxError):
            parse(text)

    def test_chamber_fractions_must_fill_container(self):
        chambers = (
            "HEADER dim=2 temperature=1.0 particles=1.0\n"
            "DEFINE_STATE a proj(ket(1, 0))\n"
            "DEFINE_STATE b proj(ket(0, 1))\n"
            "CHAMBER u 0.7 a\n"
            "CHAMBER l 0.7 b\n"
        )
        # Reported at the first operation, or at the last chamber if none.
        for text, line in ((chambers + "MIX distinguishing u l\n", 6), (chambers, 5)):
            with pytest.raises(ScenarioSyntaxError) as err:
                parse(text)
            assert err.value.line == line
            assert "fractions summing to 1" in str(err.value)

    @pytest.mark.parametrize(
        "header, observer",
        [
            ("dim=4", "OBSERVER t reduce 2 3 first"),
            ("classical", "OBSERVER lab full"),
            ("classical", "OBSERVER lab reduce 2 2 first"),
            ("dim=2", "OBSERVER marie classical"),
        ],
        ids=["reduction-misfit", "full-on-classical", "reduce-on-classical", "classical-on-quantum"],
    )
    def test_observer_must_fit_header(self, header, observer):
        text = f"HEADER {header} temperature=1.0 particles=1.0\n{observer}\n"
        with pytest.raises(ScenarioSyntaxError) as err:
            parse(text)
        assert err.value.line == 2

    def test_expect_verdict_requires_declared_observer(self):
        text = (
            "HEADER dim=2 temperature=1.0 particles=1.0\n"
            "OBSERVER lab full\n"
            "EXPECT verdict ghost satisfied\n"
        )
        with pytest.raises(UndefinedNameError):
            parse(text)

    def test_duplicate_observer(self):
        text = (
            "HEADER dim=2 temperature=1.0 particles=1.0\n"
            "OBSERVER lab full\n"
            "OBSERVER lab full\n"
        )
        with pytest.raises(DuplicateNameError):
            parse(text)

    def test_observer_after_body_rejected(self):
        text = (
            "HEADER dim=2 temperature=1.0 particles=1.0\n"
            "DEFINE_STATE zp ket(1, 0)\n"
            "OBSERVER lab full\n"
        )
        with pytest.raises(ScenarioSyntaxError):
            parse(text)


class TestExpectSyntax:
    def test_ascii_and_glyph_forms(self):
        base = "HEADER dim=2 temperature=1.0 particles=1.0\nOBSERVER lab full\n"
        ascii_form = parse(base + "EXPECT Q_total ~= -0.693147 0.0001\n")
        glyph_form = parse(base + "EXPECT Q_total ≈ -0.693147 0.0001\n")
        assert ascii_form == glyph_form
        expect = ascii_form.statements[0]
        assert expect.value == pytest.approx(-0.693147)
        assert expect.tol == pytest.approx(1e-4)

    def test_default_tolerance(self):
        protocol = parse(
            "HEADER dim=2 temperature=1.0 particles=1.0\n"
            "EXPECT Q_total ~= 0.5\n"
        )
        assert protocol.statements[0].tol == pytest.approx(1e-4)


class TestRoundTrip:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_scenarios(self, name):
        protocol = parse(scenario_text(name))
        assert parse(render(protocol)) == protocol

    @pytest.mark.parametrize("path", FIXTURES, ids=[p.stem for p in FIXTURES])
    def test_fixture_scripts(self, path):
        # Their complex kets spell real, imaginary and signed parts.
        protocol = parse(path.read_text(encoding="utf-8"))
        assert parse(render(protocol)) == protocol

    def test_render_is_stable(self):
        protocol = parse(scenario_text("peres_tatiana"))
        once = render(protocol)
        assert render(parse(once)) == once

    def test_constructed_protocol_with_all_statements(self):
        text = (
            "HEADER dim=4 temperature=0.5 particles=2.0\n"
            "OBSERVER watcher reduce 2 2 second\n"
            "OBSERVER everything full\n"
            "DEFINE_STATE zp ket(1, 0)\n"
            "DEFINE_STATE zm ket(0, 1)\n"
            "DEFINE_STATE pair proj(tensor(zp, zm))\n"
            "DEFINE_STATE blend mix(0.25*proj(tensor(zp, zp)) + 0.75*pair)\n"
            "DEFINE_INSTRUMENT basis a=tensor(proj(zp), identity(2)) b=tensor(proj(zm), identity(2))\n"
            "CHAMBER upper 0.5 blend\n"
            "CHAMBER lower 0.5 pair\n"
            "SEPARATE basis\n"
            "MIX free upper/a upper/b -> upper\n"
            "ROTATE upper tensor(rotate_to(zp, zm), identity(2))\n"
            "REMOVE_PARTITION -> whole\n"
            "PARTITION whole 0.5 0.5 -> left right\n"
            "CLAIM_CYCLE\n"
            "EXPECT Q_total ~= 0.0 0.01\n"
            "EXPECT verdict watcher not_applicable\n"
        )
        protocol = parse(text)
        assert parse(render(protocol)) == protocol


QUANTUM_HEADER = "HEADER dim=2 temperature=1.0 particles=1.0\n"


def syntax_error(text: str) -> ScenarioSyntaxError:
    with pytest.raises(ScenarioSyntaxError) as err:
        parse(text)
    return err.value


class TestKeywords:
    @pytest.mark.parametrize(
        "line", ["observer x full", "line", "define_state zp ket(1, 0)", "Chamber u 1.0 a"]
    )
    def test_only_exact_uppercase_keywords(self, line):
        err = syntax_error(QUANTUM_HEADER + line + "\n")
        assert (err.line, err.column) == (2, 1)
        assert err.expected == "a known statement keyword"


class TestFiniteNumbers:
    @pytest.mark.parametrize(
        "text, line, col",
        [
            ("HEADER dim=1e999 temperature=1.0 particles=1.0\n", 1, 12),
            ("HEADER dim=2 temperature=1e999 particles=1.0\n", 1, 26),
            (QUANTUM_HEADER + "DEFINE_STATE e identity(1e999)\n", 2, 25),
            (
                "HEADER dim=4 temperature=1.0 particles=1.0\nOBSERVER x reduce 1e999 2 first\n",
                2, 19,
            ),
            (QUANTUM_HEADER + "EXPECT Q_total ~= 0.5 1e999\n", 2, 23),
        ],
        ids=["dim", "temperature", "identity", "reduce", "tolerance"],
    )
    def test_overflowing_literal_rejected_where_written(self, text, line, col):
        err = syntax_error(text)
        assert (err.line, err.column) == (line, col)
        assert err.expected == "a finite number"

    def test_underflow_is_finite(self):
        protocol = parse(QUANTUM_HEADER + "EXPECT Q_total ~= 1e-999 5e-324\n")
        assert protocol.statements[0].value == 0.0
        assert protocol.statements[0].tol == 5e-324


class TestGluedNumbers:
    @pytest.mark.parametrize(
        "text, line, col",
        [
            (QUANTUM_HEADER + "EXPECT Q_total ~= 1.51.5\n", 2, 23),
            (QUANTUM_HEADER + "EXPECT Q_total ~= 1e5.5\n", 2, 22),
            (QUANTUM_HEADER + "EXPECT Q_total ~= 1i2\n", 2, 21),
            (QUANTUM_HEADER + "DEFINE_STATE s ket(0.60.8)\n", 2, 24),
        ],
        ids=["value-tolerance", "exponent", "imaginary", "ket"],
    )
    def test_a_number_glued_to_a_number_is_rejected_at_the_second(self, text, line, col):
        err = syntax_error(text)
        assert (err.line, err.column) == (line, col)
        assert err.expected == "a gap between two numbers"

    def test_numbers_apart_are_two_numbers(self):
        statement = parse(QUANTUM_HEADER + "EXPECT Q_total ~= 1.51 .5\n").statements[0]
        assert (statement.value, statement.tol) == (1.51, 0.5)


class TestIdentityBound:
    @pytest.mark.parametrize(
        "text, line, col, expected",
        [
            (
                QUANTUM_HEADER + "ROTATE u identity(1e308)\n",
                2, 19, "an identity dimension from 1 to 2",
            ),
            (
                QUANTUM_HEADER + "DEFINE_INSTRUMENT m a=identity(0)\n",
                2, 32, "an identity dimension from 1 to 2",
            ),
            (
                "HEADER classical temperature=1.0 particles=1.0\n"
                "DEFINE_INSTRUMENT m a=identity(0)\n",
                2, 32, "a quantum HEADER for identity(n)",
            ),
        ],
        ids=["above-dim", "zero", "classical"],
    )
    def test_out_of_range_identity_rejected_at_its_argument(self, text, line, col, expected):
        err = syntax_error(text)
        assert (err.line, err.column) == (line, col)
        assert err.expected == expected

    def test_identity_of_header_dim_accepted(self):
        protocol = parse(QUANTUM_HEADER + "DEFINE_INSTRUMENT m a=identity(2)\n")
        assert protocol.statements[0].elements[0][1] == ast.IdentityExpr(2)


class TestRepeatedSpecies:
    CLASSICAL = "HEADER classical temperature=1.0 particles=1.0\n"

    @pytest.mark.parametrize(
        "text, line, col",
        [
            (CLASSICAL + "OBSERVER o classical a=b a=c\n", 2, 26),
            (
                CLASSICAL + "CLASSICAL_CHAMBER u 1.0 a=1 b=1\n"
                "CLASSICAL_SEPARATE a=transmitted b=reflected a=reflected\n",
                3, 46,
            ),
        ],
        ids=["observer-map", "classical-separate"],
    )
    def test_repeated_species_rejected_at_its_name(self, text, line, col):
        err = syntax_error(text)
        assert (err.line, err.column) == (line, col)
        assert err.expected == "a species not named before on this line"

    def test_repeated_chamber_species_add_their_weights(self):
        protocol = parse(self.CLASSICAL + "CLASSICAL_CHAMBER u 1.0 a=1 a=1\n")
        assert protocol.statements[0].species == (("a", 1.0), ("a", 1.0))
        chamber = execute(protocol).result.final_chambers[0]
        assert chamber.contents.weights == {"a": 1.0}


class TestFractionFloor:
    STATES = QUANTUM_HEADER + "DEFINE_STATE a proj(ket(1, 0))\n"

    @pytest.mark.parametrize(
        "text, line, col",
        [
            (STATES + "CHAMBER u 1e-320 a\nCHAMBER l 1.0 a\n", 3, 11),
            (
                "HEADER classical temperature=1.0 particles=1.0\n"
                "CLASSICAL_CHAMBER u 1e-10 a=1\nCLASSICAL_CHAMBER l 1.0 b=1\n",
                2, 21,
            ),
            (STATES + "CHAMBER u 1.0 a\nPARTITION u 0.5 5e-324 0.5 -> x y z\n", 4, 17),
        ],
        ids=["chamber-subnormal", "classical-chamber", "partition"],
    )
    def test_fraction_at_or_below_floor_rejected(self, text, line, col):
        err = syntax_error(text)
        assert (err.line, err.column) == (line, col)
        assert err.expected == "a fraction above 1e-09"

    def test_fraction_just_above_floor_accepted(self):
        text = self.STATES + "CHAMBER u 2e-9 a\nCHAMBER l 0.999999998 a\n"
        assert parse(text).statements[1].fraction == 2e-9


class TestTokens:
    @pytest.mark.parametrize(
        "line, stream",
        [
            ("eigenbasis-ofx", [("EIG", "eigenbasis-of", 1), ("NAME", "x", 14)]),
            ("a->b", [("NAME", "a", 1), ("->", "->", 2), ("NAME", "b", 4)]),
            ("1.e5i", [("NUMBER", "1.e5i", 1)]),
            (".5", [("NUMBER", ".5", 1)]),
            ("x~=1", [("NAME", "x", 1), ("~", "~=", 2), ("NUMBER", "1", 4)]),
            ("x≈1", [("NAME", "x", 1), ("~", "≈", 2), ("NUMBER", "1", 3)]),
            ("a/b_c", [("NAME", "a/b_c", 1)]),
            ("a-b", [("NAME", "a", 1), ("-", "-", 2), ("NAME", "b", 3)]),
            (
                "ket(1) # comment",
                [("NAME", "ket", 1), ("KET", "(1)", 4)],
            ),
            (
                "ket(1, 0)  # the up state, ket(0, 1) is down",
                [("NAME", "ket", 1), ("KET", "(1, 0)", 4)],
            ),
            (
                "ket(1, # 0)",
                [("NAME", "ket", 1), ("(", "(", 4), ("NUMBER", "1", 5), (",", ",", 6)],
            ),
            ("a\x0b\tb", [("NAME", "a", 1), ("NAME", "b", 4)]),
            ("٣.٥", [("NUMBER", "٣.٥", 1)]),
        ],
    )
    def test_token_streams(self, line, stream):
        tokens = _tokenize_line(line, 3)
        assert [(t.kind, t.text, t.col) for t in tokens[:-1]] == stream
        assert (tokens[-1].kind, tokens[-1].col) == ("EOL", len(line) + 1)
        assert all(t.line == 3 for t in tokens)

    def test_number_values(self):
        values = [(t.value, t.imaginary) for t in _tokenize_line("1.e5i .5 ٣.٥ 2", 1)[:-1]]
        assert values == [(1e5, True), (0.5, False), (3.5, False), (2.0, False)]


_WORDS = [
    "HEADER", "OBSERVER", "DEFINE_STATE", "DEFINE_INSTRUMENT", "CHAMBER",
    "CLASSICAL_CHAMBER", "SEPARATE", "CLASSICAL_SEPARATE", "MIX", "CLASSICAL_MIX",
    "ROTATE", "PARTITION", "REMOVE_PARTITION", "CLAIM_CYCLE", "EXPECT", "line",
    "full", "reduce", "classical", "first", "distinguishing", "free", "Q_total",
    "verdict", "ket", "proj", "mix", "tensor", "identity", "rotate_to", "dim",
    "temperature", "particles", "eigenbasis-of", "a", "u/x", "transmitted",
]
_any_case = st.sampled_from(_WORDS).flatmap(
    lambda w: st.lists(st.booleans(), min_size=len(w), max_size=len(w)).map(
        lambda upper: "".join(c.upper() if u else c.lower() for c, u in zip(w, upper))
    )
)
_pieces = st.one_of(
    _any_case,
    st.sampled_from(["(", ")", ",", "*", "+", "-", "=", "->", "~=", "≈", "#", "/", "$", "]"]),
    st.sampled_from(
        ["1e999", "1e999i", "1e-320", "5e-324", "0.5", "1", "2", ".5", "0.5i", "٣", "５"]
    ),
    st.sampled_from([" ", "  ", "\t", "\xa0", "\u2003"]),
)


class TestFuzz:
    @settings(max_examples=400)
    @given(st.lists(_pieces, max_size=14).map("".join))
    def test_random_line_fails_only_with_a_located_protocol_error(self, line):
        try:
            parse(QUANTUM_HEADER + line + "\n")
        except ProtocolError as err:
            assert err.line == 2
            assert 1 <= err.column <= len(line) + 1
