import pytest

from qgas.errors import (
    DuplicateNameError,
    HeaderMissingError,
    ScenarioSyntaxError,
    UndefinedNameError,
)
from qgas.protocol import ast
from qgas.protocol.parser import parse
from qgas.protocol.ast import render
from qgas.scenarios import BUNDLED, scenario_text

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
