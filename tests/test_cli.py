import json
import subprocess
import sys

import pytest

from conftest import subprocess_env
from qgas.protocol import execute, parse
from qgas.protocol.cli import main
from qgas.scenarios import BUNDLED, scenario_text

PERES_TATIANA_SUMMARY = (
    "tatiana: total Q = 0.27665164986 NkT; cycle claimed=True actual=True; "
    "second law violated\n"
    "willard: total Q = 0.27665164986 NkT; cycle claimed=True actual=False; "
    "second law not-applicable (apparent violation explained)\n"
    "expect [ok] line 48: Q_total = 0.276652 NkT within 0.0001: observed 0.27665164986\n"
    "expect [ok] line 49: tatiana verdict is violation: observed violation\n"
    "expect [ok] line 50: willard verdict is not_applicable: observed not_applicable\n"
)

# One gas, one two-outcome tilt, no OBSERVER and no EXPECT line.
TILT = (
    "HEADER dim=2 temperature=1.0 particles=1.0\n"
    "DEFINE_STATE s proj(ket({gas}))\n"
    "DEFINE_INSTRUMENT tilt up=proj(ket({up})) down=proj(ket({down}))\n"
    "CHAMBER main 1.0 s\n"
    "SEPARATE tilt\n"
)


class TestScenariosCommand:
    def test_lists_all_six(self, capsys):
        assert main(["scenarios"]) == 0
        listed = capsys.readouterr().out.split()
        assert listed == list(BUNDLED)

    def test_runs_as_a_module(self):
        out = subprocess.run(
            [sys.executable, "-m", "qgas.protocol.cli", "scenarios"],
            check=True, capture_output=True, text=True, env=subprocess_env(),
        )
        assert out.stdout.split() == list(BUNDLED)


class TestCheckCommand:
    def test_valid_file(self, tmp_path, capsys):
        path = tmp_path / "ok.qg"
        path.write_text(scenario_text("example1_distinguishable"))
        assert main(["check", str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_bundled_name(self, capsys):
        assert main(["check", "peres_tatiana"]) == 0

    def test_bundled_path_style_name(self, capsys):
        assert main(["check", "scenarios/jaynes_johann.qg"]) == 0

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "garbage.qg"
        path.write_text("this is not a scenario\n")
        assert main(["check", str(path)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["check", "no_such_scenario"]) == 2


class TestRunCommand:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_scenarios_pass(self, name, capsys):
        assert main(["run", name]) == 0
        capsys.readouterr()

    def test_expectation_failure_exits_1(self, tmp_path, capsys):
        path = tmp_path / "wrong.qg"
        path.write_text(
            scenario_text("jaynes_johann").replace(
                "EXPECT verdict johann violation",
                "EXPECT verdict johann satisfied",
            )
        )
        assert main(["run", str(path)]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_runtime_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.qg"
        path.write_text(
            "HEADER dim=2 temperature=1.0 particles=1.0\n"
            "DEFINE_STATE zp ket(1, 0)\n"
            "DEFINE_STATE xp ket(0.7071067811865476, 0.7071067811865476)\n"
            "DEFINE_STATE a proj(zp)\n"
            "DEFINE_STATE b proj(xp)\n"
            "CHAMBER upper 0.5 a\n"
            "CHAMBER lower 0.5 b\n"
            "MIX distinguishing\n"
        )
        assert main(["run", str(path)]) == 2
        assert "line 8" in capsys.readouterr().err

    def test_json_bytes_deterministic_across_processes(self, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.json"
            subprocess.run(
                [sys.executable, "-m", "qgas.protocol.cli", "run",
                 "peres_willard_completed", "--json", str(out)],
                check=True, capture_output=True, env=subprocess_env(),
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["run", "example2_nondistinguishable", "--json", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["schema"] == "1"
        assert payload["observers"][0]["total_Q"] == pytest.approx(-0.416496, abs=1e-6)

    def test_json_file_is_the_report_and_summary_is_unchanged(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["run", "peres_tatiana", "--json", str(out)]) == 0
        assert out.read_bytes() == execute(parse(scenario_text("peres_tatiana"))).to_json().encode()
        assert capsys.readouterr().out == PERES_TATIANA_SUMMARY

    @pytest.mark.parametrize(
        "flags, line",
        [
            ([], "total Q = -0.007907255112 NkT\n"),
            (
                ["--units", "absolute", "--kB", "2.0", "--N", "10.0", "--T", "3.0"],
                "total Q = -0.474435306734 absolute\n",
            ),
        ],
        ids=["nkt", "absolute"],
    )
    def test_script_without_observers_prints_its_total_heat(self, tmp_path, capsys, flags, line):
        # No OBSERVER and no EXPECT line: the total Q is the whole summary,
        # spelled as the report spells a total_Q.  The tilt splits off p = 1e-3.
        path = tmp_path / "tilt.qg"
        path.write_text(TILT.format(
            gas="1, 0",
            up="0.999499874937461, 0.03162277660168379",
            down="-0.03162277660168379, 0.999499874937461",
        ))
        assert main(["run", str(path), *flags]) == 0
        assert capsys.readouterr().out == line
        heat = execute(parse(path.read_text())).total_heat_nkt()
        scale = 1.0 if not flags else 2.0 * 10.0 * 3.0
        assert float(line.split()[3]) == round(heat * scale, 12)

    def test_unresolvable_outcome_exits_2_at_its_separate_line(self, tmp_path, capsys):
        # p_down = 1e-8 lies between PROBABILITY_FLOOR and RESOLUTION_BOUND.
        path = tmp_path / "tilt.qg"
        path.write_text(TILT.format(
            gas="0.9553069323282575, 0.29561573883265113",
            up="0.955336489125606, 0.29552020666133955",
            down="-0.29552020666133955, 0.955336489125606",
        ))
        assert main(["run", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"{path}: line 5, col 1: outcome down has p = 9.999999994736442e-09, "
            "below the resolution bound 1e-05\n"
        )

    def test_a_vanishing_total_heat_is_reported_as_plus_zero(self, tmp_path, capsys):
        # The two step heats cancel to -1.5e-16 NkT.  The EXPECT's observed
        # value is rounded as total_Q is, so neither reads -0.0.
        path = tmp_path / "cancel.qg"
        path.write_text(
            "HEADER dim=2 temperature=1.0 particles=1.0\n"
            "OBSERVER lab full\n"
            "DEFINE_STATE s proj(ket(0.9887710779360422, 0.14943813247359924))\n"
            "DEFINE_INSTRUMENT z a=proj(ket(1, 0)) b=proj(ket(0, 1))\n"
            "CHAMBER c 1.0 s\n"
            "SEPARATE z\n"
            "MIX distinguishing -> m\n"
            "EXPECT Q_total ~= 0 1e-9\n"
        )
        assert -1e-15 < execute(parse(path.read_text())).total_heat_nkt() < 0.0
        out = tmp_path / "report.json"
        assert main(["run", str(path), "--json", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "expect [ok] line 8: Q_total = 0.0 NkT within 1e-09: observed 0.0"
        )
        text = out.read_text()
        assert '"observed": 0.0,' in text and '"total_Q": 0.0,' in text
        assert "-0.0" not in text

    def test_absolute_units(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "run", "example1_distinguishable", "--json", str(out),
                "--units", "absolute", "--kB", "2.0", "--N", "10.0", "--T", "3.0",
            ]
        )
        assert code == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["units"] == "absolute"
        import math

        assert payload["observers"][0]["total_Q"] == pytest.approx(
            -math.log(2) * 2.0 * 10.0 * 3.0, abs=1e-9
        )
