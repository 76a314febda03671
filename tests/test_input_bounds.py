"""Inputs from outside the program end in a located error or a strict report.

A HEADER's particles times temperature is the unit every reported heat is
divided by, so it must be a finite normal float; the CLI's unit flags
build a ``UnitsConfig`` that checks its own fields.  No input ends in a
Python traceback, and no report holds NaN or Infinity, which strict JSON
parsers reject.
"""

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qgas.errors import NonPositiveInputError, ProtocolError, ScenarioSyntaxError
from qgas.protocol import ast, execute, parse
from qgas.protocol.cli import main
from qgas.protocol.engine import run_protocol
from qgas.protocol.interpreter import UnitsConfig

NORMAL_NKT = "particles whose product with the temperature is a finite normal float"
# Two orthogonal gases, a distinguishing MIX, a claimed cycle and an EXPECT.
BODY = (
    "OBSERVER lab full\n"
    "DEFINE_STATE zs proj(ket(1, 0))\n"
    "DEFINE_STATE ms proj(ket(0, 1))\n"
    "CHAMBER a 0.5 zs\n"
    "CHAMBER b 0.5 ms\n"
    "MIX distinguishing -> m\n"
    "CLAIM_CYCLE\n"
    "EXPECT Q_total ~= 0.693147 1e-3\n"
)
# Four orthogonal gases mixed with distinguishing diaphragms absorb ln 4 NkT.
FOUR_GASES = (
    "HEADER dim=4 temperature=1.0 particles=1.0\n"
    "OBSERVER lab full\n"
    + "".join(
        f"DEFINE_STATE s{k} proj(ket({', '.join('1' if j == k else '0' for j in range(4))}))\n"
        f"CHAMBER c{k} 0.25 s{k}\n"
        for k in range(4)
    )
    + "MIX distinguishing\n"
)


def header(temperature: float, particles: float) -> str:
    return f"HEADER dim=2 temperature={temperature!r} particles={particles!r}\n"


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def strict_json(text: str) -> dict:
    return json.loads(text, parse_constant=_reject_constant)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "temperature, particles, col",
    [(1e-320, 1e-10, 43), (1e-200, 1e-200, 43), (1e300, 1e300, 43)],
    ids=["subnormal-temperature", "underflow", "overflow"],
)
def test_header_whose_nkt_is_not_normal_is_rejected_at_particles(temperature, particles, col):
    with pytest.raises(ScenarioSyntaxError) as err:
        parse(header(temperature, particles) + BODY)
    assert (err.value.line, err.value.column, err.value.expected) == (1, col, NORMAL_NKT)


@pytest.mark.parametrize("temperature, particles", [(1e-320, 1e-10), (1e300, 1e300)])
def test_api_header_whose_nkt_is_not_normal_is_rejected_as_the_run_starts(
    temperature, particles
):
    protocol = ast.Protocol(ast.Header(2, temperature, particles, ()), ())
    with pytest.raises(NonPositiveInputError, match="not a finite normal float"):
        run_protocol(protocol)


def test_header_nkt_at_the_normal_floor_runs():
    report = execute(parse(header(sys.float_info.min, 1.0) + BODY))
    assert report.total_heat_nkt() == pytest.approx(math.log(2))
    strict_json(report.to_json())


class TestUnitsConfig:
    def test_unknown_mode_is_rejected_when_built(self):
        with pytest.raises(ValueError, match="unknown units mode 'kelvin'"):
            UnitsConfig("kelvin")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("field", ["boltzmann_constant", "particles", "temperature"])
    def test_each_constant_given_must_be_finite_and_positive(self, field, value):
        with pytest.raises(NonPositiveInputError, match="must be finite and > 0"):
            UnitsConfig("absolute", **{field: value})

    def test_kb_n_t_must_be_finite(self):
        units = UnitsConfig("absolute", particles=1e308, temperature=1e308)
        with pytest.raises(NonPositiveInputError, match="kB N T must be finite and > 0"):
            units.per_nkt(ast.Header(2, 1.0, 1.0, ()))

    def test_a_heat_that_overflows_in_these_units_is_rejected(self):
        # kB N T = 1.7e308 is finite, but ln 4 of it is not.
        report = execute(parse(FOUR_GASES))
        units = UnitsConfig("absolute", boltzmann_constant=1.7e308)
        for render in (report.to_json, report.total_heat_in):
            with pytest.raises(NonPositiveInputError, match="overflows in these units"):
                render(units)


ABSOLUTE_RUN = ["run", "example1_distinguishable", "--units", "absolute"]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--kB", "nan"], "kB must be finite and > 0, got nan"),
        (["--kB", "inf"], "kB must be finite and > 0, got inf"),
        (["--kB=-1"], "kB must be finite and > 0, got -1.0"),
        (["--N", "0"], "N must be finite and > 0, got 0.0"),
        (["--N", "1e308", "--T", "1e308"], "kB N T must be finite and > 0, got inf"),
    ],
    ids=["kB-nan", "kB-inf", "kB-negative", "N-zero", "NT-overflow"],
)
def test_bad_unit_flags_exit_2_and_write_no_report(tmp_path, flags, message):
    out = tmp_path / "report.json"
    code, stdout, stderr = run_cli([*ABSOLUTE_RUN, *flags, "--json", str(out)])
    assert (code, stdout) == (2, "")
    assert stderr == f"example1_distinguishable: {message}\n"
    assert not out.exists()


def test_a_heat_that_overflows_in_the_flags_units_exits_2(tmp_path):
    script, out = tmp_path / "four.qg", tmp_path / "report.json"
    script.write_text(FOUR_GASES)
    code, _, stderr = run_cli(
        ["run", str(script), "--units", "absolute", "--kB", "1.7e308", "--json", str(out)]
    )
    assert code == 2 and "overflows in these units" in stderr
    assert not out.exists()


def test_a_report_path_that_cannot_be_written_exits_2(tmp_path):
    out = tmp_path / "missing" / "report.json"
    code, stdout, stderr = run_cli(["run", "example1_distinguishable", "--json", str(out)])
    assert (code, stdout) == (2, "")
    assert stderr.startswith("example1_distinguishable: [Errno 2] No such file or directory")


def test_a_script_that_is_not_utf8_exits_2(tmp_path):
    script = tmp_path / "latin1.qg"
    script.write_bytes(header(1.0, 1.0).encode() + b"# caf\xe9\n")
    code, stdout, stderr = run_cli(["check", str(script)])
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error: 'utf-8' codec can't decode byte 0xe9")


# -- fuzz: no input ends in a traceback ----------------------------------------

_POSITIVE = st.floats(min_value=math.ulp(0.0), max_value=sys.float_info.max)


@settings(max_examples=40)
@given(_POSITIVE, _POSITIVE)
@example(1e-320, 1e-10)
@example(1e-200, 1e-200)
@example(1e300, 1e300)
@example(1.7e308, 5e-324)
def test_any_positive_header_ends_in_a_located_error_or_a_strict_report(
    temperature, particles
):
    try:
        report = execute(parse(header(temperature, particles) + BODY))
    except ProtocolError as err:
        assert err.line >= 1
        return
    strict_json(report.to_json())


_FLAG_VALUES = st.one_of(
    st.none(),
    st.floats(),
    st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf, 1e308, 5e-324]),
)


@settings(max_examples=40)
@given(_FLAG_VALUES, _FLAG_VALUES, _FLAG_VALUES)
@example(math.nan, None, None)
@example(math.inf, None, None)
@example(None, 1e308, 1e308)
def test_any_unit_flags_give_a_strict_report_or_exit_2_without_one(kb, n, t):
    flags = [f"--{name}={value!r}" for name, value in (("kB", kb), ("N", n), ("T", t))
             if value is not None]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        code, _, stderr = run_cli([*ABSOLUTE_RUN, *flags, "--json", str(out)])
        if code == 2:
            assert stderr and not out.exists()
        else:
            assert code == 0
            strict_json(out.read_text())
