"""Command line for scenario scripts.

    qgas run <file> [--json out.json] [--units nkt|absolute --kB v --N v --T v]
    qgas check <file>
    qgas scenarios

``<file>`` is a filesystem path or the name of a bundled scenario.  ``run``
prints its summary from the run and renders the JSON report only for
``--json``.  Exit codes: 0 on success, 1 when an EXPECT line fails, 2 on
parse, runtime or unit errors (then no report is written) and when the
report cannot be written.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..errors import ProtocolError, QuantumGasError
from ..scenarios import BUNDLED, scenario_text
from .interpreter import RunReport, UnitsConfig, execute
from .parser import parse


def _load_source(spec: str) -> str:
    path = Path(spec)
    if path.exists():
        return path.read_text(encoding="utf-8")
    try:
        return scenario_text(path.stem)
    except KeyError:
        raise FileNotFoundError(f"no such file or bundled scenario: {spec}") from None


def _print_summary(report: RunReport, total_q: str) -> None:
    """Print each observer's verdict and each EXPECT line's outcome; ``total_q``
    is the run's total heat with its unit, printed alone if no observer is."""
    result = report.result
    if not result.observers:
        print(f"total Q = {total_q}")
    for observer in result.observers:
        verdict = result.views[observer.name].verdict
        print(
            f"{observer.name}: total Q = {total_q}; "
            f"cycle claimed={verdict.is_cycle_claimed} actual={verdict.is_cycle_actual}; "
            f"second law {verdict.status}"
            + (" (apparent violation explained)" if verdict.apparent_violation_explained else "")
        )
    for expectation in report.expectations:
        status = "ok" if expectation.passed else "FAILED"
        print(f"expect [{status}] {expectation.description}: observed {expectation.observed}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qgas", description="Run quantum-gas scenario scripts."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="parse, execute, and report a scenario")
    run_cmd.add_argument("file", help="path to a .qg file or a bundled scenario name")
    run_cmd.add_argument("--json", dest="json_path", help="write the JSON report here")
    run_cmd.add_argument(
        "--units", choices=("nkt", "absolute"), default="nkt",
        help="report heats in N k T units (default) or absolute units",
    )
    run_cmd.add_argument("--kB", type=float, default=1.0, help="Boltzmann constant")
    run_cmd.add_argument("--N", type=float, default=None, help="particle count override")
    run_cmd.add_argument("--T", type=float, default=None, help="temperature override")

    check_cmd = sub.add_parser("check", help="parse a scenario without running it")
    check_cmd.add_argument("file", help="path to a .qg file or a bundled scenario name")

    sub.add_parser("scenarios", help="list the bundled scenarios")

    args = parser.parse_args(argv)

    if args.command == "scenarios":
        for name in BUNDLED:
            print(name)
        return 0

    try:
        source = _load_source(args.file)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        protocol = parse(source)
        if args.command == "check":
            print(f"{args.file}: OK ({len(protocol.statements)} statements)")
            return 0
        units = UnitsConfig(args.units, args.kB, args.N, args.T)
        report = execute(protocol)
        total_q = f"{report.total_heat_in(units)} {units.name}"
        if args.json_path:
            Path(args.json_path).write_text(report.to_json(units), encoding="utf-8")
    except (ProtocolError, QuantumGasError, OSError) as exc:
        print(f"{args.file}: {exc}", file=sys.stderr)
        return 2

    _print_summary(report, total_q)
    return 0 if report.all_expectations_passed else 1


if __name__ == "__main__":
    sys.exit(main())
