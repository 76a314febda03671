"""Command line for scenario scripts.

    qgas run <file> [--json out.json] [--units nkt|absolute --kB v --N v --T v]
    qgas check <file>
    qgas scenarios

``<file>`` is a filesystem path or the name of a bundled scenario.  Exit
codes: 0 on success, 1 when an EXPECT line fails, 2 on parse or runtime
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..errors import ProtocolError, QuantumGasError
from ..scenarios import BUNDLED, scenario_text
from .interpreter import UnitsConfig, execute
from .parser import parse


def _load_source(spec: str) -> str:
    path = Path(spec)
    if path.exists():
        return path.read_text(encoding="utf-8")
    try:
        return scenario_text(path.stem)
    except KeyError:
        raise FileNotFoundError(f"no such file or bundled scenario: {spec}") from None


def _print_report(payload: dict, total_q: float) -> None:
    """Print the summary lines of a parsed JSON report, led by ``total_q`` if it has no observer."""
    unit_name = payload["units"]
    if not payload["observers"]:
        print(f"total Q = {total_q} {unit_name}")
    for observer in payload["observers"]:
        verdict = observer["verdict"]
        print(
            f"{observer['name']}: total Q = {observer['total_Q']} {unit_name}; "
            f"cycle claimed={verdict['claimed']} actual={verdict['actual']}; "
            f"second law {verdict['second_law']}"
            + (" (apparent violation explained)" if verdict["apparent_violation_explained"] else "")
        )
    for expectation in payload["expectations"]:
        status = "ok" if expectation["passed"] else "FAILED"
        print(
            f"expect [{status}] {expectation['description']}: "
            f"observed {expectation['observed']}"
        )


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
    except (OSError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        protocol = parse(source)
    except ProtocolError as exc:
        print(f"{args.file}: {exc}", file=sys.stderr)
        return 2

    if args.command == "check":
        print(f"{args.file}: OK ({len(protocol.statements)} statements)")
        return 0

    units = UnitsConfig(
        mode=args.units,
        boltzmann_constant=args.kB,
        particles=args.N,
        temperature=args.T,
    )
    try:
        report = execute(protocol)
    except (ProtocolError, QuantumGasError) as exc:
        print(f"{args.file}: {exc}", file=sys.stderr)
        return 2

    text = report.to_json(units)
    if args.json_path:
        Path(args.json_path).write_text(text, encoding="utf-8")
    _print_report(json.loads(text), report.total_heat_in(units))
    return 0 if report.all_expectations_passed else 1


if __name__ == "__main__":
    sys.exit(main())
