"""Turn an executed run into a versioned JSON report and check EXPECT lines.

Heats are reported in units of N k T of the scenario header unless an
absolute-units configuration is supplied.  The report is deterministic:
floats are rounded to 12 decimals, keys are sorted, and a state digest is
the eigenvalue list plus a hash of the rounded matrix.  The eigenvalues are
the spectrum the density matrix kept when it was validated; the hash reads
matrix entries only, so no eigenvector phase convention plays a part.
Observers view each step's ground-truth chambers while the report renders.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from ..observers import Observer, view_chamber
from ..thermo import ClassicalContents, GasChamber, QuantumContents
from . import ast
from .engine import RunResult, run_protocol

SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class UnitsConfig:
    """How to scale ledger heats for the report.

    nkt mode divides by (particles * kB * temperature) of the header; the
    absolute mode multiplies the NkT value by the supplied constants.
    """

    mode: str = "nkt"  # "nkt" | "absolute"
    boltzmann_constant: float = 1.0
    particles: float | None = None
    temperature: float | None = None


@dataclass(frozen=True)
class ExpectationResult:
    kind: str
    description: str
    passed: bool
    observed: float | str
    expected: float | str


@dataclass(frozen=True)
class RunReport:
    result: RunResult
    expectations: tuple[ExpectationResult, ...]

    @property
    def all_expectations_passed(self) -> bool:
        return all(e.passed for e in self.expectations)

    def total_heat_nkt(self) -> float:
        header = self.result.header
        return self.result.total_heat / (header.particles * header.temperature)

    def to_json_dict(self, units: UnitsConfig | None = None) -> dict:
        return _report_dict(self, units or UnitsConfig())

    def to_json(self, units: UnitsConfig | None = None) -> str:
        return json.dumps(
            self.to_json_dict(units), sort_keys=True, separators=(",", ": "), indent=1
        )


def execute(protocol: ast.Protocol, observers: list[Observer] | None = None) -> RunReport:
    """Run the protocol and evaluate its EXPECT lines."""
    result = run_protocol(protocol, observers)
    return RunReport(result, tuple(_check_expectations(protocol, result)))


def _check_expectations(protocol: ast.Protocol, result: RunResult):
    header = protocol.header
    total_nkt = result.total_heat / (header.particles * header.temperature)
    for stmt in protocol.statements:
        if isinstance(stmt, ast.ExpectTotalHeat):
            passed = abs(total_nkt - stmt.value) <= stmt.tol
            yield ExpectationResult(
                kind="Q_total",
                description=(
                    f"line {stmt.line}: Q_total = {stmt.value} NkT "
                    f"within {stmt.tol}"
                ),
                passed=passed,
                observed=round(total_nkt, 12),
                expected=stmt.value,
            )
        elif isinstance(stmt, ast.ExpectVerdict):
            view = result.views.get(stmt.observer)
            if view is None:
                yield ExpectationResult(
                    kind="verdict",
                    description=(
                        f"line {stmt.line}: {stmt.observer} verdict is {stmt.outcome}"
                    ),
                    passed=False,
                    observed="observer absent from this run",
                    expected=stmt.outcome,
                )
                continue
            observed = {
                "satisfied": "satisfied",
                "violated": "violation",
                "not-applicable": "not_applicable",
            }[view.verdict.status]
            yield ExpectationResult(
                kind="verdict",
                description=(
                    f"line {stmt.line}: {stmt.observer} verdict is {stmt.outcome}"
                ),
                passed=observed == stmt.outcome,
                observed=observed,
                expected=stmt.outcome,
            )


# -- JSON rendering ------------------------------------------------------------


def _round(x: float) -> float:
    rounded = round(float(x), 12)
    return 0.0 if rounded == 0 else rounded  # normalize -0.0


def _canonical_bytes(entries: np.ndarray) -> bytes:
    rounded = np.round(entries.astype(complex), 10)
    re = np.where(rounded.real == 0, 0.0, rounded.real)
    im = np.where(rounded.imag == 0, 0.0, rounded.imag)
    return re.tobytes() + im.tobytes()


def _contents_digest(chamber: GasChamber) -> dict:
    contents = chamber.contents
    if isinstance(contents, QuantumContents):
        rho = contents.assembled()
        eigenvalues = [_round(v) for v in rho.eigenvalues]
        digest = hashlib.sha256(_canonical_bytes(rho.matrix.entries)).hexdigest()[:16]
        return {"kind": "quantum", "eigenvalues": eigenvalues, "hash": digest}
    assert isinstance(contents, ClassicalContents)
    bag = {name: _round(w) for name, w in sorted(contents.weight_map().items())}
    return {"kind": "classical", "species": bag}


def _chamber_dict(chamber: GasChamber) -> dict:
    return {
        "position": chamber.label,
        "volume": _round(chamber.volume),
        "particles": _round(chamber.particles),
        "contents_digest": _contents_digest(chamber),
    }


def _report_dict(report: RunReport, units: UnitsConfig) -> dict:
    result = report.result
    header = result.header
    nkt = header.particles * header.temperature  # kB = 1 in ledger units
    if units.mode == "nkt":
        def scale(q: float) -> float:
            return q / nkt
    elif units.mode == "absolute":
        n = header.particles if units.particles is None else units.particles
        t = header.temperature if units.temperature is None else units.temperature
        factor = units.boltzmann_constant * n * t

        def scale(q: float) -> float:
            return q / nkt * factor
    else:
        raise ValueError(f"unknown units mode {units.mode!r}")

    observers_payload = []
    for obs in result.observers:
        view = result.views[obs.name]
        steps_payload = []
        for step in result.steps:
            steps_payload.append(
                {
                    "index": step.index,
                    "description": step.description,
                    "Q": _round(scale(step.heat)),
                    "chambers": [
                        _chamber_dict(view_chamber(obs, c)) for c in step.chambers
                    ],
                }
            )
        verdict = view.verdict
        observers_payload.append(
            {
                "name": obs.name,
                "steps": steps_payload,
                "total_Q": _round(scale(result.total_heat)),
                "verdict": {
                    "claimed": verdict.is_cycle_claimed,
                    "actual": verdict.is_cycle_actual,
                    "second_law": verdict.status,
                    "apparent_violation_explained": verdict.apparent_violation_explained,
                },
            }
        )
    return {
        "schema": SCHEMA_VERSION,
        "units": "NkT" if units.mode == "nkt" else "absolute",
        "observers": observers_payload,
        "expectations": [
            {
                "kind": e.kind,
                "description": e.description,
                "passed": e.passed,
                "observed": e.observed,
                "expected": e.expected,
            }
            for e in report.expectations
        ],
    }
