"""Turn an executed run into a versioned JSON report and check EXPECT lines.

Heats are reported in units of N k T of the scenario header unless an
absolute-units configuration is supplied.  The report is deterministic:
floats are rounded to 12 decimals, keys are sorted, and a state digest is
the eigenvalue list plus a hash of the rounded matrix.  The eigenvalues are
the spectrum the density matrix kept when it was validated; the hash reads
matrix entries only, so no eigenvector phase convention plays a part.

Observers view each step's ground-truth chambers while the report renders.
A view changes only a chamber's contents, and chambers share contents
objects (PARTITION siblings, a chamber left unchanged between steps), so
each observer's view of one contents object is digested once and that
digest dict is shared by every chamber holding it: the dicts that
``to_json_dict`` returns are read-only.  The report first collects the
run's distinct contents objects, in first-seen order; each observer views
them in one ``view_batch`` call (one stacked partial trace and one stacked
``eigvalsh`` validation for a reducing observer).  An observer's digests
round its matrices of one dimension in one ``np.round`` and hash each
matrix on its own, over the same bytes a single matrix gives.

``to_json`` writes the dicts with a small writer that reproduces
``json.dumps(..., sort_keys=True, separators=(",", ": "), indent=1)``
byte for byte and renders each shared digest once; with ``indent`` set,
that call takes the pure-Python encoder (Python 3.10 and 3.11 at least).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..observers import Observer, view_batch
from ..thermo import ClassicalContents, GasChamber, GasContents, QuantumContents
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
        return _report_dict(self, units or UnitsConfig())[0]

    def to_json(self, units: UnitsConfig | None = None) -> str:
        payload, digests = _report_dict(self, units or UnitsConfig())
        return _dumps(payload, {id(d) for d in digests})


def execute(protocol: ast.Protocol, observers: list[Observer] | None = None) -> RunReport:
    """Run the protocol and evaluate its EXPECT lines."""
    result = run_protocol(protocol, observers)
    return RunReport(result, tuple(_check_expectations(protocol, result)))


# CycleVerdict.status -> the outcome word an EXPECT verdict line uses.
_VERDICT_WORDS = {
    "satisfied": "satisfied",
    "violated": "violation",
    "not-applicable": "not_applicable",
}


def _check_expectations(protocol: ast.Protocol, result: RunResult):
    header = protocol.header
    total_nkt = result.total_heat / (header.particles * header.temperature)
    for stmt in protocol.statements:
        if isinstance(stmt, ast.ExpectTotalHeat):
            passed = abs(total_nkt - stmt.value) <= stmt.tol
            yield ExpectationResult(
                kind="Q_total",
                description=f"line {stmt.line}: Q_total = {stmt.value} NkT within {stmt.tol}",
                passed=passed,
                observed=round(total_nkt, 12),
                expected=stmt.value,
            )
        elif isinstance(stmt, ast.ExpectVerdict):
            view = result.views.get(stmt.observer)
            if view is None:
                observed = "observer absent from this run"
            else:
                observed = _VERDICT_WORDS[view.verdict.status]
            yield ExpectationResult(
                kind="verdict",
                description=f"line {stmt.line}: {stmt.observer} verdict is {stmt.outcome}",
                passed=observed == stmt.outcome,
                observed=observed,
                expected=stmt.outcome,
            )


# -- JSON rendering ------------------------------------------------------------


def _round(x: float) -> float:
    rounded = round(float(x), 12)
    return 0.0 if rounded == 0 else rounded  # normalize -0.0


def _canonical_bytes(stack: np.ndarray) -> list[bytes]:
    """The hashed bytes of each matrix in a stack, rounded in one call."""
    rounded = np.round(stack, 10)
    re = np.where(rounded.real == 0, 0.0, rounded.real)
    im = np.where(rounded.imag == 0, 0.0, rounded.imag)
    return [r.tobytes() + i.tobytes() for r, i in zip(re, im)]


def _digests(views: Iterable[GasContents]) -> list[dict]:
    """The digest of each contents object, in order.  A classical digest is
    made as its view is read; the quantum ones of one dimension are rounded
    as one stack."""
    digests: list[dict] = []
    by_dim: dict[int, list] = {}  # dim -> (index, density matrix) pairs
    for i, view in enumerate(views):
        if isinstance(view, QuantumContents):
            by_dim.setdefault(view.dim, []).append((i, view.assembled()))
            digests.append({})
        else:
            assert isinstance(view, ClassicalContents)
            bag = {name: _round(w) for name, w in sorted(view.weight_map().items())}
            digests.append({"kind": "classical", "species": bag})
    for group in by_dim.values():
        hashed = _canonical_bytes(np.stack([rho.matrix.entries for _, rho in group]))
        for (i, rho), data in zip(group, hashed):
            digests[i] = {
                "kind": "quantum",
                "eigenvalues": [_round(v) for v in rho.eigenvalues],
                "hash": hashlib.sha256(data).hexdigest()[:16],
            }
    return digests


def _contents_digest(contents: GasContents) -> dict:
    return _digests([contents])[0]


def _chamber_dict(chamber: GasChamber, digest: dict) -> dict:
    return {
        "position": chamber.label,
        "volume": _round(chamber.volume),
        "particles": _round(chamber.particles),
        "contents_digest": digest,
    }


def _report_dict(report: RunReport, units: UnitsConfig) -> tuple[dict, list[dict]]:
    """The report payload, and the digest dicts that its chambers share."""
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

    # Distinct ground-truth contents objects, in first-seen order.
    truths = list(
        {id(c.contents): c.contents for step in result.steps for c in step.chambers}.values()
    )
    observers_payload, all_digests = [], []
    for obs in result.observers:
        view = result.views[obs.name]
        # id of a ground-truth contents object -> digest of this observer's
        # view; the views themselves are dropped once digested.
        digests = dict(zip(map(id, truths), _digests(view_batch(obs, truths))))
        steps_payload = []
        for step in result.steps:
            chambers = [_chamber_dict(c, digests[id(c.contents)]) for c in step.chambers]
            steps_payload.append(
                {
                    "index": step.index,
                    "description": step.description,
                    "Q": _round(scale(step.heat)),
                    "chambers": chambers,
                }
            )
        all_digests.extend(digests.values())
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
    payload = {
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
    return payload, all_digests


# -- JSON writer ---------------------------------------------------------------

_escape = json.encoder.encode_basestring_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _scalar(value) -> str:
    """One JSON scalar, tested in the order and spelled the way ``json`` does."""
    if isinstance(value, str):
        return _escape(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NON_FINITE.get(text, text)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _dumps(obj, shared: set[int] = frozenset()) -> str:
    """``json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)``
    for dicts with str keys, lists, tuples, str, int, float, bool and None.

    Chunks stream into one list.  A dict whose id is in ``shared`` is
    rendered once per nesting depth, and that text is spliced in wherever
    the dict appears again at that depth.
    """
    out: list[str] = []
    append = out.append
    memo: dict[tuple[int, int], str] = {}

    def write(value, depth: int, prefix: str) -> None:
        """Append ``prefix`` followed by the text of ``value``."""
        kind = type(value)
        if kind is float:
            text = float.__repr__(value)
            append(prefix + _NON_FINITE.get(text, text))
        elif kind is str:
            append(prefix + _escape(value))
        elif isinstance(value, dict):
            if id(value) not in shared:
                write_dict(value, depth, prefix)
                return
            text = memo.get((id(value), depth))
            if text is None:
                start = len(out)
                write_dict(value, depth, "")
                text = memo[id(value), depth] = "".join(out[start:])
                del out[start:]
            append(prefix)
            append(text)
        elif isinstance(value, (list, tuple)):
            if not value:
                append(prefix + "[]")
                return
            inner = "\n" + " " * (depth + 1)
            sep = prefix + "[" + inner
            for item in value:
                write(item, depth + 1, sep)
                sep = "," + inner
            append("\n" + " " * depth + "]")
        else:
            append(prefix + _scalar(value))

    def write_dict(value: dict, depth: int, prefix: str) -> None:
        if not value:
            append(prefix + "{}")
            return
        inner = "\n" + " " * (depth + 1)
        sep = prefix + "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            write(value[key], depth + 1, sep + _escape(key) + ": ")
            sep = "," + inner
        append("\n" + " " * depth + "}")

    write(obj, 0, "")
    return "".join(out)
