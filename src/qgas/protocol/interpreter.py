"""Turn an executed run into a versioned JSON report and check EXPECT lines.

Heats are reported in units of N k T of the scenario header unless an
absolute-units configuration is supplied.  The report is deterministic:
floats are rounded to 12 decimals, keys are sorted, and a state digest is
the eigenvalue list plus a hash of the rounded matrix.  The eigenvalues are
the spectrum the density matrix kept when it was validated; the hash reads
matrix entries only, so no eigenvector phase convention plays a part.

The report text is that of ``json.dumps(payload, sort_keys=True,
separators=(",", ": "), indent=1)`` for the schema-1 payload, written
straight into one list of chunks and joined once; ``to_json_dict`` parses
that text.  Observers differ only in how they describe a chamber's
contents: volume, particles, position, heat and description are shared.
So the text is rendered in three passes:

* once per run: the steps as one template, texts that each precede the
  digest of one contents object (each step's Q, description and index,
  each chamber's particles, position and volume) and one closing tail;
* once per observer: the digest text of its view of each distinct contents
  object of the run (first-seen order), read from its rows of one
  ``observers._views`` pass, with no view object: one weight table, pooled
  by the observer's species map, or one stack of matrices and their spectra
  (the truths' own, or a reducing observer's partial traces validated by one
  stacked ``eigvalsh``).  A stack is rounded in one ``round`` and each matrix
  hashed on its own, over the same bytes a single matrix gives;
* then an observer's section is each text, its digest, and the tail, so
  PARTITION siblings and a chamber left unchanged reuse one digest.

A report's heap peaks at the final join, where the pieces and the text made
of them are alive together.  So ``_render`` drops all else it built before
the join: the table of spelled floats, which also keeps every float it
spelled, the view pass with the weight table or stack it holds, the last
observer's rows and digests, the step template and the contents ids.  What
stays is the run itself, whose kept records (chambers, steps, contents,
matrices, views) are slotted, with no instance ``__dict__``.

Each float is spelled once per report, as ``repr`` spells it rounded to 12
decimals.  For |x| < 5e-13 that text is "0.0": the double nearest 5e-13 is
below it, so such an x rounds to zero, which ``_round`` writes unsigned.
For 1.0001e-4 <= |x| < 999 that text is ``'%.12f' % x`` less its trailing
zeros: ``round(x, 12)`` takes its digits from the same 12-decimal dtoa, and
with at most 15 significant digits (DBL_DIG) they are the shortest text
that round-trips, which ``repr`` prints in fixed notation in that range.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from ..errors import NonPositiveInputError
from ..observers import Observer, _views
from ..thermo import GasContents, _check_positive
from . import ast
from .engine import RunResult, run_protocol

SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class UnitsConfig:
    """How to scale ledger heats, booked with k = 1, for the report: per N T of
    the header, or that times kB N T (N and T default to the header's).  Each
    constant given, and kB N T, must be finite and > 0."""

    mode: str = "nkt"  # "nkt" | "absolute"
    boltzmann_constant: float = 1.0
    particles: float | None = None
    temperature: float | None = None

    def __post_init__(self):
        if self.mode not in ("nkt", "absolute"):
            raise ValueError(f"unknown units mode {self.mode!r}")
        given = dict(kB=self.boltzmann_constant, N=self.particles, T=self.temperature)
        _check_positive(**{name: v for name, v in given.items() if v is not None})

    @property
    def name(self) -> str:
        """The report's name for these units."""
        return "NkT" if self.mode == "nkt" else "absolute"

    def per_nkt(self, header: ast.Header) -> float:
        """One N k T of the header in these units; a reported heat is NkT times this."""
        n = header.particles if self.particles is None else self.particles
        t = header.temperature if self.temperature is None else self.temperature
        factor = 1.0 if self.mode == "nkt" else self.boltzmann_constant * n * t
        _check_positive(**{"kB N T": factor})
        return factor


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

    def total_heat_in(self, units: UnitsConfig) -> float:
        """The run's total heat in ``units``, rounded as the report rounds it."""
        return _round(self.total_heat_nkt() * _factor(self.result, units))

    def to_json_dict(self, units: UnitsConfig | None = None) -> dict:
        return json.loads(self.to_json(units))

    def to_json(self, units: UnitsConfig | None = None) -> str:
        return _render(self, units or UnitsConfig())


def execute(protocol: ast.Protocol, observers: list[Observer] | None = None) -> RunReport:
    """Run the protocol and evaluate its EXPECT lines."""
    report = RunReport(run_protocol(protocol, observers), ())
    return RunReport(report.result, tuple(_check_expectations(protocol, report)))


# CycleVerdict.status -> the outcome word an EXPECT verdict line uses.
_VERDICT_WORDS = {
    "satisfied": "satisfied",
    "violated": "violation",
    "not-applicable": "not_applicable",
}


def _check_expectations(protocol: ast.Protocol, report: RunReport):
    total_nkt = report.total_heat_nkt()
    for stmt in protocol.statements:
        if isinstance(stmt, ast.ExpectTotalHeat):
            passed = abs(total_nkt - stmt.value) <= stmt.tol
            yield ExpectationResult(
                kind="Q_total",
                description=f"line {stmt.line}: Q_total = {stmt.value} NkT within {stmt.tol}",
                passed=passed,
                observed=_round(total_nkt),
                expected=stmt.value,
            )
        elif isinstance(stmt, ast.ExpectVerdict):
            view = report.result.views.get(stmt.observer)
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
#
# The schema's keys are fixed, so each piece is written in sorted-key order
# at its fixed indent: observers at 2 spaces, steps at 4, chambers at 6 and
# the keys of a contents digest at 8.

_escape = json.encoder.encode_basestring_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_ITEM = ",\n         "  # between the eigenvalues or species of a digest
_CHAMBER = '\n      {\n       "contents_digest": '


def _factor(result: RunResult, units: UnitsConfig) -> float:
    """``units.per_nkt`` of the run, checked to keep its largest heat finite."""
    factor = units.per_nkt(result.header)
    largest = max([abs(result.total_heat), *(abs(step.heat) for step in result.steps)])
    if not math.isfinite(largest / (result.header.particles * result.header.temperature) * factor):
        raise NonPositiveInputError(f"a heat of {largest!r} overflows in these units")
    return factor


def _round(x: float) -> float:
    rounded = round(float(x), 12)
    return 0.0 if rounded == 0 else rounded  # normalize -0.0


class _Floats(dict):
    """float -> the JSON text of its ``_round``, filled as floats are met."""

    def __missing__(self, x: float) -> str:
        if -5e-13 < x < 5e-13:
            self[x] = "0.0"
            return "0.0"
        if 1.0001e-4 <= abs(x) < 999.0:
            text = ("%.12f" % x).rstrip("0")
            text = self[x] = text + "0" if text[-1] == "." else text
            return text
        text = float.__repr__(_round(x))
        text = self[x] = _NON_FINITE.get(text, text)
        return text


def _state_texts(stack: np.ndarray, spectra: list[tuple], floats: _Floats) -> list[str]:
    """The quantum digest text of each matrix of a stack (n, d, d) with its
    spectrum: the matrices rounded as one stack, each hashed on its own."""
    rounded = stack.round(10)
    re = np.where(rounded.real == 0, 0.0, rounded.real)
    im = np.where(rounded.imag == 0, 0.0, rounded.imag)
    return [
        f'{{\n        "eigenvalues": [\n         {_ITEM.join([floats[v] for v in spectrum])}'
        f'\n        ],\n        "hash": '
        f'"{hashlib.sha256(r.tobytes() + i.tobytes()).hexdigest()[:16]}",'
        '\n        "kind": "quantum"\n       }'
        for spectrum, r, i in zip(spectra, re, im)
    ]


def _weight_texts(names: list[str], table: list[list[float]], floats: _Floats) -> list[str]:
    """The classical digest text of each row of a weight table: its nonzero weights, by name."""
    heads = [f"{_escape(name)}: " for name in names]
    return [
        '{\n        "kind": "classical",\n        "species": {\n         '
        f'{_ITEM.join([h + floats[w] for h, w in zip(heads, row) if w])}\n        }}\n       }}'
        for row in table
    ]


def _expectations_text(expectations: tuple[ExpectationResult, ...]) -> str:
    items = [
        f'{{\n   "description": {_escape(e.description)},'
        f'\n   "expected": {json.dumps(e.expected)},\n   "kind": {_escape(e.kind)},'
        f'\n   "observed": {json.dumps(e.observed)},\n   "passed": {json.dumps(e.passed)}\n  }}'
        for e in expectations
    ]
    return "[\n  " + ",\n  ".join(items) + "\n ]" if items else "[]"


def _render(report: RunReport, units: UnitsConfig) -> str:
    """The report text.  The step and chamber text that every observer
    shares is rendered once; each observer's view of a contents object is
    digested once and spliced into every chamber that holds it."""
    result = report.result
    header = result.header
    nkt = header.particles * header.temperature  # kB = 1 in ledger units
    factor = _factor(result, units)
    floats = _Floats()

    # Once per run: the distinct ground-truth contents objects in first-seen
    # order, and the step text as one template: texts[i] precedes the digest
    # of contents keys[i], and ``tail`` closes the last step and the steps.
    # Every step holds chambers: the engine checks that they fill the container.
    truths: dict[int, GasContents] = {}
    texts: list[str] = []
    keys: list[int] = []
    text = ""
    for k, step in enumerate(result.steps):
        text += (
            f'{"," if k else ""}\n    {{\n     "Q": {floats[step.heat / nkt * factor]},'
            '\n     "chambers": ['
        )
        for j, c in enumerate(step.chambers):
            truths.setdefault(id(c.contents), c.contents)
            texts.append(text + ("," if j else "") + _CHAMBER)
            keys.append(id(c.contents))
            text = (
                f',\n       "particles": {floats[c.particles]},'
                f'\n       "position": {_escape(c.label)},'
                f'\n       "volume": {floats[c.volume]}\n      }}'
            )
        text += (
            f'\n     ],\n     "description": {_escape(step.description)},'
            f'\n     "index": {step.index}\n    }}'
        )
    tail = text + ("\n   ]" if result.steps else "]") + ',\n   "total_Q": '
    tail += f'{floats[result.total_heat / nkt * factor]},\n   "verdict": {{'

    out = [
        f'{{\n "expectations": {_expectations_text(report.expectations)},'
        '\n "observers": ['
    ]
    append = out.append
    # Once per observer: the digest of its view of each contents object, read
    # from its rows of one ``_views`` pass over the run's distinct contents.
    digest = _state_texts if header.dim is not None else _weight_texts
    views = _views(result.observers, list(truths.values()))
    for n, (obs, rows) in enumerate(zip(result.observers, views)):
        digests = dict(zip(truths, digest(*rows, floats)))
        append(f'{"," if n else ""}\n  {{\n   "name": {_escape(obs.name)},\n   "steps": [')
        for piece, key in zip(texts, keys):
            append(piece)
            append(digests[key])
        verdict = result.views[obs.name].verdict
        append(
            f'{tail}\n    "actual": {json.dumps(verdict.is_cycle_actual)},'
            f'\n    "apparent_violation_explained": '
            f'{json.dumps(verdict.apparent_violation_explained)},'
            f'\n    "claimed": {json.dumps(verdict.is_cycle_claimed)},'
            f'\n    "second_law": {_escape(verdict.status)}\n   }}\n  }}'
        )
    # The heap peaks at the join (see the module docstring): past this line
    # only ``out`` and the run are alive, no table of the render.
    truths = texts = keys = floats = views = rows = digests = None
    append(
        ("\n ]" if result.observers else "]")
        + f',\n "schema": "{SCHEMA_VERSION}",\n "units": "{units.name}"\n}}'
    )
    return "".join(out)
