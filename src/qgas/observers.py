"""Observer-relative descriptions of the same physical protocol.

Ground truth is always simulated at the largest dimension in play; an
observer is a pure view function over it.  A quantum observer either sees
the full space or a partial trace over one tensor factor (their measurement
repertoire spans only part of the operator space); a classical observer
reads the weight map through a merge map (species they cannot tell apart
collapse to one name, and their weights add).  Heats are measured
quantities and are shared by everyone: only the *description* of the gas
contents is observer-relative, which is exactly why one observer can book a
completed cycle while another sees an open path.

:class:`Observer` is the one observer type: the scenario parser builds the
OBSERVER lines of a HEADER into it, and API callers build it directly.
``_views`` is the one view pass: each observer's views of a sequence of
distinct contents, as rows built from one base per call.  Classical rows are
one weight table, pooled by ``_pooled`` for an observer that merges species;
quantum rows are one stack of matrices with their spectra, the truths' own
or their partial traces validated by one stacked ``eigvalsh``.  The report
digests the rows; :func:`view_batch` turns them into contents objects for
the cycle verdict, and :func:`view_contents` is its batch of one, checked by
:meth:`Observer.check_fits`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import linalg, spin
from .errors import IncompatibleReductionError, NotConvexError, VariantMismatchError
from .statistics import DensityMatrix, Povm, _checked_stack
from .thermo import (
    WEIGHT_TOL,
    ClassicalContents,
    CycleVerdict,
    GasChamber,
    GasContents,
    QuantumContents,
)


@dataclass(frozen=True)
class Observer:
    """A named description context.

    kind "quantum": ``reduction`` is None (full view) or (d1, d2, keep) with
    positive integer factors and keep "first" or "second"; the factors must
    multiply to the ground-truth dimension.
    kind "classical": ``species_map`` renames true species to what the
    observer can resolve; unmapped species pass through unchanged.
    An observer checks these fields as it is built.
    """

    name: str
    kind: str
    reduction: tuple[int, int, str] | None = None
    species_map: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        r = self.reduction
        if self.kind not in ("quantum", "classical"):
            fault = f"kind {self.kind!r} is not quantum or classical"
        elif r is not None and self.kind == "classical":
            fault = "a classical observer has no reduction"
        elif r is not None and not (
            len(r) == 3
            and all(isinstance(d, int) and d >= 1 for d in r[:2])
            and r[2] in ("first", "second")
        ):
            fault = f"reduction {r!r} is not (positive int, positive int, 'first' or 'second')"
        elif self.species_map and self.kind == "quantum":
            fault = "a quantum observer has no species map"
        elif len({true for true, _ in self.species_map}) != len(self.species_map):
            fault = f"species map {self.species_map!r} names a true species twice"
        else:
            return
        raise IncompatibleReductionError(f"observer {self.name!r}: {fault}")

    def check_fits(self, dim: int | None) -> None:
        """The one fit rule, for a gas of dimension ``dim`` (None: classical)."""
        variant = "classical" if dim is None else "quantum"
        if self.kind != variant:
            fault = f"{self.kind} observer {self.name!r} cannot view {variant} contents"
        elif self.reduction is not None and self.reduction[0] * self.reduction[1] != dim:
            d1, d2, _ = self.reduction
            fault = f"observer {self.name!r} reduction {d1}x{d2} does not fit dimension {dim}"
        else:
            return
        raise IncompatibleReductionError(fault)

    @staticmethod
    def quantum(name: str, reduction: tuple[int, int, str] | None = None) -> "Observer":
        return Observer(name, "quantum", reduction)

    @staticmethod
    def classical(name: str, species_map: dict[str, str] | None = None) -> "Observer":
        return Observer(name, "classical", None, tuple((species_map or {}).items()))


@dataclass(frozen=True, slots=True)
class ObserverView:
    """What one observer makes of a finished run: the chambers as they see
    them at start and end, and their cycle verdict.  Only these differ
    between observers; the heats everyone shares are ``RunResult.ledger``."""

    observer: Observer
    initial_chambers: tuple[GasChamber, ...]
    final_chambers: tuple[GasChamber, ...]
    verdict: CycleVerdict


def view_contents(observer: Observer, truth: GasContents) -> GasContents:
    """Reduce ground-truth contents, checked to fit the observer, to what it
    can resolve; an observer that resolves everything gets the truth itself."""
    if not isinstance(truth, (QuantumContents, ClassicalContents)):
        raise VariantMismatchError(f"unknown contents {type(truth).__name__}")
    observer.check_fits(truth.dim if isinstance(truth, QuantumContents) else None)
    return next(view_batch(observer, [truth]))


def view_batch(observer: Observer, truths: Sequence[GasContents]) -> Iterator[GasContents]:
    """:func:`view_contents` of each ground-truth contents, in order, unchecked:
    a run calls :meth:`Observer.check_fits` once per observer, as it starts.
    An observer that resolves everything gets the truths themselves; else
    its rows from :func:`_views` become contents objects."""
    if not (observer.reduction or observer.species_map):
        return iter(truths)
    (rows,) = _views([observer], truths)
    if observer.species_map:
        names, pooled = rows
        return (ClassicalContents({n: w for n, w in zip(names, r) if w}) for r in pooled)
    return map(QuantumContents, DensityMatrix._members(*rows))


def _views(observers: Sequence[Observer], truths: Sequence[GasContents]) -> Iterator[tuple]:
    """Each observer's views of distinct ``truths``, in order, as rows built from
    one base per call: (sorted species, weight rows) of one ``_weight_table``,
    pooled for a merging observer; or an (n, d, d) stack and its spectra, the
    truths' own or partial traces checked as ``DensityMatrix.stack`` checks."""
    if observers[0].kind == "classical":
        species, table = _weight_table(truths)
        for obs in observers:
            yield _pooled(obs.species_map, species, table) if obs.species_map else (species, table)
        return
    states = [truth.assembled() for truth in truths]
    stack = np.array([rho.matrix.entries for rho in states])
    spectra = [rho.eigenvalues for rho in states]
    for obs in observers:
        if obs.reduction and states:
            d1, d2, keep = obs.reduction
            yield _checked_stack(linalg.partial_traces(stack, (d1, d2), keep))
        else:
            yield stack, spectra


def _weight_table(truths: Sequence[ClassicalContents]) -> tuple[list[str], list[list[float]]]:
    """The sorted species of ``truths`` and a row of weights per contents, 0.0 where absent."""
    species = sorted(set().union(*[truth.weights for truth in truths]))
    return species, [[truth.weights.get(name, 0.0) for name in species] for truth in truths]


def _pooled(species_map, species: list[str], table: list[list[float]]):
    """A merging observer's sorted names and each row's weights added into them one column
    at a time, in order; as ``ClassicalContents`` asks, every row must sum to 1."""
    seen = [*map(dict(species_map).get, species, species)]
    names = sorted(set(seen))
    at = [names.index(name) for name in seen]
    pooled = []
    for row in table:
        weights = [0.0] * len(names)
        for k, w in zip(at, row):
            weights[k] += w
        pooled.append(weights)
    totals = [*map(linalg._sum_in_order, pooled)]
    if not all(abs(total - 1.0) <= WEIGHT_TOL for total in totals):  # NaN fails too
        raise NotConvexError(f"pooled weights sum to {totals}")
    return names, pooled


def build_willard_povm() -> Povm:
    """The two-element POVM a four-level observer uses to describe the
    two-level alpha separation: E+- = alpha+- (x) I2, rank-2 projectors
    summing to the four-dimensional identity."""
    eye2 = linalg.identity(2)
    return Povm(
        (
            ("E+", linalg.tensor(spin.alpha_plus(), eye2)),
            ("E-", linalg.tensor(spin.alpha_minus(), eye2)),
        )
    )
