"""Semi-permeable diaphragms: measurement devices coupled to volumes.

A diaphragm detains each particle, measures its internal degree of freedom,
and transmits or reflects it by outcome, updating the state in the process.
Pushing a pair of such diaphragms through a container therefore both
transforms and spatially separates the gas: each outcome ends up in its own
chamber whose volume fraction equals the outcome probability (the
equal-pressure condition; no chamber below ``statistics.PROBABILITY_FLOOR``),
at the cost of isothermal compression heat N k T sum_i p_i ln p_i <= 0.

Mixing is the inverse. With *separating* diaphragms (which exist exactly
when the chamber states are pairwise orthogonal) it is reversible, and each
gas absorbs its ``isothermal_heat`` N_i k T ln(V_total/V_i) >= 0.  Asking
for a separating mix of non-orthogonal gases raises NotOrthogonalError:
that request asserts one-shot distinguishability of preparations already
assumed indistinguishable, and no device can be built from a contradiction.
Removing a wall without separating diaphragms is free mixing: irreversible,
and it extracts nothing (Q = 0).  Pooling chambers that all hold one gas
(one contents object) is no mixing at all, and the pool keeps that gas.

Quantum and classical gases share every step.  Separation takes either a
projective instrument (:func:`separate`) or a species permeability map
(:func:`classical_separate`); one :func:`mix` serves both variants, asking
the contents type whether two gases are distinguishable and how they pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import (
    DimMismatchError,
    NotOrthogonalError,
    NotQuantumError,
    TemperatureMismatchError,
    UnknownSpeciesError,
    VariantMismatchError,
)
from .linalg import _sum_in_order
from .statistics import PROBABILITY_FLOOR, ProjectiveInstrument, apply_instrument
from .thermo import (
    ClassicalContents,
    GasChamber,
    GasContents,
    QuantumContents,
    isothermal_heat,
)


@dataclass(frozen=True)
class SeparationResult:
    """Chambers produced by a separation, each holding its outcome's p as its
    share of the parent's volume and particles, and the heat the gas absorbed."""

    chambers: tuple[GasChamber, ...]
    heat: float


def separate(chamber: GasChamber, instrument: ProjectiveInstrument) -> SeparationResult:
    """Separate a quantum gas chamber with the diaphragms of an instrument.

    Outcome probabilities are computed on the contents' density matrix.  Each
    outcome with a post-state (probability at least ``PROBABILITY_FLOOR``)
    gets a chamber holding that state, with volume p*V and particle amount
    p*N at the parent temperature; the other outcomes produce no chamber.
    """
    if not isinstance(chamber.contents, QuantumContents):
        raise NotQuantumError("separation diaphragms act on quantum contents")
    if chamber.contents.dim != instrument.dim:
        raise DimMismatchError(
            f"contents dim {chamber.contents.dim} vs instrument dim {instrument.dim}"
        )
    distribution = apply_instrument(chamber.contents.assembled(), instrument)
    parts = [
        (o.label, o.probability, QuantumContents(o.post_state))
        for o in distribution.outcomes
        if o.post_state is not None
    ]
    return _split(chamber, parts)


def _split(parent: GasChamber, parts: list[tuple[str, float, GasContents]]) -> SeparationResult:
    """One chamber per (outcome label, probability p, contents) part, with
    volume p*V and amount p*N; the gas absorbs N T sum p ln p."""
    chambers = []
    heat = 0.0
    for outcome, p, contents in parts:
        heat += parent.particles * parent.temperature * p * math.log(p)
        chambers.append(
            GasChamber(
                volume=p * parent.volume,
                temperature=parent.temperature,
                particles=p * parent.particles,
                contents=contents,
                label=f"{parent.label}/{outcome}" if parent.label else outcome,
            )
        )
    return SeparationResult(tuple(chambers), heat)


def _check_same_temperature(chambers: list[GasChamber]) -> float:
    t = chambers[0].temperature
    for c in chambers[1:]:
        if abs(c.temperature - t) > 1e-12 * max(t, c.temperature):
            raise TemperatureMismatchError(
                f"temperatures {t!r} and {c.temperature!r} differ"
            )
    return t


def mix(
    chambers: list[GasChamber], distinguishing: bool, label: str = ""
) -> tuple[GasChamber, float]:
    """Merge chambers of one gas variant into one of the total volume and
    particle count.

    distinguishing=True models separating diaphragms run in reverse and
    requires the gases to be pairwise distinguishable (orthogonal states,
    or disjoint species bags); the gases then absorb
    Q = sum_i N_i k T ln(V_total/V_i) >= 0.  distinguishing=False is free
    mixing: Q = 0.  When every chamber holds the same contents object, the
    merged chamber holds that object: pooling a gas with itself keeps it.
    """
    if not chambers:
        raise ValueError("nothing to mix")
    variant = type(chambers[0].contents)
    if any(type(c.contents) is not variant for c in chambers):
        raise VariantMismatchError("cannot mix quantum with classical contents")
    if len(chambers) == 1:
        only = chambers[0]
        return (only if not label else replace(only, label=label)), 0.0
    t = _check_same_temperature(chambers)
    total_v = _sum_in_order(c.volume for c in chambers)
    total_n = _sum_in_order(c.particles for c in chambers)
    heat = 0.0
    if distinguishing:
        for i, a in enumerate(chambers):
            for b in chambers[i + 1:]:
                reason = a.contents.orthogonal_to(b.contents)
                if reason is not None:
                    raise NotOrthogonalError(f"chambers {a.label!r} and {b.label!r} {reason}")
        heat = math.fsum(isothermal_heat(c.particles, t, c.volume, total_v) for c in chambers)
    pooled = chambers[0].contents
    if any(c.contents is not pooled for c in chambers):
        pooled = variant.merge([(c.particles / total_n, c.contents) for c in chambers])
    merged = GasChamber(total_v, t, total_n, pooled, label or chambers[0].label)
    return merged, heat


def classical_separate(
    chamber: GasChamber, permeability: dict[str, str]
) -> SeparationResult:
    """Separate a classical chamber with a diaphragm pair described by a
    permeability map species -> "transmitted" | "reflected".

    The map must cover every species present.  Volumes and particle counts
    split in proportion to the group weights, with the same compression
    heat formula as the quantum case.
    """
    if not isinstance(chamber.contents, ClassicalContents):
        raise VariantMismatchError("classical_separate needs classical contents")
    for verdict in permeability.values():
        if verdict not in ("transmitted", "reflected"):
            raise UnknownSpeciesError(f"permeability verdict {verdict!r}")
    groups: dict[str, dict[str, float]] = {"transmitted": {}, "reflected": {}}
    for name, w in chamber.contents.weights.items():
        if name not in permeability:
            raise UnknownSpeciesError(f"species {name!r} missing from permeability map")
        groups[permeability[name]][name] = w
    parts = []
    for verdict, bag in groups.items():
        p = _sum_in_order(bag.values())
        if p >= PROBABILITY_FLOOR:
            parts.append((verdict, p, ClassicalContents({name: w / p for name, w in bag.items()})))
    return _split(chamber, parts)
