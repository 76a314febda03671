"""Isothermal ideal-gas heat accounting and the cyclic second-law audit.

An ideal gas exchanges heat Q = W = N k T ln(Vf/Vi) in any isothermal
process; that single formula carries all the bookkeeping here.  Heats are
recorded in a ledger as absorbed-by-the-gas quantities, and a cycle audit
checks the final configuration against the initial one before applying the
cyclic form of the second law, Q <= 0.  When the configurations differ, the
law simply does not apply, whatever the sign of Q.

Gas contents come in two variants: a quantum state (one density matrix
on the particles' internal degree of freedom, however it was prepared) or
a classical weight map (one weight per species name).  Each variant says
how its contents pool (``merge``) and when two gases are one-shot
distinguishable (``orthogonal_to``: states orthogonal by
``statistics.are_orthogonal``, or weight maps with no species in common);
:func:`contents_equal`, observer views and report digests also branch on
the variant.  Heats are booked with k = 1, as N T ln(Vf/Vi); the report
divides them by the header's N T and may scale them to absolute units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    NonPositiveInputError,
    NotConvexError,
    VariantMismatchError,
)
from .linalg import _sum_in_order
from .statistics import DensityMatrix, are_orthogonal, mix_states

WEIGHT_TOL = 1e-12
VOLUME_REL_TOL = 1e-9
SECOND_LAW_TOL = 1e-9


def _check_positive(**values: float) -> None:
    """Each named value must be finite and > 0."""
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise NonPositiveInputError(f"{name} must be finite and > 0, got {value!r}")


@dataclass(frozen=True, slots=True)
class QuantumContents:
    """The density matrix of the particles' internal degree of freedom.

    A mixed gas holds the mixed matrix, not the ensemble it was prepared
    from: every verdict reads the matrix alone.  ``assembled()`` is the
    read every caller uses.
    """

    state: DensityMatrix

    @property
    def dim(self) -> int:
        return self.state.dim

    def assembled(self) -> DensityMatrix:
        """The contents' density matrix, ``state`` itself."""
        return self.state

    @classmethod
    def merge(cls, parts) -> "QuantumContents":
        """Pool (particle share, contents) pairs into one mixed state."""
        return cls(mix_states([share for share, _ in parts], [c.assembled() for _, c in parts]))

    def orthogonal_to(self, other: "QuantumContents") -> str | None:
        """None if the gases are orthogonal, else why no diaphragm separates them."""
        witness = are_orthogonal(self.assembled(), other.assembled())
        if not witness:
            return (
                f"hold non-orthogonal gases (overlap {witness.overlap:.6f}); a diaphragm "
                "separating them would distinguish preparations assumed "
                "indistinguishable"
            )
        return None


@dataclass(frozen=True, slots=True)
class ClassicalContents:
    """The weight of each classical species, one entry per name.

    The map is the classical counterpart of a density matrix: every verdict
    and digest reads it, and writers pass in the dict they build.
    """

    weights: dict[str, float]

    def __post_init__(self):
        """A nonempty bag of positive weights summing to 1."""
        weights = list(self.weights.values())
        if not weights:
            raise NotConvexError("species bag must be nonempty")
        if not all(w > 0 for w in weights):  # NaN fails too
            raise NotConvexError(f"weights must be positive: {weights}")
        if not abs((total := _sum_in_order(weights)) - 1.0) <= WEIGHT_TOL:
            raise NotConvexError(f"weights sum to {total!r}")

    @classmethod
    def merge(cls, parts) -> "ClassicalContents":
        """Pool (particle share, contents) pairs, summing each species."""
        merged: dict[str, float] = {}
        for share, contents in parts:
            for name, w in contents.weights.items():
                merged[name] = merged.get(name, 0.0) + share * w
        return cls(merged)

    def orthogonal_to(self, other: "ClassicalContents") -> str | None:
        """None if the bags share no species, else the shared species."""
        shared = self.weights.keys() & other.weights.keys()
        if shared:
            return f"share species {sorted(shared)}; no diaphragm separates a gas from itself"
        return None


GasContents = QuantumContents | ClassicalContents


@dataclass(frozen=True, slots=True)
class GasChamber:
    """A labeled volume of ideal gas at fixed temperature.

    The particle amount is a real number: everything works in the
    thermodynamic limit where fluctuations around the mean fractions are
    negligible.
    """

    volume: float
    temperature: float
    particles: float
    contents: GasContents
    label: str = ""

    def __post_init__(self):
        _check_positive(volume=self.volume, temperature=self.temperature, particles=self.particles)


@dataclass(frozen=True, slots=True)
class LedgerStep:
    description: str
    heat: float


@dataclass
class HeatLedger:
    """Ordered record of per-step heat absorbed by the gases."""

    steps: list[LedgerStep] = field(default_factory=list)
    cycle_claimed: bool = False

    def record(self, description: str, heat: float) -> None:
        if not math.isfinite(heat):
            raise NonPositiveInputError(f"heat must be finite, got {heat!r}")
        self.steps.append(LedgerStep(description, float(heat)))

    def claim_cycle(self) -> None:
        self.cycle_claimed = True

    @property
    def total_heat(self) -> float:
        return math.fsum(step.heat for step in self.steps)


@dataclass(frozen=True, slots=True)
class CycleVerdict:
    """Outcome of auditing a claimed cycle: three observed facts, the rest derived.

    ``second_law_satisfied`` is None exactly when the process is not
    actually a cycle: the cyclic form of the second law does not apply to
    an open path.  ``apparent_violation_explained`` marks the instructive
    case of a claimed cycle that closer inspection shows never closed.
    """

    is_cycle_claimed: bool
    is_cycle_actual: bool
    total_heat: float

    @property
    def second_law_satisfied(self) -> bool | None:
        return self.total_heat <= SECOND_LAW_TOL if self.is_cycle_actual else None

    @property
    def apparent_violation_explained(self) -> bool:
        return self.is_cycle_claimed and not self.is_cycle_actual

    @property
    def status(self) -> str:
        if self.second_law_satisfied is None:
            return "not-applicable"
        return "satisfied" if self.second_law_satisfied else "violated"


def isothermal_heat(
    particles: float, temperature: float, v_initial: float, v_final: float
) -> float:
    """Heat absorbed by an ideal gas in an isothermal volume change,
    N T ln(Vf/Vi) with k = 1; negative on compression."""
    _check_positive(
        particles=particles, temperature=temperature, v_initial=v_initial, v_final=v_final
    )
    return particles * temperature * math.log(v_final / v_initial)


def contents_equal(a: GasContents, b: GasContents, tol: float = 1e-9) -> bool:
    """Compare contents by what they hold (an object equals itself unread):
    quantum contents as density matrices, classical bags as weight maps."""
    if a is b:
        return True
    if isinstance(a, QuantumContents) and isinstance(b, QuantumContents):
        return a.assembled().isclose(b.assembled(), tol)
    if isinstance(a, ClassicalContents) and isinstance(b, ClassicalContents):
        wa, wb = a.weights, b.weights
        names = set(wa) | set(wb)
        return all(abs(wa.get(n, 0.0) - wb.get(n, 0.0)) <= tol for n in names)
    raise VariantMismatchError(
        f"cannot compare {type(a).__name__} with {type(b).__name__}"
    )


def _chambers_match(initial: list[GasChamber], final: list[GasChamber]) -> bool:
    if len(initial) != len(final):
        return False
    for before, after in zip(initial, final):
        if not (
            math.isclose(before.volume, after.volume, rel_tol=VOLUME_REL_TOL)
            and math.isclose(before.particles, after.particles, rel_tol=VOLUME_REL_TOL)
        ):
            return False
        try:
            if not contents_equal(before.contents, after.contents):
                return False
        except VariantMismatchError:
            return False
    return True


def audit_cycle(
    ledger: HeatLedger,
    initial: list[GasChamber],
    final: list[GasChamber],
) -> CycleVerdict:
    """Compare configurations chamber by chamber (order matters: chambers
    are labeled positions) and apply Q <= 0 only if the cycle truly closed."""
    return CycleVerdict(ledger.cycle_claimed, _chambers_match(initial, final), ledger.total_heat)
