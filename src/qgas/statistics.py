"""Statistical objects of quantum preparations and measurements.

A preparation is represented by a density matrix, a measurement by a POVM,
and the outcome statistics follow the trace rule p_i = tr(rho E_i).  The
only state-update rule used here is the projective one,
rho -> P_i rho P_i / tr(P_i rho P_i); the full machinery of completely
positive maps is deliberately out of scope.

The module also makes the equivalence between one-shot distinguishability
and orthogonality executable in both directions:

* :func:`verify_orthogonality_theorem` runs the constructive proof that a
  distinguishing POVM forces tr(phi psi) = 0, checking every intermediate
  orthogonality fact numerically.
* :func:`distinguishing_povm_from_orthogonal` builds the converse witness,
  a two-element POVM from the support projector of phi.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import linalg
from .errors import (
    DimMismatchError,
    InvalidPartitionError,
    NotConvexError,
    NotDensityMatrixError,
    NotOrthogonalError,
    NotPovmError,
    NotProjectiveError,
    NotUnitaryError,
    PreconditionViolatedError,
    ProofStepFailedError,
)
from .linalg import HermitianMatrix, SpectralDecomposition, eig_hermitian, trace_product

# "Nonzero" in the distinguishability predicate means above this, "zero"
# means at or below it; sharing the tolerance with the PSD checks keeps the
# predicate stable.
ZERO_TOL = 1e-10

Grouping = tuple[Sequence[str], Sequence[str]]


@dataclass(frozen=True)
class DensityMatrix:
    """Positive semidefinite Hermitian matrix with unit trace.

    Construction checks the trace and the spectrum; the spectrum that the
    positivity check computes is kept as ``eigenvalues`` (descending, not
    part of equality or repr), so no reader decomposes the matrix again.
    """

    matrix: HermitianMatrix
    eigenvalues: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tr = self.matrix.trace()
        if abs(tr - 1.0) > ZERO_TOL:
            raise NotDensityMatrixError(f"trace {tr!r} differs from 1")
        spectrum = np.linalg.eigvalsh(self.matrix.entries)
        if spectrum[0] < -ZERO_TOL:
            raise NotDensityMatrixError(f"negative eigenvalue {float(spectrum[0])!r}")
        object.__setattr__(self, "eigenvalues", tuple(spectrum[::-1].tolist()))

    @property
    def dim(self) -> int:
        return self.matrix.dim

    def isclose(self, other: "DensityMatrix", tol: float = linalg.DERIVED_TOL) -> bool:
        return self.matrix.isclose(other.matrix, tol)


@dataclass(frozen=True)
class Povm:
    """Positive semidefinite elements, one per outcome, summing to identity."""

    elements: tuple[tuple[str, HermitianMatrix], ...]

    def __post_init__(self):
        if not self.elements:
            raise NotPovmError("a POVM needs at least one element")
        labels = [label for label, _ in self.elements]
        if len(set(labels)) != len(labels):
            raise NotPovmError(f"duplicate outcome labels in {labels}")
        dim = self.elements[0][1].dim
        total = np.zeros((dim, dim), dtype=complex)
        for label, mat in self.elements:
            if mat.dim != dim:
                raise DimMismatchError(f"element {label} has dim {mat.dim} != {dim}")
            smallest = float(np.linalg.eigvalsh(mat.entries)[0])
            if smallest < -ZERO_TOL:
                raise NotPovmError(f"element {label} is not PSD ({smallest!r})")
            total += mat.entries
        if float(np.max(np.abs(total - np.eye(dim)))) > ZERO_TOL:
            raise NotPovmError("elements do not sum to the identity")

    @property
    def dim(self) -> int:
        return self.elements[0][1].dim

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.elements)

    def element(self, label: str) -> HermitianMatrix:
        for name, mat in self.elements:
            if name == label:
                return mat
        raise KeyError(label)


@dataclass(frozen=True)
class ProjectiveInstrument:
    """Mutually orthogonal projectors summing to identity, with the
    state-update rule rho -> P rho P / tr(P rho P)."""

    projectors: tuple[tuple[str, HermitianMatrix], ...]

    def __post_init__(self):
        if not self.projectors:
            raise NotProjectiveError("an instrument needs at least one projector")
        dim = self.projectors[0][1].dim
        total = np.zeros((dim, dim), dtype=complex)
        mats = []
        for label, mat in self.projectors:
            if mat.dim != dim:
                raise DimMismatchError(f"projector {label} has dim {mat.dim} != {dim}")
            residual = float(np.max(np.abs(mat.entries @ mat.entries - mat.entries)))
            if residual > ZERO_TOL:
                raise NotProjectiveError(f"{label} not idempotent ({residual:.2e})")
            mats.append(mat.entries)
            total += mat.entries
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                cross = float(np.max(np.abs(mats[i] @ mats[j])))
                if cross > ZERO_TOL:
                    raise NotProjectiveError(
                        f"projectors {self.projectors[i][0]} and "
                        f"{self.projectors[j][0]} overlap ({cross:.2e})"
                    )
        if float(np.max(np.abs(total - np.eye(dim)))) > ZERO_TOL:
            raise NotProjectiveError("projectors do not sum to the identity")

    @property
    def dim(self) -> int:
        return self.projectors[0][1].dim

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.projectors)

    def as_povm(self) -> Povm:
        return Povm(self.projectors)


@dataclass(frozen=True)
class Outcome:
    label: str
    probability: float
    post_state: DensityMatrix | None


@dataclass(frozen=True)
class OutcomeDistribution:
    outcomes: tuple[Outcome, ...]

    def __post_init__(self):
        total = sum(o.probability for o in self.outcomes)
        if abs(total - 1.0) > ZERO_TOL:
            raise NotDensityMatrixError(f"outcome probabilities sum to {total!r}")

    def probability(self, label: str) -> float:
        for o in self.outcomes:
            if o.label == label:
                return o.probability
        raise KeyError(label)

    def post_state(self, label: str) -> DensityMatrix | None:
        for o in self.outcomes:
            if o.label == label:
                return o.post_state
        raise KeyError(label)


@dataclass(frozen=True)
class OrthogonalityCheck:
    """Verdict of an orthogonality test together with the overlap witness."""

    orthogonal: bool
    overlap: float

    def __bool__(self) -> bool:
        return self.orthogonal


@dataclass(frozen=True)
class ProofStep:
    name: str
    residual: float
    passed: bool


@dataclass(frozen=True)
class OrthogonalityProof:
    """Chain of verified orthogonality facts ending in tr(phi psi) <= tol."""

    steps: tuple[ProofStep, ...]
    overlap: float
    passed: bool


def mix_states(weights: Sequence[float], states: Sequence[DensityMatrix]) -> DensityMatrix:
    """Convex combination of density matrices."""
    if len(weights) != len(states) or not states:
        raise NotConvexError("need one weight per state")
    if any(w < -1e-12 for w in weights):
        raise NotConvexError(f"negative weight in {list(weights)}")
    if abs(sum(weights) - 1.0) > ZERO_TOL:
        raise NotConvexError(f"weights sum to {sum(weights)!r}")
    dim = states[0].dim
    acc = np.zeros((dim, dim), dtype=complex)
    for w, state in zip(weights, states):
        if state.dim != dim:
            raise DimMismatchError(f"state dims {state.dim} != {dim}")
        acc += w * state.matrix.entries
    return DensityMatrix(HermitianMatrix(acc))


def outcome_probability(rho: DensityMatrix, element: HermitianMatrix) -> float:
    """Trace rule p = tr(rho E), clamped to [0, 1]."""
    if rho.dim != element.dim:
        raise DimMismatchError(f"dims {rho.dim} and {element.dim}")
    p = trace_product(rho.matrix, element)
    return min(1.0, max(0.0, p))


def apply_instrument(rho: DensityMatrix, inst: ProjectiveInstrument) -> OutcomeDistribution:
    """Projective update per outcome; outcomes below 1e-12 carry no post-state."""
    if rho.dim != inst.dim:
        raise DimMismatchError(f"dims {rho.dim} and {inst.dim}")
    outcomes = []
    for label, proj in inst.projectors:
        p = outcome_probability(rho, proj)
        if p < 1e-12:
            outcomes.append(Outcome(label, p, None))
            continue
        updated = proj.entries @ rho.matrix.entries @ proj.entries / p
        post = DensityMatrix(HermitianMatrix((updated + updated.conj().T) / 2))
        outcomes.append(Outcome(label, p, post))
    return OutcomeDistribution(tuple(outcomes))


def apply_unitary(rho: DensityMatrix, u: np.ndarray) -> DensityMatrix:
    """Conjugate rho by a unitary; preserves trace and spectrum."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (rho.dim, rho.dim):
        raise DimMismatchError(f"unitary shape {u.shape} vs dim {rho.dim}")
    if not linalg.is_unitary(u):
        raise NotUnitaryError("matrix fails U+U = I within 1e-10")
    rotated = u @ rho.matrix.entries @ u.conj().T
    return DensityMatrix(HermitianMatrix((rotated + rotated.conj().T) / 2))


def are_orthogonal(phi: DensityMatrix, psi: DensityMatrix) -> OrthogonalityCheck:
    """tr(phi psi) = 0 test; truthy iff the overlap is at most 1e-10."""
    overlap = trace_product(phi.matrix, psi.matrix)
    return OrthogonalityCheck(overlap <= ZERO_TOL, overlap)


def _validated_grouping(povm: Povm, grouping: Grouping) -> tuple[tuple[str, ...], tuple[str, ...]]:
    set_one = tuple(grouping[0])
    set_two = tuple(grouping[1])
    if not set_one or not set_two:
        raise InvalidPartitionError("both groups must be nonempty")
    combined = list(set_one) + list(set_two)
    if len(set(combined)) != len(combined):
        raise InvalidPartitionError(f"groups overlap: {combined}")
    if set(combined) != set(povm.labels):
        raise InvalidPartitionError(
            f"groups {combined} do not cover POVM labels {list(povm.labels)}"
        )
    return set_one, set_two


def is_one_shot_distinguishing(
    povm: Povm, grouping: Grouping, phi: DensityMatrix, psi: DensityMatrix
) -> bool:
    """Test the one-shot distinguishability predicate for a labeled split.

    Set one must fire only on psi (tr(phi E) = 0, tr(psi E) != 0 for each
    element E in it) and set two only on phi.  "Zero" and "nonzero" are
    resolved at the 1e-10 tolerance.
    """
    set_one, set_two = _validated_grouping(povm, grouping)
    if phi.dim != povm.dim or psi.dim != povm.dim:
        raise DimMismatchError("state and POVM dimensions differ")
    for label in set_one:
        element = povm.element(label)
        if trace_product(phi.matrix, element) > ZERO_TOL:
            return False
        if trace_product(psi.matrix, element) <= ZERO_TOL:
            return False
    for label in set_two:
        element = povm.element(label)
        if trace_product(psi.matrix, element) > ZERO_TOL:
            return False
        if trace_product(phi.matrix, element) <= ZERO_TOL:
            return False
    return True


def coarse_grain(povm: Povm, grouping: Sequence[tuple[str, Sequence[str]]]) -> Povm:
    """Merge POVM outcomes: one element per group, summing its members."""
    member_lists = [tuple(members) for _, members in grouping]
    combined = [label for members in member_lists for label in members]
    if not grouping or any(not members for members in member_lists):
        raise InvalidPartitionError("every group must be nonempty")
    if len(set(combined)) != len(combined) or set(combined) != set(povm.labels):
        raise InvalidPartitionError(
            f"groups {combined} are not a partition of {list(povm.labels)}"
        )
    elements = []
    for (group_label, _), members in zip(grouping, member_lists):
        acc = linalg.zero(povm.dim)
        for label in members:
            acc = acc + povm.element(label)
        elements.append((group_label, acc))
    return Povm(tuple(elements))


def support_projector(rho: DensityMatrix) -> HermitianMatrix:
    """Projector onto the span of eigenvectors with eigenvalue above ZERO_TOL."""
    decomp = eig_hermitian(rho.matrix)
    acc = np.zeros((rho.dim, rho.dim), dtype=complex)
    for value, vec in zip(decomp.eigenvalues, decomp.eigenvectors):
        if value > ZERO_TOL:
            acc += np.outer(vec.amplitudes, vec.amplitudes.conj())
    return HermitianMatrix((acc + acc.conj().T) / 2)


def _positive_part(decomp: SpectralDecomposition):
    return [
        (value, vec.amplitudes)
        for value, vec in zip(decomp.eigenvalues, decomp.eigenvectors)
        if value > ZERO_TOL
    ]


def verify_orthogonality_theorem(
    phi: DensityMatrix,
    psi: DensityMatrix,
    povm: Povm,
    grouping: Grouping,
) -> OrthogonalityProof:
    """Run the constructive proof that a distinguishing POVM forces
    tr(phi psi) = 0, checking every step numerically.

    The chain: coarse-grain the two groups into a two-element POVM {E, F}
    whose group probabilities are exactly 0 and 1; decompose E and phi and
    check that every eigenvector of phi is orthogonal to every eigenvector
    of E; decompose psi and check its eigenvectors against phi's; conclude
    with the overlap itself.  A numerical failure in any step raises
    ProofStepFailedError, since for genuinely distinguishing inputs each
    step is a mathematical identity; residuals must stay within DERIVED_TOL.
    """
    if not is_one_shot_distinguishing(povm, grouping, phi, psi):
        raise PreconditionViolatedError(
            "POVM with this grouping does not one-shot distinguish the inputs"
        )
    steps: list[ProofStep] = []

    def check(name: str, residual: float) -> None:
        ok = residual <= linalg.DERIVED_TOL
        steps.append(ProofStep(name, float(residual), ok))
        if not ok:
            raise ProofStepFailedError(
                f"{name}: residual {residual:.3e} > {linalg.DERIVED_TOL:.1e}"
            )

    coarse = coarse_grain(povm, [("E", grouping[0]), ("F", grouping[1])])
    e_mat = coarse.element("E")
    f_mat = coarse.element("F")
    check(
        "coarse-grained probabilities are 0/1",
        max(
            abs(trace_product(phi.matrix, e_mat)),
            abs(1.0 - trace_product(psi.matrix, e_mat)),
            abs(trace_product(psi.matrix, f_mat)),
            abs(1.0 - trace_product(phi.matrix, f_mat)),
        ),
    )

    e_pairs = _positive_part(eig_hermitian(e_mat))
    check(
        "E eigenvalues lie in (0, 1]",
        max((value - 1.0 for value, _ in e_pairs), default=0.0),
    )
    phi_pairs = _positive_part(eig_hermitian(phi.matrix))
    check(
        "phi eigenvectors orthogonal to E eigenvectors",
        max(
            (
                abs(np.vdot(pv, ev))
                for _, pv in phi_pairs
                for _, ev in e_pairs
            ),
            default=0.0,
        ),
    )
    psi_pairs = _positive_part(eig_hermitian(psi.matrix))
    check(
        "psi eigenvectors orthogonal to phi eigenvectors",
        max(
            (
                abs(np.vdot(sv, pv))
                for _, sv in psi_pairs
                for _, pv in phi_pairs
            ),
            default=0.0,
        ),
    )
    overlap = trace_product(phi.matrix, psi.matrix)
    check("overlap tr(phi psi) vanishes", abs(overlap))
    return OrthogonalityProof(tuple(steps), overlap, True)


def distinguishing_povm_from_orthogonal(
    phi: DensityMatrix, psi: DensityMatrix
) -> tuple[Povm, Grouping]:
    """Converse construction: from orthogonal phi, psi build the two-element
    POVM {E, F} with E the support projector of phi and F = I - E.

    The returned grouping lists F first: F is the group that fires only on
    psi, E the group that fires only on phi.  The result always passes
    :func:`is_one_shot_distinguishing`.
    """
    if phi.dim != psi.dim:
        raise DimMismatchError(f"dims {phi.dim} and {psi.dim}")
    witness = are_orthogonal(phi, psi)
    if not witness:
        raise NotOrthogonalError(f"overlap tr(phi psi) = {witness.overlap!r}")
    e_mat = support_projector(phi)
    f_mat = linalg.identity(phi.dim) - e_mat
    povm = Povm((("E", e_mat), ("F", f_mat)))
    return povm, (("F",), ("E",))


def eigen_instrument(rho: DensityMatrix) -> ProjectiveInstrument:
    """The instrument of rho's eigenprojectors.

    Degenerate eigenvalue clusters (gap below 1e-9) are merged into a single
    projector, so the projectors always sum to the identity; projector labels
    are e0, e1, ... in descending eigenvalue order.
    """
    decomp = eig_hermitian(rho.matrix)
    projectors = []
    for index, cluster in enumerate(decomp.clusters()):
        acc = np.zeros((rho.dim, rho.dim), dtype=complex)
        for k in cluster:
            v = decomp.eigenvectors[k].amplitudes
            acc += np.outer(v, v.conj())
        projectors.append((f"e{index}", HermitianMatrix((acc + acc.conj().T) / 2)))
    return ProjectiveInstrument(tuple(projectors))


def mixture_eigen_instrument(
    weights: Sequence[float], states: Sequence[DensityMatrix]
) -> tuple[DensityMatrix, ProjectiveInstrument]:
    """Mix the states; return the mixture and its :func:`eigen_instrument`."""
    mixture = mix_states(weights, states)
    return mixture, eigen_instrument(mixture)
