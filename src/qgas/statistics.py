"""Statistical objects of quantum preparations and measurements.

A preparation is represented by a density matrix, a measurement by a POVM,
and the outcome statistics follow the trace rule p_i = tr(rho E_i).  A
projective instrument is the POVM of mutually orthogonal projectors whose
update rho -> P_i rho P_i / tr(P_i rho P_i) is the only one used here (an
outcome below ``PROBABILITY_FLOOR`` gets no post-state, and one below
``RESOLUTION_BOUND`` cannot be resolved); completely positive maps are
deliberately out of scope.  A POVM keeps its elements as one (k, d, d)
``stack``: one stacked product or ``eigvalsh`` checks it, and
:func:`apply_instrument` measures with it.  :func:`are_orthogonal` is the
one orthogonality predicate; the thermo layer asks it too.

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
from itertools import combinations
from typing import Sequence

import numpy as np

from . import linalg
from .errors import (
    DimMismatchError,
    InvalidPartitionError,
    NonSquareError,
    NotConvexError,
    NotDensityMatrixError,
    NotOrthogonalError,
    NotPovmError,
    NotProjectiveError,
    NotUnitaryError,
    PreconditionViolatedError,
    ProofStepFailedError,
    QuantumGasError,
)
from .linalg import HermitianMatrix, SpectralDecomposition, eig_hermitian, trace_product

# "Nonzero" in the distinguishability predicate means above this, "zero"
# means at or below it; sharing the tolerance with the PSD checks keeps the
# predicate stable.
ZERO_TOL = 1e-10
# Outcomes less likely than this get no post-state, and so no chamber.
PROBABILITY_FLOOR = 1e-12
# P rho P / p is known to about 1e-16 / p: an outcome at or above the floor
# but below this cannot be resolved, and apply_instrument refuses it.
RESOLUTION_BOUND = 1e-5

Grouping = tuple[Sequence[str], Sequence[str]]


def _validated_spectra(stack: np.ndarray) -> list[tuple[float, ...]]:
    """Check each matrix of a stack (n, d, d) as a density matrix, in member
    order: trace 1 within ZERO_TOL, then no eigenvalue below -ZERO_TOL; the
    callers check Hermiticity.  One ``eigvalsh`` serves the whole stack; each
    member's descending spectrum is returned."""
    traces = stack.trace(axis1=1, axis2=2).real.tolist()
    spectra = np.linalg.eigvalsh(stack)
    for tr, smallest in zip(traces, spectra[:, 0].tolist()):
        # Written so that NaN fails each check.
        if not abs(tr - 1.0) <= ZERO_TOL:
            raise NotDensityMatrixError(f"trace {tr!r} differs from 1")
        if not smallest >= -ZERO_TOL:
            raise NotDensityMatrixError(f"negative eigenvalue {smallest!r}")
    return [tuple(spectrum) for spectrum in spectra[:, ::-1].tolist()]


def _checked_stack(stack: np.ndarray) -> tuple[np.ndarray, list[tuple[float, ...]]]:
    """The checks of :meth:`DensityMatrix.stack` on a nonempty complex array
    (n, d, d): square, each member a density matrix (``_validated_spectra``),
    then Hermitian within 1e-12.  Returns a symmetrised read-only copy of the
    stack and each member's descending spectrum."""
    linalg._check_square(stack.shape[1:])
    spectra = _validated_spectra(stack)
    for asymmetry in linalg._asymmetries(stack):
        if not asymmetry <= linalg.HERMITIAN_TOL:
            raise NotDensityMatrixError(f"asymmetry {asymmetry:.3e} exceeds 1e-12")
    stack = (stack + stack.conj().swapaxes(1, 2)) / 2
    stack.setflags(write=False)
    return stack, spectra


@dataclass(frozen=True, slots=True)
class DensityMatrix:
    """Positive semidefinite Hermitian matrix with unit trace.

    Construction checks the trace and the spectrum of a ``HermitianMatrix``;
    the spectrum that the positivity check computes is kept as ``eigenvalues``
    (descending, not part of equality or repr), so no reader decomposes it again.
    One validation serves a single matrix and a stack: ``DensityMatrix(m)``
    checks a stack of one, and :meth:`stack` checks many raw matrices of one
    dimension with one ``eigvalsh``, each member by its own slice of it.
    """

    matrix: HermitianMatrix
    eigenvalues: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.matrix, HermitianMatrix):
            raise NotDensityMatrixError(
                f"a HermitianMatrix is needed, not {type(self.matrix).__name__}"
            )
        (spectrum,) = _validated_spectra(self.matrix.entries[None])
        object.__setattr__(self, "eigenvalues", spectrum)

    @classmethod
    def stack(cls, entries) -> tuple["DensityMatrix", ...]:
        """Density matrices from raw matrices of one shape (d, d), d >= 1, given
        as a sequence or an (n, d, d) array (else ``DimMismatchError`` or
        ``NonSquareError``).  Every member passes the checks of
        ``DensityMatrix(...)``, then is checked Hermitian within 1e-12; the
        first member that fails raises its error.  The members are read-only
        rows of one symmetrised copy of the stack."""
        if not isinstance(entries, np.ndarray):
            entries = list(entries)
            try:
                shapes = list(dict.fromkeys(map(np.shape, entries)))
            except ValueError:  # numpy's word for a ragged nested sequence
                raise NonSquareError("a member is ragged, not a (d, d) matrix") from None
            if len(shapes) > 1:
                raise DimMismatchError(f"member shapes {shapes[0]} and {shapes[1]} differ")
        stack = np.asarray(entries, dtype=complex)
        if not len(stack):
            return ()
        return tuple(cls._members(*_checked_stack(stack)))

    @classmethod
    def _members(cls, stack: np.ndarray, spectra: list[tuple[float, ...]]):
        """The members of a ``_checked_stack`` result, not validated again."""
        for matrix, spectrum in zip(stack, spectra):
            state = object.__new__(cls)
            object.__setattr__(state, "matrix", linalg._hermitian(matrix))
            object.__setattr__(state, "eigenvalues", spectrum)
            yield state

    @property
    def dim(self) -> int:
        return self.matrix.dim

    def isclose(self, other: "DensityMatrix", tol: float = linalg.DERIVED_TOL) -> bool:
        return self.matrix.isclose(other.matrix, tol)


@dataclass(frozen=True)
class Povm:
    """PSD ``HermitianMatrix`` elements, one per distinct outcome label, of one
    dimension, summing to identity, checked (NaN fails) and kept as one
    read-only (k, d, d) ``stack`` in label order (not part of equality or repr).
    A subclass narrows ``_check_stack``; ``_error`` and ``_noun`` name its failures."""

    elements: tuple[tuple[str, HermitianMatrix], ...]
    stack: np.ndarray = field(init=False, repr=False, compare=False)

    _error = NotPovmError
    _noun = "element"

    def __post_init__(self):
        for _, mat in self.elements:
            if not isinstance(mat, HermitianMatrix):
                raise self._error(f"a HermitianMatrix is needed, not {type(mat).__name__}")
        if not self.elements:
            raise self._error(f"at least one {self._noun} is needed")
        labels = [label for label, _ in self.elements]
        if len(set(labels)) != len(labels):
            raise self._error(f"duplicate outcome labels in {labels}")
        dim = self.elements[0][1].dim
        for label, mat in self.elements:
            if mat.dim != dim:
                raise DimMismatchError(f"{self._noun} {label} has dim {mat.dim} != {dim}")
        stack = np.array([mat.entries for _, mat in self.elements])
        stack.setflags(write=False)
        self._check_stack(labels, stack)
        if not float(abs(stack.sum(axis=0) - linalg.eye(dim)).max()) <= ZERO_TOL:
            raise self._error(f"{self._noun}s do not sum to the identity")
        object.__setattr__(self, "stack", stack)

    def _check_stack(self, labels: list[str], stack: np.ndarray) -> None:
        """Every element PSD, by one ``eigvalsh`` over the stack."""
        for label, smallest in zip(labels, np.linalg.eigvalsh(stack)[:, 0].tolist()):
            if not smallest >= -ZERO_TOL:
                raise NotPovmError(f"element {label} is not PSD ({smallest!r})")

    @property
    def dim(self) -> int:
        return self.elements[0][1].dim

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.elements)

    def element(self, label: str) -> HermitianMatrix:
        return dict(self.elements)[label]


class ProjectiveInstrument(Povm):
    """A POVM of mutually orthogonal projectors, with the state-update rule
    rho -> P rho P / tr(P rho P)."""

    _error = NotProjectiveError
    _noun = "projector"

    def _check_stack(self, labels: list[str], stack: np.ndarray) -> None:
        """One stacked product P_i P_j: its diagonal less the stack gives each
        idempotency residual, the rest each pairwise overlap, in (i, j) order."""
        products = stack[:, None] @ stack[None]
        products[np.diag_indices(len(stack))] -= stack
        worst = np.abs(products).max(axis=(2, 3)).tolist()
        for i, label in enumerate(labels):
            if not worst[i][i] <= ZERO_TOL:
                raise NotProjectiveError(f"{label} not idempotent ({worst[i][i]:.2e})")
        for (i, a), (j, b) in combinations(enumerate(labels), 2):
            if not worst[i][j] <= ZERO_TOL:
                raise NotProjectiveError(f"projectors {a} and {b} overlap ({worst[i][j]:.2e})")


@dataclass(frozen=True)
class Outcome:
    label: str
    probability: float
    post_state: DensityMatrix | None


@dataclass(frozen=True)
class OutcomeDistribution:
    outcomes: tuple[Outcome, ...]

    def __post_init__(self):
        total = linalg._sum_in_order(o.probability for o in self.outcomes)
        if abs(total - 1.0) > ZERO_TOL:
            raise NotDensityMatrixError(f"outcome probabilities sum to {total!r}")

    def probability(self, label: str) -> float:
        return {o.label: o.probability for o in self.outcomes}[label]

    def post_state(self, label: str) -> DensityMatrix | None:
        return {o.label: o.post_state for o in self.outcomes}[label]


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
    if not all(w >= -1e-12 for w in weights):  # NaN fails too
        raise NotConvexError(f"negative weight in {list(weights)}")
    if not abs((total := linalg._sum_in_order(weights)) - 1.0) <= ZERO_TOL:
        raise NotConvexError(f"weights sum to {total!r}")
    dim = states[0].dim
    for state in states:
        if state.dim != dim:
            raise DimMismatchError(f"state dims {state.dim} != {dim}")
    return _mixture(weights, [state.matrix.entries for state in states])


def _mixture(weights: Sequence[float], matrices: Sequence[np.ndarray]) -> DensityMatrix:
    """The sum of w * M over raw Hermitian (d, d) arrays, added in order from
    zeros and validated once.  The caller checks the weights and dims, and
    builds each M only from checked matrices or unit kets."""
    acc = np.zeros(matrices[0].shape, dtype=complex)
    for w, matrix in zip(weights, matrices):
        acc += w * matrix
    return DensityMatrix(linalg._hermitian(acc))


def outcome_probability(rho: DensityMatrix, element: HermitianMatrix) -> float:
    """Trace rule p = tr(rho E), clamped to [0, 1]; trace_products checks the dims."""
    return _probabilities(rho, element.entries[None])[0]


def _probabilities(rho: DensityMatrix, stack: np.ndarray) -> list[float]:
    return [min(1.0, max(0.0, p)) for p in linalg.trace_products(rho.matrix, stack)]


def apply_instrument(rho: DensityMatrix, inst: ProjectiveInstrument) -> OutcomeDistribution:
    """Projective update per outcome, over the instrument's stack: every
    p = tr(rho P) in one reduction and every P rho P in one stacked matmul.
    Outcomes below PROBABILITY_FLOOR carry no post-state, and one at or above
    it but below RESOLUTION_BOUND raises ``QuantumGasError``.  Each symmetrised
    P rho P is divided by its own trace, so a post-state's trace is 1
    however small p is; the post-states are validated as one stack."""
    probabilities = _probabilities(rho, inst.stack)
    for (label, _), p in zip(inst.elements, probabilities):
        if PROBABILITY_FLOOR <= p < RESOLUTION_BOUND:
            raise QuantumGasError(
                f"outcome {label} has p = {p!r}, below the resolution bound {RESOLUTION_BOUND!r}"
            )
    kept = inst.stack[[p >= PROBABILITY_FLOOR for p in probabilities]]
    projected = kept @ rho.matrix.entries @ kept
    projected = (projected + projected.conj().swapaxes(1, 2)) / 2
    traces = projected.trace(axis1=1, axis2=2).real
    posts = iter(DensityMatrix.stack(projected / traces[:, None, None]))
    return OutcomeDistribution(tuple(
        Outcome(label, p, next(posts) if p >= PROBABILITY_FLOOR else None)
        for (label, _), p in zip(inst.elements, probabilities)
    ))


def apply_unitary(rho: DensityMatrix, u: np.ndarray) -> DensityMatrix:
    """Conjugate rho by a unitary; preserves trace and spectrum."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (rho.dim, rho.dim):
        raise DimMismatchError(f"unitary shape {u.shape} does not match dimension {rho.dim}")
    if not linalg.is_unitary(u):
        raise NotUnitaryError("matrix fails U+U = I within 1e-10")
    rotated = u @ rho.matrix.entries @ u.conj().T
    return DensityMatrix(linalg._hermitian((rotated + rotated.conj().T) / 2))


def are_orthogonal(phi: DensityMatrix, psi: DensityMatrix) -> OrthogonalityCheck:
    """tr(phi psi) = 0 test; truthy iff the overlap is at most 1e-10."""
    overlap = trace_product(phi.matrix, psi.matrix)
    return OrthogonalityCheck(overlap <= ZERO_TOL, overlap)


def _partition(povm: Povm, groups: Sequence[Sequence[str]]) -> list[tuple[str, ...]]:
    """The groups as tuples, checked to split the POVM's labels into
    nonempty, disjoint sets."""
    groups = [tuple(members) for members in groups]
    combined = [label for members in groups for label in members]
    if not groups or not all(groups):
        raise InvalidPartitionError("every group must be nonempty")
    if len(set(combined)) != len(combined) or set(combined) != set(povm.labels):
        raise InvalidPartitionError(
            f"groups {combined} are not a partition of {list(povm.labels)}"
        )
    return groups


def is_one_shot_distinguishing(
    povm: Povm, grouping: Grouping, phi: DensityMatrix, psi: DensityMatrix
) -> bool:
    """Test the one-shot distinguishability predicate for a labeled split.

    Set one must fire only on psi (tr(phi E) = 0, tr(psi E) != 0 for each
    element E in it) and set two only on phi.  "Zero" and "nonzero" are
    resolved at the 1e-10 tolerance.
    """
    set_one, set_two = _partition(povm, (grouping[0], grouping[1]))
    if phi.dim != povm.dim or psi.dim != povm.dim:
        raise DimMismatchError("state and POVM dimensions differ")
    for labels, silent, firing in ((set_one, phi, psi), (set_two, psi, phi)):
        for label in labels:
            element = povm.element(label)
            if trace_product(silent.matrix, element) > ZERO_TOL:
                return False
            if trace_product(firing.matrix, element) <= ZERO_TOL:
                return False
    return True


def coarse_grain(povm: Povm, grouping: Sequence[tuple[str, Sequence[str]]]) -> Povm:
    """Merge POVM outcomes: one element per group, summing its members."""
    member_lists = _partition(povm, [members for _, members in grouping])
    rows = dict(zip(povm.labels, povm.stack))
    return Povm(tuple(
        (group_label, HermitianMatrix(sum(rows[label] for label in members)))
        for (group_label, _), members in zip(grouping, member_lists)
    ))


def support_projector(rho: DensityMatrix) -> HermitianMatrix:
    """Projector onto the span of eigenvectors with eigenvalue above ZERO_TOL."""
    _, vectors = _positive_part(eig_hermitian(rho.matrix))
    return _span_projectors(vectors, [range(len(vectors))])[0]


def _span_projectors(vectors: np.ndarray, groups) -> list[HermitianMatrix]:
    """For each group of rows of ``vectors``, the projector onto their span.
    A group of one row is that row of one ``linalg._projectors`` stack of
    all the rows; a larger group, a degenerate eigencluster, is the
    symmetrised sum of its rows' |v><v|."""
    stack = linalg._projectors(vectors)
    spans = []
    for group in groups:
        if len(group) == 1:
            spans.append(stack[group[0]])
        else:
            summed = sum(linalg._ketbra(vectors[k], vectors[k]) for k in group)
            spans.append((summed + summed.conj().T) / 2)
    return [linalg._hermitian(m) for m in spans]


def _positive_part(decomp: SpectralDecomposition) -> tuple[tuple[float, ...], np.ndarray]:
    """The eigenvalues above ZERO_TOL and their eigenvector rows: a prefix, as
    the eigenvalues descend."""
    count = sum(value > ZERO_TOL for value in decomp.eigenvalues)
    return decomp.eigenvalues[:count], decomp.vectors[:count]


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

    e_values, earlier = _positive_part(eig_hermitian(e_mat))
    check("E eigenvalues lie in (0, 1]", max((value - 1.0 for value in e_values), default=0.0))
    earlier_name = "E"
    for name, state in (("phi", phi), ("psi", psi)):
        _, vectors = _positive_part(eig_hermitian(state.matrix))
        check(
            f"{name} eigenvectors orthogonal to {earlier_name} eigenvectors",
            max((abs(np.vdot(v, w)) for v in vectors for w in earlier), default=0.0),
        )
        earlier_name, earlier = name, vectors
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
    projector, the sum of their |v><v|, so the projectors always sum to the
    identity; projector labels are e0, e1, ... in descending eigenvalue order.
    """
    decomp = eig_hermitian(rho.matrix)
    projectors = _span_projectors(decomp.vectors, decomp.clusters())
    return ProjectiveInstrument(tuple((f"e{i}", p) for i, p in enumerate(projectors)))
