"""A ``HermitianMatrix`` or a ``StateVector`` checks its input as it is
built, and a derived value skips that check only where its inputs already
guarantee it.

``DensityMatrix.stack``, which takes raw arrays, checks their shape where
they enter and keeps its members as read-only rows of one symmetrised copy.
The five results that ``linalg._hermitian`` wraps unchecked are finite and
exactly Hermitian for any checked inputs, and the ket products and
eigenvectors that ``linalg`` derives pass the ket check.  A
``DensityMatrix``, ``Povm`` or ``ProjectiveInstrument`` given something
other than a ``HermitianMatrix`` names its type in the class's own error.
"""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qgas import linalg
from qgas.errors import (
    DimMismatchError,
    NonSquareError,
    NotDensityMatrixError,
    NotPovmError,
    NotProjectiveError,
)
from qgas.linalg import (
    StateVector,
    eig_hermitian,
    make_vector,
    projector_from_vector,
    tensor_vector,
)
from qgas.statistics import (
    DensityMatrix,
    Povm,
    ProjectiveInstrument,
    apply_unitary,
    eigen_instrument,
    mix_states,
    support_projector,
)

AMPLITUDES = st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize(
    "entries, cls, message",
    [
        (np.eye(2) / 2, NonSquareError, "shape (2,) is not square"),
        (np.zeros((1, 2, 3)), NonSquareError, "shape (2, 3) is not square"),
        (np.zeros((1, 0, 0)), NonSquareError, "dimension must be at least 1"),
        ([np.eye(2) / 2, np.eye(3) / 3], DimMismatchError, "member shapes (2, 2) and (3, 3) differ"),
        (iter([np.eye(2) / 2, np.eye(3) / 3]), DimMismatchError, "member shapes (2, 2) and (3, 3) differ"),
        ([[[1, 0], [0]]], NonSquareError, "a member is ragged, not a (d, d) matrix"),
    ],
    ids=["two-dimensional", "non-square", "zero-dimension", "ragged", "ragged-iterator",
         "ragged-member"],
)
def test_a_stack_checks_its_shape_where_it_enters(entries, cls, message):
    with pytest.raises(cls) as err:
        DensityMatrix.stack(entries)
    assert str(err.value) == message


def test_a_stack_reads_an_iterator_once():
    members = [np.eye(2) / 2, np.diag([1.0, 0.0])]
    states = DensityMatrix.stack(iter(members))
    assert [s.matrix.entries.tolist() for s in states] == [m.tolist() for m in members]


def test_stack_members_are_read_only_rows_of_one_symmetrised_copy():
    # Asymmetry 1e-13 passes the stack's check and is symmetrised away, so a
    # member scaled by 1e4 is still Hermitian within 1e-12.
    lopsided = np.array([[0.5, 1e-13], [0, 0.5]])
    source = np.array([np.eye(2) / 2, lopsided], dtype=complex)
    states = DensityMatrix.stack(source)
    base = states[0].matrix.entries.base
    assert base is not source and not base.flags.writeable
    for state in states:
        assert state.matrix.entries.base is base
        assert np.array_equal(state.matrix.entries, state.matrix.entries.conj().T)
    assert (states[1].matrix * 1e4).entries[0, 1] == 5e-10
    source[0, 0, 0] = 5
    assert states[0].matrix.entries[0, 0] == 0.5


@st.composite
def kets(draw, dim):
    raw = draw(hnp.arrays(complex, dim, elements=AMPLITUDES))
    norm = np.linalg.norm(raw)
    assume(norm > 1e-3)
    return make_vector(raw / norm)


@st.composite
def checked_inputs(draw):
    """Unit kets, convex weights and a unitary of one dimension."""
    dim = draw(st.integers(1, 4))
    vectors = draw(st.lists(kets(dim), min_size=1, max_size=4))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(vectors), max_size=len(vectors)))
    unitary, _ = np.linalg.qr(draw(hnp.arrays(complex, (dim, dim), elements=AMPLITUDES)))
    return vectors, [w / sum(weights) for w in weights], unitary


@given(checked_inputs())
def test_every_unchecked_site_yields_a_finite_hermitian_matrix(inputs):
    vectors, weights, unitary = inputs
    projectors = [projector_from_vector(v) for v in vectors]
    states = DensityMatrix.stack([p.entries for p in projectors])
    mixed = mix_states(weights, states)
    rotated = apply_unitary(mixed, unitary)
    matrices = [
        *projectors,
        *(state.matrix for state in states),
        mixed.matrix,
        rotated.matrix,
        *(p for _, p in eigen_instrument(rotated).elements),  # _span_projectors
        support_projector(rotated),
    ]
    for m in matrices:
        assert np.isfinite(m.entries).all()
        assert np.array_equal(m.entries, m.entries.conj().T)
        assert not m.entries.flags.writeable


@pytest.mark.parametrize(
    "entries, name",
    [(np.eye(2) / 2, "ndarray"), ([[0.5, 0], [0, 0.5]], "list"), (None, "NoneType")],
)
def test_a_density_matrix_names_the_type_it_was_given(entries, name):
    with pytest.raises(NotDensityMatrixError) as err:
        DensityMatrix(entries)
    assert str(err.value) == f"a HermitianMatrix is needed, not {name}"


UP = linalg.HermitianMatrix(np.diag([1.0, 0.0]))


@pytest.mark.parametrize(
    "cls, error, elements, name",
    [
        (Povm, NotPovmError, (("a", np.eye(2)),), "ndarray"),
        (ProjectiveInstrument, NotProjectiveError, (("a", [[1, 0], [0, 1]]),), "list"),
        (ProjectiveInstrument, NotProjectiveError, (("a", UP), ("b", np.diag([0, 1]))), "ndarray"),
    ],
    ids=["povm-array", "instrument-list", "instrument-second-element"],
)
def test_an_instrument_names_the_element_type_it_was_given(cls, error, elements, name):
    with pytest.raises(error) as err:
        cls(elements)
    assert str(err.value) == f"a HermitianMatrix is needed, not {name}"


@given(st.integers(1, 4).flatmap(kets), st.integers(1, 4).flatmap(kets))
def test_every_derived_ket_passes_the_ket_check(a, b):
    product = tensor_vector(a, b)
    rho = projector_from_vector(product)
    for ket in (product, *eig_hermitian(rho).eigenvectors):
        assert not ket.amplitudes.flags.writeable
        assert np.array_equal(StateVector(ket.amplitudes).amplitudes, ket.amplitudes)
