import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import P_MINUS, P_PLUS, random_hermitian, random_unitary
from qgas import linalg, spin
from qgas.errors import (
    DimFactorMismatchError,
    DimMismatchError,
    NonFiniteError,
    NonSquareError,
    NotHermitianError,
    NotNormalizedError,
)
from qgas.linalg import (
    HermitianMatrix,
    StateVector,
    eig_hermitian,
    identity,
    make_vector,
    partial_trace,
    projector_from_vector,
    tensor,
    tensor_vector,
    trace_product,
    two_state_rotation,
)
from qgas.statistics import DensityMatrix, eigen_instrument


def tau_matrix() -> linalg.HermitianMatrix:
    """Half |z+ z+> and half |x+ z-> as one four-level matrix."""
    return HermitianMatrix(
        0.5 * tensor(spin.z_plus(), spin.z_plus()).entries
        + 0.5 * tensor(spin.x_plus(), spin.z_minus()).entries
    )


class TestHermitianMatrix:
    def test_z_plus_matrix(self):
        m = HermitianMatrix([[1, 0], [0, 0]])
        assert np.array_equal(m.entries, np.diag([1.0 + 0j, 0.0]))

    def test_antisymmetric_imaginary_rejected(self):
        with pytest.raises(NotHermitianError):
            HermitianMatrix([[0, 1j], [1j, 0]])

    def test_four_level_blend_accepted(self):
        m = tau_matrix()
        assert m.dim == 4
        assert m.trace() == pytest.approx(1.0, abs=1e-12)

    def test_rectangular_rejected(self):
        with pytest.raises(NonSquareError):
            HermitianMatrix([[1, 0, 0], [0, 1, 0]])

    def test_nan_rejected(self):
        with pytest.raises(NonFiniteError):
            HermitianMatrix([[np.nan, 0], [0, 1]])

    def test_tiny_asymmetry_symmetrized(self):
        m = HermitianMatrix([[1, 1e-13j], [0, 1]])
        assert np.allclose(m.entries, m.entries.conj().T)

    def test_a_later_write_to_the_source_does_not_reach_the_matrix(self):
        source = np.eye(2, dtype=complex) / 2
        m = HermitianMatrix(source)
        source[0, 1] = 5
        assert np.array_equal(m.entries, np.eye(2) / 2)
        with pytest.raises(ValueError):
            m.entries[0, 0] = 1


class TestTraceProduct:
    def test_orthogonal_projectors(self):
        assert trace_product(spin.z_plus(), spin.z_minus()) == 0.0

    def test_z_x_overlap(self):
        assert trace_product(spin.z_plus(), spin.x_plus()) == pytest.approx(0.5, abs=1e-12)

    def test_z_alpha_overlap(self):
        value = trace_product(spin.z_plus(), spin.alpha_plus())
        assert value == pytest.approx(P_PLUS, abs=1e-12)
        assert value == pytest.approx(0.853553, abs=1e-6)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            trace_product(spin.z_plus(), identity(4))


class TestTensor:
    def test_zz_projector(self):
        zz = tensor(spin.z_plus(), spin.z_plus())
        assert np.allclose(zz.entries, np.diag([1.0, 0, 0, 0]))

    def test_identity_factors(self):
        assert np.allclose(tensor(identity(2), identity(2)).entries, np.eye(4))

    def test_xz_projector_is_rank_one(self):
        xz = tensor(spin.x_plus(), spin.z_minus())
        ket = np.kron(spin.x_plus_ket().amplitudes, spin.z_minus_ket().amplitudes)
        assert np.allclose(xz.entries, np.outer(ket, ket.conj()), atol=1e-12)
        values = eig_hermitian(xz).eigenvalues
        assert values[0] == pytest.approx(1.0, abs=1e-12)
        assert abs(values[1]) < 1e-12


class TestPartialTrace:
    def test_keep_first_of_product(self):
        zz = tensor(spin.z_plus(), spin.z_plus())
        assert partial_trace(zz, (2, 2), "first").isclose(spin.z_plus(), 1e-12)

    def test_blend_reduces_to_lambda(self):
        # Hand-computed: tracing the second factor leaves z+/2 + x+/2.
        lam = HermitianMatrix(np.array([[3, 1], [1, 1]]) / 4)
        assert partial_trace(tau_matrix(), (2, 2), "first").isclose(lam, 1e-12)

    def test_maximally_mixed(self):
        i4 = HermitianMatrix(np.eye(4) / 4)
        assert partial_trace(i4, (2, 2), "first").isclose(
            HermitianMatrix(np.eye(2) / 2), 1e-12
        )

    def test_factor_mismatch(self):
        with pytest.raises(DimFactorMismatchError):
            partial_trace(identity(4), (3, 2), "first")

    def test_trace_preserved(self):
        rng = np.random.default_rng(7)
        h = random_hermitian(rng, 6)
        for keep in ("first", "second"):
            reduced = partial_trace(h, (2, 3), keep)
            assert reduced.trace() == pytest.approx(h.trace(), abs=1e-12)


class TestEig:
    def test_blend_eigensystem(self):
        lam = HermitianMatrix(np.array([[3, 1], [1, 1]]) / 4)
        decomp = eig_hermitian(lam)
        assert decomp.eigenvalues[0] == pytest.approx(P_PLUS, abs=1e-12)
        assert decomp.eigenvalues[1] == pytest.approx(P_MINUS, abs=1e-12)
        # Eigenvectors match the alpha pair up to phase.
        for vec, ref in zip(decomp.eigenvectors, (spin.alpha_plus_ket(), spin.alpha_minus_ket())):
            assert abs(vec.inner(ref)) == pytest.approx(1.0, abs=1e-12)

    def test_already_diagonal(self):
        decomp = eig_hermitian(HermitianMatrix(np.diag([1.0, 0.0])))
        assert decomp.eigenvalues == (1.0, 0.0)
        assert np.allclose(decomp.eigenvectors[0].amplitudes, [1, 0])
        assert np.allclose(decomp.eigenvectors[1].amplitudes, [0, 1])

    def test_degenerate_pair_satisfies_invariants_only(self):
        decomp = eig_hermitian(HermitianMatrix(np.eye(2) / 2))
        assert decomp.eigenvalues == (0.5, 0.5)
        basis = np.column_stack([v.amplitudes for v in decomp.eigenvectors])
        assert np.allclose(basis.conj().T @ basis, np.eye(2), atol=1e-9)

        # A 2-fold cluster in a non-diagonal d = 4 matrix.
        u = random_unitary(np.random.default_rng(13), 4)
        rho = HermitianMatrix(u @ np.diag([0.4, 0.3, 0.3, 0.0]) @ u.conj().T)
        decomp = eig_hermitian(rho)
        assert np.allclose(decomp.eigenvalues, [0.4, 0.3, 0.3, 0.0], atol=1e-12)
        assert decomp.clusters() == [[0], [1, 2], [3]]
        basis = np.column_stack([v.amplitudes for v in decomp.eigenvectors])
        assert np.allclose(basis.conj().T @ basis, np.eye(4), atol=1e-9)
        for vec in decomp.eigenvectors[1:3]:
            leading = next(x for x in vec.amplitudes if abs(x) > 1e-6)
            assert abs(leading.imag) < 1e-9
            assert leading.real > 0
        instrument = eigen_instrument(DensityMatrix(rho))
        ranks = [round(p.trace()) for _, p in instrument.elements]
        assert ranks == [1, 2, 1]

    def test_phase_convention(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            decomp = eig_hermitian(random_hermitian(rng, 4))
            for vec in decomp.eigenvectors:
                leading = next(x for x in vec.amplitudes if abs(x) > 1e-6)
                assert abs(leading.imag) < 1e-9
                assert leading.real > 0

    def test_against_numpy_eigvalsh(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            dim = int(rng.integers(1, 9))
            h = random_hermitian(rng, dim)
            expected = np.sort(np.linalg.eigvalsh(h.entries))[::-1]
            assert np.allclose(eig_hermitian(h).eigenvalues, expected, atol=1e-10)


def fix_phase(vec: np.ndarray) -> np.ndarray:
    """The per-column phase fix ``eig_hermitian`` replaced, kept as the
    reference: the first component above 1e-6 in modulus made real positive."""
    for x in vec:
        if abs(x) > 1e-6:
            return vec * (np.conj(x) / abs(x))
    return vec


def hexes(rows) -> list[list[str]]:
    return [[float.hex(x) for x in np.asarray(row).view(float).tolist()] for row in rows]


@st.composite
def eigenproblems(draw):
    """A Hermitian matrix of d from 1 to 32 with clustered eigenvalues, and
    often an eigenbasis with a first component just below or just above 1e-6
    in modulus: a Givens rotation by sin = m of rows 0 and 1 of the identity,
    then a random unitary on the rest, leaves m in row 0 of column 1 and 0 in
    row 0 of every later column."""
    dim = draw(st.integers(1, 32))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=dim))
    levels = draw(st.lists(st.floats(-10, 10), min_size=len(sizes), max_size=len(sizes)))
    values = np.resize([v for v, n in zip(levels, sizes) for _ in range(n)], dim)
    basis = random_unitary(rng, dim)
    if dim > 1 and draw(st.booleans()):
        values[1] = 20.0  # alone in its cluster, so the solver keeps column 1
        basis = np.eye(dim, dtype=complex)
        basis[2:, 2:] = random_unitary(rng, dim - 2) if dim > 2 else basis[2:, 2:]
        side = draw(st.sampled_from([-1.0, 1.0]))
        m = 1e-6 * (1 + side * draw(st.floats(1e-7, 1e-2)))
        givens = np.eye(dim, dtype=complex)
        c = np.sqrt(1 - m * m)
        givens[:2, :2] = [[c, -m], [m, c]]
        basis = givens @ basis
    return HermitianMatrix(basis @ np.diag(values) @ basis.conj().T)


class TestEigenvectorRows:
    @given(eigenproblems())
    def test_each_row_is_the_per_column_phase_fix_to_the_bit(self, h):
        values, vectors = np.linalg.eigh(h.entries)
        order = np.argsort(-values, kind="stable")
        decomp = eig_hermitian(h)
        assert hexes(decomp.vectors) == hexes(fix_phase(vectors[:, k]) for k in order)
        assert decomp.eigenvalues == tuple(float(values[k]) for k in order)
        assert decomp.vectors.shape == (h.dim, h.dim) and not decomp.vectors.flags.writeable
        kets = decomp.eigenvectors
        assert all(type(ket) is StateVector for ket in kets)
        assert hexes(ket.amplitudes for ket in kets) == hexes(decomp.vectors)
        assert kets == tuple(StateVector(row) for row in decomp.vectors)
        assert decomp.eigenvectors is kets  # built once, when first read

    def test_eigenvectors_are_checked_kets(self):
        decomp = linalg.SpectralDecomposition((1.0, 0.0), np.array([[1, 0], [0, 2]], complex))
        with pytest.raises(NotNormalizedError):
            decomp.eigenvectors


class TestEquality:
    def test_kets_compare_by_amplitudes(self):
        assert StateVector([1, 0]) == StateVector([1, 0])
        assert StateVector([1, 0]) != StateVector([0, 1])
        assert StateVector([1, 0]) != StateVector([1, 0, 0])
        assert StateVector([1]) != np.array([1.0])

    def test_decompositions_compare_by_eigenvalues_and_rows(self):
        h = tau_matrix()
        assert eig_hermitian(h) == eig_hermitian(HermitianMatrix(h.entries.copy()))
        assert eig_hermitian(h) != eig_hermitian(identity(4) * 0.25)
        rows = eig_hermitian(h).vectors
        shifted = linalg.SpectralDecomposition((2.0, 1.0, 0.0, 0.0), rows)
        assert shifted != eig_hermitian(h)
        assert shifted == linalg.SpectralDecomposition((2.0, 1.0, 0.0, 0.0), rows.copy())
        assert eig_hermitian(h) != eig_hermitian(h).eigenvalues


class TestProjector:
    def test_z_plus(self):
        assert projector_from_vector(make_vector([1, 0])).isclose(spin.z_plus(), 1e-15)

    def test_x_plus(self):
        v = make_vector([1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert projector_from_vector(v).isclose(spin.x_plus(), 1e-15)

    def test_alpha_plus_matrix(self):
        expected = HermitianMatrix(
            np.array([[2 + np.sqrt(2), np.sqrt(2)], [np.sqrt(2), 2 - np.sqrt(2)]]) / 4
        )
        assert projector_from_vector(spin.alpha_plus_ket()).isclose(expected, 1e-12)

    def test_unnormalized_rejected(self):
        with pytest.raises(NotNormalizedError):
            make_vector([1, 1])

    def test_idempotent_unit_trace(self):
        rng = np.random.default_rng(9)
        raw = rng.normal(size=3) + 1j * rng.normal(size=3)
        p = projector_from_vector(make_vector(raw / np.linalg.norm(raw)))
        assert np.max(np.abs(p.entries @ p.entries - p.entries)) < 1e-12
        assert p.trace() == pytest.approx(1.0, abs=1e-12)


@st.composite
def hermitian_matrices(draw, dims=(2, 3, 4)):
    dim = draw(st.sampled_from(dims))
    finite = st.floats(-2, 2, allow_nan=False, allow_infinity=False)
    real = draw(st.lists(finite, min_size=dim * dim, max_size=dim * dim))
    imag = draw(st.lists(finite, min_size=dim * dim, max_size=dim * dim))
    m = np.array(real).reshape(dim, dim) + 1j * np.array(imag).reshape(dim, dim)
    return HermitianMatrix((m + m.conj().T) / 2)


class TestInvariants:
    @given(hermitian_matrices())
    def test_spectral_reassembly(self, h):
        decomp = eig_hermitian(h)
        reassembled = sum(
            value * np.outer(v.amplitudes, v.amplitudes.conj())
            for value, v in zip(decomp.eigenvalues, decomp.eigenvectors)
        )
        assert np.max(np.abs(reassembled - h.entries)) <= 1e-9
        basis = np.column_stack([v.amplitudes for v in decomp.eigenvectors])
        assert np.max(np.abs(basis.conj().T @ basis - np.eye(h.dim))) < 1e-9
        for value, vec in zip(decomp.eigenvalues, decomp.eigenvectors):
            residual = h.entries @ vec.amplitudes - value * vec.amplitudes
            assert np.max(np.abs(residual)) < 1e-9

    @given(hermitian_matrices(), hermitian_matrices())
    def test_partial_trace_of_tensor(self, a, b):
        product = tensor(a, b)
        assert partial_trace(product, (a.dim, b.dim), "first").isclose(
            a * b.trace(), 1e-12
        )
        assert partial_trace(product, (a.dim, b.dim), "second").isclose(
            b * a.trace(), 1e-12
        )

    @given(hermitian_matrices(), hermitian_matrices(), st.floats(-3, 3))
    def test_trace_product_symmetric_bilinear(self, a, b, scale):
        if a.dim != b.dim:
            return
        assert trace_product(a, b) == pytest.approx(trace_product(b, a), abs=1e-10)
        assert trace_product(a * scale, b) == pytest.approx(
            scale * trace_product(a, b), abs=1e-9
        )
        assert trace_product(a + b, b) == pytest.approx(
            trace_product(a, b) + trace_product(b, b), abs=1e-9
        )

    @given(hermitian_matrices())
    def test_trace_product_psd_nonnegative(self, h):
        # h^2 is PSD for Hermitian h; tr((h^2)(h^2)) >= 0.
        square = HermitianMatrix(h.entries @ h.entries)
        assert trace_product(square, square) >= -1e-12

    @given(hermitian_matrices(dims=(2, 3)), hermitian_matrices(dims=(2, 3)))
    def test_tensor_trace_factorizes(self, a, b):
        assert tensor(a, b).trace() == pytest.approx(a.trace() * b.trace(), abs=1e-10)


class TestTwoStateRotation:
    def test_maps_source_to_target(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            raw_a = rng.normal(size=4) + 1j * rng.normal(size=4)
            raw_b = rng.normal(size=4) + 1j * rng.normal(size=4)
            a = make_vector(raw_a / np.linalg.norm(raw_a))
            b = make_vector(raw_b / np.linalg.norm(raw_b))
            u = two_state_rotation(a, b)
            assert linalg.is_unitary(u)
            assert np.allclose(u @ a.amplitudes, b.amplitudes, atol=1e-10)

    def test_identity_on_orthocomplement(self):
        u = two_state_rotation(spin.z_plus_ket(), spin.z_minus_ket())
        # dim-2 case has no orthocomplement; embed in dim 4 via kron.
        lifted = np.kron(u, np.eye(2))
        other = np.kron(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        expected = np.kron(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert np.allclose(lifted @ other, expected)

    def test_colinear_applies_phase(self):
        a = make_vector([1, 0])
        b = make_vector([1j, 0])
        u = two_state_rotation(a, b)
        assert linalg.is_unitary(u)
        assert np.allclose(u @ a.amplitudes, b.amplitudes, atol=1e-12)

    def test_hadamard_from_z_to_x(self):
        u = two_state_rotation(spin.z_plus_ket(), spin.x_plus_ket())
        rho = u @ spin.z_plus().entries @ u.conj().T
        assert np.allclose(rho, spin.x_plus().entries, atol=1e-12)


# Finite entries of any size, signed zeros included.
ENTRIES = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)


def complex_arrays(dims):
    return hnp.arrays(complex, dims, elements=ENTRIES)


def identical(x: np.ndarray, y: np.ndarray) -> bool:
    """Equal shape and values, and equal bytes, so signed zeros match too."""
    return np.array_equal(x, y) and x.tobytes() == y.tobytes()


@st.composite
def square_pairs(draw):
    d1, d2 = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return draw(complex_arrays((d1, d1))), draw(complex_arrays((d2, d2)))


@st.composite
def unit_vectors(draw, dim):
    raw = draw(hnp.arrays(complex, dim, elements=st.complex_numbers(max_magnitude=10)))
    assume(np.linalg.norm(raw) > 1e-3)
    return make_vector(raw / np.linalg.norm(raw))


@st.composite
def rotation_endpoints(draw):
    """(a, b) of one dimension: independent, or b a phase times a."""
    dim = draw(st.integers(1, 4))
    a = draw(unit_vectors(dim))
    if draw(st.booleans()):
        return a, draw(unit_vectors(dim))
    phase = np.exp(1j * draw(st.floats(-np.pi, np.pi)))
    return a, make_vector(phase * a.amplitudes)


def old_two_state_rotation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The formula written with np.outer and np.linalg.norm."""
    c = complex(np.vdot(a, b))
    residual = b - c * a
    s = float(np.linalg.norm(residual))
    eye = np.eye(len(a), dtype=complex)
    if s <= 1e-12:
        return eye + (c / abs(c) - 1.0) * np.outer(a, a.conj())
    e2 = residual / s
    u = eye - np.outer(a, a.conj()) - np.outer(e2, e2.conj())
    u += np.outer(b, a.conj())
    u += np.outer(s * a - np.conj(c) * e2, e2.conj())
    return u


class TestBitIdentityWithNumpyHelpers:
    """The primitives avoid numpy's N-d helpers, and each result must equal
    the helper's bit for bit, not within a tolerance."""

    @given(square_pairs())
    def test_kron_and_tensor_match_np_kron(self, pair):
        a, b = pair
        assert identical(linalg.kron(a, b), np.kron(a, b))
        # tensor takes Hermitian factors, and the checked constructor keeps the
        # product symmetrised.
        a, b = (HermitianMatrix((m + m.conj().T) / 2) for m in pair)
        expected = np.kron(a.entries, b.entries)
        assert identical(tensor(a, b).entries, (expected + expected.conj().T) / 2)

    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_tensor_vector_matches_np_kron(self, d1, d2, data):
        a = data.draw(complex_arrays(d1))
        b = data.draw(complex_arrays(d2))
        assert identical(linalg.kron(a, b), np.kron(a, b))
        # tensor_vector takes kets, which are checked unit vectors.
        u, v = data.draw(unit_vectors(d1)), data.draw(unit_vectors(d2))
        product = tensor_vector(u, v).amplitudes
        assert identical(product, np.kron(u.amplitudes, v.amplitudes))
        assert not product.flags.writeable

    @given(st.integers(1, 8).flatmap(unit_vectors))
    def test_projector_matches_the_np_outer_form(self, v):
        outer = np.outer(v.amplitudes, v.amplitudes.conj())
        expected = (outer + outer.conj().T) / 2
        assert identical(projector_from_vector(v).entries, expected)

    @given(rotation_endpoints())
    def test_two_state_rotation_matches_the_old_formula(self, endpoints):
        a, b = endpoints
        u = two_state_rotation(a, b)
        assert identical(u, old_two_state_rotation(a.amplitudes, b.amplitudes))

    @given(st.integers(1, 8).flatmap(complex_arrays))
    def test_make_vector_reports_np_linalg_norm(self, raw):
        norm = float(np.linalg.norm(raw))
        if abs(norm - 1.0) <= linalg.HERMITIAN_TOL:
            assert identical(make_vector(raw).amplitudes, raw)
            return
        with pytest.raises(NotNormalizedError) as err:
            make_vector(raw)
        assert str(err.value) == f"norm {norm!r} differs from 1 beyond 1e-12"


@pytest.mark.parametrize(
    "call, cls, message",
    [
        (lambda: identity(2) + identity(3), DimMismatchError, "dims 2 and 3"),
        (lambda: identity(2) - identity(3), DimMismatchError, "dims 2 and 3"),
        (
            lambda: make_vector([1, 0]).inner(make_vector([1, 0, 0])),
            DimMismatchError,
            "dims 2 and 3",
        ),
        (lambda: make_vector([np.nan, 1]), NonFiniteError, "vector amplitudes must be finite"),
        (lambda: StateVector([np.nan, 0]), NonFiniteError, "vector amplitudes must be finite"),
        (lambda: StateVector(np.eye(2)), DimMismatchError, "shape (2, 2) is not one-dimensional"),
        (lambda: StateVector([3, 0]), NotNormalizedError, "norm 3.0 differs from 1 beyond 1e-12"),
        (lambda: HermitianMatrix(np.zeros((0, 0))), NonSquareError, "dimension must be at least 1"),
        (lambda: identity(0), NonSquareError, "dimension must be at least 1"),
        (lambda: HermitianMatrix(np.zeros((2, 3))), NonSquareError, "shape (2, 3) is not square"),
        (lambda: HermitianMatrix(np.ones(2)), NonSquareError, "shape (2,) is not square"),
        (lambda: identity(2) * np.nan, NonFiniteError, "matrix entries must be finite"),
        (
            # A raw stack member that is not Hermitian: tr(sigma_x B) = 1j.
            lambda: linalg.trace_products(
                HermitianMatrix(np.array([[0, 1], [1, 0]])), np.array([[[0, 0], [1j, 0]]])
            ),
            NotHermitianError,
            "trace product residue 1.000e+00",
        ),
        (
            lambda: partial_trace(identity(4), (2, 2), keep="third"),
            ValueError,
            "keep must be 'first' or 'second'",
        ),
    ],
    ids=["add-dims", "sub-dims", "inner-dims", "nan-ket", "nan-raw-ket", "two-dimensional-ket",
         "long-raw-ket", "empty-matrix", "identity-0",
         "two-by-three", "one-dimensional", "nan-product", "imaginary-residue", "keep-third"],
)
def test_input_checks(call, cls, message):
    with pytest.raises(cls) as err:
        call()
    assert str(err.value) == message


def test_a_non_square_array_is_not_unitary():
    assert linalg.is_unitary(np.zeros((2, 3))) is False


def test_matrices_of_different_dimensions_are_not_close():
    assert identity(2).isclose(identity(3), tol=10.0) is False


def test_a_ket_shows_its_amplitudes_to_six_decimals():
    text = repr(make_vector([2**-0.5, 2**-0.5]))
    assert text.startswith("StateVector([") and text.count("0.707107") == 2
