import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import P_MINUS, P_PLUS, random_density, random_unitary
from qgas import linalg, spin
from qgas.errors import (
    DimMismatchError,
    InvalidPartitionError,
    NonFiniteError,
    NotConvexError,
    NotDensityMatrixError,
    NotHermitianError,
    NotPovmError,
    NotProjectiveError,
    NotUnitaryError,
)
from qgas.statistics import (
    DensityMatrix,
    Outcome,
    OutcomeDistribution,
    Povm,
    ProjectiveInstrument,
    apply_instrument,
    apply_unitary,
    are_orthogonal,
    coarse_grain,
    eigen_instrument,
    is_one_shot_distinguishing,
    mix_states,
    outcome_probability,
    support_projector,
)


def z_instrument() -> ProjectiveInstrument:
    return ProjectiveInstrument((("up", spin.z_plus()), ("down", spin.z_minus())))


def alpha_instrument() -> ProjectiveInstrument:
    return ProjectiveInstrument(
        (("plus", spin.alpha_plus()), ("minus", spin.alpha_minus()))
    )


class TestTypes:
    def test_density_needs_unit_trace(self):
        with pytest.raises(NotDensityMatrixError):
            DensityMatrix(linalg.HermitianMatrix(np.eye(2)))

    def test_nan_matrix_rejected(self):
        # A NaN matrix is no HermitianMatrix; in a raw stack a NaN trace or
        # eigenvalue fails the check a number would fail.
        with pytest.raises(NonFiniteError, match="^matrix entries must be finite$"):
            DensityMatrix(linalg.HermitianMatrix(np.full((2, 2), np.nan)))
        unit_trace = np.array([[1.0, np.nan], [np.nan, 0.0]])
        with pytest.raises(NotDensityMatrixError, match="^negative eigenvalue nan$"):
            DensityMatrix.stack([unit_trace])
        with pytest.raises(NotDensityMatrixError, match="^trace nan differs from 1$"):
            DensityMatrix.stack([spin.z_plus().entries, np.full((2, 2), np.nan)])

    def test_density_needs_psd(self):
        with pytest.raises(NotDensityMatrixError):
            DensityMatrix(linalg.HermitianMatrix(np.diag([1.5, -0.5])))
        # ZERO_TOL = 1e-10 bounds the smallest eigenvalue in any basis.
        u = random_unitary(np.random.default_rng(17), 3)

        def rotated(smallest):
            spectrum = np.diag([0.6 - smallest, 0.4, smallest])
            return linalg.HermitianMatrix(u @ spectrum @ u.conj().T)

        DensityMatrix(rotated(-5e-11))
        with pytest.raises(NotDensityMatrixError):
            DensityMatrix(rotated(-2e-10))

    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_density_keeps_its_validated_spectrum(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(10):
            rho = random_density(rng, dim)
            assert list(rho.eigenvalues) == sorted(rho.eigenvalues, reverse=True)
            np.testing.assert_allclose(
                rho.eigenvalues, linalg.eig_hermitian(rho.matrix).eigenvalues,
                rtol=0, atol=1e-12,
            )
            assert "eigenvalues" not in repr(rho)

    def test_povm_completeness(self):
        with pytest.raises(NotPovmError):
            Povm((("only", spin.z_plus()),))

    def test_povm_positivity(self):
        bad = linalg.HermitianMatrix(np.diag([1.5, -0.5]))
        good = linalg.identity(2) - bad
        with pytest.raises(NotPovmError):
            Povm((("a", bad), ("b", good)))
        # ZERO_TOL = 1e-10 bounds each element's smallest eigenvalue in any basis.
        u = random_unitary(np.random.default_rng(19), 2)

        def rotated(smallest):
            e = u @ np.diag([0.7, smallest]) @ u.conj().T
            return (("a", linalg.HermitianMatrix(e)),
                    ("b", linalg.HermitianMatrix(np.eye(2) - e)))

        Povm(rotated(-5e-11))
        with pytest.raises(NotPovmError):
            Povm(rotated(-2e-10))

    def test_instrument_orthogonality(self):
        with pytest.raises(NotProjectiveError):
            ProjectiveInstrument((("a", spin.z_plus()), ("b", spin.x_plus())))

    def test_instrument_idempotence(self):
        half = linalg.HermitianMatrix(np.eye(2) / 2)
        with pytest.raises(NotProjectiveError):
            ProjectiveInstrument((("a", half), ("b", half)))

    def test_nan_elements_rejected(self):
        # A HermitianMatrix and a StateVector reject NaN as they are built, so
        # NaN reaches an element only as a derived matrix that linalg._hermitian
        # wraps unchecked; it fails the check a number would fail, as a state does.
        nan = linalg._hermitian(np.full((2, 2), np.nan, dtype=complex))
        with pytest.raises(NotPovmError, match=r"^element a is not PSD \(nan\)$"):
            Povm((("a", nan),))
        with pytest.raises(NotProjectiveError, match=r"^a not idempotent \(nan\)$"):
            ProjectiveInstrument((("a", nan), ("b", nan)))


class TestHermiticity:
    """``eigvalsh`` reads one triangle, so a state or an element must also be
    Hermitian.  A ``HermitianMatrix`` checks that as it is built; a raw stack
    checks it last, so every other failure of a stack keeps its text."""

    LOPSIDED = np.array([[0.5, 5], [0, 0.5]])

    def test_a_lopsided_state_is_rejected(self):
        message = r"^asymmetry 5\.000e\+00 exceeds 1e-12$"
        with pytest.raises(NotHermitianError, match=message):
            DensityMatrix(linalg.HermitianMatrix(self.LOPSIDED))
        with pytest.raises(NotDensityMatrixError, match=message):
            DensityMatrix.stack([spin.z_plus().entries, self.LOPSIDED])

    def test_every_other_check_of_a_stack_comes_first(self):
        with pytest.raises(NotDensityMatrixError, match="^trace 2.0 differs from 1$"):
            DensityMatrix.stack([self.LOPSIDED, np.eye(2)])
        with pytest.raises(NotDensityMatrixError, match="^negative eigenvalue"):
            DensityMatrix.stack([self.LOPSIDED, np.diag([1.5, -0.5])])

    def test_a_lopsided_povm_is_rejected(self):
        # Each element of the pair is rejected before any POVM can hold it.
        e = np.array([[0.5, 1], [0, 0.5]])
        for element in (e, np.eye(2) - e):
            with pytest.raises(NotHermitianError, match=r"^asymmetry 1\.000e\+00 exceeds 1e-12$"):
                linalg.HermitianMatrix(element)

    def test_an_oblique_instrument_is_rejected(self):
        # Idempotent, with P_a P_b = P_b P_a = 0 and P_a + P_b = I, but not Hermitian.
        for projector in ([[1, 1], [0, 0]], [[0, -1], [0, 1]]):
            with pytest.raises(NotHermitianError, match=r"^asymmetry 1\.000e\+00 exceeds 1e-12$"):
                linalg.HermitianMatrix(np.array(projector))


class TestInstrumentIsPovm:
    """An instrument is a POVM: it shares the POVM's checks and adds only
    idempotence and pairwise orthogonality, keeping its own error type."""

    def test_repeated_label_rejected(self):
        with pytest.raises(NotProjectiveError):
            ProjectiveInstrument((("a", spin.z_plus()), ("a", spin.z_minus())))

    @pytest.mark.parametrize(
        "projectors", [(), (("up", spin.z_plus()),)], ids=["empty", "incomplete"]
    )
    def test_empty_and_incomplete_rejected(self, projectors):
        with pytest.raises(NotProjectiveError):
            ProjectiveInstrument(projectors)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimMismatchError):
            ProjectiveInstrument((("a", spin.z_plus()), ("b", linalg.identity(1))))

    def test_eigen_instrument_is_a_povm(self, x_plus):
        assert isinstance(eigen_instrument(x_plus), Povm)


class TestTraceRule:
    def test_certain_outcome(self, z_plus):
        assert outcome_probability(z_plus, spin.z_plus()) == 1.0

    def test_impossible_outcome(self, z_minus):
        assert outcome_probability(z_minus, spin.z_plus()) == 0.0

    def test_alpha_on_x(self, x_plus):
        p = outcome_probability(x_plus, spin.alpha_minus())
        assert p == pytest.approx(P_MINUS, abs=1e-12)
        assert p == pytest.approx(0.146447, abs=1e-6)

    def test_clamped_to_unit_interval(self, z_plus):
        assert 0.0 <= outcome_probability(z_plus, spin.alpha_plus()) <= 1.0

    def test_dim_mismatch(self, z_plus):
        with pytest.raises(DimMismatchError):
            outcome_probability(z_plus, linalg.identity(4))


class TestApplyInstrument:
    def test_certain_split(self, z_plus):
        dist = apply_instrument(z_plus, z_instrument())
        assert dist.probability("up") == 1.0
        assert dist.probability("down") == 0.0
        assert dist.post_state("up").isclose(z_plus, 1e-12)
        assert dist.post_state("down") is None

    def test_alpha_split_of_x(self, x_plus, alpha_plus, alpha_minus):
        dist = apply_instrument(x_plus, alpha_instrument())
        assert dist.probability("plus") == pytest.approx(0.853553, abs=1e-6)
        assert dist.probability("minus") == pytest.approx(0.146447, abs=1e-6)
        assert dist.post_state("plus").isclose(alpha_plus, 1e-10)
        assert dist.post_state("minus").isclose(alpha_minus, 1e-10)

    def test_maximally_mixed_splits_evenly(self, z_plus, z_minus):
        mixed = DensityMatrix(linalg.HermitianMatrix(np.eye(2) / 2))
        dist = apply_instrument(mixed, z_instrument())
        assert dist.probability("up") == pytest.approx(0.5, abs=1e-12)
        assert dist.probability("down") == pytest.approx(0.5, abs=1e-12)
        assert dist.post_state("up").isclose(z_plus, 1e-12)
        assert dist.post_state("down").isclose(z_minus, 1e-12)

    def test_probabilities_sum_to_one_randomized(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            dim = int(rng.integers(2, 5))
            rho = random_density(rng, dim)
            u = random_unitary(rng, dim)
            projectors = tuple(
                (f"p{k}", linalg.projector_from_vector(linalg.StateVector(u[:, k])))
                for k in range(dim)
            )
            dist = apply_instrument(rho, ProjectiveInstrument(projectors))
            assert sum(o.probability for o in dist.outcomes) == pytest.approx(1.0, abs=1e-10)


class TestApplyUnitary:
    def test_alpha_to_z_rotation(self, alpha_plus, z_plus):
        u = linalg.two_state_rotation(spin.alpha_plus_ket(), spin.z_plus_ket())
        assert apply_unitary(alpha_plus, u).isclose(z_plus, 1e-12)

    def test_identity_is_noop(self, x_plus):
        assert apply_unitary(x_plus, np.eye(2)).isclose(x_plus, 1e-15)

    def test_hadamard_takes_z_to_x(self, z_plus, x_plus):
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
        assert apply_unitary(z_plus, hadamard).isclose(x_plus, 1e-12)

    def test_not_unitary_rejected(self, z_plus):
        with pytest.raises(NotUnitaryError):
            apply_unitary(z_plus, np.array([[1, 0], [0, 0.5]], dtype=complex))

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            dim = int(rng.integers(2, 5))
            rho = random_density(rng, dim)
            rotated = apply_unitary(rho, random_unitary(rng, dim))
            before = linalg.eig_hermitian(rho.matrix).eigenvalues
            after = linalg.eig_hermitian(rotated.matrix).eigenvalues
            assert np.allclose(before, after, atol=1e-9)


class TestOrthogonality:
    def test_z_pair(self, z_plus, z_minus):
        assert are_orthogonal(z_plus, z_minus)

    def test_z_x_pair_with_witness(self, z_plus, x_plus):
        check = are_orthogonal(z_plus, x_plus)
        assert not check
        assert check.overlap == pytest.approx(0.5, abs=1e-12)

    def test_alpha_pair(self, alpha_plus, alpha_minus):
        assert are_orthogonal(alpha_plus, alpha_minus)


class TestDistinguishing:
    def test_z_basis_distinguishes_z_pair(self, z_plus, z_minus):
        povm = z_instrument()
        assert is_one_shot_distinguishing(povm, (("down",), ("up",)), z_plus, z_minus)

    def test_alpha_povm_cannot_distinguish_z_x(self, z_plus, x_plus):
        povm = alpha_instrument()
        for grouping in ((("plus",), ("minus",)), (("minus",), ("plus",))):
            assert not is_one_shot_distinguishing(povm, grouping, z_plus, x_plus)

    def test_single_element_cannot_partition(self, z_plus, z_minus):
        povm = Povm((("I", linalg.identity(2)),))
        with pytest.raises(InvalidPartitionError):
            is_one_shot_distinguishing(povm, (("I",), ()), z_plus, z_minus)

    def test_grouping_must_cover(self, z_plus, z_minus):
        povm = z_instrument()
        with pytest.raises(InvalidPartitionError):
            is_one_shot_distinguishing(povm, (("up",), ("up",)), z_plus, z_minus)


class TestCoarseGrain:
    def four_outcome_povm(self) -> Povm:
        quarter = linalg.HermitianMatrix(np.eye(2) / 4)
        return Povm((("a", quarter), ("b", quarter), ("c", quarter), ("d", quarter)))

    def test_two_plus_two(self):
        coarse = coarse_grain(self.four_outcome_povm(), [("ab", ("a", "b")), ("cd", ("c", "d"))])
        assert coarse.labels == ("ab", "cd")
        assert coarse.element("ab").isclose(linalg.HermitianMatrix(np.eye(2) / 2), 1e-12)

    def test_group_probability_reaches_one(self, z_plus, z_minus):
        # Grouping a distinguishing POVM turns "some outcome fires" into
        # probability exactly 1 on the other preparation.
        povm = z_instrument()
        coarse = coarse_grain(povm, [("E", ("down",)), ("F", ("up",))])
        assert outcome_probability(z_minus, coarse.element("E")) == pytest.approx(1.0, abs=1e-12)
        assert outcome_probability(z_plus, coarse.element("E")) == 0.0

    def test_singleton_groups_identity(self):
        povm = self.four_outcome_povm()
        same = coarse_grain(povm, [(label, (label,)) for label in povm.labels])
        assert same.labels == povm.labels
        for label in povm.labels:
            assert same.element(label).isclose(povm.element(label), 1e-15)

    def test_group_probability_additive(self):
        rng = np.random.default_rng(23)
        povm = self.four_outcome_povm()
        coarse = coarse_grain(povm, [("ab", ("a", "b")), ("cd", ("c", "d"))])
        for _ in range(10):
            rho = random_density(rng, 2)
            assert outcome_probability(rho, coarse.element("ab")) == pytest.approx(
                outcome_probability(rho, povm.element("a"))
                + outcome_probability(rho, povm.element("b")),
                abs=1e-12,
            )

    def test_invalid_partition(self):
        with pytest.raises(InvalidPartitionError):
            coarse_grain(self.four_outcome_povm(), [("ab", ("a", "b")), ("cc", ("c", "c"))])


class TestMixtureEigenInstrument:
    def test_blend_gives_alpha_basis(self, z_plus, x_plus, alpha_plus, alpha_minus):
        mixture = mix_states([0.5, 0.5], [z_plus, x_plus])
        instrument = eigen_instrument(mixture)
        expected = linalg.HermitianMatrix(np.array([[3, 1], [1, 1]]) / 4)
        assert mixture.matrix.isclose(expected, 1e-12)
        assert instrument.labels == ("e0", "e1")
        assert instrument.elements[0][1].isclose(alpha_plus.matrix, 1e-12)
        assert instrument.elements[1][1].isclose(alpha_minus.matrix, 1e-12)

    def test_single_state(self, z_plus):
        mixture = mix_states([1.0], [z_plus])
        instrument = eigen_instrument(mixture)
        assert mixture.isclose(z_plus, 1e-15)
        assert len(instrument.elements) == 2
        assert instrument.elements[0][1].isclose(spin.z_plus(), 1e-12)
        assert instrument.elements[1][1].isclose(spin.z_minus(), 1e-12)

    def test_fully_degenerate_single_projector(self, z_plus, z_minus):
        mixture = mix_states([0.5, 0.5], [z_plus, z_minus])
        instrument = eigen_instrument(mixture)
        assert mixture.matrix.isclose(linalg.HermitianMatrix(np.eye(2) / 2), 1e-15)
        assert len(instrument.elements) == 1
        assert instrument.elements[0][1].isclose(linalg.identity(2), 1e-12)

    def test_not_convex(self, z_plus, x_plus):
        with pytest.raises(NotConvexError):
            mix_states([0.7, 0.7], [z_plus, x_plus])

    def test_eigendata_reassembles_mixture(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            count = int(rng.integers(1, 4))
            weights = rng.uniform(0.1, 1.0, size=count)
            weights = list(weights / weights.sum())
            states = [random_density(rng, dim) for _ in range(count)]
            mixture = mix_states(weights, states)
            instrument = eigen_instrument(mixture)
            # Rebuild from the eigenprojectors weighted by their probabilities.
            acc = np.zeros((dim, dim), dtype=complex)
            for label, proj in instrument.elements:
                p = outcome_probability(mixture, proj)
                rank = round(proj.trace())
                dist = apply_instrument(mixture, instrument)
                post = dist.post_state(label)
                if post is not None:
                    acc += p * post.matrix.entries
            assert np.allclose(acc, mixture.matrix.entries, atol=1e-9)


class TestSupportProjector:
    def test_pure_state(self, alpha_plus):
        assert support_projector(alpha_plus).isclose(alpha_plus.matrix, 1e-12)

    def test_rank_two(self):
        rho = DensityMatrix(linalg.HermitianMatrix(np.diag([0.5, 0.5, 0.0, 0.0])))
        assert support_projector(rho).isclose(
            linalg.HermitianMatrix(np.diag([1.0, 1.0, 0.0, 0.0])), 1e-12
        )


class TestMixStates:
    def test_weights_must_be_convex(self, z_plus, x_plus):
        with pytest.raises(NotConvexError):
            mix_states([0.5, 0.6], [z_plus, x_plus])

    def test_dim_mismatch(self, z_plus):
        four = DensityMatrix(linalg.HermitianMatrix(np.eye(4) / 4))
        with pytest.raises(DimMismatchError):
            mix_states([0.5, 0.5], [z_plus, four])

    def test_nan_weight_rejected(self, z_plus):
        with pytest.raises(NotConvexError, match=r"^negative weight in \[nan, 1\.0\]$"):
            mix_states([np.nan, 1.0], [z_plus, z_plus])


class TestDensityMatrixStack:
    """``DensityMatrix.stack`` checks each member exactly as
    ``DensityMatrix(...)`` checks it alone, with one eigvalsh for all."""

    @staticmethod
    def bad_member(rng: np.random.Generator, dim: int, kind: str, scale: int = 1) -> np.ndarray:
        """Trace off by scale * 1e-9, or an eigenvalue of scale * -2e-10."""
        if kind == "trace":
            return random_density(rng, dim).matrix.entries + scale * 1e-9 * np.eye(dim) / dim
        u = random_unitary(rng, dim)
        weights = rng.uniform(0.1, 1.0, size=dim)
        weights[-1] = 0.0
        weights = weights / weights.sum() * (1 + scale * 2e-10)
        weights[-1] = scale * -2e-10
        acc = (u * weights) @ u.conj().T
        return (acc + acc.conj().T) / 2

    @staticmethod
    def alone(entries: np.ndarray) -> NotDensityMatrixError:
        with pytest.raises(NotDensityMatrixError) as err:
            DensityMatrix(linalg.HermitianMatrix(entries))
        return err.value

    @given(
        dim=st.sampled_from([2, 4, 8]),
        count=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_spectra_match_one_at_a_time(self, dim, count, seed):
        rng = np.random.default_rng(seed)
        entries = [random_density(rng, dim).matrix.entries for _ in range(count)]
        stacked = DensityMatrix.stack(entries)
        assert len(stacked) == count
        for matrix, state in zip(entries, stacked):
            single = DensityMatrix(linalg.HermitianMatrix(matrix))
            assert state == single
            assert [v.hex() for v in state.eigenvalues] == [v.hex() for v in single.eigenvalues]

    @given(
        dim=st.sampled_from([2, 4, 8]),
        count=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["trace", "eigenvalue"]),
        data=st.data(),
    )
    def test_one_bad_member_fails_as_it_would_alone(self, dim, count, seed, kind, data):
        rng = np.random.default_rng(seed)
        entries = [random_density(rng, dim).matrix.entries for _ in range(count)]
        at = data.draw(st.integers(0, count - 1))
        entries[at] = self.bad_member(rng, dim, kind)
        expected = self.alone(entries[at])
        with pytest.raises(NotDensityMatrixError, match="^" + re.escape(str(expected)) + "$"):
            DensityMatrix.stack(entries)

    @given(
        dim=st.sampled_from([2, 4, 8]),
        count=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
        kinds=st.tuples(*[st.sampled_from(["trace", "eigenvalue"])] * 2),
        data=st.data(),
    )
    def test_first_of_two_bad_members_is_reported(self, dim, count, seed, kinds, data):
        rng = np.random.default_rng(seed)
        entries = [random_density(rng, dim).matrix.entries for _ in range(count)]
        first, second = sorted(
            data.draw(st.lists(st.integers(0, count - 1), min_size=2, max_size=2, unique=True))
        )
        entries[first] = self.bad_member(rng, dim, kinds[0])
        entries[second] = self.bad_member(rng, dim, kinds[1], scale=2)
        expected = self.alone(entries[first])
        assert str(expected) != str(self.alone(entries[second]))
        with pytest.raises(NotDensityMatrixError, match="^" + re.escape(str(expected)) + "$"):
            DensityMatrix.stack(entries)


@pytest.mark.parametrize(
    "call, cls, message",
    [
        (
            lambda: OutcomeDistribution((Outcome("a", 0.5, None),)),
            NotDensityMatrixError,
            "outcome probabilities sum to 0.5",
        ),
        (
            lambda: mix_states(
                [1.0], [DensityMatrix(spin.z_plus()), DensityMatrix(spin.z_minus())]
            ),
            NotConvexError,
            "need one weight per state",
        ),
        (
            lambda: is_one_shot_distinguishing(
                z_instrument(), (("up",), ("down",)),
                *[DensityMatrix(linalg.identity(4) * 0.25)] * 2,
            ),
            DimMismatchError,
            "state and POVM dimensions differ",
        ),
    ],
    ids=["probabilities-sum", "one-weight-two-states", "distinguishing-dims"],
)
def test_input_checks(call, cls, message):
    with pytest.raises(cls) as err:
        call()
    assert str(err.value) == message


def test_an_element_that_fires_on_neither_state_does_not_distinguish():
    # Set one's z+ is silent on phi = z-, as it must be, but does not fire on psi = z-.
    z_minus = DensityMatrix(spin.z_minus())
    assert not is_one_shot_distinguishing(z_instrument(), (("up",), ("down",)), z_minus, z_minus)
