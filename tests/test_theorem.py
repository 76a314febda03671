"""The distinguishability/orthogonality equivalence, run in both directions."""

import numpy as np
import pytest

from conftest import (
    random_distinguishing_config,
    random_orthogonal_pair,
    random_unitary,
)
from qgas import linalg, spin
from qgas.errors import NotOrthogonalError, PreconditionViolatedError
from qgas.statistics import (
    DensityMatrix,
    Povm,
    ProjectiveInstrument,
    are_orthogonal,
    distinguishing_povm_from_orthogonal,
    is_one_shot_distinguishing,
    verify_orthogonality_theorem,
)


def z_povm() -> Povm:
    return Povm((("up", spin.z_plus()), ("down", spin.z_minus())))


class TestForwardDirection:
    def test_diagonal_case(self, z_plus, z_minus):
        proof = verify_orthogonality_theorem(
            z_plus, z_minus, z_povm(), (("down",), ("up",))
        )
        assert proof.passed
        assert proof.overlap == pytest.approx(0.0, abs=1e-12)
        assert [s.passed for s in proof.steps] == [True] * 5

    def test_alpha_pair(self, alpha_plus, alpha_minus):
        povm = Povm((("plus", spin.alpha_plus()), ("minus", spin.alpha_minus())))
        proof = verify_orthogonality_theorem(
            alpha_plus, alpha_minus, povm, (("minus",), ("plus",))
        )
        assert proof.passed
        assert proof.overlap <= 1e-12

    def test_random_pure_pair_dim4(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            u = random_unitary(rng, 4)
            phi = DensityMatrix(linalg.projector_from_vector(linalg.StateVector(u[:, 0])))
            psi = DensityMatrix(linalg.projector_from_vector(linalg.StateVector(u[:, 1])))
            p1 = linalg.projector_from_vector(linalg.StateVector(u[:, 0]))
            p2 = linalg.projector_from_vector(linalg.StateVector(u[:, 1]))
            rest = (linalg.identity(4) - p1 - p2) * 0.5
            povm = Povm((("A", p2 + rest), ("B", p1 + rest)))
            proof = verify_orthogonality_theorem(phi, psi, povm, (("A",), ("B",)))
            assert proof.passed
            assert proof.overlap <= 1e-9

    def test_precondition_enforced(self, z_plus, x_plus):
        with pytest.raises(PreconditionViolatedError):
            verify_orthogonality_theorem(z_plus, x_plus, z_povm(), (("down",), ("up",)))

    def test_randomized_configurations(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            phi, psi, povm, grouping = random_distinguishing_config(rng, dim)
            assert is_one_shot_distinguishing(povm, grouping, phi, psi)
            proof = verify_orthogonality_theorem(phi, psi, povm, grouping)
            assert proof.passed
            assert proof.overlap <= 1e-9


class TestConverseDirection:
    def test_z_pair(self, z_plus, z_minus):
        povm, grouping = distinguishing_povm_from_orthogonal(z_plus, z_minus)
        assert povm.element("E").isclose(spin.z_plus(), 1e-12)
        assert povm.element("F").isclose(spin.z_minus(), 1e-12)
        assert is_one_shot_distinguishing(povm, grouping, z_plus, z_minus)

    def test_alpha_pair(self, alpha_plus, alpha_minus):
        povm, grouping = distinguishing_povm_from_orthogonal(alpha_plus, alpha_minus)
        assert povm.element("E").isclose(spin.alpha_plus(), 1e-10)
        assert povm.element("F").isclose(spin.alpha_minus(), 1e-10)
        assert is_one_shot_distinguishing(povm, grouping, alpha_plus, alpha_minus)

    def test_rank_two_support(self):
        phi = DensityMatrix(linalg.HermitianMatrix(np.diag([0.5, 0.5, 0.0, 0.0])))
        psi = DensityMatrix(linalg.HermitianMatrix(np.diag([0.0, 0.0, 1.0, 0.0])))
        povm, grouping = distinguishing_povm_from_orthogonal(phi, psi)
        assert povm.element("E").isclose(
            linalg.HermitianMatrix(np.diag([1.0, 1.0, 0.0, 0.0])), 1e-10
        )
        assert is_one_shot_distinguishing(povm, grouping, phi, psi)

    def test_requires_orthogonality(self, z_plus, x_plus):
        with pytest.raises(NotOrthogonalError):
            distinguishing_povm_from_orthogonal(z_plus, x_plus)

    def test_randomized_orthogonal_pairs(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            phi, psi = random_orthogonal_pair(rng, dim)
            assert are_orthogonal(phi, psi)
            povm, grouping = distinguishing_povm_from_orthogonal(phi, psi)
            assert is_one_shot_distinguishing(povm, grouping, phi, psi)

    def test_round_trip_through_theorem(self):
        # The converse's own POVM is a valid input to the forward proof.
        rng = np.random.default_rng(53)
        for _ in range(20):
            phi, psi = random_orthogonal_pair(rng, 4)
            povm, grouping = distinguishing_povm_from_orthogonal(phi, psi)
            proof = verify_orthogonality_theorem(phi, psi, povm, grouping)
            assert proof.passed


class TestPredicateSoundness:
    def test_distinguishing_implies_orthogonal_on_random_povms(self):
        # Sample unrelated POVMs and states; whenever the predicate happens
        # to hold, the overlap must vanish.
        rng = np.random.default_rng(59)
        hits = 0
        for _ in range(300):
            dim = int(rng.integers(2, 5))
            phi, psi, povm, grouping = random_distinguishing_config(rng, dim)
            # Shuffle in unrelated states half of the time.
            if rng.random() < 0.5:
                from conftest import random_density

                phi = random_density(rng, dim)
            if is_one_shot_distinguishing(povm, grouping, phi, psi):
                hits += 1
                assert linalg.trace_product(phi.matrix, psi.matrix) <= 1e-9
        assert hits > 0
