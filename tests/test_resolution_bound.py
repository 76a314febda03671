"""Where a separation's post-state can be resolved: ``RESOLUTION_BOUND``.

The post-state P rho P / p of an outcome is known to about 1e-16 / p, so
below some p it fails its own validation ("negative eigenvalue").  A sweep
over d = 2 and 4, projector ranks 1-3, pure and mixed states and p from
``PROBABILITY_FLOOR`` to 1 (70,000 cases) found the largest such p at
8.6e-7, and at d = 8 and 16 the largest was 6.2e-7, so the bound of 1e-5
leaves a margin of more than ten.  The test below is that sweep: below the bound no
post-state is built (under the floor the outcome gets none, between the
floor and the bound ``apply_instrument`` refuses it), and at or above the
bound no separation fails validation.  Its explicit examples failed
validation when the bound was the floor.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_unitary
from qgas.errors import QuantumGasError
from qgas.linalg import HermitianMatrix
from qgas.statistics import (
    PROBABILITY_FLOOR,
    RESOLUTION_BOUND,
    DensityMatrix,
    ProjectiveInstrument,
    apply_instrument,
    outcome_probability,
)


def _unit(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def separation(seed: int, dim: int, rank: int, components: int, p: float):
    """The instrument {P, I - P} with P of the given rank, and a mix of
    ``components`` pure states that each put weight p on P's range."""
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, dim)
    inside, outside = u[:, :rank], u[:, rank:]
    proj = inside @ inside.conj().T
    proj = (proj + proj.conj().T) / 2
    instrument = ProjectiveInstrument(
        (("in", HermitianMatrix(proj)), ("out", HermitianMatrix(np.eye(dim) - proj)))
    )
    rho = np.zeros((dim, dim), dtype=complex)
    for weight in rng.dirichlet(np.ones(components)):
        psi = math.sqrt(p) * inside @ _unit(rng, rank)
        psi += math.sqrt(1 - p) * outside @ _unit(rng, dim - rank)
        rho += weight * np.outer(psi, psi.conj())
    return DensityMatrix(HermitianMatrix((rho + rho.conj().T) / 2)), instrument


@settings(max_examples=500)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from([(2, 1), (4, 1), (4, 2), (4, 3)]),
    components=st.integers(1, 3),
    log_p=st.one_of(st.floats(-13.0, 0.0), st.floats(-7.0, -4.0)),
)
@example(seed=3568699549, shape=(4, 3), components=1, log_p=-6.069190133509927)
@example(seed=3533370818, shape=(4, 3), components=2, log_p=-6.065336071393021)
def test_no_post_state_below_the_bound_and_no_failure_above(seed, shape, components, log_p):
    dim, rank = shape
    rho, instrument = separation(seed, dim, rank, min(components, dim), 10.0**log_p)
    probabilities = [outcome_probability(rho, instrument.element(x)) for x in instrument.labels]
    if any(PROBABILITY_FLOOR <= p < RESOLUTION_BOUND for p in probabilities):
        with pytest.raises(QuantumGasError, match="below the resolution bound 1e-05$"):
            apply_instrument(rho, instrument)
        return
    for outcome in apply_instrument(rho, instrument).outcomes:
        assert (outcome.post_state is None) == (outcome.probability < PROBABILITY_FLOOR)
