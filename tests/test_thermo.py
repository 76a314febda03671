import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_density, random_unitary
from qgas import linalg, spin
from qgas.errors import NonPositiveInputError, NotConvexError, VariantMismatchError
from qgas.statistics import DensityMatrix, apply_unitary, mix_states
from qgas.thermo import (
    ClassicalContents,
    GasChamber,
    HeatLedger,
    QuantumContents,
    audit_cycle,
    contents_equal,
    isothermal_heat,
)

LN2 = math.log(2.0)


def quantum(*pairs) -> QuantumContents:
    """Contents holding the mixture of (weight, Hermitian matrix) pairs."""
    return QuantumContents(mix_states([w for w, _ in pairs], [DensityMatrix(m) for _, m in pairs]))


class TestIsothermalHeat:
    def test_halving_releases_ln2(self):
        assert isothermal_heat(1.0, 1.0, 1.0, 0.5) == pytest.approx(-LN2, abs=1e-15)

    def test_no_volume_change(self):
        assert isothermal_heat(2.0, 3.0, 1.0, 1.0) == 0.0

    def test_doubling_absorbs_ln2(self):
        assert isothermal_heat(1.0, 1.0, 0.5, 1.0) == pytest.approx(LN2, abs=1e-15)

    def test_scales_with_particles_temperature_k(self):
        assert isothermal_heat(3.0, 2.0, 1.0, 2.0) == pytest.approx(3.0 * 2.0 * LN2)

    @pytest.mark.parametrize("bad", [(-1, 1, 1, 2), (1, 0, 1, 2), (1, 1, -1, 2), (1, 1, 1, 0)])
    def test_positivity_required(self, bad):
        with pytest.raises(NonPositiveInputError):
            isothermal_heat(*bad)

    @given(
        st.floats(0.1, 10), st.floats(0.1, 10), st.floats(0.1, 10),
        st.floats(0.1, 10), st.floats(0.1, 10),
    )
    def test_antisymmetric_and_additive(self, n, t, v1, v2, v3):
        forward = isothermal_heat(n, t, v1, v2)
        backward = isothermal_heat(n, t, v2, v1)
        assert forward == pytest.approx(-backward, abs=1e-12)
        chained = isothermal_heat(n, t, v1, v2) + isothermal_heat(n, t, v2, v3)
        assert chained == pytest.approx(isothermal_heat(n, t, v1, v3), abs=1e-12)


class TestContentsEqual:
    def test_decompositions_of_same_matrix(self):
        zz = linalg.tensor(spin.z_plus(), spin.z_plus())
        xz = linalg.tensor(spin.x_plus(), spin.z_minus())
        tau = linalg.HermitianMatrix(0.5 * zz.entries + 0.5 * xz.entries)
        assert contents_equal(quantum((0.5, zz), (0.5, xz)), quantum((1.0, tau)))

    def test_classical_merge_is_not_identity(self):
        pure = ClassicalContents({"argon": 1.0})
        blend = ClassicalContents({"argon_a": 0.5, "argon_b": 0.5})
        assert not contents_equal(pure, blend)

    def test_reflexive(self):
        blend = quantum((0.5, spin.z_plus()), (0.5, spin.x_plus()))
        assert contents_equal(blend, blend)
        bag = ClassicalContents({"a": 0.25, "b": 0.75})
        assert contents_equal(bag, bag)

    def test_an_object_equals_itself_unread(self, monkeypatch):
        def unread(*args, **kwargs):
            raise AssertionError("contents read")

        class Unread:
            """A weight map that raises on any read."""

            __getattr__ = __iter__ = __len__ = __getitem__ = __contains__ = unread

        monkeypatch.setattr(DensityMatrix, "isclose", unread)
        blend = quantum((0.5, spin.z_plus()), (0.5, spin.x_plus()))
        bag = ClassicalContents({"a": 0.25, "b": 0.75})
        object.__setattr__(bag, "weights", Unread())
        assert contents_equal(blend, blend)
        assert contents_equal(bag, bag, tol=0.0)
        with pytest.raises(AssertionError, match="contents read"):
            contents_equal(blend, quantum((0.5, spin.z_plus()), (0.5, spin.x_plus())))
        with pytest.raises(AssertionError, match="contents read"):
            contents_equal(bag, ClassicalContents({"a": 0.25, "b": 0.75}))

    def test_variant_mismatch(self):
        with pytest.raises(VariantMismatchError):
            contents_equal(quantum((1.0, spin.z_plus())), ClassicalContents({"a": 1.0}))

    def test_weights_validated(self):
        with pytest.raises(NotConvexError):
            ClassicalContents({"a": 0.4, "b": 0.4})
        with pytest.raises(NotConvexError):
            quantum((0.0, spin.z_plus()))

    def test_nan_weight_rejected(self):
        with pytest.raises(NotConvexError, match=r"^weights must be positive: \[nan\]$"):
            ClassicalContents({"a": math.nan})
        with pytest.raises(NotConvexError, match=r"^weights must be positive: \[0\.5, nan\]$"):
            ClassicalContents({"a": 0.5, "b": math.nan})


class TestQuantumContents:
    def test_assembled_once_per_object(self):
        blend = quantum((0.5, spin.z_plus()), (0.5, spin.x_plus()))
        assert blend.assembled() is blend.assembled() is blend.state
        expected = 0.5 * spin.z_plus().entries + 0.5 * spin.x_plus().entries
        assert np.abs(blend.state.matrix.entries - expected).max() <= 1e-15

    def test_contents_hold_the_state_they_are_given(self):
        state = DensityMatrix(spin.z_plus())
        assert QuantumContents(state).assembled() is state
        assert QuantumContents(state).dim == 2


def max_abs(a: QuantumContents, b: QuantumContents) -> float:
    return float(np.abs(a.state.matrix.entries - b.state.matrix.entries).max())


class TestOneStateLosesNothing:
    """Contents keep only the mixed matrix; these identities say that no
    verdict could have read anything more from a kept decomposition."""

    @given(st.sampled_from([2, 4]), st.integers(2, 5), st.integers(0, 2**32 - 1))
    def test_rotation_and_merges_commute_with_mixing(self, dim, count, seed):
        rng = np.random.default_rng(seed)
        ranks = rng.integers(1, dim + 1, size=count)
        states = [random_density(rng, dim, int(rank)) for rank in ranks]
        shares = rng.uniform(0.05, 1.0, size=count)
        shares = list(shares / shares.sum())
        u = random_unitary(rng, dim)

        merged = QuantumContents.merge([(w, QuantumContents(s)) for w, s in zip(shares, states)])
        rotated_merge = QuantumContents(apply_unitary(merged.state, u))
        merged_rotations = QuantumContents.merge(
            [(w, QuantumContents(apply_unitary(s, u))) for w, s in zip(shares, states)]
        )
        assert max_abs(rotated_merge, merged_rotations) <= 1e-12

        cut = int(rng.integers(1, count))
        groups = [(shares[:cut], states[:cut]), (shares[cut:], states[cut:])]
        nested = QuantumContents.merge([
            (sum(ws), QuantumContents.merge(
                [(w / sum(ws), QuantumContents(s)) for w, s in zip(ws, ss)]
            ))
            for ws, ss in groups
        ])
        flat = QuantumContents(mix_states(shares, states))
        assert max_abs(nested, flat) <= 1e-12
        assert max_abs(merged, flat) <= 1e-12

        for a, b in ((rotated_merge, merged_rotations), (nested, flat), (merged, rotated_merge)):
            assert contents_equal(a, b, tol=1e-12) == (max_abs(a, b) <= 1e-12)


def chamber(volume, contents, particles=None, label="") -> GasChamber:
    return GasChamber(volume, 1.0, particles if particles is not None else volume, contents, label)


class TestAuditCycle:
    def test_positive_heat_in_closed_cycle_is_violation(self):
        ledger = HeatLedger()
        ledger.record("mixing", LN2)
        ledger.record("separation", -0.4165)
        ledger.claim_cycle()
        start = [chamber(0.5, quantum((1.0, spin.z_plus()))), chamber(0.5, quantum((1.0, spin.x_plus())))]
        verdict = audit_cycle(ledger, start, list(start))
        assert verdict.is_cycle_actual
        assert verdict.total_heat == pytest.approx(LN2 - 0.4165)
        assert verdict.second_law_satisfied is False
        assert verdict.status == "violated"
        assert not verdict.apparent_violation_explained

    def test_negative_heat_in_closed_cycle_satisfies(self):
        ledger = HeatLedger()
        ledger.record("net", -0.4165)
        ledger.claim_cycle()
        start = [chamber(1.0, quantum((1.0, spin.z_plus())))]
        verdict = audit_cycle(ledger, start, list(start))
        assert verdict.second_law_satisfied is True

    def test_empty_ledger_identical_chambers(self):
        ledger = HeatLedger()
        start = [chamber(1.0, quantum((1.0, spin.z_plus())))]
        verdict = audit_cycle(ledger, start, list(start))
        assert verdict.is_cycle_actual
        assert verdict.total_heat == 0.0
        assert verdict.second_law_satisfied is True

    def test_not_a_cycle_is_not_applicable(self):
        ledger = HeatLedger()
        ledger.record("mixing", LN2)
        ledger.claim_cycle()
        start = [chamber(0.5, quantum((1.0, spin.z_plus())))]
        end = [chamber(0.5, quantum((1.0, spin.x_plus())))]
        verdict = audit_cycle(ledger, start, end)
        assert not verdict.is_cycle_actual
        assert verdict.second_law_satisfied is None
        assert verdict.status == "not-applicable"
        assert verdict.apparent_violation_explained

    def test_volume_mismatch_breaks_cycle(self):
        ledger = HeatLedger()
        start = [chamber(0.5, quantum((1.0, spin.z_plus())))]
        end = [chamber(0.5001, quantum((1.0, spin.z_plus())), particles=0.5)]
        assert not audit_cycle(ledger, start, end).is_cycle_actual

    def test_chamber_order_matters(self):
        ledger = HeatLedger()
        a = chamber(0.5, quantum((1.0, spin.z_plus())))
        b = chamber(0.5, quantum((1.0, spin.x_plus())))
        assert audit_cycle(ledger, [a, b], [a, b]).is_cycle_actual
        assert not audit_cycle(ledger, [a, b], [b, a]).is_cycle_actual

    def test_total_is_exact_sum(self):
        rng = np.random.default_rng(31)
        ledger = HeatLedger()
        values = rng.uniform(-1, 1, size=200)
        for i, q in enumerate(values):
            ledger.record(f"step {i}", float(q))
        assert ledger.total_heat == pytest.approx(math.fsum(values), abs=1e-12)


class TestChamber:
    def test_positive_fields_enforced(self):
        contents = quantum((1.0, spin.z_plus()))
        with pytest.raises(NonPositiveInputError):
            GasChamber(0.0, 1.0, 1.0, contents)
        with pytest.raises(NonPositiveInputError):
            GasChamber(1.0, -1.0, 1.0, contents)
        with pytest.raises(NonPositiveInputError):
            GasChamber(1.0, 1.0, float("inf"), contents)


@pytest.mark.parametrize(
    "call, cls, message",
    [
        (lambda: ClassicalContents({}), NotConvexError, "species bag must be nonempty"),
        (
            lambda: HeatLedger().record("step", float("nan")),
            NonPositiveInputError,
            "heat must be finite, got nan",
        ),
    ],
    ids=["empty-bag", "nan-heat"],
)
def test_input_checks(call, cls, message):
    with pytest.raises(cls) as err:
        call()
    assert str(err.value) == message


def test_a_quantum_start_and_a_classical_end_are_not_a_cycle():
    ledger = HeatLedger()
    ledger.claim_cycle()
    start = chamber(1.0, QuantumContents(DensityMatrix(spin.z_plus())))
    end = chamber(1.0, ClassicalContents({"argon": 1.0}))
    verdict = audit_cycle(ledger, [start], [end])
    assert (verdict.is_cycle_actual, verdict.second_law_satisfied) == (False, None)
    assert verdict.apparent_violation_explained
