import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BLEND_SEPARATION_HEAT, LN2, P_MINUS, P_PLUS, random_bag, random_density
from qgas import linalg, spin
from qgas.diaphragm import classical_separate, mix, separate
from qgas.errors import (
    NotOrthogonalError,
    NotQuantumError,
    TemperatureMismatchError,
    UnknownSpeciesError,
    VariantMismatchError,
)
from qgas.statistics import (
    DensityMatrix,
    ProjectiveInstrument,
    are_orthogonal,
    eigen_instrument,
    mix_states,
)
from qgas.thermo import ClassicalContents, GasChamber, QuantumContents, contents_equal


def quantum_chamber(volume, mixture, particles=None, label="") -> GasChamber:
    """A chamber holding the mixture of (weight, Hermitian matrix) pairs."""
    contents = QuantumContents(
        mix_states([w for w, _ in mixture], [DensityMatrix(m) for _, m in mixture])
    )
    n = particles if particles is not None else volume
    return GasChamber(volume, 1.0, n, contents, label)


def classical_chamber(volume, bag, particles=None, label="") -> GasChamber:
    n = particles if particles is not None else volume
    return GasChamber(volume, 1.0, n, ClassicalContents(bag), label)


def z_instrument() -> ProjectiveInstrument:
    return ProjectiveInstrument((("up", spin.z_plus()), ("down", spin.z_minus())))


def alpha_instrument() -> ProjectiveInstrument:
    return ProjectiveInstrument(
        (("plus", spin.alpha_plus()), ("minus", spin.alpha_minus()))
    )


class TestSeparate:
    def test_distinguishable_blend_halves(self):
        parent = quantum_chamber(1.0, [(0.5, spin.z_plus()), (0.5, spin.z_minus())])
        result = separate(parent, z_instrument())
        assert len(result.chambers) == 2
        assert [c.volume for c in result.chambers] == [0.5, 0.5]
        assert [c.particles for c in result.chambers] == [0.5, 0.5]
        assert result.heat == pytest.approx(-LN2, abs=1e-12)

    def test_nondistinguishable_blend_eigenbasis(self):
        parent = quantum_chamber(1.0, [(0.5, spin.z_plus()), (0.5, spin.x_plus())])
        result = separate(parent, alpha_instrument())
        volumes = [c.volume for c in result.chambers]
        assert volumes[0] == pytest.approx(P_PLUS, abs=1e-12)
        assert volumes[1] == pytest.approx(P_MINUS, abs=1e-12)
        assert result.heat == pytest.approx(BLEND_SEPARATION_HEAT, abs=1e-12)
        assert result.heat == pytest.approx(-0.41650, abs=1e-5)
        plus_contents = result.chambers[0].contents
        assert contents_equal(
            plus_contents, QuantumContents(DensityMatrix(spin.alpha_plus()))
        )

    def test_pure_gas_passes_through(self):
        parent = quantum_chamber(1.0, [(1.0, spin.z_plus())])
        result = separate(parent, z_instrument())
        assert len(result.chambers) == 1
        assert result.chambers[0].volume == pytest.approx(1.0)
        assert result.heat == 0.0

    def test_conservation(self):
        rng = np.random.default_rng(37)
        from conftest import random_density

        for _ in range(25):
            rho = random_density(rng, 2)
            parent = GasChamber(
                0.8, 1.0, 0.6, QuantumContents(rho), "parent"
            )
            result = separate(parent, alpha_instrument())
            assert sum(c.volume for c in result.chambers) == pytest.approx(0.8, abs=1e-12)
            assert sum(c.particles for c in result.chambers) == pytest.approx(0.6, abs=1e-12)

    def test_heat_matches_probability_formula(self):
        rng = np.random.default_rng(39)
        from conftest import random_density

        for _ in range(25):
            rho = random_density(rng, 2)
            parent = GasChamber(1.0, 1.0, 1.0, QuantumContents(rho))
            result = separate(parent, z_instrument())
            # V = N = T = 1, so each chamber's volume is its outcome's p.
            expected = sum(c.volume * math.log(c.volume) for c in result.chambers)
            assert result.heat == pytest.approx(expected, abs=1e-12)

    def test_requires_quantum(self):
        with pytest.raises(NotQuantumError):
            separate(classical_chamber(1.0, {"argon": 1.0}), z_instrument())


class TestMix:
    def test_orthogonal_four_level_gases(self):
        upper = quantum_chamber(
            0.5, [(1.0, linalg.tensor(spin.z_plus(), spin.z_plus()))], label="upper"
        )
        lower = quantum_chamber(
            0.5, [(1.0, linalg.tensor(spin.x_plus(), spin.z_minus()))], label="lower"
        )
        merged, heat = mix([upper, lower], distinguishing=True)
        assert heat == pytest.approx(LN2, abs=1e-12)
        assert merged.volume == pytest.approx(1.0)
        assert merged.particles == pytest.approx(1.0)
        tau = linalg.HermitianMatrix(
            0.5 * linalg.tensor(spin.z_plus(), spin.z_plus()).entries
            + 0.5 * linalg.tensor(spin.x_plus(), spin.z_minus()).entries
        )
        assert contents_equal(merged.contents, QuantumContents(DensityMatrix(tau)))

    def test_non_orthogonal_gases_rejected(self):
        upper = quantum_chamber(0.5, [(1.0, spin.z_plus())], label="upper")
        lower = quantum_chamber(0.5, [(1.0, spin.x_plus())], label="lower")
        with pytest.raises(NotOrthogonalError):
            mix([upper, lower], distinguishing=True)

    @pytest.mark.parametrize("eps", [5e-11, 2e-10])
    def test_one_orthogonality_predicate_at_its_tolerance(self, eps):
        # tr(phi psi) = eps lies on either side of the 1e-10 tolerance; the
        # statistics predicate, the contents check and a separating mix agree.
        phi = DensityMatrix(spin.z_plus())
        psi = DensityMatrix(linalg.HermitianMatrix(np.diag([eps, 1.0 - eps])))
        orthogonal = bool(are_orthogonal(phi, psi))
        assert orthogonal == (eps < 1e-10)
        a, b = QuantumContents(phi), QuantumContents(psi)
        assert (a.orthogonal_to(b) is None) == orthogonal
        chambers = [GasChamber(0.5, 1.0, 0.5, a, "a"), GasChamber(0.5, 1.0, 0.5, b, "b")]
        if orthogonal:
            mix(chambers, distinguishing=True)
        else:
            with pytest.raises(NotOrthogonalError):
                mix(chambers, distinguishing=True)

    def test_free_mixing_extracts_nothing(self):
        upper = quantum_chamber(0.5, [(1.0, spin.z_plus())])
        lower = quantum_chamber(0.5, [(1.0, spin.x_plus())])
        merged, heat = mix([upper, lower], distinguishing=False)
        assert heat == 0.0
        assert merged.volume == pytest.approx(1.0)

    def test_single_chamber_is_noop(self):
        only = quantum_chamber(0.7, [(1.0, spin.z_plus())], label="only")
        merged, heat = mix([only], distinguishing=True)
        assert merged is only
        assert heat == 0.0

    def test_temperature_mismatch(self):
        a = quantum_chamber(0.5, [(1.0, spin.z_plus())])
        b = GasChamber(0.5, 2.0, 0.5, QuantumContents(DensityMatrix(spin.z_minus())))
        with pytest.raises(TemperatureMismatchError):
            mix([a, b], distinguishing=True)

    def test_quantum_and_classical_chambers_do_not_mix(self):
        quantum = quantum_chamber(0.5, [(1.0, spin.z_plus())], label="upper")
        classical = classical_chamber(0.5, {"argon": 1.0}, label="lower")
        for distinguishing in (True, False):
            with pytest.raises(VariantMismatchError):
                mix([quantum, classical], distinguishing)

    def test_round_trip_is_heat_neutral(self):
        # Separating along the mixture's own eigenbasis and re-mixing with the
        # same diaphragms restores the chamber at zero net heat.
        z_plus = DensityMatrix(spin.z_plus())
        x_plus = DensityMatrix(spin.x_plus())
        instrument = eigen_instrument(mix_states([0.5, 0.5], [z_plus, x_plus]))
        parent = quantum_chamber(
            1.0, [(0.5, spin.z_plus()), (0.5, spin.x_plus())], label="parent"
        )
        result = separate(parent, instrument)
        merged, mixing_heat = mix(list(result.chambers), distinguishing=True, label="parent")
        assert merged.volume == pytest.approx(parent.volume, abs=1e-12)
        assert merged.particles == pytest.approx(parent.particles, abs=1e-12)
        assert contents_equal(merged.contents, parent.contents, tol=1e-9)
        assert result.heat + mixing_heat == pytest.approx(0.0, abs=1e-12)


def one_gas(kind: str):
    """One contents object: a mixed d = 2 or d = 4 state, or a species bag."""
    if kind == "classical":
        return ClassicalContents({"argon": 0.5, "neon": 0.5})
    return QuantumContents(random_density(np.random.default_rng(7), int(kind[1:])))


class TestPoolingOneGas:
    """Chambers that all hold one contents object pool into that object."""

    @pytest.mark.parametrize("kind", ["d2", "d4", "classical"])
    def test_free_mix_keeps_the_object(self, kind):
        gas = one_gas(kind)
        parts = [
            GasChamber(f, 1.0, 2.0 * f, gas, f"g{k}") for k, f in enumerate((0.2, 0.3, 0.5))
        ]
        merged, heat = mix(parts, distinguishing=False, label="gas")
        assert merged.contents is gas
        assert heat == 0.0
        assert merged.volume == sum(c.volume for c in parts)
        assert merged.particles == sum(c.particles for c in parts)
        assert merged.label == "gas"

    @pytest.mark.parametrize("kind", ["d2", "d4", "classical"])
    def test_distinguishing_mix_of_one_gas_still_fails(self, kind):
        gas = one_gas(kind)
        parts = [GasChamber(0.5, 1.0, 0.5, gas, label) for label in ("a", "b")]
        with pytest.raises(NotOrthogonalError):
            mix(parts, distinguishing=True)

    @pytest.mark.parametrize("kind", ["d2", "d4", "classical"])
    def test_equal_but_distinct_contents_still_merge(self, kind, monkeypatch):
        gas = one_gas(kind)
        twin = type(gas)(gas.state if kind != "classical" else gas.weights)
        assert twin is not gas and contents_equal(twin, gas, tol=0.0)
        merges = []
        merge = type(gas).merge

        def counted(parts):
            merges.append(parts)
            return merge(parts)

        monkeypatch.setattr(type(gas), "merge", staticmethod(counted))
        parts = [GasChamber(0.5, 1.0, 0.5, c, label) for c, label in ((gas, "a"), (twin, "b"))]
        merged, heat = mix(parts, distinguishing=False)
        assert len(merges) == 1
        assert merged.contents is not gas and merged.contents is not twin
        assert contents_equal(merged.contents, gas, tol=1e-12)
        assert heat == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["d2", "d4", "classical"]),
        species=st.integers(1, 16),
        count=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kept_object_is_the_merge_it_skips(self, kind, species, count, seed):
        # The shortcut agrees with the arithmetic: merging the fragments at
        # their particle shares gives back the gas, within 1e-12.
        rng = np.random.default_rng(seed)
        if kind == "classical":
            gas = random_bag(rng, [f"s{k:02d}" for k in range(species)])
        else:
            dim = int(kind[1:])
            gas = QuantumContents(random_density(rng, dim, int(rng.integers(1, dim + 1))))
        fractions = rng.uniform(0.05, 1.0, size=count)
        fractions = fractions / fractions.sum()
        parts = [
            GasChamber(f, 1.0, f, gas, f"g{k}") for k, f in enumerate(fractions.tolist())
        ]
        merged, _ = mix(parts, distinguishing=False)
        assert merged.contents is gas
        total = sum(c.particles for c in parts)
        pooled = type(gas).merge([(c.particles / total, c.contents) for c in parts])
        assert pooled is not gas
        assert contents_equal(merged.contents, pooled, tol=1e-12)


class TestClassical:
    def test_separation_heat(self):
        parent = classical_chamber(
            1.0, {"argon_a": 0.5, "argon_b": 0.5}, label="main"
        )
        result = classical_separate(
            parent, {"argon_a": "reflected", "argon_b": "transmitted"}
        )
        assert result.heat == pytest.approx(-LN2, abs=1e-12)
        assert {c.label for c in result.chambers} == {"main/transmitted", "main/reflected"}
        for c in result.chambers:
            assert c.volume == pytest.approx(0.5)
            assert len(c.contents.weights) == 1

    def test_mixing_separated_species(self):
        a = classical_chamber(0.5, {"argon_a": 1.0}, label="upper")
        b = classical_chamber(0.5, {"argon_b": 1.0}, label="lower")
        merged, heat = mix([a, b], distinguishing=True)
        assert heat == pytest.approx(LN2, abs=1e-12)
        assert merged.contents.weights == pytest.approx(
            {"argon_a": 0.5, "argon_b": 0.5}
        )

    def test_single_species_chamber_unchanged(self):
        only = classical_chamber(1.0, {"argon": 1.0}, label="main")
        result = classical_separate(only, {"argon": "transmitted"})
        assert len(result.chambers) == 1
        assert result.chambers[0].volume == pytest.approx(1.0)
        assert result.heat == 0.0

    def test_unknown_species(self):
        parent = classical_chamber(1.0, {"argon_a": 0.5, "argon_b": 0.5})
        with pytest.raises(UnknownSpeciesError):
            classical_separate(parent, {"argon_a": "transmitted"})

    def test_mixing_same_species_cannot_distinguish(self):
        a = classical_chamber(0.5, {"argon": 1.0}, label="upper")
        b = classical_chamber(0.5, {"argon": 1.0}, label="lower")
        with pytest.raises(NotOrthogonalError):
            mix([a, b], distinguishing=True)
        merged, heat = mix([a, b], distinguishing=False)
        assert heat == 0.0
        assert merged.contents.weights == pytest.approx({"argon": 1.0})

    @settings(max_examples=40, deadline=None)
    @given(species=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
    def test_separating_by_species_then_remixing_restores_the_bag(self, species, seed):
        # Species groups share no name, so the distinguishing mix runs the
        # separation backwards: same bag, and the heats cancel.
        rng = np.random.default_rng(seed)
        bag = random_bag(rng, [f"s{k:02d}" for k in range(species)])
        permeability = {
            name: ("transmitted", "reflected")[int(rng.integers(0, 2))] for name in bag.weights
        }
        result = classical_separate(GasChamber(1.0, 1.0, 1.0, bag, "main"), permeability)
        merged, heat = mix(list(result.chambers), distinguishing=True, label="main")
        assert merged.volume == pytest.approx(1.0, abs=1e-12)
        assert contents_equal(merged.contents, bag, tol=1e-12)
        assert result.heat + heat == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "call, cls, message",
    [
        (lambda: mix([], distinguishing=True), ValueError, "nothing to mix"),
        (
            lambda: classical_separate(
                quantum_chamber(1.0, [(1.0, spin.z_plus())]), {"argon": "transmitted"}
            ),
            VariantMismatchError,
            "classical_separate needs classical contents",
        ),
        (
            lambda: classical_separate(
                classical_chamber(1.0, {"argon": 1.0}), {"argon": "absorbed"}
            ),
            UnknownSpeciesError,
            "permeability verdict 'absorbed'",
        ),
    ],
    ids=["mix-nothing", "classical-separate-on-quantum", "unknown-verdict"],
)
def test_input_checks(call, cls, message):
    with pytest.raises(cls) as err:
        call()
    assert str(err.value) == message
