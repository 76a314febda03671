import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BLEND_SEPARATION_HEAT,
    LN2,
    P_MINUS,
    P_PLUS,
    digest_text,
    random_bag,
    random_density,
)
from qgas import linalg, spin
from qgas.errors import IncompatibleReductionError, VariantMismatchError
from qgas.observers import Observer, _pooled, _weight_table, build_willard_povm, view_contents
from qgas.protocol import execute
from qgas.protocol.engine import run_protocol
from qgas.protocol.interpreter import RunReport, _Floats, _round, _weight_texts
from qgas.protocol.parser import parse
from qgas.scenarios import BUNDLED, scenario_text
from qgas.statistics import DensityMatrix, mix_states, outcome_probability
from qgas.thermo import ClassicalContents, QuantumContents, contents_equal

TATIANA = Observer.quantum("tatiana", (2, 2, "first"))
WILLARD = Observer.quantum("willard")


def quantum(*pairs) -> QuantumContents:
    """Contents holding the mixture of (weight, Hermitian matrix) pairs."""
    return QuantumContents(mix_states([w for w, _ in pairs], [DensityMatrix(m) for _, m in pairs]))


def tau_contents() -> QuantumContents:
    return quantum(
        (0.5, linalg.tensor(spin.z_plus(), spin.z_plus())),
        (0.5, linalg.tensor(spin.x_plus(), spin.z_minus())),
    )


class TestViewContents:
    def test_product_state_reduces_to_first_factor(self):
        truth = quantum((1.0, linalg.tensor(spin.x_plus(), spin.z_minus())))
        assert contents_equal(
            view_contents(TATIANA, truth), quantum((1.0, spin.x_plus()))
        )

    def test_blend_reduces_to_lambda(self):
        lam = linalg.HermitianMatrix(np.array([[3, 1], [1, 1]]) / 4)
        assert contents_equal(view_contents(TATIANA, tau_contents()), quantum((1.0, lam)))

    def test_full_observer_sees_truth(self):
        truth = tau_contents()
        assert view_contents(WILLARD, truth) is truth

    def test_classical_merge(self):
        johann = Observer.classical("johann", {"argon_a": "argon", "argon_b": "argon"})
        blend = ClassicalContents({"argon_a": 0.5, "argon_b": 0.5})
        assert contents_equal(view_contents(johann, blend), ClassicalContents({"argon": 1.0}))

    def test_observer_without_species_map_sees_truth(self):
        truth = ClassicalContents({"argon": 0.25, "neon": 0.75})
        assert view_contents(Observer.classical("exact"), truth) is truth

    def test_incompatible_reduction(self):
        shrunk = Observer.quantum("bad", (2, 3, "first"))
        with pytest.raises(IncompatibleReductionError):
            view_contents(shrunk, tau_contents())

    @pytest.mark.parametrize(
        "observer, truth, message",
        [
            (Observer.classical("johann"), tau_contents,
             "classical observer 'johann' cannot view quantum contents"),
            (Observer.quantum("lab"), lambda: ClassicalContents({"argon": 1.0}),
             "quantum observer 'lab' cannot view classical contents"),
            (Observer.quantum("bad", (2, 3, "first")), tau_contents,
             "observer 'bad' reduction 2x3 does not fit dimension 4"),
        ],
        ids=["classical-on-quantum", "quantum-on-classical", "reduction"],
    )
    def test_check_messages(self, observer, truth, message):
        with pytest.raises(IncompatibleReductionError, match=f"^{re.escape(message)}$"):
            view_contents(observer, truth())

    def test_unknown_contents_rejected(self):
        with pytest.raises(VariantMismatchError) as err:
            view_contents(Observer.quantum("lab"), tau_contents().assembled())
        assert str(err.value) == "unknown contents DensityMatrix"

    def test_view_commutes_with_mixing(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            states = [random_density(rng, 4) for _ in range(3)]
            weights = rng.uniform(0.1, 1.0, size=3)
            weights = list(weights / weights.sum())
            mixture_first = view_contents(
                TATIANA, QuantumContents(mix_states(weights, states))
            ).assembled()
            views = [
                view_contents(TATIANA, QuantumContents(s)).assembled()
                for s in states
            ]
            view_first = mix_states(weights, views)
            assert mixture_first.isclose(view_first, 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        species=st.integers(1, 16),
        count=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_species_merge_commutes_with_pooling(self, species, count, seed):
        # The classical twin of the test above: an observer who merges
        # species sees the pool of the bags as the pool of their views.
        rng = np.random.default_rng(seed)
        names = [f"s{k:02d}" for k in range(species)]
        coarse = Observer.classical(
            "coarse", {name: f"g{int(rng.integers(0, 4))}" for name in names}
        )
        bags = []
        for _ in range(count):
            chosen = rng.choice(names, int(rng.integers(1, species + 1)), replace=False)
            bags.append(random_bag(rng, chosen.tolist()))
        shares = rng.uniform(0.1, 1.0, size=count)
        shares = (shares / shares.sum()).tolist()
        pool_first = view_contents(coarse, ClassicalContents.merge(list(zip(shares, bags))))
        view_first = ClassicalContents.merge(
            [(share, view_contents(coarse, bag)) for share, bag in zip(shares, bags)]
        )
        assert contents_equal(pool_first, view_first, tol=1e-12)


# Species names whose sorted order differs from the order they are drawn in.
SPECIES_NAMES = st.lists(
    st.text(alphabet="abxz_", min_size=1, max_size=3), min_size=1, max_size=20, unique=True
)


@st.composite
def weight_maps(draw, names: list[str]) -> dict[str, float]:
    """Positive weights over ``names`` summing to 1, some below 1.0001e-4 (the
    report spells those by ``repr``)."""
    raw = [draw(st.one_of(st.floats(1e-7, 1e-4), st.floats(1e-3, 1.0))) for _ in names]
    total = math.fsum(raw)
    return {name: w / total for name, w in zip(names, raw)}


@st.composite
def species_maps(draw, names: list[str]) -> dict[str, str]:
    """A map over ``names`` that pools some into groups, renames some onto
    another true species, keeps some as identity pairs, leaves the rest
    unmapped, and may swap two names; its keys come in a drawn order."""
    mapping = {}
    for name in names:
        kind = draw(st.sampled_from(["unmapped", "pool", "pool", "onto", "identity"]))
        if kind == "pool":
            mapping[name] = draw(st.sampled_from(["g", "gx"]))
        elif kind == "onto":
            mapping[name] = draw(st.sampled_from(names))
        elif kind == "identity":
            mapping[name] = name
    if len(names) > 1 and draw(st.booleans()):
        x, z = draw(st.permutations(names))[:2]
        mapping[x], mapping[z] = z, x
    return {name: mapping[name] for name in draw(st.permutations(list(mapping)))}


def hexes(weights) -> dict[str, str]:
    return {name: float.hex(w) for name, w in weights.items()}


class TestWeightTable:
    """A classical view pools its weights in sorted species order, whether it
    is made one contents at a time or as a row of a run's weight table."""

    @pytest.mark.parametrize("order", [["a", "b", "c", "d"], ["c", "b", "a", "d"]])
    def test_a_pooled_weight_does_not_depend_on_insertion_order(self, order):
        # Added in insertion order, a, b, c gave 0.6000000000000001 and
        # c, b, a gave 0.6.  Sorted order adds a, b, c for both.
        weights = {"a": 0.1, "b": 0.2, "c": 0.3, "d": 0.4}
        observer = Observer.classical("x", {name: "x" for name in order[:3]})
        seen = view_contents(observer, ClassicalContents({n: weights[n] for n in order}))
        assert hexes(seen.weights) == hexes({"d": 0.4, "x": 0.1 + 0.2 + 0.3})

    @given(st.data())
    def test_shuffled_maps_give_the_same_view_to_the_bit(self, data):
        names = data.draw(SPECIES_NAMES)
        weights = data.draw(weight_maps(names))
        mapping = data.draw(species_maps(names))
        seen = view_contents(Observer.classical("o", mapping), ClassicalContents(weights))
        shuffled = {n: weights[n] for n in data.draw(st.permutations(names))}
        remapped = {n: mapping[n] for n in data.draw(st.permutations(list(mapping)))}
        again = view_contents(Observer.classical("o", remapped), ClassicalContents(shuffled))
        assert hexes(again.weights) == hexes(seen.weights)

    @given(st.data())
    def test_each_pooled_row_is_its_contents_view(self, data):
        names = data.draw(SPECIES_NAMES)
        held = st.lists(st.sampled_from(names), min_size=1, unique=True)
        truths = [
            ClassicalContents(data.draw(weight_maps(subset)))
            for subset in data.draw(st.lists(held, min_size=1, max_size=6))
        ]
        observer = Observer.classical("o", data.draw(species_maps(names)))
        seen_names, pooled = _pooled(observer.species_map, *_weight_table(truths))
        texts = _weight_texts(seen_names, pooled, _Floats())
        for truth, row, text in zip(truths, pooled, texts, strict=True):
            view = view_contents(observer, truth)
            assert hexes({n: w for n, w in zip(seen_names, row) if w}) == hexes(view.weights)
            assert text == digest_text(view)
            assert json.loads(text) == {
                "kind": "classical",
                "species": {n: _round(w) for n, w in view.weights.items()},
            }


DIM4 = "HEADER dim=4 temperature=1.0 particles=1.0\n"
CLASSICAL = "HEADER classical temperature=1.0 particles=1.0\n"


class TestObserverFields:
    """An observer checks its own fields as it is built, before any run."""

    @pytest.mark.parametrize(
        "header, build, message",
        [
            (DIM4, lambda: Observer.quantum("o", (2, 2, "middle")),
             "observer 'o': reduction (2, 2, 'middle') is not "
             "(positive int, positive int, 'first' or 'second')"),
            (DIM4, lambda: Observer.quantum("o", (-2, -2, "first")),
             "observer 'o': reduction (-2, -2, 'first') is not "
             "(positive int, positive int, 'first' or 'second')"),
            (DIM4, lambda: Observer("o", "banana"),
             "observer 'o': kind 'banana' is not quantum or classical"),
            (DIM4, lambda: Observer("o", "quantum", None, (("a", "b"),)),
             "observer 'o': a quantum observer has no species map"),
            (CLASSICAL, lambda: Observer("o", "classical", (2, 2, "first")),
             "observer 'o': a classical observer has no reduction"),
            (CLASSICAL, lambda: Observer("o", "classical", None, (("a", "b"), ("a", "c"))),
             "observer 'o': species map (('a', 'b'), ('a', 'c')) names a true species twice"),
        ],
        ids=["keep", "negative-factors", "kind", "quantum-species-map",
             "classical-reduction", "species-twice"],
    )
    def test_bad_fields_fail_as_the_observer_is_built(self, header, build, message):
        with pytest.raises(IncompatibleReductionError, match=f"^{re.escape(message)}$"):
            run_protocol(parse(header), observers=[build()])

    def test_valid_fields_build(self):
        assert Observer.quantum("o", (2, 2, "second")).reduction == (2, 2, "second")
        assert Observer.classical("o", {"a": "x", "b": "x"}).species_map == (("a", "x"), ("b", "x"))


class TestWillardPovm:
    def test_elements_sum_to_identity(self):
        povm = build_willard_povm()
        total = povm.element("E+") + povm.element("E-")
        assert total.isclose(linalg.identity(4), 1e-12)

    def test_rank_two_projectors(self):
        povm = build_willard_povm()
        for label in ("E+", "E-"):
            mat = povm.element(label)
            assert np.max(np.abs(mat.entries @ mat.entries - mat.entries)) < 1e-12
            assert mat.trace() == pytest.approx(2.0, abs=1e-12)

    def test_probability_on_blend(self):
        tau = tau_contents().assembled()
        p = outcome_probability(tau, build_willard_povm().element("E+"))
        assert p == pytest.approx(P_PLUS, abs=1e-12)
        assert p == pytest.approx(0.853553, abs=1e-6)

    def test_block_structure_traces_like_alpha(self):
        # tr(E+ (rho (x) sigma)) = tr(alpha+ rho) for any unit-trace sigma
        # diagonal in the hidden factor.
        rng = np.random.default_rng(67)
        e_plus = build_willard_povm().element("E+")
        for _ in range(10):
            rho = random_density(rng, 2)
            diag = rng.uniform(0.1, 1.0, size=2)
            sigma = linalg.HermitianMatrix(np.diag(diag / diag.sum()))
            lifted = linalg.tensor(rho.matrix, sigma)
            assert linalg.trace_product(e_plus, lifted) == pytest.approx(
                linalg.trace_product(spin.alpha_plus(), rho.matrix), abs=1e-12
            )

    def test_matches_projectors_onto_alpha_kets(self):
        e_plus = build_willard_povm().element("E+")
        rebuilt = np.zeros((4, 4), dtype=complex)
        for hidden in (spin.z_plus_ket(), spin.z_minus_ket()):
            ket = linalg.tensor_vector(spin.alpha_plus_ket(), hidden)
            rebuilt += np.outer(ket.amplitudes, ket.amplitudes.conj())
        assert np.allclose(e_plus.entries, rebuilt, atol=1e-12)


@pytest.fixture(scope="module")
def run():
    return run_protocol(parse(scenario_text("peres_tatiana")))


class TestPeresRun:
    def test_heats_are_observer_independent(self, run):
        # One shared ledger: every observer's section of the report books
        # the same step heats and total.
        payload = RunReport(run, ()).to_json_dict()
        heats = [
            ([step["Q"] for step in section["steps"]], section["total_Q"])
            for section in payload["observers"]
        ]
        assert len(heats) == len(run.views) == 2
        assert len(heats[0][0]) == len(run.steps)
        assert heats[1] == heats[0]

    def test_tatiana_sees_violated_cycle(self, run):
        verdict = run.views["tatiana"].verdict
        assert verdict.is_cycle_actual
        assert verdict.second_law_satisfied is False
        assert run.total_heat == pytest.approx(LN2 + BLEND_SEPARATION_HEAT, abs=1e-12)
        assert run.total_heat == pytest.approx(0.27665, abs=1e-5)

    def test_willard_sees_open_path(self, run):
        verdict = run.views["willard"].verdict
        assert not verdict.is_cycle_actual
        assert verdict.second_law_satisfied is None
        assert verdict.apparent_violation_explained

    def test_tatiana_step_states_follow_the_story(self, run):
        steps = {s.description: s for s in run.steps}
        lam = quantum((0.5, spin.z_plus()), (0.5, spin.x_plus()))
        tatiana = run.views["tatiana"].observer

        mixed = steps["distinguishing mix of upper, lower"].chambers
        assert len(mixed) == 1
        assert contents_equal(view_contents(tatiana, mixed[0].contents), lam, tol=1e-9)

        separated = steps["separate with alpha_diaphragms"].chambers
        assert [c.volume for c in separated] == pytest.approx([P_PLUS, P_MINUS], abs=1e-6)
        seen = [view_contents(tatiana, c.contents) for c in separated]
        assert contents_equal(seen[0], quantum((1.0, spin.alpha_plus())), 1e-9)
        assert contents_equal(seen[1], quantum((1.0, spin.alpha_minus())), 1e-9)

        halves = steps["partition whole"].chambers
        assert [c.volume for c in halves] == pytest.approx([0.5, 0.5], abs=1e-12)
        for half in halves:
            seen = view_contents(tatiana, half.contents)
            assert contents_equal(seen, quantum((1.0, spin.z_plus())), 1e-9)

        final = [view_contents(tatiana, c.contents) for c in steps["rotate lower"].chambers]
        assert contents_equal(final[0], quantum((1.0, spin.z_plus())), 1e-9)
        assert contents_equal(final[1], quantum((1.0, spin.x_plus())), 1e-9)

    def test_willard_post_mix_chamber_is_tau(self, run):
        steps = {s.description: s for s in run.steps}
        mixed = steps["distinguishing mix of upper, lower"].chambers
        assert len(mixed) == 1
        seen = view_contents(run.views["willard"].observer, mixed[0].contents)
        assert contents_equal(seen, tau_contents(), tol=1e-9)

    def test_willard_post_separation_ensemble_weights(self, run):
        # After the alpha diaphragms have acted on every particle the
        # container holds, in the four-level description, the blend of the
        # four alpha/hidden product states with weights p+/2, p-/2 -- and
        # that blend is NOT the pre-measurement state: the separation is the
        # irreversible step.
        steps = {s.description: s for s in run.steps}
        willard = run.views["willard"].observer
        separated = steps["separate with alpha_diaphragms"].chambers
        assert len(separated) == 2
        union = quantum(*[
            (c.particles, view_contents(willard, c.contents).state.matrix) for c in separated
        ])
        weights = (P_PLUS / 2, P_PLUS / 2, P_MINUS / 2, P_MINUS / 2)
        kets = [
            linalg.tensor_vector(alpha, hidden)
            for alpha in (spin.alpha_plus_ket(), spin.alpha_minus_ket())
            for hidden in (spin.z_plus_ket(), spin.z_minus_ket())
        ]
        blend = quantum(
            *[(w, linalg.projector_from_vector(k)) for w, k in zip(weights, kets)]
        )
        assert contents_equal(union, blend, tol=1e-6)
        assert not contents_equal(union, tau_contents(), tol=1e-6)

    def test_completed_run_closes_for_everyone(self):
        run = run_protocol(parse(scenario_text("peres_willard_completed")))
        assert run.total_heat == pytest.approx(BLEND_SEPARATION_HEAT, abs=1e-12)
        for name in ("tatiana", "willard"):
            verdict = run.views[name].verdict
            assert verdict.is_cycle_actual
            assert verdict.second_law_satisfied is True


class TestJaynesRun:
    def test_johann_books_a_violation(self):
        run = run_protocol(parse(scenario_text("jaynes_johann")))
        assert run.total_heat == pytest.approx(LN2, abs=1e-12)
        johann = run.views["johann"].verdict
        assert johann.is_cycle_actual
        assert johann.second_law_satisfied is False
        marie = run.views["marie"].verdict
        assert not marie.is_cycle_actual
        assert marie.apparent_violation_explained

    def test_marie_completion_satisfies_everyone(self):
        run = run_protocol(parse(scenario_text("jaynes_marie_completed")))
        assert run.total_heat == pytest.approx(0.0, abs=1e-12)
        for name in ("johann", "marie"):
            verdict = run.views[name].verdict
            assert verdict.is_cycle_actual
            assert verdict.second_law_satisfied is True

    def test_observer_override_list(self):
        protocol = parse(scenario_text("jaynes_johann"))
        run = run_protocol(protocol, observers=[Observer.classical("marie")])
        assert set(run.views) == {"marie"}


class TestDeclaredObservers:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_header_observers_are_the_library_type(self, name):
        protocol = parse(scenario_text(name))
        declared = list(protocol.header.observers)
        assert declared and all(isinstance(obs, Observer) for obs in declared)
        assert (
            execute(protocol, observers=declared).to_json()
            == execute(protocol).to_json()
        )
