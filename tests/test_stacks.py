"""Instruments and mixtures are built, validated and applied as stacks.

Each stacked path is checked against the one-matrix-at-a-time formula it
replaces: the same numbers, and for a corrupted input the same error class
and message.  The validation count pins how many matrices are checked as
density matrices in a run, so batching cannot silently drop a check.
"""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import load_workloads, random_density, random_unitary
from qgas import linalg, statistics
from qgas.errors import DimMismatchError, ExecutionError, NotPovmError, NotProjectiveError
from qgas.protocol import ast, execute, parse, semantics
from qgas.scenarios import BUNDLED, scenario_text
from qgas.statistics import (
    PROBABILITY_FLOOR,
    ZERO_TOL,
    DensityMatrix,
    Povm,
    ProjectiveInstrument,
    apply_instrument,
    eigen_instrument,
    mix_states,
    outcome_probability,
)
from qgas.thermo import WEIGHT_TOL, QuantumContents


def pairwise_check(elements, projective: bool) -> None:
    """The checks of Povm / ProjectiveInstrument one element and one pair
    at a time, raising what the stacked check must raise."""
    error, noun = (NotProjectiveError, "projector") if projective else (NotPovmError, "element")
    dim = elements[0][1].dim
    for label, mat in elements:
        if mat.dim != dim:
            raise DimMismatchError(f"{noun} {label} has dim {mat.dim} != {dim}")
    for label, mat in elements:
        e = mat.entries
        if projective:
            residual = float(np.max(np.abs(e @ e - e)))
            if residual > ZERO_TOL:
                raise NotProjectiveError(f"{label} not idempotent ({residual:.2e})")
        else:
            smallest = float(np.linalg.eigvalsh(e)[0])
            if smallest < -ZERO_TOL:
                raise NotPovmError(f"element {label} is not PSD ({smallest!r})")
    if projective:
        for i, (a, p) in enumerate(elements):
            for b, q in elements[i + 1:]:
                cross = float(np.max(np.abs(p.entries @ q.entries)))
                if cross > ZERO_TOL:
                    raise NotProjectiveError(f"projectors {a} and {b} overlap ({cross:.2e})")
    total = sum(mat.entries for _, mat in elements)
    if float(np.max(np.abs(total - np.eye(dim)))) > ZERO_TOL:
        raise error(f"{noun}s do not sum to the identity")


def failure(build, elements):
    with pytest.raises(Exception) as caught:
        build(elements)
    return type(caught.value), str(caught.value)


@st.composite
def eigenbases(draw):
    """(u, clusters): a random unitary of dim 2, 4 or 8 and its columns cut
    into consecutive clusters, one projector of that rank each."""
    dim = draw(st.sampled_from([2, 4, 8]))
    u = random_unitary(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), dim)
    cuts = sorted(draw(st.sets(st.integers(1, dim - 1))))
    bounds = [0, *cuts, dim]
    return u, [list(range(a, b)) for a, b in zip(bounds, bounds[1:])]


def cluster_projector(u: np.ndarray, columns) -> np.ndarray:
    return u[:, columns] @ u[:, columns].conj().T


def instrument_elements(u, clusters):
    return tuple(
        (f"p{i}", linalg.HermitianMatrix(cluster_projector(u, c))) for i, c in enumerate(clusters)
    )


class TestInstrumentEquivalence:
    @given(basis=eigenbases(), seed=st.integers(0, 2**32 - 1))
    def test_apply_instrument_matches_the_per_element_formula(self, basis, seed):
        u, clusters = basis
        dim = len(u)
        rng = np.random.default_rng(seed)
        # A state of random rank, so outcomes below the floor occur too.
        v = random_unitary(rng, dim)[:, : int(rng.integers(1, dim + 1))]
        weights = rng.uniform(0.1, 1.0, size=v.shape[1])
        rho = DensityMatrix(linalg.HermitianMatrix((v * (weights / weights.sum())) @ v.conj().T))
        instrument = ProjectiveInstrument(instrument_elements(u, clusters))
        dist = apply_instrument(rho, instrument)
        assert [o.label for o in dist.outcomes] == list(instrument.labels)
        for (label, proj), outcome in zip(instrument.elements, dist.outcomes):
            p = outcome_probability(rho, proj)
            assert abs(outcome.probability - p) <= 1e-12
            if p < PROBABILITY_FLOOR:
                assert outcome.post_state is None
                continue
            projected = proj.entries @ rho.matrix.entries @ proj.entries
            projected = (projected + projected.conj().T) / 2
            expected = projected / np.trace(projected).real
            assert np.max(np.abs(outcome.post_state.matrix.entries - expected)) <= 1e-12

    @given(basis=eigenbases(), gaps=st.lists(st.floats(0.05, 1.0), min_size=8, max_size=8))
    def test_eigen_instrument_sums_each_cluster_as_the_loop_did(self, basis, gaps):
        u, clusters = basis
        # One distinct eigenvalue per cluster, so each cluster is one projector.
        values = np.cumsum(gaps[: len(clusters)])[::-1]
        spectrum = np.concatenate([[values[i]] * len(c) for i, c in enumerate(clusters)])
        rho = DensityMatrix(linalg.HermitianMatrix((u * (spectrum / spectrum.sum())) @ u.conj().T))
        decomp = linalg.eig_hermitian(rho.matrix)
        instrument = eigen_instrument(rho)
        assert len(instrument.elements) == len(decomp.clusters()) == len(clusters)
        for (label, proj), cluster, index in zip(
            instrument.elements, decomp.clusters(), range(len(clusters))
        ):
            acc = np.zeros((len(u), len(u)), dtype=complex)
            for k in cluster:
                v = decomp.eigenvectors[k].amplitudes
                acc += np.outer(v, v.conj())
            assert label == f"e{index}"
            assert proj.entries.tobytes() == ((acc + acc.conj().T) / 2).tobytes()
        assert np.array_equal(instrument.stack, [m.entries for _, m in instrument.elements])

    @given(basis=eigenbases(), data=st.data())
    def test_corrupted_instruments_fail_as_the_pairwise_checks_do(self, basis, data):
        u, clusters = basis
        dim, k = len(u), len(clusters)
        good = instrument_elements(u, clusters)
        i = data.draw(st.integers(0, k - 1), label="element")
        label = good[i][0]
        corrupted = {
            "not idempotent": (label, good[i][1] * 0.5),
            "not summing to I": (label, linalg.HermitianMatrix(np.zeros((dim, dim)))),
        }
        if i > 0:  # the first element sets the dimension
            corrupted["mismatched dim"] = (label, linalg.identity(dim // 2))
        if k > 1:
            # Tilt a vector of cluster j towards one of cluster i: still a
            # projector, orthogonal to the other clusters, overlapping i.
            j = data.draw(st.integers(0, k - 1).filter(lambda j: j != i), label="partner")
            a, b = clusters[i][0], clusters[j][0]
            tilted = u.copy()
            tilted[:, b] = (u[:, b] + u[:, a]) / np.sqrt(2)
            corrupted["overlap"] = (
                good[j][0], linalg.HermitianMatrix(cluster_projector(tilted, clusters[j]))
            )
        cases = {kind: dict([change]) for kind, change in corrupted.items()}
        if k > 1:
            # Two faults: the element's is reported before the pair's.
            cases["not idempotent and overlap"] = dict(
                [corrupted["not idempotent"], corrupted["overlap"]]
            )
        for kind, changes in cases.items():
            elements = tuple((n, changes.get(n, m)) for n, m in good)
            expected = failure(lambda e: pairwise_check(e, projective=True), elements)
            assert failure(ProjectiveInstrument, elements) == expected, kind
            if "overlap" not in kind:
                povm_expected = failure(lambda e: pairwise_check(e, projective=False), elements)
                assert failure(Povm, elements) == povm_expected, kind

    @given(basis=eigenbases(), data=st.data())
    def test_a_non_psd_povm_element_fails_as_the_per_element_check_does(self, basis, data):
        u, clusters = basis
        assume(len(clusters) > 1)
        i, j = data.draw(st.permutations(range(len(clusters))), label="order")[:2]
        excess = data.draw(st.floats(1e-9, 0.5), label="excess")
        # Move (1 + excess) |v><v| of cluster i to element j: the sum stays I,
        # and element i gets the eigenvalue -excess.
        v = u[:, clusters[i][:1]]
        moved = (1.0 + excess) * (v @ v.conj().T)
        elements = list(instrument_elements(u, clusters))
        elements[i] = (elements[i][0], linalg.HermitianMatrix(elements[i][1].entries - moved))
        elements[j] = (elements[j][0], linalg.HermitianMatrix(elements[j][1].entries + moved))
        expected = failure(lambda e: pairwise_check(e, projective=False), tuple(elements))
        assert expected[0] is NotPovmError
        assert failure(Povm, tuple(elements)) == expected


def validations(monkeypatch, texts) -> tuple[int, int]:
    """(calls, matrices) through statistics._validated_spectra while each
    text is parsed, executed and rendered."""
    seen = [0, 0]
    original = statistics._validated_spectra

    def counted(stack):
        seen[0] += 1
        seen[1] += len(stack)
        return original(stack)

    monkeypatch.setattr(statistics, "_validated_spectra", counted)
    for text in texts:
        execute(parse(text)).to_json()
    return seen[0], seen[1]


@pytest.mark.parametrize(
    "workload, matrices, most_calls",
    [("bundled_suite", 62, 30), ("deep_protocol", 147, 27)],
)
def test_every_matrix_is_still_validated_in_fewer_stacks(
    monkeypatch, workload, matrices, most_calls
):
    # Validating each matrix on its own would take 62 and 147 calls.  The
    # report views a reducing observer's initial and final contents again in
    # its one view pass, beside the engine's views for the verdict, so those
    # matrices count twice (4 bundled, 2 deep), inside the same stacks.  The
    # proj(ket) terms of a mix are not counted: only the mixture is validated.
    # The bundled count leaves out the 8 proj(ket) instrument elements:
    # the instrument checks each as a projector, and a unit trace does not
    # describe an element such as tensor(proj(k), identity(2)).
    if workload == "bundled_suite":
        texts = [scenario_text(name) for name in BUNDLED]
    else:
        texts = [text for _, text in load_workloads().deep_protocol(1).scripts]
    calls, validated = validations(monkeypatch, texts)
    assert validated == matrices
    assert calls <= most_calls


@pytest.mark.parametrize(
    "states, message, col",
    [
        ("DEFINE_STATE s mix(0.5*proj(ket(1, 0)) + 0.5*proj(ket(1, 0, 0, 0)))",
         "state dims 4 != 2", 1),
        ("DEFINE_STATE b proj(ket(1, 0, 0, 0))\nDEFINE_STATE s mix(0.5*b + 0.5*proj(ket(1, 0)))",
         "state dims 2 != 4", 1),
        ("DEFINE_STATE s mix(0.5*proj(ket(1, 0)) + 0.6*proj(ket(1, 0, 0, 0)))",
         "mixture weights must be convex (sum 1.1)", 16),
    ],
    ids=["projectors", "named-state-first", "weights-first"],
)
def test_a_mix_of_two_dimensions_fails_as_mix_states_does(states, message, col):
    # The proj(ket) terms of a mix form one stack, which holds one dimension;
    # a mix of two dimensions still fails with mix_states' message, after
    # the weights are checked.
    text = f"HEADER dim=2 temperature=1.0 particles=1.0\n{states}\nCHAMBER c 1.0 s\n"
    with pytest.raises(ExecutionError) as err:
        execute(parse(text))
    line = text.count("\n", 0, text.index("DEFINE_STATE s")) + 1
    assert str(err.value) == f"line {line}, col {col}: {message}"


def per_cluster_sums(rho: DensityMatrix) -> list[bytes]:
    """The bytes of each eigenprojector as a slice-sum over its cluster's
    |v><v|, symmetrised: the formula eigen_instrument used for every cluster."""
    decomp = linalg.eig_hermitian(rho.matrix)
    vectors = np.array([v.amplitudes for v in decomp.eigenvectors])
    outer = vectors[:, :, None] * vectors[:, None, :].conj()
    sums = np.array([outer[c[0]:c[-1] + 1].sum(axis=0) for c in decomp.clusters()])
    return [m.tobytes() for m in (sums + sums.conj().swapaxes(1, 2)) / 2]


class TestProjectorStacks:
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2, 4, 8]),
           n=st.integers(1, 8), named=st.integers(0, 3))
    def test_mix_terms_are_the_projectors_of_their_kets_to_the_bit(self, seed, dim, n, named):
        rng = np.random.default_rng(seed)
        kets = [linalg.StateVector(random_unitary(rng, dim)[:, 0]) for _ in range(n - 1)]
        kets.append(linalg.StateVector(np.eye(dim)[-1]))  # real, with zero amplitudes
        stack = linalg._projectors(np.array([k.amplitudes for k in kets]))
        singles = [linalg.projector_from_vector(k).entries for k in kets]
        assert [m.tobytes() for m in stack] == [m.tobytes() for m in singles]
        # The mix, as semantics evaluates it, with named states at random
        # places among the proj(ket) terms, and from each term's own state.
        values = kets + [QuantumContents(random_density(rng, dim)) for _ in range(named)]
        values = [values[i] for i in rng.permutation(len(values))]
        weights = rng.dirichlet(np.ones(len(values))).tolist()
        assume(abs(sum(weights) - 1.0) <= WEIGHT_TOL)
        scope = {f"t{i}": v for i, v in enumerate(values)}
        expr = ast.MixExpr(tuple(
            (w, ast.ProjExpr(ast.NameRef(name, line=1, col=1), line=1, col=1)
             if isinstance(v, linalg.StateVector) else ast.NameRef(name, line=1, col=1))
            for w, (name, v) in zip(weights, scope.items())
        ), line=1, col=1)
        mixed = semantics.eval_value(expr, scope).assembled()
        expected = mix_states(weights, [
            DensityMatrix(linalg.projector_from_vector(v))
            if isinstance(v, linalg.StateVector) else v.assembled()
            for v in values
        ])
        assert mixed.matrix.entries.tobytes() == expected.matrix.entries.tobytes()
        assert mixed.eigenvalues == expected.eigenvalues

    @pytest.mark.parametrize("rotated", [False, True], ids=["diagonal", "rotated"])
    @pytest.mark.parametrize(
        "spectrum",
        [[0.5, 0.3, 0.2], [1 / 3, 1 / 3, 1 / 3], [0.5, 0.25, 0.25]],
        ids=["non-degenerate", "fully-degenerate", "mixed"],
    )
    def test_eigen_instrument_projectors_are_the_per_cluster_sums_to_the_bit(
        self, spectrum, rotated
    ):
        u = random_unitary(np.random.default_rng(7), 3) if rotated else np.eye(3)
        rho = DensityMatrix(linalg.HermitianMatrix((u * spectrum) @ u.conj().T))
        projectors = [p.entries.tobytes() for _, p in eigen_instrument(rho).elements]
        assert projectors == per_cluster_sums(rho)
        assert len(projectors) == len(set(np.round(spectrum, 9)))
