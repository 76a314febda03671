"""The classical gas is the diagonal quantum gas: the library twin and the run twin.

Each species is a basis state, so a weight map becomes a diagonal
``DensityMatrix`` and a permeability map becomes the two diagonal
projectors onto the transmitted and the reflected species.  Every classical
operation must then agree with its quantum counterpart within 1e-12, for
2-16 species with weights of at least 1e-3.  A whole classical script,
translated so, must book the same heats on the engine and give each
observer with no species map the same verdict.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import load_workloads
from qgas import linalg
from qgas.diaphragm import classical_separate, mix, separate
from qgas.linalg import HermitianMatrix
from qgas.observers import Observer, view_contents
from qgas.protocol import ast, parse
from qgas.protocol.engine import _Engine, run_protocol
from qgas.scenarios import scenario_text
from qgas.statistics import DensityMatrix, ProjectiveInstrument, are_orthogonal, mix_states
from qgas.thermo import ClassicalContents, GasChamber, QuantumContents, contents_equal

TOL = 1e-12
VERDICTS = ("transmitted", "reflected")


def embed(contents: ClassicalContents, species: list[str]) -> QuantumContents:
    """The diagonal state with one basis state per species, in ``species`` order."""
    diagonal = [contents.weights.get(name, 0.0) for name in species]
    return QuantumContents(DensityMatrix(HermitianMatrix(np.diag(diagonal).astype(complex))))


def assert_diagonal(state: DensityMatrix, weights: dict[str, float], species: list[str]) -> None:
    expected = np.diag([weights.get(name, 0.0) for name in species])
    assert float(np.abs(state.matrix.entries - expected).max()) <= TOL


@st.composite
def bags(draw, species: list[str], min_size: int = 1) -> ClassicalContents:
    """Contents over a nonempty subset of ``species``.  Raw weights in [1, 60]
    keep each normalised weight at least 1/901 > 1e-3 for up to 16 species."""
    names = draw(st.lists(st.sampled_from(species), min_size=min_size, unique=True))
    raw = draw(st.lists(st.floats(1.0, 60.0), min_size=len(names), max_size=len(names)))
    return ClassicalContents({name: w / math.fsum(raw) for name, w in zip(names, raw)})


SPECIES = st.integers(2, 16).map(lambda n: [f"s{k}" for k in range(n)])


@given(st.data(), SPECIES, st.floats(0.5, 2.0), st.floats(0.5, 2.0))
def test_classical_separate_is_the_diagonal_separate(data, species, particles, temperature):
    contents = data.draw(bags(species))
    permeability = {name: data.draw(st.sampled_from(VERDICTS)) for name in species}
    projectors = [
        HermitianMatrix(np.diag([float(permeability[s] == verdict) for s in species]) + 0j)
        for verdict in VERDICTS
    ]
    instrument = ProjectiveInstrument(tuple(zip(VERDICTS, projectors)))
    classical = classical_separate(
        GasChamber(1.0, temperature, particles, contents, "g"), permeability
    )
    quantum = separate(
        GasChamber(1.0, temperature, particles, embed(contents, species), "g"), instrument
    )
    assert abs(classical.heat - quantum.heat) <= TOL
    assert [c.label for c in classical.chambers] == [c.label for c in quantum.chambers]
    for c, q in zip(classical.chambers, quantum.chambers):
        assert abs(c.volume - q.volume) <= TOL
        assert abs(c.particles - q.particles) <= TOL
        assert_diagonal(q.contents.state, c.contents.weights, species)


@given(st.data(), SPECIES, st.integers(2, 4))
def test_merge_is_the_diagonal_mix_states(data, species, parts):
    bags_ = [data.draw(bags(species)) for _ in range(parts)]
    raw = data.draw(st.lists(st.floats(1.0, 10.0), min_size=parts, max_size=parts))
    shares = [w / math.fsum(raw) for w in raw]
    merged = ClassicalContents.merge(list(zip(shares, bags_)))
    mixed = mix_states(shares, [embed(bag, species).state for bag in bags_])
    assert_diagonal(mixed, merged.weights, species)


@given(st.data(), SPECIES)
def test_disjoint_species_are_exactly_the_orthogonal_diagonals(data, species):
    a = data.draw(bags(species))
    others = [name for name in species if name not in a.weights]
    b = data.draw(bags(species) | bags(others)) if others else data.draw(bags(species))
    qa, qb = embed(a, species), embed(b, species)
    orthogonal = are_orthogonal(qa.state, qb.state)
    disjoint = not (a.weights.keys() & b.weights.keys())
    assert disjoint == (orthogonal.overlap <= 1e-10) == bool(orthogonal)
    assert (a.orthogonal_to(b) is None) == disjoint == (qa.orthogonal_to(qb) is None)


@given(st.data(), SPECIES, st.floats(0.5, 2.0), st.floats(0.5, 2.0))
def test_distinguishing_mix_books_the_diagonal_heat(data, species, particles, temperature):
    # Deal the species to 2-4 gases, each holding at least one, and mix them.
    gases = data.draw(st.integers(2, min(4, len(species))))
    owner = data.draw(
        st.lists(st.integers(0, gases - 1), min_size=len(species), max_size=len(species))
        .filter(lambda dealt: len(set(dealt)) == gases)
    )
    bags_ = [
        data.draw(bags([s for s, k in zip(species, owner) if k == gas]))
        for gas in range(gases)
    ]
    raw = data.draw(st.lists(st.floats(1.0, 10.0), min_size=gases, max_size=gases))
    volumes = [w / math.fsum(raw) for w in raw]

    def chambers(embedding):
        return [
            GasChamber(v, temperature, v * particles, embedding(bag), f"c{k}")
            for k, (v, bag) in enumerate(zip(volumes, bags_))
        ]

    classical, c_heat = mix(chambers(lambda bag: bag), distinguishing=True)
    quantum, q_heat = mix(chambers(lambda bag: embed(bag, species)), distinguishing=True)
    assert c_heat > 0 and abs(c_heat - q_heat) <= TOL
    assert_diagonal(quantum.contents.state, classical.contents.weights, species)


@given(st.data(), SPECIES, st.sampled_from([0.0, 1e-10, 5e-10, 2e-9, 1e-6, 0.1]))
def test_contents_equal_is_the_diagonal_comparison(data, species, shift):
    a = data.draw(bags(species, min_size=2))
    first, second = list(a.weights)[:2]
    weights = {**a.weights, first: a.weights[first] + shift, second: a.weights[second] - shift}
    b = ClassicalContents(weights) if weights[second] > 0 else data.draw(bags(species))
    assert contents_equal(a, b) == contents_equal(embed(a, species), embed(b, species))


@given(st.data(), st.integers(1, 8), st.integers(1, 16))
def test_forgetting_the_second_factor_is_the_partial_trace(data, d1, d2):
    d2 = max(2 if d1 == 1 else 1, min(d2, 16 // d1))
    species = [f"{i}|{j}" for i in range(d1) for j in range(d2)]
    contents = data.draw(bags(species))
    observer = Observer.classical("first", {name: name.split("|")[0] for name in species})
    seen = view_contents(observer, contents)
    reduced = linalg.partial_trace(embed(contents, species).state.matrix, (d1, d2), "first")
    kept = [str(i) for i in range(d1)]
    expected = np.diag([seen.weights.get(name, 0.0) for name in kept])
    assert float(np.abs(reduced.entries - expected).max()) <= TOL


def diagonal(values) -> HermitianMatrix:
    return HermitianMatrix(np.diag(list(values)).astype(complex))


def quantum_twin(protocol: ast.Protocol) -> _Engine:
    """An engine for the diagonal twin of a classical script, with its states
    and instruments already in scope: ``.qg`` cannot write a rank-k diagonal
    projector.  The basis is the script's species in sorted order, each
    observer with no species map sees the full space, and EXPECT lines go."""
    statements = protocol.statements
    species = sorted(
        {name for stmt in statements if isinstance(stmt, ast.ClassicalChamberStmt)
         for name, _ in stmt.species}
        | {name for stmt in statements if isinstance(stmt, ast.ClassicalSeparateStmt)
           for name, _ in stmt.permeability}
    )
    header = protocol.header
    observers = tuple(
        Observer.quantum(obs.name) for obs in header.observers if not obs.species_map
    )
    states, instruments, twin = {}, {}, []
    for k, stmt in enumerate(statements):
        name = f"twin{k}"
        if isinstance(stmt, ast.ClassicalChamberStmt):
            total = math.fsum(w for _, w in stmt.species)
            weights = dict.fromkeys(species, 0.0)
            for species_name, w in stmt.species:
                weights[species_name] += w / total
            states[name] = QuantumContents(DensityMatrix(diagonal(weights.values())))
            twin.append(ast.ChamberStmt(stmt.position, stmt.fraction, name))
        elif isinstance(stmt, ast.ClassicalSeparateStmt):
            verdicts = dict(stmt.permeability)
            instruments[name] = ProjectiveInstrument(tuple(
                (verdict, diagonal(float(verdicts[s] == verdict) for s in species))
                for verdict in VERDICTS
            ))
            twin.append(ast.SeparateStmt(name))
        elif isinstance(stmt, ast.MixStmt):
            twin.append(replace(stmt, classical=False))
        elif not isinstance(stmt, (ast.ExpectTotalHeat, ast.ExpectVerdict)):
            twin.append(stmt)
    quantum = ast.Protocol(replace(header, dim=len(species), observers=observers), tuple(twin))
    engine = _Engine(quantum, list(observers))
    engine.scope.update(states)
    engine.instruments.update(instruments)
    return engine


TWIN_SCRIPTS = [f"classical_ledger-{seed}" for seed in range(1, 6)] + [
    "jaynes_johann", "jaynes_marie_completed",
]


@pytest.mark.parametrize("name", TWIN_SCRIPTS)
def test_a_classical_run_is_its_diagonal_twin(name):
    workload, _, seed = name.partition("-")
    if seed:
        ((_, text),) = load_workloads().GENERATORS[workload](int(seed)).scripts
    else:
        text = scenario_text(name)
    protocol = parse(text)
    classical = run_protocol(protocol)
    quantum = quantum_twin(protocol).run()
    assert len(classical.steps) == len(quantum.steps)
    for c, q in zip(classical.steps, quantum.steps):
        assert abs(c.heat - q.heat) <= TOL
        assert [ch.label for ch in c.chambers] == [ch.label for ch in q.chambers]
    assert abs(classical.total_heat - quantum.total_heat) <= TOL
    assert quantum.views
    for observer, view in quantum.views.items():
        verdict = classical.views[observer].verdict
        assert (verdict.is_cycle_claimed, verdict.is_cycle_actual, verdict.status) == (
            view.verdict.is_cycle_claimed, view.verdict.is_cycle_actual, view.verdict.status
        )
