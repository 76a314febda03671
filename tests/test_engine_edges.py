"""Engine edge paths: bad chamber bookkeeping and guarded merges."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from qgas import linalg
from qgas.errors import ExecutionError, IncompatibleReductionError
from qgas.observers import Observer
from qgas.protocol import ast, engine
from qgas.protocol.engine import run_protocol
from qgas.protocol.interpreter import execute
from qgas.protocol.parser import parse
from qgas.scenarios import scenario_text
from qgas.statistics import DensityMatrix
from qgas.thermo import ClassicalContents

PRELUDE = (
    "HEADER dim=2 temperature=1.0 particles=1.0\n"
    "OBSERVER lab full\n"
    "DEFINE_STATE zp ket(1, 0)\n"
    "DEFINE_STATE zm ket(0, 1)\n"
    "DEFINE_STATE zs proj(zp)\n"
    "DEFINE_STATE ms proj(zm)\n"
)


def test_duplicate_chamber_position():
    text = PRELUDE + "CHAMBER main 0.5 zs\nCHAMBER main 0.5 ms\n"
    with pytest.raises(ExecutionError) as err:
        execute(parse(text))
    assert "already exists" in str(err.value)
    assert err.value.line == 8


def test_remove_partition_between_different_gases_refused():
    text = PRELUDE + (
        "CHAMBER upper 0.5 zs\n"
        "CHAMBER lower 0.5 ms\n"
        "REMOVE_PARTITION -> whole\n"
    )
    with pytest.raises(ExecutionError) as err:
        execute(parse(text))
    assert "irreversible" in str(err.value)
    assert err.value.line == 9


def test_rotate_unknown_unitary_dim():
    text = PRELUDE + (
        "CHAMBER main 1.0 zs\n"
        "ROTATE main tensor(rotate_to(zp, zm), identity(2))\n"
    )
    with pytest.raises(ExecutionError) as err:
        execute(parse(text))
    assert str(err.value) == "line 8, col 1: unitary shape (4, 4) does not match dimension 2"


def test_rotate_accepts_pure_state_endpoints():
    # rotate_to endpoints may be rank-1 states, not just kets.
    text = PRELUDE + (
        "CHAMBER main 1.0 zs\n"
        "ROTATE main rotate_to(zs, ms)\n"
    )
    report = execute(parse(text))
    final = report.result.final_chambers[0]
    from qgas import spin
    from qgas.statistics import DensityMatrix
    from qgas.thermo import QuantumContents, contents_equal

    assert contents_equal(
        final.contents, QuantumContents(DensityMatrix(spin.z_minus()))
    )


def test_rotate_rejects_mixed_state_endpoint():
    text = PRELUDE + (
        "DEFINE_STATE blend mix(0.5*zs + 0.5*ms)\n"
        "CHAMBER main 1.0 blend\n"
        "ROTATE main rotate_to(blend, zs)\n"
    )
    with pytest.raises(ExecutionError) as err:
        execute(parse(text))
    assert "pure" in str(err.value)


def test_wrong_instrument_dimension_reports_step_line():
    text = (
        "HEADER dim=4 temperature=1.0 particles=1.0\n"
        "OBSERVER lab full\n"
        "DEFINE_STATE zp ket(1, 0)\n"
        "DEFINE_STATE zm ket(0, 1)\n"
        "DEFINE_STATE zz proj(tensor(zp, zp))\n"
        "DEFINE_INSTRUMENT small a=proj(zp) b=proj(zm)\n"
        "CHAMBER main 1.0 zz\n"
        "SEPARATE small\n"
    )
    with pytest.raises(ExecutionError) as err:
        execute(parse(text))
    assert err.value.line == 8


def test_quantum_observer_on_classical_scenario_rejected():
    text = (
        "HEADER classical temperature=1.0 particles=1.0\n"
        "CLASSICAL_CHAMBER main 1.0 argon=1\n"
    )
    with pytest.raises(IncompatibleReductionError):
        run_protocol(parse(text), observers=[Observer.quantum("lab")])


@pytest.mark.parametrize(
    "header, observer, message",
    [
        ("HEADER classical temperature=1.0 particles=1.0\n", Observer.quantum("lab"),
         "quantum observer 'lab' cannot view classical contents"),
        ("HEADER dim=2 temperature=1.0 particles=1.0\n", Observer.classical("lab"),
         "classical observer 'lab' cannot view quantum contents"),
        ("HEADER dim=4 temperature=1.0 particles=1.0\n", Observer.quantum("lab", (2, 3, "first")),
         "observer 'lab' reduction 2x3 does not fit dimension 4"),
    ],
    ids=["quantum-on-classical", "classical-on-quantum", "reduction"],
)
def test_observers_are_checked_as_the_run_starts(header, observer, message):
    with pytest.raises(IncompatibleReductionError, match=f"^{re.escape(message)}$"):
        run_protocol(parse(header), observers=[observer])


def test_expect_verdict_for_absent_observer_fails_cleanly():
    text = PRELUDE + (
        "CHAMBER main 1.0 zs\n"
        "CLAIM_CYCLE\n"
        "EXPECT verdict lab satisfied\n"
    )
    report = execute(parse(text), observers=[Observer.quantum("someone_else")])
    assert not report.all_expectations_passed
    assert report.expectations[0].observed == "observer absent from this run"


def test_mix_unknown_position_lists_available():
    text = PRELUDE + (
        "CHAMBER upper 0.5 zs\n"
        "CHAMBER lower 0.5 ms\n"
        "MIX distinguishing upper missing -> whole\n"
    )
    with pytest.raises(ExecutionError) as err:
        execute(parse(text))
    assert "missing" in str(err.value)
    assert "lower" in str(err.value)


@pytest.mark.parametrize(
    "operation",
    ["REMOVE_PARTITION u u -> w", "MIX distinguishing u u l"],
    ids=["remove-partition", "mix"],
)
def test_repeated_position_rejected(operation):
    text = PRELUDE + (
        "CHAMBER u 0.5 zs\n"
        "CHAMBER l 0.5 ms\n"
        f"{operation}\n"
    )
    with pytest.raises(ExecutionError) as err:
        execute(parse(text))
    assert "'u'" in str(err.value)
    assert "twice" in str(err.value)
    assert (err.value.line, err.value.column) == (9, 1)


CLASSICAL_PRELUDE = (
    "HEADER classical temperature=1.0 particles=1.0\n"
    "OBSERVER lab classical\n"
    "CLASSICAL_CHAMBER upper 0.5 argon_a=1\n"
    "CLASSICAL_CHAMBER lower 0.5 argon_b=1\n"
)
QUANTUM_CHAMBERS = PRELUDE + "CHAMBER upper 0.5 zs\nCHAMBER lower 0.5 ms\n"


@pytest.mark.parametrize(
    "text",
    [
        CLASSICAL_PRELUDE + "MIX distinguishing -> whole\n",
        CLASSICAL_PRELUDE + "MIX free -> whole\n",
        QUANTUM_CHAMBERS + "CLASSICAL_MIX distinguishing -> whole\n",
        QUANTUM_CHAMBERS + "CLASSICAL_SEPARATE zp=transmitted\n",
    ],
    ids=["mix-distinguishing", "mix-free", "classical-mix", "classical-separate"],
)
def test_keyword_needs_matching_scenario_variant(text):
    with pytest.raises(ExecutionError) as err:
        execute(parse(text))
    assert err.value.line == text.count("\n")


def test_chambers_naming_one_state_share_its_contents():
    result = run_protocol(parse(PRELUDE + "CHAMBER upper 0.5 zs\nCHAMBER lower 0.5 zs\n"))
    upper, lower = result.final_chambers
    assert upper.contents is lower.contents


def test_steps_keep_ground_truth_snapshots():
    result = run_protocol(parse(scenario_text("peres_tatiana")))
    last = result.steps[-1].chambers
    assert len(last) == len(result.final_chambers)
    for snapshot, final in zip(last, result.final_chambers):
        assert snapshot is final


def test_pure_state_assembles_to_its_own_matrix():
    result = run_protocol(parse(PRELUDE + "CHAMBER main 1.0 zs\n"))
    contents = result.final_chambers[0].contents
    assert contents.assembled() is contents.state


@pytest.mark.parametrize("weight", ["0.50000000001", "0.5000000002"])
def test_mixture_weights_checked_once_at_the_mix(weight):
    text = (
        "HEADER dim=2 temperature=1.0 particles=1.0\n"
        "DEFINE_STATE a ket(1, 0)\n"
        "DEFINE_STATE b ket(0, 1)\n"
        f"DEFINE_STATE m mix(0.5*proj(a) + {weight}*proj(b))\n"
    )
    with pytest.raises(ExecutionError) as err:
        execute(parse(text))
    assert "mixture weights must be convex" in str(err.value)
    assert (err.value.line, err.value.column) == (4, 16)


def test_step_that_leaves_the_container_half_empty_is_refused():
    # Built in code: the parser would reject these fractions before any step.
    header = ast.Header(None, 1.0, 2.0, (Observer.classical("lab"),))
    protocol = ast.Protocol(header, (
        ast.ClassicalChamberStmt("a", 0.25, (("argon", 1.0),), line=2, col=1),
        ast.ClassicalChamberStmt("b", 0.25, (("neon", 1.0),), line=3, col=1),
        ast.ClaimCycleStmt(line=4, col=3),
    ))
    with pytest.raises(ExecutionError) as err:
        run_protocol(protocol)
    assert "total volume 0.5" in str(err.value)
    assert (err.value.line, err.value.column) == (4, 3)


def test_separation_that_loses_particles_is_refused(monkeypatch):
    split = engine.diaphragm.classical_separate

    def leaky(chamber, permeability):
        result = split(chamber, permeability)
        lost = tuple(replace(c, particles=c.particles / 2) for c in result.chambers)
        return replace(result, chambers=lost)

    monkeypatch.setattr(engine.diaphragm, "classical_separate", leaky)
    with pytest.raises(ExecutionError) as err:
        execute(parse(
            CLASSICAL_PRELUDE + "CLASSICAL_SEPARATE argon_a=transmitted argon_b=reflected\n"
        ))
    assert "total particles 0.5" in str(err.value)
    assert (err.value.line, err.value.column) == (5, 1)


def test_unlikely_outcome_separates_into_a_unit_trace_state():
    # p_down = 1e-8: the post-state P rho P / p is known to about 1e-16 / p,
    # so the outcome lies below RESOLUTION_BOUND and the SEPARATE line fails.
    up = (0.955336489125606, 0.29552020666133955)
    down = (-0.29552020666133955, 0.955336489125606)
    gas = (0.9553069323282575, 0.29561573883265113)
    text = (
        "HEADER dim=2 temperature=1.0 particles=1.0\n"
        f"DEFINE_STATE s proj(ket{gas})\n"
        f"DEFINE_INSTRUMENT tilt up=proj(ket{up}) down=proj(ket{down})\n"
        "CHAMBER main 1.0 s\n"
        "SEPARATE tilt\n"
    )
    with pytest.raises(ExecutionError) as err:
        execute(parse(text))
    assert (err.value.line, err.value.column) == (5, 1)
    assert str(err.value) == (
        "line 5, col 1: outcome down has p = 9.999999994736442e-09, "
        "below the resolution bound 1e-05"
    )


# Three mixed d = 4 gases, freely mixed and then rotated.
MIX_AND_ROTATE = (
    "HEADER dim=4 temperature=1.0 particles=1.0\n"
    "DEFINE_STATE a mix(0.5*proj(ket(1, 0, 0, 0)) + 0.5*proj(ket(0, 1, 0, 0)))\n"
    "DEFINE_STATE b mix(0.25*proj(ket(0, 0, 1, 0)) + 0.75*a)\n"
    "DEFINE_STATE c proj(ket(0, 0, 0, 1))\n"
    "CHAMBER p 0.25 a\n"
    "CHAMBER q 0.25 b\n"
    "CHAMBER r 0.5 c\n"
    "MIX free p q r -> all\n"
    "ROTATE all rotate_to(ket(1, 0, 0, 0), ket(0, 0, 0, 1))\n"
)


def test_free_mix_and_rotation_each_build_one_state(monkeypatch):
    # Counted at the hooks the bench tracer patches: every DensityMatrix
    # construction runs __post_init__, and every statement _dispatch.
    built = []
    validate = DensityMatrix.__post_init__
    dispatch = engine._Engine._dispatch
    per_statement = {}

    def counted_validate(self):
        built.append(self)
        validate(self)

    def counted_dispatch(self, index, stmt):
        before = len(built)
        dispatch(self, index, stmt)
        per_statement[type(stmt).__name__] = len(built) - before

    monkeypatch.setattr(DensityMatrix, "__post_init__", counted_validate)
    monkeypatch.setattr(engine._Engine, "_dispatch", counted_dispatch)
    result = run_protocol(parse(MIX_AND_ROTATE))
    assert per_statement["MixStmt"] == 1
    assert per_statement["RotateStmt"] == 1
    (chamber,) = result.final_chambers
    contents = chamber.contents
    assert contents.assembled() is contents.state
    # 0.25 a + 0.25 b + 0.5 c = diag(0.21875, 0.21875, 0.0625, 0.5), then
    # the rotation swaps the first and last basis states.
    expected = np.diag([0.5, 0.21875, 0.0625, 0.21875])
    assert np.abs(contents.state.matrix.entries - expected).max() <= 1e-12


PARTITION_AND_REMOVE = (
    "HEADER dim=4 temperature=1.0 particles=1.0\n"
    "DEFINE_STATE a mix(0.5*proj(ket(1, 0, 0, 0)) + 0.25*proj(ket(0, 1, 0, 0))"
    " + 0.25*proj(ket(0, 0, 0, 1)))\n"
    "CHAMBER gas 1.0 a\n"
    "PARTITION gas 0.2 0.3 0.5 -> g0 g1 g2\n"
    "REMOVE_PARTITION -> gas\n"
)


def test_removing_the_walls_of_one_gas_builds_no_state(monkeypatch):
    built = []
    validate = DensityMatrix.__post_init__
    dispatch = engine._Engine._dispatch
    per_statement = {}

    def counted_validate(self):
        built.append(self)
        validate(self)

    def counted_dispatch(self, index, stmt):
        before = len(built)
        dispatch(self, index, stmt)
        per_statement[type(stmt).__name__] = len(built) - before

    monkeypatch.setattr(DensityMatrix, "__post_init__", counted_validate)
    monkeypatch.setattr(engine._Engine, "_dispatch", counted_dispatch)
    result = run_protocol(parse(PARTITION_AND_REMOVE))
    assert per_statement["RemovePartitionStmt"] == 0
    partitioned = result.steps[0].chambers[0].contents
    assert result.initial_chambers[0].contents is partitioned
    (chamber,) = result.final_chambers
    assert chamber.contents is partitioned
    assert (chamber.label, chamber.volume, chamber.particles) == ("gas", 1.0, 1.0)
    assert result.total_heat == 0.0


def test_removing_the_walls_of_one_classical_gas_merges_nothing(monkeypatch):
    merges = []
    merge = ClassicalContents.merge

    def counted(parts):
        merges.append(parts)
        return merge(parts)

    monkeypatch.setattr(ClassicalContents, "merge", staticmethod(counted))
    text = (
        "HEADER classical temperature=1.0 particles=1.0\n"
        "CLASSICAL_CHAMBER gas 1.0 argon=0.25 neon=0.5 xenon=0.25\n"
        "PARTITION gas 0.2 0.3 0.5 -> g0 g1 g2\n"
        "REMOVE_PARTITION -> gas\n"
    )
    result = run_protocol(parse(text))
    assert merges == []
    (chamber,) = result.final_chambers
    assert chamber.contents is result.initial_chambers[0].contents
    assert result.total_heat == 0.0
