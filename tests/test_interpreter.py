import hashlib
import json
import math
import struct
from pathlib import Path

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
    load_workloads,
    random_bag,
    random_density,
)
from qgas.errors import ExecutionError, NotOrthogonalError
from qgas.observers import Observer, _views, _weight_table, view_batch, view_contents
from qgas.protocol import engine, interpreter
from qgas.protocol.interpreter import UnitsConfig, execute
from qgas.protocol.parser import parse
from qgas.scenarios import BUNDLED, scenario_text
from qgas.thermo import QuantumContents

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def run_bundled(name: str):
    return execute(parse(scenario_text(name)))


class TestBundledRuns:
    def test_example1_heat_and_volumes(self):
        report = run_bundled("example1_distinguishable")
        assert report.total_heat_nkt() == pytest.approx(-LN2, abs=1e-12)
        final = report.result.final_chambers
        assert [c.volume for c in final] == [0.5, 0.5]
        assert report.all_expectations_passed

    def test_example2_heat_and_volumes(self):
        report = run_bundled("example2_nondistinguishable")
        assert report.total_heat_nkt() == pytest.approx(BLEND_SEPARATION_HEAT, abs=1e-12)
        final = report.result.final_chambers
        assert final[0].volume == pytest.approx(P_PLUS, abs=1e-9)
        assert final[1].volume == pytest.approx(P_MINUS, abs=1e-9)
        assert report.all_expectations_passed

    def test_peres_tatiana_expectations(self):
        report = run_bundled("peres_tatiana")
        assert report.total_heat_nkt() == pytest.approx(
            LN2 + BLEND_SEPARATION_HEAT, abs=1e-12
        )
        assert report.all_expectations_passed

    @pytest.mark.parametrize(
        "name",
        ["peres_willard_completed", "jaynes_johann", "jaynes_marie_completed"],
    )
    def test_remaining_bundled_expectations(self, name):
        assert run_bundled(name).all_expectations_passed


class TestScriptedRoundTrip:
    def test_eigenbasis_separation_reverses_exactly(self):
        # Separate an uneven blend along its own eigenbasis, then run the
        # same diaphragms backwards: the cycle closes at Q = 0.
        text = (
            "HEADER dim=2 temperature=1.0 particles=1.0\n"
            "OBSERVER lab full\n"
            "DEFINE_STATE zp ket(1, 0)\n"
            "DEFINE_STATE xp ket(0.7071067811865476, 0.7071067811865476)\n"
            "DEFINE_STATE blend mix(0.25*proj(zp) + 0.75*proj(xp))\n"
            "DEFINE_INSTRUMENT best eigenbasis-of(blend)\n"
            "CHAMBER main 1.0 blend\n"
            "SEPARATE best\n"
            "MIX distinguishing -> main\n"
            "CLAIM_CYCLE\n"
            "EXPECT Q_total ~= 0.0 1e-9\n"
            "EXPECT verdict lab satisfied\n"
        )
        report = execute(parse(text))
        assert report.all_expectations_passed
        assert abs(report.total_heat_nkt()) <= 1e-12
        verdict = report.result.views["lab"].verdict
        assert verdict.is_cycle_actual and verdict.second_law_satisfied


class TestExpectations:
    def test_failing_expectation_is_reported_not_raised(self):
        text = (
            "HEADER dim=2 temperature=1.0 particles=1.0\n"
            "OBSERVER lab full\n"
            "DEFINE_STATE zp ket(1, 0)\n"
            "DEFINE_STATE zm ket(0, 1)\n"
            "DEFINE_STATE blend mix(0.5*proj(zp) + 0.5*proj(zm))\n"
            "DEFINE_INSTRUMENT zb a=proj(zp) b=proj(zm)\n"
            "CHAMBER main 1.0 blend\n"
            "SEPARATE zb\n"
            "EXPECT Q_total ~= 1.0 0.001\n"
        )
        report = execute(parse(text))
        assert not report.all_expectations_passed
        failing = report.expectations[0]
        assert failing.kind == "Q_total"
        assert failing.observed == pytest.approx(-LN2, abs=1e-9)

    def test_verdict_expectation(self):
        report = run_bundled("jaynes_johann")
        verdicts = {e.expected: e for e in report.expectations if e.kind == "verdict"}
        assert verdicts["violation"].passed
        assert verdicts["not_applicable"].passed


class TestRuntimeErrors:
    def test_error_carries_statement_line(self):
        text = (
            "HEADER dim=2 temperature=1.0 particles=1.0\n"
            "OBSERVER lab full\n"
            "DEFINE_STATE zp ket(1, 0)\n"
            "DEFINE_STATE xp ket(0.7071067811865476, 0.7071067811865476)\n"
            "DEFINE_STATE a proj(zp)\n"
            "DEFINE_STATE b proj(xp)\n"
            "CHAMBER upper 0.5 a\n"
            "CHAMBER lower 0.5 b\n"
            "MIX distinguishing -> whole\n"
        )
        with pytest.raises(ExecutionError) as err:
            execute(parse(text))
        assert err.value.line == 9
        assert isinstance(err.value.__cause__, NotOrthogonalError)

    def test_unknown_chamber_position(self):
        text = (
            "HEADER dim=2 temperature=1.0 particles=1.0\n"
            "DEFINE_STATE zp ket(1, 0)\n"
            "DEFINE_STATE s proj(zp)\n"
            "CHAMBER main 1.0 s\n"
            "ROTATE elsewhere rotate_to(zp, zp)\n"
        )
        with pytest.raises(ExecutionError) as err:
            execute(parse(text))
        assert err.value.line == 5


class TestJsonReport:
    def test_deterministic_bytes(self):
        a = run_bundled("peres_tatiana").to_json()
        b = run_bundled("peres_tatiana").to_json()
        assert a == b

    def test_schema_shape(self):
        payload = run_bundled("peres_tatiana").to_json_dict()
        assert payload["schema"] == "1"
        assert payload["units"] == "NkT"
        names = [o["name"] for o in payload["observers"]]
        assert names == ["tatiana", "willard"]
        tatiana = payload["observers"][0]
        assert tatiana["total_Q"] == pytest.approx(0.276652, abs=1e-6)
        assert tatiana["verdict"]["second_law"] == "violated"
        step = tatiana["steps"][0]
        assert set(step) == {"index", "description", "Q", "chambers"}
        chamber = step["chambers"][0]
        assert set(chamber) == {"position", "volume", "particles", "contents_digest"}
        digest = chamber["contents_digest"]
        assert digest["kind"] == "quantum"
        assert "hash" in digest and "eigenvalues" in digest

    def test_expectations_in_payload(self):
        payload = run_bundled("example1_distinguishable").to_json_dict()
        assert payload["expectations"][0]["passed"] is True

    def test_classical_digest(self):
        payload = run_bundled("jaynes_johann").to_json_dict()
        digest = payload["observers"][0]["steps"][0]["chambers"][0]["contents_digest"]
        assert digest["kind"] == "classical"
        assert digest["species"] == {"argon": 1.0}

    def test_valid_json(self):
        parsed = json.loads(run_bundled("jaynes_marie_completed").to_json())
        assert parsed["schema"] == "1"

    def test_absolute_units(self):
        report = run_bundled("example1_distinguishable")
        absolute = report.to_json_dict(
            UnitsConfig(mode="absolute", boltzmann_constant=2.0, particles=3.0, temperature=5.0)
        )
        nkt = report.to_json_dict()
        assert absolute["units"] == "absolute"
        assert absolute["observers"][0]["total_Q"] == pytest.approx(
            nkt["observers"][0]["total_Q"] * 2.0 * 3.0 * 5.0
        )


def reference_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)


ABSOLUTE = UnitsConfig(
    mode="absolute", boltzmann_constant=1.380649e-23, particles=6.02e23, temperature=300.0
)

def report_scripts():
    """The bundled scripts, generated ones, and the shapes no bundled report has."""
    for name in BUNDLED:
        yield name, scenario_text(name)
    workloads = load_workloads()
    for workload in ("deep_protocol", "classical_ledger"):
        for seed in (1, 2):
            ((_, text),) = workloads.GENERATORS[workload](seed).scripts
            yield f"{workload}-{seed}", text
    chambers = (
        "HEADER dim=2 temperature=1.0 particles=1.0\n"
        "OBSERVER lab full\n"
        "DEFINE_STATE zp ket(1, 0)\n"
        "DEFINE_STATE s proj(zp)\n"
        "CHAMBER upper 0.5 s\n"
        "CHAMBER lower 0.5 s\n"
    )
    yield "no_steps", chambers
    yield "no_expect", chambers + "REMOVE_PARTITION upper lower -> whole\n"
    yield "no_observer", chambers.replace("OBSERVER lab full\n", "") + "MIX free\n"
    # The same shapes for a classical run, whose report is one weight table.
    classical = (
        "HEADER classical temperature=1.0 particles=1.0\n"
        "OBSERVER lab classical\n"
        "CLASSICAL_CHAMBER upper 0.5 argon=1\n"
        "CLASSICAL_CHAMBER lower 0.5 argon=1\n"
    )
    yield "classical_no_steps", classical
    yield "classical_no_expect", classical + "REMOVE_PARTITION upper lower -> whole\n"
    yield "classical_no_observer", (
        classical.replace("OBSERVER lab classical\n", "") + "CLASSICAL_MIX free -> whole\n"
    )
    # Species maps that swap two names, rename onto a true species, and pool;
    # a weight below 1.0001e-4 is spelled by repr.
    yield "classical_species_maps", (
        "HEADER classical temperature=1.0 particles=1.0\n"
        "OBSERVER exact classical\n"
        "OBSERVER swap classical x=z z=x\n"
        "OBSERVER onto classical a=b\n"
        "OBSERVER pool classical a=g x=g z=g\n"
        "CLASSICAL_CHAMBER left 0.5 a=0.00005 b=0.29995 x=0.3 z=0.4\n"
        "CLASSICAL_CHAMBER right 0.5 b=0.6 z=0.4\n"
        "CLASSICAL_MIX free -> gas\n"
        "CLASSICAL_SEPARATE a=reflected b=transmitted x=reflected z=transmitted\n"
        "CLASSICAL_MIX free -> gas\n"
        "PARTITION gas 0.25 0.75 -> upper lower\n"
        "CLAIM_CYCLE\n"
    )
    for path in sorted(FIXTURES.glob("*.qg")):
        yield path.name, path.read_text()


SCRIPTS = dict(report_scripts())

# The report spells 1.0001e-4 <= |x| < 999 by '%.12f' and every other float
# by repr of its rounded value; both must give json.dumps' text.
_EDGES = (1.0001e-4, 999.0)


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _ulps_away(x: float, k: int) -> float:
    """The float k steps of one ulp from a positive x."""
    return struct.unpack("<d", struct.pack("<q", _bits(x) + k))[0]


def _bit_patterns(low: float, high: float):
    """Positive floats in [low, high), drawn over their bit patterns."""
    return st.integers(0, _bits(high) - _bits(low) - 1).map(lambda k: _ulps_away(low, k))


def _signed(floats):
    return st.tuples(floats, st.booleans()).map(lambda drawn: -drawn[0] if drawn[1] else drawn[0])


_FIXED_RANGE = _bit_patterns(*_EDGES)
# Past either edge '%.12f' is not repr's text: exponent notation below 1e-4,
# fewer digits than 12 decimals once the float spacing passes 1e-12 (8192).
_BEYOND_EDGES = st.one_of(_bit_patterns(1e-7, _EDGES[0]), _bit_patterns(_EDGES[1], 1e5))
_NEAR_EDGES = st.builds(_ulps_away, st.sampled_from(_EDGES), st.integers(-1000, 1000))
# (m + 1/2) * 1e-12, the ties of a 12-decimal rounding, and their neighbours.
_HALF_WAY = st.builds(
    lambda m, k: _ulps_away(float(f"{m}5e-13"), k),
    st.integers(int(_EDGES[0] * 1e12), int(_EDGES[1] * 1e12) - 1),
    st.integers(-1, 1),
)


class TestWriter:
    """The report renderer writes the text of ``json.dumps(..., indent=1)``."""

    @settings(max_examples=1000)
    @given(st.one_of(
        st.floats(),
        st.sampled_from([-0.0, 5e-324, 1e300, -1e-13]),
        _signed(_FIXED_RANGE),
        _signed(_BEYOND_EDGES),
        _signed(_NEAR_EDGES),
        _signed(_HALF_WAY),
    ))
    def test_rounded_float_text_matches_json_dumps(self, value):
        floats = interpreter._Floats()
        assert floats[value] == json.dumps(interpreter._round(value))
        assert floats[value] == json.dumps(interpreter._round(value))  # memoised

    @pytest.mark.parametrize(
        "value",
        [9.5e-05, 8192.544229225, math.nextafter(5e-13, 0), 5e-13, 4.9e-13, 5.1e-13, 0.0,
         5e-324, math.nan, math.inf],
    )
    def test_floats_past_the_fixed_range_are_spelled_by_repr(self, value):
        # '%.12f' would write 0.000095 and 8192.544229225001; below 5e-13 in
        # magnitude the text is "0.0" without _round.
        for x in (value, -value):
            assert interpreter._Floats()[x] == json.dumps(interpreter._round(x))

    @pytest.mark.parametrize("units", [UnitsConfig(), ABSOLUTE], ids=["nkt", "absolute"])
    @pytest.mark.parametrize("name", list(SCRIPTS))
    def test_report_bytes_match_json_dumps(self, name, units):
        report = execute(parse(SCRIPTS[name]))
        assert report.to_json(units) == reference_json(report.to_json_dict(units))

    def test_report_without_observers_matches_json_dumps(self):
        report = execute(parse(scenario_text("peres_tatiana")), observers=[])
        payload = report.to_json_dict()
        assert payload["observers"] == []
        assert report.to_json() == reference_json(payload)


@pytest.mark.parametrize("name", ["peres_tatiana", "jaynes_johann", "jaynes_marie_completed"])
def test_each_view_of_a_contents_object_is_digested_once(name, monkeypatch):
    # The engine views each (observer, contents object) pair of the initial
    # and final chambers once, for the cycle verdict.  The report makes one
    # ``_views`` pass over the distinct step contents, which builds one weight
    # table for a classical run and none for a quantum one, and digests each
    # (observer, contents object) pair once.
    viewed, passes, tables, digested = [], [], [], []
    view_batch, views, weight_table = engine.view_batch, interpreter._views, _weight_table
    state_texts, weight_texts = interpreter._state_texts, interpreter._weight_texts

    def counting_views(observer, truths):
        viewed.extend((observer.name, id(contents)) for contents in truths)
        return view_batch(observer, truths)

    def counting_pass(observers, truths):
        passes.append([id(contents) for contents in truths])
        return views(observers, truths)

    def counting_table(truths):
        tables.append(len(truths))
        return weight_table(truths)

    def counting_states(stack, spectra, floats):
        digested.extend(stack)
        return state_texts(stack, spectra, floats)

    def counting_rows(names, table, floats):
        digested.extend(table)
        return weight_texts(names, table, floats)

    monkeypatch.setattr(engine, "view_batch", counting_views)
    report = run_bundled(name)
    monkeypatch.setattr(interpreter, "_views", counting_pass)
    monkeypatch.setattr("qgas.observers._weight_table", counting_table)
    monkeypatch.setattr(interpreter, "_state_texts", counting_states)
    monkeypatch.setattr(interpreter, "_weight_texts", counting_rows)
    payload = report.to_json_dict()
    result = report.result
    steps = result.steps
    distinct = {id(c.contents) for step in steps for c in step.chambers}
    assert len(distinct) < sum(len(step.chambers) for step in steps)
    ends = {id(c.contents) for c in result.initial_chambers + result.final_chambers}
    observers = result.observers
    assert len(viewed) == len(set(viewed)) == len(observers) * len(ends)
    ((seen,),) = [passes]
    assert len(seen) == len(set(seen)) and set(seen) == distinct
    assert tables == ([len(distinct)] if result.header.dim is None else [])
    assert len(digested) == len(observers) * len(distinct)

    # PARTITION siblings hold one contents object, so they show one digest.
    (k,) = [i for i, step in enumerate(steps) if step.description.startswith("partition")]
    siblings = [
        i for i, c in enumerate(steps[k].chambers)
        if sum(d.contents is c.contents for d in steps[k].chambers) > 1
    ]
    assert len(siblings) >= 2
    for observer in payload["observers"]:
        digests = [observer["steps"][k]["chambers"][i]["contents_digest"] for i in siblings]
        assert all(d == digests[0] for d in digests)


@given(
    st.sampled_from(["full", "reducing", "exact", "merging"]),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_each_observers_rows_digest_as_its_views(kind, seed, data):
    # One ``_views`` pass gives rows that digest as each view_contents(...)
    # result digested alone, for every kind of observer (reducing ones at
    # d = 4 and 8, either factor kept), and view_batch gives those views.
    rng = np.random.default_rng(seed)
    count = data.draw(st.integers(1, 6))
    if kind in ("full", "reducing"):
        dims = data.draw(st.sampled_from([(2, 2), (2, 4), (4, 2)]))
        keep = data.draw(st.sampled_from(["first", "second"]))
        observer = Observer.quantum("o", (*dims, keep) if kind == "reducing" else None)
        dim = dims[0] * dims[1]
        truths = [
            QuantumContents(random_density(rng, dim, data.draw(st.integers(1, dim))))
            for _ in range(count)
        ]
        digest = interpreter._state_texts
    else:
        held = st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1, unique=True)
        truths = [random_bag(rng, data.draw(held)) for _ in range(count)]
        merge = {"a": "x", "b": "x", "c": "d"} if kind == "merging" else None
        observer = Observer.classical("o", merge)
        digest = interpreter._weight_texts
    (rows,) = _views([observer], truths)
    alone = [view_contents(observer, truth) for truth in truths]
    assert digest(*rows, interpreter._Floats()) == [digest_text(view) for view in alone]
    batch = list(view_batch(observer, truths))
    assert batch == alone
    if kind == "reducing":
        assert [v.state.eigenvalues for v in batch] == [v.state.eigenvalues for v in alone]
    elif kind in ("full", "exact"):
        assert all(v is truth for v, truth in zip(batch, truths, strict=True))


EMPTY_RUNS = {
    "quantum": (
        "HEADER dim=4 temperature=1.0 particles=1.0\n"
        "OBSERVER tatiana reduce 2 2 first\nOBSERVER willard full\n"
        "DEFINE_STATE up proj(tensor(ket(1, 0), ket(1, 0)))\n"
        "DEFINE_STATE low proj(tensor(ket(0.7071067811865476, 0.7071067811865476), ket(0, 1)))\n"
        "CHAMBER upper 0.5 up\nCHAMBER lower 0.5 low\n",
        "b08839c576ba2b04496195b19bcb74f05eedc5df13e51b11800bbf44becc91c8",
    ),
    "classical": (
        "HEADER classical temperature=1.0 particles=1.0\n"
        "OBSERVER johann classical argon_a=argon argon_b=argon\nOBSERVER marie classical\n"
        "CLASSICAL_CHAMBER upper 0.5 argon_a=1\nCLASSICAL_CHAMBER lower 0.5 argon_b=1\n",
        "c144b4388eeaa9b91b71f2f8d40c2dd54e1078e6f41c22626e08c4a2ef9185f0",
    ),
}


@pytest.mark.parametrize("variant", list(EMPTY_RUNS))
def test_a_run_without_operations_reports_no_step_contents(variant):
    # Chambers and a reducing or merging observer but no operation: the
    # report's view pass gets no contents, and each observer's steps are [].
    # The variant of the pass comes from the observers, not from a contents.
    text, sha256 = EMPTY_RUNS[variant]
    report = execute(parse(text))
    out = report.to_json()
    assert [o["steps"] for o in json.loads(out)["observers"]] == [[], []]
    assert hashlib.sha256(out.encode()).hexdigest() == sha256
