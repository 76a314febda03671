"""Byte-identity of the bundled and generated scenarios' JSON reports.

``perfbench/golden_reports.json`` holds the sha256 of each bundled
scenario's report.  Any refactor must leave these bytes unchanged; the
file is read here and never rewritten.  The bench's generated workloads
are pinned too, at two seeds each, on scripts kept in ``fixtures/``: the
generator (``perfbench/workloads.py``, loaded read-only) writes its
reference total heat with ``repr``, and the last digits of that numpy sum
depend on the BLAS kernel, so the pins read the scripts it wrote once.  A
test checks that the generator still writes them, up to those digits.
Seeds 3-20 are pinned on the generator's scripts less that line
(``fixtures/generated_seeds.json``): a script pin that fails is a generator
change, a report pin that fails a qgas change.

The report digests its views in batches; each digest must equal the one
made from a single ``view_contents`` call.  The same reports are made with
numpy's N-d helpers that the small-matrix primitives avoid set to raise,
with ``np.eye`` set to raise, with the observer fit rule counted, with
every float spelled by ``repr`` of its rounded value, and in one child
process per OpenBLAS kernel.
"""

import hashlib
import json
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import digest_text, load_workloads, subprocess_env
from qgas import observers
from qgas.observers import view_contents
from qgas.protocol import execute, interpreter, parse
from qgas.protocol.interpreter import UnitsConfig
from qgas.scenarios import BUNDLED, scenario_text

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden_reports.json").read_text()
)
GENERATED = {
    ("deep_protocol", 1): "87436cd7763fa50b177848ceb41a6baf7e0c4bd7dab486ce2fb2528ea78905af",
    ("deep_protocol", 2): "d0620bca04f8a9c908c9c425a1fcfba3f12ffd5043af98e9bd1946a896399676",
    ("classical_ledger", 1): "8f0914e61e0837815ae58afea7ef9ff508f01bd46dbf852907535060bc059ddc",
    ("classical_ledger", 2): "e190b24767f46cd4dbe28203e1b5b283246558ba576a0d95c1a0359405616cf4",
}
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def pinned_script(workload: str, seed: int) -> str:
    return (FIXTURES / f"{workload}-{seed}.qg").read_text()


def pinned_cases() -> dict[str, tuple[str, str]]:
    """Name -> (script, sha256 of its report) for the golden and pinned reports."""
    cases = {name: (scenario_text(name), GOLDEN[name]) for name in BUNDLED}
    for (workload, seed), digest in GENERATED.items():
        cases[f"{workload}-{seed}"] = (pinned_script(workload, seed), digest)
    return cases


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def assert_pinned_reports(cases: dict[str, tuple[str, str]]) -> None:
    for name, (text, digest) in cases.items():
        assert sha256(execute(parse(text)).to_json()) == digest, name


@pytest.mark.parametrize("name", BUNDLED)
def test_report_matches_golden_digest(name):
    report_json = execute(parse(scenario_text(name))).to_json()
    assert sha256(report_json) == GOLDEN[name]


@pytest.mark.parametrize("workload, seed", list(GENERATED))
def test_generated_report_matches_pinned_digest(workload, seed):
    report_json = execute(parse(pinned_script(workload, seed))).to_json()
    assert sha256(report_json) == GENERATED[workload, seed]


@pytest.mark.parametrize("workload, seed", list(GENERATED))
def test_generator_still_writes_the_pinned_scripts(workload, seed):
    # Every line is the fixture's but the reference total heat, whose last
    # digits follow the BLAS kernel that summed it.
    ((_, text),) = load_workloads().GENERATORS[workload](seed).scripts
    kept = pinned_script(workload, seed).splitlines()
    for line, fixed in zip(text.splitlines(), kept, strict=True):
        if fixed.startswith("EXPECT Q_total"):
            *words, value, tol = line.split()
            *fixed_words, fixed_value, fixed_tol = fixed.split()
            assert (words, tol) == (fixed_words, fixed_tol)
            assert abs(float(value) - float(fixed_value)) <= 1e-12
        else:
            assert line == fixed


# Seeds 3-20 of both generators: the sha256 of each script less its EXPECT
# Q_total line (the one line whose digits follow the BLAS kernel) and of its
# report in both units, written once by the generator and qgas of one commit.
SEED_PINS = json.loads((FIXTURES / "generated_seeds.json").read_text())
ABSOLUTE = UnitsConfig("absolute", boltzmann_constant=1.380649e-23)


@pytest.fixture(scope="module")
def workloads():
    return load_workloads()


@pytest.mark.parametrize("name", list(SEED_PINS))
def test_generated_seed_reports_match_their_pins(workloads, name):
    workload, seed = name.rsplit("-", 1)
    ((_, text),) = workloads.GENERATORS[workload](int(seed)).scripts
    text = "".join(
        line for line in text.splitlines(keepends=True) if not line.startswith("EXPECT Q_total")
    )
    pins = SEED_PINS[name]
    assert sha256(text) == pins["script"], f"the generator changed {name}, not qgas"
    report = execute(parse(text))
    assert sha256(report.to_json()) == pins["nkt"]
    assert sha256(report.to_json(ABSOLUTE)) == pins["absolute"]


@pytest.mark.parametrize("name", [*BUNDLED, "deep_protocol-3"])
def test_batched_digests_match_one_pair_at_a_time(name):
    if name in BUNDLED:
        text = scenario_text(name)
    else:
        ((_, text),) = load_workloads().GENERATORS["deep_protocol"](3).scripts
    report = execute(parse(text))
    payload = report.to_json_dict()
    steps = report.result.steps
    for obs, observer in zip(report.result.observers, payload["observers"]):
        for step, rendered in zip(steps, observer["steps"]):
            for chamber, shown in zip(step.chambers, rendered["chambers"], strict=True):
                alone = digest_text(view_contents(obs, chamber.contents))
                assert shown["contents_digest"] == json.loads(alone)


def _banned(*args, **kwargs):
    raise AssertionError("the run called a function it should not need")


def test_reports_need_no_numpy_nd_helpers(monkeypatch):
    cases = pinned_cases()
    cases = {name: cases[name] for name in [*BUNDLED, "deep_protocol-1"]}
    for owner, name in ((np, "kron"), (np, "outer"), (np.linalg, "norm")):
        monkeypatch.setattr(owner, name, _banned)
    assert_pinned_reports(cases)


def test_reports_need_no_fresh_identity(monkeypatch):
    # One warm-up run makes the shared identity of each dimension.
    cases = pinned_cases()
    assert_pinned_reports(cases)
    monkeypatch.setattr(np, "eye", _banned)
    assert_pinned_reports(cases)


def test_runs_check_observers_once_at_the_boundary(monkeypatch):
    # A run fits each observer with Observer.check_fits once, as it starts;
    # no view inside the run or the report checks an observer again.
    calls = []
    fits = observers.Observer.check_fits

    def counted(self, dim):
        calls.append(self.name)
        fits(self, dim)

    monkeypatch.setattr(observers.Observer, "check_fits", counted)
    for name, (text, digest) in pinned_cases().items():
        calls.clear()
        report = execute(parse(text))
        assert sha256(report.to_json()) == digest, name
        assert calls == [obs.name for obs in report.result.observers], name


def test_reports_round_no_value_that_spells_zero(monkeypatch):
    # The speller writes "0.0" for |x| < 5e-13 before it would call _round.
    report = execute(parse(pinned_script("deep_protocol", 1)))
    rounded = []

    def recorded(x):
        rounded.append(x)
        return round_(x)

    round_ = interpreter._round
    monkeypatch.setattr(interpreter, "_round", recorded)
    assert sha256(report.to_json()) == GENERATED["deep_protocol", 1]
    assert not [x for x in rounded if abs(x) < 5e-13]


def test_fast_float_spelling_matches_repr_of_the_rounded_value(monkeypatch):
    units = [UnitsConfig(), UnitsConfig("absolute", boltzmann_constant=1.380649e-23)]
    reports = [execute(parse(text)) for text, _ in pinned_cases().values()]
    fast = [report.to_json(u) for report in reports for u in units]

    def spelled_by_repr(self, x):
        text = float.__repr__(interpreter._round(x))
        text = self[x] = interpreter._NON_FINITE.get(text, text)
        return text

    monkeypatch.setattr(interpreter._Floats, "__missing__", spelled_by_repr)
    assert [report.to_json(u) for report in reports for u in units] == fast


# The child hashes the report of each script it reads from standard input.
_HASH_REPORTS = """
import hashlib, json, sys
from qgas.protocol import execute, parse
texts = json.load(sys.stdin)
print(json.dumps({
    name: hashlib.sha256(execute(parse(text)).to_json().encode()).hexdigest()
    for name, text in texts.items()
}))
"""


@pytest.mark.parametrize("kernel", ["Haswell", "SkylakeX", "Zen", "Sandybridge"])
def test_pinned_reports_hold_on_each_openblas_kernel(kernel):
    # OPENBLAS_CORETYPE picks the kernel of an OpenBLAS built for several
    # CPUs; any other BLAS ignores it, and the check still runs.
    cases = pinned_cases()
    done = subprocess.run(
        [sys.executable, "-c", _HASH_REPORTS],
        input=json.dumps({name: text for name, (text, _) in cases.items()}),
        capture_output=True, text=True, timeout=120,
        env={**subprocess_env(), "OPENBLAS_CORETYPE": kernel, "OPENBLAS_NUM_THREADS": "1"},
    )
    if done.returncode == -signal.SIGILL:
        pytest.skip(f"this CPU lacks instructions the {kernel} kernel uses")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {name: digest for name, (_, digest) in cases.items()}
