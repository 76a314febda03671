"""Byte-identity of the bundled and generated scenarios' JSON reports.

``perfbench/golden_reports.json`` holds the sha256 of each bundled
scenario's report.  Any refactor must leave these bytes unchanged; the
file is read here and never rewritten.  The bench's generated workloads
are pinned too, at two seeds each: ``perfbench/workloads.py`` is loaded
from its file (read-only) to write the scripts.  The report digests its
views in batches; each digest must equal the one made from a single
``view_contents`` call.  The same reports are made with numpy's N-d helpers
that the small-matrix primitives avoid set to raise.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import load_workloads
from qgas.observers import view_contents
from qgas.protocol import execute, parse
from qgas.protocol.interpreter import _contents_digest
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


@pytest.mark.parametrize("name", BUNDLED)
def test_report_matches_golden_digest(name):
    report_json = execute(parse(scenario_text(name))).to_json()
    assert hashlib.sha256(report_json.encode()).hexdigest() == GOLDEN[name]


@pytest.mark.parametrize("workload, seed", list(GENERATED))
def test_generated_report_matches_pinned_digest(workload, seed):
    ((_, text),) = load_workloads().GENERATORS[workload](seed).scripts
    report_json = execute(parse(text)).to_json()
    assert hashlib.sha256(report_json.encode()).hexdigest() == GENERATED[workload, seed]


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
                alone = _contents_digest(view_contents(obs, chamber.contents))
                assert shown["contents_digest"] == alone


def test_reports_need_no_numpy_nd_helpers(monkeypatch):
    def banned(*args, **kwargs):
        raise AssertionError("a small-matrix primitive called a numpy N-d helper")

    # The generator writes its script with numpy's helpers; only the run is guarded.
    ((_, deep),) = load_workloads().GENERATORS["deep_protocol"](1).scripts
    cases = [(scenario_text(name), GOLDEN[name]) for name in BUNDLED]
    cases.append((deep, GENERATED["deep_protocol", 1]))
    for owner, name in ((np, "kron"), (np, "outer"), (np.linalg, "norm")):
        monkeypatch.setattr(owner, name, banned)
    for text, digest in cases:
        report_json = execute(parse(text)).to_json()
        assert hashlib.sha256(report_json.encode()).hexdigest() == digest
