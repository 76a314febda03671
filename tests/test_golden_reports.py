"""Byte-identity of the bundled scenarios' JSON reports.

``perfbench/golden_reports.json`` holds the sha256 of each bundled
scenario's report.  Any refactor must leave these bytes unchanged; the
file is read here and never rewritten.
"""

import hashlib
import json
from pathlib import Path

import pytest

from qgas.protocol import execute, parse
from qgas.scenarios import BUNDLED, scenario_text

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden_reports.json").read_text()
)


@pytest.mark.parametrize("name", BUNDLED)
def test_report_matches_golden_digest(name):
    report_json = execute(parse(scenario_text(name))).to_json()
    assert hashlib.sha256(report_json.encode()).hexdigest() == GOLDEN[name]
