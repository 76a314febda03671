"""Scripts parse to pinned trees, whichever path reads their lines.

``fixtures/parse_trees.json`` holds the sha256 of each parse tree: the
header with its observers and every statement, each node's kind and fields
with its line and column, floats by ``float.hex``.  The scripts are the six
bundled scenarios, the four ``fixtures/*.qg`` scripts and seeds 3-20 of both
generated workloads, less their EXPECT Q_total line as in
``fixtures/generated_seeds.json`` (its digits follow the BLAS kernel).  Each
script is parsed twice: as ``parse`` reads it, and with the parser's
``_SHAPES`` emptied, so that every line takes the token path.  A change to
the front end that moves a tree moves its pin.

To rewrite the fixture after an intended change of a tree:

    PYTHONPATH=src python tests/test_parse_trees.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from conftest import bits, load_workloads
from qgas.protocol import parse, parser
from qgas.scenarios import BUNDLED, scenario_text

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE = FIXTURES / "parse_trees.json"
SEED_PINS = json.loads((FIXTURES / "generated_seeds.json").read_text())
STEMS = ("classical_ledger-1", "classical_ledger-2", "deep_protocol-1", "deep_protocol-2")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def scripts() -> dict[str, str]:
    """Name -> script text, the same in every process."""
    texts = {name: scenario_text(name) for name in BUNDLED}
    texts |= {stem: (FIXTURES / f"{stem}.qg").read_text() for stem in STEMS}
    workloads = load_workloads()
    for name in SEED_PINS:
        workload, seed = name.rsplit("-", 1)
        ((_, text),) = workloads.GENERATORS[workload](int(seed)).scripts
        texts[name] = "".join(
            line for line in text.splitlines(keepends=True)
            if not line.startswith("EXPECT Q_total")
        )
    return texts


def tree_digest(text: str) -> str:
    protocol = parse(text)
    return sha256(repr((bits(protocol.header), bits(protocol.statements))))


SCRIPTS = scripts()


@pytest.mark.parametrize("name", SCRIPTS)
def test_a_script_parses_to_its_pinned_tree_on_both_paths(name):
    text = SCRIPTS[name]
    if name in SEED_PINS:
        assert sha256(text) == SEED_PINS[name]["script"], f"the generator changed {name}, not qgas"
    pin = json.loads(FIXTURE.read_text())[name]
    assert tree_digest(text) == pin
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parser, "_SHAPES", {})
        assert tree_digest(text) == pin


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps({name: tree_digest(text) for name, text in SCRIPTS.items()}, indent=1) + "\n"
    )
