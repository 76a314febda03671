"""A pinned corpus of mutated scenario scripts and what each one gives.

The scripts are derived from the six bundled scenarios with a seeded
``random.Random``: one mutation each deletes, repeats, swaps or replaces a
token, or drops or repeats a line.  Each script's outcome is either the
error's class and message (which holds its line and column) or, for a
script that runs, the total heat in NkT to 9 decimals with each observer's
verdict.  ``fixtures/diagnostics_corpus.json`` holds the outcomes; a change
to the front end that moves one of them changes what scripts are told.

To rewrite the fixture after an intended change of a diagnostic:

    PYTHONPATH=src python tests/test_diagnostics_corpus.py
"""

import hashlib
import json
import random
import re
from pathlib import Path

from qgas.protocol import execute, parse
from qgas.scenarios import BUNDLED, scenario_text

FIXTURE = Path(__file__).parent / "fixtures" / "diagnostics_corpus.json"
SEED = 17
PER_SCENARIO = 80
# The token shapes of the .qg grammar, so that a mutation moves whole tokens.
_TOKEN = re.compile(
    r"eigenbasis-of|->|~=|≈|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?i?|[A-Za-z_][A-Za-z0-9_/]*|\S"
)
# Replacement tokens that no bundled script holds, beside the ones they do.
_EXTRA = ["0", "-1", "1e999", "0.5i", "x", "MIX", "CHAMBER", "proj", "(", ")", "=", "->", "#"]


def mutate(text: str, rng: random.Random, pool: list[str]) -> str:
    """``text`` with one token or line deleted, repeated, swapped or replaced."""
    lines = text.splitlines()
    i = rng.choice([i for i, line in enumerate(lines) if line.strip() and line[0] != "#"])
    op = rng.choice(["delete", "repeat", "swap", "replace", "replace", "drop-line", "repeat-line"])
    if op == "drop-line":
        del lines[i]
    elif op == "repeat-line":
        lines.insert(i, lines[i])
    else:
        spans = [m.span() for m in _TOKEN.finditer(lines[i])]
        swap = op == "swap" and len(spans) > 1
        k = rng.randrange(len(spans) - 1 if swap else len(spans))
        start, end = spans[k]
        line, token = lines[i], lines[i][start:end]
        if op == "delete":
            lines[i] = line[:start] + line[end:]
        elif op == "repeat":
            lines[i] = line[:end] + " " + token + line[end:]
        elif swap:
            start2, end2 = spans[k + 1]
            lines[i] = line[:start] + line[start2:end2] + line[end:start2] + token + line[end2:]
        else:
            lines[i] = line[:start] + rng.choice(pool) + line[end:]
    return "\n".join(lines) + "\n"


def corpus() -> list[tuple[str, str]]:
    """(name, script) pairs, the same ones in every process."""
    rng = random.Random(SEED)
    texts = {name: scenario_text(name) for name in BUNDLED}
    pool = sorted({m.group() for text in texts.values() for m in _TOKEN.finditer(text)}) + _EXTRA
    return [
        (f"{name}-{n}", mutate(text, rng, pool))
        for name, text in texts.items()
        for n in range(PER_SCENARIO)
    ]


def outcome(text: str) -> str:
    try:
        report = execute(parse(text))
    except Exception as exc:  # noqa: BLE001 -- any failure is an outcome to pin
        return f"{type(exc).__name__}: {exc}"
    verdicts = " ".join(
        f"{name}={view.verdict.status}" for name, view in report.result.views.items()
    )
    return f"total_Q {report.total_heat_nkt():.9f} {verdicts}"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_every_mutated_script_keeps_its_outcome():
    pinned = json.loads(FIXTURE.read_text(encoding="utf-8"))
    scripts = corpus()
    assert [(name, _digest(text)) for name, text in scripts] == [
        (name, digest) for name, digest, _ in pinned
    ], "the corpus generator changed; rewrite the fixture from the parent commit"
    moved = [
        (name, expected, got)
        for (name, text), (_, _, expected) in zip(scripts, pinned)
        if (got := outcome(text)) != expected
    ]
    assert not moved, moved[:5]


def test_the_corpus_reaches_errors_of_every_layer_and_clean_runs():
    outcomes = [entry[2] for entry in json.loads(FIXTURE.read_text(encoding="utf-8"))]
    kinds = {o.split(":")[0].split(" ")[0] for o in outcomes}
    assert {"ScenarioSyntaxError", "ExecutionError", "UndefinedNameError", "total_Q"} <= kinds
    assert not kinds - {
        "ScenarioSyntaxError", "ExecutionError", "UndefinedNameError", "DuplicateNameError",
        "HeaderMissingError", "total_Q",
    }


if __name__ == "__main__":
    entries = [[name, _digest(text), outcome(text)] for name, text in corpus()]
    FIXTURE.write_text(json.dumps(entries, indent=0, ensure_ascii=False) + "\n", encoding="utf-8")
