"""The hook points the bench tracer patches still exist and still fire.

``perfbench/tracing.py`` wraps ``_Engine._dispatch``,
``DensityMatrix.__post_init__``, ``QuantumContents.assembled`` and
``RunReport.to_json`` by name.  A refactor that renames one of them would
break ``perfbench/run.py --trace 1`` without failing any other test.  The
tracer module is loaded from its file and never modified here.
"""

import importlib.util
from pathlib import Path

from qgas.protocol import execute, parse
from qgas.scenarios import scenario_text

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_record_spans_and_keep_the_report():
    tracing = load_tracing()
    text = scenario_text("peres_tatiana")
    untraced = execute(parse(text)).to_json()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = execute(parse(text)).to_json()
    finally:
        tracer.uninstall()
    names = {span[tracing.NAME] for span in tracer.spans}
    assert "protocol.engine.step.separate" in names
    assert {
        "statistics.DensityMatrix",
        "thermo.QuantumContents.assembled",
        "protocol.interpreter.to_json",
    } <= names
    assert traced == untraced
