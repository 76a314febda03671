"""The hook points the bench tracer patches still exist and still fire.

``perfbench/tracing.py`` wraps ``_Engine._dispatch``,
``DensityMatrix.__post_init__``, ``QuantumContents.assembled`` and
``RunReport.to_json`` by name.  A refactor that renames one of them would
break ``perfbench/run.py --trace 1`` without failing any other test.  So
would a refactor that stops calling a function whose span a per-layer
metric reads: that metric would read 0.  The tracer module is loaded from
its file and never modified here.

The tracer counts a layer's ``*.calls`` over its public module functions, so
the parser, the observers and the interpreter keep today's public functions:
a helper named without an underscore would move ``protocol.parser.calls``,
``observers.calls`` or ``protocol.interpreter.calls`` with no change in work.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from conftest import load_workloads
from qgas import observers
from qgas.protocol import execute, interpreter, parse, parser
from qgas.scenarios import BUNDLED, scenario_text

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


# The spans that perfbench/tracing.py run_totals turns into the per-layer
# metrics BENCHMARK.json declares.  A rewrite that stops one of them firing
# would read 0 in that metric, not fail.
LIVE_METRIC_SPANS = {
    "linalg.eig_hermitian",
    "statistics.DensityMatrix",
    "statistics.mix_states",
    "statistics.apply_instrument",
    "statistics.apply_unitary",
    "diaphragm.separate",
    "diaphragm.mix",
    "diaphragm.classical_separate",
    "thermo.audit_cycle",
    "thermo.contents_equal",
    "protocol.parser.parse",
}


def test_every_live_per_layer_metric_fires_on_the_bundled_scenarios():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # Through the module attributes, as the bench calls them: the tracer
        # rebinds names inside qgas, not this module's imported ``parse``.
        for name in BUNDLED:
            interpreter.execute(parser.parse(scenario_text(name))).to_json()
    finally:
        tracer.uninstall()
    names = {span[tracing.NAME] for span in tracer.spans}
    assert LIVE_METRIC_SPANS <= names, sorted(LIVE_METRIC_SPANS - names)


@pytest.mark.parametrize("workload, eigs", [("bundled_suite", 1), ("deep_protocol", 4)])
def test_eig_calls_count_every_eigendecomposition(monkeypatch, workload, eigs):
    # linalg.eig_calls counts the tracer's eig_hermitian spans.  It counts every
    # LAPACK eigendecomposition only while eig_hermitian is the one caller of
    # np.linalg.eigh, however the library reaches it.
    if workload == "bundled_suite":
        texts = [scenario_text(name) for name in BUNDLED]
    else:
        texts = [text for _, text in load_workloads().deep_protocol(1).scripts]
    tracing = load_tracing()
    solved = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        solved.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for text in texts:
            interpreter.execute(parser.parse(text)).to_json()
    finally:
        tracer.uninstall()
    assert tracing.run_totals(tracer.spans)["linalg.eig_calls"] == len(solved) == eigs


def public_functions(module) -> list[str]:
    """The module functions the tracer wraps, in definition order."""
    return [
        name
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_")
    ]


def test_parse_is_the_parsers_one_public_function():
    assert public_functions(parser) == ["parse"]


@pytest.mark.parametrize(
    "module, public",
    [
        (observers, ["view_contents", "view_batch", "build_willard_povm"]),
        (interpreter, ["execute"]),
    ],
    ids=["observers", "protocol.interpreter"],
)
def test_traced_layers_keep_their_public_functions(module, public):
    assert public_functions(module) == public
