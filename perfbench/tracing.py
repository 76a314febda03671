"""In-memory spans around the calls into each qgas layer.

The program has no trace hooks of its own yet, so the bench wraps the
public functions of each layer from outside.  Modules import each other's
functions by name (``from .linalg import eig_hermitian``), so patching the
defining module is not enough: :meth:`Tracer.install` replaces every
binding of each wrapped function, under any name, in every loaded qgas
module, and :meth:`Tracer.uninstall` puts the originals back.  Three
methods are patched on their classes: ``DensityMatrix.__post_init__`` (the
validation every construction pays), ``QuantumContents.assembled`` and
``RunReport.to_json``.  The engine has no public per-step entry point, so
``_Engine._dispatch`` is wrapped too, with the span named by statement kind.

A span is ``[name, layer, start_ns, end_ns, parent, run, attr]``; the
parent is the index of the enclosing span in the same run (-1 at the top)
and ``run`` numbers the bench run the span belongs to.  Spans stay in
memory; the caller aggregates each run with :func:`run_totals` and keeps
what it wants to write out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import re
import sys
import time
from collections import defaultdict

LAYERS = (
    "linalg",
    "statistics",
    "thermo",
    "diaphragm",
    "observers",
    "protocol.parser",
    "protocol.semantics",
    "protocol.engine",
    "protocol.interpreter",
)

NAME, LAYER, START, END, PARENT, RUN, ATTR = range(7)


def _statement_kind(stmt) -> str:
    """SeparateStmt -> separate, ClassicalSeparateStmt -> classical_separate."""
    name = type(stmt).__name__.removesuffix("Stmt")
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()


def _eig_attr(args) -> tuple[int, int]:
    matrix = args[0]
    return matrix.dim, hash(matrix.entries.tobytes())


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def open(self, name: str, layer: str, attr=None) -> int:
        index = len(self.spans)
        self.spans.append(
            [name, layer, time.perf_counter_ns(), 0, self._stack[-1], self.run, attr]
        )
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][END] = time.perf_counter_ns()

    def _wrap(self, fn, layer: str, name: str, describe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name, attr = describe(args) if describe else (name, None)
            index = self.open(span_name, layer, attr)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions and the four methods above."""
        from qgas import statistics, thermo
        from qgas.protocol import engine, interpreter

        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"qgas.{layer}")
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    describe = (
                        (lambda args: ("linalg.eig_hermitian", _eig_attr(args)))
                        if obj.__name__ == "eig_hermitian"
                        else None
                    )
                    wrappers[obj] = self._wrap(obj, layer, f"{layer}.{attr}", describe)
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "qgas"]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])

        def step(args):
            return f"protocol.engine.step.{_statement_kind(args[2])}", None

        for cls, attr, layer, name, describe in (
            (statistics.DensityMatrix, "__post_init__", "statistics",
             "statistics.DensityMatrix", None),
            (thermo.QuantumContents, "assembled", "thermo",
             "thermo.QuantumContents.assembled", None),
            (interpreter.RunReport, "to_json", "protocol.interpreter",
             "protocol.interpreter.to_json", None),
            (engine._Engine, "_dispatch", "protocol.engine", "", step),
        ):
            self._patch(cls, attr, self._wrap(vars(cls)[attr], layer, name, describe))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def begin_run(self) -> None:
        """Start a new run; the spans of the previous one are dropped."""
        self.run += 1
        self.spans.clear()


def run_totals(spans: list[list]) -> dict[str, float]:
    """Aggregate the spans of one run into counters and times (ms).

    Self time is a span's duration minus its children's; children of one
    span never overlap, because the program is single-threaded.
    """
    n = len(spans)
    child_ns = [0] * n
    for span in spans:
        if span[PARENT] >= 0:
            child_ns[span[PARENT]] += span[END] - span[START]
    under_to_json = [False] * n
    under_step = [False] * n
    scenario = [""] * n
    totals: dict[str, float] = defaultdict(int)
    eig_inputs = set()
    for i, span in enumerate(spans):
        name, layer, parent = span[NAME], span[LAYER], span[PARENT]
        duration = (span[END] - span[START]) / 1e6
        up = parent if parent >= 0 else None
        under_to_json[i] = name == "protocol.interpreter.to_json" or (
            up is not None and under_to_json[up]
        )
        under_step[i] = name.startswith("protocol.engine.step.") or (
            up is not None and under_step[up]
        )
        if layer == "bench":
            scenario[i] = span[ATTR]
            continue
        scenario[i] = scenario[up] if up is not None else ""
        totals[f"{layer}.calls"] += 1
        totals[f"{layer}.self_ms"] += duration - child_ns[i] / 1e6
        if name == "linalg.eig_hermitian":
            dim, key = span[ATTR]
            eig_inputs.add(key)
            totals["linalg.eig_calls"] += 1
            totals[f"linalg.eig_calls.d{dim}"] += 1
            totals[f"linalg.eig_ms.d{dim}"] += duration
            totals["protocol.interpreter.digest_eig_calls"] += under_to_json[i]
            totals[f"scenario_eig_calls.{scenario[i]}"] += 1
        elif name == "statistics.DensityMatrix":
            totals["statistics.density_matrix_count"] += 1
            totals["statistics.density_matrix_ms"] += duration
        elif name == "statistics.mix_states":
            totals["statistics.mix_states_calls"] += 1
        elif name == "observers.view_chamber":
            totals["observers.view_chamber_calls"] += 1
            totals["observers.view_chamber_ms"] += duration
            totals["protocol.engine.snapshot_chambers"] += under_step[i]
        elif name == "thermo.contents_equal":
            totals["thermo.contents_equal_calls"] += 1
        elif name.startswith("protocol.engine.step."):
            totals["protocol.engine.step_ms." + name.rsplit(".", 1)[1]] += duration
        else:
            # statistics.apply_*, diaphragm.*, thermo.audit_cycle, parse, to_json
            totals[f"{name}_ms"] += duration
        if layer == "protocol.semantics" and (up is None or spans[up][LAYER] != layer):
            totals["protocol.semantics.eval_ms"] += duration
    calls = totals["linalg.eig_calls"]
    totals["linalg.eig_unique_ratio"] = len(eig_inputs) / calls if calls else 0.0
    return totals
