"""qgas bench: end-to-end run times and per-layer counts and times.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bundled_suite --seed 1 --seconds 30 --trace 0

One *run* is parse + execute + ``to_json`` of each scenario text of the
workload, through the public pipeline ``protocol.parser.parse`` ->
``protocol.interpreter.execute`` -> ``RunReport.to_json``.  Runs form a
closed loop with one client in one process: the next run starts when the
previous one has finished.  BLAS is pinned to one thread.

Workloads (see ``workloads.py`` for the generated ones):

* ``bundled_suite`` -- the six bundled scenarios in order, checked against
  the sha256 of their reports in ``golden_reports.json``.
* ``deep_protocol`` -- a generated dim-8 scenario with three observers:
  eigensolver, validation and per-observer snapshot cost.
* ``classical_ledger`` -- a generated 16-species classical scenario: no
  eigensolver, long ledger, large reports.

``--trace 0`` prints the end-to-end metrics.  Every run's reports are
checked, and a run that raises or fails a check counts as failed.  Raw
wall times on a shared host swing by 1.5-2x within minutes as other
tenants come and go, so the gated run times (``run_rel.*``) are each run's
wall time divided by that of a fixed reference computation timed just
before and after it (see :func:`reference_seconds`); the raw times in ms,
the sample count and the steps per second are printed beside them.
``setup_s`` is the median of several fresh processes that each import
qgas, generate the input and make one warm-up run.

``--trace 1`` alternates untraced and traced runs, checks that both give
byte-identical reports, and prints the per-layer metrics: counters from
one traced run (they must repeat exactly across runs) and medians of the
per-run times.  Timings from the traced runs include the tracing cost,
which ``trace_overhead_frac`` reports.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(machine, samples, and for ``--trace 1`` the spans of the first two traced
runs) goes to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import os

# Before numpy loads anywhere: one BLAS thread, since runs are single-client.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("bundled_suite", "deep_protocol", "classical_ledger")
SETUP_PROBES = 5
KEEP_TRACED_RUNS = 2  # runs whose spans are written out; all are aggregated
PROBE_TIMEOUT_S = 60

END_TO_END = {
    "run_rel.p50": "ref",
    "run_rel.p75": "ref",
    "setup_s": "s",
    "peak_heap_mb": "MB",
}
# Printed beside the gated metrics, ungated: raw times swing with the host.
RAW_UNITS = {"run_ms.p50": "ms (raw)", "run_ms.p90": "ms (raw)", "steps_per_s": "1/s (raw)"}

_STEP_KINDS = (
    "separate", "classical_separate", "mix", "rotate", "partition", "remove_partition",
)


def per_layer_units(bundled: list[str]) -> dict[str, str]:
    units = {"linalg.eig_calls": "count"}
    for d in (2, 4, 8):
        units[f"linalg.eig_calls.d{d}"] = "count"
        units[f"linalg.eig_ms.d{d}"] = "ms"
    units["linalg.eig_unique_ratio"] = "ratio"
    units.update({
        "statistics.density_matrix_count": "count",
        "statistics.density_matrix_ms": "ms",
        "statistics.mix_states_calls": "count",
        "statistics.apply_instrument_ms": "ms",
        "statistics.apply_unitary_ms": "ms",
        "observers.view_chamber_calls": "count",
        "observers.view_chamber_ms": "ms",
        "protocol.engine.snapshot_chambers": "count",
    })
    for kind in _STEP_KINDS:
        units[f"protocol.engine.step_ms.{kind}"] = "ms"
    for op in ("separate", "mix", "classical_separate", "classical_mix"):
        units[f"diaphragm.{op}_ms"] = "ms"
    units.update({
        "thermo.audit_cycle_ms": "ms",
        "thermo.contents_equal_calls": "count",
        "protocol.parser.parse_ms": "ms",
        "protocol.semantics.eval_ms": "ms",
        "protocol.interpreter.to_json_ms": "ms",
        "protocol.interpreter.report_bytes": "bytes",
        "protocol.interpreter.digest_eig_calls": "count",
    })
    for layer in tracing.LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_ms"] = "ms"
    for name in bundled:
        units[f"scenario_ms.{name}"] = "ms"
        units[f"scenario_eig_calls.{name}"] = "count"
    units["trace_overhead_frac"] = "ratio"
    return units


# -- set-up --------------------------------------------------------------------


def _load_program():
    """Import qgas from this checkout's sources, and nowhere else."""
    if not (SRC / "qgas" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qgas sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import qgas
    from qgas.protocol import interpreter, parser

    if SRC not in Path(qgas.__file__).resolve().parents:
        sys.exit(f"perfbench: imported qgas from {qgas.__file__}, not from {SRC}")
    return parser, interpreter


def _golden() -> dict[str, str]:
    return json.loads((BENCH_DIR / "golden_reports.json").read_text())


def make_workload(name: str, seed: int):
    import workloads

    if name == "bundled_suite":
        from qgas.scenarios import BUNDLED, scenario_text

        scripts = tuple((s, scenario_text(s)) for s in BUNDLED)
        return workloads.Workload(name, scripts, expect_lines=0)
    return workloads.GENERATORS[name](seed)


def run_once(parser, interpreter, scripts, tracer=None) -> list[tuple]:
    """One run: (name, report json, report, seconds) per scenario."""
    outputs = []
    for name, text in scripts:
        start = time.perf_counter()
        span = tracer.open(f"scenario.{name}", "bench", name) if tracer else None
        try:
            report = interpreter.execute(parser.parse(text))
            report_json = report.to_json()
        finally:
            if tracer:
                tracer.close(span)
        outputs.append((name, report_json, report, time.perf_counter() - start))
    return outputs


def check(workload, outputs, golden: dict[str, str]) -> list[str]:
    """Every EXPECT line passes, and each report matches its reference."""
    problems = []
    for name, report_json, report, _ in outputs:
        failed = [e.description for e in report.expectations if not e.passed]
        if failed:
            problems.append(f"{name}: failed {failed}")
        if workload.name == "bundled_suite":
            digest = hashlib.sha256(report_json.encode()).hexdigest()
            if digest != golden.get(name):
                problems.append(f"{name}: report sha256 {digest} differs from golden")
        elif len(report.expectations) != workload.expect_lines:
            problems.append(
                f"{name}: {len(report.expectations)} expectations, "
                f"{workload.expect_lines} written"
            )
    return problems


def setup_probe(workload: str, seed: int) -> None:
    """Child process: time import + input generation + one warm-up run."""
    start = time.perf_counter()
    parser, interpreter = _load_program()
    w = make_workload(workload, seed)
    run_once(parser, interpreter, w.scripts)
    print(time.perf_counter() - start)


def measure_setup(workload: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            sys.exit(f"perfbench: set-up probe failed with code {done.returncode}")
        samples.append(float(done.stdout.split()[-1]))
    return samples


# -- machine record ------------------------------------------------------------


def machine_record() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    threads = {
        k: v for k, v in sorted(os.environ.items())
        if k.endswith("_NUM_THREADS") or k in ("OMP_PROC_BIND", "OPENBLAS_CORETYPE")
    }
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_pinning": threads,
    }


# -- the two passes ------------------------------------------------------------


def _p75(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=4, method="inclusive")[-1]


def _p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


class Runner:
    def __init__(self, parser, interpreter, workload, golden):
        self.parser, self.interpreter = parser, interpreter
        self.workload, self.golden = workload, golden
        self.attempted = self.failed = 0
        self.first_problem = ""

    def attempt(self, tracer=None):
        """One timed run; returns (seconds, outputs or None if it failed)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            outputs = run_once(self.parser, self.interpreter, self.workload.scripts, tracer)
        except Exception:  # a failed run is counted, and the loop goes on
            elapsed = time.perf_counter() - start
            self.fail(traceback.format_exc())
            return elapsed, None
        elapsed = time.perf_counter() - start
        problems = check(self.workload, outputs, self.golden)
        if problems:
            self.fail("; ".join(problems))
            return elapsed, None
        return elapsed, outputs

    def fail(self, message: str) -> None:
        self.failed += 1
        self.first_problem = self.first_problem or message


def _generators_and_json() -> None:
    import workloads

    workloads.deep_protocol(0, rounds=1)
    workloads.classical_ledger(0, rounds=10)
    json.loads(json.dumps(_REFERENCE_DOC, sort_keys=True, indent=1))


_REFERENCE_DOC = {f"k{i}": [i * 0.5, str(i), {"x": i}] for i in range(300)}


def _givens_sweeps() -> None:
    import numpy as np

    a = np.eye(8, dtype=complex) + 0.1j
    v = np.eye(8, dtype=complex)
    for _sweep in range(3):
        for p in range(7):
            for q in range(p + 1, 8):
                mag = abs(a[p, q])
                u = a[p, q] / mag
                tau = (a[q, q].real - a[p, p].real) / (2.0 * mag)
                t = 1.0 / (abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                x, y = a[:, p].copy(), a[:, q].copy()
                a[:, p], a[:, q] = c * x - s * np.conj(u) * y, s * x + c * np.conj(u) * y
                x, y = a[p, :].copy(), a[q, :].copy()
                a[p, :], a[q, :] = c * x - s * u * y, s * x + c * u * y
                x, y = v[:, p].copy(), v[:, q].copy()
                v[:, p], v[:, q] = c * x - s * np.conj(u) * y, s * x + c * np.conj(u) * y


def reference_seconds(workload: str) -> float:
    """Wall time of a fixed computation that does not touch qgas.

    Raw run times on a shared host swing by 1.5-2x as neighbours come and
    go, and the swing differs with the kind of work, so the gated run times
    are divided by the time of a fixed computation of the same kind, timed
    just before and after each run: the generators (small numpy operations
    and string formatting) plus a JSON round trip for the bundled and
    classical workloads, and Givens rotations on an 8x8 complex matrix (the
    shape of the eigensolver's inner loop) for deep_protocol.
    """
    kernel, repeats = REFERENCE[workload]
    start = time.perf_counter()
    for _ in range(repeats):
        kernel()
    return time.perf_counter() - start


# Reference computation per workload and its repeats: about a tenth of a run.
REFERENCE = {
    "bundled_suite": (_generators_and_json, 2),
    "classical_ledger": (_generators_and_json, 3),
    "deep_protocol": (_givens_sweeps, 12),
}


def end_to_end(runner: Runner, seconds: float, setup: list[float]) -> tuple[dict, dict]:
    samples, relative, steps = [], [], 0
    deadline = time.perf_counter() + seconds
    before = reference_seconds(runner.workload.name)
    while True:
        elapsed, outputs = runner.attempt()
        after = reference_seconds(runner.workload.name)
        samples.append(elapsed)
        relative.append(elapsed / ((before + after) / 2))
        before = after
        if outputs is not None:
            steps += sum(len(report.result.steps) for _, _, report, _ in outputs)
        if time.perf_counter() >= deadline:
            break

    gc.collect()  # start the heap pass from the same collector state every time
    tracemalloc.start()
    runner.attempt()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    metrics = {
        "run_rel.p50": statistics.median(relative),
        "run_rel.p75": _p75(relative),
        "setup_s": statistics.median(setup),
        "peak_heap_mb": peak / 2**20,
    }
    extra = {
        "samples": len(samples),
        "run_ms.p50": statistics.median(samples) * 1e3,
        "run_ms.p90": _p90(samples) * 1e3,
        "steps_per_s": steps / sum(samples),
        "steps_completed": steps,
        "setup_samples_s": setup,
        "run_rel_samples": relative,
    }
    return metrics, extra


def per_layer(runner: Runner, seconds: float, units: dict[str, str]) -> tuple[dict, dict, list]:
    tracer = tracing.Tracer()
    plain, traced, per_scenario, runs, kept_spans = [], [], {}, [], []
    mismatched = report_bytes = 0
    deadline = time.perf_counter() + seconds
    while True:
        elapsed, plain_outputs = runner.attempt()
        plain.append(elapsed)
        for name, _, _, scenario_s in plain_outputs or ():
            per_scenario.setdefault(name, []).append(scenario_s * 1e3)
        tracer.install()
        tracer.begin_run()
        try:
            elapsed, traced_outputs = runner.attempt(tracer)
        finally:
            tracer.uninstall()
        traced.append(elapsed)
        runs.append(tracing.run_totals(tracer.spans))
        if tracer.run < KEEP_TRACED_RUNS:
            kept_spans.append([list(span) for span in tracer.spans])
        if plain_outputs and traced_outputs and (
            [o[1] for o in plain_outputs] != [o[1] for o in traced_outputs]
        ):
            mismatched += 1
            runner.fail("traced and untraced reports differ")
        if traced_outputs:
            report_bytes = sum(len(o[1].encode()) for o in traced_outputs)
        if time.perf_counter() >= deadline:
            break

    metrics, unstable = {}, []
    for name, unit in units.items():
        if name.startswith("scenario_ms."):
            metrics[name] = statistics.median(per_scenario.get(name.split(".", 1)[1], [0.0]))
        elif name == "trace_overhead_frac":
            metrics[name] = statistics.median(t / p for t, p in zip(traced, plain)) - 1.0
        elif name == "protocol.interpreter.report_bytes":
            metrics[name] = report_bytes
        elif unit == "ms":
            metrics[name] = statistics.median(r.get(name, 0.0) for r in runs)
        else:
            values = {r.get(name, 0) for r in runs}
            if len(values) != 1:
                unstable.append(name)
            metrics[name] = values.pop()
    if unstable:
        runner.fail(f"counters differ between traced runs: {unstable}")
    extra = {
        "untraced_runs": len(plain),
        "traced_runs": len(traced),
        "traced_report_mismatches": mismatched,
        "spans_per_traced_run": len(tracer.spans),
    }
    return metrics, extra, kept_spans


# -- entry point ---------------------------------------------------------------


def main(argv=None) -> int:
    cli = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    cli.add_argument("--workload", choices=WORKLOADS, required=True)
    cli.add_argument("--seed", type=int, default=0)
    cli.add_argument("--seconds", type=float, default=30.0)
    cli.add_argument("--trace", type=int, choices=(0, 1), default=0)
    cli.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = cli.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    parser, interpreter = _load_program()
    workload = make_workload(args.workload, args.seed)
    golden = _golden()
    bundled = list(golden)
    runner = Runner(parser, interpreter, workload, golden)
    runner.attempt()  # warm-up, checked like every other run

    spans = None
    if args.trace:
        units = per_layer_units(bundled)
        metrics, extra, spans = per_layer(runner, args.seconds, units)
    else:
        units = END_TO_END
        setup = measure_setup(args.workload, args.seed)
        metrics, extra = end_to_end(runner, args.seconds, setup)
    declared = _declared_metrics(args.trace)
    if declared is not None and declared != {k: units[k] for k in metrics}:
        sys.exit("perfbench: metrics differ from those BENCHMARK.json declares")

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(),
        "failed_frac": runner.failed / runner.attempted,
        "first_problem": runner.first_problem,
        **extra,
        "result": result,
    }
    _write_out(record, spans)

    print(f"workload {args.workload} seed {args.seed} "
          f"({'traced' if args.trace else 'untraced'}, closed loop, 1 client)")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    for key, value in extra.items():
        if key != "run_rel_samples":
            print(f"{key} {value} {RAW_UNITS.get(key, '')}".rstrip())
    print(f"failed_frac {record['failed_frac']} ({runner.failed} of {runner.attempted} runs)")
    if runner.first_problem:
        print("first failure: " + runner.first_problem.strip().replace("\n", " | "))
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(json.dumps(result))
    return 0


def _declared_metrics(trace: int) -> dict[str, str] | None:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _write_out(record: dict, spans) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if spans is not None:
        with open(OUT_DIR / f"{stem}.spans.jsonl", "w") as out:
            for run_spans in spans:
                for index, (name, layer, start, end, parent, run, _) in enumerate(run_spans):
                    out.write(json.dumps(
                        {"run": run, "id": index, "parent": parent, "name": name,
                         "layer": layer, "start_ns": start, "end_ns": end}
                    ) + "\n")


if __name__ == "__main__":
    sys.exit(main())
