"""The quantum two-observer cycle, rendered per observer.

Tatiana describes the gas particles in a two-level space; Willard resolves
a second internal factor and works in four levels.  The same physical run
is executed once on the four-level ground truth, and each observer's view
of every step is a partial trace of it.  Heats are shared -- they are
measured, not inferred -- but the verdicts differ.
"""

from qgas.protocol.engine import run_protocol
from qgas.protocol.parser import parse
from qgas.scenarios import scenario_text


def describe(run, title):
    print("=" * 72)
    print(title)
    print("=" * 72)
    print(f"{'step':<42} {'Q (NkT)':>10}")
    for step in run.steps:
        print(f"{step.description:<42} {step.heat:>+10.6f}")
    print(f"{'TOTAL':<42} {run.total_heat:>+10.6f}\n")
    for name, view in run.views.items():
        verdict = view.verdict
        note = " (apparent violation explained)" if verdict.apparent_violation_explained else ""
        print(f"{name}: cycle actual={verdict.is_cycle_actual}, "
              f"second law {verdict.status}{note}")
        for c in view.final_chambers:
            print(f"    sees {c.label!r}: V={c.volume:.4f}")
    print()


print(__doc__)

run = run_protocol(parse(scenario_text("peres_tatiana")))
describe(run, "Run 1: up to the point where Tatiana declares the cycle closed")
print("Tatiana's ledger shows Q = +0.277 NkT over what she books as a cycle;")
print("Willard's description says the path never closed, so the cyclic form")
print("of the second law does not apply. No law was broken.\n")

run = run_protocol(parse(scenario_text("peres_willard_completed")))
describe(run, "Run 2: Willard completes the cycle")
print("Closing the cycle costs the ln 2 that the hidden factor still held;")
print("the completed cycle absorbs -0.416 NkT <= 0, as it must.")
