"""The classical twin: two argon varieties and two bookkeepers.

Nothing quantum here.  Johann's instruments cannot tell argon_a from
argon_b, so he writes 'argon' for both; Marie's diaphragms can.  When she
extracts ln 2 of work by mixing what Johann records as one gas with itself,
his books show a second-law violation.  Hers show an open path: the
containers' final half/half blends differ from the initial pure chambers,
and closing the cycle costs the work back.
"""

from qgas.protocol.engine import run_protocol
from qgas.protocol.parser import parse
from qgas.scenarios import scenario_text


def bag(contents):
    return ", ".join(f"{w:.2f} {name}" for name, w in sorted(contents.weights.items()))


for name in ("jaynes_johann", "jaynes_marie_completed"):
    run = run_protocol(parse(scenario_text(name)))
    print("=" * 72)
    print(name)
    print("=" * 72)
    for step in run.steps:
        print(f"{step.description:<46} Q = {step.heat:+.6f} NkT")
    print(f"total Q = {run.total_heat:+.6f} NkT\n")
    for observer, view in run.views.items():
        verdict = view.verdict
        print(f"{observer}:")
        for before, after in zip(view.initial_chambers, view.final_chambers):
            print(f"    {before.label!r}: [{bag(before.contents)}] -> "
                  f"{after.label!r}: [{bag(after.contents)}]")
        note = " (apparent violation explained)" if verdict.apparent_violation_explained else ""
        print(f"    cycle actual={verdict.is_cycle_actual}; second law {verdict.status}{note}")
    print()
