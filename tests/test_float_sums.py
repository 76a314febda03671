"""Float sums that decide a check, spell a diagnostic or make a report value
add left to right through ``linalg._sum_in_order``.  The built-in ``sum``
compensates float sums from Python 3.12 on, so through it such a value
would read different bits on different interpreters."""

import ast
from pathlib import Path

import pytest

from qgas.errors import NotConvexError, ScenarioSyntaxError
from qgas.observers import Observer, view_contents
from qgas.protocol.parser import parse
from qgas.thermo import ClassicalContents

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qgas"

# (module, enclosing function) -> why the built-in ``sum`` may stay there.
ALLOWED = {
    ("statistics.py", "coarse_grain"): "adds arrays of POVM elements",
    ("statistics.py", "_span_projectors"): "adds arrays of projectors",
    ("statistics.py", "_positive_part"): "counts bools",
}


def builtin_sums():
    """(module, enclosing function, line) of each use of the name ``sum``."""

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from walk(child, child.name)
            else:
                if isinstance(child, ast.Name) and child.id == "sum":
                    yield scope, child.lineno
                yield from walk(child, scope)

    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        for scope, line in walk(ast.parse(path.read_text(), str(path)), None):
            yield module, scope, line


def test_the_builtin_sum_is_left_only_at_the_listed_sites():
    sites = list(builtin_sums())
    assert {(module, scope) for module, scope, _ in sites} == set(ALLOWED), sites
    assert len(sites) == len(ALLOWED)


def test_the_container_filled_diagnostic_adds_left_to_right():
    # Eleven fractions of 0.1 add to 1.0999999999999999 in order; the
    # compensated sum of Python 3.12 reads 1.1.
    chambers = "".join(f"CLASSICAL_CHAMBER c{i} 0.1 a=1\n" for i in range(11))
    with pytest.raises(ScenarioSyntaxError) as err:
        parse("HEADER classical temperature=1.0 particles=1.0\n" + chambers)
    assert str(err.value) == (
        "line 12, col 1: expected fractions summing to 1, not 1.0999999999999999"
    )


def test_pooled_weights_spell_their_sums_left_to_right():
    # A bag built past the contents' own check, eleven weights of 0.1,
    # pools into one name; the pool's check spells the sum it read.
    bag = object.__new__(ClassicalContents)
    object.__setattr__(bag, "weights", {f"s{i}": 0.1 for i in range(11)})
    observer = Observer.classical("o", {f"s{i}": "s" for i in range(11)})
    with pytest.raises(NotConvexError, match=r"^pooled weights sum to \[1\.0999999999999999\]$"):
        view_contents(observer, bag)
