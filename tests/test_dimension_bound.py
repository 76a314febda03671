"""The largest dimension a script may ask for, ``MAX_DIM``.

The parser rejects a HEADER dim, a ket and a DEFINE_INSTRUMENT line above it
at the token that asks; semantics rejects a tensor product above it at the
expression, before the product is built.
"""

import pytest

from qgas import linalg
from qgas.errors import ExecutionError, ScenarioSyntaxError
from qgas.protocol import execute
from qgas.protocol.ast import MAX_DIM
from qgas.protocol.parser import parse

Q = "HEADER dim=2 temperature=1.0 particles=1.0\n"
# Lines 1-6: a dim-2 header, one observer, two kets and their states.
P = Q + (
    "OBSERVER lab full\n"
    "DEFINE_STATE zp ket(1, 0)\n"
    "DEFINE_STATE zm ket(0, 1)\n"
    "DEFINE_STATE zs proj(zp)\n"
    "DEFINE_STATE ms proj(zm)\n"
)

KET = "ket(" + ", ".join(["1"] + ["0"] * (MAX_DIM - 1)) + ")"


class TestDimensionBound:
    """A script asks for no dimension above ``MAX_DIM``; library calls are unbounded."""

    @pytest.mark.parametrize(
        "text, line, col, expected",
        [
            (f"HEADER dim={MAX_DIM + 1} temperature=1.0 particles=1.0\n", 1, 12,
             f"a dimension of at most {MAX_DIM}"),
            (Q + f"DEFINE_STATE k {KET[:-1]}, 0)\n", 2, 20 + 3 * MAX_DIM,
             f"a dimension of at most {MAX_DIM}"),
            (P + "DEFINE_INSTRUMENT m " + " ".join(f"e{i}=zs" for i in range(MAX_DIM + 1)) + "\n",
             7, 21 + 5 * MAX_DIM + sum(len(str(i)) for i in range(MAX_DIM)),
             f"at most {MAX_DIM} elements"),
        ],
        ids=["header", "ket", "instrument"],
    )
    def test_script_above_the_bound_is_rejected_where_it_asks(self, text, line, col, expected):
        with pytest.raises(ScenarioSyntaxError) as err:
            parse(text)
        assert (err.value.line, err.value.column, err.value.expected) == (line, col, expected)

    @pytest.mark.parametrize(
        "body, col",
        [
            ("DEFINE_STATE k tensor(tensor(a, a), a)\n", 16),
            ("DEFINE_STATE s tensor(proj(tensor(a, a)), proj(a))\n", 16),
            ("DEFINE_INSTRUMENT m e=tensor(identity(4), proj(tensor(a, a)))\n", 23),
            (
                "CHAMBER u 1.0 zs\n"
                "ROTATE u tensor(identity(4), tensor(identity(4), identity(4)))\n",
                10,
            ),
        ],
        ids=["kets", "states", "instrument-element", "unitary"],
    )
    def test_tensor_above_the_bound_fails_before_it_is_built(self, body, col):
        text = (
            "HEADER dim=4 temperature=1.0 particles=1.0\n"
            "DEFINE_STATE a ket(0.5, 0.5, 0.5, 0.5)\n"
            "DEFINE_STATE zs proj(tensor(ket(1, 0), ket(1, 0)))\n" + body
        )
        with pytest.raises(ExecutionError) as err:
            execute(parse(text))
        line = text.count("\n")
        assert (err.value.line, err.value.column) == (line, col)
        assert str(err.value).endswith(f"tensor dimension 64 exceeds {MAX_DIM}")

    def test_a_scenario_at_the_bound_runs(self):
        text = (
            f"HEADER dim={MAX_DIM} temperature=1.0 particles=1.0\n"
            "OBSERVER half reduce 2 16 first\n"
            f"DEFINE_STATE k {KET}\n"
            "DEFINE_STATE pair tensor(ket(0, 1), ket(" + ", ".join(["0.25"] * 16) + "))\n"
            "DEFINE_STATE blend mix(0.5*proj(k) + 0.5*proj(pair))\n"
            "DEFINE_INSTRUMENT m eigenbasis-of(blend)\n"
            "CHAMBER u 1.0 blend\n"
            "SEPARATE m\n"
            "MIX distinguishing -> u\n"
            "CLAIM_CYCLE\n"
        )
        report = execute(parse(text))
        assert report.result.final_chambers[0].contents.dim == MAX_DIM
        assert report.result.views["half"].verdict.status == "satisfied"

    def test_library_calls_are_not_bounded(self):
        ket = linalg.make_vector([1.0] + [0.0] * (2 * MAX_DIM - 1))
        assert linalg.tensor_vector(ket, ket).dim == 4 * MAX_DIM * MAX_DIM
