"""A well-formed ``ket(...)`` body is lexed as one KET token.

The token path (every sign, number and comma a token of its own, read by
``_complex_literal``) is what the lexeme must agree with: the amplitudes to
the bit, signed zeros included, and for any other body the same outcome,
which only the token path produces.  The token path is reached here by
substituting ``_TOKEN_PATH_RE`` for the parser's ``_TOKEN_RE``.
"""

from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qgas.errors import ProtocolError
from qgas.protocol import ast, parser
from qgas.protocol.parser import _tokenize_line, parse
from qgas.scenarios import BUNDLED, scenario_text

FIXTURES = Path(__file__).parent / "fixtures"
HEADER = "HEADER dim=2 temperature=1.0 particles=1.0\n"
PREFIX = "DEFINE_STATE s "

# ASCII, Arabic-Indic and fullwidth digits all match the NUMBER pattern.
_DIGITS = st.sampled_from(["0123456789", "٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９"])
_GAPS = st.sampled_from(["", " ", "  ", "\x0b", " \x0b\t"])


@st.composite
def numbers(draw):
    """NUMBER text without an `i`: digits with an optional point or a leading
    point, and an optional exponent that keeps the value finite."""
    digits = draw(_DIGITS)
    run = st.lists(st.sampled_from(digits), min_size=1, max_size=4).map("".join)
    shape = draw(st.sampled_from(["int", "point", "fraction", "leading-point"]))
    whole = draw(run)
    text = {
        "int": whole,
        "point": whole + ".",
        "fraction": f"{whole}.{draw(run)}",
        "leading-point": "." + draw(run),
    }[shape]
    if draw(st.booleans()):
        exponent = draw(st.integers(-400, 300))
        sign = "-" if exponent < 0 else draw(st.sampled_from(["", "+"]))
        text += draw(st.sampled_from("eE")) + sign + str(abs(exponent))
    return text


@st.composite
def amplitudes(draw):
    """[sign] NUMBER, [sign] NUMBER i, or [sign] NUMBER (+|-) NUMBER i, with a
    gap wherever the token path allows one; `0` and `-0` parts come often."""
    part = st.one_of(st.just("0"), numbers())
    sign = draw(st.sampled_from(["", "+", "-"]))
    text = f"{sign}{draw(_GAPS)}{draw(part)}" if sign else draw(part)
    form = draw(st.sampled_from(["real", "imaginary", "complex"]))
    if form == "imaginary":
        return text + "i"
    if form == "complex":
        connector = draw(st.sampled_from("+-"))
        text += f"{draw(_GAPS)}{connector}{draw(_GAPS)}{draw(part)}i"
    return text


@st.composite
def ket_bodies(draw):
    count = draw(st.integers(1, ast.MAX_DIM))
    parts = [draw(amplitudes()) for _ in range(count)]
    body = "".join(f"{draw(_GAPS)},{draw(_GAPS)}{p}" for p in parts[1:])
    return f"({draw(_GAPS)}{parts[0]}{body}{draw(_GAPS)})"


def token_path(call):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parser, "_TOKEN_RE", parser._TOKEN_PATH_RE)
        return call()


def bits(values) -> list[tuple[str, str]]:
    return [(z.real.hex(), z.imag.hex()) for z in values]


def ket_expr(line: str) -> ast.KetExpr:
    """The expression after ``PREFIX``, parsed from the tokens of one line
    (``parse`` would split a line at \\x0b)."""
    cur = parser._Cursor(_tokenize_line(line, 2))
    cur.index = 2
    return parser._Parser().parse_expr(cur)


def outcome(text: str):
    """The AST with its ket parts as exact bits, or the error's class and text."""
    try:
        protocol = parse(text)
    except ProtocolError as err:
        return type(err).__name__, str(err)
    return [
        (s, bits(s.expr.amplitudes) if isinstance(s.expr, ast.KetExpr) else None)
        for s in protocol.statements
    ]


@given(ket_bodies())
def test_a_well_formed_body_is_one_ket_token_with_the_token_path_values(body):
    line = PREFIX + "ket" + body
    tokens = _tokenize_line(line, 2)
    assert [t.kind for t in tokens] == ["NAME", "NAME", "NAME", "KET", "EOL"]
    ket = tokens[3]
    assert (ket.text, ket.col) == (body, len(PREFIX) + 4)
    lexed = ket_expr(line)
    expected = token_path(lambda: ket_expr(line))
    assert bits(ket.value) == bits(lexed.amplitudes) == bits(expected.amplitudes)
    assert (lexed.line, lexed.col) == (expected.line, expected.col) == (2, len(PREFIX) + 1)


_ONE = ", ".join(["0"] * (ast.MAX_DIM - 1) + ["1"])


@pytest.mark.parametrize(
    "expr, message",
    [
        (f"ket({_ONE}, 0)", "line 2, col 116: expected a dimension of at most 32"),
        ("ket(1e999)", "line 2, col 20: expected a finite number"),
        ("ket(1, 0 - 1e999i)", "line 2, col 27: expected a finite number"),
        ("myket(1)", "line 2, col 16: name 'myket' is not defined"),
        ("x # ket(1)", "line 2, col 16: name 'x' is not defined"),
        ("ket(1,)", "line 2, col 22: expected a number"),
        ("ket(1+2)", "line 2, col 22: expected an imaginary part ending in i"),
        ("ket()", "line 2, col 20: expected a number"),
        ("ket(1 2)", "line 2, col 22: expected )"),
        ("ket(1(2))", "line 2, col 21: expected )"),
        ("ket(1 # )", "line 2, col 25: expected )"),
        ("ket (1)", None),  # a gap before `(` takes the token path, and parses
    ],
    ids=["33-amplitudes", "overflow", "overflow-imaginary", "myket", "comment", "trailing-comma",
         "no-i", "empty", "no-comma", "nested", "comment-inside", "gap"],
)
def test_any_other_body_keeps_its_token_path_outcome(expr, message):
    text = HEADER + PREFIX + expr + "\n"
    result = outcome(text)
    assert result == token_path(lambda: outcome(text))
    if message is None:
        assert result[0][1] == bits([1 + 0j])
    else:
        assert result[1] == message
    try:
        kinds = [t.kind for t in _tokenize_line(PREFIX + expr, 2)]
    except ProtocolError:  # 1e999, which the token path reports as it lexes
        return
    assert "KET" not in kinds


def test_both_kets_of_a_tensor_product_lex():
    line = PREFIX + "proj(tensor(ket(1, 0), ket(0.6, -0.8i)))"
    kets = [t for t in _tokenize_line(line, 2) if t.kind == "KET"]
    assert [(t.text, t.col) for t in kets] == [("(1, 0)", 31), ("(0.6, -0.8i)", 42)]
    assert outcome(HEADER + line) == token_path(lambda: outcome(HEADER + line))


@pytest.mark.parametrize(
    "text",
    [scenario_text(name) for name in BUNDLED]
    + [(FIXTURES / f"deep_protocol-{seed}.qg").read_text() for seed in (1, 2)],
    ids=[*BUNDLED, "deep_protocol-1", "deep_protocol-2"],
)
def test_every_ket_of_the_bundled_and_deep_scripts_is_one_token(text):
    for line_no, line in enumerate(text.splitlines(), start=1):
        kets = [t for t in _tokenize_line(line, line_no) if t.kind == "KET"]
        assert len(kets) == line.split("#")[0].count("ket(")
