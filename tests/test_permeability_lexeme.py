"""A well-formed ``CLASSICAL_SEPARATE`` permeability map is one MAP token.

The token path (every species, ``=`` and verdict a token of its own, read
by ``parse_classical_separate``) is what the lexeme must agree with: the
same pairs in line order, and for any other map the same outcome, which only
the token path produces.  The token path is reached here by substituting a
pattern that matches nothing for the parser's ``_MAP_RE``.
"""

import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qgas.errors import ProtocolError
from qgas.protocol import parser
from qgas.protocol.parser import _tokenize_line, parse
from qgas.scenarios import BUNDLED, scenario_text

FIXTURES = Path(__file__).parent / "fixtures"
HEADER = "HEADER classical temperature=1.0 particles=1.0\n"
KEYWORD = "CLASSICAL_SEPARATE"

_GAPS = st.sampled_from([" ", "  ", "\t", "\x0b", " \x0b\t"])
_EQUALS_GAPS = st.sampled_from(["", "", " ", "\t", "\x0b"])
_NAMES = st.one_of(
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_/]{0,6}", fullmatch=True),
    st.sampled_from(["_", "s00", "a/b_1", "transmitted", "ket", KEYWORD]),
)


@st.composite
def maps(draw):
    """A map line of 1-40 distinct species, and its (species, verdict) pairs."""
    names = draw(st.lists(_NAMES, min_size=1, max_size=40, unique=True))
    pairs = tuple((name, draw(st.sampled_from(["transmitted", "reflected"]))) for name in names)
    body = "".join(
        f"{draw(_GAPS)}{name}{draw(_EQUALS_GAPS)}={draw(_EQUALS_GAPS)}{verdict}"
        for name, verdict in pairs
    )
    tail = draw(st.sampled_from(["", " ", "\t", " # a comment", "# ket(1) x=reflected"]))
    return KEYWORD + body + tail, pairs


def token_path(call):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parser, "_MAP_RE", re.compile(r"(?!)"))
        return call()


def outcome(text: str):
    """The statements with their positions, or the error's class and text."""
    try:
        protocol = parse(text)
    except ProtocolError as err:
        return type(err).__name__, str(err)
    return [(s, s.line, s.col) for s in protocol.statements]


@given(maps())
def test_a_well_formed_map_is_one_map_token_with_the_token_path_pairs(case):
    line, pairs = case
    tokens = _tokenize_line(line, 2)
    assert [t.kind for t in tokens] == ["NAME", "MAP", "EOL"]
    lexeme = tokens[1]
    assert lexeme.value == pairs
    body = line.partition("#")[0][len(KEYWORD):]
    assert (lexeme.text, lexeme.col) == (body, len(KEYWORD) + 1)
    assert tokens[2].col == len(line) + 1
    text = HEADER + line + "\n"
    lexed = outcome(text)
    assert lexed == token_path(lambda: outcome(text))
    [(statement, line_no, col)] = lexed
    assert (statement.permeability, line_no, col) == (pairs, 2, 1)


@pytest.mark.parametrize(
    "line, message",
    [
        (KEYWORD + " a=reflected b=transmitted a=transmitted",
         "line 2, col 46: expected a species not named before on this line"),
        (KEYWORD + " a=transmited", "line 2, col 22: expected transmitted or reflected"),
        (KEYWORD + " a=reflected b=", "line 2, col 34: expected transmitted or reflected"),
        (KEYWORD + " s00 transmitted", "line 2, col 24: expected ="),
        (KEYWORD + " 0x=reflected",
         "line 2, col 20: expected <species>=transmitted|reflected"),
        (KEYWORD + "s00=reflected", "line 2, col 1: expected a known statement keyword"),
        (KEYWORD, "line 2, col 1: expected a permeability map"),
        (KEYWORD + "  # no map", "line 2, col 1: expected a permeability map"),
        (KEYWORD + " a=reflectedb=transmitted",
         "line 2, col 22: expected transmitted or reflected"),
        (KEYWORD + " a=reflected b=transmitted_",
         "line 2, col 34: expected transmitted or reflected"),
        (KEYWORD + " a = = reflected", "line 2, col 24: expected transmitted or reflected"),
        (KEYWORD + " a=reflected b\u0663=transmitted", "line 2, col 33: expected ="),
        (KEYWORD + " a=reflected b=transmitted\xa0*",
         "line 2, col 46: expected <species>=transmitted|reflected"),
        (" " + KEYWORD + " a=reflected", None),  # not at the line's start: the token path
    ],
    ids=["repeated", "misspelled", "dangling", "no-equals", "leading-digit", "glued-keyword",
         "empty", "empty-comment", "glued-pair", "long-verdict", "double-equals", "arabic-digit",
         "stray", "indented"],
)
def test_any_other_map_keeps_its_token_path_outcome(line, message):
    text = HEADER + line + "\n"
    result = outcome(text)
    assert result == token_path(lambda: outcome(text))
    if message is None:
        [(statement, line_no, col)] = result
        assert (statement.permeability, line_no, col) == ((("a", "reflected"),), 2, 2)
    else:
        assert result[1] == message
    assert "MAP" not in [t.kind for t in _tokenize_line(line, 2)]


_TEXTS = {name: scenario_text(name) for name in BUNDLED} | {
    stem: (FIXTURES / f"{stem}.qg").read_text()
    for stem in ("classical_ledger-1", "classical_ledger-2", "deep_protocol-1", "deep_protocol-2")
}


@pytest.mark.parametrize("text", _TEXTS.values(), ids=_TEXTS.keys())
def test_every_classical_separate_line_is_one_map_token(text):
    for line_no, line in enumerate(text.splitlines(), start=1):
        kinds = [t.kind for t in _tokenize_line(line, line_no)]
        assert kinds.count("MAP") == line.partition("#")[0].count(KEYWORD)


def _token_count(text: str) -> int:
    return sum(
        len(_tokenize_line(line, line_no))
        for line_no, line in enumerate(text.split("\n"), start=1)
    )


@pytest.mark.parametrize(
    "stem, count",
    [("classical_ledger-1", 1091), ("classical_ledger-2", 1091),
     ("deep_protocol-1", 693), ("deep_protocol-2", 693)],
)
def test_fixture_token_counts(stem, count):
    assert _token_count(_TEXTS[stem]) == count


def test_bundled_token_count():
    assert sum(_token_count(scenario_text(name)) for name in BUNDLED) == 856
