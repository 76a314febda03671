"""Line-oriented parser for .qg scenario scripts.

One statement per line, `#` starts a comment, tokens are separated by
whitespace or punctuation.  Every diagnostic carries the 1-based line and
column of the offending token.  A well-formed ket body, from the `(` right
after the name `ket` through its `)`, holding 1 to ``ast.MAX_DIM`` finite
complex literals, is one KET token whose value is the amplitudes.  Any
other body is lexed token by token, and only that token path reports
errors, so a malformed ket gets the same diagnostic at the same column
either way.  An operation line holding no expression, after the first
operation, is parsed whole with no tokens when it fits its keyword's shape
in ``_SHAPES`` and passes the token path's checks.  Any other line is lexed
token by token, and only that path reports errors.  Blank and comment-only
lines are not lexed.
Statement keywords are matched exactly, in uppercase; a number must be
finite (`1e999` is rejected where it is written); chamber and partition
fractions must exceed 1e-9, the tolerance within which chamber fractions
must sum to 1.  No script asks for more than ``ast.MAX_DIM``
(32): a larger HEADER dim, ket or DEFINE_INSTRUMENT line is rejected at the
token that asks (and by semantics a larger tensor product, at its
expression); library calls are not bounded.  OBSERVER lines become
:class:`~qgas.observers.Observer` values on the header, and chambers are
declared before the first statement of ``ast.OPERATIONS``.

Grammar sketch (one statement per line):

    HEADER dim=<int> temperature=<num> particles=<num>
    HEADER classical temperature=<num> particles=<num>
    OBSERVER <name> full
    OBSERVER <name> reduce <d1> <d2> first|second
    OBSERVER <name> classical [<true>=<seen> ...]
    DEFINE_STATE <name> <expr>
    DEFINE_INSTRUMENT <name> <label>=<expr> ...
    DEFINE_INSTRUMENT <name> eigenbasis-of(<expr>)
    CHAMBER <position> <fraction> <state-name>
    CLASSICAL_CHAMBER <position> <fraction> <species>=<weight> ...
    SEPARATE <instrument-name>
    CLASSICAL_SEPARATE <species>=transmitted|reflected ...
    MIX distinguishing|free [<position> ...] [-> <name>]
    CLASSICAL_MIX distinguishing|free [<position> ...] [-> <name>]
    ROTATE <position> <unitary-expr>
    PARTITION <position> <fraction> ... -> <name> ...
    REMOVE_PARTITION [<position> ...] [-> <name>]
    CLAIM_CYCLE
    EXPECT Q_total ~= <value> [<tol>]          # also accepts the ≈ glyph
    EXPECT verdict <observer> violation|satisfied|not_applicable

Expressions: ket(a+bi, ...), proj(e), mix(w*e + w*e), tensor(e, e),
identity(n), rotate_to(e, e), eigenbasis-of(e), or a defined name.  The n
of identity(n) runs from 1 to the HEADER dim, and a classical scenario has
no identity(n).
"""

from __future__ import annotations

import cmath
import math
import re
import string
from dataclasses import replace
from typing import NamedTuple

from ..errors import (
    DuplicateNameError,
    HeaderMissingError,
    ScenarioSyntaxError,
    UndefinedNameError,
)
from ..observers import Observer
from . import ast

_CONSTRUCTORS = {"ket", "proj", "mix", "tensor", "identity", "rotate_to"}
# Splitting the text of a line before its first `#` (the rest is a comment)
# on _TOKEN_RE gives [gap, token, gap, ..., token, gap], where every gap is
# whitespace.  The alternatives, in priority order: eigenbasis-of, ->, ~= or
# ≈, a NUMBER, a NAME, a KET lexeme, and any other single character, which is
# a punctuation token or an error.  _TOKEN_PATH_RE is the same without the KET
# lexeme.  A NUMBER reads a digit run one way only, so a missed shape fails fast.
_NUMBER = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_NAME = r"[A-Za-z_][A-Za-z0-9_/]*"
_TOKENS = rf"eigenbasis-of|->|~=|≈|{_NUMBER}i?|{_NAME}"
# A KET lexeme runs from a `(` that ends the name `ket` (not a longer name)
# through the first `)`, with no `(` between.  _AMPLITUDE_RE reads it as a
# run of `(` or `,` each followed by one amplitude, [sign] NUMBER [i | (+|-)
# NUMBER i], with gaps where the token path allows them; its last group
# catches a character that does not fit, and then the line is lexed again by
# the token path.
_KET = r"\((?<=ket\()(?<![A-Za-z0-9_/]ket\()[^()]*\)"
_TOKEN_RE = re.compile(rf"({_TOKENS}|{_KET}|\S)")
_TOKEN_PATH_RE = re.compile(rf"({_TOKENS}|\S)")
_AMPLITUDE_RE = re.compile(
    rf"[(,]\s*(?:([+-])\s*)?({_NUMBER})(?:(i)|\s*([+-])\s*({_NUMBER})i)?\s*|([^)])"
)
# Operation keyword -> the shape of the rest of a well-formed line that holds
# no expression, read by _Parser.parse_whole; the key is the line's first
# word by _WORD_RE.  A shape needs a gap wherever the token path would
# otherwise read one token, so each NAME and NUMBER it matches is the token
# lexed there.
_WORD_RE = re.compile(r"[^\s#]*")
_END = r"\s*(?:#.*)?"
_PAIR = rf"\s+{_NAME}\s*=\s*(?:transmitted|reflected)"
_TARGET = rf"((?:\s+{_NAME})*)(?:\s*->\s*({_NAME}))?{_END}"  # [<position> ...] [-> <name>]
_MIX = rf"\s+(distinguishing|free){_TARGET}"
_SHAPES = {word: re.compile(shape) for word, shape in (
    ("SEPARATE", rf"\s+({_NAME}){_END}"),
    ("CLASSICAL_SEPARATE", rf"((?:{_PAIR})+){_END}"),
    ("MIX", _MIX),
    ("CLASSICAL_MIX", _MIX),
    ("PARTITION", rf"\s+({_NAME})((?:\s+{_NUMBER}){{2,}})\s*->\s*({_NAME}(?:\s+{_NAME})*){_END}"),
    ("REMOVE_PARTITION", _TARGET),
    ("CLAIM_CYCLE", _END),
)}
# Kinds of the tokens that are spelled one way; punctuation is its own kind.
_FIXED_KINDS = {"eigenbasis-of": "EIG", "->": "->", "~=": "~", "≈": "~"}
_FIXED_KINDS.update((c, c) for c in "(),*+-=")
_NAME_START = frozenset(string.ascii_letters + "_")
_tuple_new = tuple.__new__
# Volume fractions must exceed this, and fractions must sum to 1 within it.
_FRACTION_TOL = 1e-9
_FLOOR = f"a fraction above {_FRACTION_TOL:g}"
_REPEATED = "a species not named before on this line"
_AT_MOST_DIM = f"a dimension of at most {ast.MAX_DIM}"
_NORMAL_NKT = "particles whose product with the temperature is a finite normal float"


class Token(NamedTuple):
    kind: str  # NAME NUMBER KET ( ) , * + - = -> ~ EIG EOL
    text: str
    line: int
    col: int
    value: float | tuple[complex, ...] = 0.0  # a KET's value is its amplitudes
    imaginary: bool = False


def _ket_amplitudes(lexeme: str) -> tuple[complex, ...] | None:
    """The amplitudes of a KET lexeme, by :func:`_complex_literal`'s
    arithmetic, or None unless it is a well-formed body of at most MAX_DIM
    finite amplitudes (a part is infinite only if its number overflowed)."""
    amplitudes = []
    for sign, number, imaginary, connector, imag_number, stray in _AMPLITUDE_RE.findall(lexeme):
        if stray:
            return None
        value = -float(number) if sign == "-" else float(number)
        if imaginary:
            amplitude = complex(0.0, value)
        else:
            amplitude = complex(value, 0.0)
            if connector:
                imag = float(imag_number)
                amplitude += complex(0.0, imag if connector == "+" else -imag)
        amplitudes.append(amplitude)
    if len(amplitudes) > ast.MAX_DIM or not all(map(cmath.isfinite, amplitudes)):
        return None
    return tuple(amplitudes)


def _tokenize_line(text: str, line_no: int, pattern: re.Pattern | None = None) -> list[Token]:
    """The tokens of a line before its first `#`, then EOL at the line's end.
    ``pattern`` is given only to lex a line again by the token path when a
    KET lexeme is not a well-formed ket body."""
    # tuple.__new__ builds each Token without the NamedTuple's Python-level __new__.
    tokens: list[Token] = []
    col = 1
    parts = iter((pattern or _TOKEN_RE).split(text.partition("#")[0]))
    for gap, raw in zip(parts, parts):
        col += len(gap)
        kind = _FIXED_KINDS.get(raw)
        if kind is None and raw[0] in _NAME_START:
            kind = "NAME"
        if kind is not None:
            tokens.append(_tuple_new(Token, (kind, raw, line_no, col, 0.0, False)))
        elif raw[0] == "(":  # a KET lexeme, the only other token starting so
            amplitudes = _ket_amplitudes(raw)
            if amplitudes is None:
                return _tokenize_line(text, line_no, _TOKEN_PATH_RE)
            tokens.append(_tuple_new(Token, ("KET", raw, line_no, col, amplitudes, False)))
        elif len(raw) > 1 or raw.isdecimal():  # NUMBER, the only other multi-char kind
            if not gap and tokens and tokens[-1][0] == "NUMBER":  # 1.51.5 is no pair
                raise ScenarioSyntaxError(line_no, col, "a gap between two numbers")
            imaginary = raw[-1] == "i"
            value = float(raw[:-1] if imaginary else raw)
            if value == math.inf:
                raise ScenarioSyntaxError(line_no, col, "a finite number")
            tokens.append(_tuple_new(Token, ("NUMBER", raw, line_no, col, value, imaginary)))
        else:
            raise ScenarioSyntaxError(line_no, col, f"a token, not {raw!r}")
        col += len(raw)
    tokens.append(_tuple_new(Token, ("EOL", "", line_no, len(text) + 1, 0.0, False)))
    return tokens


class _Cursor:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.index = 0

    def peek(self) -> Token:
        return self.tokens[self.index]

    def accept(self, *kinds: str) -> Token | None:
        """Consume and return the next token if it is of one of ``kinds``."""
        token = self.tokens[self.index]
        if token.kind in kinds:
            self.index += 1
            return token
        return None

    def expect(self, kind: str, what: str | None = None) -> Token:
        token = self.tokens[self.index]
        if token.kind != kind:
            raise ScenarioSyntaxError(token.line, token.col, what or kind)
        self.index += 1  # kind is never EOL: expect_end() checks the end
        return token

    def expect_name(self, what: str = "a name") -> Token:
        return self.expect("NAME", what)

    def expect_word(self, words: tuple[str, ...], what: str) -> Token:
        """A NAME spelled as one of ``words``; anything else is reported as ``what``."""
        token = self.tokens[self.index]
        if token.kind != "NAME" or token.text not in words:
            raise ScenarioSyntaxError(token.line, token.col, what)
        self.index += 1
        return token

    def at_end(self) -> bool:
        return self.tokens[self.index].kind == "EOL"

    def expect_end(self) -> None:
        token = self.peek()
        if token.kind != "EOL":
            raise ScenarioSyntaxError(token.line, token.col, "end of line")


def _sign(cur: _Cursor) -> float:
    """Consume an optional + or -, and return it as 1.0 or -1.0."""
    token = cur.accept("+", "-")
    return -1.0 if token is not None and token.kind == "-" else 1.0


def _signed_number(cur: _Cursor, what: str = "a number") -> tuple[float, Token]:
    sign = _sign(cur)
    number = cur.expect("NUMBER", what)
    if number.imaginary:
        raise ScenarioSyntaxError(number.line, number.col, "a real number")
    return sign * number.value, number


def _complex_literal(cur: _Cursor) -> complex:
    """[sign] NUMBER [(+|-) NUMBER-with-i] with either part optional-imaginary."""
    sign = _sign(cur)
    first = cur.expect("NUMBER", "a number")
    if first.imaginary:
        return complex(0.0, sign * first.value)
    value = complex(sign * first.value, 0.0)
    connector = cur.accept("+", "-")
    if connector is not None:
        second = cur.expect("NUMBER", "an imaginary part like 0.5i")
        if not second.imaginary:
            raise ScenarioSyntaxError(
                second.line, second.col, "an imaginary part ending in i"
            )
        imag = second.value if connector.kind == "+" else -second.value
        value += complex(0.0, imag)
    return value


def _key_value(cur: _Cursor, key: str) -> None:
    cur.expect_word((key,), f"{key}=<value>")
    cur.expect("=")


def _fraction(cur: _Cursor, what: str, expected: str, whole: bool) -> float:
    """A volume fraction in (0, 1), or (0, 1] if ``whole``, above the floor."""
    fraction, token = _signed_number(cur, what)
    if not 0 < fraction <= 1 or (fraction == 1 and not whole):
        raise ScenarioSyntaxError(token.line, token.col, expected)
    if fraction <= _FRACTION_TOL:
        raise ScenarioSyntaxError(token.line, token.col, _FLOOR)
    return fraction


def _positions_and_target(cur: _Cursor) -> tuple[tuple[str, ...], str | None]:
    """The ``[<position> ...] [-> <name>]`` tail of MIX and REMOVE_PARTITION."""
    chambers = []
    while not cur.at_end():
        if cur.accept("->"):
            return tuple(chambers), cur.expect_name("a chamber name").text
        chambers.append(cur.expect_name("a chamber position").text)
    return tuple(chambers), None


_CHAMBERS = (ast.ChamberStmt, ast.ClassicalChamberStmt)


class _Parser:
    def __init__(self):
        self.header: ast.Header | None = None
        self.observers: list[Observer] = []
        self.statements: list[ast.Statement] = []
        # name -> "state" | "instrument"
        self.names: dict[str, str] = {}
        self.saw_operation = False
        self.saw_body = False

    def parse_line(self, tokens: list[Token]) -> None:
        cur = _Cursor(tokens)
        keyword = cur.expect_name("a statement keyword")
        word = keyword.text
        if word == "HEADER":
            self.parse_header(cur, keyword)
            return
        if self.header is None:
            raise HeaderMissingError(
                "the script must start with a HEADER line", keyword.line, keyword.col
            )
        if word == "OBSERVER":
            if self.saw_body:
                raise ScenarioSyntaxError(
                    keyword.line, keyword.col, "OBSERVER lines before any statement"
                )
            self.observers.append(self.parse_observer(cur))
            cur.expect_end()
            return
        self.saw_body = True
        parse_rest = _STATEMENTS.get(word)
        if parse_rest is None:
            raise ScenarioSyntaxError(keyword.line, keyword.col, "a known statement keyword")
        statement = parse_rest(self, cur, keyword)
        cur.expect_end()
        if isinstance(statement, _CHAMBERS) and self.saw_operation:
            raise ScenarioSyntaxError(
                keyword.line, keyword.col,
                "chamber declarations before the first operation",
            )
        if isinstance(statement, ast.OPERATIONS) and not self.saw_operation:
            self.check_container_filled(keyword)
            self.saw_operation = True
        self.statements.append(statement)

    def check_container_filled(self, at: Token | None = None) -> None:
        """Declared chambers fill the container: their fractions sum to 1.
        A failure is reported at ``at`` or else at the last chamber."""
        chambers = [s for s in self.statements if isinstance(s, _CHAMBERS)]
        total = sum(c.fraction for c in chambers)
        if chambers and abs(total - 1.0) > _FRACTION_TOL:
            at = at or chambers[-1]
            raise ScenarioSyntaxError(at.line, at.col, f"fractions summing to 1, not {total!r}")

    # -- header and observers ------------------------------------------------

    def parse_header(self, cur: _Cursor, keyword: Token) -> None:
        if self.header is not None:
            raise ScenarioSyntaxError(keyword.line, keyword.col, "a single HEADER line")
        dim: int | None = None
        if cur.expect_word(("dim", "classical"), "dim=<int> or classical").text == "dim":
            cur.expect("=")
            number = cur.expect("NUMBER", "an integer dimension")
            if number.imaginary or number.value != int(number.value) or number.value < 1:
                raise ScenarioSyntaxError(number.line, number.col, "a positive integer dimension")
            if number.value > ast.MAX_DIM:
                raise ScenarioSyntaxError(number.line, number.col, _AT_MOST_DIM)
            dim = int(number.value)
        _key_value(cur, "temperature")
        temperature, t_token = _signed_number(cur)
        _key_value(cur, "particles")
        particles, n_token = _signed_number(cur)
        cur.expect_end()
        if temperature <= 0:
            raise ScenarioSyntaxError(t_token.line, t_token.col, "a positive temperature")
        if particles <= 0:
            raise ScenarioSyntaxError(n_token.line, n_token.col, "a positive particle amount")
        if not ast.normal_nkt(temperature, particles):
            raise ScenarioSyntaxError(n_token.line, n_token.col, _NORMAL_NKT)
        self.header = ast.Header(
            dim, temperature, particles, (), line=keyword.line, col=keyword.col
        )

    def parse_observer(self, cur: _Cursor) -> Observer:
        name = cur.expect_name("an observer name")
        if any(obs.name == name.text for obs in self.observers):
            raise DuplicateNameError(
                f"observer {name.text!r} already declared", name.line, name.col
            )
        mode = cur.expect_word(("full", "reduce", "classical"), "full, reduce, or classical")
        dim = self.header.dim
        if (mode.text == "classical") != (dim is None):
            fits = "classical in a classical" if dim is None else "full or reduce in a quantum"
            raise ScenarioSyntaxError(mode.line, mode.col, f"{fits} scenario")
        if mode.text == "full":
            return Observer.quantum(name.text)
        if mode.text == "reduce":
            d1 = cur.expect("NUMBER", "first factor dimension")
            d2 = cur.expect("NUMBER", "second factor dimension")
            keep = cur.expect_word(("first", "second"), "first or second")
            if any(t.imaginary or t.value != int(t.value) or t.value < 1 for t in (d1, d2)):
                raise ScenarioSyntaxError(d1.line, d1.col, "positive integer factor dims")
            if int(d1.value) * int(d2.value) != dim:
                raise ScenarioSyntaxError(d1.line, d1.col, f"factor dims multiplying to {dim}")
            return Observer.quantum(name.text, (int(d1.value), int(d2.value), keep.text))
        mapping = {}
        while not cur.at_end():
            source = cur.expect_name("<true-species>=<seen-species>")
            if source.text in mapping:
                raise ScenarioSyntaxError(source.line, source.col, _REPEATED)
            cur.expect("=")
            mapping[source.text] = cur.expect_name("the observed species name").text
        return Observer.classical(name.text, mapping)

    # -- expressions -----------------------------------------------------------

    def parse_expr(self, cur: _Cursor) -> ast.Expr:
        eig = cur.accept("EIG")
        if eig is not None:
            cur.expect("(")
            inner = self.parse_expr(cur)
            cur.expect(")")
            return ast.EigenbasisExpr(inner, line=eig.line, col=eig.col)
        token = cur.expect("NAME", "an expression")
        word = token.text
        if word == "ket":
            lexeme = cur.accept("KET")
            if lexeme is not None:
                return ast.KetExpr(lexeme.value, line=token.line, col=token.col)
        if word in _CONSTRUCTORS:
            cur.expect("(")
            if word == "ket":
                amplitudes = [_complex_literal(cur)]
                while cur.accept(","):
                    if len(amplitudes) == ast.MAX_DIM:
                        extra = cur.peek()
                        raise ScenarioSyntaxError(extra.line, extra.col, _AT_MOST_DIM)
                    amplitudes.append(_complex_literal(cur))
                cur.expect(")")
                return ast.KetExpr(tuple(amplitudes), line=token.line, col=token.col)
            if word == "proj":
                inner = self.parse_expr(cur)
                cur.expect(")")
                return ast.ProjExpr(inner, line=token.line, col=token.col)
            if word == "mix":
                terms = [self.parse_mix_term(cur)]
                while cur.accept("+"):
                    terms.append(self.parse_mix_term(cur))
                cur.expect(")")
                return ast.MixExpr(tuple(terms), line=token.line, col=token.col)
            if word == "tensor":
                left = self.parse_expr(cur)
                cur.expect(",")
                right = self.parse_expr(cur)
                cur.expect(")")
                return ast.TensorExpr(left, right, line=token.line, col=token.col)
            if word == "identity":
                number = cur.expect("NUMBER", "a dimension")
                if number.imaginary or number.value != int(number.value):
                    raise ScenarioSyntaxError(number.line, number.col, "an integer dimension")
                # An identity factor never exceeds the space it acts on.
                dim = self.header.dim
                if dim is None:
                    raise ScenarioSyntaxError(
                        number.line, number.col, "a quantum HEADER for identity(n)"
                    )
                if not 1 <= number.value <= dim:
                    raise ScenarioSyntaxError(
                        number.line, number.col, f"an identity dimension from 1 to {dim}"
                    )
                cur.expect(")")
                return ast.IdentityExpr(int(number.value), line=token.line, col=token.col)
            if word == "rotate_to":
                source = self.parse_expr(cur)
                cur.expect(",")
                target = self.parse_expr(cur)
                cur.expect(")")
                return ast.RotateToExpr(source, target, line=token.line, col=token.col)
        if word not in self.names:
            raise UndefinedNameError(f"name {word!r} is not defined", token.line, token.col)
        return ast.NameRef(word, line=token.line, col=token.col)

    def parse_mix_term(self, cur: _Cursor) -> tuple[float, ast.Expr]:
        weight, _ = _signed_number(cur, "a mixture weight")
        cur.expect("*", "'*' between weight and state")
        return weight, self.parse_expr(cur)

    # -- definitions -----------------------------------------------------------

    def defined(self, cur: _Cursor, kind: str) -> str:
        """A name that a DEFINE_STATE or DEFINE_INSTRUMENT line gave ``kind``."""
        name = cur.expect_name(f"a defined {kind} name")
        if self.names.get(name.text) != kind:
            raise UndefinedNameError(f"{kind} {name.text!r} is not defined", name.line, name.col)
        return name.text

    def _define(self, name: Token, kind: str) -> str:
        if name.text in self.names:
            raise DuplicateNameError(
                f"name {name.text!r} already defined", name.line, name.col
            )
        if name.text in _CONSTRUCTORS:
            raise ScenarioSyntaxError(name.line, name.col, "a non-reserved name")
        self.names[name.text] = kind
        return name.text

    def parse_define_state(self, cur: _Cursor, keyword: Token) -> ast.DefineState:
        name = cur.expect_name("a state name")
        expr = self.parse_expr(cur)
        return ast.DefineState(
            self._define(name, "state"), expr, line=keyword.line, col=keyword.col
        )

    def parse_define_instrument(self, cur: _Cursor, keyword: Token) -> ast.DefineInstrument:
        name = cur.expect_name("an instrument name")
        if cur.peek().kind == "EIG":
            eig = self.parse_expr(cur)
            assert isinstance(eig, ast.EigenbasisExpr)
            return ast.DefineInstrument(
                self._define(name, "instrument"), (), eig,
                line=keyword.line, col=keyword.col,
            )
        elements = []
        while not cur.at_end():
            if len(elements) == ast.MAX_DIM:
                extra = cur.peek()
                raise ScenarioSyntaxError(extra.line, extra.col, f"at most {ast.MAX_DIM} elements")
            label = cur.expect_name("<outcome-label>=<projector-expr>")
            cur.expect("=")
            elements.append((label.text, self.parse_expr(cur)))
        if not elements:
            raise ScenarioSyntaxError(
                keyword.line, keyword.col, "at least one projector or eigenbasis-of(...)"
            )
        labels = [label for label, _ in elements]
        if len(set(labels)) != len(labels):
            raise ScenarioSyntaxError(keyword.line, keyword.col, "distinct outcome labels")
        return ast.DefineInstrument(
            self._define(name, "instrument"), tuple(elements), None,
            line=keyword.line, col=keyword.col,
        )

    # -- chambers and operations ----------------------------------------------

    def parse_chamber(
        self, cur: _Cursor, keyword: Token
    ) -> ast.ChamberStmt | ast.ClassicalChamberStmt:
        position = cur.expect_name("a chamber position")
        fraction = _fraction(cur, "a volume fraction", "a fraction in (0, 1]", whole=True)
        if keyword.text == "CHAMBER":
            state = self.defined(cur, "state")
            return ast.ChamberStmt(
                position.text, fraction, state, line=keyword.line, col=keyword.col
            )
        bag = []
        while not cur.at_end():
            species = cur.expect_name("<species>=<weight>")
            cur.expect("=")
            weight, w_token = _signed_number(cur, "a species weight")
            if weight <= 0:
                raise ScenarioSyntaxError(w_token.line, w_token.col, "a positive weight")
            bag.append((species.text, weight))
        if not bag:
            raise ScenarioSyntaxError(keyword.line, keyword.col, "at least one species")
        return ast.ClassicalChamberStmt(
            position.text, fraction, tuple(bag), line=keyword.line, col=keyword.col
        )

    def parse_separate(self, cur: _Cursor, keyword: Token) -> ast.SeparateStmt:
        instrument = self.defined(cur, "instrument")
        return ast.SeparateStmt(instrument, line=keyword.line, col=keyword.col)

    def parse_classical_separate(self, cur: _Cursor, keyword: Token) -> ast.ClassicalSeparateStmt:
        permeability = {}
        while not cur.at_end():
            species = cur.expect_name("<species>=transmitted|reflected")
            if species.text in permeability:
                raise ScenarioSyntaxError(species.line, species.col, _REPEATED)
            cur.expect("=")
            verdict = cur.expect_word(("transmitted", "reflected"), "transmitted or reflected")
            permeability[species.text] = verdict.text
        if not permeability:
            raise ScenarioSyntaxError(keyword.line, keyword.col, "a permeability map")
        return ast.ClassicalSeparateStmt(
            tuple(permeability.items()), line=keyword.line, col=keyword.col
        )

    def parse_mix(self, cur: _Cursor, keyword: Token) -> ast.MixStmt:
        mode = cur.expect_word(("distinguishing", "free"), "distinguishing or free")
        chambers, into = _positions_and_target(cur)
        return ast.MixStmt(
            mode.text == "distinguishing", chambers, into, keyword.text == "CLASSICAL_MIX",
            line=keyword.line, col=keyword.col,
        )

    def parse_rotate(self, cur: _Cursor, keyword: Token) -> ast.RotateStmt:
        chamber = cur.expect_name("a chamber position")
        unitary = self.parse_expr(cur)
        return ast.RotateStmt(chamber.text, unitary, line=keyword.line, col=keyword.col)

    def parse_partition(self, cur: _Cursor, keyword: Token) -> ast.PartitionStmt:
        chamber = cur.expect_name("a chamber position")
        fractions = []
        while cur.peek().kind in ("NUMBER", "+", "-"):
            fractions.append(_fraction(cur, "a fraction", "fractions in (0, 1)", whole=False))
        arrow = cur.expect("->", "'->' and new chamber names")
        names = []
        while not cur.at_end():
            names.append(cur.expect_name("a chamber name").text)
        if len(fractions) < 2:
            raise ScenarioSyntaxError(keyword.line, keyword.col, "at least two fractions")
        if len(names) != len(fractions):
            raise ScenarioSyntaxError(arrow.line, arrow.col, "one name per fraction")
        if abs(sum(fractions) - 1.0) > _FRACTION_TOL:
            raise ScenarioSyntaxError(keyword.line, keyword.col, "fractions summing to 1")
        return ast.PartitionStmt(
            chamber.text, tuple(fractions), tuple(names),
            line=keyword.line, col=keyword.col,
        )

    def parse_remove_partition(self, cur: _Cursor, keyword: Token) -> ast.RemovePartitionStmt:
        chambers, into = _positions_and_target(cur)
        return ast.RemovePartitionStmt(chambers, into, line=keyword.line, col=keyword.col)

    def parse_claim_cycle(self, cur: _Cursor, keyword: Token) -> ast.ClaimCycleStmt:
        return ast.ClaimCycleStmt(line=keyword.line, col=keyword.col)

    def parse_expect(self, cur: _Cursor, keyword: Token) -> ast.Statement:
        if cur.expect_word(("Q_total", "verdict"), "Q_total or verdict").text == "Q_total":
            cur.expect("~", "'~=' (or the ≈ glyph)")
            value, _ = _signed_number(cur, "the expected total heat")
            tol = 1e-4
            if not cur.at_end():
                tol, t_token = _signed_number(cur, "a tolerance")
                if tol <= 0:
                    raise ScenarioSyntaxError(t_token.line, t_token.col, "a positive tolerance")
            return ast.ExpectTotalHeat(value, tol, line=keyword.line, col=keyword.col)
        observer = cur.expect_name("an observer name")
        if not any(obs.name == observer.text for obs in self.observers):
            raise UndefinedNameError(
                f"observer {observer.text!r} is not declared", observer.line, observer.col
            )
        outcome = cur.expect_word(
            ("violation", "satisfied", "not_applicable"), "violation, satisfied, or not_applicable"
        )
        return ast.ExpectVerdict(observer.text, outcome.text, line=keyword.line, col=keyword.col)

    def parse_whole(self, word: str, line: str, line_no: int) -> ast.Statement | None:
        """The statement of an operation line read without tokens, or None unless
        it fits its shape in ``_SHAPES`` and passes the token path's checks."""
        match = _SHAPES[word].fullmatch(line, len(word))
        if match is None:
            return None
        # Positions spelled out: built with ``**``, each node held 47 bytes more.
        if word == "PARTITION":
            fractions, names = tuple(map(float, match[2].split())), tuple(match[3].split())
            fit = len(names) == len(fractions) and _FRACTION_TOL < min(fractions)
            if fit and max(fractions) < 1 and abs(sum(fractions) - 1.0) <= _FRACTION_TOL:
                return ast.PartitionStmt(match[1], fractions, names, line=line_no, col=1)
        elif word.endswith("MIX"):
            chambers, classical = tuple(match[2].split()), word == "CLASSICAL_MIX"
            distinguishing = match[1] == "distinguishing"
            return ast.MixStmt(distinguishing, chambers, match[3], classical, line=line_no, col=1)
        elif word == "REMOVE_PARTITION":
            return ast.RemovePartitionStmt(tuple(match[1].split()), match[2], line=line_no, col=1)
        elif word == "CLASSICAL_SEPARATE":
            # The map fits its shape: with `=` as a gap, its words are species and verdict in turn.
            words = match[1].replace("=", " ").split()
            if len(set(words[::2])) == len(words) // 2:
                pairs = tuple(zip(words[::2], words[1::2]))
                return ast.ClassicalSeparateStmt(pairs, line=line_no, col=1)
        elif word == "SEPARATE":
            if self.names.get(match[1]) == "instrument":
                return ast.SeparateStmt(match[1], line=line_no, col=1)
        else:
            return ast.ClaimCycleStmt(line=line_no, col=1)
        return None


# Statement keyword, exactly as written -> the method parsing the rest of the line.
_STATEMENTS = {
    "DEFINE_STATE": _Parser.parse_define_state,
    "DEFINE_INSTRUMENT": _Parser.parse_define_instrument,
    "CHAMBER": _Parser.parse_chamber,
    "CLASSICAL_CHAMBER": _Parser.parse_chamber,
    "SEPARATE": _Parser.parse_separate,
    "CLASSICAL_SEPARATE": _Parser.parse_classical_separate,
    "MIX": _Parser.parse_mix,
    "CLASSICAL_MIX": _Parser.parse_mix,
    "ROTATE": _Parser.parse_rotate,
    "PARTITION": _Parser.parse_partition,
    "REMOVE_PARTITION": _Parser.parse_remove_partition,
    "CLAIM_CYCLE": _Parser.parse_claim_cycle,
    "EXPECT": _Parser.parse_expect,
}


def parse(text: str) -> ast.Protocol:
    """Parse scenario text into a Protocol; raises ProtocolError subclasses."""
    parser = _Parser()
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_no, line in enumerate(lines, start=1):
        word = _WORD_RE.match(line)[0]
        # After the first operation, the checks of HEADER and chambers are made.
        if word in _SHAPES and parser.saw_operation:
            statement = parser.parse_whole(word, line, line_no)
            if statement is not None:
                parser.statements.append(statement)
                continue
        elif not word and line.lstrip()[:1] in ("", "#"):  # blank or comment only
            continue
        parser.parse_line(_tokenize_line(line, line_no))
    if parser.header is None:
        raise HeaderMissingError("the script must contain a HEADER line", 1, 1)
    if not parser.saw_operation:
        parser.check_container_filled()
    header = replace(parser.header, observers=tuple(parser.observers))
    return ast.Protocol(header, tuple(parser.statements))
