"""Abstract syntax of scenario scripts, plus the canonical renderer.

Every node inherits its source position from ``_Node``; positions serve
error reporting and are excluded from equality, so parse(render(p)) == p
holds node for node.  A header's observers are library
:class:`~qgas.observers.Observer` values, and ``OPERATIONS`` names the
statements that are ledger steps.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Union

from ..observers import Observer

# The largest dimension a script may ask for: of its HEADER, of a ket, of a
# tensor product, and the most elements of one DEFINE_INSTRUMENT line.
# Library calls are not bounded.
MAX_DIM = 32


def normal_nkt(temperature: float, particles: float) -> bool:
    """N T is a finite normal float: the report divides every heat by it."""
    return sys.float_info.min <= temperature * particles <= sys.float_info.max


@dataclass(frozen=True)
class _Node:
    """Source position of a node: reported in diagnostics, ignored by ==."""

    line: int = field(default=0, kw_only=True, compare=False, repr=False)
    col: int = field(default=0, kw_only=True, compare=False, repr=False)


# -- expressions -------------------------------------------------------------

@dataclass(frozen=True)
class NameRef(_Node):
    name: str


@dataclass(frozen=True)
class KetExpr(_Node):
    amplitudes: tuple[complex, ...]


@dataclass(frozen=True)
class ProjExpr(_Node):
    arg: "Expr"


@dataclass(frozen=True)
class MixExpr(_Node):
    terms: tuple[tuple[float, "Expr"], ...]


@dataclass(frozen=True)
class TensorExpr(_Node):
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class IdentityExpr(_Node):
    dim: int


@dataclass(frozen=True)
class RotateToExpr(_Node):
    source: "Expr"
    target: "Expr"


@dataclass(frozen=True)
class EigenbasisExpr(_Node):
    arg: "Expr"


Expr = Union[
    NameRef, KetExpr, ProjExpr, MixExpr, TensorExpr, IdentityExpr, RotateToExpr,
    EigenbasisExpr,
]


# -- header ------------------------------------------------------------------

@dataclass(frozen=True)
class Header(_Node):
    dim: int | None  # None for classical scenarios
    temperature: float
    particles: float
    observers: tuple[Observer, ...]


# -- statements --------------------------------------------------------------

@dataclass(frozen=True)
class DefineState(_Node):
    name: str
    expr: Expr


@dataclass(frozen=True)
class DefineInstrument(_Node):
    name: str
    # Either an explicit projector list or a single EigenbasisExpr.
    elements: tuple[tuple[str, Expr], ...] = ()
    eigenbasis: EigenbasisExpr | None = None


@dataclass(frozen=True)
class ChamberStmt(_Node):
    position: str
    fraction: float
    state: str


@dataclass(frozen=True)
class ClassicalChamberStmt(_Node):
    position: str
    fraction: float
    species: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class SeparateStmt(_Node):
    instrument: str


@dataclass(frozen=True)
class ClassicalSeparateStmt(_Node):
    permeability: tuple[tuple[str, str], ...]  # species -> transmitted|reflected


@dataclass(frozen=True)
class MixStmt(_Node):
    distinguishing: bool
    chambers: tuple[str, ...] = ()  # empty means all
    into: str | None = None
    classical: bool = False


@dataclass(frozen=True)
class RotateStmt(_Node):
    chamber: str
    unitary: Expr


@dataclass(frozen=True)
class PartitionStmt(_Node):
    chamber: str
    fractions: tuple[float, ...]
    names: tuple[str, ...]


@dataclass(frozen=True)
class RemovePartitionStmt(_Node):
    chambers: tuple[str, ...] = ()  # empty means all
    into: str | None = None


@dataclass(frozen=True)
class ClaimCycleStmt(_Node):
    pass


@dataclass(frozen=True)
class ExpectTotalHeat(_Node):
    value: float
    tol: float


@dataclass(frozen=True)
class ExpectVerdict(_Node):
    observer: str
    outcome: str  # violation | satisfied | not_applicable


Statement = Union[
    DefineState, DefineInstrument, ChamberStmt, ClassicalChamberStmt,
    SeparateStmt, ClassicalSeparateStmt, MixStmt, RotateStmt, PartitionStmt,
    RemovePartitionStmt, ClaimCycleStmt, ExpectTotalHeat, ExpectVerdict,
]


# The statements that are ledger steps: the first one freezes the initial
# configuration, and each books one ledger entry.
OPERATIONS = (
    SeparateStmt, ClassicalSeparateStmt, MixStmt, RotateStmt, PartitionStmt,
    RemovePartitionStmt, ClaimCycleStmt,
)


@dataclass(frozen=True)
class Protocol:
    header: Header
    statements: tuple[Statement, ...]


# -- canonical rendering -----------------------------------------------------

def _render_number(x: float) -> str:
    return repr(float(x))


def _render_complex(z: complex) -> str:
    re, im = z.real, z.imag
    if im == 0:
        return _render_number(re)
    if re == 0:
        return f"{_render_number(im)}i"
    sign = "+" if im >= 0 else "-"
    return f"{_render_number(re)}{sign}{_render_number(abs(im))}i"


def render_expr(e: Expr) -> str:
    if isinstance(e, NameRef):
        return e.name
    if isinstance(e, KetExpr):
        return "ket(" + ", ".join(_render_complex(a) for a in e.amplitudes) + ")"
    if isinstance(e, ProjExpr):
        return f"proj({render_expr(e.arg)})"
    if isinstance(e, MixExpr):
        inner = " + ".join(f"{_render_number(w)}*{render_expr(s)}" for w, s in e.terms)
        return f"mix({inner})"
    if isinstance(e, TensorExpr):
        return f"tensor({render_expr(e.left)}, {render_expr(e.right)})"
    if isinstance(e, IdentityExpr):
        return f"identity({e.dim})"
    if isinstance(e, RotateToExpr):
        return f"rotate_to({render_expr(e.source)}, {render_expr(e.target)})"
    if isinstance(e, EigenbasisExpr):
        return f"eigenbasis-of({render_expr(e.arg)})"
    raise TypeError(f"unknown expression {e!r}")


def _render_header(h: Header) -> list[str]:
    variant = "classical" if h.dim is None else f"dim={h.dim}"
    lines = [
        f"HEADER {variant} temperature={_render_number(h.temperature)} "
        f"particles={_render_number(h.particles)}"
    ]
    for obs in h.observers:
        if obs.kind == "classical":
            view = ["classical", *(f"{a}={b}" for a, b in obs.species_map)]
        else:
            view = ["full"] if obs.reduction is None else ["reduce", *map(str, obs.reduction)]
        lines.append(" ".join(["OBSERVER", obs.name, *view]))
    return lines


def _positions_and_target(chambers: tuple[str, ...], into: str | None) -> list[str]:
    """The ``[<position> ...] [-> <name>]`` tail of MIX and REMOVE_PARTITION."""
    return [*chambers] if into is None else [*chambers, "->", into]


def _render_statement(s: Statement) -> str:
    if isinstance(s, DefineState):
        return f"DEFINE_STATE {s.name} {render_expr(s.expr)}"
    if isinstance(s, DefineInstrument):
        if s.eigenbasis is not None:
            return f"DEFINE_INSTRUMENT {s.name} {render_expr(s.eigenbasis)}"
        parts = " ".join(f"{label}={render_expr(e)}" for label, e in s.elements)
        return f"DEFINE_INSTRUMENT {s.name} {parts}"
    if isinstance(s, ChamberStmt):
        return f"CHAMBER {s.position} {_render_number(s.fraction)} {s.state}"
    if isinstance(s, ClassicalChamberStmt):
        bag = " ".join(f"{name}={_render_number(w)}" for name, w in s.species)
        return f"CLASSICAL_CHAMBER {s.position} {_render_number(s.fraction)} {bag}"
    if isinstance(s, SeparateStmt):
        return f"SEPARATE {s.instrument}"
    if isinstance(s, ClassicalSeparateStmt):
        parts = " ".join(f"{species}={verdict}" for species, verdict in s.permeability)
        return f"CLASSICAL_SEPARATE {parts}"
    if isinstance(s, MixStmt):
        head = "CLASSICAL_MIX" if s.classical else "MIX"
        mode = "distinguishing" if s.distinguishing else "free"
        return " ".join([head, mode, *_positions_and_target(s.chambers, s.into)])
    if isinstance(s, RotateStmt):
        return f"ROTATE {s.chamber} {render_expr(s.unitary)}"
    if isinstance(s, PartitionStmt):
        fracs = " ".join(_render_number(f) for f in s.fractions)
        return f"PARTITION {s.chamber} {fracs} -> {' '.join(s.names)}"
    if isinstance(s, RemovePartitionStmt):
        return " ".join(["REMOVE_PARTITION", *_positions_and_target(s.chambers, s.into)])
    if isinstance(s, ClaimCycleStmt):
        return "CLAIM_CYCLE"
    if isinstance(s, ExpectTotalHeat):
        return f"EXPECT Q_total ~= {_render_number(s.value)} {_render_number(s.tol)}"
    if isinstance(s, ExpectVerdict):
        return f"EXPECT verdict {s.observer} {s.outcome}"
    raise TypeError(f"unknown statement {s!r}")


def render(protocol: Protocol) -> str:
    """Canonical text form; reparsing it reproduces an equal Protocol."""
    lines = _render_header(protocol.header)
    lines.extend(_render_statement(s) for s in protocol.statements)
    return "\n".join(lines) + "\n"
