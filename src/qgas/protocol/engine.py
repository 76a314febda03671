"""Step-by-step execution of a parsed scenario on ground truth.

The engine keeps one ordered list of chambers (order is meaningful: chambers
are labeled positions, and the cycle audit compares them positionally).
Operations rewrite the list:

* SEPARATE replaces each chamber by its outcome chambers, in place;
* MIX and REMOVE_PARTITION delete the merged chambers and append the result
  at the end of the list; chambers that hold one contents object (the
  fragments of a PARTITION, say) pool into a chamber holding that object;
* PARTITION replaces one chamber by its fragments, in place.

The statements in ``ast.OPERATIONS`` are the steps.  The first step
freezes the initial configuration, and every step appends one entry to the
shared heat ledger and one snapshot of the ground-truth chamber list;
observers are views applied when a snapshot is read.  The observers default
to the HEADER's, and ``Observer.check_fits`` fits each to the run once, as
it starts.  For its cycle verdict, each observer views the contents of the
initial and final chambers in one ``view_batch`` call, each contents object
once: its rows of the one view pass (``observers._views``), made into the
contents objects that ``ObserverView`` keeps.  The report makes its own
pass, over every step's contents, and keeps no view object.  Statements
dispatch through one handler table; quantum and classical statements share
their handlers.
Every step must conserve the gas: the chambers' volumes still sum to
``CONTAINER_VOLUME`` and their particles to the header's, within relative
``VOLUME_REL_TOL``.

``run`` alone places a step's error: a handler raises it without a position
(a library error, or ``_StepError`` for the engine's own checks), and
``run`` turns it into an ``ExecutionError`` at the statement.  The errors of
``semantics`` are already ``ProtocolError``s at their expression, and pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .. import diaphragm
from ..errors import (
    ExecutionError,
    IncompatibleReductionError,
    NonPositiveInputError,
    ProtocolError,
    QuantumGasError,
)
from ..linalg import _sum_in_order
from ..observers import Observer, ObserverView, view_batch
from ..statistics import ProjectiveInstrument, apply_unitary
from ..thermo import (
    VOLUME_REL_TOL,
    ClassicalContents,
    GasChamber,
    HeatLedger,
    QuantumContents,
    audit_cycle,
    contents_equal,
)
from . import ast, semantics

CONTAINER_VOLUME = 1.0


class _StepError(QuantumGasError):
    """A step's error, raised without a position: ``run`` places it at the statement."""


@dataclass(frozen=True, slots=True)
class StepTrace:
    index: int
    description: str
    heat: float
    chambers: tuple[GasChamber, ...]


@dataclass(frozen=True)
class RunResult:
    header: ast.Header
    observers: tuple[Observer, ...]
    ledger: HeatLedger
    initial_chambers: tuple[GasChamber, ...]
    final_chambers: tuple[GasChamber, ...]
    steps: tuple[StepTrace, ...]
    views: dict[str, ObserverView]

    @property
    def total_heat(self) -> float:
        return self.ledger.total_heat


class _Engine:
    def __init__(self, protocol: ast.Protocol, observers: list[Observer]):
        self.protocol = protocol
        self.header = protocol.header
        self.observers = observers
        self.scope: semantics.Scope = {}
        self.instruments: dict[str, ProjectiveInstrument] = {}
        self.chambers: list[GasChamber] = []
        self.initial: tuple[GasChamber, ...] | None = None
        self.ledger = HeatLedger()
        self.steps: list[StepTrace] = []
        if not ast.normal_nkt(self.header.temperature, self.header.particles):
            raise NonPositiveInputError("particles times temperature is not a finite normal float")
        self._validate_observers()

    def _validate_observers(self) -> None:
        names = [obs.name for obs in self.observers]
        if len(set(names)) != len(names):
            raise IncompatibleReductionError(f"duplicate observer names in {names}")
        for obs in self.observers:
            obs.check_fits(self.header.dim)

    # -- chamber bookkeeping ---------------------------------------------------

    def _find(self, position: str) -> int:
        for index, chamber in enumerate(self.chambers):
            if chamber.label == position:
                return index
        raise _StepError(
            f"no chamber at position {position!r} (have {[c.label for c in self.chambers]})"
        )

    def _select(self, positions: tuple[str, ...]) -> list[int]:
        if not positions:
            if not self.chambers:
                raise _StepError("no chambers exist yet")
            return list(range(len(self.chambers)))
        for i, position in enumerate(positions):
            if position in positions[:i]:
                raise _StepError(f"position {position!r} is selected twice")
        return [self._find(p) for p in positions]

    def _insert(self, chamber: GasChamber, at: int | None = None) -> None:
        if any(c.label == chamber.label for c in self.chambers):
            raise _StepError(f"chamber position {chamber.label!r} already exists")
        if at is None:
            self.chambers.append(chamber)
        else:
            self.chambers.insert(at, chamber)

    def _freeze_initial(self) -> None:
        if self.initial is None:
            self.initial = tuple(self.chambers)

    # -- per-statement handlers -------------------------------------------------

    def run(self) -> RunResult:
        for index, stmt in enumerate(self.protocol.statements):
            try:
                self._dispatch(index, stmt)
            except ProtocolError:
                raise
            except QuantumGasError as exc:
                raise ExecutionError(str(exc), stmt.line, stmt.col) from exc
        self._freeze_initial()
        initial = self.initial
        final = tuple(self.chambers)
        views: dict[str, ObserverView] = {}
        chambers = initial + final
        truths = {id(c.contents): c.contents for c in chambers}
        for obs in self.observers:
            viewed = dict(zip(truths, view_batch(obs, list(truths.values()))))
            seen = tuple(
                GasChamber(c.volume, c.temperature, c.particles, viewed[id(c.contents)], c.label)
                for c in chambers
            )
            seen_initial, seen_final = seen[: len(initial)], seen[len(initial) :]
            verdict = audit_cycle(self.ledger, list(seen_initial), list(seen_final))
            views[obs.name] = ObserverView(obs, seen_initial, seen_final, verdict)
        return RunResult(
            self.header,
            tuple(self.observers),
            self.ledger,
            initial,
            final,
            tuple(self.steps),
            views,
        )

    def _dispatch(self, index: int, stmt: ast.Statement) -> None:
        entry = _HANDLERS.get(type(stmt))
        if entry is None:
            raise _StepError(f"unsupported statement {type(stmt).__name__}")
        handler, keyword = entry
        if keyword is not None:
            self._check_variant(keyword, stmt)
        if not isinstance(stmt, ast.OPERATIONS):
            handler(self, stmt)
            return
        self._freeze_initial()
        description, heat = handler(self, stmt)
        self._check_conservation()
        self.ledger.record(description, heat)
        self.steps.append(StepTrace(index, description, heat, tuple(self.chambers)))

    def _check_conservation(self) -> None:
        """The chambers still fill the container and hold every particle."""
        for quantity, total, expected in (
            ("volume", math.fsum(c.volume for c in self.chambers), CONTAINER_VOLUME),
            ("particles", math.fsum(c.particles for c in self.chambers), self.header.particles),
        ):
            if not math.isclose(total, expected, rel_tol=VOLUME_REL_TOL):
                raise _StepError(f"total {quantity} {total!r} is not the conserved {expected!r}")

    def _check_variant(self, keyword: str, stmt) -> None:
        """CLASSICAL_* statements need a classical header, the others a quantum one."""
        if isinstance(stmt, ast.MixStmt) and stmt.classical:
            keyword = "CLASSICAL_" + keyword
        classical = keyword.startswith("CLASSICAL_")
        if classical != (self.header.dim is None):
            variant = "classical" if classical else "quantum"
            raise _StepError(f"{keyword} needs a {variant} scenario")

    def _define_state(self, stmt: ast.DefineState) -> None:
        self.scope[stmt.name] = semantics.eval_value(stmt.expr, self.scope)

    def _define_instrument(self, stmt: ast.DefineInstrument) -> None:
        self.instruments[stmt.name] = semantics.eval_instrument(stmt, self.scope)

    def _expect(self, stmt) -> None:
        """Expectations are checked by the interpreter after the run."""

    def _do_chamber(self, stmt: ast.ChamberStmt | ast.ClassicalChamberStmt) -> None:
        if isinstance(stmt, ast.ClassicalChamberStmt):
            weights = [w for _, w in stmt.species]
            for name, w in stmt.species:
                if not 0 < w < math.inf:
                    raise _StepError(f"species {name!r} weight {w!r} is not finite and > 0")
            scale = max(weights) if _sum_in_order(weights) == math.inf else 1.0  # it overflows
            total = _sum_in_order(w / scale for w in weights)
            merged: dict[str, float] = {}
            for name, w in stmt.species:
                merged[name] = merged.get(name, 0.0) + w / scale / total
            contents = ClassicalContents(merged)
        else:
            contents = self.scope.get(stmt.state)
            if contents is None:
                raise _StepError(f"state {stmt.state!r} is not defined")
            if not isinstance(contents, QuantumContents):
                raise _StepError(
                    f"{stmt.state!r} is a ket; chamber contents must be a state (wrap it in proj())"
                )
            if contents.dim != self.header.dim:
                raise _StepError(
                    f"state {stmt.state!r} has dimension {contents.dim}, "
                    f"scenario declares {self.header.dim}"
                )
        self._insert(
            GasChamber(
                volume=stmt.fraction * CONTAINER_VOLUME,
                temperature=self.header.temperature,
                particles=stmt.fraction * self.header.particles,
                contents=contents,
                label=stmt.position,
            )
        )

    def _do_separate(
        self, stmt: ast.SeparateStmt | ast.ClassicalSeparateStmt
    ) -> tuple[str, float]:
        if isinstance(stmt, ast.SeparateStmt):
            split, diaphragms = diaphragm.separate, self.instruments.get(stmt.instrument)
            if diaphragms is None:
                raise _StepError(f"instrument {stmt.instrument!r} is not defined")
            description = f"separate with {stmt.instrument}"
        else:
            split, diaphragms = diaphragm.classical_separate, dict(stmt.permeability)
            if len(diaphragms) < len(stmt.permeability):
                names = [name for name, _ in stmt.permeability]
                twice = next(name for i, name in enumerate(names) if name in names[:i])
                raise _StepError(f"species {twice!r} is named twice")
            description = "separate by species"
        heat = 0.0
        rebuilt: list[GasChamber] = []
        for chamber in self.chambers:
            result = split(chamber, diaphragms)
            heat += result.heat
            rebuilt.extend(result.chambers)
        labels = [c.label for c in rebuilt]
        if len(set(labels)) != len(labels):
            raise _StepError(f"separation produced duplicate positions {labels}")
        self.chambers = rebuilt
        return description, heat

    def _do_mix(self, stmt: ast.MixStmt) -> tuple[str, float]:
        names, heat = self._merge(stmt, stmt.distinguishing)
        mode = "distinguishing" if stmt.distinguishing else "free"
        return f"{mode} mix of {names}", heat

    def _do_remove_partition(self, stmt: ast.RemovePartitionStmt) -> tuple[str, float]:
        names, _ = self._merge(stmt, distinguishing=False, same_gas=True)
        return f"remove partition between {names}", 0.0

    def _merge(self, stmt, distinguishing: bool, same_gas: bool = False) -> tuple[str, float]:
        """Select, merge, remove the selected chambers and append the merged
        one; returns the selected positions and the heat."""
        indices = self._select(stmt.chambers)
        selected = [self.chambers[i] for i in indices]
        if same_gas:
            for other in selected[1:]:
                if not contents_equal(selected[0].contents, other.contents):
                    raise _StepError(
                        f"chambers {selected[0].label!r} and {other.label!r} hold "
                        "different gases; removing the wall would be an irreversible "
                        "mixing (use MIX free if that is intended)"
                    )
        merged, heat = diaphragm.mix(selected, distinguishing, label=stmt.into or "")
        dropped = set(indices)
        self.chambers = [c for i, c in enumerate(self.chambers) if i not in dropped]
        self._insert(merged)
        return ", ".join(c.label for c in selected), heat

    def _do_rotate(self, stmt: ast.RotateStmt) -> tuple[str, float]:
        index = self._find(stmt.chamber)
        chamber = self.chambers[index]
        unitary = semantics.eval_unitary(stmt.unitary, self.scope)
        rotated = QuantumContents(apply_unitary(chamber.contents.assembled(), unitary))
        self.chambers[index] = GasChamber(
            chamber.volume, chamber.temperature, chamber.particles, rotated, chamber.label
        )
        # Rotations are isochoric and performed with no energy exchange.
        return f"rotate {stmt.chamber}", 0.0

    def _do_partition(self, stmt: ast.PartitionStmt) -> tuple[str, float]:
        index = self._find(stmt.chamber)
        parent = self.chambers.pop(index)
        for offset, (fraction, name) in enumerate(zip(stmt.fractions, stmt.names)):
            self._insert(
                GasChamber(
                    volume=fraction * parent.volume,
                    temperature=parent.temperature,
                    particles=fraction * parent.particles,
                    contents=parent.contents,
                    label=name,
                ),
                at=index + offset,
            )
        return f"partition {parent.label}", 0.0

    def _claim_cycle(self, stmt: ast.ClaimCycleStmt) -> tuple[str, float]:
        self.ledger.claim_cycle()
        return "claim cycle", 0.0


# Statement type -> (handler, keyword bound to a gas variant).  Handlers of
# ast.OPERATIONS return (description, heat) for the ledger.
_HANDLERS = {
    ast.DefineState: (_Engine._define_state, None),
    ast.DefineInstrument: (_Engine._define_instrument, None),
    ast.ExpectTotalHeat: (_Engine._expect, None),
    ast.ExpectVerdict: (_Engine._expect, None),
    ast.ChamberStmt: (_Engine._do_chamber, "CHAMBER"),
    ast.ClassicalChamberStmt: (_Engine._do_chamber, "CLASSICAL_CHAMBER"),
    ast.SeparateStmt: (_Engine._do_separate, "SEPARATE"),
    ast.ClassicalSeparateStmt: (_Engine._do_separate, "CLASSICAL_SEPARATE"),
    ast.MixStmt: (_Engine._do_mix, "MIX"),
    ast.RotateStmt: (_Engine._do_rotate, "ROTATE"),
    ast.PartitionStmt: (_Engine._do_partition, None),
    ast.RemovePartitionStmt: (_Engine._do_remove_partition, None),
    ast.ClaimCycleStmt: (_Engine._claim_cycle, None),
}


def run_protocol(
    protocol: ast.Protocol, observers: list[Observer] | None = None
) -> RunResult:
    if observers is None:
        observers = list(protocol.header.observers)
    return _Engine(protocol, observers).run()
