"""Seeded scenario generators for the bench, each with an independent reference.

Every generator returns a :class:`Workload`: the ``.qg`` source texts of one
run, plus the number of EXPECT lines written into them.  The generators use
plain numpy and never import qgas.  They track the physical state alongside
the script they write, compute the total heat and each observer's cycle
verdict from that state, and append them as EXPECT lines, so a wrong
result from qgas shows up as a failed expectation.

Numbers are written with ``repr`` so the parsed script holds exactly the
floats the reference used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Mirrors of the tolerances the program's documentation states: EXPECT
# tolerance for generated heats, the cycle-audit tolerances of the thermo
# layer (contents 1e-9, volumes relative 1e-9, second law Q <= 1e-9).
EXPECT_TOL = 1e-6
CONTENTS_TOL = 1e-9
SECOND_LAW_TOL = 1e-9

# Sizes: rounds of the repeated block in each generated scenario.
DEEP_ROUNDS = 4
LEDGER_ROUNDS = 40

DEEP_DIM, DEEP_FACTORS = 8, (2, 4)
LEDGER_SPECIES = 16


@dataclass(frozen=True)
class Workload:
    name: str
    # (scenario name, .qg text), run in order; one pass over them is one run.
    scripts: tuple[tuple[str, str], ...]
    expect_lines: int


def _workload(name: str, lines: list[str]) -> Workload:
    expects = sum(line.startswith("EXPECT") for line in lines)
    return Workload(name, ((name, "\n".join(lines) + "\n"),), expects)


def _num(x: float) -> str:
    return repr(float(x))


def _ket_literal(v: np.ndarray) -> str:
    parts = []
    for z in v:
        re, im = float(z.real), float(z.imag)
        sign = "+" if im >= 0 else "-"
        parts.append(f"{'-' if re < 0 else ''}{_num(abs(re))}{sign}{_num(abs(im))}i")
    return "ket(" + ", ".join(parts) + ")"


def _random_ket(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _parsed(v: np.ndarray) -> np.ndarray:
    """The ket exactly as the script spells it (real and imaginary parts
    are written separately, so a round trip is exact)."""
    return np.array([complex(float(z.real), float(z.imag)) for z in v])


def _verdict(cycle_closed: bool, total_heat: float) -> str:
    if not cycle_closed:
        return "not_applicable"
    return "satisfied" if total_heat <= SECOND_LAW_TOL else "violation"


# -- deep_protocol -------------------------------------------------------------


def _rotation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unitary taking a to b and fixing the complement of span{a, b}, built
    as a change of orthonormal frame of that plane: (a, e2) -> (b, f2).

    The plane admits one such map per phase of f2; rotate_to documents
    f2 = s a - conj(c) e2 (the two-state reflection for real overlaps), so
    the reference uses that one."""
    n = a.shape[0]
    c = np.vdot(a, b)
    residual = b - c * a
    s = np.linalg.norm(residual)
    if s <= 1e-12:
        return np.eye(n) + (c / abs(c) - 1.0) * np.outer(a, a.conj())
    e2 = residual / s
    f2 = s * a - np.conj(c) * e2
    frame_in = np.column_stack([a, e2])
    frame_out = np.column_stack([b, f2])
    return np.eye(n) - frame_in @ frame_in.conj().T + frame_out @ frame_in.conj().T


def _partial_trace(rho: np.ndarray, keep: str) -> np.ndarray:
    d1, d2 = DEEP_FACTORS
    blocks = rho.reshape(d1, d2, d1, d2)
    return np.einsum("ijkj->ik" if keep == "first" else "ijil->jl", blocks)


def deep_protocol(seed: int, rounds: int = DEEP_ROUNDS) -> Workload:
    """dim 8 = 2 x 4, three observers; an opening distinguishing mix of two
    orthogonal random kets, then `rounds` of eigenbasis separation (8
    outcomes), free mix, partition, rotation of one part and free mix, and a
    final split back into the two starting positions."""
    rng = np.random.default_rng([seed, 1])
    views = {
        "whole": lambda m: m,
        "left": lambda m: _partial_trace(m, "first"),
        "right": lambda m: _partial_trace(m, "second"),
    }
    lines = [
        f"HEADER dim={DEEP_DIM} temperature=1.0 particles=1.0",
        "OBSERVER whole full",
        "OBSERVER left reduce 2 4 first",
        "OBSERVER right reduce 2 4 second",
    ]

    def define_ket(name: str, v: np.ndarray) -> np.ndarray:
        lines.append(f"DEFINE_STATE {name} {_ket_literal(v)}")
        return _parsed(v)

    a = _random_ket(rng, DEEP_DIM)
    b = _random_ket(rng, DEEP_DIM)
    b = b - np.vdot(a, b) * a
    b = b / np.linalg.norm(b)
    a, b = define_ket("ka", a), define_ket("kb", b)
    lines += [
        "DEFINE_STATE sa proj(ka)",
        "DEFINE_STATE sb proj(kb)",
        "CHAMBER a 0.5 sa",
        "CHAMBER b 0.5 sb",
        "MIX distinguishing -> gas",
    ]
    initial = [(0.5, np.outer(a, a.conj())), (0.5, np.outer(b, b.conj()))]
    rho = 0.5 * initial[0][1] + 0.5 * initial[1][1]
    heats = [0.5 * math.log(2.0), 0.5 * math.log(2.0)]

    for r in range(rounds):
        weights = rng.dirichlet(np.ones(DEEP_DIM))
        terms = []
        blend = np.zeros((DEEP_DIM, DEEP_DIM), dtype=complex)
        for j, w in enumerate(weights):
            m = define_ket(f"m{r}_{j}", _random_ket(rng, DEEP_DIM))
            blend += w * np.outer(m, m.conj())
            terms.append(f"{_num(w)}*proj(m{r}_{j})")
        lines.append(f"DEFINE_STATE blend{r} mix({' + '.join(terms)})")
        lines.append(f"DEFINE_INSTRUMENT inst{r} eigenbasis-of(blend{r})")
        lines.append(f"SEPARATE inst{r}")
        _, basis = np.linalg.eigh(blend)
        probs = np.real(np.einsum("ki,kl,li->i", basis.conj(), rho, basis))
        heats += [p * math.log(p) for p in probs if p >= 1e-12]
        rho = (basis * probs) @ basis.conj().T  # pinched by the eigenbasis
        lines.append("MIX free -> gas")

        keep = float(rng.uniform(0.2, 0.8))
        lines.append(f"PARTITION gas {_num(keep)} {_num(1.0 - keep)} -> top bottom")
        source = define_ket(f"ra{r}", _random_ket(rng, DEEP_DIM))
        target = define_ket(f"rb{r}", _random_ket(rng, DEEP_DIM))
        lines.append(f"ROTATE bottom rotate_to(ra{r}, rb{r})")
        u = _rotation(source, target)
        rho = keep * rho + (1.0 - keep) * (u @ rho @ u.conj().T)
        lines.append("MIX free -> gas")

    lines += ["PARTITION gas 0.5 0.5 -> a b", "CLAIM_CYCLE"]
    final = [(0.5, rho), (0.5, rho)]
    total = math.fsum(heats)
    lines.append(f"EXPECT Q_total ~= {_num(total)} {EXPECT_TOL!r}")
    for name, view in views.items():
        closed = all(
            abs(v0 - v1) <= 1e-9 * max(v0, v1)
            and np.max(np.abs(view(s0) - view(s1))) <= CONTENTS_TOL
            for (v0, s0), (v1, s1) in zip(initial, final)
        )
        lines.append(f"EXPECT verdict {name} {_verdict(closed, total)}")
    return _workload("deep_protocol", lines)


# -- classical_ledger ----------------------------------------------------------


def classical_ledger(seed: int, rounds: int = LEDGER_ROUNDS) -> Workload:
    """16 species, three observers (exact, pairwise merge, halves merge).
    Even species start on the left, odd on the right; pair k has weight v_k
    on the left and a shuffled u_k on the right, shuffled only within each
    half, so the halves observer sees both sides alike and the pairwise one
    does not.  After an opening distinguishing mix, `rounds` of separation
    by a random permeability map, free mix, 3-way partition and partition
    removal, then a split back into the two starting positions."""
    rng = np.random.default_rng([seed, 2])
    species = [f"s{k:02d}" for k in range(LEDGER_SPECIES)]
    pairs = {name: f"p{k // 2:02d}" for k, name in enumerate(species)}
    halves = {
        name: ("lo" if k < LEDGER_SPECIES // 2 else "hi")
        for k, name in enumerate(species)
    }
    observers = {"exact": {}, "pairs": pairs, "halves": halves}
    lines = ["HEADER classical temperature=1.0 particles=1.0"]
    for name, mapping in observers.items():
        merges = "".join(f" {k}={v}" for k, v in mapping.items())
        lines.append(f"OBSERVER {name} classical{merges}")

    npairs = LEDGER_SPECIES // 2
    v = rng.dirichlet(np.ones(npairs))
    quarter = npairs // 2
    shift = int(rng.integers(1, quarter))  # a cyclic shift: no pair keeps its weight
    order = [(k + shift) % quarter for k in range(quarter)]
    order += [quarter + (k + shift) % quarter for k in range(quarter)]
    u = v[order]
    left = {species[2 * k]: float(v[k]) for k in range(npairs)}
    right = {species[2 * k + 1]: float(u[k]) for k in range(npairs)}
    for label, bag in (("left", left), ("right", right)):
        weights = " ".join(f"{k}={_num(w)}" for k, w in bag.items())
        lines.append(f"CLASSICAL_CHAMBER {label} 0.5 {weights}")
    lines.append("CLASSICAL_MIX distinguishing -> gas")

    def normalized(bag: dict[str, float]) -> dict[str, float]:
        total = sum(bag.values())
        return {k: w / total for k, w in bag.items()}

    initial = [(0.5, normalized(left)), (0.5, normalized(right))]
    gas = {k: 0.5 * w for side in (initial[0][1], initial[1][1]) for k, w in side.items()}
    heats = [0.5 * math.log(2.0), 0.5 * math.log(2.0)]

    for _ in range(rounds):
        split = rng.permutation([True] * 5 + [False] * 3 + list(rng.random(8) < 0.5))
        verdicts = {k: "transmitted" if t else "reflected" for k, t in zip(species, split)}
        lines.append(
            "CLASSICAL_SEPARATE " + " ".join(f"{k}={x}" for k, x in verdicts.items())
        )
        p = sum(w for k, w in gas.items() if verdicts[k] == "transmitted")
        heats += [p * math.log(p), (1.0 - p) * math.log(1.0 - p)]
        lines.append("CLASSICAL_MIX free -> gas")
        cuts = np.sort(rng.uniform(0.1, 0.9, size=2))
        fractions = [cuts[0], cuts[1] - cuts[0], 1.0 - cuts[1]]
        lines.append(
            "PARTITION gas " + " ".join(_num(f) for f in fractions) + " -> g0 g1 g2"
        )
        lines.append("REMOVE_PARTITION -> gas")

    lines += ["PARTITION gas 0.5 0.5 -> left right", "CLAIM_CYCLE"]
    final = [(0.5, gas), (0.5, gas)]
    total = math.fsum(heats)
    lines.append(f"EXPECT Q_total ~= {_num(total)} {EXPECT_TOL!r}")
    for name, mapping in observers.items():

        def seen(bag: dict[str, float]) -> dict[str, float]:
            merged: dict[str, float] = {}
            for k, w in bag.items():
                merged[mapping.get(k, k)] = merged.get(mapping.get(k, k), 0.0) + w
            return merged

        closed = True
        for (_, b0), (_, b1) in zip(initial, final):
            s0, s1 = seen(b0), seen(b1)
            closed &= all(
                abs(s0.get(k, 0.0) - s1.get(k, 0.0)) <= CONTENTS_TOL for k in s0.keys() | s1.keys()
            )
        lines.append(f"EXPECT verdict {name} {_verdict(closed, total)}")
    return _workload("classical_ledger", lines)


GENERATORS = {"deep_protocol": deep_protocol, "classical_ledger": classical_ledger}
