import importlib.util
import os
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from qgas import linalg, spin
from qgas.observers import _weight_table
from qgas.protocol.interpreter import _Floats, _state_texts, _weight_texts
from qgas.statistics import DensityMatrix
from qgas.thermo import ClassicalContents

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

SRC = str(Path(__file__).resolve().parents[1] / "src")
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    """``perfbench/workloads.py``, loaded from its file (read-only)."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their defining module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def bits(node):
    """A parse-tree node as nested tuples, its kind, line and column first,
    floats by ``float.hex`` and complex numbers as pairs of them."""
    if isinstance(node, float):
        return node.hex()
    if isinstance(node, complex):
        return node.real.hex(), node.imag.hex()
    if isinstance(node, tuple):
        return tuple(map(bits, node))
    if is_dataclass(node):
        return (type(node).__name__, *(bits(getattr(node, f.name)) for f in fields(node)))
    return node


def subprocess_env() -> dict[str, str]:
    """Environment for a child Python process that imports qgas from this checkout."""
    inherited = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": SRC + (os.pathsep + inherited if inherited else "")}


def digest_text(view) -> str:
    """The report's digest text of one observer's view of a contents object,
    digested on its own."""
    if isinstance(view, ClassicalContents):
        (text,) = _weight_texts(*_weight_table([view]), _Floats())
    else:
        rho = view.assembled()
        (text,) = _state_texts(rho.matrix.entries[None], [rho.eigenvalues], _Floats())
    return text


SQRT2 = np.sqrt(2.0)
P_PLUS = (2.0 + SQRT2) / 4.0   # 0.8535533905932737
P_MINUS = (2.0 - SQRT2) / 4.0  # 0.1464466094067262
LN2 = np.log(2.0)
# Heat of the cheapest separation of the half z+ / half x+ blend, in NkT.
BLEND_SEPARATION_HEAT = P_PLUS * np.log(P_PLUS) + P_MINUS * np.log(P_MINUS)


@pytest.fixture
def z_plus():
    return DensityMatrix(spin.z_plus())


@pytest.fixture
def z_minus():
    return DensityMatrix(spin.z_minus())


@pytest.fixture
def x_plus():
    return DensityMatrix(spin.x_plus())


@pytest.fixture
def alpha_plus():
    return DensityMatrix(spin.alpha_plus())


@pytest.fixture
def alpha_minus():
    return DensityMatrix(spin.alpha_minus())


def random_hermitian(rng: np.random.Generator, dim: int) -> linalg.HermitianMatrix:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return linalg.HermitianMatrix((m + m.conj().T) / 2)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> DensityMatrix:
    rank = rank or dim
    u = random_unitary(rng, dim)
    weights = rng.uniform(0.1, 1.0, size=rank)
    weights = weights / weights.sum()
    acc = np.zeros((dim, dim), dtype=complex)
    for k in range(rank):
        v = u[:, k]
        acc += weights[k] * np.outer(v, v.conj())
    return DensityMatrix(linalg.HermitianMatrix(acc))


def random_bag(rng: np.random.Generator, names: list[str]) -> ClassicalContents:
    """A weight map over the given species, each weight at least 0.05 before
    normalising."""
    weights = rng.uniform(0.05, 1.0, size=len(names))
    return ClassicalContents(dict(zip(names, (weights / weights.sum()).tolist())))


def _mixture_on_columns(columns: np.ndarray, rng: np.random.Generator) -> DensityMatrix:
    count = columns.shape[1]
    weights = rng.uniform(0.1, 1.0, size=count)
    weights = weights / weights.sum()
    acc = np.zeros((columns.shape[0], columns.shape[0]), dtype=complex)
    for k in range(count):
        acc += weights[k] * np.outer(columns[:, k], columns[:, k].conj())
    return DensityMatrix(linalg.HermitianMatrix(acc))


def random_orthogonal_pair(rng: np.random.Generator, dim: int):
    """Two density matrices with orthogonal supports, from a random basis split."""
    u = random_unitary(rng, dim)
    r_phi = int(rng.integers(1, dim))
    r_psi = int(rng.integers(1, dim - r_phi + 1))
    phi = _mixture_on_columns(u[:, :r_phi], rng)
    psi = _mixture_on_columns(u[:, r_phi:r_phi + r_psi], rng)
    return phi, psi


def random_distinguishing_config(rng: np.random.Generator, dim: int):
    """A random (phi, psi, povm, grouping) satisfying the one-shot predicate.

    phi and psi live on disjoint blocks of a random basis.  The povm's first
    group resolves the complement of phi's support (so it is silent on phi
    and each element keeps at least 5% overlap with psi), the second group
    the complement of psi's support; any leftover basis directions are dealt
    out between the two groups.
    """
    from qgas.statistics import Povm

    u = random_unitary(rng, dim)
    r_phi = int(rng.integers(1, dim))
    r_psi = int(rng.integers(1, dim - r_phi + 1))
    phi = _mixture_on_columns(u[:, :r_phi], rng)
    psi = _mixture_on_columns(u[:, r_phi:r_phi + r_psi], rng)

    rest = list(range(r_phi + r_psi, dim))
    split = int(rng.integers(0, len(rest) + 1))
    psi_side_cols = list(range(r_phi, r_phi + r_psi)) + rest[:split]
    phi_side_cols = list(range(r_phi)) + rest[split:]

    def side_elements(cols: list[int], prefix: str) -> list:
        count = int(rng.integers(1, 4))
        # Column-stochastic coefficients with a 0.05 floor keep every
        # element's probability on its target preparation above tolerance.
        coeffs = rng.uniform(0.05, 1.0, size=(count, len(cols)))
        coeffs = coeffs / coeffs.sum(axis=0)
        mix_u = random_unitary(rng, len(cols))
        basis = u[:, cols] @ mix_u
        elements = []
        for i in range(count):
            acc = np.zeros((dim, dim), dtype=complex)
            for m in range(len(cols)):
                acc += coeffs[i, m] * np.outer(basis[:, m], basis[:, m].conj())
            elements.append((f"{prefix}{i}", linalg.HermitianMatrix(acc)))
        return elements

    e_side = side_elements(psi_side_cols, "E")
    f_side = side_elements(phi_side_cols, "F")
    povm = Povm(tuple(e_side + f_side))
    grouping = (
        tuple(label for label, _ in e_side),
        tuple(label for label, _ in f_side),
    )
    return phi, psi, povm, grouping
