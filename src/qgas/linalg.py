"""Small dense complex Hermitian linear algebra.

Everything in the library ultimately reduces to operations on Hermitian
matrices of dimension 2-8: construction, traces, tensor products, partial
traces, and spectral decomposition.  The eigensolver is numpy's LAPACK
``eigh``; on top of it this module pins a descending eigenvalue order and a
deterministic eigenvector phase convention for reproducible runs.

Tolerance policy: inputs are validated at 1e-12 (HERMITIAN_TOL) while
derived quantities are trusted to 1e-9 (DERIVED_TOL), two decades of slack
between input exactness and accumulated arithmetic.  A ``HermitianMatrix``
checks its entries as it is built, except the few symmetrised results that
``_hermitian`` wraps because they derive only from checked values; every
``StateVector`` checks its amplitudes likewise.

At these sizes numpy's Python-level N-d helpers (``np.kron``, ``np.outer``,
``np.linalg.norm``, ``np.max``, ``np.all``, ``np.stack``) cost more than
the arithmetic they do, so the primitives every step runs use ndarray
methods, ufuncs and broadcasting instead.  Each makes its helper's
floating-point operations in the same order, so results are bit-identical.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce

import numpy as np

from .errors import (
    DimFactorMismatchError,
    DimMismatchError,
    NonFiniteError,
    NonSquareError,
    NotHermitianError,
    NotNormalizedError,
)

HERMITIAN_TOL = 1e-12
DERIVED_TOL = 1e-9
DEGENERACY_GAP = 1e-9


def _sum_in_order(values) -> float:
    """The floats added left to right from 0.0, with the same bits on every Python
    (the built-in ``sum`` compensates float sums from 3.12 on).  Each float sum
    that makes a report value, decides a check or spells a diagnostic adds here."""
    return reduce(operator.add, values, 0.0)


@dataclass(frozen=True, slots=True)
class HermitianMatrix:
    """Immutable dim x dim complex matrix, checked finite, square and Hermitian
    within 1e-12 as it is built, and kept symmetrised in a read-only array."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=complex)
        if not np.isfinite(arr).all():
            raise NonFiniteError("matrix entries must be finite")
        _check_square(arr.shape)
        (asym,) = _asymmetries(arr[None])
        if asym > HERMITIAN_TOL:
            raise NotHermitianError(f"asymmetry {asym:.3e} exceeds 1e-12")
        arr = (arr + arr.conj().T) / 2
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        return float(self.entries.trace().real)

    def __add__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        if self.dim != other.dim:
            raise DimMismatchError(f"dims {self.dim} and {other.dim}")
        return HermitianMatrix(self.entries + other.entries)

    def __sub__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        if self.dim != other.dim:
            raise DimMismatchError(f"dims {self.dim} and {other.dim}")
        return HermitianMatrix(self.entries - other.entries)

    def __mul__(self, scalar: float) -> "HermitianMatrix":
        return HermitianMatrix(self.entries * float(scalar))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HermitianMatrix)
            and np.array_equal(self.entries, other.entries)
        )

    def isclose(self, other: "HermitianMatrix", tol: float = DERIVED_TOL) -> bool:
        if self.dim != other.dim:
            return False
        return float(abs(self.entries - other.entries).max()) <= tol

    def __repr__(self) -> str:
        return f"HermitianMatrix(dim={self.dim})"


@dataclass(frozen=True, slots=True)
class StateVector:
    """Unit-norm complex vector (a ket), checked finite, one-dimensional and
    of norm 1 within 1e-12 as it is built, and kept in a read-only array."""

    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.array(self.amplitudes, dtype=complex)
        if not np.isfinite(arr).all():
            raise NonFiniteError("vector amplitudes must be finite")
        if arr.ndim != 1:
            raise DimMismatchError(f"shape {arr.shape} is not one-dimensional")
        norm = _norm(arr)
        if abs(norm - 1.0) > HERMITIAN_TOL:
            raise NotNormalizedError(f"norm {norm!r} differs from 1 beyond 1e-12")
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StateVector)
            and np.array_equal(self.amplitudes, other.amplitudes)
        )

    def inner(self, other: "StateVector") -> complex:
        """<self|other>."""
        if self.dim != other.dim:
            raise DimMismatchError(f"dims {self.dim} and {other.dim}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def __repr__(self) -> str:
        return f"StateVector({np.array2string(self.amplitudes, precision=6)})"


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in descending order with an orthonormal eigenbasis, kept as
    the rows of one read-only (d, d) array ``vectors`` in the same order;
    equal when the eigenvalues and the rows are.  Unlike the matrix records
    it has no ``__slots__``: ``cached_property`` keeps ``eigenvectors`` in
    the instance ``__dict__``."""

    eigenvalues: tuple[float, ...]
    vectors: np.ndarray = field(repr=False)

    @cached_property
    def eigenvectors(self) -> tuple[StateVector, ...]:
        """The rows as checked kets, built when first read."""
        return tuple(StateVector(row) for row in self.vectors)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SpectralDecomposition)
            and self.eigenvalues == other.eigenvalues
            and np.array_equal(self.vectors, other.vectors)
        )

    def clusters(self) -> list[list[int]]:
        """Indices grouped into degenerate clusters (gaps below DEGENERACY_GAP)."""
        groups: list[list[int]] = []
        for k, value in enumerate(self.eigenvalues):
            if groups and abs(self.eigenvalues[groups[-1][-1]] - value) < DEGENERACY_GAP:
                groups[-1].append(k)
            else:
                groups.append([k])
        return groups


def make_vector(amplitudes) -> StateVector:
    """Validate and wrap a ket given in any shape, read flat; norm must be 1
    within 1e-12."""
    return StateVector(np.asarray(amplitudes, dtype=complex).reshape(-1))


def _hermitian(arr: np.ndarray) -> HermitianMatrix:
    """Wrap, read-only and with no check or copy, a symmetrised array computed
    only from checked matrices, unit kets or orthonormal vectors."""
    arr.setflags(write=False)
    matrix = object.__new__(HermitianMatrix)
    object.__setattr__(matrix, "entries", arr)
    return matrix


def _check_square(shape: tuple[int, ...]) -> None:
    if len(shape) != 2 or shape[0] != shape[1]:
        raise NonSquareError(f"shape {shape} is not square")
    if shape[0] < 1:
        raise NonSquareError("dimension must be at least 1")


def _asymmetries(stack: np.ndarray) -> list[float]:
    """The largest entry of |M - M^H| for each matrix M of a stack (n, d, d)."""
    return abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2)).tolist()


@lru_cache(maxsize=8)
def eye(dim: int) -> np.ndarray:
    """The complex dim x dim identity, one shared read-only array per dimension
    (those of the last 8 dimensions asked for are kept)."""
    arr = np.eye(dim, dtype=complex)
    arr.setflags(write=False)
    return arr


def identity(dim: int) -> HermitianMatrix:
    return HermitianMatrix(eye(dim))


def trace_product(a: HermitianMatrix, b: HermitianMatrix) -> float:
    """tr(AB), guaranteed real for Hermitian inputs.

    Any imaginary rounding residue is checked against 1e-12 and discarded.
    """
    return trace_products(a, b.entries[None])[0]


def trace_products(a: HermitianMatrix, stack: np.ndarray) -> list[float]:
    """:func:`trace_product` of ``a`` with each matrix of a (k, d, d) stack, in one reduction."""
    if a.dim != stack.shape[-1]:
        raise DimMismatchError(f"dims {a.dim} and {stack.shape[-1]}")
    values = (a.entries * stack.swapaxes(1, 2)).reshape(len(stack), -1).sum(axis=1)
    for residue in values.imag.tolist():
        if abs(residue) > HERMITIAN_TOL:
            raise NotHermitianError(f"trace product residue {residue:.3e}")
    return values.real.tolist()


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two vectors or two matrices, the first factor
    the slow index: ``np.kron``'s products in its layout, by one broadcast
    multiply."""
    if a.ndim == 1:
        return (a[:, None] * b[None, :]).reshape(-1)
    product = a[:, None, :, None] * b[None, :, None, :]
    return product.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def tensor(a: HermitianMatrix, b: HermitianMatrix) -> HermitianMatrix:
    """Kronecker product; the first factor is the slow index."""
    return HermitianMatrix(kron(a.entries, b.entries))


def tensor_vector(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product of kets, same index convention as :func:`tensor`."""
    return StateVector(kron(a.amplitudes, b.amplitudes))


def partial_trace(
    m: HermitianMatrix, dims: tuple[int, int], keep: str = "first"
) -> HermitianMatrix:
    """Trace out one tensor factor of a matrix on a d1*d2-dimensional space.

    ``keep`` selects the surviving factor ("first" or "second"); the trace
    of the result equals the trace of the input.
    """
    return HermitianMatrix(partial_traces(m.entries[None], dims, keep)[0])


def partial_traces(stack: np.ndarray, dims: tuple[int, int], keep: str = "first") -> np.ndarray:
    """:func:`partial_trace` of each matrix in a stack of shape (n, d, d),
    as one ``einsum``; returns the symmetrised (n, dk, dk) stack."""
    d1, d2 = int(dims[0]), int(dims[1])
    if d1 * d2 != stack.shape[-1]:
        raise DimFactorMismatchError(f"{d1}x{d2} != dim {stack.shape[-1]}")
    if keep not in ("first", "second"):
        raise ValueError("keep must be 'first' or 'second'")
    blocks = stack.reshape(len(stack), d1, d2, d1, d2)
    reduced = np.einsum("nijkj->nik" if keep == "first" else "nijil->njl", blocks)
    return (reduced + reduced.conj().swapaxes(1, 2)) / 2


def projector_from_vector(v: StateVector) -> HermitianMatrix:
    """Rank-1 projector |v><v|; idempotent with unit trace."""
    outer = _ketbra(v.amplitudes, v.amplitudes)
    return _hermitian((outer + outer.conj().T) / 2)


def _projectors(kets: np.ndarray) -> np.ndarray:
    """The projector |v><v| of each unit-ket row v of an (n, d) array, as one
    (n, d, d) stack from one broadcast multiply; each row is bit-identical to
    :func:`projector_from_vector` of its ket."""
    outer = kets[:, :, None] * kets.conj()[:, None, :]
    return (outer + outer.conj().swapaxes(1, 2)) / 2


def _ketbra(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|x><y|, the products of ``np.outer(x, y.conj())``."""
    return x[:, None] * y.conj()[None, :]


def _norm(x: np.ndarray) -> float:
    """The Euclidean norm of a complex vector by ``np.linalg.norm``'s formula."""
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def eig_hermitian(h: HermitianMatrix) -> SpectralDecomposition:
    """Spectral decomposition by LAPACK (``numpy.linalg.eigh``).

    Eigenvalues are sorted in descending order (stable, so ties keep the
    solver's order).  The basis inside a degenerate cluster (gap below 1e-9)
    is whatever orthonormal basis the solver returns, so tests must not
    assert a particular basis inside a cluster.  Each eigenvector's phase is
    fixed by making its first component of modulus above 1e-6 real positive:
    one broadcast multiply of the rows by conj(x) / |x| of each row's x.  The
    moduli are ``np.hypot``'s, the bits of ``abs`` of one complex scalar (the
    complex ``abs`` of an array may round its last bit differently).
    """
    values, vectors = np.linalg.eigh(h.entries)
    order = np.argsort(-values, kind="stable")
    rows = vectors.T[order]
    moduli = np.hypot(rows.real, rows.imag)
    # A unit row of d <= 1e12 entries has one of modulus at least 1/sqrt(d).
    at = np.arange(len(rows)), (moduli > 1e-6).argmax(axis=1)
    rows *= (rows[at].conj() / moduli[at])[:, None]
    rows.setflags(write=False)
    return SpectralDecomposition(tuple(values[order].tolist()), rows)


def two_state_rotation(a: StateVector, b: StateVector) -> np.ndarray:
    """Unitary mapping |a> to |b>, identity on the orthocomplement of span{a,b}.

    For orthogonal real-overlap pairs this is the two-state reflection
    I - |a><a| - |b><b| + |b><a| + |a><b|; in general it is built from the
    Gram-Schmidt frame e1 = a, e2 = (b - <a|b> a)/s with s = ||b - <a|b> a||:

        U = I - |e1><e1| - |e2><e2| + |b><e1| + (s |e1> - conj(c) |e2|)<e2|

    where c = <a|b>.  When a and b are colinear, U applies the relative
    phase on the a-ray and is the identity elsewhere.
    """
    if a.dim != b.dim:
        raise DimMismatchError(f"dims {a.dim} and {b.dim}")
    av = a.amplitudes
    bv = b.amplitudes
    c = complex(np.vdot(av, bv))
    residual = bv - c * av
    s = _norm(residual)
    if s <= 1e-12:
        phase = c / abs(c)
        return eye(a.dim) + (phase - 1.0) * _ketbra(av, av)
    e2 = residual / s
    u = eye(a.dim) - _ketbra(av, av) - _ketbra(e2, e2)
    u += _ketbra(bv, av)
    u += _ketbra(s * av - np.conj(c) * e2, e2)
    return u


def is_unitary(u: np.ndarray) -> bool:
    """U^dagger U = I within 1e-10 entrywise."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    gram = u.conj().T @ u
    return float(abs(gram - eye(u.shape[0])).max()) <= 1e-10
