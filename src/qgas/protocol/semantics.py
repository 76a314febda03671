"""Evaluation of scenario expressions into library values.

A DEFINE_STATE expression evaluates to a ket, a plain ``StateVector``, or
to gas contents.  A state is a :class:`QuantumContents` holding one density
matrix: ``mix(...)`` and ``tensor(...)`` evaluate each term and build one
matrix from them, since every verdict reads the matrix and none the
decomposition it was written with.  The ``proj(ket)`` terms of one mix are
built from their kets as one stack of projectors (``linalg._projectors``),
every term is added in order by ``mix_states``' sum, and only the mixture
is validated, as one ``DensityMatrix``.  One evaluated state serves
every statement that names it.  A ``proj(ket)`` instrument element is its
projector matrix, which the instrument checks as a projector.  Unitary
expressions give complex arrays.
"""

from __future__ import annotations

import numpy as np

from .. import linalg
from ..errors import DimMismatchError, ExecutionError, QuantumGasError
from ..statistics import DensityMatrix, ProjectiveInstrument, _mixture, eigen_instrument
from ..thermo import WEIGHT_TOL, QuantumContents
from . import ast


Value = linalg.StateVector | QuantumContents

Scope = dict[str, Value]


def _fail(node, message: str) -> ExecutionError:
    return ExecutionError(message, node.line, node.col)


def _check_tensor(expr: ast.TensorExpr, left_dim: int, right_dim: int) -> None:
    """A script's tensor product stays within ``ast.MAX_DIM``; checked before it is built."""
    if left_dim * right_dim > ast.MAX_DIM:
        raise _fail(expr, f"tensor dimension {left_dim * right_dim} exceeds {ast.MAX_DIM}")


def eval_value(expr: ast.Expr, scope: Scope) -> Value:
    """Evaluate a state expression to a ket or to gas contents."""
    if isinstance(expr, ast.NameRef):
        try:
            return scope[expr.name]
        except KeyError:
            raise _fail(expr, f"name {expr.name!r} is not defined") from None
    if isinstance(expr, ast.KetExpr):
        try:
            return linalg.make_vector(list(expr.amplitudes))
        except QuantumGasError as exc:
            raise _fail(expr, f"bad ket: {exc}") from exc
    if isinstance(expr, ast.ProjExpr):
        return QuantumContents(DensityMatrix(linalg.projector_from_vector(_ket_of(expr, scope))))
    if isinstance(expr, ast.MixExpr):
        weights, terms = [], []
        for weight, term in expr.terms:
            value = _ket_of(term, scope)
            if isinstance(value, linalg.StateVector) and not isinstance(term, ast.ProjExpr):
                raise _fail(expr, "mix(...) terms must be states; wrap kets in proj()")
            weights.append(weight)
            terms.append(value if isinstance(value, linalg.StateVector) else value.assembled())
        total = linalg._sum_in_order(weights)
        if not (abs(total - 1.0) <= WEIGHT_TOL and all(w > 0 for w in weights)):  # NaN fails
            raise _fail(expr, f"mixture weights must be convex (sum {total!r})")
        dim = terms[0].dim
        if others := [t.dim for t in terms if t.dim != dim]:  # mix_states' error
            raise DimMismatchError(f"state dims {others[0]} != {dim}")
        kets = [t.amplitudes for t in terms if isinstance(t, linalg.StateVector)]
        projectors = iter(linalg._projectors(np.array(kets).reshape(-1, dim)))
        matrices = [
            next(projectors) if isinstance(t, linalg.StateVector) else t.matrix.entries
            for t in terms
        ]
        return QuantumContents(_mixture(weights, matrices))
    if isinstance(expr, ast.TensorExpr):
        left = eval_value(expr.left, scope)
        right = eval_value(expr.right, scope)
        _check_tensor(expr, left.dim, right.dim)
        if isinstance(left, linalg.StateVector) and isinstance(right, linalg.StateVector):
            return linalg.tensor_vector(left, right)
        if isinstance(left, QuantumContents) and isinstance(right, QuantumContents):
            return QuantumContents(
                DensityMatrix(linalg.tensor(left.assembled().matrix, right.assembled().matrix))
            )
        raise _fail(expr, "tensor(...) needs two kets or two states, not a mix of kinds")
    if isinstance(expr, (ast.IdentityExpr, ast.RotateToExpr)):
        raise _fail(expr, "unitary expressions are only valid in ROTATE statements")
    if isinstance(expr, ast.EigenbasisExpr):
        raise _fail(expr, "eigenbasis-of(...) is only valid in DEFINE_INSTRUMENT")
    raise _fail(expr, f"unsupported expression {type(expr).__name__}")


def _ket_of(expr: ast.Expr, scope: Scope) -> Value:
    """The value of ``expr``, but of a ``proj(ket)`` its ket."""
    if not isinstance(expr, ast.ProjExpr):
        return eval_value(expr, scope)
    inner = eval_value(expr.arg, scope)
    if not isinstance(inner, linalg.StateVector):
        raise _fail(expr, "proj(...) needs a ket argument")
    return inner


def eval_projector(expr: ast.Expr, scope: Scope) -> linalg.HermitianMatrix:
    """Evaluate an instrument-element expression to a Hermitian matrix.

    identity(n) and tensor combinations are allowed here because instrument
    elements such as rank-2 projectors are sums over a traced-out factor.
    """
    if isinstance(expr, ast.IdentityExpr):
        return linalg.identity(expr.dim)
    if isinstance(expr, ast.TensorExpr):
        left, right = eval_projector(expr.left, scope), eval_projector(expr.right, scope)
        _check_tensor(expr, left.dim, right.dim)
        return linalg.tensor(left, right)
    value = _ket_of(expr, scope)
    if isinstance(value, linalg.StateVector):  # the instrument checks it as a projector
        return linalg.projector_from_vector(value)
    return value.assembled().matrix


def eval_unitary(expr: ast.Expr, scope: Scope) -> np.ndarray:
    if isinstance(expr, ast.IdentityExpr):
        return linalg.eye(expr.dim)
    if isinstance(expr, ast.TensorExpr):
        left, right = eval_unitary(expr.left, scope), eval_unitary(expr.right, scope)
        _check_tensor(expr, len(left), len(right))
        return linalg.kron(left, right)
    if isinstance(expr, ast.RotateToExpr):
        source = _as_ket(expr.source, scope)
        target = _as_ket(expr.target, scope)
        try:
            return linalg.two_state_rotation(source, target)
        except QuantumGasError as exc:
            raise _fail(expr, f"bad rotation: {exc}") from exc
    raise _fail(expr, "a unitary expression: rotate_to, identity, or tensor of those")


def _as_ket(expr: ast.Expr, scope: Scope) -> linalg.StateVector:
    value = eval_value(expr, scope)
    if isinstance(value, linalg.StateVector):
        return value
    # Accept a pure state where a ket is expected: take its top eigenvector.
    decomp = linalg.eig_hermitian(value.assembled().matrix)
    if decomp.eigenvalues[0] < 1.0 - 1e-9:
        raise _fail(expr, "rotate_to endpoints must be kets or pure states")
    return linalg.StateVector(decomp.vectors[0])


def eval_instrument(stmt: ast.DefineInstrument, scope: Scope) -> ProjectiveInstrument:
    if stmt.eigenbasis is not None:
        value = eval_value(stmt.eigenbasis.arg, scope)
        if not isinstance(value, QuantumContents):
            raise _fail(stmt, "eigenbasis-of(...) needs a state argument")
        try:
            return eigen_instrument(value.assembled())
        except QuantumGasError as exc:
            raise _fail(stmt, f"bad eigenbasis instrument: {exc}") from exc
    projectors = tuple(
        (label, eval_projector(expr, scope)) for label, expr in stmt.elements
    )
    try:
        return ProjectiveInstrument(projectors)
    except QuantumGasError as exc:
        raise _fail(stmt, f"bad instrument {stmt.name!r}: {exc}") from exc
