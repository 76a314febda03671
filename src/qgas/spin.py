"""Reference spin-1/2 kets and projectors used throughout the experiments.

The alpha pair is the eigenbasis of the half/half mixture of the z+ and x+
projectors: alpha+- = (2 +- sqrt 2)^(-1/2) (|z+-> +- |x+->), orthogonal even
though z+ and x+ are not.
"""

from __future__ import annotations

import numpy as np

from .linalg import (
    HermitianMatrix,
    StateVector,
    make_vector,
    projector_from_vector,
)

_SQRT2 = np.sqrt(2.0)


def z_plus_ket() -> StateVector:
    return make_vector([1.0, 0.0])


def z_minus_ket() -> StateVector:
    return make_vector([0.0, 1.0])


def x_plus_ket() -> StateVector:
    return make_vector([1.0 / _SQRT2, 1.0 / _SQRT2])


def alpha_plus_ket() -> StateVector:
    # (2+sqrt2)^(-1/2) (|z+> + |x+>) = (cos pi/8, sin pi/8)
    return make_vector([np.sqrt(2.0 + _SQRT2) / 2.0, np.sqrt(2.0 - _SQRT2) / 2.0])


def alpha_minus_ket() -> StateVector:
    return make_vector([-np.sqrt(2.0 - _SQRT2) / 2.0, np.sqrt(2.0 + _SQRT2) / 2.0])


def z_plus() -> HermitianMatrix:
    return projector_from_vector(z_plus_ket())


def z_minus() -> HermitianMatrix:
    return projector_from_vector(z_minus_ket())


def x_plus() -> HermitianMatrix:
    return projector_from_vector(x_plus_ket())


def alpha_plus() -> HermitianMatrix:
    return projector_from_vector(alpha_plus_ket())


def alpha_minus() -> HermitianMatrix:
    return projector_from_vector(alpha_minus_ket())
