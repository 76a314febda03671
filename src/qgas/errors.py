"""Exception types raised by the qgas library.

Every failure mode has its own class so callers can react to the physics
(e.g. ``NotOrthogonalError`` from a separating mix) without parsing messages.
"""

from __future__ import annotations


class QuantumGasError(Exception):
    """Base class for all qgas errors."""


# -- linear algebra ----------------------------------------------------------

class NonSquareError(QuantumGasError):
    """Matrix input is not square."""


class NonFiniteError(QuantumGasError):
    """Matrix or vector input contains NaN or Inf entries."""


class NotHermitianError(QuantumGasError):
    """Matrix asymmetry exceeds the construction tolerance."""


class DimMismatchError(QuantumGasError):
    """Operands have incompatible dimensions."""


class DimFactorMismatchError(QuantumGasError):
    """Factor dimensions do not multiply to the matrix dimension."""


class NotNormalizedError(QuantumGasError):
    """State vector norm differs from 1 beyond tolerance."""


class NotUnitaryError(QuantumGasError):
    """Matrix fails the U+U = I check."""


# -- quantum statistics ------------------------------------------------------

class NotDensityMatrixError(QuantumGasError):
    """Candidate matrix is not positive semidefinite with unit trace."""


class NotPovmError(QuantumGasError):
    """Element set fails positivity or completeness."""


class NotProjectiveError(QuantumGasError):
    """Element set fails idempotence, orthogonality, or completeness."""


class InvalidPartitionError(QuantumGasError):
    """Label grouping is not a partition into the required nonempty sets."""


class PreconditionViolatedError(QuantumGasError):
    """Theorem input does not satisfy the one-shot-distinguishing premise."""


class ProofStepFailedError(QuantumGasError):
    """A numerical step of the orthogonality proof failed; signals a bug."""


class NotOrthogonalError(QuantumGasError):
    """Operation requires one-shot-distinguishable (orthogonal) inputs."""


class NotConvexError(QuantumGasError):
    """Mixture weights are not a convex combination."""


# -- gas thermodynamics ------------------------------------------------------

class NonPositiveInputError(QuantumGasError):
    """Volume, temperature, or particle amount must be strictly positive."""


class VariantMismatchError(QuantumGasError):
    """Quantum contents compared or combined with classical contents."""


class TemperatureMismatchError(QuantumGasError):
    """Chambers must share a temperature for isothermal operations."""


class NotQuantumError(QuantumGasError):
    """Operation requires quantum gas contents."""


class UnknownSpeciesError(QuantumGasError):
    """Permeability map does not cover a species present in the chamber."""


class IncompatibleReductionError(QuantumGasError):
    """Observer reduction does not fit the ground-truth dimension."""


# -- protocol scripts --------------------------------------------------------

class ProtocolError(QuantumGasError):
    """Base for scenario-script errors; carries the source location."""

    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column


class ScenarioSyntaxError(ProtocolError):
    def __init__(self, line: int, column: int, expected: str):
        super().__init__(f"expected {expected}", line, column)
        self.expected = expected


class UndefinedNameError(ProtocolError):
    """A state, instrument, or chamber name is used before definition."""


class DuplicateNameError(ProtocolError):
    """A state or instrument name is defined twice."""


class HeaderMissingError(ProtocolError):
    """Script does not begin with a HEADER statement."""


class ExecutionError(ProtocolError):
    """Runtime failure while executing a scenario step."""
