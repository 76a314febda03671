"""Quantum ideal-gas thought experiments, executable.

The library stack, bottom to top:

* :mod:`qgas.linalg` -- small dense Hermitian linear algebra, with numpy's
  LAPACK eigensolver and a deterministic phase convention.
* :mod:`qgas.statistics` -- density matrices, POVMs, projective instruments,
  and the one-shot-distinguishability/orthogonality equivalence, executable
  in both directions.
* :mod:`qgas.thermo` -- isothermal heat accounting, heat ledgers, and the
  cyclic second-law audit.
* :mod:`qgas.diaphragm` -- semi-permeable diaphragms: measurement-driven
  separation of gases into chambers, and one mixing operation for quantum
  and classical gases (reversible only for distinguishable gases).
* :mod:`qgas.observers` -- observer-relative views of the same run (partial
  traces, species merges) and per-observer cycle verdicts.
* :mod:`qgas.protocol` -- the .qg scenario language: parser, interpreter,
  JSON reports, and the command-line entry point.
"""

from .errors import QuantumGasError
from .linalg import (
    HermitianMatrix,
    SpectralDecomposition,
    StateVector,
    eig_hermitian,
    make_vector,
    partial_trace,
    projector_from_vector,
    tensor,
    trace_product,
    two_state_rotation,
)
from .statistics import (
    DensityMatrix,
    OutcomeDistribution,
    Povm,
    ProjectiveInstrument,
    apply_instrument,
    apply_unitary,
    are_orthogonal,
    coarse_grain,
    distinguishing_povm_from_orthogonal,
    eigen_instrument,
    is_one_shot_distinguishing,
    mix_states,
    outcome_probability,
    verify_orthogonality_theorem,
)
from .thermo import (
    ClassicalContents,
    CycleVerdict,
    GasChamber,
    HeatLedger,
    QuantumContents,
    audit_cycle,
    contents_equal,
    isothermal_heat,
)
from .diaphragm import SeparationResult, classical_separate, mix, separate
from .observers import Observer, ObserverView, build_willard_povm, view_contents

__all__ = [
    "QuantumGasError",
    "HermitianMatrix", "StateVector", "SpectralDecomposition",
    "make_vector", "trace_product", "tensor",
    "partial_trace", "eig_hermitian", "projector_from_vector",
    "two_state_rotation",
    "DensityMatrix", "Povm", "ProjectiveInstrument", "OutcomeDistribution",
    "outcome_probability", "apply_instrument", "apply_unitary",
    "are_orthogonal", "is_one_shot_distinguishing", "coarse_grain",
    "verify_orthogonality_theorem", "distinguishing_povm_from_orthogonal",
    "eigen_instrument", "mix_states",
    "QuantumContents", "ClassicalContents", "GasChamber", "HeatLedger",
    "CycleVerdict", "isothermal_heat", "contents_equal", "audit_cycle",
    "SeparationResult", "separate", "classical_separate", "mix",
    "Observer", "ObserverView", "view_contents", "build_willard_povm",
]

__version__ = "0.1.0"
