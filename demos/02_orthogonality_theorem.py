"""One-shot distinguishability is orthogonality, run in both directions.

Forward: given any POVM whose outcomes split into a group that is silent on
phi (but not on psi) and a group that is silent on psi (but not on phi),
the proof chain below certifies numerically that tr(phi psi) = 0.

Converse: given orthogonal phi and psi, the projector onto phi's support
and its complement already form such a POVM.
"""

import numpy as np

from qgas import (
    DensityMatrix,
    are_orthogonal,
    distinguishing_povm_from_orthogonal,
    is_one_shot_distinguishing,
    verify_orthogonality_theorem,
)
from qgas.linalg import HermitianMatrix, StateVector, identity, projector_from_vector

print(__doc__)

rng = np.random.default_rng(7)
m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
basis, _ = np.linalg.qr(m)

phi = DensityMatrix(projector_from_vector(StateVector(basis[:, 0])))
psi = DensityMatrix(
    HermitianMatrix(
        0.6 * np.outer(basis[:, 1], basis[:, 1].conj())
        + 0.4 * np.outer(basis[:, 2], basis[:, 2].conj())
    )
)
print(f"Random pure phi and rank-2 psi in dimension 4; tr(phi psi) = "
      f"{are_orthogonal(phi, psi).overlap:.3e}\n")

print("Converse: build the distinguishing POVM from orthogonality")
povm, grouping = distinguishing_povm_from_orthogonal(phi, psi)
print(f"  E = projector onto supp(phi) (rank {povm.element('E').trace():.0f}), F = I - E")
print(f"  one-shot distinguishing: {is_one_shot_distinguishing(povm, grouping, phi, psi)}\n")

print("Forward: feed that POVM to the constructive proof")
proof = verify_orthogonality_theorem(phi, psi, povm, grouping)
for step in proof.steps:
    print(f"  [{'ok' if step.passed else 'FAIL'}] {step.name:<48} residual {step.residual:.2e}")
print(f"\nConclusion: tr(phi psi) = {proof.overlap:.3e} <= 1e-9\n")

print("And the guard rail: a POVM that is merely informative, not silent,")
print("cannot certify anything.")
half = identity(4) * 0.5
informative = type(povm)((("A", half), ("B", half)))
print(f"  {{I/2, I/2}} distinguishes phi from psi: "
      f"{is_one_shot_distinguishing(informative, (('A',), ('B',)), phi, psi)}")
