"""Separating quantum gases with semi-permeable diaphragms.

Two containers, same recipe, very different bills:

* a half/half blend of z+ and z- gases (one-shot distinguishable) separates
  completely into two half volumes for ln 2 = 0.693 NkT of work;
* a half/half blend of z+ and x+ gases (NOT one-shot distinguishable)
  cannot be separated as such -- but it equals a 0.854/0.146 blend of the
  orthogonal eigenstates of its density matrix, and separating those costs
  only 0.416 NkT.
"""

import numpy as np

from qgas import (
    DensityMatrix,
    GasChamber,
    ProjectiveInstrument,
    QuantumContents,
    eigen_instrument,
    mix_states,
    separate,
)
from qgas import spin


def chamber(mixture):
    """A unit chamber whose gas is the (weight, matrix) blend, held as one
    density matrix."""
    weights = [w for w, _ in mixture]
    contents = QuantumContents(mix_states(weights, [DensityMatrix(m) for _, m in mixture]))
    return GasChamber(volume=1.0, temperature=1.0, particles=1.0, contents=contents)


def show(title, result):
    print(title)
    for c in result.chambers:
        print(f"  chamber {c.label!r}: volume {c.volume:.6f} V, particles {c.particles:.6f} N")
    print(f"  heat absorbed by the gas: {result.heat:.6f} NkT\n")


print(__doc__)

print("=" * 72)
print("1. Distinguishable pair: z+ and z-")
print("=" * 72)
z_basis = ProjectiveInstrument((("up", spin.z_plus()), ("down", spin.z_minus())))
result = separate(chamber([(0.5, spin.z_plus()), (0.5, spin.z_minus())]), z_basis)
show("Pushing the two z diaphragms to the middle:", result)
print(f"Compare ln 2 = {np.log(2):.6f}: complete separation, maximal cost.\n")

print("=" * 72)
print("2. Non-distinguishable pair: z+ and x+")
print("=" * 72)
blend = mix_states([0.5, 0.5], [DensityMatrix(spin.z_plus()), DensityMatrix(spin.x_plus())])
eigen_basis = eigen_instrument(blend)
values = np.linalg.eigvalsh(blend.matrix.entries)[::-1]
print(f"The blend's density matrix has eigenvalues {values[0]:.6f} and {values[1]:.6f};")
print("its eigenvectors are the alpha+- pair, orthogonal even though z+ and x+ are not.\n")
result = separate(chamber([(0.5, spin.z_plus()), (0.5, spin.x_plus())]), eigen_basis)
show("Separating along the eigenbasis instead:", result)
print("Each particle is TRANSFORMED by the measurement at the diaphragm window:")
print("what ends up in the chambers are alpha gases, not the original z+/x+ ones.")
