"""Why the eigenbasis diaphragms are the cheapest separation.

Scan every rank-1 measurement basis {P(theta), I - P(theta)} in the real
plane and compute the separation heat it would charge for the half z+ /
half x+ blend.  The heat p ln p + (1-p) ln(1-p) is least negative exactly
where p = <v|lambda|v> is most extreme, i.e. at the eigenbasis of lambda.
"""

import numpy as np

from qgas import (
    DensityMatrix, GasChamber, QuantumContents, eigen_instrument, mix_states, separate,
)
from qgas import spin

blend = mix_states([0.5, 0.5], [DensityMatrix(spin.z_plus()), DensityMatrix(spin.x_plus())])
parent = GasChamber(1.0, 1.0, 1.0, QuantumContents(blend))
eigen_heat = separate(parent, eigen_instrument(blend)).heat

thetas = np.linspace(0.0, np.pi / 2, 10_000, endpoint=False)
lam = blend.matrix.entries.real
p = (
    lam[0, 0] * np.cos(thetas) ** 2
    + lam[1, 1] * np.sin(thetas) ** 2
    + 2 * lam[0, 1] * np.sin(thetas) * np.cos(thetas)
)
heats = p * np.log(p) + (1 - p) * np.log(1 - p)

print(__doc__)
print(f"{'theta/pi':>10} {'p(theta)':>10} {'heat (NkT)':>12}")
for theta in np.linspace(0, np.pi / 2, 9, endpoint=False):
    k = int(theta / (np.pi / 2) * len(thetas))
    marker = "  <- eigenbasis region" if abs(theta - np.pi / 8) < 0.06 else ""
    print(f"{theta/np.pi:>10.4f} {p[k]:>10.6f} {heats[k]:>12.6f}{marker}")

best = int(np.argmax(heats))
print(f"\nbest scanned basis: theta = {thetas[best]/np.pi:.6f} pi "
      f"(eigenbasis is at 0.125 pi), heat {heats[best]:.7f} NkT")
print(f"eigenbasis diaphragms:               heat {eigen_heat:.7f} NkT")
away = heats[np.abs(thetas - np.pi / 8) > 0.01]
print(f"margin over bases more than 0.01 rad away: {eigen_heat - away.max():.3e} NkT")
print(f"separating with plain z diaphragms instead: {heats[0]:.6f} NkT")
print(f"worst basis scanned (unbiased, p = 1/2):    {heats.min():.6f} NkT = -ln 2")
