"""Two-level qubit above a gain-doped substrate.

Splits the permittivity into loss and gain parts, builds the near-field
interaction tensors, and shows that the steady state has a finite excited
population fixed by the ratio of the two channels.
"""

import numpy as np

from lindgain import (
    QubitSpec,
    ScalarPermittivitySplit,
    SubstrateGeometry,
    isotropic_gain_tensors,
    liouvillian,
    rate_matrices,
    steady_state_kernel,
    steady_two_level_closed,
)

split = ScalarPermittivitySplit(eps=-1 + 0.2j, eps_loss=0.3, eps_gain=-0.1)
geom = SubstrateGeometry(z_a=1.0)

pair = isotropic_gain_tensors(split, geom)
print("loss tensor diagonal:", np.diag(pair.loss).real)
print("gain tensor diagonal:", np.diag(pair.gain).real)

qubit = QubitSpec(model="two_level", dipole=[1.0, 0.0, 0.0])
rates = rate_matrices(qubit, pair)
print(f"gamma_loss = {rates.loss[0, 0].real:.6f}, gamma_gain = {rates.gain[0, 0].real:.6f}")

state, kdim = steady_state_kernel(liouvillian(rates))
closed = steady_two_level_closed(rates)
print(f"kernel dimension: {kdim}")
print(f"excited population (kernel):      {state.rho[1, 1].real:.10f}")
print(f"excited population (closed form): {closed.rho[1, 1].real:.10f}")
print("expected ratio |eps_gain| / (eps_loss + |eps_gain|) =", 0.1 / 0.4)
