"""Initial-state memory of the V-shaped qubit with linear polarization.

With equal loss and gain couplings for both excited states the generator has
a two-dimensional kernel: the dark-state population is conserved, so
different initial states relax to different members of a one-parameter
steady-state family.
"""

import numpy as np

from lindgain import (
    DensityMatrix,
    RateMatrices,
    evolve,
    fit_linear_family_theta,
    liouvillian,
)
from lindgain.cli import parse_initial_state

rates = RateMatrices(loss=0.1 * np.ones((2, 2)), gain=0.05 * np.ones((2, 2)))
L = liouvillian(rates)

for init in ("e1", "bright", "g"):
    rho0 = parse_initial_state(init, "v_shaped")
    traj = evolve(L, rho0, 500.0, 2000)
    final = traj.rho[-1]
    theta, residual = fit_linear_family_theta(DensityMatrix(final, traj.labels), rates)
    pops = np.diag(final).real
    print(
        f"initial {init:>6}: populations {pops.round(6)}, "
        f"coherence {final[1, 2].real:+.6f}, "
        f"theta = {theta:+.6f} (residual {residual:.1e})"
    )

print()
print("The |e1> start keeps half a unit of dark population and lands on a")
print("different family member than the bright or ground starts.")
