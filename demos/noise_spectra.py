"""Fluctuation spectra of the gain-doped substrate.

The field correlation spectrum is set by the sum of the loss and gain
interaction tensors; the noise-current spectrum grows when gain is added
even though the net absorption shrinks.
"""

import numpy as np

from lindgain import (
    ScalarPermittivitySplit,
    SubstrateGeometry,
    field_spectrum,
    noise_current_spectrum,
)

geom = SubstrateGeometry(z_a=1.0)
active = ScalarPermittivitySplit(eps=-1 + 0.2j, eps_loss=0.3, eps_gain=-0.1)
passive = ScalarPermittivitySplit(eps=-1 + 0.3j, eps_loss=0.3, eps_gain=0.0)

pt = field_spectrum(active, geom, omega=1.0, n_omega=0.0)
print("field spectrum diagonal at zero occupation:", np.diag(pt).real)

for label, split in (("passive", passive), ("active ", active)):
    s = noise_current_spectrum(split, omega=1.0, n_omega=0.0)
    print(
        f"{label}: eps'' = {split.eps.imag:+.2f}, "
        f"noise current S_xx = {s[0, 0]:.6f}"
    )
print("-> less net absorption, more noise: the gain channel radiates too")
