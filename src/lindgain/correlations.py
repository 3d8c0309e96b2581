"""Generalized fluctuation-dissipation spectra for the quasi-static electric
sector, plus the local noise-current spectral density.

Frequency dependence of the permittivity is the caller's responsibility: each
evaluation receives the split already resolved at the requested frequency.
"""

from __future__ import annotations

import numpy as np

from .errors import _check_positive
from .greens import SubstrateGeometry, isotropic_gain_tensors
from .material import ScalarPermittivitySplit


def field_spectrum(
    split_at_omega: ScalarPermittivitySplit,
    geom: SubstrateGeometry,
    omega: float,
    n_omega: float,
) -> np.ndarray:
    """Unilateral spectral density (2/pi)(N + 1/2)(G_L + G_G) at the qubit
    position, as a complex (3, 3) tensor.  Loss and gain channels ADD here:
    the sign carried by the gain response is absorbed into the definition of
    the gain tensor, which is PSD.
    """
    _check_positive("omega", omega)
    _check_positive("occupation", n_omega, zero_ok=True)
    pair = isotropic_gain_tensors(split_at_omega, geom)
    return (2.0 / np.pi) * (n_omega + 0.5) * (pair.loss + pair.gain)


def noise_current_spectrum(
    split: ScalarPermittivitySplit, omega: float, n_omega: float
) -> np.ndarray:
    """Local noise-current spectral density
    (2/pi)(N + 1/2) omega^2 (eps''_L - eps''_G) * identity for a scalar medium.
    Gain increases the noise even though it reduces the net absorption."""
    _check_positive("omega", omega)
    _check_positive("occupation", n_omega, zero_ok=True)
    strength = (
        (2.0 / np.pi)
        * (n_omega + 0.5)
        * omega**2
        * (split.eps_loss - split.eps_gain)
    )
    return strength * np.eye(3)
