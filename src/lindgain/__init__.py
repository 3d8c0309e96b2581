"""Irreversible qubit dynamics in structured-gain photonic environments."""

from .correlations import field_spectrum, noise_current_spectrum
from .errors import (
    DegenerateKernelError,
    DomainError,
    LindgainError,
    NumericalInstabilityError,
    OracleError,
    OutOfValidityError,
    SingularityError,
    SpectralToleranceError,
    ValidationError,
)
from .greens import (
    InteractionTensorPair,
    SlabMotionParams,
    SubstrateGeometry,
    add_background_loss,
    greens_identity_check,
    isotropic_gain_tensors,
    moving_slab_quadrature_oracle,
    moving_slab_tensors_asymptotic,
    moving_slab_tensors_exact,
)
from .master import (
    DensityMatrix,
    QubitSpec,
    RateMatrices,
    RatePair,
    ThermalOccupation,
    Trajectory,
    TWO_LEVEL,
    V_SHAPED,
    evolve,
    fit_linear_family_theta,
    linear_family_rates,
    liouvillian,
    rate_matrices,
    steady_linear_family,
    steady_state_kernel,
    steady_states,
    steady_two_level_closed,
    steady_v_closed,
    thermal,
    trace_residual,
)
from .material import (
    DrudeParams,
    ScalarPermittivitySplit,
    quasistatic_reflection,
)

__version__ = "0.1.0"
