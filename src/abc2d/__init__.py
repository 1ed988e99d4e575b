"""Exact quantum mechanics of two planar particles carrying charge and flux.

The charge-flux interaction is a point-flux vector potential, the
charge-charge interaction a 1/r attraction or repulsion.  The relative
problem reduces to a single particle in combined flux + Coulomb fields;
bound states solve in closed form for any flux, scattering for integer and
half-integer dimensionless flux.  Every closed form ships with an
independent numerical cross-check (see :mod:`abc2d.oracle` and
:mod:`abc2d.verify`).
"""

from .bound import (
    BRANCH_MINUS,
    BRANCH_PLUS,
    BRANCH_UNSPLIT,
    QuantumNumbers,
    SpectrumLevel,
    energy,
    eval_bound_wavefunction,
    is_acceptable,
    normalization_constant,
    spectrum,
)
from .errors import (
    DomainError,
    ForwardSingularity,
    GridBoundary,
    NoBoundStates,
    NoConvergence,
    ParameterPole,
    PoleError,
    QuadratureFailure,
    RatioViolation,
    StiffnessFailure,
    Unacceptable,
    UnsupportedFluxCase,
    WrongCase,
    ZeroFlux,
)
from .oracle import quad_norm, shoot_with_nodes
from .reduction import (
    ParticlePair,
    RelativeProblem,
    SpectralCase,
    classify_case,
    decompose_flux,
    reduce_two_body,
    validate_ratio,
)
from .scatter import (
    CrossSectionSample,
    FieldGrid,
    FluxCase,
    ScatteringParams,
    amplitude_coulomb,
    amplitude_half_flux,
    current_field,
    eval_scattering_field,
    eval_scattering_field_polar,
    from_parabolic,
    limit_ab,
    limit_classical,
    sample_scattering_field,
    scattering_params,
    sigma_coulomb,
    sigma_half_flux,
    sigma_integer_flux,
    sigma_interference,
    sigma_sample,
    stationary_wave,
    to_parabolic,
)
from .specfn import arg_gamma, gamma_moduli, kummer_m, ln_gamma

__version__ = "0.1.0"
