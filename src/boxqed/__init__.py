"""boxqed: finite-mode quantum electrodynamics on a periodic box.

Mode lattices, quantized field coordinates, photon states, time-sliced
path-integral propagators, and lattice-sum Coulomb studies, all at desk scale.
"""

__version__ = "0.1.0"

from .errors import BoxQEDError, BudgetError, ConfigError, InvariantViolation
from .lattice import (
    ModeSet,
    PolarizationFrame,
    SimulationConfig,
    WaveVector,
    build_mode_set,
    build_polarization,
)
from .field import FieldVector, ModelContext
from .coulomb import (
    LatticeSummand,
    mollified_coulomb,
    richardson_limit,
    riemann_sum,
)
from .action import (
    BrokenPath,
    Subdivision,
    broken_action,
    constraint_identity_check,
    segment_action,
)
from .fock import OscillatorBasis, StateVector
from .propagator import (
    AnalyticQuadraticStep,
    GalerkinStep,
    StepBackend,
    compose,
    convergence_study,
    fundamental_step,
    phi_maps,
    residual_study,
    rho_star_search,
)

__all__ = [
    "__version__",
    "BoxQEDError",
    "BudgetError",
    "ConfigError",
    "InvariantViolation",
    "ModeSet",
    "PolarizationFrame",
    "SimulationConfig",
    "WaveVector",
    "build_mode_set",
    "build_polarization",
    "FieldVector",
    "ModelContext",
    "LatticeSummand",
    "mollified_coulomb",
    "richardson_limit",
    "riemann_sum",
    "BrokenPath",
    "Subdivision",
    "broken_action",
    "constraint_identity_check",
    "segment_action",
    "OscillatorBasis",
    "StateVector",
    "AnalyticQuadraticStep",
    "GalerkinStep",
    "StepBackend",
    "compose",
    "convergence_study",
    "fundamental_step",
    "phi_maps",
    "residual_study",
    "rho_star_search",
]
