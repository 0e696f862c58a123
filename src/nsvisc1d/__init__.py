"""1D compressible Navier-Stokes with density-dependent viscosity: primitive
and effective-velocity formulations, measure-valued/BV initial data, and the
entropy/conservation/regularization diagnostics that discriminate the
coupling regimes."""

from .core import (
    DomainError,
    EffectiveState,
    Grid1D,
    NonFiniteStateError,
    Params,
    State,
    UnsupportedExponentError,
    VacuumError,
    centered_gradient,
    from_effective,
    phi,
    phi1,
    phi2,
    pi_rel,
    pressure,
    sound_speed,
    to_effective,
    viscosity,
)
from .diagnostics import DiagnosticsRecord
from .initdata import (
    Profile,
    ScenarioSpec,
    ScenarioValidationError,
    build_scenario,
    heat_mollify,
    make_dirac_momentum,
    preset_scenario,
)
from .solver import SchemeConfig, Trajectory, cfl_dt, run, step_effective, step_primitive

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
