"""Parameter/state containers, equation of state, and effective-velocity transforms.

Everything here is pure and operates on plain numpy arrays; the discrete
centered gradient defined at the bottom is the single operator shared by the
other modules so that algebraic identities between the two formulations hold
exactly at the discrete level.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class UnsupportedExponentError(ValueError):
    """Viscosity exponent for which a transform is undefined."""


class VacuumError(RuntimeError):
    """Density dropped to (or below) the vacuum guard."""


class NonFiniteStateError(ValueError):
    """A state holds a NaN or infinite density or momentum."""


@dataclass(frozen=True)
class Params:
    """Physical and regularization constants.

    mu, alpha: viscosity law mu(rho) = mu * rho**alpha
    a, gamma:  pressure law P(rho) = a * rho**gamma
    rho_bar:   far-field density
    theta, n_reg: regularized viscosity adds rho**theta / n_reg;
                  n_reg = inf disables the extra term.
    """

    mu: float = 1.0
    alpha: float = 1.0
    a: float = 1.0
    gamma: float = 2.0
    rho_bar: float = 1.0
    theta: float = 0.25
    n_reg: float = math.inf

    def __post_init__(self):
        for name in ("mu", "alpha", "a", "gamma", "rho_bar", "theta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if self.a <= 0:
            raise ValueError("a must be positive")
        if self.gamma <= 1:
            raise ValueError("gamma must exceed 1")
        if self.rho_bar <= 0:
            raise ValueError("rho_bar must be positive")
        if not 0 <= self.theta < 0.5:
            raise ValueError("theta must lie in [0, 1/2)")
        if not (self.n_reg == math.inf or self.n_reg >= 1):
            raise ValueError("n_reg must be >= 1 or inf")

    @property
    def has_reg_term(self) -> bool:
        return math.isfinite(self.n_reg)

    @property
    def strong_coupling_regime(self) -> bool:
        """Exponent constraints under which instantaneous density
        regularization is expected (gamma >= alpha, and gamma >= 2*alpha - 1
        when alpha > 1/2)."""
        if self.gamma < self.alpha:
            return False
        if self.alpha > 0.5 and self.gamma < 2 * self.alpha - 1:
            return False
        return True


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centered mesh on [x_min, x_max] with ghost cells."""

    x_min: float
    x_max: float
    cells: int
    ghost: int = 2

    def __post_init__(self):
        if self.cells < 4:
            raise ValueError("need at least 4 cells")
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError("domain bounds must be finite")
        if self.x_max <= self.x_min:
            raise ValueError("empty domain")
        if self.ghost < 2:
            raise ValueError("need at least 2 ghost cells per side")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.cells

    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.cells) + 0.5) * self.dx


@dataclass
class State:
    """Cell-averaged density and momentum rho*u at one time."""

    rho: np.ndarray
    m: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        self.m = np.asarray(self.m, dtype=float)
        if self.rho.shape != self.m.shape:
            raise ValueError("rho and m must have identical shape")

    def copy(self) -> "State":
        return State(self.rho.copy(), self.m.copy(), self.t)


@dataclass
class EffectiveState:
    """Density plus effective momentum w = rho*v for the reformulated system."""

    rho: np.ndarray
    w: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        self.w = np.asarray(self.w, dtype=float)
        if self.rho.shape != self.w.shape:
            raise ValueError("rho and w must have identical shape")

    def copy(self) -> "EffectiveState":
        return EffectiveState(self.rho.copy(), self.w.copy(), self.t)


def powf(rho, e: float):
    """rho**e with fast paths for the exponents the default presets hit."""
    if e == 0.0:
        return np.ones_like(np.asarray(rho, dtype=float))
    if e == 1.0:
        return np.asarray(rho, dtype=float) + 0.0
    if e == 2.0:
        r = np.asarray(rho, dtype=float)
        return r * r
    if e == 0.5:
        return np.sqrt(rho)
    if e == -1.0:
        return 1.0 / np.asarray(rho, dtype=float)
    return np.power(rho, e)


def pressure(rho, p: Params):
    """P(rho) = a * rho**gamma."""
    return p.a * powf(rho, p.gamma)

def viscosity(rho, p: Params):
    """mu_n(rho) = mu * rho**alpha + rho**theta / n (term absent for n = inf)."""
    out = p.mu * powf(rho, p.alpha)
    if p.has_reg_term:
        out = out + powf(rho, p.theta) / p.n_reg
    return out


def sound_speed(rho, p: Params):
    """sqrt(P'(rho)) = sqrt(a * gamma * rho**(gamma-1))."""
    return np.sqrt(p.a * p.gamma * powf(rho, p.gamma - 1.0))


def _power_primitive(rho, coef: float, expnt: float):
    # antiderivative of coef * rho**(expnt-1): handles the log branch
    if expnt == 0.0:
        return coef * np.log(rho)
    return (coef / expnt) * powf(rho, expnt)


def _require_positive(rho):
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0):
        raise DomainError("density must be strictly positive")
    return rho


def phi(rho, p: Params):
    """Antiderivative of mu_n(rho)/rho**2 (drives v = u + d_x phi(rho))."""
    rho = _require_positive(rho)
    out = _power_primitive(rho, p.mu, p.alpha - 1.0)
    if p.has_reg_term:
        out = out + _power_primitive(rho, 1.0 / p.n_reg, p.theta - 1.0)
    return out


def phi1(rho, p: Params):
    """Antiderivative of mu_n(rho)/rho; satisfies rho * phi'(rho) = phi1'(rho)."""
    rho = _require_positive(rho)
    out = _power_primitive(rho, p.mu, p.alpha)
    if p.has_reg_term:
        out = out + _power_primitive(rho, 1.0 / p.n_reg, p.theta)
    return out


def phi2(rho, p: Params):
    """Antiderivative of mu_n(rho)/rho**(3/2); undefined at alpha = 1/2."""
    if p.alpha == 0.5:
        raise UnsupportedExponentError("phi2 is undefined for alpha = 1/2")
    rho = _require_positive(rho)
    out = _power_primitive(rho, p.mu, p.alpha - 0.5)
    if p.has_reg_term:
        out = out + _power_primitive(rho, 1.0 / p.n_reg, p.theta - 0.5)
    return out


def pi_rel(rho, p: Params):
    """Relative pressure potential: convex, nonnegative, zero at rho_bar.

    Closed form for the gamma-law:
        a/(gamma-1) * (rho**gamma - gamma*rho*rho_bar**(gamma-1)
                       + (gamma-1)*rho_bar**gamma)
    """
    rho = np.asarray(rho, dtype=float)
    g = p.gamma
    rb = p.rho_bar
    return (p.a / (g - 1.0)) * (
        powf(rho, g) - g * rho * rb ** (g - 1.0) + (g - 1.0) * rb ** g
    )


# ---------------------------------------------------------------------------
# shared discrete operators

def pad_field(field: np.ndarray, width: int, mode: str = "farfield",
              far: float = 0.0) -> np.ndarray:
    """Extend a cell field by `width` ghost cells per side.

    modes: "farfield" (the constant `far` on both sides), "edge" (copy
    boundary cell), "periodic" (wrap).
    """
    if mode == "periodic":
        return np.concatenate([field[-width:], field, field[:width]])
    if mode == "edge":
        return np.concatenate([np.full(width, field[0]), field,
                               np.full(width, field[-1])])
    if mode == "farfield":
        ghosts = np.full(width, far)
        return np.concatenate([ghosts, field, ghosts])
    raise ValueError(f"unknown pad mode {mode!r}")


def centered_gradient(field: np.ndarray, g: Grid1D, mode: str = "farfield",
                      boundary: float = 0.0) -> np.ndarray:
    """Second-order centered difference of a cell field, same length as input.

    This is the one discrete gradient reused by every module; identities such
    as w - m = grad(phi1(rho)) then hold to machine precision.
    """
    ext = pad_field(field, 1, mode=mode, far=boundary)
    return (ext[2:] - ext[:-2]) / (2.0 * g.dx)


def to_effective(s: State, g: Grid1D, p: Params,
                 mode: str = "farfield") -> EffectiveState:
    """w = m + d_x phi1(rho)."""
    if np.any(s.rho <= 0):
        raise VacuumError("to_effective requires positive density")
    grad = centered_gradient(phi1(s.rho, p), g, mode=mode,
                             boundary=float(phi1(p.rho_bar, p)))
    return EffectiveState(s.rho.copy(), s.m + grad, s.t)


def from_effective(e: EffectiveState, g: Grid1D, p: Params,
                   mode: str = "farfield") -> State:
    """m = w - d_x phi1(rho); exact inverse of to_effective."""
    if np.any(e.rho <= 0):
        raise VacuumError("from_effective requires positive density")
    grad = centered_gradient(phi1(e.rho, p), g, mode=mode,
                             boundary=float(phi1(p.rho_bar, p)))
    return State(e.rho.copy(), e.w - grad, e.t)
