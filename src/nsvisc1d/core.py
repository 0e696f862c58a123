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
    """Uniform cell-centered mesh on [x_min, x_max]."""

    x_min: float
    x_max: float
    cells: int

    def __post_init__(self):
        if self.cells < 4:
            raise ValueError("need at least 4 cells")
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError("domain bounds must be finite")
        if self.x_max <= self.x_min:
            raise ValueError("empty domain")
        if not 0 < self.dx * self.dx < math.inf:
            raise ValueError("dx**2 must be a positive finite number")

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


def powf(rho, e: float, out=None):
    """rho**e with fast paths for the exponents the default presets hit;
    written into `out` when given."""
    if e == 0.0:
        if out is None:
            return np.ones_like(np.asarray(rho, dtype=float))
        out.fill(1.0)
        return out
    if e == 1.0:
        return np.add(rho, 0.0, out=out)
    if e == 2.0:
        r = np.asarray(rho, dtype=float)
        return np.multiply(r, r, out=out)
    if e == 0.5:
        return np.sqrt(rho, out=out)
    if e == -1.0:
        return np.divide(1.0, np.asarray(rho, dtype=float), out=out)
    return np.power(rho, e, out=out)


# The functions of rho below write into `out` (and their second term into
# `scratch`) when given; neither may alias rho.

def pressure(rho, p: Params, out=None):
    """P(rho) = a * rho**gamma."""
    pr = powf(rho, p.gamma, out)
    pr *= p.a
    return pr


def viscosity(rho, p: Params, out=None, scratch=None):
    """mu_n(rho) = mu * rho**alpha + rho**theta / n (term absent for n = inf)."""
    mu = powf(rho, p.alpha, out)
    mu *= p.mu
    if p.has_reg_term:
        reg = powf(rho, p.theta, scratch)
        reg /= p.n_reg
        mu += reg
    return mu


def sound_speed(rho, p: Params, out=None):
    """sqrt(P'(rho)) = sqrt(a * gamma * rho**(gamma-1))."""
    c2 = powf(rho, p.gamma - 1.0, out)
    c2 *= p.a * p.gamma
    return np.sqrt(c2, out=out)


def _power_primitive(rho, coef: float, expnt: float, out=None):
    # antiderivative of coef * rho**(expnt-1): handles the log branch
    if expnt == 0.0:
        prim = np.log(rho, out=out)
        prim *= coef
    else:
        prim = powf(rho, expnt, out)
        prim *= coef / expnt
    return prim


def _require_positive(rho):
    rho = np.asarray(rho, dtype=float)
    # the smallest non-NaN entry, as `np.any(rho <= 0)` would see it, but
    # without a temporary mask
    if np.fmin.reduce(rho, axis=None, initial=np.inf) <= 0:
        raise DomainError("density must be strictly positive")
    return rho


def _antiderivative(rho, p: Params, shift: float, out=None, scratch=None):
    # antiderivative of mu_n(rho) * rho**(shift - 1)
    rho = _require_positive(rho)
    prim = _power_primitive(rho, p.mu, p.alpha + shift, out)
    if p.has_reg_term:
        prim += _power_primitive(rho, 1.0 / p.n_reg, p.theta + shift, scratch)
    return prim


def phi(rho, p: Params, out=None, scratch=None):
    """Antiderivative of mu_n(rho)/rho**2 (drives v = u + d_x phi(rho))."""
    return _antiderivative(rho, p, -1.0, out, scratch)


def phi1(rho, p: Params):
    """Antiderivative of mu_n(rho)/rho; satisfies rho * phi'(rho) = phi1'(rho)."""
    return _antiderivative(rho, p, 0.0)


def phi2(rho, p: Params):
    """Antiderivative of mu_n(rho)/rho**(3/2); undefined at alpha = 1/2."""
    if p.alpha == 0.5:
        raise UnsupportedExponentError("phi2 is undefined for alpha = 1/2")
    return _antiderivative(rho, p, -0.5)


def pi_rel(rho, p: Params):
    """Relative pressure potential: convex, nonnegative, zero at rho_bar.

    Closed form for the gamma-law:
        a/(gamma-1) * (rho**gamma - gamma*rho*rho_bar**(gamma-1)
                       + (gamma-1)*rho_bar**gamma)
    """
    rho = np.asarray(rho, dtype=float)
    g = p.gamma
    rb = np.float64(p.rho_bar)  # its powers overflow to inf, without raising
    # in place, in the order of the closed form above
    out = powf(rho, g)
    linear = np.multiply(g, rho)
    linear *= rb ** (g - 1.0)
    out -= linear
    out += (g - 1.0) * rb ** g
    out *= p.a / (g - 1.0)
    return out


# ---------------------------------------------------------------------------
# shared discrete operators

def fill_ghosts(ext: np.ndarray, width: int, mode: str = "farfield",
                far: float = 0.0) -> np.ndarray:
    """Set the `width` ghost cells per side of `ext`, whose interior
    ext[width:-width] holds a cell field, in place; returns ext.

    modes: "farfield" (the constant `far` on both sides), "edge" (copy
    boundary cell), "periodic" (wrap).
    """
    if mode == "periodic":
        ext[:width] = ext[-2 * width:-width]
        ext[-width:] = ext[width:2 * width]
    elif mode == "edge":
        ext[:width] = ext[width]
        ext[-width:] = ext[-width - 1]
    elif mode == "farfield":
        ext[:width] = far
        ext[-width:] = far
    else:
        raise ValueError(f"unknown pad mode {mode!r}")
    return ext


def pad_field(field: np.ndarray, width: int, mode: str = "farfield",
              far: float = 0.0) -> np.ndarray:
    """A new copy of a cell field with `width` ghost cells per side, set
    as `fill_ghosts` does."""
    ext = np.empty(len(field) + 2 * width)
    ext[width:-width] = field
    return fill_ghosts(ext, width, mode, far)


def centered_difference(ext: np.ndarray, g: Grid1D, out=None) -> np.ndarray:
    """(ext[i+1] - ext[i-1]) / (2 dx) for every i with both neighbours."""
    diff = np.subtract(ext[2:], ext[:-2], out=out)
    diff /= 2.0 * g.dx
    return diff


def centered_gradient(field: np.ndarray, g: Grid1D, mode: str = "farfield",
                      boundary: float = 0.0) -> np.ndarray:
    """Second-order centered difference of a cell field, same length as input.

    This is the one discrete gradient reused by every module; identities such
    as w - m = grad(phi1(rho)) then hold to machine precision.
    """
    return centered_difference(pad_field(field, 1, mode=mode, far=boundary), g)


def _phi1_gradient(rho: np.ndarray, g: Grid1D, p: Params,
                   mode: str) -> np.ndarray:
    # d_x phi1(rho), phi1(rho_bar) beyond a farfield boundary; a new array
    if np.any(rho <= 0):
        raise VacuumError("the effective-momentum transform requires "
                          "positive density")
    return centered_gradient(phi1(rho, p), g, mode=mode,
                             boundary=float(phi1(p.rho_bar, p)))


def effective_momentum(rho: np.ndarray, m: np.ndarray, g: Grid1D, p: Params,
                       mode: str = "farfield") -> np.ndarray:
    """w = m + d_x phi1(rho), a new array: the transform's one definition."""
    grad = _phi1_gradient(rho, g, p, mode)
    grad += m
    return grad


def to_effective(s: State, g: Grid1D, p: Params,
                 mode: str = "farfield") -> EffectiveState:
    """(rho, w = m + d_x phi1(rho))."""
    return EffectiveState(s.rho.copy(),
                          effective_momentum(s.rho, s.m, g, p, mode), s.t)


def from_effective(e: EffectiveState, g: Grid1D, p: Params,
                   mode: str = "farfield") -> State:
    """m = w - d_x phi1(rho); exact inverse of to_effective."""
    return State(e.rho.copy(), e.w - _phi1_gradient(e.rho, g, p, mode), e.t)
