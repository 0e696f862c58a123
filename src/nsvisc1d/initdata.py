"""Construction of regularized initial data: heat-kernel mollification,
Dirac momentum atoms, piecewise-constant (BV) shock densities, and full
scenario presets matching the hypotheses of each supported regime."""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .core import (
    Grid1D,
    Params,
    State,
    centered_gradient,
    phi1,
)

KINDS = (
    "theo1-strong-coupling",
    "corbis-weak-coupling",
    "theo2-constant-visc",
    "hoff-L2-velocity",
    "custom",
)

#: smallness threshold for |grad phi1(rho0)|_1 + |m0|_1; data exceeding it
#: run with a logged warning, never an error (the theory fixes no value).
DEFAULT_EPS0 = 0.1


class ScenarioValidationError(ValueError):
    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ParameterError(ValueError):
    pass


@dataclass(frozen=True)
class Profile:
    """Declarative 1D profile: 'zero' or 'gauss' (center, amplitude, width)."""

    kind: str = "zero"
    center: float = 0.0
    amplitude: float = 0.0
    width: float = 1.0

    def sample(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros_like(x)
        if self.kind == "gauss":
            z = (x - self.center) / self.width
            return self.amplitude * np.exp(-0.5 * z * z)
        raise ValueError(f"unknown profile kind {self.kind!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    """Initial-data recipe: BV density, effective/ordinary velocity profile,
    momentum atoms, and the mollification time tau (None = tied to the grid,
    tau = 4*dx**2)."""

    kind: str
    params: Params
    density_breaks: tuple = ()
    density_values: tuple = (1.0,)
    v0: Profile = Profile("zero")
    u0: Profile = Profile("zero")
    momentum_atoms: tuple = ()
    mollify_tau: float | None = None

    def resolved_tau(self, g: Grid1D) -> float:
        if self.mollify_tau is None:
            return 4.0 * g.dx ** 2
        return self.mollify_tau

    def validate(self) -> None:
        bad = []
        if self.kind not in KINDS:
            bad.append(f"unknown scenario kind {self.kind!r}")
            raise ScenarioValidationError(bad)
        p = self.params
        vals = np.asarray(self.density_values, dtype=float)
        if len(self.density_values) != len(self.density_breaks) + 1:
            bad.append("density profile needs one more value than breakpoints")
        if np.any(vals <= 0):
            bad.append("density values must satisfy 0 < c <= rho0 <= C")
        if list(self.density_breaks) != sorted(self.density_breaks):
            bad.append("density breakpoints must be increasing")
        if self.momentum_atoms and self.mollify_tau is not None \
                and self.mollify_tau <= 0:
            bad.append("momentum atoms require a positive mollification time")
        if self.kind == "theo1-strong-coupling":
            if p.alpha <= 0:
                bad.append("strong-coupling regime requires alpha > 0")
            if p.alpha == 0.5:
                bad.append("alpha = 1/2 is excluded in the strong-coupling regime")
            if not p.strong_coupling_regime:
                bad.append("exponents violate gamma >= alpha (and gamma >= "
                           "2*alpha - 1 for alpha > 1/2)")
            if self.momentum_atoms:
                bad.append("strong-coupling data forbids momentum atoms "
                           "(v0 must be square integrable)")
        elif self.kind == "corbis-weak-coupling":
            if p.alpha <= 0:
                bad.append("weak-coupling regime requires alpha > 0")
            if p.gamma < p.alpha:
                bad.append("weak-coupling regime requires gamma >= alpha")
        elif self.kind == "theo2-constant-visc":
            if p.alpha != 0:
                bad.append("constant-viscosity regime requires alpha = 0")
            if self.momentum_atoms:
                bad.append("constant-viscosity data forbids momentum atoms")
        elif self.kind == "hoff-L2-velocity":
            if self.momentum_atoms:
                bad.append("Hoff-regime data forbids momentum atoms "
                           "(u0 must be square integrable)")
        if bad:
            raise ScenarioValidationError(bad)


@dataclass
class MollifiedField:
    """Mollification output plus a flag set when the truncated kernel support
    did not fit inside the domain."""

    values: np.ndarray
    support_clipped: bool = False


def _kernel(tau: float, dx: float) -> np.ndarray:
    # Gaussian heat kernel of variance 2*tau, truncated at 8 sigma and
    # renormalized so that cell sums (hence integrals) are preserved exactly.
    sigma = math.sqrt(2.0 * tau)
    half = max(1, int(math.ceil(8.0 * sigma / dx)))
    offsets = np.arange(-half, half + 1) * dx
    w = np.exp(-offsets * offsets / (4.0 * tau))
    return w / w.sum()


def heat_mollify(data, tau: float, g: Grid1D) -> MollifiedField:
    """Apply the heat semigroup at time tau.

    `data` is either a sampled cell field (discrete convolution, edge-padded)
    or a list of (location, mass) atoms (each mapped to the analytic heat
    kernel sampled at cell centers).
    """
    if tau <= 0:
        raise ParameterError("mollification time must be positive")
    if isinstance(data, (list, tuple)):
        x = g.centers()
        out = np.zeros(g.cells)
        for x0, mass in data:
            out += mass * np.exp(-(x - x0) ** 2 / (4.0 * tau)) \
                / math.sqrt(4.0 * math.pi * tau)
        clipped = 8.0 * math.sqrt(2.0 * tau) > 0.5 * (g.x_max - g.x_min)
        return MollifiedField(out, clipped)
    data = np.asarray(data, dtype=float)
    w = _kernel(tau, g.dx)
    half = (len(w) - 1) // 2
    clipped = len(w) > g.cells
    ext = np.pad(data, half, mode="edge")
    return MollifiedField(np.convolve(ext, w, mode="valid"), clipped)


def make_dirac_momentum(atoms, tau: float, g: Grid1D) -> np.ndarray:
    """Sum of mollified Dirac atoms sampled at cell centers."""
    if not atoms:
        return np.zeros(g.cells)
    return heat_mollify(list(atoms), tau, g).values


def piecewise_density(breaks, values, g: Grid1D) -> np.ndarray:
    x = g.centers()
    idx = np.searchsorted(np.asarray(breaks, dtype=float), x, side="right")
    return np.asarray(values, dtype=float)[idx]


@dataclass
class BuiltScenario:
    state: State
    smallness: float
    warnings: list = field(default_factory=list)


def build_scenario(spec: ScenarioSpec, g: Grid1D) -> BuiltScenario:
    """Assemble the initial State for a validated scenario; an effective run
    starts from its `to_effective` under the run's boundary rule.

    The raw BV density and momentum are built first (the effective-momentum
    coupling uses the shared centered gradient, edge-padded so its discrete
    integral telescopes to the exact transform jump), then both fields are
    smoothed by the heat semigroup at the mollification time."""
    spec.validate()
    p = spec.params
    warnings = []
    x = g.centers()
    tau = spec.resolved_tau(g)

    rho0 = piecewise_density(spec.density_breaks, spec.density_values, g)
    grad_phi1 = centered_gradient(phi1(rho0, p), g, mode="edge")

    if spec.kind in ("theo1-strong-coupling", "theo2-constant-visc"):
        v0 = spec.v0.sample(x)
        m0 = rho0 * v0 - grad_phi1
    elif spec.kind in ("corbis-weak-coupling", "hoff-L2-velocity"):
        m0 = rho0 * spec.u0.sample(x)
    else:  # custom: ordinary velocity plus optional effective-velocity part
        m0 = rho0 * spec.u0.sample(x)
        if spec.v0.kind != "zero":
            m0 = m0 + rho0 * spec.v0.sample(x) - grad_phi1

    smallness = float(np.sum(np.abs(grad_phi1)) * g.dx
                      + np.sum(np.abs(m0)) * g.dx
                      + sum(abs(mass) for _, mass in spec.momentum_atoms))
    if smallness > DEFAULT_EPS0:
        warnings.append(
            f"smallness report {smallness:.4g} exceeds eps0={DEFAULT_EPS0:g}; "
            "running anyway")

    if tau > 0:
        mr = heat_mollify(rho0, tau, g)
        mm = heat_mollify(m0, tau, g)
        rho0, m0 = mr.values, mm.values
        if mr.support_clipped or mm.support_clipped:
            warnings.append("mollification kernel support exceeds the domain")

    if spec.momentum_atoms:
        m0 = m0 + make_dirac_momentum(spec.momentum_atoms, tau, g)

    if np.any(rho0 <= 0):
        raise ScenarioValidationError(["built density violates the vacuum guard"])
    edge_gap = max(abs(rho0[0] - p.rho_bar), abs(rho0[-1] - p.rho_bar))
    if edge_gap > 1e-8 * p.rho_bar:
        warnings.append(
            f"density differs from rho_bar at the domain edges by {edge_gap:.3g}")

    return BuiltScenario(State(rho0, m0, 0.0), smallness, warnings)


# ---------------------------------------------------------------------------
# shipped presets


def preset_scenario(name: str, params: Params | None = None) -> ScenarioSpec:
    """Named scenario presets with their regime-appropriate parameters."""
    if name == "equilibrium":
        p = params or Params()
        return ScenarioSpec(kind="custom", params=p,
                            density_values=(p.rho_bar,))
    if name == "theo1":
        p = params or Params(alpha=1.0)
        return ScenarioSpec(kind="theo1-strong-coupling", params=p,
                            density_breaks=(0.0, 8.0),
                            density_values=(1.0, 2.0, 1.0),
                            v0=Profile("zero"))
    if name == "corbis":
        p = params or Params(alpha=1.0)
        return ScenarioSpec(kind="corbis-weak-coupling", params=p,
                            density_breaks=(0.0, 8.0),
                            density_values=(1.0, 2.0, 1.0),
                            u0=Profile("zero"),
                            momentum_atoms=((0.0, 0.1),))
    if name == "theo2":
        p = params or Params(alpha=0.0)
        return ScenarioSpec(kind="theo2-constant-visc", params=p,
                            density_breaks=(0.0, 8.0),
                            density_values=(1.0, 2.0, 1.0),
                            v0=Profile("zero"))
    if name == "hoff":
        p = params or Params(alpha=0.0)
        return ScenarioSpec(kind="hoff-L2-velocity", params=p,
                            density_breaks=(0.0, 8.0),
                            density_values=(1.0, 2.0, 1.0),
                            u0=Profile("gauss", center=0.0, amplitude=0.1,
                                       width=1.0))
    raise KeyError(f"unknown preset {name!r}")


PRESET_NAMES = ("equilibrium", "theo1", "corbis", "theo2", "hoff")
