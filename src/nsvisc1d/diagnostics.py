"""Per-snapshot and per-trajectory functionals: mass and L1 momenta, the
entropy pair, total variation, the density-gradient regularization probe,
the Gronwall sup bound and envelope, and the BD dissipation rate.

Integrals use the midpoint rule on cell centers; time accumulations use the
trapezoid rule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import (
    Grid1D,
    Params,
    State,
    pad_field,
    phi1,
    pi_rel,
    powf,
    to_effective,
)


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One timestamped row of every monitored functional."""

    t: float
    mass: float
    l1_rhou: float
    l1_rhov: float
    bd_entropy: float
    energy: float
    tv_rho: float
    rho_max: float
    rho_min: float
    h1_phi1: float
    jump_amp: float
    gronwall_rhs: float
    dissipation_bd: float

    # frozen CSV column order (schema v1)
    @staticmethod
    def csv_columns() -> list:
        return [f.name for f in fields(DiagnosticsRecord)]

    def csv_row(self) -> list:
        return [getattr(self, name) for name in self.csv_columns()]


def mass(s: State, g: Grid1D) -> float:
    return float(np.sum(s.rho) * g.dx)


def l1_momenta(s: State, g: Grid1D, p: Params) -> tuple:
    """(|rho u|_L1, |rho v|_L1); the effective momentum uses the shared
    centered gradient so that rho*v - rho*u = grad(phi1(rho)) exactly."""
    w = to_effective(s, g, p).w
    return (float(np.sum(np.abs(s.m)) * g.dx),
            float(np.sum(np.abs(w)) * g.dx))


def bd_entropy(s: State, g: Grid1D, p: Params) -> float:
    """0.5 * integral(rho*v**2 + relative pressure potential)."""
    w = to_effective(s, g, p).w
    v = w / s.rho
    return float(0.5 * np.sum(s.rho * v * v + pi_rel(s.rho, p)) * g.dx)


def energy(s: State, g: Grid1D, p: Params) -> float:
    """0.5 * integral(rho*u**2 + relative pressure potential)."""
    u = s.m / s.rho
    return float(0.5 * np.sum(s.rho * u * u + pi_rel(s.rho, p)) * g.dx)


def total_variation(field: np.ndarray, g: Grid1D | None = None) -> float:
    """Sum of absolute increments; attains the BV supremum for grid functions."""
    return float(np.sum(np.abs(np.diff(field))))


def h1_phi1(s: State, g: Grid1D, p: Params) -> float:
    """Discrete L2 norm of d_x phi1(rho), by face (one-sided) differences.

    Diverges like dx**-1/2 on a density jump and converges on continuous
    profiles: the measurable form of the regularization dichotomy."""
    f = pad_field(phi1(s.rho, p), 1, mode="farfield",
                  left=float(phi1(p.rho_bar, p)))
    d = np.diff(f) / g.dx
    return float(math.sqrt(np.sum(d * d) * g.dx))


def jump_amplitude(rho: np.ndarray, g: Grid1D, x0: float,
                   window: int = 32) -> float:
    """Max one-cell increment of rho over `window` cells centered at x0."""
    if window < 4:
        raise ValueError("window must span at least 4 cells")
    i0 = int((x0 - g.x_min) / g.dx)
    lo = max(0, i0 - window // 2)
    hi = min(g.cells, i0 + window // 2)
    if hi - lo < 2:
        raise ValueError("window lies outside the domain")
    return float(np.max(np.abs(np.diff(rho[lo:hi]))))


def gronwall_sup_bound(rho: np.ndarray, p: Params) -> float:
    """Upper bound for sup |P'(rho) rho / mu_n(rho)| in terms of sup rho:
    (a*gamma/mu)*|rho|_inf**(gamma-alpha) + (a*gamma/n)*|rho|_inf**(gamma-theta)."""
    rmax = float(np.max(rho))
    out = (p.a * p.gamma / p.mu) * rmax ** (p.gamma - p.alpha)
    if p.has_reg_term:
        out += (p.a * p.gamma / p.n_reg) * rmax ** (p.gamma - p.theta)
    return out


def gronwall_envelope(traj, p: Params, tol: float = 0.05):
    """Exponential L1-momentum envelope along a trajectory.

    Returns (envelope array, verdict). The envelope is each snapshot's
    `gronwall_rhs`, which `solver.run` accumulates per step as
    (|rho v(0)|_1 + |rho u(0)|_1) * exp(3 * int_0^t sup-bound ds); `p` is
    unused and kept for callers. The verdict is True when the measured
    |rho u|_1 + |rho v|_1 stays below envelope*(1+tol) at every snapshot."""
    records = traj.records
    if not records:
        raise ValueError("trajectory has no snapshots")
    env = np.array([r.gronwall_rhs for r in records])
    verdict = all(
        r.l1_rhou + r.l1_rhov <= e * (1.0 + tol) + 1e-12
        for r, e in zip(records, env))
    return env, verdict


def bd_dissipation_rate(rho: np.ndarray, g: Grid1D, p: Params) -> float:
    """Instantaneous entropy dissipation
    (4 a gamma mu / (gamma+alpha-1)**2) * int |d_x rho**((gamma+alpha-1)/2)|**2
    plus the analogous regularization-viscosity term for finite n."""
    def term(coef_mu: float, expo: float) -> float:
        e = 0.5 * (p.gamma + expo - 1.0)
        f = pad_field(powf(rho, e), 1, mode="farfield",
                      left=float(p.rho_bar ** e))
        d = np.diff(f) / g.dx
        return (4.0 * p.a * p.gamma * coef_mu / (p.gamma + expo - 1.0) ** 2) \
            * float(np.sum(d * d) * g.dx)

    out = term(p.mu, p.alpha)
    if p.has_reg_term:
        out += term(1.0 / p.n_reg, p.theta)
    return out


def compute_record(s: State, g: Grid1D, p: Params, *, jump_x0: float = 0.0,
                   jump_window: int = 32, gronwall_rhs: float = 0.0,
                   dissipation_bd: float = 0.0) -> DiagnosticsRecord:
    """Assemble one diagnostics row; the running accumulations are supplied
    by the time integrator."""
    l1u, l1v = l1_momenta(s, g, p)
    return DiagnosticsRecord(
        t=s.t,
        mass=mass(s, g),
        l1_rhou=l1u,
        l1_rhov=l1v,
        bd_entropy=bd_entropy(s, g, p),
        energy=energy(s, g, p),
        tv_rho=total_variation(s.rho, g),
        rho_max=float(np.max(s.rho)),
        rho_min=float(np.min(s.rho)),
        h1_phi1=h1_phi1(s, g, p),
        jump_amp=jump_amplitude(s.rho, g, jump_x0, jump_window),
        gronwall_rhs=gronwall_rhs,
        dissipation_bd=dissipation_bd,
    )
