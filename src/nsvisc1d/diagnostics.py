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


def l1_momenta(s: State, w: np.ndarray, g: Grid1D) -> tuple:
    """(|rho u|_L1, |rho v|_L1) of the state and its effective momentum w."""
    return (float(np.sum(np.abs(s.m)) * g.dx),
            float(np.sum(np.abs(w)) * g.dx))


def bd_entropy(s: State, w: np.ndarray, g: Grid1D, p: Params) -> float:
    """0.5 * integral(rho*v**2 + relative pressure potential), v = w/rho."""
    v = w / s.rho
    return float(0.5 * np.sum(s.rho * v * v + pi_rel(s.rho, p)) * g.dx)


def energy(s: State, g: Grid1D, p: Params) -> float:
    """0.5 * integral(rho*u**2 + relative pressure potential)."""
    u = s.m / s.rho
    return float(0.5 * np.sum(s.rho * u * u + pi_rel(s.rho, p)) * g.dx)


def total_variation(field: np.ndarray) -> float:
    """Sum of absolute increments; attains the BV supremum for grid functions."""
    return float(np.sum(np.abs(np.diff(field))))


def _face_gradient_sq(f: np.ndarray, g: Grid1D, bc: str, far: float) -> float:
    """integral |d_x f|**2 over the cell faces (one wrap face if periodic)."""
    ext = pad_field(f, 1, mode=bc, far=far)
    d = np.diff(ext[1:] if bc == "periodic" else ext) / g.dx
    return float(np.sum(d * d) * g.dx)


def h1_phi1(s: State, g: Grid1D, p: Params, bc: str) -> float:
    """Discrete L2 norm of d_x phi1(rho), by face (one-sided) differences.

    Diverges like dx**-1/2 on a density jump and converges on continuous
    profiles: the measurable form of the regularization dichotomy."""
    return math.sqrt(_face_gradient_sq(phi1(s.rho, p), g, bc,
                                       float(phi1(p.rho_bar, p))))


def jump_amplitude(rho: np.ndarray, g: Grid1D, x0: float) -> float:
    """Max one-cell increment of rho over the 32 cells centered at x0."""
    i0 = int((x0 - g.x_min) / g.dx)
    lo = max(0, i0 - 16)
    hi = min(g.cells, i0 + 16)
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


def gronwall_envelope(traj):
    """Exponential L1-momentum envelope along a trajectory.

    Returns (envelope array, verdict). The envelope is each snapshot's
    `gronwall_rhs`, which `solver.run` accumulates per step as
    (|rho v(0)|_1 + |rho u(0)|_1) * exp(3 * int_0^t sup-bound ds). The verdict
    is True when the envelope is finite and the measured |rho u|_1 + |rho v|_1
    stays below 1.05 * envelope at every snapshot."""
    records = traj.records
    if not records:
        raise ValueError("trajectory has no snapshots")
    env = np.array([r.gronwall_rhs for r in records])
    verdict = all(
        math.isfinite(e) and r.l1_rhou + r.l1_rhov <= e * 1.05 + 1e-12
        for r, e in zip(records, env))
    return env, verdict


def bd_dissipation_rate(rho: np.ndarray, g: Grid1D, p: Params,
                        bc: str) -> float:
    """Instantaneous entropy dissipation
    (4 a gamma mu / (gamma+alpha-1)**2) * int |d_x rho**((gamma+alpha-1)/2)|**2
    plus the analogous regularization-viscosity term for finite n."""
    def term(coef_mu: float, expo: float) -> float:
        e = 0.5 * (p.gamma + expo - 1.0)
        return (4.0 * p.a * p.gamma * coef_mu / (p.gamma + expo - 1.0) ** 2) \
            * _face_gradient_sq(powf(rho, e), g, bc, float(p.rho_bar ** e))

    out = term(p.mu, p.alpha)
    if p.has_reg_term:
        out += term(1.0 / p.n_reg, p.theta)
    return out


def compute_record(s: State, w: np.ndarray, g: Grid1D, p: Params, bc: str, *,
                   jump_x0: float = 0.0, gronwall_rhs: float = 0.0,
                   dissipation_bd: float = 0.0) -> DiagnosticsRecord:
    """Assemble one diagnostics row from the state, its effective momentum w
    and the run's boundary rule; the time integrator supplies the rest."""
    l1u, l1v = l1_momenta(s, w, g)
    return DiagnosticsRecord(
        t=s.t,
        mass=mass(s, g),
        l1_rhou=l1u,
        l1_rhov=l1v,
        bd_entropy=bd_entropy(s, w, g, p),
        energy=energy(s, g, p),
        tv_rho=total_variation(s.rho),
        rho_max=float(np.max(s.rho)),
        rho_min=float(np.min(s.rho)),
        h1_phi1=h1_phi1(s, g, p, bc),
        jump_amp=jump_amplitude(s.rho, g, jump_x0),
        gronwall_rhs=gronwall_rhs,
        dissipation_bd=dissipation_bd,
    )
