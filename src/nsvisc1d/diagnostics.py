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
    fill_ghosts,
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
    return _kinetic_plus_potential(s.rho, w, g, p)


def energy(s: State, g: Grid1D, p: Params) -> float:
    """0.5 * integral(rho*u**2 + relative pressure potential)."""
    return _kinetic_plus_potential(s.rho, s.m, g, p)


def _kinetic_plus_potential(rho, mom, g: Grid1D, p: Params) -> float:
    # 0.5 * integral(rho*(mom/rho)**2 + pi_rel(rho)), holding at most three
    # cell arrays at once
    vel = mom / rho
    density = np.multiply(rho, vel)
    density *= vel
    del vel
    density += pi_rel(rho, p)
    return float(0.5 * np.sum(density) * g.dx)


def total_variation(field: np.ndarray) -> float:
    """Sum of absolute increments; attains the BV supremum for grid functions."""
    return float(np.sum(np.abs(np.diff(field))))


def _face_gradient_sq(ext: np.ndarray, g: Grid1D, bc: str,
                      d: np.ndarray | None = None) -> float:
    """integral |d_x f|**2 over the cell faces (one wrap face if periodic) of
    a cell field padded by one ghost per side under `bc`; `d` (at least
    len(ext) - 1 long) is scratch."""
    if bc == "periodic":
        ext = ext[1:]
    if d is not None:
        d = d[:len(ext) - 1]
    d = np.subtract(ext[1:], ext[:-1], out=d)
    d /= g.dx
    d *= d
    return float(np.sum(d) * g.dx)


def h1_phi1(s: State, g: Grid1D, p: Params, bc: str) -> float:
    """Discrete L2 norm of d_x phi1(rho), by face (one-sided) differences.

    Diverges like dx**-1/2 on a density jump and converges on continuous
    profiles: the measurable form of the regularization dichotomy."""
    ext = pad_field(phi1(s.rho, p), 1, mode=bc, far=float(phi1(p.rho_bar, p)))
    return math.sqrt(_face_gradient_sq(ext, g, bc))


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
    rmax = np.float64(np.max(rho))  # its powers overflow to inf
    out = (p.a * p.gamma / p.mu) * rmax ** (p.gamma - p.alpha)
    if p.has_reg_term:
        out += (p.a * p.gamma / p.n_reg) * rmax ** (p.gamma - p.theta)
    return float(out)


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


def bd_dissipation_rate(rho: np.ndarray, g: Grid1D, p: Params, bc: str,
                        scratch=None) -> float:
    """Instantaneous entropy dissipation
    (4 a gamma mu / (gamma+alpha-1)**2) * int |d_x rho**((gamma+alpha-1)/2)|**2
    plus the analogous regularization-viscosity term for finite n.
    `scratch`, two arrays at least len(rho) + 2 long, replaces the padded
    field and its differences."""
    n = len(rho)
    ext, d = scratch if scratch is not None else (np.empty(n + 2), None)
    ext = ext[:n + 2]

    def term(coef_mu: float, expo: float) -> float:
        # numpy scalar powers overflow to inf, where Python's raise
        k = np.float64(p.gamma + expo - 1.0)
        e = 0.5 * k
        powf(rho, e, out=ext[1:-1])
        fill_ghosts(ext, 1, bc, float(p.rho_bar ** e))
        return float((4.0 * p.a * p.gamma * coef_mu / k ** 2)
                     * _face_gradient_sq(ext, g, bc, d))

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
