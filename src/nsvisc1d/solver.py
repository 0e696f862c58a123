"""Explicit conservative finite-volume time stepping for both formulations.

Primitive: mass/momentum fluxes by MUSCL-reconstructed Rusanov (or upwind)
interface states plus a centered viscous flux with harmonic face viscosity.
Effective: upwinded drift and convection, centered nonlinear density
diffusion, and the stiff pressure relaxation handled by an exact
integrating factor with the velocity frozen over the step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from . import diagnostics
from .core import (
    EffectiveState,
    Grid1D,
    NonFiniteStateError,
    Params,
    State,
    VacuumError,
    centered_gradient,
    from_effective,
    pad_field,
    phi,
    powf,
    pressure,
    sound_speed,
    to_effective,
    viscosity,
)

Source = Optional[Callable[[np.ndarray, float], tuple]]


@dataclass(frozen=True)
class SchemeConfig:
    formulation: str = "primitive"   # "primitive" | "effective"
    cfl_safety: float = 0.4
    flux: str = "rusanov"            # "rusanov" | "upwind"
    limiter: str = "mc"              # "mc" | "minmod" | "none"
    max_steps: int = 5_000_000
    bc: str = "farfield"             # "farfield" | "periodic"

    def __post_init__(self):
        if not 0 < self.cfl_safety <= 1:
            raise ValueError("cfl_safety must lie in (0, 1]")
        if self.formulation not in ("primitive", "effective"):
            raise ValueError(f"unknown formulation {self.formulation!r}")
        if self.flux not in ("rusanov", "upwind"):
            raise ValueError(f"unknown flux {self.flux!r}")
        if self.limiter not in ("mc", "minmod", "none"):
            raise ValueError(f"unknown limiter {self.limiter!r}")
        if self.bc not in ("farfield", "periodic"):
            raise ValueError(f"unknown bc {self.bc!r}")

    def floor(self, p: Params) -> float:
        """Vacuum floor: a step whose density falls below it fails."""
        return 1e-8 * p.rho_bar


@dataclass
class Trajectory:
    snapshots: list = field(default_factory=list)  # [(State, DiagnosticsRecord)]
    # completed | vacuum_breach | nonfinite | step_budget_exhausted
    status: str = "completed"
    steps: int = 0
    mass_error_max: float = 0.0   # per-step relative mass-balance defect
    mass_error_accum: float = 0.0  # accumulated relative defect over the run
    warnings: list = field(default_factory=list)  # the scenario's warnings

    @property
    def final_state(self) -> State:
        return self.snapshots[-1][0]

    @property
    def records(self) -> list:
        return [r for _, r in self.snapshots]


def cfl_dt(s: Union[State, EffectiveState], g: Grid1D, p: Params,
           cfg: SchemeConfig) -> float:
    """Advective + diffusive stable step: safety * min over cells of
    min(dx/(|speed|+c), 0.5*dx**2*rho/mu_n(rho))."""
    effective = cfg.formulation == "effective"
    rho = s.rho
    mom = s.w if effective else s.m
    if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(mom))):
        raise NonFiniteStateError("non-finite density or momentum")
    if np.any(rho <= 0):
        raise VacuumError("cfl_dt requires positive density")
    speed = np.abs(mom / rho)
    if effective:
        # the drift carries v while convection carries u = v - d_x phi(rho)
        grad_phi = centered_gradient(phi(rho, p), g, mode=cfg.bc,
                                     boundary=float(phi(p.rho_bar, p)))
        speed = np.maximum(speed, np.abs(mom / rho - grad_phi))
    adv = g.dx / np.max(speed + sound_speed(rho, p))
    diff = 0.5 * g.dx ** 2 * np.min(rho / viscosity(rho, p))
    return cfg.cfl_safety * min(float(adv), float(diff))


def _slopes(q: np.ndarray, limiter: str) -> np.ndarray:
    # limited slope for cells 1..len(q)-2 of a padded array; SchemeConfig
    # admits only "none", "minmod" and "mc"
    dm = q[1:-1] - q[:-2]
    dp = q[2:] - q[1:-1]
    if limiter == "none":
        return 0.5 * (dm + dp)
    if limiter == "minmod":
        return np.where(dm * dp > 0.0,
                        np.sign(dm) * np.minimum(np.abs(dm), np.abs(dp)), 0.0)
    s = np.sign(dm)
    mag = np.minimum(np.minimum(2.0 * np.abs(dm), 2.0 * np.abs(dp)),
                     0.5 * np.abs(dm + dp))
    return np.where(dm * dp > 0.0, s * mag, 0.0)


def _faces(q: np.ndarray, limiter: str):
    # left/right interface states for the cells-1 .. cells interfaces of a
    # width-2 padded array: returns arrays of length len(q)-3
    sig = _slopes(q, limiter)
    qL = q[1:-2] + 0.5 * sig[:-1]
    qR = q[2:-1] - 0.5 * sig[1:]
    return qL, qR


def _pad2(s_rho, s_mom, p: Params, cfg: SchemeConfig):
    rho = pad_field(s_rho, 2, mode=cfg.bc, far=p.rho_bar)
    mom = pad_field(s_mom, 2, mode=cfg.bc)
    return rho, mom


def step_primitive(s: State, dt: float, g: Grid1D, p: Params,
                   cfg: SchemeConfig, source: Source = None):
    """One conservative update of (rho, rho*u); returns the new State and the
    boundary mass fluxes (left, right) for exact mass-balance audits."""
    dx = g.dx
    rho, m = _pad2(s.rho, s.m, p, cfg)

    rhoL, rhoR = _faces(rho, cfg.limiter)
    mL, mR = _faces(m, cfg.limiter)
    uL = mL / rhoL
    uR = mR / rhoR

    if cfg.flux == "rusanov":
        smax = np.maximum(np.abs(uL) + sound_speed(rhoL, p),
                          np.abs(uR) + sound_speed(rhoR, p))
        f_mass = 0.5 * (mL + mR) - 0.5 * smax * (rhoR - rhoL)
        f_mom = 0.5 * (mL * uL + pressure(rhoL, p)
                       + mR * uR + pressure(rhoR, p)) \
            - 0.5 * smax * (mR - mL)
    else:  # upwind convection, centered pressure
        ubar = 0.5 * (uL + uR)
        up = ubar > 0.0
        f_mass = ubar * np.where(up, rhoL, rhoR)
        f_mom = ubar * np.where(up, mL, mR) \
            + 0.5 * (pressure(rhoL, p) + pressure(rhoR, p))

    # centered viscous flux with harmonic-mean face viscosity
    u_cells = m[1:-1] / rho[1:-1]
    mu_c = viscosity(rho[1:-1], p)
    mu_face = 2.0 * mu_c[:-1] * mu_c[1:] / (mu_c[:-1] + mu_c[1:])
    f_mom = f_mom - mu_face * (u_cells[1:] - u_cells[:-1]) / dx

    rho_new = s.rho - (dt / dx) * (f_mass[1:] - f_mass[:-1])
    m_new = s.m - (dt / dx) * (f_mom[1:] - f_mom[:-1])

    if source is not None:
        s_rho, s_mom = source(g.centers(), s.t)
        rho_new = rho_new + dt * s_rho
        m_new = m_new + dt * s_mom

    if np.min(rho_new) < cfg.floor(p):
        raise VacuumError(f"density fell below the vacuum floor at t={s.t:g}")
    return State(rho_new, m_new, s.t + dt), (float(f_mass[0]), float(f_mass[-1]))


def step_effective(e: EffectiveState, dt: float, g: Grid1D, p: Params,
                   cfg: SchemeConfig, source: Source = None):
    """One update of (rho, w = rho*v): upwinded drift/convection, centered
    density diffusion, exact integrating factor on the pressure relaxation
    with u frozen at the start of the step."""
    dx = g.dx
    rho, w = _pad2(e.rho, e.w, p, cfg)
    v = w / rho
    # u = v - d_x phi(rho), available on cells -1..N (one ghost layer)
    phi_ext = phi(rho, p)
    u_ext = v[1:-1] - (phi_ext[2:] - phi_ext[:-2]) / (2.0 * dx)

    # density: drift by v (upwind on reconstructed rho) + nonlinear diffusion
    rhoL, rhoR = _faces(rho, cfg.limiter)
    vbar = 0.5 * (v[1:-2] + v[2:-1])
    f_drift = vbar * np.where(vbar > 0.0, rhoL, rhoR)
    dcoef = viscosity(rho[1:-1], p) / rho[1:-1]
    d_face = 2.0 * dcoef[:-1] * dcoef[1:] / (dcoef[:-1] + dcoef[1:])
    f_diff = -d_face * (rho[2:-1] - rho[1:-2]) / dx
    f_mass = f_drift + f_diff
    rho_new = e.rho - (dt / dx) * (f_mass[1:] - f_mass[:-1])

    # effective momentum: convection by u (upwind on reconstructed w)
    wL, wR = _faces(w, cfg.limiter)
    ubar = 0.5 * (u_ext[:-1] + u_ext[1:])
    f_w = ubar * np.where(ubar > 0.0, wL, wR)
    w_star = e.w - (dt / dx) * (f_w[1:] - f_w[:-1])

    if source is not None:
        s_rho, s_w = source(g.centers(), e.t)
        rho_new = rho_new + dt * s_rho
        w_star = w_star + dt * s_w

    if np.min(rho_new) < cfg.floor(p):
        raise VacuumError(f"density fell below the vacuum floor at t={e.t:g}")

    u_in = u_ext[1:-1]
    w_new = relax_effective_momentum(w_star, rho_new, u_in, dt, p)
    return (EffectiveState(rho_new, w_new, e.t + dt),
            (float(f_mass[0]), float(f_mass[-1])))


def relax_effective_momentum(w: np.ndarray, rho: np.ndarray, u: np.ndarray,
                             dt: float, p: Params) -> np.ndarray:
    """Exact integrating factor for d(v)/dt = -kappa (v - u) with frozen u,
    kappa = a*gamma*rho**gamma / mu_n(rho); |v - u| is nonincreasing."""
    kappa = p.a * p.gamma * powf(rho, p.gamma) / viscosity(rho, p)
    v = w / rho
    v_new = u + (v - u) * np.exp(-kappa * dt)
    return rho * v_new


def run(initial: Union[State, EffectiveState], t_end: float, g: Grid1D,
        p: Params, cfg: SchemeConfig, record_every: float | None = None,
        source: Source = None, jump_x0: float = 0.0) -> Trajectory:
    """Advance to t_end with the stepper of cfg.formulation and CFL-controlled
    steps, recording diagnostics snapshots at the requested cadence plus the
    first and last states; a non-finite state ends the run ("nonfinite")."""
    if not (math.isfinite(t_end) and t_end >= 0):
        raise ValueError("t_end must be nonnegative and finite")
    if record_every is not None and not (math.isfinite(record_every)
                                         and record_every >= 0):
        raise ValueError("record_every must be nonnegative and finite")
    effective = cfg.formulation == "effective"
    if isinstance(initial, EffectiveState) != effective:
        raise ValueError(f"initial state does not match {cfg.formulation!r}")
    state = initial.copy()
    traj = Trajectory()

    dx = g.dx
    gron_acc = 0.0
    diss_acc = 0.0
    prev_sup = diagnostics.gronwall_sup_bound(state.rho, p)
    prev_rate = diagnostics.bd_dissipation_rate(state.rho, g, p, cfg.bc)
    mass_prev = float(np.sum(state.rho)) * dx
    mass_scale = abs(mass_prev) if mass_prev != 0 else 1.0

    base_l1 = None

    def record(st):
        nonlocal base_l1
        sv = from_effective(st, g, p, mode=cfg.bc) if effective else st.copy()
        w = st.w if effective else to_effective(st, g, p, mode=cfg.bc).w
        if base_l1 is None:
            base_l1 = sum(diagnostics.l1_momenta(sv, w, g))
        traj.snapshots.append((sv, diagnostics.compute_record(
            sv, w, g, p, cfg.bc, jump_x0=jump_x0,
            gronwall_rhs=base_l1 * math.exp(3.0 * gron_acc),
            dissipation_bd=diss_acc)))

    record(state)
    next_record = record_every if record_every else math.inf
    stepper = step_effective if effective else step_primitive
    tiny = 1e-12 * max(t_end, 1.0)

    try:
        dt_cfl = cfl_dt(state, g, p, cfg)
        while state.t < t_end - tiny:
            if traj.steps >= cfg.max_steps:
                traj.status = "step_budget_exhausted"
                break
            dt = min(dt_cfl, t_end - state.t)
            new, (f_left, f_right) = stepper(state, dt, g, p, cfg, source)
            dt_cfl = cfl_dt(new, g, p, cfg)  # rejects a non-finite state
            state = new
            traj.steps += 1

            # exact discrete mass balance audit (meaningless under forcing)
            mass_now = float(np.sum(state.rho)) * dx
            if source is None:
                defect = abs(mass_now - mass_prev - (f_left - f_right) * dt) \
                    / mass_scale
                traj.mass_error_max = max(traj.mass_error_max, defect)
                traj.mass_error_accum += defect
            mass_prev = mass_now

            # per-step trapezoid accumulation of the trajectory integrals
            sup = diagnostics.gronwall_sup_bound(state.rho, p)
            gron_acc += 0.5 * (prev_sup + sup) * dt
            prev_sup = sup
            rate = diagnostics.bd_dissipation_rate(state.rho, g, p, cfg.bc)
            diss_acc += 0.5 * (prev_rate + rate) * dt
            prev_rate = rate

            if state.t >= next_record - tiny or state.t >= t_end - tiny:
                record(state)
                while next_record <= state.t + tiny:
                    next_record += record_every if record_every else math.inf
    except VacuumError:
        traj.status = "vacuum_breach"
    except NonFiniteStateError:
        traj.status = "nonfinite"

    if traj.records[-1].t < state.t - tiny:
        record(state)
    return traj
