"""Conservative finite-volume time stepping for both formulations.

Primitive: explicit steps; mass/momentum fluxes by MUSCL-reconstructed
Rusanov (or upwind) interface states plus a centered viscous flux with
harmonic face viscosity, limited by the advective and diffusive CFL bounds.
Effective: an IMEX ARS(2,2,2) step (Ascher, Ruuth & Spiteri 1997).  The
upwinded drift of rho, the convection of w and the pressure relaxation are
explicit; the nonlinear density diffusion (mu_n(rho)/rho rho_x)_x is
linearly implicit, one tridiagonal cyclic-reduction solve per pass, so the
step is limited by the advective bound alone.

Both steppers are one frame: pad the state (`_pad2`), reconstruct the faces
(`_faces`), upwind or Rusanov face fluxes (`_upwind`), harmonic face means
of the viscosity or diffusivity (`_harmonic_mean`), the conservative update
(`_update`), sources (`_add_source`) and the vacuum floor (`_check_floor`).
The cell velocities v = w/rho and u = v - d_x phi(rho) of an effective
state have one definition (`_velocities`), shared by `cfl_dt` and the
explicit stage.
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
    centered_difference,
    effective_momentum,
    fill_ghosts,
    from_effective,
    phi,
    powf,
    pressure,
    sound_speed,
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
    # smallest and largest CFL step taken, before clipping to t_end;
    # None when the run took no step
    dt_min: Optional[float] = None
    dt_max: Optional[float] = None
    # the number of steps whose CFL step each limit set
    dt_bound: dict = field(
        default_factory=lambda: {"advective": 0, "diffusive": 0})

    @property
    def final_state(self) -> State:
        return self.snapshots[-1][0]

    @property
    def records(self) -> list:
        return [r for _, r in self.snapshots]


class Workspace:
    """The arrays one run's steps write into, allocated once per run.

    `rho` and `mom` hold the state padded by two ghost cells per side (the
    MUSCL stencil, and `cfl_dt`'s velocities of an effective state); `tmp`
    is scratch for slopes, faces, fluxes, the viscous term, `cfl_dt` and
    the per-step BD rate, and on an effective run also for the implicit
    solves and the step's two accumulators (the weighted mass flux and the
    weighted rate of w); `spare` receives the next state, and `run` hands
    the replaced state's arrays back as the new spare once the step is
    accepted.  Primitive steps use 8 scratch arrays and effective steps
    10, so a workspace holds 12 or 14 cell-sized arrays.  They are
    allocated as two blocks, the spare pair apart, so that the state last
    swapped in does not keep the scratch alive.  A workspace is private to
    one run: concurrent runs (the studies' threads) each build
    their own.  `cfl_dt` notes in `dt_bound` which limit set its step.
    """

    SCRATCH = {"primitive": 8, "effective": 10}

    def __init__(self, cells: int, formulation: str):
        padded = np.empty((2 + self.SCRATCH[formulation], cells + 4))
        self.rho, self.mom, *self.tmp = padded
        self.spare = tuple(np.empty((2, cells)))
        self.mask = np.empty(cells + 4, dtype=bool)
        self.dt_bound = None  # "advective" | "diffusive"


def cfl_dt(s: Union[State, EffectiveState], g: Grid1D, p: Params,
           cfg: SchemeConfig, ws: Optional[Workspace] = None) -> float:
    """Stable step: safety * dx / max(|speed| + c), and on a primitive run
    also at most safety * 0.5 * dx**2 * min(rho / mu_n(rho)); the effective
    stepper treats the diffusion implicitly, so its step is advective.
    The effective speed is max(|v|, |u|).  Notes the binding limit in
    `ws.dt_bound`."""
    effective = cfg.formulation == "effective"
    if ws is None:
        ws = Workspace(g.cells, cfg.formulation)
    rho = s.rho
    mom = s.w if effective else s.m
    n = len(rho)
    ok = ws.mask[:n]
    if not (np.isfinite(rho, out=ok).all() and np.isfinite(mom, out=ok).all()):
        raise NonFiniteStateError("non-finite density or momentum")
    if np.less_equal(rho, 0, out=ok).any():
        raise VacuumError("cfl_dt requires positive density")
    t0, t1, t2 = ws.tmp[:3]
    if effective:
        # the drift carries v while convection carries u = v - d_x phi(rho)
        v, u = _velocities(*_pad2(rho, mom, p, cfg, ws), g, p, t0, t1, t2)
        speed = np.abs(v[2:-2], out=t2[:n])
        np.maximum(speed, np.abs(u[1:-1], out=u[1:-1]), out=speed)
    else:
        speed = np.abs(np.divide(mom, rho, out=t0[:n]), out=t1[:n])
    speed += sound_speed(rho, p, out=t0[:n])
    adv = g.dx / np.max(speed)
    if effective:
        ws.dt_bound = "advective"
        return cfg.cfl_safety * float(adv)
    mu = viscosity(rho, p, out=t0[:n], scratch=t1[:n])
    diff = 0.5 * g.dx ** 2 * np.min(np.divide(rho, mu, out=mu))
    ws.dt_bound = "advective" if adv <= diff else "diffusive"
    return cfg.cfl_safety * min(float(adv), float(diff))


def _slopes(q: np.ndarray, limiter: str, a, b, c, d, mask) -> np.ndarray:
    # limited slope for cells 1..len(q)-2 of a padded array, written into a;
    # b, c, d and mask are scratch.  SchemeConfig admits only "none",
    # "minmod" and "mc"
    n = len(q) - 2
    a, b, c, d, mask = a[:n], b[:n], c[:n], d[:n], mask[:n]
    dm = np.subtract(q[1:-1], q[:-2], out=a)
    dp = np.subtract(q[2:], q[1:-1], out=b)
    if limiter == "none":
        dm += dp
        dm *= 0.5
        return dm
    np.greater(np.multiply(dm, dp, out=c), 0.0, out=mask)
    mag = np.abs(dm, out=c)
    if limiter == "minmod":
        np.minimum(mag, np.abs(dp, out=d), out=mag)
    else:
        mag *= 2.0
        np.minimum(mag, np.multiply(np.abs(dp, out=d), 2.0, out=d), out=mag)
        half_sum = np.add(dm, dp, out=d)
        np.abs(half_sum, out=half_sum)
        half_sum *= 0.5
        np.minimum(mag, half_sum, out=mag)
    signed = np.sign(dm, out=b)
    signed *= mag
    return _select(mask, signed, 0.0, out=a)


def _select(mask, x, y, out):
    # np.where(mask, x, y) written into out
    np.copyto(out, y)
    np.copyto(out, x, where=mask)
    return out


def _faces(q: np.ndarray, limiter: str, qL, qR, a, b, mask):
    # left/right interface states for the cells-1 .. cells interfaces of a
    # width-2 padded array, written into qL and qR (arrays of length
    # len(q)-3); a, b and mask are scratch
    n = len(q) - 3
    half = _slopes(q, limiter, a, b, qL, qR, mask)
    half *= 0.5
    return (np.add(q[1:-2], half[:-1], out=qL[:n]),
            np.subtract(q[2:-1], half[1:], out=qR[:n]))


def _pad2(s_rho, s_mom, p: Params, cfg: SchemeConfig, ws: Workspace):
    rho, mom = ws.rho, ws.mom
    rho[2:-2] = s_rho
    mom[2:-2] = s_mom
    return (fill_ghosts(rho, 2, cfg.bc, p.rho_bar),
            fill_ghosts(mom, 2, cfg.bc, 0.0))


def _update(q: np.ndarray, flux: np.ndarray, dt: float, dx: float, out):
    # q - (dt/dx) * (flux[1:] - flux[:-1]) written into out
    step = np.subtract(flux[1:], flux[:-1], out=out)
    step *= dt / dx
    return np.subtract(q, step, out=out)


def _upwind(s: np.ndarray, qL, qR, out, mask):
    # s * (qL where s > 0, else qR) on the faces, written into out
    up = np.greater(s, 0.0, out=mask[:len(s)])
    return np.multiply(s, _select(up, qL, qR, out=out), out=out)


def _harmonic_mean(c: np.ndarray, out, scratch):
    # 2 c[i] c[i+1] / (c[i] + c[i+1]) on the faces, written into out
    nf = len(c) - 1
    mean = np.multiply(c[:-1], 2.0, out=out[:nf])
    mean *= c[1:]
    mean /= np.add(c[:-1], c[1:], out=scratch[:nf])
    return mean


def _velocities(rho, w, g: Grid1D, p: Params, v, u, scratch):
    # v = w/rho on a width-2 padded (rho, w), into v, and u = v - d_x
    # phi(rho) on cells -1..N, into u[:-2]; scratch takes phi(rho), and
    # every array has the padded length
    np.divide(w, rho, out=v)
    dphi = centered_difference(phi(rho, p, out=scratch, scratch=u), g,
                               out=u[:-2])
    return v, np.subtract(v[1:-1], dphi, out=dphi)


def _add_source(q: np.ndarray, rate: np.ndarray, dt: float, scratch):
    # q + dt * rate, in place
    q += np.multiply(rate, dt, out=scratch[:len(q)])


def step_primitive(s: State, dt: float, g: Grid1D, p: Params,
                   cfg: SchemeConfig, source: Source = None,
                   ws: Optional[Workspace] = None):
    """One conservative update of (rho, rho*u); returns the new State, held
    in the workspace's spare arrays, and the boundary mass fluxes (left,
    right) for exact mass-balance audits."""
    if ws is None:
        ws = Workspace(g.cells, "primitive")
    dx = g.dx
    nf = g.cells + 1  # faces
    t = ws.tmp
    rho, m = _pad2(s.rho, s.m, p, cfg, ws)
    rho_new, m_new = ws.spare

    rhoL, rhoR = _faces(rho, cfg.limiter, t[2], t[3], t[0], t[1], ws.mask)
    mL, mR = _faces(m, cfg.limiter, t[4], t[5], t[0], t[1], ws.mask)
    uL = np.divide(mL, rhoL, out=t[0][:nf])
    uR = np.divide(mR, rhoR, out=t[1][:nf])
    y, z = (b[:nf] for b in t[6:8])

    if cfg.flux == "rusanov":
        f_mom = np.multiply(mL, uL, out=y)
        f_mom += pressure(rhoL, p, out=z)
        f_mom += np.multiply(mR, uR, out=z)
        f_mom += pressure(rhoR, p, out=z)
        f_mom *= 0.5
        # 0.5 * smax, in the arrays of uL and uR (neither is needed again)
        half_smax = np.abs(uL, out=uL)
        half_smax += sound_speed(rhoL, p, out=z)
        speed_R = np.abs(uR, out=uR)
        speed_R += sound_speed(rhoR, p, out=z)
        np.maximum(half_smax, speed_R, out=half_smax)
        half_smax *= 0.5
        f_mass = np.add(mL, mR, out=speed_R)
        f_mass *= 0.5
        f_mass -= np.multiply(half_smax, np.subtract(rhoR, rhoL, out=z), out=z)
        f_mom -= np.multiply(half_smax, np.subtract(mR, mL, out=z), out=z)
    else:  # upwind convection, centered pressure
        ubar = np.add(uL, uR, out=uL)
        ubar *= 0.5
        f_mass = _upwind(ubar, rhoL, rhoR, uR, ws.mask)
        f_mom = _upwind(ubar, mL, mR, y, ws.mask)
        pbar = np.add(pressure(rhoL, p, out=z), pressure(rhoR, p, out=ubar),
                      out=z)
        pbar *= 0.5
        f_mom += pbar
    fluxes = (float(f_mass[0]), float(f_mass[-1]))
    _update(s.rho, f_mass, dt, dx, rho_new)

    # centered viscous flux with harmonic-mean face viscosity
    u_cells = np.divide(m[1:-1], rho[1:-1], out=t[0][:nf + 1])
    mu_c = viscosity(rho[1:-1], p, out=t[1][:nf + 1], scratch=t[2][:nf + 1])
    mu_face = _harmonic_mean(mu_c, t[2], z)
    visc = np.multiply(mu_face, np.subtract(u_cells[1:], u_cells[:-1], out=z),
                       out=z)
    visc /= dx
    f_mom -= visc
    _update(s.m, f_mom, dt, dx, m_new)

    if source is not None:
        s_rho, s_mom = source(g.centers(), s.t)
        _add_source(rho_new, s_rho, dt, z)
        _add_source(m_new, s_mom, dt, z)

    _check_floor(rho_new, cfg, p, s.t)
    return State(rho_new, m_new, s.t + dt), fluxes


# ARS(2,2,2): implicit weight GAMMA on the diagonal, explicit weight DELTA
# on the first stage's rate in the last stage
GAMMA = 1.0 - 1.0 / math.sqrt(2.0)
DELTA = 1.0 - 1.0 / (2.0 * GAMMA)


def solve_tridiagonal(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                      d: np.ndarray, periodic: bool = False,
                      work: Optional[np.ndarray] = None) -> np.ndarray:
    """Solve a[i] x[i-1] + b[i] x[i] + c[i] x[i+1] = d[i] by cyclic
    reduction and write x into d; a, b and c are overwritten.

    Without `periodic`, a[0] and c[-1] are ignored; with it they couple
    row 0 to x[-1] and the last row to x[0], and a Sherman-Morrison
    correction handles them.  The reduction does not pivot, so the matrix
    must be diagonally dominant; a zero d gives an exactly zero x.  `work`
    holds three more rows of len(d) (the Sherman-Morrison column, the
    elimination factors and their products)."""
    if work is None:
        work = np.empty((3, len(d)))
    z, fac, prod = work[0], work[1], work[2]
    rhs = (d,)
    if periodic:
        lo, hi = float(a[0]), float(c[-1])
        shift = -float(b[0])
        b[0] -= shift
        b[-1] -= lo * hi / shift
        z = z[:len(d)]
        z.fill(0.0)
        z[0], z[-1] = shift, hi
        rhs = (d, z)
    a[0] = c[-1] = 0.0
    _cyclic_reduction(a, b, c, rhs, fac, prod)
    if periodic:
        f = lo / shift
        z *= (d[0] + f * d[-1]) / (1.0 + z[0] + f * z[-1])
        d -= z
    return d


def _cyclic_reduction(a, b, c, rhs, fac, prod):
    # in place: level k keeps its rows at a[2**k - 1 :: 2**k]; each level
    # eliminates its even rows from its odd ones, which form the next level,
    # and back substitution then solves the even rows level by level
    levels = []
    off, stride = 0, 1
    while True:
        view = slice(off, None, stride)
        A, B, C = a[view], b[view], c[view]
        k = len(B)
        if k == 1:
            for d in rhs:
                np.divide(d[view], B, out=d[view])
            break
        m, r = k // 2, (k - 1) // 2  # odd rows; those with a right neighbour
        levels.append((view, k, m))
        alpha, beta, p = fac[:m], fac[m:m + r], prod[:m]
        np.negative(np.divide(A[1::2], B[0:2 * m:2], out=alpha), out=alpha)
        np.negative(np.divide(C[1:2 * r:2], B[2::2], out=beta), out=beta)
        for d in rhs:
            D = d[view]
            d_odd, d_odd_r = D[1::2], D[1:2 * r:2]
            d_odd += np.multiply(D[0:2 * m:2], alpha, out=p)
            d_odd_r += np.multiply(D[2::2], beta, out=p[:r])
        b_odd, b_odd_r = B[1::2], B[1:2 * r:2]
        b_odd += np.multiply(C[0:2 * m:2], alpha, out=p)
        b_odd_r += np.multiply(A[2::2], beta, out=p[:r])
        np.multiply(A[0:2 * m:2], alpha, out=A[1::2])
        np.multiply(C[2::2], beta, out=C[1:2 * r:2])
        off, stride = off + stride, 2 * stride
    for view, k, m in reversed(levels):
        A, B, C = a[view], b[view], c[view]
        e = (k + 1) // 2  # even rows
        for d in rhs:
            D = d[view]
            d_even, d_odd = D[0::2], D[1::2]
            # the even rows with an odd neighbour on that side
            d_left, d_right = D[2::2], D[0:2 * m:2]
            d_left -= np.multiply(A[2::2], d_odd[:e - 1], out=prod[:e - 1])
            d_right -= np.multiply(C[0:2 * m:2], d_odd, out=prod[:m])
            d_even /= B[0::2]


def _transport(rho, w, g: Grid1D, p: Params, cfg: SchemeConfig,
               ws: Workspace, flux, rate):
    # explicit part at a width-2 padded stage state: the drift mass flux on
    # the cells+1 faces into flux and dw/dt (upwind convection by u plus the
    # pressure relaxation -kappa*(w - rho*u)) into rate; scratch tmp[0..5]
    dx = g.dx
    n = g.cells
    nf = n + 1  # faces
    t = ws.tmp
    v, u_ext = _velocities(rho, w, g, p, t[0], t[5], t[1])

    # density: drift by v, upwind on reconstructed rho
    rhoL, rhoR = _faces(rho, cfg.limiter, t[3], t[4], t[1], t[2], ws.mask)
    vbar = np.add(v[1:-2], v[2:-1], out=t[1][:nf])
    vbar *= 0.5
    _upwind(vbar, rhoL, rhoR, flux[:nf], ws.mask)

    # effective momentum: convection by u, upwind on reconstructed w
    wL, wR = _faces(w, cfg.limiter, t[3], t[4], t[0], t[1], ws.mask)
    ubar = np.add(u_ext[:-1], u_ext[1:], out=t[0][:nf])
    ubar *= 0.5
    f_w = _upwind(ubar, wL, wR, t[1][:nf], ws.mask)
    dwdt = np.subtract(f_w[:-1], f_w[1:], out=rate[:n])
    dwdt /= dx
    rho_in, u_in = rho[2:-2], u_ext[1:-1]
    gap = np.multiply(rho_in, u_in, out=t[0][:n])
    np.subtract(w[2:-2], gap, out=gap)
    gap *= _relaxation_rate(rho_in, p, t[2][:n], t[3][:n], t[4][:n])
    dwdt -= gap


def _relaxation_rate(rho, p: Params, out, s1, s2):
    # kappa = a*gamma*rho**gamma / mu_n(rho), written into out
    kappa = powf(rho, p.gamma, out=out)
    kappa *= p.a * p.gamma
    kappa /= viscosity(rho, p, out=s1, scratch=s2)
    return kappa


def _implicit_diffusion(rho, k: float, g: Grid1D, p: Params,
                        cfg: SchemeConfig, ws: Workspace, flux, weight):
    # solve rho* = rho + k (D(rho*) rho*_x)_x for the width-2 padded
    # predictor rho, in place, and add weight times the solved diffusion
    # flux -D_face (rho*_{i+1} - rho*_i)/dx to flux.  Each of two passes
    # freezes D at the latest density (the predictor, then the first pass's
    # solution, which keeps the step second order) and solves for the
    # increment: I - k L is an M-matrix, so rho* stays positive.  Scratch
    # tmp[0..7]
    n = g.cells
    nf = n + 1
    t = ws.tmp
    d_face, lower, diag, upper, x = t[0][:nf], t[1], t[2], t[3], t[4][:n]
    s = k / g.dx ** 2
    q = rho[1:-1]  # one ghost per side
    for frozen_at_solution in (False, True):
        if frozen_at_solution:
            # the first pass's density, padded like rho
            q = t[1][:n + 2]
            np.add(rho[2:-2], x, out=q[1:-1])
            fill_ghosts(q, 1, cfg.bc, p.rho_bar)
        # the harmonic face mean of mu_n(q)/q
        dcoef = viscosity(q, p, out=t[2][:nf + 1], scratch=t[3][:nf + 1])
        dcoef /= q
        _harmonic_mean(dcoef, d_face, t[3])
        # right-hand side k L rho in flux form: zero for a constant rho
        grad = np.subtract(rho[2:-1], rho[1:-2], out=t[5][:nf])
        grad *= d_face
        np.subtract(grad[1:], grad[:-1], out=x)
        x *= s
        np.multiply(d_face[:-1], -s, out=lower[:n])
        np.multiply(d_face[1:], -s, out=upper[:n])
        np.subtract(1.0, lower[:n], out=diag[:n])
        np.subtract(diag[:n], upper[:n], out=diag[:n])
        solve_tridiagonal(lower[:n], diag[:n], upper[:n], x,
                          periodic=cfg.bc == "periodic", work=t[5:8])
    rho_in = rho[2:-2]
    rho_in += x
    fill_ghosts(rho, 2, cfg.bc, p.rho_bar)
    grad = np.subtract(rho[2:-1], rho[1:-2], out=t[5][:nf])
    grad *= d_face
    grad *= -weight / g.dx
    flux += grad


def _check_floor(rho, cfg: SchemeConfig, p: Params, t: float):
    if np.min(rho) < cfg.floor(p):
        raise VacuumError(f"density fell below the vacuum floor at t={t:g}")


def step_effective(e: EffectiveState, dt: float, g: Grid1D, p: Params,
                   cfg: SchemeConfig, source: Source = None,
                   ws: Optional[Workspace] = None):
    """One IMEX ARS(2,2,2) update of (rho, w = rho*v): the drift of rho,
    the convection of w and the pressure relaxation explicit, sources at
    the stage times, the density diffusion linearly implicit.  The new
    density is rebuilt in flux form from the stage fluxes, so the returned
    boundary mass fluxes (left, right) are the step-weighted ones, implicit
    diffusion included.  The new EffectiveState is held in the workspace's
    spare arrays."""
    if ws is None:
        ws = Workspace(g.cells, "effective")
    dx = g.dx
    nf = g.cells + 1
    t = ws.tmp
    flux, rate = t[8][:nf], t[9][:g.cells]  # the step's weighted sums
    rho_new, w_new = ws.spare
    k = GAMMA * dt
    rho, w = _pad2(e.rho, e.w, p, cfg, ws)

    # stage 1 (explicit, at the old state) and the stage-2 predictor
    _transport(rho, w, g, p, cfg, ws, flux, rate)
    if source is not None:
        s1_rho, s1_w = source(g.centers(), e.t)
        rate += s1_w
    _update(e.rho, flux, k, dx, rho[2:-2])
    w_in = np.multiply(rate, k, out=w[2:-2])
    w_in += e.w
    if source is not None:
        _add_source(rho[2:-2], s1_rho, k, t[0])
    flux *= DELTA
    rate *= DELTA
    _check_floor(rho[2:-2], cfg, p, e.t)
    fill_ghosts(rho, 2, cfg.bc, p.rho_bar)
    fill_ghosts(w, 2, cfg.bc, 0.0)

    # stage 2: implicit diffusion, then the explicit part at the stage
    _implicit_diffusion(rho, k, g, p, cfg, ws, flux, 1.0 - GAMMA)
    f2, r2 = t[6][:nf], t[7][:g.cells]
    _transport(rho, w, g, p, cfg, ws, f2, r2)
    if source is not None:
        s2_rho, s2_w = source(g.centers(), e.t + k)
        r2 += s2_w
    f2 *= 1.0 - DELTA
    flux += f2
    r2 *= 1.0 - DELTA
    rate += r2

    # stage 3: predictor, implicit diffusion; w is explicit throughout
    np.multiply(rate, dt, out=w_new)
    w_new += e.w
    _update(e.rho, flux, dt, dx, rho[2:-2])
    if source is not None:
        src_rho = np.multiply(s1_rho, DELTA)
        src_rho += (1.0 - DELTA) * s2_rho
        _add_source(rho[2:-2], src_rho, dt, t[0])
    _check_floor(rho[2:-2], cfg, p, e.t)
    fill_ghosts(rho, 2, cfg.bc, p.rho_bar)
    _implicit_diffusion(rho, k, g, p, cfg, ws, flux, GAMMA)

    # the new density in flux form from the weighted stage fluxes
    _update(e.rho, flux, dt, dx, rho_new)
    if source is not None:
        _add_source(rho_new, src_rho, dt, t[0])
    _check_floor(rho_new, cfg, p, e.t)
    return (EffectiveState(rho_new, w_new, e.t + dt),
            (float(flux[0]), float(flux[-1])))


def relax_effective_momentum(w: np.ndarray, rho: np.ndarray, u: np.ndarray,
                             dt: float, p: Params,
                             ws: Optional[Workspace] = None) -> np.ndarray:
    """Exact integrating factor for d(v)/dt = -kappa (v - u) with frozen u,
    kappa = a*gamma*rho**gamma / mu_n(rho); |v - u| is nonincreasing.  The
    result is written into the workspace's spare momentum array, which may
    be w itself; it uses scratch arrays 0-2 only.

    The effective stepper does not call it: with u frozen the factor
    1 - exp(-kappa*dt) misses the linear decrease -kappa*dt*rho*(v - u) at
    second order, so the IMEX step evaluates the relaxation as an explicit
    rate instead."""
    n = len(rho)
    if ws is None:
        ws = Workspace(n, "effective")
    t0, t1, t2 = (t[:n] for t in ws.tmp[:3])
    decay = np.negative(_relaxation_rate(rho, p, t0, t1, t2), out=t0)
    decay *= dt
    np.exp(decay, out=decay)
    v = np.divide(w, rho, out=t1)  # becomes u + (v - u) * decay
    v -= u
    v *= decay
    v += u
    return np.multiply(rho, v, out=ws.spare[1][:n])


def _exp(x: float) -> float:
    # math.exp, inf where it overflows
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def run(initial: Union[State, EffectiveState], t_end: float, g: Grid1D,
        p: Params, cfg: SchemeConfig, record_every: float | None = None,
        source: Source = None, jump_x0: float = 0.0) -> Trajectory:
    """Advance to t_end with the stepper of cfg.formulation and CFL-controlled
    steps, recording diagnostics snapshots at the requested cadence plus the
    first and last states; a non-finite state ends the run ("nonfinite").
    The steps write into one Workspace built for this call; snapshots are
    copies."""
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
    dt_lo, dt_hi = math.inf, 0.0

    base_l1 = None

    def record(st):
        nonlocal base_l1
        sv = from_effective(st, g, p, mode=cfg.bc) if effective else st.copy()
        w = st.w if effective else effective_momentum(st.rho, st.m, g, p,
                                                      cfg.bc)
        if base_l1 is None:
            base_l1 = sum(diagnostics.l1_momenta(sv, w, g))
        traj.snapshots.append((sv, diagnostics.compute_record(
            sv, w, g, p, cfg.bc, jump_x0=jump_x0,
            gronwall_rhs=base_l1 * _exp(3.0 * gron_acc),
            dissipation_bd=diss_acc)))

    record(state)
    # built after the first snapshot and released before the last one, so
    # that their copies and temporaries do not add to its memory
    ws = Workspace(g.cells, cfg.formulation)
    rate_scratch = ws.tmp[:2]
    next_record = record_every if record_every else math.inf
    stepper = step_effective if effective else step_primitive
    tiny = 1e-12 * max(t_end, 1.0)

    try:
        dt_cfl = cfl_dt(state, g, p, cfg, ws=ws)
        bound = ws.dt_bound
        while state.t < t_end - tiny:
            if traj.steps >= cfg.max_steps:
                traj.status = "step_budget_exhausted"
                break
            dt = min(dt_cfl, t_end - state.t)
            new, (f_left, f_right) = stepper(state, dt, g, p, cfg, source,
                                             ws=ws)
            dt_next = cfl_dt(new, g, p, cfg, ws=ws)  # rejects non-finite
            # accepted: the replaced state's arrays take the next step
            ws.spare = (state.rho, state.w if effective else state.m)
            state = new
            traj.steps += 1
            dt_lo, dt_hi = min(dt_lo, dt_cfl), max(dt_hi, dt_cfl)
            traj.dt_bound[bound] += 1
            dt_cfl, bound = dt_next, ws.dt_bound

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
            rate = diagnostics.bd_dissipation_rate(state.rho, g, p, cfg.bc,
                                                   scratch=rate_scratch)
            diss_acc += 0.5 * (prev_rate + rate) * dt
            prev_rate = rate

            if state.t >= next_record - tiny:
                record(state)
                while next_record <= state.t + tiny:
                    next_record += record_every if record_every else math.inf
    except VacuumError:
        traj.status = "vacuum_breach"
    except NonFiniteStateError:
        traj.status = "nonfinite"

    if traj.steps:
        traj.dt_min, traj.dt_max = dt_lo, dt_hi
    del ws, rate_scratch
    if traj.records[-1].t < state.t - tiny:
        record(state)
    return traj
