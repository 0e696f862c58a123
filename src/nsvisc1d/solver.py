"""Conservative finite-volume time stepping for both formulations.

Both steppers are one IMEX-SSP2(2,2,2) step (Pareschi & Russo 2005,
`_imex_ssp2`) over a formulation's explicit and implicit parts: the
transport by the flow velocity u and the pressure are explicit Heun
stages, and the parabolic term implicit, as is the drift of rho by v on an
effective run, one tridiagonal cyclic-reduction solve per pass, so the step
is limited by the advective CFL bound |u| + c alone.  The couplings of a
dominant system shrink quadratically per reduction level (Heller 1976), so
the reduction stops at the first level whose rows have decoupled to
2**-60 of their diagonal (`solve_tridiagonal`).
Primitive: the mass and momentum fluxes (Rusanov, at MUSCL-reconstructed
interface states, `_primitive_flux`) are explicit; the viscous term
(mu_n(rho) u_x)_x, a centered flux with harmonic face viscosity, is solved
for u with rho frozen at the stage density, which makes it linear, so one
solve per stage is exact (`_implicit_viscosity`).
Effective: the convection of w by u, a face flux, and the pressure
relaxation, a cell rate, are explicit (`_transport`); the drift of rho by
v = w/rho and the nonlinear density diffusion (mu_n(rho)/rho rho_x)_x are
linearly implicit, with w held at the stage value, in one exponentially
fitted (Scharfetter-Gummel) face flux, solved twice per stage with the
face weights frozen at the stage's starting density and then at the first
solution (`_implicit_diffusion`).

The parts share one frame: pad the state (`_pad2`), reconstruct the faces
(`_faces`), the upwind face flux of the convection of w (`_upwind`),
harmonic face means of the viscosity or diffusivity (`_harmonic_mean`), the
implicit solve for an increment (`_solve_increment`) and its face flux
(`_gradient_flux`, or `_face_flux` with the fitted weights of
`_fitted_faces`), the conservative update (`_update`), sources and cell
rates (`_add_source`) and the vacuum floor (`_check_floor`).
The cell velocities v = w/rho and u = v - d_x phi(rho) of an effective
state have one definition (`_velocities`), shared by `cfl_dt` and the
explicit stage.  `run` hands the steppers only the cells within the reach of
a step of a face between unequal or moving states, gathered into one array
(`_window`).
"""
from __future__ import annotations

import math
import sys
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
    limiter: str = "mc"              # "mc" | "minmod" | "none"
    max_steps: int = 5_000_000
    bc: str = "farfield"             # "farfield" | "periodic"

    def __post_init__(self):
        if not 0 < self.cfl_safety <= 1:
            raise ValueError("cfl_safety must lie in (0, 1]")
        if self.max_steps < 0:
            raise ValueError("max_steps must be nonnegative")
        if self.formulation not in ("primitive", "effective"):
            raise ValueError(f"unknown formulation {self.formulation!r}")
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
    cell_steps: int = 0  # the cells stepped, summed over the steps
    mass_error_max: float = 0.0   # per-step relative mass-balance defect
    mass_error_accum: float = 0.0  # accumulated relative defect over the run
    warnings: list = field(default_factory=list)  # the scenario's warnings
    # smallest and largest CFL step taken, before clipping to t_end;
    # None when the run took no step
    dt_min: Optional[float] = None
    dt_max: Optional[float] = None
    # smallest and largest ratio of those steps to the explicit diffusive
    # limit (`Workspace.stiffness`); None when the run took no step
    stiffness_min: Optional[float] = None
    stiffness_max: Optional[float] = None

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
    is scratch for slopes, faces, fluxes, the implicit solves (an effective
    step's fitted face weights included), `cfl_dt` and the per-step BD
    rate, and holds the step's weighted face-flux sums and an effective
    step's two relaxation rates; `spare` receives the next state, which
    `run` copies back to the state's cells once the step is accepted (a
    primitive step also uses the pair as solver scratch until it writes the
    new state).  Primitive steps use 9 scratch arrays and effective steps
    12, so a workspace holds 13 or 16 cell-sized arrays.
    They are allocated as two blocks, the spare pair apart, so that a state
    a stepper returns does not keep the scratch alive; every row starts on
    a 64-byte boundary.  A workspace is private to one run; a step or
    `cfl_dt` on fewer cells uses the start of each row, as many entries as
    the state's cells take.  `cfl_dt` notes in `stiffness` the ratio of its
    advective step to the explicit diffusive limit
    0.5 * dx**2 * min(rho / mu_n(rho)) (the same for the primitive
    viscosity and the effective diffusivity mu_n(rho)/rho): the factor by
    which the implicit solves lengthen the step, from which `run` sizes
    the margin of its window.
    """

    SCRATCH = {"primitive": 9, "effective": 12}

    def __init__(self, cells: int, formulation: str):
        self.rho, self.mom, *self.tmp = _aligned_rows(
            2 + self.SCRATCH[formulation], cells + 4)
        self.spare = tuple(_aligned_rows(2, cells))
        self.mask = np.empty(cells + 4, dtype=bool)
        self.stiffness = None


def _aligned_rows(rows: int, cells: int) -> list:
    # `rows` arrays of `cells` doubles in one block, each starting on a
    # 64-byte boundary: the rows are padded to a multiple of 8 doubles
    stride = -(-cells // 8) * 8
    buf = np.empty(rows * stride + 7)
    start = (-buf.ctypes.data % 64) // 8
    block = buf[start:start + rows * stride].reshape(rows, stride)
    return [row[:cells] for row in block]


def cfl_dt(s: Union[State, EffectiveState], g: Grid1D, p: Params,
           cfg: SchemeConfig, ws: Optional[Workspace] = None) -> float:
    """Stable step: safety * dx / max(|u| + c), the advective bound of the
    one explicit transport, at the flow velocity u, of both formulations
    (u = m/rho, or u = w/rho - d_x phi(rho) on an effective run).  The
    viscous or diffusive term is implicit, and so is the effective drift
    of rho by v = w/rho, so neither v nor dx**2 bounds the step.  Notes the
    step's stiffness in `ws.stiffness`."""
    effective = cfg.formulation == "effective"
    rho = s.rho
    mom = s.w if effective else s.m
    n = len(rho)
    if ws is None:
        ws = Workspace(n, cfg.formulation)
    ok = ws.mask[:n]
    if not (np.isfinite(rho, out=ok).all() and np.isfinite(mom, out=ok).all()):
        raise NonFiniteStateError("non-finite density or momentum")
    if np.less_equal(rho, 0, out=ok).any():
        raise VacuumError("cfl_dt requires positive density")
    t0, t1, t2 = ws.tmp[:3]
    if effective:
        # only w is explicit, and convection carries it by u = v - d_x
        # phi(rho); the drift by v is implicit
        _, u = _velocities(*_pad2(rho, mom, p, cfg, ws), g, p, t0[:n + 4],
                           t1[:n + 4], t2[:n + 4])
        speed = np.abs(u[1:-1], out=t2[:n])
    else:
        speed = np.abs(np.divide(mom, rho, out=t0[:n]), out=t1[:n])
    speed += sound_speed(rho, p, out=t0[:n])
    adv = g.dx / np.maximum.reduce(speed)
    # adv / (0.5 dx**2 min(rho/mu)), in float products so that an
    # overflowing viscosity gives inf rather than a division by zero
    diffusivity = np.divide(viscosity(rho, p, out=t0[:n], scratch=t1[:n]),
                            rho, out=t0[:n])
    ws.stiffness = (2.0 * float(adv) * float(np.maximum.reduce(diffusivity))
                    / g.dx ** 2)
    return cfg.cfl_safety * float(adv)


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
    # the state padded by two ghost cells per side, in the workspace's rows
    # cut to its length
    rho, mom = ws.rho[:len(s_rho) + 4], ws.mom[:len(s_rho) + 4]
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


# GAMMA = 1 - 1/sqrt 2 is the implicit diagonal of IMEX-SSP2(2,2,2):
# explicit Heun with weights 1/2 and 1/2, implicit weight 1 - 2 GAMMA on the
# first stage's rate in the second, and 1/2 and 1/2 in the new state.
GAMMA = 1.0 - 1.0 / math.sqrt(2.0)


def _primitive_flux(rho, m, g: Grid1D, p: Params, cfg: SchemeConfig,
                    ws: Workspace, out_mass, out_mom, rate):
    # explicit part at a width-2 padded stage (rho, m): the mass and the
    # momentum (convection plus pressure) Rusanov face fluxes on the
    # cells+1 faces of the rows out_mass and out_mom; returns the
    # momentum flux and no cell rate (rate is not written).  Scratch
    # tmp[0..4]
    nf = len(rho) - 3
    t = ws.tmp
    rhoL, rhoR = _faces(rho, cfg.limiter, t[0], t[1], t[2], t[3], ws.mask)
    mL, mR = _faces(m, cfg.limiter, out_mass, t[4], t[2], t[3], ws.mask)
    a, y, z = t[2][:nf], out_mom[:nf], t[3][:nf]
    # 0.5 * the larger wave speed |u| + c of the two sides, into a
    half_smax = np.abs(np.divide(mL, rhoL, out=a), out=a)
    half_smax += sound_speed(rhoL, p, out=z)
    speed_R = np.abs(np.divide(mR, rhoR, out=y), out=y)
    speed_R += sound_speed(rhoR, p, out=z)
    np.maximum(half_smax, speed_R, out=half_smax)
    half_smax *= 0.5
    f_mom = np.multiply(np.divide(mL, rhoL, out=y), mL, out=y)
    f_mom += pressure(rhoL, p, out=z)
    f_mom += np.multiply(np.divide(mR, rhoR, out=z), mR, out=z)
    f_mom += pressure(rhoR, p, out=z)
    f_mom *= 0.5
    f_mom -= np.multiply(half_smax, np.subtract(mR, mL, out=z), out=z)
    f_mass = np.add(mL, mR, out=mL)
    f_mass *= 0.5
    f_mass -= np.multiply(half_smax, np.subtract(rhoR, rhoL, out=z), out=z)
    return [f_mom], []


def _gradient_flux(q, face, scale: float, out):
    # scale * face * (q[i+1] - q[i]) on the faces of a padded q, into out
    grad = np.subtract(q[1:], q[:-1], out=out)
    grad *= face
    grad *= scale
    return grad


def _face_flux(q, left, right, out, scratch):
    # left_{i+1/2} q_i - right_{i+1/2} q_{i+1} on the faces of a padded q,
    # into out
    nf = len(q) - 1
    f = np.multiply(left, q[:-1], out=out[:nf])
    f -= np.multiply(right, q[1:], out=scratch[:nf])
    return f


def _solve_increment(flux, left, right, mass, s: float, cfg: SchemeConfig,
                     x, lower, diag, upper, work):
    # the increment y with (mass + s M)(q + y) = mass q, that is
    # (mass + s M) y = -s M q, written into x (one value per cell) and
    # returned.  M q = G_{i+1/2} - G_{i-1/2} for the face flux G = left q_i -
    # right q_{i+1} of a width-1 padded q, passed in as flux (cells+1
    # values); with left, right >= 0 and mass > 0 the matrix is an M-matrix.
    # A constant G gives a zero increment.  mass is a number or a cell
    # array; lower, diag, upper and work are scratch, and diag may hold q
    n = len(x)
    np.subtract(flux[:-1], flux[1:], out=x)
    x *= s
    # the diagonal mass + s right_{i-1/2} + s left_{i+1/2}, each term
    # passing through upper
    np.subtract(mass, np.multiply(right[:-1], -s, out=upper[:n]),
                out=diag[:n])
    diag[:n] -= np.multiply(left[1:], -s, out=upper[:n])
    np.multiply(left[:-1], -s, out=lower[:n])
    np.multiply(right[1:], -s, out=upper[:n])
    return solve_tridiagonal(lower[:n], diag[:n], upper[:n], x,
                             periodic=cfg.bc == "periodic", work=work)


def _implicit_viscosity(rho, m, k: float, g: Grid1D, p: Params,
                        cfg: SchemeConfig, ws: Workspace, visc):
    # solve rho u - k (mu_n(rho) u_x)_x = m for u at the width-2 padded
    # stage (rho, m), mu_n frozen at rho: the equation is linear in u, so
    # one solve, for the increment of m/rho, is exact.  Writes rho*u into m
    # (ghosts filled) and the solved viscous face flux
    # -mu_face (u_{i+1} - u_i)/dx, with the harmonic face mean of mu_n, into
    # the cells+1 faces of visc.  Scratch tmp[0..5] and the spare pair
    n = len(rho) - 4
    t = ws.tmp
    mu_c = viscosity(rho[1:-1], p, out=t[1][:n + 2], scratch=t[2][:n + 2])
    mu_face = _harmonic_mean(mu_c, t[0], t[2])
    u = np.divide(m[1:-1], rho[1:-1], out=t[1][:n + 2])
    flux = _gradient_flux(u, mu_face, -1.0, t[5][:n + 1])
    x = _solve_increment(flux, mu_face, mu_face, rho[2:-2], k / g.dx ** 2,
                         cfg, t[2][:n], t[3], t[1], t[4], (t[5], *ws.spare))
    m[2:-2] += np.multiply(rho[2:-2], x, out=x)
    fill_ghosts(m, 2, cfg.bc, 0.0)
    u = np.divide(m[1:-1], rho[1:-1], out=t[1][:n + 2])
    _gradient_flux(u, mu_face, -1.0 / g.dx, visc[:n + 1])


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
    elimination factors and their products).

    Each reduction level at most squares the largest row ratio
    (|a| + |c|)/|b| of a dominant system (Heller 1976, incomplete cyclic
    reduction), so the reduction stops at the first level of at most 128
    rows where every row has |a| + |c| <= 2**-60 |b| and solves it as a
    diagonal.  That moves each unknown by at most 2**-60 max|x|, below
    rounding, and keeps the deeper levels' couplings from underflowing; a
    system that never decouples takes every level."""
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


# the reduction tests for decoupled rows only on levels of at most this many
# rows: wider levels seldom pass the test, and each failed test is a pass
# over the level's rows spent for nothing
_DECOUPLE_ROWS = 128


def _decoupled(A, B, C, s, scratch) -> bool:
    # whether every row has |A| + |C| <= 2**-60 |B|, tested as
    # (|A| + |C|) 2**60 <= |B|: scaling by a power of two is exact, and an
    # overflow to inf, of the sum or the scaled sum, gives the exact outcome
    # too (no finite |B| reaches 2**1024), so it is let pass; scaling |B|
    # down instead would round below 2**-962.  A NaN compares false.  s and
    # scratch hold len(B) values each
    k = len(B)
    with np.errstate(over="ignore"):
        s = np.add(np.abs(A, out=s[:k]), np.abs(C, out=scratch[:k]),
                   out=s[:k])
        s *= 2.0 ** 60
    return bool(np.logical_and.reduce(s <= np.abs(B, out=scratch[:k])))


def _cyclic_reduction(a, b, c, rhs, fac, prod):
    # in place: level k keeps its rows at a[2**k - 1 :: 2**k]; each level
    # eliminates its even rows from its odd ones, which form the next level,
    # and back substitution then solves the even rows level by level.  A
    # level whose rows have decoupled (`_decoupled`) is solved as a
    # diagonal, as the last level of one row is.  Returns the number of
    # levels eliminated
    levels = []
    off, stride = 0, 1
    while True:
        view = slice(off, None, stride)
        A, B, C = a[view], b[view], c[view]
        k = len(B)
        if k == 1 or k <= _DECOUPLE_ROWS and _decoupled(A, B, C, fac, prod):
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
    return len(levels)


def _transport(rho, w, g: Grid1D, p: Params, cfg: SchemeConfig,
               ws: Workspace, out, own, rate):
    # explicit part at a width-2 padded stage (rho, w): the upwind
    # convection of w by u, a face flux on the cells+1 faces of out, and
    # the pressure relaxation -kappa*(w - rho*u), a cell rate written into
    # rate; returns no explicit flux of rho (own is not written) and the
    # rate of w.  Scratch tmp[0..5]
    n = len(rho) - 4
    nf = n + 1  # faces
    t = ws.tmp
    _, u_ext = _velocities(rho, w, g, p, t[0][:n + 4], t[5][:n + 4],
                           t[1][:n + 4])
    wL, wR = _faces(w, cfg.limiter, t[3], t[4], t[0], t[1], ws.mask)
    ubar = np.add(u_ext[:-1], u_ext[1:], out=t[0][:nf])
    ubar *= 0.5
    _upwind(ubar, wL, wR, out[:nf], ws.mask)
    rho_in, u_in = rho[2:-2], u_ext[1:-1]
    relax = np.multiply(rho_in, u_in, out=rate[:n])
    relax -= w[2:-2]
    relax *= _relaxation_rate(rho_in, p, t[2][:n], t[3][:n], t[4][:n])
    return [], [(1, relax)]


def _relaxation_rate(rho, p: Params, out, s1, s2):
    # kappa = a*gamma*rho**gamma / mu_n(rho), written into out
    kappa = powf(rho, p.gamma, out=out)
    kappa *= p.a * p.gamma
    kappa /= viscosity(rho, p, out=s1, scratch=s2)
    return kappa


# expm1 overflows beyond this argument
_EXPM1_MAX = math.log(sys.float_info.max)
_TINY = np.finfo(float).tiny


def _bernoulli(x, out, scratch, mask):
    # B(x) = x/expm1(x) for x >= 0, written into out; x is overwritten.
    # B is 1 at x = 0 (taken at the smallest normal number, where it is
    # exactly 1, so that faces at rest do not compute on subnormals) and 0
    # where expm1 overflows, with no floating-point exception
    np.maximum(x, _TINY, out=x)
    scratch.fill(np.inf)
    np.expm1(x, out=scratch, where=np.less_equal(x, _EXPM1_MAX, out=mask))
    np.minimum(x, _EXPM1_MAX, out=x)
    return np.divide(x, scratch, out=out)


def _fitted_faces(q, w, dx: float, p: Params, left, right, s1, s2, s3,
                  mask):
    # the Scharfetter-Gummel face weights of the drift by v = w/q plus the
    # diffusion (D q_x)_x, D = mu_n(q)/q, on the faces of the width-1
    # padded q and w: left = D B(-P) and right = D B(P), with D the harmonic
    # face mean, vbar the arithmetic face mean of v and the cell Peclet
    # number P = vbar dx / D.  They are evaluated as D B(|P|) plus dx times
    # the positive part of vbar or of -vbar (B(-x) = x + B(x)), so both are
    # nonnegative at any P.  s1, s2, s3 and mask are scratch
    nf = len(q) - 1
    dcoef = viscosity(q, p, out=s1[:nf + 1], scratch=s2[:nf + 1])
    dcoef /= q
    d_face = _harmonic_mean(dcoef, s3, s2)
    v = np.divide(w, q, out=s1[:nf + 1])
    vbar = np.add(v[:-1], v[1:], out=s2[:nf])
    vbar *= 0.5
    peclet = np.abs(vbar, out=s1[:nf])
    peclet *= dx
    peclet /= d_face
    fitted = _bernoulli(peclet, right[:nf], left[:nf], mask[:nf])
    fitted *= d_face
    np.maximum(vbar, 0.0, out=left[:nf])
    left[:nf] *= dx
    left[:nf] += fitted
    np.minimum(vbar, 0.0, out=vbar)
    vbar *= dx
    fitted -= vbar
    return left[:nf], fitted


def _implicit_diffusion(rho, w, k: float, g: Grid1D, p: Params,
                        cfg: SchemeConfig, ws: Workspace, out):
    # solve rho* = rho + k L(rho*) for the width-2 padded predictor rho, in
    # place, with the width-2 padded w held at the stage value, and write
    # the solved face flux F(rho*) into out.  L q = -(F_{i+1/2}
    # - F_{i-1/2})/dx with F = (left q_i - right q_{i+1})/dx is the drift by
    # v = w/q plus the density diffusion, in the exponentially fitted form
    # of `_fitted_faces`.  Each of two passes freezes the face weights at
    # the latest density (the predictor, then the first pass's solution,
    # which keeps the step second order) and solves for the increment:
    # I - k L has nonpositive off-diagonals and unit column sums at any
    # cell Peclet number, so rho* stays positive.  Scratch tmp[0..8]
    n = len(rho) - 4
    nf = n + 1
    t = ws.tmp
    left, right, lower, diag, upper = t[0], t[1], t[2], t[3], t[4]
    x, work = t[5][:n], t[6:9]
    s = k / g.dx ** 2
    q = padded = rho[1:-1]  # one ghost per side
    for frozen_at_solution in (False, True):
        if frozen_at_solution:
            # the first pass's density, padded like rho
            q = lower[:n + 2]
            np.add(rho[2:-2], x, out=q[1:-1])
            fill_ghosts(q, 1, cfg.bc, p.rho_bar)
        a, b = _fitted_faces(q, w[1:-1], g.dx, p, left, right, diag, upper,
                             work[0], ws.mask)
        f = _face_flux(padded, a, b, work[0], t[5])
        _solve_increment(f, a, b, 1.0, s, cfg, x, lower, diag, upper, work)
    rho_in = rho[2:-2]
    rho_in += x
    fill_ghosts(rho, 2, cfg.bc, p.rho_bar)
    f = _face_flux(padded, a, b, out, t[7])
    f /= g.dx


def _check_floor(rho, cfg: SchemeConfig, p: Params, t: float):
    if np.minimum.reduce(rho) < cfg.floor(p):
        raise VacuumError(f"density fell below the vacuum floor at t={t:g}")


def _imex_ssp2(y: tuple, t0: float, dt: float, g: Grid1D, p: Params,
               cfg: SchemeConfig, source: Source, ws: Workspace, j: int,
               implicit: Callable, explicit: Callable):
    # One IMEX-SSP2(2,2,2) step of the state y = (rho, q) at t0, whose
    # component j alone has an implicit part; returns the new pair, held in
    # the workspace's spare arrays, and the step-weighted boundary mass
    # fluxes (left, right).  implicit(rho, q, k, g, p, cfg, ws, out) solves
    # Y = Y* + k I(Y) for component j in place in the width-2 padded stage
    # and writes the face flux of I into out.  explicit(rho, q, g, p, cfg,
    # ws, out, own, rate) writes the other component's explicit face flux
    # into out and returns two lists, each empty where the formulation has
    # none: component j's explicit face flux, written into own, and
    # (component, cell rate) pairs, the rate written into rate, which the
    # step applies the way it applies a source.  Rows: the parts' scratch
    # from tmp[0], the stage outputs tmp[5] and tmp[6] (also the
    # predictor), the rates tmp[-4] and tmp[-3] (written only by a
    # formulation that has one) and the weighted face-flux sums tmp[-2]
    # and tmp[-1].  The step takes its number of cells from y, and the
    # start of each row; g gives dx, and a source its cell centers, so y
    # covers the whole grid when there is a source
    dx, n = g.dx, len(y[0])
    nf = n + 1
    o = 1 - j
    t = ws.tmp
    rows = t[-2:]
    acc = [rows[0][:nf], rows[1][:nf]]
    k = GAMMA * dt
    z = _pad2(*y, p, cfg, ws)
    inner = (z[0][2:-2], z[1][2:-2])

    # stage 1: implicit at the old state, then the explicit part there
    implicit(*z, k, g, p, cfg, ws, rows[j])
    own, rates = explicit(*z, g, p, cfg, ws, rows[o], t[5], t[-3])
    if source is not None:
        rates += enumerate(source(g.centers(), t0))

    # stage 2: the explicit predictor, implicit at its state, then the
    # explicit part there
    pred = np.multiply(acc[j], 1.0 - 2.0 * GAMMA, out=t[6][:nf])
    for f in own:
        pred += f
        acc[j] += f
    _update(y[j], pred, dt, dx, inner[j])
    _update(y[o], acc[o], dt, dx, inner[o])
    for c, r in rates:
        _add_source(inner[c], r, dt, t[6])
    _check_floor(inner[0], cfg, p, t0)
    fill_ghosts(z[0], 2, cfg.bc, p.rho_bar)
    fill_ghosts(z[1], 2, cfg.bc, 0.0)
    implicit(*z, k, g, p, cfg, ws, t[6])
    acc[j] += t[6][:nf]
    own, more = explicit(*z, g, p, cfg, ws, t[6], t[5], t[-4])
    acc[o] += t[6][:nf]
    for f in own:
        acc[j] += f
    rates += more
    if source is not None:
        rates += enumerate(source(g.centers(), t0 + dt))

    # the new state in flux form from the weighted stage fluxes and rates
    new = tuple(q[:n] for q in ws.spare)
    for c in (0, 1):
        acc[c] *= 0.5
        _update(y[c], acc[c], dt, dx, new[c])
    for c, r in rates:
        _add_source(new[c], r, 0.5 * dt, t[0])
    _check_floor(new[0], cfg, p, t0)
    return new, (float(acc[0][0]), float(acc[0][-1]))


def step_primitive(s: State, dt: float, g: Grid1D, p: Params,
                   cfg: SchemeConfig, source: Source = None,
                   ws: Optional[Workspace] = None):
    """One IMEX-SSP2(2,2,2) update of (rho, rho*u) (Pareschi & Russo 2005):
    mass and momentum transport and sources explicit, at t and t + dt; the
    viscous term (mu_n(rho) u_x)_x implicit, solved for u with rho frozen at
    the stage density, which the explicit mass update fixes.  The new state
    is rebuilt in flux form from the stage fluxes with weights 1/2 and 1/2,
    so the returned boundary mass fluxes (left, right) are the step-weighted
    ones.  The new State is held in the workspace's spare arrays."""
    if ws is None:
        ws = Workspace(len(s.rho), "primitive")
    (rho, m), fluxes = _imex_ssp2((s.rho, s.m), s.t, dt, g, p, cfg, source,
                                  ws, 1, _implicit_viscosity, _primitive_flux)
    return State(rho, m, s.t + dt), fluxes


def step_effective(e: EffectiveState, dt: float, g: Grid1D, p: Params,
                   cfg: SchemeConfig, source: Source = None,
                   ws: Optional[Workspace] = None):
    """One IMEX-SSP2(2,2,2) update of (rho, w = rho*v): the convection of w
    (a face flux), the pressure relaxation (a cell rate) and sources
    explicit, at t and t + dt; the drift and the diffusion of rho linearly
    implicit, with w held at the stage value, so rho has no explicit part
    but its source.  The new state is rebuilt from the stage fluxes and
    rates with weights 1/2 and 1/2, rho in flux form, so the returned
    boundary mass fluxes (left, right) are the step-weighted ones.  The new
    EffectiveState is held in the workspace's spare arrays."""
    if ws is None:
        ws = Workspace(len(e.rho), "effective")
    (rho, w), fluxes = _imex_ssp2((e.rho, e.w), e.t, dt, g, p, cfg, source,
                                  ws, 0, _implicit_diffusion, _transport)
    return EffectiveState(rho, w, e.t + dt), fluxes


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


# the cells a step's explicit part reaches beyond those it changes: two
# stages of the two-cell MUSCL stencil, plus the two ghost cells
_REACH = 6


def _window(rho, mom, stepped: tuple, stiffness: float, p: Params,
            cfg: SchemeConfig, mask) -> tuple:
    # the cells the next step updates, as the sorted bounds (lo0, hi0, lo1,
    # hi1, ...) of disjoint intervals, for a state (rho, mom) that has not
    # changed outside the current intervals `stepped`, which are empty
    # before the first step; mask is scratch.  A face is active when the
    # states on its two sides differ or either side has nonzero momentum;
    # the grid's edge faces compare with the far-field ghost (rho_bar, 0).
    # The intervals cover each cell within the step's margin of an active
    # face, rounded outward to multiples of 8 cells, and only grow, so the
    # cells between them are constant runs at rest, which a step leaves as
    # they are, and only the faces of stepped cells can have become active.
    # The margin is the explicit reach and the cells over which the tails
    # of the implicit solves in rest cells fall to 2**-60, so that cutting
    # them changes nothing above rounding.  Those tails decay by r = a -
    # sqrt(a*a - 1) = exp(-acosh a) per cell, a = 1 + 1/(2 kappa), kappa =
    # s max(mu_n/rho) = GAMMA cfl_safety stiffness / 2, with the step's
    # stiffness from `cfl_dt`.  The set is the whole grid when no face is
    # active before the first step, or when the margin is not finite
    n = len(rho)
    scan = stepped or (0, n)
    edges = []  # where the runs of active faces start and stop, in order
    for lo, hi in zip(scan[::2], scan[1::2]):
        # the faces lo..hi, face k between cells k-1 and k
        if lo == 0 and (rho[0] != p.rho_bar or mom[0] != 0.0):
            edges += 0, 1
        a, b = max(lo - 1, 0), min(hi + 1, n)
        active = np.not_equal(rho[a + 1:b], rho[a:b - 1], out=mask[:b - a - 1])
        moving = mom[a:b] != 0.0
        active |= moving[1:]
        active |= moving[:-1]
        if len(active):
            flips = (active[1:] != active[:-1]).nonzero()[0] + (a + 2)
            edges += [a + 1] * bool(active[0]) + flips.tolist() \
                + [b] * bool(active[-1])
        if hi == n and (rho[-1] != p.rho_bar or mom[-1] != 0.0):
            edges += n, n + 1
    if not edges:
        return scan
    kappa = GAMMA * cfg.cfl_safety * stiffness / 2.0
    decay = math.acosh(1.0 + 0.5 / kappa) if kappa > 0 else math.inf
    if not decay > 0:
        return 0, n
    margin = _REACH + math.ceil(60.0 * math.log(2.0) / decay)
    bounds = []
    for lo, hi in sorted([*zip(stepped[::2], stepped[1::2]),
                          *((max((f - margin) // 8 * 8, 0),
                             min((e + margin + 6) // 8 * 8, n))
                            for f, e in zip(edges[::2], edges[1::2]))]):
        if bounds and lo <= bounds[-1]:
            bounds[-1] = max(bounds[-1], hi)
        else:
            bounds += lo, hi
    return tuple(bounds)


def _pieces(bounds: tuple) -> list:
    # (cells of the grid, cells of the gathered arrays) of each interval
    out, at = [], 0
    for lo, hi in zip(bounds[::2], bounds[1::2]):
        out.append((slice(lo, hi), slice(at, at + hi - lo)))
        at += hi - lo
    return out


def _gather(q: np.ndarray, pieces: list) -> np.ndarray:
    # the cells of the pieces side by side: a view of one, a copy of several
    if len(pieces) == 1:
        return q[pieces[0][0]]
    return np.concatenate([q[full] for full, _ in pieces])


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
    copies.

    On a far-field grid without a source the steps update only the cells
    within the reach of the coming step of a face between unequal states or
    a moving one (`_window`): a few intervals, which only grow.  The steps
    run on those cells gathered side by side, one stepper call and one
    `cfl_dt` call per step, with the run's grid and workspace (a step takes
    its number of cells from the state); two neighbours there meet inside a
    constant run at rest, so their face is that of two equal rest cells,
    and the new values go back to their cells.  The other cells keep their
    values bit for bit (the initial data's Gaussians are exactly 0 in the
    far field).
    The set is the whole grid on a periodic grid, with a source, and when
    no constant run at rest is long enough to skip or no face is active.
    Records, the mass audit and the per-step integrals read the whole
    state; `Trajectory.cell_steps` sums the cells stepped."""
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
    stiff_lo, stiff_hi = math.inf, 0.0

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
    cls, stepper = ((EffectiveState, step_effective) if effective
                    else (State, step_primitive))
    tiny = 1e-12 * max(t_end, 1.0)
    # the steps update the cells of the intervals `stepped`, gathered side
    # by side: intervals that start empty and grow (`_window`) on a
    # far-field grid without forcing, else the whole grid.  The state's
    # arrays take the new values back
    held = (state.rho, state.w if effective else state.m)
    whole = (0, g.cells)
    windowed = cfg.bc == "farfield" and source is None
    stepped, new = (), None

    try:
        dt_cfl = cfl_dt(state, g, p, cfg, ws=ws)
        stiffness = ws.stiffness
        while state.t < t_end - tiny:
            if traj.steps >= cfg.max_steps:
                traj.status = "step_budget_exhausted"
                break
            if stepped != whole:
                spans = (_window(*held, stepped, stiffness, p, cfg, ws.mask)
                         if windowed else whole)
                if spans != stepped:
                    stepped, pieces = spans, _pieces(spans)
                    cells = pieces[-1][1].stop
            dt = min(dt_cfl, t_end - state.t)
            new, (f_left, f_right) = stepper(
                cls(*(_gather(q, pieces) for q in held), state.t), dt, g, p,
                cfg, source, ws=ws)
            dt_next = cfl_dt(new, g, p, cfg, ws=ws)  # rejects non-finite
            # accepted: the new values go to their cells
            for full, packed in pieces:
                for q, c in zip(held, ws.spare):
                    q[full] = c[packed]
            state = cls(*held, new.t)
            traj.steps += 1
            traj.cell_steps += cells
            dt_lo, dt_hi = min(dt_lo, dt_cfl), max(dt_hi, dt_cfl)
            stiff_lo = min(stiff_lo, stiffness)
            stiff_hi = max(stiff_hi, stiffness)
            dt_cfl, stiffness = dt_next, ws.stiffness

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
                # the first multiple of the cadence beyond t, or the next
                # step for a cadence finer than it (the quotient may be inf)
                ahead = state.t + tiny
                next_record = min((ahead // record_every + 1) * record_every,
                                  ahead + record_every)
    except VacuumError:
        traj.status = "vacuum_breach"
    except NonFiniteStateError:
        traj.status = "nonfinite"

    if traj.steps:
        traj.dt_min, traj.dt_max = dt_lo, dt_hi
        traj.stiffness_min, traj.stiffness_max = stiff_lo, stiff_hi
    del ws, new, rate_scratch
    if traj.records[-1].t < state.t - tiny:
        record(state)
    return traj
