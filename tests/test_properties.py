"""Property tests of the discrete identities on random positive densities
under both boundary rules: the effective-momentum transform and its inverse,
w - m = grad phi1(rho), the exact mass balance of one step (also of a stiff
implicit one), the implicit drift and diffusion of the effective step at
large cell Peclet numbers, the BD entropy over effective steps from rough
data, and the cyclic-reduction solve against refined scipy and dense
solves, with its early exit at decoupled rows."""
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nsvisc1d import (EffectiveState, Grid1D, Params, State,
                      centered_gradient, diagnostics, from_effective, phi1,
                      solver, to_effective, viscosity)
from nsvisc1d.solver import SchemeConfig, cfl_dt, solve_tridiagonal, \
    step_effective, step_primitive


@st.composite
def states(draw):
    """(State, Grid1D, Params, bc) with densities in [0.2, 5]."""
    cells = draw(st.integers(4, 48))
    rho = draw(hnp.arrays(float, cells, elements=st.floats(0.2, 5.0)))
    m = draw(hnp.arrays(float, cells, elements=st.floats(-2.0, 2.0)))
    g = Grid1D(0.0, draw(st.sampled_from([1.0, 7.5])), cells)
    p = Params(alpha=draw(st.sampled_from([0.0, 0.5, 1.0, 1.5])),
               n_reg=draw(st.sampled_from([math.inf, 8.0])))
    bc = draw(st.sampled_from(["farfield", "periodic"]))
    return State(rho, m, t=0.25), g, p, bc


@settings(max_examples=200, deadline=None)
@given(states())
def test_effective_round_trip_and_gradient_identity(case):
    s, g, p, bc = case
    e = to_effective(s, g, p, mode=bc)
    back = from_effective(e, g, p, mode=bc)
    scale = max(np.max(np.abs(s.m)), np.max(np.abs(e.w)))
    np.testing.assert_array_equal(back.rho, s.rho)
    np.testing.assert_allclose(back.m, s.m, rtol=0, atol=1e-15 * scale)
    assert back.t == s.t
    grad = centered_gradient(phi1(s.rho, p), g, mode=bc,
                             boundary=float(phi1(p.rho_bar, p)))
    np.testing.assert_allclose(e.w - s.m, grad, rtol=0, atol=1e-15 * scale)


@settings(max_examples=100, deadline=None)
@given(states(), st.sampled_from(["primitive", "effective"]))
def test_one_step_mass_balance(case, formulation):
    s, g, p, bc = case
    cfg = SchemeConfig(formulation=formulation, bc=bc)
    stepper = step_primitive
    if formulation == "effective":
        s, stepper = to_effective(s, g, p, mode=bc), step_effective
    dt = cfl_dt(s, g, p, cfg)
    new, (f_left, f_right) = stepper(s, dt, g, p, cfg)
    mass_old = float(np.sum(s.rho)) * g.dx
    mass_new = float(np.sum(new.rho)) * g.dx
    defect = abs(mass_new - mass_old - (f_left - f_right) * dt)
    assert defect <= 1e-13 * mass_old


@settings(max_examples=100, deadline=None)
@given(st.integers(4, 300), st.sampled_from(["farfield", "periodic"]),
       st.sampled_from([0.0, 0.5, 1.0, 1.5]), st.data())
def test_stiff_effective_step_keeps_mass(cells, bc, alpha, data):
    # pure density diffusion (negligible pressure, w = 0) at 1e6 times the
    # explicit limit: the new density is rebuilt in flux form, so the mass
    # balance does not rest on the accuracy of the tridiagonal solves
    rho = data.draw(hnp.arrays(float, cells, elements=st.floats(1.0, 1.5)))
    g = Grid1D(0.0, 1.0, cells)
    p = Params(alpha=alpha, a=1e-12)
    e = EffectiveState(rho, np.zeros(cells))
    dt = 1e6 * g.dx ** 2
    new, (f_left, f_right) = step_effective(
        e, dt, g, p, SchemeConfig(formulation="effective", bc=bc))
    mass_old = float(np.sum(rho)) * g.dx
    defect = abs(float(np.sum(new.rho)) * g.dx - mass_old
                 - (f_left - f_right) * dt)
    assert defect <= 1e-14 * mass_old


@st.composite
def drift_dominated(draw):
    """(rho, w, Grid1D, Params, bc, k): densities in [0.2, 5] on 4-64 cells
    and w = rho v with v in [-1, 1], one cell at +-1, times a scale that
    takes max|v| dx / max(D), D = mu_n(rho)/rho, to [2, 1e4], a bound below
    the largest cell Peclet number; k is the implicit step gamma*dt at a
    drift Courant number k max|v| / dx in [0.1, 100]."""
    cells = draw(st.integers(4, 64))
    rho = draw(hnp.arrays(float, cells, elements=st.floats(0.2, 5.0)))
    v = draw(hnp.arrays(float, cells, elements=st.floats(-1.0, 1.0)))
    g = Grid1D(0.0, draw(st.sampled_from([1.0, 7.5])), cells)
    p = Params(alpha=draw(st.sampled_from([0.0, 0.5, 1.0])),
               n_reg=draw(st.sampled_from([math.inf, 8.0])))
    bc = draw(st.sampled_from(["farfield", "periodic"]))
    v[draw(st.integers(0, cells - 1))] = draw(st.sampled_from([-1.0, 1.0]))
    diffusivity = float(np.max(viscosity(rho, p) / rho))
    v *= draw(st.floats(2.0, 1e4)) * diffusivity / g.dx
    k = draw(st.floats(0.1, 100.0)) * g.dx / float(np.max(np.abs(v)))
    return rho, rho * v, g, p, bc, k


@settings(max_examples=200, deadline=None)
@given(drift_dominated())
def test_implicit_drift_keeps_positivity_mass_and_m_matrix(case):
    # one implicit drift-diffusion solve from a positive predictor: the new
    # density is positive, its mass changes by the boundary fluxes alone,
    # and both passes solve a matrix with nonpositive off-diagonals and
    # unit column sums (at least 1 in a farfield boundary cell's column)
    rho, w, g, p, bc, k = case
    cfg = SchemeConfig(formulation="effective", bc=bc)
    ws = solver.Workspace(g.cells, "effective")
    padded, padded_w = solver._pad2(rho, w, p, cfg, ws)
    flux = np.zeros(g.cells + 1)
    matrices = []
    solve = solver.solve_tridiagonal

    def keep(a, b, c, d, periodic=False, work=None):
        matrices.append((a.copy(), b.copy(), c.copy()))
        return solve(a, b, c, d, periodic=periodic, work=work)

    with mock.patch.object(solver, "solve_tridiagonal", keep):
        solver._implicit_diffusion(padded, padded_w, k, g, p, cfg, ws, flux)
    new = padded[2:-2]
    assert np.all(new > 0)
    assert len(matrices) == 2
    # the solve's residual, summed, is the defect: a few rounding errors of
    # the largest diagonal entry per unit of mass
    eps = np.finfo(float).eps
    mass = float(np.sum(rho)) * g.dx
    defect = float(np.sum(new)) * g.dx - mass + k * (flux[-1] - flux[0])
    assert abs(defect) <= 16 * eps * np.max(matrices[-1][1]) * mass
    for a, b, c in matrices:
        # a[i] multiplies x[i-1] and c[i] x[i+1], cyclically when periodic
        columns = b.copy()
        columns[1:] += c[:-1]
        columns[:-1] += a[1:]
        tol = 8 * eps * np.max(b)
        if bc == "periodic":
            assert a[0] <= 0 and c[-1] <= 0
            columns[0] += c[-1]
            columns[-1] += a[0]
            np.testing.assert_allclose(columns, 1.0, rtol=0, atol=tol)
        else:
            np.testing.assert_allclose(columns[1:-1], 1.0, rtol=0, atol=tol)
            assert min(columns[0], columns[-1]) >= 1.0 - tol
        assert np.all(a[1:] <= 0) and np.all(c[:-1] <= 0)


@st.composite
def bv_effective_states(draw):
    """(EffectiveState, Grid1D, Params, bc): a piecewise-constant density of
    1-4 pieces with values in [0.2, 5] on 16-64 cells, at rest in the
    effective velocity (w = 0)."""
    cells = draw(st.integers(16, 64))
    pieces = draw(st.integers(1, 4))
    breaks = sorted(draw(st.lists(st.integers(1, cells - 1),
                                  min_size=pieces - 1, max_size=pieces - 1,
                                  unique=True)))
    values = draw(st.lists(st.floats(0.2, 5.0), min_size=pieces,
                           max_size=pieces))
    rho = np.repeat(values, np.diff([0, *breaks, cells]))
    g = Grid1D(0.0, draw(st.sampled_from([1.0, 7.5])), cells)
    p = Params(alpha=draw(st.sampled_from([0.0, 0.5, 1.0])))
    bc = draw(st.sampled_from(["farfield", "periodic"]))
    return EffectiveState(rho, np.zeros(cells)), g, p, bc


# the shrunk counterexample: on [0, 7.5] (dx = 0.47) the entropy rises from
# 13.125 to 13.1313 in the second step
COARSE_JUMP = (EffectiveState(np.array([1.0, 1.0] + [3.0] * 14), np.zeros(16)),
               Grid1D(0.0, 7.5, 16), Params(alpha=0.0), "periodic")


@pytest.mark.xfail(strict=True, reason="the effective stepper raises the BD "
                   "entropy of rough data on coarse grids")
@example(COARSE_JUMP, 2)
@settings(max_examples=100, deadline=None)
@given(bv_effective_states(), st.integers(1, 5))
def test_effective_steps_never_raise_bd_entropy(case, steps):
    # the BD entropy 0.5 int(rho v**2 + Pi(rho)) is a Lyapunov functional of
    # the effective system: no step at the CFL step may raise it
    e, g, p, bc = case
    cfg = SchemeConfig(formulation="effective", bc=bc)
    start = diagnostics.bd_entropy(State(e.rho, e.w), e.w, g, p)
    for _ in range(steps):
        e, _ = step_effective(e, cfl_dt(e, g, p, cfg), g, p, cfg)
        now = diagnostics.bd_entropy(State(e.rho, e.w), e.w, g, p)
        assert now <= start * (1.0 + 1e-12)


@st.composite
def tridiagonal_systems(draw):
    """(a, b, c, d): a diagonally dominant tridiagonal system of 4-300 rows
    with off-diagonals up to `scale` and a diagonal margin in [1, 10], as
    in the stepper's I - k L."""
    n = draw(st.integers(4, 300))
    scale = draw(st.sampled_from([1.0, 1e3]))
    a, c, d = (draw(hnp.arrays(float, n, elements=st.floats(-1.0, 1.0)))
               for _ in range(3))
    margin = draw(hnp.arrays(float, n, elements=st.floats(1.0, 10.0)))
    a, c = scale * a, scale * c
    return a, margin + np.abs(a) + np.abs(c), c, d


def _solved(a, b, c, d, periodic):
    x = d.copy()
    solve_tridiagonal(a.copy(), b.copy(), c.copy(), x, periodic=periodic)
    return x


def _solution_bound(a, b, c, d):
    # |x|_inf <= |d|_inf / min(|b| - |a| - |c|) for a diagonally dominant
    # matrix (Varah), the scale of the solution's rounding errors; a
    # cancelling d can give a far smaller |x|
    return np.max(np.abs(d)) / np.min(np.abs(b) - np.abs(a) - np.abs(c))


def _refined(solve, a, b, c, d, periodic):
    # a reference solve errs by up to ~cond * eps, above the tolerance at
    # margin 1 and off-diagonals 1e3 (solve_banded by 1.1e-13 where the
    # cyclic reduction errs by 1.6e-14), so it takes one refinement step on
    # the residual computed exactly in rationals
    x = solve(d)
    r = np.empty(len(d))
    for i in range(len(d)):
        s = Fraction(d[i]) - Fraction(b[i]) * Fraction(x[i])
        if i > 0 or periodic:
            s -= Fraction(a[i]) * Fraction(x[i - 1])
        if i < len(d) - 1 or periodic:
            s -= Fraction(c[i]) * Fraction(x[(i + 1) % len(d)])
        r[i] = float(s)
    return x + solve(r)


def _tolerance(a, b, c, d):
    # relative to the solution bound, plus the absolute rounding of
    # subnormal results (a subnormal d rounds to whole multiples of the
    # smallest subnormal, whatever the solver)
    return 1e-13 * _solution_bound(a, b, c, d) \
        + 1e3 * np.finfo(float).smallest_subnormal


@settings(max_examples=200, deadline=None)
@given(tridiagonal_systems())
def test_cyclic_reduction_matches_solve_banded(system):
    a, b, c, d = system
    banded = np.zeros((3, len(d)))
    banded[0, 1:], banded[1], banded[2, :-1] = c[:-1], b, a[1:]
    ref = _refined(lambda r: scipy.linalg.solve_banded((1, 1), banded, r),
                   a, b, c, d, periodic=False)
    x = _solved(a, b, c, d, periodic=False)
    assert np.max(np.abs(x - ref)) <= _tolerance(a, b, c, d)
    for periodic in (False, True):
        zero = _solved(a, b, c, np.zeros(len(d)), periodic)
        assert not np.any(zero)


def _check_periodic(a, b, c, d):
    dense = np.diag(b) + np.diag(a[1:], -1) + np.diag(c[:-1], 1)
    dense[0, -1], dense[-1, 0] = a[0], c[-1]
    ref = _refined(lambda r: np.linalg.solve(dense, r), a, b, c, d,
                   periodic=True)
    x = _solved(a, b, c, d, periodic=True)
    assert np.max(np.abs(x - ref)) <= _tolerance(a, b, c, d)


@settings(max_examples=200, deadline=None)
@given(tridiagonal_systems())
def test_periodic_cyclic_reduction_matches_dense_solve(system):
    _check_periodic(*system)


@pytest.mark.xfail(strict=True, reason="the reduced diagonals cancel down "
                   "to the row margin: 1.008e-13 off at a 1e-13 tolerance")
def test_periodic_cyclic_reduction_of_a_barely_dominant_system():
    # margin 1 under off-diagonals of 1e3, the example an unseeded run of
    # the property above found
    a = np.full(9, -1000.0)
    _check_periodic(a, np.full(9, 2001.0), a.copy(), np.ones(9))


@st.composite
def dominant_systems(draw):
    """(a, b, c, d): a tridiagonal system of 300-5,000 rows with random
    signs whose largest row ratio (|a| + |c|)/|b|, corners included, is
    at most 0.9."""
    n = draw(st.integers(300, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ratio = draw(st.floats(0.1, 0.9))
    a, c, d = rng.uniform(-1.0, 1.0, (3, n))
    b = (np.abs(a) + np.abs(c)) / (ratio * rng.uniform(0.5, 1.0, n))
    return a, b * rng.choice([-1.0, 1.0], n), c, d


def _solved_counting(a, b, c, d, periodic):
    # the solution and the number of levels the reduction eliminated
    levels = []
    reduce = solver._cyclic_reduction
    with mock.patch.object(solver, "_cyclic_reduction",
                           lambda *args: levels.append(reduce(*args))):
        x = _solved(a, b, c, d, periodic)
    return x, levels[0]


def _exit_level(a, b, c, n):
    # Heller: a reduction level at most squares the largest row ratio, so
    # the rows have decoupled (ratio <= 2**-60, here with a factor 2 to
    # spare for rounding) after this many levels, or at the first level of
    # at most 128 rows, the first one tested
    ratio = np.max((np.abs(a) + np.abs(c)) / np.abs(b))
    heller = math.ceil(math.log2(61 * math.log(2) / -math.log(ratio)))
    return max(heller, (n // 129).bit_length())


@settings(max_examples=40, deadline=None)
@given(dominant_systems(), st.sampled_from([False, True]))
def test_cyclic_reduction_stops_at_decoupled_rows(system, periodic):
    a, b, c, d = system
    n = len(d)
    x, levels = _solved_counting(a, b, c, d, periodic)
    # the full reduction eliminates n.bit_length() - 1 levels; a ratio of
    # 0.9 decouples by level 9, so from 1,024 rows on the exit is taken
    assert levels <= _exit_level(a, b, c, n)
    if periodic:
        matrix = scipy.sparse.diags([a[1:], b, c[:-1], [a[0]], [c[-1]]],
                                    [-1, 0, 1, n - 1, 1 - n], format="csc")
    else:
        matrix = scipy.sparse.diags([a[1:], b, c[:-1]], [-1, 0, 1],
                                    format="csc")
    ref = _refined(lambda r: scipy.sparse.linalg.spsolve(matrix, r),
                   a, b, c, d, periodic)
    assert np.max(np.abs(x - ref)) <= _tolerance(a, b, c, d)
    assert not np.any(_solved(a, b, c, np.zeros(n), periodic))


@settings(max_examples=20, deadline=None)
@given(st.integers(300, 5000), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([False, True]))
@example(4134, 2141779428, False)
def test_cyclic_reduction_of_coupled_rows_is_the_full_reduction(n, seed,
                                                                periodic):
    # row ratios within 1e-9 of 1 stay near 1 through every level, so the
    # reduction never stops early, and testing for decoupled rows changes
    # no bit of the solution (_DECOUPLE_ROWS = 0 tests no level).  The
    # couplings of a row are equal: independent ones make the sum of
    # log(|a|/|c|) a random walk along the rows, which over some 4,000 rows
    # decouples the last levels (as n = 4134 with this seed once did)
    rng = np.random.default_rng(seed)
    a = -rng.uniform(0.1, 1.0, n)
    c = a.copy()
    b = (np.abs(a) + np.abs(c)) * (1.0 + rng.uniform(1e-10, 1e-9, n))
    d = rng.uniform(-1.0, 1.0, n)
    x, levels = _solved_counting(a, b, c, d, periodic)
    assert levels == n.bit_length() - 1
    with mock.patch.object(solver, "_DECOUPLE_ROWS", 0):
        full = _solved(a, b, c, d, periodic)
    assert x.tobytes() == full.tobytes()
