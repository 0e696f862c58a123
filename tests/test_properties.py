"""Property tests of the discrete identities on random positive densities
under both boundary rules: the effective-momentum transform and its inverse,
w - m = grad phi1(rho), the exact mass balance of one step (also of a stiff
implicit one), the BD entropy over effective steps from rough data, and the
cyclic-reduction solve against scipy and dense solves."""
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nsvisc1d import (EffectiveState, Grid1D, Params, State,
                      centered_gradient, diagnostics, from_effective, phi1,
                      to_effective)
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
    ref = scipy.linalg.solve_banded((1, 1), banded, d)
    x = _solved(a, b, c, d, periodic=False)
    assert np.max(np.abs(x - ref)) <= _tolerance(a, b, c, d)
    for periodic in (False, True):
        zero = _solved(a, b, c, np.zeros(len(d)), periodic)
        assert not np.any(zero)


@settings(max_examples=200, deadline=None)
@given(tridiagonal_systems())
def test_periodic_cyclic_reduction_matches_dense_solve(system):
    a, b, c, d = system
    dense = np.diag(b) + np.diag(a[1:], -1) + np.diag(c[:-1], 1)
    dense[0, -1], dense[-1, 0] = a[0], c[-1]
    ref = np.linalg.solve(dense, d)
    x = _solved(a, b, c, d, periodic=True)
    assert np.max(np.abs(x - ref)) <= _tolerance(a, b, c, d)
