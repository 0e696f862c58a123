"""Property tests of the discrete identities on random positive densities
under both boundary rules: the effective-momentum transform and its inverse,
w - m = grad phi1(rho), and the exact mass balance of one step."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nsvisc1d import (Grid1D, Params, State, centered_gradient,
                      from_effective, phi1, to_effective)
from nsvisc1d.solver import SchemeConfig, cfl_dt, step_effective, \
    step_primitive


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
