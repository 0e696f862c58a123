"""Unit tests for parameters, equation of state, transforms, and the shared
discrete operators.  The integral transforms are checked against adaptive
quadrature of their defining integrands."""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from nsvisc1d import (
    DomainError,
    EffectiveState,
    Grid1D,
    Params,
    State,
    UnsupportedExponentError,
    centered_gradient,
    from_effective,
    phi,
    phi1,
    phi2,
    pi_rel,
    pressure,
    sound_speed,
    to_effective,
    viscosity,
)
from nsvisc1d.core import pad_field, powf


# ---------------------------------------------------------------------------
# parameters


def test_params_defaults_and_properties():
    p = Params()
    assert p.gamma == 2.0 and p.mu == 1.0 and p.rho_bar == 1.0
    assert not p.has_reg_term
    assert Params(n_reg=8.0).has_reg_term


@pytest.mark.parametrize("kw", [
    {"mu": 0.0}, {"mu": -1.0}, {"alpha": -0.5}, {"a": 0.0},
    {"gamma": 1.0}, {"gamma": 0.9}, {"rho_bar": 0.0},
    {"theta": 0.5}, {"theta": -0.1}, {"n_reg": 0.5},
    {"mu": math.nan}, {"mu": math.inf}, {"alpha": math.inf},
    {"a": math.inf}, {"gamma": math.nan}, {"rho_bar": math.inf},
    {"theta": math.nan}, {"n_reg": math.nan},
])
def test_params_validation(kw):
    with pytest.raises(ValueError):
        Params(**kw)


def test_strong_coupling_regime():
    assert Params(alpha=1.0, gamma=2.0).strong_coupling_regime
    assert Params(alpha=0.25, gamma=1.5).strong_coupling_regime
    # gamma < alpha
    assert not Params(alpha=3.0, gamma=2.0).strong_coupling_regime
    # alpha > 1/2 with gamma < 2*alpha - 1
    assert not Params(alpha=2.0, gamma=2.5).strong_coupling_regime


def test_grid_basic():
    g = Grid1D(-1.0, 1.0, 8)
    assert g.dx == pytest.approx(0.25)
    x = g.centers()
    assert len(x) == 8
    assert x[0] == pytest.approx(-1.0 + 0.125)
    assert x[-1] == pytest.approx(1.0 - 0.125)
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        Grid1D(1.0, 0.0, 8)
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 8, ghost=1)
    for lo, hi in ((0.0, math.nan), (math.nan, 1.0), (-math.inf, 1.0)):
        with pytest.raises(ValueError):
            Grid1D(lo, hi, 8)


def test_state_shape_mismatch():
    with pytest.raises(ValueError):
        State(np.ones(4), np.zeros(5))
    with pytest.raises(ValueError):
        EffectiveState(np.ones(4), np.zeros(5))


# ---------------------------------------------------------------------------
# equation of state and powf


def test_powf_matches_power():
    rho = np.array([0.3, 1.0, 2.5])
    for e in (0.0, 0.5, 1.0, 2.0, -1.0, 1.7, -0.3):
        np.testing.assert_allclose(powf(rho, e), np.power(rho, e), rtol=1e-15)


def test_eos_closed_forms():
    p = Params(mu=0.7, alpha=1.3, a=2.0, gamma=1.8, theta=0.2, n_reg=5.0)
    rho = np.array([0.5, 1.0, 3.0])
    np.testing.assert_allclose(pressure(rho, p), 2.0 * rho ** 1.8)
    np.testing.assert_allclose(viscosity(rho, p),
                               0.7 * rho ** 1.3 + rho ** 0.2 / 5.0)
    np.testing.assert_allclose(sound_speed(rho, p),
                               np.sqrt(2.0 * 1.8 * rho ** 0.8))


# ---------------------------------------------------------------------------
# transforms against quadrature oracles


def _quad_antiderivative(integrand, rho, ref, value_at_ref):
    val, err = quad(integrand, ref, rho, epsabs=1e-13, epsrel=1e-12, limit=200)
    assert err < 1e-9
    return value_at_ref + val


TRANSFORM_CASES = [
    (phi, lambda p: lambda z: (p.mu * z ** p.alpha
                               + (z ** p.theta / p.n_reg
                                  if p.has_reg_term else 0.0)) / z ** 2),
    (phi1, lambda p: lambda z: (p.mu * z ** p.alpha
                                + (z ** p.theta / p.n_reg
                                   if p.has_reg_term else 0.0)) / z),
    (phi2, lambda p: lambda z: (p.mu * z ** p.alpha
                                + (z ** p.theta / p.n_reg
                                   if p.has_reg_term else 0.0)) / z ** 1.5),
]


@pytest.mark.parametrize("alpha,gamma", [(0.0, 2.0), (1.0, 2.0), (1.5, 3.0)])
@pytest.mark.parametrize("n_reg", [math.inf, 7.0])
def test_transforms_match_quadrature(alpha, gamma, n_reg):
    p = Params(mu=1.0, alpha=alpha, gamma=gamma, theta=0.25, n_reg=n_reg)
    densities = [1e-2, 0.3, 1.0, 2.0, 40.0]
    for fn, make_integrand in TRANSFORM_CASES:
        integrand = make_integrand(p)
        ref_val = float(fn(np.array([1.0]), p)[0])
        for rho in densities:
            oracle = _quad_antiderivative(integrand, rho, 1.0, ref_val)
            got = float(fn(np.array([rho]), p)[0])
            assert got == pytest.approx(oracle, rel=1e-9, abs=1e-9)


def test_phi2_rejects_half_exponent():
    with pytest.raises(UnsupportedExponentError):
        phi2(np.array([1.0]), Params(alpha=0.5))
    # the other transforms stay defined at alpha = 1/2
    phi(np.array([1.0]), Params(alpha=0.5))
    phi1(np.array([1.0]), Params(alpha=0.5))


def test_transforms_reject_nonpositive_density():
    for fn in (phi, phi1, phi2):
        with pytest.raises(DomainError):
            fn(np.array([1.0, 0.0]), Params())
        with pytest.raises(DomainError):
            fn(np.array([-0.5]), Params())


def test_phi_phi1_chain_rule():
    # rho * phi'(rho) = phi1'(rho), checked by central differences
    p = Params(mu=0.8, alpha=1.2, theta=0.3, n_reg=4.0)
    h = 1e-6
    for rho in (0.4, 1.0, 2.7):
        lo, hi = np.array([rho - h]), np.array([rho + h])
        dphi = float((phi(hi, p) - phi(lo, p))[0]) / (2 * h)
        dphi1 = float((phi1(hi, p) - phi1(lo, p))[0]) / (2 * h)
        assert rho * dphi == pytest.approx(dphi1, rel=1e-7)


def test_pi_rel_against_quadrature():
    p = Params(a=1.7, gamma=2.4, rho_bar=1.3)

    def oracle(rho):
        def big_pi(s):
            val, _ = quad(lambda z: p.a * z ** p.gamma / z ** 2,
                          p.rho_bar, s, epsabs=1e-13, epsrel=1e-12)
            return s * (val - p.a * p.rho_bar ** p.gamma / p.rho_bar)
        return big_pi(rho) - big_pi(p.rho_bar)

    for rho in (1e-3, 0.5, 1.3, 2.0, 10.0):
        got = float(pi_rel(np.array([rho]), p)[0])
        assert got == pytest.approx(oracle(rho), rel=1e-9, abs=1e-10)


def test_pi_rel_properties():
    p = Params()
    # zero at the reference density, P(rho_bar) at vacuum, convex positive
    assert float(pi_rel(np.array([p.rho_bar]), p)[0]) == pytest.approx(0.0)
    assert float(pi_rel(np.array([0.0]), p)[0]) == pytest.approx(
        p.a * p.rho_bar ** p.gamma)
    rho = np.linspace(0.05, 4.0, 50)
    vals = pi_rel(rho, p)
    assert np.all(vals >= -1e-14)
    assert np.all(np.diff(vals, 2) > 0)  # discrete convexity


# ---------------------------------------------------------------------------
# discrete operators and formulation transforms


def test_pad_field_modes():
    f = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(pad_field(f, 2, mode="edge"),
                                  [1, 1, 1, 2, 3, 3, 3])
    np.testing.assert_array_equal(pad_field(f, 1, mode="periodic"),
                                  [3, 1, 2, 3, 1])
    np.testing.assert_array_equal(
        pad_field(f, 1, mode="farfield", far=9.0), [9, 1, 2, 3, 9])
    with pytest.raises(ValueError):
        pad_field(f, 1, mode="mirror")


def test_centered_gradient_orders():
    g = Grid1D(0.0, 1.0, 256)
    x = g.centers()
    # exact on linear interior data (periodic closure of a sawtooth is not
    # linear, so use a linear profile with matching far-field ghosts)
    lin = 2.0 * x
    grad = centered_gradient(lin, g, mode="edge")
    np.testing.assert_allclose(grad[1:-1], 2.0, rtol=1e-12)
    # second order on a smooth periodic field
    f = np.sin(2 * np.pi * x)
    err = np.max(np.abs(centered_gradient(f, g, mode="periodic")
                        - 2 * np.pi * np.cos(2 * np.pi * x)))
    g2 = Grid1D(0.0, 1.0, 512)
    x2 = g2.centers()
    f2 = np.sin(2 * np.pi * x2)
    err2 = np.max(np.abs(centered_gradient(f2, g2, mode="periodic")
                         - 2 * np.pi * np.cos(2 * np.pi * x2)))
    assert err / err2 == pytest.approx(4.0, rel=0.05)


def test_effective_round_trip_exact():
    p = Params(alpha=1.0)
    g = Grid1D(-5.0, 5.0, 200)
    x = g.centers()
    rho = 1.0 + 0.5 * np.exp(-x ** 2)
    m = 0.3 * np.exp(-(x - 1.0) ** 2)
    s = State(rho, m, t=0.7)
    e = to_effective(s, g, p)
    back = from_effective(e, g, p)
    np.testing.assert_array_equal(back.rho, s.rho)
    # exact up to one rounding of the add/subtract pair
    np.testing.assert_allclose(back.m, s.m, rtol=0, atol=1e-15)
    assert back.t == s.t
    # w - m is the shared centered gradient of phi1(rho) to machine precision
    grad = centered_gradient(phi1(rho, p), g, mode="farfield",
                             boundary=float(phi1(p.rho_bar, p)))
    np.testing.assert_allclose(e.w - s.m, grad, rtol=0, atol=1e-15)

