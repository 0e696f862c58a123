"""Unit tests for mollification, measure-valued momentum atoms, BV density
profiles, scenario validation, and the shipped presets."""
import math

import numpy as np
import pytest

from nsvisc1d import Grid1D, Params, initdata, to_effective
from nsvisc1d.core import centered_gradient, phi1
from nsvisc1d.initdata import (
    DEFAULT_EPS0,
    PRESET_NAMES,
    ParameterError,
    Profile,
    ScenarioSpec,
    ScenarioValidationError,
    build_scenario,
    heat_mollify,
    make_dirac_momentum,
    piecewise_density,
    preset_scenario,
)


def grid(cells=800, lo=-10.0, hi=10.0):
    return Grid1D(lo, hi, cells)


# ---------------------------------------------------------------------------
# heat mollification


def test_mollify_preserves_integral_exactly():
    g = grid()
    x = g.centers()
    data = np.where(np.abs(x) < 3.0, 2.0, 0.0) + 1.0
    out = heat_mollify(data, 1e-3, g)
    assert out.values.sum() * g.dx == pytest.approx(data.sum() * g.dx,
                                                    rel=1e-13)
    assert not out.support_clipped


def test_mollify_variance_grows_by_2tau():
    # the heat semigroup at time tau adds variance 2*tau to any profile
    g = grid(cells=2000)
    x = g.centers()
    sigma0 = 0.5
    data = np.exp(-x ** 2 / (2 * sigma0 ** 2))
    tau = 0.05
    out = heat_mollify(data, tau, g).values
    var = (np.sum(x ** 2 * out) / np.sum(out))
    assert var == pytest.approx(sigma0 ** 2 + 2 * tau, rel=1e-6)


def test_mollify_atom_route_matches_array_route():
    # mollifying a discrete delta (mass 1 in one cell) reproduces the
    # analytically sampled heat kernel
    g = grid(cells=1000)
    x = g.centers()
    i0 = 500
    data = np.zeros(g.cells)
    data[i0] = 1.0 / g.dx
    tau = 4e-2
    arr = heat_mollify(data, tau, g).values
    atom = heat_mollify([(x[i0], 1.0)], tau, g).values
    assert np.sum(np.abs(arr - atom)) * g.dx < 1e-4


def _sides_of_cut(e):
    # cells whose exponent e is clearly above and clearly below -60 ln 2,
    # where a Gaussian is 2**-60 of its peak
    cut = 60.0 * math.log(2.0)
    return e > -cut * (1 - 1e-9), e < -cut * (1 + 1e-9)


def test_gaussians_are_exactly_zero_beyond_the_cut():
    # the profile and an atom's heat kernel are their closed forms, byte for
    # byte, down to 2**-60 of the peak, and exactly 0 below: the far field
    # is at rest
    g = grid(cells=4000, lo=-20.0, hi=20.0)
    x = g.centers()
    z = (x - 0.3) / 1.1
    e = -0.5 * z * z
    with np.errstate(under="ignore"):
        closed = 0.7 * np.exp(e)
    got = Profile("gauss", center=0.3, amplitude=0.7, width=1.1).sample(x)
    inside, outside = _sides_of_cut(e)
    tau = 0.05
    e = -(x + 2.5) ** 2 / (4.0 * tau)
    with np.errstate(under="ignore"):
        closed_atom = -0.2 * np.exp(e) / math.sqrt(4.0 * math.pi * tau)
    atom = heat_mollify([(-2.5, -0.2)], tau, g).values
    inside_atom, outside_atom = _sides_of_cut(e)
    for values, exact, ins, out in ((got, closed, inside, outside),
                                    (atom, closed_atom, inside_atom,
                                     outside_atom)):
        assert ins.sum() > 100 and out.sum() > 100
        assert values[ins].tobytes() == exact[ins].tobytes()
        assert values[out].tobytes() == np.zeros(out.sum()).tobytes()
        assert np.any(exact[out] != 0.0)
        assert np.all(ins | out)


def test_gaussians_far_beyond_the_cut_raise_nothing():
    # 1e4 widths from the centre the exponential would underflow; it is
    # not evaluated there
    prof = Profile("gauss", center=1.0, amplitude=0.1, width=0.5)
    x = 1.0 + 0.5 * np.array([-1e4, 0.0, 1e4])
    g = grid(cells=5)  # centres 0, +-4, +-8
    tau = 0.5 * (8.0 / 1e4) ** 2  # width sqrt(2 tau): +-8 is 1e4 widths
    with np.errstate(all="raise"):
        assert prof.sample(x).tolist() == [0.0, 0.1, 0.0]
        atom = heat_mollify([(0.0, 1.0)], tau, g).values
    assert atom[2] > 0.0
    assert atom[[0, 1, 3, 4]].tolist() == [0.0] * 4


def test_mollify_rejects_nonpositive_tau():
    g = grid()
    with pytest.raises(ParameterError):
        heat_mollify(np.ones(g.cells), 0.0, g)


def test_mollify_clipped_flag():
    g = grid(cells=100, lo=-0.5, hi=0.5)
    out = heat_mollify(np.ones(g.cells), 1.0, g)
    assert out.support_clipped
    # a kernel 8 sigma wide would not fit in memory: it is cut at the
    # grid's width, still flagged
    huge = heat_mollify(np.ones(g.cells), 1e300, g)
    assert huge.support_clipped
    np.testing.assert_allclose(huge.values, 1.0, rtol=1e-14)


@pytest.mark.parametrize("cells, tau", [(800, 1e-3), (800, 0.05),
                                        (300, 2.0), (64, 1e300)])
def test_mollify_matches_the_full_convolution_bit_for_bit(cells, tau):
    # outputs whose window holds only +0 are left at 0 unconvolved; every
    # output keeps the bytes of the full edge-padded convolution, with NaN,
    # -0 and nonzero edges among the data
    g = grid(cells)
    w = initdata._kernel(tau, g.dx, cells)
    half = (len(w) - 1) // 2
    rng = np.random.default_rng(cells)
    for trial in range(20):
        data = np.zeros(cells)
        for _ in range(trial % 4):
            lo = rng.integers(cells)
            hi = min(lo + rng.integers(1, 60), cells)
            data[lo:hi] = rng.standard_normal(hi - lo) \
                * 10.0 ** rng.uniform(-100, 100)
        spot = rng.integers(cells)
        data[spot] = (data[spot], np.nan, -0.0, 1.5)[trial % 4]
        if trial % 5 == 0:
            data[0 if trial % 10 else -1] = rng.standard_normal()
        full = np.convolve(np.pad(data, half, mode="edge"), w, mode="valid")
        assert heat_mollify(data, tau, g).values.tobytes() == full.tobytes()


def test_dirac_momentum_mass_and_peak():
    g = grid(cells=4000)
    tau = 1e-3
    m = make_dirac_momentum([(0.0, 0.25), (2.0, -0.1)], tau, g)
    assert np.sum(m) * g.dx == pytest.approx(0.15, abs=1e-10)
    peak = g.centers()[np.argmax(m)]
    assert abs(peak) < 2 * g.dx
    # cell centers sit dx/2 off the atom location, so allow the half-cell
    # sampling offset in the peak value
    assert np.max(m) == pytest.approx(
        0.25 / math.sqrt(4 * math.pi * tau), rel=3e-3)
    assert make_dirac_momentum([], tau, g).max() == 0.0


# ---------------------------------------------------------------------------
# density profiles


def test_piecewise_density():
    g = grid(cells=100)
    rho = piecewise_density((-2.0, 3.0), (1.0, 4.0, 2.0), g)
    x = g.centers()
    np.testing.assert_array_equal(rho[x < -2.0], 1.0)
    np.testing.assert_array_equal(rho[(x > -2.0) & (x < 3.0)], 4.0)
    np.testing.assert_array_equal(rho[x > 3.0], 2.0)


# ---------------------------------------------------------------------------
# scenario validation


def spec(**kw):
    base = dict(kind="theo1-strong-coupling", params=Params(alpha=1.0),
                density_breaks=(0.0,), density_values=(1.0, 2.0))
    base.update(kw)
    return ScenarioSpec(**base)


def test_validate_accepts_regime_consistent_data():
    spec().validate()


def test_validate_unknown_kind():
    with pytest.raises(ScenarioValidationError):
        spec(kind="mystery").validate()


def test_validate_density_shape_errors_aggregate():
    bad = spec(density_breaks=(3.0, 1.0), density_values=(1.0, -2.0))
    with pytest.raises(ScenarioValidationError) as exc:
        bad.validate()
    text = " ".join(exc.value.violations)
    assert "one more value" in text
    assert "0 < c" in text
    assert "increasing" in text


def test_validate_strong_coupling_constraints():
    with pytest.raises(ScenarioValidationError):
        spec(params=Params(alpha=0.0)).validate()
    with pytest.raises(ScenarioValidationError):
        spec(params=Params(alpha=0.5)).validate()
    with pytest.raises(ScenarioValidationError):
        spec(params=Params(alpha=3.0, gamma=2.0)).validate()
    with pytest.raises(ScenarioValidationError):
        spec(momentum_atoms=((0.0, 0.1),)).validate()


def test_validate_constant_visc_constraints():
    ok = spec(kind="theo2-constant-visc", params=Params(alpha=0.0))
    ok.validate()
    with pytest.raises(ScenarioValidationError):
        spec(kind="theo2-constant-visc", params=Params(alpha=1.0)).validate()


@pytest.mark.parametrize("kind, alpha, read, unread", [
    ("theo1-strong-coupling", 1.0, "v0", "u0"),
    ("theo2-constant-visc", 0.0, "v0", "u0"),
    ("corbis-weak-coupling", 1.0, "u0", "v0"),
    ("hoff-L2-velocity", 0.0, "u0", "v0")])
def test_validate_rejects_the_profile_a_kind_does_not_read(kind, alpha, read,
                                                          unread):
    gauss = Profile("gauss", center=0.0, amplitude=0.5, width=1.0)
    spec(kind=kind, params=Params(alpha=alpha), **{read: gauss}).validate()
    with pytest.raises(ScenarioValidationError) as exc:
        spec(kind=kind, params=Params(alpha=alpha),
             **{unread: gauss}).validate()
    assert exc.value.violations == [
        f"{kind} data do not read {unread}: it must be zero"]


def test_validate_custom_reads_both_profiles():
    gauss = Profile("gauss", center=0.0, amplitude=0.5, width=1.0)
    spec(kind="custom", u0=gauss, v0=gauss).validate()


def test_validate_atoms_need_positive_tau():
    with pytest.raises(ScenarioValidationError):
        spec(kind="corbis-weak-coupling", momentum_atoms=((0.0, 0.1),),
             mollify_tau=0.0).validate()


def test_resolved_tau_defaults_to_grid_scale():
    g = grid()
    assert spec().resolved_tau(g) == pytest.approx(4.0 * g.dx ** 2)
    assert spec(mollify_tau=0.125).resolved_tau(g) == 0.125


# ---------------------------------------------------------------------------
# scenario assembly


def test_build_theo1_momentum_integral_vanishes():
    # m0 = -d_x phi1(rho0) with matching far fields integrates to zero
    g = grid(cells=1024)
    s = spec(density_breaks=(-2.0, 2.0), density_values=(1.0, 2.0, 1.0))
    built = build_scenario(s, g)
    assert abs(np.sum(built.state.m) * g.dx) < 1e-12
    # effective momentum then vanishes up to the gradient-operator mismatch
    assert np.max(np.abs(to_effective(built.state, g, s.params).w)) < 1e-2


def test_build_mollifies_the_jump():
    g = grid(cells=1024)
    built = build_scenario(
        spec(density_breaks=(-2.0, 2.0), density_values=(1.0, 2.0, 1.0)), g)
    rho = built.state.rho
    assert np.max(np.abs(np.diff(rho))) < 0.6  # jump spread over cells
    assert rho.min() >= 1.0 - 1e-12 and rho.max() <= 2.0 + 1e-12


def test_build_mirror_symmetry():
    g = grid(cells=1024)
    built = build_scenario(
        spec(density_breaks=(-2.0, 2.0), density_values=(1.0, 2.0, 1.0)), g)
    np.testing.assert_allclose(built.state.rho, built.state.rho[::-1],
                               rtol=0, atol=1e-13)


def test_build_corbis_momentum_carries_atom_mass():
    g = grid(cells=1024)
    s = ScenarioSpec(kind="corbis-weak-coupling", params=Params(alpha=1.0),
                     density_breaks=(-2.0, 2.0),
                     density_values=(1.0, 2.0, 1.0),
                     momentum_atoms=((0.0, 0.07),))
    built = build_scenario(s, g)
    assert np.sum(built.state.m) * g.dx == pytest.approx(0.07, abs=1e-8)


def test_build_smallness_warning():
    g = grid(cells=512)
    s = ScenarioSpec(kind="corbis-weak-coupling", params=Params(alpha=1.0),
                     density_values=(1.0,),
                     momentum_atoms=((0.0, 5.0),))
    built = build_scenario(s, g)
    assert built.smallness > DEFAULT_EPS0
    assert any("smallness" in w for w in built.warnings)


def test_build_farfield_mismatch_warning():
    g = grid(cells=512)
    s = ScenarioSpec(kind="custom", params=Params(),
                     density_values=(1.5,))
    built = build_scenario(s, g)
    assert any("rho_bar" in w for w in built.warnings)


def test_build_hoff_velocity_profile():
    g = grid(cells=512)
    s = ScenarioSpec(kind="hoff-L2-velocity", params=Params(alpha=0.0),
                     density_values=(1.0,),
                     u0=Profile("gauss", center=0.0, amplitude=0.2, width=1.0))
    built = build_scenario(s, g)
    u = built.state.m / built.state.rho
    assert np.max(u) == pytest.approx(0.2, rel=1e-2)


def test_build_custom_effective_velocity_profile():
    # custom data with v0 take m0 = rho0 v0 - d_x phi1(rho0) (u0 is zero):
    # unmollified, with edges at rho_bar, their effective momentum is
    # rho0 v0 to rounding
    g = grid(cells=512)
    p = Params(alpha=1.0)
    v0 = Profile("gauss", center=0.0, amplitude=0.5, width=1.0)
    s = ScenarioSpec(kind="custom", params=p, density_breaks=(-2.0, 2.0),
                     density_values=(1.0, 2.0, 1.0), v0=v0, mollify_tau=0.0)
    built = build_scenario(s, g)
    rho0 = piecewise_density(s.density_breaks, s.density_values, g)
    assert np.array_equal(built.state.rho, rho0)
    rho_v0 = rho0 * v0.sample(g.centers())
    grad_phi1 = centered_gradient(phi1(rho0, p), g, mode="edge")
    assert np.max(np.abs(grad_phi1)) > 1.0
    rounding = 4 * np.finfo(float).eps * np.max(np.abs(grad_phi1))
    assert np.max(np.abs(built.state.m - (rho_v0 - grad_phi1))) <= rounding
    w = to_effective(built.state, g, p).w
    assert np.max(np.abs(w - rho_v0)) <= rounding


# ---------------------------------------------------------------------------
# presets


def test_preset_names_cover_all_regimes():
    assert PRESET_NAMES == ("equilibrium", "theo1", "corbis", "theo2", "hoff")
    kinds = {preset_scenario(n).kind for n in PRESET_NAMES}
    assert kinds == {"custom", "theo1-strong-coupling",
                     "corbis-weak-coupling", "theo2-constant-visc",
                     "hoff-L2-velocity"}


def test_presets_validate_and_build():
    g = grid(cells=512, lo=-20.0, hi=20.0)
    for name in PRESET_NAMES:
        s = preset_scenario(name)
        s.validate()
        built = build_scenario(s, g)
        assert built.state.rho.min() > 0


@pytest.mark.parametrize("cells", [512, 5120, 20480])
def test_presets_hold_the_far_field_exactly(cells):
    # the mollified density keeps its edge value rho_bar bit for bit, so the
    # far field is at exact rest and a run need not step it
    g = grid(cells=cells, lo=-20.0, hi=20.0)
    for name in PRESET_NAMES:
        s = preset_scenario(name)
        rho = build_scenario(s, g).state.rho
        assert rho[0] == rho[-1] == s.params.rho_bar, name


def test_preset_unknown_name():
    with pytest.raises(KeyError):
        preset_scenario("vortex")


def test_profile_kinds():
    x = np.linspace(-1, 1, 11)
    np.testing.assert_array_equal(Profile("zero").sample(x), 0.0)
    gau = Profile("gauss", center=0.0, amplitude=2.0, width=0.5).sample(x)
    assert gau[5] == pytest.approx(2.0)
    # the cut to exact zeros keeps a NaN a NaN
    assert np.isnan(Profile("gauss", center=np.nan).sample(x)).all()
    with pytest.raises(ValueError):
        Profile("step").sample(x)
