"""Unit tests for the diagnostic functionals, with independent oracles:
quadrature/closed forms for entropies, a subsequence oracle for total
variation, the exact jump scaling for the gradient probe, and the
closed-form Gronwall envelope on constant-density trajectories."""
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from nsvisc1d import Grid1D, Params, State
from nsvisc1d.diagnostics import (
    DiagnosticsRecord,
    bd_dissipation_rate,
    bd_entropy,
    compute_record,
    energy,
    gronwall_envelope,
    gronwall_sup_bound,
    h1_phi1,
    jump_amplitude,
    l1_momenta,
    mass,
    total_variation,
)
from nsvisc1d.core import phi1, pi_rel, to_effective
from nsvisc1d.mms import ManufacturedSolution
from nsvisc1d.solver import SchemeConfig, run


def far_w(s, g, p):
    """Effective momentum of a primitive state under far-field ghosts."""
    return to_effective(s, g, p).w


def make_grid(cells=400, lo=-10.0, hi=10.0):
    return Grid1D(lo, hi, cells)


def test_mass_and_l1():
    g = make_grid(cells=100, lo=0.0, hi=1.0)
    p = Params()
    s = State(np.full(100, p.rho_bar), np.full(100, -0.5))
    assert mass(s, g) == pytest.approx(1.0)
    # at the far-field density grad phi1 vanishes identically, so w = m
    l1u, l1v = l1_momenta(s, far_w(s, g, p), g)
    assert l1u == pytest.approx(0.5)
    assert l1v == pytest.approx(0.5)


def test_bd_entropy_and_energy_zero_at_equilibrium():
    g = make_grid()
    p = Params()
    s = State(np.full(g.cells, p.rho_bar), np.zeros(g.cells))
    assert bd_entropy(s, far_w(s, g, p), g, p) == pytest.approx(0.0,
                                                                abs=1e-15)
    assert energy(s, g, p) == pytest.approx(0.0, abs=1e-15)


def test_bd_entropy_equals_energy_for_flat_density():
    # with d_x rho = 0, v = u and the two functionals coincide
    g = make_grid(cells=200, lo=0.0, hi=1.0)
    p = Params()
    x = g.centers()
    s = State(np.full(g.cells, p.rho_bar), 0.3 * np.sin(2 * np.pi * x))
    assert bd_entropy(s, far_w(s, g, p), g, p) == pytest.approx(
        energy(s, g, p), rel=1e-12)


def test_energy_closed_form():
    g = make_grid(cells=4000, lo=-8.0, hi=8.0)
    p = Params()
    x = g.centers()
    rho = np.full(g.cells, p.rho_bar)
    u = 0.2 * np.exp(-x ** 2)
    s = State(rho, rho * u)
    oracle, _ = quad(lambda y: 0.5 * (0.2 * math.exp(-y * y)) ** 2, -8, 8)
    assert energy(s, g, p) == pytest.approx(oracle, rel=1e-6)


def test_total_variation_subsequence_oracle():
    rng = np.random.default_rng(7)
    f = rng.normal(size=200)
    tv = total_variation(f)
    assert tv == pytest.approx(float(np.sum(np.abs(np.diff(f)))))
    # any subsequence variation is a lower bound for the BV supremum
    for _ in range(50):
        idx = np.sort(rng.choice(200, size=rng.integers(2, 60),
                                 replace=False))
        sub = float(np.sum(np.abs(np.diff(f[idx]))))
        assert sub <= tv + 1e-12


def test_h1_phi1_jump_scaling():
    # two interior jumps 1 -> 2 -> 1: h1 = sqrt(2) * |phi1(2)-phi1(1)| / sqrt(dx)
    p = Params(alpha=1.0)
    jump = float(phi1(np.array([2.0]), p)[0] - phi1(np.array([1.0]), p)[0])
    for cells in (400, 800):
        g = make_grid(cells=cells)
        x = g.centers()
        rho = np.where(np.abs(x) < 4.0, 2.0, 1.0)
        s = State(rho, np.zeros_like(rho))
        expect = math.sqrt(2.0) * abs(jump) / math.sqrt(g.dx)
        assert h1_phi1(s, g, p, "farfield") == pytest.approx(expect,
                                                             rel=1e-12)


def test_h1_phi1_converges_on_smooth_profiles():
    p = Params(alpha=1.0)
    vals = []
    for cells in (400, 800, 1600):
        g = make_grid(cells=cells)
        x = g.centers()
        s = State(1.0 + 0.5 * np.exp(-x ** 2), np.zeros(cells))
        vals.append(h1_phi1(s, g, p, "farfield"))
    assert vals[2] == pytest.approx(vals[1], rel=1e-3)
    assert vals[1] == pytest.approx(vals[0], rel=5e-3)


def test_jump_amplitude():
    g = make_grid(cells=400)
    x = g.centers()
    rho = np.where(x < 1.0, 1.0, 3.0)
    assert jump_amplitude(rho, g, 1.0) == pytest.approx(2.0)
    assert jump_amplitude(rho, g, -8.0) == pytest.approx(0.0)
    with pytest.raises(ValueError, match="outside the domain"):
        jump_amplitude(rho, g, 100.0)


def test_gronwall_sup_bound_closed_form():
    p = Params(mu=0.5, alpha=1.0, a=2.0, gamma=2.0)
    rho = np.array([0.5, 1.7])
    assert gronwall_sup_bound(rho, p) == pytest.approx(
        (2.0 * 2.0 / 0.5) * 1.7)
    pn = Params(mu=0.5, alpha=1.0, a=2.0, gamma=2.0, theta=0.25, n_reg=8.0)
    assert gronwall_sup_bound(rho, pn) == pytest.approx(
        8.0 * 1.7 + (2.0 * 2.0 / 8.0) * 1.7 ** 1.75)


def test_gronwall_envelope_constant_density_closed_form():
    # a uniform state on a periodic grid stays bit-constant, so the envelope
    # run() accumulates per step is base * exp(3 * bound * t)
    g = make_grid(cells=200, lo=0.0, hi=1.0)
    p = Params()
    s = State(np.full(g.cells, p.rho_bar), np.full(g.cells, 0.2))
    traj = run(s, 0.01, g, p, SchemeConfig(bc="periodic"),
               record_every=0.0025)
    assert len(traj.records) == 5
    for state, _ in traj.snapshots:
        assert np.all(state.rho == p.rho_bar) and np.all(state.m == 0.2)
    env, verdict = gronwall_envelope(traj)
    bound = gronwall_sup_bound(s.rho, p)
    base = traj.records[0].l1_rhou + traj.records[0].l1_rhov
    for rec, e in zip(traj.records, env):
        assert e == rec.gronwall_rhs
        assert e == pytest.approx(base * math.exp(3 * bound * rec.t),
                                  rel=1e-12)
    assert verdict

    # growing the measured momentum beyond the envelope flips the verdict
    state, rec = traj.snapshots[-1]
    traj.snapshots[-1] = (state, replace(rec, l1_rhou=50.0 * rec.l1_rhou))
    _, verdict_bad = gronwall_envelope(traj)
    assert not verdict_bad


def test_bd_dissipation_rate_quadrature_oracle():
    # gamma=2, alpha=1: rate = (4*a*gamma*mu/4) * int |d_x rho|^2
    p = Params()
    g = make_grid(cells=8000, lo=-8.0, hi=8.0)
    x = g.centers()
    rho = 1.0 + 0.5 * np.exp(-x ** 2)
    oracle, _ = quad(lambda y: 2.0 * (-y * math.exp(-y * y)) ** 2, -8, 8)
    assert bd_dissipation_rate(rho, g, p, "farfield") == pytest.approx(
        oracle, rel=1e-4)
    # alpha=0 with finite n adds the regularization term
    p2 = Params(alpha=0.0, theta=0.25, n_reg=10.0)
    r2 = bd_dissipation_rate(rho, g, p2, "farfield")
    r2_inf = bd_dissipation_rate(rho, g, Params(alpha=0.0), "farfield")
    assert r2 > r2_inf


def test_csv_schema_frozen():
    assert DiagnosticsRecord.csv_columns() == [
        "t", "mass", "l1_rhou", "l1_rhov", "bd_entropy", "energy",
        "tv_rho", "rho_max", "rho_min", "h1_phi1", "jump_amp",
        "gronwall_rhs", "dissipation_bd",
    ]


def test_compute_record_matches_direct_functionals():
    g = make_grid(cells=300)
    p = Params(alpha=1.0)
    x = g.centers()
    s = State(1.0 + 0.3 * np.exp(-x ** 2), 0.1 * np.exp(-x ** 2), t=0.4)
    w = far_w(s, g, p)
    rec = compute_record(s, w, g, p, "farfield", gronwall_rhs=1.25,
                         dissipation_bd=0.5)
    assert rec.t == 0.4
    assert rec.mass == pytest.approx(mass(s, g))
    assert (rec.l1_rhou, rec.l1_rhov) == l1_momenta(s, w, g)
    assert rec.bd_entropy == pytest.approx(bd_entropy(s, w, g, p))
    assert rec.energy == pytest.approx(energy(s, g, p))
    assert rec.tv_rho == pytest.approx(total_variation(s.rho))
    assert rec.rho_max == pytest.approx(1.3, rel=1e-3)
    assert rec.rho_min == pytest.approx(1.0, rel=1e-6)
    assert rec.h1_phi1 == pytest.approx(h1_phi1(s, g, p, "farfield"))
    assert rec.gronwall_rhs == 1.25
    assert rec.dissipation_bd == 0.5
    assert rec.csv_row()[0] == 0.4


def test_face_functionals_follow_the_boundary_rule():
    # periodic: one face per cell, the wrap-around face counted once, so a
    # rotation of the cells changes nothing and the sum matches np.roll
    g = make_grid(cells=64, lo=0.0, hi=1.0)
    p = Params(alpha=1.0)
    rho = 1.0 + 0.5 * np.sin(2 * np.pi * g.centers()) ** 2
    rho[10:20] = 2.5  # two jumps away from the edges
    f = phi1(rho, p)
    d = (np.roll(f, -1) - f) / g.dx
    expect = math.sqrt(np.sum(d * d) * g.dx)
    for shift in (0, 5, 31):
        s = State(np.roll(rho, shift), np.zeros(g.cells))
        assert h1_phi1(s, g, p, "periodic") == pytest.approx(expect,
                                                             rel=1e-13)
        assert bd_dissipation_rate(s.rho, g, p, "periodic") == \
            pytest.approx(bd_dissipation_rate(rho, g, p, "periodic"),
                          rel=1e-13)
    # far field: a jump rolled onto the edge meets the rho_bar ghosts
    rolled = State(np.roll(rho, 50), np.zeros(g.cells))
    assert h1_phi1(rolled, g, p, "farfield") != pytest.approx(
        h1_phi1(State(rho, np.zeros(g.cells)), g, p, "farfield"))


def test_periodic_effective_records_describe_the_state():
    # the records of an effective periodic run take the state's own w, not
    # one re-derived under far-field ghosts
    p = Params(mu=0.1, alpha=1.0)
    g = Grid1D(0.0, 1.0, 128)
    e = ManufacturedSolution(p).effective_state(g)
    traj = run(e, 1e-4, g, p, SchemeConfig(formulation="effective",
                                           bc="periodic"))
    rec = traj.records[0]
    assert rec.l1_rhov == float(np.sum(np.abs(e.w)) * g.dx)
    entropy = 0.5 * np.sum(e.w * e.w / e.rho + pi_rel(e.rho, p)) * g.dx
    assert rec.bd_entropy == pytest.approx(entropy, rel=1e-12, abs=0)
    # the stored primitive snapshot maps back to w under the same rule
    np.testing.assert_allclose(
        to_effective(traj.snapshots[0][0], g, p, mode="periodic").w, e.w,
        rtol=0, atol=1e-15)
