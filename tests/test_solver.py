"""Unit tests for the time steppers: CFL control, exact structural
properties (fixed points, translation invariance, mass balance, mirror
symmetry), failure statuses, and the MC-limited reconstruction."""
import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from _runs import initial_state
from nsvisc1d import (EffectiveState, Grid1D, Params, State, core,
                      diagnostics, harness, solver)
from nsvisc1d.initdata import build_scenario, preset_scenario
from nsvisc1d.solver import (
    SchemeConfig,
    cfl_dt,
    relax_effective_momentum,
    run,
    step_effective,
    step_primitive,
)


def small_grid(cells=320):
    return Grid1D(-20.0, 20.0, cells)


def theo1_state(cells=320):
    g = small_grid(cells)
    built = build_scenario(preset_scenario("theo1"), g)
    return g, built


def _bytes(state):
    mom = state.w if isinstance(state, EffectiveState) else state.m
    return state.rho.tobytes(), mom.tobytes(), state.t


# ---------------------------------------------------------------------------
# configuration and CFL


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(cfl_safety=0.0)
    with pytest.raises(ValueError):
        SchemeConfig(cfl_safety=1.5)
    with pytest.raises(ValueError):
        SchemeConfig(formulation="semi")
    with pytest.raises(TypeError):
        SchemeConfig(flux="rusanov")  # the primitive flux is Rusanov alone
    with pytest.raises(ValueError):
        SchemeConfig(bc="reflecting")
    with pytest.raises(ValueError, match="max_steps"):
        SchemeConfig(max_steps=-1)
    assert SchemeConfig().floor(Params()) == pytest.approx(1e-8)
    assert SchemeConfig().floor(Params(rho_bar=3.0)) == pytest.approx(3e-8)


def test_cfl_dt_primitive_is_advective():
    # the primitive stepper's viscous term is implicit: dt ~ dx, set by the
    # flow speed plus the sound speed alone
    p = Params()
    cfg = SchemeConfig()
    dts = []
    for cells in (320, 640):
        g = small_grid(cells)
        s = State(np.full(cells, 1.0), np.full(cells, 0.3))
        dts.append(cfl_dt(s, g, p, cfg))
    assert dts[0] / dts[1] == pytest.approx(2.0, rel=1e-12)
    c = math.sqrt(p.a * p.gamma)
    assert dts[0] == pytest.approx(0.4 * small_grid(320).dx / (0.3 + c),
                                   rel=1e-12)


def test_cfl_dt_effective_is_advective():
    # the effective stepper's drift and diffusion are implicit: at rest
    # dt ~ dx, set by the sound speed alone
    p = Params()
    cfg = SchemeConfig(formulation="effective")
    dts = []
    for cells in (320, 640):
        g = small_grid(cells)
        e = EffectiveState(np.full(cells, 1.0), np.zeros(cells))
        dts.append(cfl_dt(e, g, p, cfg))
    assert dts[0] / dts[1] == pytest.approx(2.0, rel=1e-12)
    c = math.sqrt(p.a * p.gamma)
    assert dts[0] == pytest.approx(0.4 * small_grid(320).dx / c, rel=1e-12)


def test_cfl_dt_effective_speed_is_u_not_v():
    # a density jump puts a spike of d_x phi(rho) into v = w/rho, far above
    # |u| + c; only the explicit convection by u bounds the step
    g = Grid1D(0.0, 1.0, 256)
    p = Params(alpha=0.0)
    cfg = SchemeConfig(formulation="effective", bc="periodic")
    x = g.centers()
    rho = np.where(np.abs(x - 0.5) < 0.2, 2.5, 1.0)
    ext = core.pad_field(rho, 1, "periodic")
    dphi = core.centered_difference(core.phi(ext, p), g)
    w = rho * (0.1 * np.sin(2 * np.pi * x) + dphi)
    u = w / rho - dphi
    speed = np.abs(u) + core.sound_speed(rho, p)
    assert np.max(np.abs(w / rho)) > 10 * np.max(speed)
    assert cfl_dt(EffectiveState(rho, w), g, p, cfg) == \
        cfg.cfl_safety * (g.dx / np.max(speed))


def test_bernoulli_edge_values_raise_nothing():
    # B(x) = x/expm1(x): 1 at 0, 0 where expm1 overflows (inf included),
    # the same as B(x) elsewhere, under an error state that raises
    x = np.array([0.0, 1e-300, 1e-8, 1.0, 30.0, 700.0, 710.0, 1e300,
                  np.inf])
    with np.errstate(all="raise"):
        b = solver._bernoulli(x.copy(), np.empty(9), np.empty(9),
                              np.empty(9, dtype=bool))
    assert b[0] == b[1] == 1.0
    np.testing.assert_allclose(b[2:6], x[2:6] / np.expm1(x[2:6]), rtol=1e-15)
    assert not np.any(b[6:])


def test_decoupling_test_is_exact_and_raises_nothing():
    # |A| + |C| <= 2**-60 |B| row by row: at the edge of the bound, for
    # subnormal rows (2**-60 |B| of the fourth row would round up to |A|)
    # and huge ones (the sum of the seventh overflows), and false on a NaN
    tiny = np.finfo(float).smallest_subnormal
    huge = np.finfo(float).max
    A = np.array([2.0 ** -61, 0.0, 2.0 ** -61, 2.0 ** -1059, tiny, 1e300,
                  huge, 0.0, 1.0])
    C = np.array([2.0 ** -61, 0.0, 2.0 ** -60, 0.0, 0.0, 1e300, huge, 0.0,
                  0.0])
    B = np.array([1.0, tiny, 1.0, np.nextafter(2.0 ** -999, 0.0),
                  2.0 ** -1000, 1e308, huge, np.nan, np.inf])
    expected = [True, True, False, False, True, False, False, False, True]
    with np.errstate(all="raise"):
        got = [solver._decoupled(A[i:i + 1], B[i:i + 1], C[i:i + 1],
                                 np.empty(1), np.empty(1))
               for i in range(len(B))]
        assert not solver._decoupled(A, B, C, np.empty(9), np.empty(9))
    assert got == expected


def test_solve_of_a_dominant_system_raises_nothing():
    # its couplings decay to subnormals within the full reduction's levels
    rng = np.random.default_rng(0)
    a, c = -rng.uniform(0.1, 1.0, (2, 1000))
    b = 1.0 + np.abs(a) + np.abs(c)
    d = rng.standard_normal(1000)
    with np.errstate(all="raise"):
        x = solver.solve_tridiagonal(a.copy(), b.copy(), c.copy(), d.copy())
    residual = b * x - d
    residual[1:] += a[1:] * x[:-1]
    residual[:-1] += c[:-1] * x[1:]
    assert np.max(np.abs(residual)) < 1e-14


@pytest.mark.parametrize("preset, cells", [
    ("equilibrium", 640), ("hoff", 640), ("corbis", 640),
    ("equilibrium", 5120), ("theo1", 5120), ("theo2", 5120), ("hoff", 5120),
    ("corbis", 5120)])
@pytest.mark.parametrize("formulation", ["primitive", "effective"])
def test_runs_raise_no_floating_point_error(preset, cells, formulation):
    # no division by zero, overflow, invalid operation or underflow: the
    # initial data's Gaussians are exactly 0 below 2**-60 of their peak, and
    # the solves' couplings stop before subnormals
    # (`test_solve_of_a_dominant_system_raises_nothing`)
    cfg = harness.preset_config(preset, **{
        "grid.cells": str(cells), "run.t_end": "0.002",
        "scheme.formulation": formulation})
    with np.errstate(all="raise"):
        assert harness.simulate(cfg).status == "completed"


@pytest.mark.parametrize("preset", ["hoff", "corbis"])
def test_effective_steps_track_the_primitive_on_weak_coupling(preset):
    # the drift by v is implicit, so on a density jump the effective step is
    # advective like the primitive one rather than bound by the spike in v
    steps = {}
    for formulation in ("primitive", "effective"):
        cfg = harness.preset_config(preset, **{
            "grid.cells": "5120", "run.t_end": "0.05",
            "scheme.formulation": formulation})
        traj = harness.simulate(cfg)
        assert traj.status == "completed"
        steps[formulation] = traj.steps
    assert steps["effective"] <= 1.5 * steps["primitive"]


def test_cfl_dt_rejects_bad_states():
    g = small_grid()
    p = Params()
    cfg = SchemeConfig()
    with pytest.raises(Exception):
        cfl_dt(State(np.full(g.cells, -1.0), np.zeros(g.cells)), g, p, cfg)
    bad = np.full(g.cells, 1.0)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        cfl_dt(State(bad, np.zeros(g.cells)), g, p, cfg)


# ---------------------------------------------------------------------------
# exact structural properties


@pytest.mark.parametrize("formulation", ["primitive", "effective"])
def test_equilibrium_is_exact_fixed_point(formulation):
    g = small_grid()
    p = Params()
    cfg = SchemeConfig(formulation=formulation)
    if formulation == "effective":
        s = EffectiveState(np.full(g.cells, 1.0), np.zeros(g.cells))
        stepper = step_effective
    else:
        s = State(np.full(g.cells, 1.0), np.zeros(g.cells))
        stepper = step_primitive
    dt = cfl_dt(s, g, p, cfg)
    for _ in range(100):
        s, _fluxes = stepper(s, dt, g, p, cfg)
    assert np.max(np.abs(s.rho - 1.0)) == 0.0
    mom = s.w if formulation == "effective" else s.m
    assert np.max(np.abs(mom)) == 0.0


@pytest.mark.parametrize("formulation", ["primitive", "effective"])
def test_uniform_flow_translates_unchanged(formulation):
    # constant rho with v = u = U: the relaxation source vanishes and the
    # discrete fluxes are constant, so the state is a fixed point
    g = Grid1D(0.0, 1.0, 64)
    p = Params()
    cfg = SchemeConfig(formulation=formulation, bc="periodic")
    U = 0.3
    if formulation == "effective":
        s = EffectiveState(np.full(g.cells, 1.0), np.full(g.cells, U))
        stepper = step_effective
    else:
        s = State(np.full(g.cells, 1.0), np.full(g.cells, U))
        stepper = step_primitive
    dt = cfl_dt(s, g, p, cfg)
    for _ in range(50):
        s, _ = stepper(s, dt, g, p, cfg)
    assert np.max(np.abs(s.rho - 1.0)) < 1e-14
    mom = s.w if formulation == "effective" else s.m
    assert np.max(np.abs(mom - U)) < 1e-14


@pytest.mark.parametrize("formulation", ["primitive", "effective"])
def test_mass_balance_audit(formulation):
    g, built = theo1_state()
    cfg = SchemeConfig(formulation=formulation)
    traj = run(initial_state(built, g, Params(), cfg), 0.01, g, Params(), cfg,
               record_every=0.005)
    assert traj.status == "completed"
    assert traj.mass_error_max < 1e-13
    assert traj.mass_error_accum < 1e-10


def test_mirror_symmetry_preserved():
    g = Grid1D(-10.0, 10.0, 400)
    spec = preset_scenario("theo1")
    from dataclasses import replace
    spec = replace(spec, density_breaks=(-3.0, 3.0))
    built = build_scenario(spec, g)
    traj = run(built.state, 0.01, g, spec.params, SchemeConfig())
    rho = traj.final_state.rho
    np.testing.assert_allclose(rho, rho[::-1], rtol=0, atol=1e-12)


def test_relaxation_contracts_velocity_gap():
    p = Params()
    rho = np.array([0.5, 1.0, 2.0])
    u = np.array([0.1, -0.2, 0.3])
    w = rho * (u + np.array([1.0, -1.0, 0.5]))
    w_new = relax_effective_momentum(w, rho, u, 0.1, p)
    gap_old = np.abs(w / rho - u)
    gap_new = np.abs(w_new / rho - u)
    assert np.all(gap_new < gap_old)
    # dt -> 0 leaves w unchanged; dt -> inf lands exactly on u
    np.testing.assert_allclose(relax_effective_momentum(w, rho, u, 0.0, p), w)
    np.testing.assert_allclose(
        relax_effective_momentum(w, rho, u, 1e9, p), rho * u, atol=1e-12)


# ---------------------------------------------------------------------------
# statuses and bookkeeping


def test_vacuum_breach_status():
    g = small_grid(256)
    x = g.centers()
    rho = np.full(g.cells, 1.0)
    m = 50.0 * np.sign(x)  # violent rarefaction at the center
    traj = run(State(rho, m), 1.0, g, Params(), SchemeConfig())
    assert traj.status == "vacuum_breach"
    assert 0.0 < traj.records[-1].t < 1.0
    # the failed step half-wrote the workspace's spare arrays; the run ends
    # at the state a run stopped just before that step ends at
    stopped = run(State(rho, m), 1.0, g, Params(),
                  SchemeConfig(max_steps=traj.steps))
    assert stopped.status == "step_budget_exhausted"
    assert _bytes(stopped.final_state) == _bytes(traj.final_state)


def test_step_budget_status():
    g, built = theo1_state()
    traj = run(built.state, 1.0, g, Params(),
               SchemeConfig(max_steps=3))
    assert traj.status == "step_budget_exhausted"
    assert traj.steps == 3


def test_record_cadence():
    # the step size must resolve the cadence for the snapshot times to land
    # within one step of the requested multiples
    g, built = theo1_state(1280)
    traj = run(built.state, 0.8, g, Params(), SchemeConfig(),
               record_every=0.2)
    times = [r.t for r in traj.records]
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(0.8, abs=1e-12)
    assert len(times) == 5
    for k, t in enumerate(times):
        assert abs(t - 0.2 * k) <= traj.dt_max


def test_nonfinite_state_ends_the_run():
    # a momentum spike overflows the first step's fluxes: the run keeps the
    # last finite state instead of raising
    g = small_grid(64)
    m = np.zeros(g.cells)
    m[32] = 1e306
    with np.errstate(over="ignore", invalid="ignore"):
        traj = run(State(np.ones(g.cells), m), 0.001, g, Params(),
                   SchemeConfig())
    assert traj.status == "nonfinite"
    assert traj.steps == 0
    assert len(traj.records) == 1
    np.testing.assert_array_equal(traj.final_state.m, m)


@pytest.mark.parametrize("formulation", ["primitive", "effective"])
def test_run_rejects_state_of_other_formulation(formulation):
    g, built = theo1_state()
    other = "primitive" if formulation == "effective" else "effective"
    state = initial_state(built, g, Params(), SchemeConfig(formulation=other))
    with pytest.raises(ValueError, match=formulation):
        run(state, 0.004, g, Params(), SchemeConfig(formulation=formulation))


@pytest.mark.parametrize("formulation", ["primitive", "effective"])
def test_one_transform_per_record(formulation, monkeypatch):
    # each snapshot derives its effective momentum (primitive) or its
    # primitive state (effective) once; the diagnostics transform nothing
    g, built = theo1_state()
    cfg = SchemeConfig(formulation=formulation)
    initial = initial_state(built, g, Params(), cfg)
    calls = {"to_effective": 0, "from_effective": 0, "effective_momentum": 0}
    for name in calls:
        original = getattr(core, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        for module in (core, solver, diagnostics):
            monkeypatch.setattr(module, name, counted, raising=False)
    traj = run(initial, 0.004, g, Params(), cfg, record_every=0.001)
    used = ("from_effective" if formulation == "effective"
            else "effective_momentum")
    assert calls == {**dict.fromkeys(calls, 0), used: len(traj.records)}


def test_run_without_cadence_records_ends_only():
    g, built = theo1_state()
    traj = run(built.state, 0.004, g, Params(), SchemeConfig())
    assert len(traj.records) == 2
    assert traj.records[0].t == 0.0


@pytest.mark.parametrize("every", [1e-300, 5e-324])
def test_cadence_finer_than_step_records_every_step(every):
    g, built = theo1_state()
    traj = run(built.state, 0.1, g, Params(), SchemeConfig(),
               record_every=every)
    assert traj.status == "completed" and traj.steps > 1
    assert len(traj.records) == traj.steps + 1


def test_negative_t_end_rejected():
    g, built = theo1_state()
    with pytest.raises(ValueError):
        run(built.state, -1.0, g, Params(), SchemeConfig())
    # non-finite end times and negative cadences (which never advance the
    # next record time) are rejected as well
    for t_end, every in ((math.nan, None), (math.inf, None),
                         (0.004, -1.0), (0.004, math.nan)):
        with pytest.raises(ValueError):
            run(built.state, t_end, g, Params(), SchemeConfig(),
                record_every=every)


# ---------------------------------------------------------------------------
# scheme variants


# the id names the slope limiter, MC, and the primitive flux, Rusanov
@pytest.mark.parametrize("cfg", [SchemeConfig()], ids=["mc-rusanov"])
def test_flux_limiter_variants_stay_stable(cfg):
    g, built = theo1_state(256)
    traj = run(built.state, 0.005, g, Params(), cfg)
    assert traj.status == "completed"
    assert traj.mass_error_max < 1e-13
    assert traj.final_state.rho.min() > 0.5


def test_unknown_limiter_rejected():
    # the slope limiter is MC alone, so limiter is no SchemeConfig field
    with pytest.raises(TypeError, match="limiter"):
        SchemeConfig(limiter="superbee")


# ---------------------------------------------------------------------------
# the per-run workspace


def hand_run(initial, t_end, g, p, cfg, record_every, windowed=True):
    """run() replayed with the public steppers and diagnostics, each called
    without a workspace, and cfl_dt with a fresh one (for the step's
    stiffness); the steps update the cells of run's intervals
    (`solver._window`), gathered side by side, on the grid g, unless
    `windowed` is false, when they update the whole grid.  Returns
    (snapshots, steps, mass audit, the CFL step of every step taken)."""
    effective = cfg.formulation == "effective"
    cls, stepper = ((EffectiveState, step_effective) if effective
                    else (State, step_primitive))
    tiny = 1e-12 * max(t_end, 1.0)
    state = initial
    gron = diss = mass_max = mass_acc = 0.0
    sup = diagnostics.gronwall_sup_bound(state.rho, p)
    rate = diagnostics.bd_dissipation_rate(state.rho, g, p, cfg.bc)
    mass = scale = float(np.sum(state.rho)) * g.dx
    snaps, dts = [], []

    def snap():
        sv = (core.from_effective(state, g, p, mode=cfg.bc) if effective
              else state)
        w = state.w if effective else core.effective_momentum(
            state.rho, state.m, g, p, mode=cfg.bc)
        base = (sum(diagnostics.l1_momenta(sv, w, g)) if not snaps
                else snaps[0][2])
        snaps.append((sv, diagnostics.compute_record(
            sv, w, g, p, cfg.bc, gronwall_rhs=base * math.exp(3.0 * gron),
            dissipation_bd=diss), base))

    def cfl(s):
        ws = solver.Workspace(len(s.rho), cfg.formulation)
        return cfl_dt(s, g, p, cfg, ws=ws), ws.stiffness

    def fields(s):
        return s.rho, s.w if effective else s.m

    n = g.cells
    bounds = () if windowed and cfg.bc == "farfield" else (0, n)
    snap()
    next_record = record_every
    dt_cfl, stiffness = cfl(state)
    while state.t < t_end - tiny:
        if bounds != (0, n):
            bounds = solver._window(*fields(state), bounds, stiffness, p,
                                    cfg, np.empty(n, dtype=bool))
        cells = np.concatenate([np.arange(lo, hi) for lo, hi in
                                zip(bounds[::2], bounds[1::2])])
        dt = min(dt_cfl, t_end - state.t)
        new, (f_left, f_right) = stepper(
            cls(*(f[cells] for f in fields(state)), state.t), dt, g, p, cfg)
        dts.append(dt_cfl)
        dt_cfl, stiffness = cfl(new)
        rho, mom = (f.copy() for f in fields(state))
        rho[cells], mom[cells] = fields(new)
        state = cls(rho, mom, new.t)
        mass_now = float(np.sum(state.rho)) * g.dx
        defect = abs(mass_now - mass - (f_left - f_right) * dt) / scale
        mass_max, mass_acc = max(mass_max, defect), mass_acc + defect
        mass = mass_now
        new_sup = diagnostics.gronwall_sup_bound(state.rho, p)
        gron += 0.5 * (sup + new_sup) * dt
        new_rate = diagnostics.bd_dissipation_rate(state.rho, g, p, cfg.bc)
        diss += 0.5 * (rate + new_rate) * dt
        sup, rate = new_sup, new_rate
        if state.t >= next_record - tiny:
            snap()
            while next_record <= state.t + tiny:
                next_record += record_every
    if snaps[-1][0].t < state.t - tiny:
        snap()
    return [(s, r) for s, r, _ in snaps], len(dts), (mass_max, mass_acc), dts


WORKSPACE_CASES = list(itertools.product(
    ["primitive", "effective"], ["farfield", "periodic"]))


# each id ends in the slope limiter and the primitive flux, mc-rusanov,
# which keeps the ids of these cases stable across versions of the suite
@pytest.mark.parametrize("formulation, bc", WORKSPACE_CASES,
                         ids=["-".join((*case, "mc", "rusanov"))
                              for case in WORKSPACE_CASES])
def test_run_matches_hand_loop_without_workspace(formulation, bc):
    g = Grid1D(-10.0, 10.0, 128)
    p = Params()
    built = build_scenario(preset_scenario("theo1"), g)
    cfg = SchemeConfig(formulation=formulation, bc=bc)
    initial = initial_state(built, g, p, cfg)
    traj = run(initial, 0.25, g, p, cfg, record_every=0.02)
    snaps, steps, audit, _ = hand_run(initial, 0.25, g, p, cfg, 0.02)
    assert traj.status == "completed"
    assert traj.steps == steps > 5
    assert [_bytes(s) for s, _ in traj.snapshots] == \
        [_bytes(s) for s, _ in snaps]
    assert traj.records == [r for _, r in snaps]
    assert (traj.mass_error_max, traj.mass_error_accum) == audit


@pytest.mark.parametrize("formulation", ["primitive", "effective"])
def test_steps_on_fewer_cells_use_the_start_of_a_larger_workspace(
        formulation):
    # a step and cfl_dt take their number of cells from the state: on 72 of
    # a grid's 128 cells, the grid's own workspace, its rows full of NaN,
    # gives the bytes of a workspace of 72 cells and of none
    g = Grid1D(-10.0, 10.0, 128)
    p = Params()
    cfg = SchemeConfig(formulation=formulation)
    whole = initial_state(build_scenario(preset_scenario("theo1"), g), g, p,
                          cfg)
    if formulation == "effective":
        part = EffectiveState(whole.rho[24:96], whole.w[24:96], whole.t)
        stepper = step_effective
    else:
        part = State(whole.rho[24:96], whole.m[24:96], whole.t)
        stepper = step_primitive
    big = solver.Workspace(g.cells, formulation)
    for row in (big.rho, big.mom, *big.tmp, *big.spare):
        row.fill(np.nan)
    small = solver.Workspace(72, formulation)
    results = []
    for ws in (big, small, None):
        dt = cfl_dt(part, g, p, cfg, ws=ws)
        new, fluxes = stepper(part, dt, g, p, cfg, ws=ws)
        results.append((dt, _bytes(new), fluxes))
    assert len(results[0][1][0]) == 72 * 8
    assert results[0] == results[1] == results[2]
    assert big.stiffness == small.stiffness


def _spy_windows(monkeypatch):
    # the interval bounds of every set of cells `run` takes from
    # `solver._window`
    windows = []
    window = solver._window

    def spy(*args):
        windows.append(window(*args))
        return windows[-1]

    monkeypatch.setattr(solver, "_window", spy)
    return windows


@pytest.mark.parametrize("preset", ["theo1", "corbis", "hoff"])
@pytest.mark.parametrize("formulation", ["primitive", "effective"])
def test_window_run_matches_whole_grid_to_a_few_ulps(preset, formulation,
                                                     monkeypatch):
    # on a far-field grid a run steps only the cells within a margin of a
    # face between unequal or moving states; that changes the state by
    # rounding alone (the cyclic reduction of a shorter system rounds
    # differently).  Against the whole grid, rho may move by 8 ulps of its
    # largest value and m by that over dx (m of an effective run is
    # recovered through d_x phi1(rho)); at these settings the largest moves
    # are 1 ulp and 0.16 ulp / dx
    g = Grid1D(-20.0, 20.0, 1280)
    spec = preset_scenario(preset)
    p = spec.params
    cfg = SchemeConfig(formulation=formulation)
    initial = initial_state(build_scenario(spec, g), g, p, cfg)
    windows = _spy_windows(monkeypatch)
    traj = run(initial, 0.05, g, p, cfg, record_every=0.01)
    monkeypatch.undo()
    assert traj.status == "completed"
    counts = [sum(w[1::2]) - sum(w[::2]) for w in windows]
    assert traj.cell_steps == sum(counts)
    if preset == "hoff":
        # u0's Gaussian, exactly 0 beyond 9.12 widths (2**-60 of its peak),
        # moves the plateau and the cells around it, so one interval of at
        # most 800 cells is stepped and the far field beyond it is not
        assert windows[0] == (256, 1024)
        assert max(counts) <= 0.625 * g.cells
    else:
        # the first steps skip the interior of the plateau, a constant run
        # at rest, until the margins of its two jumps meet: corbis's atom
        # moves only the cells near its centre, the plateau's left edge
        assert max(counts) < 0.5 * g.cells
        assert len(windows[0]) == 4
    if preset == "theo1":
        # the old window took every cell between the outer ones
        assert counts[0] < 0.75 * (windows[0][-1] - windows[0][0])
        assert traj.cell_steps < 0.97 * sum(w[-1] - w[0] for w in windows)
    if preset == "corbis":
        assert windows[0] == (544, 736, 808, 984)
    # the windowed hand loop is the same computation, bit for bit
    snaps, steps, audit, _ = hand_run(initial, 0.05, g, p, cfg, 0.01)
    assert traj.steps == steps > 5
    assert [_bytes(s) for s, _ in traj.snapshots] == \
        [_bytes(s) for s, _ in snaps]
    assert traj.records == [r for _, r in snaps]
    assert (traj.mass_error_max, traj.mass_error_accum) == audit
    whole, steps, _, _ = hand_run(initial, 0.05, g, p, cfg, 0.01,
                                  windowed=False)
    assert traj.steps == steps
    for (a, ra), (b, rb) in zip(traj.snapshots, whole, strict=True):
        assert a.t == pytest.approx(b.t, rel=1e-14)
        ulp = np.finfo(float).eps * np.max(b.rho)
        assert np.max(np.abs(a.rho - b.rho)) <= 8 * ulp
        assert np.max(np.abs(a.m - b.m)) <= 8 * ulp / g.dx
        for name, value in dataclasses.asdict(ra).items():
            assert value == pytest.approx(getattr(rb, name), rel=1e-12,
                                          abs=1e-15), name


def _stepped(bounds, cells):
    # the cells of the intervals (lo0, hi0, lo1, hi1, ...) as a mask
    mask = np.zeros(cells, dtype=bool)
    for lo, hi in zip(bounds[::2], bounds[1::2]):
        mask[lo:hi] = True
    return mask


@pytest.mark.parametrize("formulation", ["primitive", "effective"])
def test_skipped_cells_keep_their_values_bit_for_bit(formulation,
                                                     monkeypatch):
    # theo1 at dx = 1/64: the interior of the plateau is skipped at every
    # step, and it and the far field hold their initial values at every
    # record (m of an effective record is recovered through d_x phi1(rho),
    # so it is compared where both neighbours are skipped too)
    g = Grid1D(-20.0, 20.0, 2560)
    spec = preset_scenario("theo1")
    cfg = SchemeConfig(formulation=formulation)
    initial = initial_state(build_scenario(spec, g), g, spec.params, cfg)
    windows = _spy_windows(monkeypatch)
    traj = run(initial, 0.01, g, spec.params, cfg, record_every=0.0025)
    assert traj.status == "completed" and len(traj.snapshots) == 5
    skipped = ~_stepped(windows[-1], g.cells)
    x = g.centers()
    assert skipped[(x > 3.0) & (x < 5.0)].all()
    inner = skipped.copy()
    inner[1:] &= skipped[:-1]
    inner[:-1] &= skipped[1:]
    m_cells = skipped if formulation == "primitive" else inner
    first = traj.snapshots[0][0]
    for s, _ in traj.snapshots[1:]:
        assert s.rho[skipped].tobytes() == first.rho[skipped].tobytes()
        assert s.m[m_cells].tobytes() == first.m[m_cells].tobytes()


def test_moving_and_edge_runs_are_stepped():
    # a face is active between unequal states, beside a moving one, and at
    # the grid's edge beside a value other than the far field's (rho_bar =
    # 1): a constant run with momentum is stepped whole, and one at the
    # edge of the grid near its edge face as well as near its inner one; a
    # run at rest keeps only its interior, at this stiffness all but 40
    # cells from either end, out of the step
    n = 1024
    p = Params()
    cfg = SchemeConfig()
    rho, m = np.ones(n), np.zeros(n)
    rho[:300] = 1.5
    rho[500:900] = 2.0
    mask = np.empty(n + 4, dtype=bool)
    at_rest = solver._window(rho, m, (), 10.0, p, cfg, mask)
    assert at_rest == (0, 40, 256, 344, 456, 544, 856, 944)
    # only the stepped cells are scanned, and the set does not shrink
    assert solver._window(rho, m, at_rest, 10.0, p, cfg, mask) == at_rest
    m[500:900] = 0.1
    moving = solver._window(rho, m, (), 10.0, p, cfg, mask)
    assert moving == (0, 40, 256, 344, 456, 944)
    m[:] = 0.0
    assert solver._window(rho, m, moving, 10.0, p, cfg, mask) == moving
    rho[:300] = 1.0
    assert solver._window(rho, m, (), 10.0, p, cfg, mask) == (456, 544, 856,
                                                             944)


@pytest.mark.parametrize("formulation", ["primitive", "effective"])
def test_periodic_runs_step_the_whole_grid(formulation, monkeypatch):
    # a periodic grid has no far field: the window is the whole grid,
    # found without a scan, and the run is the whole-grid loop bit for bit
    g = Grid1D(-20.0, 20.0, 640)
    spec = preset_scenario("theo1")
    p = spec.params
    cfg = SchemeConfig(formulation=formulation, bc="periodic")
    initial = initial_state(build_scenario(spec, g), g, p, cfg)
    windows = _spy_windows(monkeypatch)
    traj = run(initial, 0.1, g, p, cfg, record_every=0.02)
    monkeypatch.undo()
    assert windows == []
    snaps, steps, audit, _ = hand_run(initial, 0.1, g, p, cfg, 0.02,
                                      windowed=False)
    assert traj.status == "completed"
    assert traj.steps == steps > 5
    assert [_bytes(s) for s, _ in traj.snapshots] == \
        [_bytes(s) for s, _ in snaps]
    assert traj.records == [r for _, r in snaps]
    assert (traj.mass_error_max, traj.mass_error_accum) == audit


def test_hoff_effective_run_skips_its_far_field():
    # u0 is exactly 0 beyond its cut, so at the benchmark's size (10,240
    # cells to t = 0.004) the run skips its far field and steps under half
    # of its cell-steps (49 %, one interval of 5,056 cells)
    cfg = harness.preset_config("hoff", **{
        "grid.cells": "10240", "run.t_end": "0.004",
        "scheme.formulation": "effective"})
    traj = harness.simulate(cfg)
    assert traj.status == "completed" and traj.steps > 5
    assert traj.cell_steps < 0.5 * traj.steps * cfg.grid.cells


@pytest.mark.parametrize("formulation", ["primitive", "effective"])
def test_dt_extremes_are_the_cfl_steps_taken(formulation):
    # t_end is not a multiple of the step, so the last step is clipped; the
    # clipped step does not count
    g = Grid1D(-10.0, 10.0, 128)
    p = Params(alpha=0.0)
    built = build_scenario(preset_scenario("hoff"), g)
    cfg = SchemeConfig(formulation=formulation)
    initial = initial_state(built, g, p, cfg)
    traj = run(initial, 0.0517, g, p, cfg)
    *_, dts = hand_run(initial, 0.0517, g, p, cfg, math.inf)
    times = [0.0] + list(np.cumsum(dts))
    assert times[-1] > 0.0517 > times[-2]
    assert 0.0517 - times[-2] < min(dts)
    assert (traj.dt_min, traj.dt_max) == (min(dts), max(dts))
    assert traj.dt_min < traj.dt_max
    still = run(initial, 0.0, g, p, cfg)
    assert (still.steps, still.dt_min, still.dt_max, still.stiffness_min,
            still.stiffness_max) == (0, None, None, None, None)


@pytest.mark.parametrize("formulation", ["primitive", "effective"])
def test_snapshots_own_their_arrays(formulation):
    # the steps write into reused arrays, so every snapshot must be a copy
    g, built = theo1_state(128)
    cfg = SchemeConfig(formulation=formulation)
    initial = initial_state(built, g, Params(), cfg)
    traj = run(initial, 0.2, g, Params(), cfg, record_every=0.05)
    assert len(traj.snapshots) == 5
    arrays = [initial.rho, initial.w if formulation == "effective"
              else initial.m]
    arrays += [a for s, _ in traj.snapshots for a in (s.rho, s.m)]
    for a, b in itertools.combinations(arrays, 2):
        assert not np.shares_memory(a, b)


def _run_peak(preset, formulation, record_every):
    # peak of run() in cell-sized arrays
    cells = 4096
    g = Grid1D(-20.0, 20.0, cells)
    spec = preset_scenario(preset)
    cfg = SchemeConfig(formulation=formulation)
    initial = initial_state(build_scenario(spec, g), g, spec.params, cfg)
    tracemalloc.start()
    try:
        run(initial, 0.002, g, spec.params, cfg, record_every=record_every)
        return tracemalloc.get_traced_memory()[1] / (8 * cells)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("preset, formulation, before", [
    ("theo1", "primitive", 21.1), ("hoff", "effective", 28.3)])
def test_run_memory_peak(preset, formulation, before):
    # `before` is what the step loop peaked at when every step allocated
    # its temporaries, and the workspace may hold at most 3 arrays more
    assert _run_peak(preset, formulation, None) <= before + 3


@pytest.mark.parametrize("preset, formulation, before", [
    ("theo1", "primitive", 23.15), ("hoff", "effective", 30.25)])
def test_run_memory_peak_with_records(preset, formulation, before):
    # the same bound with a snapshot every 0.001: a record's temporaries
    # stack on the live workspace
    assert _run_peak(preset, formulation, 0.001) <= before + 3


# ---------------------------------------------------------------------------
# the IMEX steps


@pytest.mark.parametrize("formulation, cls", [("primitive", State),
                                              ("effective", EffectiveState)])
def test_stiffness_is_the_step_over_the_explicit_limit(formulation, cls):
    # at rest at rho = 1: the advective limit dx/c over the explicit
    # diffusive limit 0.5 dx**2 rho/mu_n(rho) = 0.5 dx**2
    g = small_grid()
    p = Params()
    ws = solver.Workspace(g.cells, formulation)
    cfg = SchemeConfig(formulation=formulation)
    cfl_dt(cls(np.full(g.cells, 1.0), np.zeros(g.cells)), g, p, cfg, ws=ws)
    c = math.sqrt(p.a * p.gamma)
    assert ws.stiffness == pytest.approx(2.0 / (c * g.dx), rel=1e-12)
    # a run reports the range over its steps; theo1's shock smooths, so
    # the implicit term lengthens later steps more
    g, built = theo1_state()
    traj = run(initial_state(built, g, p, cfg), 0.2, g, p, cfg)
    assert traj.steps > 5
    assert 1.0 < traj.stiffness_min < traj.stiffness_max


def test_primitive_stiff_start_keeps_bd_entropy():
    # theo1 at dx = 1/256 through its start-up transient, recorded every
    # 5e-5, which is every step: the BD entropy peaks 0.3 % above its start
    # under IMEX-SSP2 and 1.2 % under ARS(2,2,2), whose negative explicit
    # weight on the first stage overshoots at the advective step
    cfg = harness.preset_config("theo1", **{
        "grid.cells": 40 * 256, "run.t_end": 5e-4,
        "run.record_every": 5e-5})
    traj = harness.simulate(cfg)
    assert traj.status == "completed"
    assert len(traj.records) == traj.steps + 1
    assert harness.verdicts_for(traj, cfg)["entropy_decay"]


def test_effective_hoff_needs_a_tenth_of_the_explicit_steps():
    g = Grid1D(-20.0, 20.0, 1280)
    spec = preset_scenario("hoff")
    p = spec.params
    cfg = SchemeConfig(formulation="effective")
    initial = initial_state(build_scenario(spec, g), g, p, cfg)
    traj = run(initial, 0.05, g, p, cfg)
    # the explicit diffusive limit at the initial state, which the far field
    # (rho = rho_bar) keeps for the whole run
    rho = initial.rho
    dt_explicit = 0.4 * 0.5 * g.dx ** 2 * np.min(rho / core.viscosity(rho, p))
    assert traj.status == "completed"
    assert traj.mass_error_max < 1e-13
    assert 0 < traj.steps <= 0.1 * 0.05 / dt_explicit


@pytest.mark.parametrize("p", [Params(mu=0.1, alpha=0.0),
                               Params(mu=0.1, alpha=1.0, n_reg=8.0)],
                         ids=["alpha0", "nreg8"])
def test_effective_step_is_second_order_in_time(p):
    # nonlinear density diffusion (D = mu_n(rho)/rho not constant) at fixed
    # steps near the advective limit, against a 16x finer step on the same
    # grid: the implicit coefficients must not cost an order
    g = Grid1D(0.0, 1.0, 64)
    cfg = SchemeConfig(formulation="effective", bc="periodic")
    x = g.centers()
    s = State(1.0 + 0.3 * np.sin(2 * np.pi * x), 0.2 * np.cos(2 * np.pi * x))
    e0 = core.to_effective(s, g, p, mode="periodic")
    t_end = 0.04

    def final_rho(steps):
        e = e0
        for _ in range(steps):
            e, _ = step_effective(e, t_end / steps, g, p, cfg)
        return e.rho

    ref = final_rho(320)
    errs = [np.sum(np.abs(final_rho(n) - ref)) for n in (10, 20, 40)]
    orders = [math.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert min(orders) >= 1.8, orders


# An effective step's stage-2 predictor is rho^n + sqrt(2) (rho1 - rho^n),
# rho1 the stage-1 implicit solution, since rho has no explicit flux: it
# stays positive where rho^n <= (2 + sqrt 2) rho1, 3.41 rho1.  A stiff step
# of pure diffusion takes rho1 near the mean (periodic) or near the far
# value 1 (farfield), which uniformly random densities in [0.2, 5] or
# [0.2, 3.4] meet and those in [0.2, 5] under farfield, or one spike, do not
# (the vacuum-floor FOUND in CHANGES.md).
VACUUM_FLOOR_FOUND = pytest.mark.xfail(
    strict=True, raises=core.VacuumError,
    reason="a stiff effective step's predictor falls below the vacuum floor "
    "where rho^n > (2 + sqrt 2) rho1")


def _stiff_diffusion_step(rho, alpha, ratio, bc):
    # one effective step of pure density diffusion (negligible pressure,
    # w = 0) on [0, 1] at dt = ratio * dx**2; the new density
    g = Grid1D(0.0, 1.0, len(rho))
    e = EffectiveState(rho, np.zeros(len(rho)))
    cfg = SchemeConfig(formulation="effective", bc=bc)
    new, _ = step_effective(e, ratio * g.dx ** 2, g,
                            Params(alpha=alpha, a=1e-12), cfg)
    return new.rho


@pytest.mark.parametrize("bc, high", [
    ("periodic", 5.0), ("farfield", 3.4),
    pytest.param("farfield", 5.0, marks=VACUUM_FLOOR_FOUND)])
def test_stiff_diffusion_step_of_random_data_stays_positive(bc, high):
    # 25 densities uniform in [0.2, high] on 8-64 cells per alpha and dt
    rng = np.random.default_rng(0)
    for alpha in (0.0, 0.5, 1.0, 1.5):
        for ratio in (1e2, 1e3, 1e4):
            for _ in range(25):
                rho = rng.uniform(0.2, high, rng.integers(8, 65))
                new = _stiff_diffusion_step(rho, alpha, ratio, bc)
                assert np.min(new) > 0


@VACUUM_FLOOR_FOUND
@pytest.mark.parametrize("bc, high", [("periodic", 5.0), ("farfield", 3.4)])
def test_stiff_diffusion_step_of_one_spike_stays_positive(bc, high):
    # one cell at high on 0.2 elsewhere: rho1 there falls far below
    # high / (2 + sqrt 2)
    rho = np.full(16, 0.2)
    rho[8] = high
    assert np.min(_stiff_diffusion_step(rho, 0.0, 1e2, bc)) > 0
