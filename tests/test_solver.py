"""Unit tests for the time steppers: CFL control, exact structural
properties (fixed points, translation invariance, mass balance, mirror
symmetry), failure statuses, and both flux/limiter options."""
import math

import numpy as np
import pytest

from _runs import initial_state
from nsvisc1d import (EffectiveState, Grid1D, Params, State, core,
                      diagnostics, solver)
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


# ---------------------------------------------------------------------------
# configuration and CFL


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(cfl_safety=0.0)
    with pytest.raises(ValueError):
        SchemeConfig(cfl_safety=1.5)
    with pytest.raises(ValueError):
        SchemeConfig(formulation="semi")
    with pytest.raises(ValueError):
        SchemeConfig(flux="godunov")
    with pytest.raises(ValueError):
        SchemeConfig(bc="reflecting")
    assert SchemeConfig().floor(Params()) == pytest.approx(1e-8)
    assert SchemeConfig().floor(Params(rho_bar=3.0)) == pytest.approx(3e-8)


def test_cfl_dt_diffusive_scaling():
    # at rest the diffusive restriction binds: dt ~ dx**2
    p = Params()
    cfg = SchemeConfig()
    dts = []
    for cells in (320, 640):
        g = small_grid(cells)
        s = State(np.full(cells, 1.0), np.zeros(cells))
        dts.append(cfl_dt(s, g, p, cfg))
    assert dts[0] / dts[1] == pytest.approx(4.0, rel=1e-6)
    assert dts[0] == pytest.approx(0.4 * 0.5 * small_grid(320).dx ** 2,
                                   rel=1e-12)


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


def test_step_budget_status():
    g, built = theo1_state()
    traj = run(built.state, 0.02, g, Params(),
               SchemeConfig(max_steps=3))
    assert traj.status == "step_budget_exhausted"
    assert traj.steps == 3


def test_record_cadence():
    # the step size must resolve the cadence for the snapshot times to land
    # near the requested multiples
    g, built = theo1_state(1280)
    traj = run(built.state, 0.008, g, Params(), SchemeConfig(),
               record_every=0.002)
    times = [r.t for r in traj.records]
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(0.008, abs=1e-12)
    assert len(times) == 5
    dt_max = 0.4 * 0.5 * g.dx ** 2
    for k, t in enumerate(times):
        assert abs(t - 0.002 * k) <= dt_max


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
    calls = {"to_effective": 0, "from_effective": 0}
    for name in calls:
        original = getattr(core, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        for module in (core, solver, diagnostics):
            monkeypatch.setattr(module, name, counted, raising=False)
    traj = run(initial, 0.004, g, Params(), cfg, record_every=0.001)
    used = "from_effective" if formulation == "effective" else "to_effective"
    assert calls == {**dict.fromkeys(calls, 0), used: len(traj.records)}


def test_run_without_cadence_records_ends_only():
    g, built = theo1_state()
    traj = run(built.state, 0.004, g, Params(), SchemeConfig())
    assert len(traj.records) == 2
    assert traj.records[0].t == 0.0


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


@pytest.mark.parametrize("flux", ["rusanov", "upwind"])
@pytest.mark.parametrize("limiter", ["mc", "minmod", "none"])
def test_flux_limiter_variants_stay_stable(flux, limiter):
    g, built = theo1_state(256)
    cfg = SchemeConfig(flux=flux, limiter=limiter)
    traj = run(built.state, 0.005, g, Params(), cfg)
    assert traj.status == "completed"
    assert traj.mass_error_max < 1e-13
    assert traj.final_state.rho.min() > 0.5


def test_unknown_limiter_rejected():
    with pytest.raises(ValueError, match="limiter"):
        SchemeConfig(limiter="superbee")
