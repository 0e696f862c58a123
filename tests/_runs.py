"""Shared, cached simulation runs for the test suite.

The acceptance criteria reuse the same trajectories (presets at three
resolutions); caching them at module level keeps the whole suite within a
few minutes without changing what is measured.
"""
import functools

from nsvisc1d import Grid1D, to_effective
from nsvisc1d.initdata import build_scenario, preset_scenario
from nsvisc1d.solver import SchemeConfig, run

DESK_CELLS = {128: 40 * 128, 256: 40 * 256, 512: 40 * 512}


def initial_state(built, g, p, cfg):
    """The built primitive state, or its transform under cfg.bc when cfg
    runs the effective formulation."""
    if cfg.formulation == "effective":
        return to_effective(built.state, g, p, mode=cfg.bc)
    return built.state


def desk_grid(inv_dx: int) -> Grid1D:
    """[-20, 20] grid with dx = 1/inv_dx."""
    return Grid1D(-20.0, 20.0, DESK_CELLS[inv_dx])


@functools.lru_cache(maxsize=None)
def preset_traj(name: str, inv_dx: int, formulation: str = "primitive",
                t_end: float = 0.02, record_every: float = 0.002):
    g = desk_grid(inv_dx)
    spec = preset_scenario(name)
    built = build_scenario(spec, g)
    cfg = SchemeConfig(formulation=formulation)
    return run(initial_state(built, g, spec.params, cfg), t_end, g,
               spec.params, cfg, record_every=record_every)
