"""Tests of the benchmark itself:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
import json
from pathlib import Path

import pytest

import layers
import spans
import workloads
from nsvisc1d import core, diagnostics, harness, initdata, solver
from spans import Span

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(name):
    first = json.dumps(workloads.scenario_overrides(name, 7))
    assert json.dumps(workloads.scenario_overrides(name, 7)) == first
    assert json.dumps(workloads.scenario_overrides(name, 8)) != first
    overrides = workloads.scenario_overrides(name, 7)
    far, plateau, far_right = (
        float(v) for v in overrides["scenario.density_values"].split(","))
    assert far == far_right == 1.0 and plateau >= 1.0
    assert ("scenario.u0" in overrides) == (name == "hoff-eff-cli")
    cfg = harness.preset_config(workloads.WORKLOADS[name].preset, **overrides)
    assert cfg.scenario.density_values == (1.0, plateau, 1.0)


def test_self_time_on_nested_tree():
    tree = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),      # overlaps b: parallel threads
        Span("b", 3.0, 6.0, 0),
        Span("a", 2.0, 3.0, 1),      # nested span of the same name
        Span("c", 8.0, 12.0, 0),     # outlives its parent: clipped
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])
    op = layers._Op(tree)
    assert op.inclusive({"a"}) == pytest.approx(3.0)
    assert op.self_sum({"a"}) == pytest.approx(3.0)
    assert op.count({"a", "b"}) == 3
    assert op.inclusive({"missing"}) is None


def _bindings():
    return {(mod.__name__, attr): value for mod in spans.MODULES
            for attr, value in vars(mod).items()}


def test_wrappers_cover_importers_and_are_restored():
    before = _bindings()
    tracer = spans.Tracer()
    undo = spans.install(spans.tracing_wrappers(tracer))
    try:
        # the names bound by `from .core import ...` are wrapped as well
        for mod, attr in ((solver, "viscosity"), (diagnostics, "pad_field"),
                          (initdata, "phi1"), (harness, "run"),
                          (harness, "build_scenario"), (core, "pressure")):
            assert hasattr(getattr(mod, attr), "__perfbench_original__")
        cfg = harness.preset_config("theo1", **{"grid.cells": "64"})
        built = initdata.build_scenario(cfg.scenario, cfg.grid)
        solver.run(built.state, 1e-4, cfg.grid, cfg.params, cfg.scheme)
        with pytest.raises(harness.ConfigError):
            harness.preset_config("no-such-preset")
    finally:
        spans.restore(undo)
    recorded = tracer.take()
    assert all(span.end is not None for span in recorded)
    callers = {recorded[span.parent].name for span in recorded
               if span.name == "core.viscosity" and span.parent is not None}
    assert {"solver.cfl_dt", "solver.step_primitive"} <= callers
    assert "harness.config_from_mapping" in {span.name for span in recorded}
    assert spans.leftover_wrappers() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "setup_s", "peak_rss_mb", "pass_frac"}
