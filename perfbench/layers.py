"""Per-layer metrics of one traced op, derived from its spans.

A `_s` metric is either inclusive (the outermost spans of its functions) or
self time (span durations minus the time covered by child spans); the table
says which.  A metric is None where the workload never reaches the layer.
"""
from __future__ import annotations

from spans import Span, ancestors, self_times

STEP = {"solver.step_primitive", "solver.step_effective"}
EOS = {"core.viscosity", "core.sound_speed", "core.pressure"}
TRANSFORM = {"core.phi", "core.phi1", "core.to_effective",
             "core.from_effective"}
ACCUM = {"diagnostics.gronwall_sup_bound", "diagnostics.bd_dissipation_rate"}
CONFIG = {"harness.preset_config", "harness.config_from_mapping",
          "harness.parse_config"}

#: name -> unit, in report order
UNITS = {
    "solver.steps": "count",
    "solver.dt_min": "sim_time",
    "solver.dt_max": "sim_time",
    "solver.ns_per_cell_step": "ns",
    "solver.step_s": "s",
    "solver.step_self_s": "s",
    "solver.cfl_dt_s": "s",
    "solver.relax_s": "s",
    "solver.loop_self_s": "s",
    "core.eos_s": "s",
    "core.eos_calls": "count",
    "core.pad_field_s": "s",
    "core.pad_field_calls": "count",
    "core.transform_s": "s",
    "diagnostics.step_accum_s": "s",
    "diagnostics.record_s": "s",
    "diagnostics.records": "count",
    "diagnostics.envelope_s": "s",
    "harness.member_wait_s": "s",
    "harness.fanout_speedup": "ratio",
    "harness.cpu_over_wall": "ratio",
    "harness.config_s": "s",
    "initdata.build_s": "s",
    "harness.artifacts_s": "s",
    "harness.artifact_bytes": "B",
    "harness.verdicts_s": "s",
    "cli.self_s": "s",
    "harness.verdicts_false": "count",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
}

#: counts that must repeat exactly across traced ops of one seed
EXACT = ("solver.steps", "diagnostics.records", "core.eos_calls",
         "core.pad_field_calls")


class _Op:
    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.self_t = self_times(spans)
        self.ids: dict[str, list[int]] = {}
        for sid, span in enumerate(spans):
            self.ids.setdefault(span.name, []).append(sid)

    def of(self, names) -> list[int]:
        return sorted(i for n in names for i in self.ids.get(n, ()))

    def count(self, names) -> int | None:
        return len(self.of(names)) or None

    def inclusive(self, names) -> float | None:
        sids = self.of(names)
        if not sids:
            return None
        return sum(self.spans[i].duration for i in sids
                   if not any(a.name in names
                              for a in ancestors(self.spans, i)))

    def self_sum(self, names) -> float | None:
        sids = self.of(names)
        return sum(self.self_t[i] for i in sids) if sids else None


def op_metrics(spans: list[Span], cells: int, wall: float, cpu: float,
               verdicts_false: int, artifact_bytes: int) -> dict:
    """Every per-layer metric of one op except the trace.* pair, which
    compares several ops."""
    op = _Op(spans)
    m = {}
    steps = op.count(STEP)
    m["solver.steps"] = steps
    dts = [op.spans[i].result for i in op.of({"solver.cfl_dt"})]
    m["solver.dt_min"] = min(dts) if dts else None
    m["solver.dt_max"] = max(dts) if dts else None
    step_s = op.inclusive(STEP)
    m["solver.ns_per_cell_step"] = \
        step_s / (steps * cells) * 1e9 if steps else None
    m["solver.step_s"] = step_s
    m["solver.step_self_s"] = op.self_sum(STEP)
    m["solver.cfl_dt_s"] = op.inclusive({"solver.cfl_dt"})
    m["solver.relax_s"] = op.inclusive({"solver.relax_effective_momentum"})
    m["solver.loop_self_s"] = op.self_sum({"solver.run"})
    m["core.eos_s"] = op.self_sum(EOS)
    m["core.eos_calls"] = op.count(EOS)
    m["core.pad_field_s"] = op.self_sum({"core.pad_field"})
    m["core.pad_field_calls"] = op.count({"core.pad_field"})
    m["core.transform_s"] = op.self_sum(TRANSFORM)
    per_step = [i for i in op.of(ACCUM) if op.spans[i].parent is not None
                and op.spans[op.spans[i].parent].name == "solver.run"]
    m["diagnostics.step_accum_s"] = \
        sum(op.spans[i].duration for i in per_step) if per_step else None
    m["diagnostics.record_s"] = op.inclusive({"diagnostics.compute_record"})
    m["diagnostics.records"] = op.count({"diagnostics.compute_record"})
    m["diagnostics.envelope_s"] = \
        op.inclusive({"diagnostics.gronwall_envelope"})

    study = op.inclusive({"harness.n_sequence_study"})
    members = [op.spans[i] for i in op.of({"harness.simulate"})
               if any(a.name == "harness.n_sequence_study"
                      for a in ancestors(op.spans, i))]
    if study and members:
        member_cpu = sum(s.cpu for s in members)
        m["harness.member_wait_s"] = \
            sum(s.duration for s in members) - member_cpu
        m["harness.fanout_speedup"] = member_cpu / study
    else:
        m["harness.member_wait_s"] = m["harness.fanout_speedup"] = None
    m["harness.cpu_over_wall"] = cpu / wall
    m["harness.config_s"] = op.inclusive(CONFIG)
    m["initdata.build_s"] = op.inclusive({"initdata.build_scenario"})
    m["harness.artifacts_s"] = op.self_sum({"harness.write_artifacts"})
    m["harness.artifact_bytes"] = artifact_bytes or None
    m["harness.verdicts_s"] = op.inclusive({"harness.verdicts_for"})
    m["cli.self_s"] = op.self_sum({"cli.main"})
    m["harness.verdicts_false"] = verdicts_false
    return m
