"""Run configuration, flat key-value config parsing, scenario execution with
CSV/JSON artifacts, and the refinement / regularization-sequence studies."""
from __future__ import annotations

import csv
import json
import logging
import math
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import diagnostics
from .core import Grid1D, Params, to_effective
from .initdata import (
    PRESET_NAMES,
    Profile,
    ScenarioSpec,
    ScenarioValidationError,
    build_scenario,
    preset_scenario,
)
from .solver import SchemeConfig, Trajectory, run

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3

log = logging.getLogger(__name__)


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class StudySpec:
    dx_refinement: tuple = ()
    n_sequence: tuple = ()

    def __post_init__(self):
        cells = self.dx_refinement
        if cells and (len(cells) < 2 or cells[0] < 4 or any(
                fine <= coarse or fine % coarse
                for coarse, fine in zip(cells, cells[1:]))):
            raise ValueError("dx_refinement takes two or more cell counts, "
                             "at least 4 and strictly increasing, each a "
                             "multiple of the one before")
        ns = self.n_sequence
        if ns and not (len(ns) >= 2 and ns[0] >= 1 and ns[-1] == math.inf
                       and all(coarse < fine
                               for coarse, fine in zip(ns, ns[1:]))):
            raise ValueError("n_sequence takes two or more entries, at least "
                             "1 and strictly increasing, ending with inf")


@dataclass(frozen=True)
class RunConfig:
    scenario: ScenarioSpec
    grid: Grid1D
    scheme: SchemeConfig = SchemeConfig()
    t_end: float = 0.02
    record_every: float = 0.002
    output_dir: str = "out"
    study: StudySpec = StudySpec()
    jump_x0: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.t_end) and self.t_end > 0):
            raise ValueError("t_end must be positive and finite")
        if not (math.isfinite(self.record_every) and self.record_every >= 0):
            raise ValueError("record_every must be nonnegative and finite")
        if not self.grid.x_min <= self.jump_x0 <= self.grid.x_max:
            raise ValueError("jump_x0 must lie in [grid.x_min, grid.x_max]")

    @property
    def params(self) -> Params:
        return self.scenario.params


# ---------------------------------------------------------------------------
# config text format: one `section.key = value` per line, '#' comments


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _list(item):
    """Parser of a comma-separated list of `item`s; blank entries are skipped."""
    return lambda text: tuple(item(v) for v in text.split(",") if v.strip())


def _one_of(*names):
    def parse(text: str) -> str:
        if text not in names:
            raise ValueError(f"expected one of {', '.join(names)}")
        return text
    return parse


def _atoms(text: str) -> tuple:
    pairs = (pair.split(":") for pair in text.split(";") if pair.strip())
    return tuple((_finite(x), _finite(mass)) for x, mass in pairs)


def _profile(text: str) -> Profile:
    if text == "zero":
        return Profile("zero")
    if text.startswith("gauss:"):
        center, amp, width = (_finite(v) for v in text[6:].split(","))
        if width > 0:
            return Profile("gauss", center=center, amplitude=amp, width=width)
    raise ValueError("expected zero or gauss:center,amplitude,width "
                     "with width > 0")


def _tau(text: str) -> float | None:
    tau = None if text == "auto" else _finite(text)
    if tau is not None and tau < 0:
        raise ValueError("expected auto or a time >= 0")
    return tau


#: Every accepted config key -> (target, field, parser).  The targets are
#: the preset name, the Params, Grid1D, ScenarioSpec, SchemeConfig and
#: StudySpec fields, and RunConfig's own fields ("run").
CONFIG_KEYS = {
    "preset": ("preset", "name", _one_of(*PRESET_NAMES)),
    "params.mu": ("params", "mu", float),
    "params.alpha": ("params", "alpha", float),
    "params.a": ("params", "a", float),
    "params.gamma": ("params", "gamma", float),
    "params.rho_bar": ("params", "rho_bar", float),
    "params.theta": ("params", "theta", float),
    "params.n_reg": ("params", "n_reg", float),
    "grid.x_min": ("grid", "x_min", float),
    "grid.x_max": ("grid", "x_max", float),
    "grid.cells": ("grid", "cells", int),
    "scenario.kind": ("scenario", "kind", str),
    "scenario.density_values": ("scenario", "density_values", _list(_finite)),
    "scenario.density_breaks": ("scenario", "density_breaks", _list(_finite)),
    "scenario.atoms": ("scenario", "momentum_atoms", _atoms),
    "scenario.v0": ("scenario", "v0", _profile),
    "scenario.u0": ("scenario", "u0", _profile),
    "scenario.mollify_tau": ("scenario", "mollify_tau", _tau),
    "scheme.formulation": ("scheme", "formulation", str),
    "scheme.cfl_safety": ("scheme", "cfl_safety", float),
    "scheme.max_steps": ("scheme", "max_steps", int),
    "scheme.bc": ("scheme", "bc", str),
    "run.t_end": ("run", "t_end", float),
    "run.record_every": ("run", "record_every", float),
    "run.jump_x0": ("run", "jump_x0", float),
    "output.dir": ("run", "output_dir", str),
    "study.dx_refinement": ("study", "dx_refinement", _list(int)),
    "study.n_sequence": ("study", "n_sequence", _list(float)),
}


def parse_config(text: str) -> RunConfig:
    """Parse and validate the flat key-value config format; raises
    ConfigError listing every offending line or field."""
    raw = {}
    errors = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value'")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        raw[key] = value
    if errors:
        raise ConfigError(errors)
    return config_from_mapping(raw)


def config_from_mapping(raw: dict) -> RunConfig:
    """Build a RunConfig from `key -> value text` pairs over the preset's
    defaults (or the built-in ones without a preset); raises ConfigError
    listing every offending key and field."""
    errors = []
    fields = {target: {} for target, _, _ in CONFIG_KEYS.values()}
    for key, text in raw.items():
        if key not in CONFIG_KEYS:
            errors.append(f"unknown key {key!r}")
            continue
        target, name, parse = CONFIG_KEYS[key]
        text = str(text).strip()
        try:
            fields[target][name] = parse(text)
        except ValueError as exc:
            errors.append(f"{key}: cannot parse {text!r}: {exc}")

    def build(label, default):
        try:
            return replace(default, **fields[label])
        except ValueError as exc:
            errors.append(f"{label}: {exc}")
            return default

    preset = fields["preset"].get("name")
    base = preset_scenario(preset) if preset else None
    params = build("params", base.params if base else Params())
    grid = build("grid", Grid1D(-20.0, 20.0, 1024))
    scheme = build("scheme", SchemeConfig())
    study = build("study", StudySpec())
    # without a preset the density defaults to the (overridden) rho_bar
    scenario = replace(base or ScenarioSpec("custom", params,
                                            density_values=(params.rho_bar,)),
                       params=params, **fields["scenario"])
    try:
        scenario.validate()
    except ScenarioValidationError as exc:
        errors.extend(exc.violations)
    try:
        cfg = RunConfig(scenario, grid, scheme, study=study, **fields["run"])
    except ValueError as exc:
        errors.append(f"run: {exc}")
    if errors:
        raise ConfigError(errors)
    return cfg


def preset_config(name: str, **overrides) -> RunConfig:
    raw = {"preset": name}
    raw.update({k: str(v) for k, v in overrides.items()})
    return config_from_mapping(raw)


# ---------------------------------------------------------------------------
# execution and artifacts


def simulate(cfg: RunConfig) -> Trajectory:
    """Build the scenario and run it; the scenario's warnings are logged and
    carried on the trajectory."""
    built = build_scenario(cfg.scenario, cfg.grid)
    for warning in built.warnings:
        log.warning("%s", warning)
    initial = built.state
    if cfg.scheme.formulation == "effective":
        initial = to_effective(initial, cfg.grid, cfg.params,
                               mode=cfg.scheme.bc)
    traj = run(initial, cfg.t_end, cfg.grid, cfg.params, cfg.scheme,
               record_every=cfg.record_every, jump_x0=cfg.jump_x0)
    traj.warnings = list(built.warnings)
    return traj


def verdicts_for(traj: Trajectory, cfg: RunConfig) -> dict:
    """Pass/fail verdicts of a run; a verdict that would rest on a
    non-finite value is False."""
    records = traj.records
    bd0 = records[0].bd_entropy
    entropy_ok = math.isfinite(bd0) and all(
        r.bd_entropy <= bd0 * 1.01 + 1e-12 for r in records)
    _, gron_ok = diagnostics.gronwall_envelope(traj)
    return {
        "entropy_decay": bool(entropy_ok),
        "gronwall": bool(gron_ok),
        "mass_balance": bool(traj.mass_error_accum <= 1e-10),
        "regularization_probe": "not-evaluated",
    }


def write_artifacts(traj: Trajectory, cfg: RunConfig, out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    cols = diagnostics.DiagnosticsRecord.csv_columns()
    with open(os.path.join(out_dir, "diagnostics.csv"), "w", newline="") as fh:
        fh.write(f"# nsvisc1d diagnostics schema v{SCHEMA_VERSION}\n")
        writer = csv.writer(fh)
        writer.writerow(cols)
        for rec in traj.records:
            writer.writerow([repr(v) for v in rec.csv_row()])

    # imported here: at module level it would add to every `import nsvisc1d`
    import orjson

    def encode(a: np.ndarray) -> bytes:
        # orjson writes NaN and +-Infinity as null; a profile that blew up
        # keeps json's spelling, so the artifact shows which cells did
        if np.isfinite(a).all():
            return orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)
        return json.dumps(a.tolist(), separators=(",", ":")).encode()

    # the bytes of one orjson.dumps of {"x": ..., "snapshots": [...]},
    # written a profile at a time so that the file's text is never held whole
    with open(os.path.join(out_dir, "snapshots.json"), "wb") as fh:
        fh.write(b'{"x":%s,"snapshots":[' % encode(cfg.grid.centers()))
        for k, i in enumerate(_sparse_indices(len(traj.snapshots), 5)):
            state = traj.snapshots[i][0]
            t = orjson.dumps(state.t, option=orjson.OPT_SERIALIZE_NUMPY)
            fh.write(b'%s{"t":%s,"rho":%s,"m":%s}'
                     % (b"," if k else b"", t, encode(state.rho),
                        encode(state.m)))
        fh.write(b"]}")

    summary = {
        "status": traj.status,
        "steps": traj.steps,
        "cell_steps": traj.cell_steps,
        "dt_min": traj.dt_min,
        "dt_max": traj.dt_max,
        "stiffness_min": traj.stiffness_min,
        "stiffness_max": traj.stiffness_max,
        "cells": cfg.grid.cells,
        "t_final": traj.records[-1].t,
        "mass_error_max": traj.mass_error_max,
        "mass_error_accum": traj.mass_error_accum,
        "verdicts": verdicts_for(traj, cfg),
        "warnings": traj.warnings,
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    return summary


def _sparse_indices(n: int, cap: int) -> list:
    if n <= cap:
        return list(range(n))
    idx = np.unique(np.linspace(0, n - 1, cap).astype(int))
    return idx.tolist()


def make_output_dir(path: str) -> None:
    """Create an output directory; raises ConfigError when it cannot be
    created or written to, so a bad --out fails before any simulation."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError([f"cannot create output directory {path}: {exc}"])
    if not os.access(path, os.W_OK | os.X_OK):
        raise ConfigError([f"output directory {path} is not writable"])


def run_scenario(cfg: RunConfig, out_dir: str) -> int:
    """Execute one configured run and write diagnostics.csv, snapshots.json,
    summary.json to out_dir; returns the process exit code."""
    try:
        traj = simulate(cfg)
    except ScenarioValidationError as exc:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "summary.json"), "w") as fh:
            json.dump({"status": "validation_error",
                       "errors": exc.violations}, fh, indent=2)
        return EXIT_VALIDATION
    summary = write_artifacts(traj, cfg, out_dir)
    return EXIT_OK if summary["status"] == "completed" else EXIT_SOLVER


# ---------------------------------------------------------------------------
# studies


@dataclass
class StudyRow:
    label: str
    cells: int
    dx: float
    l1_distance: float | None
    observed_order: float | None
    h1_phi1_initial: float
    h1_phi1_final: float
    verdicts: dict
    status: str  # the member's Trajectory.status


def _sequence_study(members: list, refs: list) -> list:
    """Validate every `(label, RunConfig)` member, raising a ConfigError that
    names each invalid one, then run them in order on the calling thread.
    Row k's l1_distance is the L1 density distance at t_end to member
    refs[k] (None: no reference), projected with np.repeat onto its cells."""
    errors = []
    for label, member in members:
        try:
            member.scenario.validate()
        except ScenarioValidationError as exc:
            errors += [f"study member {label}: {v}" for v in exc.violations]
    if errors:
        raise ConfigError(errors)
    trajs = [simulate(member) for _, member in members]
    rows = []
    for (label, member), traj, ref in zip(members, trajs, refs):
        dist = None
        if ref is not None:
            ref_rho = trajs[ref].final_state.rho  # StudySpec nests the cells
            projected = np.repeat(ref_rho, member.grid.cells // ref_rho.size)
            dist = float(np.sum(np.abs(traj.final_state.rho - projected))
                         * member.grid.dx)
        rows.append(StudyRow(
            label=label, cells=member.grid.cells, dx=member.grid.dx,
            l1_distance=dist, observed_order=None,
            h1_phi1_initial=traj.records[0].h1_phi1,
            h1_phi1_final=traj.records[-1].h1_phi1,
            verdicts=verdicts_for(traj, member), status=traj.status))
    return rows


def refinement_study(cfg: RunConfig):
    """Run the scenario at each study.dx_refinement cell count; each member
    after the first reports its Cauchy L1 density distance at t_end to the
    member before it, each after the second the observed order log2 of the
    distance before over its own, and every member the trend of h1_phi1 at
    t_end over the last two members as its regularization_probe verdict."""
    if not cfg.study.dx_refinement:
        raise ConfigError(["study.dx_refinement is required"])
    members = [(str(cells), replace(cfg, grid=replace(cfg.grid, cells=cells),
                                    study=StudySpec()))
               for cells in cfg.study.dx_refinement]
    rows = _sequence_study(members, [None, *range(len(members) - 1)])
    for prev, row in zip(rows[1:], rows[2:]):
        if prev.l1_distance and row.l1_distance:
            row.observed_order = math.log2(prev.l1_distance / row.l1_distance)
    # regularization probe: does h1_phi1 at t_end settle or keep growing
    # under refinement?
    last, before = rows[-1].h1_phi1_final, rows[-2].h1_phi1_final
    ratio = last / before if before else math.inf
    for row in rows:
        row.verdicts["regularization_probe"] = (
            "persistent" if ratio >= 1.1 else "converged")
    return rows


def n_sequence_study(cfg: RunConfig):
    """Run the scenario at fixed dx for each regularization index n of
    study.n_sequence (viscosity term rho**theta/n, mollification time 1/n);
    each member before the last reports its L1 density distance at t_end
    to the last one, n = inf."""
    if not cfg.study.n_sequence:
        raise ConfigError(["study.n_sequence is required"])
    members = []
    for n in cfg.study.n_sequence:
        params = replace(cfg.scenario.params, n_reg=n)
        tau = 0.0 if math.isinf(n) else 1.0 / n
        scen = replace(cfg.scenario, params=params, mollify_tau=tau)
        members.append(("inf" if math.isinf(n) else f"{n:g}",
                        replace(cfg, scenario=scen, study=StudySpec())))
    last = len(members) - 1
    return _sequence_study(members, [last] * last + [None])


def write_study(rows, out_dir: str, name: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump([asdict(r) for r in rows], fh, indent=2)
