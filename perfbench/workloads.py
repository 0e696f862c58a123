"""The benchmark's workloads: a seeded input generator, the operation each
workload times, and the checks every operation's output must pass.

The program receives only the generated scenario overrides.  Plateau heights
stay at or above rho_bar = 1, so min(rho / mu_n(rho)) sits in the far field
and the diffusive step limit, hence the step count, does not depend on the
seed (hoff's Gaussian u0 may add one step).
"""
from __future__ import annotations

import json
import math
import os
import random
import shutil
from dataclasses import dataclass, field

import numpy as np

from nsvisc1d import cli, harness, initdata, solver

MASS_TOL = 1e-10
VERDICT_KEYS = ("entropy_decay", "gronwall", "mass_balance")


def scenario_overrides(workload: str, seed: int) -> dict[str, str]:
    """Plateau height and breakpoints (plus a Gaussian u0 for hoff) drawn
    from `seed`; the same seed gives byte-identical strings."""
    rng = random.Random(f"{workload}:{seed}")
    height = rng.uniform(1.5, 2.5)
    left = rng.uniform(-2.0, 1.0)
    right = left + rng.uniform(4.0, 10.0)
    out = {"scenario.density_values": f"1,{height:.4f},1",
           "scenario.density_breaks": f"{left:.4f},{right:.4f}"}
    if workload == "hoff-eff-cli":
        center = rng.uniform(-2.0, 2.0)
        amplitude = rng.uniform(0.05, 0.2)
        width = rng.uniform(0.5, 2.0)
        out["scenario.u0"] = f"gauss:{center:.4f},{amplitude:.4f},{width:.4f}"
    return out


@dataclass
class Outcome:
    problems: list = field(default_factory=list)
    verdicts_false: int = 0
    artifact_bytes: int = 0


def _check_state(out: Outcome, label: str, status: str, rho,
                 mass_error_accum: float) -> None:
    if status != "completed":
        out.problems.append(f"{label}: status {status}")
    rho = np.asarray(rho, dtype=float)
    if not np.all(np.isfinite(rho)) or np.any(rho <= 0):
        out.problems.append(f"{label}: final rho not finite and positive")
    if not mass_error_accum <= MASS_TOL:
        out.problems.append(f"{label}: mass_error_accum {mass_error_accum:g}")


def _check_verdicts(out: Outcome, label: str, verdicts: dict,
                    mollified: bool) -> None:
    false = [k for k in VERDICT_KEYS if verdicts[k] is False]
    out.verdicts_false += len(false)
    required = VERDICT_KEYS if mollified else ("mass_balance",)
    for key in false:
        if key in required:
            out.problems.append(f"{label}: verdict {key} is false")


class Workload:
    name: str
    preset: str
    cells: int
    settings: dict

    def __init__(self, seed: int, scratch: str):
        self.overrides = {**self.settings,
                          **scenario_overrides(self.name, seed)}
        self.scratch = scratch

    def prepare(self):
        """In-process inputs of an op; the untraced pass prepares once."""
        return harness.preset_config(self.preset, **self.overrides)

    def op(self, inputs):
        raise NotImplementedError

    def check(self, inputs, output) -> Outcome:
        raise NotImplementedError


class PrimFine(Workload):
    name = "theo1-prim-fine"
    preset = "theo1"
    cells = 20480
    settings = {"grid.cells": "20480", "run.t_end": "0.0005",
                "scheme.formulation": "primitive"}

    def prepare(self):
        cfg = super().prepare()
        return cfg, initdata.build_scenario(cfg.scenario, cfg.grid)

    def op(self, inputs):
        cfg, built = inputs
        return solver.run(built.state, cfg.t_end, cfg.grid, cfg.params,
                          cfg.scheme, record_every=None)

    def check(self, inputs, traj) -> Outcome:
        cfg, _ = inputs
        out = Outcome()
        _check_state(out, "run", traj.status, traj.final_state.rho,
                     traj.mass_error_accum)
        _check_verdicts(out, "run", harness.verdicts_for(traj, cfg), True)
        return out


class HoffCli(Workload):
    name = "hoff-eff-cli"
    preset = "hoff"
    cells = 10240
    settings = {"grid.cells": "10240", "run.t_end": "0.004",
                "run.record_every": "0.0002",
                "scheme.formulation": "effective"}

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        self.out_dir = os.path.join(scratch, "hoff-eff-cli")

    def prepare(self):
        argv = ["run", "--preset", self.preset, "--out", self.out_dir]
        for key, value in self.overrides.items():
            argv += ["--override", f"{key}={value}"]
        return argv

    def op(self, argv):
        return cli.main(argv)

    def check(self, argv, code) -> Outcome:
        out = Outcome()
        try:
            if code != harness.EXIT_OK:
                out.problems.append(f"cli: exit code {code}")
                return out
            with open(os.path.join(self.out_dir, "summary.json")) as fh:
                summary = json.load(fh)
            with open(os.path.join(self.out_dir, "snapshots.json")) as fh:
                final_rho = json.load(fh)["snapshots"][-1]["rho"]
            _check_state(out, "cli", summary["status"], final_rho,
                         summary["mass_error_accum"])
            _check_verdicts(out, "cli", summary["verdicts"], True)
            out.artifact_bytes = sum(
                entry.stat().st_size for entry in os.scandir(self.out_dir))
        finally:
            shutil.rmtree(self.out_dir, ignore_errors=True)
        return out


class NSeq(Workload):
    name = "theo1-nseq"
    preset = "theo1"
    cells = 5120
    settings = {"grid.cells": "5120", "run.t_end": "0.005",
                "study.n_sequence": "8,16,32,inf"}

    def op(self, cfg):
        # n_sequence_study returns rows only; keep each member's trajectory
        # so its status and final state can be checked too.
        members = []
        original = harness.simulate

        def keep(member_cfg):
            traj = original(member_cfg)
            members.append((member_cfg, traj))
            return traj

        harness.simulate = keep
        try:
            rows = harness.n_sequence_study(cfg)
        finally:
            harness.simulate = original
        return rows, members

    def check(self, cfg, output) -> Outcome:
        rows, members = output
        out = Outcome()
        if len(members) != len(cfg.study.n_sequence):
            out.problems.append(f"study ran {len(members)} members")
        for member_cfg, traj in members:
            n = member_cfg.scenario.params.n_reg
            _check_state(out, f"n={n:g}", traj.status, traj.final_state.rho,
                         traj.mass_error_accum)
        finite = []
        for row in rows:
            mollified = row.label != "inf"  # the study sets tau = 1/n
            _check_verdicts(out, f"n={row.label}", row.verdicts, mollified)
            if mollified:
                finite.append((float(row.label), row.l1_distance))
        dists = [d for _, d in sorted(finite)]
        if not all(d is not None and math.isfinite(d) and d > 0
                   for d in dists) \
                or any(a <= b for a, b in zip(dists, dists[1:])):
            out.problems.append(f"L1 distances to n=inf not strictly "
                                f"decreasing and positive: {dists}")
        return out


WORKLOADS = {w.name: w for w in (PrimFine, HoffCli, NSeq)}
