"""nsvisc1d benchmark: runs one workload, or all, and prints its metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root.  One workload runs in this process: a warm-up
op, then ops back to back (a closed loop, one client) for `--seconds`, each
checked for correctness.  `--trace 0` reports the end-to-end metrics;
`--trace 1` alternates untraced and traced ops and reports the per-layer
metrics plus the tracing overhead.  `--workload all` runs every workload,
each in its own process, one after another.  The last line of stdout is
one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
MIN_OPS = 3


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def tail_percentile(values):
    """Highest of p50/p90/p99 with at least 10 samples beyond it."""
    for p in (99, 90, 50):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def setup_probe(wl) -> float:
    """setup_s of one fresh interpreter running setup_probe.py."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), wl.preset,
         json.dumps(wl.overrides)],
        capture_output=True, text=True, env=env, check=True, timeout=120)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def pin_to_one_cpu() -> int:
    """Pin this process (and the children it starts) to one CPU.

    On a small shared VM, the study's four threads flip between two regimes
    depending on whether both vCPUs run at once: ops took ~1.5 s in one run
    and ~3 s in the next, which no run length averages out.  Pinned, every
    workload runs at its single-CPU speed."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Loop:
    """Runs and checks ops, counting attempts and failures."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0

    def op(self, inputs):
        """(wall, cpu, output) of one op; output is None if it raised."""
        self.attempted += 1
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            output = self.wl.op(inputs)
        except Exception:
            traceback.print_exc()
            output = None
        return time.perf_counter() - t0, time.process_time() - c0, output

    def check(self, inputs, output):
        """The op's Outcome, or None (counted as failed) on any problem."""
        outcome = None
        if output is not None:
            try:
                outcome = self.wl.check(inputs, output)
            except Exception:
                traceback.print_exc()
        if outcome is None or outcome.problems:
            self.failed += 1
            for problem in (outcome.problems if outcome
                            else ["op or check raised"]):
                print(f"FAILED op {self.attempted}: {problem}",
                      file=sys.stderr)
            return None
        return outcome


def end_to_end(wl, seconds: float):
    print(f"pinned to CPU {pin_to_one_cpu()}")
    loop = Loop(wl)
    inputs = wl.prepare()
    loop.check(inputs, loop.op(inputs)[2])  # warm-up, untimed
    walls, setup = [], []
    start = time.perf_counter()
    while loop.attempted <= MIN_OPS or time.perf_counter() - start < seconds:
        wall, _, output = loop.op(inputs)
        if loop.check(inputs, output) is not None:
            walls.append(wall)
        # spread the set-up probes over the run rather than bunching them
        elapsed = time.perf_counter() - start
        if len(setup) < SETUP_REPEATS * elapsed / seconds:
            setup.append(setup_probe(wl))
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_probe(wl))
    if not walls:
        raise SystemExit(f"every op of {wl.name} failed")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    fail_frac = loop.failed / loop.attempted
    print(f"workload {wl.name}: {loop.attempted} ops, {loop.failed} failed")
    print(f"  wall_s       median {median(walls):.4f} s over {len(walls)} ops"
          f" (min {min(walls):.4f}, max {max(walls):.4f})")
    tail = tail_percentile(walls)
    print("  wall_s tail  " + (f"p{tail[0]} {tail[1]:.4f} s" if tail else
                               "n/a (fewer than 10 samples beyond p50)"))
    print(f"  setup_s      median {median(setup):.4f} s over {len(setup)} "
          "fresh interpreters")
    print(f"  peak_rss_mb  {peak_mb:.1f} MiB")
    print(f"  fail_frac    {fail_frac:.4f} ({loop.failed}/{loop.attempted})")
    metrics = {"wall_s": (median(walls), "s"),
               "setup_s": (median(setup), "s"),
               "peak_rss_mb": (peak_mb, "MiB"),
               "pass_frac": (1.0 - fail_frac, "ratio")}
    return loop, metrics


def per_layer(wl, seconds: float):
    import layers
    import spans

    loop = Loop(wl)
    tracer = spans.Tracer()
    wrappers = spans.tracing_wrappers(tracer)
    plain = wl.prepare()
    loop.check(plain, loop.op(plain)[2])  # warm-up, untimed
    untraced, traced, reps = [], [], []
    start = time.perf_counter()
    while (loop.attempted <= 2 * MIN_OPS
           or time.perf_counter() - start < seconds):
        wall, _, output = loop.op(plain)
        if loop.check(plain, output) is not None:
            untraced.append(wall)
        undo = spans.install(wrappers)
        try:
            inputs = wl.prepare()
            wall, cpu, output = loop.op(inputs)
        finally:
            spans.restore(undo)
        recorded = tracer.take()
        outcome = loop.check(inputs, output)
        if outcome is not None:
            traced.append(wall)
            reps.append(layers.op_metrics(
                recorded, wl.cells, wall, cpu, outcome.verdicts_false,
                outcome.artifact_bytes))
    if len(reps) < 2 or not untraced:
        raise SystemExit(f"too few ops of {wl.name} passed to compare")
    left = spans.leftover_wrappers()
    if left:
        raise SystemExit(f"tracing wrappers left behind: {left}")
    for key in layers.EXACT:
        seen = [rep[key] for rep in reps]
        if len(set(seen)) > 1:
            raise SystemExit(f"{key} differs between traced ops of one "
                             f"seed: {seen}")
    values = {key: median(rep[key] for rep in reps) for key in reps[0]}
    values["trace.wall_s"] = median(traced)
    values["trace.overhead"] = median(traced) / median(untraced)
    print(f"workload {wl.name}: {len(reps)} traced and {len(untraced)} "
          f"untraced ops, {loop.failed} failed; medians over traced ops")
    for key, unit in layers.UNITS.items():
        value = values[key]
        print(f"  {key:26s} " + ("n/a" if value is None else
                                 f"{value:.6g} {unit}"))
    metrics = {key: (values[key] or 0.0, unit)
               for key, unit in layers.UNITS.items()}
    return loop, metrics


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, tmp)
        print(f"seed {args.seed} overrides: {json.dumps(wl.overrides)}")
        measure = per_layer if args.trace else end_to_end
        loop, metrics = measure(wl, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{key}": value
                    for name, r in results.items()
                    for key, value in r["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nsvisc1d" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'nsvisc1d'}; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
