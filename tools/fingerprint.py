"""Bit-identity fingerprint of a checkout: SHA-256 digests of a fixed sweep
of runs, for comparing two versions of the package.

    python3 tools/fingerprint.py [--root CHECKOUT] [--out FILE]
    python3 tools/fingerprint.py --compare A.json B.json

The first form imports `nsvisc1d` from CHECKOUT/src (default: the checkout
holding this script) and `mms` from CHECKOUT/tests, runs every case and
writes one JSON object, case -> {field -> digest}, to FILE or stdout.  The
second form prints the cases and fields whose digests differ and exits 1
when any do.

Cases, at 640 cells to t = 0.003 through `harness.simulate`: every preset
under both formulations, both boundary rules and all three limiters; the
primitive upwind flux; `params.n_reg = 8` and `params.alpha = 0.7`
variants; and the forced manufactured-solution runs of acceptance
criterion 4.  A case whose config is rejected records its error text.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from pathlib import Path

import numpy as np

PRESETS = ("equilibrium", "theo1", "corbis", "theo2", "hoff")
BASE = {"grid.cells": "640", "run.t_end": "0.003", "run.record_every": "0.001"}


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _trajectory(traj, verdicts) -> dict:
    final = traj.final_state
    return {
        "final_state": _digest(final.rho.tobytes(), final.m.tobytes(),
                               final.t),
        "records": _digest(np.array([r.csv_row() for r in traj.records])
                           .tobytes()),
        "steps": _digest(traj.steps),
        "status": _digest(traj.status),
        "mass_audits": _digest(traj.mass_error_max, traj.mass_error_accum),
        "dt": _digest(traj.dt_min, traj.dt_max, sorted(traj.dt_bound.items())),
        "verdicts": _digest(sorted(verdicts.items())),
        "warnings": _digest(traj.warnings),
    }


def _cases():
    for name in PRESETS:
        for formulation in ("primitive", "effective"):
            for bc in ("farfield", "periodic"):
                for limiter in ("mc", "minmod", "none"):
                    yield (f"{name}/{formulation}/{bc}/{limiter}",
                           {"preset": name, "scheme.formulation": formulation,
                            "scheme.bc": bc, "scheme.limiter": limiter})
        for bc in ("farfield", "periodic"):
            yield (f"{name}/primitive/{bc}/upwind",
                   {"preset": name, "scheme.flux": "upwind", "scheme.bc": bc})
        for formulation in ("primitive", "effective"):
            yield (f"{name}/{formulation}/n_reg=8",
                   {"preset": name, "scheme.formulation": formulation,
                    "params.n_reg": "8"})
            yield (f"{name}/{formulation}/alpha=0.7",
                   {"preset": name, "scheme.formulation": formulation,
                    "params.alpha": "0.7"})


def fingerprint() -> dict:
    from mms import ManufacturedSolution
    from nsvisc1d import Grid1D, Params, harness
    from nsvisc1d.solver import SchemeConfig, run

    logging.getLogger("nsvisc1d").setLevel(logging.ERROR)  # warnings are digested
    out = {}
    for label, raw in _cases():
        try:
            cfg = harness.config_from_mapping({**BASE, **raw})
        except harness.ConfigError as exc:
            out[label] = {"config_error": _digest(exc.errors)}
            continue
        traj = harness.simulate(cfg)
        out[label] = _trajectory(traj, harness.verdicts_for(traj, cfg))
    # acceptance criterion 4: forced periodic runs to t = 0.05
    p = Params(mu=0.1, alpha=1.0)
    ms = ManufacturedSolution(p)
    for formulation in ("primitive", "effective"):
        effective = formulation == "effective"
        for cells in (128, 256, 512):
            g = Grid1D(0.0, 1.0, cells)
            init = ms.effective_state(g) if effective else ms.state(g)
            source = ms.effective_source if effective else ms.primitive_source
            traj = run(init, 0.05, g, p,
                       SchemeConfig(formulation=formulation, bc="periodic"),
                       source=source)
            out[f"mms/{formulation}/{cells}"] = _trajectory(traj, {})
    return out


def compare(a_path: str, b_path: str) -> int:
    with open(a_path) as fh:
        a = json.load(fh)
    with open(b_path) as fh:
        b = json.load(fh)
    differ = 0
    for case in sorted(set(a) | set(b)):
        fields = set(a.get(case, {})) | set(b.get(case, {}))
        for name in sorted(fields):
            if a.get(case, {}).get(name) != b.get(case, {}).get(name):
                print(f"{case}: {name} differs")
                differ += 1
    print(f"{len(set(a) | set(b))} cases, {differ} differing fields")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=str(Path(__file__).resolve()
                                              .parents[1]),
                        help="checkout whose src/ and tests/ are imported")
    parser.add_argument("--out", help="write the JSON here, not to stdout")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two fingerprint files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    text = json.dumps(fingerprint(), indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
