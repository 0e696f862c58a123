"""Command-line interface: run, study-dx, study-n, presets."""
from __future__ import annotations

import argparse
import sys

from . import harness
from .initdata import PRESET_NAMES


def _load_config(args) -> harness.RunConfig:
    if args.config:
        if args.override:
            raise harness.ConfigError(
                ["--override with --config is not supported; edit the config"])
        try:
            with open(args.config) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise harness.ConfigError([f"cannot read {args.config}: {exc}"])
        return harness.parse_config(text)
    if not args.preset:
        raise harness.ConfigError(["either --config or --preset is required"])
    raw = {"preset": args.preset}
    for item in args.override or []:
        key, _, value = item.partition("=")
        raw[key.strip()] = value
    return harness.config_from_mapping(raw)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nsvisc1d",
        description="1D compressible Navier-Stokes runs with degenerate "
                    "density-dependent viscosity and entropy diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="path to a key-value config file")
        sp.add_argument("--preset", help="named scenario preset")
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--override", action="append", metavar="KEY=VALUE",
                        help="override a config key (repeatable)")

    add_common(sub.add_parser("run", help="execute one simulation"))
    add_common(sub.add_parser("study-dx", help="grid refinement study"))
    add_common(sub.add_parser("study-n", help="regularization-index study"))
    sub.add_parser("presets", help="list shipped presets")

    args = parser.parse_args(argv)
    if args.command == "presets":
        for name in PRESET_NAMES:
            print(name)
        return harness.EXIT_OK

    try:
        cfg = _load_config(args)
        out = args.out or cfg.output_dir
        harness.make_output_dir(out)
        if args.command == "run":
            code = harness.run_scenario(cfg, out)
            if code != harness.EXIT_OK:
                print(f"run failed; see {out}/summary.json", file=sys.stderr)
            return code
        if args.command == "study-dx":
            rows = harness.refinement_study(cfg)
            name = "study_dx.json"
        else:
            rows = harness.n_sequence_study(cfg)
            name = "study_n.json"
        harness.write_study(rows, out, name)
    except harness.ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return harness.EXIT_VALIDATION

    for row in rows:
        dist = "-" if row.l1_distance is None else f"{row.l1_distance:.4e}"
        order = "-" if row.observed_order is None else f"{row.observed_order:.2f}"
        print(f"{row.label:>8}  cells={row.cells:<7} L1={dist:>10}  "
              f"order={order:>5}  h1(t_end)={row.h1_phi1_final:.4e}  "
              f"{row.status}")
    failed = [row.label for row in rows if row.status != "completed"]
    if failed:
        print(f"study members {', '.join(failed)} did not complete; "
              f"see {out}/{name}", file=sys.stderr)
        return harness.EXIT_SOLVER
    return harness.EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
