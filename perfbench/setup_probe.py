"""Time one set-up in a fresh interpreter: `import nsvisc1d`, preset/config
parsing and `build_scenario` for the given overrides.

    python3 perfbench/setup_probe.py PRESET '{"grid.cells": "20480", ...}'

Prints one JSON line with the phase times in seconds.  `nsvisc1d` must be
importable (run.py puts `src` on PYTHONPATH).
"""
import json
import sys
import time

t0 = time.perf_counter()
from nsvisc1d import harness, initdata  # noqa: E402

t1 = time.perf_counter()
cfg = harness.preset_config(sys.argv[1], **json.loads(sys.argv[2]))
t2 = time.perf_counter()
initdata.build_scenario(cfg.scenario, cfg.grid)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "config_s": t2 - t1,
                  "build_s": t3 - t2, "setup_s": t3 - t0}))
