"""Time one cold set-up in a fresh interpreter and print it as JSON.

Usage: python3 setup_probe.py SRC_DIR CONFIG_PATH

Set-up is what a user waits for before the first time step: importing
``dnpde`` (and numpy with it), parsing the config, ``config.build_problem``
and the first ``grid.sine_eigenpairs`` of the noise modes.
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import dnpde.cli  # noqa: E402,F401  (the CLI imports every module a run uses)
from dnpde import config, grid  # noqa: E402

cfg, _ = config.build_problem(config.load_config(sys.argv[2]))
if cfg.noise is not None:
    grid.sine_eigenpairs(cfg.grid, cfg.noise.mode_count)
print(json.dumps({"setup_s": time.perf_counter() - t0}))
