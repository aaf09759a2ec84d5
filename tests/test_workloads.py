"""The benchmark's workloads: one op of each passes the workload's own checks.

The workloads live in ``perfbench/workloads.py``; this runs them on the
library under test, so a change that breaks a benchmark op fails here.
"""

import os
import sys
import types

import pytest

from dnpde import cli, config, convex, grid, noise, solver, verify

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402

DN = types.SimpleNamespace(
    cli=cli, config=config, convex=convex, grid=grid, noise=noise, solver=solver, verify=verify
)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_op_passes_the_workload_checks(tmp_path, capsys, name):
    wl = workloads.WORKLOADS[name]()
    config_path, out_dir = tmp_path / "bench.cfg", tmp_path / "out"
    config_path.write_text(wl.config(1, str(out_dir)))
    wl.prepare(DN, str(config_path), str(out_dir))
    outcome = wl.check(wl.run())
    assert (outcome["operations"], outcome["failed"]) == (wl.operations, 0), outcome["detail"]
