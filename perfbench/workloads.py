"""The three benchmark workloads: config text, one operation, output checks.

Every workload is a closed loop with a single caller: the benchmark starts
the next library call only when the previous one has returned.  One *op* is
one complete user job (a three-value sweep, a 512-path ensemble, one run);
it is made of ``operations`` solver calls, which are what ``attempted`` and
``failed`` count.
"""

from __future__ import annotations

import csv
import json
import math
import os

import checks

README_SWEEP_VALUES = "0.25,0.125,0.0625"
DUMP_EVERY = 64


def readme_config(seed, out_dir):
    """The README's example config, at horizon 1/4, with the seed written in."""
    return f"""\
[grid]
dimension = 1
extent = 1.0
nodes = 64

[potentials]
gamma_kind = power
gamma_p = 4.0
beta_kind = abs

[noise]
mode_count = 4
amp_c = 0.5
amp_q = 1.0
gain = additive
master_seed = {seed}

[solver]
lambda_yosida = 0.25
dt = 0.015625
horizon = 0.25
scheme = implicit_opt
u0_kind = eigenmode
u0_mode = 1
u0_amplitude = 1.0

[output]
dir = {out_dir}
prefix = run
"""


def ou_config(seed, out_dir):
    """Linear OU problem: gamma = identity, no beta, no viscosity, b_k = 0.5/k."""
    return f"""\
[grid]
dimension = 1
extent = 1.0
nodes = 32

[potentials]
gamma_kind = power
gamma_p = 2.0

[noise]
mode_count = 8
amp_c = 0.5
amp_q = 1.0
gain = additive
master_seed = {seed}

[solver]
lambda_yosida = 1.0
lambda_visc = 0.0
dt = 0.015625
horizon = 1.0
scheme = implicit_opt
u0_kind = eigenmode
u0_mode = 1
u0_amplitude = 1.0

[output]
dir = {out_dir}
prefix = ou
"""


def semi_2d_config(seed, out_dir):
    """2-d 24x24 semi-implicit run: p=4 gamma, exp-cosh beta, tanh gain, K=32.

    dt = 2**-14 with lambda = 1/2 keeps dt*(lambda_max + 1)/lambda at 0.61,
    inside the semi-implicit stability bound; 1024 steps reach t = 1/16.
    """
    return f"""\
[grid]
dimension = 2
extent = 1.0
nodes = 24

[potentials]
gamma_kind = power
gamma_p = 4.0
beta_kind = expcosh

[noise]
mode_count = 32
amp_c = 0.5
amp_q = 1.0
gain = tanh
master_seed = {seed}

[solver]
lambda_yosida = 0.5
dt = 0.00006103515625
horizon = 0.0625
scheme = semi_implicit
u0_kind = bump
u0_amplitude = 1.0

[output]
dir = {out_dir}
prefix = semi
dump_every = {DUMP_EVERY}
"""


def _data_rows(path):
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _op_outcome(operations, failed, detail):
    return {"operations": operations, "failed": failed, "detail": detail}


class Workload:
    """Base: subclasses set ``name``, ``why``, ``config`` and ``operations``."""

    name = ""
    why = ""
    config = None
    operations = 1

    def prepare(self, dn, config_path, out_dir):
        """Build the problem every op reuses."""
        self.dn = dn
        self.config_path = config_path
        self.out_dir = out_dir
        rc = dn.config.load_config(config_path)
        self.cfg, self.u0 = dn.config.build_problem(rc)
        self.master_seed = dn.config.master_seed(rc)

    def path_steps(self):
        """Time steps x paths x sweep values completed by one op."""
        raise NotImplementedError

    def run(self):
        """Execute one op; returns whatever ``check`` needs."""
        raise NotImplementedError

    def check(self, result):
        """Verify one op's outputs; returns an outcome dict."""
        raise NotImplementedError


class SweepReadme(Workload):
    name = "sweep_readme"
    why = (
        "README lambda sweep, 1-d batch 1: per-call overhead of the inner "
        "accelerated-gradient solve with closed p=4 and soft-threshold resolvents"
    )
    config = staticmethod(readme_config)
    operations = len(README_SWEEP_VALUES.split(","))

    def path_steps(self):
        return self.operations * self.cfg.n_steps

    def run(self):
        captured = []
        solver = self.dn.solver
        original = solver.integrate

        def capture(cfg, u0, seed=None, increments=None):
            traj = original(cfg, u0, seed, increments)
            captured.append((increments, traj))
            return traj

        solver.integrate = capture
        try:
            code = self.dn.cli.main(
                [
                    "sweep",
                    self.config_path,
                    "--param",
                    "lambda_yosida",
                    "--values",
                    README_SWEEP_VALUES,
                    "--out",
                    self.out_dir,
                ]
            )
        finally:
            solver.integrate = original
        return code, captured

    def check(self, result):
        code, captured = result
        n = self.operations
        if code != 0:
            return _op_outcome(n, n, f"dnpde sweep exited with {code}")
        rows = _data_rows(os.path.join(self.out_dir, "run_sweep.csv"))
        sums = {row["increments_checksum"] for row in rows}
        bad_rows = sum(row["status"] != "ok" for row in rows)
        if len(rows) != n or len(captured) != n or len(sums) != 1 or "" in sums:
            return _op_outcome(n, n, f"sweep CSV has {len(rows)} rows, checksums {sums}")
        inc_sum = self.dn.noise.increment_checksum(captured[0][0])
        failed = bad_rows
        worst = 0.0
        for increments, traj in captured:
            ratio = checks.max_certificate_ratio(self.dn, traj, increments)
            worst = max(worst, ratio)
            failed += not ratio <= 1.0
        if sums != {inc_sum}:
            failed = n
        return _op_outcome(n, min(failed, n), f"max certificate / eps_inner = {worst:.6f}")


class EnsembleOU(Workload):
    name = "ensemble_ou"
    why = (
        "512-path OU ensemble in 64-wide chunks: the inner solve on wide arrays, "
        "Philox sampling and a terminal moment with an exact value"
    )
    config = staticmethod(ou_config)
    n_paths = 512
    operations = 8   # run_ensemble integrates the paths in 64-wide chunks

    def path_steps(self):
        return self.n_paths * self.cfg.n_steps

    def run(self):
        return self.dn.solver.run_ensemble(
            self.cfg, self.u0.values, self.master_seed, self.n_paths, fine_dt=self.cfg.dt / 2
        )

    def check(self, result):
        n = self.operations
        z = checks.ou_moment_z(self.dn, self.cfg, self.u0.values, result)
        ok = math.isfinite(z) and abs(z) <= checks.MOMENT_Z_LIMIT
        return _op_outcome(n, 0 if ok else n, f"terminal moment z = {z:+.3f}")


class Run2dSemi(Workload):
    name = "run_2d_semi"
    why = (
        "2-d 24x24 semi-implicit run with exp-cosh beta and 32 tanh-gain modes: "
        "CG, bisection resolvent, 2-d stencils and file output; no inner optimizer"
    )
    config = staticmethod(semi_2d_config)

    def path_steps(self):
        return self.cfg.n_steps

    def run(self):
        return self.dn.cli.main(["run", self.config_path, "--out", self.out_dir])

    def check(self, code):
        if code != 0:
            return _op_outcome(1, 1, f"dnpde run exited with {code}")
        n_steps = self.cfg.n_steps
        with open(os.path.join(self.out_dir, "semi_summary.json")) as fh:
            gap = json.load(fh)["max_fenchel_gap"]
        rows = _data_rows(os.path.join(self.out_dir, "semi_trajectory.csv"))
        finite = all(math.isfinite(float(v)) for row in rows for v in row.values())
        dumps = [
            os.path.join(self.out_dir, f"semi_state_{i:06d}.txt")
            for i in range(0, n_steps + 1, DUMP_EVERY)
        ]
        missing = [p for p in dumps if not os.path.isfile(p)]
        ok = gap is not None and gap <= 1e-8 and len(rows) == n_steps + 1 and finite
        ok = ok and not missing
        detail = f"max_fenchel_gap = {gap}, rows = {len(rows)}, missing dumps = {len(missing)}"
        return _op_outcome(1, 0 if ok else 1, detail)


WORKLOADS = {w.name: w for w in (SweepReadme, EnsembleOU, Run2dSemi)}
