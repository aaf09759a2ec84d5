"""Config-driven entry points: single runs, parameter sweeps, verification.

All file outputs are deterministic for a fixed config and seed (CSV with 17
significant digits, LF endings, comment header carrying the config checksum
and master seed); wall-clock timing goes to stdout only.  A failed run
leaves no state dump, trajectory CSV or summary.

Exit codes: 0 success, 1 verification failure, 2 config error, 3 solver
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time

import numpy as np

from dnpde import config as configmod
from dnpde import grid as gridmod
from dnpde import noise as noisemod
from dnpde import solver as solvermod
from dnpde import verify as verifymod
from dnpde.config import ConfigError
from dnpde.solver import SolverError

__all__ = ["main", "cmd_run", "cmd_sweep", "cmd_verify"]

SWEEP_KEYS = ("lambda_yosida", "dt", "h", "mode_count")

SWEEP_HEADER = ["param", "value", *verifymod.SWEEP_COLUMNS, "increments_checksum", "status"]


def _comments(rc, seed):
    return [f"config_checksum={rc.checksum}", f"master_seed={seed}"]


def _out_paths(rc, out_dir):
    out = out_dir or rc.get("output", "dir", ".")
    prefix = rc.get("output", "prefix", "run")
    os.makedirs(out, exist_ok=True)
    return out, prefix


def _write_trajectory(path, dt, ledgers, comments):
    """The ledger as CSV rows ``step, t, *LEDGER_COLUMNS``, stacked and formatted
    a block of rows at a time; a formatted cell holds up to 80 traced bytes (its
    float, two references, its text and format), so a block holds at most
    ``RECORD_BLOCK_BYTES``."""
    cols = [ledgers[c] for c in solvermod.LEDGER_COLUMNS]
    rows = max(1, solvermod.RECORD_BLOCK_BYTES // (80 * (2 + len(cols))))
    steps = (np.arange(i, min(i + rows, len(cols[0]))) for i in range(0, len(cols[0]), rows))
    blocks = (np.column_stack([n, n * dt, *(c[n] for c in cols)]) for n in steps)
    verifymod.write_report_csv(path, ["step", "t", *solvermod.LEDGER_COLUMNS], blocks, comments)


def cmd_run(config_path, seed_override=None, out_dir=None):
    """Run one simulation; write the trajectory CSV, a run summary and every
    ``dump_every``-th state, each once the run has certified it, under a
    ``.part`` name renamed when the run succeeds and removed when it fails."""
    rc = configmod.load_config(config_path)
    cfg, u0 = configmod.build_problem(rc)
    seed_val = configmod.master_seed(rc, seed_override)
    dump_every = rc.get("output", "dump_every", 0)
    if dump_every < 0:
        raise ConfigError("dump_every must be >= 0", rc.lines["output"]["dump_every"])
    out, prefix = _out_paths(rc, out_dir)
    dumps, written = range(0, cfg.n_steps + 1, dump_every) if dump_every else range(0), 0

    def dump_path(n):
        return os.path.join(out, f"{prefix}_state_{n:06d}.txt")

    def dump(record):   # the states kept are the dumps
        nonlocal written
        written += 1
        gridmod.write_field(gridmod.GridField(cfg.grid, record.u), dump_path(record.index) + ".part")

    t0 = time.monotonic()
    try:
        traj = solvermod.integrate(cfg, u0, noisemod.PathSeed(seed_val, 0), keep_every=dump_every, on_keep=dump)
    except BaseException:
        for n in dumps[:written]:
            with contextlib.suppress(FileNotFoundError):
                os.remove(dump_path(n) + ".part")
        raise
    for n in dumps:
        os.replace(dump_path(n) + ".part", dump_path(n))
    wall = time.monotonic() - t0

    _write_trajectory(
        os.path.join(out, f"{prefix}_trajectory.csv"), cfg.dt, traj.ledgers, _comments(rc, seed_val)
    )
    summary = {
        "config_checksum": rc.checksum,
        "master_seed": seed_val,
        "n_steps": cfg.n_steps,
        "scheme": cfg.scheme,
        "terminal_norm": math.sqrt(traj.ledgers["norm_u_sq"][-1]),
        "terminal_energy_residual": traj.energy_residual,
        "max_fenchel_gap": traj.max_graph_residual,
    }
    with open(os.path.join(out, f"{prefix}_summary.json"), "w", newline="\n") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"run complete: {cfg.n_steps} steps, wall time {wall:.3f}s")
    return 0


@contextlib.contextmanager
def _sweep_value(param, value):
    """Turn a sweep value the model refuses into a config error naming it."""
    try:
        yield
    except (ValueError, ConfigError) as err:
        raise ConfigError(f"{param} sweep value {value!r}: {err}") from None


def _sweep_configs(rc, grid, param, values):
    """One ``(cfg, u0)`` per value, each built by ``config.build_problem`` on
    ``rc`` with the swept key as an override, so every value passes a run's
    checks."""
    if param == "mode_count":
        if not rc.has("noise"):
            raise ConfigError("mode_count sweep needs a [noise] section")
        if not all(float(v).is_integer() for v in values):
            raise ConfigError(f"mode_count sweep values must be integers, got {list(values)}")
    runs = []
    for v in values:
        with _sweep_value(param, v):
            if param == "mode_count":
                noise = {"mode_count": int(v)}
                if rc.has("noise", "amplitudes"):
                    noise["amplitudes"] = rc.get("noise", "amplitudes")[: int(v)]
                runs.append(configmod.build_problem(rc, noise=noise))
            elif param == "h":   # cmd_sweep has checked the key
                h = float(v)
                nodes = tuple(round(L / h) - 1 for L in grid.extents) if h > 0 else (0,)
                for n, L in zip(nodes, grid.extents):
                    if abs((n + 1) * h - L) > 1e-9 * L:
                        raise ConfigError(f"h does not divide the extent {L}")
                runs.append(configmod.build_problem(rc, grid={"nodes": nodes}))
            else:
                runs.append(configmod.build_problem(rc, solver={param: float(v)}))
    return runs


def cmd_sweep(config_path, param, values, seed_override=None, out_dir=None):
    """Sweep one parameter; one report row per value, coupled noise path."""
    rc = configmod.load_config(config_path)
    if param not in SWEEP_KEYS:
        raise ConfigError(f"invalid sweep key {param!r}; use one of {SWEEP_KEYS}")
    cfg, _ = configmod.build_problem(rc)
    out, prefix = _out_paths(rc, out_dir)
    seed_val = configmod.master_seed(rc, seed_override)
    runs = _sweep_configs(rc, cfg.grid, param, values)
    with _sweep_value(param, list(values)):
        checksum, entries = verifymod.sweep(runs, noisemod.PathSeed(seed_val, 0))

    rows = []
    failure = None
    try:
        for value, entry in zip(values, entries):
            rows.append([param, float(value), *entry.row(), checksum, "ok"])
    except SolverError as err:
        nans = [math.nan] * len(verifymod.SWEEP_COLUMNS)
        rows.append(
            [param, float(values[len(rows)]), *nans, checksum, f"failed_step_{err.step_index}"]
        )
        failure = err
    verifymod.write_report_csv(
        os.path.join(out, f"{prefix}_sweep.csv"),
        SWEEP_HEADER,
        rows,
        _comments(rc, seed_val),
    )
    if failure is not None:
        raise failure
    return 0


def cmd_verify(config_path, select=None, out_dir=None):
    """Run the configured acceptance families; exit 0 iff every one passes."""
    from dnpde import acceptance

    rc = configmod.load_config(config_path)
    tokens = select if select else rc.get("verify", "families", ("all",))
    try:
        ids = acceptance.resolve_selection(tokens)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    if not ids:
        raise ConfigError("empty criterion selection")
    out, prefix = _out_paths(rc, out_dir)
    workdir = os.path.join(out, f"{prefix}_verify_work")
    results = acceptance.run_criteria(ids, workdir=workdir, rc=rc)

    rows = []
    for res in results:
        for a in res.assertions:
            rows.append([str(res.cid), res.name, a.name, a.measured, a.threshold, a.status, a.rule])
        for line in res.lines():
            print(line)
    verifymod.write_report_csv(
        os.path.join(out, f"{prefix}_verify.csv"),
        ["criterion_id", "criterion", "assertion", "measured", "threshold", "status", "relation"],
        rows,
        _comments(rc, configmod.master_seed(rc)),
    )
    ok = all(res.passed for res in results)
    print("VERIFY:", "all criteria PASS" if ok else "some criteria FAILED")
    return 0 if ok else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dnpde",
        description="Doubly nonlinear stochastic PDE runs, sweeps and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None, help="master seed override")
    p_run.add_argument("--out", default=None, help="output directory override")

    p_sweep = sub.add_parser("sweep", help="sweep one parameter over a value list")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True, help=f"one of {SWEEP_KEYS}")
    p_sweep.add_argument(
        "--values", required=True, help="comma-separated list of values"
    )
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="run the acceptance criterion suite")
    p_verify.add_argument("config")
    p_verify.add_argument(
        "--select", default=None, help="comma-separated criterion ids/names"
    )
    p_verify.add_argument("--out", default=None)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config, args.seed, args.out)
        if args.command == "sweep":
            try:
                values = [float(tok) for tok in args.values.split(",") if tok.strip()]
            except ValueError as err:
                raise ConfigError(f"bad --values list: {err}") from None
            if not values:
                raise ConfigError("empty sweep value list")
            return cmd_sweep(args.config, args.param, values, args.seed, args.out)
        if args.command == "verify":
            select = args.select.split(",") if args.select else None
            return cmd_verify(args.config, select, args.out)
    except (ConfigError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except SolverError as err:
        where = f" at step {err.step_index}" if err.step_index is not None else ""
        print(f"solver failure{where}: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
