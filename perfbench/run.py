"""dnpde benchmark: one workload, one fresh process, closed loop, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run first times ``SETUP_REPEATS`` cold set-ups in child interpreters,
then builds the workload in this process and repeats complete ops until
``S`` seconds have passed.  With ``--trace 0`` every op is untraced and the
end-to-end metrics are reported; with ``--trace 1`` untraced and traced ops
alternate (at least two of each) and the per-layer metrics are reported.
Each op's outputs are checked.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for every metric and workload.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import inspect
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60
MIN_TRACED_OPS = 2

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("path_steps_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot produce a valid result."""


def _dir_bytes(path):
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


def _import_dnpde():
    if not os.path.isfile(os.path.join(SRC, "dnpde", "__init__.py")):
        raise BenchmarkError(f"library sources not found under {SRC}")
    sys.path.insert(0, SRC)
    from dnpde import cli, config, convex, grid, noise, solver, verify

    return types.SimpleNamespace(
        cli=cli, config=config, convex=convex, grid=grid, noise=noise, solver=solver, verify=verify
    )


def _setup_seconds(config_path):
    """Median cold set-up time over ``SETUP_REPEATS`` fresh interpreters."""
    probe = os.path.join(HERE, "setup_probe.py")
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, probe, SRC, config_path],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up probe failed:\n{proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def _work_counters(dn):
    """Span callbacks counting batched steps and path steps at the solver boundary."""
    counts = {"batched_steps": 0, "path_steps": 0}
    sig_one = inspect.signature(dn.solver.integrate)
    sig_batch = inspect.signature(dn.solver.integrate_batch)

    def on_integrate(*args, **kwargs):
        cfg = sig_one.bind(*args, **kwargs).arguments["cfg"]
        counts["batched_steps"] += cfg.n_steps
        counts["path_steps"] += cfg.n_steps

    def on_integrate_batch(*args, **kwargs):
        bound = sig_batch.bind(*args, **kwargs).arguments
        cfg, u0, inc = bound["cfg"], bound["u0"], bound["increments"]
        if inc is not None:
            paths = inc.shape[-1]
        else:
            paths = u0.shape[-1] if u0.ndim > cfg.grid.dim else 1
        counts["batched_steps"] += cfg.n_steps
        counts["path_steps"] += cfg.n_steps * paths

    hooks = {"solver.integrate": on_integrate, "solver.integrate_batch": on_integrate_batch}
    return counts, hooks


def _run_op(dn, wl, traced):
    """One op: clear outputs, run (optionally traced), check.  Returns a record."""
    shutil.rmtree(wl.out_dir, ignore_errors=True)
    os.makedirs(wl.out_dir)
    tracer = counts = None
    if traced:
        tracer = spans.Tracer()
        counts, hooks = _work_counters(dn)
        tracer.install(vars(dn), dn.convex.Potential, hooks)
    error = None
    t0 = time.perf_counter()
    try:
        result = wl.run()
    except Exception:  # noqa: BLE001 - a crash or SolverError fails the whole op
        error = traceback.format_exc()
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.restore()
    if error is None:
        try:
            outcome = wl.check(result)
        except (OSError, ValueError, KeyError) as err:
            error = f"output check could not read the outputs: {err!r}\n"
    if error is not None:
        sys.stderr.write(error)
        outcome = {"operations": wl.operations, "failed": wl.operations, "detail": "crashed"}
    outcome.update(wall=wall, traced=traced, bytes=_dir_bytes(wl.out_dir))
    if traced:
        outcome.update(tracer=tracer, counts=counts)
    print(
        f"op {'traced' if traced else 'untraced'}: {wall:.4f} s, "
        f"{outcome['failed']}/{outcome['operations']} failed, {outcome['detail']}",
        flush=True,
    )
    return outcome


def _measure(dn, wl, seconds, trace):
    """Closed loop of ops for ``seconds``; alternates traced ops when tracing."""
    ops = []
    start = time.perf_counter()
    while True:
        ops.append(_run_op(dn, wl, traced=False))
        if trace:
            ops.append(_run_op(dn, wl, traced=True))
        n_traced = sum(op["traced"] for op in ops)
        done = time.perf_counter() - start >= seconds
        if done and (not trace or n_traced >= MIN_TRACED_OPS):
            return ops


def _blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None if unknown."""
    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    symbols = (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in symbols:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _provenance(workload, seed, trace):
    import numpy as np

    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path) as fh:
                    commit = fh.read().strip()
    return {
        "workload": workload,
        "seed": seed,
        "traced": bool(trace),
        "git_commit": commit,
        "dnpde_version": getattr(sys.modules["dnpde"], "__version__", None),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
    }


def run(args):
    wl = workloads.WORKLOADS[args.workload]()
    work = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        config_path = os.path.join(work, "bench.cfg")
        out_dir = os.path.join(work, "out")
        with open(config_path, "w", newline="\n") as fh:
            fh.write(wl.config(args.seed, out_dir))
        dn = _import_dnpde()
        setup_s = _setup_seconds(config_path)
        wl.prepare(dn, config_path, out_dir)
        ops = _measure(dn, wl, args.seconds, args.trace)
        provenance = _provenance(args.workload, args.seed, args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)

    attempted = sum(op["operations"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    untraced = [op["wall"] for op in ops if not op["traced"]]
    wall_s = statistics.median(untraced)
    notes = []
    if len({op["bytes"] for op in ops}) != 1:
        notes.append("bytes written differ between ops of one seed")
    if args.trace:
        metrics, trace_notes = layers.per_layer_metrics(
            [op for op in ops if op["traced"]], wall_s, wl.path_steps()
        )
        notes += trace_notes
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "wall_s": wall_s,
            "path_steps_per_s": wl.path_steps() / wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
    for note in notes:
        print(f"benchmark error: {note}", file=sys.stderr)
    print(f"workload {args.workload}: {len(ops)} ops, {failed}/{attempted} operations failed")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    return {
        "correct": failed == 0 and not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchmarkError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
