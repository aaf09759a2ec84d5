"""Per-layer metrics derived from the span tables of the traced ops.

Layers are groups of traced public functions.  A layer's self time is the
summed self time of its spans, so time inside an unwrapped private helper
(the inner optimizer loop, the bisection loop) lands in the public span that
called it.  Times and counts are per op (totals over the traced ops divided
by their number); shares are of the traced op's wall time.
"""

from __future__ import annotations

import statistics

from spans import MODULE_SPANS

SOLVER = {
    "solver.integrate",
    "solver.integrate_batch",
    "solver.run_ensemble",
    "solver.implicit_step",
    "solver.semi_implicit_step",
    "solver.initial_datum",
}
STEPPERS = ("solver.integrate", "solver.integrate_batch")
IO = {"solver.write_trajectory_csv", "grid.write_field", "verify.write_report_csv"}
GRID = {f"grid.{name}" for name in MODULE_SPANS["grid"]} - IO
NOISE = {f"noise.{name}" for name in MODULE_SPANS["noise"]}
REDUCE = {"grid.dot_h", "grid.norm_h", "grid.flux_dot_h", "grid.flux_norm_h"}
CONVEX = {"convex.closed_resolvent", "convex.minimal_slope", "convex.value", "convex.closed_conjugate"}
DIAG = {
    "solver.energy_residual",
    "verify.trajectory_bounds",
    "verify.fenchel_gap_integrals",
    "verify.tail_profiles",
    "convex.resolvent",
    "convex.yosida",
    "convex.moreau_envelope",
    "convex.conjugate",
    "convex.fenchel_residual",
    "convex.eval_potential",
}

# (name, unit, better); the order is the order of the report.
PER_LAYER = (
    ("solver.grad_evals_per_step", "count/step", "lower"),
    ("solver.self_s", "s", "lower"),
    ("solver.share", "ratio", "lower"),
    ("solver.path_steps", "count", "higher"),
    ("grid.grad_arrays.calls", "count", "lower"),
    ("grid.grad_arrays.self_s", "s", "lower"),
    ("grid.grad_arrays.us_per_call", "us", "lower"),
    ("grid.div_arrays.calls", "count", "lower"),
    ("grid.div_arrays.self_s", "s", "lower"),
    ("grid.reduce.self_s", "s", "lower"),
    ("grid.share", "ratio", "lower"),
    ("grid.cg_solve.calls", "count", "lower"),
    ("grid.cg_solve.self_s", "s", "lower"),
    ("grid.cg_iters_per_solve", "count", "lower"),
    ("convex.closed_resolvent.calls", "count", "lower"),
    ("convex.closed_resolvent.self_s", "s", "lower"),
    ("convex.minimal_slope.calls", "count", "lower"),
    ("convex.share", "ratio", "lower"),
    ("noise.sample_increments.self_s", "s", "lower"),
    ("noise.apply_b.self_s", "s", "lower"),
    ("noise.hs_norm.self_s", "s", "lower"),
    ("noise.share", "ratio", "lower"),
    ("grid.sine_eigenpairs.calls", "count", "lower"),
    ("config.build_problem.self_s", "s", "lower"),
    ("diag.self_s", "s", "lower"),
    ("diag.share", "ratio", "lower"),
    ("io.self_s", "s", "lower"),
    ("io.bytes_written", "bytes", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


LAYERS = {"solver": SOLVER, "grid": GRID, "convex": CONVEX, "noise": NOISE, "diag": DIAG, "io": IO}


def merge_stats(tables):
    """Sum several ``{(name, parent): [calls, total, self]}`` tables."""
    out = {}
    for table in tables:
        for key, row in table.items():
            acc = out.setdefault(key, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += row[i]
    return out


def calls(stats, name, parents=None):
    return sum(
        row[0] for (n, p), row in stats.items() if n == name and (parents is None or p in parents)
    )


def self_time(stats, names):
    return sum(row[2] for (n, _), row in stats.items() if n in names)


def per_layer_metrics(traced_ops, untraced_wall_s, declared_path_steps):
    """Per-op layer metrics from the traced ops, and a list of benchmark errors.

    Counters must repeat exactly between traced ops of one seed; a mismatch,
    or a path-step count that differs from the workload's stated size, is a
    benchmark error.
    """
    notes = []
    signatures = {
        (
            tuple(sorted((key, row[0]) for key, row in op["tracer"].stats.items())),
            op["counts"]["batched_steps"],
            op["counts"]["path_steps"],
        )
        for op in traced_ops
    }
    if len(signatures) != 1:
        notes.append("deterministic counters differ between traced ops of one seed")
    n = len(traced_ops)
    stats = merge_stats(op["tracer"].stats for op in traced_ops)
    traced_wall = sum(op["wall"] for op in traced_ops)
    batched_steps = sum(op["counts"]["batched_steps"] for op in traced_ops)
    path_steps = sum(op["counts"]["path_steps"] for op in traced_ops) / n
    if path_steps != declared_path_steps:
        notes.append(f"traced path steps {path_steps} != stated size {declared_path_steps}")
    layer_self = {layer: self_time(stats, names) for layer, names in LAYERS.items()}

    def per_op(x):
        return x / n

    def ratio(a, b):
        return a / b if b else 0.0

    grad_calls = calls(stats, "grid.grad_arrays")
    cg_calls = calls(stats, "grid.cg_solve")
    traced_median = statistics.median(op["wall"] for op in traced_ops)
    values = {
        "solver.grad_evals_per_step": ratio(
            calls(stats, "grid.div_arrays", STEPPERS), batched_steps
        ),
        "solver.self_s": per_op(layer_self["solver"]),
        "solver.share": layer_self["solver"] / traced_wall,
        "solver.path_steps": path_steps,
        "grid.grad_arrays.calls": per_op(grad_calls),
        "grid.grad_arrays.self_s": per_op(self_time(stats, {"grid.grad_arrays"})),
        "grid.grad_arrays.us_per_call": 1e6
        * ratio(self_time(stats, {"grid.grad_arrays"}), grad_calls),
        "grid.div_arrays.calls": per_op(calls(stats, "grid.div_arrays")),
        "grid.div_arrays.self_s": per_op(self_time(stats, {"grid.div_arrays"})),
        "grid.reduce.self_s": per_op(self_time(stats, REDUCE)),
        "grid.share": layer_self["grid"] / traced_wall,
        "grid.cg_solve.calls": per_op(cg_calls),
        "grid.cg_solve.self_s": per_op(self_time(stats, {"grid.cg_solve"})),
        "grid.cg_iters_per_solve": ratio(
            calls(stats, "grid.lap_arrays", ("grid.cg_solve",)), cg_calls
        ),
        "convex.closed_resolvent.calls": per_op(calls(stats, "convex.closed_resolvent")),
        "convex.closed_resolvent.self_s": per_op(self_time(stats, {"convex.closed_resolvent"})),
        "convex.minimal_slope.calls": per_op(calls(stats, "convex.minimal_slope")),
        "convex.share": layer_self["convex"] / traced_wall,
        "noise.sample_increments.self_s": per_op(self_time(stats, {"noise.sample_increments"})),
        "noise.apply_b.self_s": per_op(self_time(stats, {"noise.apply_b"})),
        "noise.hs_norm.self_s": per_op(self_time(stats, {"noise.hs_norm"})),
        "noise.share": layer_self["noise"] / traced_wall,
        "grid.sine_eigenpairs.calls": per_op(calls(stats, "grid.sine_eigenpairs")),
        "config.build_problem.self_s": per_op(self_time(stats, {"config.build_problem"})),
        "diag.self_s": per_op(layer_self["diag"]),
        "diag.share": layer_self["diag"] / traced_wall,
        "io.self_s": per_op(layer_self["io"]),
        "io.bytes_written": per_op(sum(op["bytes"] for op in traced_ops)),
        "trace.overhead_frac": traced_median / untraced_wall_s - 1.0,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
    return metrics, notes
