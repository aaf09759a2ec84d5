"""Outside-in span tracing of the public ``dnpde`` functions.

The tracer replaces module attributes (``grid.grad_arrays``, ...) and the
catalog potential methods (``PowerPotential.closed_resolvent``, ...) with
timing wrappers.  The library modules call each other through those
attributes, so calls made inside the library are caught as well; private
helpers are not wrapped and their time lands in the enclosing public span.

Spans are not stored one by one: each finished span is folded into a
``(name, parent name) -> [calls, total seconds, self seconds]`` table, so
memory stays bounded however many calls a run makes.  A span's self time is
its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import time

ROOT = "<root>"

# Public functions wrapped per module, by the span name prefix.  Names missing
# from a module are skipped, so the list survives API removals in the library.
MODULE_SPANS = {
    "grid": (
        "grad_arrays",
        "div_arrays",
        "lap_arrays",
        "dot_h",
        "norm_h",
        "flux_dot_h",
        "flux_norm_h",
        "sine_eigenpairs",
        "lambda_max",
        "cg_solve",
        "write_field",
    ),
    "convex": (
        "resolvent",
        "yosida",
        "moreau_envelope",
        "conjugate",
        "fenchel_residual",
        "eval_potential",
    ),
    "noise": (
        "sample_increments",
        "aggregate_increments",
        "increment_checksum",
        "apply_b",
        "hs_norm",
        "default_bound",
    ),
    "solver": (
        "implicit_step",
        "semi_implicit_step",
        "integrate",
        "integrate_batch",
        "run_ensemble",
        "energy_residual",
        "initial_datum",
        "write_trajectory_csv",
    ),
    "verify": (
        "coupled_increment_tables",
        "trajectory_bounds",
        "fenchel_gap_integrals",
        "tail_profiles",
        "write_report_csv",
    ),
    "config": ("load_config", "parse_config", "build_problem"),
    "cli": ("main", "cmd_run", "cmd_sweep"),
}

# Methods of the convex potential classes, traced as ``convex.<method>``.
POTENTIAL_METHODS = ("closed_resolvent", "minimal_slope", "value", "closed_conjugate")


class Tracer:
    """Aggregating span recorder; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self._stack = [[ROOT, 0.0]]   # frames: [name, child seconds]
        self._patches = []

    def wrap(self, name, fn, on_call=None):
        """Return ``fn`` wrapped in a span called ``name``."""
        clock = self.clock
        stack = self._stack
        stats = self.stats

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent = stack[-1]
                parent[1] += dur
                key = (name, parent[0])
                row = stats.get(key)
                if row is None:
                    row = stats[key] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += dur
                row[2] += dur - frame[1]

        return traced

    def patch(self, owner, attr, name, on_call=None):
        """Replace ``owner.attr`` by a traced wrapper; undone by ``restore``."""
        original = owner.__dict__[attr] if inspect.isclass(owner) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_call))

    def restore(self):
        """Put every patched attribute back, most recent first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self, modules, potential_base, on_call=None):
        """Trace the public functions of ``modules`` ({prefix: module}).

        ``potential_base`` is the convex ``Potential`` class: every class of
        the convex module derived from it gets ``POTENTIAL_METHODS`` traced
        where it defines them itself.  ``on_call`` maps span names to
        callbacks that see the call's arguments (used for work counters).
        """
        on_call = on_call or {}
        for prefix, names in MODULE_SPANS.items():
            mod = modules[prefix]
            for attr in names:
                if callable(getattr(mod, attr, None)):
                    name = f"{prefix}.{attr}"
                    self.patch(mod, attr, name, on_call.get(name))
        convex = modules["convex"]
        for obj in list(vars(convex).values()):
            if inspect.isclass(obj) and issubclass(obj, potential_base):
                for attr in POTENTIAL_METHODS:
                    if attr in obj.__dict__:
                        self.patch(obj, attr, f"convex.{attr}")
