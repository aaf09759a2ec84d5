"""Tests of the benchmark's own arithmetic, checks and tracing.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import math
import os

import pytest

import checks
import layers
import run
import spans
import workloads


@pytest.fixture(scope="module")
def dn():
    return run._import_dnpde()


def test_self_time_of_nested_spans():
    now = [0.0]
    tracer = spans.Tracer(clock=lambda: now[0])

    def inner():
        now[0] += 2.0

    traced_inner = tracer.wrap("inner", inner)

    def outer():
        now[0] += 1.0
        traced_inner()
        traced_inner()
        now[0] += 3.0

    def failing():
        now[0] += 0.5
        traced_inner()
        raise ValueError("boom")

    tracer.wrap("outer", outer)()
    traced_inner()
    with pytest.raises(ValueError):
        tracer.wrap("failing", failing)()

    stats = tracer.stats
    assert stats[("outer", spans.ROOT)] == [1, 8.0, 4.0]
    assert stats[("inner", "outer")] == [2, 4.0, 4.0]
    assert stats[("inner", spans.ROOT)] == [1, 2.0, 2.0]
    assert stats[("failing", spans.ROOT)] == [1, 2.5, 0.5]
    assert stats[("inner", "failing")] == [1, 2.0, 2.0]
    assert layers.self_time(stats, {"outer", "inner", "failing"}) == 12.5
    assert layers.calls(stats, "inner", ("outer", "failing")) == 3


def test_exact_moment_one_step_by_hand():
    # alpha = 2, lam = 1, dt = 0.1: r = 1/(1 + 0.1*2/2) = 1/1.1
    # E c(1)^2 = r^2 c^2 + b^2 dt r^2 = (1 + 0.25*0.1)/1.21
    got = checks.exact_ou_moment([2.0], [0.5], [1.0], lam=1.0, dt=0.1, n_steps=1)
    assert got == pytest.approx(1.025 / 1.21, rel=1e-15)
    two_modes = checks.exact_ou_moment(
        [2.0, 8.0], [0.5, 0.25], [1.0, 0.0], lam=1.0, dt=0.1, n_steps=1
    )
    assert two_modes == pytest.approx(1.025 / 1.21 + 0.0625 * 0.1 / 1.4**2, rel=1e-15)


def _tiny_problem(dn):
    text = workloads.readme_config(7, "unused").replace("nodes = 64", "nodes = 8")
    text = text.replace("horizon = 0.25", "horizon = 0.03125")
    return dn.config.build_problem(dn.config.parse_config(text))


def test_certificate_recomputation_on_tiny_fixture(dn):
    cfg, u0 = _tiny_problem(dn)
    inc = dn.noise.sample_increments(dn.noise.PathSeed(7, 0), cfg.n_steps, cfg.dt, 4)
    traj = dn.solver.integrate(cfg, u0, increments=inc)
    assert cfg.n_steps == 2
    ratio = checks.max_certificate_ratio(dn, traj, inc)
    assert 0.0 < ratio <= 1.0
    traj.records[1].u = traj.records[1].u + 1e-6
    assert checks.max_certificate_ratio(dn, traj, inc) > 1.0


def _patched_attributes(dn):
    out = {}
    for prefix, names in spans.MODULE_SPANS.items():
        mod = getattr(dn, prefix)
        for name in names:
            if hasattr(mod, name):
                out[(mod, name)] = getattr(mod, name)
    for obj in vars(dn.convex).values():
        if isinstance(obj, type) and issubclass(obj, dn.convex.Potential):
            for name in spans.POTENTIAL_METHODS:
                if name in obj.__dict__:
                    out[(obj, name)] = obj.__dict__[name]
    return out


def test_traced_run_restores_wrapped_functions(dn):
    before = _patched_attributes(dn)
    cfg, u0 = _tiny_problem(dn)
    tracer = spans.Tracer()
    tracer.install(vars(dn), dn.convex.Potential)
    try:
        during = _patched_attributes(dn)
        dn.solver.integrate(cfg, u0, dn.noise.PathSeed(7, 0))
    finally:
        tracer.restore()
    assert all(during[key] is not fn for key, fn in before.items())
    after = _patched_attributes(dn)
    assert after.keys() == before.keys()
    assert all(after[key] is fn for key, fn in before.items())
    assert layers.calls(tracer.stats, "grid.div_arrays", ("solver.integrate",)) > 0
    assert layers.calls(tracer.stats, "convex.closed_resolvent") > 0


def test_benchmark_json_lists_the_reported_metrics():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in layers.PER_LAYER
    ]
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert all(math.isfinite(m["bound"]) for m in spec["end_to_end"])
