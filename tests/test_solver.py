"""Solver tests: per-mode recursion oracles, energy dissipation, coupling."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnpde import cli
from dnpde import config as cfgmod
from dnpde import convex as cx
from dnpde import grid as gd
from dnpde import noise as nz
from dnpde import solver as sv
from dnpde.grid import DirichletGrid, GridField

G16 = DirichletGrid((1.0,), (16,))
G8 = DirichletGrid((1.0,), (8,))


# the README's example config
README_CONFIG = """\
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
master_seed = 12345

[solver]
lambda_yosida = 0.25
dt = 0.015625
horizon = 1.0
scheme = implicit_opt
u0_kind = eigenmode
u0_mode = 1
u0_amplitude = 1.0
"""


def readme_problem(**overrides):
    return cfgmod.build_problem(cfgmod.parse_config(README_CONFIG), **overrides)


def heat_cfg(**kw):
    args = dict(
        grid=G16, gamma=cx.PowerPotential(2.0), beta=None, noise=None,
        lambda_yosida=0.5, dt=1 / 64, horizon=0.25, lambda_visc=0.1,
    )
    args.update(kw)
    return sv.SolverConfig(**args)


def test_config_validation():
    with pytest.raises(ValueError):
        heat_cfg(lambda_yosida=0.0)
    with pytest.raises(ValueError):
        heat_cfg(dt=-1.0)
    with pytest.raises(ValueError, match="lambda_visc"):
        heat_cfg(lambda_visc=-0.1)
    with pytest.raises(ValueError, match="lambda_visc"):
        heat_cfg(lambda_visc=math.nan)   # used to run and fail at the first step
    with pytest.raises(ValueError, match="lambda_visc"):
        heat_cfg(lambda_visc=math.inf)   # used to run and fail at the first step
    with pytest.raises(ValueError):
        heat_cfg(horizon=1 / 128)
    with pytest.raises(ValueError, match="horizon"):
        heat_cfg(horizon=math.inf)   # used to raise OverflowError
    with pytest.raises(ValueError, match="lambda_yosida"):
        heat_cfg(lambda_yosida=math.inf)
    with pytest.raises(ValueError):
        heat_cfg(scheme="magic")
    with pytest.raises(ValueError):
        heat_cfg(horizon=0.99 * 1 / 64 * 7)   # not a multiple of dt
    with pytest.raises(ValueError):
        heat_cfg(eps_inner=0.0)
    with pytest.raises(ValueError, match="^eps_inner"):
        heat_cfg(eps_inner=math.inf)   # used to run with no inner iteration at all
    with pytest.raises(ValueError):
        heat_cfg(max_inner=0)
    with pytest.raises(ValueError, match="^max_inner"):
        heat_cfg(max_inner=1.5)   # used to run with no Newton cap
    assert heat_cfg(lambda_visc=None).visc == 0.5   # tied to lambda_yosida


def test_implicit_step_zero_fixed_point():
    cfg = heat_cfg(beta=cx.AbsPotential())
    z = np.zeros(G16.shape)
    out = sv._implicit_step_arrays(cfg, sv._state(cfg, z), z).u
    assert np.abs(out).max() <= 1e-12


def test_implicit_step_eigenmode_recursion_oracle():
    # gamma quadratic, beta absent: v = u / (1 + dt*(visc + 1/(1+lam))*alpha_1)
    cfg = heat_cfg()
    e1 = gd.sine_mode(G16, 1)
    a1 = gd.sine_eigenvalue(G16, 1)
    v = sv._implicit_step_arrays(cfg, sv._state(cfg, e1), e1).u
    factor = 1.0 / (1.0 + cfg.dt * (cfg.visc + 1.0 / (1.0 + cfg.lambda_yosida)) * a1)
    assert np.abs(v - factor * e1).max() <= 1e-9


def test_implicit_step_single_node_sign_graph_oracle():
    # (v - f)/dt + beta_lam(v) = 0 on one effective node, matched to bisection
    grid = DirichletGrid((1.0,), (3,))
    cfg = sv.SolverConfig(
        grid, None, cx.AbsPotential(), None,
        lambda_yosida=0.2, dt=0.5, horizon=0.5, lambda_visc=0.0,
    )
    f = np.array([0.4, -0.1, 0.9])
    v = sv._implicit_step_arrays(cfg, sv._state(cfg, f), f).u

    def beta_lam(r):
        return (r - np.sign(r) * np.maximum(np.abs(r) - 0.2, 0.0)) / 0.2

    for fi, vi in zip(f, v):
        lo, hi = -2.0, 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if (mid - fi) / 0.5 + beta_lam(np.array(mid)) < 0:
                lo = mid
            else:
                hi = mid
        assert abs(vi - 0.5 * (lo + hi)) <= 1e-9


def test_step_optimality_certificate():
    cfg = heat_cfg(gamma=cx.PowerPotential(4.0), beta=cx.AbsPotential())
    rng = np.random.default_rng(3)
    u = rng.standard_normal(G16.shape)
    v = sv._implicit_step_arrays(cfg, sv._state(cfg, u), u).u
    gnorm = gd.norm_h(G16, sv._evaluate(cfg, sv._state(cfg, v), u).grad)
    assert gnorm <= cfg.eps_inner


def test_semi_implicit_eigenmode_recursion_oracle():
    # scalar recursion: v = u*(1 - dt*alpha_1/(1+lam)) / (1 + dt*visc*alpha_1)
    cfg = sv.SolverConfig(
        G8, cx.PowerPotential(2.0), None, None,
        lambda_yosida=0.5, dt=1e-3, horizon=1e-3, lambda_visc=0.2,
        scheme="semi_implicit",
    )
    assert cfg.stability_bound() <= 1.0
    e1 = gd.sine_mode(G8, 1)
    a1 = gd.sine_eigenvalue(G8, 1)
    v = sv._semi_implicit_step_arrays(cfg, sv._state(cfg, e1), e1).u
    factor = (1.0 - cfg.dt * a1 / (1.0 + cfg.lambda_yosida)) / (1.0 + cfg.dt * cfg.visc * a1)
    assert np.abs(v - factor * e1).max() <= 1e-10


def test_semi_implicit_refuses_unstable_step():
    cfg = heat_cfg(scheme="semi_implicit")
    assert cfg.stability_bound() > 1.0
    u = GridField(G16, gd.sine_mode(G16, 1))
    with pytest.raises(sv.StabilityError) as err:
        sv.integrate(cfg, u)
    assert err.value.step_index == 1


def test_schemes_agree_to_second_order_per_step():
    rng = np.random.default_rng(4)
    u = gd.sine_mode(G8, 1) + 0.3 * gd.sine_mode(G8, 2)
    errs = []
    dts = [8e-4, 4e-4, 2e-4]
    for dt in dts:
        cfg = sv.SolverConfig(
            G8, cx.PowerPotential(2.0), None, None,
            lambda_yosida=0.5, dt=dt, horizon=dt, lambda_visc=0.2,
        )
        vi = sv._implicit_step_arrays(cfg, sv._state(cfg, u), u).u
        vs = sv._semi_implicit_step_arrays(cfg, sv._state(cfg, u), u).u
        errs.append(float(gd.norm_h(G8, vi - vs)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.9)


def test_scheme_agreement_in_trajectory_norm():
    # the two routes converge to each other in C([0,T];H) at order >= 0.9
    dists, dts = [], [3.2e-4, 1.6e-4, 8e-5]
    for dt in dts:
        T = 160 * 3.2e-4
        cfg_i = sv.SolverConfig(
            G8, cx.PowerPotential(2.0), None, None,
            lambda_yosida=0.5, dt=dt, horizon=T, lambda_visc=0.2,
        )
        cfg_s = sv.SolverConfig(
            G8, cx.PowerPotential(2.0), None, None,
            lambda_yosida=0.5, dt=dt, horizon=T, lambda_visc=0.2,
            scheme="semi_implicit",
        )
        u0 = GridField(G8, gd.sine_mode(G8, 1))
        ti = sv.integrate(cfg_i, u0)
        ts = sv.integrate(cfg_s, u0)
        diff = ti.states() - ts.states()
        dists.append(float(np.sqrt(G8.node_volume * (diff**2).sum(axis=1)).max()))
    orders = np.log2(np.array(dists[:-1]) / np.array(dists[1:]))
    assert np.all(orders >= 0.9)


def test_integrate_zero_equilibrium():
    cfg = heat_cfg(beta=cx.AbsPotential())
    traj = sv.integrate(cfg, GridField(G16, np.zeros(G16.shape)))
    assert np.all(traj.ledgers["norm_u_sq"] == 0.0)
    assert traj.energy_residual == 0.0


def test_integrate_deterministic_dissipation():
    cfg = heat_cfg(gamma=cx.PowerPotential(4.0), lambda_visc=0.0, lambda_yosida=0.1)
    u0 = GridField(G16, 1.5 * gd.sine_mode(G16, 1))
    traj = sv.integrate(cfg, u0)
    norms = traj.ledgers["norm_u_sq"]
    assert np.all(np.diff(norms) < 0)
    # ledger pairings nonnegative (graphs through the origin)
    assert traj.ledgers["pairing_eta_gradu"].min() >= -1e-10
    assert traj.ledgers["pairing_xi_u"].min() >= -1e-10
    # graph consistency at every recorded step
    assert traj.max_graph_residual <= 1e-8


def test_energy_residual_heat_sign_and_order():
    residuals = []
    for dt in (1 / 32, 1 / 64, 1 / 128):
        cfg = heat_cfg(dt=dt, horizon=0.5, lambda_visc=0.0, lambda_yosida=0.3)
        traj = sv.integrate(cfg, GridField(G16, gd.sine_mode(G16, 1)))
        residuals.append(traj.energy_residual)
    assert all(r <= 0 for r in residuals)
    orders = np.log2(np.abs(residuals[:-1]) / np.abs(residuals[1:]))
    assert np.all(orders >= 0.9)


def test_per_step_energy_inequality():
    cfg = heat_cfg(gamma=cx.PowerPotential(4.0), beta=cx.AbsPotential(), lambda_visc=0.05)
    traj = sv.integrate(cfg, GridField(G16, 1.2 * gd.sine_mode(G16, 1)))
    led = traj.ledgers
    norm_sq = led["norm_u_sq"]
    lhs = 0.5 * norm_sq[1:] + cfg.dt * (led["pairing_eta_gradu"][1:] + led["pairing_xi_u"][1:])
    assert np.all(lhs <= 0.5 * norm_sq[:-1] + cfg.eps_inner * np.sqrt(norm_sq[1:]) + 1e-14)


def test_deterministic_contraction():
    cfg = heat_cfg(gamma=cx.PowerPotential(4.0), beta=cx.AbsPotential(), lambda_visc=0.1)
    ua = sv.integrate(cfg, GridField(G16, gd.sine_mode(G16, 1)))
    ub = sv.integrate(cfg, sv.initial_datum(G16, "bump", amplitude=0.7))
    dist = np.sqrt(
        G16.node_volume * ((ua.states() - ub.states()) ** 2).sum(axis=1)
    )
    assert np.all(dist <= dist[0] + 10 * cfg.eps_inner * np.arange(dist.size))


def test_integrate_stochastic_determinism_and_ledger():
    model = nz.NoiseModel((0.4, 0.2), nz.AdditiveGain(), 0.5)
    cfg = heat_cfg(noise=model)
    seed = nz.PathSeed(2718, 5)
    u0 = GridField(G16, gd.sine_mode(G16, 1))
    t1 = sv.integrate(cfg, u0, seed)
    t2 = sv.integrate(cfg, u0, seed)
    assert np.array_equal(t1.states(), t2.states())
    assert t1.ledgers["hs_sq"][0] == pytest.approx(0.4**2 + 0.2**2)
    with pytest.raises(ValueError):
        sv.integrate(cfg, u0)   # seed required with noise
    with pytest.raises(ValueError):
        sv.integrate(cfg, u0, seed, np.zeros((3, 2)))   # wrong table length


def test_batch_matches_ledger_shape_and_residuals():
    model = nz.NoiseModel((0.4,), nz.AdditiveGain(), 0.4)
    cfg = heat_cfg(noise=model, horizon=0.125)
    res = sv.run_ensemble(cfg, np.zeros(G16.shape), master_seed=4, n_paths=3)
    assert res.terminal.shape[-1] == 3
    assert res.ledgers["norm_u_sq"].shape == (cfg.n_steps + 1, 3)
    # batched residuals equal the single-path residuals path by path
    for i in range(3):
        inc = nz.sample_increments(nz.PathSeed(4, i), cfg.n_steps, cfg.dt, 1)
        traj = sv.integrate(cfg, GridField(G16, np.zeros(G16.shape)), nz.PathSeed(4, i), inc)
        assert res.energy_residual[i] == pytest.approx(traj.energy_residual, rel=1e-9, abs=1e-12)


def _refuse_overflowing_batch(scheme, gamma, beta, message):
    """A batch without and an ensemble with noise, both from amplitude 1e200,
    fail with ``message`` at step 0, with no numpy warning."""
    g = DirichletGrid((1.0, 1.0), (8, 8))
    model = nz.NoiseModel(nz.amplitudes_power_law(32, 0.5, 1.0), nz.TanhGain(), 1.0)
    cfg = sv.SolverConfig(
        g, gamma, beta, None, lambda_yosida=0.5, dt=2**-14, horizon=4 * 2**-14, scheme=scheme,
    )
    u0 = sv.initial_datum(g, "bump", amplitude=1e200).values
    runs = [
        lambda: sv.integrate_batch(cfg, u0, None),
        lambda: sv.run_ensemble(replace(cfg, noise=model), u0, master_seed=1, n_paths=3),
    ]
    for run in runs:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(sv.SolverError, match=message) as info:
                run()
        assert info.value.step_index == 0


@pytest.mark.parametrize("scheme", ["semi_implicit", "implicit_opt"])
def test_batch_with_overflowing_ledger_fails_closed(scheme):
    # without graphs, the ledger row of step 0 overflows at amplitude 1e200
    _refuse_overflowing_batch(scheme, None, None, "ledger is not finite: norm_u_sq")


@pytest.mark.parametrize("scheme", ["semi_implicit", "implicit_opt"])
def test_batch_keeping_nothing_certifies_its_overflowing_graphs(scheme):
    # a batch that keeps no record still certifies each one, so with both
    # graphs at amplitude 1e200 the step-0 record is refused before its ledger row
    graphs = cx.PowerPotential(4.0), cx.ExpCoshPotential()
    _refuse_overflowing_batch(scheme, *graphs, "graph certificate failed")


def test_ensemble_paths_match_integrate():
    # the inner solve freezes each path once it is certified, so a path takes
    # the same Newton steps alone or in a batch; what is left is rounding: the
    # noise contraction (BLAS) and the h-norm reductions sum in an order that
    # depends on the array shape (measured max 1.1e-16, far below the
    # certified 2*T*eps_inner = 5e-11)
    model = nz.NoiseModel((0.4, 0.2), nz.AdditiveGain(), 0.5)
    u0 = GridField(G16, gd.sine_mode(G16, 1))
    for gamma, beta in [(cx.PowerPotential(2.0), None), (cx.PowerPotential(4.0), cx.AbsPotential())]:
        cfg = heat_cfg(gamma=gamma, beta=beta, noise=model)
        # with fine_dt, path i runs on its own table drawn at dt/2 and summed onto dt
        for fine_dt in (None, cfg.dt / 2):
            res = sv.run_ensemble(
                cfg, u0.values, master_seed=7, n_paths=70, keep_every=1, fine_dt=fine_dt
            )
            states = res.states()
            assert states.shape == (cfg.n_steps + 1, 16, 70)
            for i in (0, 1, 63, 64, 65, 66, 67, 68, 69):   # spread over the one 70-path batch
                seed = nz.PathSeed(7, i)
                inc = None
                if fine_dt is not None:
                    (inc,) = nz.coupled_increment_tables(seed, fine_dt, [cfg.dt], cfg.horizon, 2)
                diff = states[..., i] - sv.integrate(cfg, u0, seed, inc).states()
                sup = np.sqrt(G16.node_volume * (diff**2).sum(axis=1)).max()
                assert sup <= 1e-14
    # 2-d: the Newton direction comes from CG, whose converged columns stay
    # untouched while the others iterate
    model = nz.NoiseModel((0.4, 0.2, 0.1), nz.AdditiveGain(), 0.5)
    for n in (8, 12):
        g = DirichletGrid((1.0, 1.0), (n, n))
        cfg = heat_cfg(
            grid=g, gamma=cx.PowerPotential(4.0), beta=cx.AbsPotential(), noise=model,
            horizon=4 / 64,
        )
        u0 = GridField(g, gd.sine_mode(g, (1, 1)))
        res = sv.run_ensemble(cfg, u0.values, master_seed=7, n_paths=6, keep_every=1)
        states = res.states()
        for i in range(6):
            diff = states[..., i] - sv.integrate(cfg, u0, nz.PathSeed(7, i)).states()
            sup = np.sqrt(g.node_volume * (diff**2).sum(axis=(1, 2))).max()
            assert sup <= 1e-14


def test_one_path_batch_matches_integrate():
    # one result type: in 1-d a one-path batch keeping its records is the
    # single path bit for bit, ledgers, records and certificate alike (2-d
    # sine transforms round by batch shape, see the test above); on the
    # README config this pins the Thomas sweep's Python-float route (one
    # path) against its row route (a batch)
    model = nz.NoiseModel((0.4, 0.2, 0.1), nz.TanhGain(), 0.5)
    base = heat_cfg(gamma=cx.PowerPotential(4.0), beta=cx.ExpCoshPotential(), noise=model)
    u16 = GridField(G16, 1.2 * gd.sine_mode(G16, 1))
    for cfg, u0 in (
        (base, u16),
        (replace(base, scheme="semi_implicit", dt=2**-12, horizon=2**-9), u16),
        readme_problem(),
    ):
        inc = nz.sample_increments(nz.PathSeed(9, 0), cfg.n_steps, cfg.dt, cfg.noise.mode_count)
        one = sv.integrate(cfg, u0, increments=inc)
        batch = sv.integrate_batch(cfg, u0.values, inc[..., None], keep_every=1)
        for name in sv.LEDGER_COLUMNS:
            assert np.array_equal(batch.ledgers[name][:, 0], one.ledgers[name])
        assert len(batch.records) == len(one.records) == cfg.n_steps + 1
        for rb, ro in zip(batch.records, one.records):
            assert rb.index == ro.index
            pairs = [(rb.u, ro.u), *zip(rb.faces, ro.faces)]
            pairs += [] if ro.eta is None else list(zip(rb.eta, ro.eta))
            pairs += [] if ro.xi is None else [(rb.xi, ro.xi)]
            assert all(np.array_equal(b[..., 0], o) for b, o in pairs)
        assert np.array_equal(batch.terminal[..., 0], one.terminal)
        assert batch.max_graph_residual == one.max_graph_residual
        assert batch.energy_residual[0] == one.energy_residual
        kept_none = sv.integrate_batch(cfg, u0.values, inc[..., None])
        assert kept_none.records == []
        assert kept_none.max_graph_residual == one.max_graph_residual


def _tridiagonal(rng, n):
    """A random strictly diagonally dominant symmetric tridiagonal system."""
    off = -rng.uniform(0.0, 1.0, n - 1)
    diag = rng.uniform(0.1, 1.0, n) + np.abs(np.r_[off, 0.0]) + np.abs(np.r_[0.0, off])
    return diag, off, rng.standard_normal(n)


def _thomas_routes(diag, off, rhs):
    """``_thomas`` on one path (Python floats), then the columns of two
    5-path batches: the system tiled to 5 columns (rows), and its ``(n,)``
    coefficient lines (floats) with the right-hand side tiled (rows);
    non-finite values may warn on the rows only."""
    one = sv._thomas(diag, off, rhs)
    with np.errstate(all="ignore"):
        tiled = sv._thomas(*(np.tile(a[:, None], (1, 5)) for a in (diag, off, rhs)))
        lines = sv._thomas(diag, off, np.tile(rhs[:, None], (1, 5)))
    assert tiled.shape == lines.shape == (diag.size, 5)
    return one, np.hstack([tiled, lines]).T


@pytest.mark.parametrize("n", [3, 8, 64, 257])
def test_thomas_routes_agree_bit_for_bit(n):
    rng = np.random.default_rng(n)
    diag, off, rhs = _tridiagonal(rng, n)
    one, columns = _thomas_routes(diag, off, rhs)
    assert all(col.tobytes() == one.tobytes() for col in columns)
    exact = np.linalg.solve(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1), rhs)
    assert np.max(np.abs(one - exact)) <= 1e-12 * np.max(np.abs(exact))
    # a non-finite coefficient gives no ZeroDivisionError and the same result
    # on both routes: a nan or an infinite coupling poisons the sweep, while
    # an infinite diagonal entry decouples its row, whose unknown is then 0
    i = n // 2
    cases = {
        "nan rhs": (diag, off, np.where(np.arange(n) == i, np.nan, rhs)),
        "nan diagonal": (np.where(np.arange(n) == i, np.nan, diag), off, rhs),
        "inf coupling": (diag, np.where(np.arange(n - 1) == i - 1, -np.inf, off), rhs),
        "inf diagonal": (np.where(np.arange(n) == i, np.inf, diag), off, rhs),
    }
    for name, system in cases.items():
        one, columns = _thomas_routes(*system)
        assert all(col.tobytes() == one.tobytes() for col in columns), name
        if name == "inf diagonal":
            assert one[i] == 0.0 and np.isfinite(one).all()
        else:
            assert not np.isfinite(one).any(), name


def _first_evaluation(cfg, u, dw):
    """The state at ``u`` and the step objective there toward ``u`` plus the
    noise of increments ``dw``."""
    forcing = u + nz.apply_b(cfg.noise, cfg.grid, u, dw)
    state = sv._state(cfg, u)
    return state, sv._evaluate(cfg, state, forcing)


def _blended_direction(cfg, state, ev, mu):
    """The Newton direction of the curvature blend written out: ``n + mu * (s
    - n)``, with ``n = visc + G'`` and ``s = visc + max(G', G/a)`` on the
    faces, ``n = G'`` and ``s = max(G', G/a)`` at the nodes, and ``s = n``
    without the graph: then the faces carry the viscosity alone and the
    nodes no term."""
    t = state.terms

    def secant(dG, a, G):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return np.maximum(dG, np.where(a != 0.0, G / a, dG))

    face_curv = np.zeros_like(state.face_buf) if t.face_curv is None else t.face_curv
    face, node = cfg.visc + face_curv, t.node_curv
    face_sec, node_sec = face, node
    if cfg.gamma is not None:
        face_sec = cfg.visc + secant(t.face_curv, state.face_buf, state.eta_buf)
    if cfg.beta is not None:
        node_sec = secant(node, state.u, state.xi)
    blended = t._replace(
        face_curv=face + mu * (face_sec - face),
        node_curv=None if node is None else node + mu * (node_sec - node),
    )
    # without viscosity and with no path damped, the direction takes them as they are
    undamped = replace(cfg, lambda_visc=0.0)
    return sv._newton_direction(undamped, state._replace(terms=blended), ev, np.zeros_like(mu))


@pytest.mark.parametrize("dim", [1, 2])
def test_newton_direction_without_damping_is_the_blend_at_zero(monkeypatch, dim):
    # with no path damped (mu = 0) the Newton curvatures are used as they are;
    # they are finite and >= 0, so n + 0 * (s - n) is n bit for bit
    cfg, u0 = readme_problem(**({"grid": {"dimension": 2, "nodes": (8,)}} if dim == 2 else {}))
    solves = _counted(monkeypatch, gd, "cg_solve")
    dw = nz.sample_increments(nz.PathSeed(3, 0), 1, cfg.dt, cfg.noise.mode_count)[0]
    state, ev = _first_evaluation(cfg, u0.values, dw)
    mu = np.zeros_like(ev.grad_norm)
    d = sv._newton_direction(cfg, state, ev, mu)
    assert d.tobytes() == _blended_direction(cfg, state, ev, mu).tobytes()
    assert len(solves) == (2 if dim == 2 else 0)
    # a damped path in its batch leaves an undamped one its own direction
    u2 = np.stack([u0.values, 0.5 * u0.values], axis=-1)
    state2, ev2 = _first_evaluation(cfg, u2, np.stack([dw, 2.0 * dw], axis=-1))
    undamped = sv._newton_direction(cfg, state2, ev2, np.zeros(2))
    damped = sv._newton_direction(cfg, state2, ev2, np.array([0.0, 0.5]))
    assert damped[..., 0].tobytes() == undamped[..., 0].tobytes()
    assert damped[..., 1].tobytes() != undamped[..., 1].tobytes()
    # and a batch column is its single path: bit for bit on the Thomas rows;
    # 2-d CG sums each column in an order set by the batch shape
    if dim == 1:
        assert undamped[..., 0].tobytes() == d.tobytes()
    else:
        assert np.max(np.abs(undamped[..., 0] - d)) <= 1e-13 * np.max(np.abs(d))


@pytest.mark.parametrize("missing", ["none", "gamma", "beta"])
@pytest.mark.parametrize("dim", [1, 2])
def test_damped_newton_direction_is_the_explicit_blend(dim, missing):
    # the secant curvatures, built from the state's arrays for a damped
    # direction only, enter as the written-out blend; without gamma the abs
    # beta carries the damping, without beta an abs gamma does
    overrides = {"grid": {"dimension": 2, "nodes": (8,)}} if dim == 2 else {}
    if missing != "none":
        other = "beta" if missing == "gamma" else "gamma"
        overrides["potentials"] = {f"{missing}_kind": "none", f"{other}_kind": "abs"}
    cfg, u0 = readme_problem(**overrides)
    assert (cfg.gamma is None, cfg.beta is None) == (missing == "gamma", missing == "beta")
    dw = nz.sample_increments(nz.PathSeed(3, 0), 1, cfg.dt, cfg.noise.mode_count)[0]
    u2 = np.stack([u0.values, 0.5 * u0.values], axis=-1)
    state, ev = _first_evaluation(cfg, u2, np.stack([dw, 2.0 * dw], axis=-1))
    mu = np.array([0.0, 0.5])
    damped = sv._newton_direction(cfg, state, ev, mu)
    assert damped.tobytes() == _blended_direction(cfg, state, ev, mu).tobytes()
    undamped = sv._newton_direction(cfg, state, ev, np.zeros(2))
    assert damped[..., 1].tobytes() != undamped[..., 1].tobytes()


def test_secant_is_computed_only_for_a_damped_direction(monkeypatch):
    secants = _counted(monkeypatch, sv, "_secant")
    directions = _counted(monkeypatch, sv, "_newton_direction")
    cfg, u0 = readme_problem(solver={"horizon": 0.015625})   # one step
    sv.integrate(cfg, u0, seed=nz.PathSeed(12345, 0))
    assert len(directions) > 0 and len(secants) == 0
    # the total-variation step damps: one secant per graph and damped direction
    g = DirichletGrid((1.0,), (64,))
    cfg = sv.SolverConfig(
        g, cx.AbsPotential(), cx.AbsPotential(), None,
        lambda_yosida=0.01, dt=0.5, horizon=0.5, lambda_visc=0.0,
    )
    f = gd.sine_mode(g, 1) + 0.3 * np.random.default_rng(5).standard_normal(64)
    directions.clear()
    sv._implicit_step_arrays(cfg, sv._state(cfg, f), f)
    damped = sum(bool(args[-1].any()) for args in directions)
    assert damped > 0 and len(secants) == 2 * damped


def test_ensemble_rejects_empty():
    cfg = heat_cfg(noise=nz.NoiseModel((0.5,), nz.AdditiveGain(), 0.5))
    with pytest.raises(ValueError, match="at least one path"):
        sv.run_ensemble(cfg, np.zeros(G16.shape), master_seed=1, n_paths=0)
    with pytest.raises(ValueError, match="n_paths"):
        sv.run_ensemble(cfg, np.zeros(G16.shape), master_seed=1, n_paths=2.5)
    # fine_dt must be positive and divide dt: the others are refused, not run at another dt
    for fine_dt in (2 * cfg.dt, 0.3 * cfg.dt, cfg.dt / 1.5, 0.0):
        with pytest.raises(ValueError):
            sv.run_ensemble(cfg, np.zeros(G16.shape), master_seed=1, n_paths=2, fine_dt=fine_dt)


def test_ensemble_draws_with_one_philox(monkeypatch):
    # the whole table comes from one generator, re-keyed per path
    made = []
    philox = np.random.Philox

    def counted(*args, **kwargs):
        made.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted)
    cfg = heat_cfg(noise=nz.NoiseModel((0.5, 0.25), nz.AdditiveGain(), 0.6))
    for n_paths, fine_dt in ((1, None), (5, None), (70, cfg.dt / 2)):
        made.clear()
        sv.run_ensemble(cfg, np.zeros(G16.shape), master_seed=3, n_paths=n_paths, fine_dt=fine_dt)
        assert len(made) == 1


ZERO_GRAPH = cx.SampledSlopePotential([-1.0, 1.0], [0.0, 0.0])


@pytest.mark.parametrize("lambda_visc", [0.0, 0.3])
@pytest.mark.parametrize("scheme", ["implicit_opt", "semi_implicit"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("missing", ["gamma", "beta"])
def test_missing_graph_runs_as_the_zero_graph(missing, dim, scheme, lambda_visc):
    # a missing graph contributes no term at all, and a zero graph contributes
    # exact zeros: the two runs agree bit for bit
    g = G16 if dim == 1 else DirichletGrid((1.0, 1.0), (6, 6))
    present = {"gamma": cx.PowerPotential(4.0), "beta": cx.AbsPotential()}
    model = nz.NoiseModel((0.5, 0.25, 0.1), nz.AdditiveGain(), 0.6)
    runs = []
    for graph in (None, ZERO_GRAPH):
        cfg = heat_cfg(
            grid=g, noise=model, scheme=scheme, lambda_visc=lambda_visc,
            dt=2.0**-12, horizon=2.0**-9, **{**present, missing: graph},
        )
        u0 = gd.sine_mode(g, 1 if dim == 1 else (1, 1))
        runs.append(sv.run_ensemble(cfg, u0, master_seed=5, n_paths=3))
    absent, zero = runs
    for col in sv.LEDGER_COLUMNS:
        assert absent.ledgers[col].tobytes() == zero.ledgers[col].tobytes(), col
    assert absent.terminal.tobytes() == zero.terminal.tobytes()
    assert absent.energy_residual.tobytes() == zero.energy_residual.tobytes()


LINEAR_CASES = {   # (gamma, beta, lambda_visc)
    "linear": (cx.PowerPotential(2.0, scale=0.7), None, 0.0),
    "linear_visc": (cx.PowerPotential(2.0, scale=0.7), None, 0.3),
    "linear_abs": (cx.PowerPotential(2.0, scale=0.7), cx.AbsPotential(), 0.0),
    "linear_abs_visc": (cx.PowerPotential(2.0, scale=0.7), cx.AbsPotential(), 0.3),
    "no_gamma_visc": (None, cx.PowerPotential(2.0, scale=1.3), 0.3),
}


SHARED_CASES = ("linear", "linear_visc", "no_gamma_visc")   # one 1-d system for every path


def _step_log(monkeypatch):
    """Log ``step`` at each implicit step and ``direction`` at each Newton direction."""
    log = []
    for name in ("_implicit_step_arrays", "_newton_direction"):
        inner = getattr(sv, name)

        def logged(*args, _inner=inner, _name=name):
            log.append(_name)
            return _inner(*args)

        monkeypatch.setattr(sv, name, logged)
    return log


@pytest.mark.parametrize("case", LINEAR_CASES)
@pytest.mark.parametrize("dim", [1, 2])
def test_linear_curvature_as_a_number_changes_no_bit(monkeypatch, dim, case):
    # a Newton curvature that is one number builds the Newton system once for
    # the batch; every run is the run on the same number spread over every
    # face, node and path, bit for bit, except where a 1-d system is one
    # number on every face and node: that one takes the cached inverse and
    # the spread run the Thomas sweep, which agree to rounding
    gamma, beta, lambda_visc = LINEAR_CASES[case]
    g = G16 if dim == 1 else DirichletGrid((1.0, 1.0), (6, 6))
    cfg = heat_cfg(
        grid=g, gamma=gamma, beta=beta, lambda_visc=lambda_visc, lambda_yosida=0.25,
        noise=nz.NoiseModel((0.5, 0.25, 0.1), nz.AdditiveGain(), 0.6), dt=2.0**-8, horizon=2.0**-5,
    )
    u0 = 1.5 * gd.sine_mode(g, (1,) * dim)
    table = sv._ensemble_table(cfg, 8, 3)
    u2 = np.stack([u0, -0.5 * u0], axis=-1)
    state, ev = _first_evaluation(cfg, u2, table[0, :, :2])
    mu = np.array([0.0, 0.5])   # one damped path
    log = _step_log(monkeypatch)

    def outputs():
        log.clear()
        runs = (
            sv.integrate(cfg, GridField(g, u0), nz.PathSeed(8), keep_every=2),
            sv.integrate_batch(cfg, u0, table, keep_every=2),   # 3 paths, not 6 nodes
        )
        u2_state = sv._state(cfg, u2)
        directions = [sv._newton_direction(cfg, u2_state, ev, m) for m in (mu, np.zeros(2))]
        return runs, directions, log[: -len(directions)]

    (one, batch), (damped, undamped), steps = outputs()
    linear = "face_curv" if gamma is not None else "node_curv"
    assert np.ndim(getattr(state.terms, linear)) == 0
    # the slope derivative as an array of its argument's shape, as it was
    # before a linear graph's became one number
    monkeypatch.setattr(
        cx.PowerPotential, "slope_derivative",
        lambda self, x: np.full_like(np.asarray(x, dtype=float), self.scale),
    )
    (old_one, old_batch), (old_damped, old_undamped), old_steps = outputs()
    assert np.ndim(getattr(sv._state(cfg, u2).terms, linear)) > 0
    assert damped.tobytes() == old_damped.tobytes()
    if dim == 2 or case not in SHARED_CASES:
        _assert_same_run(one, old_one)
        _assert_same_run(batch, old_batch)
        assert undamped.tobytes() == old_undamped.tobytes()
        return
    t, h2 = state.terms, G16.spacing[0] ** 2
    face = sv._plus(cfg.visc, t.face_curv)
    diag = sv._plus(1.0 / cfg.dt, t.node_curv) + (face + face) / h2
    inverse = sv._shared_inverse(16, diag, -face / h2)
    assert undamped.tobytes() == (inverse @ -ev.grad).tobytes()
    assert np.max(np.abs(undamped - old_undamped)) <= 1e-13 * np.max(np.abs(old_undamped))
    assert steps == old_steps and steps.count("_implicit_step_arrays") == 2 * cfg.n_steps
    for new, old in ((one, old_one), (batch, old_batch)):
        assert np.max(np.abs(new.terminal - old.terminal)) <= 1e-13 * np.max(np.abs(old.terminal))


def test_linear_batch_sweeps_coefficient_lines(monkeypatch):
    # a linear gamma without beta gives every path and step the same Newton
    # system: its (n,) coefficient lines are swept once, on the identity, to
    # build the cached inverse, and no step sweeps
    cfg = heat_cfg(
        noise=nz.NoiseModel((0.5, 0.25), nz.AdditiveGain(), 0.6), lambda_visc=0.0,
        dt=2.0**-6, horizon=2.0**-4,
    )
    sv._shared_inverse.cache_clear()
    sweeps = _counted(monkeypatch, sv, "_thomas")
    sv.run_ensemble(cfg, gd.sine_mode(G16, 1), master_seed=4, n_paths=64)
    assert len(sweeps) == 1
    ((diag, off, rhs),) = sweeps
    assert diag.shape == (16,) and off.shape == (15,) and np.array_equal(rhs, np.eye(16))
    for shape in [(), (3,), (4, 5)]:
        x = np.linspace(-2.0, 2.0, math.prod(shape)).reshape(shape)
        d = cx.PowerPotential(2.0, scale=0.7).slope_derivative(x)
        assert np.ndim(d) == 0 and d == 0.7
        for p in (1.5, 4.0):
            assert np.shape(cx.PowerPotential(p, scale=0.7).slope_derivative(x)) == shape


def test_shared_system_above_the_cap_is_swept(monkeypatch):
    # past SHARED_INVERSE_NODES the inverse's n^2 work per path loses to the
    # sweep: every direction sweeps the (n,) lines and no inverse is built
    n = sv.SHARED_INVERSE_NODES + 19
    g = DirichletGrid((1.0,), (n,))
    cfg = heat_cfg(
        grid=g, noise=nz.NoiseModel((0.5, 0.25), nz.AdditiveGain(), 0.6), lambda_visc=0.0,
        dt=2.0**-6, horizon=2.0**-4,
    )
    inverses = _counted(monkeypatch, sv, "_shared_inverse")
    sweeps = _counted(monkeypatch, sv, "_thomas")
    directions = _counted(monkeypatch, sv, "_newton_direction")
    sv.run_ensemble(cfg, gd.sine_mode(g, 1), master_seed=4, n_paths=3)
    assert inverses == [] and len(sweeps) == len(directions) >= cfg.n_steps
    assert all(diag.shape == (n,) and rhs.shape == (n, 3) for diag, _, rhs in sweeps)


def test_damped_path_takes_the_sweep(monkeypatch):
    # a damped path blends its own secant into the face coupling, so the
    # batch's system is no longer shared and the sweep takes it
    cfg = heat_cfg(noise=nz.NoiseModel((0.5, 0.25), nz.AdditiveGain(), 0.6), lambda_visc=0.0)
    u2 = np.stack([gd.sine_mode(G16, 1), -0.5 * gd.sine_mode(G16, 2)], axis=-1)
    state, ev = _first_evaluation(cfg, u2, np.array([[0.3, -0.2], [0.1, 0.4]]))
    inverses = _counted(monkeypatch, sv, "_shared_inverse")
    sweeps = _counted(monkeypatch, sv, "_thomas")
    sv._newton_direction(cfg, state, ev, np.array([0.0, 0.5]))
    assert inverses == [] and len(sweeps) == 1 and sweeps[0][1].shape == (15, 2)
    sv._newton_direction(cfg, state, ev, np.zeros(2))
    assert len(inverses) == 1 and len(sweeps) == 1


def test_single_linear_path_takes_the_inverse(monkeypatch):
    # a one-path right-hand side (n,) takes the inverse too; the matrix-vector
    # product rounds unlike the batch's matrix product, within the bound of
    # test_ensemble_paths_match_integrate
    cfg = heat_cfg(noise=nz.NoiseModel((0.4, 0.2), nz.AdditiveGain(), 0.5), lambda_visc=0.0)
    u0 = GridField(G16, gd.sine_mode(G16, 1))
    inverses = _counted(monkeypatch, sv, "_shared_inverse")
    sweeps = _counted(monkeypatch, sv, "_thomas")
    alone = sv.integrate(cfg, u0, nz.PathSeed(7, 2)).states()
    assert len(inverses) >= cfg.n_steps and sweeps == []
    batch = sv.run_ensemble(cfg, u0.values, master_seed=7, n_paths=5, keep_every=1).states()
    sup = np.sqrt(G16.node_volume * ((batch[..., 2] - alone) ** 2).sum(axis=1)).max()
    assert sup <= 1e-14


def test_batch_requires_increments_with_noise():
    cfg = heat_cfg(noise=nz.NoiseModel((0.4,), nz.AdditiveGain(), 0.4))
    with pytest.raises(ValueError):
        sv.integrate_batch(cfg, np.zeros(G16.shape), None)
    with pytest.raises(ValueError):
        sv.integrate_batch(cfg, np.zeros(G16.shape), np.zeros((cfg.n_steps - 1, 1, 3)))
    with pytest.raises(ValueError):
        sv.integrate_batch(cfg, np.zeros((16, 2)), np.zeros((cfg.n_steps, 1, 3)))


def test_entry_points_refuse_foreign_and_misshapen_data():
    cfg = heat_cfg()
    with pytest.raises(ValueError, match=r"^initial datum does not live on the solver grid$"):
        sv.integrate(cfg, GridField(G8, np.zeros(G8.shape)))
    for shape in ((17,), (16, 2, 2)):
        want = rf"^initial data of shape \({shape[0]},.*\) do not fit grid \(16,\)$"
        with pytest.raises(ValueError, match=want):
            sv.integrate_batch(cfg, np.zeros(shape), None)
    with pytest.raises(ValueError, match=r"^ensemble runs need a noise model$"):
        sv.run_ensemble(cfg, np.zeros(G16.shape), master_seed=1, n_paths=2)


def test_batched_inner_failure_names_path_and_step():
    cfg = heat_cfg(gamma=cx.PowerPotential(4.0), beta=cx.AbsPotential(), max_inner=1)
    e1 = gd.sine_mode(G16, 1)
    u0 = np.stack([0.0 * e1, 0.1 * e1, 2.0 * e1], axis=-1)   # path 2 is the worst
    with pytest.raises(sv.InnerSolveError) as info:
        sv.integrate_batch(cfg, u0, None)
    err = info.value
    assert err.step_index == 1
    assert (err.path, err.iterations) == (2, 1)
    assert err.grad_norm > cfg.eps_inner
    msg = str(err)
    assert "exceeded 1 iterations on path 2" in msg
    assert float(msg.split("gradient norm ")[1].split()[0]) == pytest.approx(err.grad_norm, rel=1e-3)


def test_failed_line_search_fails_closed(monkeypatch):
    # an ascent direction can never pass the Armijo test
    monkeypatch.setattr(sv, "_newton_direction", lambda cfg, state, ev, mu: ev.grad)
    cfg = heat_cfg(gamma=cx.PowerPotential(4.0), beta=cx.AbsPotential())
    u0 = GridField(G16, gd.sine_mode(G16, 1))
    with pytest.raises(sv.InnerSolveError, match="line search failed") as info:
        sv.integrate(cfg, u0)
    err = info.value
    assert (err.step_index, err.path, err.iterations) == (1, None, 1)
    assert err.grad_norm > cfg.eps_inner


def test_initial_datum_kinds(tmp_path):
    z = sv.initial_datum(G16, "zero")
    assert np.all(z.values == 0)
    e = sv.initial_datum(G16, "eigenmode", mode=2, amplitude=3.0)
    assert np.allclose(e.values, 3.0 * gd.sine_mode(G16, 2))
    b = sv.initial_datum(G16, "bump", amplitude=2.0)
    assert b.values.max() <= 2.0 + 1e-12
    path = tmp_path / "u0.txt"
    gd.write_field(b, path)
    f = sv.initial_datum(G16, "file", path=path)
    assert np.array_equal(f.values, b.values)
    # each refusal leads with the parameter it refuses
    for kwargs, name in [
        ({"kind": "mystery"}, "kind"),
        ({"kind": "eigenmode", "mode": 17}, "mode"),
        ({"kind": "eigenmode", "amplitude": 1.7e308}, "amplitude"),   # overflows, no warning
        ({"amplitude": math.inf}, "amplitude"),
        ({"kind": "file"}, "path"),
        ({"kind": "file", "path": tmp_path / "none.txt"}, "path"),
    ]:
        with pytest.raises(ValueError, match=f"^{name} "):
            sv.initial_datum(G16, **kwargs)


def test_bisection_only_potentials_in_stepper():
    # expcosh flux graph and huber absorption have no closed resolvents
    model = nz.NoiseModel((0.3,), nz.AdditiveGain(), 0.3)
    cfg = sv.SolverConfig(
        G16, cx.ExpCoshPotential(), cx.HuberPotential(0.5), model,
        lambda_yosida=0.25, dt=1 / 32, horizon=0.25,
    )
    traj = sv.integrate(cfg, GridField(G16, 1.5 * gd.sine_mode(G16, 1)), nz.PathSeed(3, 0))
    assert traj.max_graph_residual <= 1e-8
    assert traj.ledgers["pairing_eta_gradu"].min() >= -1e-10

    xs = np.linspace(-8, 8, 161)
    pot = cx.SampledSlopePotential.from_value_samples(xs, np.abs(xs) ** 3 / 3)
    cfg2 = sv.SolverConfig(
        G16, pot, None, None, lambda_yosida=0.25, dt=1 / 32, horizon=0.125,
    )
    traj2 = sv.integrate(cfg2, GridField(G16, gd.sine_mode(G16, 1)))
    assert np.all(np.diff(traj2.ledgers["norm_u_sq"]) < 0)


def test_2d_implicit_eigenmode_recursion_oracle():
    g = DirichletGrid((1.0, 1.0), (12, 12))
    e11 = gd.sine_mode(g, (1, 1))
    a11 = gd.sine_eigenvalue(g, (1, 1))
    cfg = sv.SolverConfig(
        g, cx.PowerPotential(2.0), None, None,
        lambda_yosida=0.5, dt=1 / 64, horizon=1 / 64, lambda_visc=0.1,
    )
    v = sv._implicit_step_arrays(cfg, sv._state(cfg, e11), e11).u
    factor = 1.0 / (1.0 + cfg.dt * (0.1 + 1.0 / 1.5) * a11)
    assert np.abs(v - factor * e11).max() <= 1e-9


def test_2d_stochastic_run_with_both_graphs():
    g = DirichletGrid((1.0, 1.0), (12, 12))
    model = nz.NoiseModel(nz.amplitudes_power_law(4, 0.3, 1.0), nz.AdditiveGain(), 0.5)
    cfg = sv.SolverConfig(
        g, cx.PowerPotential(4.0), cx.AbsPotential(), model,
        lambda_yosida=0.25, dt=1 / 32, horizon=0.25,
    )
    u0 = GridField(g, 1.2 * gd.sine_mode(g, (1, 1)))
    traj = sv.integrate(cfg, u0, nz.PathSeed(55, 0))
    assert traj.max_graph_residual <= 1e-8
    assert traj.ledgers["pairing_eta_gradu"].min() >= -1e-10
    assert traj.ledgers["pairing_xi_u"].min() >= -1e-10
    rerun = sv.integrate(cfg, u0, nz.PathSeed(55, 0))
    assert np.array_equal(traj.states(), rerun.states())


@pytest.mark.parametrize("amplitude", ["3e307", "5e307", "1e308", "1.2e308"])
def test_run_near_the_float_limit_exits_3(tmp_path, capsys, amplitude):
    # gamma_p = 3 takes the bisection resolvent, whose midpoint overflowed
    # beyond DBL_MAX/2: such a run ended in a RootFindError traceback (exit 1)
    text = README_CONFIG.replace("gamma_p = 4.0", "gamma_p = 3.0")
    path = tmp_path / "big.cfg"
    path.write_text(text.replace("u0_amplitude = 1.0", f"u0_amplitude = {amplitude}"))
    assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("solver failure at step 0: ")


def test_trajectory_csv_format(tmp_path):
    # `dnpde run` writes one ledger row per record: 17 digits, LF endings, '#' comments
    path = tmp_path / "heat.cfg"
    path.write_text(
        "[grid]\ndimension = 1\nextent = 1.0\nnodes = 16\n\n"
        "[potentials]\ngamma_kind = power\ngamma_p = 2.0\n\n"
        "[solver]\nlambda_yosida = 0.5\nlambda_visc = 0.1\ndt = 0.015625\n"
        "horizon = 0.046875\nu0_kind = eigenmode\n\n[output]\nprefix = heat\n"
    )
    assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 0
    raw = (tmp_path / "heat_trajectory.csv").read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0].startswith("# config_checksum=")
    assert lines[1] == "# master_seed=0"
    assert lines[2] == "step,t," + ",".join(sv.LEDGER_COLUMNS)
    traj = sv.integrate(heat_cfg(horizon=3 / 64), GridField(G16, gd.sine_mode(G16, 1)))
    assert len(lines) == 3 + traj.config.n_steps + 1
    for n, (line, rec) in enumerate(zip(lines[3:], traj.records)):
        row = line.split(",")
        assert row[0] == str(rec.index)
        expected = [rec.index * traj.config.dt, *(traj.ledgers[c][n] for c in sv.LEDGER_COLUMNS)]
        assert [float(v) for v in row[1:]] == expected


# ---------------------------------------------------------------------------
# the Newton inner solve: generalized derivatives and step properties
# ---------------------------------------------------------------------------

_XS = np.linspace(-8, 8, 161)
CATALOG = [
    cx.PowerPotential(1.5),
    cx.PowerPotential(2.0),
    cx.PowerPotential(4.0),
    cx.AbsPotential(),
    cx.HuberPotential(0.5),
    cx.ExpCoshPotential(),
    cx.SampledSlopePotential.from_value_samples(_XS, np.abs(_XS) ** 3 / 3),
]
_IDS = {   # parametrize ids of the catalog classes
    cx.PowerPotential: "power",
    cx.AbsPotential: "abs",
    cx.HuberPotential: "huber",
    cx.ExpCoshPotential: "expcosh",
    cx.SampledSlopePotential: "piecewise",
}


@pytest.mark.parametrize("pot", CATALOG, ids=lambda p: f"{_IDS[type(p)]}{getattr(p, 'p', '')}")
def test_yosida_derivative_matches_difference_quotient(pot):
    lam, h = 0.3, 1e-6
    a = np.linspace(-3.1, 2.9, 41) + 1e-3
    cfg = sv.SolverConfig(
        DirichletGrid((1.0,), a.shape), None, pot, None, lambda_yosida=lam, dt=1.0, horizon=1.0,
    )
    state = sv._state(cfg, a)   # the absorption graph at the nodes a
    with np.errstate(over="ignore", invalid="ignore"):   # as the implicit step calls them
        env, dG = sv._envelope(pot, lam, a, state.j_nodes), sv._curvature(pot, lam, state.j_nodes)
    assert np.array_equal(state.xi, cx.yosida(pot, lam, a))
    assert np.abs(env - cx.moreau_envelope(pot, lam, a)).max() <= 1e-12
    assert np.all((dG >= 0.0) & (dG <= 1.0 / lam))
    # compare where the slope derivative does not jump inside the stencil; a
    # linear graph's is one number, spread over the stencil's nodes
    lo, hi = (
        np.broadcast_to(pot.slope_derivative(cx.resolvent(pot, lam, a + s)), a.shape)
        for s in (-h, h)
    )
    with np.errstate(invalid="ignore"):   # inf - inf where the graph is vertical
        smooth = np.abs(hi - lo) <= 1e-3 * (1.0 + np.abs(lo))
    assert smooth.sum() >= 30
    quotient = (cx.yosida(pot, lam, a + h) - cx.yosida(pot, lam, a - h)) / (2 * h)
    assert np.abs(dG - quotient)[smooth].max() <= 1e-4 * (1.0 + 1.0 / lam)


def test_catalog_runs_without_bisection(monkeypatch):
    # every catalog graph has an exact resolvent: bisection is only the reference
    def refuse(*args, **kw):
        raise AssertionError("bisection reached from a catalog run")

    monkeypatch.setattr(cx, "_bisect_scalar_graph", refuse)
    g2 = DirichletGrid((1.0, 1.0), (6, 6))
    for pot in CATALOG:
        for gamma, beta in ((pot, None), (None, pot)):
            for grid, scheme, dt in ((G16, "implicit_opt", 1 / 32), (g2, "semi_implicit", 1e-3)):
                cfg = sv.SolverConfig(
                    grid, gamma, beta, None, lambda_yosida=0.5, dt=dt, horizon=2 * dt,
                    scheme=scheme,
                )
                u0 = 3.0 * gd.sine_mode(grid, (1,) * grid.dim)
                traj = sv.integrate(cfg, GridField(grid, u0))
                assert traj.max_graph_residual <= 1e-8


def _counted(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that logs each call in the returned list."""
    calls, inner = [], getattr(module, name)

    def counted(*args, **kw):
        calls.append(args)
        return inner(*args, **kw)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_each_state_is_evaluated_once(monkeypatch):
    # the ledger, the step, the Newton objective and the graph certificate read
    # one evaluation per state: 2 resolvents (the face buffer of every axis and
    # the nodes) for the initial state and for every state a step makes
    fluxes = _counted(monkeypatch, cx.PowerPotential, "closed_resolvent")
    sources = _counted(monkeypatch, cx.ExpCoshPotential, "closed_resolvent")
    flux_curvs = _counted(monkeypatch, cx.PowerPotential, "slope_derivative")
    source_curvs = _counted(monkeypatch, cx.ExpCoshPotential, "slope_derivative")
    evaluations = _counted(monkeypatch, sv, "_evaluate")
    g2 = DirichletGrid((1.0, 1.0), (6, 6))
    cfg = sv.SolverConfig(
        g2, cx.PowerPotential(4.0), cx.ExpCoshPotential(), None,
        lambda_yosida=0.5, dt=1e-3, horizon=4e-3, scheme="semi_implicit",
    )
    sv.integrate(cfg, GridField(g2, gd.sine_mode(g2, (1, 1))))
    assert len(fluxes) == len(sources) == cfg.n_steps + 1
    # a semi-implicit step needs no step objective, so no envelope or curvature
    assert len(flux_curvs) == len(source_curvs) == len(evaluations) == 0
    # implicit: each step evaluates its incoming state, then one new state per
    # line-search trial; the state-only terms (envelopes, curvatures) are
    # computed once per state, the incoming one's by the trial that made it
    fluxes.clear()
    sources.clear()
    cfg = heat_cfg(gamma=cx.PowerPotential(4.0), beta=cx.ExpCoshPotential(), horizon=4 / 64)
    sv.integrate(cfg, GridField(G16, 1.5 * gd.sine_mode(G16, 1)))
    trials = len(evaluations) - cfg.n_steps
    assert trials >= cfg.n_steps
    assert len(fluxes) == len(sources) == 1 + trials
    assert len(flux_curvs) == len(source_curvs) == 1 + trials
    # F is computed only where a line search compares values: a linear,
    # beta-less batch certifies every trial by its gradient, so it computes
    # no envelope and no F
    envelopes = _counted(monkeypatch, sv, "_envelope")
    values = _counted(monkeypatch, sv, "_value")
    cfg = heat_cfg(noise=nz.NoiseModel((0.5, 0.25), nz.AdditiveGain(), 0.6), horizon=4 / 64)
    evaluations.clear()
    sv.run_ensemble(cfg, gd.sine_mode(G16, 1), master_seed=4, n_paths=8)
    assert len(evaluations) >= 2 * cfg.n_steps
    assert len(envelopes) == len(values) == 0
    # p = 4 and abs compare values, each state's at most once: its envelopes
    # of both graphs, with the forcing of the step that makes or starts from it
    states = _counted(monkeypatch, sv, "_state")
    cfg = heat_cfg(gamma=cx.PowerPotential(4.0), beta=cx.AbsPotential(), horizon=4 / 64)
    sv.integrate(cfg, GridField(G16, 1.5 * gd.sine_mode(G16, 1)))
    valued = [args[1] for args in values]   # held, so no id is reused
    assert 0 < len(valued) <= len(states)
    assert len({id(state) for state in valued}) == len(valued)
    assert len(envelopes) == 2 * len(valued)


def test_non_finite_value_refuses_the_step_where_it_is_computed(monkeypatch):
    # F is computed at a line search's incoming state and at its trials; a
    # non-finite value at any of them refuses the step at that iteration,
    # naming the path whose value it is
    cfg = heat_cfg(gamma=cx.PowerPotential(4.0), beta=cx.AbsPotential())
    u = np.stack([1.5 * gd.sine_mode(G16, 1)] * 2, axis=-1)
    line_search, value, current, iterations = sv._line_search, sv._value, [0], []

    def search(*args):
        current[0] = args[-1]   # the iteration of the search
        return line_search(*args)

    def valued(*args):
        iterations.append(current[0])
        return value(*args)

    monkeypatch.setattr(sv, "_line_search", search)
    monkeypatch.setattr(sv, "_value", valued)
    sv._implicit_step_arrays(cfg, sv._state(cfg, u), u)
    monkeypatch.undo()
    assert len(iterations) >= 3 and iterations[-1] > 1
    envelope = sv._envelope
    for k, it in enumerate(iterations):
        node_envelopes = []

        def poisoned(pot, lam, a, j):
            env = envelope(pot, lam, a, j)
            if pot is cfg.beta:
                if len(node_envelopes) == k:
                    env[..., 1] = np.inf   # path 1 of the k-th value
                node_envelopes.append(env)
            return env

        monkeypatch.setattr(sv, "_envelope", poisoned)
        with pytest.raises(sv.InnerSolveError) as info:
            sv._implicit_step_arrays(cfg, sv._state(cfg, u), u)
        assert (info.value.path, info.value.iterations) == (1, it)
        assert f"hit a non-finite iterate at iteration {it} on path 1:" in str(info.value)


@pytest.mark.parametrize("gamma, beta", [
    pytest.param(cx.PowerPotential(2.0), None, id="linear"),
    pytest.param(cx.PowerPotential(4.0), cx.AbsPotential(), id="p4_abs"),
])
def test_overflowing_gradient_is_refused_without_a_warning(gamma, beta):
    # the gradient norm overflows at amplitude 1e153; its refusal used to
    # follow a numpy RuntimeWarning (in reduce, and in multiply at p = 4)
    cfg = heat_cfg(gamma=gamma, beta=beta)
    u0 = GridField(G16, 1e153 * gd.sine_mode(G16, 1) / 1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(sv.InnerSolveError, match="non-finite iterate at iteration 0") as info:
            sv.integrate(cfg, u0)
    assert info.value.step_index == 1


@pytest.mark.parametrize("dim", [1, 2])
def test_each_path_certifies_on_its_own(monkeypatch, dim):
    # 0, 0.1 and 2 times the first mode certify their first step after 0,
    # fewer and more Newton iterations; each path's column has the same bits
    # in batches of 3, 2 and 5, whatever its neighbours
    g = G16 if dim == 1 else DirichletGrid((1.0, 1.0), (8, 8))
    cfg = heat_cfg(
        grid=g, gamma=cx.PowerPotential(4.0), beta=cx.AbsPotential(), lambda_yosida=0.25,
        lambda_visc=0.0, horizon=4 / 64,
    )
    e1 = gd.sine_mode(g, (1,) * dim)
    paths = [0.0 * e1, 0.1 * e1, 2.0 * e1]
    directions = _counted(monkeypatch, sv, "_newton_direction")
    iterations = []
    for u in paths:
        directions.clear()
        sv._implicit_step_arrays(cfg, sv._state(cfg, u), u)
        iterations.append(len(directions))
    assert iterations[0] == 0 < iterations[1] < iterations[2]

    def column(columns, i):
        traj = sv.integrate_batch(cfg, np.stack(columns, axis=-1), None, keep_every=1)
        ledgers = [traj.ledgers[c][:, i] for c in sv.LEDGER_COLUMNS]
        return traj.terminal[..., i], traj.states()[..., i], ledgers

    for i, u in enumerate(paths):
        others = [paths[(i + 1) % 3], paths[(i + 2) % 3]]
        runs = [
            column(paths, i),
            column([u, others[0]], 0),
            column([others[1], 0.5 * e1, others[0], u, 3.0 * e1], 3),
        ]
        for terminal, states, ledgers in runs[1:]:
            assert terminal.tobytes() == runs[0][0].tobytes()
            assert states.tobytes() == runs[0][1].tobytes()
            assert [a.tobytes() for a in ledgers] == [a.tobytes() for a in runs[0][2]]


def test_state_terms_are_not_written_by_an_evaluation():
    # an evaluation adds its forcing to the state's cached terms without
    # writing into them or into the six certified arrays: the same state at
    # f1, f2, f1 evaluates as a fresh one
    cfg = heat_cfg(gamma=cx.PowerPotential(4.0), beta=cx.ExpCoshPotential())
    rng = np.random.default_rng(18)
    u = 1.5 * gd.sine_mode(G16, 1) + 0.1 * rng.standard_normal(G16.shape)
    f1, f2 = (u + 0.05 * rng.standard_normal(G16.shape) for _ in range(2))
    state = sv._state(cfg, u)
    cached = [np.copy(term) for term in state.terms]
    certified = [np.copy(a) for a in state[:6]]
    assert certified[-1] is not None   # xi among them
    first, _, third = (sv._evaluate(cfg, state, f) for f in (f1, f2, f1))
    fresh_state = sv._state(cfg, u.copy())
    fresh = sv._evaluate(cfg, fresh_state, f1)
    for ev in (third, fresh):
        assert all(np.array_equal(a, b) for a, b in zip(first, ev))
    for terms in (state.terms, fresh_state.terms):
        assert all(np.array_equal(a, b) for a, b in zip(cached, terms))
    assert all(np.array_equal(a, b) for a, b in zip(certified, state[:6]))


def _posthoc_graph_residual(traj):
    """Largest Fenchel residual of the records' (resolvent, eta/xi) pairs,
    recomputed from the public resolvent."""
    cfg, worst = traj.config, 0.0
    for rec in traj.records:
        faces = gd.grad_arrays(cfg.grid, rec.u)
        for pot, xs, ys in ((cfg.gamma, faces, rec.eta), (cfg.beta, [rec.u], [rec.xi])):
            if pot is not None:
                xs = np.concatenate([x.ravel() for x in xs])
                ys = np.concatenate([y.ravel() for y in ys])
                res = cx.fenchel_residual(pot, cx.resolvent(pot, cfg.lambda_yosida, xs), ys)
                worst = max(worst, float(np.max(np.abs(res))))
    return worst


def test_graph_residual_matches_posthoc_formula():
    g2 = DirichletGrid((1.0, 1.0), (6, 6))
    model = nz.NoiseModel((0.4, 0.2), nz.AdditiveGain(), 0.5)
    runs = [
        (heat_cfg(gamma=cx.PowerPotential(4.0), beta=cx.AbsPotential(), noise=model),
         GridField(G16, 1.5 * gd.sine_mode(G16, 1))),
        (sv.SolverConfig(
            g2, cx.PowerPotential(4.0), cx.ExpCoshPotential(), model,
            lambda_yosida=0.5, dt=1e-3, horizon=8e-3, scheme="semi_implicit",
        ), GridField(g2, 2.0 * gd.sine_mode(g2, (1, 1)))),
    ]
    for cfg, u0 in runs:
        traj = sv.integrate(cfg, u0, nz.PathSeed(11, 0))
        assert 0.0 < traj.max_graph_residual == _posthoc_graph_residual(traj)


def _stride_run(kind):
    """A 10-step run with both graphs and noise, 1-d implicit or 2-d semi-implicit."""
    model = nz.NoiseModel((0.4, 0.2), nz.AdditiveGain(), 0.5)
    if kind == "1d_implicit":
        cfg = heat_cfg(
            gamma=cx.PowerPotential(4.0), beta=cx.AbsPotential(), noise=model, horizon=10 / 64,
        )
        return cfg, GridField(G16, 1.5 * gd.sine_mode(G16, 1))
    g2 = DirichletGrid((1.0, 1.0), (6, 6))
    cfg = sv.SolverConfig(
        g2, cx.PowerPotential(4.0), cx.ExpCoshPotential(), model,
        lambda_yosida=0.5, dt=1e-3, horizon=1e-2, scheme="semi_implicit",
    )
    return cfg, GridField(g2, 2.0 * gd.sine_mode(g2, (1, 1)))


@pytest.mark.parametrize("kind", ["1d_implicit", "2d_semi_implicit"])
def test_keep_every_keeps_a_stride_of_a_certified_run(kind):
    # keeping fewer records changes what is held, not what is computed
    cfg, u0 = _stride_run(kind)
    full = sv.integrate(cfg, u0, nz.PathSeed(11, 0))
    for keep_every in (4, 0):
        part = sv.integrate(cfg, u0, nz.PathSeed(11, 0), keep_every=keep_every)
        for c in sv.LEDGER_COLUMNS:
            assert np.array_equal(part.ledgers[c], full.ledgers[c])
        assert np.array_equal(part.terminal, full.terminal)
        assert part.energy_residual == full.energy_residual
        assert part.max_graph_residual == full.max_graph_residual > 0.0
        kept = range(0, cfg.n_steps + 1, keep_every) if keep_every else []
        assert [r.index for r in part.records] == list(kept)
        for r in part.records:
            assert np.array_equal(r.u, full.records[r.index].u)
    with pytest.raises(ValueError, match="keep_every"):
        sv.integrate(cfg, u0, nz.PathSeed(11, 0), keep_every=-1)
    with pytest.raises(ValueError, match="keep_every"):
        sv.integrate_batch(cfg, u0.values, np.zeros((cfg.n_steps, 2, 3)), keep_every=-1)


@pytest.mark.parametrize("kind", ["1d_implicit", "2d_semi_implicit"])
def test_records_carry_their_face_gradients(kind):
    # a kept record holds the face gradients its state was evaluated with,
    # single paths and batches alike
    cfg, u0 = _stride_run(kind)
    for traj in (
        sv.integrate(cfg, u0, nz.PathSeed(11, 0)),
        sv.run_ensemble(cfg, u0.values, 11, n_paths=3, keep_every=1),
    ):
        assert len(traj.records) == cfg.n_steps + 1
        for rec in traj.records:
            want = gd.grad_arrays(cfg.grid, rec.u)
            assert len(rec.faces) == len(want) == cfg.grid.dim
            assert all(np.array_equal(f, w) for f, w in zip(rec.faces, want))
            if cfg.grid.dim == 2:   # the axes of each field view one buffer of the state
                assert rec.faces[0].base is rec.faces[1].base is not None
                assert rec.eta[0].base is rec.eta[1].base is not None
                assert rec.faces[0].base is not rec.eta[0].base


def _refuse_record(monkeypatch, eta):
    """Make the graph certificate refuse the record whose face Yosida values are ``eta``."""
    inner = cx.fenchel_residual

    def refuse(pot, j, y):
        if any(np.array_equal(row, eta) for row in y):   # y stacks records on its leading axis
            raise ValueError("refused")
        return inner(pot, j, y)

    monkeypatch.setattr(cx, "fenchel_residual", refuse)


def test_certificate_failure_at_an_unkept_record_fails_the_run(monkeypatch):
    # the step-3 record, which a stride of 4 does not keep, nor a batch by
    # default, is refused by its contents
    cfg = heat_cfg(horizon=8 / 64, noise=nz.NoiseModel((0.4,), nz.AdditiveGain(), 0.4))
    u0 = GridField(G16, gd.sine_mode(G16, 1))
    for run, keep in (
        (lambda keep: sv.integrate(cfg, u0, nz.PathSeed(2, 0), keep_every=keep), 4),
        (lambda keep: sv.run_ensemble(cfg, u0.values, master_seed=2, n_paths=3, keep_every=keep), 0),
    ):
        eta = run(1).records[3].eta[0]
        with monkeypatch.context() as m:
            _refuse_record(m, eta)
            with pytest.raises(sv.SolverError, match="graph certificate failed: refused") as err:
                run(keep)
        assert err.value.step_index == 3


G6x6 = DirichletGrid((1.0, 1.0), (6, 6))
BLOCK_BYTES = (1, 2**12, 2**14, sv.RECORD_BLOCK_BYTES, 2**40)


def _assert_same_run(a, b):
    for name in sv.LEDGER_COLUMNS:
        assert a.ledgers[name].tobytes() == b.ledgers[name].tobytes(), name
    assert a.terminal.tobytes() == b.terminal.tobytes()
    assert a.max_graph_residual == b.max_graph_residual
    assert np.asarray(a.energy_residual).tobytes() == np.asarray(b.energy_residual).tobytes()
    assert [r.index for r in a.records] == [r.index for r in b.records]
    for ra, rb in zip(a.records, b.records):
        assert ra.u.tobytes() == rb.u.tobytes()
        assert [f.tobytes() for f in ra.faces] == [f.tobytes() for f in rb.faces]
        assert (ra.eta is None) == (rb.eta is None)
        assert ra.eta is None or [e.tobytes() for e in ra.eta] == [e.tobytes() for e in rb.eta]
        assert (ra.xi is None) == (rb.xi is None)
        assert ra.xi is None or ra.xi.tobytes() == rb.xi.tobytes()


@pytest.mark.parametrize("beta", [None, cx.ExpCoshPotential()], ids=["no_beta", "expcosh"])
@pytest.mark.parametrize("gain", [nz.AdditiveGain(), nz.TanhGain()], ids=["additive", "tanh"])
@pytest.mark.parametrize("scheme", ["implicit_opt", "semi_implicit"])
@pytest.mark.parametrize("paths", [1, 5])
@pytest.mark.parametrize("grid", [G16, G6x6], ids=["1d", "2d"])
def test_block_length_never_changes_a_bit(monkeypatch, grid, paths, scheme, gain, beta):
    # from one record per block to the whole run in one: every certificate,
    # ledger row, kept record and residual is the same bit for bit
    noise = nz.NoiseModel(nz.amplitudes_power_law(4, 0.8, 1.0), gain)
    cfg = sv.SolverConfig(
        grid, cx.PowerPotential(4.0), beta, noise, lambda_yosida=0.5,
        dt=2.5e-4, horizon=2.5e-3, lambda_visc=0.1, scheme=scheme,
    )
    u0 = sv.initial_datum(grid, "bump", amplitude=1.5)
    certificates = _counted(monkeypatch, cx, "fenchel_residual")
    runs = []
    for size in BLOCK_BYTES:
        monkeypatch.setattr(sv, "RECORD_BLOCK_BYTES", size)
        certificates.clear()
        if paths == 1:
            runs.append(sv.integrate(cfg, u0, nz.PathSeed(6)))
        else:
            runs.append(sv.run_ensemble(cfg, u0.values, master_seed=6, n_paths=paths, keep_every=3))
        graphs = 1 + (beta is not None)
        if size == 1:
            assert len(certificates) == graphs * (cfg.n_steps + 1)
        elif size == 2**40:
            assert len(certificates) == graphs
    for run in runs[1:]:
        _assert_same_run(runs[0], run)


@pytest.mark.parametrize("gain", [nz.AdditiveGain(), nz.TanhGain()], ids=["additive", "tanh"])
@pytest.mark.parametrize("scheme", ["implicit_opt", "semi_implicit"])
@pytest.mark.parametrize("grid", [G16, G6x6], ids=["1d", "2d"])
def test_seeded_run_streams_its_table(monkeypatch, grid, scheme, gain):
    # a PathSeed's increments are drawn a certification block at a time as the
    # run reaches them; with blocks of one row, of several and of the whole
    # run, the run is the run on sample_increments' table bit for bit
    noise = nz.NoiseModel(nz.amplitudes_power_law(4, 0.8, 1.0), gain)
    cfg = sv.SolverConfig(
        grid, cx.PowerPotential(4.0), cx.ExpCoshPotential(), noise, lambda_yosida=0.5,
        dt=2.5e-4, horizon=2.5e-3, lambda_visc=0.1, scheme=scheme,
    )
    u0 = sv.initial_datum(grid, "bump", amplitude=1.5)
    seed = nz.PathSeed(6)
    on_table = sv.integrate(cfg, u0, increments=nz.sample_increments(seed, cfg.n_steps, cfg.dt, 4))
    draw, blocks = nz._draw, []
    monkeypatch.setattr(nz, "_draw", lambda gen, rows, dt, K: blocks.append(rows) or draw(gen, rows, dt, K))
    one_row = [1] * cfg.n_steps   # 4 KiB holds four 1-d records and less than one 2-d record
    for size, want in ((1, one_row), (2**12, [4, 4, 2] if grid.dim == 1 else one_row), (2**40, [10])):
        monkeypatch.setattr(sv, "RECORD_BLOCK_BYTES", size)
        blocks.clear()
        _assert_same_run(sv.integrate(cfg, u0, seed), on_table)
        assert blocks == want, size


@pytest.mark.parametrize("size", [1, sv.RECORD_BLOCK_BYTES])
@pytest.mark.parametrize("keep", [1, 4])
@pytest.mark.parametrize("grid, scheme", [(G16, "implicit_opt"), (G6x6, "semi_implicit")], ids=["1d", "2d"])
def test_on_keep_takes_exactly_the_kept_records(monkeypatch, grid, scheme, keep, size):
    # the consumer sees the records the run would keep, in order and bit for
    # bit, the run keeps none of them, and nothing else of the run changes
    noise = nz.NoiseModel(nz.amplitudes_power_law(4, 0.8, 1.0), nz.TanhGain())
    cfg = sv.SolverConfig(
        grid, cx.PowerPotential(4.0), cx.ExpCoshPotential(), noise, lambda_yosida=0.5,
        dt=2.5e-4, horizon=2.5e-3, lambda_visc=0.1, scheme=scheme,
    )
    u0 = sv.initial_datum(grid, "bump", amplitude=1.5)
    monkeypatch.setattr(sv, "RECORD_BLOCK_BYTES", size)
    held = sv.integrate(cfg, u0, nz.PathSeed(6), keep_every=keep)
    taken = []
    handed = sv.integrate(cfg, u0, nz.PathSeed(6), keep_every=keep, on_keep=taken.append)
    assert handed.records == [] and len(taken) == len(range(0, cfg.n_steps + 1, keep))
    _assert_same_run(replace(handed, records=taken), held)


def test_on_keep_sees_only_certified_records(monkeypatch):
    # blocks of one record: the certificate refuses the step-5 record, so the
    # consumer has seen records 0-4 and the run fails at step 5
    cfg = heat_cfg(horizon=8 / 64, noise=nz.NoiseModel((0.4,), nz.AdditiveGain(), 0.4))
    u0 = GridField(G16, gd.sine_mode(G16, 1))
    eta = sv.integrate(cfg, u0, nz.PathSeed(2, 0)).records[5].eta[0]
    monkeypatch.setattr(sv, "RECORD_BLOCK_BYTES", 1)
    _refuse_record(monkeypatch, eta)
    seen = []
    with pytest.raises(sv.SolverError, match="graph certificate failed: refused") as err:
        sv.integrate(cfg, u0, nz.PathSeed(2, 0), on_keep=seen.append)
    assert err.value.step_index == 5
    assert [r.index for r in seen] == [0, 1, 2, 3, 4]


def test_states_of_a_run_without_records_names_the_cause():
    cfg, u0 = heat_cfg(), GridField(G16, gd.sine_mode(G16, 1))
    for traj in (sv.integrate(cfg, u0, keep_every=0), sv.integrate(cfg, u0, on_keep=lambda r: None)):
        with pytest.raises(ValueError, match=r"^the run kept no records \(keep_every=0, or an on_keep"):
            traj.states()
    # a bool is an int to Python, but not a stride
    with pytest.raises(ValueError, match=r"^keep_every must be an integer >= 0, got True$"):
        sv.integrate(cfg, u0, keep_every=True)


def test_block_hs_term_squares_each_record_alone():
    # a record's HS norm is squared as a scalar for one path and as an array
    # for a batch, as hs_norm(u) ** 2 does; squaring a block's norms as one
    # array would round about 0.1 % of one-path values differently
    model = nz.NoiseModel(nz.amplitudes_power_law(4, 0.8, 1.0), nz.TanhGain())
    cfg = heat_cfg(gamma=None, noise=model)
    rng = np.random.default_rng(29)
    for batch in ((), (3,)):
        u = rng.standard_normal((4000,) + G16.shape + batch)
        store = np.zeros((len(sv.LEDGER_COLUMNS), len(u)) + batch)
        sv._certify(cfg, 0, [(r, *[None] * 6) for r in u], store)
        want = np.array([nz.hs_norm(model, G16, r) ** 2 for r in u])
        assert store[sv.LEDGER_COLUMNS.index("hs_sq")].tobytes() == want.tobytes()


@pytest.mark.parametrize("scheme", ["implicit_opt", "semi_implicit"])
@pytest.mark.parametrize("paths", [1, 3])
def test_first_failing_record_in_a_block_is_reported(monkeypatch, paths, scheme):
    # the step-3 record of an 11-record block fails, and a later step fails
    # too; at every block length the step-3 record is the one reported
    noise = nz.NoiseModel((0.4,), nz.AdditiveGain(), 0.4)
    dt = 1 / 64 if scheme == "implicit_opt" else 2.5e-4
    cfg = heat_cfg(dt=dt, horizon=10 * dt, noise=noise, scheme=scheme)
    u0 = GridField(G16, gd.sine_mode(G16, 1))

    def run(keep=0):
        if paths == 1:
            return sv.integrate(cfg, u0, nz.PathSeed(5), keep_every=keep)
        return sv.run_ensemble(cfg, u0.values, master_seed=5, n_paths=paths, keep_every=keep)

    eta = run(keep=1).records[3].eta[0]
    step = sv._implicit_step_arrays if scheme == "implicit_opt" else sv._semi_implicit_step_arrays
    steps = []

    def fail_step_5(*args):
        steps.append(1)
        if len(steps) == 5:
            raise sv.InnerSolveError("forced")
        return step(*args)

    apply_b = nz.apply_b
    fields = []

    def infinite_at_step_3(*args):
        fields.append(apply_b(*args))
        return fields[-1] + np.inf if len(fields) == 4 else fields[-1]

    for refusal, message in (
        ("certificate", "graph certificate failed: refused"),
        ("ledger", "energy ledger is not finite: stoch_pairing"),
    ):
        for size in BLOCK_BYTES:
            with monkeypatch.context() as m:
                m.setattr(sv, "RECORD_BLOCK_BYTES", size)
                m.setattr(sv, step.__name__, fail_step_5)
                if refusal == "certificate":
                    _refuse_record(m, eta)
                else:
                    m.setattr(nz, "apply_b", infinite_at_step_3)
                steps.clear()
                fields.clear()
                with pytest.raises(sv.SolverError) as err:
                    run()
            assert str(err.value) == message and err.value.step_index == 3, (refusal, size)


def test_increment_table_shape_matches_the_entry_point():
    # a single path takes (n_steps, K) and a batch (n_steps, K, P); a
    # (n_steps, 16) batch table on 16 nodes used to run 16 paths, path j
    # forced by the constant field[j], and other shapes failed at step 0 in numpy
    u0 = GridField(G16, gd.sine_mode(G16, 1))
    for K in (16, 2):
        cfg = heat_cfg(noise=nz.NoiseModel(nz.amplitudes_power_law(K, 0.5, 1.0), nz.AdditiveGain()))
        head = rf"^increment table of shape \(16, {K}"   # 16 steps
        with pytest.raises(ValueError, match=rf"{head}\) is not \(16, {K}, P\)$"):
            sv.integrate_batch(cfg, u0.values, np.zeros((16, K)))
        with pytest.raises(ValueError, match=rf"{head}, 3\) is not \(16, {K}\)$"):
            sv.integrate(cfg, u0, increments=np.zeros((16, K, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_increment_table_is_refused_at_its_row(bad):
    # a non-finite increment used to run until its ledger row was refused, and
    # an all-inf batch table first warned in apply_b's matrix product
    u0 = GridField(G16, gd.sine_mode(G16, 1))
    cfg = heat_cfg(noise=nz.NoiseModel((0.4, 0.2), nz.AdditiveGain(), 0.5))
    want = r"^increment table is not finite at row 5, the increments of step 6$"
    table = np.zeros((cfg.n_steps, 2))
    table[5, 1] = table[9, 0] = bad
    batch = np.zeros((cfg.n_steps, 2, 3))
    batch[5, 0, 2] = batch[7] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=want):
            sv.integrate(cfg, u0, increments=table)
        with pytest.raises(ValueError, match=want):
            sv.integrate_batch(cfg, u0.values, batch)
        with pytest.raises(ValueError, match=r"not finite at row 0, the increments of step 1$"):
            sv.integrate_batch(cfg, u0.values, np.full((cfg.n_steps, 2, 3), bad))


def test_integrate_names_a_wrong_seed_or_initial_datum():
    # these used to fail inside the run with AttributeError on the int or array
    cfg = heat_cfg(noise=nz.NoiseModel((0.4,), nz.AdditiveGain(), 0.4))
    u0 = GridField(G16, gd.sine_mode(G16, 1))
    with pytest.raises(TypeError, match=r"^seed must be a noise\.PathSeed, got 7$"):
        sv.integrate(cfg, u0, 7)
    want = r"^u0 must be a GridField, got ndarray; arrays go to integrate_batch$"
    with pytest.raises(TypeError, match=want):
        sv.integrate(cfg, u0.values, nz.PathSeed(7))


def test_total_variation_flux_converges_within_default_budget():
    # plain Newton overshoots on the sign-graph flux and takes 335 iterations
    # here; with the secant damping it takes 14 (max_inner = 100)
    g = DirichletGrid((1.0,), (64,))
    cfg = sv.SolverConfig(
        g, cx.AbsPotential(), cx.AbsPotential(), None,
        lambda_yosida=0.01, dt=0.5, horizon=0.5, lambda_visc=0.0,
    )
    rng = np.random.default_rng(5)
    f = gd.sine_mode(g, 1) + 0.3 * rng.standard_normal(64)
    v = sv._implicit_step_arrays(cfg, sv._state(cfg, f), f).u
    assert _step_residual(cfg, v, f) <= cfg.eps_inner


def _step_residual(cfg, v, forcing):
    """||grad F(v)||_h of the step objective, built from the public Yosida map."""
    g, lam = cfg.grid, cfg.lambda_yosida
    flux = [
        cfg.visc * ga + (0.0 if cfg.gamma is None else cx.yosida(cfg.gamma, lam, ga))
        for ga in gd.grad_arrays(g, v)
    ]
    res = (v - forcing) / cfg.dt - gd.div_arrays(g, flux)
    if cfg.beta is not None:
        res = res + cx.yosida(cfg.beta, lam, v)
    return float(gd.norm_h(g, res))


step_setups = st.fixed_dictionaries({
    "shape": st.one_of(   # 1-d, or 2-d up to 6x6, where the Newton direction comes from CG
        st.tuples(st.integers(3, 16)),
        st.tuples(st.integers(3, 6), st.integers(3, 6)),
    ),
    "gamma": st.sampled_from(CATALOG),
    "beta": st.sampled_from(CATALOG + [None]),
    "lam": st.floats(0.01, 1.0),
    "dt": st.floats(1e-3, 0.5),
    "visc": st.floats(0.0, 0.5),
    "seed": st.integers(0, 2**16),
})


def _step_problem(setup):
    grid = DirichletGrid((1.0,) * len(setup["shape"]), setup["shape"])
    cfg = sv.SolverConfig(
        grid, setup["gamma"], setup["beta"], None,
        lambda_yosida=setup["lam"], dt=setup["dt"], horizon=setup["dt"],
        lambda_visc=setup["visc"],
    )
    rng = np.random.default_rng(setup["seed"])
    return cfg, [3.0 * rng.standard_normal(grid.shape) for _ in range(2)]


@settings(max_examples=40, deadline=None)
@given(setup=step_setups)
def test_property_step_is_certified(setup):
    cfg, (f, _) = _step_problem(setup)
    v = sv._implicit_step_arrays(cfg, sv._state(cfg, f), f).u
    assert _step_residual(cfg, v, f) <= cfg.eps_inner


@settings(max_examples=40, deadline=None)
@given(setup=step_setups)
def test_property_step_is_nonexpansive(setup):
    # (S f - S g)/dt + A(S f) - A(S g) = (f - g)/dt with A monotone; each
    # solve is within dt*eps_inner of the exact step
    cfg, (f, g) = _step_problem(setup)
    sf = sv._implicit_step_arrays(cfg, sv._state(cfg, f), f).u
    sg = sv._implicit_step_arrays(cfg, sv._state(cfg, g), g).u
    lhs = gd.norm_h(cfg.grid, sf - sg)
    assert lhs <= gd.norm_h(cfg.grid, f - g) + 2 * cfg.dt * cfg.eps_inner


@settings(max_examples=40, deadline=None)
@given(setup=step_setups)
def test_property_step_descends_energy(setup):
    # pairing the step equation (S f - f)/dt + A(S f) = r, ||r||_h <= eps_inner,
    # with S f and using <S f - f, S f> >= (||S f||^2 - ||f||^2)/2 gives the
    # per-step energy inequality with dissipation at the implicit endpoint
    cfg, (f, _) = _step_problem(setup)
    g, lam = cfg.grid, cfg.lambda_yosida
    v = sv._implicit_step_arrays(cfg, sv._state(cfg, f), f).u
    faces = gd.grad_arrays(g, v)
    diss = cfg.visc * gd.flux_dot_h(g, faces, faces)
    if cfg.gamma is not None:
        diss += gd.flux_dot_h(g, [cx.yosida(cfg.gamma, lam, ga) for ga in faces], faces)
    if cfg.beta is not None:
        diss += gd.dot_h(g, cx.yosida(cfg.beta, lam, v), v)
    f_sq = gd.dot_h(g, f, f)
    lhs = 0.5 * gd.dot_h(g, v, v) + cfg.dt * diss
    rhs = 0.5 * f_sq + cfg.dt * cfg.eps_inner * gd.norm_h(g, v)
    assert lhs <= rhs + 1e-13 * (1.0 + f_sq)
