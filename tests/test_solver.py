"""Solver tests: per-mode recursion oracles, energy dissipation, coupling."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnpde import cli
from dnpde import convex as cx
from dnpde import grid as gd
from dnpde import noise as nz
from dnpde import solver as sv
from dnpde.grid import DirichletGrid, GridField

G16 = DirichletGrid((1.0,), (16,))
G8 = DirichletGrid((1.0,), (8,))


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
    with pytest.raises(ValueError):
        heat_cfg(max_inner=0)
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


@pytest.mark.parametrize("scheme", ["semi_implicit", "implicit_opt"])
def test_batch_with_overflowing_ledger_fails_closed(scheme):
    # a batch certifies no graph, so at amplitude 1e200 its ledger row of
    # step 0 overflows; the run is refused there, with no numpy warning
    g = DirichletGrid((1.0, 1.0), (8, 8))
    model = nz.NoiseModel(nz.amplitudes_power_law(32, 0.5, 1.0), nz.TanhGain(), 1.0)
    cfg = sv.SolverConfig(
        g, cx.PowerPotential(4.0), cx.ExpCoshPotential(), None,
        lambda_yosida=0.5, dt=2**-14, horizon=4 * 2**-14, scheme=scheme,
    )
    u0 = sv.initial_datum(g, "bump", amplitude=1e200).values
    runs = [
        lambda: sv.integrate_batch(cfg, u0, None, keep_states=False),
        lambda: sv.run_ensemble(replace(cfg, noise=model), u0, master_seed=1, n_paths=3),
    ]
    for run in runs:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(sv.SolverError, match="ledger is not finite: norm_u_sq") as info:
                run()
        assert info.value.step_index == 0


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
                cfg, u0.values, master_seed=7, n_paths=70, keep_states=True, fine_dt=fine_dt
            )
            states = res.states()
            assert states.shape == (cfg.n_steps + 1, 16, 70)
            for i in (0, 1, 63, 64, 65, 66, 67, 68, 69):   # spread over the one 70-path batch
                seed = nz.PathSeed(7, i)
                inc = None
                if fine_dt is not None:
                    (inc,), _ = nz.coupled_increment_tables(seed, fine_dt, [cfg.dt], cfg.horizon, 2)
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
        res = sv.run_ensemble(cfg, u0.values, master_seed=7, n_paths=6, keep_states=True)
        states = res.states()
        for i in range(6):
            diff = states[..., i] - sv.integrate(cfg, u0, nz.PathSeed(7, i)).states()
            sup = np.sqrt(g.node_volume * (diff**2).sum(axis=(1, 2))).max()
            assert sup <= 1e-14


def test_one_path_batch_matches_integrate():
    # one result type: in 1-d a one-path batch keeping its records is the
    # single path bit for bit, ledgers, states and certificate alike (2-d
    # sine transforms round by batch shape, see the test above)
    model = nz.NoiseModel((0.4, 0.2, 0.1), nz.TanhGain(), 0.5)
    base = heat_cfg(gamma=cx.PowerPotential(4.0), beta=cx.ExpCoshPotential(), noise=model)
    for cfg in (base, replace(base, scheme="semi_implicit", dt=2**-12, horizon=2**-9)):
        u0 = GridField(G16, 1.2 * gd.sine_mode(G16, 1))
        inc = nz.sample_increments(nz.PathSeed(9, 0), cfg.n_steps, cfg.dt, 3)
        one = sv.integrate(cfg, u0, increments=inc)
        batch = sv.integrate_batch(cfg, u0.values, inc[..., None], keep_states=True)
        for name in sv.LEDGER_COLUMNS:
            assert np.array_equal(batch.ledgers[name][:, 0], one.ledgers[name])
        assert np.array_equal(batch.states()[..., 0], one.states())
        assert np.array_equal(batch.terminal[..., 0], one.terminal)
        assert batch.max_graph_residual == one.max_graph_residual
        assert batch.energy_residual[0] == one.energy_residual
        assert sv.integrate_batch(cfg, u0.values, inc[..., None]).max_graph_residual is None


def test_ensemble_rejects_empty():
    cfg = heat_cfg(noise=nz.NoiseModel((0.5,), nz.AdditiveGain(), 0.5))
    with pytest.raises(ValueError, match="at least one path"):
        sv.run_ensemble(cfg, np.zeros(G16.shape), master_seed=1, n_paths=0)
    # fine_dt must be positive and divide dt: the others are refused, not run at another dt
    for fine_dt in (2 * cfg.dt, 0.3 * cfg.dt, cfg.dt / 1.5, 0.0):
        with pytest.raises(ValueError):
            sv.run_ensemble(cfg, np.zeros(G16.shape), master_seed=1, n_paths=2, fine_dt=fine_dt)


def test_batch_requires_increments_with_noise():
    cfg = heat_cfg(noise=nz.NoiseModel((0.4,), nz.AdditiveGain(), 0.4))
    with pytest.raises(ValueError):
        sv.integrate_batch(cfg, np.zeros(G16.shape), None)
    with pytest.raises(ValueError):
        sv.integrate_batch(cfg, np.zeros(G16.shape), np.zeros((cfg.n_steps - 1, 1, 3)))
    with pytest.raises(ValueError):
        sv.integrate_batch(cfg, np.zeros((16, 2)), np.zeros((cfg.n_steps, 1, 3)))


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
    monkeypatch.setattr(sv, "_newton_direction", lambda cfg, ev, mu: ev.grad)
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
    with pytest.raises(ValueError):
        sv.initial_datum(G16, "mystery")


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
        expected = [rec.t, *(traj.ledgers[c][n] for c in sv.LEDGER_COLUMNS)]
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


@pytest.mark.parametrize("pot", CATALOG, ids=lambda p: f"{p.kind}{getattr(p, 'p', '')}")
def test_yosida_derivative_matches_difference_quotient(pot):
    lam, h = 0.3, 1e-6
    a = np.linspace(-3.1, 2.9, 41) + 1e-3
    cfg = sv.SolverConfig(
        DirichletGrid((1.0,), a.shape), None, pot, None, lambda_yosida=lam, dt=1.0, horizon=1.0,
    )
    state = sv._state(cfg, a)   # the absorption graph at the nodes a
    env, G, dG, _ = sv._yosida_parts(pot, lam, a, state.j_nodes, state.xi)
    assert np.array_equal(G, cx.yosida(pot, lam, a))
    assert np.abs(env - cx.moreau_envelope(pot, lam, a)).max() <= 1e-12
    assert np.all((dG >= 0.0) & (dG <= 1.0 / lam))
    # compare where the slope derivative does not jump inside the stencil
    lo, hi = (pot.slope_derivative(cx.resolvent(pot, lam, a + s)) for s in (-h, h))
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
    evaluations = _counted(monkeypatch, sv, "_evaluate")
    g2 = DirichletGrid((1.0, 1.0), (6, 6))
    cfg = sv.SolverConfig(
        g2, cx.PowerPotential(4.0), cx.ExpCoshPotential(), None,
        lambda_yosida=0.5, dt=1e-3, horizon=4e-3, scheme="semi_implicit",
    )
    sv.integrate(cfg, GridField(g2, gd.sine_mode(g2, (1, 1))))
    assert len(fluxes) == len(sources) == cfg.n_steps + 1
    # implicit: each step evaluates its incoming state, then one new state per
    # line-search trial
    fluxes.clear()
    sources.clear()
    cfg = heat_cfg(gamma=cx.PowerPotential(4.0), beta=cx.ExpCoshPotential(), horizon=4 / 64)
    sv.integrate(cfg, GridField(G16, 1.5 * gd.sine_mode(G16, 1)))
    trials = len(evaluations) - cfg.n_steps
    assert trials >= cfg.n_steps
    assert len(fluxes) == len(sources) == 1 + trials


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


@pytest.mark.parametrize("kind", ["1d_implicit", "2d_semi_implicit"])
def test_records_carry_their_face_gradients(kind):
    # a kept record holds the face gradients its state was evaluated with,
    # single paths and batches alike
    cfg, u0 = _stride_run(kind)
    for traj in (
        sv.integrate(cfg, u0, nz.PathSeed(11, 0)),
        sv.run_ensemble(cfg, u0.values, 11, n_paths=3, keep_states=True),
    ):
        assert len(traj.records) == cfg.n_steps + 1
        for rec in traj.records:
            want = gd.grad_arrays(cfg.grid, rec.u)
            assert len(rec.faces) == len(want) == cfg.grid.dim
            assert all(np.array_equal(f, w) for f, w in zip(rec.faces, want))


def test_certificate_failure_at_an_unkept_record_fails_the_run(monkeypatch):
    # one graph, so the fourth certificate is the step-3 record's, which a
    # stride of 4 does not keep
    calls, inner = [], cx.fenchel_residual

    def refuse_fourth(*args):
        calls.append(args)
        if len(calls) == 4:
            raise ValueError("refused")
        return inner(*args)

    monkeypatch.setattr(cx, "fenchel_residual", refuse_fourth)
    cfg = heat_cfg(horizon=8 / 64)
    with pytest.raises(sv.SolverError, match="graph certificate failed: refused") as err:
        sv.integrate(cfg, GridField(G16, gd.sine_mode(G16, 1)), keep_every=4)
    assert err.value.step_index == 3


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
