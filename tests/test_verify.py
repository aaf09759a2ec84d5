"""Verification-harness tests: sweeps, coupling, Phi, bound tables."""

import math
from dataclasses import replace

import numpy as np
import pytest

from dnpde import convex as cx
from dnpde import grid as gd
from dnpde import noise as nz
from dnpde import solver as sv
from dnpde import verify as vf
from dnpde.grid import DirichletGrid, GridField

G = DirichletGrid((1.0,), (16,))


def base_cfg(**kw):
    args = dict(
        grid=G, gamma=cx.PowerPotential(2.0), beta=None,
        noise=nz.NoiseModel((0.4, 0.2), nz.AdditiveGain(), 0.5),
        lambda_yosida=0.25, dt=1 / 64, horizon=0.25,
    )
    args.update(kw)
    return sv.SolverConfig(**args)


def lambda_sweep(cfg, lams, seed, u0=None):
    """``vf.sweep`` over ``cfg`` at each lambda: the draw's checksum and the entries."""
    u0 = GridField(G, np.zeros(G.shape)) if u0 is None else u0
    checksum, entries = vf.sweep([(replace(cfg, lambda_yosida=lam), u0) for lam in lams], seed)
    return checksum, list(entries)


def test_sweep_zero_data_all_quantities_vanish():
    cfg = base_cfg(noise=None)
    checksum, entries = lambda_sweep(cfg, [0.5, 0.25, 0.125], nz.PathSeed(1))
    for e in entries:
        bounds, gap_gamma, _, tails_eta, _ = vf.record_integrals(e.trajectory)
        assert all(v == 0.0 for v in bounds.values())
        assert np.all(tails_eta == 0.0)
        assert gap_gamma == pytest.approx(0.0, abs=1e-15)
    assert all(e.cauchy_prev == 0.0 for e in entries[1:])
    assert checksum == ""


def test_sweep_quadratic_cauchy_decay_and_gaps():
    cfg = base_cfg()
    u0 = GridField(G, gd.sine_mode(G, 1))
    lams = [2.0**-k for k in range(1, 6)]
    checksum, entries = lambda_sweep(cfg, lams, nz.PathSeed(21), u0=u0)
    assert np.all(np.diff([e.cauchy_prev for e in entries[1:]]) < 0)
    gaps = [vf.record_integrals(e.trajectory)[1] for e in entries]
    assert all(g >= -1e-8 for g in gaps)
    assert np.all(np.diff(gaps) < 0)   # gaps vanish with the regularization
    assert checksum


def test_sweep_draws_one_path_cut_per_run():
    # the draw is made at the finest dt with the largest K, before any run:
    # a dt that is no multiple of the finest refuses at the call
    u0 = GridField(G, gd.sine_mode(G, 1))
    with pytest.raises(ValueError, match="integer multiples"):
        vf.sweep([(base_cfg(), u0), (base_cfg(dt=1 / 48), u0)], nz.PathSeed(4))
    one = nz.NoiseModel((0.4,), nz.AdditiveGain(), 0.4)
    runs = [(base_cfg(dt=1 / 32, noise=one), u0), (base_cfg(), u0)]
    checksum, entries = vf.sweep(runs, nz.PathSeed(4))
    (table,) = nz.coupled_increment_tables(nz.PathSeed(4), 1 / 64, [1 / 32], 0.25, 2)
    assert checksum == nz.increment_checksum(nz.sample_increments(nz.PathSeed(4), 16, 1 / 64, 2))
    coarse = next(entries).trajectory
    direct = sv.integrate(runs[0][0], u0, nz.PathSeed(4), table[:, :1])
    assert np.array_equal(coarse.states(), direct.states())


def test_sweep_failure_names_the_run_and_keeps_the_step():
    # dt * (lambda_max + 1) / lambda is 0.57 at dt = 1/2048 and 2.3 at dt = 1/512
    cfg = base_cfg(
        noise=None, scheme="semi_implicit", lambda_yosida=1.0, dt=1 / 2048, horizon=1 / 256
    )
    unstable = replace(cfg, dt=1 / 512)
    u0 = GridField(G, gd.sine_mode(G, 1))
    with pytest.raises(sv.SolverError) as direct:
        sv.integrate(unstable, u0)
    assert direct.value.step_index is not None
    _, entries = vf.sweep([(cfg, u0), (unstable, u0)], nz.PathSeed(1))
    assert next(entries).trajectory.config == cfg
    with pytest.raises(sv.SolverError) as info:
        next(entries)
    assert str(info.value).startswith("sweep run 1 (lambda=1.0, dt=0.001953125) failed: ")
    assert info.value.step_index == direct.value.step_index


def test_sweep_sign_graph_tail_bound():
    # |beta_lam| <= 1 for the sign graph: xi never exceeds 1, tails at M>=1 vanish
    cfg = base_cfg(beta=cx.AbsPotential())
    u0 = GridField(G, 1.5 * gd.sine_mode(G, 1))
    _, entries = lambda_sweep(cfg, [0.5, 0.25], nz.PathSeed(3), u0=u0)
    for e in entries:
        bounds, *_, tails_xi = vf.record_integrals(e.trajectory)
        assert np.all(tails_xi == 0.0)
        assert bounds["int_xi_u"] <= 1.5 * math.sqrt(bounds["sup_u_sq"]) * cfg.horizon + 1.0


def test_lipschitz_identical_data_gives_zero_ratio():
    cfg = base_cfg()
    u0 = GridField(G, gd.sine_mode(G, 1))
    assertions = vf.lipschitz_test(cfg, u0, u0, n_paths=2, master_seed=8)
    assert assertions[0].measured == 0.0
    assert all(a.passed for a in assertions)


def test_lipschitz_additive_contraction():
    cfg = base_cfg(gamma=cx.PowerPotential(4.0), beta=cx.AbsPotential())
    u0a = GridField(G, gd.sine_mode(G, 1))
    u0b = sv.initial_datum(G, "bump", amplitude=0.6)
    for noise in (cfg.noise, None):   # without noise both data run as one-path batches
        bound, pathwise = vf.lipschitz_test(
            replace(cfg, noise=noise), u0a, u0b, n_paths=4, master_seed=17
        )
        assert (bound.name, pathwise.name) == ("lipschitz_ratio", "pathwise_contraction_excess")
        assert bound.passed and pathwise.passed
        ratio = bound.measured
        assert ratio <= 1.0 + 1e-9
    diff = sv.integrate(replace(cfg, noise=None), u0a).states() - sv.integrate(
        replace(cfg, noise=None), u0b).states()
    sup = np.sqrt(G.node_volume * (diff**2).sum(axis=1)).max()
    assert ratio == sup / gd.norm_h(G, u0a.values - u0b.values)


def phi_and_eta_distance(cfg_a, cfg_b):
    u0 = GridField(G, gd.sine_mode(G, 1))
    ta = sv.integrate(cfg_a, u0, nz.PathSeed(5))
    tb = sv.integrate(cfg_b, u0, nz.PathSeed(5))
    phi = gd.dual_norm_v0(G, vf.phi_integral(ta) - vf.phi_integral(tb))
    eta = max(
        float(np.abs(ea - eb).max())
        for ra, rb in zip(ta.records, tb.records)
        for ea, eb in zip(ra.eta, rb.eta)
    )
    return phi, eta


def test_phi_identical_configs_zero_distance():
    cfg = base_cfg(beta=cx.AbsPotential())
    phi, eta = phi_and_eta_distance(cfg, replace(cfg))
    assert phi == 0.0
    assert eta == 0.0


def test_phi_accepts_equal_but_distinct_configs():
    # value equality of potentials and noise models, not object identity
    cfg_a = base_cfg(beta=cx.AbsPotential())
    cfg_b = base_cfg(beta=cx.AbsPotential())
    assert cfg_a == cfg_b
    phi, _ = phi_and_eta_distance(cfg_a, cfg_b)
    assert phi == 0.0


def test_integrals_refuse_a_run_without_every_record():
    # a strided run has lost the records between its kept ones
    traj = sv.integrate(base_cfg(), GridField(G, gd.sine_mode(G, 1)), nz.PathSeed(5), keep_every=4)
    with pytest.raises(ValueError, match="every record"):
        vf.phi_integral(traj)
    with pytest.raises(ValueError, match="every record"):
        vf.record_integrals(traj)


def test_phi_integral_closes_the_step_balance():
    # summing the implicit steps (u_n - u_{n-1})/dt - visc lap u_n - div eta_n
    # + xi_n = r_n, |r_n|_h <= eps_inner, gives u_N - u_0 - dt visc sum lap u_n
    # + Phi = dt sum r_n, whose h-norm is at most horizon * eps_inner
    cfg = base_cfg(beta=cx.AbsPotential(), noise=None, lambda_visc=0.1)
    u0 = GridField(G, 1.5 * gd.sine_mode(G, 1))
    traj = sv.integrate(cfg, u0)
    lap = sum(gd.lap_arrays(G, rec.u) for rec in traj.records[1:])
    phi = vf.phi_integral(traj)
    assert gd.norm_h(G, phi) > 1.0
    balance = traj.terminal - u0.values - cfg.dt * cfg.visc * lap + phi
    assert gd.norm_h(G, balance) <= 2.0 * cfg.horizon * cfg.eps_inner


def _reference_integrals(traj):
    """``record_integrals`` and ``phi_integral`` as separate walks that rebuild
    each record's face gradients by ``grad_arrays(rec.u)``."""
    cfg, led = traj.config, traj.ledgers
    dt, vol, recs = cfg.dt, cfg.grid.node_volume, traj.records[1:]
    grad_sq = 0.0
    for rec in recs:
        g = gd.grad_arrays(cfg.grid, rec.u)
        grad_sq += dt * float(gd.flux_dot_h(cfg.grid, g, g))
    bounds = {
        "sup_u_sq": float(led["norm_u_sq"].max()),
        "visc_grad_sq": cfg.visc * grad_sq,
        "int_eta_gradu": dt * float(sum(led["pairing_eta_gradu"][1:])),
        "int_xi_u": dt * float(sum(led["pairing_xi_u"][1:])),
    }
    gap_gamma = gap_beta = None
    if cfg.gamma is not None:
        gap_gamma = 0.0
        for rec in recs:
            for ga, ea in zip(gd.grad_arrays(cfg.grid, rec.u), rec.eta):
                gap_gamma += dt * vol * float(np.sum(cx.fenchel_residual(cfg.gamma, ga, ea)))
    if cfg.beta is not None:
        gap_beta = 0.0
        for rec in recs:
            gap_beta += dt * vol * float(np.sum(cx.fenchel_residual(cfg.beta, rec.u, rec.xi)))
    # a run without a flux graph keeps no eta; here it counts as zero faces
    no_flux = [np.zeros(s) for s in cfg.grid.face_shapes()]
    tails_eta = np.zeros(len(vf.DEFAULT_TAIL_LEVELS))
    tails_xi = np.zeros(len(vf.DEFAULT_TAIL_LEVELS))
    for rec in recs:
        eta = no_flux if rec.eta is None else rec.eta
        xi = () if rec.xi is None else (rec.xi,)
        for tails, arrays in ((tails_eta, eta), (tails_xi, xi)):
            for arr in arrays:
                a = np.abs(arr)
                for i, M in enumerate(vf.DEFAULT_TAIL_LEVELS):
                    tails[i] += dt * vol * float(a[a > M].sum())
    phi = np.zeros(cfg.grid.shape)
    for rec in recs:
        term = -gd.div_arrays(cfg.grid, no_flux if rec.eta is None else rec.eta)
        phi = phi + cfg.dt * (term if rec.xi is None else term + rec.xi)
    return (bounds, gap_gamma, gap_beta, tails_eta, tails_xi), phi


GRAPHS = [(True, True), (True, False), (False, True), (False, False)]


def _assert_matches_reference(traj, got=None):
    (bounds, *rest), phi = _reference_integrals(traj)
    got_bounds, *got_rest = vf.record_integrals(traj) if got is None else got
    assert got_bounds == bounds
    for got, want in zip(got_rest, rest):
        if want is None:
            assert got is None
        else:
            assert np.array_equal(got, want)
    assert np.array_equal(vf.phi_integral(traj), phi)


@pytest.mark.parametrize("gamma, beta", GRAPHS)
def test_walk_matches_per_record_recomputation_1d(gamma, beta):
    # every sum bit for bit, on the trajectories of a lambda sweep
    cfg = base_cfg(
        gamma=cx.PowerPotential(4.0) if gamma else None,
        beta=cx.ExpCoshPotential() if beta else None,
    )
    u0 = GridField(G, 1.5 * gd.sine_mode(G, 1))
    _, entries = lambda_sweep(cfg, [0.5, 0.25], nz.PathSeed(21), u0=u0)
    for e in entries:
        walk = vf.record_integrals(e.trajectory)
        _assert_matches_reference(e.trajectory, walk)
        bounds, gap_gamma, gap_beta, tails_eta, tails_xi = walk
        # the sweep's report row reads the same walk
        gaps = [math.nan if g is None else g for g in (gap_gamma, gap_beta)]
        assert np.array_equal(e.row(), [
            e.cauchy_prev, *(bounds[n] for n in vf.BOUND_NAMES), *gaps,
            tails_eta[0], tails_eta[-1], tails_xi[0], tails_xi[-1], e.trajectory.energy_residual,
        ], equal_nan=True)
        assert (gap_gamma is None) != gamma
        assert all((rec.eta is None) != gamma for rec in e.trajectory.records)
        assert (tails_eta[0] > 0.0) == gamma and (tails_xi[0] > 0.0) == beta


@pytest.mark.parametrize("gamma, beta", GRAPHS)
def test_walk_matches_per_record_recomputation_2d(gamma, beta):
    g2 = DirichletGrid((1.0, 1.0), (6, 6))
    cfg = sv.SolverConfig(
        g2, cx.PowerPotential(4.0) if gamma else None, cx.ExpCoshPotential() if beta else None,
        nz.NoiseModel((0.4, 0.2), nz.AdditiveGain(), 0.5),
        lambda_yosida=0.5, dt=1e-3, horizon=1e-2, scheme="semi_implicit",
    )
    traj = sv.integrate(cfg, GridField(g2, 2.0 * gd.sine_mode(g2, (1, 1))), nz.PathSeed(11, 0))
    _assert_matches_reference(traj)


# each relation at its threshold 1, above and below it, on both sides of the
# range's low end 0.5, and at +-inf and NaN; NaN fails every relation
RELATION_POINTS = (-math.inf, 0.25, 0.5, 0.75, 1.0, 1.5, math.inf, math.nan)


@pytest.mark.parametrize("relation, low, rule, passes", [
    ("<=", None, "<=", "TTTTTFFF"),
    ("<", None, "<", "TTTTFFFF"),
    (">=", None, ">=", "FFFFTTTF"),
    ("<=", 0.5, "in [0.5, 1]", "FFTTTFFF"),
], ids=["le", "lt", "ge", "range"])
def test_assertion_relations(relation, low, rule, passes):
    for measured, expected in zip(RELATION_POINTS, passes):
        a = vf.Assertion("x", measured, relation, 1.0, low=low)
        assert a.passed is (expected == "T"), measured
        assert a.status == ("PASS" if expected == "T" else "FAIL")
        assert a.line().endswith(f"threshold=1 ({rule})")


def test_assertion_range_takes_le():
    with pytest.raises(ValueError):
        vf.Assertion("x", 0.75, ">=", 1.0, low=0.5)


def test_apriori_report_zero_and_slope_guard():
    cfg = base_cfg(noise=None)
    lams = (0.5, 0.25, 0.125)
    _, entries = lambda_sweep(cfg, lams, nz.PathSeed(1))
    rows = [(lam, vf.record_integrals(e.trajectory)[0]) for lam, e in zip(lams, entries)]
    assertions = vf.apriori_report(rows)
    assert all(b[name] == 0.0 for _, b in rows for name in vf.BOUND_NAMES)
    assert [a.name for a in assertions] == ["bounds_finite"] + [
        f"slope_{name}" for name in vf.BOUND_NAMES
    ]
    assert all(a.passed for a in assertions)
    with pytest.raises(ValueError):
        vf.apriori_report([])


def test_apriori_ou_stationary_oracle():
    # time-averaged second moment over the tail of a long run matches b^2/(2a)
    model = nz.NoiseModel((0.5,), nz.AdditiveGain(), 0.5)
    lam = 0.5
    cfg = base_cfg(noise=model, lambda_yosida=lam, lambda_visc=0.0, horizon=2.0, dt=1 / 32)
    a1 = gd.sine_eigenvalue(G, 1)
    a = a1 / (1.0 + lam)
    stationary = 0.5**2 / (2 * a)
    res = sv.run_ensemble(cfg, np.zeros(G.shape), master_seed=12, n_paths=64)
    tail = res.ledgers["norm_u_sq"][cfg.n_steps // 2:]
    path_means = tail.mean(axis=0)
    est = path_means.mean()
    se = path_means.std(ddof=1) / math.sqrt(path_means.size)
    assert abs(est - stationary) <= 4 * se + 5 * cfg.dt * stationary


def test_observed_order_basics():
    assert vf.observed_order([4.0, 1.0], [2.0, 1.0]) == pytest.approx(2.0)
    assert math.isnan(vf.observed_order([0.0, 0.0], [2.0, 1.0]))


def test_report_csv_writer(tmp_path):
    path = tmp_path / "report.csv"
    vf.write_report_csv(path, ["a", "b"], [[1.0, "x"], [2.5, "y"]], ["note"])
    text = path.read_text()
    assert text.splitlines()[0] == "# note"
    assert text.splitlines()[1] == "a,b"
    assert "2.5" in text
