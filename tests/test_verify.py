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
        assert all(v == 0.0 for v in e.bounds.values())
        assert np.all(e.tails_eta == 0.0)
        assert e.fenchel_gap_gamma == pytest.approx(0.0, abs=1e-15)
    assert all(e.cauchy_prev == 0.0 for e in entries[1:])
    assert checksum == ""


def test_sweep_quadratic_cauchy_decay_and_gaps():
    cfg = base_cfg()
    u0 = GridField(G, gd.sine_mode(G, 1))
    lams = [2.0**-k for k in range(1, 6)]
    checksum, entries = lambda_sweep(cfg, lams, nz.PathSeed(21), u0=u0)
    assert np.all(np.diff([e.cauchy_prev for e in entries[1:]]) < 0)
    gaps = [e.fenchel_gap_gamma for e in entries]
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
    (table,), fine_sum = nz.coupled_increment_tables(nz.PathSeed(4), 1 / 64, [1 / 32], 0.25, 2)
    assert checksum == fine_sum
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
        assert np.all(e.tails_xi == 0.0)
        assert e.bounds["int_xi_u"] <= 1.5 * math.sqrt(e.bounds["sup_u_sq"]) * cfg.horizon + 1.0


def test_lipschitz_identical_data_gives_zero_ratio():
    cfg = base_cfg()
    u0 = GridField(G, gd.sine_mode(G, 1))
    rep = vf.lipschitz_test(cfg, u0, u0, n_paths=2, master_seed=8)
    assert rep.ratio == 0.0
    assert rep.all_passed


def test_lipschitz_additive_contraction():
    cfg = base_cfg(gamma=cx.PowerPotential(4.0), beta=cx.AbsPotential())
    u0a = GridField(G, gd.sine_mode(G, 1))
    u0b = sv.initial_datum(G, "bump", amplitude=0.6)
    rep = vf.lipschitz_test(cfg, u0a, u0b, n_paths=4, master_seed=17)
    assert rep.pathwise_ok
    assert rep.ratio <= 1.0 + 1e-9
    assert rep.all_passed


def phi_and_eta_distance(cfg_a, cfg_b, checkpoints):
    u0 = GridField(G, gd.sine_mode(G, 1))
    ta = sv.integrate(cfg_a, u0, nz.PathSeed(5))
    tb = sv.integrate(cfg_b, u0, nz.PathSeed(5))
    pa, pb = vf.build_phi(ta, checkpoints), vf.build_phi(tb, checkpoints)
    phi = [gd.dual_norm_v0(G, a - b) for a, b in zip(pa, pb)]
    eta = max(
        float(np.abs(ea - eb).max())
        for ra, rb in zip(ta.records, tb.records)
        for ea, eb in zip(ra.eta, rb.eta)
    )
    return np.array(phi), eta


def test_phi_identical_configs_zero_distance():
    cfg = base_cfg(beta=cx.AbsPotential())
    phi, eta = phi_and_eta_distance(cfg, replace(cfg), [0.125, 0.25])
    assert np.all(phi == 0.0)
    assert eta == 0.0


def test_phi_accepts_equal_but_distinct_configs():
    # value equality of potentials and noise models, not object identity
    cfg_a = base_cfg(beta=cx.AbsPotential())
    cfg_b = base_cfg(beta=cx.AbsPotential())
    assert cfg_a == cfg_b
    phi, _ = phi_and_eta_distance(cfg_a, cfg_b, [0.25])
    assert np.all(phi == 0.0)


def test_build_phi_rejects_off_grid_checkpoint():
    traj = sv.integrate(base_cfg(), GridField(G, gd.sine_mode(G, 1)), nz.PathSeed(5))
    with pytest.raises(ValueError):
        vf.build_phi(traj, [0.1234])
    with pytest.raises(ValueError):
        vf.build_phi(traj, [0.5])   # beyond the horizon


def test_build_phi_linearity_and_zero_at_origin():
    cfg = base_cfg(beta=cx.AbsPotential())
    traj = sv.integrate(cfg, GridField(G, gd.sine_mode(G, 1)), nz.PathSeed(6))
    phi = vf.build_phi(traj, [0.0, 0.125, 0.25])
    assert phi.shape == (3, *G.shape)
    assert np.all(phi[0] == 0.0)
    # cumulative: later checkpoint contains the earlier one plus more terms
    mid = vf.build_phi(traj, [0.125])[0]
    assert np.array_equal(phi[1], mid)


def test_apriori_report_zero_and_slope_guard():
    cfg = base_cfg(noise=None)
    _, entries = lambda_sweep(cfg, (0.5, 0.25, 0.125), nz.PathSeed(1))
    rep = vf.apriori_report(entries)
    assert all(v == 0.0 for v in rep.ensemble.values())
    assert rep.all_passed
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
