"""Noise tests: reproducible streams, moments, HS bounds, smoothing."""

import math
import warnings

import numpy as np
import pytest

from dnpde import convex as cx
from dnpde import grid as gd
from dnpde import noise as nz
from dnpde.grid import GridField
from dnpde.noise import PathSeed
from dnpde.solver import SolverConfig, integrate

GRID = gd.DirichletGrid((1.0,), (24,))


def test_increments_bitwise_reproducible():
    seed = nz.PathSeed(987654321, 3)
    a = nz.sample_increments(seed, 50, 0.01, 4)
    b = nz.sample_increments(nz.PathSeed(987654321, 3), 50, 0.01, 4)
    assert np.array_equal(a, b)
    c = nz.sample_increments(nz.PathSeed(987654321, 4), 50, 0.01, 4)
    assert not np.array_equal(a, c)
    assert nz.increment_checksum(a) == nz.increment_checksum(b)
    assert nz.increment_checksum(a) != nz.increment_checksum(c)


def test_increments_zero_dt():
    a = nz.sample_increments(nz.PathSeed(1), 10, 0.0, 2)
    assert np.all(a == 0.0)
    with pytest.raises(ValueError):
        nz.sample_increments(nz.PathSeed(1), 10, -0.1, 2)


@pytest.mark.parametrize("n_steps, K", [(10, 0), (-1, 2)])
def test_increments_refuse_no_modes_and_negative_steps(n_steps, K):
    with pytest.raises(ValueError, match=r"^need n_steps >= 0 and K >= 1$"):
        nz.sample_increments(nz.PathSeed(1), n_steps, 0.1, K)


@pytest.mark.parametrize("block", [1, 3, 4, 6, 12, 13])
def test_streamed_rows_are_the_table(block):
    # blocks that do and do not divide the 12 steps continue one Philox
    # sequence, each scaled as the whole table is
    seed = nz.PathSeed(987654321, 3)
    table = nz.sample_increments(seed, 12, 0.01, 4)
    rows = list(nz.increment_rows(seed, 12, 0.01, 4, block))
    assert len(rows) == 12 and np.array(rows).tobytes() == table.tobytes()
    assert list(nz.increment_rows(seed, 0, 0.01, 4, block)) == []


def test_seeds_and_step_counts_must_be_integers():
    # a float seed used to fail at the first draw, and 4.5 steps drew 4 rows
    for args, name, value in (((1.5,), "master_seed", "1.5"), ((1, 2.0), "path_index", "2.0")):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value}$"):
            nz.PathSeed(*args)
    for n_steps, K, name, value in ((4.5, 2, "n_steps", "4.5"), (4, 2.0, "K", "2.0")):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value}$"):
            nz.sample_increments(nz.PathSeed(1), n_steps, 0.1, K)
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value}$"):
            nz.increment_rows(nz.PathSeed(1), n_steps, 0.1, K, 2)
    # numpy integers key and size the same draw as Python integers
    numpy_ints = nz.sample_increments(nz.PathSeed(np.int64(5), np.uint32(1)), np.int64(4), 0.1, np.int32(2))
    assert numpy_ints.tobytes() == nz.sample_increments(nz.PathSeed(5, 1), 4, 0.1, 2).tobytes()


def test_increment_moments():
    dt = 0.01
    a = nz.sample_increments(nz.PathSeed(2024), 100_000, dt, 1).ravel()
    n = a.size
    var = a.var(ddof=1)
    se_var = dt * np.sqrt(2.0 / (n - 1))
    assert abs(var - dt) <= 3 * se_var
    assert abs(a.mean()) <= 3 * np.sqrt(dt / n)


def test_increment_independence():
    a = nz.sample_increments(nz.PathSeed(77), 100_000, 1.0, 4)
    se = 4.0 / np.sqrt(a.shape[0])
    corr = np.corrcoef(a.T)
    off = corr[~np.eye(4, dtype=bool)]
    assert np.abs(off).max() <= se
    # lag-1 correlation along steps
    for k in range(4):
        lag = np.corrcoef(a[:-1, k], a[1:, k])[0, 1]
        assert abs(lag) <= se


def test_aggregate_increments():
    # a coarse table sums consecutive groups of the fine draw
    agg, a = nz.coupled_increment_tables(nz.PathSeed(5), 0.01, [0.04, 0.01], 0.64, 3)
    assert agg.shape == (16, 3)
    assert np.array_equal(a, nz.sample_increments(nz.PathSeed(5), 64, 0.01, 3))
    assert np.allclose(agg[0], a[:4].sum(axis=0))
    assert np.allclose(agg, a.reshape(16, 4, 3).sum(axis=1))
    # a group size that does not divide the fine step count
    with pytest.raises(ValueError, match="does not divide the horizon"):
        nz.coupled_increment_tables(nz.PathSeed(5), 0.01, [0.05], 0.64, 3)


def test_coupled_increment_tables():
    seed = nz.PathSeed(99, 0)
    tables = nz.coupled_increment_tables(seed, 1 / 64, [1 / 16, 1 / 32, 1 / 64], 0.5, 3)
    assert [t.shape for t in tables] == [(8, 3), (16, 3), (32, 3)]
    # each coarse step sums the fine steps it covers
    fine = tables[2]
    assert np.allclose(tables[0][0], fine[:4].sum(axis=0))
    assert np.allclose(tables[0], fine.reshape(8, 4, 3).sum(axis=1))
    assert np.allclose(tables[1], fine.reshape(16, 2, 3).sum(axis=1))
    # the finest level is the fine draw bit for bit
    assert np.array_equal(fine, nz.sample_increments(seed, 32, 1 / 64, 3))
    with pytest.raises(ValueError):
        nz.coupled_increment_tables(seed, 1 / 24, [1 / 16, 1 / 24], 0.5, 3)
    # a dt that is a multiple of the fine dt but does not divide the horizon
    with pytest.raises(ValueError, match="does not divide the horizon"):
        nz.coupled_increment_tables(seed, 1 / 64, [5 / 64], 0.5, 3)


def test_seed_keys_are_taken_mod_2_64():
    # negative and large seeds key their own streams, with no float cast
    def draw(m):
        return nz.sample_increments(nz.PathSeed(m), 8, 1.0, 2).tobytes()

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        streams = [draw(m) for m in (-5, -6, 0, 2**64 - 1)]
        assert len(set(streams)) == 4
        assert streams[0] == draw(2**64 - 5)
        assert draw(2**63) != draw(2**63 + 1)
    fresh = np.random.Generator(np.random.Philox(key=[5, 0])).standard_normal((8, 2))
    assert draw(5) == fresh.tobytes()


@pytest.mark.parametrize("draw_block", [nz.DRAW_BLOCK, 500])
def test_batched_draw_stacks_the_per_path_tables(monkeypatch, draw_block):
    # a small DRAW_BLOCK splits the paths into many blocks, the last one short
    monkeypatch.setattr(nz, "DRAW_BLOCK", draw_block)
    dt, horizon, K = 1 / 16, 0.5, 3
    for master in (0, 7, -1):
        for n_paths in (1, 3, 130):
            seeds = [nz.PathSeed(master, i) for i in range(n_paths)]
            for fine_dt in (dt, dt / 2, dt / 3):
                levels = [dt, fine_dt]
                tables = nz.coupled_increment_tables(seeds, fine_dt, levels, horizon, K)
                for table, level in zip(tables, levels):
                    assert table.shape == (round(horizon / level), K, n_paths)
                for i, seed in enumerate(seeds):
                    one = nz.coupled_increment_tables(seed, fine_dt, levels, horizon, K)
                    for table, single in zip(tables, one):
                        assert single.shape == table.shape[:2]
                        assert table[..., i].tobytes() == single.tobytes()
                backwards = nz.coupled_increment_tables(seeds[::-1], fine_dt, levels, horizon, K)
                for table, reversed_table in zip(tables, backwards):
                    assert reversed_table.tobytes() == table[..., ::-1].tobytes()
    with pytest.raises(ValueError, match="at least one PathSeed"):
        nz.coupled_increment_tables([], dt, [dt], horizon, K)


def test_apply_b_additive_mode_action():
    model = nz.NoiseModel((0.5, 0.25), nz.AdditiveGain(), 1.0)
    u = np.zeros(GRID.shape)
    out = nz.apply_b(model, GRID, u, np.array([0.0, 0.0]))
    assert np.all(out == 0.0)
    out = nz.apply_b(model, GRID, u, np.array([1.0, 0.0]))
    assert np.allclose(out, 0.5 * gd.sine_mode(GRID, 1))
    with pytest.raises(ValueError):
        nz.apply_b(model, GRID, u, np.zeros(3))
    big = nz.NoiseModel(tuple([0.1] * 40), nz.AdditiveGain(), 1.0)
    with pytest.raises(ValueError):
        nz.apply_b(big, GRID, u, np.zeros(40))   # more modes than the grid has


def test_apply_b_multiplicative_pointwise_oracle():
    model = nz.NoiseModel((0.5, 0.25, 0.1), nz.ClippedLinearGain(0.8), 1.0)
    rng = np.random.default_rng(9)
    u = rng.standard_normal(GRID.shape)
    dw = rng.standard_normal(3)
    out = nz.apply_b(model, GRID, u, dw)
    # direct evaluation with the explicit sine formula
    L = GRID.extents[0]
    x = GRID.spacing[0] * np.arange(1, GRID.nodes[0] + 1)
    field = sum(
        b * np.sqrt(2.0 / L) * np.sin((k + 1) * np.pi * x / L) * dw[k]
        for k, b in enumerate(model.amplitudes)
    )
    sigma = np.clip(u, -0.8, 0.8)
    assert np.abs(out - sigma * field).max() <= 1e-12
    # sigma(0) scaling at zero state
    zero_out = nz.apply_b(model, GRID, np.zeros(GRID.shape), dw)
    assert np.all(zero_out == 0.0)


def test_apply_b_matches_tensordot():
    rng = np.random.default_rng(16)
    model = nz.NoiseModel((0.5, 0.25, 0.1, 0.05), nz.TanhGain(), 1.0)
    g2 = gd.DirichletGrid((1.0, 2.0), (7, 5))
    for grid, dw_shape in ((GRID, (4,)), (g2, (4,)), (GRID, (4, 6)), (g2, (4, 3, 2))):
        dw = rng.standard_normal(dw_shape)
        u = rng.standard_normal(grid.shape + dw_shape[1:])
        _, modes = gd.sine_eigenpairs(grid, 4)
        coeff = np.asarray(model.amplitudes)[(slice(None),) + (None,) * (dw.ndim - 1)] * dw
        expected = model.gain(u) * np.tensordot(modes, coeff, axes=(0, 0))
        out = nz.apply_b(model, grid, u, dw)
        assert out.shape == expected.shape
        assert np.abs(out - expected).max() <= 1e-15 * np.abs(expected).max()


def test_hs_norm_values():
    model = nz.NoiseModel((0.0, 0.0), nz.AdditiveGain(), 1.0)
    assert nz.hs_norm(model, GRID, np.zeros(GRID.shape)) == 0.0
    model = nz.NoiseModel((0.7,), nz.AdditiveGain(), 1.0)
    rng = np.random.default_rng(10)
    u = rng.standard_normal(GRID.shape)
    assert nz.hs_norm(model, GRID, u) == pytest.approx(0.7, abs=1e-12)
    assert nz.hs_norm(model, GRID, 5 * u) == pytest.approx(0.7, abs=1e-12)
    g2 = gd.DirichletGrid((1.0, 2.0), (8, 12))
    model = nz.NoiseModel(nz.amplitudes_power_law(6, 0.5, 1.0), nz.TanhGain())
    u = rng.standard_normal(g2.shape + (5,))   # trailing path axis
    s = np.tanh(u)
    modes = gd.sine_eigenpairs(g2, 6)[1]
    per_mode = np.sqrt(
        sum(
            b * b * gd.dot_h(g2, s * e[..., None], s * e[..., None])
            for b, e in zip(model.amplitudes, modes)
        )
    )
    hs = nz.hs_norm(model, g2, u)
    assert hs.shape == (5,)
    assert np.abs(hs - per_mode).max() <= 1e-14 * per_mode.max()


def test_hs_weight_is_cached_and_read_only():
    g2 = gd.DirichletGrid((1.0, 1.0), (6, 6))
    model = nz.NoiseModel(nz.amplitudes_power_law(4, 0.5, 1.0), nz.TanhGain(), 1.0)
    cfg = SolverConfig(
        g2, cx.PowerPotential(4.0), cx.ExpCoshPotential(), model,
        lambda_yosida=0.5, dt=1e-3, horizon=8e-3, scheme="semi_implicit",
    )
    nz.hs_weight.cache_clear()
    for seed in (3, 4):
        integrate(cfg, GridField(g2, gd.sine_mode(g2, (1, 1))), PathSeed(seed))
    info = nz.hs_weight.cache_info()
    assert info.misses == 1 and info.hits >= 1   # built once, read again by the second run
    with pytest.raises(ValueError):
        nz.hs_weight(model, g2)[0, 0] = 1.0


def test_declared_bound_holds_for_catalog_gains():
    rng = np.random.default_rng(11)
    amps = nz.amplitudes_power_law(6, 0.5, 1.0)
    for gain in (nz.AdditiveGain(), nz.ClippedLinearGain(1.0), nz.TanhGain()):
        model = nz.NoiseModel(amps, gain)
        nb = nz.default_bound(model, GRID)
        model = nz.NoiseModel(amps, gain, nb)
        for _ in range(1000):
            u = rng.standard_normal(GRID.shape) * rng.uniform(0, 4)
            v = rng.standard_normal(GRID.shape) * rng.uniform(0, 4)
            hs_u = nz.hs_norm(model, GRID, u)
            assert hs_u <= nb * (1.0 + gd.norm_h(GRID, u)) + 1e-12
            # Lipschitz via the HS norm of the differenced coefficient
            diff = np.sqrt(
                sum(
                    b * b * gd.dot_h(GRID, (gain(u) - gain(v)) * e, (gain(u) - gain(v)) * e)
                    for b, e in zip(amps, gd.sine_eigenpairs(GRID, 6)[1])
                )
            )
            assert diff <= nb * gd.norm_h(GRID, u - v) + 1e-12


def test_power_law_amplitudes():
    amps = nz.amplitudes_power_law(4, 2.0, 1.0)
    assert amps == (2.0, 1.0, 2.0 / 3.0, 0.5)


def test_model_validation():
    with pytest.raises(ValueError):
        nz.NoiseModel((), nz.AdditiveGain())
    with pytest.raises(ValueError):
        nz.NoiseModel((1.0,), nz.AdditiveGain(), -1.0)
    # non-finite amplitudes, an overflowing sum of squares (whose default bound
    # was inf) and a non-finite bound used to build a model
    for amps, bound in [
        ((math.inf,), None), ((math.nan, 0.5), None), ((1e200, 1e200), None),
        ((1.0,), math.inf), ((1.0,), math.nan),
    ]:
        with pytest.raises(ValueError, match="finite"):
            nz.NoiseModel(amps, nz.AdditiveGain(), bound)
