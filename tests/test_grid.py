"""Grid tests: exact discrete duality, spectral formulas, SPD solves, IO."""

import dataclasses
import math

import numpy as np
import pytest

from dnpde import grid as gd
from dnpde.grid import DirichletGrid, GridField

G1 = DirichletGrid((1.0,), (16,))
G2 = DirichletGrid((1.0, 2.0), (8, 12))


def test_grid_validation():
    with pytest.raises(ValueError):
        DirichletGrid((1.0,), (2,))
    with pytest.raises(ValueError):
        DirichletGrid((-1.0,), (8,))
    with pytest.raises(ValueError):
        DirichletGrid((1.0, 1.0, 1.0), (4, 4, 4))
    for bad in (math.inf, math.nan):   # used to build a grid with spacing inf or nan
        with pytest.raises(ValueError, match="^extents must be positive and finite"):
            DirichletGrid((1.0, bad), (8, 8))
    assert G2.spacing == (1.0 / 9, 2.0 / 13)
    assert G2.node_volume == pytest.approx((1.0 / 9) * (2.0 / 13))
    # dim and node_volume are cached on the grid; equality, hashing (the sine
    # caches key on it) and replace still come from its fields alone
    for grid in (G1, G2):
        fresh = DirichletGrid(grid.extents, grid.nodes)
        assert grid.node_volume == math.prod(grid.spacing) and grid.dim == len(grid.nodes)
        assert grid == fresh and hash(grid) == hash(fresh) and repr(grid) == repr(fresh)
        assert gd.sine_eigenpairs(grid, 3) is gd.sine_eigenpairs(fresh, 3)
        wider = dataclasses.replace(grid, nodes=(20,) * grid.dim)
        assert wider.nodes == (20,) * grid.dim and wider.node_volume == math.prod(wider.spacing)
        assert dataclasses.replace(wider, nodes=grid.nodes) == grid


def test_field_validation():
    with pytest.raises(ValueError):
        GridField(G1, np.zeros(7))
    with pytest.raises(ValueError):
        GridField(G1, np.full(16, np.nan))


def test_gradient_of_zero_and_linearity():
    rng = np.random.default_rng(1)
    z = gd.grad_arrays(G2, np.zeros(G2.shape))
    assert all(np.all(c == 0) for c in z)
    u = rng.standard_normal(G2.shape)
    v = rng.standard_normal(G2.shape)
    gu = gd.grad_arrays(G2, u)
    gv = gd.grad_arrays(G2, v)
    gsum = gd.grad_arrays(G2, u + v)
    for a, b, c in zip(gu, gv, gsum):
        assert np.abs(a + b - c).max() < 1e-14


def test_gradient_of_hat_is_piecewise_constant():
    # ramp up to the midpoint then down: forward differences are +-slope
    n = 15
    g = DirichletGrid((1.0,), (n,))
    h = g.spacing[0]
    x = h * np.arange(1, n + 1)
    u = np.minimum(x, 1.0 - x)
    flux = gd.grad_arrays(g, u)[0]
    assert np.allclose(flux[: (n + 1) // 2], 1.0)
    assert np.allclose(flux[(n + 1) // 2 + 1:], -1.0)


def test_summation_by_parts_exact():
    rng = np.random.default_rng(2)
    for g in (G1, G2):
        for _ in range(100):
            u = rng.standard_normal(g.shape)
            f = [rng.standard_normal(s) for s in g.face_shapes()]
            lhs = gd.dot_h(g, gd.div_arrays(g, f), u)
            rhs = gd.flux_dot_h(g, f, gd.grad_arrays(g, u))
            scale = max(1.0, abs(lhs), abs(rhs))
            assert abs(lhs + rhs) <= 1e-12 * scale


def test_div_grad_is_dirichlet_stencil():
    rng = np.random.default_rng(3)
    u = rng.standard_normal(G1.shape)
    h = G1.spacing[0]
    lap = gd.lap_arrays(G1, u)
    up = np.pad(u, 1)
    stencil = (up[2:] - 2 * u + up[:-2]) / h**2
    assert np.abs(lap - stencil).max() <= 1e-13 * np.abs(stencil).max()

    u = rng.standard_normal(G2.shape)
    lap = gd.lap_arrays(G2, u)
    up = np.pad(u, 1)
    hx, hy = G2.spacing
    stencil = (up[2:, 1:-1] - 2 * u + up[:-2, 1:-1]) / hx**2 + (
        up[1:-1, 2:] - 2 * u + up[1:-1, :-2]
    ) / hy**2
    assert np.abs(lap - stencil).max() <= 1e-13 * np.abs(stencil).max()


def test_eigenpair_cache_is_bounded():
    first = gd.sine_eigenpairs(G1, 4)
    assert gd.sine_eigenpairs(G1, 4)[1] is first[1]
    for n in range(3, 3 + 3 * gd.EIG_CACHE_SIZE):
        gd.sine_eigenpairs(DirichletGrid((1.0,), (n,)), 2)
        assert gd.sine_eigenpairs.cache_info().currsize <= gd.EIG_CACHE_SIZE


def test_sine_modes_are_h_orthonormal_eigenvectors():
    alphas, modes = gd.sine_eigenpairs(G2, 10)
    assert np.all(np.diff(alphas) >= 0)
    for a, e in zip(alphas, modes):
        resid = -gd.lap_arrays(G2, e) - a * e
        assert np.abs(resid).max() <= 1e-10 * a
    gram = np.array(
        [[gd.dot_h(G2, a, b) for b in modes] for a in modes]
    )
    assert np.abs(gram - np.eye(10)).max() <= 1e-12


def _power_iteration_lambda_max(grid, iters, seed=7):
    """Direct power-iteration estimate of the top eigenvalue of ``-lap``."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.shape)
    v /= gd.norm_h(grid, v)
    lam = 0.0
    for _ in range(iters):
        w = -gd.lap_arrays(grid, v)
        lam = gd.dot_h(grid, v, w)
        v = w / gd.norm_h(grid, w)
    return float(lam)


def test_lambda_max_matches_power_iteration():
    # the top sine mode on every axis, as the semi-implicit stability bound reads it
    for g in (G1, G2):
        direct = gd.sine_eigenvalue(g, g.nodes)
        power = _power_iteration_lambda_max(g, iters=3000)
        assert abs(direct - power) <= 1e-8 * direct


def test_mode_count_guard():
    with pytest.raises(ValueError):
        gd.sine_eigenpairs(G1, 17)
    with pytest.raises(ValueError):
        gd.sine_eigenvalue(G1, 0)


@pytest.mark.parametrize("fn", [gd.sine_eigenvalue, gd.sine_mode])
def test_mode_index_arity_guard(fn):
    for grid, k in ((G2, 1), (G2, (1, 2, 3)), (G1, (1, 1))):
        with pytest.raises(ValueError, match="arity does not match grid dimension"):
            fn(grid, k)


@pytest.mark.parametrize("fn", [gd.sine_eigenvalue, gd.sine_mode])
def test_mode_index_range_guard(fn):
    # on 16 nodes mode 35 aliases mode 1, mode 33 is -mode 1 and mode 0 is zero
    for k in (0, 17, 33, 35, -1):
        with pytest.raises(ValueError, match=f"mode index {k} out of range 1..16"):
            fn(G1, k)
    n0, n1 = G2.nodes
    for k in ((0, 1), (1, n1 + 1), (n0 + 1, 1)):
        with pytest.raises(ValueError, match="out of range"):
            fn(G2, k)
    fn(G1, 16)   # the last mode of each axis is in range
    fn(G2, (n0, n1))


def test_laplacian_resolvent_eigen_oracle():
    # mode expansions, scaled mode by mode; the full random expansion on G2 is
    # where a CG stopped at a relative residual of 1e-12 is off by 4.5e-13
    delta = 0.7
    g75 = DirichletGrid((1.0, 2.0), (7, 5))   # non-square: the axes must not be swapped
    ks = [(1, 1), (2, 3), (7, 2)]
    cases = [
        (G1, np.array([gd.sine_eigenvalue(G1, 1)]), gd.sine_mode(G1, 1)[None], np.ones(1)),
        (
            g75,
            np.array([gd.sine_eigenvalue(g75, k) for k in ks]),
            np.stack([gd.sine_mode(g75, k) for k in ks]),
            np.array([1.0, -0.5, 0.25]),
        ),
        (G2, *gd.sine_eigenpairs(G2, 96), np.random.default_rng(12).standard_normal(96)),
    ]
    for grid, alphas, modes, coef in cases:
        u = np.tensordot(coef, modes, axes=(0, 0))
        for m in (1, 3):
            out = gd.resolvent_arrays(grid, delta, m, u)
            expected = np.tensordot(coef * (1.0 + delta * alphas) ** (-m), modes, axes=(0, 0))
            assert np.abs(out - expected).max() <= 1e-13 * np.abs(expected).max()


def test_laplacian_resolvent_identity_and_contraction():
    rng = np.random.default_rng(5)
    u = rng.standard_normal(G2.shape)
    same = gd.resolvent_arrays(G2, 0.0, 2, u)
    assert np.array_equal(same, u)
    out = gd.resolvent_arrays(G2, 0.4, 2, u)
    assert gd.norm_h(G2, out) <= gd.norm_h(G2, u)
    with pytest.raises(ValueError):
        gd.resolvent_arrays(G2, -1.0, 1, u)
    with pytest.raises(ValueError):
        gd.resolvent_arrays(G2, 1.0, 0, u)


def test_dual_norm_v0():
    assert gd.dual_norm_v0(G1, np.zeros(G1.shape)) == 0.0
    e1 = gd.sine_mode(G1, 1)
    a1 = gd.sine_eigenvalue(G1, 1)
    val = gd.dual_norm_v0(G1, e1)
    assert val == pytest.approx((1 + a1) ** -gd.DUAL_NORM_ORDER * gd.norm_h(G1, e1), rel=1e-8)
    rng = np.random.default_rng(6)
    f = rng.standard_normal(G1.shape)
    assert gd.dual_norm_v0(G1, 3.5 * f) == pytest.approx(3.5 * gd.dual_norm_v0(G1, f), rel=1e-10)


def test_gradient_refinement_first_order():
    errs = []
    hs = []
    for n in (16, 32, 64, 128):
        g = DirichletGrid((1.0,), (n,))
        x = gd.node_coordinates(g)[0]
        u = np.sin(np.pi * x) * x * (1 - x)
        flux = gd.grad_arrays(g, u)[0]
        xf = g.spacing[0] * np.arange(0, n + 1) + g.spacing[0] / 2

        def du(t):
            return np.pi * np.cos(np.pi * t) * t * (1 - t) + np.sin(np.pi * t) * (1 - 2 * t)

        errs.append(np.abs(flux - du(xf)).max())
        hs.append(g.spacing[0])
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 0.9)


def test_batched_operations_match_loop():
    rng = np.random.default_rng(7)
    batch = rng.standard_normal(G2.shape + (5,))
    g_batch = gd.grad_arrays(G2, batch)
    for p in range(5):
        single = gd.grad_arrays(G2, batch[..., p])
        for a, b in zip(g_batch, single):
            assert np.array_equal(a[..., p], b)
    r_batch = gd.resolvent_arrays(G2, 0.3, 2, batch)
    for p in range(5):
        single = gd.resolvent_arrays(G2, 0.3, 2, batch[..., p])
        assert np.abs(r_batch[..., p] - single).max() <= 1e-11


def _address(a):
    return a.__array_interface__["data"][0]


def test_face_operators_match_pad_and_diff():
    # slice stencils are bit-identical to padding with ghost zeros and
    # differencing; every axis's faces are a C-contiguous block of one face
    # buffer, at the place the grid's cached face layout gives
    rng = np.random.default_rng(13)
    g1_32 = DirichletGrid((1.0,), (32,))
    g75 = DirichletGrid((1.0, 2.0), (7, 5))
    for grid, shape in (
        (G1, G1.shape), (g1_32, (32, 512)), (G2, G2.shape), (G2, G2.shape + (5,)),
        (g75, g75.shape),
    ):
        assert grid.face_layout is grid.face_layout
        u = rng.standard_normal(shape)
        faces = gd.grad_arrays(grid, u)
        buf, views = gd.grad_buffer(grid, u)
        assert buf.flags.c_contiguous
        assert buf.shape == (sum(size for *_, size in grid.face_layout),) + shape[grid.dim:]
        row = buf[0].nbytes   # one face, all batch columns
        div = gd.div_arrays(grid, faces)
        expected_div = None
        for ax, (face, view, (h, _, off, _)) in enumerate(zip(faces, views, grid.face_layout)):
            assert face.flags.c_contiguous and view.flags.c_contiguous
            assert _address(face) == _address(faces[0]) + off * row
            assert _address(view) == _address(buf) + off * row
            assert np.array_equal(view, face)
            pad = [(0, 0)] * u.ndim
            pad[ax] = (1, 1)
            assert np.array_equal(face, np.diff(np.pad(u, pad), axis=ax) / h)
            d = np.diff(face, axis=ax) / h
            expected_div = d if expected_div is None else expected_div + d
        assert np.array_equal(div, expected_div)
        assert all(np.array_equal(v, f) for v, f in zip(gd.face_views(grid, buf), faces))
        if grid.dim == 1:   # the one axis's block is the whole buffer, with or without a lead axis
            assert gd.face_views(grid, buf)[0] is buf
            stacked = np.stack([buf, buf])
            assert gd.face_views(grid, stacked, 1)[0] is stacked


def test_batched_resolvent_matches_columns_and_oracle():
    g75 = DirichletGrid((1.0, 2.0), (7, 5))
    alphas, modes = gd.sine_eigenpairs(g75, 35)
    coef = np.random.default_rng(14).standard_normal((35, 3))
    u = np.tensordot(modes, coef, axes=(0, 0))   # (7, 5, 3): three paths
    for m in (1, 3):
        out = gd.resolvent_arrays(g75, 0.7, m, u)
        for p in range(3):
            assert np.array_equal(out[..., p], gd.resolvent_arrays(g75, 0.7, m, u[..., p]))
        scaled = coef * ((1.0 + 0.7 * alphas) ** (-m))[:, None]
        expected = np.tensordot(modes, scaled, axes=(0, 0))
        assert np.abs(out - expected).max() <= 1e-13 * np.abs(expected).max()


def test_cached_sine_arrays_are_read_only():
    gd.resolvent_arrays(G2, 0.3, 2, np.ones(G2.shape))
    cached = [
        *gd.sine_eigenpairs(G2, 4),
        *gd._axis_basis(G2.extents[0], G2.nodes[0]),
        gd._mode_scale(G2, 0.3, 2),
    ]
    for a in cached:
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_cg_batch_with_zero_column():
    rng = np.random.default_rng(11)
    b = np.stack([np.zeros(G2.shape), rng.standard_normal(G2.shape)], axis=-1)
    diag = 1.0 + 0.3 * sum(2.0 / h**2 for h in G2.spacing)
    x = gd.cg_solve(G2, lambda v: v - 0.3 * gd.lap_arrays(G2, v), b, diag)
    assert np.all(x[..., 0] == 0.0)
    assert np.abs(x[..., 1] - gd.resolvent_arrays(G2, 0.3, 1, b[..., 1])).max() <= 1e-11
    for zero in (np.zeros(G2.shape), np.zeros(G2.shape + (3,))):   # one path, a batch
        x = gd.cg_solve(G2, lambda v: v - 0.3 * gd.lap_arrays(G2, v), zero, diag)
        assert x.shape == zero.shape and np.all(x == 0.0)


def test_cg_rejects_indefinite_operator():
    with pytest.raises(RuntimeError):
        gd.cg_solve(G1, lambda v: -v, np.ones(G1.shape), diag=1.0)


def test_cg_refuses_to_run_past_its_iteration_cap():
    # I + 10 S with S skew: positive on every direction, so CG never breaks
    # down, but not symmetric, so it never converges
    def skewed(v):
        s = np.zeros_like(v)
        s[1:] += v[:-1]
        s[:-1] -= v[1:]
        return v + 10.0 * s

    with pytest.raises(RuntimeError, match=r"^CG did not converge in 320 iterations$"):
        gd.cg_solve(G1, skewed, np.ones(G1.shape), diag=1.0)


def test_field_io_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    for g in (G1, G2):
        field = GridField(g, rng.standard_normal(g.shape))
        path = tmp_path / f"field_{g.dim}d.txt"
        gd.write_field(field, path)
        back = gd.read_field(path)
        assert back.grid == g
        assert np.array_equal(back.values, field.values)
    with pytest.raises(ValueError):
        gd.read_field(tmp_path / "field_1d.txt", grid=G2)
    for header in ("", "\n1.0\n", "2 1.0 1.0 4\n"):   # no header, no header line, short
        bad = tmp_path / "bad.txt"
        bad.write_text(header)
        with pytest.raises(ValueError, match="missing or short grid header"):
            gd.read_field(bad)


def test_field_dump_is_the_per_value_format(tmp_path):
    # one format over the whole field writes the bytes of one 17-digit
    # format per value, and reading them back restores every bit
    rng = np.random.default_rng(12)
    edge = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
    values = np.concatenate([edge, rng.standard_normal(math.prod(G2.shape) - len(edge))]).reshape(G2.shape)
    path = tmp_path / "field.txt"
    gd.write_field(GridField(G2, values), path)
    body = path.read_bytes().split(b"\n", 1)[1]
    assert body == "".join(f"{v:.17g}\n" for v in values.ravel()).encode()
    assert gd.read_field(path, G2).values.tobytes() == values.tobytes()
