"""Dirichlet finite-difference grids with exact discrete duality.

Scalar state lives on interior nodes; fluxes live on faces between nodes
(staggered, one normal component per face, boundary faces included).  The
gradient is a forward difference with ghost zeros outside the boundary and
the divergence is defined as its negative adjoint under the h-weighted inner
products, so summation by parts holds to machine precision and div(grad(u))
is the classical 3-point / 5-point Dirichlet Laplacian.

Systems ``(I - delta*lap) x = f`` are solved exactly in the sine basis of
each axis (Buzbee, Golub and Nielson, 1970); Jacobi-scaled CG serves the
operators whose coefficients vary from node to node.

All array operations accept trailing batch axes after the grid axes.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DirichletGrid",
    "GridField",
    "grad_arrays",
    "grad_buffer",
    "face_views",
    "div_arrays",
    "lap_arrays",
    "dot_h",
    "norm_h",
    "flux_dot_h",
    "flux_norm_h",
    "sine_eigenvalue",
    "sine_mode",
    "sine_eigenpairs",
    "cg_solve",
    "dual_norm_v0",
    "node_coordinates",
    "write_field",
    "read_field",
]

CG_RTOL = 1e-12
DUAL_NORM_ORDER = 2   # power m of (I - lap)**(-m) in dual_norm_v0


@dataclass(frozen=True)
class DirichletGrid:
    """Uniform interior grid on a 1-d interval or 2-d rectangle, u = 0 on the boundary."""

    extents: tuple
    nodes: tuple

    def __post_init__(self):
        extents = tuple(float(e) for e in self.extents)
        nodes = tuple(int(n) for n in self.nodes)
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "nodes", nodes)
        if len(extents) != len(nodes) or len(extents) not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        if not all(0.0 < e < math.inf for e in extents):
            raise ValueError("extents must be positive and finite")
        if any(n < 3 for n in nodes):
            raise ValueError("nodes must be at least 3 per axis")

    @property
    def dim(self):
        return len(self.nodes)

    @functools.cached_property
    def spacing(self):
        return tuple(e / (n + 1) for e, n in zip(self.extents, self.nodes))

    @property
    def node_volume(self):
        return math.prod(self.spacing)

    @property
    def shape(self):
        return self.nodes

    def face_shapes(self):
        return tuple(shape for _, shape, _, _ in self.face_layout)

    @functools.cached_property
    def face_layout(self):
        """Per axis ``(h, shape, offset, size)`` of its block of a face buffer."""
        shapes = [tuple(n + (a == ax) for a, n in enumerate(self.nodes)) for ax in range(self.dim)]
        sizes = [math.prod(s) for s in shapes]
        return tuple(zip(self.spacing, shapes, itertools.accumulate([0] + sizes), sizes))


@dataclass(frozen=True)
class GridField:
    """Scalar values on the interior nodes of a grid."""

    grid: DirichletGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape[: self.grid.dim] != self.grid.shape or v.ndim != self.grid.dim:
            raise ValueError(f"value shape {v.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite field values")
        object.__setattr__(self, "values", v)


# ---------------------------------------------------------------------------
# raw array operators (grid axes first, arbitrary trailing batch axes)
# ---------------------------------------------------------------------------

def face_views(grid, buf):
    """Per-axis views of a face buffer ``(faces, *batch)`` laid out by ``face_layout``."""
    return [buf[o : o + n].reshape(s + buf.shape[1:]) for _, s, o, n in grid.face_layout]


def grad_buffer(grid, u):
    """Forward differences, ghost zeros outside, in one C-contiguous face buffer: (buf, views)."""
    _, _, off, size = grid.face_layout[-1]
    buf = np.empty((off + size,) + u.shape[grid.dim:])
    faces = face_views(grid, buf)
    for ax, (face, (h, *_)) in enumerate(zip(faces, grid.face_layout)):
        pre = (slice(None),) * ax   # index prefix reaching axis ax
        face[pre + (0,)] = u[pre + (0,)]
        face[pre + (-1,)] = -u[pre + (-1,)]
        np.subtract(u[pre + (np.s_[1:],)], u[pre + (np.s_[:-1],)], out=face[pre + (np.s_[1:-1],)])
        face /= h
    return buf, faces


def grad_arrays(grid, u):
    """Forward differences onto faces, ghost zeros outside; one array per axis."""
    return grad_buffer(grid, u)[1]


def div_arrays(grid, comps):
    """Negative adjoint of ``grad_arrays`` (backward difference of face values)."""
    acc = None
    for ax, (c, h) in enumerate(zip(comps, grid.spacing)):
        pre = (slice(None),) * ax
        d = (c[pre + (np.s_[1:],)] - c[pre + (np.s_[:-1],)]) / h
        acc = d if acc is None else acc + d
    return acc


def lap_arrays(grid, u):
    return div_arrays(grid, grad_arrays(grid, u))


def _grid_sum(grid, a):
    return np.add.reduce(a, axis=tuple(range(grid.dim)))   # np.sum without its wrapper


def dot_h(grid, a, b):
    """h-weighted inner product of node arrays (batch axes preserved)."""
    return grid.node_volume * _grid_sum(grid, a * b)


def norm_h(grid, a):
    return np.sqrt(dot_h(grid, a, a))


def flux_dot_h(grid, f, g):
    """h-weighted inner product of face arrays, one per axis (batch axes preserved)."""
    return grid.node_volume * sum(
        _grid_sum(grid, cf * cg) for cf, cg in zip(f, g)
    )


def flux_norm_h(grid, f):
    return np.sqrt(flux_dot_h(grid, f, f))


# ---------------------------------------------------------------------------
# sine eigenpairs of the discrete Dirichlet Laplacian
# ---------------------------------------------------------------------------

def _axis_eigenvalue(h, n, k):
    return (4.0 / h**2) * math.sin(k * math.pi / (2 * (n + 1))) ** 2


def _axis_mode(extent, n, k):
    i = np.arange(1, n + 1)
    vec = np.sin(k * math.pi * i / (n + 1))
    return math.sqrt(2.0 / extent) * vec


def _mode_index(grid, k):
    ks = (k,) if np.isscalar(k) else tuple(k)
    if len(ks) != grid.dim:
        raise ValueError("mode index arity does not match grid dimension")
    for kk, n in zip(ks, grid.nodes):
        if not 1 <= kk <= n:
            raise ValueError(f"mode index {kk} out of range 1..{n}")
    return ks


def sine_eigenvalue(grid, k):
    """Eigenvalue of ``-lap`` for mode index k (int in 1d, pair in 2d, 1-based)."""
    ks = _mode_index(grid, k)
    return sum(
        _axis_eigenvalue(h, n, kk) for h, n, kk in zip(grid.spacing, grid.nodes, ks)
    )


def sine_mode(grid, k):
    """h-orthonormal sine eigenvector for mode index k."""
    ks = _mode_index(grid, k)
    axes = [
        _axis_mode(e, n, kk) for e, n, kk in zip(grid.extents, grid.nodes, ks)
    ]
    if grid.dim == 1:
        return axes[0]
    return np.multiply.outer(axes[0], axes[1])


EIG_CACHE_SIZE = 32   # entries kept by each cache of sine-basis arrays


@functools.lru_cache(maxsize=EIG_CACHE_SIZE)
def sine_eigenpairs(grid, K):
    """First K eigenpairs sorted by eigenvalue: ``(alphas (K,), modes (K, *nodes))``.

    Results are cached per ``(grid, K)`` and read-only.
    """
    indices = list(itertools.product(*(range(1, n + 1) for n in grid.nodes)))
    if K > len(indices):
        raise ValueError(f"requested {K} modes but the grid supports only {len(indices)}")
    indices.sort(key=lambda ks: (sine_eigenvalue(grid, ks), ks))
    chosen = indices[:K]
    alphas = np.array([sine_eigenvalue(grid, ks) for ks in chosen])
    modes = np.stack([sine_mode(grid, ks) for ks in chosen])
    alphas.flags.writeable = modes.flags.writeable = False
    return alphas, modes


@functools.lru_cache(maxsize=EIG_CACHE_SIZE)
def _axis_basis(extent, n):
    """Eigenvalues of ``-lap`` on one axis and its sine matrix, which is
    symmetric and its own inverse (cached, read-only)."""
    h = extent / (n + 1)
    alphas = np.array([_axis_eigenvalue(h, n, k) for k in range(1, n + 1)])
    i = np.arange(1, n + 1)
    basis = math.sqrt(2.0 / (n + 1)) * np.sin(math.pi * np.outer(i, i) / (n + 1))
    alphas.flags.writeable = basis.flags.writeable = False
    return alphas, basis


@functools.lru_cache(maxsize=EIG_CACHE_SIZE)
def _mode_scale(grid, delta, m):
    """``(1 + delta*(alpha_i + alpha_j))**(-m)`` on the sine modes (cached, read-only)."""
    alphas = [_axis_basis(e, n)[0] for e, n in zip(grid.extents, grid.nodes)]
    scale = (1.0 + delta * functools.reduce(np.add.outer, alphas)) ** -m
    scale.flags.writeable = False
    return scale


# ---------------------------------------------------------------------------
# SPD solves
# ---------------------------------------------------------------------------

def cg_solve(grid, apply_op, b, diag):
    """Matrix-free conjugate gradients with Jacobi (diagonal) scaling.

    ``apply_op`` maps node arrays to node arrays and must be SPD in the
    h-weighted inner product; ``diag`` is its diagonal (a constant or a node
    array).  Each batch column stops on its own relative test ``CG_RTOL``
    and is left untouched afterwards; a zero column stays zero.
    """
    b = np.asarray(b, dtype=float)
    max_iter = 20 * math.prod(grid.nodes)
    bnorm = np.sqrt(_grid_sum(grid, b * b))
    if (bnorm == 0.0).all():
        return np.zeros_like(b)
    x = b / diag
    r = b - apply_op(x)
    z = r / diag
    p = z.copy()
    rz = _grid_sum(grid, r * z)
    for _ in range(max_iter):
        done = np.sqrt(_grid_sum(grid, r * r)) <= CG_RTOL * bnorm
        if done.all():
            return x
        ap = apply_op(p)
        pap = _grid_sum(grid, p * ap)
        if ((pap <= 0.0) & ~done).any():
            raise RuntimeError("CG breakdown: operator is not positive definite")
        alpha = np.where(done, 0.0, rz / np.where(pap > 0.0, pap, 1.0))
        x = x + alpha * p
        r = r - alpha * ap
        z = r / diag
        rz_new = _grid_sum(grid, r * z)
        beta = rz_new / np.where(rz > 0.0, rz, 1.0)
        p = z + beta * p
        rz = rz_new
    raise RuntimeError(f"CG did not converge in {max_iter} iterations")


def resolvent_arrays(grid, delta, m, u):
    """Apply ``(I - delta*lap)**(-m)`` to a node array (batch axes allowed):
    sine transform by one matrix product per axis, scale mode ``(i, j)`` by
    the cached ``(1 + delta*(alpha_i + alpha_j))**(-m)``, transform back."""
    if delta < 0.0:
        raise ValueError("delta must be >= 0")
    if int(m) != m or m < 1:
        raise ValueError("m must be an integer >= 1")
    u = np.asarray(u, dtype=float)
    if delta == 0.0:
        return u.copy()
    bases = [_axis_basis(e, n)[1] for e, n in zip(grid.extents, grid.nodes)]

    def transform(v):
        # axis 0 acts on the flattened trailing axes; the sine matrices are symmetric
        v = (bases[0] @ v.reshape(v.shape[0], -1)).reshape(v.shape)
        if grid.dim == 1:
            return v
        if v.ndim == 2:
            return v @ bases[1]
        return np.matmul(bases[1], v.reshape(v.shape[:2] + (-1,))).reshape(v.shape)

    scale = _mode_scale(grid, float(delta), int(m))
    return transform(transform(u) * scale[(...,) + (None,) * (u.ndim - grid.dim)])


def dual_norm_v0(grid, f):
    """Norm of ``(I - lap)**(-DUAL_NORM_ORDER) f``: a proxy for a negative-order dual norm.

    Vanishes iff ``f = 0``; used to compare drift functionals across runs.
    """
    vals = f.values if isinstance(f, GridField) else np.asarray(f, dtype=float)
    return norm_h(grid, resolvent_arrays(grid, 1.0, DUAL_NORM_ORDER, vals))


# ---------------------------------------------------------------------------
# coordinates and serialization
# ---------------------------------------------------------------------------

def node_coordinates(grid):
    """Coordinate arrays of the interior nodes (meshgrid 'ij' layout in 2d)."""
    axes = [
        h * np.arange(1, n + 1) for h, n in zip(grid.spacing, grid.nodes)
    ]
    if grid.dim == 1:
        return (axes[0],)
    return tuple(np.meshgrid(*axes, indexing="ij"))


def write_field(field: GridField, path):
    """Flat text, one value per line, row-major, after a single header line."""
    g = field.grid
    header = " ".join(
        [str(g.dim)] + [f"{e!r}" for e in g.extents] + [str(n) for n in g.nodes]
    )
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for v in field.values.ravel(order="C"):
            fh.write(f"{v:.17g}\n")


def read_field(path, grid=None) -> GridField:
    with open(path) as fh:
        header = fh.readline().split()
        body = [float(line) for line in fh if line.strip()]
    d = int(header[0]) if header else 0
    if d < 1 or len(header) < 1 + 2 * d:
        raise ValueError("missing or short grid header")
    extents = tuple(float(t) for t in header[1 : 1 + d])
    nodes = tuple(int(t) for t in header[1 + d : 1 + 2 * d])
    file_grid = DirichletGrid(extents, nodes)
    if grid is not None and grid != file_grid:
        raise ValueError(f"grid in file {file_grid} does not match {grid}")
    values = np.array(body).reshape(nodes)
    return GridField(file_grid, values)
