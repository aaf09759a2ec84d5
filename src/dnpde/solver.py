"""Implicit variational time stepping for the regularized evolution equation.

Each step of the implicit scheme minimizes

    F(v) = ||v - forcing||^2 / (2 dt) + (lam_visc/2) ||grad v||^2
           + sum_faces vol * k_lam(grad v) + sum_nodes vol * j_lam(v),

whose optimality condition is the backward Euler step of ``du - lam_visc *
lap(u) dt - div gamma_lam(grad u) dt + beta_lam(u) dt = 0`` applied to the
noise-augmented forcing (explicit Euler-Maruyama treatment of the noise).
``k_lam`` and ``j_lam`` are Moreau envelopes, so the objective is smooth and
strongly convex and is solved by damped semismooth Newton (a Thomas sweep
in 1d, matrix-free CG in 2d, an Armijo search on F per path) until its
gradient norm is certified below ``eps_inner``.

On staggered grids every face carries one gradient component, and the flux
graph is applied facewise through its scalar profile; in 1d this is exactly
the (possibly multivalued) graph of the problem.

A cheaper semi-implicit variant treats the monotone terms explicitly under a
stability restriction, solves the viscosity term exactly in the sine basis
and shares the same limit as dt and the regularization vanish.  Single paths
and batches of independent noise paths run through one stepping loop into one
result type, ``Trajectory``, whose ledger columns carry the batch axes; an
ensemble is integrated as one batch.  Each state's face gradients, resolvent
points and Yosida values are evaluated once, every face axis in one face
buffer, and shared by the energy ledger, both steps, the graph certificate,
which checks each graph by one Fenchel residual, and the kept record, which
``verify`` reads.  A record whose certificate cannot be evaluated or whose
ledger row is not finite fails the run at its step.

Certifying a record and keeping it are separate: a single path certifies
every record but keeps only every ``keep_every``-th state, so a run that
writes a few dumps holds those states and the ledger, not the whole path.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from dnpde import convex
from dnpde import grid as gridmod
from dnpde import noise as noisemod
from dnpde.grid import DirichletGrid, GridField

__all__ = [
    "SolverConfig",
    "StateRecord",
    "Trajectory",
    "SolverError",
    "StabilityError",
    "InnerSolveError",
    "integrate",
    "integrate_batch",
    "run_ensemble",
    "energy_residual",
    "initial_datum",
    "LEDGER_COLUMNS",
]

ARMIJO = 0.1          # sufficient-decrease fraction of the Newton line search
MU_STEP = 10.0        # factor on a path's damping weight after each line search
MU_MIN = 0.01         # damping weight after the first shortened step
MAX_BACKTRACKS = 40   # step halvings before the line search fails
F_ROUNDING = 1e-12    # relative size of F below which a predicted decrease is rounding

LEDGER_COLUMNS = (
    "norm_u_sq",
    "pairing_eta_gradu",
    "pairing_xi_u",
    "hs_sq",
    "stoch_pairing",
)


class SolverError(RuntimeError):
    def __init__(self, message, step_index=None):
        super().__init__(message)
        self.step_index = step_index


class StabilityError(SolverError):
    """Semi-implicit stability bound violated; the run is refused."""


class InnerSolveError(SolverError):
    """Inner solve failed; names the worst ``path`` (None unbatched), the Newton
    ``iterations`` taken and that path's last ``grad_norm``."""

    def __init__(self, message, step_index=None, path=None, iterations=None, grad_norm=None):
        super().__init__(message, step_index)
        self.path, self.iterations, self.grad_norm = path, iterations, grad_norm


@dataclass
class SolverConfig:
    grid: DirichletGrid
    gamma: convex.Potential | None
    beta: convex.Potential | None
    noise: noisemod.NoiseModel | None
    lambda_yosida: float
    dt: float
    horizon: float
    lambda_visc: float | None = None   # None ties it to lambda_yosida
    scheme: str = "implicit_opt"
    eps_inner: float = 1e-10
    max_inner: int = 100

    def __post_init__(self):
        if not 0.0 < self.lambda_yosida < np.inf:
            raise ValueError("lambda_yosida must be positive and finite")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.visc >= 0:
            raise ValueError("lambda_visc must be >= 0")
        if not self.dt <= self.horizon < np.inf:
            raise ValueError("horizon must be finite and at least dt")
        if not self.eps_inner > 0:
            raise ValueError("eps_inner must be positive")
        if self.max_inner < 1:
            raise ValueError("max_inner must be at least 1")
        if self.scheme not in ("implicit_opt", "semi_implicit"):
            raise ValueError(f"scheme {self.scheme!r} is unknown")
        steps = self.horizon / self.dt
        if not steps <= np.iinfo(np.intp).max:
            raise ValueError(f"dt {self.dt!r} gives {steps:.3g} steps, more than an array holds")
        n = round(steps)
        if n < 1 or abs(n * self.dt - self.horizon) > 1e-9 * max(1.0, self.horizon):
            raise ValueError("horizon must be an integer multiple of dt")

    @property
    def visc(self):
        return self.lambda_yosida if self.lambda_visc is None else self.lambda_visc

    @property
    def n_steps(self):
        return round(self.horizon / self.dt)

    def stability_bound(self):
        """Semi-implicit restriction: dt*(lambda_max/lam + 1/lam) <= 1."""
        lmax = gridmod.lambda_max(self.grid)
        return self.dt * (lmax / self.lambda_yosida + 1.0 / self.lambda_yosida)


# Node values, their face gradients and, per graph, the resolvent points and
# Yosida values (None without the graph): face buffers ``*_buf`` of every axis
# (``faces`` and ``eta`` are per-axis views) and node arrays ``j_nodes``, ``xi``.
_State = namedtuple("_State", "u face_buf faces j_buf eta_buf eta j_nodes xi")


def _state(cfg, u):
    # overflow here is reported by what reads the state: certificate, inner solve, ledger
    g, lam = cfg.grid, cfg.lambda_yosida
    face_buf, faces = gridmod.grad_buffer(g, u)
    j_buf = eta_buf = eta = j_nodes = xi = None
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.gamma is not None:
            j_buf = cfg.gamma.closed_resolvent(lam, face_buf)
            eta_buf = cfg.gamma.yosida_from_resolvent(lam, face_buf, j_buf)
            eta = gridmod.face_views(g, eta_buf)
        if cfg.beta is not None:
            j_nodes = cfg.beta.closed_resolvent(lam, u)
            xi = cfg.beta.yosida_from_resolvent(lam, u, j_nodes)
    return _State(u, face_buf, faces, j_buf, eta_buf, eta, j_nodes, xi)


def _yosida_parts(pot, lam, a, j, G):
    """Moreau envelope, Yosida value ``G`` and two curvatures of ``G`` at ``a``.

    ``j`` is the resolvent point of ``a`` and ``G`` its Yosida value (all
    four are zeros without a potential).  The Newton curvature is
    ``G' = g'(J) / (1 + lam g'(J))``, ``1/lam`` where the graph is vertical.
    The secant one, ``max(G', G(a)/a)``, is Kacanov's: where the graph grows
    at most linearly (abs, Huber, power p < 2) its quadratic model majorizes
    the envelope, so its steps cannot overshoot.
    """
    if pot is None:
        z = np.zeros_like(a)
        return z, z, z, z
    r = a - j
    gp = pot.slope_derivative(j)
    with np.errstate(invalid="ignore", divide="ignore"):
        dG = np.where(np.isinf(gp), 1.0 / lam, gp / (1.0 + lam * gp))
        secant = np.maximum(dG, np.where(a != 0.0, G / a, dG))
    return pot.value(j) + r * r / (2.0 * lam), G, dG, secant


# The step objective at one state: value and gradient norm per path, the
# h-weighted gradient, and two (Newton, secant) curvature pairs, one on the
# face buffer (viscosity included) and one at the nodes.
_Eval = namedtuple("_Eval", "value grad grad_norm face_curv node_curv")


def _evaluate(cfg, state, forcing):
    g = cfg.grid
    lam = cfg.lambda_yosida
    axes = tuple(range(g.dim))
    ga = state.face_buf
    env, G, dG, sec = _yosida_parts(cfg.gamma, lam, ga, state.j_buf, state.eta_buf)
    flux = gridmod.face_views(g, cfg.visc * ga + G)
    face_curv = (cfg.visc + dG, cfg.visc + sec)
    face_env = gridmod.face_views(g, 0.5 * cfg.visc * ga * ga + env)
    face_sum = sum(np.sum(e, axis=axes) for e in face_env)
    r = state.u - forcing
    env, G, dG, sec = _yosida_parts(cfg.beta, lam, state.u, state.j_nodes, state.xi)
    out = r / cfg.dt - gridmod.div_arrays(g, flux) + G
    value = g.node_volume * (np.sum(r * r / (2.0 * cfg.dt) + env, axis=axes) + face_sum)
    return _Eval(value, out, gridmod.norm_h(g, out), face_curv, (dG, sec))


def _thomas(diag, off, rhs):
    """Thomas sweep down the node axis for a diagonally dominant symmetric
    tridiagonal system; each trailing path gets the same scalar operations."""
    d, o, y = list(diag), list(off), list(rhs)
    c = [0.0] * len(o)
    m = d[0]
    y[0] = y[0] / m
    for i in range(1, len(d)):
        c[i - 1] = o[i - 1] / m
        m = d[i] - o[i - 1] * c[i - 1]
        y[i] = (y[i] - o[i - 1] * y[i - 1]) / m
    for i in range(len(d) - 2, -1, -1):
        y[i] = y[i] - c[i] * y[i + 1]
    return np.array(y)


def _newton_direction(cfg, ev, mu):
    """Solve ``H d = -grad F`` by a Thomas sweep (1-d) or Jacobi-scaled CG (2-d).

    ``H`` takes each curvature as ``newton + mu * (secant - newton)``.
    """
    g = cfg.grid
    n, s = ev.face_curv
    coef = gridmod.face_views(g, n + mu * (s - n))
    n, s = ev.node_curv
    node = n + mu * (s - n)
    diag = 1.0 / cfg.dt + node
    for ax, (c, h) in enumerate(zip(coef, g.spacing)):
        pre = (slice(None),) * ax
        diag = diag + (c[pre + (np.s_[1:],)] + c[pre + (np.s_[:-1],)]) / h**2
    if g.dim == 1:
        return _thomas(diag, -coef[0][1:-1] / g.spacing[0] ** 2, -ev.grad)

    def hess(d):
        flux = [c * fd for c, fd in zip(coef, gridmod.grad_arrays(g, d))]
        return d / cfg.dt - gridmod.div_arrays(g, flux) + node * d

    return gridmod.cg_solve(g, hess, -ev.grad, diag)


def _inner_failure(cfg, gn, what, iterations):
    """InnerSolveError naming the worst path when the arrays carry a path axis."""
    path = int(np.argmax(gn)) if np.ndim(gn) else None
    worst = float(np.max(gn))
    return InnerSolveError(
        f"inner optimizer {what}{'' if path is None else f' on path {path}'}: "
        f"gradient norm {worst:.3e} > {cfg.eps_inner:.1e}",
        path=path, iterations=iterations, grad_norm=worst,
    )


def _line_search(cfg, state, forcing, ev, d, todo, it):
    """Armijo backtracking on ``F``, one step length per path in ``todo``.

    Where ``t <grad F, d>`` is below the rounding of ``F``, a step lowering
    ``||grad F||_h`` is taken.  Accepted paths keep their step length, so the
    last trial state holds every path's result."""
    slope = gridmod.dot_h(cfg.grid, ev.grad, d)
    rounding = F_ROUNDING * (1.0 + np.abs(ev.value))
    t = np.ones_like(slope)
    for _ in range(MAX_BACKTRACKS):
        trial = _state(cfg, state.u + t * d)
        new = _evaluate(cfg, trial, forcing)
        armijo = new.value <= ev.value + ARMIJO * t * slope
        flat = (np.abs(t * slope) <= rounding) & (new.grad_norm < ev.grad_norm)
        todo = todo & ~(armijo | flat)
        if not np.any(todo):
            return trial, new, t
        t = np.where(todo, 0.5 * t, t)
    what = f"line search failed after {MAX_BACKTRACKS} backtracks at iteration {it}"
    raise _inner_failure(cfg, np.where(todo, ev.grad_norm, 0.0), what, it)


def _implicit_step_arrays(cfg, state, forcing):
    """Damped semismooth Newton from ``state`` to the state of the certified iterate.

    Newton steps overshoot where a graph flattens (total-variation fluxes,
    power p < 2); secant steps cannot.  Each path blends the two curvatures
    by a weight ``mu`` as in Levenberg-Marquardt: it starts at 0 (Newton), a
    full step divides it by ``MU_STEP``, a shortened one multiplies it (up to
    1), so Newton takes over near the optimum.  A path meeting ``eps_inner``
    is frozen, so it stops on its own certificate whatever its batch.
    """
    ev = _evaluate(cfg, state, forcing)
    if not (np.all(np.isfinite(ev.value)) and np.all(np.isfinite(ev.grad_norm))):
        raise _inner_failure(cfg, ev.grad_norm, "hit a non-finite iterate at iteration 0", 0)
    mu = np.zeros_like(ev.grad_norm)
    it = 0
    while np.any(active := ev.grad_norm > cfg.eps_inner):
        if it == cfg.max_inner:
            raise _inner_failure(cfg, ev.grad_norm, f"exceeded {it} iterations", it)
        it += 1
        d = np.where(active, _newton_direction(cfg, ev, mu), 0.0)
        state, ev, t = _line_search(cfg, state, forcing, ev, d, active, it)
        mu = np.where(t == 1.0, mu / MU_STEP, np.clip(mu * MU_STEP, MU_MIN, 1.0))
    return state


def _semi_implicit_step_arrays(cfg, state, forcing):
    """The next state after one semi-implicit step; the caller has checked stability."""
    rhs = forcing
    if state.eta is not None:
        rhs = rhs + cfg.dt * gridmod.div_arrays(cfg.grid, state.eta)
    if state.xi is not None:
        rhs = rhs - cfg.dt * state.xi
    return _state(cfg, gridmod.resolvent_arrays(cfg.grid, cfg.dt * cfg.visc, 1, rhs))


# ---------------------------------------------------------------------------
# the stepping loop, its energy ledger and the run result
# ---------------------------------------------------------------------------

@dataclass
class StateRecord:
    index: int
    t: float
    u: np.ndarray
    faces: list         # face arrays, grad u
    eta: tuple          # face arrays, gamma_lam(grad u)
    xi: np.ndarray | None


@dataclass
class Trajectory:
    """The result of one run, a single path or a batch of paths.

    ``ledgers`` maps each of ``LEDGER_COLUMNS`` to an array of shape
    ``(n_records, *batch)``, one row per record.  ``records`` holds the kept
    ``StateRecord``s: for ``integrate`` those whose index is a multiple of
    ``keep_every`` (every record by default, none for 0), for a batch all of
    them with ``keep_states`` and none without.  ``max_graph_residual`` is the
    largest Fenchel residual over every certified record, kept or not: every
    record of ``integrate`` and of a batch with ``keep_states``; it is None
    for a batch without.  ``energy_residual`` is a float for one path and an
    array per path for a batch.
    """

    config: SolverConfig
    ledgers: dict
    records: list
    terminal: np.ndarray              # (*nodes, *batch)
    max_graph_residual: float | None = None
    energy_residual: float | np.ndarray = 0.0

    @property
    def grid(self):
        return self.config.grid

    def states(self):
        return np.stack([r.u for r in self.records])


def _write_ledger_row(cfg, state, noise_field, ledgers, n):
    """Write record ``n``'s ledger scalars (per path) into the ``ledgers``
    columns; a pairing without its graph or noise stays zero."""
    g, u, eta, xi = cfg.grid, state.u, state.eta, state.xi
    with np.errstate(over="ignore", invalid="ignore"):   # _run refuses a non-finite row
        ledgers["norm_u_sq"][n] = gridmod.dot_h(g, u, u)
        if eta is not None:
            ledgers["pairing_eta_gradu"][n] = gridmod.flux_dot_h(g, eta, state.faces)
        if xi is not None:
            ledgers["pairing_xi_u"][n] = gridmod.dot_h(g, xi, u)
        if cfg.noise is not None:
            ledgers["hs_sq"][n] = noisemod.hs_norm(cfg.noise, g, u) ** 2
        if noise_field is not None:
            ledgers["stoch_pairing"][n] = gridmod.dot_h(g, u, noise_field)


def _run(cfg, u, increments, certify, keep_every):
    """The stepping loop behind ``integrate`` and ``integrate_batch``; returns
    the run's ``Trajectory``.

    ``u`` is a node array with or without a trailing path axis; the grid and
    noise operators broadcast over it, so the loop never looks at the batch
    shape.  Each record's ledger row is written in place into columns of
    shape ``(n_records, *batch)``, views of one store.  With ``certify`` every
    record's (resolvent point, Yosida value) pairs are certified by their
    Fenchel residual; a record whose index is a multiple of ``keep_every``
    (none for 0) is also kept, its arrays by reference.  A pair whose
    residual cannot be evaluated, or a non-finite ledger value, fails the run
    with a ``SolverError`` at its record's step.
    """
    if cfg.scheme == "semi_implicit":
        bound = cfg.stability_bound()
        if bound > 1.0:
            raise StabilityError(
                "semi-implicit stability violated: "
                f"dt*(lambda_max + 1)/lambda_yosida = {bound:.6g} > 1",
                step_index=1,
            )

    g, batch = cfg.grid, u.shape[cfg.grid.dim:]
    store = np.zeros((len(LEDGER_COLUMNS), cfg.n_steps + 1) + batch)
    ledgers = dict(zip(LEDGER_COLUMNS, store))
    no_flux = None   # eta of the kept records without a flux graph
    if cfg.gamma is None:
        no_flux = tuple(np.zeros(s + batch) for s in g.face_shapes())
    records, worst = [], 0.0

    def record(n, state, noise_field):
        # the certificate goes first, so a record it refuses gets no ledger row
        nonlocal worst
        if certify:
            graphs = ((cfg.gamma, state.j_buf, state.eta_buf), (cfg.beta, state.j_nodes, state.xi))
            for pot, j, y in graphs:
                if pot is not None:
                    try:
                        res = convex.fenchel_residual(pot, j, y)
                    except ValueError as err:
                        raise SolverError(f"graph certificate failed: {err}", n) from None
                    worst = max(worst, float(np.abs(res).max()))
        if keep_every and n % keep_every == 0:
            records.append(
                StateRecord(n, n * cfg.dt, state.u, state.faces, state.eta or no_flux, state.xi)
            )
        _write_ledger_row(cfg, state, noise_field, ledgers, n)
        if not np.isfinite(store[:, n]).all():
            bad = [name for name, col in ledgers.items() if not np.isfinite(col[n]).all()]
            raise SolverError(f"energy ledger is not finite: {', '.join(bad)}", n)

    state = _state(cfg, u)
    for n in range(cfg.n_steps):
        noise_field = None
        if cfg.noise is not None:
            noise_field = noisemod.apply_b(cfg.noise, g, state.u, increments[n])
        record(n, state, noise_field)
        forcing = state.u if noise_field is None else state.u + noise_field
        try:
            if cfg.scheme == "semi_implicit":
                state = _semi_implicit_step_arrays(cfg, state, forcing)
            else:
                state = _implicit_step_arrays(cfg, state, forcing)
        except SolverError as err:
            err.step_index = n + 1
            raise
    record(cfg.n_steps, state, None)
    traj = Trajectory(cfg, ledgers, records, state.u, worst if certify else None)
    residual = energy_residual(traj)
    traj.energy_residual = float(residual) if np.ndim(residual) == 0 else residual
    return traj


def _check_increments(cfg, increments):
    """The increment table a run uses: None without noise, else validated."""
    if cfg.noise is None:
        return None
    if increments is None:
        raise ValueError("the config carries noise but no increment table or PathSeed was given")
    increments = np.asarray(increments, dtype=float)
    if increments.shape[:2] != (cfg.n_steps, cfg.noise.mode_count):
        raise ValueError(
            f"increment table of shape {increments.shape} does not cover "
            f"{cfg.n_steps} steps of {cfg.noise.mode_count} modes"
        )
    return increments


def energy_residual(result):
    """Discrete energy-ledger residual of the squared-norm identity.

    Returns one residual per path of ``result``'s ledgers (a scalar for a
    single path).  Dissipation pairings enter at the implicit endpoints, the
    quadratic variation and the stochastic pairing at the explicit ones.
    For a single path this is noise of order sqrt(dt); averaged over paths
    it is O(dt).
    """
    led = result.ledgers
    dt = result.config.dt
    half = 0.5 * (led["norm_u_sq"][-1] - led["norm_u_sq"][0])
    diss = dt * (led["pairing_eta_gradu"][1:] + led["pairing_xi_u"][1:]).sum(axis=0)
    quad = 0.5 * dt * led["hs_sq"][:-1].sum(axis=0)
    mart = led["stoch_pairing"][:-1].sum(axis=0)
    return half + diss - quad - mart


# ---------------------------------------------------------------------------
# single paths and batches
# ---------------------------------------------------------------------------

def integrate(cfg, u0: GridField, seed=None, increments=None, keep_every=1) -> Trajectory:
    """Integrate one path, recording the ledger and certifying every record.

    The record (u, faces, eta, xi) is kept for the records whose index is a
    multiple of ``keep_every`` (every record by default, none for 0).
    Deterministic given (cfg, u0, seed); the noise increment table can also
    be passed explicitly for coupled-path studies.
    """
    if u0.grid != cfg.grid:
        raise ValueError("initial datum does not live on the solver grid")
    if not (isinstance(keep_every, (int, np.integer)) and keep_every >= 0):
        raise ValueError(f"keep_every must be an integer >= 0, got {keep_every!r}")
    if cfg.noise is not None and increments is None and seed is not None:
        increments = noisemod.sample_increments(
            seed, cfg.n_steps, cfg.dt, cfg.noise.mode_count
        )
    increments = _check_increments(cfg, increments)
    return _run(cfg, np.array(u0.values, dtype=float), increments, True, keep_every)


def integrate_batch(cfg, u0, increments, keep_states=False) -> Trajectory:
    """Integrate many paths at once; the result's arrays carry a trailing path axis.

    ``u0`` has shape (*nodes,) or (*nodes, P); ``increments`` has shape
    (n_steps, K, P) (or None for deterministic runs, in which case P comes
    from u0).  Paths evolve independently; the inner optimizer stops when
    every path satisfies the gradient tolerance, so each path's step is
    certified individually.  With ``keep_states`` every record is certified
    and kept; without, none is.
    """
    g = cfg.grid
    increments = _check_increments(cfg, increments)
    u0 = np.asarray(u0, dtype=float)
    if u0.shape[: g.dim] != g.shape or u0.ndim > g.dim + 1:
        raise ValueError(f"initial data of shape {u0.shape} do not fit grid {g.shape}")
    if increments is not None:
        n_paths = increments.shape[-1]
    else:
        n_paths = u0.shape[-1] if u0.ndim > g.dim else 1
    if u0.ndim == g.dim:
        u = np.repeat(u0[..., None], n_paths, axis=-1)
    elif u0.shape[-1] == n_paths:
        u = u0.copy()
    else:
        raise ValueError(f"{u0.shape[-1]} initial data for {n_paths} noise paths")
    return _run(cfg, u, increments, keep_states, int(keep_states))


def run_ensemble(cfg, u0, master_seed, n_paths, keep_states=False, fine_dt=None):
    """Monte Carlo ensemble with per-path counter-based seeds, integrated as
    one batch.

    When ``fine_dt`` is given, each path's increments are drawn at that
    resolution, which must divide dt, and summed onto dt, coupling ensembles
    across a dt-refinement ladder to the same Brownian paths.
    """
    if cfg.noise is None:
        raise ValueError("ensemble runs need a noise model")
    if n_paths < 1:
        raise ValueError(f"an ensemble needs at least one path, got n_paths={n_paths}")
    K = cfg.noise.mode_count
    increments = np.empty((cfg.n_steps, K, n_paths))
    for i in range(n_paths):
        tables, _ = noisemod.coupled_increment_tables(
            noisemod.PathSeed(master_seed, i),
            cfg.dt if fine_dt is None else fine_dt, (cfg.dt,), cfg.horizon, K,
        )
        increments[..., i] = tables[0]
    return integrate_batch(cfg, u0, increments, keep_states=keep_states)


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def initial_datum(grid, kind, mode=1, amplitude=1.0, path=None) -> GridField:
    """Catalog of deterministic initial data: zero, eigenmode, bump, file."""
    if kind == "zero":
        return GridField(grid, np.zeros(grid.shape))
    if kind == "eigenmode":
        k = mode if grid.dim == 1 else (mode, mode) if np.isscalar(mode) else tuple(mode)
        return GridField(grid, amplitude * gridmod.sine_mode(grid, k))
    if kind == "bump":
        def bump(*coords):
            out = np.ones_like(coords[0])
            for x, L in zip(coords, grid.extents):
                out = out * 4.0 * x * (L - x) / L**2
            return amplitude * out
        return gridmod.field_from_function(grid, bump)
    if kind == "file":
        return gridmod.read_field(path, grid)
    raise ValueError(f"unknown initial datum kind {kind!r}")
