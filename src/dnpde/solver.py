"""Implicit variational time stepping for the regularized evolution equation.

Each step of the implicit scheme minimizes

    F(v) = ||v - forcing||^2 / (2 dt) + (lam_visc/2) ||grad v||^2
           + sum_faces vol * k_lam(grad v) + sum_nodes vol * j_lam(v),

whose optimality condition is the backward Euler step of ``du - lam_visc *
lap(u) dt - div gamma_lam(grad u) dt + beta_lam(u) dt = 0`` applied to the
noise-augmented forcing (explicit Euler-Maruyama treatment of the noise).
``k_lam`` and ``j_lam`` are Moreau envelopes, so ``F`` is smooth and strongly
convex, and a step is taken only once ``||grad F||_h <= eps_inner`` on every
path.  On staggered grids every face carries one gradient component, and the
flux graph is applied facewise through its scalar profile; in 1d this is
exactly the (possibly multivalued) graph of the problem.  A cheaper
semi-implicit variant treats the monotone terms explicitly under a stability
restriction and shares the same limit as dt and the regularization vanish.

A state is evaluated once: its face gradients, the resolvent points and
Yosida values ``eta = gamma_lam(grad u)``, ``xi = beta_lam(u)`` of both
graphs and, on the implicit path, the step objective's terms that do not
depend on the forcing.  The graph certificate, the energy ledger, both steps
and the kept records read these arrays; a term the problem lacks (a graph,
the viscosity at ``lambda_visc = 0``) is never materialized.  Single paths
and batches of independent paths run through one stepping loop into one
result, ``Trajectory``.  Every record of a run is certified, and a run fails
at the step of its first failing record.
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
        if not 0.0 <= self.visc < np.inf:
            raise ValueError("lambda_visc must be >= 0 and finite")
        if not self.dt <= self.horizon < np.inf:
            raise ValueError("horizon must be finite and at least dt")
        if not 0.0 < self.eps_inner < np.inf:
            raise ValueError("eps_inner must be positive and finite")
        if not (isinstance(self.max_inner, (int, np.integer)) and self.max_inner >= 1):
            raise ValueError(f"max_inner must be an integer >= 1, got {self.max_inner!r}")
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
        """Semi-implicit restriction: dt*(lambda_max/lam + 1/lam) <= 1, where
        lambda_max, the top sine mode on every axis, is the largest eigenvalue
        of ``-lap``."""
        lmax = gridmod.sine_eigenvalue(self.grid, self.grid.nodes)
        return self.dt * (lmax / self.lambda_yosida + 1.0 / self.lambda_yosida)


def _plus(a, b):
    """``a + b`` of two terms, either of which may be absent (None)."""
    return b if a is None else a if b is None else a + b


def _yosida_parts(pot, lam, a, j):
    """Moreau envelope and Newton curvature of the Yosida map at ``a``, whose
    resolvent point is ``j``; (None, None) without a potential.

    The curvature is ``G' = g'(J) / (1 + lam g'(J))``, ``1/lam`` where the
    graph is vertical, and one number, with no node or path axis, where
    ``g'`` is one (a linear graph).  As ``g' >= 0`` the division cannot be by
    zero; the caller ignores the overflow and invalid values it can make.
    """
    if pot is None:
        return None, None
    r = a - j
    gp = pot.slope_derivative(j)
    dG = np.where(np.isinf(gp), 1.0 / lam, gp / (1.0 + lam * gp))
    return pot.value(j) + r * r / (2.0 * lam), dG


def _secant(dG, a, G):
    """Kacanov's secant curvature ``max(G', G(a)/a)`` of ``G`` at ``a``: where
    the graph grows at most linearly (abs, Huber, power p < 2) its quadratic
    model majorizes the envelope, so its steps cannot overshoot."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return np.maximum(dG, np.where(a != 0.0, G / a, dG))


# The six arrays a record certifies: the node values ``u``, the face buffer of
# every axis of their gradient and, per graph (None without it), the resolvent
# points and Yosida values on the faces (``j_buf``, ``eta_buf``) and at the nodes
# (``j_nodes``, ``xi``); then the state-only ``terms`` (None semi-implicitly).
_State = namedtuple("_State", "u face_buf j_buf eta_buf j_nodes xi terms")

# The terms of the step objective that depend on the state alone: the face sum
# of the viscous and flux envelopes, the divergence of the flux, the envelope
# of beta at the nodes, and the Newton curvature of each graph, on the face
# buffer (viscosity not included) and at the nodes; None, not zeros, where the
# problem lacks the term (no viscosity, no graph).
_Terms = namedtuple("_Terms", "face_sum div node_env face_curv node_curv")


def _state(cfg, u):
    # overflow here is reported by what reads the state: certificate, inner solve, ledger
    g, lam = cfg.grid, cfg.lambda_yosida
    j_buf = eta_buf = j_nodes = xi = terms = None
    with np.errstate(over="ignore", invalid="ignore"):
        face_buf, _ = gridmod.grad_buffer(g, u)
        if cfg.gamma is not None:
            j_buf = cfg.gamma.closed_resolvent(lam, face_buf)
            eta_buf = cfg.gamma.yosida_from_resolvent(lam, face_buf, j_buf)
        if cfg.beta is not None:
            j_nodes = cfg.beta.closed_resolvent(lam, u)
            xi = cfg.beta.yosida_from_resolvent(lam, u, j_nodes)
        if cfg.scheme == "implicit_opt":
            visc = cfg.visc or None   # no viscous term at lambda_visc = 0
            env, face_curv = _yosida_parts(cfg.gamma, lam, face_buf, j_buf)
            flux = _plus(visc and visc * face_buf, eta_buf)
            face_env = _plus(visc and 0.5 * visc * face_buf * face_buf, env)
            face_sum = div = None
            if flux is not None:
                face_sum = sum(gridmod._grid_sum(g, e) for e in gridmod.face_views(g, face_env))
                div = gridmod.div_arrays(g, gridmod.face_views(g, flux))
            node_env, node_curv = _yosida_parts(cfg.beta, lam, u, j_nodes)
            terms = _Terms(face_sum, div, node_env, face_curv, node_curv)
    return _State(u, face_buf, j_buf, eta_buf, j_nodes, xi, terms)


# The step objective at one state: value and gradient norm per path, and the
# h-weighted gradient.
_Eval = namedtuple("_Eval", "value grad grad_norm")


def _evaluate(cfg, state, forcing):
    """The step objective at ``state``: its cached state-only terms plus the
    terms of ``forcing``."""
    g, s = cfg.grid, state.terms
    r = state.u - forcing
    out = _plus(r / cfg.dt if s.div is None else r / cfg.dt - s.div, state.xi)
    value = gridmod._grid_sum(g, _plus(r * r / (2.0 * cfg.dt), s.node_env))
    value = g.node_volume * _plus(value, s.face_sum)
    return _Eval(value, out, gridmod.norm_h(g, out))


def _thomas(diag, off, rhs):
    """Thomas sweep down the node axis for a diagonally dominant symmetric
    tridiagonal system; each trailing path gets the same scalar operations.

    ``(n,)`` coefficient lines run on Python floats, which round as float64
    scalars do at a fraction of numpy's per-operation cost; coefficients with
    path axes run on their ``(P,)`` rows.  A batch's right-hand side runs on
    its rows, so lines shared by every path are factored once for the batch."""
    d, o, y = ((a.tolist() if a.ndim == 1 else list(a)) for a in (diag, off, rhs))
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


def _newton_direction(cfg, state, ev, mu):
    """Solve ``H d = -grad F`` at ``state`` by a Thomas sweep (1-d) or
    Jacobi-scaled CG (2-d).

    ``H`` takes each curvature as ``newton + mu * (secant - newton)``; while
    no path has ``mu > 0`` it takes the Newton curvatures as they are, and
    without its graph a secant curvature is its Newton one (without beta
    ``H`` has no node term, without gamma its faces carry the viscosity).
    A face curvature that is one number (a linear gamma's, or the viscosity
    alone) gives one coupling per axis, built once with no path axis: the
    1-d sweep takes ``(n,)`` lines, and 2-d CG broadcasts the number.  The
    viscosity is added even at ``lambda_visc = 0``: every curvature is
    ``>= 0``, so ``0.0 + c`` has the bits of ``c``.
    """
    g, s = cfg.grid, state.terms
    face, node = _plus(cfg.visc, s.face_curv), s.node_curv
    if mu.any():
        if s.face_curv is not None:
            sec = _plus(cfg.visc, _secant(s.face_curv, state.face_buf, state.eta_buf))
            face = face + mu * (sec - face)
        if node is not None:
            node = node + mu * (_secant(node, state.u, state.xi) - node)
    coef = gridmod.face_views(g, face) if np.ndim(face) else [face] * g.dim
    diag = _plus(1.0 / cfg.dt, node)
    for ax, (c, h) in enumerate(zip(coef, g.spacing)):
        pre = (slice(None),) * ax
        sides = c + c if np.ndim(c) == 0 else c[pre + (slice(1, None),)] + c[pre + (slice(None, -1),)]
        diag = diag + sides / h**2
    if g.dim == 1:
        n, h2 = g.nodes[0], g.spacing[0] ** 2
        off = -coef[0][1:-1] / h2 if np.ndim(face) else np.full(n - 1, -face / h2)
        return _thomas(np.full(n, diag) if np.ndim(diag) == 0 else diag, off, -ev.grad)

    def hess(d):
        flux = [c * fd for c, fd in zip(coef, gridmod.grad_arrays(g, d))]
        out = d / cfg.dt - gridmod.div_arrays(g, flux)
        return out if node is None else out + node * d

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
        if not todo.any():
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
    if not (np.isfinite(ev.value).all() and np.isfinite(ev.grad_norm).all()):
        raise _inner_failure(cfg, ev.grad_norm, "hit a non-finite iterate at iteration 0", 0)
    mu = np.zeros_like(ev.grad_norm)
    it = 0
    while (active := ev.grad_norm > cfg.eps_inner).any():
        if it == cfg.max_inner:
            raise _inner_failure(cfg, ev.grad_norm, f"exceeded {it} iterations", it)
        it += 1
        d = np.where(active, _newton_direction(cfg, state, ev, mu), 0.0)
        state, ev, t = _line_search(cfg, state, forcing, ev, d, active, it)
        mu = np.where(t == 1.0, mu / MU_STEP, np.minimum(np.maximum(mu * MU_STEP, MU_MIN), 1.0))
    return state


def _semi_implicit_step_arrays(cfg, state, forcing):
    """The next state after one semi-implicit step; the caller has checked stability."""
    g, rhs = cfg.grid, forcing
    if state.eta_buf is not None:
        rhs = rhs + cfg.dt * gridmod.div_arrays(g, gridmod.face_views(g, state.eta_buf))
    if state.xi is not None:
        rhs = rhs - cfg.dt * state.xi
    return _state(cfg, gridmod.resolvent_arrays(g, cfg.dt * cfg.visc, 1, rhs))


# ---------------------------------------------------------------------------
# the stepping loop, its energy ledger and the run result
# ---------------------------------------------------------------------------

@dataclass
class StateRecord:
    index: int                  # step number; the record's time is index * dt
    u: np.ndarray
    faces: list                 # face arrays, grad u
    eta: list | None            # face arrays, gamma_lam(grad u); None without gamma
    xi: np.ndarray | None       # beta_lam(u); None without beta


@dataclass
class Trajectory:
    """The result of one run, a single path or a batch of paths.

    ``ledgers`` maps each of ``LEDGER_COLUMNS`` to an array of shape
    ``(n_records, *batch)``, one row per record.  ``records`` holds the kept
    ``StateRecord``s, those whose index is a multiple of ``keep_every`` (none
    for 0).  ``max_graph_residual`` is the largest Fenchel residual over
    every record, kept or not.  ``energy_residual``, the discrete residual of
    the squared-norm identity, is a float for one path and an array per path
    for a batch.
    """

    config: SolverConfig
    ledgers: dict
    records: list
    terminal: np.ndarray              # (*nodes, *batch)
    max_graph_residual: float
    energy_residual: float | np.ndarray

    def states(self):
        if not self.records:
            raise ValueError("the run kept no records (keep_every=0, or an on_keep consumer took them)")
        return np.stack([r.u for r in self.records])


RECORD_BLOCK_BYTES = 2**18   # bytes of record arrays certified and ledgered in one block


def _certify(cfg, n0, queue, store):
    """Certify the queued records ``n0, n0 + 1, ...``, each its ``(u, face_buf,
    j_buf, eta_buf, j_nodes, xi, noise)`` (None where absent; the final record
    has no noise), as one block, bit for bit as one record at a time, and
    write their ledger rows into ``store``, whose HS column an additive gain
    has filled for the run; each other HS norm is squared per record (a
    scalar's square rounds unlike an array's).
    Returns the block's largest residual.  A residual that cannot be evaluated
    or a non-finite row raises at step ``n0``; a refused block is certified
    again record by record, so the first failing record is the one reported."""
    u, face_buf, j_buf, eta_buf, j_nodes, xi, noise = (   # np.array stacks faster than np.stack
        None if not c else np.array(c) if len(c) > 1 else c[0][None]   # one record is a view
        for c in ([a for a in col if a is not None] for col in zip(*queue))
    )
    g, rows, led = cfg.grid, slice(n0, n0 + len(u)), dict(zip(LEDGER_COLUMNS, store))
    found = [0.0]
    try:
        # the certificate goes first, so a record it refuses gets no ledger row
        for pot, j, y in ((cfg.gamma, j_buf, eta_buf), (cfg.beta, j_nodes, xi)):
            if pot is not None:
                try:
                    res = convex.fenchel_residual(pot, j, y)
                except ValueError as err:
                    raise SolverError(f"graph certificate failed: {err}", n0) from None
                found += np.abs(res).max(axis=tuple(range(1, res.ndim))).tolist()
        with np.errstate(over="ignore", invalid="ignore"):   # a non-finite row is refused below
            led["norm_u_sq"][rows] = gridmod.dot_h(g, u, u, 1)
            if eta_buf is not None:
                eta, faces = (gridmod.face_views(g, buf, 1) for buf in (eta_buf, face_buf))
                led["pairing_eta_gradu"][rows] = gridmod.flux_dot_h(g, eta, faces, 1)
            if xi is not None:
                led["pairing_xi_u"][rows] = gridmod.dot_h(g, xi, u, 1)
            if cfg.noise is not None and not cfg.noise.is_additive():
                led["hs_sq"][rows] = [h**2 for h in noisemod.hs_norm(cfg.noise, g, u, 1)]
            if noise is not None:
                led["stoch_pairing"][rows][:len(noise)] = gridmod.dot_h(g, u[:len(noise)], noise, 1)
        if not np.isfinite(store[:, rows]).all():
            bad = [name for name, col in led.items() if not np.isfinite(col[rows]).all()]
            raise SolverError(f"energy ledger is not finite: {', '.join(bad)}", n0)
    except SolverError:
        if len(queue) == 1:
            raise
        return max(_certify(cfg, n0 + i, [record], store) for i, record in enumerate(queue))
    return max(found)


def _energy_residual(dt, led):
    """Discrete energy-ledger residual of the squared-norm identity.

    Returns one residual per path of the ledgers ``led`` (a scalar for a
    single path).  Dissipation pairings enter at the implicit endpoints, the
    quadratic variation and the stochastic pairing at the explicit ones.
    For a single path this is noise of order sqrt(dt); averaged over paths
    it is O(dt).
    """
    half = 0.5 * (led["norm_u_sq"][-1] - led["norm_u_sq"][0])
    diss = dt * (led["pairing_eta_gradu"][1:] + led["pairing_xi_u"][1:]).sum(axis=0)
    quad = 0.5 * dt * led["hs_sq"][:-1].sum(axis=0)
    mart = led["stoch_pairing"][:-1].sum(axis=0)
    res = half + diss - quad - mart
    return float(res) if np.ndim(res) == 0 else res


def _run(cfg, u, increments, keep_every, on_keep=None):
    """The stepping loop behind ``integrate`` and ``integrate_batch``; returns
    the run's ``Trajectory``.

    ``u`` is a node array with or without a trailing path axis; the grid and
    noise operators broadcast over it, so the loop never looks at the batch
    shape.  Records are queued by reference, and ``_certify`` takes the queue
    as one block at ``k`` records, at the last record and before a step's
    exception propagates, into ledger columns of shape ``(n_records, *batch)``.
    A record whose index is a multiple of ``keep_every`` (none for 0) is
    handed over once its block is certified, as a ``StateRecord`` of its
    queued arrays: to the result's records, or to ``on_keep`` and dropped.
    ``increments`` is None without noise, a validated table whose rows the
    steps take in turn, or a ``PathSeed`` whose rows are drawn ``k`` at a
    time as the run reaches them.
    """
    if isinstance(keep_every, bool) or not isinstance(keep_every, (int, np.integer)) or keep_every < 0:
        raise ValueError(f"keep_every must be an integer >= 0, got {keep_every!r}")
    if cfg.scheme == "semi_implicit":
        bound = cfg.stability_bound()
        if bound > 1.0:
            raise StabilityError(
                "semi-implicit stability violated: "
                f"dt*(lambda_max + 1)/lambda_yosida = {bound:.6g} > 1",
                step_index=1,
            )

    g, batch, last = cfg.grid, u.shape[cfg.grid.dim:], cfg.n_steps
    store = np.zeros((len(LEDGER_COLUMNS), last + 1) + batch)
    ledgers = dict(zip(LEDGER_COLUMNS, store))
    if cfg.noise is not None and cfg.noise.is_additive():
        ledgers["hs_sq"][:] = noisemod.hs_norm(cfg.noise, g, u) ** 2   # one value for every record
    records, worst, queue = [], 0.0, []   # queue: the records n + 1 - len(queue) .. n
    keep = records.append if on_keep is None else on_keep
    state = _state(cfg, u)
    size = sum(a.nbytes for a in (*state[:6], None if cfg.noise is None else u) if a is not None)
    k = max(1, RECORD_BLOCK_BYTES // size)   # records per block; a record's noise is shaped as u
    if isinstance(increments, noisemod.PathSeed):   # drawn a block of k rows at a time
        increments = noisemod.increment_rows(increments, last, cfg.dt, cfg.noise.mode_count, k)
    rows = iter(() if increments is None else increments)
    for n in range(last + 1):
        noise_field = None
        if cfg.noise is not None and n < last:
            noise_field = noisemod.apply_b(cfg.noise, g, state.u, next(rows))
        queue.append((*state[:6], noise_field))
        if n < last:
            forcing = state.u if noise_field is None else state.u + noise_field
            try:
                if cfg.scheme == "semi_implicit":
                    state = _semi_implicit_step_arrays(cfg, state, forcing)
                else:
                    state = _implicit_step_arrays(cfg, state, forcing)
            except Exception as err:
                _certify(cfg, n + 1 - len(queue), queue, store)   # a queued record fails first
                if isinstance(err, SolverError):
                    err.step_index = n + 1
                raise
        if len(queue) == k or n == last:
            n0 = n + 1 - len(queue)
            worst = max(worst, _certify(cfg, n0, queue, store))
            for i, (v, face_buf, _, eta_buf, _, xi, _) in enumerate(queue, n0):
                if keep_every and i % keep_every == 0:   # certified, so handed over
                    eta = None if eta_buf is None else gridmod.face_views(g, eta_buf)
                    keep(StateRecord(i, v, gridmod.face_views(g, face_buf), eta, xi))
            queue = []
    return Trajectory(cfg, ledgers, records, state.u, worst, _energy_residual(cfg.dt, ledgers))


def _check_increments(cfg, increments, batch):
    """The increment table a run uses: None without noise, else validated as
    finite and of shape ``(n_steps, K)``, or ``(n_steps, K, P)`` for a
    ``batch``; a non-finite table is refused at its first non-finite row."""
    if cfg.noise is None:
        return None
    if increments is None:
        raise ValueError("the config carries noise but no increment table or PathSeed was given")
    increments = np.asarray(increments, dtype=float)
    n, K = cfg.n_steps, cfg.noise.mode_count
    if increments.shape[:2] != (n, K) or increments.ndim != 2 + batch:
        want = f"({n}, {K}, P)" if batch else f"({n}, {K})"
        raise ValueError(f"increment table of shape {increments.shape} is not {want}")
    # max and min carry a NaN through and make no temporary table
    finite = increments.size == 0 or np.isfinite(increments.max()) and np.isfinite(increments.min())
    if not finite:
        row = np.flatnonzero(~np.isfinite(increments.reshape(n, -1)).all(axis=1))[0]
        raise ValueError(f"increment table is not finite at row {row}, the increments of step {row + 1}")
    return increments


# ---------------------------------------------------------------------------
# single paths and batches
# ---------------------------------------------------------------------------

def integrate(
    cfg, u0: GridField, seed=None, increments=None, keep_every=1, *, on_keep=None
) -> Trajectory:
    """Integrate one path, recording the ledger and certifying every record.

    The record (index, u, faces, eta, xi) is kept for the records whose
    index is a multiple of ``keep_every`` (every record by default, none for
    0), in the result's ``records``; given ``on_keep``, each is passed to it
    instead, in order, once its certification block passes, and ``records``
    stays empty, so the run holds its ledger and one block whatever its
    stride.  Deterministic given (cfg, u0, seed): the ``noise.PathSeed``
    ``seed`` is drawn a certification block at a time as the run reaches it,
    bit for bit its ``sample_increments`` table.  An increment table can be
    passed instead for coupled-path studies, and wins over ``seed``; without
    noise both are ignored.
    """
    if not isinstance(u0, GridField):
        raise TypeError(f"u0 must be a GridField, got {type(u0).__name__}; arrays go to integrate_batch")
    if seed is not None and not isinstance(seed, noisemod.PathSeed):
        raise TypeError(f"seed must be a noise.PathSeed, got {seed!r}")
    if u0.grid != cfg.grid:
        raise ValueError("initial datum does not live on the solver grid")
    if cfg.noise is not None and increments is None and seed is not None:
        increments = seed   # drawn by _run as it steps
    else:
        increments = _check_increments(cfg, increments, False)
    return _run(cfg, np.array(u0.values, dtype=float), increments, keep_every, on_keep)


def integrate_batch(cfg, u0, increments, keep_every=0) -> Trajectory:
    """Integrate many paths at once; the result's arrays carry a trailing path axis.

    ``u0`` has shape (*nodes,) or (*nodes, P); ``increments`` has shape
    (n_steps, K, P) (or None for deterministic runs, in which case P comes
    from u0).  Paths evolve independently; the inner optimizer stops when
    every path satisfies the gradient tolerance, so each path's step is
    certified individually.  Records are kept as by ``integrate``, none by
    default.
    """
    g = cfg.grid
    increments = _check_increments(cfg, increments, True)
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
    return _run(cfg, u, increments, keep_every)


def run_ensemble(cfg, u0, master_seed, n_paths, keep_every=0, fine_dt=None):
    """Monte Carlo ensemble with per-path counter-based seeds, integrated as
    one batch; its increment table is one ``coupled_increment_tables`` draw.

    When ``fine_dt`` is given, each path's increments are drawn at that
    resolution, which must divide dt, and summed onto dt, coupling ensembles
    across a dt-refinement ladder to the same Brownian paths.
    """
    return integrate_batch(cfg, u0, _ensemble_table(cfg, master_seed, n_paths, fine_dt), keep_every)


def _ensemble_table(cfg, master_seed, n_paths, fine_dt=None):
    """Paths ``0..n_paths-1`` of ``master_seed`` as one ``(N, K, n_paths)`` table on dt."""
    if cfg.noise is None:
        raise ValueError("ensemble runs need a noise model")
    if not (isinstance(n_paths, (int, np.integer)) and n_paths >= 1):
        raise ValueError(f"n_paths must be an integer, at least one path, got {n_paths!r}")
    return noisemod.coupled_increment_tables(
        [noisemod.PathSeed(master_seed, i) for i in range(n_paths)],
        cfg.dt if fine_dt is None else fine_dt, (cfg.dt,), cfg.horizon, cfg.noise.mode_count,
    )[0]


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def initial_datum(grid, kind="zero", mode=1, amplitude=1.0, path=None) -> GridField:
    """Initial datum ``zero``, ``eigenmode`` (the h-orthonormal sine mode
    ``mode``, 1-based, one index or in 2-d a pair), ``bump`` (the product of
    ``4 x (L - x) / L**2`` over the axes), both times ``amplitude``, or
    ``file`` (the field at ``path``, on ``grid``).  A refused parameter's
    message leads with its name."""
    if not np.isfinite(amplitude):
        raise ValueError("amplitude must be finite")
    if kind == "zero":
        return GridField(grid, np.zeros(grid.shape))
    if kind == "file":
        if path is None:
            raise ValueError("path is required for kind 'file'")
        try:
            return gridmod.read_field(path, grid)
        except (ValueError, OSError) as err:
            raise ValueError(f"path {path}: {err}") from None
    if kind == "eigenmode":
        k = mode if grid.dim == 1 else (mode, mode) if np.isscalar(mode) else tuple(mode)
        shape = gridmod.sine_mode(grid, k)
    elif kind == "bump":
        coords = gridmod.node_coordinates(grid)
        shape = np.ones_like(coords[0])
        for x, L in zip(coords, grid.extents):
            shape = shape * 4.0 * x * (L - x) / L**2
    else:
        raise ValueError(f"kind {kind!r} is unknown")
    with np.errstate(over="ignore"):
        values = amplitude * shape
    if not np.isfinite(values).all():
        raise ValueError(f"amplitude {amplitude!r} overflows the {kind} datum")
    return GridField(grid, values)
