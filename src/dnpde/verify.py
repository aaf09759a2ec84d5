"""Measurable diagnostics for the regularization limit program.

Every check here is a finite, discrete quantity with an explicit tolerance:
Cauchy distances along coupled noise paths as the regularization halves,
a-priori ledger bounds uniform in the regularization, uniform-integrability
tail profiles, Fenchel gaps, the Lipschitz dependence of the solution map on
the initial datum, and the distinguished role of the combination
``-div(eta) + xi`` (unique in the limit) versus its factors (not unique).

``sweep`` is the one routine that runs a family of configs along one coupled
noise path; ``dnpde sweep`` and criteria 6, 7 and 9 all call it.  Every time
integral is bit for bit a walk over the run's records in order, and a missing
graph (``eta`` or ``xi`` None) adds nothing to it.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from dnpde import convex
from dnpde import grid as gridmod
from dnpde import noise as noisemod
from dnpde import solver as solvermod
from dnpde.grid import GridField

__all__ = [
    "Assertion",
    "SweepEntry",
    "sweep",
    "lipschitz_test",
    "apriori_report",
    "phi_integral",
    "observed_order",
    "record_integrals",
    "write_report_csv",
    "DEFAULT_TAIL_LEVELS",
    "SWEEP_COLUMNS",
]

DEFAULT_TAIL_LEVELS = tuple(float(2**j) for j in range(11))   # 1, 2, ..., 1024

BOUND_NAMES = ("sup_u_sq", "visc_grad_sq", "int_eta_gradu", "int_xi_u")

APRIORI_SLOPE_THRESHOLD = -0.05   # least slope of a bound against ln(lambda), in its own units


_RELATIONS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge}


@dataclass(frozen=True)
class Assertion:
    """One verify row: ``measured relation threshold``, and ``measured >= low``
    when ``low`` is set; the pass rule lives here alone, and NaN fails it."""

    name: str
    measured: float
    relation: str        # "<=", "<" or ">="
    threshold: float
    low: float | None = None   # a range [low, threshold] takes "<="

    def __post_init__(self):
        if self.relation not in _RELATIONS or not (self.low is None or self.relation == "<="):
            raise ValueError(f"relation {self.relation!r}: use <=, < or >=, and <= with a low end")

    @property
    def passed(self):
        above_low = self.low is None or self.measured >= self.low
        return bool(above_low and _RELATIONS[self.relation](self.measured, self.threshold))

    @property
    def status(self):
        return "PASS" if self.passed else "FAIL"

    @property
    def rule(self):
        """The relation as reported: ``<=``, ``<``, ``>=`` or ``in [low, threshold]``."""
        if self.low is None:
            return self.relation
        return f"in [{self.low:.6g}, {self.threshold:.6g}]"

    def line(self):
        return (
            f"{self.status} {self.name}: measured={self.measured:.6g} "
            f"threshold={self.threshold:.6g} ({self.rule})"
        )


def write_report_csv(path, header, rows, comments=()):
    """Shared CSV writer: '#' comment lines, one header row, 17 digits; an item
    of ``rows`` is a row of cells or a 2-d float array of rows, one format each."""
    with open(path, "w", newline="\n") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            if isinstance(row, np.ndarray):
                line = ",".join(["%.17g"] * row.shape[1]) + "\n"
                fh.write(line * len(row) % tuple(row.ravel().tolist()))
            else:
                fh.write(",".join(c if isinstance(c, str) else f"{c:.17g}" for c in row) + "\n")


def observed_order(values, spacings):
    """Least-squares slope of log2(values) against log2(spacings)."""
    v = np.asarray(values, dtype=float)
    s = np.asarray(spacings, dtype=float)
    mask = v > 0
    if mask.sum() < 2:
        return math.nan
    return float(np.polyfit(np.log2(s[mask]), np.log2(v[mask]), 1)[0])


# ---------------------------------------------------------------------------
# trajectory functionals
# ---------------------------------------------------------------------------

def _steps(traj):
    """Records ``1..N`` of a run that kept every record."""
    if len(traj.records) != traj.config.n_steps + 1:
        raise ValueError("the run's integrals need every record kept (keep_every=1)")
    return traj.records[1:]


def record_integrals(traj):
    """The run's time integrals, right-endpoint sums over its records.

    Returns ``(bounds, gap_gamma, gap_beta, tails_eta, tails_xi)``: ``bounds``
    maps ``BOUND_NAMES`` to the four a-priori ledger quantities; each graph's
    Fenchel gap is integrated over space and time (None without the graph);
    the tails are tau(M) = integral of |.| over {|.| > M} for eta (faces) and
    xi (nodes), M over ``DEFAULT_TAIL_LEVELS``.  Each field is stacked once on
    a leading record axis; each record is reduced alone and the records are
    added in order, so every sum keeps the bits of a walk record by record.
    A record's tail sums stop at the first level at or above its largest
    value, where every later sum is empty.  The run must keep every record.
    """
    cfg, led = traj.config, traj.ledgers
    g, dt = cfg.grid, cfg.dt
    w = dt * g.node_volume
    recs = _steps(traj)
    u = np.array([rec.u for rec in recs])
    faces = [np.array(c) for c in zip(*(rec.faces for rec in recs))]
    eta = [] if recs[0].eta is None else [np.array(c) for c in zip(*(rec.eta for rec in recs))]
    xi = None if recs[0].xi is None else np.array([rec.xi for rec in recs])

    def rows(a):   # one record per row
        return a.reshape(len(a), -1)

    def in_order(values):   # left to right from +0.0, as a loop of += adds them
        return functools.reduce(operator.add, values.ravel().tolist(), 0.0)

    grad_sq = in_order(dt * gridmod.flux_dot_h(g, faces, faces, 1))
    gap_gamma = gap_beta = None
    if cfg.gamma is not None:   # record-major: each record's face axes in turn
        gap_gamma = in_order(w * np.stack([
            rows(convex.fenchel_residual(cfg.gamma, ga, ea)).sum(axis=1) for ga, ea in zip(faces, eta)
        ], axis=1))
    if cfg.beta is not None:
        gap_beta = in_order(w * rows(convex.fenchel_residual(cfg.beta, u, xi)).sum(axis=1))
    tails_eta = np.zeros(len(DEFAULT_TAIL_LEVELS))
    tails_xi = np.zeros(len(DEFAULT_TAIL_LEVELS))
    for tails, stacks in ((tails_eta, eta), (tails_xi, () if xi is None else (xi,))):
        mags = [rows(np.abs(a)) for a in stacks]
        for r, tops in enumerate(zip(*(m.max(axis=1).tolist() for m in mags))):
            for a, top in zip((m[r] for m in mags), tops):
                for i, M in enumerate(DEFAULT_TAIL_LEVELS):
                    if top <= M:   # this sum and every later one are empty
                        break
                    tails[i] += w * float(a[a > M].sum())
    bounds = {
        "sup_u_sq": float(led["norm_u_sq"].max()),
        "visc_grad_sq": cfg.visc * grad_sq,
        "int_eta_gradu": dt * float(sum(led["pairing_eta_gradu"][1:])),
        "int_xi_u": dt * float(sum(led["pairing_xi_u"][1:])),
    }
    return bounds, gap_gamma, gap_beta, tails_eta, tails_xi


# ---------------------------------------------------------------------------
# parameter sweeps along one noise path
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = (
    "cauchy_dist_prev",
    *BOUND_NAMES,
    "fenchel_gap_gamma",
    "fenchel_gap_beta",
    "tail_eta_1",
    "tail_eta_max",
    "tail_xi_1",
    "tail_xi_max",
    "energy_residual",
)


def _cauchy_distance(prev, cur):
    """sup-in-time state distance at shared times, NaN when not comparable."""
    grid = cur.config.grid
    if prev is None or prev.config.grid != grid:
        return math.nan
    dt_a, dt_b = prev.config.dt, cur.config.dt
    coarse = max(dt_a, dt_b)
    ra = round(coarse / dt_a)
    rb = round(coarse / dt_b)
    if abs(ra * dt_a - coarse) > 1e-9 * coarse or abs(rb * dt_b - coarse) > 1e-9 * coarse:
        return math.nan
    sa = prev.states()[::ra]
    sb = cur.states()[::rb]
    n = min(len(sa), len(sb))
    return float(_record_distances(grid, sa[:n], sb[:n]).max())


def _record_distances(grid, sa, sb):
    """h-distance of each record of two state stacks ``(n, *nodes, *batch)``."""
    d = sa - sb
    return np.sqrt(gridmod.dot_h(grid, d, d, 1))


@dataclass
class SweepEntry:
    """One run of a sweep and its Cauchy distance to the run before it (NaN
    for the first); a reader that needs the run's integrals walks them."""

    trajectory: solvermod.Trajectory
    cauchy_prev: float

    def row(self):
        """``SWEEP_COLUMNS`` from one ``record_integrals`` walk; a missing gap is NaN."""
        bounds, *gaps, tails_eta, tails_xi = record_integrals(self.trajectory)
        return [
            self.cauchy_prev,
            *(bounds[name] for name in BOUND_NAMES),
            *(math.nan if g is None else g for g in gaps),
            tails_eta[0],
            tails_eta[-1],
            tails_xi[0],
            tails_xi[-1],
            self.trajectory.energy_residual,
        ]


def sweep(runs, seed):
    """Integrate each ``(cfg, u0)`` in order along one coupled noise path.

    The path ``seed`` is drawn here, once, at the finest dt with the largest
    mode count, so a dt list that cannot share it raises ``ValueError`` before
    any run; each run gets it summed onto its dt and cut to its modes.
    Returns ``(checksum, entries)``: ``checksum`` is the SHA-256 of that draw
    (its finest level, before any cut), ``entries`` yields one ``SweepEntry``
    per run, and a failing run raises a ``SolverError`` that names it.  The
    first config decides whether the path is drawn: without its noise there
    is none (checksum ``''``), and a later noisy run raises ``ValueError``.
    """
    cfgs = [cfg for cfg, _ in runs]
    if cfgs[0].noise is None:
        tables, checksum = [None] * len(runs), ""
    else:
        dts = [cfg.dt for cfg in cfgs]
        fine = dts.index(min(dts))
        tables = noisemod.coupled_increment_tables(
            seed, dts[fine], dts, cfgs[0].horizon, max(c.noise.mode_count for c in cfgs)
        )
        checksum = noisemod.increment_checksum(tables[fine])
        tables = [t[:, : c.noise.mode_count] for c, t in zip(cfgs, tables)]
    return checksum, _sweep_entries(runs, tables)


def _sweep_entries(runs, tables):
    prev = None
    for i, ((cfg, u0), increments) in enumerate(zip(runs, tables)):
        try:
            traj = solvermod.integrate(cfg, u0, increments=increments)
        except solvermod.SolverError as err:
            raise solvermod.SolverError(
                f"sweep run {i} (lambda={cfg.lambda_yosida}, dt={cfg.dt}) failed: {err}",
                err.step_index,
            ) from err
        yield SweepEntry(traj, _cauchy_distance(prev, traj))
        prev = traj


# ---------------------------------------------------------------------------
# Lipschitz dependence on the initial datum
# ---------------------------------------------------------------------------

def lipschitz_test(cfg, u0_a: GridField, u0_b: GridField, n_paths, master_seed):
    """Couple both initial data to identical noise paths, drawn once, and compare.

    Reports ``R = sqrt(mean_path sup_t ||u_a - u_b||^2) / ||u0_a - u0_b||``
    against the Gronwall constant ``exp((1 + N_B^2) T)``; for additive noise
    the per-step contraction of the implicit scheme is asserted pathwise.
    Without noise both data run as one-path batches.  Returns the assertions,
    ``R`` the measured value of the first.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    d0 = float(gridmod.norm_h(cfg.grid, u0_a.values - u0_b.values))
    noise = cfg.noise
    nb = 0.0 if noise is None else noise.bound or noisemod.default_bound(noise, cfg.grid)
    c_lip = math.exp((1.0 + nb**2) * cfg.horizon)

    increments = None if noise is None else solvermod._ensemble_table(cfg, master_seed, n_paths)
    runs = [solvermod.integrate_batch(cfg, u0.values, increments, 1) for u0 in (u0_a, u0_b)]
    dist = _record_distances(cfg.grid, *(r.states() for r in runs))   # (N+1, P)
    sup_d = dist.max(axis=0)
    # equal initial data: coupled trajectories are identical bitwise, R = 0
    if d0 == 0.0:
        ratio = 0.0 if float(sup_d.max()) == 0.0 else math.inf
    else:
        ratio = float(np.sqrt(np.mean(sup_d**2)) / d0)

    assertions = [Assertion("lipschitz_ratio", ratio, "<=", c_lip)]
    if noise is None or noise.is_additive():
        steps = np.arange(dist.shape[0])[:, None]
        allowed = d0 + 10.0 * cfg.eps_inner * steps
        worst = float((dist - allowed).max())
        assertions.append(Assertion("pathwise_contraction_excess", worst, "<=", 0.0))
    return assertions


# ---------------------------------------------------------------------------
# Phi = -div(eta) + xi
# ---------------------------------------------------------------------------

def phi_integral(traj):
    """Time integral of ``-div(eta) + xi`` over the horizon, a node array,
    from a run that kept every record; a missing graph adds nothing."""
    cfg = traj.config
    acc = np.zeros(cfg.grid.shape)
    for rec in _steps(traj):
        term = 0.0 if rec.eta is None else -gridmod.div_arrays(cfg.grid, rec.eta)
        if rec.xi is not None:
            term = term + rec.xi
        acc = acc + cfg.dt * term
    return acc


# ---------------------------------------------------------------------------
# a-priori bound table
# ---------------------------------------------------------------------------

def apriori_report(rows):
    """Assertions on the four a-priori quantities of ``(lambda, bounds)`` rows,
    ``bounds`` as ``record_integrals`` returns them.

    Finiteness is asserted always; across a lambda-indexed family the
    least-squares slope of each quantity (absolute, in its own units) against
    ln(lambda) must not be materially negative (no growth as the
    regularization vanishes).
    """
    if not rows:
        raise ValueError("need at least one (lambda, bounds) row")
    assertions = []
    # np.max keeps a NaN (Python's max may drop one), and a max over
    # sup_u_sq >= 0 is never -inf, so "< inf" is finiteness
    worst_finite = float(np.max([list(b.values()) for _, b in rows]))
    assertions.append(Assertion("bounds_finite", worst_finite, "<", math.inf))
    lams = np.array([lam for lam, _ in rows])
    if len(set(lams.tolist())) > 1:
        for name in BOUND_NAMES:
            vals = np.array([b[name] for _, b in rows])
            slope = float(np.polyfit(np.log(lams), vals, 1)[0])
            assertions.append(Assertion(f"slope_{name}", slope, ">=", APRIORI_SLOPE_THRESHOLD))
    return assertions
