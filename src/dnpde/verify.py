"""Measurable diagnostics for the regularization limit program.

Every check here is a finite, discrete quantity with an explicit tolerance:
Cauchy distances along coupled noise paths as the regularization halves,
a-priori ledger bounds uniform in the regularization, uniform-integrability
tail profiles, Fenchel gaps, the Lipschitz dependence of the solution map on
the initial datum, and the distinguished role of the combination
``-div(eta) + xi`` (unique in the limit) versus its factors (not unique).

``sweep`` is the one routine that runs a family of configs along one coupled
noise path; ``dnpde sweep`` and criteria 6 and 7 both call it.
"""

from __future__ import annotations

import math
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
    "LipschitzReport",
    "AprioriReport",
    "sweep",
    "cauchy_distance",
    "lipschitz_test",
    "apriori_report",
    "build_phi",
    "observed_order",
    "trajectory_bounds",
    "fenchel_gap_integrals",
    "tail_profiles",
    "write_report_csv",
    "DEFAULT_TAIL_LEVELS",
    "SWEEP_COLUMNS",
]

DEFAULT_TAIL_LEVELS = tuple(float(2**j) for j in range(11))   # 1, 2, ..., 1024

BOUND_NAMES = ("sup_u_sq", "visc_grad_sq", "int_eta_gradu", "int_xi_u")

APRIORI_SLOPE_THRESHOLD = -0.05   # least relative slope of a bound against ln(lambda)


@dataclass
class Assertion:
    name: str
    measured: float
    threshold: float
    passed: bool
    provenance: str = "default"

    def line(self):
        tag = "PASS" if self.passed else "FAIL"
        return (
            f"{tag} {self.name}: measured={self.measured:.6g} "
            f"threshold={self.threshold:.6g} ({self.provenance})"
        )


def write_report_csv(path, header, rows, comments=()):
    """Shared CSV writer: '#' comment lines, one header row, 17 digits."""
    with open(path, "w", newline="\n") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [
                cell if isinstance(cell, str) else f"{cell:.17g}" for cell in row
            ]
            fh.write(",".join(cells) + "\n")


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

def trajectory_bounds(traj):
    """The four a-priori ledger quantities of one run (right-endpoint sums)."""
    cfg = traj.config
    dt = cfg.dt
    sup_u_sq = float(max(r.norm_u_sq for r in traj.records))
    grad_sq = 0.0
    for rec in traj.records[1:]:
        g = gridmod.grad_arrays(cfg.grid, rec.u)
        grad_sq += dt * float(gridmod.flux_dot_h(cfg.grid, g, g))
    return {
        "sup_u_sq": sup_u_sq,
        "visc_grad_sq": cfg.visc * grad_sq,
        "int_eta_gradu": dt * float(sum(r.pairing_eta_gradu for r in traj.records[1:])),
        "int_xi_u": dt * float(sum(r.pairing_xi_u for r in traj.records[1:])),
    }


def fenchel_gap_integrals(traj):
    """Time-space integrals of the Fenchel gaps for both graphs (or None)."""
    cfg = traj.config
    vol = cfg.grid.node_volume
    dt = cfg.dt
    gap_gamma = gap_beta = None
    if cfg.gamma is not None:
        total = 0.0
        for rec in traj.records[1:]:
            g = gridmod.grad_arrays(cfg.grid, rec.u)
            for ga, ea in zip(g, rec.eta):
                gap = convex.fenchel_residual(cfg.gamma, ga, ea)
                total += dt * vol * float(np.sum(gap))
        gap_gamma = total
    if cfg.beta is not None:
        total = 0.0
        for rec in traj.records[1:]:
            gap = convex.fenchel_residual(cfg.beta, rec.u, rec.xi)
            total += dt * vol * float(np.sum(gap))
        gap_beta = total
    return gap_gamma, gap_beta


def tail_profiles(traj):
    """tau(M) = integral of |.| over {|.| > M} for eta (faces) and xi (nodes).

    M runs over ``DEFAULT_TAIL_LEVELS``.
    """
    levels = DEFAULT_TAIL_LEVELS
    cfg = traj.config
    vol = cfg.grid.node_volume
    dt = cfg.dt
    tails_eta = np.zeros(len(levels))
    tails_xi = np.zeros(len(levels))
    for rec in traj.records[1:]:
        xi = () if rec.xi is None else (rec.xi,)
        for tails, arrays in ((tails_eta, rec.eta), (tails_xi, xi)):
            for arr in arrays:
                a = np.abs(arr)
                for i, M in enumerate(levels):
                    tails[i] += dt * vol * float(a[a > M].sum())
    return tails_eta, tails_xi


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


def cauchy_distance(prev, cur):
    """sup-in-time state distance at shared times, NaN when not comparable."""
    if prev is None or prev.grid != cur.grid:
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
    axes = tuple(range(1, 1 + cur.grid.dim))
    d = np.sqrt(cur.grid.node_volume * np.sum((sa[:n] - sb[:n]) ** 2, axis=axes))
    return float(d.max())


@dataclass
class SweepEntry:
    trajectory: solvermod.Trajectory
    cauchy_prev: float            # distance to the previous run (NaN for the first)
    bounds: dict
    fenchel_gap_gamma: float | None
    fenchel_gap_beta: float | None
    tails_eta: np.ndarray
    tails_xi: np.ndarray

    def row(self):
        """The values of ``SWEEP_COLUMNS``; a missing Fenchel gap is NaN."""
        gaps = (self.fenchel_gap_gamma, self.fenchel_gap_beta)
        return [
            self.cauchy_prev,
            *(self.bounds[name] for name in BOUND_NAMES),
            *(math.nan if g is None else g for g in gaps),
            self.tails_eta[0],
            self.tails_eta[-1],
            self.tails_xi[0],
            self.tails_xi[-1],
            self.trajectory.energy_residual,
        ]


def sweep(runs, seed):
    """Integrate each ``(cfg, u0)`` in order along one coupled noise path.

    The path ``seed`` is drawn here, once, at the finest dt with the largest
    mode count, so a dt list that cannot share it raises ``ValueError`` before
    any run; each run gets it summed onto its dt and cut to its modes.
    Returns ``(checksum, entries)``: ``entries`` yields one ``SweepEntry`` per
    run, and a failing run raises a ``SolverError`` that names it.
    """
    cfgs = [cfg for cfg, _ in runs]
    if cfgs[0].noise is None:
        tables, checksum = [None] * len(runs), ""
    else:
        dts = [cfg.dt for cfg in cfgs]
        tables, checksum = noisemod.coupled_increment_tables(
            seed, min(dts), dts, cfgs[0].horizon, max(c.noise.mode_count for c in cfgs)
        )
        tables = [t[:, : c.noise.mode_count] for c, t in zip(cfgs, tables)]
    return checksum, _sweep_entries(runs, tables, seed)


def _sweep_entries(runs, tables, seed):
    prev = None
    for i, ((cfg, u0), increments) in enumerate(zip(runs, tables)):
        try:
            traj = solvermod.integrate(cfg, u0, seed, increments)
        except solvermod.SolverError as err:
            raise solvermod.SolverError(
                f"sweep run {i} (lambda={cfg.lambda_yosida}, dt={cfg.dt}) failed: {err}",
                err.step_index,
            ) from err
        gap_g, gap_b = fenchel_gap_integrals(traj)
        tails_eta, tails_xi = tail_profiles(traj)
        yield SweepEntry(
            traj, cauchy_distance(prev, traj), trajectory_bounds(traj),
            gap_g, gap_b, tails_eta, tails_xi,
        )
        prev = traj


# ---------------------------------------------------------------------------
# Lipschitz dependence on the initial datum
# ---------------------------------------------------------------------------

@dataclass
class LipschitzReport:
    ratio: float
    pathwise_ok: bool | None      # additive-noise contraction check (None if n/a)
    assertions: list

    @property
    def all_passed(self):
        return all(a.passed for a in self.assertions)


def lipschitz_test(cfg, u0_a: GridField, u0_b: GridField, n_paths, master_seed):
    """Couple both initial data to identical noise paths and compare.

    Reports ``R = sqrt(mean_path sup_t ||u_a - u_b||^2) / ||u0_a - u0_b||``
    against the Gronwall constant ``exp((1 + N_B^2) T)``; for additive noise
    the per-step contraction of the implicit scheme is asserted pathwise.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    d0 = float(gridmod.norm_h(cfg.grid, u0_a.values - u0_b.values))
    nb = cfg.noise.bound if cfg.noise and cfg.noise.bound else (
        noisemod.default_bound(cfg.noise, cfg.grid) if cfg.noise else 0.0
    )
    c_lip = math.exp((1.0 + nb**2) * cfg.horizon)

    if cfg.noise is not None:
        res_a = solvermod.run_ensemble(cfg, u0_a.values, master_seed, n_paths, keep_states=True)
        res_b = solvermod.run_ensemble(cfg, u0_b.values, master_seed, n_paths, keep_states=True)
        diff = res_a.states - res_b.states
    else:
        ta = solvermod.integrate(cfg, u0_a)
        tb = solvermod.integrate(cfg, u0_b)
        diff = (ta.states() - tb.states())[..., None]
    axes = tuple(range(1, 1 + cfg.grid.dim))
    dist = np.sqrt(cfg.grid.node_volume * np.sum(diff * diff, axis=axes))  # (N+1, P)
    sup_d = dist.max(axis=0)
    # equal initial data: coupled trajectories are identical bitwise, R = 0
    if d0 == 0.0:
        ratio = 0.0 if float(sup_d.max()) == 0.0 else math.inf
    else:
        ratio = float(np.sqrt(np.mean(sup_d**2)) / d0)

    assertions = [
        Assertion("lipschitz_ratio", ratio, float(c_lip), ratio <= c_lip)
    ]
    pathwise_ok = None
    if cfg.noise is None or cfg.noise.is_additive():
        steps = np.arange(dist.shape[0])[:, None]
        allowed = d0 + 10.0 * cfg.eps_inner * steps
        worst = float((dist - allowed).max())
        pathwise_ok = worst <= 0.0
        assertions.append(
            Assertion("pathwise_contraction_excess", worst, 0.0, pathwise_ok)
        )
    return LipschitzReport(ratio, pathwise_ok, assertions)


# ---------------------------------------------------------------------------
# Phi = -div(eta) + xi
# ---------------------------------------------------------------------------

def _checkpoint_indices(cfg, checkpoints):
    idx = []
    for t in checkpoints:
        k = round(t / cfg.dt)
        if abs(k * cfg.dt - t) > 1e-9 * max(1.0, cfg.horizon) or not 0 <= k <= cfg.n_steps:
            raise ValueError(f"checkpoint {t} does not lie on the time grid")
        idx.append(k)
    return idx


def build_phi(traj, checkpoints):
    """Time integral of ``-div(eta) + xi`` at each checkpoint time (0 at t=0),
    as one ``(len(checkpoints), *nodes)`` array."""
    cfg = traj.config
    idx = _checkpoint_indices(cfg, checkpoints)
    want = set(idx)
    acc = np.zeros(cfg.grid.shape)
    snaps = {0: acc.copy()} if 0 in want else {}
    for rec in traj.records[1:]:
        term = -gridmod.div_arrays(cfg.grid, rec.eta)
        if rec.xi is not None:
            term = term + rec.xi
        acc = acc + cfg.dt * term
        if rec.index in want:
            snaps[rec.index] = acc.copy()
    return np.stack([snaps[k] for k in idx])


# ---------------------------------------------------------------------------
# a-priori bound table
# ---------------------------------------------------------------------------

@dataclass
class AprioriReport:
    ensemble: dict              # mean of each quantity
    assertions: list

    @property
    def all_passed(self):
        return all(a.passed for a in self.assertions)


def apriori_report(entries):
    """Tabulate the four a-priori quantities of each sweep entry.

    Finiteness is asserted always; across a lambda-indexed family the
    relative regression slope of each quantity against ln(lambda) must not be
    materially negative (no growth as the regularization vanishes).
    """
    if not entries:
        raise ValueError("need at least one sweep entry")
    rows = [(e.trajectory.config.lambda_yosida, e.bounds) for e in entries]
    ensemble = {
        name: float(np.mean([b[name] for _, b in rows])) for name in BOUND_NAMES
    }
    assertions = []
    worst_finite = max(max(b.values()) for _, b in rows)
    assertions.append(
        Assertion("bounds_finite", worst_finite, math.inf, math.isfinite(worst_finite))
    )
    lams = np.array([lam for lam, _ in rows])
    if len(set(lams.tolist())) > 1:
        for name in BOUND_NAMES:
            vals = np.array([b[name] for _, b in rows])
            slope = float(np.polyfit(np.log(lams), vals, 1)[0])
            assertions.append(
                Assertion(
                    f"slope_{name}", slope, APRIORI_SLOPE_THRESHOLD,
                    slope >= APRIORI_SLOPE_THRESHOLD,
                )
            )
    return AprioriReport(ensemble, assertions)
