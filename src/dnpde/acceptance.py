"""The acceptance-criterion suite.

Each criterion is a self-contained desk-scale experiment with pinned
tolerances, returning a list of assertions (measured value, relation,
threshold); ``run_criteria`` names each list by its ``CRITERIA`` entry.  The
same functions back the ``verify`` CLI command and the acceptance test
module.  Criteria 4-9 build their problems from one config text with
``config.build_problem`` overrides, the factory of ``dnpde run`` and ``sweep``.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from dnpde import config as configmod, convex, noise as noisemod, solver as solvermod
from dnpde import grid as gridmod, verify as verifymod
from dnpde.convex import AbsPotential, ExpCoshPotential, HuberPotential, PowerPotential
from dnpde.grid import DirichletGrid, GridField
from dnpde.noise import PathSeed
from dnpde.verify import Assertion

__all__ = ["CriterionResult", "CRITERIA", "resolve_selection", "run_criteria"]


@dataclass
class CriterionResult:
    cid: int
    name: str
    assertions: list

    @property
    def passed(self):
        return all(a.passed for a in self.assertions)

    def lines(self):
        return [f"[{self.cid}:{self.name}] {a.line()}" for a in self.assertions]


# ---------------------------------------------------------------------------
# 0. standing assumptions of the configured model
# ---------------------------------------------------------------------------

def criterion_model(workdir=None, rc=None):
    """Validate the configured potentials and the declared HS noise bound."""
    if rc is None:
        rc = configmod.parse_config(_REPRO_CONFIG)
    grid = configmod.build_grid(rc)
    assertions = []
    for role in ("gamma", "beta"):
        pot = configmod.build_potential(rc, role)
        if pot is None:
            continue
        checks = convex.validate_potential(pot)
        failures = sum(not passed for passed in checks.values())
        assertions.append(Assertion(f"{role}_potential_valid", float(failures), "<=", 0.0))
    model = configmod.build_noise(rc, grid)
    if model is not None:
        rng = np.random.default_rng(3)
        nb = model.bound
        worst_growth = -math.inf
        worst_lip = -math.inf
        weight = noisemod.hs_weight(model, grid)
        for _ in range(100):
            u = rng.standard_normal(grid.shape) * rng.uniform(0.0, 3.0)
            v = rng.standard_normal(grid.shape) * rng.uniform(0.0, 3.0)
            hs_u = float(noisemod.hs_norm(model, grid, u))
            worst_growth = max(
                worst_growth, hs_u - nb * (1.0 + float(gridmod.norm_h(grid, u)))
            )
            ds = model.gain(u) - model.gain(v)
            hs_diff = math.sqrt(float(gridmod.dot_h(grid, ds * ds, weight)))
            worst_lip = max(
                worst_lip, hs_diff - nb * float(gridmod.norm_h(grid, u - v))
            )
        tol = 1e-12
        assertions.append(Assertion("hs_linear_growth_excess", worst_growth, "<=", tol))
        assertions.append(Assertion("hs_lipschitz_excess", worst_lip, "<=", tol))
    if not assertions:
        assertions.append(Assertion("nothing_to_validate", 0.0, "<=", 0.0))
    return assertions


# ---------------------------------------------------------------------------
# 1. convex-calculus oracle equivalence
# ---------------------------------------------------------------------------

def _closed_vs_bisection(rng, pots):
    """Per graph, 1000 points ``x`` of [-10, 10] drawn from ``rng``; per lambda
    in (1, 0.1, 0.01), ``(pot, lam, x, j_closed, gap)``: the graph's own
    resolvent and its largest distance to the bisection resolvent."""
    for pot in pots:
        x = rng.uniform(-10.0, 10.0, 1000)
        for lam in (1.0, 0.1, 0.01):
            j_closed = convex.resolvent(pot, lam, x)
            j_bisect = convex.resolvent(pot, lam, x, force_bisect=True)
            yield pot, lam, x, j_closed, float(np.abs(j_closed - j_bisect).max())


def criterion_convex_oracle(workdir=None, rc=None):
    rng = np.random.default_rng(11)
    graphs = [
        PowerPotential(2.0),
        PowerPotential(1.5),
        PowerPotential(4.0),   # the cubic graph r -> r^3
        AbsPotential(),
    ]
    worst_res = 0.0
    worst_yos = 0.0
    for pot, lam, x, j_closed, gap in _closed_vs_bisection(rng, graphs):
        worst_res = max(worst_res, gap)
        g = convex.yosida(pot, lam, x)
        worst_yos = max(worst_yos, float(np.abs(x - (j_closed + lam * g)).max()))

    orders = []
    lam = 0.37
    for pot in (PowerPotential(4.0), ExpCoshPotential()):
        xs = rng.uniform(0.3, 3.0, 40) * rng.choice([-1.0, 1.0], 40)
        step = 1e-2
        exact = convex.yosida(pot, lam, xs)
        errs = []
        for s in (step, step / 2):
            fd = (
                convex.moreau_envelope(pot, lam, xs + s)
                - convex.moreau_envelope(pot, lam, xs - s)
            ) / (2 * s)
            errs.append(np.abs(fd - exact))
        above_floor = errs[0] > 1e-11
        if np.any(above_floor):
            orders.append(
                float(np.log2(errs[0][above_floor] / errs[1][above_floor]).min())
            )
        else:
            orders.append(2.0)   # both errors at the floor: exact to roundoff

    # the Newton and interpolation routes, on a generator of their own
    rng = np.random.default_rng(12)
    samples = np.linspace(-4.0, 4.0, 81)
    sampled_abs = convex.SampledSlopePotential.from_value_samples(samples, np.abs(samples))
    catalog = _closed_vs_bisection(rng, (ExpCoshPotential(), sampled_abs))
    worst_cat = max(0.0, *(gap for *_, gap in catalog))
    return [
        Assertion("resolvent_bisect_vs_closed", worst_res, "<=", 1e-10),
        Assertion("yosida_identity", worst_yos, "<=", 1e-10),
        Assertion("envelope_fd_order", min(orders), ">=", 1.9),
        Assertion("resolvent_bisect_vs_expcosh_sampled", worst_cat, "<=", 1e-10),
    ]


# ---------------------------------------------------------------------------
# 2. Fenchel-Young suite
# ---------------------------------------------------------------------------

def criterion_fenchel(workdir=None, rc=None):
    rng = np.random.default_rng(23)
    cases = [
        (PowerPotential(2.0), 5.0),
        (PowerPotential(4.0), 5.0),
        (PowerPotential(1.5), 5.0),
        (AbsPotential(), 0.999),          # dom P* = [-1, 1]
        (HuberPotential(1.0), 0.999),
        (ExpCoshPotential(), 5.0),
    ]
    min_residual = math.inf
    worst_pair = 0.0
    for pot, ybound in cases:
        x = rng.uniform(-5.0, 5.0, 400)
        y = rng.uniform(-ybound, ybound, 400)
        min_residual = min(min_residual, float(np.min(convex.fenchel_residual(pot, x, y))))
        for lam in (1.0, 0.1, 0.01):
            j = convex.resolvent(pot, lam, x)
            g = convex.yosida(pot, lam, x)
            worst_pair = max(
                worst_pair, float(np.max(np.abs(convex.fenchel_residual(pot, j, g))))
            )

    worst_increase = -math.inf
    lambdas = [2.0**-k for k in range(7)]   # 1 .. 1/64
    for pot, _ in cases:
        x = rng.uniform(-4.0, 4.0, 100)
        res = []
        for lam in lambdas:
            g = convex.yosida(pot, lam, x)
            res.append(np.asarray(convex.fenchel_residual(pot, x, g)))
        res = np.stack(res)
        worst_increase = max(worst_increase, float(np.diff(res, axis=0).max()))
    return [
        Assertion("fenchel_min_residual", min_residual, ">=", -1e-8),
        Assertion("residual_at_yosida_pair", worst_pair, "<=", 1e-8),
        Assertion("lambda_halving_monotone", worst_increase, "<=", 1e-12),
    ]


# ---------------------------------------------------------------------------
# 3. discrete duality
# ---------------------------------------------------------------------------

def criterion_duality(workdir=None, rc=None):
    rng = np.random.default_rng(31)
    worst_adj = 0.0
    worst_stencil = 0.0
    for grid in (DirichletGrid((1.0,), (128,)), DirichletGrid((1.0, 2.0), (32, 32))):
        for _ in range(100):
            u = rng.standard_normal(grid.shape)
            f = [rng.standard_normal(s) for s in grid.face_shapes()]
            lhs = gridmod.dot_h(grid, gridmod.div_arrays(grid, f), u)
            rhs = gridmod.flux_dot_h(grid, f, gridmod.grad_arrays(grid, u))
            scale = gridmod.flux_norm_h(grid, f) * gridmod.flux_norm_h(
                grid, gridmod.grad_arrays(grid, u)
            )
            worst_adj = max(worst_adj, abs(lhs + rhs) / max(scale, 1e-300))
        u = rng.standard_normal(grid.shape)
        lap = gridmod.lap_arrays(grid, u)
        stencil = np.zeros_like(u)
        for ax, h in enumerate(grid.spacing):
            p = np.pad(u, [(1, 1) if a == ax else (0, 0) for a in range(u.ndim)])
            up = [slice(None)] * u.ndim
            dn = [slice(None)] * u.ndim
            up[ax] = slice(2, None)
            dn[ax] = slice(None, -2)
            stencil = stencil + (p[tuple(up)] - 2 * u + p[tuple(dn)]) / h**2
        scale = np.abs(lap).max()
        worst_stencil = max(worst_stencil, float(np.abs(lap - stencil).max()) / scale)
    return [
        Assertion("summation_by_parts_rel", worst_adj, "<=", 1e-12),
        Assertion("div_grad_is_stencil_rel", worst_stencil, "<=", 1e-13),
    ]


# The trajectory criteria's problems: one config text, parsed once; each
# criterion builds from it with ``config.build_problem`` section overrides and
# varies lambda, dt, horizon and scheme with ``dataclasses.replace``.
_TRAJECTORY_CONFIG = """\
[grid]
dimension = 1
extent = 1.0
nodes = 32

[potentials]
gamma_kind = power
gamma_p = 4.0
beta_kind = abs

[noise]
mode_count = 2
amplitudes = 0.3,0.15
n_b = 0.4

[solver]
lambda_yosida = 0.25
dt = 0.015625
horizon = 0.5
u0_kind = eigenmode
u0_amplitude = 1.2
"""

_TRAJECTORY = configmod.parse_config(_TRAJECTORY_CONFIG)

_LINEAR = {"gamma_p": 2.0, "beta_kind": "none"}   # gamma = identity, no beta


# ---------------------------------------------------------------------------
# 4. exact linear SPDE moments
# ---------------------------------------------------------------------------

def criterion_ou_moment(workdir=None, rc=None):
    base, u0 = configmod.build_problem(
        _TRAJECTORY, potentials=_LINEAR, noise={"mode_count": 1, "amplitudes": (0.5,), "n_b": 0.5},
        solver={"lambda_visc": 0.0, "u0_amplitude": 1.0},
    )
    lam = 1.0
    alpha1 = gridmod.sine_eigenvalue(base.grid, 1)
    a = (0.0 + 1.0 / (1.0 + lam)) * alpha1
    exact = math.exp(-2 * a) * 1.0 + 0.5**2 * (1 - math.exp(-2 * a)) / (2 * a)
    assertions = []
    for dt in (1 / 64, 1 / 128):
        cfg = replace(base, lambda_yosida=lam, dt=dt, horizon=1.0)
        res = solvermod.run_ensemble(cfg, u0.values, master_seed=777, n_paths=200)
        term = res.ledgers["norm_u_sq"][-1]
        mean = float(term.mean())
        se = float(term.std(ddof=1) / math.sqrt(term.size))
        tol = max(3 * se, 5 * dt * exact)
        diff = abs(mean - exact)
        assertions.append(Assertion(f"ou_moment_dt_1over{round(1/dt)}", diff, "<=", tol))
    return assertions


# ---------------------------------------------------------------------------
# 5. energy identity
# ---------------------------------------------------------------------------

def criterion_energy(workdir=None, rc=None):
    # deterministic per-step inequality
    cfg, u0 = configmod.build_problem(_TRAJECTORY, solver={"lambda_visc": 0.05})
    cfg = replace(cfg, noise=None, lambda_yosida=0.1)
    led = solvermod.integrate(cfg, u0).ledgers
    norm_sq = led["norm_u_sq"]
    lhs = 0.5 * norm_sq[1:] + cfg.dt * (led["pairing_eta_gradu"][1:] + led["pairing_xi_u"][1:])
    rhs = 0.5 * norm_sq[:-1] + cfg.eps_inner * np.sqrt(norm_sq[1:])
    worst = float((lhs - rhs).max())
    assertions = [Assertion("per_step_energy_slack", worst, "<=", 0.0)]

    # stochastic path-mean residual: O(dt), fitted constant stable under halving
    base, u0 = configmod.build_problem(
        _TRAJECTORY, potentials={**_LINEAR, "gamma_scale": 5.0},
        noise={"mode_count": 1, "amplitudes": (1.0,), "n_b": 1.0},
        solver={"lambda_visc": 0.0, "u0_kind": "zero"},
    )
    c_default = 10.0
    fitted = []
    for dt in (1 / 64, 1 / 128):
        cfg = replace(base, lambda_yosida=0.2, dt=dt, horizon=1.0)
        res = solvermod.run_ensemble(
            cfg, u0.values, master_seed=5150, n_paths=200, fine_dt=1 / 128,
        )
        er = res.energy_residual
        mean = float(np.mean(er))
        se = float(np.std(er, ddof=1) / math.sqrt(er.size))
        bound = 3 * se + c_default * dt
        assertions.append(
            Assertion(f"mean_energy_residual_dt_1over{round(1/dt)}", abs(mean), "<=", bound)
        )
        fitted.append(max(0.0, abs(mean) - 3 * se) / dt)
    ratio = fitted[0] / fitted[1] if fitted[1] > 0 else math.inf
    assertions.append(Assertion("fitted_C_stability", ratio, "<=", 2.0, low=0.5))
    return assertions


# ---------------------------------------------------------------------------
# 6. a-priori ledger bounds uniform in the regularization
# ---------------------------------------------------------------------------

_LAMBDAS = tuple(2.0**-k for k in range(2, 8))   # 1/4 .. 1/128, swept by criteria 6 and 7


def _lambda_sweep(base, u0, seed):
    """Sweep entries of ``base`` at each lambda of ``_LAMBDAS`` along the one path ``seed``."""
    _, entries = verifymod.sweep(
        [(replace(base, lambda_yosida=lam), u0) for lam in _LAMBDAS], seed
    )
    return list(entries)


def criterion_apriori(workdir=None, rc=None):
    base, u0 = configmod.build_problem(
        _TRAJECTORY, noise={"amplitudes": (0.1, 0.05), "n_b": 0.2},
        solver={"lambda_visc": 0.01},
    )
    entries = _lambda_sweep(base, u0, PathSeed(4242, 0))
    walks = [verifymod.record_integrals(e.trajectory) for e in entries]   # one per run
    assertions = verifymod.apriori_report([(lam, w[0]) for lam, w in zip(_LAMBDAS, walks)])

    worst_tail_increase = -math.inf
    worst_tail_ratio = 0.0
    for *_, tails_eta, tails_xi in walks:
        for tails in (tails_eta, tails_xi):
            if tails.size > 1:
                worst_tail_increase = max(worst_tail_increase, float(np.diff(tails).max()))
            if tails[0] > 0:
                worst_tail_ratio = max(worst_tail_ratio, float(tails[-1] / tails[0]))
    assertions.append(Assertion("tails_nonincreasing", worst_tail_increase, "<=", 0.0))
    assertions.append(Assertion("tail_maxlevel_ratio", worst_tail_ratio, "<=", 0.01))
    return assertions


# ---------------------------------------------------------------------------
# 7. Cauchy in lambda along a coupled path
# ---------------------------------------------------------------------------

def criterion_cauchy(workdir=None, rc=None):
    assertions = []

    noise = {"amplitudes": (0.4, 0.2), "n_b": 0.5}
    base, u0 = configmod.build_problem(
        _TRAJECTORY, potentials=_LINEAR, noise=noise, solver={"u0_amplitude": 1.0}
    )
    cauchy = [e.cauchy_prev for e in _lambda_sweep(base, u0, PathSeed(42, 0))[1:]]
    inc = float(np.diff(cauchy).max())
    order = verifymod.observed_order(cauchy, _LAMBDAS[:-1])
    assertions.append(Assertion("quadratic_cauchy_decreasing", inc, "<", 0.0))
    assertions.append(Assertion("quadratic_cauchy_order", order, ">=", 0.9))

    base2, u02 = configmod.build_problem(_TRAJECTORY, noise=noise)
    base2 = replace(base2, horizon=0.25)
    cauchy2 = [e.cauchy_prev for e in _lambda_sweep(base2, u02, PathSeed(42, 0))[1:]]
    inc2 = float(np.diff(cauchy2).max())
    assertions.append(Assertion("power4_sign_cauchy_decreasing", inc2, "<", 0.0))
    return assertions


# ---------------------------------------------------------------------------
# 8. Lipschitz solution map
# ---------------------------------------------------------------------------

def criterion_lipschitz(workdir=None, rc=None):
    assertions = []

    cfg, u0_a = configmod.build_problem(_TRAJECTORY, solver={"u0_amplitude": 1.0})
    _, u0_b = configmod.build_problem(
        _TRAJECTORY, solver={"u0_kind": "bump", "u0_amplitude": 0.7}
    )
    additive = verifymod.lipschitz_test(cfg, u0_a, u0_b, n_paths=8, master_seed=31337)
    for a in additive:
        assertions.append(replace(a, name=f"additive_{a.name}"))

    amps = tuple(0.5 / k for k in range(1, 5))
    mult = {"mode_count": 4, "amplitudes": amps, "gain": "clipped", "n_b": 1.0}
    cfg_m, _ = configmod.build_problem(_TRAJECTORY, potentials=_LINEAR, noise=mult)
    cfg_m = replace(cfg_m, lambda_yosida=0.5)
    nb_valid = noisemod.default_bound(cfg_m.noise, cfg_m.grid)
    assertions.append(Assertion("declared_NB_valid", nb_valid, "<=", 1.0))
    # the Gronwall constant exp((1 + N_B^2) T) is e at N_B = 1, T = 1/2
    (ratio,) = verifymod.lipschitz_test(cfg_m, u0_a, u0_b, n_paths=200, master_seed=90125)
    assertions.append(replace(ratio, name="multiplicative_ratio_vs_e"))
    return assertions


# ---------------------------------------------------------------------------
# 9. uniqueness of the combination -div(eta) + xi
# ---------------------------------------------------------------------------

def criterion_phi_unique(workdir=None, rc=None):
    base, _ = configmod.build_problem(
        _TRAJECTORY, grid={"nodes": (16,)}, potentials={"gamma_kind": "abs", "beta_kind": "none"}
    )
    grid = base.grid
    xs = gridmod.node_coordinates(grid)[0]
    u0 = GridField(grid, 0.5 * np.clip(8 * xs * (1 - xs), 0.0, 1.0))   # a clipped bump
    lam0, dt0, n_steps = 0.25, 2e-4, 80
    runs = []
    for refine in (1, 2, 4):   # the implicit and the semi-implicit scheme per level, one path
        cfg = replace(base, lambda_yosida=lam0 / refine, dt=dt0 / refine, horizon=n_steps * dt0)
        runs += [(cfg, u0), (replace(cfg, scheme="semi_implicit"), u0)]
    trajs = [e.trajectory for e in verifymod.sweep(runs, PathSeed(909, 0))[1]]

    phi_d, eta_sup = [], []
    for traj_a, traj_b in zip(trajs[::2], trajs[1::2]):
        phi = verifymod.phi_integral(traj_a) - verifymod.phi_integral(traj_b)
        phi_d.append(float(gridmod.dual_norm_v0(grid, phi)))
        worst = 0.0
        for ra, rb in zip(traj_a.records, traj_b.records):
            for ea, eb in zip(ra.eta, rb.eta):
                worst = max(worst, float(np.abs(ea - eb).max()))
        eta_sup.append(worst)

    assertions = []
    for level in range(2):
        ratio = phi_d[level] / phi_d[level + 1]
        assertions.append(Assertion(f"phi_contraction_level_{level}", ratio, ">=", 1.5))
    separation = min(eta_sup) / (10.0 * phi_d[-1])
    assertions.append(Assertion("eta_vs_phi_separation", separation, ">=", 1.0))
    return assertions


# ---------------------------------------------------------------------------
# 10. byte-identical reproducibility of the CLI
# ---------------------------------------------------------------------------

_REPRO_CONFIG = """\
[grid]
dimension = 1
extent = 1.0
nodes = 16

[potentials]
gamma_kind = power
gamma_p = 2.0

[noise]
mode_count = 1
amplitudes = 0.5
gain = additive
master_seed = 20260809

[solver]
lambda_yosida = 0.5
dt = 0.03125
horizon = 0.25
u0_kind = eigenmode
u0_mode = 1
u0_amplitude = 1.0

[verify]
families = convex_oracle

[output]
prefix = repro
"""


# the 2-d run path: semi-implicit on 8x8 with the exp-cosh graph, a tanh gain
# and state dumps
_REPRO_2D_CONFIG = """\
[grid]
dimension = 2
extent = 1.0
nodes = 8

[potentials]
gamma_kind = power
gamma_p = 4.0
beta_kind = expcosh

[noise]
mode_count = 8
amp_c = 0.5
amp_q = 1.0
gain = tanh
master_seed = 20260809

[solver]
lambda_yosida = 0.5
dt = 0.000244140625
horizon = 0.0078125
scheme = semi_implicit
u0_kind = bump
u0_amplitude = 1.0

[output]
prefix = repro2d
dump_every = 8
"""


def _tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            p = os.path.join(dirpath, name)
            rel = os.path.relpath(p, root)
            with open(p, "rb") as fh:
                out[rel] = fh.read()
    return out


def criterion_repro(workdir=None, rc=None):
    import contextlib
    import io

    from dnpde import cli

    base = workdir or tempfile.mkdtemp(prefix="dnpde-repro-")
    os.makedirs(base, exist_ok=True)
    cfg_path = os.path.join(base, "repro.cfg")
    cfg_2d_path = os.path.join(base, "repro_2d.cfg")
    for path, text in ((cfg_path, _REPRO_CONFIG), (cfg_2d_path, _REPRO_2D_CONFIG)):
        with open(path, "w", newline="\n") as fh:
            fh.write(text)

    commands = {
        "run": ["run", cfg_path],
        "sweep": ["sweep", cfg_path, "--param", "lambda_yosida", "--values", "0.2,0.1"],
        "verify": ["verify", cfg_path, "--select", "convex_oracle"],
        "run_2d": ["run", cfg_2d_path],
    }
    assertions = []
    for name, argv in commands.items():
        dirs = [os.path.join(base, f"{name}_{i}") for i in (0, 1)]
        codes = []
        for d in dirs:
            os.makedirs(d, exist_ok=True)
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(argv + ["--out", d]))
        trees = [_tree_bytes(d) for d in dirs]
        # every fault counts: an unequal or unpaired file, a nonzero exit, an empty tree
        faults = (
            sum(trees[0][k] != trees[1][k] for k in trees[0].keys() & trees[1].keys())
            + len(trees[0].keys() ^ trees[1].keys())
            + sum(code != 0 for code in codes)
            + sum(not tree for tree in trees)
        )
        assertions.append(Assertion(f"{name}_byte_identical", float(faults), "<=", 0.0))
    return assertions


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

CRITERIA = {
    0: ("model", criterion_model),
    1: ("convex_oracle", criterion_convex_oracle),
    2: ("fenchel", criterion_fenchel),
    3: ("duality", criterion_duality),
    4: ("ou_moment", criterion_ou_moment),
    5: ("energy", criterion_energy),
    6: ("apriori", criterion_apriori),
    7: ("cauchy", criterion_cauchy),
    8: ("lipschitz", criterion_lipschitz),
    9: ("phi_unique", criterion_phi_unique),
    10: ("repro", criterion_repro),
}

ALIASES = {
    "all": tuple(CRITERIA),
    "convex_core": (1, 2),
}


def resolve_selection(tokens):
    """Map ids, names or aliases to an ordered criterion id list."""
    by_name = {name: cid for cid, (name, _) in CRITERIA.items()}
    chosen = []
    for tok in tokens:
        tok = tok.strip()
        if not tok:
            continue
        if tok in ALIASES:
            chosen.extend(ALIASES[tok])
        elif tok in by_name:
            chosen.append(by_name[tok])
        elif tok.isdigit() and int(tok) in CRITERIA:
            chosen.append(int(tok))
        else:
            raise ValueError(f"unknown criterion selector {tok!r}")
    seen = []
    for cid in chosen:
        if cid not in seen:
            seen.append(cid)
    return seen


def run_criteria(ids, workdir=None, rc=None):
    """One ``CriterionResult`` per id, named from ``CRITERIA``."""
    results = []
    for cid in ids:
        name, fn = CRITERIA[cid]
        results.append(CriterionResult(cid, name, fn(workdir=workdir, rc=rc)))
    return results
