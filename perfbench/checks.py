"""Output checks that hold for any seed, built from public library calls only."""

from __future__ import annotations

import math

import numpy as np

MOMENT_Z_LIMIT = 5.0   # standard errors allowed between sample and exact moment


def step_certificate(dn, cfg, u_prev, u_next, dw):
    """h-norm of the implicit-step optimality residual at ``u_next``.

    ``(u1 - f)/dt - div(visc grad u1 + gamma_lam(grad u1)) + beta_lam(u1)``
    with the explicit Euler-Maruyama forcing ``f = u0 + B(u0) dw``.  The
    solver stops its inner loop once this norm is at most ``eps_inner``.
    """
    grid, convex = dn.grid, dn.convex
    g = cfg.grid
    lam = cfg.lambda_yosida
    forcing = u_prev
    if cfg.noise is not None and dw is not None:
        forcing = u_prev + dn.noise.apply_b(cfg.noise, g, u_prev, dw)
    flux = []
    for ga in grid.grad_arrays(g, u_next):
        fa = cfg.visc * ga
        if cfg.gamma is not None:
            fa = fa + convex.yosida(cfg.gamma, lam, ga)
        flux.append(fa)
    res = (u_next - forcing) / cfg.dt - grid.div_arrays(g, flux)
    if cfg.beta is not None:
        res = res + convex.yosida(cfg.beta, lam, u_next)
    return float(np.max(grid.norm_h(g, res)))


def max_certificate_ratio(dn, traj, increments):
    """Largest step certificate of a trajectory divided by ``eps_inner``."""
    cfg = traj.config
    recs = traj.records
    worst = 0.0
    for n in range(len(recs) - 1):
        dw = None if increments is None else increments[n]
        cert = step_certificate(dn, cfg, recs[n].u, recs[n + 1].u, dw)
        if not math.isfinite(cert):
            return math.inf
        worst = max(worst, cert / cfg.eps_inner)
    return worst


def exact_ou_moment(alphas, amps, coeffs, lam, dt, n_steps):
    """E||u_N||_h^2 of implicit Euler for du = lap u/(1+lam) dt + sum b_k e_k dW_k.

    Mode k contracts by r_k = 1/(1 + dt alpha_k/(1+lam)) per step, so
    E c_k(N)^2 = r_k^(2N) c_k(0)^2 + b_k^2 dt sum_{j=1..N} r_k^(2j).
    """
    total = 0.0
    for a, b, c in zip(alphas, amps, coeffs):
        r = 1.0 / (1.0 + dt * a / (1.0 + lam))
        total += r ** (2 * n_steps) * c * c
        total += b * b * dt * sum(r ** (2 * j) for j in range(1, n_steps + 1))
    return total


def ou_moment_z(dn, cfg, u0, batch):
    """Standard score of the ensemble's terminal mean of ||u||_h^2."""
    g = cfg.grid
    model = cfg.noise
    alphas, modes = dn.grid.sine_eigenpairs(g, model.mode_count)
    coeffs = [float(dn.grid.dot_h(g, e, u0)) for e in modes]
    exact = exact_ou_moment(
        alphas, model.amplitudes, coeffs, cfg.lambda_yosida, cfg.dt, cfg.n_steps
    )
    sample = np.asarray(batch.ledgers["norm_u_sq"][-1], dtype=float)
    stderr = float(np.std(sample, ddof=1)) / math.sqrt(sample.size)
    return (float(np.mean(sample)) - exact) / stderr
