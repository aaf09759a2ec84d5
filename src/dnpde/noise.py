"""Truncated cylindrical Wiener driver and Hilbert-Schmidt diffusion coefficients.

The driving space is the span of the first K h-orthonormal sine modes of the
grid.  The diffusion coefficient acts as ``B(u) dw = sum_k b_k * sigma(u) .*
e_k * dw_k`` with a scalar Lipschitz gain ``sigma`` (constant 1 for additive
noise, clipped-linear or tanh for diagonal multiplicative noise).

Increments come from counter-based Philox streams keyed by (master seed,
path index), so every path is bitwise reproducible and paths never share
state.  Runs that must see the same Brownian path on different time steps
draw it once, at the finest step, through ``coupled_increment_tables``.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from dnpde import grid as gridmod

__all__ = [
    "Gain",
    "AdditiveGain",
    "ClippedLinearGain",
    "TanhGain",
    "NoiseModel",
    "PathSeed",
    "sample_increments",
    "coupled_increment_tables",
    "increment_checksum",
    "apply_b",
    "hs_weight",
    "hs_norm",
    "default_bound",
    "amplitudes_power_law",
    "spectral_noise",
]

_MASK64 = (1 << 64) - 1


class Gain:
    """Scalar gain ``sigma`` with stated Lipschitz constant; the catalog gains
    are frozen dataclasses whose fields are their parameters, called on node
    arrays."""

    lipschitz = 1.0


@dataclass(frozen=True)
class AdditiveGain(Gain):
    """sigma == 1: additive noise."""

    lipschitz = 0.0

    def __call__(self, u):
        return np.ones_like(np.asarray(u, dtype=float))


@dataclass(frozen=True)
class ClippedLinearGain(Gain):
    """sigma(u) = clip(u, -limit, limit); 1-Lipschitz, bounded."""

    limit: float = 1.0

    def __post_init__(self):
        if not self.limit > 0:
            raise ValueError("limit must be positive")
        object.__setattr__(self, "limit", float(self.limit))

    def __call__(self, u):
        return np.clip(u, -self.limit, self.limit)


@dataclass(frozen=True)
class TanhGain(Gain):
    """sigma(u) = tanh(u): bounded and smooth, 1-Lipschitz."""

    def __call__(self, u):
        return np.tanh(u)


def amplitudes_power_law(K, c, q):
    """b_k = c * k**(-q) for k = 1..K."""
    k = np.arange(1, K + 1, dtype=float)
    return tuple(c * k**-q)


@dataclass(frozen=True)
class NoiseModel:
    """Truncated spectral noise: per-mode amplitudes, gain, declared HS bound N_B."""

    amplitudes: tuple
    gain: Gain
    bound: float | None = None

    def __post_init__(self):
        amps = tuple(float(a) for a in self.amplitudes)
        if not amps:
            raise ValueError("need at least one mode amplitude")
        with np.errstate(over="ignore"):
            if not np.isfinite(np.sum(np.square(amps))):
                raise ValueError("amplitudes must be finite with a finite sum of squares")
        object.__setattr__(self, "amplitudes", amps)
        if self.bound is not None and not 0 < self.bound < np.inf:
            raise ValueError("n_b must be positive and finite")

    @property
    def mode_count(self):
        return len(self.amplitudes)

    def is_additive(self):
        return isinstance(self.gain, AdditiveGain)


@dataclass(frozen=True)
class PathSeed:
    """Counter-based stream identity: one independent substream per path."""

    master_seed: int
    path_index: int = 0

    def generator(self):
        key = [self.master_seed & _MASK64, self.path_index & _MASK64]
        return np.random.Generator(np.random.Philox(key=key))


def sample_increments(seed: PathSeed, n_steps, dt, K):
    """Table of independent N(0, dt) increments, shape (n_steps, K).

    Bitwise reproducible from the seed: the same (master_seed, path_index)
    always yields the same table for a given shape.
    """
    if dt < 0:
        raise ValueError("dt must be >= 0")
    if n_steps < 0 or K < 1:
        raise ValueError("need n_steps >= 0 and K >= 1")
    g = seed.generator()
    z = g.standard_normal((int(n_steps), int(K)))
    z *= np.sqrt(dt)   # in place: one table, not two, at the peak of a long run
    return z


def coupled_increment_tables(seed: PathSeed, fine_dt, dt_values, horizon, K):
    """Increment tables on several time steps that share one Brownian path.

    Increments are drawn once at ``fine_dt`` and summed in consecutive groups
    of ``dt / fine_dt`` rows onto each ``dt`` of ``dt_values``, each a whole
    multiple of ``fine_dt`` that divides the horizon, so every level sees the
    same path.  Returns the tables in the order of ``dt_values``; a
    level at ``fine_dt`` is the fine draw bit for bit.
    """
    if not fine_dt > 0:
        raise ValueError("the finest dt must be positive")
    n_fine = round(horizon / fine_dt)
    if abs(n_fine * fine_dt - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError("horizon must be a multiple of the finest dt")
    base = sample_increments(seed, n_fine, fine_dt, K)
    tables = []
    for dt in dt_values:
        factor = round(dt / fine_dt)
        if factor < 1 or abs(factor * fine_dt - dt) > 1e-9 * dt:
            raise ValueError("dt values must be integer multiples of the finest dt")
        if n_fine % factor:
            raise ValueError(f"dt {dt!r} does not divide the horizon")
        tables.append(base.reshape((n_fine // factor, factor, -1)).sum(axis=1))
    return tables


def increment_checksum(table):
    """SHA-256 of the raw increment bytes (certifies path coupling)."""
    a = np.ascontiguousarray(np.asarray(table, dtype=float))
    return hashlib.sha256(a.tobytes()).hexdigest()


def apply_b(model: NoiseModel, grid, u, dw):
    """Apply the diffusion coefficient to an increment vector.

    ``u`` is a node array (trailing batch axes allowed), ``dw`` has shape
    (K,) or (K, *batch).  Returns ``sigma(u) .* sum_k b_k dw_k e_k``.
    """
    _, modes = gridmod.sine_eigenpairs(grid, model.mode_count)
    dw = np.asarray(dw, dtype=float)
    if dw.shape[0] != model.mode_count:
        raise ValueError("increment vector length does not match mode count")
    coeff = np.asarray(model.amplitudes)[(slice(None),) + (None,) * (dw.ndim - 1)] * dw
    # (K, *nodes) x (K, *batch) -> (*nodes, *batch) as one matrix product
    field = modes.reshape(len(modes), -1).T @ coeff.reshape(len(modes), -1)
    return model.gain(u) * field.reshape(modes.shape[1:] + dw.shape[1:])


@functools.lru_cache(maxsize=gridmod.EIG_CACHE_SIZE)
def hs_weight(model: NoiseModel, grid):
    """Node array ``sum_k b_k^2 e_k^2``: ``||B(u)||_HS^2 = <sigma(u)^2, weight>_h``
    (cached per ``(model, grid)``, read-only)."""
    _, modes = gridmod.sine_eigenpairs(grid, model.mode_count)
    weight = np.tensordot(np.asarray(model.amplitudes) ** 2, modes**2, axes=(0, 0))
    weight.flags.writeable = False
    return weight


def hs_norm(model: NoiseModel, grid, u):
    """Hilbert-Schmidt norm of ``B(u)``: sqrt(sum_k b_k^2 ||sigma(u) e_k||^2)."""
    s = model.gain(np.asarray(u, dtype=float))
    weight = hs_weight(model, grid)[(...,) + (None,) * (s.ndim - grid.dim)]
    return np.sqrt(gridmod.dot_h(grid, s * s, weight))


def default_bound(model: NoiseModel, grid):
    """A valid declared N_B for the catalog gains on this grid.

    Additive: the constant HS norm.  Multiplicative: the catalog gains vanish
    at 0 and are L-Lipschitz, so ``HS(u) <= sqrt(max_i sum_k b_k^2 e_k(i)^2)
    * L * ||u||`` bounds both the linear-growth and the Lipschitz condition.
    """
    if model.is_additive():
        return float(np.sqrt(sum(b * b for b in model.amplitudes)))
    return float(np.sqrt(hs_weight(model, grid).max())) * model.gain.lipschitz


def spectral_noise(grid, mode_count, gain, amplitudes=None, amp_c=None, amp_q=None, n_b=None):
    """The noise of ``mode_count`` sine modes of ``grid`` with ``gain``.

    The amplitudes are ``amplitudes``, one per mode and not all zero, or else
    the power law ``amp_c * k**-amp_q``, which must give finite amplitudes
    with a finite sum of squares.  The declared bound is ``n_b``, or
    ``default_bound`` when it is unset, which must not underflow to 0.  A
    refusal (``ValueError``) leads with the name of the parameter at fault.
    """
    K, modes = mode_count, math.prod(grid.nodes)
    if K < 1:
        raise ValueError("mode_count must be >= 1")
    if K > modes:
        raise ValueError(f"mode_count {K} exceeds the {modes} sine modes of the grid")
    scale_key = "amp_c" if amplitudes is None else "amplitudes"   # b_1 = amp_c for the power law
    if amplitudes is not None:
        if len(amplitudes) != K:
            raise ValueError(f"amplitudes list has {len(amplitudes)} entries, mode_count is {K}")
        if not any(amplitudes):
            raise ValueError("amplitudes must not be all zero")
    elif amp_c is None or amp_q is None:
        raise ValueError("noise needs either 'amplitudes' or the power law 'amp_c'/'amp_q'")
    else:
        if not 0 < amp_c < math.inf:
            raise ValueError("amp_c must be positive and finite")
        with np.errstate(over="ignore"):
            amplitudes = amplitudes_power_law(K, amp_c, amp_q)
            squares = np.square(amplitudes)
            square_sum = squares.sum()   # the noise's Hilbert-Schmidt scale
        if not (math.isfinite(amp_q) and all(map(math.isfinite, amplitudes))):
            raise ValueError("amp_q must be finite and give finite amplitudes")
        if not np.isfinite(square_sum):
            key = "amp_c" if np.isinf(squares[0]) else "amp_q"   # b_1 = amp_c
            raise ValueError(f"{key} must give amplitudes with a finite sum of squares")
    model = NoiseModel(amplitudes, gain, n_b)   # refuses non-finite amplitudes and n_b
    if n_b is not None:
        return model
    bound = default_bound(model, grid)
    if bound == 0.0:
        raise ValueError(f"{scale_key} too small: the squares underflow to a zero default n_b")
    return replace(model, bound=bound)
