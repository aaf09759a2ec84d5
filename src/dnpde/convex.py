"""Convex potentials, subdifferential graphs, resolvents and Yosida maps.

Everything here is built around nonnegative convex potentials ``P`` on the
real line with ``P(0) = 0``.  The subdifferential of such a potential is a
maximal monotone graph through the origin; it is represented only through
quantities that are always single valued: the resolvent
``J_lam = (I + lam*dP)^{-1}``, the Yosida map ``G_lam(x) = (x - J_lam(x)) /
lam``, the Moreau envelope and the convex conjugate.  Multivalued points
never need an arbitrary selection rule.

Potentials are scalar profiles and act elementwise on arrays: the solver's
staggered grids carry one normal gradient component per face, so a flux
graph is applied face by face through its profile.  The power, abs, Huber
and exp-cosh potentials are frozen dataclasses whose fields are their
parameters: floats, checked on construction, with equality, hash and repr
from the fields; ``config`` passes its keys to them by these names.  Every
catalog potential has a resolvent and a conjugate of its own, which the
solver calls; bisection is the independent reference resolvent, and only
``resolvent`` chooses between the two.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "Potential",
    "PowerPotential",
    "AbsPotential",
    "HuberPotential",
    "ExpCoshPotential",
    "SampledSlopePotential",
    "RootFindError",
    "resolvent",
    "yosida",
    "moreau_envelope",
    "fenchel_residual",
    "validate_potential",
]

ROOT_TOL = 1e-12          # bisection width on resolvent points (relative beyond |x| = 1)
NEWTON_CAP = 64           # Newton iterations of the exp-cosh resolvent before giving up
DOMAIN_SLACK = 1e-9       # roundoff slack on indicator-type conjugate domains
ORIGIN_TOL = 1e-8         # relative size of a sampled slope at 0 that still counts as 0
PROBE_SEED = 20260809     # seed of the sample points of validate_potential
PROBE_RADIUS = 10.0       # validate_potential samples in [-PROBE_RADIUS, PROBE_RADIUS]
PROBE_COUNT = 64          # sample points per check of validate_potential
SYMMETRY_BOUND = 1e6      # largest P(x)/P(-x) that validate_potential accepts (C_sym)


class RootFindError(RuntimeError):
    """Resolvent root search failed (bracket or tolerance)."""


def _as_float_array(x, name="x"):
    a = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"non-finite input {name!r}")
    return a


def _require_finite(**arrays):
    """Refuse the first array holding a non-finite entry, by its name."""
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            raise ValueError(f"{name} must be finite")


def _match(template, a):
    """Return float for scalar inputs, ndarray otherwise."""
    if np.isscalar(template) or (isinstance(template, np.ndarray) and template.ndim == 0):
        return float(a)
    return a


# ---------------------------------------------------------------------------
# potential catalog
# ---------------------------------------------------------------------------

class Potential:
    """Base class: convex ``P >= 0`` with ``P(0) = 0``.

    Subclasses provide ``value``, ``minimal_slope`` (the minimal-norm
    subgradient, used as the probing selection and inside the reference
    bisection resolvent), ``slope_derivative`` (its derivative, ``inf`` where
    the graph is vertical, and one number for a linear graph) and the exact
    routes ``closed_resolvent`` and ``closed_conjugate``.
    """

    def __post_init__(self):
        # catalog dataclasses: every field is a positive, finite float, and a
        # refusal leads with the field's name
        for f in fields(self):
            value = float(getattr(self, f.name))
            if not 0.0 < value < np.inf:
                raise ValueError(f"{f.name} must be positive and finite")
            object.__setattr__(self, f.name, value)

    def yosida_from_resolvent(self, lam, x, j):
        """Yosida value ``(x - j)/lam`` at ``x`` with resolvent point ``j``.

        The abs, Huber and sampled graphs, which have flat parts, override it
        by a closed form in ``x``: on a flat part ``x - j`` is a constant plus
        the rounding of ``j``, and dividing by a small ``lam`` makes that
        rounding break monotonicity and leave the range of the graph.
        """
        return (x - j) / lam


@dataclass(frozen=True)
class PowerPotential(Potential):
    """``P(x) = scale * |x|**p / p`` with ``p > 1``.

    The graph is ``x -> scale * |x|**(p-2) * x``; the resolvent has a closed
    form for p in {1.5, 2, 4} (quadratic formula, linear, Cardano) and is
    found by bisection for every other p.  At p = 2 the graph is linear and
    its slope derivative is one number, ``scale``, not an array of ``x``'s
    shape.
    """

    p: float
    scale: float = 1.0

    def __post_init__(self):
        if not 1.0 < self.p < np.inf:
            raise ValueError("p must be finite and > 1 (use AbsPotential for p = 1)")
        super().__post_init__()

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return self.scale * np.abs(x) ** self.p / self.p

    def minimal_slope(self, x):
        x = np.asarray(x, dtype=float)
        return self.scale * np.sign(x) * np.abs(x) ** (self.p - 1.0)

    def slope_derivative(self, x):
        if self.p == 2.0:   # scale * |x|**0 is scale for every x, nan and inf included
            return np.float64(self.scale)
        with np.errstate(divide="ignore"):
            return self.scale * (self.p - 1.0) * np.abs(np.asarray(x, dtype=float)) ** (self.p - 2.0)

    def closed_resolvent(self, lam, x):
        x = np.asarray(x, dtype=float)
        c = lam * self.scale
        if self.p == 2.0:
            return x / (1.0 + c)
        a = np.abs(x)
        if self.p == 1.5:
            # r + c*sqrt(r) = a; quadratic in sqrt(r), root without cancellation
            t = 2.0 * a / (c + np.sqrt(c * c + 4.0 * a))
            return np.sign(x) * t * t
        if self.p == 4.0:
            # c*r^3 + r = a, unique real root by Cardano: r = t1 - s with
            # s = pp/(3 t1); t1 - s = (t1^3 - s^3)/(t1^2 + t1 s + s^2), where
            # t1^3 - s^3 = a/c and t1 s = pp/3, avoids the cancellation of t1 - s
            pp = 1.0 / c
            disc = np.sqrt((a / (2.0 * c)) ** 2 + (pp / 3.0) ** 3)
            t1 = np.cbrt(a / (2.0 * c) + disc)
            s = pp / (3.0 * t1)
            return np.sign(x) * (a / (c * (t1 * t1 + pp / 3.0 + s * s)))
        return _bisect_scalar_graph(self, lam, x)

    def closed_conjugate(self, y):
        y = np.asarray(y, dtype=float)
        q = self.p / (self.p - 1.0)
        return self.scale ** (1.0 - q) * np.abs(y) ** q / q


@dataclass(frozen=True)
class AbsPotential(Potential):
    """``P(x) = scale * |x|``; the graph is the scaled sign, multivalued at 0."""

    scale: float = 1.0

    def value(self, x):
        return self.scale * np.abs(np.asarray(x, dtype=float))

    def minimal_slope(self, x):
        return self.scale * np.sign(np.asarray(x, dtype=float))

    def slope_derivative(self, x):
        return np.where(np.asarray(x, dtype=float) == 0.0, np.inf, 0.0)

    def closed_resolvent(self, lam, x):
        # soft threshold
        x = np.asarray(x, dtype=float)
        return np.sign(x) * np.maximum(np.abs(x) - lam * self.scale, 0.0)

    def yosida_from_resolvent(self, lam, x, j):
        return np.minimum(np.maximum(x / lam, -self.scale), self.scale)

    def closed_conjugate(self, y):
        y = np.asarray(y, dtype=float)
        inside = np.abs(y) <= self.scale * (1.0 + DOMAIN_SLACK)
        return np.where(inside, 0.0, np.inf)


@dataclass(frozen=True)
class HuberPotential(Potential):
    """Quadratic inside ``|x| <= delta``, linear outside (scaled)."""

    delta: float = 1.0
    scale: float = 1.0

    def value(self, x):
        x = np.asarray(x, dtype=float)
        a = np.abs(x)
        d = self.delta
        return self.scale * np.where(a <= d, 0.5 * x * x, d * (a - 0.5 * d))

    def minimal_slope(self, x):
        x = np.asarray(x, dtype=float)
        return self.scale * np.clip(x, -self.delta, self.delta)

    def slope_derivative(self, x):
        return np.where(np.abs(np.asarray(x, dtype=float)) < self.delta, self.scale, 0.0)

    def closed_resolvent(self, lam, x):
        x = np.asarray(x, dtype=float)
        c = lam * self.scale
        inner = np.abs(x) <= self.delta * (1.0 + c)
        return np.where(inner, x / (1.0 + c), x - np.sign(x) * c * self.delta)

    def yosida_from_resolvent(self, lam, x, j):
        bound = self.scale * self.delta
        return np.clip(self.scale * x / (1.0 + lam * self.scale), -bound, bound)

    def closed_conjugate(self, y):
        y = np.asarray(y, dtype=float)
        inside = np.abs(y) <= self.scale * self.delta * (1.0 + DOMAIN_SLACK)
        return np.where(inside, y * y / (2.0 * self.scale), np.inf)


@dataclass(frozen=True)
class ExpCoshPotential(Potential):
    """``P(x) = scale * (cosh(x) - 1)``; superlinear, resolvent by Newton."""

    scale: float = 1.0

    def value(self, x):
        return self.scale * (np.cosh(np.asarray(x, dtype=float)) - 1.0)

    def minimal_slope(self, x):
        return self.scale * np.sinh(np.asarray(x, dtype=float))

    def slope_derivative(self, x):
        return self.scale * np.cosh(np.asarray(x, dtype=float))

    def closed_resolvent(self, lam, x):
        # r + c*sinh(r) = |x| by Newton from r0 = min(|x|/(1+c), asinh(|x|/c)),
        # which is never below the root (sinh r >= r on r >= 0); the residual
        # is convex and increasing there, so the iterates fall monotonically
        # to the root and the first one that does not fall ends the search
        x = np.asarray(x, dtype=float)
        a = np.abs(x)
        c = lam * self.scale
        r = np.minimum(a / (1.0 + c), np.arcsinh(a / c))
        for _ in range(NEWTON_CAP):
            nxt = r - (r + c * np.sinh(r) - a) / (1.0 + c * np.cosh(r))
            if not (nxt < r).any():
                return np.sign(x) * r
            r = np.minimum(nxt, r)
        raise RootFindError(f"exp-cosh Newton did not settle in {NEWTON_CAP} iterations")

    def closed_conjugate(self, y):
        z = np.abs(np.asarray(y, dtype=float)) / self.scale
        return self.scale * (z * np.arcsinh(z) - np.sqrt(1.0 + z * z) + 1.0)


class SampledSlopePotential(Potential):
    """Potential defined by a piecewise-linear monotone derivative.

    ``xs``/``slopes`` are breakpoints of the derivative, which is interpolated
    linearly between them and extended by its end values outside the range.
    The potential itself is the exact integral of the derivative from 0, so
    ``P(0) = 0`` holds exactly.  A breakpoint at the origin with zero slope is
    inserted automatically; construction fails if the given derivative does
    not vanish at 0 (the potential could not attain its minimum there).
    """

    def __init__(self, xs, slopes):
        xs = np.asarray(xs, dtype=float)
        gs = np.asarray(slopes, dtype=float)
        if xs.ndim != 1 or xs.shape != gs.shape or xs.size < 2:
            raise ValueError("need matching 1-d breakpoint arrays with >= 2 points")
        _require_finite(xs=xs, slopes=gs)
        if np.any(np.diff(xs) <= 0):
            raise ValueError("xs must be strictly increasing")
        if np.any(np.diff(gs) < -1e-12 * max(1.0, np.abs(gs).max())):
            raise ValueError("slopes must be nondecreasing (non-monotone user graph)")
        g0 = float(np.interp(0.0, xs, gs))
        if abs(g0) > ORIGIN_TOL * max(1.0, np.abs(gs).max()):
            raise ValueError("slopes must vanish at the origin (minimum of the potential)")
        if 0.0 not in xs:
            i = int(np.searchsorted(xs, 0.0))
            xs = np.insert(xs, i, 0.0)
            gs = np.insert(gs, i, 0.0)
        else:
            gs = gs.copy()
            gs[xs == 0.0] = 0.0
        # absorb the tolerated dips so that r + lam*g(r) is strictly
        # increasing, keeping g(0) = 0
        gs = np.maximum.accumulate(gs)
        gs = np.where(xs <= 0.0, np.minimum(gs, 0.0), gs)
        self.xs = xs
        self.slopes = gs
        # cumulative exact integral of the piecewise-linear derivative,
        # anchored so that the origin breakpoint carries exactly 0
        seg = np.diff(xs) * 0.5 * (gs[:-1] + gs[1:])
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        self._cum = cum - cum[int(np.searchsorted(xs, 0.0))]

    def __eq__(self, other):
        pair = self.xs.tobytes(), self.slopes.tobytes()
        return type(other) is type(self) and pair == (other.xs.tobytes(), other.slopes.tobytes())

    def __hash__(self):
        return hash((self.xs.tobytes(), self.slopes.tobytes()))

    @classmethod
    def from_value_samples(cls, xs, values):
        """Build from samples ``(x, P(x))``: chord slopes placed at midpoints."""
        xs = np.asarray(xs, dtype=float)
        values = np.asarray(values, dtype=float)
        if xs.ndim != 1 or xs.shape != values.shape or xs.size < 3:
            raise ValueError("need >= 3 value samples")
        _require_finite(xs=xs, values=values)
        if np.any(np.diff(xs) <= 0):
            raise ValueError("sample abscissae must be strictly increasing")
        slopes = np.diff(values) / np.diff(xs)
        mids = 0.5 * (xs[:-1] + xs[1:])
        return cls(mids, slopes)

    @classmethod
    def from_file(cls, path):
        try:
            data = np.loadtxt(path, dtype=float)
            if data.ndim != 2 or data.shape[1] != 2:
                raise ValueError("expected two columns (x, P(x))")
            return cls.from_value_samples(data[:, 0], data[:, 1])
        except (ValueError, OSError) as err:   # a refused file's message leads with `path`
            raise ValueError(f"path {path}: {err}") from None

    def minimal_slope(self, x):
        return np.interp(np.asarray(x, dtype=float), self.xs, self.slopes)

    def slope_derivative(self, x):
        x = np.asarray(x, dtype=float)
        rates = np.diff(self.slopes) / np.diff(self.xs)
        idx = np.clip(np.searchsorted(self.xs, x, side="right") - 1, 0, rates.size - 1)
        return np.where((x < self.xs[0]) | (x > self.xs[-1]), 0.0, rates[idx])

    def closed_resolvent(self, lam, x):
        # r + lam*g(r) is piecewise linear with knots xs + lam*slopes, so its
        # inverse interpolates; beyond the end knots g is constant
        x = np.asarray(x, dtype=float)
        knots = self.xs + lam * self.slopes
        return np.interp(x, knots, self.xs) + (x - np.clip(x, knots[0], knots[-1]))

    def yosida_from_resolvent(self, lam, x, j):
        # g(J) on the same interpolation weights, held flat beyond the ends:
        # stays in the range of the graph where (x - j)/lam would not
        return np.interp(x, self.xs + lam * self.slopes, self.slopes)

    def closed_conjugate(self, y):
        # the sup of x*y - P(x) is attained where g(x) = y; linear growth
        # beyond the end breakpoints leaves dom P* = [slopes[0], slopes[-1]]
        y = np.asarray(y, dtype=float)
        x = np.interp(y, self.slopes, self.xs)
        lo, hi = self.slopes[[0, -1]] * (1.0 + DOMAIN_SLACK)
        return np.where((y >= lo) & (y <= hi), y * x - self.value(x), np.inf)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        xs, gs, cum = self.xs, self.slopes, self._cum
        idx = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, xs.size - 2)
        x0 = xs[idx]
        rate = (gs[idx + 1] - gs[idx]) / (xs[idx + 1] - xs[idx])
        t = x - x0
        inside = cum[idx] + gs[idx] * t + 0.5 * rate * t * t
        below = cum[0] + gs[0] * (x - xs[0])
        above = cum[-1] + gs[-1] * (x - xs[-1])
        return np.where(x < xs[0], below, np.where(x > xs[-1], above, inside))


# ---------------------------------------------------------------------------
# the resolvent machinery
# ---------------------------------------------------------------------------

def _bisect_scalar_graph(pot, lam, x):
    """Solve ``r + lam*g(r) = x`` for each entry by safeguarded bisection.

    The residual is nondecreasing in ``r`` and ``g(0) = 0`` for a potential
    with ``P >= 0`` and ``P(0) = 0``, so ``[min(x,0), max(x,0)]`` brackets the
    root; a graph for which it does not raises ``RootFindError``.  Bisection
    stops at width ``ROOT_TOL * max(1, |x|)``, then one Newton step kept
    inside the bracket takes the root to rounding.  Midpoints are taken as
    ``0.5*lo + 0.5*hi``, which cannot overflow, and an infinite entry, whose
    bracket width is not a number, does not hold up the others.
    """
    x = np.asarray(x, dtype=float)
    lo = np.minimum(x, 0.0)
    hi = np.maximum(x, 0.0)

    def resid(r):
        return r + lam * np.asarray(pot.minimal_slope(r)) - x

    # a slope overflowing to +-inf far out in the bracket still has the right
    # sign, so the comparisons below need no overflow warning
    with np.errstate(over="ignore"):
        if (resid(lo) > 0.0).any() or (resid(hi) < 0.0).any():
            raise RootFindError("[min(x,0), max(x,0)] does not bracket the root (g(0) != 0?)")
        width = ROOT_TOL * np.maximum(1.0, np.abs(x))
        # each pass halves a bracket of width |x|, so about 40 passes reach the
        # width from any finite x; the cap of 200 is never met
        for _ in range(200):
            if not (hi - lo > width).any():
                break
            mid = 0.5 * lo + 0.5 * hi
            neg = resid(mid) < 0.0
            lo = np.where(neg, mid, lo)
            hi = np.where(neg, hi, mid)
    r = 0.5 * lo + 0.5 * hi
    with np.errstate(invalid="ignore", over="ignore"):
        step = resid(r) / (1.0 + lam * np.asarray(pot.slope_derivative(r)))
    return np.clip(r - np.nan_to_num(step, posinf=0.0, neginf=0.0), lo, hi)


def resolvent(pot, lam, x, *, force_bisect=False):
    """Resolvent ``J_lam(x)``: the unique ``r`` with ``r + lam*dP(r) ∋ x``.

    Every catalog potential evaluates it by its own exact route;
    ``force_bisect`` requests the generic bisection route instead (the two
    routes are kept independent so they can cross-check each other).
    """
    if not lam > 0.0:
        raise ValueError("lam must be positive")
    xa = _as_float_array(x)
    if force_bisect:
        return _match(x, _bisect_scalar_graph(pot, lam, xa))
    return _match(x, pot.closed_resolvent(lam, xa))


def yosida(pot, lam, x):
    """Yosida map ``G_lam(x) = (x - J_lam(x)) / lam``: monotone, (1/lam)-Lipschitz."""
    xa = _as_float_array(x)
    j = resolvent(pot, lam, xa)
    return _match(x, pot.yosida_from_resolvent(lam, xa, j))


def moreau_envelope(pot, lam, x):
    """Moreau envelope ``P_lam(x) = min_r P(r) + |x-r|^2/(2 lam)``.

    Evaluated through the resolvent: ``P(J_lam x) + |x - J_lam x|^2/(2 lam)``.
    Its gradient is the Yosida map of the subdifferential.
    """
    xa = _as_float_array(x)
    j = resolvent(pot, lam, xa)
    d = xa - j
    return _match(x, pot.value(j) + d * d / (2.0 * lam))


# ---------------------------------------------------------------------------
# conjugacy
# ---------------------------------------------------------------------------

def fenchel_residual(pot, x, y):
    """Fenchel-Young residual ``P(x) + P*(y) - x*y`` (always >= 0).

    Vanishes exactly when ``y`` is a subgradient of ``P`` at ``x``.  A non-finite
    residual is refused if x or y is non-finite or y lies outside dom P*.
    """
    xa, ya = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        star = np.asarray(pot.closed_conjugate(ya))
        res = np.asarray(pot.value(xa)) + star - xa * ya
    if not np.isfinite(res).all():
        _as_float_array(xa)
        _as_float_array(ya, "y")
        if np.isinf(star).any():
            raise ValueError("infinite conjugate: y outside dom P*")
    return _match(x, res)


# ---------------------------------------------------------------------------
# validation probes
# ---------------------------------------------------------------------------

def validate_potential(pot):
    """Finite sampling probe of the standing assumptions on a potential.

    Checks, at ``PROBE_COUNT`` points of ``[-PROBE_RADIUS, PROBE_RADIUS]``:
    exact zero at the origin, nonnegativity, convexity on sampled triples
    (1e-12 relative slack) and the symmetry ratio against ``SYMMETRY_BOUND``.
    Returns ``{check name: passed}``; a nan sample fails its check, and
    failures are entries, never exceptions.
    """
    rng = np.random.default_rng(PROBE_SEED)
    xs = PROBE_RADIUS * (2.0 * rng.random(PROBE_COUNT) - 1.0)
    vals = np.asarray(pot.value(xs))
    ys = PROBE_RADIUS * (2.0 * rng.random(PROBE_COUNT) - 1.0)
    theta = rng.random(PROBE_COUNT)
    lhs = np.asarray(pot.value(theta * xs + (1.0 - theta) * ys))
    rhs = theta * vals + (1.0 - theta) * np.asarray(pot.value(ys))
    neg_vals = np.asarray(pot.value(-xs))
    mask = neg_vals > 0.0
    return {
        "origin": float(pot.value(0.0)) == 0.0,
        "nonnegative": bool(vals.min() >= 0.0),
        "convex": bool((lhs - rhs - 1e-12 * (1.0 + np.abs(rhs))).max() <= 0.0),
        "symmetry": bool((vals[mask] / neg_vals[mask]).max(initial=0.0) <= SYMMETRY_BOUND),
    }
