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
graph is applied face by face through its profile.  Every catalog potential
has an exact resolvent and an exact conjugate of its own (closed forms, a
monotone Newton iteration for exp-cosh, interpolation for sampled graphs).
Safeguarded bisection is the independent reference route (``force_bisect``
of ``resolvent``, the only place that picks the route) and serves power
potentials with p outside {1.5, 2, 4}; the solver calls ``closed_resolvent``.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "conjugate",
    "fenchel_residual",
    "validate_potential",
    "ValidationReport",
]

ROOT_TOL = 1e-12          # bisection width on resolvent points (relative beyond |x| = 1)
BRACKET_CAP = 2.0 ** 60   # maximal bracket half-width before giving up
NEWTON_CAP = 64           # Newton iterations of the exp-cosh resolvent before giving up
DOMAIN_SLACK = 1e-9       # roundoff slack on indicator-type conjugate domains
ORIGIN_TOL = 1e-8         # relative size of a sampled slope at 0 that still counts as 0
PROBE_SEED = 20260809     # seed of the sample points of validate_potential


class RootFindError(RuntimeError):
    """Resolvent root search failed (bracket or tolerance)."""


def _as_float_array(x, name="x"):
    a = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"non-finite input {name!r}")
    return a


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
    bisection resolvent), ``slope_derivative`` and the exact routes
    ``closed_resolvent`` and ``closed_conjugate``.
    """

    kind = "base"
    scale = 1.0
    symmetry_bound = 1e6   # default C_sym when the user states none

    def value(self, x):
        raise NotImplementedError

    def minimal_slope(self, x):
        raise NotImplementedError

    def slope_derivative(self, x):
        """Derivative of ``minimal_slope``; ``inf`` where the graph is vertical."""
        raise NotImplementedError

    def closed_resolvent(self, lam, x):
        raise NotImplementedError

    def yosida_from_resolvent(self, lam, x, j):
        """Yosida value ``(x - j)/lam`` at ``x`` with resolvent point ``j``.

        The abs, Huber and sampled graphs, which have flat parts, override it
        by a closed form in ``x``: on a flat part ``x - j`` is a constant plus
        the rounding of ``j``, and dividing by a small ``lam`` makes that
        rounding break monotonicity and leave the range of the graph.
        """
        return (x - j) / lam

    def closed_conjugate(self, y):
        raise NotImplementedError

    def _key(self):
        """Value identity of the potential (used for config comparisons)."""
        return (type(self).__name__, self.scale)

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(kind={self.kind!r}, scale={self.scale})"


class PowerPotential(Potential):
    """``P(x) = scale * |x|**p / p`` with ``p > 1``.

    The graph is ``x -> scale * |x|**(p-2) * x``; the resolvent has a closed
    form for p in {1.5, 2, 4} (quadratic formula, linear, Cardano) and is
    found by bisection for every other p.
    """

    kind = "power"

    def __init__(self, p, scale=1.0):
        if not p > 1.0:
            raise ValueError("power potential needs p > 1 (use AbsPotential for p = 1)")
        if not scale > 0.0:
            raise ValueError("scale must be positive")
        self.p = float(p)
        self.scale = float(scale)

    def _key(self):
        return (type(self).__name__, self.p, self.scale)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return self.scale * np.abs(x) ** self.p / self.p

    def minimal_slope(self, x):
        x = np.asarray(x, dtype=float)
        return self.scale * np.sign(x) * np.abs(x) ** (self.p - 1.0)

    def slope_derivative(self, x):
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


class AbsPotential(Potential):
    """``P(x) = scale * |x|``; the graph is the scaled sign, multivalued at 0."""

    kind = "abs"

    def __init__(self, scale=1.0):
        if not scale > 0.0:
            raise ValueError("scale must be positive")
        self.scale = float(scale)

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
        return np.clip(x / lam, -self.scale, self.scale)

    def closed_conjugate(self, y):
        y = np.asarray(y, dtype=float)
        inside = np.abs(y) <= self.scale * (1.0 + DOMAIN_SLACK)
        return np.where(inside, 0.0, np.inf)


class HuberPotential(Potential):
    """Quadratic inside ``|x| <= delta``, linear outside (scaled)."""

    kind = "huber"

    def __init__(self, delta=1.0, scale=1.0):
        if not delta > 0.0 or not scale > 0.0:
            raise ValueError("delta and scale must be positive")
        self.delta = float(delta)
        self.scale = float(scale)

    def _key(self):
        return (type(self).__name__, self.delta, self.scale)

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


class ExpCoshPotential(Potential):
    """``P(x) = scale * (cosh(x) - 1)``; superlinear, resolvent by Newton."""

    kind = "expcosh"

    def __init__(self, scale=1.0):
        if not scale > 0.0:
            raise ValueError("scale must be positive")
        self.scale = float(scale)

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

    ``xs``/``gs`` are breakpoints of the derivative, which is interpolated
    linearly between them and extended by its end values outside the range.
    The potential itself is the exact integral of the derivative from 0, so
    ``P(0) = 0`` holds exactly.  A breakpoint at the origin with zero slope is
    inserted automatically; construction fails if the given derivative does
    not vanish at 0 (the potential could not attain its minimum there).
    """

    kind = "piecewise"

    def __init__(self, xs, gs):
        xs = np.asarray(xs, dtype=float)
        gs = np.asarray(gs, dtype=float)
        if xs.ndim != 1 or xs.shape != gs.shape or xs.size < 2:
            raise ValueError("need matching 1-d breakpoint arrays with >= 2 points")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if np.any(np.diff(gs) < -1e-12 * max(1.0, np.abs(gs).max())):
            raise ValueError("derivative samples must be nondecreasing (non-monotone user graph)")
        g0 = float(np.interp(0.0, xs, gs))
        if abs(g0) > ORIGIN_TOL * max(1.0, np.abs(gs).max()):
            raise ValueError("derivative must vanish at the origin (minimum of the potential)")
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
        self.gs = gs
        # cumulative exact integral of the piecewise-linear derivative,
        # anchored so that the origin breakpoint carries exactly 0
        seg = np.diff(xs) * 0.5 * (gs[:-1] + gs[1:])
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        self._cum = cum - cum[int(np.searchsorted(xs, 0.0))]

    def _key(self):
        return (type(self).__name__, self.xs.tobytes(), self.gs.tobytes())

    @classmethod
    def from_value_samples(cls, xs, values):
        """Build from samples ``(x, P(x))``: chord slopes placed at midpoints."""
        xs = np.asarray(xs, dtype=float)
        values = np.asarray(values, dtype=float)
        if xs.ndim != 1 or xs.shape != values.shape or xs.size < 3:
            raise ValueError("need >= 3 value samples")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("sample abscissae must be strictly increasing")
        slopes = np.diff(values) / np.diff(xs)
        mids = 0.5 * (xs[:-1] + xs[1:])
        return cls(mids, slopes)

    @classmethod
    def from_file(cls, path):
        data = np.loadtxt(path, dtype=float)
        if data.ndim != 2 or data.shape[1] != 2:
            raise ValueError(f"{path}: expected two columns (x, P(x))")
        return cls.from_value_samples(data[:, 0], data[:, 1])

    def minimal_slope(self, x):
        return np.interp(np.asarray(x, dtype=float), self.xs, self.gs)

    def slope_derivative(self, x):
        x = np.asarray(x, dtype=float)
        rates = np.diff(self.gs) / np.diff(self.xs)
        idx = np.clip(np.searchsorted(self.xs, x, side="right") - 1, 0, rates.size - 1)
        return np.where((x < self.xs[0]) | (x > self.xs[-1]), 0.0, rates[idx])

    def closed_resolvent(self, lam, x):
        # r + lam*g(r) is piecewise linear with knots xs + lam*gs, so its
        # inverse interpolates; beyond the end knots g is constant
        x = np.asarray(x, dtype=float)
        knots = self.xs + lam * self.gs
        return np.interp(x, knots, self.xs) + (x - np.clip(x, knots[0], knots[-1]))

    def yosida_from_resolvent(self, lam, x, j):
        # g(J) on the same interpolation weights, held flat beyond the ends:
        # stays in the range of the graph where (x - j)/lam would not
        return np.interp(x, self.xs + lam * self.gs, self.gs)

    def closed_conjugate(self, y):
        # the sup of x*y - P(x) is attained where g(x) = y; linear growth
        # beyond the end breakpoints leaves dom P* = [gs[0], gs[-1]]
        y = np.asarray(y, dtype=float)
        x = np.interp(y, self.gs, self.xs)
        lo, hi = self.gs[[0, -1]] * (1.0 + DOMAIN_SLACK)
        return np.where((y >= lo) & (y <= hi), y * x - self.value(x), np.inf)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        xs, gs, cum = self.xs, self.gs, self._cum
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

    The residual is nondecreasing in ``r``; since 0 belongs to the graph at 0
    the bracket ``[min(x,0), max(x,0)]`` already straddles the root for
    catalog graphs, but the bracket is expanded by doubling as a safeguard.
    It stops at width ``ROOT_TOL * max(1, |x|)``, then one Newton step kept
    inside the bracket takes the root to rounding.
    """
    x = np.asarray(x, dtype=float)
    lo = np.minimum(x, 0.0)
    hi = np.maximum(x, 0.0)

    def resid(r):
        return r + lam * np.asarray(pot.minimal_slope(r)) - x

    # a slope overflowing to +-inf far out in the bracket still has the right
    # sign, so the comparisons below need no overflow warning
    with np.errstate(over="ignore"):
        width = np.maximum(1.0, np.abs(x))
        for _ in range(64):
            bad_lo = resid(lo) > 0.0
            bad_hi = resid(hi) < 0.0
            if not bool(np.any(bad_lo) or np.any(bad_hi)):
                break
            lo = np.where(bad_lo, lo - width, lo)
            hi = np.where(bad_hi, hi + width, hi)
            width = width * 2.0
            if np.any(width > BRACKET_CAP):
                raise RootFindError("bracket expansion failed (non-monotone user graph?)")
        else:
            raise RootFindError("bracket expansion failed (non-monotone user graph?)")

        width = ROOT_TOL * np.maximum(1.0, np.abs(x))
        for _ in range(200):
            if np.all(hi - lo <= width):
                break
            mid = 0.5 * (lo + hi)
            neg = resid(mid) < 0.0
            lo = np.where(neg, mid, lo)
            hi = np.where(neg, hi, mid)
        else:
            raise RootFindError(f"bisection did not reach tolerance {ROOT_TOL}")
    r = 0.5 * (lo + hi)
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


def yosida(pot, lam, x, **kw):
    """Yosida map ``G_lam(x) = (x - J_lam(x)) / lam``: monotone, (1/lam)-Lipschitz."""
    xa = _as_float_array(x)
    j = resolvent(pot, lam, xa, **kw)
    return _match(x, pot.yosida_from_resolvent(lam, xa, j))


def moreau_envelope(pot, lam, x, **kw):
    """Moreau envelope ``P_lam(x) = min_r P(r) + |x-r|^2/(2 lam)``.

    Evaluated through the resolvent: ``P(J_lam x) + |x - J_lam x|^2/(2 lam)``.
    Its gradient is the Yosida map of the subdifferential.
    """
    xa = _as_float_array(x)
    j = resolvent(pot, lam, xa, **kw)
    d = xa - j
    return _match(x, pot.value(j) + d * d / (2.0 * lam))


# ---------------------------------------------------------------------------
# conjugacy
# ---------------------------------------------------------------------------

def conjugate(pot, y):
    """Fenchel conjugate ``P*(y) = sup_x x*y - P(x)``.

    Every catalog potential has an exact conjugate.  Returns ``inf`` when the
    supremum diverges (outside the range of a linear-growth graph).
    """
    ya = _as_float_array(y, "y")
    return _match(y, np.asarray(pot.closed_conjugate(ya)))


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

@dataclass
class CheckResult:
    passed: bool
    worst: float
    detail: str
    where: object = None   # the offending sample point, when there is one


@dataclass
class ValidationReport:
    checks: dict

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks.values())

    def lines(self):
        out = []
        for name, c in self.checks.items():
            loc = "" if c.where is None else f" at x={np.asarray(c.where)}"
            out.append(
                f"{'PASS' if c.passed else 'FAIL'} {name}: worst={c.worst:.6g}{loc} {c.detail}"
            )
        return out


def validate_potential(pot, probe_radius, sample_count):
    """Finite sampling probe of the standing assumptions on a potential.

    Checks: exact zero at the origin, nonnegativity, convexity on sampled
    triples (1e-12 relative slack) and the symmetry ratio against
    ``symmetry_bound``.  Failures are report entries, never exceptions.
    """
    if not probe_radius > 0.0:
        raise ValueError("probe_radius must be positive")
    if sample_count < 8:
        raise ValueError("sample_count must be >= 8")
    rng = np.random.default_rng(PROBE_SEED)
    checks = {}

    v0 = float(pot.value(0.0))
    checks["origin"] = CheckResult(v0 == 0.0, v0, "P(0) must be exactly 0")

    xs = probe_radius * (2.0 * rng.random(sample_count) - 1.0)
    vals = np.asarray(pot.value(xs))
    k = int(np.argmin(vals))
    worst = float(vals[k])
    checks["nonnegative"] = CheckResult(worst >= 0.0, worst, "min sampled value", xs[k])

    ys = probe_radius * (2.0 * rng.random(sample_count) - 1.0)
    theta = rng.random(sample_count)
    mix = theta * xs + (1.0 - theta) * ys
    lhs = np.asarray(pot.value(mix))
    rhs = theta * vals + (1.0 - theta) * np.asarray(pot.value(ys))
    gap = lhs - rhs - 1e-12 * (1.0 + np.abs(rhs))
    k = int(np.argmax(gap))
    worst = float(gap[k])
    checks["convex"] = CheckResult(worst <= 0.0, worst, "midpoint inequality violation", mix[k])

    neg_vals = np.asarray(pot.value(-xs))
    mask = neg_vals > 0.0
    if np.any(mask):
        ratios = vals[mask] / neg_vals[mask]
        k = int(np.argmax(ratios))
        ratio = float(ratios[k])
        where = xs[mask][k]
    else:
        ratio, where = 0.0, None
    checks["symmetry"] = CheckResult(
        ratio <= pot.symmetry_bound,
        ratio,
        f"max P(x)/P(-x) vs C_sym={pot.symmetry_bound:g}",
        where,
    )
    return ValidationReport(checks)
