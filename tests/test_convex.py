"""Convex-calculus tests: catalog values against independent oracles."""

import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dnpde import convex
from dnpde.convex import (
    AbsPotential,
    ExpCoshPotential,
    HuberPotential,
    PowerPotential,
    SampledSlopePotential,
)

_XS = np.linspace(-4.0, 4.0, 81)

# parametrize ids of the catalog classes
_IDS = {
    PowerPotential: "power",
    AbsPotential: "abs",
    HuberPotential: "huber",
    ExpCoshPotential: "expcosh",
    SampledSlopePotential: "piecewise",
}
CATALOG = [
    PowerPotential(2.0),
    PowerPotential(1.5),
    PowerPotential(4.0),
    AbsPotential(),
    HuberPotential(1.0),
    ExpCoshPotential(),
    SampledSlopePotential.from_value_samples(_XS, np.abs(_XS)),   # flat beyond |x| = 0.05
]


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def bisect_oracle(slope, lam, x, lo=-64.0, hi=64.0):
    """Plain scalar bisection on r + lam*slope(r) = x, independent of the library."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid + lam * slope(mid) - x < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def grid_min_oracle(fn, lo, hi, n=400001):
    xs = np.linspace(lo, hi, n)
    return float(fn(xs).min())


def grid_sup_oracle(fn, lo, hi, n=400001):
    xs = np.linspace(lo, hi, n)
    return float(fn(xs).max())


# ---------------------------------------------------------------------------
# catalog evaluation examples
# ---------------------------------------------------------------------------

def test_eval_examples():
    assert PowerPotential(2.0).value(0.0) == 0.0
    assert PowerPotential(4.0).value(1.0) == 0.25
    assert AbsPotential().value(-3.0) == 3.0


def test_public_functions_reject_non_finite_input():
    pot = PowerPotential(2.0)
    for call in (
        lambda: convex.resolvent(pot, 1.0, math.nan),
        lambda: convex.yosida(pot, 1.0, [0.0, math.inf]),
        lambda: convex.moreau_envelope(pot, 1.0, math.nan),
        lambda: convex.fenchel_residual(pot, 1.0, math.nan),
    ):
        with pytest.raises(ValueError, match="non-finite"):
            call()


def test_resolvent_examples():
    # linear graph: closed form x / (1 + lam)
    assert convex.resolvent(PowerPotential(2.0), 1.0, 2.0) == pytest.approx(1.0, abs=1e-14)
    # sign graph at x = 0.5, lam = 1: oracle says 0 (soft threshold region)
    oracle = bisect_oracle(lambda r: np.sign(r), 1.0, 0.5)
    assert abs(oracle) < 1e-12
    assert convex.resolvent(AbsPotential(), 1.0, 0.5) == pytest.approx(0.0, abs=1e-12)
    # cubic graph at x = 2, lam = 1: oracle for r + r^3 = 2 gives 1
    oracle = bisect_oracle(lambda r: r**3, 1.0, 2.0)
    assert oracle == pytest.approx(1.0, abs=1e-12)
    assert convex.resolvent(PowerPotential(4.0), 1.0, 2.0) == pytest.approx(1.0, abs=1e-12)


def test_yosida_examples():
    for pot in CATALOG:
        assert convex.yosida(pot, 0.7, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert convex.yosida(AbsPotential(), 1.0, 2.0) == pytest.approx(1.0, abs=1e-12)
    assert convex.yosida(PowerPotential(2.0), 1.0, 2.0) == pytest.approx(1.0, abs=1e-14)


def test_moreau_examples():
    assert convex.moreau_envelope(AbsPotential(), 1.0, 0.0) == 0.0
    oracle = grid_min_oracle(lambda r: np.abs(r) + (2.0 - r) ** 2 / 2.0, -4.0, 4.0)
    assert oracle == pytest.approx(1.5, abs=1e-9)
    assert convex.moreau_envelope(AbsPotential(), 1.0, 2.0) == pytest.approx(1.5, abs=1e-12)
    oracle = grid_min_oracle(lambda r: r**2 / 2 + (2.0 - r) ** 2 / 2.0, -4.0, 4.0)
    assert oracle == pytest.approx(1.0, abs=1e-9)
    assert convex.moreau_envelope(PowerPotential(2.0), 1.0, 2.0) == pytest.approx(1.0, abs=1e-12)


def test_conjugate_examples():
    for pot in CATALOG:
        assert pot.closed_conjugate(0.0) == pytest.approx(0.0, abs=1e-12)
    oracle = grid_sup_oracle(lambda x: x * 1.0 - x**2 / 2, -10.0, 10.0)
    assert oracle == pytest.approx(0.5, abs=1e-9)
    assert PowerPotential(2.0).closed_conjugate(1.0) == pytest.approx(0.5, abs=1e-12)
    assert AbsPotential().closed_conjugate(2.0) == math.inf
    assert AbsPotential().closed_conjugate(0.5) == 0.0


@pytest.mark.parametrize("pot", CATALOG, ids=lambda p: _IDS[type(p)])
def test_fenchel_residual_refusals(pot):
    # one finiteness test on the residual, then the cause of a failure
    y_out = 2.0 * np.max(np.abs(pot.minimal_slope(np.linspace(-50.0, 50.0, 11))))
    bounded = not np.isfinite(pot.closed_conjugate(y_out))
    cases = [
        ((math.nan, 0.5), "non-finite input 'x'"),
        ((math.inf, 0.5), "non-finite input 'x'"),
        ((0.5, math.nan), "non-finite input 'y'"),
        ((0.5, -math.inf), "non-finite input 'y'"),
        ((math.nan, math.inf), "non-finite input 'x'"),
    ]
    if bounded:
        cases.append(((0.5, y_out), "infinite conjugate: y outside dom P\\*"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for (x, y), msg in cases:
            with pytest.raises(ValueError, match=f"^{msg}$"):
                convex.fenchel_residual(pot, x, y)
            xs, ys = np.full(5, 0.25), np.full(5, 0.1)
            xs[3], ys[3] = x, y
            with pytest.raises(ValueError, match=f"^{msg}$"):
                convex.fenchel_residual(pot, xs, ys)
        res = convex.fenchel_residual(pot, np.full(5, 0.25), np.full(5, 0.1))
        assert res.shape == (5,) and np.all(np.isfinite(res))
        assert isinstance(convex.fenchel_residual(pot, 0.25, 0.1), float)


def test_fenchel_examples():
    assert convex.fenchel_residual(PowerPotential(2.0), 1.0, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert convex.fenchel_residual(PowerPotential(2.0), 1.0, 0.0) == pytest.approx(0.5, abs=1e-14)
    with pytest.raises(ValueError):
        convex.fenchel_residual(AbsPotential(), 1.0, 2.0)


# ---------------------------------------------------------------------------
# module invariants
# ---------------------------------------------------------------------------

def test_resolvent_nonexpansive_bulk():
    rng = np.random.default_rng(5)
    for pot in CATALOG:
        x = rng.uniform(-20, 20, 1000)
        y = rng.uniform(-20, 20, 1000)
        for lam in (1.0, 0.1, 0.01):
            jx = convex.resolvent(pot, lam, x)
            jy = convex.resolvent(pot, lam, y)
            assert np.all(np.abs(jx - jy) <= np.abs(x - y) + 1e-10)
            gx = convex.yosida(pot, lam, x)
            gy = convex.yosida(pot, lam, y)
            assert np.all(np.abs(gx - gy) <= np.abs(x - y) / lam + 1e-10)
            # identity x = J + lam*G is exact by construction
            assert np.abs(x - (jx + lam * gx)).max() <= 1e-12


def test_oracle_equivalence_bisect_vs_closed():
    rng = np.random.default_rng(7)
    for pot in [PowerPotential(2.0), PowerPotential(1.5), PowerPotential(4.0), AbsPotential()]:
        x = rng.uniform(-10, 10, 1000)
        for lam in (1.0, 0.05):
            a = convex.resolvent(pot, lam, x)
            b = convex.resolvent(pot, lam, x, force_bisect=True)
            assert np.abs(a - b).max() <= 1e-10
    # the Newton and interpolation routes agree with bisection to rounding
    xs = np.linspace(-8, 8, 161)
    for pot in [
        ExpCoshPotential(),
        SampledSlopePotential.from_value_samples(xs, np.abs(xs) ** 3 / 3),
        CATALOG[-1],
        SampledSlopePotential([-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]),
    ]:
        x = np.concatenate([[0.0, 1e-300, 3e5, -3e5, 700.0], 5.0 * rng.standard_normal(500)])
        for lam in (1e-8, 1e-3, 0.5, 10.0):
            a = convex.resolvent(pot, lam, x)
            b = convex.resolvent(pot, lam, x, force_bisect=True)
            assert np.all(np.abs(a - b) <= 1e-14 * np.maximum(1.0, np.abs(x))), (pot, lam)


def test_bisection_resolvent_reaches_rounding():
    # r + lam*g(r) = x holds to the rounding of its terms, also for |x| far
    # beyond 1, where a bracket width of 1e-12 is below an ulp of the root
    xs = np.linspace(-8, 8, 161)
    sampled = SampledSlopePotential.from_value_samples(xs, np.abs(xs) ** 3 / 3)
    x = np.linspace(-30.0, 30.0, 601)
    big = np.array([1e4, -3e5])
    for pot, x in ((sampled, np.concatenate([x, big])), (ExpCoshPotential(), x),
                   (PowerPotential(3.0), np.concatenate([x, big]))):
        for lam in (0.01, 0.3):
            r = convex.resolvent(pot, lam, x)
            resid = r + lam * pot.minimal_slope(r) - x
            scale = np.abs(x) + (1.0 + lam * pot.slope_derivative(r)) * np.maximum(1.0, np.abs(r))
            assert np.all(np.abs(resid) <= 4 * np.finfo(float).eps * scale)


def decimal_resolvent_oracle(p, c, a):
    """Root of ``r + c*r**(p-1) = a`` (a > 0, p in {1.5, 4}) by Newton in 60-digit decimals.

    For p = 1.5 the unknown is ``t = sqrt(r)`` (``t^2 + c t = a``).  Both
    residuals are convex and increasing, so Newton from the upper starting
    point descends monotonically to the root.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        c, a = Decimal(c), Decimal(a)
        if p == 4.0:
            f, df = (lambda r: c * r**3 + r - a), (lambda r: 3 * c * r * r + 1)
            r = min(a, (a / c) ** (Decimal(1) / 3))
        else:
            f, df = (lambda t: t * t + c * t - a), (lambda t: 2 * t + c)
            r = min(a / c, a.sqrt())
        for _ in range(1000):
            step = f(r) / df(r)
            r -= step
            if abs(step) <= Decimal("1e-50") * r:
                break
        return r if p == 4.0 else r * r


@pytest.mark.parametrize("p", [1.5, 4.0])
def test_closed_resolvent_matches_decimal_oracle(p):
    # the closed forms have no cancellation, also where lam*scale is tiny or huge
    pot = PowerPotential(p)
    for c in (1e-8, 1e-4, 1 / 128, 1.0, 100.0):
        for a in (1e-12, 0.0334, 1.0, 40.0, 1e4):
            want = decimal_resolvent_oracle(p, c, a)
            for sign in (1.0, -1.0):
                got = float(convex.resolvent(pot, c, sign * a))
                assert math.copysign(1.0, got) == sign
                assert abs(Decimal(abs(got)) - want) <= Decimal("1e-15") * want, (c, a)


def test_bisection_overflow_is_silent():
    # sinh overflows to +-inf at the far end of the bracket; no warning escapes
    pot, lam = ExpCoshPotential(), 0.3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (3e5, -3e5):
            r = convex.resolvent(pot, lam, x)
            assert abs(r + lam * math.sinh(r) - x) <= 1e-9 * abs(x)


def test_bisection_reaches_the_float_limit():
    # the midpoint 0.5*lo + 0.5*hi cannot overflow: 0.5*(lo + hi) did beyond
    # DBL_MAX/2 and the bisection then failed; it now meets the closed routes
    for pot in (AbsPotential(), PowerPotential(2.0)):
        for x in (1e308, -1e308, 9e307, np.finfo(float).max):
            b = convex.resolvent(pot, 1.0, x, force_bisect=True)
            assert math.isfinite(b) and b == convex.resolvent(pot, 1.0, x)
        # an infinite entry (the solver's states may overflow) used to turn its
        # bracket into nan and hold the finite entries until bisection failed
        with np.errstate(over="ignore", invalid="ignore"):   # as the solver evaluates states
            r = convex._bisect_scalar_graph(pot, 1.0, np.array([1.0, np.inf, -np.inf]))
        assert r.tolist() == [convex.resolvent(pot, 1.0, 1.0), np.inf, -np.inf]


def test_bisection_refuses_a_bracket_without_the_root():
    class Tilted(PowerPotential):   # g(0) = 1: for x < 1 the root of r + g(r) = x
        def minimal_slope(self, x):   # lies outside [min(x,0), max(x,0)]
            return super().minimal_slope(x) + 1.0

    for x in (0.5, -0.5, 0.0):
        with pytest.raises(convex.RootFindError, match="does not bracket"):
            convex.resolvent(Tilted(3.0), 1.0, x, force_bisect=True)


@pytest.mark.parametrize("pot", CATALOG + [PowerPotential(3.0)], ids=lambda p: _IDS[type(p)])
def test_catalog_bracket_holds_the_root(pot):
    # g(0) = 0 for every catalog graph, so its bracket needs no expansion
    x = np.array([1e-300, -1e-300, 1.0, -1.0, 1e300, -1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in (1.0, 1e-3):
            r = convex.resolvent(pot, lam, x, force_bisect=True)
            assert np.all((np.minimum(x, 0.0) <= r) & (r <= np.maximum(x, 0.0)))


def test_envelope_gradient_matches_yosida():
    rng = np.random.default_rng(9)
    lam = 0.37
    for pot in (PowerPotential(4.0), ExpCoshPotential()):
        xs = rng.uniform(0.3, 3.0, 30) * rng.choice([-1.0, 1.0], 30)
        exact = convex.yosida(pot, lam, xs)
        errs = []
        for s in (1e-2, 5e-3):
            fd = (
                convex.moreau_envelope(pot, lam, xs + s)
                - convex.moreau_envelope(pot, lam, xs - s)
            ) / (2 * s)
            errs.append(np.abs(fd - exact))
        above = errs[0] > 1e-11
        assert np.all(np.log2(errs[0][above] / errs[1][above]) >= 1.9)


def test_fenchel_equality_on_regularized_graph():
    rng = np.random.default_rng(13)
    for pot in CATALOG:
        x = rng.uniform(-8, 8, 500)
        for lam in (1.0, 0.1, 0.01):
            j = convex.resolvent(pot, lam, x)
            g = convex.yosida(pot, lam, x)
            res = convex.fenchel_residual(pot, j, g)
            assert np.abs(res).max() <= 1e-8
            assert np.min(res) >= -1e-10


def test_graph_convergence_to_minimal_section():
    cases = [
        (AbsPotential(), 0.5),
        (PowerPotential(4.0), 1.2),
        (HuberPotential(1.0), 0.4),
    ]
    for pot, x in cases:
        target = float(pot.minimal_slope(x))
        gaps = []
        for k in range(11):
            lam = 2.0**-k
            gaps.append(abs(convex.yosida(pot, lam, x) - target))
        assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 0.02 * max(1.0, abs(target))


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(-40.0, 40.0),
    y=st.floats(-40.0, 40.0),
    lam=st.floats(0.01, 2.0),
    idx=st.integers(0, len(CATALOG) - 1),
)
def test_property_resolvent_nonexpansive(x, y, lam, idx):
    pot = CATALOG[idx]
    jx = convex.resolvent(pot, lam, x)
    jy = convex.resolvent(pot, lam, y)
    assert abs(jx - jy) <= abs(x - y) + 1e-10


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(-40.0, 40.0),
    y=st.floats(-40.0, 40.0),
    idx=st.integers(0, len(CATALOG) - 1),
)
@example(x=0.0, y=0.033376606665925124, idx=2)   # p = 4 closed form at lam*scale = 1e-8
@example(x=1.0, y=2.0, idx=3)                    # soft threshold: G on the flat part
@example(x=1.0, y=2.0, idx=6)                    # sampled |x|: G on the flat part
def test_property_graph_monotone(x, y, idx):
    # the Yosida value at a tiny lambda selects from the graph
    gx = convex.yosida(CATALOG[idx], 1e-8, x)
    gy = convex.yosida(CATALOG[idx], 1e-8, y)
    assert (gx - gy) * (x - y) >= -1e-12


# ---------------------------------------------------------------------------
# sampled / piecewise potentials
# ---------------------------------------------------------------------------

def test_sampled_conjugate_matches_grid_sup():
    xs = np.linspace(-8, 8, 161)
    for pot, ys in [
        (SampledSlopePotential.from_value_samples(xs, np.abs(xs) ** 3 / 3), [0.3, -2.5, 10.0]),
        (CATALOG[-1], [0.5, -0.99, 1.0]),
        (SampledSlopePotential([-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]), [0.4, -1.0]),
    ]:
        for y in ys:
            oracle = grid_sup_oracle(lambda x: x * y - pot.value(x), -20.0, 20.0)
            assert pot.closed_conjugate(y) == pytest.approx(oracle, abs=1e-7)


def test_sampled_huber_graph_matches_huber_closed_forms():
    # the three-point graph through (+-delta, +-delta) is the Huber slope
    delta = 0.7
    sampled = SampledSlopePotential([-delta, 0.0, delta], [-delta, 0.0, delta])
    huber = HuberPotential(delta)
    x = np.concatenate([np.linspace(-30.0, 30.0, 2001), [1e-300, 3e5, -3e5]])
    for lam in (1e-8, 1e-3, 0.5, 10.0):
        for fn in (convex.resolvent, convex.yosida):
            a, b = fn(sampled, lam, x), fn(huber, lam, x)
            assert np.all(np.abs(a - b) <= 1e-14 * np.maximum(1.0, np.abs(x)))
    y = np.linspace(-delta, delta, 101)
    assert np.abs(sampled.closed_conjugate(y) - huber.closed_conjugate(y)).max() <= 1e-15
    assert sampled.closed_conjugate(1.01 * delta) == math.inf


def test_sampled_potential_from_values(tmp_path):
    xs = np.linspace(-3, 3, 61)
    data = np.column_stack([xs, 0.5 * xs**2])
    path = tmp_path / "pot.txt"
    np.savetxt(path, data)
    pot = SampledSlopePotential.from_file(path)
    # chord slopes of a quadratic reproduce the derivative exactly at midpoints
    x = np.array([-2.0, -0.3, 0.0, 1.7])
    assert np.abs(pot.minimal_slope(x) - x).max() <= 1e-12
    assert pot.value(0.0) == 0.0
    assert np.abs(pot.value(x) - 0.5 * x**2).max() <= 1e-3
    j = convex.resolvent(pot, 0.5, 2.0)
    assert j == pytest.approx(2.0 / 1.5, abs=1e-6)


def test_sampled_potential_rejects_bad_input(tmp_path):
    with pytest.raises(ValueError):
        SampledSlopePotential([0.0, 1.0], [1.0, 0.0])       # decreasing slope
    with pytest.raises(ValueError):
        SampledSlopePotential([1.0, 0.5], [0.0, 1.0])       # x not increasing
    with pytest.raises(ValueError):
        SampledSlopePotential([-1.0, 1.0], [0.5, 1.0])      # slope(0) != 0
    # non-finite breakpoints, slopes and value samples used to build graphs
    # with value(0.5) = inf that failed the graph certificate of a run
    with pytest.raises(ValueError, match="^slopes must be finite"):
        SampledSlopePotential([-1.0, 0.0, 1.0], [-1.0, 0.0, math.inf])
    with pytest.raises(ValueError, match="^xs must be finite"):
        SampledSlopePotential([-1.0, 0.0, math.nan], [-1.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="^values must be finite"):
        SampledSlopePotential.from_value_samples([-1.0, 0.0, 1.0], [1.0, 0.0, math.inf])
    with pytest.raises(ValueError, match="^xs must be finite"):
        SampledSlopePotential.from_value_samples([-1.0, 0.0, math.inf], [1.0, 0.0, 1.0])
    path = tmp_path / "pot.txt"
    path.write_text("-1 1\n0 0\n1 nan\n")
    with pytest.raises(ValueError, match="^path .*: values must be finite"):
        SampledSlopePotential.from_file(path)
    with pytest.raises(ValueError, match="^path .*nothere.txt"):   # used to be an OSError
        SampledSlopePotential.from_file(tmp_path / "nothere.txt")


def test_value_samples_refuse_short_unsorted_and_three_column_input(tmp_path):
    with pytest.raises(ValueError, match=r"^need >= 3 value samples$"):
        SampledSlopePotential.from_value_samples([-1.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match=r"^sample abscissae must be strictly increasing$"):
        SampledSlopePotential.from_value_samples([-1.0, 1.0, 0.0], [1.0, 1.0, 0.0])
    path = tmp_path / "pot.txt"
    path.write_text("-1 1 0\n0 0 0\n1 1 0\n")
    with pytest.raises(ValueError) as err:
        SampledSlopePotential.from_file(path)
    assert str(err.value) == f"path {path}: expected two columns (x, P(x))"


@pytest.mark.parametrize("lam", [0.0, -0.5])
def test_resolvent_refuses_a_non_positive_lambda(lam):
    with pytest.raises(ValueError, match=r"^lam must be positive$"):
        convex.resolvent(PowerPotential(2.0), lam, 1.0)


def test_expcosh_newton_refuses_past_its_cap(monkeypatch):
    # from r0 = asinh(5) the first Newton iterate still falls, so a cap of
    # one iteration is met before the search settles
    monkeypatch.setattr(convex, "NEWTON_CAP", 1)
    with pytest.raises(convex.RootFindError, match=r"^exp-cosh Newton did not settle in 1 iterations$"):
        ExpCoshPotential().closed_resolvent(1.0, np.array([5.0]))


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_catalog_rejects_non_finite_parameters(bad):
    # an infinite p or scale used to build a potential whose runs fail
    builds = [
        lambda: PowerPotential(bad),
        lambda: PowerPotential(2.0, scale=bad),
        lambda: AbsPotential(scale=bad),
        lambda: HuberPotential(1.0, scale=bad),
        lambda: HuberPotential(bad),
        lambda: ExpCoshPotential(scale=bad),
    ]
    for build in builds:
        with pytest.raises(ValueError, match="finite"):
            build()


def test_sampled_linear_growth_conjugate_diverges():
    pot = SampledSlopePotential([-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0])
    assert pot.closed_conjugate(3.0) == math.inf
    assert pot.closed_conjugate(0.4) < math.inf


# ---------------------------------------------------------------------------
# validation probes
# ---------------------------------------------------------------------------

_CHECKS = ("origin", "nonnegative", "convex", "symmetry")


def _verdicts(*failing):
    return {name: name not in failing for name in _CHECKS}


def test_validate_quadratic_passes():
    checks = convex.validate_potential(PowerPotential(2.0))
    assert checks == _verdicts(), checks


def test_validate_shifted_potential_fails_origin():
    class Shifted(PowerPotential):
        def value(self, x):
            return super().value(x) + 0.1

    checks = convex.validate_potential(Shifted(2.0))
    assert checks == _verdicts("origin"), checks


def test_symmetry_bound_respected():
    checks = convex.validate_potential(PowerPotential(3.0))
    assert checks["symmetry"] is True   # even potential: ratio 1 <= 1e6


class _Dipped(PowerPotential):   # 0.5 x^2 - 0.5 |x|^1.5 < 0 on 0 < |x| < 1
    def value(self, x):
        return super().value(x) - 0.5 * np.abs(np.asarray(x, dtype=float)) ** 1.5


class _Root(AbsPotential):   # sqrt|x|: concave on each side
    def value(self, x):
        return np.sqrt(np.abs(np.asarray(x, dtype=float)))


@pytest.mark.parametrize("pot, failing", [
    (_Dipped(2.0), ("nonnegative",)),
    (_Root(), ("convex",)),
    # P(x)/P(-x) = 1e9 on (0, 1]: beyond SYMMETRY_BOUND = 1e6
    (SampledSlopePotential([-1.0, 0.0, 1.0], [-1e-9, 0.0, 1.0]), ("symmetry",)),
], ids=["nonnegative", "convex", "symmetry"])
def test_validate_potential_reports_each_failure(pot, failing):
    assert convex.validate_potential(pot) == _verdicts(*failing)
