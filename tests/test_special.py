"""The Harrell-Davis weights and the regularized incomplete beta they integrate.

`estimators._hd_weights` takes weight i as the Beta((n+1)q, (n+1)(1-q))
mass of the cell [(i-1)/n, i/n], computed in the package by cell
quadrature and normalized to sum 1.  scipy.special.betainc, that
distribution's CDF, serves as an independent oracle: the first tests hold
it to the accuracy the weights need, and the weights' running sums are
compared with it and with 30-digit mpmath values at the same
floating-point grid points.
"""

from itertools import accumulate
from math import exp, lgamma

import mpmath
import numpy as np
import pytest
from mpmath import mp, mpf
from scipy import integrate
from scipy.special import betainc

from errstat.estimators import _GAUSS_LEGENDRE, _end_series, _hd_weights, quantile_hd


def quad_oracle(a, b, x):
    """Adaptive numerical integration of the beta density up to x."""
    ln_beta = lgamma(a) + lgamma(b) - lgamma(a + b)

    def pdf(t):
        return exp((a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t) - ln_beta)

    return integrate.quad(pdf, 0.0, x, epsabs=1e-14, epsrel=1e-13, limit=400)[0]


@pytest.mark.parametrize(
    "a,b",
    [(0.5, 0.5), (1.0, 1.0), (2.0, 3.0), (5.5, 4.5), (30.0, 70.0), (300.0, 200.0)],
)
def test_matches_quad_oracle(a, b):
    for x in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        ref = quad_oracle(a, b, x)
        got = betainc(a, b, x)
        assert got == pytest.approx(ref, rel=1e-10, abs=1e-14)


def _mp_ref(a, b, x):
    for dps in (40, 80, 160):
        with mp.workdps(dps):
            try:
                return float(mpmath.betainc(a, b, 0, x, regularized=True))
            except ValueError:
                continue
    return None


def test_matches_mpmath_to_1e10_up_to_large_shapes():
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(60):
        a = float(10 ** rng.uniform(-0.5, 4.0))
        b = float(10 ** rng.uniform(-0.5, 4.0))
        mean = a / (a + b)
        for x in (0.5 * mean, mean, mean + 0.5 * (1 - mean), 0.999):
            ref = _mp_ref(a, b, x)
            if ref is None or ref < 1e-280:
                continue
            assert betainc(a, b, x) == pytest.approx(ref, rel=1e-10, abs=1e-300)
            checked += 1
    assert checked > 150


def test_huge_shapes_stay_accurate_enough():
    # At a + b ~ 1e6, scipy's betainc stays within about 5e-14 relative
    # at these points (a hand-written lgamma-based CDF managed only 1e-9).
    n, q = 1_000_000, 0.95
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    for x in (0.9494, 0.95, 0.9506):
        with mp.workdps(40):
            ref = float(mpmath.betainc(a, b, 0, x, regularized=True))
        assert betainc(a, b, x) == pytest.approx(ref, rel=1e-12)


def test_edges_and_validation():
    # The weight window may run to either end of [0, 1], where the CDF is
    # exact, and the weights of a full window sum to 1.
    for n, q in ((2, 0.5), (10, 0.05), (23, 0.95)):
        a, b = (n + 1) * q, (n + 1) * (1 - q)
        assert betainc(a, b, 0.0) == 0.0
        assert betainc(a, b, 1.0) == 1.0
        lo, w = _hd_weights(n, q)
        assert (lo, w.size) == (0, n)
        assert w.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        quantile_hd(np.array([1.0]), 0.5)
    for q in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            quantile_hd(np.array([1.0, 2.0]), q)


def test_vectorized_matches_scalar():
    xs = np.linspace(0.0, 1.0, 21)
    vec = betainc(3.5, 2.5, xs)
    assert vec.shape == xs.shape
    for x, v in zip(xs, vec):
        assert v == betainc(3.5, 2.5, float(x))
    # The running sums of the weights are CDF increments on the same grid.
    n, q = 23, 0.77
    lo, w = _hd_weights(n, q)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [betainc(a, b, i / n) for i in range(lo, lo + w.size + 1)]
    np.testing.assert_allclose(np.cumsum(w), np.array(cdf[1:]) - cdf[0], rtol=0, atol=2e-15)


def test_monotone_in_x():
    xs = np.linspace(0.001, 0.999, 200)
    vals = betainc(4.0, 9.0, xs)
    assert np.all(np.diff(vals) >= 0)
    for n in (2, 37, 5000):
        for q in (0.05, 0.5, 0.95):
            assert np.all(_hd_weights(n, q)[1] >= 0)


def _mp_mass(a, b, x0, x1):
    """Beta(a, b) probability of [x0, x1] in mpmath.

    A shape at or below 1 puts an integrable singularity at an end of
    [0, 1], which mpmath's betainc handles.  Above 1 the density is
    smooth; it is integrated scaled by its value at the interval's point
    nearest the mode, so that the quadrature's absolute error bound acts
    as a relative one, and the precision is raised until that bound is
    below 1e-25 of the result.  (betainc's hypergeometric series does not
    converge at n = 10^6 for q <= 0.5, at any precision tried.)
    """
    a, b = mpf(a), mpf(b)
    if min(a, b) <= 1:
        with mp.workdps(40):
            return mp.betainc(a, b, x0, x1, regularized=True)

    def log_pdf(t):
        return (a - 1) * mp.log(t) + (b - 1) * mp.log1p(-t)

    for dps in (40, 80, 160):
        with mp.workdps(dps):
            m = min(max((a - 1) / (a + b - 2), x0), x1)
            peak = log_pdf(m)
            value, err = mp.quad(lambda t: mp.exp(log_pdf(t) - peak), [x0, m, x1], error=True)
            if err <= 1e-25 * value:
                return value * mp.exp(peak + mp.loggamma(a + b) - mp.loggamma(a) - mp.loggamma(b))
    raise AssertionError(f"quadrature did not converge on [{x0}, {x1}] for Beta({a}, {b})")


@pytest.mark.parametrize("n", [10, 23, 60, 100])
@pytest.mark.parametrize("q", [0.001, 0.999])
def test_hd_weights_sum_to_one_at_extreme_levels(n, q):
    # Most of the mass lies in the cell at an end of [0, 1], and a window
    # sized by the normal approximation would cut off part of its tail.
    # test_hd_weights_match_mpmath checks that the window holds all the mass.
    assert _hd_weights(n, q)[1].sum() == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "n,q",
    [(n, q) for n in (2, 10, 23, 60, 100, 1000, 5000, 10**6) for q in (0.05, 0.5, 0.95)]
    + [(n, q) for n in (2, 10, 23, 60, 100, 1000, 5000) for q in (0.001, 0.999)],
)
def test_hd_weights_match_mpmath(n, q):
    lo, w = _hd_weights(n, q)
    assert np.all(w >= 0)
    a, b = (n + 1.0) * q, (n + 1.0) * (1.0 - q)
    ends = np.unique(np.linspace(0, w.size - 1, 25).astype(int))
    got = np.cumsum(w)[ends]
    # The cumulative weight through w[j] is I(x_{lo+j+1}) - I(x_lo) on the float grid.
    grid = [mpf(x) for x in np.concatenate(([lo], lo + ends + 1)) / n]
    ref = np.array([float(s) for s in accumulate(_mp_mass(a, b, x0, x1) for x0, x1 in zip(grid, grid[1:]))])
    # The last check point holds the whole window: all the mass there is.
    assert ref[-1] == pytest.approx(1.0, abs=1e-15)
    # At 10^6 the bound is relative to the unit total weight: absolute
    # errors far too small to move a Harrell-Davis estimate.
    bound = 2e-15 if n <= 5000 else 1e-13
    assert np.max(np.abs(got - ref)) <= bound


def _hd_weights_full_grid(n, q):
    """The Harrell-Davis weights with the window chosen on all n + 1 edges: the reference."""
    if n == 1:
        return 0, np.ones(1)
    a, b = (n + 1.0) * q, (n + 1.0) * (1.0 - q)
    c = (a - 1.0) / (a + b - 2.0) if min(a, b) >= 2.0 else a / (a + b)

    def log_ratio(t):
        d = t - c
        lt = np.where(np.abs(d) < c / 2, np.log1p(d / c), np.log(t / c))
        lu = np.where(np.abs(d) < (1 - c) / 2, np.log1p(-d / (1 - c)), np.log((1 - t) / (1 - c)))
        return (a - 1.0) * lt + (b - 1.0) * lu

    with np.errstate(divide="ignore", invalid="ignore"):
        edges = log_ratio(np.arange(n + 1) / n)
    keep = np.flatnonzero(np.fmax(edges[:-1], edges[1:]) > -100.0)
    lo, hi = int(keep[0]), int(keep[-1]) + 1
    x = np.arange(lo, hi + 1) / n
    nodes, gw = _GAUSS_LEGENDRE
    half = np.diff(x)[:, None] / 2
    mass = (np.exp(log_ratio(x[:-1, None] + half * (1 + nodes))) * gw).sum(axis=1) * half[:, 0]
    if lo == 0:
        mass[0] = x[1] * (1 - x[1]) / a * np.exp(edges[1]) * _end_series(a, b, x[1])
    if hi == n:
        mass[-1] = (1 - x[-2]) * x[-2] / b * np.exp(edges[-2]) * _end_series(b, a, 1 - x[-2])
    return lo, mass / mass.sum()


@pytest.mark.parametrize("n", [1, 2, 10, 23, 60, 100, 5000, 10**6])
@pytest.mark.parametrize("q", [0.001, 0.05, 0.5, 0.95, 0.999])
def test_hd_window_search_matches_full_grid(n, q):
    # The window grows outward from c instead of scanning every edge; the
    # kept cells, and so every weight, are the same to the bit.
    lo, w = _hd_weights(n, q)
    ref_lo, ref_w = _hd_weights_full_grid(n, q)
    assert lo == ref_lo
    assert w.shape == ref_w.shape and np.array_equal(w.view(np.int64), ref_w.view(np.int64))


def test_gauss_legendre_constants_are_leggauss():
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(16)
    assert np.array_equal(_GAUSS_LEGENDRE[0], nodes) and np.array_equal(_GAUSS_LEGENDRE[1], weights)


def test_gauss_legendre_constants_match_mpmath():
    # The roots x of the Legendre polynomial P16 and the weights
    # 2 / ((1 - x^2) P16'(x)^2), at 40 digits.  leggauss's nodes are within
    # 2 ulp, but its weights are up to 63 ulp off (under 1e-14 relative);
    # rounding them better would move every Harrell-Davis weight.
    nodes, weights = _GAUSS_LEGENDRE
    with mp.workdps(40):
        for x, w in zip(nodes, weights):
            root = mp.findroot(lambda t: mp.legendre(16, t), mpf(x))
            slope = 16 * (root * mp.legendre(16, root) - mp.legendre(15, root)) / (root**2 - 1)
            ref_w = 2 / ((1 - root**2) * slope**2)
            assert abs(mpf(x) - root) <= 2 * np.spacing(abs(x))
            assert abs(mpf(w) - ref_w) <= 1e-14 * w
