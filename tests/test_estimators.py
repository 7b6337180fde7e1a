import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from math import exp, lgamma
from scipy import integrate

from errstat.estimators import (
    StatKind,
    _Resampled,
    _hd_weights,
    _order_stats,
    evaluate,
    evaluate_rows,
    median,
    percentile,
    quantile_hd,
    quantile_type7,
    weighted_sums,
)
from errstat.simulation import _SUMMARY_QS

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
error_vectors = st.lists(finite_floats, min_size=2, max_size=60).map(np.asarray)


# ---------------------------------------------------------------- StatKind

def test_statkind_parse_and_validation():
    assert StatKind.parse("mue").kind == "mue"
    assert StatKind.parse("q95") == StatKind.quantile(0.95, "hd")
    assert StatKind.parse("q90", method="type7").quantile_method == "type7"
    with pytest.raises(ValueError):
        StatKind.parse("rmse")
    with pytest.raises(ValueError):
        StatKind.quantile(1.0)
    with pytest.raises(ValueError):
        StatKind("q", q=0.0)
    with pytest.raises(ValueError):
        StatKind("mue", quantile_method="nearest")


# ---------------------------------------------------------------- evaluate

def test_evaluate_examples():
    e = np.array([1.0, -1.0, 2.0])
    assert evaluate(StatKind.mue(), e) == pytest.approx(4.0 / 3.0)
    assert evaluate(StatKind.mse(), e) == pytest.approx(2.0 / 3.0)
    assert evaluate(StatKind.rmsd(), np.array([0.0, 2.0])) == pytest.approx(np.sqrt(2.0))


def test_evaluate_quantile_goes_through_absolute_errors():
    e = np.array([-5.0, 1.0, -2.0, 3.0])
    kind = StatKind.quantile(0.5, "type7")
    assert evaluate(kind, e) == quantile_type7(np.abs(e), 0.5)


def test_evaluate_rejects_short_input():
    with pytest.raises(ValueError):
        evaluate(StatKind.mue(), np.array([1.0]))


@given(error_vectors)
def test_mue_bounds_mse(e):
    assert evaluate(StatKind.mue(), e) >= abs(evaluate(StatKind.mse(), e)) - 1e-9


def test_evaluate_rows_matches_scalar_path():
    # Bit-equal: `evaluate` is the one-row case of `evaluate_rows`, and
    # quantile_hd/quantile_type7 read the same order-statistic rule.
    rng = np.random.default_rng(3)
    for n in (2, 3, 17, 8193, 20000):
        m = rng.normal(size=(6, n))
        for kind in (StatKind.mse(), StatKind.mue(), StatKind.rmsd(),
                     StatKind.quantile(0.95, "hd"), StatKind.quantile(0.6, "type7"),
                     StatKind.quantile(0.99, "type7")):
            rows = evaluate_rows(kind, m)
            assert np.array_equal(rows, [evaluate(kind, row) for row in m])
            if kind.kind == "q":
                fn = quantile_hd if kind.quantile_method == "hd" else quantile_type7
                assert np.array_equal(rows, [fn(np.abs(row), kind.q) for row in m])
        e = m[0]
        assert evaluate(StatKind.mse(), e) == e.mean()
        assert evaluate(StatKind.mue(), e) == np.abs(e).mean()
        assert evaluate(StatKind.rmsd(), e) == e.std(ddof=1)


@pytest.mark.parametrize("kind", [StatKind.quantile(0.95, "hd"), StatKind.quantile(0.3, "hd"),
                                  StatKind.quantile(0.95, "type7"), StatKind.quantile(0.99, "type7")])
def test_resampled_quantiles_equal_gathered_rows(kind):
    # Rank windows and sorted rows feed the same rule, so a replicate is
    # bit-equal to the point value of its gathered resample.
    rng = np.random.default_rng(8)
    for n in (2, 3, 40, 700):
        cols = np.round(rng.normal(size=(n, 2)), 1)  # many exact ties
        idx = rng.integers(0, n, size=(30, n))
        resampled = _Resampled(kind).bind(cols)
        got = np.concatenate([resampled(idx), resampled(idx[:1])])
        want = [[evaluate(kind, cols[row, k]) for k in range(2)] for row in np.vstack([idx, idx[:1]])]
        assert np.array_equal(got, want)


# ---------------------------------------------------------------- order statistics

@st.composite
def _rows_and_windows(draw):
    """An int16, int32 or float64 (rows, n) array drawn from a few values (ties), and a window lo < hi <= n."""
    dtype = draw(st.sampled_from([np.int16, np.int32, np.float64]))
    if dtype == np.float64:  # + 0.0 turns -0.0 into 0.0, whose order against 0.0 no sort defines
        values = st.floats(-1e300, 1e300, allow_nan=False).map(lambda v: v + 0.0)
    else:
        values = st.integers(int(np.iinfo(dtype).min), int(np.iinfo(dtype).max))
    pool = draw(st.lists(values, min_size=1, max_size=8))
    n = draw(st.integers(1, 70))
    a = draw(arrays(dtype, (draw(st.integers(1, 5)), n), elements=st.sampled_from(pool)))
    lo = draw(st.integers(0, n - 1))
    return a, lo, draw(st.integers(lo + 1, n))


def _ties(dtype, shape):
    return (np.arange(np.prod(shape)).reshape(shape) * 7 % 5).astype(dtype)


@settings(max_examples=300, deadline=None)
@given(_rows_and_windows())
@example((_ties(np.int16, (3, 9)), 0, 9))  # the whole row: no cut
@example((_ties(np.int32, (2, 20)), 0, 1))  # lo = 0, w = 1: the upper cut only
@example((_ties(np.float64, (2, 20)), 19, 20))  # hi = n, w = 1: the lower cut only
@example((_ties(np.int16, (4, 30)), 12, 13))  # w = 1: both cuts
@example((_ties(np.float64, (4, 30)), 12, 20))  # lo >= w and n - hi >= w: both cuts
@example((_ties(np.int32, (4, 30)), 5, 20))  # lo < w and n - hi < w: no cut
def test_order_stats_equal_the_window_of_the_sorted_rows(case):
    a, lo, hi = case
    want = np.sort(a, axis=1)[:, lo:hi]
    b = a.copy()
    got = _order_stats(b, lo, hi)
    assert got.dtype == a.dtype and got.tobytes() == want.tobytes()
    assert np.array_equal(np.sort(b, axis=1), np.sort(a, axis=1))  # reordered, not changed


def _sorted_rows_quantile(kind, m):
    """Each row's quantile from its whole sorted row: the rule before windows."""
    xs, n = np.sort(np.abs(m), axis=1), m.shape[1]
    if kind.quantile_method == "hd":
        lo, w = _hd_weights(n, kind.q)
        return weighted_sums(xs[:, lo : lo + w.size], w[None, :])[:, 0]
    h = (n - 1) * kind.q
    j = min(int(np.floor(h)), n - 2)
    return xs[:, j] + (h - j) * (xs[:, j + 1] - xs[:, j])


@pytest.mark.parametrize("kind", [StatKind.quantile(0.95, "hd"), StatKind.quantile(0.05, "hd"),
                                  StatKind.quantile(0.5, "hd"), StatKind.quantile(0.95, "type7"),
                                  StatKind.quantile(0.01, "type7"), StatKind.quantile(0.999, "type7")])
def test_evaluate_rows_quantiles_equal_the_whole_row_sort(kind):
    rng = np.random.default_rng(21)
    for reps, n in ((1, 2), (3, 3), (40, 17), (500, 60), (7, 499), (500, 500)):
        m = np.round(rng.standard_normal((reps, n)), 1)  # many exact ties, signed zeros included
        assert evaluate_rows(kind, m).tobytes() == _sorted_rows_quantile(kind, m).tobytes()


# ---------------------------------------------------------------- quantiles

def hd_quad_oracle(x, q):
    """Weights as adaptive integrals of the beta density over [i-1, i]/n."""
    x = np.sort(np.asarray(x, dtype=float))
    n = x.size
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    ln_beta = lgamma(a) + lgamma(b) - lgamma(a + b)

    def pdf(t):
        return exp((a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t) - ln_beta)

    w = [
        integrate.quad(pdf, (i - 1.0) / n, i / n, epsabs=1e-13, epsrel=1e-12)[0]
        for i in range(1, n + 1)
    ]
    return float(np.dot(w, x))


def test_hd_constant_vector():
    assert quantile_hd(np.full(7, 3.25), 0.9) == pytest.approx(3.25, rel=1e-12)


def test_hd_against_quad_oracle():
    x = np.arange(1.0, 11.0)
    # frozen from hd_quad_oracle(x, 0.5) and (x, 0.95)
    assert quantile_hd(x, 0.5) == pytest.approx(5.499999999999992, rel=1e-11)
    assert quantile_hd(x, 0.95) == pytest.approx(9.792057245739759, rel=1e-11)
    assert quantile_hd(x, 0.5) == pytest.approx(hd_quad_oracle(x, 0.5), rel=1e-11)
    rng = np.random.default_rng(11)
    y = rng.normal(size=23)
    for q in (0.1, 0.5, 0.77, 0.95):
        assert quantile_hd(y, q) == pytest.approx(hd_quad_oracle(y, q), rel=1e-11)


def test_hd_windowed_large_sample_matches_full_grid():
    # n large enough that the weight window is active; the oracle itself
    # accumulates ~1e-13 per quad subinterval over ~5000 intervals, so the
    # comparison bottoms out around 5e-10.
    rng = np.random.default_rng(7)
    x = rng.normal(size=200_000)
    got = quantile_hd(x, 0.95)
    ref = hd_quad_oracle_window(x, 0.95)
    assert got == pytest.approx(ref, rel=5e-9)


def hd_quad_oracle_window(x, q):
    """Same quad oracle, restricted to order statistics with visible weight."""
    x = np.sort(np.asarray(x, dtype=float))
    n = x.size
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    mean = a / (a + b)
    sd = np.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
    lo = max(1, int((mean - 25 * sd) * n))
    hi = min(n, int((mean + 25 * sd) * n) + 1)
    ln_beta = lgamma(a) + lgamma(b) - lgamma(a + b)

    def pdf(t):
        return exp((a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t) - ln_beta)

    total = 0.0
    for i in range(lo, hi + 1):
        w = integrate.quad(pdf, (i - 1.0) / n, i / n, epsabs=1e-15, epsrel=1e-12)[0]
        total += w * x[i - 1]
    return total


def test_type7_examples():
    assert quantile_type7(np.array([1.0, 2.0, 3.0, 4.0]), 0.5) == 2.5
    assert quantile_type7(np.array([1.0, 2.0, 3.0, 4.0]), 1.0) == 4.0
    assert quantile_type7(np.array([0.8, -1.4]), 1.0) == 0.8  # -1.4 + 1 * (0.8 + 1.4) is not
    assert quantile_type7(np.array([5.0, 1.0, 3.0]), 0.5) == 3.0


def test_quantile_validation():
    for fn in (quantile_hd, quantile_type7):
        with pytest.raises(ValueError):
            fn(np.array([1.0]), 0.5)
    with pytest.raises(ValueError):
        quantile_hd(np.array([1.0, 2.0]), 1.0)


@given(
    st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=2, max_size=40),
    st.floats(min_value=0.02, max_value=0.98),
    st.floats(min_value=0.1, max_value=50.0),
    st.floats(min_value=-100.0, max_value=100.0),
)
def test_quantiles_affine_equivariant(xs, q, a, b):
    x = np.asarray(xs)
    for fn in (quantile_hd, quantile_type7):
        base = fn(x, q)
        scaled = fn(a * x + b, q)
        assert scaled == pytest.approx(a * base + b, rel=1e-10, abs=1e-9 * (1 + abs(a * base + b)))


def test_hd_monotone_in_q():
    rng = np.random.default_rng(2)
    x = rng.normal(size=37)
    qs = np.linspace(0.02, 0.98, 49)
    vals = [quantile_hd(x, q) for q in qs]
    assert np.all(np.diff(vals) >= -1e-12)


def test_hd_and_type7_agree_on_large_normal_median():
    rng = np.random.default_rng(123)
    hits = 0
    for _ in range(20):
        x = rng.normal(size=1500)
        if abs(quantile_hd(x, 0.5) - quantile_type7(x, 0.5)) < 0.02:
            hits += 1
    assert hits >= 19



# ------------------------------------------------------------ chi2 bounds

DOF_GRID = [1, 2, 3, 4, 5, 7, 10, 19, 30, 50, 99, 100, 250, 1000, 4999, 20000]


@pytest.mark.parametrize("df", DOF_GRID)
def test_chi2_bounds_match_scipy_stats(df):
    # The central 95% chi-squared interval from scipy.special.chdtri
    # (upper-tail inverse), which keeps scipy.stats off the import path,
    # must agree with the lower-tail quantile function of scipy.stats.chi2.
    from scipy.special import chdtri
    from scipy.stats import chi2

    np.testing.assert_allclose(
        chdtri(df, [0.975, 0.025]), chi2.ppf([0.025, 0.975], df), rtol=1e-13, atol=0.0
    )


# ---------------------------------------------------------------- numpy's percentile and median rules

def _samples(n, rng):
    """Distinct values, small-integer ties, and ties of -0.0 with 0.0."""
    yield rng.normal(size=n)
    yield rng.integers(0, 4, size=n) / 3.0
    yield rng.choice([-0.0, 0.0, 1.0], size=n)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def test_percentile_is_numpys_bit_for_bit():
    # The levels of the bootstrap intervals and of the hdstudy summaries.
    rng = np.random.default_rng(11)
    for n in range(1, 401):
        for x in _samples(n, rng):
            for levels in ([2.5, 97.5], [5, 25, 50, 75, 95], [100 * p for p in _SUMMARY_QS]):
                assert np.array_equal(_bits(percentile(x, levels)), _bits(np.percentile(x, levels))), (n, x, levels)


def test_median_is_numpys_bit_for_bit():
    rng = np.random.default_rng(12)
    for n in range(1, 401):
        for x in _samples(n, rng):
            assert _bits(median(x)) == _bits(np.median(x)), (n, x)
