import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from errstat.correlation import correlation_matrix, midranks, pearson, spearman
from errstat.dataset import ErrorMatrix


def midrank_oracle(values):
    """Explicit sort-and-average midranks."""
    values = list(values)
    ranks = [0.0] * len(values)
    for i, v in enumerate(values):
        below = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        ranks[i] = below + (equal + 1) / 2.0
    return ranks


def product_moment(x, y):
    mx, my = sum(x) / len(x), sum(y) / len(y)
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    return sxy / (sxx * syy) ** 0.5


def test_pearson_perfect_lines():
    x = np.array([0.0, 1.0, 2.0, 5.0])
    assert pearson(x, 2 * x + 1) == pytest.approx(1.0)
    assert pearson(x, -x) == pytest.approx(-1.0)


def test_pearson_hand_value():
    assert pearson([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(0.5)


def test_pearson_validation():
    with pytest.raises(ValueError, match="undefined correlation"):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        pearson([1.0, 2.0], [1.0, 2.0])


def test_midranks_with_ties():
    np.testing.assert_allclose(midranks(np.array([1.0, 2.0, 2.0, 4.0])), [1.0, 2.5, 2.5, 4.0])
    np.testing.assert_allclose(
        midranks(np.array([3.0, 1.0, 3.0, 3.0])), midrank_oracle([3.0, 1.0, 3.0, 3.0])
    )


def midranks_loop(x):
    """The scalar tie-group walk that the vectorized midranks replaced."""
    xv = np.asarray(x, dtype=float)
    order = np.argsort(xv, kind="stable")
    ranks = np.empty(xv.size, dtype=float)
    i = 0
    while i < xv.size:
        j = i
        while j + 1 < xv.size and xv[order[j + 1]] == xv[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def test_midranks_equals_scalar_loop_on_tied_vectors():
    rng = np.random.default_rng(2003)
    for _ in range(200):
        n = int(rng.integers(0, 80))
        x = rng.integers(0, max(1, n // 3), size=n) * 0.5 - 3.0
        assert np.array_equal(midranks(x), midranks_loop(x))
    for x in ([], [7.0], [2.0, 2.0, 2.0], [np.nan, 1.0, np.nan, 1.0]):
        assert np.array_equal(midranks(x), midranks_loop(x), equal_nan=True)


def test_spearman_monotone_transforms():
    x = np.array([0.5, 1.2, 3.0, 7.5, 9.1])
    assert spearman(x, np.exp(x)) == pytest.approx(1.0)
    assert spearman(x, -(x**3)) == pytest.approx(-1.0)


def test_spearman_ties_match_midrank_oracle():
    x = [1.0, 2.0, 2.0, 4.0]
    y = [1.0, 2.0, 3.0, 4.0]
    expected = product_moment(midrank_oracle(x), midrank_oracle(y))
    assert expected == pytest.approx(np.sqrt(0.9))  # frozen hand value
    assert spearman(x, y) == pytest.approx(expected, rel=1e-12)


# Coarse grid keeps strictly monotone maps injective in float arithmetic.
coarse_values = st.integers(min_value=-500, max_value=500).map(lambda v: v / 10.0)


@settings(max_examples=40)
@given(st.lists(coarse_values, min_size=3, max_size=25, unique=True))
def test_spearman_invariant_under_monotone_maps(xs):
    x = np.asarray(xs)
    y = np.sin(x) + x  # strictly increasing, nonlinear
    base = spearman(x, y)
    assert spearman(np.exp(x / 50.0), y) == pytest.approx(base, abs=1e-9)
    assert spearman(x, y**3 + 5 * y) == pytest.approx(base, abs=1e-9)


def exact_pearson(x, y):
    """Pearson's r of the float inputs, evaluated in 300-bit arithmetic, rounded once."""
    with mpmath.workprec(300):
        xs, ys = [list(map(mpmath.mpf, map(float, v))) for v in (x, y)]
        mx, my = mpmath.fsum(xs) / len(xs), mpmath.fsum(ys) / len(ys)
        sxy = mpmath.fsum((a - mx) * (b - my) for a, b in zip(xs, ys))
        sxx = mpmath.fsum((a - mx) ** 2 for a in xs)
        syy = mpmath.fsum((b - my) ** 2 for b in ys)
        return float(sxy / mpmath.sqrt(sxx * syy))


@settings(max_examples=40)
@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=3, max_size=25, unique=True),
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=-100.0, max_value=100.0),
)
# A single centring pass moved r by about 1e-10 under these exact shifts.
@example(xs=[0.0, 2**-24, 3.4e-288], a=1.0, b=1.0)
@example(xs=[0.0, 1.015371175868401e-07, 4.0986733654410293e-252], a=1.0, b=1.0)
# a*x + b rounds x's small spread, and moved the exact r of the data by 1.5e-12.
@example(xs=[0.0, 6.103515625e-05, 1.192092896e-07], a=0.01, b=8.0)
@example(xs=[0.0, 6.103515625e-05, 1.192092896e-07], a=0.0078125, b=0.0)
def test_pearson_affine_invariance(xs, a, b):
    x = np.asarray(xs)
    y = np.cos(x)
    try:
        base = pearson(x, y)
    except ValueError:
        return
    ax = a * x + b
    if b == 0.0 and math.frexp(a)[0] == 0.5 and np.array_equal(ax / a, x):
        # Scaling by a power of two that loses no bit is exact, and so is r.
        assert pearson(ax, y) == base
    else:
        # a*x + b rounds, so the data need not be an affine image of x: r is
        # held to the exact r of the values passed.  Each of the two centring
        # passes, the three sums of n terms and the final sqrt and division
        # add at most n rounding errors of size eps to r, which lies in [-1, 1].
        tol = 8 * len(xs) * np.finfo(float).eps
        assert pearson(ax, y) == pytest.approx(exact_pearson(ax, y), abs=tol)


def test_matrix_trivial_cases():
    col = np.array([1.0, 3.0, 2.0, 5.0])
    m = correlation_matrix(np.column_stack([col, col]), method="pearson")
    assert m.values[0, 1] == pytest.approx(1.0)
    m = correlation_matrix(np.column_stack([col, -col]), method="spearman")
    assert m.values[0, 1] == pytest.approx(-1.0)


def test_matrix_equals_pairwise_calls():
    # Correlated columns, every other one on a tie-rich grid of 0.25, scaled by 1, 2**900 or 2**-900.
    rng = np.random.default_rng(6)
    shared = rng.normal(size=300)
    cols = [np.round(4 * (shared + rng.normal(size=300))) / 4 if j % 2 else shared + rng.normal(size=300)
            for j in range(10)]
    cols = [c * 2.0 ** (0, 900, -900)[j % 3] for j, c in enumerate(cols)]
    for k in (2, 5, 10):
        labels = [f"C{j}" for j in range(k)]
        values = np.column_stack(cols[:k])
        for (method, pair), data in itertools.product(
            (("pearson", pearson), ("spearman", spearman)), (ErrorMatrix(errors=values, method_names=labels), values)
        ):
            m = correlation_matrix(data, method=method, labels=labels)
            assert m.labels == labels
            assert np.array_equal(np.diagonal(m.values), np.ones(k))
            # Each cell is, bit for bit, the pair function of the two columns as passed.  A mean read
            # across the rows of values.T, which numpy sums in plain order, not pairwise, fails this.
            for i in range(k):
                for j in range(k):
                    if i != j:
                        assert m.values[i, j] == pair(values[:, i], values[:, j]), (method, k, i, j)


def test_matrix_rejects_constant_column():
    cols = np.column_stack([np.ones(5), np.arange(5.0)])
    with pytest.raises(ValueError, match="undefined correlation"):
        correlation_matrix(cols)


def test_matrix_needs_two_columns():
    with pytest.raises(ValueError):
        correlation_matrix(np.ones((5, 1)))
