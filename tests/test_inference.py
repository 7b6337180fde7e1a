import warnings
from itertools import product

import mpmath
import numpy as np
import pytest

import errstat.inference as inf
from errstat.dataset import ErrorMatrix
from errstat.estimators import StatKind, evaluate
from errstat.inference import (
    BootstrapPlan,
    HIGHER_IS_RANK1,
    RankMatrix,
    bootstrap_se,
    compare_pair,
    diff_sample,
    generalized_p,
    p_inv,
    p_t_value,
    p_unc_value,
    rank_probability_matrix,
    replicate_blocks,
    replicate_stats,
    resample_indices,
)

MUE = StatKind.mue()
MSE = StatKind.mse()


def _em(cols, names=None):
    cols = np.column_stack(cols)
    names = names or [f"M{j + 1}" for j in range(cols.shape[1])]
    return ErrorMatrix(errors=cols, method_names=names)


# ------------------------------------------------------------------- plan

def test_plan_validation():
    with pytest.raises(ValueError):
        BootstrapPlan(B=99)
    with pytest.raises(ValueError):
        BootstrapPlan(n_prime=1)
    plan = BootstrapPlan(B=100, n_prime=5)
    with pytest.raises(ValueError):
        plan.resample_size(4)
    assert plan.resample_size(9) == 5
    assert BootstrapPlan().resample_size(7) == 7


# ------------------------------------------------------------------ streams

def test_replicate_streams_deterministic_and_distinct():
    a = resample_indices(BootstrapPlan(seed=42), 7, 100)
    b = resample_indices(BootstrapPlan(seed=42), 7, 100)
    c = resample_indices(BootstrapPlan(seed=42), 8, 100)
    d = resample_indices(BootstrapPlan(seed=43), 7, 100)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def _drawn(plan, n):
    return np.concatenate([idx for _, idx in replicate_blocks(plan, n)])


def test_replicate_blocks_rows_are_replicate_draws(monkeypatch):
    monkeypatch.setattr(inf, "BLOCK_CELLS", 33 * 50)
    plan = BootstrapPlan(B=120, seed=9)
    blocks = list(replicate_blocks(plan, 33))
    assert [(lo, idx.shape) for lo, idx in blocks] == [(0, (50, 33)), (50, (50, 33)), (100, (20, 33))]
    idx = np.concatenate([idx for _, idx in blocks])
    for j in (0, 57, 119):
        np.testing.assert_array_equal(idx[j], resample_indices(plan, j, 33))


def test_replicate_blocks_block_size_is_invisible(monkeypatch):
    plan = BootstrapPlan(B=500, seed=4)
    base = _drawn(plan, 20)
    for cells in (1, 20, 7 * 20, 499 * 20, 10**9):
        monkeypatch.setattr(inf, "BLOCK_CELLS", cells)
        assert max(len(idx) for _, idx in replicate_blocks(plan, 20)) == min(500, max(1, cells // 20))
        np.testing.assert_array_equal(base, _drawn(plan, 20))


def test_paired_resample_shares_indices_across_columns():
    e = np.arange(8.0)  # sums of integers over 8 rows are exact, so shifts and signs survive exactly
    cols = np.column_stack([e, e + 100.0, -e])
    plan = BootstrapPlan(B=200, seed=5)
    mse = replicate_stats(cols, MSE, plan)
    assert np.unique(mse[:, 0]).size > 10
    np.testing.assert_array_equal(mse[:, 1] - mse[:, 0], np.full(200, 100.0))
    np.testing.assert_array_equal(mse[:, 2], -mse[:, 0])
    mue = replicate_stats(cols, MUE, plan)
    np.testing.assert_array_equal(mue[:, 2], mue[:, 0])


def test_paired_resample_single_row():
    plan = BootstrapPlan(B=100, seed=1)
    np.testing.assert_array_equal(_drawn(plan, 1), np.zeros((100, 1)))
    stats = replicate_stats(np.array([[1.5, -2.0]]), MSE, plan)
    np.testing.assert_array_equal(stats, np.tile([1.5, -2.0], (100, 1)))


def test_one_index_draw_shared_by_all_columns(monkeypatch):
    calls = []
    original = inf._keyed  # keys replicate j's generator for the block draw and resample_indices alike

    def spy(plan, j):
        calls.append(j)
        return original(plan, j)

    monkeypatch.setattr(inf, "_keyed", spy)
    replicate_stats(np.random.default_rng(0).normal(size=(12, 4)), MUE, BootstrapPlan(B=150, seed=3))
    assert len(calls) == 150  # one draw per replicate, not per column
    assert sorted(calls) == list(range(150))


# -------------------------------------------------------------- bootstrap SE

def test_bootstrap_se_constant_vector_is_zero():
    assert bootstrap_se(np.full(20, 1.25), MUE, BootstrapPlan(B=200, seed=1)) == 0.0


def test_bootstrap_se_mse_tracks_analytic_formula():
    # Oracle: u(mean) = s_e / sqrt(N)
    rng = np.random.default_rng(77)
    hits = 0
    trials = 30
    for t in range(trials):
        e = rng.normal(size=100)
        analytic = e.std(ddof=1) / 10.0
        se = bootstrap_se(e, MSE, BootstrapPlan(B=1000, seed=t))
        if abs(se - analytic) <= 0.25 * analytic:
            hits += 1
    assert hits >= int(0.95 * trials)


def test_bootstrap_se_self_consistent_in_B():
    e = np.random.default_rng(11).normal(size=60)
    a = bootstrap_se(e, MUE, BootstrapPlan(B=1000, seed=5))
    b = bootstrap_se(e, MUE, BootstrapPlan(B=4000, seed=5))
    assert abs(a - b) <= 0.15 * b


# -------------------------------------------------------------- diff sample

def test_diff_sample_identical_columns():
    e = np.random.default_rng(2).normal(size=15)
    d = diff_sample(e, e, MUE, BootstrapPlan(B=300, seed=2))
    assert np.all(d == 0.0)


def test_diff_sample_dominated_pair():
    e1 = np.random.default_rng(3).uniform(0.01, 0.1, size=12)
    e2 = np.random.default_rng(4).uniform(10.0, 20.0, size=12)
    d = diff_sample(e1, e2, MUE, BootstrapPlan(B=300, seed=3))
    assert np.all(d < 0.0)


def test_diff_sample_mean_matches_exhaustive_enumeration():
    # All 27 equally likely paired resamples of an N=3 pair.
    e1 = np.array([0.3, -1.1, 0.7])
    e2 = np.array([0.9, 0.2, -0.4])
    exact = []
    for draw in product(range(3), repeat=3):
        idx = list(draw)
        exact.append(np.abs(e1[idx]).mean() - np.abs(e2[idx]).mean())
    exact = np.asarray(exact)
    B = 40_000
    d = diff_sample(e1, e2, MUE, BootstrapPlan(B=B, seed=6))
    three_sigma = 3.0 * exact.std() / np.sqrt(B)
    assert abs(d.mean() - exact.mean()) <= three_sigma


# ----------------------------------------------------------------- p-values

def test_p_t_examples():
    xi, p = p_t_value(1.0, 1.0, 0.5)
    assert xi == 0.0 and p == 1.0
    _, p = p_t_value(1.96, 0.0, 1.0)
    assert p == pytest.approx(0.05, abs=1e-3)
    _, p = p_t_value(3.0, 0.0, 1.0)
    assert p == pytest.approx(0.0026997960632602, rel=1e-10)  # 2(1 - Phi(3))
    with pytest.raises(ValueError, match="degenerate"):
        p_t_value(1.0, 2.0, 0.0)


@pytest.mark.parametrize("lo,hi,rel", [(0.0, 8.0, 1e-14), (8.0, 37.0, 2e-13)])
def test_p_t_matches_mpmath_erfc_into_the_far_tail(lo, hi, rel):
    # 2(1 - Phi(xi)) cancels to 0 beyond xi ~ 8; erfc keeps its relative
    # accuracy.  Past 8 the bound grows because rounding xi / sqrt 2
    # moves erfc by about xi^2 ulps.
    for xi in np.linspace(lo, hi, 117):
        got_xi, p = p_t_value(float(xi), 0.0, 1.0)
        assert got_xi == xi
        with mpmath.workdps(40):
            ref = float(mpmath.erfc(mpmath.mpf(float(xi)) / mpmath.sqrt(2)))
        assert p == pytest.approx(ref, rel=rel, abs=0)


def test_p_unc_examples():
    _, p = p_unc_value(1.96 * np.sqrt(2.0), 0.0, 1.0, 1.0)
    assert p == pytest.approx(0.05, abs=1e-3)
    _, p = p_unc_value(0.7, 0.7, 1.0, 2.0)
    assert p == 1.0
    with pytest.raises(ValueError):
        p_unc_value(1.0, 2.0, 0.0, 0.0)


def test_p_unc_overestimates_p_t_under_positive_correlation():
    s1, s2, u1, u2 = 1.0, 0.7, 0.2, 0.25
    u_diff = 0.1  # strong positive covariance
    assert u_diff < np.hypot(u1, u2)
    _, pt = p_t_value(s1, s2, u_diff)
    _, punc = p_unc_value(s1, s2, u1, u2)
    assert punc >= pt


def test_generalized_p_counting():
    assert generalized_p(np.zeros(200)) == 1.0
    assert generalized_p(-np.ones(200)) == 0.0
    d = np.concatenate([-np.ones(30), np.ones(60), np.zeros(10)])
    # p* = (30 + 5) / 100
    assert generalized_p(d) == pytest.approx(0.7)
    with pytest.raises(ValueError):
        generalized_p(np.ones(99))


def test_p_inv_counting():
    assert p_inv(np.ones(100), 2.0, 1.0) == 0.0
    d = np.concatenate([np.ones(50), -np.ones(50)])
    assert p_inv(d, 2.0, 1.0) == 0.5
    assert p_inv(d, 1.0, 2.0) == 0.5
    # null differences are compensated, not counted as inversions
    d = np.concatenate([np.ones(60), np.zeros(20), -np.ones(20)])
    assert p_inv(d, 2.0, 1.0) == pytest.approx(0.2)
    assert p_inv(d, 1.0, 1.0) == 0.5


def test_p_inv_equals_half_p_g_without_ties():
    rng = np.random.default_rng(13)
    checked = primary = 0
    for trial in range(300):
        n = int(rng.integers(5, 60))
        e1 = rng.normal(scale=1.0, size=n)
        e2 = rng.normal(scale=1.4, size=n)
        s1, s2 = evaluate(MUE, e1), evaluate(MUE, e2)
        if s1 == s2:
            continue
        if s1 < s2:
            e1, e2, s1, s2 = e2, e1, s2, s1
        d = diff_sample(e1, e2, MUE, BootstrapPlan(B=200, seed=trial))
        if np.any(d == 0.0):
            continue
        checked += 1
        pg = generalized_p(d)
        pi = p_inv(d, s1, s2)
        if pi <= 0.5:
            assert pi == pg / 2.0  # exact, same counts on both sides
            primary += 1
        else:
            assert pi == pytest.approx(1.0 - pg / 2.0, abs=1e-15)
    assert checked >= 250
    assert primary >= 0.9 * checked


def _p_inv_by_sign(d, s1, s2):
    """p_inv as it was written with np.sign, the null differences subtracted again."""
    if s1 == s2:
        return 0.5
    return (int((np.sign(d) != np.sign(s1 - s2)).sum()) - int((d == 0).sum())) / d.size


def _rank_matrix_by_inverse_permutation(stats, orientation, B):
    """P_r counted from each replicate's inverse permutation, the ranks of the methods."""
    order = np.argsort(stats if orientation == "lower" else -stats, axis=1, kind="stable")
    k = order.shape[1]
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.broadcast_to(np.arange(k), order.shape), axis=1)
    p = np.empty((k, k))
    for j in range(k):
        p[j] = np.bincount(ranks[:, j], minlength=k) / B
    return p


def _planted_tables(seed, count):
    """Random error tables, N in 2..60 and K in 2..6, where columns share |errors| on random rows."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, k = int(rng.integers(2, 61)), int(rng.integers(2, 7))
        errors = rng.standard_t(df=3, size=(n, k))
        for j, src in enumerate(rng.integers(0, k, size=k)):
            rows = rng.random(n) < rng.random()
            errors[rows, j] = errors[rows, src] * rng.choice([-1.0, 1.0], size=int(rows.sum()))
        yield errors


ORACLE_KINDS = (MSE, MUE, StatKind.rmsd(), StatKind.quantile(0.95), StatKind.quantile(0.9, "type7"))


def test_counts_and_standard_deviations_equal_the_unshared_formulas_bit_for_bit():
    # The formulas each caller had before the sign counts, the rank counts
    # and the sample SD were shared, on every statistic at B = 100 and 257.
    zero_diffs = 0
    for t, errors in enumerate(_planted_tables(79, 200)):
        kind, plan = ORACLE_KINDS[t % 5], BootstrapPlan(B=(100, 257)[t % 2], seed=t)
        orientation = ("lower", HIGHER_IS_RANK1)[t % 3 == 0]
        matrix = _em(list(errors.T))
        stats = replicate_stats(errors, kind, plan)
        d = stats[:, 0] - stats[:, 1]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            comp = compare_pair(matrix, 0, 1, kind, plan)
            rm = rank_probability_matrix(matrix, kind, plan, orientation)
        sds = [float(v.std(ddof=1)) for v in (stats[:, 0], stats[:, 1], d)]
        assert np.array_equal([comp.u1, comp.u2, comp.u_diff], sds, equal_nan=True)
        assert np.array_equal([bootstrap_se(errors[:, 0], kind, plan)], sds[:1], equal_nan=True)
        for s1, s2 in ((comp.s1, comp.s2), (comp.s2, comp.s1), (comp.s1, comp.s1)):
            assert np.array_equal([p_inv(d, s1, s2)], [_p_inv_by_sign(d, s1, s2)], equal_nan=True)
        assert comp.n_zero_diffs == int((d == 0).sum())
        zero_diffs += comp.n_zero_diffs
        assert np.array_equal(rm.p, _rank_matrix_by_inverse_permutation(stats, orientation, plan.B), equal_nan=True)
        if kind == StatKind.rmsd():
            sds = [c[None, :].std(axis=1, ddof=1)[0] for c in errors.T]
            assert np.array_equal([evaluate(kind, c) for c in errors.T], sds, equal_nan=True)
    assert zero_diffs > 0


# ------------------------------------------------------------- compare_pair

def test_compare_pair_identical_columns():
    e = np.random.default_rng(19).normal(size=40)
    comp = compare_pair(_em([e, e]), 0, 1, MUE, BootstrapPlan(B=200, seed=7))
    assert comp.p_g == 1.0
    assert comp.p_inv == 0.5
    assert comp.degenerate
    assert comp.xi is None and comp.p_t is None
    assert comp.n_zero_diffs == 200
    assert comp.u_diff == 0.0


def test_compare_pair_dominated():
    rng = np.random.default_rng(23)
    e1 = rng.uniform(0.01, 0.05, size=40)
    e2 = rng.uniform(5.0, 6.0, size=40)
    comp = compare_pair(_em([e1, e2]), 0, 1, MUE, BootstrapPlan(B=300, seed=11))
    assert comp.p_g == 0.0
    assert comp.p_inv == 0.0
    assert comp.p_t < 1e-6
    assert not comp.degenerate


def test_compare_pair_deterministic_across_runs_and_blocks(monkeypatch):
    rng = np.random.default_rng(29)
    matrix = _em([rng.normal(size=50), rng.normal(size=50)])

    def report():
        return compare_pair(matrix, 0, 1, MUE, BootstrapPlan(B=400, seed=3))

    first = report()
    assert report() == first
    monkeypatch.setattr(inf, "BLOCK_CELLS", 50 * 7)
    assert report() == first


def test_compare_pair_rejects_self_comparison():
    e = np.random.default_rng(1).normal(size=30)
    with pytest.raises(ValueError):
        compare_pair(_em([e, -e]), 1, 1, MUE, BootstrapPlan(B=100, seed=1))


def test_small_n_warnings():
    rng = np.random.default_rng(31)
    matrix = _em([rng.normal(size=20), rng.normal(size=20)])
    with pytest.warns(UserWarning, match="small for MUE"):
        compare_pair(matrix, 0, 1, MUE, BootstrapPlan(B=100, seed=1))
    with pytest.warns(UserWarning, match="small for Q95"):
        compare_pair(matrix, 0, 1, StatKind.quantile(0.95), BootstrapPlan(B=100, seed=1))
    big = _em([rng.normal(size=60), rng.normal(size=60)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compare_pair(big, 0, 1, StatKind.quantile(0.95), BootstrapPlan(B=100, seed=1))


# ------------------------------------------------------------------ ranking

def test_rank_matrix_disjoint_ranges_identity():
    rng = np.random.default_rng(37)
    cols = [rng.uniform(10**j, 2 * 10**j, size=12) for j in range(3)]
    rm = rank_probability_matrix(_em(cols), MUE, BootstrapPlan(B=200, seed=2))
    np.testing.assert_array_equal(rm.p, np.eye(3))
    for j, entry in enumerate(rm.summary):
        assert entry.mode == j + 1
        assert entry.mode_probability == 1.0
        assert entry.interval == (j + 1, j + 1)


def test_rank_matrix_tie_break_lowest_index():
    e = np.random.default_rng(41).normal(size=15)
    rm = rank_probability_matrix(_em([e, e]), MUE, BootstrapPlan(B=150, seed=3))
    np.testing.assert_array_equal(rm.p, [[1.0, 0.0], [0.0, 1.0]])


def test_rank_matrix_doubly_stochastic():
    rng = np.random.default_rng(43)
    cols = [rng.normal(size=25) for _ in range(5)]
    rm = rank_probability_matrix(_em(cols), MUE, BootstrapPlan(B=500, seed=4))
    np.testing.assert_allclose(rm.p.sum(axis=0), np.ones(5), atol=1e-12)
    np.testing.assert_allclose(rm.p.sum(axis=1), np.ones(5), atol=1e-12)


def test_rank_matrix_orientation_flip():
    rng = np.random.default_rng(47)
    cols = [rng.uniform(0.1, 0.2, size=30), rng.uniform(5.0, 6.0, size=30)]
    low = rank_probability_matrix(_em(cols), MUE, BootstrapPlan(B=150, seed=5))
    high = rank_probability_matrix(_em(cols), MUE, BootstrapPlan(B=150, seed=5), HIGHER_IS_RANK1)
    np.testing.assert_array_equal(low.p, [[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(high.p, [[0.0, 1.0], [1.0, 0.0]])


def test_rank_matrix_exhaustive_n2():
    # N=2, K=2: 4 equally likely paired resamples.
    e1 = np.array([0.2, 1.5])
    e2 = np.array([0.8, 0.9])
    exact = np.zeros((2, 2))
    for draw in product(range(2), repeat=2):
        idx = list(draw)
        s = [np.abs(e1[idx]).mean(), np.abs(e2[idx]).mean()]
        order = np.argsort(s, kind="stable")
        ranks = np.empty(2, dtype=int)
        ranks[order] = np.arange(2)
        for j in range(2):
            exact[j, ranks[j]] += 0.25
    B = 20_000
    rm = rank_probability_matrix(_em([e1, e2]), MUE, BootstrapPlan(B=B, seed=6))
    sigma = np.sqrt(exact * (1 - exact) / B)
    assert np.all(np.abs(rm.p - exact) <= 3 * sigma + 1e-12)


def test_rank_summary_shapes():
    p = np.array([[0.5, 0.4, 0.1], [0.3, 0.3, 0.4], [0.2, 0.3, 0.5]])
    entries = inf._summarize_ranks(p, ["A", "B", "C"])
    assert entries[0].mode == 1
    assert entries[0].interval == (1, 2)
    for entry in inf._summarize_ranks(np.full((4, 4), 0.25), list("ABCD")):
        assert entry.interval == (1, 4)
    rm = rank_probability_matrix(_em([np.arange(40.0), np.arange(40.0) + 100.0]), MUE, BootstrapPlan(B=100))
    assert [(e.label, e.mode, e.mode_probability, e.interval) for e in rm.summary] == [
        ("M1", 1, 1.0, (1, 1)),
        ("M2", 2, 1.0, (2, 2)),
    ]


def _scan_interval(row, mass=0.90):
    """The O(K^3) scan: shortest, then lowest, window of `row` holding >= mass."""
    k = row.size
    for length in range(1, k + 1):
        for start in range(0, k - length + 1):
            if row[start : start + length].sum() >= mass - 1e-12:
                return (start + 1, start + length)
    return None


def test_rank_intervals_match_window_scan():
    rng = np.random.default_rng(61)
    for trial in range(600):
        k = int(rng.integers(2, 31))
        if trial % 2:
            # Multiples of 1/1000, as rank counts over B = 1000 are, with
            # 900 of them planted in one window: a sum of exactly 0.90 in
            # exact arithmetic, right on the threshold.
            length = int(rng.integers(1, k))
            start = int(rng.integers(0, k - length + 1))
            counts = np.zeros(k, dtype=int)
            inside = np.arange(start, start + length)
            outside = np.setdiff1d(np.arange(k), inside)
            counts[inside] = rng.multinomial(900, rng.dirichlet(np.ones(length)))
            counts[outside] = rng.multinomial(100, rng.dirichlet(np.ones(outside.size)))
            row = counts / 1000
        else:
            row = rng.dirichlet(np.full(k, rng.uniform(0.1, 3.0)))
        entry = inf._summarize_ranks(row[None, :], ["M"])[0]
        assert entry.interval == _scan_interval(row), row


def test_rank_matrix_nprime_subsampling():
    rng = np.random.default_rng(53)
    cols = [rng.normal(size=40), rng.normal(size=40) * 1.05]
    plan = BootstrapPlan(B=200, seed=9, n_prime=13)
    rm = rank_probability_matrix(_em(cols), MUE, plan)
    np.testing.assert_allclose(rm.p.sum(axis=1), np.ones(2), atol=1e-12)
    assert _drawn(plan, 40).shape == (200, 13)
