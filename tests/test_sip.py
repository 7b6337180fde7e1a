import json

import numpy as np
import pytest

from errstat.cli import run
from errstat.dataset import ErrorMatrix
from errstat.inference import BootstrapPlan, resample_indices
from errstat.sip import (
    abs_error_deltas,
    delta_ecdf,
    mue_decomposition,
    sip_matrix,
)


def brute_force_pair(e1, e2):
    """Element-by-element counting oracle for SIP/ties/MG/ML."""
    gains, losses, ties = [], [], 0
    for a, b in zip(e1, e2):
        d = abs(a) - abs(b)
        if d < 0:
            gains.append(d)
        elif d > 0:
            losses.append(d)
        else:
            ties += 1
    sip = len(gains) / len(e1)
    mg = sum(gains) / len(gains) if gains else None
    ml = sum(losses) / len(losses) if losses else None
    return sip, ties, mg, ml


def test_abs_error_deltas():
    np.testing.assert_array_equal(abs_error_deltas([1.0, -2.0], [2.0, 1.0]), [-1.0, 1.0])
    np.testing.assert_array_equal(abs_error_deltas([1.0, 2.0], [1.0, 2.0]), [0.0, 0.0])
    e1, e2 = np.array([1.5, -0.5, 2.0]), np.array([0.3, 3.0, -1.0])
    np.testing.assert_array_equal(abs_error_deltas(-e1, e2), abs_error_deltas(e1, e2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pair_functions_reject_non_finite_errors(bad):
    # delta_ecdf counts each replicate's losses as the deltas above the last
    # non-positive one, so a NaN delta, which is neither, is rejected up front.
    e1, e2 = np.array([0.1, -0.5, bad, 0.3]), np.array([0.2, 0.4, 0.1, -0.1])
    for call in (lambda: abs_error_deltas(e1, e2), lambda: abs_error_deltas(e2, e1),
                 lambda: mue_decomposition(e1, e2), lambda: delta_ecdf(e2, e1, BootstrapPlan(B=100, seed=1))):
        with pytest.raises(ValueError, match="paired error sets must be finite"):
            call()


def _em(cols, names=None):
    cols = np.column_stack(cols)
    names = names or [f"M{j + 1}" for j in range(cols.shape[1])]
    return ErrorMatrix(errors=cols, method_names=names)


def sip_pair(e1, e2):
    """(SIP, tie count) of method 1 over method 2, from the two-column SIP report."""
    report = sip_matrix(_em([e1, e2]))
    return report.sip[0, 1], int(report.ties[0, 1])


def test_sip_pair_ties_and_dominance():
    e = np.array([0.5, -1.0, 2.0])
    assert sip_pair(e, e) == (0.0, 3)
    assert sip_pair(np.array([0.1, 0.1]), np.array([1.0, 1.0])) == (1.0, 0)


def test_sip_pair_matches_bruteforce():
    rng = np.random.default_rng(17)
    for _ in range(200):
        e1 = rng.normal(size=5)
        e2 = rng.normal(size=5)
        sip, ties = sip_pair(e1, e2)
        ref_sip, ref_ties, _, _ = brute_force_pair(e1, e2)
        assert sip == ref_sip and ties == ref_ties


def test_sip_matrix_total_dominance():
    report = sip_matrix(_em([[0.1, 0.1], [1.0, 1.0]]))
    np.testing.assert_array_equal(report.sip, [[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(report.msip, [0.5, 0.0])  # divisor is K = 2
    assert report.order == [0, 1]


def test_sip_matrix_identical_methods():
    e = np.array([0.4, -0.2, 1.0])
    report = sip_matrix(_em([e, e, e]))
    assert np.all(report.sip == 0.0)
    np.testing.assert_array_equal(report.msip, [0.0, 0.0, 0.0])
    assert np.all(report.ties + np.eye(3, dtype=int) * -3 + 3 * np.eye(3, dtype=int) >= 0)


def test_sip_matrix_matches_pairwise_oracle():
    rng = np.random.default_rng(23)
    errors = rng.normal(size=(6, 4))
    report = sip_matrix(_em(list(errors.T)))
    for i in range(4):
        for j in range(4):
            if i == j:
                assert report.sip[i, j] == 0.0
                assert np.isnan(report.mg[i, j])
                continue
            sip, ties, mg, ml = brute_force_pair(errors[:, i], errors[:, j])
            assert report.sip[i, j] == pytest.approx(sip)
            assert report.ties[i, j] == ties
            if mg is None:
                assert np.isnan(report.mg[i, j])
            else:
                assert report.mg[i, j] == pytest.approx(mg)
            if ml is None:
                assert np.isnan(report.ml[i, j])
            else:
                assert report.ml[i, j] == pytest.approx(ml)
    np.testing.assert_allclose(report.msip, report.sip.sum(axis=1) / 4)


def _sip_matrix_per_ordered_pair(errors):
    """(SIP, MG, ML, ties) scored once per ordered pair, as sip_matrix did before it mirrored each unordered pair."""
    k = errors.shape[1]
    sip = np.zeros((k, k))
    mg = np.full((k, k), np.nan)
    ties = np.zeros((k, k), dtype=int)
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            deltas = abs_error_deltas(errors[:, i], errors[:, j])
            sip[i, j] = float((deltas < 0).mean())
            ties[i, j] = int((deltas == 0).sum())
            neg = deltas[deltas < 0]
            if neg.size:
                mg[i, j] = float(neg.mean())
    return sip, mg, -mg.T, ties


def _planted_tables(seed, count, n_min):
    """Random error tables, N in n_min..60 and K in 2..6, where columns share |errors| on random rows."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, k = int(rng.integers(n_min, 61)), int(rng.integers(2, 7))
        errors = rng.standard_t(df=3, size=(n, k))
        for j, src in enumerate(rng.integers(0, k, size=k)):
            rows = rng.random(n) < rng.random()
            errors[rows, j] = errors[rows, src] * rng.choice([-1.0, 1.0], size=int(rows.sum()))
        yield errors


def test_sip_matrix_equals_the_per_ordered_pair_loop_bit_for_bit():
    ties = 0
    for errors in _planted_tables(71, 200, n_min=1):
        report = sip_matrix(_em(list(errors.T)))
        expected = _sip_matrix_per_ordered_pair(errors)
        for got, want in zip((report.sip, report.mg, report.ml, report.ties), expected):
            assert np.array_equal(got, want, equal_nan=True)
        ties += int(report.ties.sum() - np.trace(report.ties))
    assert ties > 0


def test_pair_scores_equal_the_separate_formulas_bit_for_bit():
    # The point values of delta_ecdf and mue_decomposition as they were
    # computed before one helper scored the gains and losses.
    for t, errors in enumerate(_planted_tables(73, 200, n_min=2)):
        e1, e2 = errors[:, 0], errors[:, 1]
        d = abs_error_deltas(e1, e2)
        neg, pos = d[d < 0], -d[d > 0]
        mg = float(neg.mean()) if neg.size else None
        ml = -float(pos.mean()) if pos.size else None
        mue_1, mue_2 = np.abs(e1).mean(), np.abs(e2).mean()
        report = delta_ecdf(e1, e2, BootstrapPlan(B=(100, 257)[t % 2], seed=t))
        assert (report.sip.value, report.mg.value, report.ml.value, report.ties) == (
            float((d < 0).mean()), mg, ml, int((d == 0).sum()))
        assert report.delta_mue.value == float(mue_1 - mue_2)
        reconstructed = 0.0
        if (d < 0).mean() > 0:
            reconstructed += float((d < 0).mean()) * mg
        if (d > 0).mean() > 0:
            reconstructed += float((d > 0).mean()) * ml
        assert mue_decomposition(e1, e2) == (float(mue_1 - mue_2), reconstructed)


def test_sip_identities_on_random_matrices():
    rng = np.random.default_rng(29)
    for _ in range(60):
        n = int(rng.integers(1, 30))
        k = int(rng.integers(2, 6))
        errors = rng.standard_t(df=3, size=(max(n, 1), k))
        report = sip_matrix(_em(list(errors.T)))
        off = ~np.eye(k, dtype=bool)
        # antisymmetry with ties: SIP_ij + SIP_ji + ties/N == 1
        total = report.sip + report.sip.T + report.ties / report.n_systems
        np.testing.assert_allclose(total[off], 1.0, atol=1e-15)
        # ML(i,j) == -MG(j,i), sign conventions
        both = off & ~np.isnan(report.mg) & ~np.isnan(report.ml.T)
        np.testing.assert_array_equal(report.ml.T[both], -report.mg[both])
        assert np.all(report.mg[~np.isnan(report.mg)] <= 0)
        assert np.all(report.ml[~np.isnan(report.ml)] >= 0)


def test_sip_invariant_under_common_rescaling():
    rng = np.random.default_rng(31)
    e1, e2 = rng.normal(size=20), rng.normal(size=20)
    base = sip_pair(e1, e2)
    for scale in (1e-6, 0.5, 3.0, 1e8):
        assert sip_pair(scale * e1, scale * e2) == base


def test_mue_decomposition_trivial_and_forced():
    e = np.array([0.3, -0.7])
    assert mue_decomposition(e, e) == (0.0, 0.0)
    dmue, rec = mue_decomposition(np.array([0.1, 0.1]), np.array([1.0, 1.0]))
    assert dmue == pytest.approx(-0.9)
    assert rec == pytest.approx(-0.9)


def test_mue_decomposition_identity_random():
    rng = np.random.default_rng(37)
    for _ in range(300):
        n = int(rng.integers(1, 101))
        e1 = rng.normal(scale=rng.uniform(0.1, 5), size=n)
        e2 = rng.normal(scale=rng.uniform(0.1, 5), size=n)
        dmue, rec = mue_decomposition(e1, e2)
        assert rec == pytest.approx(dmue, rel=1e-12, abs=1e-14)


# ------------------------------------------------------------- delta ECDF

def test_delta_ecdf_degenerate_pair():
    e = np.array([0.5, -1.0, 2.0, 0.1])
    report = delta_ecdf(e, e, BootstrapPlan(B=200, seed=1))
    np.testing.assert_array_equal(report.deltas, np.zeros(4))
    np.testing.assert_array_equal(report.ecdf, np.ones(4))
    assert report.sip.value == 0.0
    assert report.ties == 4
    assert report.mg.value is None and report.ml.value is None
    assert report.delta_mue.value == 0.0


def test_delta_ecdf_consistency_and_band():
    rng = np.random.default_rng(41)
    e1, e2 = rng.normal(size=25), rng.normal(size=25)
    report = delta_ecdf(e1, e2, BootstrapPlan(B=500, seed=3), labels=("A", "B"))
    assert report.sip.value == sip_pair(e1, e2)[0]
    dmue, _ = mue_decomposition(e1, e2)
    assert report.delta_mue.value == pytest.approx(dmue)
    # sorted deltas, nondecreasing ECDF ending at 1, band brackets the ECDF
    assert np.all(np.diff(report.deltas) >= 0)
    assert np.all(np.diff(report.ecdf) >= 0)
    assert report.ecdf[0] >= 1 / 25 and report.ecdf[-1] == 1.0
    assert np.all(report.band_lo <= report.ecdf + 1e-12)
    assert np.all(report.ecdf <= report.band_hi + 1e-12)
    assert report.sip.lo <= report.sip.value <= report.sip.hi
    rows = list(report.rows())
    assert len(rows) == 25


def test_delta_ecdf_intervals_match_a_mean_per_replicate():
    # Few systems and mostly losses, so many replicates have no gain and
    # are left out of the MG interval.  The engine sums in sorted-delta
    # order, so the intervals agree to rounding, not bit for bit.
    rng = np.random.default_rng(59)
    for t in range(40):
        n = int(rng.integers(2, 8))
        e2 = rng.normal(size=n)
        e1 = e2 * np.where(rng.random(n) < 0.2, 0.5, 2.0)
        plan = BootstrapPlan(B=(100, 257)[t % 2], seed=t, n_prime=(None, max(2, n - 1))[t % 3 == 0])
        report = delta_ecdf(e1, e2, plan)
        d = abs_error_deltas(e1, e2)
        reps = [d[resample_indices(plan, j, n)] for j in range(plan.B)]
        per_replicate = {
            "sip": [(r < 0).mean() for r in reps],
            "mg": [r[r < 0].mean() for r in reps if (r < 0).any()],
            "ml": [r[r > 0].mean() for r in reps if (r > 0).any()],
            "delta_mue": [r.mean() for r in reps],
        }
        for name, values in per_replicate.items():
            s = getattr(report, name)
            if not values:
                assert (s.lo, s.hi) == (None, None)
                continue
            lo, hi = np.percentile(values, [2.5, 97.5])
            assert s.lo == pytest.approx(lo, rel=1e-12, abs=1e-15) and s.hi == pytest.approx(hi, rel=1e-12, abs=1e-15)


def test_delta_ecdf_sip_interval_coverage():
    # Population with known gain fraction 0.8: e1 shrinks e2 with p=0.8.
    rng = np.random.default_rng(47)
    n, reps = 30, 500
    covered = 0
    for i in range(reps):
        e2 = rng.normal(size=n)
        shrink = rng.random(n) < 0.8
        e1 = np.where(shrink, 0.5 * e2, 2.0 * e2)
        report = delta_ecdf(e1, e2, BootstrapPlan(B=400, seed=1000 + i))
        if report.sip.lo <= 0.8 <= report.sip.hi:
            covered += 1
    assert covered / reps >= 0.90


def test_delta_ecdf_serialization(tmp_path):
    rng = np.random.default_rng(53)
    e1, e2 = rng.normal(size=10), rng.normal(size=10)
    table = tmp_path / "pair.csv"
    rows = [f"s{i},0,{-a!r},{-b!r}" for i, (a, b) in enumerate(zip(e1.tolist(), e2.tolist()))]
    table.write_text("\n".join(["System,Ref,M1,M2", *rows]) + "\n")
    out = tmp_path / "pair.json"
    argv = ["sip", str(table), "--pair", "M1,M2", "--boot", "150", "--seed", "5", "--ubar", "0.2", "--json", str(out)]
    assert run(argv) == 0
    d = json.loads(out.read_text())["report"]
    assert d["uncertainty_bar"] == 0.2
    assert len(d["deltas"]) == 10
    assert set(d["sip"]) == {"value", "lo", "hi"}
