import numpy as np
import pytest

import errstat.simulation as simulation
from errstat.correlation import pearson
from errstat.estimators import StatKind, _Resampled
from errstat.simulation import (
    GHParams,
    SCENARIOS,
    StudyConfig,
    corr_transfer_study,
    correlated_pairs,
    gh_sample,
    gh_transform,
    hd_convergence_study,
    population_folded_stats,
    type1_study,
)
from errstat.simulation import _cell_rng, _fisher_ci, _gh_moments


def closed_form_moments(g, h):
    """Analytic mean/sd of the raw g-and-h transform (h < 1/2)."""
    if g == 0.0:
        mean = 0.0
        second = (1.0 - 2.0 * h) ** -1.5
    else:
        mean = (np.exp(g**2 / (2.0 * (1.0 - h))) - 1.0) / (g * np.sqrt(1.0 - h))
        second = (
            np.exp(2.0 * g**2 / (1.0 - 2.0 * h))
            - 2.0 * np.exp(g**2 / (2.0 * (1.0 - 2.0 * h)))
            + 1.0
        ) / (g**2 * np.sqrt(1.0 - 2.0 * h))
    return mean, np.sqrt(second - mean**2)


# ---------------------------------------------------------------- transform

def test_gh_transform_examples():
    assert gh_transform(1.7, 0.0, 0.0) == 1.7
    assert gh_transform(1.0, 0.0, 0.2) == pytest.approx(np.exp(0.1))
    assert gh_transform(0.0, 0.2, 0.0) == 0.0
    z = np.linspace(-3, 3, 7)
    np.testing.assert_array_equal(gh_transform(z, 0.0, 0.0), z)
    with pytest.raises(ValueError):
        gh_transform(1.0, -0.1, 0.0)


def test_gh_transform_strictly_increasing():
    z = np.linspace(-4.0, 4.0, 2001)
    for g, h in ((0.0, 0.0), (0.0, 0.2), (0.2, 0.0), (0.2, 0.2), (0.5, 0.4)):
        x = gh_transform(z, g, h)
        assert np.all(np.diff(x) > 0)


def test_gh_transform_continuous_at_g_zero():
    z = np.linspace(-4.0, 4.0, 81)
    for h in (0.0, 0.2):
        gap = np.abs(gh_transform(z, 1e-8, h) - gh_transform(z, 0.0, h))
        assert gap.max() < 1e-6


def test_gh_moments_match_closed_form():
    for g, h in ((0.0, 0.0), (0.0, 0.2), (0.2, 0.0), (0.2, 0.2), (0.4, 0.1)):
        mean, sd = _gh_moments(g, h)
        ref_mean, ref_sd = closed_form_moments(g, h)
        assert mean == pytest.approx(ref_mean, abs=1e-9)
        assert sd == pytest.approx(ref_sd, rel=1e-9)
    with pytest.raises(ValueError):
        _gh_moments(0.0, 0.5)



MPMATH_G = (0.0, 1e-300, 1e-200, 1e-160, 1e-100, 1e-20, 1e-8, 1e-4, 0.01, 0.1, 0.2, 0.5, 1.0)
MPMATH_H = (0.0, 0.1, 0.2, 0.3, 0.45, 0.49)


def test_gh_moments_match_mpmath():
    # 60-digit evaluation of the same closed forms at the exact binary g
    # and h; tiny g checks the expm1(x)/x form where g*g underflows.
    import mpmath
    from mpmath import mpf, sqrt

    for g, h in ((g, h) for g in MPMATH_G for h in MPMATH_H):
        with mpmath.workdps(60):
            gm, hm = mpf(g), mpf(h)
            c1, c2 = 1 - hm, 1 - 2 * hm
            if g == 0.0:
                ref_mean, second = mpf(0), c2 ** mpf(-1.5)
            else:
                ref_mean = mpmath.expm1(gm**2 / (2 * c1)) / (gm * sqrt(c1))
                second = (mpmath.expm1(2 * gm**2 / c2) - 2 * mpmath.expm1(gm**2 / (2 * c2))) / (gm**2 * sqrt(c2))
            ref_sd = sqrt(second - ref_mean**2)
            mean, sd = _gh_moments(g, h)
            assert abs(mean - ref_mean) <= 1e-14 * abs(ref_mean), (g, h, mean, ref_mean)
            assert abs(sd - ref_sd) <= 1e-14 * ref_sd, (g, h, sd, ref_sd)


def test_gh_params_validation():
    with pytest.raises(ValueError):
        GHParams(g=-0.1)
    with pytest.raises(ValueError):
        GHParams(sigma=0.0)
    assert SCENARIOS["heavy"].h == 0.2
    assert GHParams(0.2, 0.1, mu=1.5, sigma=2.0).label == "g=0.2,h=0.1,mu=1.5,sigma=2"


def test_gh_sample_standardization():
    rng = np.random.default_rng(3)
    for name in ("normal", "heavy", "asym", "heavyasym"):
        x = gh_sample(SCENARIOS[name], 200_000, rng)
        assert x.mean() == pytest.approx(0.0, abs=0.02)
        assert x.std(ddof=1) == pytest.approx(1.0, abs=0.03)
    shifted = gh_sample(GHParams(0.2, 0.1, mu=1.5, sigma=2.0), 200_000, rng)
    assert shifted.mean() == pytest.approx(1.5, abs=0.05)
    assert shifted.std(ddof=1) == pytest.approx(2.0, abs=0.06)


# ------------------------------------------------------------ correlated pairs

def test_correlated_pairs_comonotone():
    rng = np.random.default_rng(5)
    e1, e2 = correlated_pairs(1.0, SCENARIOS["heavy"], SCENARIOS["heavy"], 500, rng)
    np.testing.assert_array_equal(e1, e2)


def test_correlated_pairs_prescribed_rho():
    rng = np.random.default_rng(7)
    p = SCENARIOS["normal"]
    for rho in (0.0, 0.7):
        e1, e2 = correlated_pairs(rho, p, p, 100_000, rng)
        assert pearson(e1, e2) == pytest.approx(rho, abs=0.02)


def test_correlated_pairs_sign_symmetry():
    p = SCENARIOS["normal"]
    e1, e2 = correlated_pairs(0.6, p, p, 100_000, np.random.default_rng(11))
    f1, f2 = correlated_pairs(-0.6, p, p, 100_000, np.random.default_rng(11))
    assert pearson(e1, e2) + pearson(f1, f2) == pytest.approx(0.0, abs=0.02)


def test_correlated_pairs_validation():
    with pytest.raises(ValueError):
        correlated_pairs(1.5, SCENARIOS["normal"], SCENARIOS["normal"], 10, np.random.default_rng(0))


# ---------------------------------------------------------------- folded stats

def test_folded_stats_table_values():
    s1 = population_folded_stats(0.0, 1.1)
    assert round(s1.mue, 2) == 0.88
    assert round(s1.q95, 2) == 2.16
    s2 = population_folded_stats(0.1, 1.0)
    assert round(s2.mue, 2) == 0.80
    assert round(s2.q95, 2) == 1.97
    assert (s2.mse, s2.rmsd) == (0.1, 1.0)


def test_folded_stats_zero_mean_closed_form():
    for sigma in (0.5, 1.0, 3.0):
        s = population_folded_stats(0.0, sigma)
        assert s.mue == pytest.approx(sigma * np.sqrt(2.0 / np.pi), abs=1e-10)
    with pytest.raises(ValueError):
        population_folded_stats(0.0, 0.0)


def test_folded_q95_solves_cdf():
    from scipy.special import ndtr

    s = population_folded_stats(0.3, 1.7)
    cdf = ndtr((s.q95 - 0.3) / 1.7) - ndtr((-s.q95 - 0.3) / 1.7)
    assert cdf == pytest.approx(0.95, abs=1e-7)


def test_folded_q95_is_always_the_095_quantile():
    # q95 names the 0.95 quantile: no level is taken, and other levels come from the private bisection.
    from scipy.special import ndtr

    from errstat.simulation import _folded_quantile

    with pytest.raises(TypeError):
        population_folded_stats(0.0, 1.0, q=0.9)
    assert population_folded_stats(0.3, 1.7).q95 == _folded_quantile(0.3, 1.7, 0.95)
    for q in (0.5, 0.9):
        x = _folded_quantile(0.3, 1.7, q)
        assert ndtr((x - 0.3) / 1.7) - ndtr((-x - 0.3) / 1.7) == pytest.approx(q, abs=1e-7)


# --------------------------------------------------------------------- studies

def test_study_config_validation():
    with pytest.raises(ValueError):
        StudyConfig(reps=50)
    with pytest.raises(ValueError):
        StudyConfig(n_values=(5,))
    with pytest.raises(ValueError):
        StudyConfig(rho_values=(1.5,))


def test_fisher_interval_of_a_perfect_correlation_is_the_point():
    assert _fisher_ci(1.0, 100) == (1.0, 1.0)
    assert _fisher_ci(-1.0, 100) == (-1.0, -1.0)


def test_corr_transfer_small_smoke():
    config = StudyConfig(
        n_values=(50,), rho_values=(-0.8, 0.0, 0.8), reps=300,
        gh_scenarios=(SCENARIOS["normal"],), seed=2,
    )
    result = corr_transfer_study(config)
    assert result.columns[:4] == ("scenario", "n", "rho", "stat")
    by_key = {(r[2], r[3]): r[4] for r in result.rows}
    for rho in (-0.8, 0.0, 0.8):
        assert by_key[(rho, "MSE")] == pytest.approx(rho, abs=0.12)
    assert by_key[(0.8, "MUE")] == pytest.approx(0.64, abs=0.15)
    # reproducible bit-exactly from (config, seed)
    again = corr_transfer_study(config)
    assert result.rows == again.rows


def test_type1_study_smoke_and_determinism():
    config = StudyConfig(
        n_values=(30,), rho_values=(0.5,), reps=150, B=200,
        gh_scenarios=(SCENARIOS["normal"],), seed=3, statistic=StatKind.mue(),
    )
    result = type1_study(config)
    (row,) = result.rows
    alpha = row[4]
    assert 0.0 <= alpha <= 0.15
    assert type1_study(config).rows == result.rows


def _boot_diff_block(e1, e2, kind, B, rng):
    """The type-I study's old per-repetition path: a freshly built evaluator on one index block."""
    idx = rng.integers(0, e1.shape[0], size=(B, e1.shape[0]))
    stats = _Resampled(kind).bind(np.column_stack([e1, e2]))(idx)
    return stats[:, 0] - stats[:, 1]


@pytest.mark.parametrize("kind", [StatKind.mue(), StatKind.quantile(0.95, "hd"), StatKind.quantile(0.9, "type7")])
def test_type1_study_differences_equal_the_fresh_block_path(kind, monkeypatch):
    # One evaluator per (scenario, n) cell, rebound every repetition, must
    # give each repetition the differences the fresh path gives.
    config = StudyConfig(n_values=(12, 20), rho_values=(0.0, 0.8), reps=100, B=100,
                         gh_scenarios=(SCENARIOS["normal"], SCENARIOS["heavyasym"]), seed=9, statistic=kind)
    seen = []
    real = simulation.generalized_p
    monkeypatch.setattr(simulation, "generalized_p", lambda d: seen.append(d.copy()) or real(d))
    type1_study(config)
    want = []
    for si, scen in enumerate(config.gh_scenarios):
        for ni, n in enumerate(config.n_values):
            for ri, rho in enumerate(config.rho_values):
                for rep in range(config.reps):
                    rng = _cell_rng(config.seed, 1, si, ni, ri, rep)
                    e1, e2 = correlated_pairs(rho, scen, scen, n, rng)
                    want.append(_boot_diff_block(e1, e2, kind, config.B, rng))
    assert len(seen) == len(want) == 800
    assert all(np.array_equal(a, b) for a, b in zip(seen, want))


def test_type1_study_requires_statistic():
    with pytest.raises(ValueError):
        type1_study(StudyConfig(reps=100))
    with pytest.raises(ValueError):
        type1_study(StudyConfig(reps=100, statistic=StatKind.mse()))


def test_hd_study_mode_b_smoothness():
    # The smooth estimator produces far more distinct bootstrap values.
    config = StudyConfig(
        n_values=(100,), reps=1000, seed=4,
        gh_scenarios=(GHParams(0.0, 0.0, mu=0.1, sigma=1.0),),
    )
    result = hd_convergence_study(config, modes=("B",))
    distinct = {row[2]: row[8] for row in result.rows}
    assert distinct["hd"] > distinct["type7"]


@pytest.mark.parametrize("planted", [False, True])
def test_hd_study_mode_b_equals_the_resampling_kernel(planted, monkeypatch):
    # Mode B evaluates its gathered subsets row by row; each estimate must
    # equal the bootstrap kernel's on the same index rows, ties and -0.0 included.
    real = simulation.gh_sample

    def base(params, size, rng):
        x = real(params, size, rng)
        return np.where(np.arange(size) % 3 == 0, -0.0, np.round(x, 1)) if planted else x

    spread, seen, bind, bound = simulation._spread, [], _Resampled.bind, []
    monkeypatch.setattr(simulation, "gh_sample", base)
    monkeypatch.setattr(simulation, "_spread", lambda est: seen.append(est.copy()) or spread(est))
    monkeypatch.setattr(_Resampled, "bind", lambda self, cols: bound.append(len(cols)) or bind(self, cols))
    for scen in SCENARIOS.values():
        config = StudyConfig(n_values=(10, 37, 500), reps=100, seed=6, gh_scenarios=(scen,),
                             statistic=StatKind.quantile(0.9))
        seen.clear()
        bound.clear()
        hd_convergence_study(config, modes=("B",))
        assert bound == [10, 37, 500]  # each subset is ranked once for both estimators
        sample = base(scen, simulation._HD_BASE_N, _cell_rng(config.seed, 3))
        want = []
        for ni, n in enumerate(config.n_values):
            idx = _cell_rng(config.seed, 4, ni).integers(0, n, size=(config.reps, n))
            for method in ("hd", "type7"):
                want.append(_Resampled(StatKind.quantile(0.9, method)).bind(sample[:n, None])(idx)[:, 0])
        assert len(seen) == len(want) == 6
        assert all(np.array_equal(a, b) for a, b in zip(seen, want))


def test_hd_study_mode_a_summaries():
    config = StudyConfig(
        n_values=(20, 50), reps=500, seed=5,
        gh_scenarios=(GHParams(0.0, 0.0, mu=0.1, sigma=1.0),),
    )
    result = hd_convergence_study(config, modes=("A",))
    assert result.extra["reference_q95"] == pytest.approx(1.9697, abs=1e-3)
    for row in result.rows:
        q05, q25, q50, q75, q95 = row[3:8]
        assert q05 <= q25 <= q50 <= q75 <= q95
    assert hd_convergence_study(config, modes=("A",)).rows == result.rows


def test_hd_study_mode_b_rejects_oversized_subsets():
    config = StudyConfig(n_values=(600,), reps=100, seed=1)
    with pytest.raises(ValueError):
        hd_convergence_study(config, modes=("B",))


@pytest.mark.parametrize("modes", [(), ("C",), ("A", "C"), ("a",)])
def test_hd_study_rejects_unknown_or_no_modes(modes):
    config = StudyConfig(n_values=(20,), reps=100, seed=1)
    with pytest.raises(ValueError, match="modes must be A and/or B"):
        hd_convergence_study(config, modes=modes)
