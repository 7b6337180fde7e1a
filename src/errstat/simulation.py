"""Synthetic error-set generators and the studies validating the machinery.

The g-and-h family (a transform of a standard normal controlling skewness
via g and tail weight via h, normal at g = h = 0) generates the error
distributions.  Correlated pairs share a bivariate-normal seed before the
marginal transform (Gaussian copula), and each margin is standardized to
unit variance by the closed-form moments of the transform.

Three studies probe the inference machinery: transfer of error-set
correlation to statistic correlation, type-I error calibration of the
generalized p-value, and the sampling behaviour of the two quantile
estimators.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .estimators import StatKind, _quantile_rows, _Resampled, evaluate_rows, percentile
from .correlation import pearson
from .inference import _MASK64, generalized_p

__all__ = [
    "GHParams",
    "StudyConfig",
    "StudyResult",
    "FoldedStats",
    "SCENARIOS",
    "gh_transform",
    "gh_sample",
    "correlated_pairs",
    "population_folded_stats",
    "corr_transfer_study",
    "type1_study",
    "hd_convergence_study",
]


@dataclass(frozen=True)
class GHParams:
    """g-and-h shape (g >= 0 asymmetry, h >= 0 tails) plus location/scale, all finite."""

    g: float = 0.0
    h: float = 0.0
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if not (0 <= self.g < math.inf and 0 <= self.h < math.inf):  # NaN fails too
            raise ValueError(f"g and h must be finite and >= 0, got g={self.g}, h={self.h}")
        if not (math.isfinite(self.mu) and 0 < self.sigma < math.inf):
            raise ValueError(f"mu must be finite and sigma finite and > 0, got mu={self.mu}, sigma={self.sigma}")

    @property
    def label(self):
        base = f"g={self.g:g},h={self.h:g}"
        if self.mu != 0.0 or self.sigma != 1.0:
            base += f",mu={self.mu:g},sigma={self.sigma:g}"
        return base


# The four shapes of Wilcox and Erceg-Hurn: normal, heavy-tailed
# symmetric, light-tailed asymmetric, heavy-tailed asymmetric.
SCENARIOS = {
    "normal": GHParams(0.0, 0.0),
    "heavy": GHParams(0.0, 0.2),
    "asym": GHParams(0.2, 0.0),
    "heavyasym": GHParams(0.2, 0.2),
}


def gh_transform(z, g, h):
    """Map standard-normal draws to the g-and-h distribution.

    X = (exp(gz) - 1)/g * exp(h z^2 / 2) for g > 0, and the g -> 0 limit
    z * exp(h z^2 / 2) for g = 0.
    """
    if g < 0 or h < 0:
        raise ValueError("g and h must be >= 0")
    zv = np.asarray(z, dtype=float)
    tails = np.exp(0.5 * h * zv**2)
    if g == 0.0:
        out = zv * tails
    else:
        out = np.expm1(g * zv) / g * tails
    return float(out) if np.isscalar(z) else out


def _expm1_ratio(x):
    """expm1(x)/x, continuous at x = 0 where it is 1; inf once expm1 overflows."""
    try:
        return math.expm1(x) / x if x else 1.0
    except OverflowError:
        return math.inf


def _gh_moments(g, h):
    """Population mean and standard deviation of the raw g-and-h transform.

    Closed forms of E[X] and E[X^2] (Hoaglin 1985), finite only for
    h < 1/2.  Every expm1 term is divided by its argument, so the moments
    stay exact as g -> 0, even where g*g underflows.
    """
    if h >= 0.5:
        raise ValueError(f"g-and-h variance is infinite for h >= 0.5 (got h={h})")
    c1 = 1.0 - h
    c2 = 1.0 - 2.0 * h
    if g == 0.0:
        return 0.0, math.sqrt(c2**-1.5)
    a = g * g
    mean = g / (2.0 * c1 * math.sqrt(c1)) * _expm1_ratio(a / (2.0 * c1))
    second = (2.0 * _expm1_ratio(2.0 * a / c2) - _expm1_ratio(a / (2.0 * c2))) / (c2 * math.sqrt(c2))
    var = second - mean * mean
    if not math.isfinite(var):
        raise ValueError(f"g-and-h variance overflows double precision at g={g:g}, h={h:g}")
    return mean, math.sqrt(var)


def _standardize(z, params):
    mean, sd = _gh_moments(params.g, params.h)
    return params.mu + params.sigma * (gh_transform(z, params.g, params.h) - mean) / sd


def gh_sample(params, size, rng):
    """Sample with the g-and-h shape, mean `mu` and standard deviation `sigma`."""
    return _standardize(rng.standard_normal(size), params)


def correlated_pairs(rho, params1, params2, shape, rng):
    """Two error sets with Gaussian-copula correlation `rho`.

    `shape` is n for one pair of size-n sets, or (reps, n) for `reps`
    pairs at once, row r of each array forming one pair.  The prescribed
    correlation applies to the underlying normal pair; the marginal
    transforms perturb the realized product-moment correlation slightly
    for non-normal shapes.
    """
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"correlation must be in [-1, 1], got {rho}")
    z1 = rng.standard_normal(shape)
    w = rng.standard_normal(shape)
    z2 = rho * z1 + np.sqrt(1.0 - rho * rho) * w
    return _standardize(z1, params1), _standardize(z2, params2)


@dataclass(frozen=True)
class FoldedStats:
    """Population statistics of |X| for X ~ N(mu, sigma)."""

    mse: float
    rmsd: float
    mue: float
    q95: float


_FOLDED_Q_TOL = 1e-8  # bisection stops when the bracket is this narrow


def _phi(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _folded_quantile(mu, sigma, q):
    """The q quantile of |X| for X ~ N(mu, sigma), by bisection on P(|X| <= x) = Phi((x-mu)/s) - Phi((-x-mu)/s)."""
    lo, hi = 0.0, abs(mu) + 20.0 * sigma
    while hi - lo > _FOLDED_Q_TOL:
        mid = 0.5 * (lo + hi)
        if _phi((mid - mu) / sigma) - _phi((-mid - mu) / sigma) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def population_folded_stats(mu, sigma):
    """Exact MSE/RMSD/MUE/Q95 of a normal error distribution.

    MUE is the folded-normal mean and Q95 the 0.95 quantile of |X|, with
    Phi(x) = erfc(-x / sqrt 2) / 2.
    """
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    mue = sigma * np.sqrt(2.0 / np.pi) * np.exp(-(mu**2) / (2.0 * sigma**2)) + mu * (1.0 - 2.0 * _phi(-mu / sigma))
    return FoldedStats(mse=float(mu), rmsd=float(sigma), mue=float(mue), q95=_folded_quantile(mu, sigma, 0.95))


@dataclass(frozen=True)
class StudyConfig:
    """Shared knobs of the simulation studies."""

    n_values: tuple = (100,)
    rho_values: tuple = (0.0,)
    reps: int = 1000
    B: int = 1000
    gh_scenarios: tuple = (SCENARIOS["normal"],)
    seed: int = 0
    statistic: StatKind | None = None

    def __post_init__(self):
        if self.reps < 100:
            raise ValueError(f"need at least 100 repetitions, got {self.reps}")
        if any(n < 10 for n in self.n_values):
            raise ValueError("dataset sizes must be >= 10")
        if any(not -1.0 <= r <= 1.0 for r in self.rho_values):
            raise ValueError("correlations must be in [-1, 1]")


@dataclass(frozen=True)
class StudyResult:
    """Uniform tabular study output: named columns, one row per cell."""

    study: str
    columns: tuple
    rows: list
    config: StudyConfig
    extra: dict = field(default_factory=dict)


def _cell_rng(seed, *path):
    """Independent substream for one study cell/repetition."""
    ss = np.random.SeedSequence(entropy=seed & _MASK64, spawn_key=tuple(path))
    return np.random.default_rng(ss)


_TRANSFER_STATS = (StatKind.mse(), StatKind.mue(), StatKind.quantile(0.95, "hd"))


def _fisher_ci(r, m):
    if abs(r) >= 1.0 or m <= 3:
        return r, r
    z = np.arctanh(r)
    half = 1.959963984540054 / np.sqrt(m - 3.0)
    return float(np.tanh(z - half)), float(np.tanh(z + half))


def corr_transfer_study(config):
    """How much error-set correlation survives in each statistic.

    For every (scenario, N, rho) cell, `reps` sample pairs are drawn and
    the MSE/MUE/Q95 of each member computed; the returned correlation is
    taken across repetitions, with a 95% Fisher sampling interval.
    """
    rows = []
    for si, scen in enumerate(config.gh_scenarios):
        for ni, n in enumerate(config.n_values):
            for ri, rho in enumerate(config.rho_values):
                rng = _cell_rng(config.seed, 0, si, ni, ri)
                e1, e2 = correlated_pairs(rho, scen, scen, (config.reps, n), rng)
                for kind in _TRANSFER_STATS:
                    s1 = evaluate_rows(kind, e1)
                    s2 = evaluate_rows(kind, e2)
                    r = pearson(s1, s2)
                    lo, hi = _fisher_ci(r, config.reps)
                    rows.append((scen.label, n, rho, kind.label, r, lo, hi, config.reps))
    return StudyResult(
        study="corrtransfer",
        columns=("scenario", "n", "rho", "stat", "cor", "ci_lo", "ci_hi", "reps"),
        rows=rows,
        config=config,
    )


def type1_study(config):
    """Rejection rate of a true null with the generalized p-value.

    Each repetition draws two same-distribution, rho-correlated samples
    and tests equality of the statistic at the 0.05 level; the rejection
    fraction estimates the type-I error alpha, reported with a binomial
    standard error.  Each (scenario, n) cell evaluates its repetitions'
    paired resamples with one evaluator, so the scratch arrays of every
    repetition after the first are reused, not allocated again.
    """
    kind = config.statistic
    if kind is None or kind.kind not in ("mue", "q"):
        raise ValueError("type1_study needs config.statistic set to MUE or a quantile")
    rows = []
    for si, scen in enumerate(config.gh_scenarios):
        for ni, n in enumerate(config.n_values):
            resampled = _Resampled(kind)
            for ri, rho in enumerate(config.rho_values):
                rejections = 0
                for rep in range(config.reps):
                    rng = _cell_rng(config.seed, 1, si, ni, ri, rep)
                    e1, e2 = correlated_pairs(rho, scen, scen, n, rng)
                    stats = resampled.bind(np.column_stack([e1, e2]))(rng.integers(0, n, size=(config.B, n)))
                    if generalized_p(stats[:, 0] - stats[:, 1]) < 0.05:
                        rejections += 1
                alpha = rejections / config.reps
                se = float(np.sqrt(alpha * (1.0 - alpha) / config.reps))
                rows.append((scen.label, n, rho, kind.label, alpha, se, config.reps, config.B))
    return StudyResult(
        study="type1",
        columns=("scenario", "n", "rho", "stat", "alpha", "se", "reps", "B"),
        rows=rows,
        config=config,
    )


_SUMMARY_QS = (0.05, 0.25, 0.5, 0.75, 0.95)
_HD_BASE_N = 500  # size of mode B's one fixed sample


def _spread(est):
    """The _SUMMARY_QS quantiles of the estimates, then how many distinct values they take."""
    xs = np.sort(est)  # np.unique would import numpy.ma
    distinct = 1 + int(np.count_nonzero(xs[1:] != xs[:-1]))
    return (*[float(v) for v in percentile(est, [100 * p for p in _SUMMARY_QS])], distinct)


def hd_convergence_study(config, modes=("A", "B")):
    """Sampling behaviour of the two Q95 estimators versus sample size.

    Mode A draws fresh samples of each size and summarizes the spread of
    the estimates by five quantiles.  Mode B bootstraps subsets of one
    fixed sample of 500, additionally counting the distinct estimate
    values (the smooth estimator produces many more of them, which is why
    it pairs well with the bootstrap).  Other modes and a second scenario
    raise ValueError; `extra` holds a normal scenario's `reference_q<level>`.
    """
    if not modes or not set(modes) <= {"A", "B"}:
        raise ValueError(f"hdstudy modes must be A and/or B, got {tuple(modes)!r}")
    if len(config.gh_scenarios) != 1:
        raise ValueError(f"hdstudy runs one scenario, got {'; '.join(s.label for s in config.gh_scenarios)}")
    (scen,) = config.gh_scenarios
    q = config.statistic.q if config.statistic is not None and config.statistic.kind == "q" else 0.95
    reference = _folded_quantile(scen.mu, scen.sigma, q) if scen.g == 0 and scen.h == 0 else None
    hd = StatKind.quantile(q, "hd")
    q7 = StatKind.quantile(q, "type7")
    rows = []
    if "A" in modes:
        for ni, n in enumerate(config.n_values):
            rng = _cell_rng(config.seed, 2, ni)
            samples = gh_sample(scen, (config.reps, n), rng)
            for kind, name in ((hd, "hd"), (q7, "type7")):
                rows.append(("A", n, name, *_spread(evaluate_rows(kind, samples))))
    if "B" in modes:
        if max(config.n_values) > _HD_BASE_N:
            raise ValueError(f"mode B subsets cannot exceed the base sample size {_HD_BASE_N}")
        base = gh_sample(scen, _HD_BASE_N, _cell_rng(config.seed, 3))
        for ni, n in enumerate(config.n_values):
            idx = _cell_rng(config.seed, 4, ni).integers(0, n, size=(config.reps, n))
            for name, values in zip(("hd", "type7"), _quantile_rows((hd, q7), base[:n], idx)):
                rows.append(("B", n, name, *_spread(values)))
    return StudyResult(
        study="hdstudy",
        columns=("mode", "n", "estimator", "q05", "q25", "q50", "q75", "q95", "n_distinct"),
        rows=rows,
        config=config,
        extra={} if reference is None else {f"reference_{hd.label.lower()}": reference},
    )
