"""Synthetic error-set generators and the studies validating the machinery.

The g-and-h family (a transform of a standard normal controlling skewness
via g and tail weight via h, normal at g = h = 0) generates the error
distributions.  Correlated pairs share a bivariate-normal seed before the
marginal transform (Gaussian copula), and each margin is standardized to
unit variance by high-precision quadrature of the transform's moments.

Three studies probe the inference machinery: transfer of error-set
correlation to statistic correlation, type-I error calibration of the
generalized p-value, and the sampling behaviour of the two quantile
estimators.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import ndtr

from .estimators import StatKind, evaluate_resampled, evaluate_rows
from .correlation import pearson
from .inference import generalized_p

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

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class GHParams:
    """g-and-h shape (g >= 0 asymmetry, h >= 0 tails) plus location/scale."""

    g: float = 0.0
    h: float = 0.0
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.g < 0 or self.h < 0:
            raise ValueError("g and h must be >= 0")
        if self.sigma <= 0:
            raise ValueError("sigma must be > 0")

    @property
    def label(self):
        base = f"g={self.g:g},h={self.h:g}"
        if self.mu != 0.0 or self.sigma != 1.0:
            base += f",mu={self.mu:g},sigma={self.sigma:g}"
        return base

    def to_dict(self):
        return {"g": self.g, "h": self.h, "mu": self.mu, "sigma": self.sigma}


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


@lru_cache(maxsize=64)
def _gh_moments(g, h):
    """Population mean and standard deviation of the raw g-and-h transform.

    Quadrature of T(z) phi(z) over the real line; the variance is finite
    only for h < 1/2, which is the whole region used here.  The Gaussian
    factor is fused into the exponentials so the integrands stay finite
    where T(z) alone would overflow.
    """
    if h >= 0.5:
        raise ValueError(f"g-and-h variance is infinite for h >= 0.5 (got h={h})")
    if g == 0.0 and h == 0.0:  # exact standard-normal moments; no quadrature import needed
        return 0.0, 1.0
    from scipy import integrate
    norm = 1.0 / np.sqrt(2.0 * np.pi)
    c1 = 1.0 - h  # damping of T(z) phi(z)
    c2 = 1.0 - 2.0 * h  # damping of T(z)^2 phi(z)
    if g == 0.0:
        mean_f = lambda z: norm * z * np.exp(-0.5 * c1 * z * z)
        second_f = lambda z: norm * z * z * np.exp(-0.5 * c2 * z * z)
    else:
        mean_f = lambda z: norm / g * (np.exp(g * z - 0.5 * c1 * z * z) - np.exp(-0.5 * c1 * z * z))
        second_f = lambda z: norm / g**2 * (
            np.exp(2.0 * g * z - 0.5 * c2 * z * z)
            - 2.0 * np.exp(g * z - 0.5 * c2 * z * z)
            + np.exp(-0.5 * c2 * z * z)
        )
    mean = integrate.quad(mean_f, -np.inf, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)[0]
    second = integrate.quad(second_f, -np.inf, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)[0]
    return mean, float(np.sqrt(second - mean**2))


def _standardize(z, params):
    mean, sd = _gh_moments(params.g, params.h)
    return params.mu + params.sigma * (gh_transform(z, params.g, params.h) - mean) / sd


def gh_sample(params, size, rng):
    """Sample with the g-and-h shape, mean `mu` and standard deviation `sigma`."""
    return _standardize(rng.standard_normal(size), params)


def correlated_pairs(rho, params1, params2, n, rng):
    """Two error sets of size n with Gaussian-copula correlation `rho`.

    The prescribed correlation applies to the underlying normal pair;
    the marginal transforms perturb the realized product-moment
    correlation slightly for non-normal shapes.
    """
    e1, e2 = _correlated_block(rho, params1, params2, n, rng)
    return e1, e2


def _correlated_block(rho, params1, params2, shape, rng):
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

    def to_dict(self):
        return {"mse": self.mse, "rmsd": self.rmsd, "mue": self.mue, "q95": self.q95}


def population_folded_stats(mu, sigma, q=0.95, tol=1e-8):
    """Exact MSE/RMSD/MUE/Q95 of a normal error distribution.

    MUE is the folded-normal mean; the quantile of |X| is solved by
    bisection on P(|X| <= x) = Phi((x-mu)/s) - Phi((-x-mu)/s).
    """
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    mue = sigma * np.sqrt(2.0 / np.pi) * np.exp(-(mu**2) / (2.0 * sigma**2)) + mu * (
        1.0 - 2.0 * ndtr(-mu / sigma)
    )

    def folded_cdf(x):
        return ndtr((x - mu) / sigma) - ndtr((-x - mu) / sigma)

    lo, hi = 0.0, abs(mu) + 20.0 * sigma
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if folded_cdf(mid) < q:
            lo = mid
        else:
            hi = mid
    return FoldedStats(mse=float(mu), rmsd=float(sigma), mue=float(mue), q95=0.5 * (lo + hi))


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

    def to_dict(self):
        return {
            "n_values": list(self.n_values),
            "rho_values": list(self.rho_values),
            "reps": self.reps,
            "B": self.B,
            "gh_scenarios": [s.to_dict() for s in self.gh_scenarios],
            "seed": self.seed,
            "statistic": None if self.statistic is None else self.statistic.label,
        }


@dataclass(frozen=True)
class StudyResult:
    """Uniform tabular study output: named columns, one row per cell."""

    study: str
    columns: tuple
    rows: list
    config: StudyConfig
    extra: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "study": self.study,
            "config": self.config.to_dict(),
            "columns": list(self.columns),
            "rows": [list(r) for r in self.rows],
            **({"extra": self.extra} if self.extra else {}),
        }


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
                e1, e2 = _correlated_block(rho, scen, scen, (config.reps, n), rng)
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


def _boot_diff_block(e1, e2, kind, B, rng):
    """Paired-bootstrap difference sample drawn as one index block."""
    idx = rng.integers(0, e1.shape[0], size=(B, e1.shape[0]))
    stats = evaluate_resampled(kind, np.column_stack([e1, e2]), [idx])
    return stats[:, 0] - stats[:, 1]


def type1_study(config):
    """Rejection rate of a true null with the generalized p-value.

    Each repetition draws two same-distribution, rho-correlated samples
    and tests equality of the statistic at the 0.05 level; the rejection
    fraction estimates the type-I error alpha, reported with a binomial
    standard error.
    """
    kind = config.statistic
    if kind is None or kind.kind not in ("mue", "q"):
        raise ValueError("type1_study needs config.statistic set to MUE or a quantile")
    rows = []
    for si, scen in enumerate(config.gh_scenarios):
        for ni, n in enumerate(config.n_values):
            for ri, rho in enumerate(config.rho_values):
                rejections = 0
                for rep in range(config.reps):
                    rng = _cell_rng(config.seed, 1, si, ni, ri, rep)
                    e1, e2 = _correlated_block(rho, scen, scen, n, rng)
                    d = _boot_diff_block(e1, e2, kind, config.B, rng)
                    if generalized_p(d) < 0.05:
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


def hd_convergence_study(config, modes=("A", "B"), base_n=500):
    """Sampling behaviour of the two Q95 estimators versus sample size.

    Mode A draws fresh samples of each size and summarizes the spread of
    the estimates by five quantiles.  Mode B bootstraps subsets of one
    fixed `base_n` sample, additionally counting the distinct estimate
    values (the smooth estimator produces many more of them, which is why
    it pairs well with the bootstrap).
    """
    scen = config.gh_scenarios[0]
    q = config.statistic.q if config.statistic is not None and config.statistic.kind == "q" else 0.95
    reference = (
        population_folded_stats(scen.mu, scen.sigma, q=q).q95 if scen.g == 0 and scen.h == 0 else None
    )
    hd = StatKind.quantile(q, "hd")
    q7 = StatKind.quantile(q, "type7")
    rows = []
    if "A" in modes:
        for ni, n in enumerate(config.n_values):
            rng = _cell_rng(config.seed, 2, ni)
            samples = gh_sample(scen, (config.reps, n), rng)
            for kind, name in ((hd, "hd"), (q7, "type7")):
                est = evaluate_rows(kind, samples)
                summary = np.percentile(est, [100 * p for p in _SUMMARY_QS])
                rows.append(("A", n, name, *[float(v) for v in summary], int(np.unique(est).size)))
    if "B" in modes:
        if max(config.n_values) > base_n:
            raise ValueError(f"mode B subsets cannot exceed the base sample size {base_n}")
        base = gh_sample(scen, base_n, _cell_rng(config.seed, 3))
        for ni, n in enumerate(config.n_values):
            rng = _cell_rng(config.seed, 4, ni)
            idx = rng.integers(0, n, size=(config.reps, n))
            sub = base[:n]
            for kind, name in ((hd, "hd"), (q7, "type7")):
                est = evaluate_resampled(kind, sub[:, None], [idx])[:, 0]
                summary = np.percentile(est, [100 * p for p in _SUMMARY_QS])
                rows.append(("B", n, name, *[float(v) for v in summary], int(np.unique(est).size)))
    return StudyResult(
        study="hdstudy",
        columns=("mode", "n", "estimator", "q05", "q25", "q50", "q75", "q95", "n_distinct"),
        rows=rows,
        config=config,
        extra={} if reference is None else {"reference_q95": reference},
    )
