"""Scalar statistics of a single error set.

Covers the four benchmark scores (MSE, MUE, RMSD and quantiles of the
absolute errors) plus the weighted-mean machinery used when individual
errors carry uncertainties.  Two quantile estimators are provided: the
Harrell-Davis estimator (a smooth combination of all order statistics,
the default) and the classic interpolation estimator known as Q-hat-7.

RMSD here is the sample standard deviation of the errors about their own
mean (denominator N-1), not the root mean squared error about zero.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import chdtri

from .special import betainc_reg

__all__ = [
    "StatKind",
    "WeightedMeanResult",
    "evaluate",
    "evaluate_rows",
    "quantile_hd",
    "quantile_type7",
    "mean_standard_error",
    "weighted_mean",
    "chi2_weighted",
    "cochran_rescale",
]

_KINDS = ("mse", "mue", "rmsd", "q")
_QUANTILE_METHODS = ("hd", "type7")


@dataclass(frozen=True)
class StatKind:
    """Which statistic to evaluate on an error set.

    `kind` is one of "mse", "mue", "rmsd", "q".  For quantiles, `q` is the
    level (strictly inside (0, 1), default 0.95, taken on the absolute
    errors) and `quantile_method` selects the estimator.
    """

    kind: str
    q: float = 0.95
    quantile_method: str = "hd"

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown statistic kind {self.kind!r}")
        if self.quantile_method not in _QUANTILE_METHODS:
            raise ValueError(f"unknown quantile method {self.quantile_method!r}")
        if self.kind == "q" and not 0.0 < self.q < 1.0:
            raise ValueError(f"quantile level must be in (0, 1), got {self.q}")

    @classmethod
    def mse(cls):
        return cls("mse")

    @classmethod
    def mue(cls):
        return cls("mue")

    @classmethod
    def rmsd(cls):
        return cls("rmsd")

    @classmethod
    def quantile(cls, q=0.95, method="hd"):
        return cls("q", q=q, quantile_method=method)

    @classmethod
    def parse(cls, text, q=0.95, method="hd"):
        """Parse CLI-style names: "mse", "mue", "rmsd", "q", "q95", "q90"..."""
        t = text.strip().lower()
        if t in ("mse", "mue", "rmsd"):
            return cls(t)
        if t == "q":
            return cls.quantile(q, method)
        if t.startswith("q") and t[1:].isdigit():
            return cls.quantile(int(t[1:]) / 100.0, method)
        raise ValueError(f"unknown statistic {text!r}")

    @property
    def label(self):
        if self.kind == "q":
            return f"Q{self.q * 100:g}"
        return self.kind.upper()


def evaluate(kind, errors):
    """Evaluate a statistic on a vector of signed errors.

    MSE is the plain mean, MUE the mean of absolute values, RMSD the
    sample standard deviation about the mean, and Q(q) the chosen quantile
    estimator applied to the absolute errors.
    """
    e = np.asarray(errors, dtype=float)
    if e.ndim != 1 or e.size < 2:
        raise ValueError("need a 1-d error vector with at least 2 entries")
    if kind.kind == "mse":
        return float(e.mean())
    if kind.kind == "mue":
        return float(np.abs(e).mean())
    if kind.kind == "rmsd":
        return float(e.std(ddof=1))
    if kind.quantile_method == "hd":
        return quantile_hd(np.abs(e), kind.q)
    return quantile_type7(np.abs(e), kind.q)


def evaluate_rows(kind, matrix):
    """Row-wise `evaluate` on a 2-d array, vectorized for bootstrap loops.

    Gives the same numbers as calling `evaluate` on every row, but sorts
    and reduces whole replicate blocks at once.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError("need a 2-d array of row samples")
    if kind.kind == "mse":
        return m.mean(axis=1)
    if kind.kind == "mue":
        return np.abs(m).mean(axis=1)
    if kind.kind == "rmsd":
        return m.std(axis=1, ddof=1)
    xs = np.sort(np.abs(m), axis=1)
    n = m.shape[1]
    if kind.quantile_method == "hd":
        lo, w = _hd_weights(n, kind.q)
        return xs[:, lo : lo + w.size] @ w
    h = (n - 1) * kind.q
    j = min(int(np.floor(h)), n - 2)
    return xs[:, j] + (h - j) * (xs[:, j + 1] - xs[:, j])


# Beta(a, b) weight mass further than this many standard deviations from
# the mean is far below double precision and is skipped for large samples.
_HD_WINDOW_SD = 40.0


@lru_cache(maxsize=128)
def _hd_weights(n, q):
    """Harrell-Davis weights for sample size n at level q.

    Returns (lo, w): w[k] is the weight of order statistic lo + k.  The
    weights are increments of the Beta((n+1)q, (n+1)(1-q)) CDF over the
    grid i/n; for large n only the window carrying non-negligible mass is
    evaluated.
    """
    a = (n + 1.0) * q
    b = (n + 1.0) * (1.0 - q)
    mean = a / (a + b)
    sd = np.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))
    lo = max(0, int(np.floor((mean - _HD_WINDOW_SD * sd) * n)))
    hi = min(n, int(np.ceil((mean + _HD_WINDOW_SD * sd) * n)))
    grid = np.arange(lo, hi + 1, dtype=float) / n
    cdf = betainc_reg(a, b, grid)
    if lo == 0:
        cdf[0] = 0.0
    if hi == n:
        cdf[-1] = 1.0
    w = np.diff(cdf)
    return lo, w


def quantile_hd(x, q):
    """Harrell-Davis quantile estimate: a beta-weighted sum of all order statistics."""
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        raise ValueError("need at least 2 samples")
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must be in (0, 1), got {q}")
    lo, w = _hd_weights(x.size, q)
    xs = np.sort(x)
    return float(w @ xs[lo : lo + w.size])


def quantile_type7(x, q):
    """Linear-interpolation quantile (Hyndman-Fan type 7): h = (n-1)q + 1."""
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        raise ValueError("need at least 2 samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile level must be in [0, 1], got {q}")
    xs = np.sort(x)
    h = (x.size - 1) * q
    j = int(np.floor(h))
    if j >= x.size - 1:
        return float(xs[-1])
    return float(xs[j] + (h - j) * (xs[j + 1] - xs[j]))


def mean_standard_error(errors, small_n_correction=False):
    """Standard error of the mean, s_e/sqrt(N).

    With `small_n_correction` the result is inflated by
    sqrt((N-1)/(N-3)) to account for the uncertainty on s_e itself;
    the correction needs N >= 4 and is below 3% from N = 30 on.
    """
    e = np.asarray(errors, dtype=float)
    n = e.size
    if n < 2:
        raise ValueError("need at least 2 entries")
    se = float(e.std(ddof=1) / np.sqrt(n))
    if small_n_correction:
        if n <= 3:
            raise ValueError("small-N correction needs N >= 4")
        se *= np.sqrt((n - 1.0) / (n - 3.0))
    return se


@dataclass(frozen=True)
class WeightedMeanResult:
    """Weighted mean of an error set with its uncertainty budget.

    sigma2_model is the excess (model-error) variance from the Cochran
    decomposition; it is 0 for the plain inverse-variance mean.
    `consistent` says whether chi2w falls in the central 95% interval of
    chi-squared with N-1 degrees of freedom.
    """

    mean: float
    uncertainty: float
    weights: np.ndarray
    sigma2_model: float
    chi2w: float
    chi2_dof: int
    consistent: bool
    converged: bool = True


def weighted_mean(errors, u):
    """Inverse-variance weighted mean with w_i proportional to u(e_i)^-2."""
    e = np.asarray(errors, dtype=float)
    uu = np.asarray(u, dtype=float)
    if e.shape != uu.shape or e.ndim != 1:
        raise ValueError("errors and uncertainties must be 1-d and the same length")
    if np.any(uu <= 0):
        raise ValueError("all uncertainties must be > 0")
    inv = uu**-2.0
    w = inv / inv.sum()
    mean = float(w @ e)
    chi2w, consistent = chi2_weighted(e, uu, mean)
    return WeightedMeanResult(
        mean=mean,
        uncertainty=float(inv.sum() ** -0.5),
        weights=w,
        sigma2_model=0.0,
        chi2w=chi2w,
        chi2_dof=e.size - 1,
        consistent=consistent,
    )


def chi2_weighted(errors, u, mean):
    """Weighted chi-squared of the residuals about `mean` (Birge test).

    Returns (chi2w, consistent); `consistent` is True when chi2w lies in
    the central 95% interval of chi-squared with N-1 degrees of freedom.
    Values below the interval signal over-estimated uncertainties, values
    above an excess of variance in the errors.
    """
    e = np.asarray(errors, dtype=float)
    uu = np.asarray(u, dtype=float)
    if e.size < 2:
        raise ValueError("need at least 2 entries")
    if np.any(uu <= 0):
        raise ValueError("all uncertainties must be > 0")
    chi2 = float((((e - mean) / uu) ** 2).sum())
    lo, hi = chdtri(e.size - 1, [0.975, 0.025])  # upper-tail probabilities
    return chi2, bool(lo <= chi2 <= hi)


def _inverse_variance_weights(denom):
    """Weights proportional to 1/denom; zero entries mean infinite precision."""
    zero = denom == 0.0
    if zero.all():
        return np.full(denom.size, 1.0 / denom.size)
    if zero.any():
        return zero / zero.sum()
    inv = 1.0 / denom
    return inv / inv.sum()


def cochran_rescale(errors, u, max_iter=100, tol=1e-8):
    """Weighted mean with Cochran's ANOVA variance decomposition.

    The total variance of the errors is split as var(e) = sigma^2 + mean
    u(e)^2, where sigma^2 is the model-error variance (clipped at 0), and
    the weights are rebuilt from the combined variances sigma^2 + u(e_i)^2.
    sigma depends on the mean and vice versa, so the pair is iterated to a
    fixed point; if `max_iter` is hit first the last iterate is returned
    with `converged=False`.
    """
    e = np.asarray(errors, dtype=float)
    uu = np.asarray(u, dtype=float)
    if e.shape != uu.shape or e.ndim != 1:
        raise ValueError("errors and uncertainties must be 1-d and the same length")
    n = e.size
    if n < 3:
        raise ValueError("need at least 3 entries")
    if np.any(uu < 0):
        raise ValueError("uncertainties must be >= 0")

    mean_u2 = float((uu**2).mean())
    s_e = float(e.std(ddof=1))
    scale = s_e if s_e > 0 else 1.0
    mean = float(e.mean())
    sigma2 = 0.0
    converged = False
    for _ in range(max_iter):
        var = float(((e - mean) ** 2).sum() / (n - 1))
        sigma2 = max(0.0, var - mean_u2)
        w = _inverse_variance_weights(sigma2 + uu**2)
        new_mean = float(w @ e)
        if abs(new_mean - mean) <= tol * scale:
            mean = new_mean
            converged = True
            break
        mean = new_mean

    denom = sigma2 + uu**2
    w = _inverse_variance_weights(denom)
    positive = denom > 0.0
    if positive.any():
        chi2w = float((((e[positive] - mean) ** 2) / denom[positive]).sum())
        lo, hi = chdtri(n - 1, [0.975, 0.025])
        consistent = bool(lo <= chi2w <= hi)
    else:
        chi2w, consistent = 0.0, False
    uncertainty = float((1.0 / denom).sum() ** -0.5) if positive.all() else 0.0
    return WeightedMeanResult(
        mean=mean,
        uncertainty=uncertainty,
        weights=w,
        sigma2_model=sigma2,
        chi2w=chi2w,
        chi2_dof=n - 1,
        consistent=consistent,
        converged=converged,
    )
