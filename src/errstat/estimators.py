"""Scalar statistics of a single error set.

Covers the four benchmark scores: MSE, MUE, RMSD and quantiles of the
absolute errors.  Two quantile estimators are provided: the Harrell-Davis
estimator (a smooth combination of all order statistics, the default) and
the classic interpolation estimator known as Q-hat-7.

RMSD here is the sample standard deviation of the errors about their own
mean (denominator N-1), not the root mean squared error about zero.
"""

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

__all__ = [
    "StatKind",
    "evaluate",
    "evaluate_rows",
    "evaluate_resampled",
    "resample_counts",
    "weighted_sums",
    "quantile_hd",
    "quantile_type7",
    "percentile",
    "median",
    "lerp",
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
    return float(evaluate_rows(kind, e[None, :])[0])


def evaluate_rows(kind, matrix):
    """Row-wise `evaluate` on a 2-d array, vectorized for simulation loops.

    The one definition of each statistic: `evaluate` is its one-row case.
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
    return _quantile(kind.quantile_method, kind.q, m.shape[1], lambda lo, hi: xs[:, lo:hi])


def _quantile(method, q, m, window):
    """Quantile estimate of samples of m values from their order statistics.

    `window(lo, hi)` returns order statistics lo..hi-1 of every sample,
    sorted, one row per sample.  Harrell-Davis weights the window its
    weights cover; type 7 interpolates between order statistics j and
    j + 1 at h = (m-1)q.
    """
    if method == "hd":
        lo, w = _hd_weights(m, q)
        return weighted_sums(window(lo, lo + w.size), w[None, :])[:, 0]
    h = (m - 1) * q
    j = min(int(np.floor(h)), m - 2)
    x = window(j, j + 2)
    return x[:, 0] + (h - j) * (x[:, 1] - x[:, 0])


def weighted_sums(a, b):
    """Row-by-row dot products: entry [r, k] is sum_j a[r, j] * b[k, j].

    BLAS (`@`) blocks its sums by shape and thread count, so a row's result
    would depend on the rows around it; np.einsum sums each row in one
    fixed order.  It buffers a lone 1 x 1 reduction in pieces, so a single
    row is padded to two.
    """
    if a.shape[0] == 1:
        return np.einsum("ij,kj->ik", np.repeat(a, 2, axis=0), b)[:1]
    return np.einsum("ij,kj->ik", a, b)


def resample_counts(idx, n):
    """(b, n) float counts: entry [r, i] is how often row i occurs in idx[r].

    In this resampling-vector view of the bootstrap (Efron and Tibshirani
    1993) a resample's sum of any per-row value is a count-weighted sum.
    """
    offsets = n * np.arange(idx.shape[0])[:, None]
    return np.bincount((idx + offsets).ravel(), minlength=idx.shape[0] * n).reshape(-1, n).astype(float)


def evaluate_resampled(kind, columns, blocks):
    """Statistic of every column of `columns` (n, K) on every resample.

    Each item of `blocks` is a (b, n') index array whose row r lists the
    rows of one resample, shared by all columns.  Returns the stacked
    (b, K) results: entry [r, k] is `evaluate(kind, columns[row r, k])`
    and depends on that index row alone, not on the block size or on the
    other columns.  Means are count contractions, RMSD gathers, and
    quantiles select the order statistics they weight from column ranks.
    """
    cols = np.asarray(columns, dtype=float)
    if kind.kind == "q":
        block = _quantile_block(kind, cols)
    elif kind.kind == "rmsd":
        by_col = np.ascontiguousarray(cols.T)

        def block(idx):
            return np.column_stack([c[idx].std(axis=1, ddof=1) for c in by_col])
    else:
        values = np.ascontiguousarray((cols if kind.kind == "mse" else np.abs(cols)).T)

        def block(idx):
            return weighted_sums(resample_counts(idx, cols.shape[0]), values) / idx.shape[1]
    return np.concatenate([block(idx) for idx in blocks])


def _quantile_block(kind, cols):
    """Quantile of |column| on a block of resamples, from stable ranks.

    Ranking each column once (ties get distinct ranks) turns a resample's
    order statistics into its sorted ranks mapped back to the sorted
    values, and only the ranks the estimator weights need sorting: the
    Harrell-Davis window, or the two order statistics of type 7.
    """
    a = np.abs(cols).T
    order = np.argsort(a, axis=1, kind="stable")
    sorted_abs = np.take_along_axis(a, order, axis=1)
    ranks = np.empty(a.shape, dtype=np.int16 if a.shape[1] <= 2**15 else np.int32)
    np.put_along_axis(ranks, order, np.arange(a.shape[1], dtype=ranks.dtype)[None, :], axis=1)

    def block(idx):
        out = np.empty((idx.shape[0], a.shape[0]))
        for col, (rank, xs) in enumerate(zip(ranks, sorted_abs)):
            window = partial(_rank_window, rank[idx], xs)
            out[:, col] = _quantile(kind.quantile_method, kind.q, idx.shape[1], window)
        return out

    return block


def _rank_window(r, xs, lo, hi):
    """Values xs[r] of order statistics lo..hi-1 of each row of ranks r, sorted.

    Two single-kth np.partition calls cut each row to the window (one call
    with two kths is far slower), and only the window is sorted.  A cut
    that would drop fewer order statistics than the window holds costs
    more than sorting them along, and is skipped.
    """
    w, n = hi - lo, r.shape[1]
    cut = lo if lo >= w else 0
    if cut:
        r = np.partition(r, cut, axis=1)[:, cut:]
    if n - hi >= w:
        r = np.partition(r, hi - cut - 1, axis=1)[:, : hi - cut]
    return xs[np.sort(r, axis=1)[:, lo - cut : hi - cut]]


# 16-point Gauss-Legendre rule on [-1, 1], bit for bit leggauss(16) of
# numpy.polynomial, whose import would cost more than the weights: the
# positive nodes and their weights, mirrored at 0.
_GL_X = np.array([
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
])
_GL_W = np.array([
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
])
_GAUSS_LEGENDRE = (np.concatenate((-_GL_X[::-1], _GL_X)), np.concatenate((_GL_W[::-1], _GL_W)))


@lru_cache(maxsize=128)
def _hd_weights(n, q):
    """Harrell-Davis weights for sample size n at level q.

    Returns (lo, w): w[k], the weight of order statistic lo + k, is the
    Beta((n+1)q, (n+1)(1-q)) mass of the cell [(lo+k)/n, (lo+k+1)/n], in
    units of the density at c, from the log density ratio L(t): 16-point
    Gauss-Legendre on an inner cell, and on the cell [0, h] the positive
    series h(1-h)/a e^L(h) 2F1(a+b, 1; a+1; h) (mirrored at 1).  c is the
    mode, or the mean when a or b is below 2, where the mode may round onto
    an end.  Cells with L below -100 at both edges (under 1e-40 of the
    mass) are skipped, as every bootstrap replicate sorts the window, and
    dividing by the sum of the masses needs no beta function.
    """
    if n == 1:  # one cell holds all the mass
        return 0, np.ones(1)
    a, b = (n + 1.0) * q, (n + 1.0) * (1.0 - q)
    c = (a - 1.0) / (a + b - 2.0) if min(a, b) >= 2.0 else a / (a + b)

    def log_ratio(t):  # log of the density at t over that at c; log1p near c
        d = t - c
        lt = np.where(np.abs(d) < c / 2, np.log1p(d / c), np.log(t / c))
        lu = np.where(np.abs(d) < (1 - c) / 2, np.log1p(-d / (1 - c)), np.log((1 - t) / (1 - c)))
        return (a - 1.0) * lt + (b - 1.0) * lu

    # L is concave, or monotone where a or b is below 1 (never both), so the
    # edges with L > -100 form one run around c: widen a window of edges
    # about c until L falls to -100 inside both of its ends, or they meet 0 and 1.
    i, width = min(int(c * n), n - 1), 16
    while True:
        first, last = max(i - width, 0), min(i + 1 + width, n)
        with np.errstate(divide="ignore", invalid="ignore"):  # the ends t = 0, 1
            edges = log_ratio(np.arange(first, last + 1) / n)
        run = np.flatnonzero(edges > -100.0)
        if (first == 0 or run[0] > 0) and (last == n or run[-1] < edges.size - 1):
            break
        width *= 4
    lo, hi = max(first + int(run[0]) - 1, 0), min(first + int(run[-1]) + 1, n)
    x = np.arange(lo, hi + 1) / n
    nodes, gw = _GAUSS_LEGENDRE
    half = np.diff(x)[:, None] / 2
    mass = (np.exp(log_ratio(x[:-1, None] + half * (1 + nodes))) * gw).sum(axis=1) * half[:, 0]
    if lo == 0:
        mass[0] = x[1] * (1 - x[1]) / a * np.exp(edges[1 - first]) * _end_series(a, b, x[1])
    if hi == n:  # 1 - x[-2] is exact, as x[-2] >= 1/2
        mass[-1] = (1 - x[-2]) * x[-2] / b * np.exp(edges[n - 1 - first]) * _end_series(b, a, 1 - x[-2])
    return lo, mass / mass.sum()


def _end_series(a, b, h):
    """2F1(a+b, 1; a+1; h) for h <= 1/2: its positive terms fall below 1e-30 by the 128th."""
    k = np.arange(128.0)
    return 1.0 + np.cumprod((a + b + k) / (a + 1.0 + k) * h).sum()


def quantile_hd(x, q):
    """Harrell-Davis quantile estimate: a beta-weighted sum of all order statistics."""
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        raise ValueError("need at least 2 samples")
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must be in (0, 1), got {q}")
    xs = np.sort(x)
    return float(_quantile("hd", q, x.size, lambda lo, hi: xs[None, lo:hi])[0])


def quantile_type7(x, q):
    """Linear-interpolation quantile (Hyndman-Fan type 7): h = (n-1)q + 1."""
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        raise ValueError("need at least 2 samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile level must be in [0, 1], got {q}")
    xs = np.sort(x)
    if q == 1.0:  # the interpolation x0 + 1 * (x1 - x0) need not give x1 exactly
        return float(xs[-1])
    return float(_quantile("type7", q, x.size, lambda lo, hi: xs[None, lo:hi])[0])


def percentile(x, levels):
    """np.percentile(x, levels) bit for bit, for a 1-d x without NaN.

    np.percentile and np.median import numpy.ma on first use.  This is
    numpy's default linear rule: order statistics j and j + 1 around the
    virtual index v = (n - 1) p / 100, interpolated by `lerp`.  The
    partition takes numpy's own kth set, as the cuts decide which of two
    tied values, such as -0.0 and 0.0, lands at j.
    """
    xs = np.array(x, dtype=float)
    v = (xs.size - 1) * (np.asarray(levels, dtype=float) / 100)
    j = np.floor(v).astype(np.intp)
    j[v >= xs.size - 1] = -1  # at or past the top: the largest value
    k = np.where(j == -1, -1, j + 1)
    xs.partition(sorted({0, -1, *j.tolist(), *k.tolist()}))
    return lerp(xs[j], xs[k], v - j)


def median(x):
    """np.median(x) bit for bit, for a 1-d x without NaN: the mean of the middle order statistics."""
    n = len(x)
    mid = [(n - 1) // 2] if n % 2 else [n // 2 - 1, n // 2]
    return float(np.mean(np.partition(x, mid + [-1])[mid]))


def lerp(a, b, t):
    """numpy's linear interpolation a + (b - a) t, taken from b's side where t >= 1/2."""
    d = b - a
    return np.where(t >= 0.5, b - d * (1 - t), a + d * t)
