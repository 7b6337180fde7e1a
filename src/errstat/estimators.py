"""Scalar statistics of a single error set.

Covers the four benchmark scores: MSE, MUE, RMSD and quantiles of the
absolute errors.  Two quantile estimators are provided: the Harrell-Davis
estimator (a smooth combination of all order statistics, the default) and
the classic interpolation estimator known as Q-hat-7.

RMSD here is the sample standard deviation of the errors about their own
mean (denominator N-1), not the root mean squared error about zero.

`_Resampled` is the bootstrap's one kernel: the table commands (through
`inference.replicate_stats`), the type-I study and hdstudy's mode B bind
it, and it keeps its scratch arrays across index blocks.  Other samples
go through `evaluate_rows`.  Both select order statistics by `_order_stats`.
"""

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

__all__ = [
    "StatKind",
    "evaluate",
    "evaluate_rows",
    "sample_sd",
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
        return sample_sd(m)
    return _quantile(kind.quantile_method, kind.q, m.shape[1], partial(_order_stats, np.abs(m)))


def sample_sd(x):
    """Sample standard deviation (ddof = 1) along the last axis, at any scale.

    Each slice is first scaled by the power of two that brings its largest
    magnitude into [1/2, 1), as LAPACK's xNRM2 does (Higham 2002), so values
    near the underflow threshold keep their digits.  The scaling is exact:
    where `x.std(axis=-1, ddof=1)` does not underflow, the two are equal bit for bit.
    """
    x = np.asarray(x, dtype=float)
    _, e = np.frexp(np.maximum(x.max(axis=-1, keepdims=True), -x.min(axis=-1, keepdims=True)))
    return np.ldexp(np.ldexp(x, -e).std(axis=-1, ddof=1), e[..., 0])


def _quantile(method, q, m, window):
    """Quantile estimate of samples of m values from their order statistics.

    `window(lo, hi)` returns order statistics lo..hi-1 of every sample,
    sorted, one row per sample; it is called once.  Harrell-Davis weights
    the window its weights cover; type 7 interpolates between order
    statistics j and j + 1 at h = (m-1)q.
    """
    if method == "hd":
        lo, w = _hd_weights(m, q)
        return weighted_sums(window(lo, lo + w.size), w[None, :])[:, 0]
    h = (m - 1) * q
    j = min(int(np.floor(h)), m - 2)
    x = window(j, j + 2)
    return x[:, 0] + (h - j) * (x[:, 1] - x[:, 0])


def _order_stats(a, lo, hi):
    """Order statistics lo..hi-1 of each row of the 2-d array a, sorted: a view of a, which is reordered.

    Two single-kth partitions (one call with two kths is far slower) cut each row to the window,
    and only the window is sorted; a cut that would drop fewer values than the window holds is skipped.
    """
    w, n = hi - lo, a.shape[1]
    cut = lo if lo >= w else 0
    if cut:
        a.partition(cut, axis=1)
        a = a[:, cut:]
    if n - hi >= w:
        a.partition(hi - cut - 1, axis=1)
        a = a[:, : hi - cut]
    a.sort(axis=1)
    return a[:, lo - cut : hi - cut]


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


def _count(idx, counts):
    """Fill counts (b, n): entry [r, i] is how often row i occurs in idx[r]; consumes the intp block idx.

    In this resampling-vector view of the bootstrap (Efron and Tibshirani
    1993) a resample's sum of any per-row value is a count-weighted sum.
    Each row's start in the flat counts, r * n, is added to idx in place.
    """
    counts.fill(0.0)
    idx += counts.shape[1] * np.arange(len(idx))[:, None]
    np.add.at(counts.reshape(-1), idx.reshape(-1), 1.0)
    return counts


class _Resampled:
    """One statistic of bound columns on index blocks, in scratch arrays reused across calls.

    `bind(columns)` takes (n, K) columns; a call on a (b, n') intp block of
    indices in [0, n) (unchecked: gathers clip) returns the (b, K) results.
    Means are count contractions, which consume the block, RMSD gathers,
    and quantiles select column ranks (ties distinct) by `_order_stats`.
    Scratch arrays only grow, so blocks of one size allocate none again.
    """

    def __init__(self, kind):
        self.kind = kind
        self._scratch = {}

    def _buffer(self, name, shape, dtype):
        buf = self._scratch.get(name)
        if buf is None or buf.dtype != dtype or buf.shape[1:] != shape[1:] or len(buf) < shape[0]:
            buf = self._scratch[name] = np.empty(shape, dtype)
        return buf[: shape[0]]

    def bind(self, columns):
        cols = np.asarray(columns, dtype=float)
        self.n = cols.shape[0]
        if self.kind.kind != "q":
            self.tables = np.ascontiguousarray((np.abs(cols) if self.kind.kind == "mue" else cols).T)
            return self
        a = np.abs(cols).T
        order = np.argsort(a, axis=1, kind="stable")
        ranks = order.argsort(axis=1).astype(np.int16 if self.n <= 2**15 else np.int32)  # the inverse permutations
        self.tables = list(zip(ranks, np.take_along_axis(a, order, axis=1)))
        return self

    def __call__(self, idx):
        b, m = idx.shape
        if self.kind.kind in ("mse", "mue"):
            counts = _count(idx, self._buffer("counts", (b, self.n), float))
            return weighted_sums(counts, self.tables) / m
        out = np.empty((b, len(self.tables)))
        for col, table in enumerate(self.tables):
            if self.kind.kind == "rmsd":
                gathered = np.take(table, idx, out=self._buffer("values", (b, m), float), mode="clip")
                out[:, col] = sample_sd(gathered)
            else:
                rank, xs = table
                r = np.take(rank, idx, out=self._buffer("ranks", (b, m), rank.dtype), mode="clip")
                def window(lo, hi):  # xs at the window's ranks, through intp scratch: np.take would allocate it
                    pos = self._buffer("window", (b, hi - lo), np.intp)
                    pos[...] = _order_stats(r, lo, hi)
                    return np.take(xs, pos, out=self._buffer("values", pos.shape, float), mode="clip")
                out[:, col] = _quantile(self.kind.quantile_method, self.kind.q, m, window)
        return out


def _quantile_rows(kinds, column, idx):
    """Each quantile kind's values of one column on the index block idx, left as drawn; the column is ranked once."""
    resampled = _Resampled(kinds[0]).bind(column[:, None])
    for kind in kinds:
        resampled.kind = kind  # the bound ranks serve every level and method
        yield resampled(idx)[:, 0]


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
    an end.  L is evaluated once at all n + 1 cell edges; cells with L
    below -100 at both edges (under 1e-40 of the mass) are skipped, as
    every bootstrap replicate sorts the window, and dividing by the sum of
    the masses needs no beta function.
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
    # edges with L > -100 form one run around c, from the first such edge to the last.
    with np.errstate(divide="ignore", invalid="ignore"):  # the ends t = 0, 1
        edges = log_ratio(np.arange(n + 1) / n)
    run = np.flatnonzero(edges > -100.0)
    lo, hi = max(int(run[0]) - 1, 0), min(int(run[-1]) + 1, n)
    x = np.arange(lo, hi + 1) / n
    nodes, gw = _GAUSS_LEGENDRE
    half = np.diff(x)[:, None] / 2
    mass = (np.exp(log_ratio(x[:-1, None] + half * (1 + nodes))) * gw).sum(axis=1) * half[:, 0]
    if lo == 0:
        mass[0] = x[1] * (1 - x[1]) / a * np.exp(edges[1]) * _end_series(a, b, x[1])
    if hi == n:  # 1 - x[-2] is exact, as x[-2] >= 1/2
        mass[-1] = (1 - x[-2]) * x[-2] / b * np.exp(edges[n - 1]) * _end_series(b, a, 1 - x[-2])
    return lo, mass / mass.sum()


def _end_series(a, b, h):
    """2F1(a+b, 1; a+1; h) for h <= 1/2: its positive terms fall below 1e-30 by the 128th."""
    k = np.arange(128.0)
    return 1.0 + np.cumprod((a + b + k) / (a + 1.0 + k) * h).sum()


def quantile_hd(x, q):
    """Harrell-Davis quantile estimate: a beta-weighted sum of all order statistics."""
    x = np.array(x, dtype=float).reshape(1, -1)  # a copy, for _order_stats to reorder
    if x.size < 2:
        raise ValueError("need at least 2 samples")
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must be in (0, 1), got {q}")
    return float(_quantile("hd", q, x.size, partial(_order_stats, x))[0])


def quantile_type7(x, q):
    """Linear-interpolation quantile (Hyndman-Fan type 7): h = (n-1)q + 1."""
    x = np.array(x, dtype=float).reshape(1, -1)  # a copy, for _order_stats to reorder
    if x.size < 2:
        raise ValueError("need at least 2 samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile level must be in [0, 1], got {q}")
    if q == 1.0:  # the interpolation x0 + 1 * (x1 - x0) need not give x1 exactly
        return float(_order_stats(x, x.size - 1, x.size)[0, 0])
    return float(_quantile("type7", q, x.size, partial(_order_stats, x))[0])


def percentile(x, levels):
    """np.percentile(x, levels) bit for bit, for a 1-d x without NaN.

    np.percentile and np.median import numpy.ma on first use.  This is
    numpy's default linear rule: order statistics j and j + 1 around the
    virtual index v = (n - 1) p / 100, interpolated by `lerp`.  The
    partition takes numpy's own kth set, as the cuts decide which of two
    tied values, such as -0.0 and 0.0, lands at j: `_order_stats` would not.
    """
    xs = np.array(x, dtype=float)
    v = (xs.size - 1) * (np.asarray(levels, dtype=float) / 100)
    j = np.floor(v).astype(np.intp)
    j[v >= xs.size - 1] = -1  # at or past the top: the largest value
    k = np.where(j == -1, -1, j + 1)
    xs.partition(sorted({0, -1, *j.tolist(), *k.tolist()}))
    return lerp(xs[j], xs[k], v - j)


def median(x):
    """np.median(x) bit for bit, for a 1-d x without NaN, at numpy's kths (see `percentile`)."""
    n = len(x)
    mid = [(n - 1) // 2] if n % 2 else [n // 2 - 1, n // 2]
    return float(np.mean(np.partition(x, mid + [-1])[mid]))


def lerp(a, b, t):
    """numpy's linear interpolation a + (b - a) t, taken from b's side where t >= 1/2."""
    d = b - a
    return np.where(t >= 0.5, b - d * (1 - t), a + d * t)
