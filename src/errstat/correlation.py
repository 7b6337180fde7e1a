"""Correlation between paired error or prediction sets.

Spearman rank correlation (on midranks) is the default everywhere:
benchmark sets routinely contain a few outliers, to which the plain
Pearson coefficient is notoriously sensitive.
"""

from dataclasses import dataclass

import numpy as np

from .estimators import weighted_sums

__all__ = ["CorrMatrix", "pearson", "spearman", "midranks", "correlation_matrix"]


def _pearson_matrix(cols):
    """Pearson's r of every pair of the 1-d `cols` (N >= 3), and each column's scaled sum of squares.

    Each column is centred by its own 1-d mean (numpy sums across the rows
    of a transposed table in plain order, not pairwise), then by the mean
    that this pass's rounding leaves, and scaled by the exact power of two
    that brings its largest magnitude into [1/2, 1), so no sum overflows or
    underflows.  One `weighted_sums` (never BLAS) gives every sum.  A zero
    or non-finite sum of squares makes its row and column NaN.
    """
    if cols[0].size < 3:
        raise ValueError("need at least 3 points")
    d = np.stack([c - c.mean() for c in cols])
    d -= d.mean(axis=1, keepdims=True)
    d = np.ldexp(d, -np.frexp(np.abs(d).max(axis=1, keepdims=True))[1])
    s = weighted_sums(d, d)
    with np.errstate(invalid="ignore"):
        return np.clip(s / np.sqrt(np.multiply.outer(s.diagonal(), s.diagonal())), -1.0, 1.0), s.diagonal()


def pearson(x, y):
    """Product-moment r of two equal-length vectors (N >= 3) by `_pearson_matrix`; an undefined r raises ValueError."""
    xv, yv = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if xv.shape != yv.shape or xv.ndim != 1:
        raise ValueError("inputs must be 1-d and the same length")
    r, ss = _pearson_matrix([xv, yv])
    if (ss == 0.0).any():
        raise ValueError("undefined correlation: constant input")
    if np.isnan(r[0, 1]):
        raise ValueError("undefined correlation: non-finite sums")
    return float(r[0, 1])


def midranks(x):
    """Ranks 1..N with ties getting the average of their rank span."""
    xv = np.asarray(x, dtype=float)
    order = np.argsort(xv, kind="stable")
    xs = xv[order]
    bounds = np.append(np.flatnonzero(np.append(True, xs[1:] != xs[:-1])), xs.size)
    ranks = np.empty(xv.size, dtype=float)
    ranks[order] = np.repeat(0.5 * (bounds[:-1] + bounds[1:] - 1) + 1.0, np.diff(bounds))
    return ranks


def spearman(x, y):
    """Rank correlation: Pearson on the midranks of both inputs."""
    return pearson(midranks(x), midranks(y))


@dataclass(frozen=True)
class CorrMatrix:
    """Symmetric K x K correlation matrix with unit diagonal."""

    values: np.ndarray
    labels: list
    method: str


def correlation_matrix(data, method="spearman", labels=None):
    """Correlations of every pair of the columns of `data`: an ErrorMatrix's errors or an N x K array.

    A constant column, or one whose centring overflows, makes r undefined
    and raises naming it, rather than contributing zeros or NaN to a display.
    """
    if hasattr(data, "errors"):
        values = data.errors
        labels = list(data.method_names)
    else:
        values = np.asarray(data, dtype=float)
        labels = list(labels) if labels is not None else [f"M{j + 1}" for j in range(values.shape[1])]
    if values.ndim != 2 or values.shape[1] < 2:
        raise ValueError("need at least 2 columns")
    if method not in ("pearson", "spearman"):
        raise ValueError(f"unknown correlation method {method!r}")
    for label, c in zip(labels, values.T):
        if (c[1:] == c[:-1]).all():
            raise ValueError(f"undefined correlation: column {label!r} is constant")
    out, ss = _pearson_matrix([midranks(c) for c in values.T] if method == "spearman" else list(values.T))
    if not np.isfinite(ss).all():
        raise ValueError(f"undefined correlation: column {labels[np.isfinite(ss).argmin()]!r} overflows when centred")
    np.fill_diagonal(out, 1.0)
    return CorrMatrix(values=out, labels=labels, method=method)
