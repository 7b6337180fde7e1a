"""Correlation between paired error or prediction sets.

Spearman rank correlation (on midranks) is the default everywhere:
benchmark sets routinely contain a few outliers, to which the plain
Pearson coefficient is notoriously sensitive.
"""

import math
from dataclasses import dataclass

import numpy as np

from .estimators import weighted_sums

__all__ = ["CorrMatrix", "pearson", "spearman", "midranks", "correlation_matrix"]


def pearson(x, y):
    """Product-moment correlation of two equal-length vectors (N >= 3).

    Each vector is centred twice, the second pass taking out the mean
    that the first pass's rounding leaves, and then scaled by the exact
    power of two that brings its largest magnitude into [1/2, 1), so no
    sum overflows or underflows at extreme magnitudes and results in range
    are those of the unscaled sums.  The sums go through `weighted_sums`,
    never BLAS, so the result does not depend on the BLAS thread count.
    An undefined correlation raises ValueError.
    """
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if xv.shape != yv.shape or xv.ndim != 1:
        raise ValueError("inputs must be 1-d and the same length")
    if xv.size < 3:
        raise ValueError("need at least 3 points")
    d = np.stack([xv - xv.mean(), yv - yv.mean()])
    d -= d.mean(axis=1, keepdims=True)
    d = np.ldexp(d, -np.frexp(np.abs(d).max(axis=1, keepdims=True))[1])
    (sx, sxy), (_, sy) = weighted_sums(d, d)
    if sx == 0.0 or sy == 0.0:
        raise ValueError("undefined correlation: constant input")
    r = float(sxy) / math.sqrt(sx * sy)
    if math.isnan(r):
        raise ValueError("undefined correlation: non-finite sums")
    return min(1.0, max(-1.0, r))


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
    """Pairwise correlations of the columns of `data`.

    `data` is either an ErrorMatrix (its error columns are used) or an
    N x K array.  Any constant column makes the correlation undefined and
    raises naming it, rather than silently contributing zeros to the display.
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
    k = values.shape[1]
    for label, c in zip(labels, values.T):
        if (c[1:] == c[:-1]).all():
            raise ValueError(f"undefined correlation: column {label!r} is constant")
    cols = [midranks(c) for c in values.T] if method == "spearman" else list(values.T)
    out = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            out[i, j] = out[j, i] = pearson(cols[i], cols[j])
    return CorrMatrix(values=out, labels=labels, method=method)
