"""Paired-bootstrap engine and comparison/ranking probabilities.

All resampling is paired: one index draw per replicate is shared by every
method column, which preserves the inter-method correlation that drives
these comparisons.  Replicate j draws its indices from a counter-based
generator keyed solely by (seed, j), and its statistics are computed from
that index row alone, never through BLAS.  Results are therefore
bit-identical whatever B, the block size, the set of columns evaluated
together or the BLAS thread count.

Point values of statistics are always computed on the original sample;
the bootstrap only supplies uncertainties and counting probabilities.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .estimators import StatKind, evaluate, evaluate_resampled

__all__ = [
    "BootstrapPlan",
    "PairComparison",
    "RankMatrix",
    "RankEntry",
    "LOWER_IS_RANK1",
    "HIGHER_IS_RANK1",
    "BLOCK_CELLS",
    "replicate_rng",
    "resample_indices",
    "replicate_blocks",
    "replicate_stats",
    "bootstrap_se",
    "diff_sample",
    "p_t_value",
    "p_unc_value",
    "generalized_p",
    "p_inv",
    "compare_pair",
    "rank_probability_matrix",
    "rank_summary",
]

LOWER_IS_RANK1 = "lower"
HIGHER_IS_RANK1 = "higher"

_MASK64 = (1 << 64) - 1

# Dataset sizes below these make the counting p-values unreliable for the
# matching statistic; comparisons still run but emit a warning.
MIN_N_MUE = 30
MIN_N_QUANTILE = 60

# Replicate blocks hold at most about this many index cells (8 MB), so
# memory stays bounded as B * N grows.
BLOCK_CELLS = 1 << 20


@dataclass(frozen=True)
class BootstrapPlan:
    """Replicate count, seed and resample size for one bootstrap run.

    `n_prime` enables N'-out-of-N subsampling (N' < N widens rank
    dispersion estimates); the default None means N-out-of-N.
    """

    B: int = 1000
    seed: int = 0
    n_prime: int | None = None

    def __post_init__(self):
        if self.B < 100:
            raise ValueError(f"need at least 100 replicates, got {self.B}")
        if self.n_prime is not None and self.n_prime < 2:
            raise ValueError(f"n_prime must be >= 2, got {self.n_prime}")

    def resample_size(self, n):
        if self.n_prime is None:
            return n
        if self.n_prime > n:
            raise ValueError(f"n_prime={self.n_prime} exceeds dataset size {n}")
        return self.n_prime


def replicate_rng(seed, replicate_index):
    """Generator for one replicate, keyed by (seed, replicate) only."""
    key = ((seed & _MASK64) << 64) | (replicate_index & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def resample_indices(plan, replicate_index, n):
    """Row indices drawn with replacement for one replicate."""
    rng = replicate_rng(plan.seed, replicate_index)
    return rng.integers(0, n, size=plan.resample_size(n))


def replicate_blocks(plan, n):
    """Yield the B replicate index draws as (lo, idx) blocks, in order.

    Row r of the (b, n') array idx is exactly
    `resample_indices(plan, lo + r, n)`.  A block has at least one row and
    otherwise at most BLOCK_CELLS // n of them, so a block's count matrix
    holds at most about BLOCK_CELLS cells.
    """
    n_prime = plan.resample_size(n)
    rows = max(1, BLOCK_CELLS // max(n, 1))
    for lo in range(0, plan.B, rows):
        idx = np.empty((min(rows, plan.B - lo), n_prime), dtype=np.intp)
        for r in range(idx.shape[0]):
            idx[r] = resample_indices(plan, lo + r, n)
        yield lo, idx


def replicate_stats(columns, kind, plan):
    """Per-replicate statistic values, one shared index draw per replicate.

    `columns` is an (n, K) array; the result is (B, K): entry [j, k] is
    the statistic of column k on replicate j's paired resample.
    """
    cols = np.asarray(columns, dtype=float)
    if cols.ndim == 1:
        cols = cols[:, None]
    blocks = (idx for _, idx in replicate_blocks(plan, cols.shape[0]))
    return evaluate_resampled(kind, cols, blocks)


def bootstrap_se(errors, kind, plan):
    """Bootstrap standard error of a statistic (sd over replicates, ddof=1)."""
    e = np.asarray(errors, dtype=float)
    if e.size < 2:
        raise ValueError("need at least 2 entries")
    stats = replicate_stats(e, kind, plan)[:, 0]
    return float(stats.std(ddof=1))


def diff_sample(e1, e2, kind, plan):
    """Replicate values of S(E1*) - S(E2*) under paired resampling."""
    a = np.asarray(e1, dtype=float)
    b = np.asarray(e2, dtype=float)
    if a.shape != b.shape:
        raise ValueError("paired error sets must have the same length")
    stats = replicate_stats(np.column_stack([a, b]), kind, plan)
    return stats[:, 0] - stats[:, 1]


def p_t_value(s1, s2, u_diff):
    """Normal-theory p-value from the discrepancy xi = |s1-s2| / u(s1-s2)."""
    if u_diff <= 0.0:
        raise ValueError("degenerate uncertainty: u(s1-s2) must be > 0")
    xi = abs(s1 - s2) / u_diff
    return xi, float(2.0 * (1.0 - ndtr(xi)))


def p_unc_value(s1, s2, u1, u2):
    """Correlation-ignoring variant: the uncertainties add in quadrature.

    Under the positive statistic correlations typical of shared reference
    data this overestimates the correlated p-value.
    """
    denom = np.hypot(u1, u2)
    if denom <= 0.0:
        raise ValueError("degenerate uncertainty: u1 and u2 are both zero")
    xi = abs(s1 - s2) / denom
    return xi, float(2.0 * (1.0 - ndtr(xi)))


def generalized_p(d):
    """Counting-based generalized p-value from a bootstrap difference sample.

    p* = (#{d<0} + 0.5 #{d=0}) / B and p_g = 2 min(p*, 1-p*): null
    differences are shared between the two signs, and the factor two
    reflects the two-sided test.
    """
    dv = np.asarray(d, dtype=float)
    if dv.size < 100:
        raise ValueError("need at least 100 replicates")
    a = int((dv < 0).sum())
    c = int((dv == 0).sum())
    p_star = (a + 0.5 * c) / dv.size
    return float(2.0 * min(p_star, 1.0 - p_star))


def p_inv(d, s1, s2):
    """Probability that a replicate inverts the observed ordering of s1, s2.

    Counts replicates whose difference has strictly opposite sign to
    s1 - s2 (null differences are compensated).  When s1 == s2 there is no
    observed ordering to invert; 0.5 is returned by convention and the
    caller should flag the comparison as degenerate.
    """
    dv = np.asarray(d, dtype=float)
    if s1 == s2:
        return 0.5
    ref = np.sign(s1 - s2)
    n_opposite = int((np.sign(dv) != ref).sum()) - int((dv == 0).sum())
    return n_opposite / dv.size


@dataclass(frozen=True)
class PairComparison:
    """Everything one paired bootstrap run says about s1 vs s2.

    xi/p_t are None when the bootstrap uncertainty of the difference is
    exactly zero (e.g. identical columns); xi_unc/p_unc when both
    individual uncertainties vanish.  `degenerate` marks s1 == s2, where
    the inversion probability is 0.5 by convention.
    """

    label_1: str
    label_2: str
    stat: StatKind
    s1: float
    s2: float
    u1: float
    u2: float
    u_diff: float
    xi: float | None
    p_t: float | None
    xi_unc: float | None
    p_unc: float | None
    p_g: float
    p_inv: float
    n_zero_diffs: int
    degenerate: bool

    def to_dict(self):
        return {
            "methods": [self.label_1, self.label_2],
            "stat": self.stat.label,
            "s1": self.s1,
            "s2": self.s2,
            "u1": self.u1,
            "u2": self.u2,
            "u_diff": self.u_diff,
            "xi": self.xi,
            "p_t": self.p_t,
            "xi_unc": self.xi_unc,
            "p_unc": self.p_unc,
            "p_g": self.p_g,
            "p_inv": self.p_inv,
            "n_zero_diffs": self.n_zero_diffs,
            "degenerate": self.degenerate,
        }


def _warn_small_n(n, kind):
    if kind.kind == "mue" and n < MIN_N_MUE:
        warnings.warn(
            f"N={n} is small for MUE comparisons (N>={MIN_N_MUE} recommended); "
            "p-values may be unreliable",
            stacklevel=3,
        )
    if kind.kind == "q" and n < MIN_N_QUANTILE:
        warnings.warn(
            f"N={n} is small for {kind.label} comparisons "
            f"(N>={MIN_N_QUANTILE} recommended); p-values may be unreliable",
            stacklevel=3,
        )


def compare_pair(matrix, i, j, kind, plan):
    """Compare one statistic across two methods with a single bootstrap run.

    The same replicate resamples feed the individual standard errors, the
    difference uncertainty and the counting probabilities, so the report
    is internally consistent.
    """
    ii, jj = matrix.index_of(i), matrix.index_of(j)
    if ii == jj:
        raise ValueError("cannot compare a method with itself")
    _warn_small_n(matrix.n_systems, kind)
    e1 = matrix.errors[:, ii]
    e2 = matrix.errors[:, jj]
    s1 = evaluate(kind, e1)
    s2 = evaluate(kind, e2)
    stats = replicate_stats(np.column_stack([e1, e2]), kind, plan)
    d = stats[:, 0] - stats[:, 1]
    u1 = float(stats[:, 0].std(ddof=1))
    u2 = float(stats[:, 1].std(ddof=1))
    u_diff = float(d.std(ddof=1))
    xi = p_t = xi_unc = p_unc = None
    if u_diff > 0.0:
        xi, p_t = p_t_value(s1, s2, u_diff)
    if u1 > 0.0 or u2 > 0.0:
        xi_unc, p_unc = p_unc_value(s1, s2, u1, u2)
    return PairComparison(
        label_1=matrix.method_names[ii],
        label_2=matrix.method_names[jj],
        stat=kind,
        s1=s1,
        s2=s2,
        u1=u1,
        u2=u2,
        u_diff=u_diff,
        xi=xi,
        p_t=p_t,
        xi_unc=xi_unc,
        p_unc=p_unc,
        p_g=generalized_p(d),
        p_inv=p_inv(d, s1, s2),
        n_zero_diffs=int((d == 0).sum()),
        degenerate=bool(s1 == s2),
    )


@dataclass(frozen=True)
class RankEntry:
    """Per-method summary of a rank distribution (ranks are 1-based)."""

    label: str
    mode: int
    mode_probability: float
    interval: tuple

    def to_dict(self):
        return {
            "label": self.label,
            "mode": self.mode,
            "mode_probability": self.mode_probability,
            "interval": list(self.interval),
        }


@dataclass(frozen=True)
class RankMatrix:
    """Ranking probability matrix: p[j, k] = P(rank of method j is k+1)."""

    p: np.ndarray
    labels: list
    stat: StatKind
    orientation: str
    summary: list | None = None

    def to_dict(self):
        return {
            "labels": list(self.labels),
            "stat": self.stat.label,
            "orientation": self.orientation,
            "p": [[float(v) for v in row] for row in self.p],
            "summary": [s.to_dict() for s in self.summary],
        }


def rank_probability_matrix(matrix, kind, plan, orientation=LOWER_IS_RANK1):
    """Bootstrap distribution of each method's rank under a statistic.

    Every replicate ranks all methods on one shared paired resample, so
    each replicate contributes a full permutation and the matrix is
    doubly stochastic.  Rank 1 goes to the smallest statistic value
    (LOWER_IS_RANK1, the error-statistic convention) or the largest
    (HIGHER_IS_RANK1, for improvement-probability scores); ties go to the
    lowest original method index.
    """
    if orientation not in (LOWER_IS_RANK1, HIGHER_IS_RANK1):
        raise ValueError(f"unknown orientation {orientation!r}")
    k = matrix.n_methods
    if k < 2:
        raise ValueError("need at least 2 methods")
    _warn_small_n(matrix.n_systems, kind)
    stats = replicate_stats(matrix.errors, kind, plan)
    key = stats if orientation == LOWER_IS_RANK1 else -stats
    order = np.argsort(key, axis=1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.broadcast_to(np.arange(k), order.shape), axis=1)
    p = np.empty((k, k))
    for j in range(k):
        p[j] = np.bincount(ranks[:, j], minlength=k) / plan.B
    labels = list(matrix.method_names)
    return RankMatrix(
        p=p,
        labels=labels,
        stat=kind,
        orientation=orientation,
        summary=_summarize_ranks(p, labels),
    )


def rank_summary(rank_matrix, mass=0.90):
    """Mode and shortest >= 90% contiguous rank interval for each method."""
    return _summarize_ranks(rank_matrix.p, rank_matrix.labels, mass)


def _summarize_ranks(p, labels, mass=0.90):
    entries = []
    k = p.shape[1]
    for j, label in enumerate(labels):
        row = p[j]
        mode = int(np.argmax(row))
        interval = None
        for length in range(1, k + 1):
            for start in range(0, k - length + 1):
                if row[start : start + length].sum() >= mass - 1e-12:
                    interval = (start + 1, start + length)
                    break
            if interval:
                break
        entries.append(
            RankEntry(
                label=label,
                mode=mode + 1,
                mode_probability=float(row[mode]),
                interval=interval,
            )
        )
    return entries
