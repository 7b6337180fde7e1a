"""Paired-bootstrap engine and comparison/ranking probabilities.

All resampling is paired: one index draw per replicate is shared by every
method column, which preserves the inter-method correlation that drives
these comparisons.  Replicate j draws its indices from a counter-based
generator keyed solely by (seed, j), and its statistics are computed from
that index row alone, never through BLAS.  Results are therefore
bit-identical whatever B, the block size, the set of columns evaluated
together or the BLAS thread count.

Blocks of about BLOCK_CELLS index cells (1 MB) map numpy's raw Philox
words onto [0, n) by numpy's own bounded-integer rule; a row in which the
rule rejects a word is drawn again by `resample_indices`.

Point values of statistics are always computed on the original sample;
the bootstrap only supplies uncertainties and counting probabilities.
"""

import math
import sys
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .estimators import StatKind, _Resampled, evaluate, sample_sd

__all__ = [
    "BootstrapPlan",
    "PairComparison",
    "RankMatrix",
    "RankEntry",
    "LOWER_IS_RANK1",
    "HIGHER_IS_RANK1",
    "BLOCK_CELLS",
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
]

LOWER_IS_RANK1 = "lower"
HIGHER_IS_RANK1 = "higher"

_MASK64 = (1 << 64) - 1

# One reusable generator per thread: a shared one could be re-keyed by
# another thread between the reset and the draw.
_thread_rng = threading.local()

# Dataset sizes below these make the counting p-values unreliable for the
# matching statistic; comparisons still run but emit a warning.
MIN_N_MUE = 30
MIN_N_QUANTILE = 60

# Replicate blocks hold at most about this many index cells (1 MB), so that a
# block and its kernel's float64 scratch of the same shape share a 2 MB L2
# cache (2**17 was the fastest of 2**16 to 2**20 at N = 1000 to 10000), and
# memory stays bounded as B * N grows.
BLOCK_CELLS = 1 << 17


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


def _keyed(plan, replicate_index):
    """The per-thread generator, reset to key `(seed << 64) | replicate` and counter 0."""
    gen = getattr(_thread_rng, "gen", None)
    if gen is None:
        gen = _thread_rng.gen = np.random.Generator(np.random.Philox(0))
    key = [replicate_index & _MASK64, plan.seed & _MASK64]
    gen.bit_generator.state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
                               "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return gen


def resample_indices(plan, replicate_index, n):
    """Row indices drawn with replacement for one replicate.

    The draw is that of `Generator(Philox(key=(seed << 64) | replicate))`,
    both taken mod 2**64, made by resetting a per-thread generator to that
    key and counter 0.
    """
    return _keyed(plan, replicate_index).integers(0, n, size=plan.resample_size(n))


def replicate_blocks(plan, n):
    """Yield the B replicate index draws as (lo, idx) blocks, in order.

    Row r of the (b, n') array idx is exactly
    `resample_indices(plan, lo + r, n)`.  A block has at least one row and
    otherwise at most BLOCK_CELLS // n of them, so a block's count matrix
    holds at most about BLOCK_CELLS cells.

    For n < 2**32 numpy maps each 32-bit Philox word x, low half first, to
    x * n >> 32 and rejects x where the low word of x * n is below 2**32 mod
    n (Lemire 2019).  The block maps all its rows' raw words at once and
    redraws by `resample_indices` a row with a rejected word, or every row
    on a big-endian or 32-bit host, whose word order or intp differ.
    """
    n_prime = plan.resample_size(n)
    rows = max(1, BLOCK_CELLS // max(n, 1))
    mapped = 0 < n < 2**32 and sys.byteorder == "little" and np.dtype(np.intp).itemsize == 8
    for lo in range(0, plan.B, rows):
        b = min(rows, plan.B - lo)
        if mapped:
            words = np.empty((b, (n_prime + 1) // 2), dtype=np.uint64)
            for r in range(b):
                words[r] = _keyed(plan, lo + r).bit_generator.random_raw(words.shape[1])
            x = words.view(np.uint32)[:, :n_prime]
            redraw = np.flatnonzero((x * np.uint32(n)).min(axis=1) < 2**32 % n).tolist()  # low words of x * n
            m = x * np.uint64(n)
            idx = np.right_shift(m, 32, out=m).view(np.intp)
        else:
            idx, redraw = np.empty((b, n_prime), dtype=np.intp), range(b)
        for r in redraw:
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
    resampled = _Resampled(kind).bind(cols)
    out = np.empty((plan.B, cols.shape[1]))  # before any draw, so a B too large for memory fails at once
    for lo, idx in replicate_blocks(plan, cols.shape[0]):
        out[lo : lo + len(idx)] = resampled(idx)
    return out


def bootstrap_se(errors, kind, plan):
    """Bootstrap standard error of a statistic (sd over replicates, ddof=1)."""
    e = np.asarray(errors, dtype=float)
    if e.size < 2:
        raise ValueError("need at least 2 entries")
    return float(sample_sd(replicate_stats(e, kind, plan)[:, 0]))


def diff_sample(e1, e2, kind, plan):
    """Replicate values of S(E1*) - S(E2*) under paired resampling."""
    a = np.asarray(e1, dtype=float)
    b = np.asarray(e2, dtype=float)
    if a.shape != b.shape:
        raise ValueError("paired error sets must have the same length")
    stats = replicate_stats(np.column_stack([a, b]), kind, plan)
    return stats[:, 0] - stats[:, 1]


def _normal_p(s1, s2, u):
    """(xi, two-sided normal p-value) for the discrepancy xi = |s1-s2| / u."""
    xi = abs(s1 - s2) / u
    return xi, math.erfc(xi / math.sqrt(2.0))  # 2(1 - Phi(xi)) with no cancellation in the tail


def p_t_value(s1, s2, u_diff):
    """Normal-theory p-value from the discrepancy xi = |s1-s2| / u(s1-s2)."""
    if u_diff <= 0.0:
        raise ValueError("degenerate uncertainty: u(s1-s2) must be > 0")
    return _normal_p(s1, s2, u_diff)


def p_unc_value(s1, s2, u1, u2):
    """Correlation-ignoring variant: the uncertainties add in quadrature.

    Under the positive statistic correlations typical of shared reference
    data this overestimates the correlated p-value.
    """
    denom = np.hypot(u1, u2)
    if denom <= 0.0:
        raise ValueError("degenerate uncertainty: u1 and u2 are both zero")
    return _normal_p(s1, s2, denom)


def _signs(d):
    """(#{d < 0}, #{d > 0}, #{d = 0}) of a difference sample."""
    return int((d < 0).sum()), int((d > 0).sum()), int((d == 0).sum())


def generalized_p(d):
    """Counting-based generalized p-value from a bootstrap difference sample.

    p* = (#{d<0} + 0.5 #{d=0}) / B and p_g = 2 min(p*, 1-p*): null
    differences are shared between the two signs, and the factor two
    reflects the two-sided test.  It is taken as min(2a + c, 2b + c) / B
    from the counts a = #{d<0}, b = #{d>0}, c = #{d=0}, one correctly
    rounded division, so swapping the pair gives the same float.
    """
    dv = np.asarray(d, dtype=float)
    if dv.size < 100:
        raise ValueError("need at least 100 replicates")
    a, b, c = _signs(dv)
    return min(2 * a + c, 2 * b + c) / dv.size


def p_inv(d, s1, s2):
    """Probability that a replicate inverts the observed ordering of s1, s2.

    Counts replicates whose difference has strictly opposite sign to
    s1 - s2: null differences are not inversions.  When s1 == s2 there is
    no observed ordering to invert; 0.5 is returned by convention and the
    caller should flag the comparison as degenerate.
    """
    dv = np.asarray(d, dtype=float)
    if s1 == s2:
        return 0.5
    below, above, _ = _signs(dv)
    return (below if s1 > s2 else above) / dv.size


@dataclass(frozen=True)
class PairComparison:
    """Everything one paired bootstrap run says about s1 vs s2.

    xi/p_t are None when the bootstrap uncertainty of the difference is
    exactly zero (e.g. identical columns); xi_unc/p_unc when both
    individual uncertainties vanish.  `degenerate` marks s1 == s2, where
    the inversion probability is 0.5 by convention.
    """

    methods: tuple
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


def _warn_small_n(n, kind, task, results):
    need = {"mue": MIN_N_MUE, "q": MIN_N_QUANTILE}.get(kind.kind, 0)
    if n < need:
        warnings.warn(
            f"N={n} is small for {kind.label} {task} (N>={need} recommended); {results} may be unreliable",
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
    _warn_small_n(matrix.n_systems, kind, "comparisons", "p-values")
    e1 = matrix.errors[:, ii]
    e2 = matrix.errors[:, jj]
    s1 = evaluate(kind, e1)
    s2 = evaluate(kind, e2)
    stats = replicate_stats(np.column_stack([e1, e2]), kind, plan)
    d = stats[:, 0] - stats[:, 1]
    # Column by column: over the (B, 2) array's first axis numpy sums in another order.
    u1, u2, u_diff = (float(sample_sd(v)) for v in (stats[:, 0], stats[:, 1], d))
    xi = p_t = xi_unc = p_unc = None
    if u_diff > 0.0:
        xi, p_t = p_t_value(s1, s2, u_diff)
    if u1 > 0.0 or u2 > 0.0:
        xi_unc, p_unc = p_unc_value(s1, s2, u1, u2)
    return PairComparison(
        methods=(matrix.method_names[ii], matrix.method_names[jj]),
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
        n_zero_diffs=_signs(d)[2],
        degenerate=bool(s1 == s2),
    )


@dataclass(frozen=True)
class RankEntry:
    """Per-method summary of a rank distribution (ranks are 1-based)."""

    label: str
    mode: int
    mode_probability: float
    interval: tuple


@dataclass(frozen=True)
class RankMatrix:
    """Ranking probability matrix: p[j, k] = P(rank of method j is k+1)."""

    p: np.ndarray
    labels: list
    stat: StatKind
    orientation: str
    summary: list


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
    _warn_small_n(matrix.n_systems, kind, "rankings", "rank probabilities")
    stats = replicate_stats(matrix.errors, kind, plan)
    key = stats if orientation == LOWER_IS_RANK1 else -stats
    order = np.argsort(key, axis=1, kind="stable")  # order[:, r] holds the method ranked r + 1
    p = np.column_stack([np.bincount(ranked, minlength=k) for ranked in order.T]) / plan.B
    labels = list(matrix.method_names)
    return RankMatrix(
        p=p,
        labels=labels,
        stat=kind,
        orientation=orientation,
        summary=_summarize_ranks(p, labels),
    )


def _summarize_ranks(p, labels, mass=0.90):
    """Mode and shortest contiguous rank interval holding >= `mass`, per method.

    Among intervals of equal length the one of lowest ranks wins.  Window
    sums come from prefix sums: c[s + length] - c[s] for every start s.
    """
    entries = []
    k = p.shape[1]
    for label, row in zip(labels, p):
        mode = int(np.argmax(row))
        c = np.concatenate(([0.0], np.cumsum(row)))
        for length in range(1, k + 1):
            starts = np.flatnonzero(c[length:] - c[:-length] >= mass - 1e-12)
            if starts.size:
                interval = (int(starts[0]) + 1, int(starts[0]) + length)
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
