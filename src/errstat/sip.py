"""System-wise comparison of absolute errors.

The systematic improvement probability SIP(i, j) is the fraction of
systems whose absolute error strictly decreases when switching from
method j to method i.  Together with the mean gain (MG, the average
improvement on those systems) and the mean loss (ML, the average
degradation on the others) it decomposes any MUE difference into a
balance of gains and losses:

    MUE(i) - MUE(j) = SIP(i,j) * MG(i,j) + SIP(j,i) * ML(i,j)

so a better MUE never certifies improvement on every system.
"""

from dataclasses import dataclass

import numpy as np

from .estimators import StatKind, _count, evaluate_rows, lerp, percentile, weighted_sums

__all__ = [
    "SipReport",
    "DeltaEcdfReport",
    "ScalarWithCI",
    "abs_error_deltas",
    "sip_matrix",
    "mue_decomposition",
    "delta_ecdf",
]


def abs_error_deltas(e1, e2):
    """Per-system differences of absolute errors |e1_k| - |e2_k|; each is < 0, 0 or > 0, never NaN."""
    a = np.asarray(e1, dtype=float)
    b = np.asarray(e2, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired error sets must be 1-d and the same length")
    deltas = np.abs(a) - np.abs(b)
    if not np.isfinite(deltas).all():
        raise ValueError("paired error sets must be finite")
    return deltas


_MUE = StatKind.mue()


def _scores(deltas):
    """(#gains, #losses, MG, ML): the counts of deltas < 0 and > 0 and their means, None without any."""
    gains, losses = deltas[deltas < 0], deltas[deltas > 0]
    mg = float(gains.mean()) if gains.size else None
    ml = float(losses.mean()) if losses.size else None
    return gains.size, losses.size, mg, ml


@dataclass(frozen=True)
class SipReport:
    """All pairwise SIP/MG/ML values plus the MSIP ranking.

    Undefined entries (MG where SIP is zero and the diagonal) are NaN.
    MSIP is the row mean of the SIP matrix over all K methods including
    the zero diagonal, i.e. the sum over opponents divided by K.
    `order` lists method indices by decreasing MSIP.
    """

    sip: np.ndarray
    mg: np.ndarray
    ml: np.ndarray
    ties: np.ndarray
    msip: np.ndarray
    order: list
    labels: list
    n_systems: int


def sip_matrix(matrix):
    """Pairwise SIP/MG/ML report for an ErrorMatrix (K >= 2 methods).

    Each unordered pair is scored once: the deltas of (j, i) are those of
    (i, j) negated, so SIP(j,i) is the loss fraction, MG(j,i) = -ML(i,j)
    and ties are symmetric.
    """
    k, n = matrix.n_methods, matrix.n_systems
    if k < 2:
        raise ValueError("need at least 2 methods")
    a = np.abs(matrix.errors)
    sip = np.zeros((k, k))
    mg = np.full((k, k), np.nan)
    ties = np.zeros((k, k), dtype=int)
    for i in range(k):
        for j in range(i + 1, k):
            n_gain, n_loss, gain, loss = _scores(a[:, i] - a[:, j])
            sip[i, j], sip[j, i] = n_gain / n, n_loss / n
            ties[i, j] = ties[j, i] = n - n_gain - n_loss
            mg[i, j], mg[j, i] = np.nan if gain is None else gain, np.nan if loss is None else -loss
    ml = -mg.T
    msip = sip.sum(axis=1) / k
    order = list(np.argsort(-msip, kind="stable"))
    return SipReport(
        sip=sip,
        mg=mg,
        ml=ml,
        ties=ties,
        msip=msip,
        order=[int(i) for i in order],
        labels=list(matrix.method_names),
        n_systems=n,
    )


def mue_decomposition(e1, e2):
    """MUE difference and its reconstruction from SIP, MG and ML.

    Returns (delta_mue, reconstructed); the two agree to machine
    precision, terms with zero SIP contribute nothing.
    """
    deltas = abs_error_deltas(e1, e2)
    mue_1, mue_2 = evaluate_rows(_MUE, np.stack([e1, e2]))  # unlike evaluate, takes one system
    n_gain, n_loss, gain, loss = _scores(deltas)
    reconstructed = 0.0
    if n_gain:
        reconstructed += n_gain / deltas.size * gain
    if n_loss:
        reconstructed += n_loss / deltas.size * loss
    return float(mue_1 - mue_2), reconstructed


@dataclass(frozen=True)
class ScalarWithCI:
    """A point value with a 95% bootstrap percentile interval."""

    value: float | None
    lo: float | None
    hi: float | None


@dataclass(frozen=True)
class DeltaEcdfReport:
    """ECDF of the absolute-error differences with 95% bootstrap bands.

    `deltas` are sorted; `ecdf[i]` is the fraction of systems at or below
    `deltas[i]` (tied values share the same height).  The band is the
    pointwise 95% percentile interval of the resampled ECDF at each
    original delta.  `uncertainty_bar` is a user-supplied dataset
    uncertainty level for display, never computed.
    """

    labels: tuple
    deltas: np.ndarray
    ecdf: np.ndarray
    band_lo: np.ndarray
    band_hi: np.ndarray
    system_ids: list | None
    sip: ScalarWithCI
    mg: ScalarWithCI
    ml: ScalarWithCI
    delta_mue: ScalarWithCI
    ties: int
    uncertainty_bar: float | None = None

    def rows(self):
        """One (system_id, delta, ecdf, band_lo, band_hi) row per system."""
        ids = self.system_ids or [str(i) for i in range(len(self.deltas))]
        return zip(ids, self.deltas.tolist(), self.ecdf.tolist(), self.band_lo.tolist(), self.band_hi.tolist())


def _percentile_ci(values):
    if values.size == 0:
        return None, None
    lo, hi = percentile(values, [2.5, 97.5])
    return float(lo), float(hi)


def _percentile_band(counts, n_prime):
    """Bit for bit `np.percentile(counts / n_prime, [2.5, 97.5], axis=1)`; reorders counts' rows in place.

    Division keeps the order, so the order statistics around each level are
    selected on the integers: k + 1 is the least count right of a partition
    at k, faster here than `_order_stats` (9.6 against 13.2 ms, 5000 x 1000).
    """
    b = counts.shape[1]
    band = []
    for p in (2.5, 97.5):
        v = (b - 1) * (p / 100)  # numpy's virtual index; (b - 1) * p / 100 can round differently
        k = int(v)
        t = v - k
        counts.partition(k, axis=1)
        lo = counts[:, k] / n_prime
        hi = counts[:, k + 1 :].min(axis=1) / n_prime
        band.append(lerp(lo, hi, t))
    return band


def delta_ecdf(e1, e2, plan, labels=("M1", "M2"), system_ids=None, uncertainty_bar=None):
    """Delta-ECDF report for one method pair under a bootstrap plan.

    The same paired resamples provide the pointwise ECDF band and the
    percentile intervals of the annotated scalars (SIP, MG, ML, MUE
    difference).  Replicates where MG or ML is undefined (no strict gain
    or loss) are skipped in the corresponding interval.
    """
    from .inference import replicate_blocks  # here, so that the SIP matrix loads no resampling code

    a = np.asarray(e1, dtype=float)
    b = np.asarray(e2, dtype=float)
    deltas = abs_error_deltas(a, b)
    n = deltas.size
    if n < 2:
        raise ValueError("need at least 2 systems")
    order = np.argsort(deltas, kind="stable")
    sorted_deltas = deltas[order]
    # Height of the ECDF at each sorted point; ties share their maximum.
    ends = np.searchsorted(sorted_deltas, sorted_deltas, side="right")
    ecdf = ends / n

    # Every replicate is a count row in sorted-delta order.  Its contraction
    # with these terms gives the numbers of strict gains and strict losses
    # and the sums of strict gains, of strict losses and of all deltas; then
    # its running total, taken in place, read at a tie group's end is how
    # many resampled deltas lie at or below it.
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    terms = np.array([sorted_deltas < 0, sorted_deltas > 0, np.minimum(sorted_deltas, 0.0),
                      np.maximum(sorted_deltas, 0.0), sorted_deltas], dtype=float)
    n_prime = plan.resample_size(n)
    # At least 16 bits: uint8 rows partition several times slower.
    below = np.empty((n, plan.B), dtype=np.promote_types(np.min_scalar_type(n_prime), np.uint16))
    sums = np.empty((plan.B, terms.shape[0]))
    counts = None
    for lo, idx in replicate_blocks(plan, n):
        if counts is None:  # one buffer, sized by the first block, the largest
            counts = np.empty((idx.shape[0], n))
        block = _count(np.take(position, idx, out=idx, mode="clip"), counts[: idx.shape[0]])
        sums[lo : lo + idx.shape[0]] = weighted_sums(block, terms)
        below[:, lo : lo + idx.shape[0]] = np.cumsum(block, axis=1, out=block)[:, ends - 1].T
    band_lo, band_hi = _percentile_band(below, n_prime)

    n_gain, n_loss, gain_sum, loss_sum, delta_sum = sums.T
    has_gain, has_loss = n_gain > 0, n_loss > 0  # the replicates where MG (ML) is defined
    gains, losses, mg_val, ml_val = _scores(deltas)
    ordered_ids = None
    if system_ids is not None:
        ordered_ids = [system_ids[i] for i in order]
    return DeltaEcdfReport(
        labels=tuple(labels),
        deltas=sorted_deltas,
        ecdf=ecdf,
        band_lo=band_lo,
        band_hi=band_hi,
        system_ids=ordered_ids,
        sip=ScalarWithCI(gains / n, *_percentile_ci(n_gain / n_prime)),
        mg=ScalarWithCI(mg_val, *_percentile_ci(gain_sum[has_gain] / n_gain[has_gain])),
        ml=ScalarWithCI(ml_val, *_percentile_ci(loss_sum[has_loss] / n_loss[has_loss])),
        delta_mue=ScalarWithCI(mue_decomposition(a, b)[0], *_percentile_ci(delta_sum / n_prime)),
        ties=n - gains - losses,
        uncertainty_bar=uncertainty_bar,
    )
