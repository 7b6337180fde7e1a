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

from . import inference
from .estimators import StatKind, evaluate_rows, lerp, percentile, resample_counts, weighted_sums

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
    """Per-system differences of absolute errors |e1_k| - |e2_k|."""
    a = np.asarray(e1, dtype=float)
    b = np.asarray(e2, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired error sets must be 1-d and the same length")
    return np.abs(a) - np.abs(b)


_MUE = StatKind.mue()


def _mean_gain(deltas):
    neg = deltas[deltas < 0]
    return float(neg.mean()) if neg.size else None


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
    """Pairwise SIP/MG/ML report for an ErrorMatrix (K >= 2 methods)."""
    errors = matrix.errors
    k = matrix.n_methods
    if k < 2:
        raise ValueError("need at least 2 methods")
    n = matrix.n_systems
    sip = np.zeros((k, k))
    mg = np.full((k, k), np.nan)
    ties = np.zeros((k, k), dtype=int)
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            deltas = abs_error_deltas(errors[:, i], errors[:, j])
            sip[i, j] = float((deltas < 0).mean())
            ties[i, j] = int((deltas == 0).sum())
            gain = _mean_gain(deltas)
            if gain is not None:
                mg[i, j] = gain
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
    delta_mue = float(mue_1 - mue_2)
    sip_12 = float((deltas < 0).mean())
    sip_21 = float((deltas > 0).mean())
    gain = _mean_gain(deltas)
    loss = _mean_gain(-deltas)  # ML(1,2) = -MG(2,1)
    reconstructed = 0.0
    if sip_12 > 0:
        reconstructed += sip_12 * gain
    if sip_21 > 0:
        reconstructed += sip_21 * -loss
    return delta_mue, reconstructed


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
        for i in range(len(self.deltas)):
            yield ids[i], float(self.deltas[i]), float(self.ecdf[i]), float(
                self.band_lo[i]
            ), float(self.band_hi[i])


def _percentile_ci(values):
    vals = np.asarray(values, dtype=float)
    vals = vals[~np.isnan(vals)]
    if vals.size == 0:
        return None, None
    lo, hi = percentile(vals, [2.5, 97.5])
    return float(lo), float(hi)


def _percentile_band(counts, n_prime):
    """Bit for bit `np.percentile(counts / n_prime, [2.5, 97.5], axis=1)`; reorders counts' rows in place.

    Division keeps the order, so the two order statistics around each level
    are selected on the integers, then interpolated by numpy's linear rule.
    """
    b = counts.shape[1]
    band = []
    for p in (2.5, 97.5):
        v = (b - 1) * (p / 100)  # numpy's virtual index; (b - 1) * p / 100 can round differently
        k = int(v)
        t = v - k
        counts.partition(k, axis=1)
        lo = counts[:, k] / n_prime
        counts.partition(k + 1, axis=1)
        hi = counts[:, k + 1] / n_prime
        band.append(lerp(lo, hi, t))
    return band


def delta_ecdf(e1, e2, plan, labels=("M1", "M2"), system_ids=None, uncertainty_bar=None):
    """Delta-ECDF report for one method pair under a bootstrap plan.

    The same paired resamples provide the pointwise ECDF band and the
    percentile intervals of the annotated scalars (SIP, MG, ML, MUE
    difference).  Replicates where MG or ML is undefined (no strict gain
    or loss) are skipped in the corresponding interval.
    """
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

    # Every replicate is a count row in sorted-delta order.  Its running
    # total read at a tie group's end is how many resampled deltas lie at
    # or below that value; its contraction with these terms gives the
    # number and sum of strict gains and losses and the sum of all deltas.
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    gain, loss = sorted_deltas < 0, sorted_deltas > 0
    terms = np.array(
        [gain, np.where(gain, sorted_deltas, 0.0), loss, np.where(loss, sorted_deltas, 0.0), sorted_deltas]
    )
    n_prime = plan.resample_size(n)
    below = np.empty((n, plan.B), dtype=np.min_scalar_type(n_prime))
    sums = np.empty((plan.B, terms.shape[0]))
    for lo, idx in inference.replicate_blocks(plan, n):
        counts = resample_counts(position[idx], n)
        below[:, lo : lo + idx.shape[0]] = np.cumsum(counts, axis=1)[:, ends - 1].T
        sums[lo : lo + idx.shape[0]] = weighted_sums(counts, terms)
    band_lo, band_hi = _percentile_band(below, n_prime)

    sip_val = float((deltas < 0).mean())
    n_gain, gain_sum, n_loss, loss_sum, delta_sum = sums.T
    sip_boot = n_gain / n_prime
    # Replicates with no strict gain (or loss) leave MG (or ML) undefined: NaN.
    mg_boot = np.where(n_gain > 0, gain_sum / np.maximum(n_gain, 1), np.nan)
    ml_boot = np.where(n_loss > 0, loss_sum / np.maximum(n_loss, 1), np.nan)
    dmue_boot = delta_sum / n_prime

    mg_val = _mean_gain(deltas)
    ml_neg = _mean_gain(-deltas)
    ml_val = None if ml_neg is None else -ml_neg
    mue_1, mue_2 = evaluate_rows(_MUE, np.stack([a, b]))
    dmue_val = float(mue_1 - mue_2)
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
        sip=ScalarWithCI(sip_val, *_percentile_ci(sip_boot)),
        mg=ScalarWithCI(mg_val, *_percentile_ci(mg_boot)),
        ml=ScalarWithCI(ml_val, *_percentile_ci(ml_boot)),
        delta_mue=ScalarWithCI(dmue_val, *_percentile_ci(dmue_boot)),
        ties=int((deltas == 0).sum()),
        uncertainty_bar=uncertainty_bar,
    )
