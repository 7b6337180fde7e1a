"""Exact metamorphic relations of the comparison pipeline.

Multiplying every error by a power of two is exact in floating point,
and so are negating the errors, swapping the two methods of a pair,
permuting the method columns and adding one.  Each relation therefore
holds bit for bit, and every check is `==` or `np.array_equal`.  Tables
are small, with planted exact ties and zero deltas, and rankings also run
N'-out-of-N.
"""

import warnings

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from errstat.correlation import correlation_matrix
from errstat.dataset import ErrorMatrix
from errstat.estimators import StatKind, evaluate
from errstat.inference import BootstrapPlan, bootstrap_se, compare_pair, rank_probability_matrix, replicate_stats
from errstat.sip import delta_ecdf, sip_matrix

KINDS = (StatKind.mse(), StatKind.mue(), StatKind.rmsd(), StatKind.quantile(0.95), StatKind.quantile(0.9, "type7"))
PLAN = BootstrapPlan(B=100, seed=5)
POWERS = (-600, -7, 2, 100)

# Multiples of 1/8 in [-2, 2]: equal |errors| and zero deltas are common.
coarse = st.integers(-16, 16).map(lambda v: v / 8.0)
# Distinct cells: no two methods' statistics tie on any replicate (checked).
fine = st.integers(-10**6, 10**6).map(lambda v: v / 1024.0)


@st.composite
def tables(draw, cells=coarse, unique=False):
    n, k = draw(st.integers(4, 10)), draw(st.integers(2, 4))
    values = draw(st.lists(cells, min_size=n * k, max_size=n * k, unique=unique))
    return np.array(values).reshape(n, k)


def _em(errors):
    return ErrorMatrix(errors=errors, method_names=[f"M{j}" for j in range(errors.shape[1])])


def _floats(values):
    """A float array from values that may hold None (undefined), as NaN."""
    return np.array([np.nan if v is None else v for v in values], dtype=float)


def _same(a, b):
    return np.array_equal(a, b, equal_nan=True)


def _correlations(errors):
    out = []
    for method in ("spearman", "pearson"):
        try:
            out.append(correlation_matrix(_em(errors), method=method).values)
        except ValueError:  # a constant column
            out.append(np.array([]))
    return out


def _outputs(errors):
    """({name: outputs that scale with the errors}, {name: outputs that do not}) of one table."""
    matrix, n = _em(errors), errors.shape[0]
    scaled, fixed = {}, {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small-N warnings
        for kind in KINDS:
            comp = compare_pair(matrix, 0, 1, kind, PLAN)
            scaled[kind.label + " values"] = _floats([evaluate(kind, c) for c in errors.T])
            scaled[kind.label + " SEs"] = _floats([comp.s1, comp.s2, comp.u1, comp.u2, comp.u_diff,
                                                   bootstrap_se(errors[:, -1], kind, PLAN)])
            fixed[kind.label + " p"] = _floats([comp.p_g, comp.p_inv, comp.xi, comp.p_t, comp.n_zero_diffs])
            fixed[kind.label + " P_r"] = rank_probability_matrix(matrix, kind, BootstrapPlan(B=100, n_prime=n - 1)).p
    sip = sip_matrix(matrix)
    scaled["MG"], scaled["ML"], fixed["SIP"], fixed["ties"] = sip.mg, sip.ml, sip.sip, sip.ties
    ecdf = delta_ecdf(errors[:, 0], errors[:, 1], PLAN)
    scaled["deltas"] = ecdf.deltas
    for name in ("mg", "ml", "delta_mue"):
        s = getattr(ecdf, name)
        scaled["pair " + name] = _floats([s.value, s.lo, s.hi])
    fixed["ECDF"] = np.stack([ecdf.ecdf, ecdf.band_lo, ecdf.band_hi])
    fixed["pair sip"] = _floats([ecdf.sip.value, ecdf.sip.lo, ecdf.sip.hi, ecdf.ties])
    fixed["spearman"], fixed["pearson"] = _correlations(errors)
    return scaled, fixed


@settings(max_examples=20, deadline=None)
@given(tables())
def test_scaling_by_a_power_of_two_scales_every_value_and_fixes_every_probability(errors):
    scaled, fixed = _outputs(errors)
    for power in POWERS:
        scaled_p, fixed_p = _outputs(np.ldexp(errors, power))
        for name, value in scaled.items():
            assert _same(scaled_p[name], np.ldexp(value, power)), (power, name)
        for name, value in fixed.items():
            assert _same(fixed_p[name], value), (power, name)


@settings(max_examples=20, deadline=None)
@given(tables())
def test_negating_the_errors_negates_the_mse_only(errors):
    for kind in KINDS:
        values = [evaluate(kind, c) for c in errors.T]
        negated = [evaluate(kind, -c) for c in errors.T]
        assert negated == ([-v for v in values] if kind.kind == "mse" else values)
        ses = [bootstrap_se(c, kind, PLAN) for c in errors.T]
        assert [bootstrap_se(-c, kind, PLAN) for c in errors.T] == ses


@settings(max_examples=20, deadline=None)
@given(tables())
def test_swapping_the_pair_in_compare_swaps_s_and_u_and_keeps_the_rest(errors):
    matrix = _em(errors)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for kind in KINDS:
            a, b = compare_pair(matrix, 0, 1, kind, PLAN), compare_pair(matrix, 1, 0, kind, PLAN)
            assert b.methods == a.methods[::-1]
            assert (b.s1, b.s2, b.u1, b.u2) == (a.s2, a.s1, a.u2, a.u1)
            same = ("stat", "u_diff", "xi", "p_t", "xi_unc", "p_unc", "p_g", "p_inv", "n_zero_diffs", "degenerate")
            assert [getattr(b, f) for f in same] == [getattr(a, f) for f in same]


@settings(max_examples=20, deadline=None)
@given(tables())
def test_swapping_the_pair_in_sip_pair_mirrors_the_point_values(errors):
    e1, e2 = errors[:, 0], errors[:, 1]
    a, b = delta_ecdf(e1, e2, PLAN), delta_ecdf(e2, e1, PLAN)
    sip = sip_matrix(_em(errors))
    assert (a.sip.value, b.sip.value) == (sip.sip[0, 1], sip.sip[1, 0])
    assert _same(_floats([b.mg.value, b.ml.value]), -_floats([a.ml.value, a.mg.value]))
    assert _same(_floats([a.mg.value, a.ml.value]), [sip.mg[0, 1], sip.ml[0, 1]])
    assert b.delta_mue.value == -a.delta_mue.value
    assert b.ties == a.ties == sip.ties[0, 1]
    assert np.array_equal(b.deltas, -a.deltas[::-1])


@settings(max_examples=20, deadline=None)
@given(tables(cells=fine, unique=True), st.randoms(use_true_random=False))
def test_permuting_the_methods_permutes_the_rank_and_sip_rows(errors, rnd):
    n, k = errors.shape
    perm = list(range(k))
    rnd.shuffle(perm)
    plan = BootstrapPlan(B=100, seed=3, n_prime=n - 1)
    for kind in KINDS:
        stats = np.sort(replicate_stats(errors, kind, plan), axis=1)
        assume(np.all(stats[:, 1:] != stats[:, :-1]))  # rank ties go to the lower index
    a, b = _em(errors), _em(errors[:, perm])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for kind in KINDS:
            for orientation in ("lower", "higher"):
                p = rank_probability_matrix(a, kind, plan, orientation).p
                assert np.array_equal(rank_probability_matrix(b, kind, plan, orientation).p, p[perm])
    sa, sb = sip_matrix(a), sip_matrix(b)
    for name in ("sip", "mg", "ml", "ties"):
        assert _same(getattr(sb, name), getattr(sa, name)[np.ix_(perm, perm)]), name


@settings(max_examples=20, deadline=None)
@given(tables(), st.lists(coarse, min_size=10, max_size=10))
def test_adding_a_method_leaves_the_other_methods_replicates(errors, extra):
    wider = np.column_stack([errors, extra[: errors.shape[0]]])
    plan = BootstrapPlan(B=100, seed=9, n_prime=errors.shape[0] - 1)
    for kind in KINDS:
        assert np.array_equal(replicate_stats(wider, kind, plan)[:, :-1], replicate_stats(errors, kind, plan))
