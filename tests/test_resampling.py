"""The replicate-block bootstrap engine against the slow, obvious path.

Every replicate value must equal the statistic of the gathered resample
`column[resample_indices(plan, j, n)]` (exactly for order statistics and
counts, to 1e-12 for sums), and must not depend on B, the block size,
the other columns evaluated with it or the BLAS thread count.
"""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import errstat.inference as inf
from errstat.dataset import ErrorMatrix
from errstat.estimators import StatKind, evaluate, weighted_sums
from errstat.inference import (
    BootstrapPlan,
    compare_pair,
    rank_probability_matrix,
    replicate_stats,
    resample_indices,
)
from errstat.sip import delta_ecdf

KINDS = (
    StatKind.mse(),
    StatKind.mue(),
    StatKind.rmsd(),
    StatKind.quantile(0.95, "hd"),
    StatKind.quantile(0.90, "type7"),
    StatKind.quantile(0.5, "hd"),
    StatKind.quantile(0.3, "type7"),
)


def _tied_columns(rng, n, k):
    """Normal columns with planted exact ties: repeated values and copied cells."""
    cols = rng.normal(size=(n, k)) * rng.uniform(0.5, 3.0, size=k)
    cols[rng.random((n, k)) < 0.1] = 0.0
    for j in range(1, k):
        copied = rng.random(n) < 0.2
        cols[copied, j] = -cols[copied, j - 1]  # same absolute error
    if k > 2:
        cols[:, 2] = cols[:, 0]  # a whole column tied
    return cols


def _oracle_stats(kind, cols, plan):
    return np.array(
        [[evaluate(kind, cols[resample_indices(plan, j, cols.shape[0]), k]) for k in range(cols.shape[1])]
         for j in range(plan.B)]
    )


def _oracle_ranks(stats):
    b, k = stats.shape
    p = np.zeros((k, k))
    for row in stats:
        for rank, method in enumerate(sorted(range(k), key=lambda m: (row[m], m))):
            p[method, rank] += 1
    return p / b


def _assert_close(got, want, scale):
    # A signed mean near zero has no relative precision, so the bound is
    # also relative to the size of the terms summed.
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


@pytest.mark.filterwarnings("ignore:N=.* is small")
def test_engine_matches_gather_oracle_on_random_tables():
    rng = np.random.default_rng(2024)
    for case in range(40):
        n = int(rng.integers(2, 401)) if case else 2
        k = int(rng.integers(1, 6))
        n_prime = None if rng.random() < 0.5 else int(rng.integers(2, n + 1))
        plan = BootstrapPlan(B=100, seed=case, n_prime=n_prime)
        cols = _tied_columns(rng, n, k)
        for kind in KINDS:
            got = replicate_stats(cols, kind, plan)
            want = _oracle_stats(kind, cols, plan)
            if kind.kind == "q" and kind.quantile_method == "type7":
                np.testing.assert_array_equal(got, want)
            else:
                _assert_close(got, want, np.abs(cols).max())
            if k >= 2:
                matrix = ErrorMatrix(errors=cols, method_names=[f"M{j}" for j in range(k)])
                ranks = rank_probability_matrix(matrix, kind, plan)
                np.testing.assert_array_equal(ranks.p, _oracle_ranks(want))
                comp = compare_pair(matrix, 0, 1, kind, plan)
                assert comp.n_zero_diffs == int((want[:, 0] == want[:, 1]).sum())
        if k >= 2:
            _check_delta_ecdf(cols[:, 0], cols[:, 1], plan)


def _check_delta_ecdf(e1, e2, plan):
    report = delta_ecdf(e1, e2, plan)
    d = np.abs(e1) - np.abs(e2)
    sorted_d = np.sort(d)
    boot = np.array([d[resample_indices(plan, j, d.size)] for j in range(plan.B)])
    band = np.array([np.searchsorted(np.sort(row), sorted_d, side="right") / row.size for row in boot])
    lo, hi = np.percentile(band, [2.5, 97.5], axis=0)
    np.testing.assert_array_equal(report.band_lo, lo)
    np.testing.assert_array_equal(report.band_hi, hi)

    def ci(values):
        values = values[~np.isnan(values)]
        return [None, None] if values.size == 0 else list(np.percentile(values, [2.5, 97.5]))

    with np.errstate(invalid="ignore"):
        mg = np.array([row[row < 0].mean() if (row < 0).any() else np.nan for row in boot])
        ml = np.array([row[row > 0].mean() if (row > 0).any() else np.nan for row in boot])
    assert [report.sip.lo, report.sip.hi] == ci((boot < 0).mean(axis=1))
    for got, values in ((report.mg, mg), (report.ml, ml), (report.delta_mue, boot.mean(axis=1))):
        want = ci(values)
        if want[0] is None:
            assert got.lo is None and got.hi is None
        else:
            _assert_close([got.lo, got.hi], want, np.abs(d).max())


@pytest.mark.parametrize("n_prime", [None, 700])
def test_replicate_values_do_not_depend_on_B_columns_or_blocks(n_prime, monkeypatch):
    rng = np.random.default_rng(5)
    cols = _tied_columns(rng, 2000, 4)
    plan = BootstrapPlan(B=1000, seed=3, n_prime=n_prime)
    for kind in (StatKind.mse(), StatKind.mue(), StatKind.rmsd(), StatKind.quantile(0.95, "hd"),
                 StatKind.quantile(0.90, "type7")):
        full = replicate_stats(cols, kind, plan)
        for b in (100, 150, 257, 600):
            np.testing.assert_array_equal(
                replicate_stats(cols, kind, BootstrapPlan(B=b, seed=3, n_prime=n_prime)), full[:b]
            )
        for k in range(cols.shape[1]):
            np.testing.assert_array_equal(replicate_stats(cols[:, k], kind, plan)[:, 0], full[:, k])
        with monkeypatch.context() as m:
            m.setattr(inf, "BLOCK_CELLS", 1)  # one replicate per block
            one_by_one = replicate_stats(cols, kind, BootstrapPlan(B=150, seed=3, n_prime=n_prime))
        np.testing.assert_array_equal(one_by_one, full[:150])


def test_weighted_sums_of_one_row_match_a_larger_block():
    # np.einsum reduces a lone 1 x 1 output in buffer-sized pieces; long rows expose it.
    rng = np.random.default_rng(8)
    a = rng.random((3, 20000))
    b = rng.normal(size=(1, 20000))
    full = weighted_sums(a, b)
    for r in range(3):
        np.testing.assert_array_equal(weighted_sums(a[r : r + 1], b), full[r : r + 1])


def test_json_reports_do_not_depend_on_blas_threads(tmp_path):
    rng = np.random.default_rng(17)
    n = 3000
    ref = rng.normal(size=n)
    pred = ref[:, None] - rng.normal(size=(n, 4)) * [0.3, 0.35, 0.5, 0.4]
    rows = zip(ref.tolist(), pred.tolist())
    lines = ["System,Ref,M1,M2,M3,M4"] + [f"s{i},{r!r}," + ",".join(map(repr, p)) for i, (r, p) in enumerate(rows)]
    data = tmp_path / "t.csv"
    data.write_text("\n".join(lines) + "\n")
    script = (
        "import sys; from errstat.cli import run; d, out = sys.argv[1:]\n"
        "for cmd in (['rank', d, '--stat', 'q95'], ['rank', d, '--stat', 'mue', '--nprime', '1000'],\n"
        "            ['compare', d, '--pair', 'M1,M2', '--stat', 'q95'],\n"
        "            ['compare', d, '--pair', 'M3,M4']):\n"
        "    json_path = out + '-'.join(cmd[2:]) + '.json'\n"
        "    assert run(cmd + ['--boot', '300', '--seed', '4', '--json', json_path]) == 0\n"
    )
    blobs = {}
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        prefix = str(tmp_path / f"t{threads}-")
        cmd = [sys.executable, "-c", script, str(data), prefix]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        blobs[threads] = sorted((p.name[3:], p.read_bytes()) for p in tmp_path.glob(f"t{threads}-*.json"))
    assert len(blobs["1"]) == 4
    assert blobs["1"] == blobs["2"]


def test_replicate_stats_memory_is_bounded():
    # The (B, N) index matrix alone would take 160 MB here.
    cols = np.random.default_rng(3).normal(size=(20000, 3))
    plan = BootstrapPlan(B=1000, seed=1)
    for kind in (StatKind.mue(), StatKind.rmsd(), StatKind.quantile(0.95, "hd")):
        tracemalloc.start()
        try:
            replicate_stats(cols, kind, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, f"{kind.label}: peak {peak / 2**20:.1f} MB"
