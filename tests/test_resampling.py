"""The replicate-block bootstrap engine against the slow, obvious path.

Every replicate value must equal the statistic of the gathered resample
`column[resample_indices(plan, j, n)]` (exactly for order statistics and
counts, to 1e-12 for sums), and must not depend on B, the block size,
the other columns evaluated with it or the BLAS thread count.  Every row
of a replicate block must be the draw of a fresh Philox generator.
"""

import os
import platform
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import errstat.inference as inf
from errstat.dataset import ErrorMatrix
from errstat.estimators import StatKind, _count, _Resampled, evaluate, weighted_sums
from errstat.inference import (
    BootstrapPlan,
    compare_pair,
    rank_probability_matrix,
    replicate_stats,
    resample_indices,
)
from errstat.sip import _percentile_band, delta_ecdf

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


@pytest.mark.parametrize("rows_per_block", [None, 7])
def test_delta_ecdf_matches_gather_oracle_on_edge_pairs(rows_per_block, monkeypatch):
    # The gain and loss counts are read from the running totals: pairs with
    # no gain, no loss, only ties, ties at zero, at n' = n and n' < n; with
    # 7 replicates per block, B = 100 spans 15 blocks and the last holds 2.
    rng = np.random.default_rng(31)
    n = 60
    if rows_per_block:
        monkeypatch.setattr(inf, "BLOCK_CELLS", n * rows_per_block)
    e = rng.normal(size=n)
    zero = rng.random(n) < 0.3
    pairs = (
        (2 * e, e),  # every delta > 0 (|2e| - |e| is exact): no gain, n' losses
        (e, 2 * e),  # every delta < 0: no loss
        (e, e.copy()),  # every delta 0
        (e, np.where(zero, -e, 2 * e)),  # deltas 0 or < 0: ties only at zero, no loss
        (e, np.where(zero, -e, rng.normal(size=n))),  # gains, losses and ties at zero
    )
    for e1, e2 in pairs:
        for n_prime in (None, 25):
            _check_delta_ecdf(e1, e2, BootstrapPlan(B=100, seed=4, n_prime=n_prime))


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


def test_point_values_do_not_depend_on_blas_threads():
    # A BLAS dot product splits long vectors among its threads; these
    # sizes changed the last bits of both values under `@`.
    script = (
        "import numpy as np\n"
        "from errstat.correlation import pearson\n"
        "from errstat.estimators import quantile_hd\n"
        "rng = np.random.default_rng(5)\n"
        "x, y = rng.normal(size=(2, 200_000))\n"
        "u = rng.random(1_000_000)\n"
        "print(repr(pearson(x, y + 0.1 * x)), *(repr(quantile_hd(u, q)) for q in (0.05, 0.5, 0.95)))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    printed = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        printed.add(proc.stdout)
    assert len(printed) == 1, printed


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


@pytest.mark.parametrize("b", [100, 121, 257, 1000])  # (121 - 1) * 0.025 is an integer
def test_percentile_band_equals_numpy_percentile(b):
    # The band re-implements numpy's linear percentile on integer counts;
    # it must agree with np.percentile in every bit, ties included.
    rng = np.random.default_rng(b)
    for dtype, n, n_prime in ((np.uint8, 60, 60), (np.uint8, 200, 37), (np.uint16, 5000, 5000), (np.uint16, 700, 300)):
        for spread in (3, n_prime + 1):  # few distinct values: heavy ties
            counts = rng.integers(0, spread, size=(n, b)).astype(dtype)
            counts[: n // 10] = counts[: n // 10, :1]  # rows of one repeated value
            want = np.percentile(counts / n_prime, [2.5, 97.5], axis=1)
            got = _percentile_band(counts.copy(), n_prime)
            np.testing.assert_array_equal(np.array(got).view(np.uint64), want.view(np.uint64))


def _fresh_philox_draw(seed, j, n, size=None):
    key = ((seed & (2**64 - 1)) << 64) | (j & (2**64 - 1))
    return np.random.Generator(np.random.Philox(key=key)).integers(0, n, size=n if size is None else size)


def test_resample_indices_equals_a_fresh_philox_generator():
    for seed in (0, 42, 2**70 + 3):
        plan = BootstrapPlan(B=100, seed=seed)
        for j in (0, 1, 999, 2**64 + 5):
            for n in (5, 5000):
                want = _fresh_philox_draw(seed, j, n)
                np.testing.assert_array_equal(resample_indices(plan, j, n), want)
                resample_indices(plan, j + 1, 7 if n == 5 else 3)  # leaves a half-used buffer behind
                np.testing.assert_array_equal(resample_indices(plan, j, n), want)


def test_resample_indices_threads_each_keep_their_own_stream():
    jobs = {0: (BootstrapPlan(B=100, seed=42), 5000), 1: (BootstrapPlan(B=100, seed=2**70 + 3), 5)}
    got = {t: [] for t in jobs}
    turn = threading.Barrier(2, timeout=30)

    def draw(t):
        plan, n = jobs[t]
        for j in range(200):
            turn.wait()  # both threads draw replicate j at the same time
            got[t].append(resample_indices(plan, j, n))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(t,)) for t in jobs]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for t, (plan, n) in jobs.items():
        assert len(got[t]) == 200
        for j, idx in enumerate(got[t]):
            np.testing.assert_array_equal(idx, _fresh_philox_draw(plan.seed, j, n))


def _drawn(plan, n):
    return np.concatenate([idx for _, idx in inf.replicate_blocks(plan, n)])


@pytest.mark.parametrize("n", [2, 3, 30, 100, 1000, 5000, 2**16 + 1])
def test_block_rows_equal_resample_indices_and_a_fresh_generator(n, monkeypatch):
    # The block draw maps raw Philox words itself; every row must still be
    # numpy's bounded draw, for an even and an odd n' and across blocks.
    default = inf.BLOCK_CELLS
    for n_prime in sorted({n, n // 2 | 1} - {1}):
        for seed in (0, 42, 2**70 + 3):
            plans = []
            for cells in (1, 7 * n, default):
                rows = max(1, cells // n)
                b = -(-99 // rows) * rows + 1  # the first B >= 100 whose last block holds one row
                if b > 3000:  # default blocks of n < 100 hold thousands of rows: one partial block
                    b = 100
                plans.append((cells, BootstrapPlan(B=b, seed=seed, n_prime=None if n_prime == n else n_prime)))
            longest = max((plan for _, plan in plans), key=lambda plan: plan.B)
            want = np.array([_fresh_philox_draw(seed, j, n, n_prime) for j in range(longest.B)])
            np.testing.assert_array_equal([resample_indices(longest, j, n) for j in range(longest.B)], want)
            for cells, plan in plans:
                monkeypatch.setattr(inf, "BLOCK_CELLS", cells)
                got = _drawn(plan, n)
                assert got.dtype == np.intp
                np.testing.assert_array_equal(got, want[: plan.B])


def _keyings(monkeypatch):
    """Spy on inference._keyed: each keying's (j, use), where the use is how
    the keyed generator was read, "bit_generator" for raw words or
    "integers" for numpy's draw."""
    calls = []
    original = inf._keyed

    class Watched:
        def __init__(self, gen, j):
            self.gen, self.j = gen, j

        def __getattr__(self, name):
            calls.append((self.j, name))
            return getattr(self.gen, name)

    monkeypatch.setattr(inf, "_keyed", lambda gen, plan, j: Watched(original(gen, plan, j), j))
    return calls


def test_block_draw_redraws_rows_with_a_rejected_word(monkeypatch):
    # At N = 5000 numpy rejects a word whose x * n has a low word below
    # 2**32 mod 5000 = 2296; seed 4 hits one in replicate 42's 5000 draws.
    calls = _keyings(monkeypatch)
    plan = BootstrapPlan(B=100, seed=4)
    got = _drawn(plan, 5000)
    assert sorted(calls) == sorted([(j, "bit_generator") for j in range(100)] + [(42, "integers")])
    for j in (0, 41, 42, 43, 99):
        np.testing.assert_array_equal(got[j], _fresh_philox_draw(4, j, 5000))


@pytest.mark.parametrize("n, mapped", [(32276, True), (100_003, False)])
def test_table_size_alone_chooses_the_raw_word_map(n, mapped, monkeypatch):
    # A row of n' draws expects lambda = n' * (2**32 mod n) / 2**32 rejected
    # words: 0.242 at n = n' = 32276, where the block maps raw words, and
    # 0.895 at n = n' = 100003 (0.448 at n' = 50001), where numpy draws
    # every row.  Either way every row is numpy's draw.
    for n_prime in (n, n // 2 | 1):
        for seed in (0, 2**70 + 3):
            calls = _keyings(monkeypatch)
            plan = BootstrapPlan(B=100, seed=seed, n_prime=None if n_prime == n else n_prime)
            got = _drawn(plan, n)
            np.testing.assert_array_equal(got, [_fresh_philox_draw(seed, j, n, n_prime) for j in range(plan.B)])
            if mapped:
                assert sorted(j for j, use in calls if use == "bit_generator") == list(range(plan.B))
            else:
                assert calls == [(j, "integers") for j in range(plan.B)]


def test_block_draw_of_an_empty_table():
    with pytest.raises(ValueError, match="exceeds dataset size"):
        _drawn(BootstrapPlan(B=100, n_prime=2), 0)
    assert _drawn(BootstrapPlan(B=100), 0).shape == (100, 0)


def test_replicate_blocks_threads_each_keep_their_own_stream(monkeypatch):
    monkeypatch.setattr(inf, "BLOCK_CELLS", 8 * 5000)  # blocks of 8 rows at n = 5000, one block at n = 5
    jobs = {0: (BootstrapPlan(B=200, seed=42), 5000), 1: (BootstrapPlan(B=200, seed=2**70 + 3, n_prime=3), 5)}
    want = {t: np.array([_fresh_philox_draw(plan.seed, j, n, plan.resample_size(n)) for j in range(plan.B)])
            for t, (plan, n) in jobs.items()}
    got = {t: [] for t in jobs}
    turn = threading.Barrier(2, timeout=30)

    def draw(t):
        plan, n = jobs[t]
        for _ in range(10):
            turn.wait()  # both threads draw their blocks at the same time
            got[t].append(_drawn(plan, n))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(t,)) for t in jobs]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for t in jobs:
        assert len(got[t]) == 10
        for drawn in got[t]:
            np.testing.assert_array_equal(drawn, want[t])


def test_reused_evaluator_equals_a_fresh_one():
    # One evaluator, bound in turn to columns of other sizes and called on
    # blocks of other shapes, reuses or regrows its scratch arrays (the
    # int32 ranks of n > 2**15 included); each result equals that of a
    # freshly built evaluator and is not overwritten by the calls after it.
    rng = np.random.default_rng(11)
    shapes = ((60, 60, 50), (40, 25, 70), (60, 60, 20), (300, 120, 10), (7, 3, 50), (40000, 100, 4), (60, 60, 50))
    for kind in KINDS:
        resampled, kept = _Resampled(kind), []
        for n, n_prime, b in shapes:
            cols = _tied_columns(rng, n, 3)
            for _ in range(2):
                idx = rng.integers(0, n, size=(b, n_prime))
                got = resampled.bind(cols)(idx.copy())  # a mean consumes its block
                want = _Resampled(kind).bind(cols)(idx)
                assert np.array_equal(got, want)
                kept.append((got, want))
        assert all(np.array_equal(got, want) for got, want in kept)


def _check_counts_against_a_per_row_bincount(rng, shapes):
    # _count and the evaluator's MSE and MUE count a (b, n') block of indices
    # into n cells as a per-row bincount does.
    for n, n_prime, b in shapes:
        idx = rng.integers(0, n, size=(b, n_prime))
        want = np.array([np.bincount(row, minlength=n) for row in idx], dtype=float).reshape(b, n)
        assert np.array_equal(_count(idx.copy(), np.empty((b, n))), want)
        cols = _tied_columns(rng, n, 2)
        for kind, table in ((StatKind.mse(), cols), (StatKind.mue(), np.abs(cols))):
            got = _Resampled(kind).bind(cols)(idx.copy())
            assert np.array_equal(got, weighted_sums(want, np.ascontiguousarray(table.T)) / n_prime)


def test_counts_of_blocks_wider_than_the_flat_scratch():
    # Large blocks, rows of 40,000 indices, no rows, one row and one row with
    # n' > n, each counted in one flat pass over the whole block.
    shapes = ((500, 500, 80), (300, 40000, 3), (50, 50, 0), (40, 40, 1), (7, 90, 1))
    _check_counts_against_a_per_row_bincount(np.random.default_rng(12), shapes)


def test_counts_below_at_and_above_the_flat_scratch_bound():
    # Small blocks of b * n' around 64 cells: n' < n, n' = n, n' > n and b = 0.
    shapes = ((20, 20, 3), (16, 16, 4), (20, 20, 10), (50, 20, 7), (50, 8, 8), (30, 100, 5), (9, 9, 0))
    _check_counts_against_a_per_row_bincount(np.random.default_rng(13), shapes)


def _type1_minor_faults(stat, reps):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    cmd = [sys.executable, "-c", "from errstat.cli import main; main()", "simulate", "type1", "--stat", stat,
           "--n", "60", "--boot", "1000", "--reps", str(reps), "--rho=0.9"]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    return usage.ru_minflt


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc", reason="glibc heap")
@pytest.mark.parametrize("stat", ["q95", "mue"])
def test_type1_repetitions_reuse_their_scratch_pages(stat):
    # At n = 60, B = 1000 a repetition's index block, gathers and count
    # matrix are over glibc's 128 KB mmap threshold.  With the gathers or
    # counts allocated afresh per repetition, glibc mapped and trimmed these
    # arrays again each time, about 245 minor faults per repetition; with
    # them kept in scratch arrays, a repetition faults in almost no new pages.
    extra = _type1_minor_faults(stat, 200) - _type1_minor_faults(stat, 100)
    assert extra < 20 * 100
