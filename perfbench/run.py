"""errstat CLI benchmark: session wall time on seeded workloads, split by layer.

Usage (from the root of an errstat checkout):

    python3 perfbench/run.py --workload small-cli --seed 1 --seconds 57 --trace 0

One client runs the workload's errstat invocations one after another
(a closed loop), each in a fresh interpreter, exactly as a user would
type them.  The inputs are generated from --seed; the program only sees
the CSV files and the CLI flags.  Every invocation is checked against an
independent recomputation (checks.py) and counts as one operation.

--trace 0  measures the end-to-end metrics.  A run cycles through the
           session's invocations, one import-only launch and a
           reference launch (REFERENCE) before every second invocation:
           twice in full, so every seeded invocation must reproduce its
           output, then on while the next launch is expected to end
           within --seconds.  session_rel sums, over the invocations,
           the median of each one's wall time divided by that of the
           reference launch just before it, which cancels the shared
           host's drift in speed.
--trace 1  measures the per-layer metrics: `python -X importtime`, then
           pairs of in-process sessions (tracer.py), one plain and one
           with every errstat layer wrapped in spans; the difference of
           their wall times is the tracing overhead.  The plain session
           also gives each command's own time (cli.run.<command>_s).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Everything before it is a readable
report, and the raw spans of the last traced session are kept in
.perfbench_work/<workload>/spans.json.
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import METRICS, WORKLOADS  # noqa: E402

IMPORT_ONLY = ["-c", "import errstat.cli"]
# The third-party imports errstat.cli makes, and no errstat code.  Its wall
# time tracks how fast the shared host runs at the moment, so end-to-end
# times divided by it hold still while the host speeds up or slows down.
REFERENCE = ["-c", "import numpy, scipy.stats, scipy.integrate"]
REFERENCE_EVERY = 2
CLI = ["-c", "from errstat.cli import main; main()"]
# Each run must end well inside the 180 s a run is allowed.
RUN_DEADLINE_S = 170.0
PLACEHOLDERS = {"@json": ".json", "@csv": ".csv", "@svg": ".svg", "@ecdf": ".ecdf.svg"}


class Run:
    """State of one benchmark run: paths, child environment and op counts."""

    def __init__(self, root, workload, seed):
        self.workload = workload
        self.seed = seed
        self.work = root / ".perfbench_work" / workload.name
        self.started = time.perf_counter()
        self.attempted = 0
        self.failures = []
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src

    def elapsed(self):
        return time.perf_counter() - self.started

    def fail(self, label, problems):
        self.failures.append((label, problems))

    def launch(self, args, stdout_path, stderr_path):
        """Run one child interpreter; return (wall seconds, exit code, max RSS in MB)."""
        timeout = max(1.0, RUN_DEADLINE_S - self.elapsed())
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=self.work, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0


# ---------------------------------------------------------------- inputs


def prepare(run):
    """Generate the workload's table; returns (table context, generation seconds)."""
    w = run.workload
    shutil.rmtree(run.work, ignore_errors=True)
    (run.work / "out").mkdir(parents=True)
    start = time.perf_counter()
    ids, reference, predictions = gen.make_table(w.n, w.k, run.seed)
    gen.write_table(run.work / "table.csv", ids, reference, predictions)
    gen_s = time.perf_counter() - start
    table = {"errors": gen.errors(reference, predictions), "names": gen.method_names(w.k), "boot": w.boot}
    return table, gen_s


def resolve(run):
    """Concrete argv, output files and stdout path of each invocation."""
    session = []
    for i, inv in enumerate(run.workload.invocations):
        args, files = [], {}
        for a in inv.args:
            if a == "@table":
                a = str(run.work / "table.csv")
            elif a in PLACEHOLDERS:
                files[a[1:]] = str(run.work / "out" / f"{i}{PLACEHOLDERS[a]}")
                a = files[a[1:]]
            args.append(a)
        if "@table" in inv.args:
            args += ["--boot", str(run.workload.boot)]
        args += ["--seed", str(run.seed)]
        session.append({"metric": inv.metric, "args": args, "files": files,
                        "stdout": str(run.work / "out" / f"{i}.stdout")})
    return session


def clear_outputs(inv):
    """Remove an invocation's output files, so a stale one cannot pass its checks."""
    for path in [inv["stdout"], *inv["files"].values()]:
        Path(path).unlink(missing_ok=True)


def digest(stdout_path, files):
    h = hashlib.sha256()
    for path in [stdout_path, *files.values()]:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def verify(run, i, inv, code, table, digests):
    """Count one invocation as an operation and record why it failed, if it did."""
    run.attempted += 1
    label = f"#{i} " + " ".join(os.path.basename(a) if os.sep in a else a for a in inv["args"])
    if code != 0:
        run.fail(label, [f"exit code {code}"])
        return
    missing = [p for p in inv["files"].values() if not os.path.isfile(p)]
    if missing:
        run.fail(label, [f"missing output {p}" for p in missing])
        return
    with open(inv["stdout"], encoding="utf-8") as fh:
        problems = checks.check(inv["args"], fh.read(), inv["files"], table)
    d = digest(inv["stdout"], inv["files"])
    if digests.setdefault(i, d) != d:
        problems.append("output differs from an earlier repetition of the same seeded invocation")
    if problems:
        run.fail(label, problems)


# ---------------------------------------------------------------- end to end


def plain_launch(run, args, tag, rss):
    """One launch whose only output is its exit code; returns its wall time."""
    wall, code, peak = run.launch(args, run.work / f"{tag}.out", run.work / f"{tag}.err")
    rss.append(peak)
    run.attempted += 1
    if code != 0:
        run.fail(f"{tag} launch", [f"exit code {code}"])
    return wall


def cycle_order(n_invocations):
    """Launch slots of one cycle: 0 is the import-only launch, 1 the
    reference launch, 2.. the session's invocations.  A reference launch
    comes before every REFERENCE_EVERY invocations."""
    order = [0]
    for i in range(n_invocations):
        if i % REFERENCE_EVERY == 0:
            order.append(1)
        order.append(i + 2)
    return order


def measure_end_to_end(run, seconds, table):
    session = resolve(run)
    digests = {}
    samples = [[] for _ in range(len(session) + 2)]
    # Each invocation's wall time over that of the reference launch just
    # before it.  The host's speed drifts over seconds to minutes, so the
    # two launches see nearly the same host and the drift cancels.
    ratios = [[] for _ in session]
    rss = []

    def launch(slot):
        if slot < 2:
            args, tag = (IMPORT_ONLY, "import") if slot == 0 else (REFERENCE, "reference")
            samples[slot].append(plain_launch(run, args, f"{tag}-{len(samples[slot])}", rss))
            return
        i = slot - 2
        inv = session[i]
        clear_outputs(inv)
        wall, code, peak = run.launch(CLI + inv["args"], inv["stdout"], inv["stdout"] + ".err")
        rss.append(peak)
        verify(run, i, inv, code, table, digests)
        samples[slot].append(wall)
        ratios[i].append(wall / samples[1][-1])

    # Two full cycles, so every seeded invocation must reproduce its output;
    # then keep going round the same cycle while the next launch is expected
    # to end within --seconds.  Every timed quantity is thus sampled across
    # the whole run, and no time is left over at its end.
    order = cycle_order(len(session))
    start = time.perf_counter()
    for n in itertools.count():
        slot = order[n % len(order)]
        if n >= 2 * len(order) and time.perf_counter() - start + statistics.median(samples[slot]) > seconds:
            break
        launch(slot)

    medians = [statistics.median(s) for s in samples]
    return {
        "setup_s": (medians[0], samples[0], "import-only launches"),
        "session_rel": (sum(statistics.median(r) for r in ratios), min(ratios, key=len),
                        f"sum of {len(session)} invocations' median ratios; in seconds "
                        f"{sum(medians[2:]):.3f} s, median reference {medians[1]:.3f} s"),
        "peak_rss_mb": (max(rss), [max(rss)], f"max over {len(rss)} children"),
    }, min(map(len, samples))


# ---------------------------------------------------------------- traced


def _import_tree(lines):
    """(module, cumulative seconds, importing module) for each `-X importtime` line."""
    entries = []
    for line in lines:
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            entries.append((name.strip(), int(parts[1]) / 1e6, len(name) - len(name.lstrip())))
    # Lines come in post-order (children first); walk them backwards to find parents.
    tree, stack = [], []
    for name, cumulative, indent in reversed(entries):
        while stack and stack[-1][1] >= indent:
            stack.pop()
        tree.append((name, cumulative, stack[-1][0] if stack else None))
        stack.append((name, indent))
    return tree


def _package_time(tree, package):
    """Time spent importing `package` and what it pulled in, however it was reached.

    scipy loads subpackages lazily, so `scipy.stats` itself may have no
    line; its submodules then hang directly below the importing module.
    """
    def inside(name):
        return name is not None and (name == package or name.startswith(package + "."))

    return sum(cumulative for name, cumulative, parent in tree if inside(name) and not inside(parent))


def import_times(run):
    """Cumulative import times (s) from `python -X importtime -c "import errstat.cli"`."""
    err = run.work / "importtime.err"
    _, code, _ = run.launch(["-X", "importtime", *IMPORT_ONLY], run.work / "importtime.out", err)
    run.attempted += 1
    if code != 0:
        run.fail("importtime launch", [f"exit code {code}"])
    with open(err, encoding="utf-8") as fh:
        tree = _import_tree(fh)
    return {
        "cli.import_s": _package_time(tree, "errstat.cli"),
        "cli.import.scipy_stats_s": _package_time(tree, "scipy.stats"),
        "cli.import.scipy_integrate_s": _package_time(tree, "scipy.integrate"),
    }


def in_process_session(run, session, mode, table, digests):
    """One tracer.py child; returns its result (invocation walls and spans)."""
    spec = run.work / "session.json"
    result = run.work / f"{mode}.json"
    for inv in session:
        clear_outputs(inv)
    _, code, _ = run.launch([str(HERE / "tracer.py"), str(spec), str(result), mode],
                            run.work / f"{mode}.out", run.work / f"{mode}.err")
    if code != 0:
        run.attempted += len(session)
        run.fail(f"{mode} session", [f"tracer exit code {code}"])
        return None
    with open(result, encoding="utf-8") as fh:
        data = json.load(fh)
    for i, (inv, rec) in enumerate(zip(session, data["invocations"])):
        verify(run, i, inv, rec["code"], table, digests)
    return data


def layer_metrics(spans, memory_spans):
    """Per-layer figures from one traced session's spans (peaks from the memory session)."""
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    child_time = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for idx, (name, start, end, parent, _, _) in enumerate(spans):
        total[name] += end - start
        self_time[name] += end - start - child_time[idx]
        calls[name] += 1

    def attr_sum(name, key):
        return sum(a[key] for n, *_, a in spans if n == name and a)

    def evaluate_rows_s(kind):
        return sum(e - s for n, s, e, *_, a in spans if n == "estimators.evaluate_rows" and a and a["kind"] == kind)

    def peak_mb(prefix):
        peaks = [a["peak_bytes"] for n, *_, a in memory_spans if n.startswith(prefix) and a and "peak_bytes" in a]
        return max(peaks, default=0) / 2**20

    draws = calls["inference.index_matrix"]
    distinct = {(inv, *a["key"]) for n, _, _, _, inv, a in spans if n == "inference.index_matrix" and a}
    midranks = calls["correlation.midranks"]
    out = {
        "inference.index_matrix_s": total["inference.index_matrix"],
        "inference.index_matrix_calls": draws,
        "inference.rows_drawn": attr_sum("inference.index_matrix", "B"),
        "inference.draw_reuse": len(distinct) / draws if draws else 0.0,
        "inference.replicate_stats_self_s": self_time["inference.replicate_stats"],
        "inference.bootstrap_se_s": total["inference.bootstrap_se"],
        "inference.compare_pair_s": total["inference.compare_pair"],
        "inference.rank_probability_matrix_s": total["inference.rank_probability_matrix"],
        "inference.generalized_p_s": total["inference.generalized_p"],
        "inference.generalized_p_calls": calls["inference.generalized_p"],
        "inference.peak_alloc_mb": peak_mb("inference."),
        "estimators.evaluate_rows.mue_s": evaluate_rows_s("mue"),
        "estimators.evaluate_rows.q_s": evaluate_rows_s("q"),
        "estimators.evaluate_rows_cells": attr_sum("estimators.evaluate_rows", "cells"),
        "sip.sip_matrix_s": total["sip.sip_matrix"],
        "sip.delta_ecdf_self_s": self_time["sip.delta_ecdf"],
        "sip.delta_ecdf_peak_mb": peak_mb("sip.delta_ecdf"),
        "correlation.correlation_matrix_s": total["correlation.correlation_matrix"],
        "correlation.midranks_calls": midranks,
        "correlation.rank_reuse": attr_sum("correlation.correlation_matrix", "k") / midranks if midranks else 0.0,
        "dataset.load_table_s": total["dataset.load_table"],
        "dataset.errors_from_table_s": total["dataset.errors_from_table"],
        "dataset.rows": attr_sum("dataset.load_table", "rows"),
        "render.render_matrix_s": total["render.render_matrix"],
        "render.render_delta_ecdf_s": total["render.render_delta_ecdf"],
        "render.svg_bytes": sum(a["bytes"] for n, *_, a in spans if n.startswith("render.render_") and a),
        "cli.write_json_s": total["cli._write_json"],
        "cli.json_bytes": attr_sum("cli._write_json", "bytes"),
        "cli.csv_bytes": attr_sum("cli._write_csv", "bytes"),
        "simulation.type1_study_self_s": self_time["simulation.type1_study"],
        "simulation.hd_convergence_study_s": total["simulation.hd_convergence_study"],
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for n, v in self_time.items() if n.startswith(layer + "."))
    return out


def measure_layers(run, seconds, table):
    session = resolve(run)
    with open(run.work / "session.json", "w", encoding="utf-8") as fh:
        json.dump({"invocations": [s["args"] for s in session], "stdout": [s["stdout"] for s in session]}, fh)
    digests = {}
    imports = import_times(run)
    start = time.perf_counter()
    memory = in_process_session(run, session, "memory", table, digests)
    pairs = []
    while memory and (not pairs or (time.perf_counter() - start) * (len(pairs) + 2) / (len(pairs) + 1) <= seconds):
        plain = in_process_session(run, session, "plain", table, digests)
        traced = in_process_session(run, session, "traced", table, digests)
        if plain is None or traced is None:
            break
        untraced_s = sum(r["wall_s"] for r in plain["invocations"])
        traced_s = sum(r["wall_s"] for r in traced["invocations"])
        figures = layer_metrics(traced["spans"], memory["spans"])
        for m in METRICS:
            figures[f"cli.run.{m}_s"] = sum(r["wall_s"] for inv, r in zip(session, plain["invocations"])
                                            if inv["metric"] == m)
        figures.update({"trace.untraced_s": untraced_s, "trace.traced_s": traced_s,
                        "trace.overhead_s": traced_s - untraced_s})
        pairs.append(figures)
        shutil.copyfile(run.work / "traced.json", run.work / "spans.json")
    metrics = {name: (value, [value], "importtime") for name, value in imports.items()}
    for name in pairs[0] if pairs else ():
        values = [p[name] for p in pairs]
        metrics[name] = (statistics.median(values), values, "traced sessions")
    return metrics, len(pairs)


def units():
    """Metric name -> unit for (--trace 0, --trace 1), as BENCHMARK.json declares them."""
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


# ---------------------------------------------------------------- report


def machine():
    return (f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} {platform.machine()} "
            f"python={platform.python_version()} numpy={np.__version__} scipy={scipy.__version__} "
            f"blas_threads={os.environ.get('OPENBLAS_NUM_THREADS') or os.environ.get('OMP_NUM_THREADS') or 'default'}")


def report(run, metrics, unit, repeats, gen_s, trace):
    w = run.workload
    print(f"perfbench workload={w.name} seed={run.seed} trace={trace} repeats={repeats}")
    print(f"machine: {machine()}")
    print(f"input: N={w.n} K={w.k} B={w.boot}, generated in {gen_s:.3f} s (kept out of every metric)")
    for name, (value, samples, what) in metrics.items():
        print(f"  {name:40s} {value:12.6g} {unit[name]:6s} n={len(samples):<3d} ({what})")
    print(f"failed/attempted: {len(run.failures)}/{run.attempted}")
    for label, problems in run.failures:
        print(f"FAILED {label}: " + "; ".join(problems[:5]), file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "errstat" / "cli.py").is_file():
        print(f"error: {root} is not an errstat checkout (src/errstat/cli.py is missing)", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2**63)")
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, root)
    print(json.dumps(result))
    return 0


def run_workload(workload, seed, seconds, trace, root):
    run = Run(root, workload, seed)
    table, gen_s = prepare(run)
    if trace:
        metrics, repeats = measure_layers(run, seconds, table)
    else:
        metrics, repeats = measure_end_to_end(run, seconds, table)
    unit = units()[trace]
    report(run, metrics, unit, repeats, gen_s, trace)
    failed = len(run.failures)
    if set(metrics) != set(unit):
        failed += 1
        print(f"FAILED metrics: emitted {sorted(set(metrics) ^ set(unit))} differ from BENCHMARK.json", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0] if name in metrics else 0.0, "unit": u} for name, u in unit.items()},
    }

if __name__ == "__main__":
    sys.exit(main())
