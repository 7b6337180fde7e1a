"""Alternating parent/change pairs of perfbench runs, summarised as a BENCH_<n>.json record.

Usage (from the root of an errstat checkout):

    python3 tools/bench_pairs.py --parent HEAD~1 --seeds 1101-1110 --trace 0 \\
        --what "one line on the change" --out BENCH_11.json

The parent side is `git archive` of --parent and the change side a copy of
the working tree's files (tracked and untracked, not ignored), each in its
own temporary directory.  For every seed and workload both sides run
`perfbench/run.py --workload W --seed S --seconds T --trace N` once, one
after the other, for every workload W that BENCHMARK.json lists and its
run length T; which side goes first alternates from one seed to the next,
and the workloads interleave.  Every launch runs with
PYTHONDONTWRITEBYTECODE=1, so each one compiles errstat's sources as a
fresh checkout does.

For each workload and metric the record gives each side's median,
inclusive quartiles, interquartile range and best run, how many pairs the
change wins (ties count for neither), the gap between the medians in the
better direction that BENCHMARK.json declares, and whether that gap
exceeds the parent's interquartile range.  Its "machine" block names the
BLAS thread variables both sides inherited, or "default", and the CPU
features that numpy dispatches to ("cpu_features").  If --out exists,
only its "trace<N>" entry is replaced, so --trace 0 and --trace 1 runs can
fill one record.  Only the standard library is used.
"""

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

RUN_TIMEOUT_S = 300


def git(root, *args, binary=False):
    out = subprocess.run(["git", *args], cwd=root, check=True, capture_output=True).stdout
    return out if binary else out.decode().strip()


def checkout_parent(root, rev, dest):
    """Extract the files of commit `rev` into dest."""
    with tarfile.open(fileobj=io.BytesIO(git(root, "archive", "--format=tar", rev, binary=True))) as tar:
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def copy_working_tree(root, dest):
    """Copy the working tree's tracked and untracked, not ignored, files into dest."""
    listed = git(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard", binary=True)
    for name in filter(None, listed.decode().split("\0")):
        src = root / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def parse_seeds(text):
    """"1101-1110" or "1,2,5" as a list of ints."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def run_side(tree, workload, seed, seconds, trace):
    """One perfbench run in `tree`: its metric values plus failed/attempted."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return {**values, "attempted": result["attempted"], "failed": result["failed"], "correct": result["correct"]}


def side_summary(values, lower):
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1,
            "best": min(values) if lower else max(values), "n": len(values)}


def summarise(pairs, directions):
    """Per metric: both sides' spread, change wins, and the median gap against the parent's IQR."""
    out = {}
    for name, better in directions.items():
        lower = better == "lower"
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        ps, cs = side_summary(parent, lower), side_summary(change, lower)
        gap = (ps["median"] - cs["median"]) * (1 if lower else -1)
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        out[name] = {"parent": ps, "change": cs, "change_wins": f"{wins}/{len(pairs)}", "median_gap": gap,
                     "gap_exceeds_parent_iqr": gap > ps["iqr"],
                     "relative_change": (cs["median"] - ps["median"]) / ps["median"] if ps["median"] else None}
    return out


def machine():
    # The SIMD features numpy dispatches to decide, among others, where partitions overtake sorts.
    probe = ("import json, numpy\n"
             "try:\n    from numpy._core._multiarray_umath import __cpu_features__ as f\n"
             "except ImportError:\n    from numpy.core._multiarray_umath import __cpu_features__ as f\n"
             "print(json.dumps([numpy.__version__, sorted(k for k, v in f.items() if v)]))")
    numpy, features = json.loads(subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                                                check=True).stdout)
    # A thread count set here reaches both sides, and would hide a change to errstat's own BLAS cap.
    names = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    blas = {v: os.environ[v] for v in names if v in os.environ}
    return {"cores": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy, "cpu_features": features,
            "blas_threads": blas or "default"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--seeds", required=True, help='"lo-hi" or comma-separated seeds, one pair per seed')
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--what", default="", help="one line on the change")
    parser.add_argument("--out", required=True, help="record to write, e.g. BENCH_11.json")
    args = parser.parse_args(argv)
    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    directions = {m["name"]: m["better"] for m in spec["end_to_end" if args.trace == 0 else "per_layer"]}
    seeds, workloads, seconds = parse_seeds(args.seeds), [w["name"] for w in spec["workloads"]], spec["run_seconds"]

    work = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        trees = {"parent": work / "parent", "change": work / "change"}
        for tree in trees.values():
            tree.mkdir()
        checkout_parent(root, args.parent, trees["parent"])
        copy_working_tree(root, trees["change"])
        record = {w: {"seeds": seeds, "pairs": []} for w in workloads}
        for turn, seed in enumerate(seeds):
            order = ("parent", "change") if turn % 2 == 0 else ("change", "parent")
            for w in workloads:
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_side(trees[side], w, seed, seconds, args.trace)
                    print(f"{w} seed={seed} {side}: failed {pair[side]['failed']}/{pair[side]['attempted']}",
                          flush=True)
                record[w]["pairs"].append(pair)
        for w in workloads:
            record[w]["summary"] = summarise(record[w]["pairs"], directions)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out = root / args.out
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.update({
        "what": args.what or doc.get("what", ""),
        "parent_commit": git(root, "rev-parse", args.parent),
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace {0,1}",
        "method": ("tools/bench_pairs.py: the parent from git archive, the change from a copy of the working "
                   "tree, each in its own directory, PYTHONDONTWRITEBYTECODE=1. One run per side, seed and "
                   "workload; the side that goes first alternates from seed to seed ('first'), and the workloads interleave. "
                   "Quartiles use the inclusive method; 'best' is the best run in the better direction; "
                   "'change_wins' counts pairs where the change reads better; 'median_gap' is the parent "
                   "median minus the change median, in the better direction."),
        "machine": machine(),
        f"trace{args.trace}": {"seconds": seconds, **record},
    })
    out.write_text(json.dumps(doc, indent=1) + "\n")
    for w in workloads:
        for name, s in record[w]["summary"].items():
            print(f"{w} {name}: parent {s['parent']['median']:.6g} change {s['change']['median']:.6g} "
                  f"wins {s['change_wins']} gap>iqr {s['gap_exceeds_parent_iqr']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
