"""Byte-for-byte comparison of errstat's CLI outputs at a git revision and in the working tree.

Usage (from the root of an errstat checkout):

    python3 tools/diff_outputs.py HEAD~1

REV is extracted with `git archive` and the working tree's files are
copied (tracked and untracked, not ignored), each into its own temporary
directory, by the steps of tools/bench_pairs.py.  Both sides then run one
fixed set of seeded invocations, each in a fresh interpreter with the
side's `src` on PYTHONPATH, in a directory of its own and with the same
argv on both sides.  The set covers every subcommand, statistic and
quantile method, `--nprime`, `--orientation higher` and `sip --pair` at
B = 1000 and B = 257, on the perfbench tables with N = 6, 37, 100 and 5000
(perfbench/gen.py of the working tree, K = 10, seed 7), `stats`, `rank
--nprime` and `sip --pair` on N = 100 and 5000 at the B values whose last
replicate block holds one row, under blocks of 2**20 index cells (B = 10486
and 837) and of 2**17 (B = 2621 and 1041), the four `corr` variants on a
wide table (N = 300, K = 30, seed 7), `stats`, `compare` and `sip --pair`
at B = 100 on a long table (N = 100,000, K = 3, seed 7), whose rows expect
1.6 rejected words each, so that numpy draws every one, on
tests/data/golden.csv, on that table times 2**990 (errors up to 2.1e298),
on a table of errors near 3e-310, below the smallest normal float, and on
a table whose M02 is twice M01, so that `sip --pair` meets a pair without
losses, one without gains and ties only at zero; golden.csv's M01 against
itself ties everywhere.
Four variants of the N = 100 table cover both of the loader's paths:
quoted ids, CRLF line ends, a blank line, a comment line and a row with
an empty cell, which is dropped with a warning, and a leading UTF-8
byte-order mark.  It also holds the non-finite flag values, the
overflowing g-and-h sample, a second `hdstudy` scenario, requests too
large for memory and a `sip` flag of the other mode (`--ecdf` without
`--pair`, `--svg` with it), all of which must exit 2, and `simulate
corrtransfer` over all four g-and-h scenarios.

Every difference in exit code, stdout, stderr or a written file is
printed, the text ones as a unified diff; the exit status is 1 if
anything differs.  Only the standard library is used.
"""

import difflib
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import checkout_parent, copy_working_tree, git  # noqa: E402

TABLE_SIZES = (6, 37, 100, 5000)
WIDE = (300, 30)  # N and K of the wide table
LONG = (100_000, 3)  # N and K of a table that the engine draws row by row through numpy
LOADER_VARIANTS = ("quoted", "crlf", "gaps", "bom")  # of the N = 100 table
# B whose last replicate block holds one row: after blocks of 209 and 10,485 replicates (2**20 cells),
# and after blocks of 26 and 1,310 (2**17 cells).
EDGE_BOOT = {"n5000": ("837", "1041"), "n100": ("10486", "2621")}
SEED = ["--seed", "17"]
WORKERS = 2  # the two sides of one invocation run side by side
RUN_TIMEOUT_S = 300


def write_tables(tree, dest):
    """The perfbench tables, golden.csv, its scaled copy and the subnormal table in dest; returns {name: path}."""
    gen = ("import sys; sys.path.insert(0, 'perfbench'); import gen\n"
           f"for n in {TABLE_SIZES!r}:\n"
           f"    gen.write_table(f'{dest}/n{{n}}.csv', *gen.make_table(n, 10, 7))\n"
           f"gen.write_table('{dest}/wide.csv', *gen.make_table({WIDE[0]}, {WIDE[1]}, 7))\n"
           f"gen.write_table('{dest}/long.csv', *gen.make_table({LONG[0]}, {LONG[1]}, 7))\n")
    subprocess.run([sys.executable, "-c", gen], cwd=tree, check=True)
    shutil.copy(tree / "tests" / "data" / "golden.csv", dest / "golden.csv")
    # Every number of golden.csv times 2**990, which is exact: cells up to 4e299, errors up to 2.1e298.
    lines = (tree / "tests" / "data" / "golden.csv").read_text().splitlines()
    scaled = [line if line.startswith(("#", "System")) else ",".join(
        [line.split(",")[0], *(repr(float(v) * 2.0**990) for v in line.split(",")[1:])]) for line in lines]
    (dest / "scaled.csv").write_text("\n".join(scaled) + "\n")
    # Errors k * 2**-1036 with k in 150..306, one column of mixed sign: exact, 2e-310 to 4.2e-310.
    rows = [f"s{i},0,{-(150 + 4 * i) * 2.0**-1036!r},{(160 + 3 * i) * (-1) ** i * 2.0**-1036!r}" for i in range(40)]
    (dest / "subnormal.csv").write_text("\n".join(["System,Ref,M01,M02", *rows]) + "\n")
    # M02 = 2 * M01 exactly, and M01 is 0 on every seventh row: |M01| - |M02| is never > 0 and is 0 only there.
    rows = [f"s{i},0,{(i % 7 - 3) * 0.375!r},{(i % 7 - 3) * 0.75!r}" for i in range(40)]
    (dest / "doubled.csv").write_text("\n".join(["System,Ref,M01,M02", *rows]) + "\n")
    lines = (dest / "n100.csv").read_text().splitlines()
    quoted = [lines[0], *(f'"{line.split(",", 1)[0]}",{line.split(",", 1)[1]}' for line in lines[1:])]
    (dest / "quoted.csv").write_text("\n".join(quoted) + "\n")
    (dest / "crlf.csv").write_bytes(("\r\n".join(lines) + "\r\n").encode())
    gaps = [lines[0], "", "# a comment line", *lines[1:5], lines[5].rsplit(",", 1)[0] + ",", *lines[6:]]
    (dest / "gaps.csv").write_text("\n".join(gaps) + "\n")
    (dest / "bom.csv").write_text("\ufeff" + "\n".join(lines) + "\n", encoding="utf-8")
    return {p.stem: p for p in sorted(dest.glob("*.csv"))}


def invocations(tables):
    """(name, argv) of every invocation; written files go to out.<ext> in the working directory."""
    out = []

    def add(name, *argv, files=()):
        out.append((name, [*argv, *(a for ext in files for a in (f"--{ext}", f"out.{ext}"))]))

    for t, path in tables.items():
        if t in ("subnormal", "scaled", "wide", "long", "doubled", *LOADER_VARIANTS):
            continue
        table = str(path)
        nprime = "4" if t == "n6" else "20"
        for stat in (["mse"], ["mue"], ["rmsd"], ["q95"], ["q95", "--quantile-method", "type7"], ["q90"],
                     ["q", "--q", "0.8"]):
            add(f"{t}/stats/{'-'.join(stat)}", "stats", table, "--stat", *stat, *SEED, files=("json", "csv"))
        for stat in (["mse"], ["mue"], ["rmsd"], ["q95"], ["q95", "--quantile-method", "type7"]):
            add(f"{t}/compare/{'-'.join(stat)}", "compare", table, "--pair", "M01,M02", "--stat", *stat, *SEED,
                files=("json", "csv"))
        add(f"{t}/compare/mue-swapped", "compare", table, "--pair", "M02,M01", *SEED, files=("json",))
        add(f"{t}/sip", "sip", table, files=("json", "csv", "svg"))
        add(f"{t}/sip-pair/B1000", "sip", table, "--pair", "M01,M03", "--ubar", "0.3", *SEED,
            files=("json", "csv", "ecdf", "abs-ecdf"))
        add(f"{t}/sip-pair/B257", "sip", table, "--pair", "M02,M01", "--boot", "257", "--quantile-method", "type7",
            *SEED, files=("json", "csv", "abs-ecdf"))
        for corr in ([], ["--pearson"], ["--on", "values"], ["--pearson", "--on", "values"]):
            add(f"{t}/corr/{'-'.join(corr) or 'spearman'}", "corr", table, *corr, files=("json", "csv", "svg"))
        add(f"{t}/rank/mue", "rank", table, "--stat", "mue", *SEED, files=("json", "csv", "svg"))
        add(f"{t}/rank/q95-type7", "rank", table, "--stat", "q95", "--quantile-method", "type7", *SEED,
            files=("json",))
        add(f"{t}/rank/rmsd-higher", "rank", table, "--stat", "rmsd", "--orientation", "higher", *SEED,
            files=("json", "csv"))
        add(f"{t}/rank/mse-nprime", "rank", table, "--stat", "mse", "--nprime", nprime, *SEED, files=("json",))
        add(f"{t}/compare/unknown-method", "compare", table, "--pair", "M01,NOPE")
    for t, boot in ((t, boot) for t, boots in EDGE_BOOT.items() for boot in boots):
        table = str(tables[t])
        add(f"{t}/stats/mue-B{boot}", "stats", table, "--stat", "mue", "--boot", boot, *SEED, files=("json",))
        add(f"{t}/rank/mse-nprime-B{boot}", "rank", table, "--stat", "mse", "--nprime", "20", "--boot", boot,
            *SEED, files=("json",))
        add(f"{t}/sip-pair/B{boot}", "sip", table, "--pair", "M01,M03", "--boot", boot, *SEED, files=("json", "csv"))
    for t in LOADER_VARIANTS:
        table = str(tables[t])
        add(f"{t}/stats/mue", "stats", table, "--stat", "mue", *SEED, files=("json", "csv"))
        add(f"{t}/rank/q95", "rank", table, "--stat", "q95", *SEED, files=("json", "csv", "svg"))
        add(f"{t}/sip-pair", "sip", table, "--pair", "M01,M03", *SEED, files=("json", "csv", "ecdf"))
        add(f"{t}/corr", "corr", table, files=("json", "csv", "svg"))
    for corr in ([], ["--pearson"], ["--on", "values"], ["--pearson", "--on", "values"]):
        add(f"wide/corr/{'-'.join(corr) or 'spearman'}", "corr", str(tables["wide"]), *corr,
            files=("json", "csv", "svg"))
    long = str(tables["long"])
    add("long/stats/mue", "stats", long, "--stat", "mue", "--boot", "100", *SEED, files=("json",))
    add("long/compare/q95", "compare", long, "--pair", "M01,M02", "--stat", "q95", "--boot", "100", *SEED,
        files=("json",))
    add("long/sip-pair", "sip", long, "--pair", "M01,M02", "--boot", "100", *SEED, files=("json",))
    sim = ["--reps", "100", "--boot", "100", *SEED]
    add("simulate/gh", "simulate", "gh", "--g", "0.2", "--h", "0.1", "--n", "50", *SEED, files=("json", "csv"))
    add("simulate/type1-mue", "simulate", "type1", "--stat", "mue", "--n", "20", "--rho", "0.5", *sim,
        files=("json",))
    add("simulate/type1-rmsd", "simulate", "type1", "--stat", "rmsd", "--n", "20", *sim, files=("json",))
    add("simulate/type1-q95-type7", "simulate", "type1", "--stat", "q95", "--quantile-method", "type7",
        "--n", "20", *sim, files=("csv",))
    add("simulate/hdstudy", "simulate", "hdstudy", "--n", "15,30", "--reps", "100", *SEED, files=("json", "csv"))
    add("simulate/hdstudy-q90", "simulate", "hdstudy", "--stat", "q90", "--n", "15", "--reps", "100", *SEED,
        files=("json",))
    add("simulate/hdstudy-two-scenarios", "simulate", "hdstudy", "--scenarios", "normal,heavy", "--n", "15",
        "--reps", "100", *SEED, files=("json",))
    add("simulate/corrtransfer", "simulate", "corrtransfer", "--n", "20", "--rho=-0.5,0.5", "--reps", "100",
        *SEED, files=("json",))
    add("simulate/corrtransfer-scenarios", "simulate", "corrtransfer", "--scenarios", "normal,heavy,asym,heavyasym",
        "--n", "20", "--rho=-0.5,0.5", "--reps", "100", *SEED, files=("json", "csv"))
    huge = "10000000000000000"  # 355 PiB of counts, 1.39 EiB of indices: more than any address space
    add("simulate/type1-too-large", "simulate", "type1", "--n", "20", "--reps", "100", "--boot", huge, *SEED,
        files=("json",))
    for shape in (["--h", "nan"], ["--sigma", "nan"], ["--mu", "inf"], ["--sigma", "inf"]):
        add(f"simulate/gh/{shape[0][2:]}-{shape[1]}", "simulate", "gh", *shape, "--n", "50", *SEED,
            files=("json", "csv"))
    add("simulate/gh/sigma-1e308", "simulate", "gh", "--sigma", "1e308", "--n", "50", *SEED, files=("json", "csv"))
    golden = str(tables["golden"])
    add("golden/compare/kappa-nan", "compare", golden, "--pair", "M01,M02", "--kappa", "nan", *SEED)
    add("golden/sip-pair/ubar-nan", "sip", golden, "--pair", "M01,M03", "--ubar", "nan", *SEED,
        files=("json", "ecdf"))
    add("golden/sip-pair/too-large", "sip", golden, "--pair", "M01,M02", "--boot", huge, *SEED, files=("json",))
    add("golden/sip-pair/self", "sip", golden, "--pair", "M01,M01", *SEED, files=("json", "csv", "ecdf"))
    add("golden/sip/ecdf-without-pair", "sip", golden, files=("ecdf",))
    add("golden/sip-pair/svg", "sip", golden, "--pair", "M01,M03", *SEED, files=("json", "svg"))
    for pair in ("M01,M02", "M02,M01"):  # no loss, then no gain; ties only at zero
        add(f"doubled/sip-pair/{pair}", "sip", str(tables["doubled"]), "--pair", pair, *SEED,
            files=("json", "csv", "ecdf"))
    big = str(tables["scaled"])
    for stat in ("mse", "mue", "rmsd", "q95"):
        add(f"scaled/stats/{stat}", "stats", big, "--stat", stat, *SEED, files=("json", "csv"))
        add(f"scaled/compare/{stat}", "compare", big, "--pair", "M01,M02", "--stat", stat, *SEED, files=("json",))
    add("scaled/rank/mue", "rank", big, "--stat", "mue", *SEED, files=("json", "csv", "svg"))
    add("scaled/sip", "sip", big, files=("json", "csv", "svg"))
    add("scaled/sip-pair", "sip", big, "--pair", "M01,M03", "--ubar", repr(0.3 * 2.0**990), *SEED,
        files=("json", "csv", "ecdf", "abs-ecdf"))
    for corr in ([], ["--pearson"]):
        add(f"scaled/corr/{'-'.join(corr) or 'spearman'}", "corr", big, *corr, files=("json", "csv", "svg"))
    sub = str(tables["subnormal"])
    for stat in ("mse", "mue", "rmsd", "q95"):
        add(f"subnormal/stats/{stat}", "stats", sub, "--stat", stat, *SEED, files=("json",))
        add(f"subnormal/compare/{stat}", "compare", sub, "--pair", "M01,M02", "--stat", stat, *SEED,
            files=("json",))
    return out


def run_one(tree, workdir, argv):
    """Exit code, stdout, stderr and written files of one invocation, as bytes."""
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", "from errstat.cli import main; main()", *argv], cwd=workdir,
                          env=env, capture_output=True, timeout=RUN_TIMEOUT_S)
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return {"exit code": str(proc.returncode).encode(), "stdout": proc.stdout, "stderr": proc.stderr, **files}


def differences(name, old, new):
    """Printable lines for every stream of one invocation that differs between the sides."""
    lines = []
    for stream in sorted(set(old) | set(new)):
        a, b = old.get(stream), new.get(stream)
        if a == b:
            continue
        if a is None or b is None:
            lines.append(f"{name}: {stream} written only by the {'working tree' if a is None else 'revision'}")
            continue
        diff = list(difflib.unified_diff(a.decode(errors="replace").splitlines(),
                                         b.decode(errors="replace").splitlines(),
                                         f"{name}: {stream} (revision)", f"{name}: {stream} (working tree)",
                                         lineterm=""))
        lines.extend(diff or [f"{name}: {stream} differs in bytes, not in lines ({len(a)} vs {len(b)} bytes)"])
    return lines


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or args[0].startswith("-"):
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    work = Path(tempfile.mkdtemp(prefix="diff_outputs-"))
    try:
        trees = {"revision": work / "revision", "working tree": work / "change"}
        for tree in (*trees.values(), work / "tables"):
            tree.mkdir()
        checkout_parent(root, args[0], trees["revision"])
        copy_working_tree(root, trees["working tree"])
        cases = invocations(write_tables(trees["working tree"], work / "tables"))
        with ThreadPoolExecutor(WORKERS) as pool:
            results = [[pool.submit(run_one, tree, work / "out" / side / str(i), argv)
                        for side, tree in trees.items()] for i, (_, argv) in enumerate(cases)]
            differing = 0
            for (name, argv), (old, new) in zip(cases, results):
                lines = differences(name, old.result(), new.result())
                differing += bool(lines)
                print("\n".join([f"DIFFERS {name}: errstat {' '.join(argv)}", *lines]) if lines else f"same    {name}",
                      flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{differing} of {len(cases)} invocations differ between {args[0]} and the working tree")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
