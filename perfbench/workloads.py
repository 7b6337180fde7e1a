"""The benchmark's workloads: fixed errstat CLI sessions on seeded tables.

Every workload runs every subcommand at least once, because every traced
layer and every per-command time (`cli.run.<command>_s`) must have a
value on every workload.  What differs is where the time
goes:

small-cli    a paper-sized table (N=100, K=10): each table command is
             mostly interpreter start-up and `import errstat.cli`.  Its
             `simulate` invocations are the Monte Carlo studies:
             thousands of tiny (B, n <= 100) bootstrap blocks with
             per-repetition Python and RNG overhead, plus g-and-h
             quadrature.
large-cli    N=5000, K=10: resampling, sorting, midranks, memory and
             5000-row outputs dominate; two short studies keep the
             simulation layer covered.

A change that speeds up large blocks but adds per-call cost shows as a
`cli.run.simulate_s` regression on small-cli.

Each launch pays over a second of start-up and import, so a session runs
each subcommand once (`simulate` twice, one study of each kind) and the
MUE/Q95 variants are split between the two workloads.  That keeps a
session short enough for a run to time every launch several times.

Argument tokens starting with "@" are placeholders the runner fills in:
"@table" is the workload's CSV file, "@json", "@csv", "@svg" and "@ecdf"
are output paths private to the invocation.
"""

from dataclasses import dataclass

# Each subcommand's invocations are summed into the per-layer metric
# "cli.run.<metric>_s".
METRICS = ("stats", "compare", "sip", "sip_pair", "corr", "rank", "simulate")


@dataclass(frozen=True)
class Invocation:
    metric: str
    args: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    k: int
    boot: int
    invocations: tuple
    why: str


def _inv(metric, *args):
    return Invocation(metric, tuple(args))


def small_cli(n=100, k=10, boot=1000, reps=(100, 300)):
    return Workload(
        name="small-cli",
        n=n,
        k=k,
        boot=boot,
        why="N=100, K=10: import dominates table commands; simulate runs the Monte Carlo studies (tiny blocks)",
        invocations=(
            _inv("stats", "stats", "@table", "--stat", "q95"),
            _inv("compare", "compare", "@table", "--pair", "M01,M02", "--stat", "mue"),
            _inv("sip", "sip", "@table"),
            _inv("sip_pair", "sip", "@table", "--pair", "M01,M02", "--ecdf", "@ecdf",
                 "--csv", "@csv", "--json", "@json"),
            _inv("corr", "corr", "@table", "--svg", "@svg"),
            _inv("rank", "rank", "@table", "--stat", "mue", "--svg", "@svg", "--csv", "@csv",
                 "--json", "@json"),
            _inv("simulate", "simulate", "type1", "--stat", "q95", "--n", "60",
                 "--reps", str(reps[0]), "--rho=0.9", "--scenarios=normal,heavyasym"),
            _inv("simulate", "simulate", "hdstudy", "--n", "20,50,100", "--reps", str(reps[1])),
        ),
    )


def large_cli(n=5000, k=10, boot=1000):
    return Workload(
        name="large-cli",
        n=n,
        k=k,
        boot=boot,
        why=f"N={n}, K={k}: resampling, midranks, memory and {n}-row outputs dominate",
        invocations=(
            _inv("stats", "stats", "@table", "--stat", "mue"),
            _inv("compare", "compare", "@table", "--pair", "M01,M02", "--stat", "q95"),
            _inv("sip", "sip", "@table"),
            _inv("sip_pair", "sip", "@table", "--pair", "M01,M02", "--ecdf", "@ecdf",
                 "--csv", "@csv", "--json", "@json"),
            _inv("corr", "corr", "@table", "--svg", "@svg", "--json", "@json"),
            _inv("rank", "rank", "@table", "--stat", "q95", "--json", "@json", "--svg", "@svg"),
            # Two short studies, so that the simulation layer has a value here too.
            _inv("simulate", "simulate", "type1", "--stat", "mue", "--n", "30", "--reps", "100",
                 "--rho=0.5", "--boot", "200"),
            _inv("simulate", "simulate", "hdstudy", "--n", "20,50", "--reps", "200"),
        ),
    )


WORKLOADS = {w.name: w for w in (small_cli(), large_cli())}
