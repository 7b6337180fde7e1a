"""Command-line front end.

Subcommands: stats, compare, sip, corr, rank, simulate.  Reports go to
stdout as plain tables; --json/--csv/--svg write machine-readable and
graphical outputs.  Exit codes: 0 success, 2 input/validation error,
1 internal error.  All randomness is controlled by --seed.
"""

import argparse
import csv
import dataclasses
import json
import sys
import warnings

import numpy as np

# Only what parsing and error handling need; each command imports the
# layers it runs, so a launch loads no module its command does not use.
from .dataset import ValidationError, errors_from_table, load_table
from .estimators import StatKind, evaluate

SCHEMA_VERSION = "1"


def _statkind(args):
    return StatKind.parse(args.stat, q=args.q, method=args.quantile_method)


def _plan(args):
    from .inference import BootstrapPlan
    return BootstrapPlan(B=args.boot, seed=args.seed, n_prime=getattr(args, "nprime", None))


def _load_matrix(path):
    return errors_from_table(load_table(path))


def _json_default(obj):
    """JSON form of a report object: a dataclass by its fields, a StatKind by its label.

    Arrays become nested lists; in a float array NaN marks an undefined
    entry (such as MG where SIP is zero) and becomes null.
    """
    if isinstance(obj, StatKind):
        return obj.label
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return (np.where(np.isnan(obj), None, obj) if obj.dtype.kind == "f" else obj).tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_json(path, command, report):
    payload = {"schema_version": SCHEMA_VERSION, "command": command, "report": report}
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False, default=_json_default) + "\n")


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _print_grid(title, labels, values, fmt="{:8.3f}"):
    width = max(8, max(len(str(l)) for l in labels) + 1)
    print(title)
    print(" " * width + "".join(f"{l:>{width}}" for l in labels))
    for label, row in zip(labels, values):
        cells = "".join(
            f"{'':>{width}}" if v is None or (isinstance(v, float) and np.isnan(v)) else f"{fmt.format(v):>{width}}"
            for v in row
        )
        print(f"{label:>{width}}" + cells)


def _write_grid(args, labels, values, glyph, columns):
    """Write a labelled K x K matrix as the --svg figure, drawn with render kind `glyph`, and the --csv table."""
    if args.svg:
        from . import render
        _write_text(args.svg, render.render_matrix(values, labels, glyph, args.size))
    if args.csv:
        _write_csv(args.csv, ("method", *columns), [(label, *map(float, row)) for label, row in zip(labels, values)])


def cmd_stats(args):
    from .inference import replicate_stats
    matrix = _load_matrix(args.data)
    kind = _statkind(args)
    plan = _plan(args)
    reps = replicate_stats(matrix.errors, kind, plan)
    rows = []
    print(f"{kind.label} with bootstrap standard errors (B={plan.B}, seed={plan.seed})")
    print(f"{'method':>16}{'value':>12}{'u(value)':>12}")
    for k, name in enumerate(matrix.method_names):
        value = evaluate(kind, matrix.column(k))
        se = float(reps[:, k].std(ddof=1))
        rows.append({"method": name, "value": value, "se": se})
        print(f"{name:>16}{value:>12.5g}{se:>12.3g}")
    if args.csv:
        _write_csv(args.csv, ("method", kind.label.lower(), "se"),
                   [(r["method"], r["value"], r["se"]) for r in rows])
    return "stats", {"stat": kind.label, "n_systems": matrix.n_systems, "per_method": rows}


def _split_pair(text, matrix):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ValidationError(f"--pair needs two comma-separated method names, got {text!r}")
    for p in parts:
        if p not in matrix.method_names:
            raise ValidationError(f"unknown method {p!r}; available: {', '.join(matrix.method_names)}")
    return parts


def cmd_compare(args):
    from .inference import compare_pair
    matrix = _load_matrix(args.data)
    m1, m2 = _split_pair(args.pair, matrix)
    kind = _statkind(args)
    comp = compare_pair(matrix, m1, m2, kind, _plan(args))
    print(f"{kind.label} comparison: {m1} vs {m2} (N={matrix.n_systems}, B={args.boot})")
    print(f"  s1 = {comp.s1:.5g} +/- {comp.u1:.3g}")
    print(f"  s2 = {comp.s2:.5g} +/- {comp.u2:.3g}")
    print(f"  u(s1-s2) = {comp.u_diff:.3g}")
    if comp.xi is not None:
        verdict = "significant" if comp.xi > args.kappa else "not significant"
        print(f"  xi = {comp.xi:.3g}  ({verdict} at kappa={args.kappa})")
        print(f"  p_t = {comp.p_t:.4g}   p_unc = {comp.p_unc:.4g}")
    else:
        print("  xi/p_t undefined (zero bootstrap uncertainty of the difference)")
    print(f"  p_g = {comp.p_g:.4g}   P_inv = {comp.p_inv:.4g}   zero diffs = {comp.n_zero_diffs}")
    if comp.degenerate:
        print("  note: s1 == s2, comparison is degenerate (P_inv = 0.5 by convention)")
    if args.csv:
        d = _json_default(comp) | {"stat": kind.label}
        d["method_1"], d["method_2"] = d.pop("methods")
        _write_csv(args.csv, tuple(d), [tuple(d.values())])
    return "compare", comp


def cmd_sip(args):
    from .sip import delta_ecdf, sip_matrix
    matrix = _load_matrix(args.data)
    if args.pair:
        m1, m2 = _split_pair(args.pair, matrix)
        report = delta_ecdf(
            matrix.column(m1),
            matrix.column(m2),
            _plan(args),
            labels=(m1, m2),
            system_ids=matrix.system_ids,
            uncertainty_bar=args.ubar,
        )
        print(f"Delta-ECDF {m1} vs {m2} (N={matrix.n_systems}, B={args.boot})")
        for name, s in (("SIP", report.sip), ("MG", report.mg), ("ML", report.ml), ("dMUE", report.delta_mue)):
            if s.value is None:
                print(f"  {name:>5}: undefined")
            else:
                print(f"  {name:>5} = {s.value:.4g}  [{s.lo:.4g}, {s.hi:.4g}]")
        if report.ties:
            print(f"  ties: {report.ties}")
        if args.ecdf or args.abs_ecdf:
            from . import render
        if args.ecdf:
            _write_text(args.ecdf, render.render_delta_ecdf(report, args.size))
        if args.abs_ecdf:
            kind_q = StatKind.quantile(args.q, args.quantile_method)
            marks = {
                m: (evaluate(StatKind.mue(), matrix.column(m)), evaluate(kind_q, matrix.column(m)))
                for m in (m1, m2)
            }
            svg = render.render_abs_ecdf(matrix.column(m1), matrix.column(m2), (m1, m2), args.size, stats=marks)
            _write_text(args.abs_ecdf, svg)
        if args.csv:
            _write_csv(args.csv, ("system", "delta", "ecdf", "band_lo", "band_hi"), list(report.rows()))
        return "sip-pair", report

    report = sip_matrix(matrix)
    order = report.order
    labels = [report.labels[i] for i in order]
    sip_sorted = report.sip[np.ix_(order, order)]
    _print_grid(f"SIP matrix (N={report.n_systems}, rows ordered by decreasing MSIP)", labels, sip_sorted, "{:6.3f}")
    print("MSIP: " + "  ".join(f"{report.labels[i]}={report.msip[i]:.3f}" for i in order))
    _write_grid(args, labels, sip_sorted, "sip_disk", labels)
    return "sip", report


def cmd_corr(args):
    from .correlation import correlation_matrix
    table = load_table(args.data)
    method = "pearson" if args.pearson else "spearman"
    if args.on == "errors":
        matrix = errors_from_table(table)
        corr = correlation_matrix(matrix, method=method)
    else:
        values = np.column_stack([table.methods[m] for m in table.method_names])
        corr = correlation_matrix(values, method=method, labels=table.method_names)
    _print_grid(f"{method} correlation of {args.on}", corr.labels, corr.values, "{:6.2f}")
    _write_grid(args, corr.labels, corr.values, "corr_ellipse", corr.labels)
    return "corr", corr


def cmd_rank(args):
    from .inference import HIGHER_IS_RANK1, LOWER_IS_RANK1, rank_probability_matrix
    matrix = _load_matrix(args.data)
    kind = _statkind(args)
    orientation = LOWER_IS_RANK1 if args.orientation == "lower" else HIGHER_IS_RANK1
    rm = rank_probability_matrix(matrix, kind, _plan(args), orientation)
    _print_grid(
        f"{kind.label} ranking probabilities (B={args.boot}, rank 1 = "
        f"{'best/lowest' if orientation == LOWER_IS_RANK1 else 'best/highest'} value)",
        rm.labels,
        rm.p,
        "{:6.3f}",
    )
    print("summary (mode rank [90% interval]):")
    for entry in rm.summary:
        lo, hi = entry.interval
        print(f"  {entry.label:>16}: {entry.mode} (p={entry.mode_probability:.3f}) [{lo}, {hi}]")
    _write_grid(args, rm.labels, rm.p, "rank_heatmap", [f"rank{k + 1}" for k in range(len(rm.labels))])
    return "rank", rm


def _scenarios(text):
    from . import simulation
    out = []
    for name in text.split(","):
        name = name.strip()
        if name not in simulation.SCENARIOS:
            raise ValidationError(
                f"unknown scenario {name!r}; available: {', '.join(simulation.SCENARIOS)}"
            )
        out.append(simulation.SCENARIOS[name])
    return tuple(out)


def _print_study(result):
    print(f"study: {result.study}")
    print("  ".join(str(c) for c in result.columns))
    for row in result.rows:
        print("  ".join(f"{v:.4g}" if isinstance(v, float) else str(v) for v in row))
    for key, value in result.extra.items():
        print(f"{key} = {value:.6g}" if isinstance(value, float) else f"{key} = {value}")


def _study_outputs(args, result):
    _print_study(result)
    if args.csv:
        _write_csv(args.csv, result.columns, result.rows)
    report = _json_default(result)
    if not result.extra:
        del report["extra"]
    return f"simulate-{result.study}", report


def cmd_simulate(args):
    from . import simulation
    if args.what == "gh":
        if len(args.n) != 1:
            raise ValidationError(f"simulate gh takes one --n size, got {','.join(map(str, args.n))}")
        n = args.n[0]
        if n < 2:
            raise ValidationError(f"simulate gh needs --n of at least 2, got {n}")
        params = simulation.GHParams(g=args.g, h=args.h, mu=args.mu, sigma=args.sigma)
        rng = np.random.default_rng(np.random.SeedSequence(args.seed & ((1 << 64) - 1)))
        sample = simulation.gh_sample(params, n, rng)
        print(f"g-and-h sample ({params.label}, n={n}, seed={args.seed})")
        print(f"  mean = {sample.mean():.5g}   sd = {sample.std(ddof=1):.5g}")
        print(f"  min = {sample.min():.5g}   max = {sample.max():.5g}")
        if args.csv:
            _write_csv(args.csv, ("value",), [(v,) for v in sample])
        return "simulate-gh", {"params": params, "n": n, "seed": args.seed, "values": sample}

    config = simulation.StudyConfig(
        n_values=tuple(args.n),
        rho_values=tuple(args.rho),
        reps=args.reps,
        B=args.boot,
        gh_scenarios=_scenarios(args.scenarios),
        seed=args.seed,
        statistic=None if args.what == "corrtransfer" else _statkind(args),
    )
    if args.what == "corrtransfer":
        return _study_outputs(args, simulation.corr_transfer_study(config))
    if args.what == "type1":
        return _study_outputs(args, simulation.type1_study(config))
    return _study_outputs(args, simulation.hd_convergence_study(config, modes=tuple(args.mode.split(","))))


def _size_px(text):
    """--size as an int, rejected while parsing so a bad value fails before any work."""
    try:
        size = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if size < 200:
        raise argparse.ArgumentTypeError("size must be at least 200 px")
    return size


def _int_list(text):
    return [int(v) for v in text.split(",")]


def _float_list(text):
    return [float(v) for v in text.split(",")]


def build_parser():
    parser = argparse.ArgumentParser(prog="errstat", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--boot", type=int, default=1000, help="bootstrap replicates (default 1000)")
    base.add_argument("--seed", type=int, default=0, help="RNG seed")
    base.add_argument("--q", type=float, default=0.95, help="quantile level (default 0.95)")
    base.add_argument("--quantile-method", choices=("hd", "type7"), default="hd")
    base.add_argument("--json", metavar="PATH", help="write a JSON report")
    base.add_argument("--csv", metavar="PATH", help="write a CSV table")
    base.add_argument("--workers", type=int, default=1, help="accepted for compatibility and ignored")

    data_base = argparse.ArgumentParser(add_help=False, parents=[base])
    data_base.add_argument("data", help="benchmark CSV (System,Ref[,uRef],<methods>...)")

    figure = argparse.ArgumentParser(add_help=False)
    figure.add_argument("--svg", metavar="PATH", help="write an SVG figure")
    figure.add_argument("--size", type=_size_px, default=600, help="SVG size in px")

    p = sub.add_parser("stats", parents=[data_base], help="per-method statistic with bootstrap SE")
    p.add_argument("--stat", default="mue")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("compare", parents=[data_base], help="compare one statistic for two methods")
    p.add_argument("--pair", required=True, metavar="M1,M2")
    p.add_argument("--stat", default="mue")
    p.add_argument("--kappa", type=float, default=1.96, help="significance threshold on xi")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sip", parents=[data_base, figure], help="SIP/MG/ML matrices or a pair delta-ECDF")
    p.add_argument("--pair", metavar="M1,M2", help="report the delta-ECDF of one pair")
    p.add_argument("--ecdf", metavar="PATH", help="write the pair delta-ECDF SVG")
    p.add_argument("--abs-ecdf", metavar="PATH", help="write the pair absolute-error ECDF SVG")
    p.add_argument("--ubar", type=float, help="dataset uncertainty level to draw on the ECDF")
    p.set_defaults(func=cmd_sip)

    p = sub.add_parser("corr", parents=[data_base, figure], help="correlation matrix of error or data sets")
    p.add_argument("--pearson", action="store_true", help="use Pearson instead of Spearman")
    p.add_argument("--on", choices=("errors", "values"), default="errors")
    p.set_defaults(func=cmd_corr)

    p = sub.add_parser("rank", parents=[data_base, figure], help="ranking probability matrix")
    p.add_argument("--stat", default="mue")
    p.add_argument("--nprime", type=int, help="N'-out-of-N resample size")
    p.add_argument("--orientation", choices=("lower", "higher"), default="lower")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("simulate", parents=[base], help="synthetic-data studies")
    p.add_argument("what", choices=("gh", "corrtransfer", "type1", "hdstudy"))
    p.add_argument("--stat", default="mue")
    p.add_argument("--n", type=_int_list, default=[100], help="dataset sizes, comma separated (one for gh)")
    p.add_argument("--rho", type=_float_list, default=[0.0], help="correlations, comma separated")
    p.add_argument("--reps", type=int, default=1000, help="Monte Carlo repetitions")
    p.add_argument("--scenarios", default="normal", help="g-and-h scenarios, comma separated")
    p.add_argument("--mode", default="A,B", help="hdstudy modes: A, B or A,B")
    p.add_argument("--g", type=float, default=0.0)
    p.add_argument("--h", type=float, default=0.0)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.set_defaults(func=cmd_simulate)
    return parser


def run(argv):
    """Execute one subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    with warnings.catch_warnings():  # one plain stderr line per warning
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            command, report = args.func(args)
            if args.json:
                _write_json(args.json, command, report)
            return 0
        except (ValidationError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except Exception as exc:  # pragma: no cover - internal failures
            print(f"internal error: {exc}", file=sys.stderr)
            return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
