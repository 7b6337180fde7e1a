"""Command-line front end.

Subcommands: stats, compare, sip, corr, rank, simulate.  Reports go to
stdout as plain tables; --json/--csv/--svg write machine-readable and
graphical outputs.  Exit codes: 0 success, 2 input/validation error,
1 internal error.  All randomness is controlled by --seed.
"""

import argparse
import csv
import json
import sys
import warnings

import numpy as np

from . import render, simulation
from .correlation import correlation_matrix
from .dataset import ValidationError, errors_from_table, load_table
from .estimators import StatKind, evaluate
from .inference import (
    BootstrapPlan,
    HIGHER_IS_RANK1,
    LOWER_IS_RANK1,
    compare_pair,
    rank_probability_matrix,
    replicate_stats,
)
from .sip import delta_ecdf, sip_matrix

SCHEMA_VERSION = "1"


def _statkind(args):
    return StatKind.parse(args.stat, q=args.q, method=args.quantile_method)


def _plan(args):
    return BootstrapPlan(B=args.boot, seed=args.seed, n_prime=getattr(args, "nprime", None))


def _load_matrix(path):
    return errors_from_table(load_table(path))


def _write_json(path, command, report):
    payload = {"schema_version": SCHEMA_VERSION, "command": command, "report": report}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


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


def cmd_stats(args):
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
    if args.json:
        _write_json(args.json, "stats", {"stat": kind.label, "n_systems": matrix.n_systems, "per_method": rows})
    return 0


def _split_pair(text, matrix):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ValidationError(f"--pair needs two comma-separated method names, got {text!r}")
    for p in parts:
        if p not in matrix.method_names:
            raise ValidationError(f"unknown method {p!r}; available: {', '.join(matrix.method_names)}")
    return parts


def cmd_compare(args):
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
        d = comp.to_dict()
        d["method_1"], d["method_2"] = d.pop("methods")
        _write_csv(args.csv, tuple(d), [tuple(d.values())])
    if args.json:
        _write_json(args.json, "compare", comp.to_dict())
    return 0


def cmd_sip(args):
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
        if args.ecdf:
            svg = render.render_delta_ecdf(report, render.RenderSpec(render.DELTA_ECDF, args.size))
            with open(args.ecdf, "w", encoding="utf-8") as fh:
                fh.write(svg)
        if args.abs_ecdf:
            kind_q = StatKind.quantile(args.q, args.quantile_method)
            marks = {
                m: (evaluate(StatKind.mue(), matrix.column(m)), evaluate(kind_q, matrix.column(m)))
                for m in (m1, m2)
            }
            svg = render.render_abs_ecdf(
                matrix.column(m1), matrix.column(m2), (m1, m2),
                render.RenderSpec(render.ABS_ECDF, args.size), stats=marks,
            )
            with open(args.abs_ecdf, "w", encoding="utf-8") as fh:
                fh.write(svg)
        if args.csv:
            _write_csv(args.csv, ("system", "delta", "ecdf", "band_lo", "band_hi"), list(report.rows()))
        if args.json:
            _write_json(args.json, "sip-pair", report.to_dict())
        return 0

    report = sip_matrix(matrix)
    order = report.order
    labels = [report.labels[i] for i in order]
    sip_sorted = report.sip[np.ix_(order, order)]
    _print_grid(f"SIP matrix (N={report.n_systems}, rows ordered by decreasing MSIP)", labels, sip_sorted, "{:6.3f}")
    print("MSIP: " + "  ".join(f"{report.labels[i]}={report.msip[i]:.3f}" for i in order))
    if args.svg:
        svg = render.render_matrix(sip_sorted, labels, render.RenderSpec(render.SIP_DISK, args.size))
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg)
    if args.csv:
        _write_csv(args.csv, ("method", *labels), [(labels[i], *map(float, sip_sorted[i])) for i in range(len(labels))])
    if args.json:
        _write_json(args.json, "sip", report.to_dict())
    return 0


def cmd_corr(args):
    table = load_table(args.data)
    method = "pearson" if args.pearson else "spearman"
    if args.on == "errors":
        matrix = errors_from_table(table)
        corr = correlation_matrix(matrix, method=method)
    else:
        values = np.column_stack([table.methods[m] for m in table.method_names])
        corr = correlation_matrix(values, method=method, labels=table.method_names)
    _print_grid(f"{method} correlation of {args.on}", corr.labels, corr.values, "{:6.2f}")
    if args.svg:
        svg = render.render_matrix(corr.values, corr.labels, render.RenderSpec(render.CORR_ELLIPSE, args.size))
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg)
    if args.csv:
        _write_csv(args.csv, ("method", *corr.labels),
                   [(corr.labels[i], *map(float, corr.values[i])) for i in range(len(corr.labels))])
    if args.json:
        _write_json(args.json, "corr", corr.to_dict())
    return 0


def cmd_rank(args):
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
    if args.svg:
        svg = render.render_matrix(rm.p, rm.labels, render.RenderSpec(render.RANK_HEATMAP, args.size))
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg)
    if args.csv:
        _write_csv(
            args.csv,
            ("method", *[f"rank{k + 1}" for k in range(len(rm.labels))]),
            [(rm.labels[j], *map(float, rm.p[j])) for j in range(len(rm.labels))],
        )
    if args.json:
        _write_json(args.json, "rank", rm.to_dict())
    return 0


def _scenarios(text):
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
    if args.json:
        _write_json(args.json, f"simulate-{result.study}", result.to_dict())
    return 0


def cmd_simulate(args):
    if args.what == "gh":
        params = simulation.GHParams(g=args.g, h=args.h, mu=args.mu, sigma=args.sigma)
        rng = np.random.default_rng(np.random.SeedSequence(args.seed & ((1 << 64) - 1)))
        sample = simulation.gh_sample(params, args.n, rng)
        print(f"g-and-h sample ({params.label}, n={args.n}, seed={args.seed})")
        print(f"  mean = {sample.mean():.5g}   sd = {sample.std(ddof=1):.5g}")
        print(f"  min = {sample.min():.5g}   max = {sample.max():.5g}")
        if args.csv:
            _write_csv(args.csv, ("value",), [(v,) for v in sample])
        if args.json:
            _write_json(
                args.json,
                "simulate-gh",
                {
                    "params": params.to_dict(),
                    "n": args.n,
                    "seed": args.seed,
                    "values": [float(v) for v in sample],
                },
            )
        return 0

    kwargs = dict(
        n_values=tuple(args.n),
        rho_values=tuple(args.rho),
        reps=args.reps,
        B=args.boot,
        gh_scenarios=_scenarios(args.scenarios),
        seed=args.seed,
    )
    if args.what == "corrtransfer":
        config = simulation.StudyConfig(**kwargs)
        return _study_outputs(args, simulation.corr_transfer_study(config))
    if args.what == "type1":
        config = simulation.StudyConfig(
            statistic=StatKind.parse(args.stat, q=args.q, method=args.quantile_method), **kwargs
        )
        return _study_outputs(args, simulation.type1_study(config))
    config = simulation.StudyConfig(
        statistic=StatKind.parse(args.stat, q=args.q, method=args.quantile_method), **kwargs
    )
    return _study_outputs(args, simulation.hd_convergence_study(config, modes=tuple(args.mode.split(","))))


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
    figure.add_argument("--size", type=int, default=600, help="SVG size in px")

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
    p.add_argument("--n", type=_int_list, default=[100], help="dataset sizes, comma separated")
    p.add_argument("--rho", type=_float_list, default=[0.0], help="correlations, comma separated")
    p.add_argument("--reps", type=int, default=1000, help="Monte Carlo repetitions")
    p.add_argument("--scenarios", default="normal", help="g-and-h scenarios, comma separated")
    p.add_argument("--mode", default="A,B", help="hdstudy modes")
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
    if getattr(args, "what", None) == "gh" and isinstance(args.n, list):
        args.n = args.n[0]
    with warnings.catch_warnings():  # one plain stderr line per warning
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
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
