"""Independent checks of one errstat CLI invocation's outputs.

Point values are recomputed here with numpy/scipy from the generated
table, never with errstat itself: MSE/MUE/RMSD, the Harrell-Davis Q95
from `scipy.special.betainc` over the full order-statistic grid, SIP, MG,
ML and tie counts, and Spearman correlations from `scipy.stats`.  JSON
values must agree to 1e-9 relative; values that only appear in the
printed tables must agree to half a unit of their last printed digit.
Invariants that need no recomputation are checked as well: rank
matrices are doubly stochastic, dMUE = SIP*MG + SIP'*ML, every
probability lies in [0, 1] and every band has lo <= hi.

`check(...)` returns a list of problems; an empty list means the
invocation passed.
"""

import csv
import json
import math
import re
import xml.etree.ElementTree as ET
from decimal import Decimal, InvalidOperation

import numpy as np
from scipy import special, stats

REL = 1e-9
IDENTITY_ABS = 1e-12


class Problems(list):
    def expect(self, ok, message):
        if not ok:
            self.append(message)
        return ok


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def close(a, b):
    return a is not None and b is not None and abs(a - b) <= REL * max(abs(a), abs(b)) + 1e-15


def all_close(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= REL * np.maximum(np.abs(a), np.abs(b)) + 1e-15))


def printed(text, value):
    """True when `text` is `value` rounded to the digits it shows."""
    try:
        exponent = Decimal(text).as_tuple().exponent
    except InvalidOperation:
        return False
    if not isinstance(exponent, int):
        return False
    return abs(float(text) - value) <= 0.5 * 10.0**exponent * (1 + 1e-9) + 1e-12


def in_unit(v):
    return v is not None and 0.0 <= v <= 1.0


def flag(args, name, default=None):
    for i, a in enumerate(args):
        if a == name and i + 1 < len(args):
            return args[i + 1]
        if a.startswith(name + "="):
            return a.split("=", 1)[1]
    return default


# ---------------------------------------------------------------- statistics


def hd_quantile(x, q):
    xs = np.sort(np.asarray(x, dtype=float))
    n = xs.size
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    w = np.diff(special.betainc(a, b, np.arange(n + 1) / n))
    return float(w @ xs)


def statistic(stat, e):
    s = stat.lower()
    if s == "mse":
        return float(e.mean())
    if s == "mue":
        return float(np.abs(e).mean())
    if s == "rmsd":
        return float(e.std(ddof=1))
    return hd_quantile(np.abs(e), int(s[1:]) / 100.0)


def stat_label(stat):
    s = stat.lower()
    return f"Q{int(s[1:]):g}" if s.startswith("q") else s.upper()


def sip_matrix(errors):
    a = np.abs(errors)
    k = a.shape[1]
    return np.array([[float((a[:, i] < a[:, j]).mean()) if i != j else 0.0 for j in range(k)] for i in range(k)])


def spearman_matrix(errors):
    return np.atleast_2d(stats.spearmanr(errors).statistic)


# ---------------------------------------------------------------- parsing


def _grid(lines, labels):
    """Rows of a printed label/value grid, keyed by row label."""
    out = {}
    for line in lines:
        parts = line.split()
        if parts and parts[0] in labels and len(parts) == len(labels) + 1 and parts[0] not in out:
            out[parts[0]] = parts[1:]
    return out


def _svg_ok(path, problems):
    try:
        root = ET.parse(path).getroot()
    except (ET.ParseError, OSError) as exc:
        problems.append(f"{path}: unreadable SVG ({exc})")
        return
    problems.expect(root.tag.endswith("svg"), f"{path}: root element is {root.tag}")


def _csv_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------- commands


def _check_stats(args, out, files, table, p):
    errors, names = table["errors"], table["names"]
    stat = flag(args, "--stat", "mue")
    rows = {parts[0]: parts[1:] for parts in (l.split() for l in out.splitlines()[2:]) if len(parts) == 3}
    p.expect(list(rows) == names, f"stats: printed methods {list(rows)} != {names}")
    for j, name in enumerate(names):
        if name not in rows:
            continue
        value, se = rows[name]
        p.expect(printed(value, statistic(stat, errors[:, j])), f"stats: {name} value {value}")
        p.expect(math.isfinite(float(se)) and float(se) > 0, f"stats: {name} se {se}")
    if "json" in files:
        report = strict_json(files["json"])["report"]
        for j, row in enumerate(report["per_method"]):
            p.expect(close(row["value"], statistic(stat, errors[:, j])), f"stats json: {row['method']} value")


def _check_compare(args, out, files, table, p):
    errors, names, boot = table["errors"], table["names"], table["boot"]
    stat = flag(args, "--stat", "mue")
    m1, m2 = flag(args, "--pair").split(",")
    for label, name in (("s1", m1), ("s2", m2)):
        m = re.search(rf"{label} = (\S+) \+/- (\S+)", out)
        if p.expect(m is not None, f"compare: no {label} line"):
            p.expect(printed(m.group(1), statistic(stat, errors[:, names.index(name)])), f"compare: {label}")
    m = re.search(r"p_t = (\S+)\s+p_unc = (\S+)", out)
    if m:
        p.expect(in_unit(float(m.group(1))) and in_unit(float(m.group(2))), f"compare: p_t/p_unc {m.groups()}")
    m = re.search(r"p_g = (\S+)\s+P_inv = (\S+)\s+zero diffs = (\d+)", out)
    if p.expect(m is not None, "compare: no p_g line"):
        p.expect(in_unit(float(m.group(1))) and in_unit(float(m.group(2))), f"compare: p_g/P_inv {m.groups()}")
        p.expect(0 <= int(m.group(3)) <= boot, f"compare: zero diffs {m.group(3)}")


def _check_sip_matrix(args, out, files, table, p):
    names = table["names"]
    sip = sip_matrix(table["errors"])
    lines = out.splitlines()
    grid = _grid(lines[2:], names)
    header = lines[1].split() if len(lines) > 1 else []
    p.expect(sorted(grid) == sorted(names) and sorted(header) == sorted(names), "sip: grid labels")
    for row_label, cells in grid.items():
        i = names.index(row_label)
        for col_label, cell in zip(header, cells):
            p.expect(printed(cell, sip[i, names.index(col_label)]), f"sip: SIP[{row_label},{col_label}] = {cell}")
    msip = re.findall(r"(\S+)=(\S+)", next((l for l in lines if l.startswith("MSIP:")), ""))
    values = [float(v) for _, v in msip]
    p.expect(len(values) == len(names), "sip: MSIP line")
    p.expect(all(a >= b for a, b in zip(values, values[1:])), "sip: MSIP not in decreasing order")
    for label, v in msip:
        if label in names:
            p.expect(printed(v, sip[names.index(label)].sum() / len(names)), f"sip: MSIP {label}")


def _check_sip_pair(args, out, files, table, p):
    errors, names = table["errors"], table["names"]
    m1, m2 = flag(args, "--pair").split(",")
    e1, e2 = errors[:, names.index(m1)], errors[:, names.index(m2)]
    d = np.abs(e1) - np.abs(e2)
    n = d.size
    ds = np.sort(d)
    expected = {
        "SIP": float((d < 0).mean()),
        "MG": float(d[d < 0].mean()) if (d < 0).any() else None,
        "ML": float(d[d > 0].mean()) if (d > 0).any() else None,
        "dMUE": float(np.abs(e1).mean() - np.abs(e2).mean()),
    }
    for name, value in expected.items():
        m = re.search(rf"\s{name} = (\S+)\s+\[(\S+), (\S+)\]", out)
        if value is not None and p.expect(m is not None, f"sip-pair: no {name} line"):
            p.expect(printed(m.group(1), value), f"sip-pair: printed {name} {m.group(1)}")
    if "json" in files:
        r = strict_json(files["json"])["report"]
        p.expect(all_close(r["deltas"], ds), "sip-pair json: deltas")
        p.expect(all_close(r["ecdf"], np.searchsorted(ds, ds, side="right") / n), "sip-pair json: ecdf")
        lo, hi = np.asarray(r["band_lo"]), np.asarray(r["band_hi"])
        p.expect(lo.size == n and bool(np.all(lo <= hi)), "sip-pair json: band_lo > band_hi")
        p.expect(bool(np.all((lo >= 0) & (hi <= 1))), "sip-pair json: band outside [0, 1]")
        for key, name in (("sip", "SIP"), ("mg", "MG"), ("ml", "ML"), ("delta_mue", "dMUE")):
            v = r[key]
            p.expect(close(v["value"], expected[name]) or v["value"] is expected[name], f"sip-pair json: {key}")
            p.expect(v["lo"] is None or v["lo"] <= v["hi"], f"sip-pair json: {key} interval")
        p.expect(r["ties"] == int((d == 0).sum()), "sip-pair json: ties")
        p.expect(in_unit(r["sip"]["value"]), "sip-pair json: SIP outside [0, 1]")
        sip, mg, ml = r["sip"]["value"], r["mg"]["value"], r["ml"]["value"]
        sip_rev = (n - round(sip * n) - r["ties"]) / n
        rebuilt = (sip * mg if mg is not None else 0.0) + (sip_rev * ml if ml is not None else 0.0)
        p.expect(abs(r["delta_mue"]["value"] - rebuilt) <= IDENTITY_ABS,
                 f"sip-pair json: dMUE {r['delta_mue']['value']!r} != SIP*MG + SIP'*ML {rebuilt!r}")
    if "csv" in files:
        rows = _csv_rows(files["csv"])
        p.expect(rows[0] == ["system", "delta", "ecdf", "band_lo", "band_hi"], "sip-pair csv: header")
        body = np.array([[float(c) for c in row[1:]] for row in rows[1:]])
        p.expect(body.shape == (n, 4) and all_close(body[:, 0], ds), "sip-pair csv: deltas")
        p.expect(body.shape == (n, 4) and bool(np.all(body[:, 2] <= body[:, 3])), "sip-pair csv: band")
    if "ecdf" in files:
        _svg_ok(files["ecdf"], p)


def _check_corr(args, out, files, table, p):
    names = table["names"]
    rho = spearman_matrix(table["errors"])
    lines = out.splitlines()
    header = lines[1].split() if len(lines) > 1 else []
    grid = _grid(lines[2:], names)
    p.expect(sorted(grid) == sorted(names) and header == names, "corr: grid labels")
    for row_label, cells in grid.items():
        i = names.index(row_label)
        for j, cell in enumerate(cells):
            p.expect(printed(cell, rho[i, j]), f"corr: [{row_label},{names[j]}] = {cell}")
    if "json" in files:
        r = strict_json(files["json"])["report"]
        v = np.asarray(r["values"])
        p.expect(r["labels"] == names and all_close(v, rho), "corr json: values disagree with spearmanr")
        p.expect(bool(np.all(v == v.T)) and bool(np.all(np.diag(v) == 1.0)), "corr json: not symmetric/unit diagonal")
    if "svg" in files:
        _svg_ok(files["svg"], p)


def _check_rank(args, out, files, table, p):
    names, boot = table["names"], table["boot"]
    k = len(names)
    lines = out.splitlines()
    grid = _grid(lines[2:], names)
    p.expect(sorted(grid) == sorted(names), "rank: grid labels")
    printed_p = np.array([[float(c) for c in grid[m]] for m in names]) if len(grid) == k else None
    if printed_p is not None:
        p.expect(bool(np.all((printed_p >= 0) & (printed_p <= 1))), "rank: printed p outside [0, 1]")
        p.expect(bool(np.all(np.abs(printed_p.sum(axis=1) - 1) <= 0.0005 * k)), "rank: printed rows do not sum to 1")
        p.expect(bool(np.all(np.abs(printed_p.sum(axis=0) - 1) <= 0.0005 * k)), "rank: printed columns do not sum to 1")
    if "json" in files:
        r = strict_json(files["json"])["report"]
        pm = np.asarray(r["p"], dtype=float)
        p.expect(r["labels"] == names and pm.shape == (k, k), "rank json: shape/labels")
        p.expect(bool(np.all((pm >= 0) & (pm <= 1))), "rank json: p outside [0, 1]")
        p.expect(bool(np.all(np.abs(pm.sum(axis=1) - 1) <= 1e-12)), "rank json: rows do not sum to 1")
        p.expect(bool(np.all(np.abs(pm.sum(axis=0) - 1) <= 1e-12)), "rank json: columns do not sum to 1")
        p.expect(bool(np.all(np.abs(pm * boot - np.round(pm * boot)) <= 1e-6)), "rank json: p is not a count / B")
        if printed_p is not None:
            p.expect(bool(np.all(np.abs(printed_p - pm) <= 0.0005 + 1e-12)), "rank: printed grid != json")
        for j, entry in enumerate(r["summary"]):
            lo, hi = entry["interval"]
            p.expect(entry["mode"] == int(np.argmax(pm[j])) + 1, f"rank json: mode of {entry['label']}")
            p.expect(entry["mode_probability"] == pm[j, entry["mode"] - 1], f"rank json: mode p of {entry['label']}")
            p.expect(1 <= lo <= hi <= k and pm[j, lo - 1 : hi].sum() >= 0.9 - 1e-12, f"rank json: interval {lo}-{hi}")
        if "csv" in files:
            rows = _csv_rows(files["csv"])
            body = np.array([[float(c) for c in row[1:]] for row in rows[1:]])
            p.expect(body.shape == pm.shape and all_close(body, pm), "rank csv != json")
    if "svg" in files:
        _svg_ok(files["svg"], p)


def _check_type1(args, out, files, table, p):
    reps = int(flag(args, "--reps", "1000"))
    boot = int(flag(args, "--boot", "1000"))
    cells = len(flag(args, "--n", "100").split(",")) * len(flag(args, "--rho", "0").split(","))
    cells *= len(flag(args, "--scenarios", "normal").split(","))
    lines = out.splitlines()
    p.expect(lines[:1] == ["study: type1"], "type1: header")
    rows = [l.split() for l in lines[2:] if l.strip()]
    p.expect(len(rows) == cells and all(len(r) == 8 for r in rows), f"type1: {len(rows)} rows, expected {cells}")
    for r in rows:
        if len(r) != 8:
            continue
        alpha = round(float(r[4]) * reps) / reps
        p.expect(in_unit(alpha) and printed(r[4], alpha), f"type1: alpha {r[4]}")
        p.expect(printed(r[5], math.sqrt(alpha * (1 - alpha) / reps)), f"type1: se {r[5]}")
        p.expect(r[3] == stat_label(flag(args, "--stat", "mue")), f"type1: stat {r[3]}")
        p.expect((int(r[6]), int(r[7])) == (reps, boot), f"type1: reps/B {r[6]}/{r[7]}")


def _check_hdstudy(args, out, files, table, p):
    reps = int(flag(args, "--reps", "1000"))
    sizes = flag(args, "--n", "100").split(",")
    lines = out.splitlines()
    p.expect(lines[:1] == ["study: hdstudy"], "hdstudy: header")
    rows = [l.split() for l in lines[2:] if len(l.split()) == 9]
    p.expect(len(rows) == 2 * 2 * len(sizes), f"hdstudy: {len(rows)} rows")
    for r in rows:
        q = [float(v) for v in r[3:8]]
        p.expect(all(a <= b for a, b in zip(q, q[1:])), f"hdstudy: quantiles not ordered {r}")
        p.expect(1 <= int(r[8]) <= reps, f"hdstudy: n_distinct {r[8]}")
    m = re.search(r"reference_q95 = (\S+)", out)
    if p.expect(m is not None, "hdstudy: no reference_q95"):
        p.expect(printed(m.group(1), float(special.ndtri(0.975))), f"hdstudy: reference_q95 {m.group(1)}")


def check(args, stdout, files, table):
    """Problems found in one invocation's stdout and output files.

    `args` are the CLI arguments with placeholders resolved, `files` maps
    the placeholder kinds ("json", "csv", "svg", "ecdf") to paths and
    `table` holds the generated "errors" (N x K), method "names" and "boot".
    """
    p = Problems()
    cmd = args[0]
    try:
        if cmd == "simulate":
            (_check_type1 if args[1] == "type1" else _check_hdstudy)(args, stdout, files, table, p)
        elif cmd == "sip":
            (_check_sip_pair if flag(args, "--pair") else _check_sip_matrix)(args, stdout, files, table, p)
        else:
            {"stats": _check_stats, "compare": _check_compare, "corr": _check_corr, "rank": _check_rank}[cmd](
                args, stdout, files, table, p
            )
    except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
        p.append(f"{cmd}: unreadable output ({type(exc).__name__}: {exc})")
    return list(p)
