import dataclasses
import json
import math
import os
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from errstat.cli import _write_json, run
from errstat.dataset import errors_from_table, load_table
from errstat.estimators import StatKind, evaluate
from errstat.inference import BootstrapPlan, bootstrap_se
from errstat.sip import SipReport

CSV = """System,Ref,M1,M2,M3
s01,1.00,0.95,1.10,1.02
s02,2.00,2.10,1.95,2.01
s03,3.00,2.80,3.15,2.99
s04,4.00,4.15,3.90,4.05
s05,5.00,5.05,5.20,4.97
s06,6.00,5.80,6.10,6.06
s07,7.00,7.25,6.85,6.95
s08,8.00,7.90,8.20,8.02
s09,9.00,9.10,8.80,9.04
s10,10.00,9.85,10.25,9.96
"""
GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden.csv")


@pytest.fixture()
def data(tmp_path):
    path = tmp_path / "bench.csv"
    path.write_text(CSV)
    return str(path)


def test_stats_writes_json(data, tmp_path, capsys):
    out = tmp_path / "stats.json"
    code = run(["stats", data, "--stat", "mue", "--boot", "200", "--seed", "42", "--json", str(out)])
    assert code == 0
    assert "MUE" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == "1"
    assert len(payload["report"]["per_method"]) == 3


@pytest.mark.parametrize("stat", ["mue", "rmsd", "q95"])
def test_stats_json_equals_per_method_bootstrap_se(data, tmp_path, stat):
    # One shared index draw for all methods gives each column the same
    # replicates as a separate bootstrap_se call on that column.
    out = tmp_path / "stats.json"
    assert run(["stats", data, "--stat", stat, "--boot", "300", "--seed", "5", "--json", str(out)]) == 0
    matrix = errors_from_table(load_table(data))
    kind, plan = StatKind.parse(stat), BootstrapPlan(B=300, seed=5)
    rows = [
        {"method": m, "value": evaluate(kind, matrix.column(m)), "se": bootstrap_se(matrix.column(m), kind, plan)}
        for m in matrix.method_names
    ]
    expected = tmp_path / "expected.json"
    _write_json(str(expected), "stats", {"stat": kind.label, "n_systems": matrix.n_systems, "per_method": rows})
    assert out.read_bytes() == expected.read_bytes()


def test_non_finite_cell_exits_2_naming_row_and_column(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(CSV.replace("s04,4.00,4.15", "s04,4.00,nan"))
    out = tmp_path / "stats.json"
    assert run(["stats", str(path), "--boot", "200", "--json", str(out)]) == 2
    assert "row 5: non-finite cell 'nan' in column 'M1'" in capsys.readouterr().err
    assert not out.exists()


def test_empty_header_cell_exits_2_with_one_error_line(tmp_path, capsys):
    path = tmp_path / "blank.csv"
    path.write_text(CSV.replace("System,Ref,M1,M2,M3", "System,Ref,M1,,M3"))
    assert run(["stats", str(path), "--boot", "100"]) == 2
    assert capsys.readouterr().err == "error: malformed header: empty column name at position 4\n"


def test_row_with_an_extra_cell_exits_2_naming_the_row(tmp_path, capsys):
    # np.loadtxt ignores cells past the columns it reads, so such a table is read cell by cell.
    path = tmp_path / "extra.csv"
    path.write_text(CSV.replace("s04,4.00,4.15,3.90,4.05", "s04,4.00,4.15,3.90,4.05,9.9"))
    assert run(["stats", str(path), "--boot", "100"]) == 2
    assert capsys.readouterr().err == "error: row 5: expected 5 cells, got 6\n"


def test_json_reports_refuse_nan(tmp_path):
    with pytest.raises(ValueError):
        _write_json(str(tmp_path / "r.json"), "stats", {"value": float("nan")})


def test_json_reports_refuse_inf_in_a_float_array(tmp_path):
    with pytest.raises(ValueError):
        _write_json(str(tmp_path / "r.json"), "corr", {"values": np.array([[1.0, np.inf], [0.5, 1.0]])})


def test_json_report_keys_are_the_report_fields(data, tmp_path):
    out = tmp_path / "sip.json"
    assert run(["sip", data, "--json", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    assert set(report) == {f.name for f in dataclasses.fields(SipReport)}
    k = len(report["labels"])
    for name in ("mg", "ml"):  # undefined on the diagonal: NaN in the report, null in JSON
        assert [report[name][i][i] for i in range(k)] == [None] * k


@pytest.mark.parametrize("argv", [["stats"], ["compare", "--pair", "M1,M2"], ["rank"], ["sip", "--pair", "M1,M2"]])
def test_error_that_overflows_exits_2_naming_system_and_column(tmp_path, capsys, argv):
    # Both cells are finite, but Ref - M1 = 2e308 is not.
    path = tmp_path / "overflow.csv"
    path.write_text(CSV.replace("s01,1.00,0.95,", "a,1e308,-1e308,"))
    out = tmp_path / "report.json"
    assert run([argv[0], str(path), *argv[1:], "--boot", "100", "--json", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "'a'" in lines[0] and "'M1'" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["stats", "--stat", "rmsd"], ["compare", "--pair", "M1,M2", "--stat", "rmsd"], ["rank", "--stat", "rmsd"],
     ["stats", "--stat", "mse"]],
)
def test_error_whose_square_overflows_exits_2_naming_system_and_column(tmp_path, capsys, argv):
    # Ref - M1 = 2e300 is finite, but above the 1e300 cap on |error|.
    path = tmp_path / "huge.csv"
    rows = [row.rsplit(",", 1)[0] for row in CSV.splitlines()] + ["s11,11.0,11.2,10.9", "s12,12.0,11.9,12.3"]
    path.write_text("\n".join(rows + ["a,1e300,-1e300,1"]) + "\n")
    out = tmp_path / "report.json"
    assert run([argv[0], str(path), *argv[1:], "--boot", "100", "--json", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "'a'" in lines[0] and "'M1'" in lines[0]
    assert not out.exists()


def test_compare_pair(data, capsys):
    assert run(["compare", data, "--pair", "M1,M3", "--boot", "200", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "p_g" in out and "P_inv" in out


@pytest.mark.parametrize("stat", ["mse", "q95"])
def test_compare_p_g_does_not_depend_on_the_order_of_the_pair(tmp_path, stat):
    # On this table and seed p* > 1/2 for M01 - M02: a p_g rounded from
    # 1 - p* was 0.03200000000000003 (MSE) and 0.31200000000000006 (Q95)
    # in that order, 0.032 and 0.312 in the other.
    p_g = []
    for pair in ("M01,M02", "M02,M01"):
        out = tmp_path / f"{pair}.json"
        assert run(["compare", GOLDEN, "--pair", pair, "--stat", stat, "--seed", "17", "--json", str(out)]) == 0
        p_g.append(json.loads(out.read_text())["report"]["p_g"])
    assert p_g[0] == p_g[1] == {"mse": 0.032, "q95": 0.312}[stat]


def test_compare_identical_columns_is_degenerate(tmp_path, capsys):
    # Every replicate difference is zero: no xi or p_t, and P_inv = 0.5 by convention.
    path = tmp_path / "same.csv"
    rows = [row.rsplit(",", 2)[0] for row in CSV.splitlines()[1:]]
    path.write_text("\n".join(["System,Ref,M1,M2", *(f"{row},{row.rsplit(',', 1)[1]}" for row in rows)]) + "\n")
    assert run(["compare", str(path), "--pair", "M1,M2", "--boot", "100"]) == 0
    out = capsys.readouterr().out
    assert "xi/p_t undefined (zero bootstrap uncertainty of the difference)" in out
    assert "p_g = 1   P_inv = 0.5   zero diffs = 100" in out
    assert "note: s1 == s2, comparison is degenerate (P_inv = 0.5 by convention)" in out


def test_pair_of_three_names_exits_2(data, capsys):
    assert run(["compare", data, "--pair", "M1,M2,M3"]) == 2
    assert "--pair needs two comma-separated method names, got 'M1,M2,M3'" in capsys.readouterr().err


def test_compare_unknown_method_is_validation_error(data, capsys):
    assert run(["compare", data, "--pair", "M1,nope", "--boot", "200"]) == 2
    assert "unknown method" in capsys.readouterr().err


def test_unknown_flag_exits_2(data, capsys):
    assert run(["stats", data, "--frobnicate"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["sip", "--pair", "M1,M2", "--ecdf", "@out", "--size", "100"],
        ["rank", "--svg", "@out", "--size", "50"],
        ["corr", "--svg", "@out", "--size", "199"],
    ],
)
def test_small_figure_size_exits_2_before_any_work(data, tmp_path, capsys, argv):
    out = tmp_path / "figure.svg"
    argv = [argv[0], data, "--boot", "100"] + [str(out) if a == "@out" else a for a in argv[1:]]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "size must be at least 200 px" in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["compare", "--pair", "M1,M2", "--kappa", "nan"], "argument --kappa: must be a finite number"),
        (["sip", "--pair", "M1,M2", "--ecdf", "@out", "--ubar", "nan"], "argument --ubar: must be a finite number"),
        (["corr", "--svg", "@out", "--size", "300.5"], "argument --size: invalid int value: '300.5'"),
    ],
)
def test_bad_flag_value_exits_2_naming_the_flag_before_any_work(data, tmp_path, capsys, argv, message):
    out, json_out = tmp_path / "figure.svg", tmp_path / "report.json"
    flags = [str(out) if a == "@out" else a for a in argv[1:]]
    argv = [argv[0], data, "--boot", "100", "--json", str(json_out), *flags]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert not out.exists() and not json_out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sip", "--ecdf", "@out"], "--ecdf needs --pair"),
        (["sip", "--abs-ecdf", "@out"], "--abs-ecdf needs --pair"),
        (["sip", "--ubar", "0.3", "--csv", "@out"], "--ubar needs --pair"),
        (["sip", "--pair", "M1,M2", "--svg", "@out"], "--svg draws the SIP matrix and does not apply with --pair"),
    ],
)
def test_sip_flag_of_the_other_mode_exits_2_naming_the_flag(data, tmp_path, capsys, argv, message):
    out, json_out = tmp_path / "figure.svg", tmp_path / "report.json"
    flags = [str(out) if a == "@out" else a for a in argv[1:]]
    assert run([argv[0], data, "--boot", "100", "--json", str(json_out), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists() and not json_out.exists()


def test_figure_size_sets_the_svg_width_and_height(data, tmp_path):
    out = tmp_path / "rank.svg"
    assert run(["rank", data, "--boot", "100", "--svg", str(out), "--size", "300"]) == 0
    root = ET.fromstring(out.read_text())
    assert (root.get("width"), root.get("height"), root.get("viewBox")) == ("300", "300", "0 0 300 300")


def test_unreadable_file_exits_2(tmp_path, capsys):
    assert run(["stats", str(tmp_path / "missing.csv")]) == 2


def test_path_with_comma_is_read_as_a_file(tmp_path, capsys):
    folder = tmp_path / "d,x"
    folder.mkdir()
    (folder / "t.csv").write_text(CSV)
    assert run(["stats", str(folder / "t.csv"), "--boot", "100"]) == 0
    assert "M3" in capsys.readouterr().out


def test_small_n_warning_is_one_plain_stderr_line(data, capsys):
    assert run(["compare", data, "--pair", "M1,M2", "--boot", "100"]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: N=10 is small for MUE comparisons (N>=30 recommended); p-values may be unreliable"
    ]


def test_small_n_warning_of_rank_names_rank_probabilities(data, capsys):
    assert run(["rank", data, "--stat", "q95", "--boot", "100"]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: N=10 is small for Q95 rankings (N>=60 recommended); rank probabilities may be unreliable"
    ]


def test_sip_matrix_and_svg(data, tmp_path):
    svg_path = tmp_path / "sip.svg"
    assert run(["sip", data, "--svg", str(svg_path), "--boot", "200"]) == 0
    root = ET.fromstring(svg_path.read_text())
    glyphs = [el for el in root.iter() if el.get("class") == "glyph"]
    assert len(glyphs) == 9


def test_sip_pair_outputs(data, tmp_path):
    ecdf_svg = tmp_path / "ecdf.svg"
    csv_out = tmp_path / "ecdf.csv"
    json_out = tmp_path / "pair.json"
    code = run([
        "sip", data, "--pair", "M1,M2", "--boot", "200", "--seed", "3",
        "--ecdf", str(ecdf_svg), "--csv", str(csv_out), "--json", str(json_out),
        "--ubar", "0.05",
    ])
    assert code == 0
    ET.fromstring(ecdf_svg.read_text())
    lines = csv_out.read_text().strip().splitlines()
    assert lines[0] == "system,delta,ecdf,band_lo,band_hi"
    assert len(lines) == 11  # header + one row per system
    payload = json.loads(json_out.read_text())
    assert payload["report"]["uncertainty_bar"] == 0.05


def test_sip_pair_of_tied_absolute_errors_has_undefined_mg_and_ml(tmp_path, capsys):
    # M2's errors are M1's negated, so every |e1| - |e2| is 0: SIP = 0 and no gain or loss to average.
    path = tmp_path / "tied.csv"
    rows = [row.split(",") for row in CSV.splitlines()[1:]]
    tied = [f"{s},{r},{m},{2 * float(r) - float(m)!r}" for s, r, m, *_ in rows]
    path.write_text("\n".join(["System,Ref,M1,M2", *tied]) + "\n")
    assert run(["sip", str(path), "--pair", "M1,M2", "--boot", "100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("    SIP = 0  [0, 0]")
    assert lines[2:4] == ["     MG: undefined", "     ML: undefined"]
    assert lines[-1] == "  ties: 10"


def test_corr_variants(data, tmp_path):
    svg_path = tmp_path / "corr.svg"
    csv_path = tmp_path / "corr.csv"
    assert run(["corr", data, "--svg", str(svg_path), "--csv", str(csv_path)]) == 0
    assert run(["corr", data, "--pearson", "--on", "values"]) == 0
    root = ET.fromstring(svg_path.read_text())
    glyphs = [el for el in root.iter() if el.get("class") == "glyph"]
    assert len(glyphs) == 9
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "method,M1,M2,M3"
    assert len(lines) == 4


def _scaled_table(path, scale):
    """20 rows, Ref = 0: M1 and M2 have Pearson r = 0.95 and Spearman r = 0.95, times `scale`."""
    rng = np.random.default_rng(4)
    v = rng.normal(size=(20, 2))
    v[:, 1] = v[:, 0] + 0.4 * rng.normal(size=20)
    rows = [f"s{i:02d},0,{float(a * scale)!r},{float(b * scale)!r}" for i, (a, b) in enumerate(v)]
    path.write_text("\n".join(["System,Ref,M1,M2", *rows]) + "\n")
    return str(path)


@pytest.mark.parametrize("power, on", [(664, "values"), (-332, "errors")])
def test_corr_pearson_at_extreme_magnitudes_equals_the_scaled_down_table(tmp_path, capsys, power, on):
    # Near 1e200, sx * sy overflowed and the NaN was clamped to -1.00;
    # near 1e-100 it underflowed to 0 and gave 1.00 with a divide warning.
    # Scaling by a power of two is exact, so r must be that of the table at 1.
    r = {}
    for p in (0, power):
        table = _scaled_table(tmp_path / f"t{p}.csv", 2.0**p)
        out = tmp_path / f"corr{p}.json"
        assert run(["corr", table, "--pearson", "--on", on, "--json", str(out)]) == 0
        r[p] = json.loads(out.read_text())["report"]["values"][0][1]
    assert r[power] == r[0] and 0.9 < r[0] < 1.0
    assert capsys.readouterr().err == ""


def test_corr_pearson_of_overflowing_values_exits_2(tmp_path, capsys):
    # Their mean overflows, so r is undefined: an error, never a clamped NaN.
    table = tmp_path / "huge.csv"
    table.write_text("System,Ref,M1,M2\n" + "".join(f"s{i},0,{1.5e308 * (-1) ** (i // 3)!r},{i}\n" for i in range(6)))
    assert run(["corr", str(table), "--pearson", "--on", "values"]) == 2
    err = capsys.readouterr().err
    assert "undefined correlation" in err
    # M2's values are fine; the one error line names the column whose centring overflows.
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: undefined correlation: column 'M1' overflows when centred"]


@pytest.mark.parametrize("method", [[], ["--pearson"]])
@pytest.mark.parametrize("on, column", [("errors", "M1"), ("values", "M2")])
def test_corr_of_a_constant_column_exits_2_naming_it(tmp_path, capsys, method, on, column):
    # M1 = Ref + 1 has constant errors; M2 is a constant prediction.
    table = tmp_path / "constant.csv"
    table.write_text("System,Ref,M1,M2,M3\n" + "".join(f"s{i},{i},{i + 1},5,{i * i}\n" for i in range(8)))
    assert run(["corr", str(table), "--on", on, *method]) == 2
    assert capsys.readouterr().err == f"error: undefined correlation: column '{column}' is constant\n"


def _subnormal_table(path):
    """40 rows of errors near 3e-310, below the smallest normal float, and the (40, 2) error array."""
    rng = np.random.default_rng(61)
    errors = np.ldexp(rng.integers(100, 300, size=(40, 2)) * rng.choice([-1.0, 1.0], size=(40, 2)), -1036)
    errors[:, 1] *= 2.0  # the second method's errors are larger, so the pair is not degenerate
    rows = [f"s{i},0,{-a!r},{-b!r}\n" for i, (a, b) in enumerate(errors.tolist())]
    path.write_text("System,Ref,M1,M2\n" + "".join(rows))
    return str(path), errors


def test_stats_rmsd_of_subnormal_errors_is_the_true_rmsd(tmp_path, capsys):
    # Squaring 3e-310 underflows to 0, so the unscaled formula printed 0 +/- 0.
    table, errors = _subnormal_table(tmp_path / "tiny.csv")
    out = tmp_path / "rmsd.json"
    assert run(["stats", table, "--stat", "rmsd", "--boot", "200", "--json", str(out)]) == 0
    rows = json.loads(out.read_text())["report"]["per_method"]
    stdout = capsys.readouterr().out
    for row, e in zip(rows, errors.T):
        true = np.ldexp(np.std(np.ldexp(e, 1000), ddof=1), -1000)
        assert abs(row["value"] - true) <= 1e-12 * true
        assert f"{row['value']:>12.5g}" in stdout and row["se"] > 0.0


def test_stats_mue_of_subnormal_errors_has_nonzero_standard_errors(tmp_path, capsys):
    table, _ = _subnormal_table(tmp_path / "tiny.csv")
    out = tmp_path / "mue.json"
    assert run(["stats", table, "--stat", "mue", "--boot", "200", "--json", str(out)]) == 0
    rows = json.loads(out.read_text())["report"]["per_method"]
    assert all(row["se"] > 0.0 for row in rows)
    lines = capsys.readouterr().out.splitlines()[2:]
    assert len(lines) == 2 and all(float(line.split()[-1]) > 0.0 for line in lines)


def test_compare_rmsd_of_subnormal_errors_is_not_degenerate(tmp_path, capsys):
    table, _ = _subnormal_table(tmp_path / "tiny.csv")
    out = tmp_path / "compare.json"
    assert run(["compare", table, "--pair", "M1,M2", "--stat", "rmsd", "--boot", "200", "--json", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    assert report["u_diff"] > 0.0 and report["xi"] is not None
    assert not report["degenerate"] and report["s1"] != report["s2"]
    assert "degenerate" not in capsys.readouterr().out


# Report keys whose numbers carry the errors' unit; every other number is a probability, count or correlation.
SCALED_KEYS = {"se", "s1", "s2", "u1", "u2", "u_diff", "mg", "ml", "delta_mue", "deltas", "uncertainty_bar"}


def _assert_scaled(got, want, power, path=()):
    """got is want with every number in the errors' unit times 2**power, bit for bit."""
    if isinstance(want, dict):
        assert set(got) == set(want), path
        for key in want:
            _assert_scaled(got[key], want[key], power, path + (key,))
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for g, w in zip(got, want):
            _assert_scaled(g, w, power, path)
    elif isinstance(want, float) and (SCALED_KEYS & set(path) or path == ("per_method", "value")):
        assert got == math.ldexp(want, power), path
    else:
        assert got == want, path


@pytest.mark.parametrize(
    "argv, outputs",
    [
        *((["stats", "--stat", stat], ("csv",)) for stat in ("mse", "mue", "rmsd", "q95")),
        *((["compare", "--pair", "M01,M02", "--stat", stat], ("csv",)) for stat in ("mue", "q95")),
        (["rank", "--stat", "mue"], ("csv", "svg")),
        (["sip"], ("csv", "svg")),
        (["sip", "--pair", "M01,M03", "--ubar", "@ubar"], ("csv", "ecdf", "abs-ecdf")),
        (["corr"], ("csv", "svg")),
        (["corr", "--pearson"], ("csv", "svg")),
    ],
)
def test_golden_table_near_1e298_is_the_scaled_report(tmp_path, capsys, argv, outputs):
    # Every cell times 2**990, which is exact: cells up to 4e299, errors up to 2.1e298, below the 1e300 cap.
    power = 990
    with open(GOLDEN) as fh:
        header, *rows = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    scaled = tmp_path / "scaled.csv"
    scaled.write_text("\n".join([header, *(",".join([row.split(",")[0], *(
        repr(math.ldexp(float(v), power)) for v in row.split(",")[1:])]) for row in rows)]) + "\n")
    reports = []
    for table, p in ((GOLDEN, 0), (str(scaled), power)):
        ubar = repr(math.ldexp(0.3, p))
        files = [tmp_path / f"{p}.{ext}" for ext in ("json", *outputs)]
        flags = [a for ext, f in zip(("json", *outputs), files) for a in (f"--{ext}", str(f))]
        assert run([argv[0], table, *(ubar if a == "@ubar" else a for a in argv[1:]), "--boot", "200", *flags]) == 0
        out = capsys.readouterr().out
        for text in (out, *(f.read_text() for f in files)):
            assert not re.search(r"(?i)\b(nan|inf)", text)
        reports.append(json.loads(files[0].read_text())["report"])
    _assert_scaled(reports[1], reports[0], power)


def test_stats_and_compare_csv(data, tmp_path):
    stats_csv = tmp_path / "stats.csv"
    comp_csv = tmp_path / "comp.csv"
    assert run(["stats", data, "--stat", "rmsd", "--boot", "150", "--csv", str(stats_csv)]) == 0
    assert run(["compare", data, "--pair", "M2,M3", "--boot", "150", "--csv", str(comp_csv)]) == 0
    assert stats_csv.read_text().startswith("method,rmsd,se")
    header = comp_csv.read_text().splitlines()[0]
    assert "p_g" in header and "method_1" in header


def test_sip_pair_abs_ecdf(data, tmp_path):
    out = tmp_path / "abs.svg"
    assert run(["sip", data, "--pair", "M1,M2", "--boot", "150", "--abs-ecdf", str(out)]) == 0
    root = ET.fromstring(out.read_text())
    curves = [el for el in root.iter() if el.get("class") == "ecdf"]
    assert len(curves) == 2


def test_rank_outputs_and_determinism(data, tmp_path):
    json_a = tmp_path / "a.json"
    json_b = tmp_path / "b.json"
    csv_out = tmp_path / "pr.csv"
    svg_out = tmp_path / "pr.svg"
    args = ["rank", data, "--stat", "mue", "--boot", "300", "--seed", "42"]
    assert run(args + ["--json", str(json_a), "--csv", str(csv_out), "--svg", str(svg_out)]) == 0
    assert run(args + ["--json", str(json_b), "--workers", "4"]) == 0
    assert json_a.read_bytes() == json_b.read_bytes()
    lines = csv_out.read_text().strip().splitlines()
    assert lines[0] == "method,rank1,rank2,rank3"
    assert len(lines) == 4
    ET.fromstring(svg_out.read_text())


def test_rank_nprime_and_orientation(data):
    assert run(["rank", data, "--nprime", "5", "--boot", "200", "--seed", "1"]) == 0
    assert run(["rank", data, "--orientation", "higher", "--boot", "200", "--seed", "1"]) == 0


def test_simulate_gh(tmp_path, capsys):
    csv_out = tmp_path / "gh.csv"
    code = run(["simulate", "gh", "--g", "0.2", "--h", "0.2", "--n", "500",
                "--seed", "9", "--csv", str(csv_out)])
    assert code == 0
    assert "g-and-h sample" in capsys.readouterr().out
    assert len(csv_out.read_text().strip().splitlines()) == 501


def test_simulate_gh_takes_one_size(tmp_path, capsys):
    json_out = tmp_path / "gh.json"
    assert run(["simulate", "gh", "--n", "5,7", "--json", str(json_out)]) == 2
    assert "one --n size, got 5,7" in capsys.readouterr().err
    assert not json_out.exists()
    assert run(["simulate", "gh", "--n", "12", "--json", str(json_out)]) == 0
    assert len(json.loads(json_out.read_text())["report"]["values"]) == 12


@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_simulate_gh_rejects_fewer_than_two_values(tmp_path, capsys, n):
    json_out, csv_out = tmp_path / "gh.json", tmp_path / "gh.csv"
    assert run(["simulate", "gh", "--n", n, "--json", str(json_out), "--csv", str(csv_out)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and f"at least 2, got {n}" in err and len(err.splitlines()) == 1
    assert not json_out.exists() and not csv_out.exists()


@pytest.mark.parametrize("shape", [["--g", "1e-200"], ["--g", "1e-4"], ["--g", "0.01", "--h", "0.45"]])
def test_simulate_gh_small_g_is_finite_and_quiet(tmp_path, capsys, shape):
    json_out = tmp_path / "gh.json"
    assert run(["simulate", "gh", *shape, "--n", "5", "--json", str(json_out)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert "nan" not in out
    values = json.loads(json_out.read_text())["report"]["values"]
    assert len(values) == 5 and np.all(np.isfinite(values))


@pytest.mark.parametrize(
    "shape, message",
    [
        (["--g", "20"], "g=20, h=0"),
        (["--g", "30"], "g=30, h=0"),
        (["--h", "0.5"], "g-and-h variance is infinite for h >= 0.5 (got h=0.5)"),
    ],
)
def test_simulate_gh_infinite_variance_exits_2(tmp_path, capsys, shape, message):
    json_out, csv_out = tmp_path / "gh.json", tmp_path / "gh.csv"
    assert run(["simulate", "gh", *shape, "--n", "5", "--json", str(json_out), "--csv", str(csv_out)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err and len(err.splitlines()) == 1
    assert not json_out.exists() and not csv_out.exists()


@pytest.mark.parametrize(
    "shape, message",
    [
        (["--h", "nan"], "g and h must be finite and >= 0, got g=0.0, h=nan"),
        (["--sigma", "nan"], "sigma finite and > 0, got mu=0.0, sigma=nan"),
        (["--mu", "inf"], "mu must be finite and sigma finite and > 0, got mu=inf, sigma=1.0"),
        (["--sigma", "inf"], "sigma finite and > 0, got mu=0.0, sigma=inf"),
    ],
)
def test_simulate_gh_non_finite_shape_exits_2(tmp_path, capsys, shape, message):
    json_out = tmp_path / "gh.json"
    assert run(["simulate", "gh", *shape, "--n", "5", "--json", str(json_out)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err and len(err.splitlines()) == 1
    assert not json_out.exists()


@pytest.mark.parametrize("sigma", ["1e308", "5e307"])  # values overflow; the values are finite but not their mean
@pytest.mark.parametrize("json_report", [False, True])
def test_simulate_gh_overflowing_sample_exits_2_naming_mu_and_sigma(tmp_path, capsys, sigma, json_report):
    json_out = tmp_path / "gh.json"
    argv = ["simulate", "gh", "--sigma", sigma, "--n", "50"] + (["--json", str(json_out)] if json_report else [])
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: g-and-h sample overflows double precision at mu=0, sigma={float(sigma):g}\n"  # no warning
    assert not json_out.exists()


def test_simulate_unknown_scenario_exits_2_naming_it(capsys):
    assert run(["simulate", "type1", "--stat", "mue", "--n", "20", "--reps", "100", "--boot", "100",
                "--scenarios", "normal,bogus"]) == 2
    assert "unknown scenario 'bogus'; available: normal, heavy, asym, heavyasym" in capsys.readouterr().err


def test_simulate_type1(tmp_path, capsys):
    json_out = tmp_path / "t1.json"
    code = run(["simulate", "type1", "--stat", "mue", "--n", "30", "--rho", "0.5",
                "--reps", "120", "--boot", "200", "--seed", "1", "--json", str(json_out)])
    assert code == 0
    payload = json.loads(json_out.read_text())
    row = payload["report"]["rows"][0]
    alpha = row[payload["report"]["columns"].index("alpha")]
    assert 0.0 <= alpha <= 0.2


def test_simulate_type1_q95_recommended_size(tmp_path):
    # At the recommended N=60 the rejection rate stays inside the safety band.
    json_out = tmp_path / "t1q.json"
    code = run(["simulate", "type1", "--stat", "q95", "--n", "60",
                "--reps", "200", "--seed", "1", "--json", str(json_out)])
    assert code == 0
    payload = json.loads(json_out.read_text())
    row = payload["report"]["rows"][0]
    alpha = row[payload["report"]["columns"].index("alpha")]
    se = (0.05 * 0.95 / 200) ** 0.5
    assert alpha <= 0.075 + 2 * se


def test_simulate_corrtransfer(capsys):
    # negative values in a list need the = form with argparse
    code = run(["simulate", "corrtransfer", "--n", "40", "--rho=-0.5,0.5",
                "--reps", "150", "--seed", "2"])
    assert code == 0
    assert "corrtransfer" in capsys.readouterr().out


def test_simulate_hdstudy(tmp_path):
    csv_out = tmp_path / "hd.csv"
    code = run(["simulate", "hdstudy", "--n", "20,50", "--reps", "150", "--seed", "3",
                "--mode", "A", "--csv", str(csv_out)])
    assert code == 0
    lines = csv_out.read_text().strip().splitlines()
    assert lines[0].startswith("mode,n,estimator")
    assert len(lines) == 5


def test_simulate_hdstudy_names_its_reference_after_the_quantile_level(tmp_path, capsys):
    json_out = tmp_path / "hd.json"
    assert run(["simulate", "hdstudy", "--stat", "q90", "--n", "20", "--reps", "100", "--mode", "A",
                "--json", str(json_out)]) == 0
    out = capsys.readouterr().out
    # The 0.9 quantile of |X| for X ~ N(0, 1) is the normal's 0.95 quantile.
    assert "reference_q90 = 1.64485" in out and "reference_q95" not in out
    assert json.loads(json_out.read_text())["report"]["extra"] == {"reference_q90": pytest.approx(1.6448536, abs=1e-6)}


def test_simulate_hdstudy_rejects_more_than_one_scenario(tmp_path, capsys):
    json_out = tmp_path / "hd.json"
    assert run(["simulate", "hdstudy", "--n", "20", "--reps", "100", "--scenarios", "normal,heavy",
                "--json", str(json_out)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: hdstudy runs one scenario, got g=0,h=0; g=0,h=0.2\n"
    assert not json_out.exists()


@pytest.mark.parametrize(
    "argv, shape",
    [
        (["sip", GOLDEN, "--pair", "M01,M02"], "(40, 10000000000000000)"),
        (["simulate", "type1", "--n", "20", "--reps", "100"], "(10000000000000000, 20)"),
        (["stats", GOLDEN], "(10000000000000000, 5)"),
        (["compare", GOLDEN, "--pair", "M01,M02"], "(10000000000000000, 2)"),
        (["rank", GOLDEN], "(10000000000000000, 5)"),
    ],
)
def test_request_too_large_for_memory_exits_2(tmp_path, capsys, argv, shape):
    # 142 PiB to 1.39 EiB: more than any 64-bit address space, so numpy fails at the
    # first B-sized allocation, made before any replicate is drawn.  The band's
    # running totals (sip) are at least 16 bits; a type-I repetition's draw is int64.
    dtype = {"sip": "uint16", "simulate": "int64"}.get(argv[0], "float64")
    json_out = tmp_path / "big.json"
    assert run([*argv, "--boot", "10000000000000000", "--json", str(json_out)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: Unable to allocate ") and err.endswith(f" {shape} and data type {dtype}\n")
    assert len(err.splitlines()) == 1
    assert not json_out.exists()


@pytest.mark.parametrize("mode", ["C", "A,C", ""])
def test_simulate_hdstudy_rejects_unknown_mode(tmp_path, capsys, mode):
    json_out = tmp_path / "hd.json"
    code = run(["simulate", "hdstudy", "--n", "20", "--reps", "100", "--mode", mode, "--json", str(json_out)])
    assert code == 2
    assert "modes must be A and/or B" in capsys.readouterr().err
    assert not json_out.exists()


def test_cli_json_deterministic_across_runs(data, tmp_path):
    outs = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        assert run(["compare", data, "--pair", "M1,M2", "--boot", "250",
                    "--seed", "11", "--json", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_missing_subcommand_exits_2():
    assert run([]) == 2
