import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from errstat.cli import _write_json, run
from errstat.dataset import errors_from_table, load_table
from errstat.estimators import StatKind, evaluate
from errstat.inference import BootstrapPlan, bootstrap_se

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


def test_json_reports_refuse_nan(tmp_path):
    with pytest.raises(ValueError):
        _write_json(str(tmp_path / "r.json"), "stats", {"value": float("nan")})


def test_compare_pair(data, capsys):
    assert run(["compare", data, "--pair", "M1,M3", "--boot", "200", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "p_g" in out and "P_inv" in out


def test_compare_unknown_method_is_validation_error(data, capsys):
    assert run(["compare", data, "--pair", "M1,nope", "--boot", "200"]) == 2
    assert "unknown method" in capsys.readouterr().err


def test_unknown_flag_exits_2(data, capsys):
    assert run(["stats", data, "--frobnicate"]) == 2


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
