import ast
import os
import pathlib
import subprocess
import sys

import numpy as np

import errstat
from errstat.simulation import SCENARIOS


def _scipy_modules_after(statement):
    code = f"import sys; {statement}; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(errstat.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    return ast.literal_eval(proc.stdout.strip().splitlines()[-1])


def test_cli_cold_import_skips_heavy_scipy_subpackages():
    # scipy (its special, stats and integrate subpackages alike) would be
    # the largest part of the CLI's start-up time; a cold
    # `import errstat.cli` loads none of it.
    assert _scipy_modules_after("import errstat.cli") == []


def test_normal_scenario_needs_no_quadrature():
    # The g-and-h moments are closed forms, so no shape, normal or not,
    # loads scipy.
    runs = [
        f"assert errstat.cli.run(['simulate', 'gh', '--n', '10', '--g', '{p.g}', '--h', '{p.h}']) == 0"
        for p in SCENARIOS.values()
    ]
    runs.append("assert errstat.cli.run(['simulate', 'gh', '--n', '10', '--g', '1e-4', '--h', '0.45']) == 0")
    assert _scipy_modules_after("import errstat.cli; " + "; ".join(runs)) == []


def test_no_errstat_module_imports_scipy():
    # Static guard: the package computes its special functions itself
    # (Harrell-Davis weights, the normal tail, g-and-h moments), so no
    # module may import scipy, at the top or inside a function.
    package = pathlib.Path(errstat.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] == "scipy"]
    assert not found, found


def test_no_command_loads_scipy(tmp_path):
    # Every subcommand, including the Harrell-Davis quantiles, compare's
    # p-values and the studies that use the normal's population
    # statistics, runs on numpy and the standard library alone.
    rows = np.random.default_rng(0).normal(size=(40, 4)).tolist()
    table = tmp_path / "t.csv"
    lines = ["System,Ref,M1,M2,M3"] + [f"s{i}," + ",".join(map(repr, r)) for i, r in enumerate(rows)]
    table.write_text("\n".join(lines) + "\n")
    t, out = str(table), str(tmp_path / "out")
    argvs = [
        ["stats", t, "--stat", "q95", "--boot", "100"],
        ["compare", t, "--pair", "M1,M2", "--stat", "q95", "--boot", "100"],
        ["rank", t, "--stat", "q95", "--boot", "100"],
        ["sip", t, "--pair", "M1,M2", "--abs-ecdf", out + ".svg", "--boot", "100"],
        ["simulate", "type1", "--stat", "q95", "--scenarios=normal", "--n", "10", "--reps", "100", "--boot", "100"],
        ["simulate", "hdstudy", "--n", "10,20", "--reps", "100"],
        ["simulate", "corrtransfer", "--n", "10", "--reps", "100", "--rho=0.5"],
        ["simulate", "gh", "--n", "10", "--g", "0.2", "--h", "0.2"],
    ]
    runs = "; ".join(f"assert errstat.cli.run({argv!r}) == 0" for argv in argvs)
    assert _scipy_modules_after(f"import errstat.cli; {runs}") == []
