import ast
import os
import pathlib
import subprocess
import sys

import numpy as np

import errstat
from errstat.simulation import SCENARIOS


def _heavy_modules_after(statement):
    code = (
        f"import sys; {statement}; "
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.stats', 'scipy.integrate'))))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(errstat.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    return proc.stdout.strip().splitlines()[-1]


def test_cli_cold_import_skips_heavy_scipy_subpackages():
    # scipy.stats and scipy.integrate dominate the CLI's start-up time;
    # a cold `import errstat.cli` must load neither.
    assert _heavy_modules_after("import errstat.cli") == "[]"


def test_normal_scenario_needs_no_quadrature():
    # The g-and-h moments are closed forms, so no shape, normal or not,
    # loads scipy.integrate (or scipy.stats).
    runs = [
        f"assert errstat.cli.run(['simulate', 'gh', '--n', '10', '--g', '{p.g}', '--h', '{p.h}']) == 0"
        for p in SCENARIOS.values()
    ]
    runs.append("assert errstat.cli.run(['simulate', 'gh', '--n', '10', '--g', '1e-4', '--h', '0.45']) == 0")
    assert _heavy_modules_after("import errstat.cli; " + "; ".join(runs)) == "[]"


def test_no_errstat_module_imports_scipy_integrate_or_stats():
    # Static guard: the closed forms and scipy.special cover everything the
    # package computes, so neither heavy subpackage may be imported again.
    banned = ("scipy.integrate", "scipy.stats")
    package = pathlib.Path(errstat.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n.startswith(banned)]
    assert not found, found


def _scipy_modules_after(statement):
    code = f"import sys; {statement}; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(errstat.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    return ast.literal_eval(proc.stdout.strip().splitlines()[-1])


def test_scipy_special_is_loaded_only_by_the_commands_that_call_it(tmp_path):
    # scipy.special is about half of a cold start.  Only Harrell-Davis
    # quantiles, compare's p-values and the population statistics of the
    # normal need it, each importing it on first call.
    rows = np.random.default_rng(0).normal(size=(40, 4)).tolist()
    table = tmp_path / "t.csv"
    lines = ["System,Ref,M1,M2,M3"] + [f"s{i}," + ",".join(map(repr, r)) for i, r in enumerate(rows)]
    table.write_text("\n".join(lines) + "\n")
    t = str(table)

    def run_after_import(*argvs):
        runs = "; ".join(f"errstat.cli.run({argv + ['--boot', '100']!r})" for argv in argvs)
        return _scipy_modules_after(f"import errstat.cli; {runs}")

    assert _scipy_modules_after("import errstat.cli") == []
    assert "scipy.special" not in run_after_import(
        ["stats", t, "--stat", "mue"], ["sip", t], ["sip", t, "--pair", "M1,M2"], ["corr", t],
        ["rank", t, "--stat", "mue"],
    )
    assert "scipy.special" in run_after_import(["stats", t, "--stat", "q95"])
    assert "scipy.special" in run_after_import(["compare", t, "--pair", "M1,M2", "--stat", "mue"])
