import ast
import os
import subprocess
import sys

import numpy as np

import errstat


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
    # The standard normal has exact moments, so g = h = 0 never imports
    # scipy.integrate; only skewed or heavy-tailed scenarios pay for it.
    assert _heavy_modules_after("import errstat.cli; errstat.cli.run(['simulate', 'gh', '--n', '10'])") == "[]"
    assert "scipy.integrate" in _heavy_modules_after(
        "import errstat.cli; errstat.cli.run(['simulate', 'gh', '--n', '10', '--h', '0.1'])"
    )


def _scipy_modules_after(statement):
    code = f"import sys; {statement}; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(errstat.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    return ast.literal_eval(proc.stdout.strip().splitlines()[-1])


def test_scipy_special_is_loaded_only_by_the_commands_that_call_it(tmp_path):
    # scipy.special is about half of a cold start.  Only Harrell-Davis
    # quantiles, compare's p-values and chi2_weighted need it, each
    # importing it on first call.
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
    chi2 = "from errstat.estimators import chi2_weighted; assert chi2_weighted([0.1, -0.2], [0.1, 0.2], 0) == (2, True)"
    assert "scipy.special" in _scipy_modules_after(chi2)
