import os
import subprocess
import sys

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
