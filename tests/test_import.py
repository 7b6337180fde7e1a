import ast
import importlib
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import errstat
from errstat.simulation import SCENARIOS


def _modules_after(statement):
    """Sorted names of the modules a fresh interpreter has loaded after `statement`."""
    code = f"import sys; {statement}; print(sorted(sys.modules))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(errstat.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    return ast.literal_eval(proc.stdout.strip().splitlines()[-1])


def _within(modules, *packages):
    return [m for m in modules if any(m == p or m.startswith(p + ".") for p in packages)]


def _scipy_modules_after(statement):
    return _within(_modules_after(statement), "scipy")


def _run_all(argvs):
    return "import errstat.cli; " + "; ".join(f"assert errstat.cli.run({argv!r}) == 0" for argv in argvs)


def _every_command(tmp_path):
    """One invocation of each subcommand, and a table with uRef and u: columns, whose spread warns."""
    rows = np.random.default_rng(0).normal(size=(40, 4)).tolist()
    table = tmp_path / "t.csv"
    lines = ["System,Ref,M1,M2,M3"] + [f"s{i}," + ",".join(map(repr, r)) for i, r in enumerate(rows)]
    table.write_text("\n".join(lines) + "\n")
    spread = tmp_path / "u.csv"
    lines = ["System,Ref,uRef,M1,u:M1,M2"] + [f"s{i},{r[0]!r},{0.1 + 10 * (i == 3)},{r[1]!r},0.2,{r[2]!r}"
                                            for i, r in enumerate(rows)]
    spread.write_text("\n".join(lines) + "\n")
    t, out = str(table), str(tmp_path / "out")
    return [
        ["stats", t, "--stat", "q95", "--boot", "100"],
        ["stats", str(spread), "--stat", "mue", "--boot", "100"],
        ["compare", t, "--pair", "M1,M2", "--stat", "q95", "--boot", "100"],
        ["rank", t, "--stat", "q95", "--boot", "100", "--svg", out + "_rank.svg"],
        ["sip", t, "--svg", out + "_sip.svg"],
        ["sip", t, "--pair", "M1,M2", "--ecdf", out + "_ecdf.svg", "--abs-ecdf", out + ".svg", "--boot", "100"],
        ["corr", t, "--svg", out + "_corr.svg"],
        ["simulate", "type1", "--stat", "q95", "--scenarios=normal", "--n", "10", "--reps", "100", "--boot", "100"],
        ["simulate", "hdstudy", "--n", "10,20", "--reps", "100"],
        ["simulate", "corrtransfer", "--n", "10", "--reps", "100", "--rho=0.5"],
        ["simulate", "gh", "--n", "10", "--g", "0.2", "--h", "0.2"],
    ]


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
    assert _scipy_modules_after(_run_all(_every_command(tmp_path))) == []


def test_no_command_loads_numpy_ma_or_polynomial(tmp_path):
    # np.percentile, np.median and np.unique import numpy.ma, and leggauss
    # numpy.polynomial: the bootstrap intervals, the study summaries, the
    # uncertainty screen and the Harrell-Davis weights use errstat's own rules
    # and constants instead.
    loaded = _modules_after(_run_all(_every_command(tmp_path)))
    assert _within(loaded, "numpy.ma", "numpy.polynomial") == []
    assert "errstat.render" in loaded  # the figures were drawn too


def test_cli_cold_import_loads_only_what_parsing_needs():
    # Each command imports the layers it runs when it runs.
    loaded = _modules_after("import errstat.cli")
    assert _within(loaded, "errstat") == ["errstat", "errstat.cli", "errstat.dataset", "errstat.estimators"]


def test_stats_and_compare_load_only_inference(tmp_path):
    argvs = [argv for argv in _every_command(tmp_path) if argv[0] in ("stats", "compare")]
    loaded = _within(_modules_after(_run_all(argvs)), "errstat")
    assert loaded == ["errstat", "errstat.cli", "errstat.dataset", "errstat.estimators", "errstat.inference"]


def test_sip_matrix_and_corr_load_no_resampling_code(tmp_path):
    # Neither command resamples: only `sip --pair` imports inference.
    argvs = [argv for argv in _every_command(tmp_path)
             if argv[0] == "corr" or argv[0] == "sip" and "--pair" not in argv]
    loaded = _modules_after(_run_all(argvs))
    assert "errstat.sip" in loaded and "errstat.correlation" in loaded
    assert _within(loaded, "errstat.inference", "numpy.random") == []


def test_package_names_resolve_on_first_access():
    # `import errstat` loads no submodule; a public name or a submodule is
    # imported when first used, and `import *` yields every public name.
    statement = (
        "import errstat; assert [m for m in sys.modules if m.startswith('errstat')] == ['errstat']; "
        "from errstat import compare_pair; import errstat.inference as inf; assert compare_pair is inf.compare_pair; "
        "assert errstat.render.render_matrix and 'sip_matrix' in dir(errstat) and 'sip' in dir(errstat); "
        "ns = {}; exec('from errstat import *', ns); assert set(errstat.__all__) <= set(ns); "
        "assert not hasattr(errstat, 'no_such_name')"
    )
    loaded = _within(_modules_after(statement), "errstat")
    assert "errstat.render" in loaded and "errstat.simulation" in loaded
    for name in errstat.__all__:
        defined_in = importlib.import_module(f"errstat.{errstat._DEFINED_IN[name]}")
        assert getattr(errstat, name) is getattr(defined_in, name)


def test_no_errstat_module_uses_numpy_ma_or_polynomial():
    # Static guard: np.percentile, np.quantile, np.median and np.unique import
    # numpy.ma on first use, so the package calls none of them, nor numpy.ma
    # or numpy.polynomial themselves.
    banned_calls = {"percentile", "quantile", "median", "nanpercentile", "nanquantile", "nanmedian", "unique"}
    banned_modules = ("numpy.ma", "numpy.polynomial")
    package = pathlib.Path(errstat.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"numpy.{alias.name}" for alias in node.names if node.module == "numpy"]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                names = [f"numpy.{node.attr}"]
            found += [f"{path.name}:{node.lineno} {n}" for n in names
                      if _within([n], *banned_modules, *(f"numpy.{c}" for c in banned_calls))]
    assert not found, found


def test_no_errstat_module_calls_blas():
    # Static guard: every sum goes through estimators.weighted_sums (einsum
    # without `optimize`), never BLAS, so results do not depend on the BLAS
    # thread count and the CLI may start numpy with one OpenBLAS thread.
    banned = {"@", "dot", "vdot", "inner", "matmul", "tensordot", "cov", "corrcoef", "linalg",
              "einsum optimize="}
    package = pathlib.Path(errstat.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                names = ["@"]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Import):
                names = [part for alias in node.names for part in alias.name.split(".")]
            elif isinstance(node, ast.ImportFrom):
                names = (node.module or "").split(".") + [alias.name for alias in node.names]
            elif isinstance(node, ast.Call):
                func = getattr(node.func, "attr", getattr(node.func, "id", ""))
                names = [f"{func} {k.arg}=" for k in node.keywords]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n in banned]
    assert not found, found


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _blas_state_after(statement, **preset):
    """The BLAS thread variables and the thread count of a fresh interpreter after `statement`.

    The interpreter starts with none of BLAS_THREAD_VARS set but `preset`:
    this process may itself have set one by importing errstat.cli.
    """
    code = (f"import os, sys; {statement}; "
            "threads = [l.split()[1] for l in open('/proc/self/status') if l.startswith('Threads:')] "
            "if sys.platform == 'linux' else []; "
            f"print(repr(({{v: os.environ[v] for v in {BLAS_THREAD_VARS!r} if v in os.environ}}, threads)))")
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(preset, PYTHONPATH=os.path.dirname(os.path.dirname(errstat.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    return ast.literal_eval(proc.stdout.strip().splitlines()[-1])


def test_cli_starts_numpy_with_one_openblas_thread():
    variables, threads = _blas_state_after("import errstat.cli")
    assert variables == {"OPENBLAS_NUM_THREADS": "1"}
    assert threads == _blas_state_after("import numpy", OPENBLAS_NUM_THREADS="1")[1]


@pytest.mark.parametrize("preset", [{"OMP_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": "2"},
                                    {"GOTO_NUM_THREADS": "2"}])
def test_cli_keeps_a_blas_thread_count_the_user_set(preset):
    assert _blas_state_after("import errstat.cli", **preset)[0] == preset


@pytest.mark.parametrize("statement", ["import numpy, errstat.cli", "import errstat, errstat.inference"])
def test_blas_threads_are_left_alone_unless_the_cli_imports_numpy(statement):
    # Once numpy is loaded the variable would only reach child processes;
    # and a program that imports the library keeps its BLAS threads.
    assert _blas_state_after(statement)[0] == {}
