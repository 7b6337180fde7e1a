"""Every public name is real and has a user: another module or the README.

A name in a module's `__all__` must exist (tools that walk `__all__`,
such as a tracer wrapping every public function, call getattr on each
entry) and must be used in the code of another errstat module or named
in the README's Library section, the documented library surface.
"""

import ast
import importlib
import pathlib
import re

import pytest

import errstat

PACKAGE = pathlib.Path(errstat.__file__).parent
README = PACKAGE.parents[1] / "README.md"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
WITH_ALL = [m for m in MODULES if hasattr(importlib.import_module(f"errstat.{m}"), "__all__")]


def _names_used(module):
    """Identifiers the code of `module` reads, imports or looks up as attributes."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def _library_section():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library\n(.*?)(?=^## |\Z)", text, flags=re.S | re.M)
    assert match, "README has no Library section"
    return match.group(1)


@pytest.mark.parametrize("module", WITH_ALL)
def test_public_names_exist_and_are_used(module):
    mod = importlib.import_module(f"errstat.{module}")
    public = mod.__all__
    missing = [name for name in public if not hasattr(mod, name)]
    assert not missing, f"errstat.{module}.__all__ lists missing names {missing}"
    used = set().union(*(_names_used(other) for other in MODULES if other != module))
    library = _library_section()
    unused = [name for name in public if name not in used and not re.search(rf"\b{re.escape(name)}\b", library)]
    assert not unused, f"errstat.{module} exports names nothing uses or documents: {unused}"


def test_no_class_defines_to_dict():
    # Reports become JSON through one encoder in the CLI, built from their dataclass fields.
    offenders = [
        f"{path.stem}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(item, ast.FunctionDef) and item.name == "to_dict" for item in node.body)
    ]
    assert not offenders, f"classes with a hand-written to_dict: {offenders}"


def test_version_has_one_source():
    # pyproject.toml reads the version from errstat.__version__ and states none itself.
    tomllib = pytest.importorskip("tomllib")
    text = (PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    project = tomllib.loads(text)
    assert "version" not in project["project"] and "version" in project["project"]["dynamic"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "errstat.__version__"}
    assert errstat.__version__ not in text
