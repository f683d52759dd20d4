"""Source hygiene of the package, checked with ``ast`` alone (no linter needed).

Every module imports only names it uses, and no line is wider than 99
columns.  An import marked ``# noqa: F401`` is kept on purpose and exempt;
``__init__.py`` imports to re-export, so its imports are the package's names.
Only ``cli.py`` talks to the user: no other module calls ``print``, names
``sys.stderr`` or imports ``warnings``.
"""

import ast
import pathlib

import pytest

import isoflow

MAX_COLUMNS = 99
SOURCES = sorted(pathlib.Path(isoflow.__file__).parent.glob("*.py"))


def _unused_imports(source):
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_sees_an_unused_import():
    source = "import math\nimport os  # noqa: F401\nfrom sys import argv, path\nprint(argv)\n"
    assert _unused_imports(source) == [(1, "math"), (3, "path")]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _user_output(source):
    """(line, what) of each print call, sys.stderr or warnings import in the module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "print":
            found.append((node.lineno, "print"))
        elif isinstance(node, ast.Attribute) and node.attr == "stderr" \
                and isinstance(node.value, ast.Name) and node.value.id == "sys":
            found.append((node.lineno, "sys.stderr"))
        elif isinstance(node, ast.Import) and any(a.name == "warnings" for a in node.names) \
                or isinstance(node, ast.ImportFrom) and node.module == "warnings":
            found.append((node.lineno, "warnings"))
    return sorted(found)


def test_the_check_sees_user_output():
    source = ("import sys, warnings\nfrom warnings import warn\nprint(1, file=sys.stderr)\n"
              "sys.stdout.write('')\n")
    assert _user_output(source) == [(1, "warnings"), (2, "warnings"), (3, "print"),
                                    (3, "sys.stderr")]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_only_the_cli_talks_to_the_user(path):
    assert _user_output(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_line_over_99_columns(path):
    wide = [i for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > MAX_COLUMNS]
    assert wide == []
