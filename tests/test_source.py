import ast
import re
import sys
from pathlib import Path

import ellimage

PACKAGE = Path(ellimage.__file__).parent
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path, ast.parse(path.read_text(), str(path))


def test_package_has_no_assert_statements():
    # python -O strips asserts, so every check in the package must raise
    found = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


def test_no_third_party_dependencies():
    # the package is pure Python: pyproject declares no dependencies and
    # every import is package-relative or from the standard library
    assert re.search(r"^dependencies = \[\]$", PYPROJECT.read_text(), re.MULTILINE)
    found = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += ["%s:%d %s" % (path.name, node.lineno, name) for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert found == []
