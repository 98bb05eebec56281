import ast
from pathlib import Path

import ellimage

PACKAGE = Path(ellimage.__file__).parent


def test_package_has_no_assert_statements():
    # python -O strips asserts, so every check in the package must raise
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []
