import ast
import importlib
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import ellimage

PACKAGE = Path(ellimage.__file__).parent
TESTS = Path(__file__).resolve().parent
PYPROJECT = TESTS.parent / "pyproject.toml"


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


def _absolute_imports():
    "'file:line module' for every absolute import in the package."
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                yield "%s:%d %s" % (path.name, node.lineno, name)


def test_no_third_party_dependencies():
    # the package is pure Python: pyproject declares no dependencies and
    # every import is package-relative or from the standard library
    assert re.search(r"^dependencies = \[\]$", PYPROJECT.read_text(), re.MULTILINE)
    found = [imp for imp in _absolute_imports()
             if imp.split()[1].split(".")[0] not in sys.stdlib_module_names]
    assert found == []


def test_package_does_not_import_dataclasses():
    # records are namedtuples: importing dataclasses pulls in inspect, ast
    # and dis, which every fresh CLI process would pay for
    assert [imp for imp in _absolute_imports()
            if imp.split()[1].split(".")[0] == "dataclasses"] == []


def test_test_imports_are_in_the_test_extra():
    # `pip install -e .[test]` must install every third-party package that a
    # test module imports
    extra = re.search(r"^test = \[(.*)\]$", PYPROJECT.read_text(), re.MULTILINE)
    named = set(re.findall(r'"([^"]+)"', extra.group(1)))
    local = {"ellimage"} | {path.stem for path in TESTS.glob("*.py")}
    found = []
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [name.split(".")[0] for name in names]
    third_party = {name for name in found
                   if name not in sys.stdlib_module_names and name not in local}
    assert {"pytest", "hypothesis"} <= third_party <= named


def test_orbits_submodule_is_not_shadowed():
    # the package exports gamma0_orbits and gamma1_orbits but not the
    # function orbits, which would hide the submodule of the same name
    import ellimage.orbits as module
    assert isinstance(ellimage.orbits, types.ModuleType)
    assert module is sys.modules["ellimage.orbits"]
    assert "orbits" not in ellimage.__all__
    assert ellimage.gamma1_orbits is module.gamma1_orbits
    assert ellimage.gamma0_orbits is module.gamma0_orbits


# ---------------------------------------------------------------------------
# import footprint: each CLI verb loads only the modules it runs

LOADED = """
import json, sys
%s
print(json.dumps([sorted(m for m in sys.modules if m.split(".")[0] == "ellimage"),
                  "dataclasses" in sys.modules, "fractions" in sys.modules]))
"""

# what `import ellimage.cli` loads; modcurves comes with a verb that computes a genus
CORE = ["ellimage", "ellimage.errors", "ellimage.gl2", "ellimage.labelio",
        "ellimage.modarith"]


def _loaded(code):
    """The ellimage modules loaded by running code in a fresh interpreter,
    and whether dataclasses and fractions were loaded."""
    r = subprocess.run([sys.executable, "-c", LOADED % code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    modules, dataclasses, fractions = json.loads(r.stdout.splitlines()[-1])
    return modules, dataclasses, fractions


def test_importing_the_package_loads_no_submodule():
    assert _loaded("import ellimage") == (["ellimage"], False, False)
    assert _loaded("import ellimage.cli") == (sorted(CORE + ["ellimage.cli"]), False, False)


def test_cli_import_leaves_importlib_resources_unloaded():
    # the bundled data files are read next to cli.py; -S keeps site's own
    # imports out of the picture
    code = "import sys, ellimage.cli; print('importlib.resources' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    r = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                       env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "False\n"


@pytest.fixture(scope="module")
def small_file(tmp_path_factory):
    from ellimage.cli import _bundled_records
    from ellimage.labelio import serialize_records
    path = tmp_path_factory.mktemp("footprint") / "small.txt"
    path.write_text(serialize_records([r for r in _bundled_records()
                                       if r.rszb_label in ("5.6.0.1", "7.8.0.1")]))
    return str(path)


@pytest.mark.parametrize("verb, args, extra", [
    ("info", ["--cartan", "borel", "--mod", "7"], ["ellimage.modcurves"]),
    ("validate", ["--gens-file", "{small}"], ["ellimage.modcurves"]),
    ("filter", ["--family", "gamma1", "--cartan", "borel", "--mod", "7"],
     ["ellimage.isolated", "ellimage.modcurves", "ellimage.orbits"]),
    ("batch", ["--family", "gamma0", "--gens-file", "{small}"],
     ["ellimage.isolated", "ellimage.modcurves", "ellimage.orbits"]),
    ("lattice-check", ["--cartan", "borel", "--mod", "5"], ["ellimage.lattice"]),
])
def test_verb_loads_only_its_modules(verb, args, extra, small_file):
    # no verb loads dataclasses or fractions
    argv = [verb] + [a.format(small=small_file) for a in args]
    argv += ["--threads", "1", "--out", os.devnull]
    code = "from ellimage.cli import main\nassert main(%r) in (0, 10)" % argv
    assert _loaded(code) == (sorted(CORE + ["ellimage.cli"] + extra), False, False)


def test_exports_resolve_to_the_submodule_objects():
    names = set(dir(ellimage))
    for name in ellimage.__all__:
        obj = getattr(ellimage, name)
        # the two j-invariant tables are the only exports that are not
        # classes or functions; they live in knownj
        home = importlib.import_module(getattr(obj, "__module__", "ellimage.knownj"))
        assert home.__name__.startswith("ellimage.") and getattr(home, name) is obj, name
        assert name in names
    with pytest.raises(AttributeError):
        ellimage.no_such_name


README = TESTS.parent / "README.md"


def _readme_commands():
    """(argv, documented exit code) for each line of the README's "Command
    line" block; a line without an `# exit N` comment documents success."""
    block = README.read_text().split("## Command line\n", 1)[1].split("```")[1]
    out = []
    for line in block.splitlines():
        if line.startswith("ellimage "):
            command, _, comment = line.partition("#")
            code = re.match(r"\s*exit (\d+)", comment) if comment else None
            out.append((command.split()[1:], int(code.group(1)) if code else 0))
    return out


def test_readme_commands_exit_as_documented(capsys):
    from ellimage.cli import main
    commands = _readme_commands()
    assert ["filter", "--family", "gamma1", "--label", "17.72.1.2"] in [a for a, _ in commands]
    for argv, code in commands:
        assert main(argv) == code, " ".join(argv)
        assert capsys.readouterr().out
