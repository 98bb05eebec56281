import ast
import importlib.util
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


def test_only_the_filtration_reads_the_chain_tables():
    # the stabilizer chain's tables are read through Filtration's methods
    # (lift, least, generators, sizes): no code outside class Filtration
    # reads the attribute `.orbits`
    found = []
    for path, tree in _trees():
        inside = {id(node) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and cls.name == "Filtration"
                  for node in ast.walk(cls)}
        found += ["%s:%d" % (path.name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "orbits"
                  and isinstance(node.ctx, ast.Load) and id(node) not in inside]
    assert found == []


def _functions(node, prefix=""):
    "(qualified name, node) of every function and method defined under node."
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            if isinstance(child, ast.FunctionDef):
                yield prefix + child.name, child
            yield from _functions(child, prefix + child.name + ".")
        else:
            yield from _functions(child, prefix)


# the enumeration cap is carried by each group: only the walk primitives and
# the entry points that make a group take it as a parameter
CAP_PARAMETERS = {"gl2.orbit", "gl2.partition", "gl2.extend", "gl2.Filtration.__init__",
                  "lattice.KernelModule.stable_subspaces", "gl2.MatrixGroup.__init__",
                  "gl2.build_cartan", "labelio.ImageRecord.group", "labelio.validate_record",
                  "cli.RunConfig.__new__"}


def test_only_walks_and_group_makers_take_a_cap():
    takers, explicit = set(), []
    for path, tree in _trees():
        for name, node in _functions(tree):
            args = node.args
            if "cap" in [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]:
                takers.add("%s.%s" % (path.stem, name))
        # a call that passes DEFAULT_CAP would set aside the cap of a group
        explicit += ["%s:%d" % (path.name, node.lineno) for node in ast.walk(tree)
                     if isinstance(node, ast.Call) and any(
                         isinstance(value, ast.Name) and value.id == "DEFAULT_CAP"
                         for value in node.args + [k.value for k in node.keywords])]
    assert takers == CAP_PARAMETERS
    assert explicit == []


def test_one_layer_step_builds_the_complements():
    # the structured classification and preimage rigidity take their
    # candidates from one layer step, which averages in one place, and no
    # walk lists the elements of G(ell)
    tree = ast.parse((PACKAGE / "lattice.py").read_text())
    functions = dict(_functions(tree))
    calls = lambda node, callee: [call for call in ast.walk(node) if isinstance(call, ast.Call)
                                  and isinstance(call.func, ast.Name) and call.func.id == callee]
    averaging = [call for _, module in _trees() for call in calls(module, "_averaged_section")]
    assert len(averaging) == 1
    assert "_build_candidate" not in functions
    assert sorted(name for name, node in functions.items() if calls(node, "_layer_step")) == [
        "_stable_subspace_classes", "preimage_rigidity"]
    walks = [node.value for call in calls(tree, "orbit") for node in ast.walk(call)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert "subgroup joins" in walks
    assert not [name for name in walks if name.startswith("elements of G(")]


def test_det_g_lists_no_unit():
    # det G is held as a group, D = <diag(det g, 1)>: no orbit walk of the
    # package lists the units of det G, and modcurves keys no dict by
    # determinant residues
    walks = [node.value for _, tree in _trees() for call in ast.walk(tree)
             if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
             and call.func.id == "orbit"
             for node in ast.walk(call) if isinstance(node, ast.Constant)
             and isinstance(node.value, str)]
    assert walks and not [name for name in walks if "determinant" in name]
    tree = ast.parse((PACKAGE / "modcurves.py").read_text())
    residue_keys = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.DictComp)
                    and isinstance(node.key, ast.BinOp) and isinstance(node.key.op, ast.Mod)]
    assert residue_keys == []


# the guarded errors: a raise of one of them is a check the program makes
GUARDED = {"CertificateError", "SearchBudgetError", "EnumerationCapError", "ArithmeticError"}
# raise sites that no injection reaches without breaking the inputs of the
# computation they check; each has a comment in src that starts with
# "construction invariant:" on the line above it and says why
CONSTRUCTION_INVARIANTS = {
    "gl2.py": {"order %d does not divide ambient %d",
               "no generator found for nonsplit Cartan mod %d",
               "Teichmuller lift %r does not have order %d",
               "semidirect construction has order %d, expected %d"},
    "modarith.py": {"order computation failed for %r mod %d"},
}


def _messages(node):
    "The format strings the message of a raise can take."
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        return _messages(node.left)
    if isinstance(node, ast.IfExp):
        return _messages(node.body) + _messages(node.orelse)
    return []


def _guard_sites():
    "(module, line, format string) of each raise of a guarded error in the package."
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) \
                    and getattr(node.exc.func, "id", None) in GUARDED:
                messages = _messages(node.exc.args[0]) if node.exc.args else []
                assert messages, "%s:%d has no literal message" % (path.name, node.lineno)
                for message in messages:
                    yield path.name, node.lineno, message


def _test_texts():
    """The texts a test can match a message in: the string constants of
    each top-level statement of the other test modules, joined in source
    order with their regex escapes dropped, and each expected-output file
    under tests/data."""
    texts = [path.read_text() for path in sorted((TESTS / "data").glob("*.txt"))]
    for path in sorted(TESTS.glob("test_*.py")):
        if path.name == Path(__file__).name:
            continue
        for statement in ast.parse(path.read_text()).body:
            strings = sorted((node.lineno, node.col_offset, node.value)
                             for node in ast.walk(statement) if isinstance(node, ast.Constant)
                             and isinstance(node.value, str))
            texts.append("\n".join(re.sub(r"\\(.)", r"\1", s) for _, _, s in strings))
    return texts


def test_every_guard_is_reached_or_an_invariant():
    # a check no test can make fail is a check nobody knows works: each
    # raise of a guarded error has a test whose strings hold its message,
    # its conversions read as wildcards, or is a listed construction invariant
    texts = _test_texts()
    unreached, invariants = [], {}
    for name, lineno, message in _guard_sites():
        above = (PACKAGE / name).read_text().splitlines()[lineno - 2].strip()
        if above.startswith("# construction invariant:"):
            invariants.setdefault(name, set()).add(message)
            continue
        pieces = [re.escape(p.strip()) for p in re.split(r"%[-\d.]*[a-z]", message) if p.strip()]
        pattern = re.compile(".*".join(pieces), re.DOTALL)
        if not any(pattern.search(text) for text in texts):
            unreached.append("%s:%d %s" % (name, lineno, message))
    assert unreached == []
    assert invariants == CONSTRUCTION_INVARIANTS


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


NETLINES = TESTS.parent / "scripts" / "netlines.py"


def _netlines(*args):
    "The rows of scripts/netlines.py's table: {name: [numbers...]}."
    r = subprocess.run([sys.executable, str(NETLINES), *args], capture_output=True, text=True,
                       check=True)
    return {name: [int(x) for x in rest] for name, *rest in
            (line.split() for line in r.stdout.splitlines()[1:])}


def test_netlines_counts_the_package():
    spec = importlib.util.spec_from_file_location("netlines", NETLINES)
    netlines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(netlines)
    source = ('"""Module docstring."""\n\nimport os  # comment\n\n\ndef f(x):\n'
              '    """Function\n    docstring."""\n    # comment\n    s = """a string\n'
              '    that is code"""\n    return s\n')
    # code: the import, the def, the two lines of s = ... and the return
    assert netlines.counts(source) == (12, 5)
    rows = _netlines()
    paths = sorted(PACKAGE.glob("*.py"))
    assert sorted(rows) == sorted([p.name for p in paths] + ["package"])
    for path in paths:
        total, code = rows[path.name]
        assert total == len(path.read_text().splitlines()) and 0 < code < total, path.name
    assert rows["package"] == [sum(rows[p.name][i] for p in paths) for i in (0, 1)]


def test_netlines_against_a_revision():
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=TESTS.parent,
                      capture_output=True).returncode:
        pytest.skip("not a git checkout")
    now = _netlines()
    rows = _netlines("--against", "HEAD")
    for name, (total, code, total0, code0, net_total, net_code) in rows.items():
        assert [total, code] == now.get(name, [0, 0])
        assert (net_total, net_code) == (total - total0, code - code0)
