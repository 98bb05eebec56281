#!/usr/bin/env python3
"""Total and code lines of each module of src/ellimage.

A code line holds at least one token of Python code: blank lines, comments
and docstrings (strings that stand alone as statements) are not code.  With
--against REV, each module's counts at the git revision REV are printed
next to the current ones, with the net change.

    python scripts/netlines.py
    python scripts/netlines.py --against HEAD~1
"""

import argparse
import ast
import io
import subprocess
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/ellimage"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def counts(source):
    "(total lines, code lines) of the text of a module."
    docstrings = [((node.lineno, node.col_offset), (node.end_lineno, node.end_col_offset))
                  for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Expr)
                  and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)]
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NOT_CODE or tok.type == tokenize.STRING and any(
                start <= tok.start < end for start, end in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def package_counts(rev=None):
    "{module file name: (total, code)} for the working tree, or for a git revision."
    if rev is None:
        paths = sorted((ROOT / PACKAGE).glob("*.py"))
        return {path.name: counts(path.read_text()) for path in paths}
    git = lambda *args: subprocess.run(("git",) + args, cwd=ROOT, check=True,
                                       capture_output=True, text=True).stdout
    names = [Path(p).name for p in git("ls-tree", "--name-only", rev, PACKAGE + "/").split()
             if p.endswith(".py")]
    return {name: counts(git("show", "%s:%s/%s" % (rev, PACKAGE, name))) for name in names}


def table(now, before=None, rev=None):
    """The printed lines: total and code lines of each module and of the
    package, then, given the counts `before` at `rev`, those and the net."""
    sides = [now] if before is None else [now, before]
    rows = [(name, [side.get(name, (0, 0)) for side in sides])
            for name in sorted(set().union(*sides))]
    rows.append(("package", [tuple(map(sum, zip(*side.values()))) for side in sides]))
    out = ["%-14s %6s %6s" % ("module", "total", "code")
           + ("   %13s   %13s" % ("at " + rev, "net") if before is not None else "")]
    for name, cells in rows:
        line = "%-14s %6d %6d" % ((name,) + cells[0])
        if before is not None:
            (total, code), (total0, code0) = cells
            line += "   %6d %6d   %+6d %+6d" % (total0, code0, total - total0, code - code0)
        out.append(line)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV",
                        help="also print the counts at this git revision and the net change")
    args = parser.parse_args(argv)
    before = package_counts(args.against) if args.against else None
    print("\n".join(table(package_counts(), before, args.against)))


if __name__ == "__main__":
    main()
