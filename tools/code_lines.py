"""Count the code lines of each module of ``src/bryantflux/`` or of
other directories.

A code line is a line that holds a token other than a comment or a
docstring, where a docstring is the first string statement of a module,
class or function.  Blank lines, comment lines and docstrings do not
count; a string token spanning several lines counts on each of them.

Run from the repository root:

    python tools/code_lines.py [dir ...]

It prints one row per module of a directory (``src/bryantflux/`` when
none is given) and the total.  Given several directories, as in

    python tools/code_lines.py src/bryantflux tests

it names each row ``<dir>/<module>``, ends each directory's rows with
its ``<dir>/total`` and prints the total of all of them last, so a
change that moves code from one directory to another shows whether
anything shrank.
"""

import ast
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines of one Python source file."""
    source = path.read_text()
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    roots = [Path(a) for a in argv] or [
        Path(__file__).resolve().parent.parent / "src" / "bryantflux"]
    rows, grand = [], 0
    for root in roots:
        prefix = root.resolve().name + "/" if len(roots) > 1 else ""
        total = 0
        for path in sorted(root.glob("*.py")):
            n = code_lines(path)
            total += n
            rows.append((prefix + path.stem, n))
        if prefix:
            rows.append((prefix + "total", total))
        grand += total
    rows.append(("total", grand))
    width = max(10, *(len(name) for name, _ in rows))
    for name, n in rows:
        print("%-*s %6s" % (width, name, format(n, ",")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
