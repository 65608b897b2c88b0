"""Count the code lines of each module of ``src/bryantflux/``.

A code line is a line that holds a token other than a comment or a
docstring, where a docstring is the first string statement of a module,
class or function.  Blank lines, comment lines and docstrings do not
count; a string token spanning several lines counts on each of them.

Run from the repository root:

    python tools/code_lines.py [package_dir]

It prints one row per module and the total.
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
    root = Path(argv[0] if argv else
                Path(__file__).resolve().parent.parent / "src" / "bryantflux")
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path)
        total += n
        print("%-10s %6d" % (path.stem, n))
    print("%-10s %6s" % ("total", format(total, ",")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
