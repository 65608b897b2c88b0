"""tools/code_lines.py, run as a script on small packages."""

import subprocess
import sys
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def count(tmp_path, **modules):
    """The rows of code_lines.py on a package of the given modules, as
    (name, count) pairs in printed order."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    for name, source in modules.items():
        (pkg / (name + ".py")).write_text(textwrap.dedent(source))
    out = subprocess.run([sys.executable, str(TOOL), str(pkg)],
                         capture_output=True, text=True, check=True).stdout
    return [(name, int(n.replace(",", ""))) for name, n in
            (line.split() for line in out.splitlines())]


def test_docstrings_comments_and_blank_lines_do_not_count(tmp_path):
    rows = count(tmp_path, mod='''\
        """Module docstring,
        on two lines."""

        # a comment
        import os  # a trailing comment


        def f(x):
            """Function docstring."""
            # another comment
            return x


        class K:
            """Class
            docstring."""

            async def g(self):
                \'\'\'Method docstring.\'\'\'
                return os
        ''')
    # import, def f, return x, class K, async def g, return os
    assert rows == [("mod", 6), ("total", 6)]


def test_other_strings_count_on_each_line(tmp_path):
    rows = count(tmp_path, mod='''\
        x = 1
        """Not a docstring: the second statement."""


        def f():
            s = """one
        two
        three"""
            return s
        ''')
    # x = 1, the string statement, def f, the three lines of s, return s
    assert rows == [("mod", 7), ("total", 7)]


def test_one_row_per_module_and_a_total(tmp_path):
    rows = count(tmp_path, b="y = 2\n", a="x = 1\n\n\nz = 3\n",
                 c='"""Only a docstring."""\n')
    assert rows == [("a", 2), ("b", 1), ("c", 0), ("total", 3)]
