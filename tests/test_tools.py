"""The scripts under tools/: code_lines.py run as a script on small
packages, ab_builds.py and ab_quadrature.py run as scripts on the
package's own source tree, and same_outputs.py in process, as its main
compares two trees, with the package's own tree's outputs computed once
per session; the outputs it compares for one spec are also read one by
one."""

import importlib.util
import json
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "code_lines.py"
SAME_OUTPUTS = ROOT / "tools" / "same_outputs.py"
AB_BUILDS = ROOT / "tools" / "ab_builds.py"
AB_QUADRATURE = ROOT / "tools" / "ab_quadrature.py"


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


def test_several_directories_and_a_grand_total(tmp_path):
    for name, source in (("one", "x = 1\n"), ("two", "y = 2\nz = 3\n")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "mod.py").write_text(source)
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path / "one"),
                          str(tmp_path / "two")], capture_output=True,
                         text=True, check=True).stdout
    assert [line.split() for line in out.splitlines()] == [
        ["one/mod", "1"], ["one/total", "1"], ["two/mod", "2"],
        ["two/total", "2"], ["total", "3"]]


def load_tool():
    """same_outputs.py imported as a module."""
    spec = importlib.util.spec_from_file_location("same_outputs",
                                                  SAME_OUTPUTS)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.fixture(scope="session")
def tree_outputs():
    """same_outputs.py's outputs of the package's own source tree,
    computed once per session: each comparison below takes them as its
    parent."""
    return load_tool().tree_outputs(ROOT / "src", "bryantflux_tree")


def same_outputs(parent, change):
    """(exit code, stdout) of same_outputs.py on a tree whose outputs are
    ``parent`` and the source tree ``change``, computed in process as the
    script computes them."""
    tool = load_tool()
    code, text = tool.report(parent, tool.tree_outputs(change,
                                                       "bryantflux_change"))
    return code, text + "\n"


def test_same_outputs_of_the_tree_and_itself(tree_outputs):
    code, out = same_outputs(tree_outputs, ROOT / "src")
    assert code == 0
    assert out == "712 specs: every output bitwise equal\n"


def test_same_outputs_script_prints_its_usage():
    """Run as a script without two trees, it prints how to run it and
    exits 2."""
    out = subprocess.run([sys.executable, str(SAME_OUTPUTS)],
                         capture_output=True, text=True)
    assert out.returncode == 2
    assert out.stderr == ("Run from the repository root:\n\n"
                          "    python tools/same_outputs.py PARENT_SRC "
                          "CHANGE_SRC\n")


def test_same_outputs_compares_the_cli_runs(tmp_path):
    """Each verify-shaped spec gives the three verify runs, the four flux
    runs, each an exit code and a JSON document, and then the two mesh
    runs, each an exit code and the OBJ text it wrote: 8 rings of 16
    vertices, in one model and the other."""
    import bryantflux

    tool = load_tool()
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(tool.VERIFY_SPECS[2]))
    out = tool.cli_outputs(bryantflux, str(path))
    assert [name for name, _ in out] == [
        "verify --rho 0.02", "verify --rho 0.1", "verify --samples 4096",
        "flux --kind translation --geodesic 0.5-0.2i,inf",
        "flux --kind translation --geodesic 0.1+0.3i,-0.6+0.2i",
        "flux --kind rotation --geodesic 0.5-0.2i,inf",
        "flux --kind rotation --geodesic 0.1+0.3i,-0.6+0.2i",
        "mesh --model halfspace", "mesh --model ball"]
    for _, (code, text) in out[3:7]:
        assert code == 0
        assert set(json.loads(text)) >= {"phi0", "residue_bound", "value"}
    (_, (code, halfspace)), (_, (ball_code, ball)) = out[7:]
    assert code == ball_code == 0
    for obj in (halfspace, ball):
        assert sum(line.startswith("v ") for line in obj.splitlines()) \
            == 8 * 16
    assert halfspace != ball


def test_same_outputs_compares_the_descriptor():
    """Each built spec's descriptor is an output: its type and the exact
    bits of its fields, a finite point in hex and infinity by its repr."""
    import bryantflux

    tool = load_tool()
    handler = tool._Defects()
    horo = {"type": "horospherical", "mu": 2, "h0": [0.5, 0.0],
            "boundary": [2.0, 0.0], "h_perturbation": [[1.0, 0.0], 0.3]}
    cat = {"type": "catenoidal", "mu": 0.5, "axis": [[0.3, 0.1], "inf"],
           "h_perturbation": [0.0, 0.3]}
    assert 64 in tool.ORDERS
    assert dict(tool.outputs(bryantflux, handler, horo, 8))["descriptor"] \
        == ["Horospherical", tool._bits(2 + 0j), tool._bits(1 + 0j)]
    assert dict(tool.outputs(bryantflux, handler, cat, 8))["descriptor"] \
        == ["Catenoidal", tool._bits(0.5), tool._bits(0.3 + 0.1j), "INF"]


def changed_copy(tmp_path, module, old, new):
    """A copy of the package with ``old`` replaced by ``new`` in one
    module, where ``old`` must occur."""
    shutil.copytree(ROOT / "src" / "bryantflux", tmp_path / "bryantflux",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "bryantflux" / (module + ".py")
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    return tmp_path


@pytest.fixture(scope="module")
def four_pi_report(tmp_path_factory, tree_outputs):
    """same_outputs.py's (exit code, stdout) on a copy whose residue scale
    4 pi is one ulp of 4 larger."""
    change = changed_copy(tmp_path_factory.mktemp("four_pi"), "flux",
                          "4.0 * math.pi", "4.000000000000001 * math.pi")
    return same_outputs(tree_outputs, change)


def test_same_outputs_reports_a_changed_constant(four_pi_report):
    """The copy differs in its first flux triple, after equal frames."""
    code, out = four_pi_report
    assert code == 1
    assert out.startswith("first difference: flux_triple of ")


def test_same_outputs_counts_every_output_that_differs(four_pi_report):
    """After the first difference (three lines), one count per output
    that differs anywhere: the copy's triples and their residue bounds,
    which 4 pi scales too, the verify runs, which print the triple's
    bound and defects, the flux runs, which print the triple and the
    field's flux, and not its frames."""
    code, out = four_pi_report
    assert code == 1
    tool = load_tool()
    for name, tally in zip(("flux_triple", "residue_bound",
                            "verify --rho 0.02", "verify --rho 0.1",
                            "verify --samples 4096")
                           + tuple(name for name, _ in tool.FLUX_RUNS),
                           out.splitlines()[3:], strict=True):
        assert re.fullmatch(re.escape(name) + r": [1-9]\d* of [1-9]\d* specs",
                            tally)
    assert "frame_to_json" not in out


def test_same_outputs_reports_a_changed_quadrature(tmp_path, tree_outputs):
    """A copy whose trapezoid weight 2 pi / N is one ulp of 2 larger
    differs in its first quadrature triple, after equal residues."""
    change = changed_copy(tmp_path, "flux", "scale = 2.0 * math.pi / n",
                          "scale = 2.0000000000000004 * math.pi / n")
    code, out = same_outputs(tree_outputs, change)
    assert code == 1
    assert out.startswith("first difference: circle_samples of ")


def test_same_outputs_reads_the_older_quadrature_record(tmp_path,
                                                       monkeypatch):
    """A copy whose circle_samples returns the older record's shape, the
    triple as ``triple`` next to its ``roundoff``, gives the tree's
    outputs bit for bit on every spec of the grid at order 8."""
    import bryantflux

    tool = load_tool()
    change = changed_copy(tmp_path / "src", "__init__",
                          '__version__ = "0.1.0"',
                          "def circle_samples(frame, grid, "
                          "_quadrature=circle_samples):\n"
                          "    import types\n"
                          "    t = _quadrature(frame, grid)\n"
                          "    return types.SimpleNamespace(triple=FluxTriple("
                          "t.phi0, t.phi1, t.phi2), roundoff=t.roundoff)\n"
                          '__version__ = "0.1.0"')
    monkeypatch.syspath_prepend(str(tmp_path))
    older = tool.load(change, "bryantflux_older", tmp_path)
    assert not isinstance(older.circle_samples(
        older.catenoid_cousin_frame(0.5), older.QuadratureGrid(0.1, 64)),
        older.FluxTriple)
    handler = tool._Defects()
    specs = [spec for spec, order in tool.specs() if order == 8]
    assert specs
    for spec in specs:
        assert tool.outputs(older, handler, spec, 8, True) \
            == tool.outputs(bryantflux, handler, spec, 8, True)


def test_same_outputs_reports_a_changed_geodesic_draw(tmp_path,
                                                     tree_outputs):
    """A copy whose verify draws its geodesics from the next seed differs
    in the CLI's verify output of every run, and in no other output."""
    change = changed_copy(tmp_path, "cli",
                          "np.random.default_rng(args.seed)",
                          "np.random.default_rng(args.seed + 1)")
    code, out = same_outputs(tree_outputs, change)
    assert code == 1
    assert out.startswith("first difference: verify --rho 0.02 of ")
    for name, tally in zip(("verify --rho 0.02", "verify --rho 0.1",
                            "verify --samples 4096"), out.splitlines()[3:],
                           strict=True):
        assert re.fullmatch(r"%s: [1-9] of 3 specs" % re.escape(name),
                            tally)


def test_same_outputs_grid_sees_the_root_formula(tmp_path, monkeypatch):
    """The grid holds mu = 0.6, where the upper catenoidal root read from
    the discriminant of the double h(0) is one ulp off (1 - mu)/2: a copy
    that reads the roots so builds another standard frame there."""
    import bryantflux

    tool = load_tool()
    spec = {"type": "catenoidal", "mu": 0.6, "axis": [[0.0, 0.0], "inf"],
            "h_perturbation": [0.0, 0.01]}
    assert (spec, 8) in tool.specs()
    change = changed_copy(
        tmp_path / "src", "ends", "return (-1.0 - mu) / 2.0, (1.0 - mu) / 2.0",
        "b = 1.0 + self.s\n"
        "        disc = cmath.sqrt(b * b + 4.0 * (mu * complex("
        "self.h.coeffs[0])))\n"
        "        return ((b - disc) / 2.0).real, ((b + disc) / 2.0).real")
    monkeypatch.syspath_prepend(str(tmp_path))
    discriminant = tool.load(change, "bryantflux_discriminant", tmp_path)
    assert tool.canonical(discriminant, spec, 8) \
        != tool.canonical(bryantflux, spec, 8)


def test_ab_builds_times_one_pass_of_each_tree():
    """One pass of the survey pool's builds and triples per tree: the
    pool's size, each tree's best pass with its build_end and
    flux_triple times, and their ratio."""
    out = subprocess.run([sys.executable, str(AB_BUILDS), str(ROOT / "src"),
                          str(ROOT / "src"), "--seed", "1", "--passes", "1"],
                         capture_output=True, text=True, check=True).stdout
    first, parent, change, ratio = out.splitlines()
    assert re.fullmatch(r"seed 1: [1-9]\d* builds per pass, 1 passes per "
                        r"tree", first)
    for name, line in (("parent", parent), ("change", change)):
        assert re.fullmatch(name + r": best pass \d+\.\d\d ms \(build_end "
                            r"\d+\.\d\d, flux_triple \d+\.\d\d\)", line)
    assert re.fullmatch(r"change / parent: \d+\.\d{3}", ratio)


def test_ab_quadrature_times_one_pass_of_each_tree():
    """One pass of the verify pool's circle_samples calls per tree: the
    pool's size, then for each of its N each tree's best pass with its
    faults per call, and their ratio."""
    out = subprocess.run([sys.executable, str(AB_QUADRATURE),
                          str(ROOT / "src"), str(ROOT / "src"), "--seed", "1",
                          "--passes", "1"],
                         capture_output=True, text=True, check=True).stdout
    first, *rows = out.splitlines()
    assert re.fullmatch(r"seed 1: [1-9]\d* calls per pass, 1 passes per "
                        r"tree", first)
    tree = r"%s best pass \d+\.\d\d ms, \d+\.\d faults per call"
    for n, row in zip((256, 1024, 4096), rows, strict=True):
        assert re.fullmatch(r"N %d, [1-9]\d* calls: %s, %s, change / parent "
                            r"\d+\.\d{3}" % (n, tree % "parent",
                                              tree % "change"), row)
