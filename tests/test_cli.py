import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bryantflux.cli
import bryantflux.flux
import bryantflux.killing
from bryantflux import (ConcurrencyResult, Geodesic, INF, build_end,
                        circle_samples, cross_ratio, flux_for_geodesic,
                        flux_triple, frame_from_json, frame_to_json)
from bryantflux.cli import _to_ball, run

import oracles

CATENOID_SPEC = {"type": "catenoidal", "mu": 0.5,
                 "axis": [[0.0, 0.0], "inf"]}
# The horospherical example of README.md.
HOROSPHERICAL_SPEC = {"type": "horospherical", "mu": 2, "h0": [0.5, 0.0],
                      "h_perturbation": [1.0], "boundary": "inf"}

# h(0)^2 overflows: mu = 2 cannot meet h'(0) = 2 h(0)^2, and at mu = 3 the
# frame coefficients overflow.
H0_OVERFLOW_SPEC = {"type": "horospherical", "mu": 2, "h0": 1e200,
                    "boundary": "inf"}
# The frame builds, but phi0 ~ b^2 overflows.
RESIDUE_OVERFLOW_SPEC = {"type": "horospherical", "mu": 2, "h0": [0.5, 0.0],
                         "h_perturbation": [1.0, 0.5],
                         "boundary": [0.3, 1e200]}
# JSON text nested past the decoder's recursion limit, which json.dumps
# cannot write: it raises RecursionError when read.
NESTED_JSON = "[" * 100000 + "]" * 100000


# A mesh run short of its grid flags; nothing is written when it fails.
MESH_ARGV = ["mesh", "--rho-min", "0.02", "--rho-max", "0.1",
             "--out", os.devnull]
# Stands for a mesh file under the test's tmp_path, which a refused run
# must not create.
MESH_OUT = "<tmp>/end.obj"
# One valid argv for each command of the CLI's table, after the words that
# name it; "<spec>" stands for the README catenoid's spec file.
COMMAND_ARGVS = {
    ("crossratio",): ["0", "1+1i", "2", "inf"],
    ("end", "build"): ["--spec", "<spec>"],
    ("flux",): ["--end", "<spec>", "--geodesic", "0,inf"],
    ("verify",): ["--end", "<spec>", "--samples", "64", "--geodesics", "2"],
    ("balance", "two"): ["--mu", "0.5", "--axis", "0,inf", "--b2", "0"],
    ("balance", "three"): ["--sigma", "1,1,1"],
    ("mesh",): MESH_ARGV[1:] + ["--radial", "2", "--angular", "3",
                                "--end", "<spec>"],
}
# Radii at which the README catenoid's entries overflow: the half-space
# vertices would read -inf and 1e160.
MESH_OVERFLOW_ARGV = ["mesh", "--rho-min", "1e-320", "--rho-max", "1e-310",
                      "--radial", "2", "--angular", "3", "--out", MESH_OUT]
# Ends whose mesh vertices are checked against the Horner reference: a
# catenoidal end with a finite axis and a horospherical end at a finite
# boundary point, both moved off the canonical frame.
MESH_SPECS = {
    "catenoidal-finite-axis": {"type": "catenoidal", "mu": 0.5,
                               "axis": [[0.3, 0.1], [-0.5, 0.2]],
                               "h_perturbation": [0.0, 0.5]},
    "horospherical-finite": dict(RESIDUE_OVERFLOW_SPEC, boundary=[0.3, 0.2]),
}


# The README catenoid's frame as `end build` writes it, parsed.
README_FRAME = json.loads(frame_to_json(build_end(CATENOID_SPEC)[0]))


def _doubled_a_frame(top=None):
    """The frame JSON of CATENOID_SPEC with A's coefficients doubled, so
    that AD - BC = 1 fails, and A's top coefficient set to ``top`` if
    given.  The defects leave the top coefficient out, so a huge one
    changes them not at all, but grows the products that cancel in them."""
    frame = json.loads(frame_to_json(build_end(CATENOID_SPEC)[0]))
    frame["A"]["coeffs"] = [[2.0 * re, 2.0 * im]
                            for re, im in frame["A"]["coeffs"]]
    if top is not None:
        frame["A"]["coeffs"][-1] = [top, 0.0]
    return frame


@pytest.fixture
def catenoid_json(tmp_path):
    path = tmp_path / "catenoid.json"
    path.write_text(json.dumps(CATENOID_SPEC))
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCrossRatio:
    def test_four_integers(self, capsys):
        code, out = run_json(capsys, ["crossratio", "0", "1", "2", "3"])
        assert code == 0
        assert out["value"][0] == pytest.approx(4.0 / 3.0)
        assert out["value"][1] == pytest.approx(0.0)

    def test_infinity_and_complex(self, capsys):
        code, out = run_json(capsys,
                             ["crossratio", "0", "1+1i", "2", "inf"])
        assert code == 0
        # (0, 1+i, 2, inf) = (0-2)/((1+i)-2) = 1+i
        assert out["value"][0] == pytest.approx(1.0)
        assert out["value"][1] == pytest.approx(1.0)


class TestEndBuild:
    def test_frame_json_round_trips(self, catenoid_json, tmp_path, capsys):
        out_path = tmp_path / "frame.json"
        code = run(["end", "build", "--spec", catenoid_json,
                    "--out", str(out_path)])
        capsys.readouterr()
        assert code == 0
        text = out_path.read_text()
        lib_frame, _ = build_end(CATENOID_SPEC)
        assert text.strip() == frame_to_json(lib_frame).strip()
        frame = frame_from_json(text)
        assert frame.validity_radius == lib_frame.validity_radius

    def test_stdout_when_no_out(self, catenoid_json, capsys):
        code = run(["end", "build", "--spec", catenoid_json])
        out = capsys.readouterr().out
        assert code == 0
        frame_from_json(out)

    @pytest.mark.parametrize("spec", [
        {"type": "catenoidal", "mu": 0.5, "axis": [[1.5e308, 0], "inf"],
         "h_perturbation": [0, 100]},
        # placed by the two exact factors, from |b| >= 2^52
        {"type": "horospherical", "mu": 2, "h0": 1e10,
         "h_perturbation": [2e10], "boundary": [1e300, 0]},
    ], ids=["catenoidal", "horospherical-far"])
    def test_placed_frame_overflow_writes_no_file(self, spec, tmp_path,
                                                  capsys):
        # The standard frame is finite; placing it overflows.
        spec_path, out_path = tmp_path / "spec.json", tmp_path / "frame.json"
        spec_path.write_text(json.dumps(spec))
        code = run(["end", "build", "--spec", str(spec_path),
                    "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert json.loads(captured.err) == {
            "error": "DomainError", "message": "the placed frame overflows: "
            "its coefficients are not finite"}
        assert not out_path.exists()


class TestFlux:
    def test_catenoid_vertical_translation(self, catenoid_json, capsys):
        code, out = run_json(capsys, ["flux", "--end", catenoid_json,
                                      "--geodesic", "0,inf",
                                      "--kind", "translation"])
        assert code == 0
        assert out["value"] == pytest.approx(0.75 * math.pi)
        assert abs(out["value"] - 2.35619) < 1e-4

    def test_matches_library_bit_for_bit(self, catenoid_json, capsys):
        code, out = run_json(capsys, ["flux", "--end", catenoid_json,
                                      "--geodesic", "1+2i,-1",
                                      "--kind", "rotation"])
        assert code == 0
        frame, _ = build_end(CATENOID_SPEC)
        expect = flux_for_geodesic(flux_triple(frame),
                                   Geodesic(1.0 + 2.0j, -1.0), "rotation")
        assert out["value"] == expect

    def test_frame_file_input(self, catenoid_json, tmp_path, capsys):
        frame_path = tmp_path / "frame.json"
        run(["end", "build", "--spec", catenoid_json,
             "--out", str(frame_path)])
        capsys.readouterr()
        code, out = run_json(capsys, ["flux", "--frame", str(frame_path),
                                      "--geodesic", "0,inf"])
        assert code == 0
        assert out["value"] == pytest.approx(0.75 * math.pi)

    def test_huge_horospherical_mu_builds(self, tmp_path, capsys):
        # D is truncated at the requested order like A, B and C, so its
        # size does not grow with mu
        path = tmp_path / "horo.json"
        path.write_text(json.dumps({"type": "horospherical", "mu": 1e10,
                                    "boundary": "inf"}))
        code, out = run_json(capsys, ["flux", "--end", str(path),
                                      "--geodesic", "0,inf"])
        assert code == 0
        assert out["value"] == 0.0

    def test_huge_finite_axis_point(self, tmp_path, capsys):
        # phi0 = 2 pi sigma A with sigma = 0.75, A = 1e300, read from the
        # leading coefficients without overflowing the higher ones.
        path = tmp_path / "far.json"
        path.write_text(json.dumps({"type": "catenoidal", "mu": 0.5,
                                    "axis": [[1e300, 0.0], "inf"]}))
        code, out = run_json(capsys, ["flux", "--end", str(path),
                                      "--geodesic", "0,inf"])
        assert code == 0
        assert out["phi0"][0] == pytest.approx(2.0 * math.pi * 0.75 * 1e300)

    def test_triple_in_output(self, catenoid_json, capsys):
        _, out = run_json(capsys, ["flux", "--end", catenoid_json,
                                   "--geodesic", "0,inf"])
        assert out["phi1"][0] == pytest.approx(-0.75 * math.pi)
        assert out["phi2"][0] == pytest.approx(0.0)
        assert 0.0 < out["residue_bound"] < 1e-14


class TestVerify:
    def test_catenoid_defect_small(self, catenoid_json, capsys):
        code, out = run_json(capsys, ["verify", "--end", catenoid_json,
                                      "--rho", "0.1", "--samples", "1024"])
        assert code == 0
        assert out["max_defect"] < 1e-12

    def test_one_circle_per_run(self, catenoid_json, capsys, monkeypatch):
        # The geodesics are read from the circle's three moments: no field
        # or potential is sampled.
        calls = []

        def counted(frame, grid):
            calls.append(grid)
            return circle_samples(frame, grid)

        def sampled(*args):
            raise AssertionError("verify sampled a Killing field")

        monkeypatch.setattr(bryantflux.flux, "circle_samples", counted)
        monkeypatch.setattr(bryantflux.cli, "circle_samples", counted,
                            raising=False)
        # The per-field samplers are test references now; a binding in
        # either module would be a second route.
        for module in (bryantflux.killing, bryantflux.flux):
            for name in ("vector_samples", "potential_samples"):
                monkeypatch.setattr(module, name, sampled, raising=False)
        code, _ = run_json(capsys, ["verify", "--end", catenoid_json,
                                    "--geodesics", "5"])
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("geodesics", [1, 5])
    def test_one_field_polynomial_per_field(self, geodesics, catenoid_json,
                                            capsys, monkeypatch):
        """Each geodesic's two fields form their quadratics once each, for
        both triples' fluxes and the round-off bound."""
        calls = []
        field_polynomial = bryantflux.killing.field_polynomial

        def counted(k):
            calls.append(k)
            return field_polynomial(k)

        for module in (bryantflux.killing, bryantflux.flux, bryantflux.cli):
            monkeypatch.setattr(module, "field_polynomial", counted,
                                raising=False)
        code, _ = run_json(capsys, ["verify", "--end", catenoid_json,
                                    "--geodesics", str(geodesics)])
        assert code == 0
        assert len(calls) == 2 * geodesics

    @pytest.mark.parametrize("geodesics", [1, 5])
    def test_one_pairing_for_both_triples(self, geodesics, catenoid_json,
                                          capsys, monkeypatch):
        """Each geodesic's two fields read their fluxes from the residue
        and the quadrature triple by field_flux, and the round-off bound
        from the quadrature's by field_roundoff."""
        calls = []

        def counting(name, fn):
            def counted(*args):
                calls.append(name)
                return fn(*args)
            return counted

        for name in ("field_flux", "field_roundoff"):
            counted = counting(name, getattr(bryantflux.flux, name))
            for module in (bryantflux.flux, bryantflux.cli):
                monkeypatch.setattr(module, name, counted, raising=False)
        code, _ = run_json(capsys, ["verify", "--end", catenoid_json,
                                    "--geodesics", str(geodesics)])
        assert code == 0
        assert (calls.count("field_flux"), calls.count("field_roundoff")) \
            == (4 * geodesics, 2 * geodesics)

    def test_far_translated_cousin(self, tmp_path, capsys):
        # The exact cousin on the axis (1e3, infinity) keeps the standard
        # frame's infinite radius, so rho = 0.01 is not refused; its flux
        # scale is about 5e3, and the defect about 3e-9.
        path = tmp_path / "far.json"
        path.write_text(json.dumps(dict(CATENOID_SPEC,
                                        axis=[[1e3, 0.0], "inf"])))
        code, out = run_json(capsys, ["verify", "--end", str(path),
                                      "--rho", "0.01"])
        assert code == 0
        assert out["max_defect"] < 1e-7

    def test_readme_example(self, catenoid_json, capsys):
        # README: "about 6e-18 for the catenoidal example above".
        code, out = run_json(capsys, ["verify", "--end", catenoid_json,
                                      "--rho", "0.1", "--samples", "1024",
                                      "--geodesics", "20"])
        assert code == 0
        assert out["geodesics"] == 20
        assert out["max_defect"] < 1e-13
        assert 0.0 < out["roundoff_bound"] < 1e-13
        assert 0.0 < out["residue_bound"] < 1e-14
        # the triple's scale is 3 pi / 4 > 1, so relative is below absolute
        assert out["triple_defect_relative"] < out["triple_defect"] < 1e-13

    def test_readme_horospherical_example(self, tmp_path, capsys):
        path = tmp_path / "horospherical.json"
        path.write_text(json.dumps(HOROSPHERICAL_SPEC))
        code, out = run_json(capsys, ["verify", "--end", str(path)])
        assert code == 0
        assert out["max_defect"] < 1e-5


class TestBalance:
    def test_two_end(self, capsys):
        code, out = run_json(capsys, ["balance", "two", "--mu", "0.5",
                                      "--axis", "0,inf", "--b2", "0"])
        assert code == 0
        assert out["mu"] == 0.5
        assert out["axis"][0] == "inf"
        assert out["axis"][1] == [0.0, 0.0]

    def test_three_end_symmetric(self, capsys):
        code, out = run_json(capsys, ["balance", "three",
                                      "--sigma", "1,1,1"])
        assert code == 0
        assert out["axes"][0][0] == pytest.approx(1.0 / 3.0)
        assert out["axes"][1] == "inf"
        assert out["axes"][2][0] == pytest.approx(-1.0 / 3.0)
        conc = out["concurrency"]
        assert conc["kind"] == "interior"
        assert conc["point"][0] == pytest.approx(0.0)
        assert conc["point"][1] == pytest.approx(1.0 / math.sqrt(3.0))

    def test_three_end_boundary_point(self, capsys):
        code, out = run_json(capsys, ["balance", "three",
                                      "--sigma", "3,2,1"])
        assert code == 0
        assert out["concurrency"]["kind"] == "boundary"
        assert out["concurrency"]["point"] == pytest.approx(-1.0)

    def test_three_end_common_perpendicular(self, capsys):
        code, out = run_json(capsys, ["balance", "three",
                                      "--sigma", "2,0.9,0.2"])
        assert code == 0
        conc = out["concurrency"]
        assert conc["kind"] == "common-perpendicular"
        assert conc["point"][1] > 0

    def test_three_end_near_snap_stays_concurrent(self, capsys):
        # A2 is about 1.1e9, finite: the printed axes are concurrent
        code, out = run_json(capsys, [
            "balance", "three", "--sigma",
            "0.42948106837016187,2.2850178941451444,0.42948107040746036"])
        assert code == 0
        assert out["axes"][1] != "inf"
        assert out["concurrency"]["kind"] == "common-perpendicular"

    @pytest.mark.parametrize("res, want", [
        (ConcurrencyResult("interior", (0.25, 0.5)),
         {"kind": "interior", "point": [0.25, 0.5]}),
        (ConcurrencyResult("boundary", -1.5),
         {"kind": "boundary", "point": -1.5}),
        (ConcurrencyResult("boundary", INF),
         {"kind": "boundary", "point": "inf"}),
        (ConcurrencyResult("common-perpendicular", (0.25, 1.5)),
         {"kind": "common-perpendicular", "point": [0.25, 1.5]}),
        (ConcurrencyResult("not-concurrent"), {"kind": "not-concurrent"}),
    ], ids=["interior", "boundary", "boundary-inf", "common-perpendicular",
            "not-concurrent"])
    def test_three_end_concurrency_json(self, res, want, monkeypatch,
                                        capsys):
        # Each kind of concurrency result as `balance three` prints it.
        monkeypatch.setattr(bryantflux.cli, "concurrency_check",
                            lambda geodesics: res)
        code, out = run_json(capsys, ["balance", "three",
                                      "--sigma", "1,1,1"])
        assert code == 0
        assert out["concurrency"] == want

    def test_unbalanceable_two_end_errors(self, capsys):
        code = run(["balance", "two", "--mu", "0.5",
                    "--axis", "0,inf", "--b2", "1"])
        err = capsys.readouterr().err
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "UnbalanceableError"


class TestMesh:
    def test_vertex_count_and_heights(self, catenoid_json, tmp_path, capsys):
        out_path = tmp_path / "end.obj"
        code = run(["mesh", "--end", catenoid_json,
                    "--rho-min", "0.02", "--rho-max", "0.1",
                    "--radial", "8", "--angular", "16",
                    "--out", str(out_path)])
        capsys.readouterr()
        assert code == 0
        verts = [l for l in out_path.read_text().splitlines()
                 if l.startswith("v ")]
        assert len(verts) == 8 * 16
        for line in verts:
            w = float(line.split()[3])
            assert w > 0

    def test_ball_model_inside_unit_ball(self, catenoid_json, tmp_path,
                                         capsys):
        out_path = tmp_path / "ball.obj"
        code = run(["mesh", "--end", catenoid_json, "--model", "ball",
                    "--rho-min", "0.02", "--rho-max", "0.1",
                    "--radial", "4", "--angular", "16",
                    "--out", str(out_path)])
        capsys.readouterr()
        assert code == 0
        for line in out_path.read_text().splitlines():
            if not line.startswith("v "):
                continue
            x, y, z = (float(t) for t in line.split()[1:])
            assert x * x + y * y + z * z < 1.0 + 1e-12

    def test_ball_model_far_from_the_origin(self, catenoid_json, tmp_path,
                                            capsys):
        # The half-space vertices reach 4e289, whose squares overflow;
        # scaled by a power of two they map near the pole (0, 0, 1).
        out_path = tmp_path / "ball.obj"
        code = run(["mesh", "--end", catenoid_json, "--model", "ball",
                    "--rho-min", "1e-290", "--rho-max", "1e-289",
                    "--radial", "2", "--angular", "3",
                    "--out", str(out_path)])
        capsys.readouterr()
        assert code == 0
        verts = np.array([[float(t) for t in line.split()[1:]]
                          for line in out_path.read_text().splitlines()
                          if line.startswith("v ")])
        assert verts.shape == (6, 3)
        assert np.all(np.abs(verts[:, :2]) < 1e-280)
        assert np.all(verts[:, 2] == 1.0)

    def test_ball_map_is_the_plain_formula_where_it_is_finite(self):
        rng = np.random.default_rng(5)
        size = 20000
        u, v = (rng.normal(size=size) * 10.0 ** rng.uniform(-320, 300, size)
                for _ in range(2))
        w = np.abs(rng.normal(size=size)) * 10.0 ** rng.uniform(-320, 300,
                                                                 size)
        with np.errstate(all="ignore"):
            den = u * u + v * v + (w + 1.0) ** 2
            plain = np.array([2.0 * u / den, 2.0 * v / den,
                              (u * u + v * v + w * w - 1.0) / den])
            # mesh calls it under the same errstate
            got = np.array(_to_ball(u, v, w))
        finite = np.isfinite(plain).all(axis=0)
        assert 0 < finite.sum() < size
        assert got[:, finite].tobytes() == plain[:, finite].tobytes()
        assert np.isfinite(got).all()
        assert np.all(np.sum(got * got, axis=0) <= 1.0 + 1e-12)

    @pytest.mark.parametrize("model", ["halfspace", "ball"])
    @pytest.mark.parametrize("angular", [3, 7, 16])
    @pytest.mark.parametrize("spec", MESH_SPECS.values(), ids=MESH_SPECS)
    def test_vertices_match_horner(self, spec, angular, model, tmp_path,
                                   capsys):
        spec_path, out_path = tmp_path / "spec.json", tmp_path / "end.obj"
        spec_path.write_text(json.dumps(spec))
        rho_min, rho_max, radial = 0.02, 0.1, 3
        code = run(["mesh", "--end", str(spec_path), "--model", model,
                    "--rho-min", str(rho_min), "--rho-max", str(rho_max),
                    "--radial", str(radial), "--angular", str(angular),
                    "--out", str(out_path)])
        capsys.readouterr()
        assert code == 0
        got = np.array([[float(t) for t in line.split()[1:]]
                        for line in out_path.read_text().splitlines()
                        if line.startswith("v ")])
        frame, _ = build_end(spec)
        taus = 2.0 * math.pi * np.arange(angular) / angular
        want = []
        for rho in np.geomspace(rho_min, rho_max, radial):
            zeta, w = oracles.immersion_samples(frame, rho, taus)
            u, v = zeta.real, zeta.imag
            if model == "ball":
                u, v, w = _to_ball(u, v, w)
            want.append(np.column_stack([u, v, w]))
        want = np.vstack(want)
        assert got.shape == want.shape == (radial * angular, 3)
        # 1e-12 of the vertex's size before printing, plus the half unit
        # in the ninth significant digit that %.9g rounds away.
        with np.errstate(divide="ignore"):
            digit = 10.0 ** (np.floor(np.log10(np.maximum(abs(got),
                                                         abs(want)))) - 8)
        bar = 1e-12 * np.linalg.norm(want, axis=1, keepdims=True) + digit / 2
        assert np.all(np.abs(got - want) <= bar)

    @pytest.mark.parametrize("flag, value", [
        ("--rho-min", "nan"), ("--rho-max", "inf"), ("--rho-min", "-0.01"),
        ("--rho-max", "0")])
    def test_bad_radius_writes_no_file(self, flag, value, catenoid_json,
                                       tmp_path, capsys):
        out_path = tmp_path / "end.obj"
        code = run(["mesh", "--end", catenoid_json, "--rho-min", "0.02",
                    "--rho-max", "0.1", flag, value, "--out", str(out_path)])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "DomainError"
        assert not out_path.exists()


class TestCommandTable:
    def test_every_command_has_an_argv(self):
        assert set(COMMAND_ARGVS) == set(bryantflux.cli._COMMANDS)

    @pytest.mark.parametrize("words", list(COMMAND_ARGVS), ids=" ".join)
    def test_one_parser_per_run(self, words, catenoid_json, monkeypatch,
                                capsys):
        """A run builds the parser of its command alone, not a tree of
        every command's parsers."""
        progs = []

        class Counted(bryantflux.cli._Parser):
            def __init__(self, *args, **kwargs):
                progs.append(kwargs.get("prog"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(bryantflux.cli, "_Parser", Counted)
        argv = list(words) + [catenoid_json if a == "<spec>" else a
                              for a in COMMAND_ARGVS[words]]
        assert run(argv) == 0
        capsys.readouterr()
        assert progs == [" ".join(("bryantflux",) + words)]


class TestErrors:
    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0
        assert "usage: bryantflux" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv", [["end", "--help"], ["balance", "--help"]]
        + [list(words) + ["--help"] for words in COMMAND_ARGVS],
        ids=lambda argv: " ".join(argv))
    def test_every_command_help_exits_0(self, argv, capsys):
        self.test_help_exits_0(argv, capsys)

    @pytest.mark.parametrize("argv", [
        [], ["end"], ["balance"], ["bogus"], ["end", "bogus"],
        ["balance", "four"]], ids=lambda argv: " ".join(argv) or "empty")
    def test_no_command_exits_2(self, argv, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "DomainError"

    @pytest.mark.parametrize("argv, text", [
        (["crossratio", "abc", "0", "1", "2"], "abc"),
        (["balance", "two", "--mu", "0.5", "--axis", "0,zz", "--b2", "0"],
         "zz"),
        (["balance", "three", "--sigma", "a,1,1"], "a"),
    ], ids=["point", "axis-point", "sigma"])
    def test_malformed_number_names_its_text(self, argv, text, capsys):
        assert run(argv) == 2
        assert repr(text) in json.loads(capsys.readouterr().err)["message"]

    def test_missing_file_error_json(self, capsys):
        code = run(["flux", "--end", "/nonexistent/end.json",
                    "--geodesic", "0,inf"])
        err = capsys.readouterr().err
        assert code == 2
        payload = json.loads(err)
        assert "message" in payload

    def test_bad_geodesic_error_json(self, catenoid_json, capsys):
        code = run(["flux", "--end", catenoid_json, "--geodesic", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert json.loads(err)["error"] == "DomainError"

    def test_bad_end_type_error_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"type": "planar"}))
        code = run(["flux", "--end", str(path), "--geodesic", "0,inf"])
        err = capsys.readouterr().err
        assert code == 2
        assert json.loads(err)["error"] == "DomainError"

    def test_single_term_overflow_exits_2(self, tmp_path, capsys):
        # a catenoidal h with one term past h(0) takes the product form
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(dict(CATENOID_SPEC,
                                        h_perturbation=[0, 1e200])))
        code = run(["end", "build", "--spec", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert json.loads(captured.err) == {
            "error": "DomainError",
            "message": "the frame overflows: its coefficients are not finite"}

    @pytest.mark.parametrize("spec, argv, error", [
        (dict(CATENOID_SPEC, axis=5), ["flux"], "DomainError"),
        ([CATENOID_SPEC], ["flux"], "DomainError"),
        (dict(CATENOID_SPEC, h_perturbation=[0, "x"]), ["flux"],
         "DomainError"),
        (_doubled_a_frame(), ["flux", "--frame"], "ConsistencyError"),
        (_doubled_a_frame(top=1e12), ["flux", "--frame"],
         "ConsistencyError"),
        (dict(README_FRAME, validity_radius=0), ["flux", "--frame"],
         "DomainError"),
        (dict(README_FRAME, validity_radius=-1), ["flux", "--frame"],
         "DomainError"),
        (dict(README_FRAME, A=dict(README_FRAME["A"], coeffs=[])),
         ["flux", "--frame"], "DomainError"),
        (CATENOID_SPEC, ["flux", "--geodesic", "0,nan"], "DomainError"),
        (CATENOID_SPEC, ["flux", "--geodesic", "0,1e400"], "DomainError"),
        (None, ["crossratio", "0", "1", "2", "nan"], "DomainError"),
        (dict(CATENOID_SPEC, mu=None), ["flux"], "DomainError"),
        (dict(CATENOID_SPEC, mu=[1]), ["flux"], "DomainError"),
        (dict(CATENOID_SPEC, order=-1), ["flux"], "DomainError"),
        (CATENOID_SPEC, ["flux", "--order", "-1"], "DomainError"),
        (dict(CATENOID_SPEC, order=0), ["flux"], "DomainError"),
        (dict(CATENOID_SPEC, order=True), ["flux"], "DomainError"),
        (dict(HOROSPHERICAL_SPEC, h0=10 ** 400), ["flux"], "DomainError"),
        (H0_OVERFLOW_SPEC, ["flux"], "DomainError"),
        (dict(H0_OVERFLOW_SPEC, mu=3), ["flux"], "DomainError"),
        (dict(CATENOID_SPEC, mu=1e300), ["flux"], "DomainError"),
        (dict(CATENOID_SPEC, mu=0), ["flux"], "DomainError"),
        (dict(CATENOID_SPEC, mu=-0.0), ["flux"], "DomainError"),
        (CATENOID_SPEC, ["flux", "--frame", os.devnull], "DomainError"),
        (None, ["flux", "--geodesic", "0,inf"], "DomainError"),
        (RESIDUE_OVERFLOW_SPEC, ["flux"], "DomainError"),
        # phi1's residue sums cancel: bound 3.1e5 on a triple of scale pi
        (dict(CATENOID_SPEC, mu=1e-20), ["flux"], "DomainError"),
        (dict(CATENOID_SPEC, mu=1e-20), ["verify"], "DomainError"),
        (None, ["balance", "two", "--mu", "0.5", "--axis", "0", "--b2", "0"],
         "DomainError"),
        (None, ["balance", "three", "--sigma", "nan,1,1"], "DomainError"),
        (None, ["balance", "three", "--sigma", "1,1,1", "--boundaries",
                "1e300,2e300,inf"], "DomainError"),
        (None, ["balance", "three", "--sigma", "1,1,1", "--boundaries", ""],
         "DomainError"),
        (None, ["balance", "two", "--mu", "inf", "--axis", "0,inf",
                "--b2", "0"], "DomainError"),
        (CATENOID_SPEC, ["verify", "--rho", "1e-160", "--samples", "64"],
         "DomainError"),
        (CATENOID_SPEC, ["verify", "--rho", "1e-200"], "DomainError"),
        (CATENOID_SPEC, ["verify", "--rho", "1e-100"], "DomainError"),
        (CATENOID_SPEC, ["verify", "--rho", "1e-12"], "DomainError"),
        (CATENOID_SPEC, ["verify", "--rho", "1e-60"], "DomainError"),
        (CATENOID_SPEC, ["verify", "--geodesics", "0"], "DomainError"),
        (CATENOID_SPEC, ["verify", "--geodesics", "-2"], "DomainError"),
        (None, ["balance", "two", "--mu", "abc", "--axis", "0,inf",
                "--b2", "0"], "DomainError"),
        (None, ["verify", "--rho", "x"], "DomainError"),
        (None, ["verify", "--samples", "1.5"], "DomainError"),
        (None, ["flux", "--end", "c.json"], "DomainError"),
        (None, ["crossratio", "abc", "0", "1", "2"], "DomainError"),
        (CATENOID_SPEC, ["flux", "--geodesic", "x,1"], "DomainError"),
        (None, ["balance", "two", "--mu", "0.5", "--axis", "0,zz",
                "--b2", "0"], "DomainError"),
        (None, ["balance", "three", "--sigma", "1,1,1", "--boundaries",
                "1,q,2"], "DomainError"),
        (None, ["balance", "three", "--sigma", "a,1,1"], "DomainError"),
        (CATENOID_SPEC, MESH_ARGV + ["--radial", "0"], "DomainError"),
        (CATENOID_SPEC, MESH_ARGV + ["--radial", "1"], "DomainError"),
        (CATENOID_SPEC, MESH_ARGV + ["--angular", "-3"], "DomainError"),
        (CATENOID_SPEC, MESH_ARGV + ["--angular", "2"], "DomainError"),
        (CATENOID_SPEC, MESH_ARGV + ["--rho-min", "nan"], "DomainError"),
        (CATENOID_SPEC, MESH_ARGV + ["--rho-max", "nan"], "DomainError"),
        (CATENOID_SPEC, MESH_ARGV + ["--rho-min", "-0.01"], "DomainError"),
        (CATENOID_SPEC, MESH_OVERFLOW_ARGV, "DomainError"),
        (CATENOID_SPEC, MESH_OVERFLOW_ARGV + ["--model", "ball"],
         "DomainError"),
        # TiB-scale requests, which numpy refuses before allocating.
        (dict(CATENOID_SPEC, order=1e12), ["flux"], "MemoryError"),
        (CATENOID_SPEC, ["verify", "--samples", str(2 ** 40)],
         "MemoryError"),
        (NESTED_JSON, ["end", "build", "--spec"], "RecursionError"),
        (NESTED_JSON, ["flux"], "RecursionError"),
        (NESTED_JSON, ["flux", "--frame"], "RecursionError"),
        # Outputs that are not finite: 1/[c, d] overflows in the field's
        # quadratic and is multiplied by 0, and the cross-ratio's
        # brackets overflow.
        (dict(CATENOID_SPEC, axis=[[0.3, 0.1], "inf"]),
         ["flux", "--geodesic", "0,1e-320"], "ValueError"),
        (None, ["crossratio", "1e308", "-1e308", "1e308i", "0"],
         "ValueError"),
    ], ids=["axis-number", "spec-list", "perturbation-string",
            "frame-doubled-a", "frame-doubled-a-huge-top",
            "frame-radius-zero", "frame-radius-negative",
            "frame-coeffs-empty", "geodesic-nan", "geodesic-overflow",
            "crossratio-nan", "mu-null", "mu-list", "order-negative",
            "order-flag-negative", "order-zero", "order-bool",
            "h0-int-overflow", "h0-squared-overflow", "h0-frame-overflow",
            "mu-h-overflow", "mu-zero", "mu-negative-zero", "end-and-frame",
            "no-end-or-frame", "residue-overflow", "residue-bound-flux",
            "residue-bound-verify", "balance-axis-one-point",
            "balance-sigma-nan", "balance-boundaries-far",
            "balance-boundaries-empty", "balance-mu-inf",
            "verify-rho-overflow-samples",
            "verify-rho-overflow-power", "verify-flux-overflow",
            "verify-roundoff-1e-12", "verify-roundoff-1e-60",
            "verify-geodesics-zero", "verify-geodesics-negative",
            "argparse-mu-abc", "argparse-rho-x", "argparse-samples-float",
            "argparse-flux-no-geodesic", "crossratio-malformed",
            "geodesic-malformed", "balance-axis-malformed",
            "balance-boundaries-malformed", "balance-sigma-malformed",
            "mesh-radial-0", "mesh-radial-1",
            "mesh-angular-negative", "mesh-angular-2", "mesh-rho-min-nan",
            "mesh-rho-max-nan", "mesh-rho-min-negative", "mesh-overflow",
            "mesh-overflow-ball", "order-1e12-memory",
            "verify-samples-2-40-memory", "end-build-spec-nested",
            "flux-end-nested", "flux-frame-nested", "flux-value-nan",
            "crossratio-value-nan"])
    def test_bad_input_exits_2_with_one_json_error(self, spec, argv, error,
                                                   tmp_path, capsys):
        mesh_out = tmp_path / "end.obj"
        argv = [str(mesh_out) if a == MESH_OUT else a for a in argv]
        if spec is not None:
            path = tmp_path / "spec.json"
            path.write_text(spec if isinstance(spec, str)
                            else json.dumps(spec))
            if argv[-1] in ("--frame", "--spec"):
                argv = argv + [str(path)]
            else:
                argv = argv + ["--end", str(path)]
            if argv[0] == "flux" and "--geodesic" not in argv:
                argv += ["--geodesic", "0,inf"]
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == error
        assert not mesh_out.exists()


class TestLeadingMinus:
    @pytest.mark.parametrize("argv, want", [
        (["balance", "two", "--mu", "0.5", "--axis", "-1,inf", "--b2", "-1"],
         ["balance", "two", "--mu", "0.5", "--axis=-1,inf", "--b2=-1"]),
        (["balance", "three", "--sigma", "1,2,1.5", "--boundaries", "-1,0,1"],
         ["balance", "three", "--sigma", "1,2,1.5", "--boundaries=-1,0,1"]),
        (["flux", "--geodesic", "-1,1"], ["flux", "--geodesic=-1,1"]),
        (["crossratio", "-1+1i", "0", "1", "2"], None),
    ], ids=["balance-two-axis", "balance-three-boundaries", "flux-geodesic",
            "crossratio"])
    def test_value_read_as_a_value(self, argv, want, catenoid_json, capsys):
        """A token that starts with "-" and a digit is a value: an option
        prints what its --opt=value spelling prints, and crossratio the
        library's cross_ratio."""
        if argv[0] == "flux":
            argv, want = (a + ["--end", catenoid_json] for a in (argv, want))
        assert run(argv) == 0
        out = capsys.readouterr().out
        if want is None:
            val = cross_ratio(-1 + 1j, 0j, 1 + 0j, 2 + 0j)
            assert json.loads(out) == {"value": [val.real, val.imag]}
        else:
            assert run(want) == 0
            assert out == capsys.readouterr().out


# An exact frame: its validity radius is inf and each entry is one power
# of z, stored with 128 zeros after it.
EXACT_SPEC = dict(CATENOID_SPEC, order=128)


class TestLargeRadius:
    """Exact frames are read at radii where the powers of their zero
    tails overflow."""

    def test_verify_exact_frame(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(EXACT_SPEC))
        code, out = run_json(capsys, ["verify", "--end", str(path), "--rho",
                                      "1000", "--samples", "1024"])
        assert code == 0
        assert out["max_defect"] < 1e-12

    @pytest.mark.parametrize("spec, rho_max", [
        ({"type": "horosphere"}, "1e12"), (EXACT_SPEC, "1e3")],
        ids=["horosphere", "catenoidal"])
    def test_mesh_exact_frame(self, spec, rho_max, tmp_path, capsys):
        spec_path, out_path = tmp_path / "spec.json", tmp_path / "end.obj"
        spec_path.write_text(json.dumps(spec))
        code = run(["mesh", "--end", str(spec_path), "--rho-min", "1",
                    "--rho-max", rho_max, "--radial", "4", "--angular", "8",
                    "--out", str(out_path)])
        capsys.readouterr()
        assert code == 0
        got = np.array([[float(t) for t in line.split()[1:]]
                        for line in out_path.read_text().splitlines()
                        if line.startswith("v ")])
        assert got.shape == (32, 3) and np.isfinite(got).all()
        if spec["type"] == "horosphere":
            # The horosphere is X = (1/z, 1), printed to 9 digits.
            z = np.outer(np.geomspace(1.0, 1e12, 4),
                         np.exp(2j * math.pi * np.arange(8) / 8)).ravel()
            assert np.all(np.abs(got[:, 0] + 1j * got[:, 1] - 1.0 / z)
                          <= 1e-8 / np.abs(z))
            assert np.all(np.abs(got[:, 2] - 1.0) <= 1e-8)


# Malformed or extreme JSON values for one key of a spec.
BAD_VALUES = [None, True, False, "x", "inf", math.nan, math.inf, -math.inf,
              10 ** 400, -10 ** 400, [], [1.0, 2.0, 3.0], {}, {"re": 1.0},
              1e308, -1e308, 1e200, 0, -0.0, 1]
# A huge order is a valid but costly request, not malformed input, so
# "order" draws only small integers and values of the wrong type.
BAD_ORDERS = [None, True, "x", "inf", math.nan, math.inf, 10 ** 400, 2.5, [],
              {}]
README_SPECS = [CATENOID_SPEC, HOROSPHERICAL_SPEC, {"type": "horosphere"}]
DROP = object()


# Specs whose nested lists (axis points, boundary, h0, perturbation
# entries) are fuzzed one component at a time; the finite axis and
# boundaries reach the transformed frames.
NESTED_SPECS = README_SPECS[:2] + [
    {"type": "catenoidal", "mu": 0.5, "axis": [[0.3, 0.1], [-0.5, 0.2]],
     "h_perturbation": [0.0, 0.5]},
    dict(RESIDUE_OVERFLOW_SPEC, boundary=[0.3, 0.2]),
    {"type": "horospherical", "mu": 3, "h0": [0.5, 0.0],
     "h_perturbation": [0.0, 0.5], "boundary": [0.3, 0.2]},
]


@st.composite
def mangled_specs(draw):
    """A README spec with one key dropped or set to a bad value."""
    spec = dict(draw(st.sampled_from(README_SPECS)))
    key = draw(st.sampled_from(sorted(spec) + ["order"]))
    values = BAD_VALUES if key != "order" else \
        [st.integers(-2, 40)] + BAD_ORDERS
    value = draw(st.sampled_from([DROP] + values))
    if isinstance(value, st.SearchStrategy):
        value = draw(value)
    if value is DROP:
        spec.pop(key, None)
    else:
        spec[key] = value
    return spec


def _nested_paths(value, path):
    """Paths to every entry of the lists and objects inside ``value``, at
    any depth."""
    items = (enumerate(value) if isinstance(value, list) else
             value.items() if isinstance(value, dict) else ())
    for key, item in items:
        yield path + (key,)
        yield from _nested_paths(item, path + (key,))


@st.composite
def nested_specs(draw):
    """A spec with one entry of a nested list set to a bad value."""
    spec = copy.deepcopy(draw(st.sampled_from(NESTED_SPECS)))
    path = draw(st.sampled_from([p for key in sorted(spec)
                                 for p in _nested_paths(spec[key], (key,))]))
    parent = spec
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = draw(st.sampled_from(BAD_VALUES))
    return spec


def _assert_exit_0_or_2(tmp_path, capsys, spec, source="--end"):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = run(["flux", source, str(path), "--geodesic", "0,inf"])
    captured = capsys.readouterr()
    assert code in (0, 2)
    if code == 0:
        assert "Infinity" not in captured.out and "NaN" not in captured.out
    else:
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"error", "message"}


class TestSpecFuzz:
    @given(mangled_specs())
    @settings(max_examples=150, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_exit_0_or_2_with_one_json_error(self, tmp_path, capsys, spec):
        _assert_exit_0_or_2(tmp_path, capsys, spec)

    @given(nested_specs())
    @settings(max_examples=150, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_nested_values_exit_0_or_2(self, tmp_path, capsys, spec):
        _assert_exit_0_or_2(tmp_path, capsys, spec)


@st.composite
def mangled_frames(draw):
    """The README catenoid's frame document with one value at any depth,
    or the whole document, dropped or set to a bad value."""
    frame = copy.deepcopy(README_FRAME)
    path = draw(st.sampled_from([()] + list(_nested_paths(frame, ()))))
    value = draw(st.sampled_from([DROP] + BAD_VALUES))
    if not path:
        return [] if value is DROP else value
    parent = frame
    for step in path[:-1]:
        parent = parent[step]
    if value is DROP:
        parent.pop(path[-1])
    else:
        parent[path[-1]] = value
    return frame


class TestFrameFuzz:
    @given(mangled_frames())
    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_exit_0_or_2_with_one_json_error(self, tmp_path, capsys, frame):
        _assert_exit_0_or_2(tmp_path, capsys, frame, "--frame")

    @pytest.mark.parametrize("frame", [
        dict(README_FRAME, A=dict(README_FRAME["A"], coeffs=[1.0, 2.0])),
        dict(README_FRAME, A=dict(README_FRAME["A"], offset=None)),
        dict(README_FRAME, validity_radius=None),
        dict(README_FRAME, A=dict(README_FRAME["A"], coeffs=[["a", 0]])),
        dict(README_FRAME, A=[]),
        [README_FRAME],
        dict(README_FRAME, A=dict(README_FRAME["A"], offset=0.0)),
    ], ids=["real-coefficients", "offset-null", "radius-null",
            "string-coefficient", "entry-list", "document-list",
            "column-offsets"])
    def test_malformed_frame(self, frame, tmp_path, capsys):
        _assert_exit_0_or_2(tmp_path, capsys, frame, "--frame")

    # Offsets near 1e308 sum to infinity in the products; a first column
    # at 1e300 puts the unit of AD - BC = 1 some 1e300 powers below them.
    @pytest.mark.parametrize("entries,offset,error", [
        ("ABCD", 1e308, "DomainError"), ("AC", 1e300, "ConsistencyError")],
        ids=["offsets-near-1e308", "first-column-at-1e300"])
    def test_far_offsets_exit_2(self, entries, offset, error, tmp_path,
                                capsys):
        path = tmp_path / "frame.json"
        path.write_text(json.dumps(dict(README_FRAME, **{
            k: dict(README_FRAME[k], offset=offset) for k in entries})))
        assert run(["flux", "--frame", str(path), "--geodesic", "0,inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == error

    def test_column_offsets_name_the_column(self, tmp_path, capsys):
        path = tmp_path / "frame.json"
        path.write_text(json.dumps(dict(
            README_FRAME, B=dict(README_FRAME["B"], offset=0.5))))
        assert run(["flux", "--frame", str(path), "--geodesic", "0,inf"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DomainError"
        assert "column BD" in err["message"]

    @pytest.mark.parametrize("argv", [["flux", "--geodesic", "0,inf"],
                                      ["verify"]], ids=["flux", "verify"])
    def test_frame_cut_before_its_residues_exits_2(self, argv, tmp_path,
                                                   capsys):
        """C cut to one coefficient cuts A with it, and z^-1 of the
        one-forms, at index 1, lies past the columns: the run is refused
        with a JSON error instead of reading a zero triple."""
        frame, _ = build_end({"type": "catenoidal", "mu": 0.5,
                              "axis": [[0.3, 0.2], [2.0, 1.0]],
                              "h_perturbation": [0.0, 0.3]}, order=8)
        doc = json.loads(frame_to_json(frame))
        path = tmp_path / "frame.json"
        path.write_text(json.dumps(doc))
        assert run(argv + ["--frame", str(path)]) == 0
        capsys.readouterr()
        doc["C"]["coeffs"] = doc["C"]["coeffs"][:1]
        path.write_text(json.dumps(doc))
        assert run(argv + ["--frame", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "DomainError",
            "message": "the frame is truncated before the residues of its "
                       "one-forms: z^-1 is at index 1 of columns of 1 and 9 "
                       "coefficients"}

    def test_infinite_radius_loads(self, tmp_path, capsys):
        path = tmp_path / "frame.json"
        path.write_text(json.dumps(dict(README_FRAME,
                                        validity_radius=math.inf)))
        assert run(["flux", "--frame", str(path), "--geodesic", "0,inf"]) == 0
        capsys.readouterr()


class TestProcess:
    """The CLI as a real process.  The in-process tests turn warnings into
    errors, so they cannot see a warning that a real process prints
    before it exits."""

    def test_residue_overflow_exits_2_without_warnings(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(RESIDUE_OVERFLOW_SPEC))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "bryantflux", "flux", "--end", str(path),
             "--geodesic", "0,inf"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "DomainError"
        assert "Warning" not in proc.stderr
