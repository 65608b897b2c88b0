import json
import math

import pytest

import bryantflux.cli
import bryantflux.flux
from bryantflux import (Geodesic, INF, build_end, circle_samples,
                        flux_for_geodesic, flux_triple, frame_from_json,
                        frame_to_json)
from bryantflux.cli import run

CATENOID_SPEC = {"type": "catenoidal", "mu": 0.5,
                 "axis": [[0.0, 0.0], "inf"]}
# The horospherical example of README.md.
HOROSPHERICAL_SPEC = {"type": "horospherical", "mu": 2, "h0": [0.5, 0.0],
                      "h_perturbation": [1.0], "boundary": "inf"}


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

    def test_triple_in_output(self, catenoid_json, capsys):
        _, out = run_json(capsys, ["flux", "--end", catenoid_json,
                                   "--geodesic", "0,inf"])
        assert out["phi1"][0] == pytest.approx(-0.75 * math.pi)
        assert out["phi2"][0] == pytest.approx(0.0)


class TestVerify:
    def test_catenoid_defect_small(self, catenoid_json, capsys):
        code, out = run_json(capsys, ["verify", "--end", catenoid_json,
                                      "--rho", "0.1", "--samples", "1024"])
        assert code == 0
        assert out["max_defect"] < 1e-12

    def test_one_circle_per_run(self, catenoid_json, capsys, monkeypatch):
        calls = []

        def counted(frame, grid):
            calls.append(grid)
            return circle_samples(frame, grid)

        monkeypatch.setattr(bryantflux.flux, "circle_samples", counted)
        monkeypatch.setattr(bryantflux.cli, "circle_samples", counted,
                            raising=False)
        code, _ = run_json(capsys, ["verify", "--end", catenoid_json,
                                    "--geodesics", "5"])
        assert code == 0
        assert len(calls) == 1

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


class TestErrors:
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

    @pytest.mark.parametrize("spec, argv, error", [
        (dict(CATENOID_SPEC, axis=5), ["flux"], "DomainError"),
        ([CATENOID_SPEC], ["flux"], "DomainError"),
        (dict(CATENOID_SPEC, h_perturbation=[0, "x"]), ["flux"],
         "DomainError"),
        (dict(CATENOID_SPEC, h_perturbation=[0, 10]), ["flux"],
         "ConsistencyError"),
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
    ], ids=["axis-number", "spec-list", "perturbation-string",
            "perturbation-refused", "geodesic-nan", "geodesic-overflow",
            "crossratio-nan", "mu-null", "mu-list", "order-negative",
            "order-flag-negative", "order-zero", "order-bool",
            "h0-int-overflow"])
    def test_bad_input_exits_2_with_one_json_error(self, spec, argv, error,
                                                   tmp_path, capsys):
        if spec is not None:
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(spec))
            argv = argv + ["--end", str(path)]
            if "--geodesic" not in argv:
                argv += ["--geodesic", "0,inf"]
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == error
