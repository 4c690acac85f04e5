"""Command-line interface: subcommands, exit codes, stable output."""

import json
import os

import pytest

from surf4.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")
SURFACES = os.path.join(os.path.dirname(__file__), os.pardir, "surfaces")


def surface(name):
    return os.path.join(SURFACES, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_congruence_example1(capsys):
    code, out, _ = run(capsys, "congruence", "--surface",
                       surface("example1.surf"))
    assert code == 0
    payload = json.loads(out)
    assert payload["circleFactor"] == "gamma2"
    assert payload["symplecticResidual"] < 1e-9
    assert payload["fitResidual"] < 1e-10
    alpha = payload["alpha"]
    assert alpha[1] == pytest.approx(2 / 5**0.5, abs=1e-10)
    assert alpha[2] == pytest.approx(1 / 5**0.5, abs=1e-10)
    assert payload["tolerances"] == {"circle": 1e-6, "symplectic": 1e-8}


def test_analyze_rsurf_z2(capsys, tmp_path):
    out_file = tmp_path / "z2.json"
    code, _, _ = run(capsys, "analyze", "--surface", surface("rsurf_z2.surf"),
                     "--grid", "5,5", "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    records = payload["records"]
    assert len(records) == 25  # record count equals the grid size
    counts = payload["summary"]["counts"]
    assert sum(counts.values()) == len(records)
    assert counts["elliptic"] == 25
    for rec in records:
        assert rec["pointClass"] == "elliptic"
        assert rec["Gamma1"] == [1, 0, 0]
    assert "tolerances" in payload


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "--surface", "missing.surf")
    assert code == 2
    assert "missing.surf" in err


def test_analyze_bad_surface_file(capsys, tmp_path):
    bad = tmp_path / "bad.surf"
    bad.write_text("phi = x +\npsi = y\n")
    code, _, err = run(capsys, "analyze", "--surface", str(bad))
    assert code == 2
    assert "line 1" in err


@pytest.mark.parametrize("argv, text, message", [
    (["analyze"], "phi = sqrt(x)\npsi = y\n",
     "error: sqrt of a jet with non-positive value in subexpression "
     "'sqrt(x)'\n"),
    (["congruence", "--grid", "2,2"], "phi = x^2\npsi = x*y\n",
     "argument --grid: congruence grid must be at least 3x3"),
], ids=["eval-error", "congruence-grid"])
def test_input_errors_exit_2(capsys, tmp_path, argv, text, message):
    path = tmp_path / "surface.surf"
    path.write_text(text)
    code, _, err = run(capsys, *argv, "--surface", str(path))
    assert code == 2
    assert message in err


def test_unknown_flag_exits_2(capsys):
    code, _, _ = run(capsys, "analyze", "--nonsense")
    assert code == 2


def test_analyze_csv_header(capsys, tmp_path):
    out_file = tmp_path / "z2.csv"
    code, _, _ = run(capsys, "analyze", "--surface", surface("rsurf_z2.surf"),
                     "--grid", "3,3", "--format", "csv",
                     "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == ("x,y,K,kappa,K1,K2,Delta,class,inflection,singular,"
                       "g1x,g1y,g1z,g2x,g2y,g2z")
    assert len(lines) == 10


def test_gaussmap_csv(capsys, tmp_path):
    out_file = tmp_path / "gm.csv"
    code, _, _ = run(capsys, "gaussmap", "--surface", surface("rsurf_z2.surf"),
                     "--grid", "4,4", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "x,y,g1x,g1y,g1z,g2x,g2y,g2z"
    assert len(lines) == 17
    assert all(line.split(",")[2] == "1" for line in lines[1:])


def test_byte_identical_reruns(capsys, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _, _ = run(capsys, "analyze", "--surface",
                         surface("example1.surf"), "--grid", "4,3",
                         "--out", str(path))
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_golden_analysis_report(capsys, tmp_path):
    out_file = tmp_path / "golden.json"
    code, _, _ = run(capsys, "analyze", "--surface",
                     surface("example1.surf"), "--grid", "3,3",
                     "--out", str(out_file))
    assert code == 0
    golden = os.path.join(DATA, "example1_3x3.json")

    def stable_lines(text):
        # the recorded source path varies with the invocation
        return [line for line in text.splitlines()
                if not line.lstrip().startswith('"file":')]

    assert stable_lines(out_file.read_text()) == \
        stable_lines(open(golden).read())


def test_verify_plucker_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "plucker")
    assert code == 0
    assert "PASS" in out
    assert "checks passed" in out


def test_verify_lift_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lift")
    assert code == 0
    assert "FAIL" not in out


def test_reconstruct_small(capsys, tmp_path):
    out_file = tmp_path / "samples.csv"
    code, out, _ = run(capsys, "reconstruct", "--n-curves", "41",
                       "--dt", "4e-3", "--out", str(out_file))
    payload = json.loads(out)
    assert code == 0
    assert payload["passed"] is True
    assert payload["nSamples"] > 100
    lines = out_file.read_text().splitlines()
    assert lines[0] == "x,y,phi,phi_x,phi_y"
    assert len(lines) == payload["nSamples"] + 1
