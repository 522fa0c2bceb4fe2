import json

import numpy as np
import pytest

from interfere.cli import main
from interfere.matrixcore import save_matrix


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_hong_ou_mandel(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--matrix", "beamsplitter", "--in", "1,1", "--out", "1,1"
    )
    assert code == 0
    record = json.loads(out)
    assert record["boson"] == 0.0
    assert record["fermion"] == 1.0
    assert record["classical"] == 0.5
    assert record["label"] == "Natural"


def test_compute_fourier_three_particles(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--matrix", "fourier:3", "--in", "1,1,1", "--out", "1,1,1"
    )
    assert code == 0
    record = json.loads(out)
    assert record["boson"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert record["fermion"] == pytest.approx(1.0, abs=1e-12)
    assert record["label"] is None
    assert "0.333333333333333" in out  # 15-significant-digit rendering


def test_compute_vacuum(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--matrix", "fourier:3", "--in", "0,0,0", "--out", "0,0,0"
    )
    assert code == 0
    record = json.loads(out)
    assert record["boson"] == record["fermion"] == record["classical"] == 1.0


def test_compute_csv_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "compute", "--matrix", "beamsplitter", "--in", "1,1", "--out", "1,1",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "input,output,B,F,C,label"
    assert lines[1] == "1.1,1.1,0,1,0.5,Natural"


def test_compute_malformed_occupation(capsys):
    code, _, err = run_cli(
        capsys, "compute", "--matrix", "beamsplitter", "--in", "1,x", "--out", "1,1"
    )
    assert code == 2
    assert "--in" in err


def test_compute_wrong_length(capsys):
    code, _, err = run_cli(
        capsys, "compute", "--matrix", "beamsplitter", "--in", "1,1,1", "--out", "1,1"
    )
    assert code == 2
    assert "--in" in err


def test_compute_budget_violation(capsys):
    code, _, err = run_cli(
        capsys, "compute", "--matrix", "beamsplitter", "--in", "5,0", "--out", "5,0"
    )
    assert code == 3
    assert "--in" in err


def test_compute_warns_on_multi_occupation(capsys):
    code, out, err = run_cli(
        capsys, "compute", "--matrix", "beamsplitter", "--in", "2,0", "--out", "1,1"
    )
    assert code == 0
    assert "fermionic" in err
    assert json.loads(out)["fermion"] == 0.0


def test_verify_beamsplitter_all(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--matrix", "beamsplitter", "--suite", "all", "--budget", "3"
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert all(r["passed"] for r in records)
    names = {r["identity"] for r in records}
    assert {"lemma2", "theorem1", "theorem2", "corollary1", "muir"} <= names
    assert "0 failed" in err


def test_verify_haar_theorem1(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--matrix", "haar:4:7", "--suite", "theorem1", "--budget", "3",
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert all(r["residual"] <= 1e-10 for r in records)


def test_verify_rejects_non_unitary_file(capsys, tmp_path):
    path = tmp_path / "badmatrix.json"
    save_matrix(path, np.array([[1.0, 0.0], [0.0, 2.0]]))
    code, _, err = run_cli(
        capsys, "verify", "--matrix", f"file:{path}", "--suite", "theorem1"
    )
    assert code == 2
    assert "not unitary" in err


def test_verify_reports_failures_with_exit_one(capsys):
    # an impossible tolerance turns benign rounding into failures
    code, out, err = run_cli(
        capsys,
        "verify", "--matrix", "haar:3:2", "--suite", "theorem1",
        "--budget", "2", "--tolerance", "1e-30",
    )
    assert code == 1
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert any(not r["passed"] for r in records)
    assert "failed" in err


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--matrix", "beamsplitter", "--suite", "nonsense"
    )
    assert code == 2
    assert "--suite" in err


def test_verify_csv_schema(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--matrix", "beamsplitter", "--suite", "two-particle",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "identity,N,input,output,residual,passed"
    assert all(line.endswith("true") for line in lines[1:])


def test_scan_fourier_all_natural(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--matrix", "fourier:3", "--particles", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "in,out,B,F,C,S,D,label"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 9
    assert all(row[-1] == "Natural" for row in rows)
    for row in rows:
        s, c = float(row[5]), float(row[4])
        assert abs(s - 2.0 * c) <= 1e-10


def test_scan_permutation_boundary(capsys):
    code, out, _ = run_cli(
        capsys,
        "scan", "--matrix", "permutation:2,1", "--particles", "2", "--format", "csv",
    )
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert all(row.split(",")[-1] == "Boundary" for row in rows)


def test_scan_single_particle_has_no_label(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--matrix", "haar:3:5", "--particles", "1"
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 9
    assert all(r["label"] == "-" for r in records)
    assert all(abs(r["B"] - r["F"]) <= 1e-12 for r in records)


def test_scan_budget_gate(capsys):
    code, _, err = run_cli(
        capsys, "scan", "--matrix", "haar:5:1", "--particles", "5", "--budget", "4"
    )
    assert code == 3
    assert "--particles" in err


def test_gf_zeros(capsys):
    code, out, _ = run_cli(
        capsys, "gf", "--matrix", "beamsplitter", "--x", "0,0", "--z", "0,0"
    )
    assert code == 0
    record = json.loads(out)
    assert record["closed_form"] == 1.0
    assert record["minor_expansion"] == 1.0
    assert record["truncated_series"] == 1.0


def test_gf_fourier_agreement(capsys):
    code, out, _ = run_cli(
        capsys,
        "gf", "--matrix", "fourier:3", "--x", "0.3,0.3,0.3", "--z", "0.3,0.3,0.3",
        "--cutoff", "12",
    )
    assert code == 0
    record = json.loads(out)
    assert record["delta_closed_minor"] <= 1e-12
    assert record["delta_closed_series"] <= 1e-6
    assert record["tail_bound_advisory"] >= 0.0


def test_gf_domain_gate(capsys):
    code, _, err = run_cli(
        capsys, "gf", "--matrix", "beamsplitter", "--x", "1.0,0", "--z", "0,0"
    )
    assert code == 2
    assert "--x" in err


def test_embed_identity_2x2(capsys):
    code, out, _ = run_cli(
        capsys,
        "embed", "--matrix", "permutation:1,2", "--in", "1,1", "--out", "1,1",
    )
    assert code == 0
    record = json.loads(out)
    assert record["direct_passed"] and record["dilation_passed"]
    assert record["consistent"]
    assert record["direct_residual"] <= 1e-10
    assert record["dilation_residual"] <= 1e-10
    assert record["dilation_size"] == 4


def test_embed_zero_matrix(capsys, tmp_path):
    path = tmp_path / "zero.json"
    save_matrix(path, np.zeros((2, 2)))
    code, out, _ = run_cli(
        capsys, "embed", "--matrix", f"file:{path}", "--in", "1,1", "--out", "1,1"
    )
    assert code == 0
    record = json.loads(out)
    assert record["direct_passed"] and record["dilation_passed"]
    assert record["epsilon"] == 1.0


def test_embed_random_3x3_consistency(capsys, tmp_path):
    rng = np.random.default_rng(44)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    path = tmp_path / "random.json"
    save_matrix(path, a)
    code, out, _ = run_cli(
        capsys,
        "embed", "--matrix", f"file:{path}", "--in", "1,1,0", "--out", "0,1,1",
        "--size", "8",
    )
    record = json.loads(out)
    assert record["consistent"]
    assert record["dilation_size"] == 8
    assert code == 0


def test_unknown_matrix_source(capsys):
    code, _, err = run_cli(
        capsys, "compute", "--matrix", "mystery", "--in", "1", "--out", "1"
    )
    assert code == 2
    assert "--matrix" in err


def test_identical_runs_are_byte_identical(capsys):
    args = (
        "verify", "--matrix", "haar:3:5",
        "--suite", "two-particle,sum-difference", "--budget", "2",
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()
