"""Command line interface: exit codes, reports, determinism."""

import json

import numpy as np
import pytest

from g2coflow import cli
from g2coflow.almost_abelian import random_sp
from g2coflow.cli import main
from g2coflow.g2 import canonical_g2


def write_bracket(path, A):
    path.write_text(json.dumps({"A": np.asarray(A).tolist()}))
    return str(path)


@pytest.fixture()
def sp_bracket(tmp_path):
    A = random_sp(np.random.default_rng(41), canonical_g2("section4"))
    return write_bracket(tmp_path / "bracket.json", A)


def test_verify_single_suite_passes(capsys):
    assert main(["verify", "--suite", "appendix"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_all_suites_small_samples(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code = main(
        [
            "verify",
            "--suite",
            "all",
            "--samples",
            "3",
            "--report",
            str(report_path),
        ]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["pass"] is True
    assert report["suite"] == "all"
    names = [check["name"] for check in report["checks"]]
    assert "laplacian/laplacian_oracle" in names
    assert all(check["pass"] for check in report["checks"])


def test_verify_fails_at_impossible_tolerance(capsys):
    code = main(["verify", "--suite", "laplacian", "--samples", "2", "--tol", "1e-20"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_env_tolerance(monkeypatch, capsys):
    monkeypatch.setenv("G2COFLOW_TOL", "1e-20")
    assert main(["verify", "--suite", "laplacian", "--samples", "2"]) == 1
    # explicit flag wins over the environment
    assert main(
        ["verify", "--suite", "laplacian", "--samples", "2", "--tol", "1e-8"]
    ) == 0


def test_verify_jobs_deterministic(tmp_path):
    reports = []
    for jobs, name in ((1, "serial.json"), (4, "parallel.json")):
        path = tmp_path / name
        code = main(
            [
                "verify",
                "--suite",
                "torsion",
                "--samples",
                "8",
                "--jobs",
                str(jobs),
                "--report",
                str(path),
            ]
        )
        assert code == 0
        reports.append(json.loads(path.read_text()))
    assert reports[0]["checks"] == reports[1]["checks"]


def test_flow_smoke_and_outputs(sp_bracket, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(
        [
            "flow",
            "--bracket",
            sp_bracket,
            "--t-end",
            "2.0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert out.exists()
    assert out.with_suffix(".meta.json").exists()
    meta = json.loads(out.with_suffix(".meta.json").read_text())
    assert meta["termination"] == "t_end"
    text = capsys.readouterr().out
    assert "normSq_nonincreasing" in text


def test_flow_rejects_non_symplectic(tmp_path):
    bad = write_bracket(tmp_path / "bad.json", np.eye(6))
    assert main(["flow", "--bracket", bad, "--t-end", "1.0"]) == 3


def test_flow_missing_bracket_file(tmp_path, capsys):
    gone = str(tmp_path / "gone.json")
    assert main(["flow", "--bracket", gone, "--t-end", "1.0"]) == 2
    assert "cannot read bracket file" in capsys.readouterr().err


def test_soliton_missing_bracket_file(tmp_path, capsys):
    gone = str(tmp_path / "gone.json")
    assert main(["soliton", "check", "--bracket", gone]) == 2
    assert "cannot read bracket file" in capsys.readouterr().err


def test_bracket_file_without_field_a(tmp_path, capsys):
    listed = tmp_path / "listed.json"
    listed.write_text("[1, 2, 3]")
    assert main(["flow", "--bracket", str(listed), "--t-end", "1.0"]) == 2
    assert main(["soliton", "check", "--bracket", str(listed)]) == 2
    assert capsys.readouterr().err.count("cannot read bracket file") == 2


def test_soliton_unknown_example(capsys):
    assert main(["soliton", "check", "--example", "no-such-fixture"]) == 2
    assert "unknown example 'no-such-fixture'" in capsys.readouterr().err


def test_flow_write_failure(sp_bracket, tmp_path):
    missing_dir = tmp_path / "nope" / "trace.csv"
    code = main(
        ["flow", "--bracket", sp_bracket, "--t-end", "1.0", "--out", str(missing_dir)]
    )
    assert code == 2


def test_flow_axis_start_closed_form(tmp_path, capsys):
    from g2coflow.planar import embed

    bracket = write_bracket(tmp_path / "axis.json", embed(1.0, 0.0))
    out = tmp_path / "axis.csv"
    code = main(
        [
            "flow",
            "--bracket",
            bracket,
            "--convention",
            "example",
            "--t-end",
            "3.0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert "axis start" in capsys.readouterr().out


def test_flow_backward_ceiling(sp_bracket, tmp_path):
    out = tmp_path / "back.csv"
    code = main(
        [
            "flow",
            "--bracket",
            sp_bracket,
            "--t-end",
            "50.0",
            "--backward",
            "--norm-ceiling",
            "40.0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    meta = json.loads(out.with_suffix(".meta.json").read_text())
    assert meta["termination"] == "norm_ceiling"


def test_soliton_example(capsys, tmp_path):
    report_path = tmp_path / "soliton.json"
    code = main(
        [
            "soliton",
            "check",
            "--example",
            "nilpotent3",
            "--report",
            str(report_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "semi_algebraic" in out
    report = json.loads(report_path.read_text())
    assert abs(report["c"] + 2.5) < 1e-12
    assert report["kind"] == "semi_algebraic"


def test_soliton_bracket_generic(sp_bracket, capsys):
    assert main(["soliton", "check", "--bracket", sp_bracket]) == 0
    assert "none" in capsys.readouterr().out


def test_soliton_bracket_non_symplectic(tmp_path):
    bad = write_bracket(tmp_path / "bad.json", np.ones((6, 6)))
    assert main(["soliton", "check", "--bracket", bad]) == 3


def test_soliton_skew_sweep(capsys):
    assert main(["soliton", "check", "--skew-sweep", "10"]) == 0
    out = capsys.readouterr().out
    assert "skew_algebraic" in out and "FAIL" not in out


def test_phase_grid_csv(tmp_path):
    out = tmp_path / "phase.csv"
    code = main(["phase", "--res", "11", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 11 * 11 + 1
    # deterministic rerun
    first = out.read_bytes()
    assert main(["phase", "--res", "11", "--out", str(out)]) == 0
    assert out.read_bytes() == first


def test_phase_nullclines(tmp_path):
    out = tmp_path / "null.csv"
    assert main(["phase", "--nullclines", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header == "line,x,y"


def test_phase_trajectory(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main(
        ["phase", "--trajectory", "1.0,2.0", "--t-end", "2.0", "--out", str(out)]
    )
    assert code == 0
    assert out.read_text().startswith("t,x,y,logAbsH")
    assert "drift" in capsys.readouterr().err


@pytest.mark.parametrize("point", ["1,2,3", "1", "1,x"])
def test_phase_malformed_trajectory_exits_two(point, capsys):
    with pytest.raises(SystemExit) as err:
        main(["phase", "--trajectory", point])
    assert err.value.code == 2
    assert "expected 'x,y'" in capsys.readouterr().err


def test_phase_write_failure(tmp_path):
    out = tmp_path / "missing" / "phase.csv"
    assert main(["phase", "--res", "5", "--out", str(out)]) == 2


def test_unknown_arguments_exit_two():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--no-such-flag"])
    assert err.value.code == 2


def run_main(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_reused_across_calls_matches_fresh_parser(sp_bracket, tmp_path, capsys):
    flow_out, phase_out = str(tmp_path / "flow.csv"), str(tmp_path / "phase.csv")
    sequence = [
        ["verify", "--suite", "appendix"],
        ["soliton", "check", "--example", "nilpotent3"],
        ["verify", "--no-such-flag"],
        ["flow", "--bracket", sp_bracket, "--t-end", "0.5", "--out", flow_out],
        ["phase", "--res", "5", "--out", phase_out],
        ["verify", "--suite", "appendix", "--tol", "1e-8"],
    ]
    reused = [run_main(argv, capsys) for argv in sequence]
    assert cli._parser() is cli._parser()
    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(run_main(argv, capsys))
    assert [code for code, _, _ in reused] == [0, 0, 2, 0, 0, 0]
    assert reused == fresh


def test_main_dispatches_through_module_namespace(monkeypatch):
    cli._parser()  # built before the rebinding below
    seen = []
    monkeypatch.setattr(cli, "cmd_phase", lambda args: seen.append(args.res) or 7)
    assert main(["phase", "--res", "3"]) == 7
    assert seen == [3]
