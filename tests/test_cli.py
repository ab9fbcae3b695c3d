"""Command line interface: exit codes, reports, determinism."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from g2coflow import cli, coflow, soliton
from g2coflow.almost_abelian import random_sp, random_su3
from g2coflow.cli import main
from g2coflow.g2 import CONVENTIONS, canonical_g2


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
    # empty means no override
    monkeypatch.setenv("G2COFLOW_TOL", "")
    assert main(["verify", "--suite", "laplacian", "--samples", "2"]) == 0


@pytest.mark.parametrize("value", ["abc", "nan", "-1"])
def test_bad_env_tolerance_exits_two(value, monkeypatch, capsys):
    monkeypatch.setenv("G2COFLOW_TOL", value)
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "appendix"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    message = f"G2COFLOW_TOL: expected a positive finite number, got {value!r}"
    assert message in captured.err
    assert "Traceback" not in captured.err and "PASS" not in captured.out


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
    assert "PASS normSq_nonincreasing" in text
    assert "PASS torsionNormSq_nonincreasing" in text


def test_flow_scalar_bound_residual_is_not_negative_zero(sp_bracket, tmp_path, capsys):
    # R(0) < 0 for this start, so the lower gap at t = 0 is exactly zero
    out = tmp_path / "trace.csv"
    argv = ["flow", "--bracket", sp_bracket, "--t-end", "1.0", "--out", str(out)]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert "PASS scalar_bound: residual=0.000e+00" in text
    assert "-0.000e+00" not in text


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


@pytest.mark.parametrize("shape", [(36,), (4, 9), (3, 12)])
def test_bracket_file_whose_a_is_not_6x6(shape, tmp_path, capsys):
    # the 36 entries of a symplectic bracket, in any other shape, are refused
    A = random_sp(np.random.default_rng(41), canonical_g2("section4"))
    path = write_bracket(tmp_path / "shaped.json", A.reshape(shape))
    out = tmp_path / "trace.csv"
    assert main(["flow", "--bracket", path, "--out", str(out)]) == 2
    assert main(["soliton", "check", "--bracket", path]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("cannot read bracket file") == 2
    assert captured.err.count(f"A has shape {shape}, expected (6, 6)") == 2
    assert captured.out == ""
    assert not out.exists()


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


@pytest.mark.parametrize("at", [False, True], ids=["above", "at"])
def test_flow_backward_from_the_ceiling_exits_two(at, tmp_path, monkeypatch, capsys):
    """A backward start above the norm ceiling (|A| = 4, ceiling 1) or on it
    exits 2 before the stepper runs, naming both norms."""
    A = random_sp(np.random.default_rng(5), canonical_g2("section4"))
    path = write_bracket(tmp_path / "bracket.json", 4.0 * A / np.linalg.norm(A))
    y0 = np.array(json.loads(Path(path).read_text())["A"]).ravel()
    norm = math.sqrt(y0.dot(y0))
    ceiling = norm if at else 1.0

    def stepper(*args, **kwargs):
        raise AssertionError("the stepper ran")

    monkeypatch.setattr(coflow, "_dopri", stepper)
    argv = ["flow", "--bracket", path, "--backward", "--norm-ceiling", repr(ceiling)]
    code, out, err = run_main([*argv, "--out", str(tmp_path / "t.csv")], capsys)
    assert code == 2 and out == ""
    assert err == (
        f"integration failed: the start's norm |A| = {norm:.6g} is at or above "
        f"the norm ceiling {ceiling:g}\n"
    )
    assert not (tmp_path / "t.csv").exists()


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
    # the record is the certificate, byte for byte, plus checks and pass
    checks, ok = report.pop("checks"), report.pop("pass")
    assert ok is True and all(chk["pass"] for chk in checks)
    assert [chk["name"] for chk in checks] == [
        "certificate/finite",
        "example/c",
        "example/d",
        "example/kind",
        "example/pde",
    ]
    ex = soliton.load_example("nilpotent3")
    cert = soliton.certify(ex["A"], canonical_g2(ex["convention"]))
    expected, rest = tmp_path / "expected.json", tmp_path / "rest.json"
    cli.coflow._write_json(str(expected), cert.to_dict())
    cli.coflow._write_json(str(rest), report)
    assert rest.read_bytes() == expected.read_bytes()


def test_soliton_non_finite_certificate_fails(tmp_path, capsys):
    # a finite bracket whose square overflows: c, d and residuals are NaN
    A = random_sp(np.random.default_rng(11), canonical_g2("section4"))
    path = write_bracket(tmp_path / "huge.json", A * (1e160 / np.linalg.norm(A)))
    report_path = tmp_path / "soliton.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(["soliton", "check", "--bracket", path, "--report", str(report_path)])
    assert code == 1
    assert "FAIL certificate/finite" in capsys.readouterr().out
    record = json.loads(report_path.read_text())
    assert record["pass"] is False
    assert [chk["name"] for chk in record["checks"]] == ["certificate/finite"]


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_soliton_nan_c_has_no_classification(convention, tmp_path, capsys):
    # at |A| = 1e160 the symbol overflows and c is NaN: no sign, no verdict
    A = random_sp(np.random.default_rng(5), canonical_g2(convention))
    path = write_bracket(tmp_path / "huge.json", A * (1e160 / np.linalg.norm(A)))
    argv = ["soliton", "check", "--convention", convention, "--bracket", path]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(argv)
    out = capsys.readouterr().out
    assert code == 1
    assert "kind=none classification=undefined c=nan" in out
    assert "shrinking" not in out and "FAIL certificate/finite" in out


def test_soliton_bracket_generic(sp_bracket, capsys):
    assert main(["soliton", "check", "--bracket", sp_bracket]) == 0
    assert "none" in capsys.readouterr().out


def test_soliton_bracket_non_symplectic(tmp_path):
    bad = write_bracket(tmp_path / "bad.json", np.ones((6, 6)))
    assert main(["soliton", "check", "--bracket", bad]) == 3


def test_soliton_zero_bracket_exits_two(tmp_path, capsys):
    zero = write_bracket(tmp_path / "zero.json", np.zeros((6, 6)))
    assert main(["soliton", "check", "--bracket", zero]) == 2
    captured = capsys.readouterr()
    assert "cannot certify bracket" in captured.err
    assert "undefined for the zero bracket" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_soliton_underflowing_bracket_exits_two(convention, tmp_path, capsys):
    # a unit bracket times 1e-170 is nonzero, but its |A|^2 underflows to 0
    A = random_sp(np.random.default_rng(5), canonical_g2(convention))
    tiny = write_bracket(tmp_path / "tiny.json", 1e-170 * A / np.linalg.norm(A))
    argv = ["soliton", "check", "--bracket", tiny, "--convention", convention]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "cannot certify bracket" in captured.err
    assert "underflows" in captured.err and "zero bracket" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_flow_non_finite_bracket_exits_two(value, tmp_path, capsys):
    A = random_sp(np.random.default_rng(3), canonical_g2("section4"))
    A[2, 4] = value
    path = write_bracket(tmp_path / "bad.json", A)
    out = tmp_path / "trace.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["flow", "--bracket", path, "--out", str(out)]) == 2
    assert "non-finite entries" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_soliton_non_finite_bracket_exits_two(value, tmp_path, capsys):
    A = np.zeros((6, 6))
    A[0, 0] = value
    path = write_bracket(tmp_path / "bad.json", A)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["soliton", "check", "--bracket", path]) == 2
    captured = capsys.readouterr()
    assert "non-finite entries" in captured.err
    assert captured.out == ""


def test_flow_drift_over_tolerance_writes_nothing(tmp_path, capsys):
    fixture = str(Path(soliton.__file__).parent / "fixtures" / "nilpotent3.json")
    out = tmp_path / "trace.csv"
    argv = ["flow", "--convention", "example", "--bracket", fixture]
    assert main(argv + ["--sp-drift-tol", "1e-17", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "integration failed: symplectic drift" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_soliton_skew_sweep(tmp_path, capsys):
    report_path = tmp_path / "sweep.json"
    argv = ["soliton", "check", "--skew-sweep", "10", "--seed", "2"]
    assert main([*argv, "--report", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "skew_algebraic" in out and "FAIL" not in out
    record = json.loads(report_path.read_text())
    assert sorted(record) == ["checks", "convention", "pass", "seed"]
    assert [chk["name"] for chk in record["checks"]] == [
        "skew_sweep/skew_algebraic",
        "skew_sweep/skew_c_nonpositive",
        "skew_sweep/c_equals_minus_torsion_sq",
    ]
    assert record["convention"] == "section4" and record["seed"] == 2
    assert record["pass"] is True
    assert all(f"PASS {chk['name']}:" in out for chk in record["checks"])


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_near_steady_skew_sweep_passes(monkeypatch, convention, capsys):
    # su(3) + eps J has c = -9 eps^2 = -|T|^2: expanding, not steady, and
    # not torsion-free, which the sweep must not read as a failure
    eps = 2e-6
    drawn = []

    def near_steady(rng, data):
        drawn.append(random_su3(rng, data) + eps * data.J)
        return drawn[-1]

    monkeypatch.setattr(cli, "random_sp_skew", near_steady)
    argv = ["soliton", "check", "--skew-sweep", "3", "--convention", convention]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "PASS skew_sweep/c_equals_minus_torsion_sq" in out and "FAIL" not in out
    data = canonical_g2(convention)
    for A in drawn:
        report = soliton.certify(A, data)
        assert report.classification == "expanding"
        assert abs(report.c + 9.0 * eps**2) < 1e-14


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_skew_sample_reads_one_symbol_record(monkeypatch, convention):
    calls = []
    inner = soliton.symbol_terms

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(soliton, "symbol_terms", counted)
    data = canonical_g2(convention)
    for i in range(4):
        cli._sample_skew(data, np.random.default_rng((5, i)))
        assert len(calls) == i + 1


@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("direction", [[], ["--backward"]])
def test_flow_from_huge_bracket_exits_two(convention, direction, tmp_path, capsys):
    # at |A| = 1e100 the norm of the first derivative overflows; a forward
    # run ends in the drift gate's exit 2, not in a traceback, and a backward
    # one exits 2 at the start, above the default norm ceiling
    A = random_sp(np.random.default_rng(5), canonical_g2(convention))
    path = write_bracket(tmp_path / "huge.json", 1e100 * A / np.linalg.norm(A))
    argv = ["flow", "--convention", convention, "--bracket", path, *direction]
    with np.errstate(all="ignore"):
        code, out, err = run_main([*argv, "--out", str(tmp_path / "t.csv")], capsys)
    assert code == 2
    assert "integration failed" in err and "PASS" not in out


@pytest.mark.parametrize("direction", [[], ["--backward"]])
def test_flow_names_a_non_finite_state(
    direction, sp_bracket, tmp_path, monkeypatch, capsys
):
    # every sample from the fourth on is NaN, so its drift is NaN too; the
    # run names the state, not a drift
    dopri = coflow._dopri
    runs = []

    def overflowing(*args, **kwargs):
        runs.append(dopri(*args, **kwargs))
        runs[-1].y[3:] = np.nan
        return runs[-1]

    monkeypatch.setattr(coflow, "_dopri", overflowing)
    argv = ["flow", "--bracket", sp_bracket, *direction]
    code, out, err = run_main([*argv, "--out", str(tmp_path / "t.csv")], capsys)
    assert code == 2 and "PASS" not in out
    message = f"the state became non-finite (overflow) at t = {runs[0].t[3]:.6g}"
    assert err == f"integration failed: {message}\n"


@pytest.mark.parametrize(
    "point, expected", [("1e100,1e100", 0), ("1e200,3e200", 2)]
)
def test_phase_huge_trajectory_ends_with_an_exit_code(
    point, expected, tmp_path, capsys
):
    out = tmp_path / "traj.csv"
    with np.errstate(all="ignore"):
        code, _, err = run_main(
            ["phase", f"--trajectory={point}", "--out", str(out)], capsys
        )
    assert code == expected
    if expected == 2:
        assert "trajectory integration failed" in err


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps serially."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


@pytest.mark.parametrize(
    "argv, cpus, expected",
    [
        (["verify", "--suite", "torsion", "--samples", "3", "--jobs", "1000"], 64, 3),
        (["soliton", "check", "--skew-sweep", "3", "--jobs", "1000"], 64, 3),
        (["verify", "--suite", "torsion", "--samples", "9", "--jobs", "1000"], 4, 4),
        (["verify", "--suite", "torsion", "--samples", "9", "--jobs", "2"], 64, 2),
        (["verify", "--suite", "torsion", "--samples", "1", "--jobs", "1000"], 64, None),
        (["verify", "--suite", "torsion", "--samples", "9", "--jobs", "1000"], 1, None),
    ],
)
def test_sweep_pool_is_bounded(argv, cpus, expected, monkeypatch, capsys):
    import concurrent.futures

    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(
        cli.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
    )
    assert main(argv) == 0
    pooled = capsys.readouterr().out
    # a pool of one runs serially, without an executor
    assert _RecordingPool.sizes == ([] if expected is None else [expected])
    assert main([*argv[:-1], "1"]) == 0
    assert capsys.readouterr().out == pooled


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


@pytest.mark.parametrize("point", ["1,1", "-0.5,-0.5"])
def test_phase_trajectory_on_the_diagonal(point, tmp_path, capsys):
    # H = 0 on y = x, so log|H| is -inf there; the drift is judged on H
    argv = ["phase", f"--trajectory={point}", "--out", str(tmp_path / "traj.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # -inf - (-inf) would warn
        code, _, err = run_main(argv, capsys)
    assert code == 0
    assert err == "H drift: 0.000e+00\n"


@pytest.mark.parametrize("point", ["1,2,3", "1", "1,x", "nan,1", "1,inf"])
def test_phase_malformed_trajectory_exits_two(point, capsys):
    with pytest.raises(SystemExit) as err:
        main(["phase", "--trajectory", point])
    assert err.value.code == 2
    assert "expected 'x,y'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "modes",
    [
        ["--nullclines", "--trajectory", "1,2"],
        ["--trajectory", "1,2", "--trajectories", "2"],
        ["--nullclines", "--trajectories", "1"],
        ["--nullclines", "--trajectories", "0"],
    ],
)
def test_phase_modes_are_mutually_exclusive(modes, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_main(["phase", *modes, "--res", "5"], capsys)
    assert code == 2
    assert "not allowed with argument" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_verify_report_write_failure(tmp_path, capsys):
    report = tmp_path / "nodir" / "x.json"
    assert main(["verify", "--suite", "appendix", "--report", str(report)]) == 2
    assert "could not write report" in capsys.readouterr().err


def test_soliton_report_write_failure(tmp_path, capsys):
    report = tmp_path / "nodir" / "x.json"
    for run in (["--example", "nilpotent3"], ["--skew-sweep", "5"]):
        assert main(["soliton", "check", *run, "--report", str(report)]) == 2
        assert "could not write report" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "argv",
    [
        ["flow", "--bracket", "b.json", "--tol", "1e-30"],
        ["flow", "--bracket", "b.json", "--jobs", "7"],
        ["flow", "--bracket", "b.json", "--seed", "99"],
        ["phase", "--convention", "section4"],
        ["phase", "--tol", "1"],
        ["phase", "--jobs", "3"],
    ],
)
def test_flags_a_subcommand_does_not_read_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


def test_verify_and_soliton_take_the_sweep_flags(capsys):
    flags = ["--convention", "example", "--tol", "1e-8", "--jobs", "1", "--seed", "3"]
    assert main(["verify", "--suite", "appendix", *flags]) == 0
    assert main(["soliton", "check", "--skew-sweep", "4", *flags]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_nan_sample_residual_fails_the_sweep(monkeypatch, capsys):
    tol, count, _ = cli.SUITES["ricci"]
    nan_sampler = lambda data, rng: {"ricci_torsion_form": math.nan}  # noqa: E731
    monkeypatch.setitem(cli.SUITES, "ricci", (tol, count, nan_sampler))
    assert main(["verify", "--suite", "ricci", "--samples", "3"]) == 1
    assert "FAIL ricci/ricci_torsion_form: residual=nan" in capsys.readouterr().out


def test_flow_nan_scalar_bound_gap_fails(monkeypatch, sp_bracket, tmp_path, capsys):
    bound = {
        "skipped": False,
        "bound_ok": True,
        "lower_gap": math.nan,
        "upper_gap": 0.0,
        "R_increasing": True,
    }
    monkeypatch.setattr(cli.coflow, "scalar_bound_check", lambda trace: bound)
    out = str(tmp_path / "trace.csv")
    assert main(["flow", "--bracket", sp_bracket, "--t-end", "1.0", "--out", out]) == 1
    assert "FAIL scalar_bound: residual=nan" in capsys.readouterr().out


@pytest.mark.parametrize("residual", [math.nan, math.inf])
def test_check_fails_non_finite_residual(residual):
    assert cli._check("c", residual, 1.0)["pass"] is False
    assert cli._check("c", residual, 1.0, ok=True)["pass"] is False


@pytest.mark.parametrize(
    "argv, message",
    [
        (["flow", "--t-end", "nan"], "t_end must be finite"),
        (["flow", "--t-end", "0"], "t_end is a positive duration"),
        (["flow", "--rel-tol", "-1"], "expected a positive finite number, got '-1'"),
        (["phase", "--res", "1"], "resolution must be at least 2"),
        (["phase", "--xmax", "nan"], "grid bounds must be finite"),
        (["verify", "--samples", "-1"], "expected a positive integer, got '-1'"),
        (["verify", "--samples", "0"], "expected a positive integer, got '0'"),
        (["soliton", "check", "--skew-sweep", "0"], "expected a positive integer"),
        (
            ["verify", "--suite", "laplacian", "--samples", "2", "--seed", "-1"],
            "expected a non-negative integer, got '-1'",
        ),
        (
            ["soliton", "check", "--skew-sweep", "2", "--seed", "-3"],
            "expected a non-negative integer, got '-3'",
        ),
        (
            ["phase", "--res", "5", "--trajectories", "1", "--seed", "-1"],
            "expected a non-negative integer, got '-1'",
        ),
        (["phase", "--trajectories", "-1"], "expected a non-negative integer"),
        (["phase", "--nullclines", "--xmin", "nan"], "grid bounds must be finite"),
    ],
)
def test_bad_numeric_input_exits_two(
    argv, message, sp_bracket, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    if argv[0] == "flow":
        argv = [*argv, "--bracket", sp_bracket]
    code, out, err = run_main(argv, capsys)
    assert code == 2
    assert message in err
    assert "Traceback" not in err and "PASS" not in out


def test_phase_trajectories_land_beside_out(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "sub" / "grid.csv"
    out.parent.mkdir()
    argv = ["phase", "--res", "5", "--trajectories", "2", "--seed", "5", "--t-end", "1"]
    assert main([*argv, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.parent.iterdir()) == [
        "grid.csv",
        "trajectory_seed5_0.csv",
        "trajectory_seed5_1.csv",
    ]
    assert [p.name for p in tmp_path.iterdir()] == ["sub"]
