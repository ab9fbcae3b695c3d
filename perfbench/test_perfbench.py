"""Fast tests of the benchmark itself: inputs, checks, failure counting, tracing.

Run with `python3 -m pytest perfbench -q` from the repository root.
"""

import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import speed
import tracer
import workloads
from g2coflow import cli, soliton
from g2coflow.almost_abelian import random_sp, random_sp_skew

HERE = Path(__file__).resolve().parent
DATA = {conv: workloads.canonical_g2(conv) for conv in workloads.CONVENTIONS}


def _flatten(value):
    if isinstance(value, dict):
        return [x for k in sorted(value) for x in [k] + _flatten(value[k])]
    if isinstance(value, (list, tuple)):
        return [x for v in value for x in _flatten(v)]
    return [np.asarray(value).tolist()]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(name, tmp_path):
    made = []
    for i, seed in enumerate((5, 5, 6)):
        workdir = tmp_path / str(i)
        workdir.mkdir()
        made.append(_flatten(workloads.WORKLOADS[name](seed, workdir, DATA).inputs))
    assert made[0] == made[1]
    assert made[0] != made[2]


def _flow_trace(tmp_path, t_end="1"):
    A = random_sp(np.random.default_rng(3), DATA["section4"])
    bracket = tmp_path / "bracket.json"
    bracket.write_text(json.dumps({"A": A.tolist()}))
    out = tmp_path / "trace.csv"
    workloads.call_cli(["flow", "--bracket", str(bracket), "--t-end", t_end, "--out", str(out)])
    return checks.read_trace(out), A


def test_flow_check_rejects_increasing_norm(tmp_path):
    trace, A0 = _flow_trace(tmp_path)
    J = DATA["section4"].J
    checks.check_flow_trace(trace, A0, J, t_end=1.0)
    bad = dict(trace, A=trace["A"].copy())
    k = len(bad["A"]) // 2
    bad["A"][k] = 1.001 * bad["A"][k - 1]
    with pytest.raises(checks.CheckFailed, match=r"\|A\|\^2 increases"):
        checks.check_flow_trace(bad, A0, J, t_end=1.0)


def test_flow_check_rejects_short_run(tmp_path):
    trace, A0 = _flow_trace(tmp_path)
    with pytest.raises(checks.CheckFailed, match="ends at"):
        checks.check_flow_trace(trace, A0, DATA["section4"].J, t_end=2.0)


def test_certificate_check_rejects_flipped_verdict():
    data = DATA["section4"]
    A = random_sp_skew(np.random.default_rng(4), data)
    report = soliton.certify(A, data)
    checks.check_certificate(report, A, data.J, "skew")
    flipped = dataclasses.replace(report, kind="none")
    with pytest.raises(checks.CheckFailed, match="skew bracket certified as none"):
        checks.check_certificate(flipped, A, data.J, "skew")


def test_verify_check_rejects_one_failing_residual(tmp_path):
    path = tmp_path / "report.json"
    workloads.call_cli(
        ["verify", "--suite", "torsion", "--samples", "1", "--report", str(path)]
    )
    report = json.loads(path.read_text())
    checks.check_verify_report(report, "torsion", "section4")
    report["checks"][-1]["residual"] = 1e-6
    with pytest.raises(checks.CheckFailed, match="residual 1.000e-06"):
        checks.check_verify_report(report, "torsion", "section4")


def test_pde_order_check_rejects_first_order_decay():
    checks.check_pde_order({1e-2: 4e-5, 1e-3: 4e-7, 1e-4: 4e-9})
    with pytest.raises(checks.CheckFailed, match="falls 10.0x"):
        checks.check_pde_order({1e-2: 4e-5, 1e-3: 4e-6})


def test_nonzero_exit_counts_as_failed_operation(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "main", lambda argv: 1)
    bench = workloads.VerifySweep(1, tmp_path, DATA)
    result = workloads.run(bench, seconds=0.0, log=io.StringIO())
    assert result.attempted == 12
    assert result.failed == 12
    assert result.wrong == []


def test_speed_factor_uses_samples_around_the_interval():
    track = speed.SpeedTrack()
    track.at = [0.0, 1.0, 2.0]
    track.kernel_s = [speed.REFERENCE_S, 2 * speed.REFERENCE_S, 4 * speed.REFERENCE_S]
    assert track.factor(0.2, 0.8) == pytest.approx(1 / 1.5)
    assert track.factor(1.5, 1.7) == pytest.approx(1 / 3.0)
    assert track.factor(2.5, 2.6) == pytest.approx(1 / 4.0)


def test_tracing_does_not_change_results():
    data = DATA["section4"]
    A = random_sp_skew(np.random.default_rng(7), data)
    plain = soliton.certify(A, data)
    tr = tracer.Tracer()
    tr.install()
    try:
        with tr.op_span():
            traced = soliton.certify(A, data)
    finally:
        tr.uninstall()
    assert soliton.certify.__name__ == "certify" and not hasattr(soliton.certify, "__wrapped__")
    assert traced.kind == plain.kind and traced.c == plain.c
    table = tr.summary()
    assert table["soliton.certify"]["calls"] == 1
    assert table["g2.circ6"]["calls"] >= 1  # reached through soliton's own binding
    for stats in table.values():
        assert stats["self_s"] <= stats["total_s"] + 1e-12


def test_missing_function_is_reported_absent(monkeypatch):
    import g2coflow.g2 as g2

    monkeypatch.setattr(g2, "__all__", [n for n in g2.__all__ if n != "circ6"])
    monkeypatch.setattr(tracer, "LAYERS", tracer.LAYERS + ("no_such_layer",))
    tr = tracer.Tracer()
    tr.install()
    tr.uninstall()
    metrics, absent = tracer.per_layer_metrics(tr, {}, 1)
    assert "g2.circ6.calls" in absent and metrics["g2.circ6.calls"][0] == 0.0
    assert tr.absent(["no_such_layer"]) == ["no_such_layer"]
    assert "g2.canonical_g2.calls" not in absent


def test_benchmark_json_matches_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    result = workloads.RunResult(setup_end=0.0, attempted=1)
    result.speed.sample()
    result.timed.append(("op", 0.0, 0.1, True))
    printed = workloads.end_to_end(result, 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: u for k, (_, u) in printed.items()
    }
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("scratch", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
