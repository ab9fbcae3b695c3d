"""Seeded inputs, the operations of each workload, and the timed loop.

The benchmark runs g2coflow from the checkout's own `src/`, in this one
process: the `g2coflow` command through `cli.main` with stdout captured,
and the library API directly. Each workload is a fixed round of operations
repeated until the run's time is up; a run always finishes the round it is
in, so every run attempts the same mix. Inputs come from a pool of POOL
rounds generated from the seed; round r uses pool entry r % POOL.
"""

from __future__ import annotations

import io
import json
import math
import shlex
import statistics
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCRATCH = Path(__file__).resolve().parent / "scratch"

if not (SRC / "g2coflow" / "__init__.py").is_file():
    raise ImportError(f"no g2coflow sources under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
from scipy.linalg import expm  # noqa: E402

from g2coflow import almost_abelian, cli, coflow, soliton  # noqa: E402
from g2coflow.g2 import canonical_g2  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402

CONVENTIONS = ("section4", "example")
POOL = 8
# Samples per verify operation, chosen so every suite costs about the same
# (40-50 ms on a 2-core x86 host); appendix has no samples.
VERIFY_SAMPLES = {
    "appendix": 1,
    "laplacian": 3,
    "torsion": 4,
    "ricci": 5,
    "bianchi": 5,
    "lie": 2,
}
FLOW_NORM = 4.0  # |A| of random flow starts: keeps the step count seed-independent
FLOW_T_END = 100.0
BACKWARD_CEILING = 1e4  # about 2000 RHS evaluations from |A| = 4
# Axis starts run to t = AXIS_T_END / x0^2, so 3 x0^2 t ends at the same
# value and the step count does not depend on the seed.
AXIS_T_END = 100.0
FIXTURE_LAMBDA = (0.9, 1.1)
# Orbit and PDE-residual times for lam = 1; an image scaled by lam runs the
# same orbit on a clock faster by lam^2, so its times are divided by lam^2.
ORBIT_T_END = 4.0
PDE_TIMES = (0.5, 1.5)


class OpFailed(Exception):
    """The program reported failure (non-zero exit) for one operation."""


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], dict | None]


def call_cli(argv: list[str]) -> str:
    """Run the g2coflow command in-process; its stdout on success."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    if rc != 0:
        tail = err.getvalue().strip()[-300:]
        raise OpFailed(f"g2coflow {shlex.join(argv)} exited {rc}: {tail}")
    return out.getvalue()


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng((seed, stream))


def _normalised(A: np.ndarray, norm: float) -> np.ndarray:
    return A * (norm / float(np.linalg.norm(A)))


def fixture_image(rng: np.random.Generator, data_ex) -> tuple[float, np.ndarray]:
    """lam and U for lam * U A U^t with U = expm(random su(3) element)."""
    lam = float(rng.uniform(*FIXTURE_LAMBDA))
    U = expm(almost_abelian.random_su3(rng, data_ex))
    return lam, U


class Workload:
    """Base: holds the G2 data of both conventions and a scratch directory."""

    name = ""

    def __init__(self, seed: int, workdir: Path, data: dict) -> None:
        self.seed = seed
        self.workdir = workdir
        self.data = data
        self.inputs = self.make_inputs()

    def make_inputs(self) -> dict:
        raise NotImplementedError

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError


class VerifySweep(Workload):
    name = "verify-sweep"

    def make_inputs(self) -> dict:
        return {"seeds": _rng(self.seed, 1).integers(0, 2**31 - 1, POOL)}

    def round(self, r: int) -> list[Op]:
        seed = int(self.inputs["seeds"][r % POOL])
        report = self.workdir / "report.json"
        ops = []
        for conv in CONVENTIONS:
            for suite in checks.SUITE_TOL:
                argv = [
                    "verify", "--suite", suite,
                    "--samples", str(VERIFY_SAMPLES[suite]),
                    "--seed", str(seed), "--convention", conv,
                    "--tol", repr(checks.SUITE_TOL[suite]),
                    "--report", str(report),
                ]
                ops.append(
                    Op(
                        f"verify/{suite}",
                        lambda argv=argv: call_cli(argv),
                        lambda _, suite=suite, conv=conv: self._check(report, suite, conv),
                    )
                )
        return ops

    @staticmethod
    def _check(path: Path, suite: str, conv: str) -> None:
        try:
            report = json.loads(path.read_text())
        finally:
            path.unlink(missing_ok=True)
        checks.check_verify_report(report, suite, conv)


class FlowHorizon(Workload):
    name = "flow-horizon"

    def make_inputs(self) -> dict:
        rng = _rng(self.seed, 2)
        forward = [
            _normalised(almost_abelian.random_sp(rng, self.data[CONVENTIONS[i % 2]]), FLOW_NORM)
            for i in range(2 * POOL)
        ]
        backward = [
            _normalised(almost_abelian.random_sp(rng, self.data[CONVENTIONS[i % 2]]), FLOW_NORM)
            for i in range(POOL)
        ]
        axis = rng.uniform(0.5, 2.0, POOL)
        inputs = {"forward": np.array(forward), "backward": np.array(backward), "axis": axis}
        for key in ("forward", "backward"):
            for i, A in enumerate(inputs[key]):
                self._bracket_path(key, i).write_text(json.dumps({"A": A.tolist()}))
        for i, x0 in enumerate(axis):
            A = np.zeros((6, 6))
            A[0, 1], A[4, 3] = x0, -x0  # planar.embed(x0, 0) in the example basis
            self._bracket_path("axis", i).write_text(json.dumps({"A": A.tolist()}))
        return inputs

    def _bracket_path(self, key: str, i: int) -> Path:
        return self.workdir / f"{key}-{i}.json"

    def round(self, r: int) -> list[Op]:
        i = r % POOL
        out = self.workdir / "trace.csv"
        plan = [
            ("forward", 2 * i, CONVENTIONS[0]),
            ("forward", 2 * i + 1, CONVENTIONS[1]),
            ("axis", i, "example"),
            ("backward", i, CONVENTIONS[i % 2]),
        ]
        ops = []
        for key, j, conv in plan:
            path = self._bracket_path(key, j)
            argv = ["flow", "--bracket", str(path), "--convention", conv, "--out", str(out)]
            t_end = FLOW_T_END
            if key == "axis":
                t_end = AXIS_T_END / float(self.inputs["axis"][j]) ** 2
            if key == "backward":
                argv += ["--backward", "--t-end", "10", "--norm-ceiling", repr(BACKWARD_CEILING)]
            else:
                argv += ["--t-end", repr(t_end)]
            ops.append(
                Op(
                    f"flow/{key}",
                    lambda argv=argv: call_cli(argv),
                    lambda _, key=key, path=path, conv=conv, t_end=t_end: self._check(
                        out, key, path, conv, t_end
                    ),
                )
            )
        return ops

    def _check(self, out: Path, key: str, bracket: Path, conv: str, t_end: float) -> dict:
        try:
            trace = checks.read_trace(out)
        finally:
            out.unlink(missing_ok=True)
            out.with_name(out.stem + ".meta.json").unlink(missing_ok=True)
        A0 = np.array(json.loads(bracket.read_text())["A"])
        J = self.data[conv].J
        if key == "backward":
            checks.check_flow_trace(trace, A0, J, norm_ceiling=BACKWARD_CEILING)
        else:
            checks.check_flow_trace(
                trace, A0, J, t_end=t_end, axis_x0=A0[0, 1] if key == "axis" else None
            )
        return {
            "rhs_evals": trace["meta"]["nfev"],
            "accepted_steps": len(trace["t"]) - 1,
            "trace_bytes": trace["bytes"],
        }


class SolitonGeometry(Workload):
    name = "soliton-geometry"

    # certificates per round, by family
    PER_ROUND = {"skew": 5, "su3": 1, "generic": 5, "fixture": 2}

    def __init__(self, seed: int, workdir: Path, data: dict) -> None:
        self.fixture = soliton.load_example("nilpotent3")
        self.last_orbit = None
        super().__init__(seed, workdir, data)

    def make_inputs(self) -> dict:
        rng = _rng(self.seed, 3)
        ex = self.data[self.fixture["convention"]]
        inputs: dict = {"conv": {}}
        for family, k in self.PER_ROUND.items():
            mats, convs = [], []
            for i in range(k * POOL):
                conv = CONVENTIONS[i % 2]
                if family == "skew":
                    mats.append(almost_abelian.random_sp_skew(rng, self.data[conv]))
                elif family == "su3":
                    mats.append(almost_abelian.random_su3(rng, self.data[conv]))
                elif family == "generic":
                    mats.append(almost_abelian.random_sp(rng, self.data[conv]))
                else:
                    conv = ex.convention
                    lam, U = fixture_image(rng, ex)
                    mats.append(lam * U @ self.fixture["A"] @ U.T)
                    inputs.setdefault("lam", []).append(lam)
                convs.append(conv)
            inputs[family] = np.array(mats)
            inputs["conv"][family] = convs
        for key in ("orbit", "pde"):
            lams, Us = zip(*(fixture_image(rng, ex) for _ in range(POOL)))
            inputs[key + "_lam"] = np.array(lams)
            inputs[key + "_U"] = np.array(Us)
        return inputs

    def round(self, r: int) -> list[Op]:
        i = r % POOL
        ops = []
        for family, k in self.PER_ROUND.items():
            for j in range(i * k, (i + 1) * k):
                A = self.inputs[family][j]
                data = self.data[self.inputs["conv"][family][j]]
                lam = self.inputs["lam"][j] if family == "fixture" else None
                ops.append(
                    Op(
                        f"certify/{family}",
                        lambda A=A, data=data: soliton.certify(A, data),
                        lambda rep, A=A, data=data, family=family, lam=lam: self._check_cert(
                            rep, A, data, family, lam
                        ),
                    )
                )
        ex = self.data[self.fixture["convention"]]
        lam, U = self.inputs["orbit_lam"][i], self.inputs["orbit_U"][i]
        A_orbit = lam * U @ self.fixture["A"] @ U.T
        D1 = lam**2 * U @ self.fixture["D1"] @ U.T
        c = -2.5 * lam**2
        t_end = ORBIT_T_END / lam**2
        self.last_orbit = None
        ops.append(
            Op(
                "orbit",
                lambda: self._orbit(A_orbit, t_end, ex),
                lambda tr: self._check_orbit(tr, t_end, A_orbit, D1, c),
            )
        )
        ops.append(Op("reconstruct", lambda: self._reconstruct(ex), self._check_reconstruct))
        lam, U = self.inputs["pde_lam"][i], self.inputs["pde_U"][i]
        A_pde = lam * U @ self.fixture["A"] @ U.T
        times = tuple(t / lam**2 for t in PDE_TIMES)
        ops.append(
            Op(
                "pde",
                lambda: coflow.coflow_pde_residuals(A_pde, ex, times=times),
                checks.check_pde_order,
            )
        )
        return ops

    @staticmethod
    def _check_cert(report, A, data, family, lam) -> dict:
        family = "skew" if family == "su3" else family
        semi = checks.check_certificate(report, A, data.J, family, lam)
        return {"semi_algebraic": int(semi)}

    def _orbit(self, A, t_end, data):
        opts = coflow.IntegratorOptions(t_end=t_end, rel_tol=1e-11, abs_tol=1e-13)
        self.last_orbit = coflow.integrate(A, opts, data)
        return self.last_orbit

    @staticmethod
    def _check_orbit(trace, t_end, A, D1, c) -> dict:
        checks.require(trace.ts[-1] == t_end, f"orbit ends at t = {trace.ts[-1]!r}, not {t_end!r}")
        checks.check_orbit(trace.ts, trace.As, A, D1, c)
        return {"rhs_evals": trace.meta["nfev"], "accepted_steps": len(trace.ts) - 1}

    def _reconstruct(self, data):
        trace = self.last_orbit
        if trace is None:
            raise OpFailed("no orbit trace in this round to reconstruct")
        hs = coflow.reconstruct_h(trace, data)
        return trace.As, hs, coflow.reconstruction_gap(trace, hs)

    @staticmethod
    def _check_reconstruct(out) -> None:
        As, hs, gap = out
        checks.check_reconstruction(As, hs, gap)


WORKLOADS = {w.name: w for w in (VerifySweep, FlowHorizon, SolitonGeometry)}


@dataclass
class RunResult:
    setup_end: float  # perf_counter() when set-up ended
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    timed: list[tuple[str, float, float, bool]] = field(default_factory=list)
    speed: speed.SpeedTrack = field(default_factory=speed.SpeedTrack)
    counters: Counter = field(default_factory=Counter)

    def scaled(self) -> list[tuple[str, float, bool]]:
        """(kind, seconds at reference speed, completed) per operation."""
        return [
            (kind, dt * self.speed.factor(t0, t0 + dt), ok)
            for kind, t0, dt, ok in self.timed
        ]

    def speed_scale(self) -> float:
        """Timed seconds at reference speed per raw timed second."""
        raw = sum(dt for _, _, dt, _ in self.timed)
        return sum(dt for _, dt, _ in self.scaled()) / raw if raw else 1.0


def make_workload(name: str, seed: int, workdir: Path) -> Workload:
    data = {conv: canonical_g2(conv) for conv in CONVENTIONS}
    return WORKLOADS[name](seed, workdir, data)


def run(workload: Workload, seconds: float, tracer=None, log=sys.stderr) -> RunResult:
    """Whole rounds until `seconds` of wall time have passed since the first op.

    Only the program call of each operation is timed. Checks and speed
    calibration run between operations, outside the timed intervals and
    outside any span.
    """
    result = RunResult(setup_end=time.perf_counter())
    result.speed.sample()
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        for op in workload.round(r):
            result.speed.sample_if_due()
            result.attempted += 1
            t0 = time.perf_counter()
            try:
                with tracer.op_span() if tracer else nullcontext():
                    out = op.run()
            except OpFailed as exc:
                failure = str(exc)
            except Exception:
                failure = traceback.format_exc()
            else:
                failure = None
            result.timed.append((op.kind, t0, time.perf_counter() - t0, failure is None))
            if failure is not None:
                result.failed += 1
                print(f"failed {op.kind}: {failure}", file=log)
                continue
            try:
                result.counters.update(op.check(out) or {})
            except checks.CheckFailed as exc:
                result.wrong.append(f"{op.kind}: {exc}")
            except Exception:
                result.wrong.append(f"{op.kind}: check raised\n{traceback.format_exc()}")
        r += 1
    result.speed.sample()
    for line in result.wrong:
        print(f"incorrect {line}", file=log)
    by_kind: dict[str, list[float]] = {}
    for kind, dt, ok in result.scaled():
        if ok:
            by_kind.setdefault(kind, []).append(dt)
    medians = ", ".join(f"{k} {1e3 * statistics.median(v):.1f}" for k, v in by_kind.items())
    print(f"median ms at reference speed by operation: {medians}", file=log)
    return result


def end_to_end(result: RunResult, setup_s: float, peak_rss_mb: float) -> dict:
    """The four end-to-end metrics; operation times at reference speed.

    setup_s stays raw wall time: import time tracks the speed of the
    reference kernel (speed.py) too loosely for scaling to help.
    """
    scaled = result.scaled()
    done = [dt for _, dt, ok in scaled if ok]
    busy = sum(dt for _, dt, _ in scaled)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(done) / busy if busy else 0.0, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(done) if done else math.nan, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def raw_figures(result: RunResult) -> str:
    """Unscaled wall-clock figures, for the human-readable summary."""
    done = [dt for _, _, dt, ok in result.timed if ok]
    busy = sum(dt for _, _, dt, _ in result.timed)
    return (
        f"raw wall clock: ops_per_s {len(done) / busy if busy else 0.0:.4g}, "
        f"op_p50_ms {1e3 * statistics.median(done) if done else math.nan:.4g}; "
        f"reference kernel median {1e3 * statistics.median(result.speed.kernel_s):.4g} ms"
    )
