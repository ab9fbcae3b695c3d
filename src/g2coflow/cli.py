"""Command-line front end: verification suites, flow runs, soliton
certification, and phase-portrait export.

Exit codes: 0 success, 1 failed identity or assertion (the offending
residual is named on stdout), 2 unreadable input (a missing or malformed
bracket file, an unknown --example fixture, a --trajectory that is not
two numbers), integrator or output-write failure, 3 non-symplectic
bracket input. Tolerances resolve as --tol, then the
G2COFLOW_TOL environment variable, then per-suite defaults. All outputs
are deterministic for a fixed config and seed; sweeps honor --jobs with
per-sample seeding so the split does not change the numbers.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import coflow, planar, soliton
from .almost_abelian import (
    q_matrix,
    random_sp,
    random_sp_skew,
    sp_check,
    torsion_forms,
    torsion_from_nabla_phi,
)
from .exterior import theta
from .g2 import (
    CONVENTIONS,
    bianchi_defect,
    canonical_g2,
    identity_suite,
    lie_derivative_psi_decomposition,
    laplacian_closed_form,
    assemble_4form,
)
from .metric_lie import (
    curl_tensor,
    curvature_tensor,
    divergence_tensor,
    grad_trace,
    covariant_derivative_tensor,
    hodge_laplacian,
    invariant_vector_field,
    koszul_connection,
    lie_derivative_form,
    ricci_tensor,
)

SUITES = ("appendix", "laplacian", "torsion", "ricci", "bianchi", "lie")
SUITE_DEFAULTS = {
    "appendix": (1e-12, 1),
    "laplacian": (1e-10, 100),
    "torsion": (1e-10, 1000),
    "ricci": (1e-10, 100),
    "bianchi": (1e-10, 100),
    "lie": (1e-10, 100),
}


def _rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng((seed, i))


# Sweep workers live at module scope so process pools can pickle them.
# Each returns {check name: worst residual} for one sample.

def _sample_laplacian(args: tuple[str, int, int]) -> dict[str, float]:
    conv, seed, i = args
    data = canonical_g2(conv)
    A = random_sp(_rng(seed, i), data)
    gap = theta(q_matrix(A, data).Q, data.psi) - hodge_laplacian(data.psi, A)
    return {"laplacian_oracle": float(np.max(np.abs(gap.dense())))}


def _sample_torsion(args: tuple[str, int, int]) -> dict[str, float]:
    conv, seed, i = args
    data = canonical_g2(conv)
    A = random_sp(_rng(seed, i), data)
    T = torsion_forms(A, data).T
    T2, solve_res = torsion_from_nabla_phi(A, data)
    return {
        "torsion_dual_route": float(np.max(np.abs(T - T2))),
        "torsion_solve": solve_res,
    }


def _sample_ricci(args: tuple[str, int, int]) -> dict[str, float]:
    conv, seed, i = args
    data = canonical_g2(conv)
    A = random_sp(_rng(seed, i), data)
    T = torsion_forms(A, data).T
    gamma = koszul_connection(A)
    phi_d = data.phi.dense()
    nT = covariant_derivative_tensor(T, gamma)
    div_T = divergence_tensor(T, gamma)
    curl_T = curl_tensor(T, gamma, phi_d)
    ric = ricci_tensor(curvature_tensor(gamma, A))
    return {
        "div_equals_grad_trace": float(np.max(np.abs(div_T - grad_trace(nT)))),
        "curl_symmetric": float(np.max(np.abs(curl_T - curl_T.T))),
        "ricci_torsion_form": float(
            np.max(np.abs(ric - (-curl_T - T @ T + np.trace(T) * T)))
        ),
    }


def _sample_bianchi(args: tuple[str, int, int]) -> dict[str, float]:
    conv, seed, i = args
    data = canonical_g2(conv)
    A = random_sp(_rng(seed, i), data)
    T = torsion_forms(A, data).T
    return {"bianchi": float(np.max(np.abs(bianchi_defect(T, A, data))))}


def _sample_lie(args: tuple[str, int, int]) -> dict[str, float]:
    conv, seed, i = args
    data = canonical_g2(conv)
    rng = _rng(seed, i)
    A = random_sp(rng, data)
    gamma = koszul_connection(A)
    T = torsion_forms(A, data).T
    phi_d = data.phi.dense()
    curl_T = curl_tensor(T, gamma, phi_d)
    div_T = divergence_tensor(T, gamma)
    a, Xv, s = laplacian_closed_form(T, curl_T, div_T, data)
    lap_gap = assemble_4form(a, Xv, s, data) - hodge_laplacian(data.psi, A)

    X = rng.uniform(-1.0, 1.0, 7)
    field = invariant_vector_field(X, gamma)
    dec = lie_derivative_psi_decomposition(field, T, data)
    lie_gap = dec.total - lie_derivative_form(X, data.psi, A)
    return {
        "laplacian_closed_form": float(np.max(np.abs(lap_gap.dense()))),
        "lie_derivative_closed_form": float(np.max(np.abs(lie_gap.dense()))),
    }


def _sample_skew(args: tuple[str, int, int]) -> dict[str, float]:
    conv, seed, i = args
    data = canonical_g2(conv)
    A = random_sp_skew(_rng(seed, i), data)
    ok, residual = soliton.algebraic_check(A, data)
    c, _ = soliton.soliton_constants(A, data)
    out = {"skew_algebraic": residual if ok else np.inf}
    out["skew_c_nonpositive"] = max(c, 0.0)
    if abs(c) < 1e-10:
        out["steady_torsion"] = float(np.max(np.abs(torsion_forms(A, data).T)))
    return out


_SAMPLERS = {
    "laplacian": _sample_laplacian,
    "torsion": _sample_torsion,
    "ricci": _sample_ricci,
    "bianchi": _sample_bianchi,
    "lie": _sample_lie,
}


def _run_sweep(fn, conv: str, seed: int, count: int, jobs: int) -> dict[str, float]:
    tasks = [(conv, seed, i) for i in range(count)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(fn, tasks, chunksize=max(1, count // (4 * jobs))))
    else:
        results = [fn(t) for t in tasks]
    merged: dict[str, float] = {}
    for r in results:
        for k, v in r.items():
            merged[k] = max(merged.get(k, 0.0), v)
    return merged


def _resolve_tol(args: argparse.Namespace, default: float) -> float:
    if args.tol is not None:
        return args.tol
    env = os.environ.get("G2COFLOW_TOL")
    if env:
        return float(env)
    return default


def _check(name: str, residual: float, tol: float, ok: bool | None = None) -> dict:
    """One named check record; it passes when residual < tol unless ok is given."""
    residual = float(residual)
    return {
        "name": name,
        "residual": residual,
        "tolerance": tol,
        "pass": bool(residual < tol if ok is None else ok),
    }


def _print_checks(checks: list[dict]) -> bool:
    all_ok = True
    for chk in checks:
        status = "PASS" if chk["pass"] else "FAIL"
        all_ok = all_ok and chk["pass"]
        print(
            f"{status} {chk['name']}: residual={chk['residual']:.3e} "
            f"(tol {chk['tolerance']:.1e})"
        )
    return all_ok


def cmd_verify(args: argparse.Namespace) -> int:
    suites = SUITES if args.suite == "all" else (args.suite,)
    data = canonical_g2(args.convention)
    checks: list[dict] = []
    for suite in suites:
        default_tol, default_samples = SUITE_DEFAULTS[suite]
        tol = _resolve_tol(args, default_tol)
        if suite == "appendix":
            results = identity_suite(data)
        else:
            samples = args.samples if args.samples else default_samples
            results = _run_sweep(
                _SAMPLERS[suite], args.convention, args.seed, samples, args.jobs
            )
        checks.extend(_check(f"{suite}/{name}", r, tol) for name, r in results.items())
    all_ok = _print_checks(checks)
    if args.report:
        report = {
            "convention": args.convention,
            "suite": args.suite,
            "seed": args.seed,
            "checks": checks,
            "pass": all_ok,
        }
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if all_ok else 1


def _load_bracket(path: str) -> np.ndarray:
    with open(path) as fh:
        raw = json.load(fh)
    return np.asarray(raw["A"], dtype=float).reshape(6, 6)


def cmd_flow(args: argparse.Namespace) -> int:
    data = canonical_g2(args.convention)
    try:
        A0 = _load_bracket(args.bracket)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"cannot read bracket file {args.bracket}: {exc}", file=sys.stderr)
        return 2
    ok, drift = sp_check(A0, data)
    if not ok:
        print(f"non-symplectic bracket: |AJ + JA^t| = {drift:.3e}", file=sys.stderr)
        return 3

    backward = args.backward or args.t_end < 0
    opts = coflow.IntegratorOptions(
        rel_tol=args.rel_tol,
        abs_tol=args.abs_tol,
        max_step=args.max_step,
        t_end=abs(args.t_end),
        sp_drift_tol=args.sp_drift_tol,
        direction="backward" if backward else "forward",
        norm_ceiling=args.norm_ceiling,
    )
    try:
        trace = coflow.integrate(A0, opts, data)
    except coflow.IntegrationError as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return 2
    try:
        coflow.write_trace_csv(trace, args.out)
    except OSError as exc:
        print(f"could not write trace: {exc}", file=sys.stderr)
        return 2
    print(
        f"wrote {args.out}: {len(trace.ts)} samples, "
        f"t in [{trace.ts[0]:.6g}, {trace.ts[-1]:.6g}], "
        f"termination {trace.meta['termination']}"
    )

    checks = []
    slack = 1e-9
    drop = float(np.max(np.diff(trace.norm_sq))) if len(trace.ts) > 1 else 0.0
    checks.append(_check("normSq_nonincreasing", max(drop, 0.0), slack, drop <= slack))
    bound = coflow.scalar_bound_check(trace)
    if bound.get("skipped"):
        print(f"scalar bound skipped: {bound['reason']}")
    else:
        gap = max(-bound["lower_gap"], bound["upper_gap"], 0.0)
        ok = bound["bound_ok"] and bound["R_increasing"]
        checks.append(_check("scalar_bound", gap, slack, ok))

    # Planar-axis starts admit a closed form in bracket time,
    # x(t) = x0 (1 + 3 x0^2 t)^{-1/2}; the planar module's displayed system
    # runs the same orbit at 4x speed (factor documented there).
    x0 = A0[0, 1]
    if not backward and x0 != 0.0 and np.max(np.abs(A0 - planar.embed(x0, 0.0))) == 0.0:
        closed = x0 / np.sqrt(1.0 + 3.0 * x0 * x0 * trace.ts)
        rel = float(np.max(np.abs(trace.As[:, 0, 1] - closed) / np.abs(closed)))
        checks.append(_check("axis_closed_form", rel, 1e-6))
        print("axis start: planar-system clock runs at 4x bracket time")
    return 0 if _print_checks(checks) else 1


def cmd_soliton(args: argparse.Namespace) -> int:
    if args.action != "check":
        print(f"unknown soliton action {args.action!r}", file=sys.stderr)
        return 1
    tol = _resolve_tol(args, soliton.CERT_TOL)

    if args.skew_sweep:
        conv = args.convention
        merged = _run_sweep(_sample_skew, conv, args.seed, args.skew_sweep, args.jobs)
        checks = [
            _check(f"skew_sweep/{name}", v, tol if name != "steady_torsion" else 1e-8)
            for name, v in merged.items()
        ]
        print(f"{args.skew_sweep} skew brackets certified")
        return 0 if _print_checks(checks) else 1

    if args.example:
        try:
            ex = soliton.load_example(args.example)
        except OSError as exc:
            print(f"unknown example {args.example!r}: {exc}", file=sys.stderr)
            return 2
        data = canonical_g2(ex["convention"])
        if args.convention != ex["convention"]:
            print(
                f"note: example {args.example} is defined in the "
                f"{ex['convention']} basis; using it",
                file=sys.stderr,
            )
        report = soliton.certify(ex["A"], data, tol)
        _emit_soliton_report(report, args.report)
        expected = ex["expected"]
        checks = [
            _check("example/c", abs(report.c - expected["c"]), tol),
            _check("example/d", abs(report.d - expected["d"]), tol),
            _check("example/kind", report.kind != "semi_algebraic", 0.5),
            _check("example/pde", report.residuals.get("pde", np.inf), 1e-10),
        ]
        return 0 if _print_checks(checks) else 1

    data = canonical_g2(args.convention)
    try:
        A = _load_bracket(args.bracket)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"cannot read bracket file {args.bracket}: {exc}", file=sys.stderr)
        return 2
    ok, drift = sp_check(A, data)
    if not ok:
        print(f"non-symplectic bracket: |AJ + JA^t| = {drift:.3e}", file=sys.stderr)
        return 3
    report = soliton.certify(A, data, tol)
    _emit_soliton_report(report, args.report)
    return 0


def _emit_soliton_report(report: soliton.SolitonReport, path: str | None) -> None:
    print(
        f"kind={report.kind} classification={report.classification} "
        f"c={report.c:.12g} d={report.d:.12g}"
    )
    for name, value in sorted(report.residuals.items()):
        print(f"  residual {name}: {value:.3e}")
    if path:
        with open(path, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def cmd_phase(args: argparse.Namespace) -> int:
    try:
        if args.nullclines:
            lines = planar.nullclines(args.xmin, args.xmax, args.res)
            out = args.out or "nullclines.csv"
            rows = ["line,x,y"]
            for name, pts in lines.items():
                for x, y in pts:
                    rows.append(f"{name},{x:.17g},{y:.17g}")
            with open(out, "w") as fh:
                fh.write("\n".join(rows) + "\n")
            print(f"wrote {out}")
            return 0

        if args.trajectory:
            x0, y0 = args.trajectory
            ts, xs, ys = planar.integrate_trajectory(x0, y0, args.t_end)
            out = args.out or f"trajectory_{x0:g}_{y0:g}.csv"
            planar.write_trajectory_csv(ts, xs, ys, out)
            if x0 != 0.0 and y0 != 0.0:
                h = np.array(
                    [
                        planar.log_abs_h(x, y)
                        for x, y in zip(xs, ys)
                        if x != 0.0 and y != 0.0
                    ]
                )
                drift = float(np.max(np.abs(h - h[0]))) if len(h) else np.nan
                print(f"log|H| drift: {drift:.3e}", file=sys.stderr)
            print(f"wrote {out}")
            return 0

        grid = planar.PhaseGrid(args.xmin, args.xmax, args.ymin, args.ymax, args.res)
        rows = planar.phase_portrait(grid)
        out = args.out or "phase_grid.csv"
        planar.write_phase_csv(rows, out)
        print(f"wrote {out}: {len(rows)} points")
        if args.trajectories:
            rng = np.random.default_rng(args.seed)
            for i in range(args.trajectories):
                x0, y0 = rng.uniform(0.5, 2.0, 2)
                ts, xs, ys = planar.integrate_trajectory(x0, y0, args.t_end)
                path = f"trajectory_seed{args.seed}_{i}.csv"
                planar.write_trajectory_csv(ts, xs, ys, path)
                print(f"wrote {path}")
        return 0
    except OSError as exc:
        print(f"could not write phase data: {exc}", file=sys.stderr)
        return 2


def _point(text: str) -> tuple[float, float]:
    """'x,y' as two floats; anything else is an argparse usage error."""
    try:
        x, y = (float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'x,y', got {text!r}") from None
    return x, y


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--convention",
        choices=CONVENTIONS,
        default="section4",
        help="frame convention for the structure forms",
    )
    common.add_argument("--tol", type=float, default=None, help="tolerance override")
    common.add_argument("--jobs", type=int, default=1, help="parallel sweep workers")
    common.add_argument("--seed", type=int, default=0, help="base RNG seed")

    parser = argparse.ArgumentParser(
        prog="g2coflow",
        description="Verification suites and flow tools for the bracket coflow",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", parents=[common], help="run identity suites")
    p_verify.add_argument("--suite", choices=SUITES + ("all",), default="all")
    p_verify.add_argument("--samples", type=int, default=None)
    p_verify.add_argument("--report", default=None, help="write JSON report here")

    p_flow = sub.add_parser("flow", parents=[common], help="integrate a bracket")
    p_flow.add_argument("--bracket", required=True, help="JSON file with field A")
    p_flow.add_argument("--t-end", type=float, default=10.0)
    p_flow.add_argument("--backward", action="store_true")
    p_flow.add_argument("--rel-tol", type=float, default=1e-9)
    p_flow.add_argument("--abs-tol", type=float, default=1e-12)
    p_flow.add_argument("--max-step", type=float, default=np.inf)
    p_flow.add_argument("--sp-drift-tol", type=float, default=1e-8)
    p_flow.add_argument("--norm-ceiling", type=float, default=1e6)
    p_flow.add_argument("--out", default="flow_trace.csv")

    p_sol = sub.add_parser("soliton", parents=[common], help="certify solitons")
    p_sol.add_argument("action", choices=("check",))
    group = p_sol.add_mutually_exclusive_group(required=True)
    group.add_argument("--example", help="shipped fixture name, e.g. nilpotent3")
    group.add_argument("--bracket", help="JSON file with field A")
    group.add_argument("--skew-sweep", type=int, help="number of random skew brackets")
    p_sol.add_argument("--report", default=None, help="write SolitonReport JSON here")

    p_phase = sub.add_parser("phase", parents=[common], help="planar phase data")
    p_phase.add_argument("--xmin", type=float, default=-2.0)
    p_phase.add_argument("--xmax", type=float, default=2.0)
    p_phase.add_argument("--ymin", type=float, default=-2.0)
    p_phase.add_argument("--ymax", type=float, default=2.0)
    p_phase.add_argument("--res", type=int, default=101)
    p_phase.add_argument("--trajectory", type=_point, help="start point 'x,y'")
    p_phase.add_argument("--trajectories", type=int, default=0, help="random starts")
    p_phase.add_argument("--t-end", type=float, default=5.0)
    p_phase.add_argument("--nullclines", action="store_true")
    p_phase.add_argument("--out", default=None)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process; parse_args leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # looked up at call time, so a rebound cmd_* (wrapped or patched) runs
    return globals()[f"cmd_{args.command}"](args)


if __name__ == "__main__":
    sys.exit(main())
