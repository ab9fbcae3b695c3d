"""Command-line front end: verification suites, flow runs, soliton
certification, and phase-portrait export.

Every command that checks ends through _finish: it prints each check and
writes the run record ({command fields, checks, pass}) to any --report.
Exit codes: 0 success, 1 failed identity or assertion (the offending
residual is named on stdout; a NaN or infinite residual always fails, and
so does a certificate whose c, d or residuals are not finite),
2 unreadable or out-of-range input (a missing, malformed or non-finite
bracket file, a zero bracket, or one whose |A|^2 underflows, to certify,
an unknown --example fixture, a --trajectory that is not two numbers, a
count that is not a positive integer, a --seed or --trajectories that is
not a non-negative integer, a tolerance (G2COFLOW_TOL included) or
horizon that is not a positive finite number, a phase grid below two
points or with non-finite or empty bounds, in every phase mode),
integrator or output-write failure (a --report, --out or trajectory file
that cannot be written), 3 non-symplectic bracket input.

Each subcommand takes only the flags it reads: verify and soliton take
--convention, --tol, --jobs and --seed; flow takes --convention; phase
takes --seed (for its random trajectory starts). Any other of these is an
argparse usage error (exit 2). Tolerances resolve as --tol, then the
G2COFLOW_TOL environment variable, then per-suite defaults. All outputs
are deterministic for a fixed config and seed; sweeps run on at most
--jobs workers, no more than the samples and usable CPUs, with per-sample
seeding so the split does not change the numbers.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

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
    G2Data,
    bianchi_defect,
    canonical_g2,
    identity_suite,
    lie_derivative_psi_decomposition,
    laplacian_closed_form,
    assemble_4form,
    ricci_from_torsion,
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

# Sweep samplers live at module scope so process pools can pickle them.
# Each takes the G2 data and the sample's generator and returns
# {check name: worst residual} for one sample.

def _sample_laplacian(data: G2Data, rng: np.random.Generator) -> dict[str, float]:
    A = random_sp(rng, data)
    gap = theta(q_matrix(A, data), data.psi) - hodge_laplacian(data.psi, A)
    return {"laplacian_oracle": float(np.max(np.abs(gap.dense())))}


def _sample_torsion(data: G2Data, rng: np.random.Generator) -> dict[str, float]:
    A = random_sp(rng, data)
    T = torsion_forms(A, data).T
    T2, solve_res = torsion_from_nabla_phi(A, data)
    return {
        "torsion_dual_route": float(np.max(np.abs(T - T2))),
        "torsion_solve": solve_res,
    }


def _sample_ricci(data: G2Data, rng: np.random.Generator) -> dict[str, float]:
    A = random_sp(rng, data)
    T = torsion_forms(A, data).T
    gamma = koszul_connection(A)
    phi_d = data.phi.dense()
    nT = covariant_derivative_tensor(T, gamma)
    div_T = divergence_tensor(T, gamma)
    curl_T = curl_tensor(T, gamma, phi_d)
    ric = ricci_tensor(curvature_tensor(gamma, A))
    ric_closed, _ = ricci_from_torsion(T, curl_T)
    return {
        "div_equals_grad_trace": float(np.max(np.abs(div_T - grad_trace(nT)))),
        "curl_symmetric": float(np.max(np.abs(curl_T - curl_T.T))),
        "ricci_torsion_form": float(np.max(np.abs(ric - ric_closed))),
    }


def _sample_bianchi(data: G2Data, rng: np.random.Generator) -> dict[str, float]:
    A = random_sp(rng, data)
    T = torsion_forms(A, data).T
    return {"bianchi": float(np.max(np.abs(bianchi_defect(T, A, data))))}


def _sample_lie(data: G2Data, rng: np.random.Generator) -> dict[str, float]:
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


def _sample_skew(data: G2Data, rng: np.random.Generator) -> dict[str, float]:
    # a skew bracket has c = -(1/4)(tr JA)^2 = -|T|^2, so it is steady exactly
    # when torsion-free: c from the one symbol record, T from torsion_forms
    A, _, _, c, _ = sym = soliton.symbol_terms(random_sp_skew(rng, data), data)
    residual = soliton.algebraic_check(sym)[0]
    T = torsion_forms(A, data).T
    return {
        "skew_algebraic": residual if residual < soliton.CERT_TOL else np.inf,
        "skew_c_nonpositive": max(c, 0.0),
        "c_equals_minus_torsion_sq": abs(c + float(np.sum(T * T))),
    }


# suite -> (default tolerance, default samples, sampler); the appendix suite
# runs the closed-form identity battery once instead of sampling. The order
# is the check order of `verify --suite all`.
SUITES = {
    "appendix": (1e-12, 1, None),
    "laplacian": (1e-10, 100, _sample_laplacian),
    "torsion": (1e-10, 1000, _sample_torsion),
    "ricci": (1e-10, 100, _sample_ricci),
    "bianchi": (1e-10, 100, _sample_bianchi),
    "lie": (1e-10, 100, _sample_lie),
}


def _sample(task: tuple) -> dict[str, float]:
    """Run one (sampler, convention, seed, index) task with its own generator,
    so the results do not depend on how --jobs splits the tasks."""
    sampler, conv, seed, i = task
    return sampler(canonical_g2(conv), np.random.default_rng((seed, i)))


def _workers(jobs: int, count: int) -> int:
    """Pool size of a sweep: at most --jobs, the samples and the CPUs this
    process may run on (a fork-started pool starts every worker at once)."""
    affinity = getattr(os, "sched_getaffinity", None)  # absent off Linux
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return min(jobs, count, cpus)


def _run_sweep(
    sampler, conv: str, seed: int, count: int, jobs: int
) -> dict[str, float]:
    tasks = [(sampler, conv, seed, i) for i in range(count)]
    workers = _workers(jobs, count)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, count // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sample, tasks, chunksize=chunk))
    else:
        results = map(_sample, tasks)
    merged: dict[str, float] = {}
    for r in results:
        for k, v in r.items():
            merged[k] = coflow._worst(merged.get(k, 0.0), v)
    return merged


def _check(name: str, residual: float, tol: float, ok: bool | None = None) -> dict:
    """One named check record; it passes when residual < tol unless ok is
    given, and never with a NaN or infinite residual."""
    residual = float(residual)
    return {
        "name": name,
        "residual": residual,
        "tolerance": tol,
        "pass": math.isfinite(residual) and bool(residual < tol if ok is None else ok),
    }


def _finish(checks: list[dict], path: str | None = None, **fields) -> int:
    """End a command: print each check and, when path is given, write the run
    record {**fields, checks, pass} there. Returns 0 when every check
    passes, 1 when one fails, 2 when the record cannot be written."""
    ok = True
    for chk in checks:
        ok = ok and chk["pass"]
        print(
            f"{'PASS' if chk['pass'] else 'FAIL'} {chk['name']}: "
            f"residual={chk['residual']:.3e} (tol {chk['tolerance']:.1e})"
        )
    if path:
        try:
            coflow._write_json(path, {**fields, "checks": checks, "pass": ok})
        except OSError as exc:
            print(f"could not write report: {exc}", file=sys.stderr)
            return 2
    return 0 if ok else 1


def cmd_verify(args: argparse.Namespace) -> int:
    suites = SUITES if args.suite == "all" else (args.suite,)
    data = canonical_g2(args.convention)
    checks: list[dict] = []
    for suite in suites:
        default_tol, default_samples, sampler = SUITES[suite]
        tol = default_tol if args.tol is None else args.tol
        if sampler is None:
            results = identity_suite(data)
        else:
            samples = args.samples or default_samples
            results = _run_sweep(
                sampler, args.convention, args.seed, samples, args.jobs
            )
        checks.extend(_check(f"{suite}/{name}", r, tol) for name, r in results.items())
    return _finish(
        checks, args.report, convention=args.convention, suite=args.suite, seed=args.seed
    )


def _read_bracket(path: str, data: G2Data) -> tuple[np.ndarray | None, int]:
    """The symplectic 6x6 bracket in field A of a JSON file, as (A, 0); or
    (None, exit code) with the reason on stderr: 2 unreadable, 3 not in sp."""
    try:
        with open(path) as fh:
            A = np.asarray(json.load(fh)["A"], dtype=float).reshape(6, 6)
        if not np.isfinite(A).all():
            raise ValueError("non-finite entries")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"cannot read bracket file {path}: {exc}", file=sys.stderr)
        return None, 2
    ok, drift = sp_check(A, data)
    if not ok:
        print(f"non-symplectic bracket: |AJ + JA^t| = {drift:.3e}", file=sys.stderr)
        return None, 3
    return A, 0


def cmd_flow(args: argparse.Namespace) -> int:
    backward = args.backward or args.t_end < 0
    try:
        opts = coflow.IntegratorOptions(
            rel_tol=args.rel_tol,
            abs_tol=args.abs_tol,
            max_step=args.max_step,
            t_end=abs(args.t_end),
            sp_drift_tol=args.sp_drift_tol,
            direction="backward" if backward else "forward",
            norm_ceiling=args.norm_ceiling,
        )
    except ValueError as exc:
        print(f"invalid flow options: {exc}", file=sys.stderr)
        return 2
    data = canonical_g2(args.convention)
    A0, code = _read_bracket(args.bracket, data)
    if code:
        return code
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
    slack = coflow.SLACK
    for name, values in (
        ("normSq_nonincreasing", trace.norm_sq),
        ("torsionNormSq_nonincreasing", trace.torsion_sq),
    ):
        rise = float(np.max(np.diff(values))) if len(trace.ts) > 1 else 0.0
        checks.append(_check(name, max(rise, 0.0), slack, rise <= slack))
    bound = coflow.scalar_bound_check(trace)
    if bound.get("skipped"):
        print(f"scalar bound skipped: {bound['reason']}")
    else:
        # 0.0 first: max keeps the first of equal values, so a lower gap of
        # exactly 0 (negated to -0.0) does not print as -0.000e+00
        gap = coflow._worst(0.0, -bound["lower_gap"], bound["upper_gap"])
        ok = bound["bound_ok"] and bound["R_increasing"]
        checks.append(_check("scalar_bound", gap, slack, ok))

    # Planar-axis starts admit a closed form; the planar module's displayed
    # system runs the same orbit at 4x speed (factor documented there), so
    # bracket time t is planar time t/4.
    x0 = A0[0, 1]
    if not backward and x0 != 0.0 and np.max(np.abs(A0 - planar.embed(x0, 0.0))) == 0.0:
        closed = planar.axis_solution(x0, trace.ts / 4.0)
        rel = float(np.max(np.abs(trace.As[:, 0, 1] - closed) / np.abs(closed)))
        checks.append(_check("axis_closed_form", rel, 1e-6))
        print("axis start: planar-system clock runs at 4x bracket time")
    return _finish(checks)


def cmd_soliton(args: argparse.Namespace) -> int:
    tol = soliton.CERT_TOL if args.tol is None else args.tol

    if args.skew_sweep is not None:
        conv = args.convention
        merged = _run_sweep(_sample_skew, conv, args.seed, args.skew_sweep, args.jobs)
        checks = [_check(f"skew_sweep/{name}", v, tol) for name, v in merged.items()]
        print(f"{args.skew_sweep} skew brackets certified")
        return _finish(checks, args.report, convention=conv, seed=args.seed)

    expected = None
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
        A, expected = ex["A"], ex["expected"]
    else:
        data = canonical_g2(args.convention)
        A, code = _read_bracket(args.bracket, data)
        if code:
            return code
    try:
        report = soliton.certify(A, data, tol)
    except ValueError as exc:  # no soliton constants: A = 0 or |A|^2 underflows
        print(f"cannot certify bracket: {exc}", file=sys.stderr)
        return 2
    print(
        f"kind={report.kind} classification={report.classification} "
        f"c={report.c:.12g} d={report.d:.12g}"
    )
    for name, value in sorted(report.residuals.items()):
        print(f"  residual {name}: {value:.3e}")

    # residual: how many of c, d and the certificate residuals are not finite
    values = np.array([report.c, report.d, *report.residuals.values()])
    checks = [_check("certificate/finite", np.sum(~np.isfinite(values)), 0.5)]
    if expected is not None:
        checks += [
            _check("example/c", abs(report.c - expected["c"]), tol),
            _check("example/d", abs(report.d - expected["d"]), tol),
            _check("example/kind", report.kind != "semi_algebraic", 0.5),
            _check("example/pde", report.residuals.get("pde", np.inf), 1e-10),
        ]
    return _finish(checks, args.report, **report.to_dict())


def cmd_phase(args: argparse.Namespace) -> int:
    try:
        grid = planar.PhaseGrid(args.xmin, args.xmax, args.ymin, args.ymax, args.res)
    except ValueError as exc:
        print(f"invalid phase grid: {exc}", file=sys.stderr)
        return 2
    try:
        if args.nullclines:
            lines = planar.nullclines(grid.xmin, grid.xmax, grid.res)
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
            hs = planar.write_trajectory_csv(ts, xs, ys, out)
            if x0 != 0.0 and y0 != 0.0:
                h = hs[(xs != 0) & (ys != 0)]
                if h[0] == -np.inf:  # y0 = x0: H(0) = 0, so judge max |H|
                    name, drift = "H", np.exp(h)
                else:
                    name, drift = "log|H|", np.abs(h - h[0])
                print(f"{name} drift: {np.max(drift):.3e}", file=sys.stderr)
            print(f"wrote {out}")
            return 0

        rows = planar.phase_portrait(grid)
        out = args.out or "phase_grid.csv"
        planar.write_phase_csv(rows, out)
        print(f"wrote {out}: {len(rows)} points")
        if args.trajectories:
            rng = np.random.default_rng(args.seed)
            for i in range(args.trajectories):
                x0, y0 = rng.uniform(0.5, 2.0, 2)
                ts, xs, ys = planar.integrate_trajectory(x0, y0, args.t_end)
                path = os.path.join(
                    os.path.dirname(out), f"trajectory_seed{args.seed}_{i}.csv"
                )
                planar.write_trajectory_csv(ts, xs, ys, path)
                print(f"wrote {path}")
        return 0
    except OSError as exc:
        print(f"could not write phase data: {exc}", file=sys.stderr)
        return 2
    except coflow.IntegrationError as exc:
        print(exc, file=sys.stderr)
        return 2


def _count(text: str, least: int) -> int:
    """An integer >= least; anything else is an argparse usage error."""
    try:
        n = int(text)
    except ValueError:
        n = least - 1
    if n < least:
        kind = "positive" if least else "non-negative"
        raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
    return n


_positive_count = functools.partial(_count, least=1)
_nonnegative_count = functools.partial(_count, least=0)


def _positive_finite(text: str) -> float:
    """A finite float above 0; anything else is an argparse usage error."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not 0 < x < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a positive finite number, got {text!r}"
        )
    return x


def _point(text: str) -> tuple[float, float]:
    """'x,y' as two finite floats; anything else is an argparse usage error
    (a NaN start would stall the stepper's step-size control)."""
    try:
        x, y = (float(v) for v in text.split(","))
    except ValueError:
        x = y = math.nan
    if not (math.isfinite(x) and math.isfinite(y)):
        raise argparse.ArgumentTypeError(
            f"expected 'x,y' of two finite numbers, got {text!r}"
        )
    return x, y


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command's parser, built once per process (parse_args keeps it)."""
    # flow reads only --convention; verify and soliton read all four
    frame = argparse.ArgumentParser(add_help=False)
    frame.add_argument(
        "--convention",
        choices=CONVENTIONS,
        default="section4",
        help="frame convention for the structure forms",
    )
    sweep = argparse.ArgumentParser(add_help=False, parents=[frame])
    sweep.add_argument(
        "--tol", type=_positive_finite, default=None, help="tolerance override"
    )
    sweep.add_argument(
        "--jobs", type=_positive_count, default=1, help="parallel sweep workers"
    )
    sweep.add_argument(
        "--seed", type=_nonnegative_count, default=0, help="base RNG seed"
    )

    parser = argparse.ArgumentParser(
        prog="g2coflow",
        description="Verification suites and flow tools for the bracket coflow",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", parents=[sweep], help="run identity suites")
    p_verify.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    p_verify.add_argument("--samples", type=_positive_count, default=None)
    p_verify.add_argument("--report", default=None, help="write JSON report here")

    p_flow = sub.add_parser("flow", parents=[frame], help="integrate a bracket")
    p_flow.add_argument("--bracket", required=True, help="JSON file with field A")
    p_flow.add_argument("--t-end", type=float, default=10.0)
    p_flow.add_argument("--backward", action="store_true")
    p_flow.add_argument("--rel-tol", type=_positive_finite, default=1e-9)
    p_flow.add_argument("--abs-tol", type=_positive_finite, default=1e-12)
    p_flow.add_argument("--max-step", type=float, default=np.inf)
    p_flow.add_argument("--sp-drift-tol", type=_positive_finite, default=1e-8)
    p_flow.add_argument("--norm-ceiling", type=float, default=1e6)
    p_flow.add_argument("--out", default="flow_trace.csv")

    p_sol = sub.add_parser("soliton", parents=[sweep], help="certify solitons")
    p_sol.add_argument("action", choices=("check",))
    group = p_sol.add_mutually_exclusive_group(required=True)
    group.add_argument("--example", help="shipped fixture name, e.g. nilpotent3")
    group.add_argument("--bracket", help="JSON file with field A")
    group.add_argument(
        "--skew-sweep", type=_positive_count, help="number of random skew brackets"
    )
    p_sol.add_argument("--report", default=None, help="write SolitonReport JSON here")

    p_phase = sub.add_parser("phase", help="planar phase data")
    p_phase.add_argument("--xmin", type=float, default=-2.0)
    p_phase.add_argument("--xmax", type=float, default=2.0)
    p_phase.add_argument("--ymin", type=float, default=-2.0)
    p_phase.add_argument("--ymax", type=float, default=2.0)
    p_phase.add_argument("--res", type=_positive_count, default=101)
    p_phase.add_argument("--trajectory", type=_point, help="start point 'x,y'")
    p_phase.add_argument(
        "--trajectories",
        type=_nonnegative_count,
        default=0,
        help="random starts, written as trajectory_seed{seed}_{i}.csv beside --out",
    )
    p_phase.add_argument("--t-end", type=_positive_finite, default=5.0)
    p_phase.add_argument(
        "--seed", type=_nonnegative_count, default=0, help="random-start seed"
    )
    p_phase.add_argument("--nullclines", action="store_true")
    p_phase.add_argument("--out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    # G2COFLOW_TOL stands in for an unset --tol, read per call, same type
    env = os.environ.get("G2COFLOW_TOL")
    if env and getattr(args, "tol", False) is None:
        try:
            args.tol = _positive_finite(env)
        except argparse.ArgumentTypeError as exc:
            parser.error(f"environment variable G2COFLOW_TOL: {exc}")
    # looked up at call time, so a rebound cmd_* (wrapped or patched) runs
    return globals()[f"cmd_{args.command}"](args)


if __name__ == "__main__":
    sys.exit(main())
