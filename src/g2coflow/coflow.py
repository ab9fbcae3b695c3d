"""Bracket-flow integration for the Laplacian coflow.

The coflow of invariant coclosed structures reduces to a matrix ODE on
sp(R^6): dA/dt = q_A A - [Q^h_A, A], whose solutions stay symplectic. The
geometric solution is recovered from the endomorphism flow dh/dt = -Q_A h
with h(0) = I: psi(t) = pullback(h(t), psi) solves d/dt psi = Delta psi,
and A(t) = a(t)^{-1} k(t) A(0) k(t)^{-1} for h = blockdiag(k, a).

Integration uses an adaptive Dormand-Prince 5(4) pair (scipy's RK45). No
structure projection is performed: symplectic drift is monitored as an
integrator health check and aborts the run beyond the configured
tolerance, so an accuracy bug cannot hide behind a re-projection.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .almost_abelian import (
    SymbolQ,
    _laplacian_symbol,
    require_sp,
    scalar_diagnostics,
)
from .exterior import KForm, form_norm, pullback
from .g2 import G2Data, circ6
from .metric_lie import DIM, hodge_laplacian

__all__ = [
    "IntegratorOptions",
    "FlowTrace",
    "IntegrationError",
    "rhs",
    "norm_derivative",
    "integrate",
    "scalar_bound_check",
    "reconstruct_h",
    "reconstruction_gap",
    "coflow_pde_residuals",
    "write_trace_csv",
    "read_trace_csv",
]


class IntegrationError(RuntimeError):
    """Integrator could not continue (step underflow or structure drift)."""


@dataclass(frozen=True)
class IntegratorOptions:
    """Adaptive RK 5(4) settings.

    min_step is a diagnostic floor: the solver's own underflow detection
    raises IntegrationError, and the smallest accepted step is reported in
    the trace meta for comparison. Backward runs stop at the norm ceiling
    (the flow may have a finite-time singularity in the past); forward runs
    never terminate on norm growth, which the monotonicity makes moot.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_step: float = np.inf
    min_step: float = 0.0
    t_end: float = 10.0
    sp_drift_tol: float = 1e-8
    direction: str = "forward"
    norm_ceiling: float = 1e6

    def __post_init__(self) -> None:
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.min_step >= self.max_step:
            raise ValueError("min_step must be below max_step")
        if self.t_end <= 0:
            raise ValueError("t_end is a positive duration")
        if self.direction not in ("forward", "backward"):
            raise ValueError(f"unknown direction {self.direction!r}")


@dataclass(frozen=True)
class FlowTrace:
    """Sampled trajectory at the integrator's accepted steps.

    ts strictly increasing (backward runs are stored time-ascending), As
    the bracket matrices, steps the gap to the previous sample (0 first).
    """

    ts: np.ndarray
    As: np.ndarray
    norm_sq: np.ndarray
    R: np.ndarray
    torsion_sq: np.ndarray
    steps: np.ndarray
    meta: dict = field(repr=False)


def _bracket_rhs(A: np.ndarray, Qh: np.ndarray, q: float) -> np.ndarray:
    return q * A - (Qh @ A - A @ Qh)


def _rhs_raw(A: np.ndarray, data: G2Data) -> np.ndarray:
    return _bracket_rhs(A, *_laplacian_symbol(A, data))


def rhs(A: np.ndarray, data: G2Data) -> np.ndarray:
    """dA/dt = q_A A - [Q^h_A, A]; tangent to sp(R^6)."""
    return _rhs_raw(require_sp(A, data), data)


def norm_derivative(A: np.ndarray, data: G2Data) -> float:
    """d/dt |A|^2 = -(|S|^2 + (1/2)(tr JA)^2)|A|^2 - |[A,A^t]|^2
    - <S o6 S, [A,A^t]>; always <= 0, zero exactly on su(3)."""
    A = require_sp(A, data)
    S = 0.5 * (A + A.T)
    comm = A @ A.T - A.T @ A
    return float(
        -(np.sum(S * S) + 0.5 * np.trace(data.J @ A) ** 2) * np.sum(A * A)
        - np.sum(comm * comm)
        - np.sum(circ6(S, S, data) * comm)
    )


def _sp_drift(A: np.ndarray, J: np.ndarray) -> float:
    return float(np.max(np.abs(A @ J + J @ A.T)))


def integrate(A0: np.ndarray, opts: IntegratorOptions, data: G2Data) -> FlowTrace:
    """Integrate the bracket flow from A0 over [0, t_end] (or backward).

    Samples at accepted steps. Raises IntegrationError on step underflow
    or symplectic drift beyond opts.sp_drift_tol; backward runs terminate
    cleanly at the norm ceiling.
    """
    A0 = require_sp(A0, data)
    J = data.J

    def fun(t: float, y: np.ndarray) -> np.ndarray:
        return _rhs_raw(y.reshape(6, 6), data).ravel()

    def drift_event(t: float, y: np.ndarray) -> float:
        return _sp_drift(y.reshape(6, 6), J) - opts.sp_drift_tol

    drift_event.terminal = True

    def ceiling_event(t: float, y: np.ndarray) -> float:
        return float(np.linalg.norm(y)) - opts.norm_ceiling

    ceiling_event.terminal = True

    backward = opts.direction == "backward"
    t1 = -opts.t_end if backward else opts.t_end
    events = [drift_event] + ([ceiling_event] if backward else [])
    sol = solve_ivp(
        fun,
        (0.0, t1),
        A0.ravel(),
        method="RK45",
        rtol=opts.rel_tol,
        atol=opts.abs_tol,
        max_step=opts.max_step,
        events=events,
        dense_output=False,
    )
    if sol.status == -1:
        raise IntegrationError(f"step-size underflow: {sol.message}")

    ts = sol.t
    ys = sol.y.T.reshape(-1, 6, 6)
    termination = "t_end"
    if sol.status == 1:
        hit_drift = len(sol.t_events[0]) > 0
        if hit_drift:
            raise IntegrationError(
                "symplectic drift exceeded "
                f"{opts.sp_drift_tol:g} at t = {sol.t_events[0][0]:.6g}"
            )
        termination = "norm_ceiling"

    if backward:
        ts = ts[::-1]
        ys = ys[::-1]
    diffs = np.diff(ts)
    steps = np.concatenate([[0.0], diffs])

    norm_sq = np.einsum("nij,nij->n", ys, ys)
    R = np.empty(len(ts))
    torsion_sq = np.empty(len(ts))
    max_drift = 0.0
    for i, A in enumerate(ys):
        diag = scalar_diagnostics(A, data)
        R[i] = diag["R"]
        torsion_sq[i] = diag["torsionNormSq"]
        max_drift = max(max_drift, _sp_drift(A, J))
    # sp(R^6) is a linear subspace and the rhs is tangent to it, so the
    # samples stay symplectic to rounding; the gate catches anything else.
    if max_drift > opts.sp_drift_tol:
        raise IntegrationError(
            f"symplectic drift {max_drift:.3e} exceeded {opts.sp_drift_tol:g}"
        )

    meta = {
        "options": asdict(opts),
        "convention": data.convention,
        "termination": termination,
        "solver": "rk45",
        "status": int(sol.status),
        "message": str(sol.message),
        "nfev": int(sol.nfev),
        "samples": int(len(ts)),
        "min_accepted_step": float(np.min(np.abs(diffs))) if len(diffs) else 0.0,
        "max_sp_drift": max_drift,
    }
    if np.isinf(opts.max_step):
        meta["options"]["max_step"] = "inf"
    return FlowTrace(
        ts=ts,
        As=ys,
        norm_sq=norm_sq,
        R=R,
        torsion_sq=torsion_sq,
        steps=steps,
        meta=meta,
    )


def scalar_bound_check(trace: FlowTrace, slack: float = 1e-9) -> dict:
    """Two-sided scalar-curvature bound and monotonicity along a trace.

    1/(-|t|/2 + 1/R(0)) <= R(t) <= 0 requires R(0) < 0; a flat start makes
    the bound vacuous and is reported as skipped. Also reports whether R
    increases and |T|^2 decreases along the samples. The comparison
    argument is one-directional: on a backward trace the inequality flips
    and the reference point sits at the other end, so the check only
    applies to forward runs.
    """
    if trace.meta.get("options", {}).get("direction") == "backward":
        return {"skipped": True, "reason": "forward-time bound on a backward trace"}
    R0 = trace.R[0]
    if R0 >= -1e-14:
        return {"skipped": True, "reason": "flat start: R(0) = 0"}
    lower = 1.0 / (-np.abs(trace.ts) / 2.0 + 1.0 / R0)
    bound_ok = bool(
        np.all(trace.R <= slack) and np.all(trace.R >= lower - slack)
    )
    dR = np.diff(trace.R)
    dT = np.diff(trace.torsion_sq)
    return {
        "skipped": False,
        "bound_ok": bound_ok,
        "lower_gap": float(np.min(trace.R - lower)),
        "upper_gap": float(np.max(trace.R)),
        "R_increasing": bool(np.all(dR >= -slack)),
        "torsion_decreasing": bool(np.all(dT <= slack)),
    }


def _joint_rhs(y: np.ndarray, data: G2Data) -> np.ndarray:
    A = y[:36].reshape(6, 6)
    h = y[36:].reshape(DIM, DIM)
    Qh, q = _laplacian_symbol(A, data)
    Q = SymbolQ(Qh=Qh, q=q).Q
    return np.concatenate([_bracket_rhs(A, Qh, q).ravel(), (-Q @ h).ravel()])


def reconstruct_h(
    trace: FlowTrace,
    data: G2Data,
    rel_tol: float | None = None,
    abs_tol: float | None = None,
) -> np.ndarray:
    """h(t) with dh/dt = -Q_{A(t)} h, h(0) = I, on the trace's time grid.

    Integrated jointly with the bracket flow so Q is evaluated on the
    matching trajectory rather than interpolated.
    """
    opts = trace.meta["options"]
    rel_tol = opts["rel_tol"] if rel_tol is None else rel_tol
    abs_tol = opts["abs_tol"] if abs_tol is None else abs_tol
    backward = opts["direction"] == "backward"
    ts = trace.ts[::-1] if backward else trace.ts
    A0 = trace.As[-1 if backward else 0]
    y0 = np.concatenate([A0.ravel(), np.eye(DIM).ravel()])
    sol = solve_ivp(
        lambda t, y: _joint_rhs(y, data),
        (ts[0], ts[-1]),
        y0,
        method="RK45",
        rtol=rel_tol,
        atol=abs_tol,
        t_eval=ts,
        dense_output=False,
    )
    if sol.status != 0:
        raise IntegrationError(f"h-reconstruction failed: {sol.message}")
    hs = sol.y[36:].T.reshape(-1, DIM, DIM)
    return hs[::-1] if backward else hs


def reconstruction_gap(trace: FlowTrace, hs: np.ndarray) -> float:
    """max |A(t) - a(t)^{-1} k(t) A(0) k(t)^{-1}| over the trace.

    h = blockdiag(k, a) stays block diagonal because Q is; the identity
    pins the pairing between the h-evolution and the bracket trajectory.
    """
    A0 = trace.As[0]
    worst = 0.0
    for A, h in zip(trace.As, hs):
        k = h[:6, :6]
        a = h[6, 6]
        recon = np.linalg.solve(k.T, (k @ A0).T).T / a
        worst = max(worst, float(np.max(np.abs(A - recon))))
        off = max(np.max(np.abs(h[:6, 6])), np.max(np.abs(h[6, :6])))
        worst = max(worst, float(off))
    return worst


def coflow_pde_residuals(
    A0: np.ndarray,
    data: G2Data,
    times: tuple[float, ...] = (0.5, 1.5),
    dts: tuple[float, ...] = (1e-2, 1e-3, 1e-4),
    rel_tol: float = 1e-12,
    abs_tol: float = 1e-14,
) -> dict[float, float]:
    """Finite-difference check that psi(t) = pullback(h(t), psi) solves
    d/dt psi = Delta_{g(t)} psi with the fixed algebra differential.

    Central differences over each dt; the Laplacian uses the evolving Gram
    matrix g(t) = h(t)^t h(t). Residuals should fall off as O(dt^2) until
    the integration tolerance floor.
    """
    A0 = require_sp(A0, data)
    needed = sorted({0.0} | {t + s * dt for t in times for dt in dts for s in (-1, 0, 1)})
    if min(needed) < 0:
        raise ValueError("times must exceed the largest dt")
    y0 = np.concatenate([A0.ravel(), np.eye(DIM).ravel()])
    sol = solve_ivp(
        lambda t, y: _joint_rhs(y, data),
        (0.0, max(needed)),
        y0,
        method="RK45",
        rtol=rel_tol,
        atol=abs_tol,
        t_eval=needed,
        dense_output=False,
    )
    if sol.status != 0:
        raise IntegrationError(f"pde-check integration failed: {sol.message}")
    h_at = {t: sol.y[36:, i].reshape(DIM, DIM) for i, t in enumerate(needed)}

    def psi_at(t: float) -> KForm:
        return pullback(h_at[t], data.psi)

    out: dict[float, float] = {}
    for dt in dts:
        worst = 0.0
        for t in times:
            dpsi = (1.0 / (2.0 * dt)) * (psi_at(t + dt) - psi_at(t - dt))
            h = h_at[t]
            lap = hodge_laplacian(psi_at(t), A0, g=h.T @ h)
            worst = max(worst, form_norm(dpsi - lap))
        out[dt] = worst
    return out


_CSV_COLUMNS = (
    ["t"]
    + [f"A{i}{j}" for i in range(1, 7) for j in range(1, 7)]
    + ["normSq", "R", "torsionNormSq", "step"]
)


def write_trace_csv(trace: FlowTrace, path: str) -> None:
    """Deterministic CSV (17 significant digits) plus a .meta.json sidecar."""
    lines = [",".join(_CSV_COLUMNS)]
    for i in range(len(trace.ts)):
        row = (
            [trace.ts[i]]
            + list(trace.As[i].ravel())
            + [trace.norm_sq[i], trace.R[i], trace.torsion_sq[i], trace.steps[i]]
        )
        lines.append(",".join(f"{x:.17g}" for x in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(_meta_path(path), "w") as fh:
        json.dump(trace.meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _meta_path(path: str) -> str:
    return (path[:-4] if path.endswith(".csv") else path) + ".meta.json"


def read_trace_csv(path: str) -> FlowTrace:
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    with open(_meta_path(path)) as fh:
        meta = json.load(fh)
    return FlowTrace(
        ts=raw[:, 0],
        As=raw[:, 1:37].reshape(-1, 6, 6),
        norm_sq=raw[:, 37],
        R=raw[:, 38],
        torsion_sq=raw[:, 39],
        steps=raw[:, 40],
        meta=meta,
    )
