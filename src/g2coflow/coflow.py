"""Bracket-flow integration for the Laplacian coflow.

The coflow of invariant coclosed structures reduces to a matrix ODE on
sp(R^6): dA/dt = q_A A - [Q^h_A, A], whose solutions stay symplectic. The
geometric solution is recovered from the endomorphism flow dh/dt = -Q_A h
with h(0) = I: psi(t) = pullback(h(t), psi) solves d/dt psi = Delta psi,
and A(t) = a(t)^{-1} k(t) A(0) k(t)^{-1} for h = blockdiag(k, a).

Integration uses an in-house adaptive Dormand-Prince 5(4) pair, _dopri,
whose step control follows scipy's RK45 exactly (same initial step, error
norm and step factors, so the same accepted steps). No structure
projection is performed: symplectic drift is checked at every accepted
step as an integrator health check and aborts the run beyond the
configured tolerance, so an accuracy bug cannot hide behind a
re-projection.

The symbol (Q^h_A, q_A) is a quadratic form evaluated on the coordinates
of the orthogonal projection of A onto sp(R^6) (see
almost_abelian._laplacian_symbol). Only the symbol reads the projection:
the state itself is never projected, and the drift gate still bounds its
distance from sp(R^6) at every accepted step.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .almost_abelian import (
    _laplacian_symbol,
    _scalar_diagnostics_batch,
    require_sp,
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

    Step underflow raises IntegrationError, and the smallest accepted step
    is reported in the trace meta. Backward runs stop at the norm ceiling
    (the flow may have a finite-time singularity in the past); forward runs
    never terminate on norm growth, which the monotonicity makes moot.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_step: float = np.inf
    t_end: float = 10.0
    sp_drift_tol: float = 1e-8
    direction: str = "forward"
    norm_ceiling: float = 1e6

    def __post_init__(self) -> None:
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_step <= 0:
            raise ValueError("max_step must be positive")
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


# Dormand-Prince 5(4) tableau with Shampine's quartic dense output
# (Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.4-II.6), written as in
# scipy's RK45 so the floating-point step sequence is the same.
_DP_C = np.array([0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1])
_DP_A = np.array(
    [
        [0, 0, 0, 0, 0],
        [1 / 5, 0, 0, 0, 0],
        [3 / 40, 9 / 40, 0, 0, 0],
        [44 / 45, -56 / 15, 32 / 9, 0, 0],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    ]
)
_DP_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_DP_E = np.array(
    [-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40]
)
_DP_P = np.array(
    [
        [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
         -12715105075 / 11282082432],
        [0, 0, 0, 0],
        [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
         87487479700 / 32700410799],
        [0, -1754552775 / 470086768, 14199869525 / 1410260304,
         -10690763975 / 1880347072],
        [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
         701980252875 / 199316789632],
        [0, -282668133 / 205662961, 2019193451 / 616988883,
         -1453857185 / 822651844],
        [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)
_DP_STAGES = [(_DP_A[s, :s], _DP_C[s]) for s in range(1, 6)]
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1 / 5  # the error estimate is of order 4
_EPS = float(np.finfo(float).eps)
_MESSAGES = {
    0: "The solver successfully reached the end of the integration interval.",
    1: "A termination event occurred.",
    -1: "Required step size is less than spacing between numbers.",
}


class _Solution(NamedTuple):
    t: np.ndarray
    y: np.ndarray  # one row per sample
    nfev: int
    status: int  # 0 reached t_bound, 1 stopped by the event, -1 step underflow
    message: str


def _rms(x: np.ndarray) -> float:
    return math.sqrt(x.dot(x)) / x.size**0.5


def _initial_step(fun, t0, y0, f0, t_bound, max_step, direction, rtol, atol):
    """Hairer's starting-step rule (Solving ODEs I, Sec. II.4)."""
    interval = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0 * direction, y0 + h0 * direction * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval, max_step)


def _interpolate(K: np.ndarray, t_old: float, h: float, y_old: np.ndarray, t):
    """Quartic interpolant of the step from t_old to t_old + h at t (a
    scalar, or a 1-D array giving one row per point)."""
    x = (np.asarray(t, dtype=float) - t_old) / h
    p = np.cumprod(np.multiply.outer(np.ones(4), x), axis=0)
    return (h * ((K.T @ _DP_P) @ p)).T + y_old


def _dopri(
    fun: Callable[[float, np.ndarray], np.ndarray],
    t0: float,
    y0: np.ndarray,
    t_bound: float,
    rtol: float,
    atol: float,
    max_step: float = np.inf,
    t_eval: np.ndarray | None = None,
    event: Callable[[float, np.ndarray], float] | None = None,
    check: Callable[[float, np.ndarray], None] | None = None,
) -> _Solution:
    """Adaptive Dormand-Prince 5(4) integration of dy/dt = fun(t, y).

    Step control is scipy's RK45: Hairer's initial step, RMS error norm
    over atol + rtol max(|y|, |y_new|), safety 0.9, step factors in
    [0.2, 10], no growth right after a rejection, and a floor of ten ulps
    of t. Samples are the accepted steps, or the dense output at t_eval
    (ordered in the direction of integration). check(t, y) runs at every
    accepted step and may raise. event(t, y) is terminal: when it changes
    sign over a step, its root on the step's interpolant is located by
    bisection and becomes the last sample.
    """
    rtol = max(rtol, 100 * _EPS)
    direction = 1.0 if t_bound >= t0 else -1.0
    t = float(t0)
    y = np.array(y0, dtype=float)
    f = fun(t, y)
    nfev = 1
    if t == t_bound:
        h_abs = 0.0
    else:
        h_abs = _initial_step(fun, t, y, f, t_bound, max_step, direction, rtol, atol)
        nfev += 1
    K = np.empty((7, y.size))
    if t_eval is None:
        ts, ys = [t], [y]
    else:
        t_eval = np.asarray(t_eval, dtype=float)
        ahead = direction * t_eval
        i_eval = 0
        ts, ys = [], []
    g = event(t, y) if event is not None else 0.0
    status = 0
    while direction * (t - t_bound) < 0:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = min(max(h_abs, min_step), max_step)
        rejected = False
        while True:
            if h_abs < min_step:
                status = -1
                break
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            for s, (a, c) in enumerate(_DP_STAGES, start=1):
                K[s] = fun(t + c * h, y + np.dot(K[:s].T, a) * h)
            y_new = y + h * np.dot(K[:-1].T, _DP_B)
            f_new = K[-1] = fun(t_new, y_new)
            nfev += 6
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _rms(np.dot(K.T, _DP_E) * h / scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
            rejected = True
        if status == -1:
            break
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        if check is not None:
            check(t, y)
        if event is not None:
            g_new = event(t, y)
            if (g <= 0 <= g_new) or (g >= 0 >= g_new):
                t = _event_root(event, K, t_old, t, y_old, g)
                y = _interpolate(K, t_old, h, y_old, t)
                status = 1
            g = g_new
        if t_eval is None:
            ts.append(t)
            ys.append(y)
        else:
            i_new = int(np.searchsorted(ahead, direction * t, side="right"))
            if i_new > i_eval:
                ts.append(t_eval[i_eval:i_new])
                ys.append(_interpolate(K, t_old, h, y_old, t_eval[i_eval:i_new]))
                i_eval = i_new
        if status == 1:
            break
    if t_eval is None:
        t_out, y_out = np.array(ts), np.array(ys)
    elif ts:
        t_out, y_out = np.concatenate(ts), np.concatenate(ys)
    else:
        t_out, y_out = np.empty(0), np.empty((0, y.size))
    return _Solution(t_out, y_out, nfev, status, _MESSAGES[status])


def _event_root(event, K, t_old, t_new, y_old, g_old) -> float:
    """Bisection for the event's sign change on the interpolant of the step
    from t_old to t_new, down to adjacent floating-point times; returns the
    end past the root."""
    h = t_new - t_old
    a, b, ga = t_old, t_new, g_old
    while True:
        m = 0.5 * (a + b)
        if m == a or m == b:
            return b
        gm = event(m, _interpolate(K, t_old, h, y_old, m))
        if (ga <= 0) == (gm <= 0):
            a, ga = m, gm
        else:
            b = m


def _bracket_rhs(A: np.ndarray, Qh: np.ndarray, q: float) -> np.ndarray:
    F = A @ Qh
    F -= Qh @ A
    F += q * A
    return F


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


def integrate(A0: np.ndarray, opts: IntegratorOptions, data: G2Data) -> FlowTrace:
    """Integrate the bracket flow from A0 over [0, t_end] (or backward).

    Samples at accepted steps. Raises IntegrationError on step underflow
    or symplectic drift beyond opts.sp_drift_tol; backward runs terminate
    cleanly at the norm ceiling.
    """
    A0 = require_sp(A0, data)
    D = data._sp_residual

    def fun(t: float, y: np.ndarray) -> np.ndarray:
        return _rhs_raw(y.reshape(6, 6), data).ravel()

    def drift_gate(t: float, y: np.ndarray) -> None:
        drift = float(np.max(np.abs(D @ y)))
        if drift > opts.sp_drift_tol:
            raise IntegrationError(
                f"symplectic drift {drift:.3e} exceeded {opts.sp_drift_tol:g} "
                f"at t = {t:.6g}"
            )

    def ceiling(t: float, y: np.ndarray) -> float:
        return math.sqrt(y.dot(y)) - opts.norm_ceiling

    backward = opts.direction == "backward"
    sol = _dopri(
        fun,
        0.0,
        A0.ravel(),
        -opts.t_end if backward else opts.t_end,
        opts.rel_tol,
        opts.abs_tol,
        max_step=opts.max_step,
        event=ceiling if backward else None,
        check=drift_gate,
    )
    if sol.status == -1:
        raise IntegrationError(f"step-size underflow: {sol.message}")
    termination = "norm_ceiling" if sol.status == 1 else "t_end"

    ts = sol.t
    ys = sol.y.reshape(-1, 6, 6)
    if backward:
        ts = ts[::-1]
        ys = ys[::-1]
    diffs = np.diff(ts)
    steps = np.concatenate([[0.0], diffs])

    norm_sq = np.einsum("nij,nij->n", ys, ys)
    R, torsion_sq = _scalar_diagnostics_batch(ys, data)
    # sp(R^6) is a linear subspace and the rhs is tangent to it, so the
    # samples stay symplectic to rounding; the gate catches anything else,
    # the start and an event-located end sample included.
    max_drift = float(np.max(np.abs(ys.reshape(-1, 36) @ D.T)))
    if max_drift > opts.sp_drift_tol:
        raise IntegrationError(
            f"symplectic drift {max_drift:.3e} exceeded {opts.sp_drift_tol:g}"
        )

    meta = {
        "options": asdict(opts),
        "convention": data.convention,
        "termination": termination,
        "solver": "rk45",
        "status": sol.status,
        "message": sol.message,
        "nfev": sol.nfev,
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
    out = np.empty_like(y)
    out[:36] = _bracket_rhs(A, Qh, q).ravel()
    # -Q h for Q = blockdiag(Qh, q), block by block
    dh = out[36:].reshape(DIM, DIM)
    dh[:6] = -Qh @ h[:6]
    dh[6] = -q * h[6]
    return out


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
    sol = _dopri(
        lambda t, y: _joint_rhs(y, data), ts[0], y0, ts[-1], rel_tol, abs_tol, t_eval=ts
    )
    if sol.status != 0:
        raise IntegrationError(f"h-reconstruction failed: {sol.message}")
    hs = sol.y[:, 36:].reshape(-1, DIM, DIM)
    return hs[::-1] if backward else hs


def reconstruction_gap(trace: FlowTrace, hs: np.ndarray) -> float:
    """max |A(t) - a(t)^{-1} k(t) A(0) k(t)^{-1}| over the trace.

    h = blockdiag(k, a) stays block diagonal because Q is; the identity
    pins the pairing between the h-evolution and the bracket trajectory.
    """
    ks = hs[:, :6, :6]
    # A(t) = a^{-1} k A0 k^{-1}, solved as k^t X = (k A0)^t over the stack
    kA0t = np.swapaxes(ks @ trace.As[0], 1, 2)
    recon = np.swapaxes(np.linalg.solve(np.swapaxes(ks, 1, 2), kA0t), 1, 2)
    recon /= hs[:, 6, 6][:, None, None]
    return max(
        float(np.max(np.abs(trace.As - recon))),
        float(np.max(np.abs(hs[:, :6, 6]))),
        float(np.max(np.abs(hs[:, 6, :6]))),
    )


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
    sol = _dopri(
        lambda t, y: _joint_rhs(y, data), 0.0, y0, max(needed), rel_tol, abs_tol,
        t_eval=np.array(needed),
    )
    if sol.status != 0:
        raise IntegrationError(f"pde-check integration failed: {sol.message}")
    h_at = {t: sol.y[i, 36:].reshape(DIM, DIM) for i, t in enumerate(needed)}

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
    table = np.column_stack(
        [
            trace.ts,
            trace.As.reshape(len(trace.ts), 36),
            trace.norm_sq,
            trace.R,
            trace.torsion_sq,
            trace.steps,
        ]
    )
    row = ",".join(["%.17g"] * len(_CSV_COLUMNS)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(_CSV_COLUMNS) + "\n")
        fh.write((row * len(table)) % tuple(table.ravel().tolist()))
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
