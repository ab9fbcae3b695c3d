"""Bracket-flow integration for the Laplacian coflow.

The coflow of invariant coclosed structures reduces to a matrix ODE on
sp(R^6): dA/dt = q_A A - [Q^h_A, A], whose solutions stay symplectic. The
geometric solution is recovered from the endomorphism flow dh/dt = -Q_A h
with h(0) = I: psi(t) = pullback(h(t), psi) solves d/dt psi = Delta psi,
and A(t) = a(t)^{-1} k(t) A(0) k(t)^{-1} for h = blockdiag(k, a). h is
formed on a trajectory's own accepted steps (_h_on_steps): the stages of
all steps at once, on stacks, with h carried as its blocks k and a.

Integration uses an in-house adaptive Dormand-Prince 5(4) pair, _dopri,
whose step control follows scipy's RK45 exactly (same initial step,
error norm and step factors, so the same accepted steps). Its right-hand
sides follow one per-call protocol, fun(t, y, out): they write dy/dt into
out, a row of the stepper's stage matrix, and the stepper ignores what
they return. What a call reads is bound once, not looked up per call:
the flow right-hand side (_flow_rhs, which rhs calls too) binds a symbol
evaluator, the Qh and 0-d q each of its calls rewrites, Qh.dot and a
scratch buffer; _dopri binds the stage matrix, its stage, solution and
error products as ndarray.dot methods of its views (np.dot's BLAS calls
without its dispatch), its buffers, and h, rtol and atol as 0-d arrays (h
rewritten once per step), which numpy does not convert on every in-place
operation as it does Python floats. So a step allocates no array besides
y_new, the state its sample keeps, and every floating-point operation is
the one an allocating evaluation would make, in the same order: without
stops, the steps are bit-identical to scipy's. No structure projection is
performed: once the stepper returns, integrate checks the symplectic drift
of every sample as an integrator health check and fails the run at the
first one beyond the configured tolerance, so an accuracy bug cannot hide
behind a re-projection.

The symbol (Q^h_A, q_A) is a quadratic form evaluated on the coordinates
of the orthogonal projection of A onto sp(R^6) (see
almost_abelian._symbol_evaluator). Only the symbol reads the projection:
the state itself is never projected, and the drift gate still bounds its
distance from sp(R^6) at every sample.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .almost_abelian import (
    _blockdiag,
    _symbol_evaluator,
    require_sp,
    scalar_diagnostics,
)
from .exterior import form_norm, pullback
from .g2 import G2Data, circ
from .metric_lie import DIM, hodge_laplacian

__all__ = [
    "IntegratorOptions",
    "FlowTrace",
    "IntegrationError",
    "rhs",
    "norm_derivative",
    "integrate",
    "SLACK",
    "scalar_bound_check",
    "reconstruct_h",
    "reconstruction_gap",
    "coflow_pde_residuals",
    "write_trace_csv",
    "read_trace_csv",
]

SLACK = 1e-9  # of the trace checks: scalar_bound_check, flow's monotonicity


class IntegrationError(RuntimeError):
    """Integrator could not continue (step underflow or structure drift)."""


@dataclass(frozen=True)
class IntegratorOptions:
    """Adaptive RK 5(4) settings.

    Step underflow raises IntegrationError, and the smallest accepted step
    is reported in the trace meta. sp_drift_tol bounds |A J + J A^t| on
    every sample once the stepper returns. Backward runs stop at the norm
    ceiling (the flow may have a finite-time singularity in the past);
    forward runs never terminate on norm growth, which the monotonicity
    makes moot.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_step: float = np.inf
    t_end: float = 10.0
    sp_drift_tol: float = 1e-8
    direction: str = "forward"
    norm_ceiling: float = 1e6

    def __post_init__(self) -> None:
        finite = (self.rel_tol, self.abs_tol, self.sp_drift_tol, self.t_end)
        if not all(math.isfinite(x) for x in finite):
            raise ValueError("tolerances and t_end must be finite")
        # not (x > 0) rather than x <= 0, so that NaN fails too
        if not (self.rel_tol > 0 and self.abs_tol > 0 and self.sp_drift_tol > 0):
            raise ValueError("tolerances must be positive")
        if not self.max_step > 0:
            raise ValueError("max_step must be positive")
        if not self.t_end > 0:
            raise ValueError("t_end is a positive duration")
        if not self.norm_ceiling > 0:
            raise ValueError("norm_ceiling must be positive")
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
    rejected: int  # nfev = 2 + 6 (accepted + rejected) when t_bound != t0
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
    f1 = np.empty_like(y0)
    fun(t0 + h0 * direction, y0 + h0 * direction * f0, f1)
    # as in numpy: when |f0| overflows (h0 = 0), d2 = inf and the step is 0
    d2 = _rms((f1 - f0) / scale) / h0 if h0 else math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval, max_step)


def _interpolate(
    Q: np.ndarray, t_old: float, h: float, y_old: np.ndarray, t: float
) -> np.ndarray:
    """Quartic interpolant of the step from t_old to t_old + h at t; Q =
    K.T @ _DP_P holds the step's dense-output coefficients, for its stage
    matrix K."""
    p = np.cumprod(np.full(4, (t - t_old) / h))
    return h * (Q @ p) + y_old


def _dopri(
    fun: Callable[[float, np.ndarray, np.ndarray], None],
    t0: float,
    y0: np.ndarray,
    t_bound: float,
    rtol: float,
    atol: float,
    max_step: float = np.inf,
    event: Callable[[float, np.ndarray], float] | None = None,
    stops: tuple[float, ...] = (),
) -> _Solution:
    """Adaptive Dormand-Prince 5(4) integration of dy/dt = f(t, y).

    fun(t, y, out) writes f(t, y) into out, a row of the stage matrix, and
    must not keep y, which may be a buffer the next stage overwrites. Step
    control is scipy's RK45: Hairer's initial step, RMS error norm
    over atol + rtol max(|y|, |y_new|), safety 0.9, step factors in
    [0.2, 10], no growth right after a rejection, and a floor of ten ulps
    of t. Samples are the accepted steps; rejected steps are counted.
    event(t, y) is terminal: when it changes sign over a step, its root on
    the step's interpolant is located by bisection and becomes the last
    sample. stops are times, sorted in the direction of integration, on
    which a step must end, so each is a sample: a step ends on a stop when
    t + 1.01 h would pass it (Hairer's rule: no sliver step before it), on
    t_bound when t + h would, as in scipy. h, rtol and atol enter as 0-d
    arrays. The stepper checks nothing about the samples; callers gate them
    once it returns.
    """
    rtol = max(rtol, 100 * _EPS)
    direction = 1.0 if t_bound >= t0 else -1.0
    t = float(t0)
    y = np.array(y0, dtype=float)
    root_size = y.size**0.5
    # the stage matrix and every view of it the steps read, bound once;
    # K[0] holds f(t, y) at the start of each step
    K = np.empty((7, y.size))
    stages = [(K[:s].T.dot, a, c, K[s]) for s, (a, c) in enumerate(_DP_STAGES, 1)]
    K_first, K_last, KT = K[0], K[-1], K.T
    solution, error = K[:-1].T.dot, KT.dot  # the stage sums of y_new and err
    fun(t, y, K_first)
    nfev = 1
    if t == t_bound:
        h_abs = 0.0
    else:
        h_abs = _initial_step(fun, t, y, K[0], t_bound, max_step, direction, rtol, atol)
        nfev += 1
    # stage argument, |y| (carried over from the accepted step), |y_new|,
    # error scale and error estimate
    arg, abs_y, abs_new, scale, err = np.empty((5, y.size))
    np.abs(y, out=abs_y)
    h_0d, rtol_0d, atol_0d = np.empty(()), np.array(rtol), np.array(atol)
    ts, ys = [t], [y]
    g = event(t, y) if event is not None else 0.0
    status = 0
    rejections = 0
    bounds = iter([*((stop, 1.01) for stop in stops), (t_bound, 1.0)])
    bound, stretch = next(bounds)  # where the next step must end at the latest
    while direction * (t - t_bound) < 0:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = min(max(h_abs, min_step), max_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # a NaN step ends the run too
                status = -1
                break
            t_new = t + h_abs * direction
            if direction * (t + stretch * h_abs * direction - bound) > 0:
                t_new = bound
            h = t_new - t
            h_abs = abs(h)
            h_0d[()] = h
            for stage_sum, a, c, K_s in stages:
                stage_sum(a, arg)
                arg *= h_0d
                arg += y
                fun(t + c * h, arg, K_s)
            y_new = solution(_DP_B)  # a fresh array: the samples keep it
            y_new *= h_0d
            y_new += y
            fun(t_new, y_new, K_last)
            nfev += 6
            np.maximum(abs_y, np.abs(y_new, out=abs_new), out=scale)
            scale *= rtol_0d
            scale += atol_0d
            error(_DP_E, err)
            err *= h_0d
            err /= scale
            error_norm = math.sqrt(err.dot(err)) / root_size  # _rms(err), inline
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
            rejected = True
            rejections += 1
        if status == -1:
            break
        t_old, y_old = t, y
        t, y = t_new, y_new
        abs_y, abs_new = abs_new, abs_y
        if t == bound:
            bound, stretch = next(bounds, (t_bound, 1.0))
        if event is not None:
            g_new = event(t, y)
            if (g <= 0 <= g_new) or (g >= 0 >= g_new):
                t, y = _event_root(event, KT @ _DP_P, t_old, t, y_old, g)
                status = 1
            g = g_new
        ts.append(t)
        ys.append(y)
        if status == 1:
            break
        K_first[...] = K_last
    return _Solution(
        np.array(ts), np.array(ys), nfev, rejections, status, _MESSAGES[status]
    )


def _event_root(event, Q, t_old, t_new, y_old, g_old) -> tuple[float, np.ndarray]:
    """Bisection for the event's sign change on the interpolant of the step
    from t_old to t_new (dense-output coefficients Q, see _interpolate),
    down to adjacent floating-point times; returns the end past the root
    and the interpolant there."""
    h = t_new - t_old
    a, b, ga = t_old, t_new, g_old
    while True:
        m = 0.5 * (a + b)
        if m == a or m == b:
            return b, _interpolate(Q, t_old, h, y_old, b)
        gm = event(m, _interpolate(Q, t_old, h, y_old, m))
        if (ga <= 0) == (gm <= 0):
            a, ga = m, gm
        else:
            b = m


def _worst(*values: float) -> float:
    """max of the residuals, or NaN if any is NaN (Python's max(0.0, nan)
    is 0.0)."""
    return math.nan if any(v != v for v in values) else max(values)


def _bracket_rhs(
    A: np.ndarray, Qh: np.ndarray, q: np.ndarray, F: np.ndarray, tmp: np.ndarray
) -> None:
    """F = A Qh - Qh A + q A for (n, 6, 6) stacks A, Qh and F and q of shape
    (n, 1, 1), written into F; tmp is a scratch buffer of F's shape."""
    np.matmul(A, Qh, F)
    F -= np.matmul(Qh, A, tmp)
    F += np.multiply(A, q, tmp)


def _flow_rhs(data: G2Data) -> Callable[[float, np.ndarray, np.ndarray], None]:
    """fun(t, y, out) of the bracket flow on y = vec(A), for _dopri: writes
    F = A Qh - Qh A + q A into out, with Qh and q bound once as the views
    each call of the symbol evaluator rewrites."""
    symbol = _symbol_evaluator(data)
    Qh, q = symbol(np.zeros(36))
    Qh_dot, multiply = Qh.dot, np.multiply
    tmp = np.empty((6, 6))

    def fun(t: float, y: np.ndarray, out: np.ndarray) -> None:
        symbol(y)
        A, F = y.reshape(6, 6), out.reshape(6, 6)
        A.dot(Qh, F)
        F -= Qh_dot(A, tmp)
        F += multiply(A, q, tmp)

    return fun


def rhs(A: np.ndarray, data: G2Data) -> np.ndarray:
    """dA/dt = q_A A - [Q^h_A, A]; tangent to sp(R^6)."""
    F = np.empty(36)
    _flow_rhs(data)(0.0, require_sp(A, data).ravel(), F)
    return F.reshape(6, 6)


def norm_derivative(A: np.ndarray, data: G2Data) -> float:
    """d/dt |A|^2 = -(|S|^2 + (1/2)(tr JA)^2)|A|^2 - |[A,A^t]|^2
    - <S o6 S, [A,A^t]>; always <= 0, zero exactly on su(3)."""
    A = require_sp(A, data)
    S = _blockdiag(0.5 * (A + A.T), 0.0)
    comm = A @ A.T - A.T @ A
    return float(
        -(np.sum(S * S) + 0.5 * np.trace(data.J @ A) ** 2) * np.sum(A * A)
        - np.sum(comm * comm)
        - np.sum(circ(S, S, data)[:6, :6] * comm)
    )


def integrate(A0: np.ndarray, opts: IntegratorOptions, data: G2Data) -> FlowTrace:
    """Integrate the bracket flow from A0 over [0, t_end] (or backward).

    Samples at accepted steps. Raises IntegrationError on a non-finite
    sample or symplectic drift beyond opts.sp_drift_tol, naming the first
    such sample in integration order, or on step underflow; backward runs
    terminate cleanly at the norm ceiling and raise before a step from a
    start at or above it.
    """
    y0 = require_sp(A0, data).ravel()

    def ceiling(t: float, y: np.ndarray) -> float:
        return math.sqrt(y.dot(y)) - opts.norm_ceiling

    backward = opts.direction == "backward"
    if backward and not ceiling(0.0, y0) < 0:
        raise IntegrationError(
            f"the start's norm |A| = {math.sqrt(y0.dot(y0)):.6g} is at or above "
            f"the norm ceiling {opts.norm_ceiling:g}"
        )
    sol = _dopri(
        _flow_rhs(data),
        0.0,
        y0,
        -opts.t_end if backward else opts.t_end,
        opts.rel_tol,
        opts.abs_tol,
        max_step=opts.max_step,
        event=ceiling if backward else None,
    )
    # sp(R^6) is a linear subspace and the rhs is tangent to it, so the
    # samples stay symplectic to rounding; the gate catches anything else,
    # the start and an event-located end sample included. A non-finite
    # sample has a NaN or infinite drift: it fails the gate, named as such.
    drift = np.abs(sol.y @ data._sp_residual.T).max(axis=1)
    over = ~(drift <= opts.sp_drift_tol)
    i = int(np.argmax(over))  # the first one over, if any
    if over[i]:
        cause = f"symplectic drift {drift[i]:.3e} exceeded {opts.sp_drift_tol:g}"
        if not np.isfinite(sol.y[i]).all():
            cause = "the state became non-finite (overflow)"
        raise IntegrationError(f"{cause} at t = {sol.t[i]:.6g}")
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

    diag = scalar_diagnostics(ys, data)

    meta = {
        "options": asdict(opts),
        "convention": data.convention,
        "termination": termination,
        "solver": "rk45",
        "status": sol.status,
        "message": sol.message,
        "nfev": sol.nfev,
        "rejected_steps": sol.rejected,
        "samples": int(len(ts)),
        "min_accepted_step": float(np.min(np.abs(diffs))) if len(diffs) else 0.0,
        "max_sp_drift": float(drift.max()),
    }
    if np.isinf(opts.max_step):
        meta["options"]["max_step"] = "inf"
    return FlowTrace(
        ts=ts,
        As=ys,
        norm_sq=diag["normSq"],
        R=diag["R"],
        torsion_sq=diag["torsionNormSq"],
        steps=steps,
        meta=meta,
    )


def scalar_bound_check(trace: FlowTrace) -> dict:
    """Two-sided scalar-curvature bound and monotonicity along a trace.

    1/(-|t|/2 + 1/R(0)) <= R(t) <= 0 requires R(0) < 0; a flat start makes
    the bound vacuous and is reported as skipped. Also reports whether R
    increases along the samples. The comparison argument is
    one-directional: on a backward trace the inequality flips and the
    reference point sits at the other end, so the check only applies to
    forward runs.
    """
    if _backward(trace):
        return {"skipped": True, "reason": "forward-time bound on a backward trace"}
    R0 = trace.R[0]
    if R0 >= -1e-14:
        return {"skipped": True, "reason": "flat start: R(0) = 0"}
    lower = 1.0 / (-np.abs(trace.ts) / 2.0 + 1.0 / R0)
    bound_ok = bool(
        np.all(trace.R <= SLACK) and np.all(trace.R >= lower - SLACK)
    )
    return {
        "skipped": False,
        "bound_ok": bound_ok,
        "lower_gap": float(np.min(trace.R - lower)),
        "upper_gap": float(np.max(trace.R)),
        "R_increasing": bool(np.all(np.diff(trace.R) >= -SLACK)),
    }


def _backward(trace: FlowTrace) -> bool:
    """Whether the trace ran backward: it is stored time-ascending, so it
    starts (t = 0, h = I) at its last sample."""
    return trace.meta.get("options", {}).get("direction") == "backward"


def _h_on_steps(ts: np.ndarray, As: np.ndarray, data: G2Data) -> np.ndarray:
    """h at each of ts, in the direction of integration, for dh/dt = -Q_A h
    and h(ts[0]) = I, as a (len(ts), 7, 7) stack; A is As[i] at ts[i], and
    the samples are the accepted steps of a Dormand-Prince run.

    Each step is the Dormand-Prince 5 step of the joint flow of (A, h) from
    its start sample over its length, on which alone its stages depend, so
    the six stages of every step are evaluated at once, on stacks. With
    Q = blockdiag(Qh, q), h = blockdiag(k, a) and dh/dt linear in h, a step
    maps k to K k and a to alpha a, K and alpha formed from its stages, so k
    is the running product of the K and a the cumulative product of alpha.
    """
    dt = np.diff(ts)
    n = len(dt)
    dt3 = dt[:, None, None]
    symbol = _symbol_evaluator(data, n)
    dA, dK = np.empty((2, 6, n * 36))  # each stage's dA/dt and dK/dt = -Qh K
    dalpha = np.empty((6, n))  # and dalpha/dt = -q alpha
    eye = np.eye(6)
    for s in range(6):
        a = _DP_A[s, :s]
        arg = As[:-1] + dt3 * (a @ dA[:s]).reshape(n, 6, 6)
        Qh, q = symbol(arg.reshape(n, 36))
        _bracket_rhs(arg, Qh, q, dA[s].reshape(n, 6, 6), np.empty((n, 6, 6)))
        dK[s] = -(Qh @ (eye + dt3 * (a @ dK[:s]).reshape(n, 6, 6))).ravel()
        dalpha[s] = -(q[:, 0, 0] * (1.0 + dt * (a @ dalpha[:s])))
    ks = np.tile(eye, (n + 1, 1, 1))
    for i, K in enumerate(eye + dt3 * (_DP_B @ dK).reshape(n, 6, 6)):
        np.dot(K, ks[i], ks[i + 1])
    hs = np.zeros((n + 1, DIM, DIM))
    hs[:, :6, :6] = ks
    hs[:, 6, 6] = np.cumprod(np.r_[1.0, 1.0 + dt * (_DP_B @ dalpha)])
    return hs


def reconstruct_h(trace: FlowTrace, data: G2Data) -> np.ndarray:
    """h(t) with dh/dt = -Q_{A(t)} h, h(0) = I, on the trace's time grid.

    Formed on the trace's own accepted steps: h is the Dormand-Prince 5
    solution of the joint flow of (A, h) on those steps, Q evaluated at
    each step's stages from its start sample. h gets no step control of
    its own; the trace's steps control A, and h is as accurate as the trace.
    """
    ts, As = trace.ts, trace.As
    if _backward(trace):
        return _h_on_steps(ts[::-1], As[::-1], data)[::-1]
    return _h_on_steps(ts, As, data)


def reconstruction_gap(trace: FlowTrace, hs: np.ndarray) -> float:
    """max |A(t) - a(t)^{-1} k(t) A(0) k(t)^{-1}| over the trace, A(0) the
    sample where the trace starts.

    h = blockdiag(k, a) stays block diagonal because Q is; the identity
    pins the pairing between the h-evolution and the bracket trajectory.
    """
    ks = hs[:, :6, :6]
    A0 = trace.As[-1 if _backward(trace) else 0]
    # A(t) = a^{-1} k A0 k^{-1}, solved as k^t X = (k A0)^t over the stack
    kA0t = np.swapaxes(ks @ A0, 1, 2)
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
    the integration tolerance floor. times and dts must be non-empty,
    finite and positive, and every time must exceed the largest dt. The
    bracket flow is integrated in one run whose steps end on every needed
    time (_dopri's stops), so every h is taken at the end of a step.
    """
    if not len(times) or not len(dts):
        raise ValueError("times and dts must be non-empty")
    if not all(math.isfinite(x) and x > 0 for x in (*times, *dts)):
        raise ValueError("times and dts must be finite and positive")
    if not min(times) > max(dts):
        raise ValueError("every time must exceed the largest dt")
    A0 = require_sp(A0, data)
    needed = sorted({t + s * dt for t in times for dt in dts for s in (-1, 0, 1)})
    sol = _dopri(
        _flow_rhs(data), 0.0, A0.ravel(), needed[-1], rel_tol, abs_tol, stops=needed
    )
    if sol.status != 0:
        raise IntegrationError(f"bracket flow integration failed: {sol.message}")
    hs = _h_on_steps(sol.t, sol.y.reshape(-1, 6, 6), data)
    h_at = dict(zip(needed, hs[np.searchsorted(sol.t, needed)]))
    psi_at = {t: pullback(h, data.psi) for t, h in h_at.items()}
    lap_at = {t: hodge_laplacian(psi_at[t], A0, g=h_at[t].T @ h_at[t]) for t in times}

    def residual(t: float, dt: float) -> float:
        dpsi = (1.0 / (2.0 * dt)) * (psi_at[t + dt] - psi_at[t - dt])
        return form_norm(dpsi - lap_at[t])

    return {dt: _worst(0.0, *(residual(t, dt) for t in times)) for dt in dts}


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
    _write_table(path, _CSV_COLUMNS, table)
    _write_json(_meta_path(path), trace.meta)


def _write_table(path: str, header, table) -> None:
    """Header line plus one row of "%.17g" cells per table row: integral
    values print as integers ("16") and non-finite ones as nan, inf, -inf."""
    table = np.asarray(table, dtype=float)
    row = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write((row * len(table)) % tuple(table.ravel().tolist()))


def _write_json(path: str, obj) -> None:
    """Indented, key-sorted JSON and a final newline, written in one call."""
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


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
