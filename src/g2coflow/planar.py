"""Two-parameter reduction of the bracket flow.

The family A(x, y) = blockdiag(B, -B^t) with B carrying x, y in the two
off-diagonal slots is invariant under the bracket flow, which restricts to
the planar polynomial system

    dx/dt = -2x(3x - y)(x + y),    dy/dt = 2y(x - 3y)(x + y).

The restriction of the bracket right-hand side is exactly proportional to
this field with a constant factor (1/4, reported by
embedding_consistency, so the planar system runs the same orbits on a
4-times-faster clock). Lyapunov function V = (x + y)^2 decays everywhere,
the equilibria fill the line x = -y (skew brackets), H = (y-x)^2/(x^3 y^3)
is conserved off the axes, and both axes are invariant lines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coflow import IntegrationError, _dopri, _write_table, rhs
from .g2 import G2Data

__all__ = [
    "PhaseGrid",
    "embed",
    "planar_rhs",
    "embedding_consistency",
    "lyapunov",
    "log_abs_h",
    "axis_solution",
    "nullcline_flags",
    "nullclines",
    "integrate_trajectory",
    "phase_portrait",
    "write_phase_csv",
    "write_trajectory_csv",
    "FLAG_NAMES",
]


@dataclass(frozen=True)
class PhaseGrid:
    xmin: float
    xmax: float
    ymin: float
    ymax: float
    res: int

    def __post_init__(self) -> None:
        if self.res < 2:
            raise ValueError("resolution must be at least 2")
        if not np.isfinite([self.xmin, self.xmax, self.ymin, self.ymax]).all():
            raise ValueError("grid bounds must be finite")
        if self.xmax <= self.xmin or self.ymax <= self.ymin:
            raise ValueError("degenerate grid rectangle")


def embed(x: float, y: float) -> np.ndarray:
    """A = blockdiag(B, -B^t) with B[0,1] = x, B[1,0] = y; lies in sp(R^6)
    for the pairing of the "example" basis."""
    A = np.zeros((6, 6))
    A[0, 1] = x
    A[1, 0] = y
    A[3, 4] = -y
    A[4, 3] = -x
    return A


def planar_rhs(x: float, y: float) -> tuple[float, float]:
    """Polynomial field of the reduced system, exactly as displayed."""
    return (
        -2.0 * x * (3.0 * x - y) * (x + y),
        2.0 * y * (x - 3.0 * y) * (x + y),
    )


def embedding_consistency(x: float, y: float, data: G2Data) -> dict:
    """Compare the bracket flow on embed(x, y) with the planar field.

    Returns off_family (bracket rhs component outside the two-parameter
    family), residual (gap between the bracket rhs and factor * planar
    direction), and the factor itself, fitted by least squares. The family
    is exactly invariant and the fields are exactly proportional with
    factor 1/4, so both residuals sit at rounding level.
    """
    if data.convention != "example":
        raise ValueError("the planar family is written in the example basis")
    R = rhs(embed(x, y), data)
    dx_b, dy_b = R[0, 1], R[1, 0]
    off_family = float(np.max(np.abs(R - embed(dx_b, dy_b))))
    dx_p, dy_p = planar_rhs(x, y)
    denom = dx_p * dx_p + dy_p * dy_p
    factor = (dx_b * dx_p + dy_b * dy_p) / denom if denom else 0.0
    residual = float(np.hypot(dx_b - factor * dx_p, dy_b - factor * dy_p))
    return {"off_family": off_family, "residual": residual, "factor": factor}


def lyapunov(x: float, y: float) -> tuple[float, float]:
    """V = x^2 + y^2 + 2xy = (x+y)^2 and its derivative along the flow,
    Vdot = -2(x+y)^2 (6x^2 - 4xy + 6y^2) <= 0 with equality on x = -y."""
    V = x * x + y * y + 2.0 * x * y
    Vdot = -2.0 * (x + y) ** 2 * (6.0 * x * x - 4.0 * x * y + 6.0 * y * y)
    return V, Vdot


def log_abs_h(x: float, y: float) -> float:
    """log|H| of the conserved quantity H = (y - x)^2 / (x^3 y^3):
    2 log|y - x| - 3 log|x| - 3 log|y|; -inf on the line y = x.

    Conservation tests run in log space so trajectories approaching an
    axis do not overflow the raw quotient.
    """
    if x == 0.0 or y == 0.0:
        raise ValueError("H is undefined on the coordinate axes")
    if y == x:
        return -np.inf
    return 2.0 * np.log(abs(y - x)) - 3.0 * np.log(abs(x)) - 3.0 * np.log(abs(y))


def axis_solution(x0: float, t: float | np.ndarray) -> np.ndarray:
    """On y = 0 the system reduces to dx/dt = -6x^3, so
    x(t) = x0 (1 + 12 x0^2 t)^{-1/2}."""
    return x0 / np.sqrt(1.0 + 12.0 * x0 * x0 * np.asarray(t, dtype=float))


FLAG_NAMES = (
    "xnull_x0",      # 1:  x = 0
    "xnull_y3x",     # 2:  y = 3x
    "null_diag",     # 4:  x + y = 0 (both nullclines; equilibrium line)
    "ynull_y0",      # 8:  y = 0
    "ynull_y_x3",    # 16: y = x/3
)


def nullcline_flags(x: float, y: float) -> int:
    """Bitmask over FLAG_NAMES; absolute tolerance 1e-9 on the defining
    polynomials, since grid points rarely sit exactly on a line."""
    tol = 1e-9
    flags = 0
    if abs(x) < tol:
        flags |= 1
    if abs(y - 3.0 * x) < tol:
        flags |= 2
    if abs(x + y) < tol:
        flags |= 4
    if abs(y) < tol:
        flags |= 8
    if abs(x - 3.0 * y) < tol:
        flags |= 16
    return flags


def nullclines(lo: float = -2.0, hi: float = 2.0, n: int = 201) -> dict[str, np.ndarray]:
    """Sampled line data for the three x-nullclines and three y-nullclines."""
    s = np.linspace(lo, hi, n)
    zero = np.zeros_like(s)
    return {
        "x=0": np.column_stack([zero, s]),
        "y=3x": np.column_stack([s, 3.0 * s]),
        "x=-y": np.column_stack([s, -s]),
        "y=0": np.column_stack([s, zero]),
        "y=x/3": np.column_stack([s, s / 3.0]),
    }


def integrate_trajectory(
    x0: float,
    y0: float,
    t_end: float,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Planar trajectory sampled at the accepted steps; IntegrationError when
    the step size underflows."""

    def fun(t: float, v: np.ndarray, out: np.ndarray) -> None:
        out[0], out[1] = planar_rhs(v[0], v[1])

    sol = _dopri(
        fun,
        0.0,
        np.array([x0, y0], dtype=float),
        t_end,
        rel_tol,
        abs_tol,
    )
    if sol.status != 0:
        raise IntegrationError(f"trajectory integration failed: {sol.message}")
    return sol.t, sol.y[:, 0], sol.y[:, 1]


def phase_portrait(grid: PhaseGrid) -> list[dict]:
    """Per-grid-point dataset: field, Lyapunov pair, log|H|, line flags."""
    xs = np.linspace(grid.xmin, grid.xmax, grid.res)
    ys = np.linspace(grid.ymin, grid.ymax, grid.res)
    rows = []
    for y in ys:
        for x in xs:
            dx, dy = planar_rhs(x, y)
            V, Vdot = lyapunov(x, y)
            defined = x != 0.0 and y != 0.0
            rows.append(
                {
                    "x": x,
                    "y": y,
                    "dx": dx,
                    "dy": dy,
                    "V": V,
                    "Vdot": Vdot,
                    "H_defined": int(defined),
                    "logAbsH": log_abs_h(x, y) if defined else np.nan,
                    "flags": nullcline_flags(x, y),
                }
            )
    return rows


_PHASE_COLUMNS = ("x", "y", "dx", "dy", "V", "Vdot", "H_defined", "logAbsH", "flags")


def write_phase_csv(rows: list[dict], path: str) -> None:
    table = [[row[c] for c in _PHASE_COLUMNS] for row in rows]
    _write_table(path, _PHASE_COLUMNS, table)


def write_trajectory_csv(
    ts: np.ndarray, xs: np.ndarray, ys: np.ndarray, path: str
) -> np.ndarray:
    """Write the trajectory and return its log|H| column (NaN on an axis)."""
    hs = [log_abs_h(x, y) if x != 0.0 and y != 0.0 else np.nan for x, y in zip(xs, ys)]
    _write_table(path, ("t", "x", "y", "logAbsH"), np.column_stack([ts, xs, ys, hs]))
    return np.array(hs)
