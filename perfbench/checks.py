"""Correctness checks on g2coflow outputs.

Each check compares an output with a property of the method or with a
second route the benchmark computes itself (closed forms, recomputation
from the raw bracket columns, matrix identities). None compares with a
stored copy of earlier output, reads the wall clock, or depends on how the
program is split into functions. A failed check raises CheckFailed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.linalg import expm

SUITE_TOL = {
    "appendix": 1e-12,
    "laplacian": 1e-10,
    "torsion": 1e-10,
    "ricci": 1e-10,
    "bianchi": 1e-10,
    "lie": 1e-10,
}
CERT_TOL = 1e-8
MONOTONE_SLACK = 1e-9
SP_TOL = 1e-8
AXIS_TOL = 1e-6
CEILING_TOL = 1e-6
ORBIT_TOL = 1e-6
RECON_TOL = 1e-8
PDE_TOL = 1e-10
ORDER_RANGE = (50.0, 200.0)


class CheckFailed(Exception):
    """An output violated a property the method guarantees."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# -- verify reports ---------------------------------------------------------


def check_verify_report(report: dict, suite: str, convention: str) -> None:
    """Every residual of a one-suite verify report is under the suite tolerance."""
    tol = SUITE_TOL[suite]
    require(report.get("suite") == suite, f"report is for suite {report.get('suite')!r}")
    require(
        report.get("convention") == convention,
        f"report is for convention {report.get('convention')!r}",
    )
    checks = report.get("checks") or []
    require(len(checks) > 0, f"{suite}: report lists no checks")
    for chk in checks:
        name = chk.get("name", "")
        residual = chk.get("residual")
        require(name.startswith(suite + "/"), f"{suite}: foreign check {name!r}")
        require(
            isinstance(residual, (int, float)) and math.isfinite(residual),
            f"{name}: residual {residual!r} is not a number",
        )
        require(residual < tol, f"{name}: residual {residual:.3e} >= {tol:g}")
    require(report.get("pass") is True, f"{suite}: report does not pass")


# -- flow traces ------------------------------------------------------------


def read_trace(csv_path: Path) -> dict:
    """Parse a flow trace CSV and its .meta.json sidecar.

    Returns times, the 6x6 brackets rebuilt from the A11..A66 columns, the
    meta dict and the bytes both files take. Only the t and A columns are
    read; every other quantity is recomputed from them.
    """
    csv_path = Path(csv_path)
    meta_path = csv_path.with_name(csv_path.stem + ".meta.json")
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        col = {name: i for i, name in enumerate(header)}
        a_cols = [col[f"A{i}{j}"] for i in range(1, 7) for j in range(1, 7)]
        t_col = col["t"]
        ts, As = [], []
        for row in reader:
            ts.append(float(row[t_col]))
            As.append([float(row[c]) for c in a_cols])
    with open(meta_path) as fh:
        meta = json.load(fh)
    return {
        "t": np.array(ts),
        "A": np.array(As).reshape(-1, 6, 6),
        "meta": meta,
        "bytes": csv_path.stat().st_size + meta_path.stat().st_size,
    }


def check_flow_trace(
    trace: dict,
    A0: np.ndarray,
    J: np.ndarray,
    *,
    t_end: float | None = None,
    norm_ceiling: float | None = None,
    axis_x0: float | None = None,
) -> None:
    """Properties of a bracket-flow trace, recomputed from its A columns.

    Forward runs pass t_end, backward runs norm_ceiling; axis starts also
    pass axis_x0, the A12 entry of the planar-axis start.
    """
    ts, As = trace["t"], trace["A"]
    backward = norm_ceiling is not None
    require(len(ts) >= 2, "trace has fewer than two samples")
    require(bool(np.all(np.diff(ts) > 0.0)), "times are not increasing")

    start = As[-1] if backward else As[0]
    require(
        float(np.max(np.abs(start - A0))) <= 1e-14 * max(1.0, float(np.max(np.abs(A0)))),
        "trace does not start at the input bracket",
    )

    norm_sq = np.einsum("nij,nij->n", As, As)
    growth = np.diff(norm_sq) - MONOTONE_SLACK * np.maximum(1.0, norm_sq[:-1])
    require(
        bool(np.all(growth <= 0.0)),
        f"|A|^2 increases by {float(np.max(np.diff(norm_sq))):.3e}",
    )

    drift = float(np.max(np.abs(As @ J + J @ np.swapaxes(As, 1, 2))))
    require(drift <= SP_TOL, f"|AJ + JA^t| = {drift:.3e}")

    if backward:
        require(trace["meta"].get("termination") == "norm_ceiling", "backward run did not stop at the ceiling")
        require(ts[-1] == 0.0 and ts[0] < 0.0, "backward trace is not on [t, 0] with t < 0")
        top = float(np.linalg.norm(As[0]))
        require(
            abs(top / norm_ceiling - 1.0) <= CEILING_TOL,
            f"backward run ends at |A| = {top:.9g}, ceiling {norm_ceiling:g}",
        )
        return

    require(trace["meta"].get("termination") == "t_end", "forward run did not reach t_end")
    require(ts[0] == 0.0, "forward trace does not start at t = 0")
    require(abs(ts[-1] - t_end) <= 1e-12 * t_end, f"forward run ends at t = {ts[-1]!r}")

    S = 0.5 * (As + np.swapaxes(As, 1, 2))
    R = -np.einsum("nij,nij->n", S, S)
    slack = MONOTONE_SLACK * max(1.0, abs(float(R[0])))
    require(bool(np.all(np.diff(R) >= -slack)), "scalar curvature decreases")
    require(bool(np.all(R <= slack)), "scalar curvature is positive")
    if R[0] < 0.0:
        lower = 1.0 / (-ts / 2.0 + 1.0 / R[0])
        require(
            bool(np.all(R >= lower - slack)),
            f"scalar curvature under its lower bound by {float(np.max(lower - R)):.3e}",
        )

    if axis_x0 is not None:
        x = axis_x0 / np.sqrt(1.0 + 3.0 * axis_x0 * axis_x0 * ts)
        closed = (x / axis_x0)[:, None, None] * A0[None]
        rel = float(np.max(np.max(np.abs(As - closed), axis=(1, 2)) / np.abs(x)))
        require(rel <= AXIS_TOL, f"axis start leaves its closed form by {rel:.3e} relative")


# -- soliton certificates ---------------------------------------------------


def is_su3(A: np.ndarray, J: np.ndarray, tol: float = 1e-8) -> bool:
    """A skew, commuting with J and trace-free against J: the torsion-free brackets."""
    scale = max(1.0, float(np.max(np.abs(A))))
    return (
        float(np.max(np.abs(A + A.T))) <= tol * scale
        and float(np.max(np.abs(J @ A - A @ J))) <= tol * scale
        and abs(float(np.trace(J @ A))) <= tol * scale
    )


def check_certificate(report, A: np.ndarray, J: np.ndarray, family: str, lam: float | None = None) -> bool:
    """Verdict and constants of a SolitonReport for an input of known family.

    family is "skew" (any J-commuting skew bracket), "generic" (random
    sp bracket) or "fixture" (lam * U A U^t for the shipped nilpotent
    example and U in SU(3)). Returns whether the verdict is semi-algebraic.
    """
    scale = max(1.0, float(np.max(np.abs(A))) ** 2)
    require(report.c <= CERT_TOL * scale, f"certificate has c = {report.c:.3e} > 0")
    if family == "generic":
        require(report.kind == "none", f"generic bracket certified as {report.kind}")
        return False
    if family == "skew":
        require(report.kind == "algebraic", f"skew bracket certified as {report.kind}")
        if abs(report.c) <= CERT_TOL * scale:
            require(is_su3(A, J), "steady skew soliton is not torsion-free")
    elif family == "fixture":
        require(report.kind == "semi_algebraic", f"fixture image certified as {report.kind}")
        for name, got, want in (("c", report.c, -2.5 * lam**2), ("d", report.d, lam**2)):
            require(
                abs(got - want) <= CERT_TOL * max(1.0, lam**2),
                f"{name} = {got!r}, expected {want!r}",
            )
    else:
        raise ValueError(f"unknown bracket family {family!r}")

    pde = report.residuals.get("pde", math.inf)
    require(pde < PDE_TOL, f"certified soliton has PDE residual {pde:.3e}")
    D = np.asarray(report.D, dtype=float)
    D1, d = D[:6, :6], D[6, 6]
    off = max(float(np.max(np.abs(D[:6, 6]))), float(np.max(np.abs(D[6, :6]))))
    defect = float(np.max(np.abs(D1 @ A - A @ D1 - d * A)))
    require(off <= CERT_TOL * scale, "derivation mixes the ideal and e7")
    require(defect <= CERT_TOL * scale, f"[D1, A] - dA = {defect:.3e}")
    return report.kind == "semi_algebraic"


def self_similar_orbit(A: np.ndarray, D1: np.ndarray, c: float, ts: np.ndarray) -> np.ndarray:
    """(1 - 2ct)^{-1/2} e^{sE} A e^{-sE}, E the skew part of D1, s = -log(1-2ct)/(2c)."""
    E = 0.5 * (D1 - D1.T)
    out = np.empty((len(ts), 6, 6))
    for i, t in enumerate(ts):
        scale = 1.0 - 2.0 * c * t
        s = t if c == 0.0 else -math.log(scale) / (2.0 * c)
        out[i] = scale**-0.5 * expm(s * E) @ A @ expm(-s * E)
    return out


def check_orbit(ts: np.ndarray, As: np.ndarray, A0: np.ndarray, D1: np.ndarray, c: float) -> None:
    closed = self_similar_orbit(A0, D1, c, ts)
    gap = np.max(np.abs(As - closed), axis=(1, 2)) / np.max(np.abs(closed), axis=(1, 2))
    worst = float(np.max(gap))
    require(worst <= ORBIT_TOL, f"orbit leaves the closed form by {worst:.3e} relative")


def check_reconstruction(As: np.ndarray, hs: np.ndarray, reported_gap: float) -> None:
    """h = blockdiag(k, a) with A(t) = a^{-1} k A(0) k^{-1}, recomputed here."""
    require(reported_gap <= RECON_TOL, f"reconstruction_gap = {reported_gap:.3e}")
    worst = 0.0
    for A, h in zip(As, hs):
        k, a = h[:6, :6], h[6, 6]
        recon = k @ As[0] @ np.linalg.inv(k) / a
        off = max(float(np.max(np.abs(h[:6, 6]))), float(np.max(np.abs(h[6, :6]))))
        worst = max(worst, float(np.max(np.abs(A - recon))), off)
    require(worst <= RECON_TOL, f"recomputed reconstruction gap {worst:.3e}")


def check_pde_order(residuals: dict) -> None:
    """Central-difference residuals fall ~100x per tenfold smaller dt."""
    dts = sorted(residuals, reverse=True)
    require(len(dts) >= 2, "fewer than two step sizes")
    values = [float(residuals[dt]) for dt in dts]
    require(all(v > 0.0 and math.isfinite(v) for v in values), f"residuals {values}")
    lo, hi = ORDER_RANGE
    for i in range(len(dts) - 1):
        require(abs(dts[i] / dts[i + 1] - 10.0) < 1e-9, f"step sizes {dts} are not tenfold apart")
        ratio = values[i] / values[i + 1]
        require(lo <= ratio <= hi, f"residual falls {ratio:.1f}x from dt={dts[i]:g} to dt={dts[i + 1]:g}")
