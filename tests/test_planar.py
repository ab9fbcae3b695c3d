"""Symmetric two-parameter family: planar reduction of the bracket flow."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from g2coflow.coflow import _dopri, rhs
from g2coflow.g2 import canonical_g2
from g2coflow.planar import (
    FLAG_NAMES,
    PhaseGrid,
    axis_solution,
    embed,
    embedding_consistency,
    integrate_trajectory,
    log_abs_h,
    lyapunov,
    nullcline_flags,
    nullclines,
    phase_portrait,
    planar_rhs,
    write_phase_csv,
    write_trajectory_csv,
)

DATA = canonical_g2("example")


def test_vector_field_values():
    assert planar_rhs(1.0, -1.0) == (0.0, 0.0)
    assert planar_rhs(1.0, 0.0) == (-6.0, 0.0)
    assert planar_rhs(1.0, 1.0) == (-8.0, -8.0)
    assert planar_rhs(0.0, 0.0) == (0.0, 0.0)
    # odd symmetry of the field
    for x, y in ((0.7, 0.3), (1.2, -0.4)):
        dx, dy = planar_rhs(x, y)
        mdx, mdy = planar_rhs(-x, -y)
        assert (mdx, mdy) == (-dx, -dy)


def test_equilibria_are_the_antidiagonal():
    for x in (-1.5, -0.2, 0.0, 0.4, 2.0):
        dx, dy = planar_rhs(x, -x)
        assert dx == 0.0 and dy == 0.0
    dx, dy = planar_rhs(1.0, -1.1)
    assert abs(dx) + abs(dy) > 0.0


def test_embedding_matches_bracket_field():
    # the 6x6 embedding evolves inside the family at one quarter speed
    for x, y in ((1.0, 0.5), (0.8, -0.3), (1.5, 1.5)):
        report = embedding_consistency(x, y, DATA)
        assert report["off_family"] == 0.0
        assert report["residual"] < 1e-12
        assert abs(report["factor"] - 0.25) < 1e-12


def test_embedding_shape():
    A = embed(1.0, 2.0)
    assert A[0, 1] == 1.0 and A[1, 0] == 2.0
    assert A[3, 4] == -2.0 and A[4, 3] == -1.0
    mask = np.ones((6, 6), dtype=bool)
    mask[0, 1] = mask[1, 0] = mask[3, 4] = mask[4, 3] = False
    assert np.max(np.abs(A[mask])) == 0.0


def test_embedding_consistency_requires_example_basis():
    with pytest.raises(ValueError):
        embedding_consistency(1.0, 0.5, canonical_g2("section4"))


def test_lyapunov_descends():
    V, Vdot = lyapunov(1.0, 0.0)
    assert V == 1.0 and Vdot == -12.0
    # equality only on the equilibrium line x + y = 0
    assert lyapunov(0.7, -0.7)[1] == 0.0
    rng = np.random.default_rng(31)
    for _ in range(200):
        x, y = rng.uniform(-3, 3, size=2)
        V, Vdot = lyapunov(x, y)
        assert V >= 0.0
        assert Vdot <= 1e-12
    # chain rule cross-check
    x, y = 1.3, -0.4
    dx, dy = planar_rhs(x, y)
    grad_dot = (2 * x + 2 * y) * dx + (2 * y + 2 * x) * dy
    assert abs(lyapunov(x, y)[1] - grad_dot) < 1e-10


def test_invariant_field_values():
    assert abs(math.exp(log_abs_h(1.0, 2.0)) - 0.125) < 1e-15
    assert log_abs_h(1.0, 1.0) == -np.inf
    with pytest.raises(ValueError):
        log_abs_h(0.0, 1.0)
    with pytest.raises(ValueError):
        log_abs_h(1.0, 0.0)
    assert abs(log_abs_h(1.0, 2.0) - math.log(0.125)) < 1e-14


def test_invariant_is_conserved_along_trajectories():
    ts, xs, ys = integrate_trajectory(1.0, 2.0, 5.0)
    values = [log_abs_h(x, y) for x, y in zip(xs, ys)]
    drift = max(abs(v - values[0]) for v in values)
    assert drift < 1e-6


def test_axis_solution_closed_form():
    ts, xs, ys = integrate_trajectory(1.0, 0.0, 5.0, rel_tol=1e-11, abs_tol=1e-13)
    assert np.max(np.abs(ys)) == 0.0
    expected = axis_solution(1.0, ts)
    rel = np.max(np.abs(xs - expected) / np.abs(expected))
    assert rel < 1e-8
    assert abs(axis_solution(2.0, 0.0) - 2.0) == 0.0
    assert abs(axis_solution(1.0, 1.0) - 1.0 / math.sqrt(13.0)) < 1e-15


def test_nullcline_flags():
    assert nullcline_flags(1.0, 3.0) == 2
    assert nullcline_flags(0.0, 0.0) == 31
    assert nullcline_flags(1.0, -1.0) == 4
    assert nullcline_flags(0.5, 0.7) == 0
    assert len(FLAG_NAMES) == 5
    lines = nullclines()
    assert set(lines) == {"x=0", "y=3x", "x=-y", "y=0", "y=x/3"}
    for pts in lines.values():
        assert pts.shape[1] == 2


def test_phase_grid_validation():
    with pytest.raises(ValueError):
        PhaseGrid(xmin=1.0, xmax=-1.0, ymin=-1.0, ymax=1.0, res=11)
    with pytest.raises(ValueError):
        PhaseGrid(xmin=-1.0, xmax=1.0, ymin=-1.0, ymax=1.0, res=1)


def test_phase_portrait_rows(tmp_path):
    grid = PhaseGrid(xmin=-1.0, xmax=1.0, ymin=-1.0, ymax=1.0, res=5)
    rows = phase_portrait(grid)
    assert len(rows) == 25
    for row in rows:
        V, Vdot = lyapunov(row["x"], row["y"])
        assert row["V"] == V and row["Vdot"] == Vdot
        assert row["Vdot"] <= 1e-12
    path = str(tmp_path / "phase.csv")
    write_phase_csv(rows, path)
    first = (tmp_path / "phase.csv").read_bytes()
    write_phase_csv(rows, path)
    assert (tmp_path / "phase.csv").read_bytes() == first
    header = first.decode().splitlines()[0]
    assert header.split(",")[:2] == ["x", "y"]


def test_trajectory_csv(tmp_path):
    ts, xs, ys = integrate_trajectory(1.0, 2.0, 1.0)
    path = str(tmp_path / "traj.csv")
    write_trajectory_csv(ts, xs, ys, path)
    text = (tmp_path / "traj.csv").read_text().splitlines()
    assert text[0] == "t,x,y,logAbsH"
    assert len(text) == len(ts) + 1


def test_planar_clock_against_bracket_integration():
    # integrating the embedded bracket to time 4t lands on the planar
    # trajectory at time t
    from g2coflow.coflow import IntegratorOptions, integrate

    x0, y0 = 1.0, 0.5
    t = 0.4
    ts, xs, ys = integrate_trajectory(x0, y0, t, rel_tol=1e-11, abs_tol=1e-13)
    trace = integrate(
        embed(x0, y0),
        IntegratorOptions(t_end=4.0 * t, rel_tol=1e-11, abs_tol=1e-13),
        DATA,
    )
    A_end = trace.As[-1]
    assert abs(A_end[0, 1] - xs[-1]) < 1e-8
    assert abs(A_end[1, 0] - ys[-1]) < 1e-8


def test_trajectory_reproduces_scipy_rk45_bit_for_bit():
    ts, xs, ys = integrate_trajectory(1.0, 2.0, 5.0)

    def fun(t, v):
        return np.array(planar_rhs(v[0], v[1]))

    def fun_into(t, v, out):
        out[:] = fun(t, v)

    ref = solve_ivp(fun, (0.0, 5.0), [1.0, 2.0], method="RK45", rtol=1e-9, atol=1e-12)
    sol = _dopri(fun_into, 0.0, np.array([1.0, 2.0]), 5.0, 1e-9, 1e-12)
    assert sol.nfev == ref.nfev
    assert np.array_equal(ts, ref.t)
    assert np.array_equal(xs, ref.y[0])
    assert np.array_equal(ys, ref.y[1])


def reference_csv(header, rows):
    """Per-cell writer: str() for integers, 17 significant digits otherwise."""
    lines = [",".join(header)]
    for row in rows:
        cells = (str(v) if isinstance(v, int) else f"{v:.17g}" for v in row)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def test_phase_csv_matches_per_cell_writer(tmp_path):
    columns = ("x", "y", "dx", "dy", "V", "Vdot", "H_defined", "logAbsH", "flags")
    rows = phase_portrait(PhaseGrid(xmin=-1.0, xmax=1.0, ymin=-1.0, ymax=1.0, res=5))
    h = [row["logAbsH"] for row in rows]
    assert any(math.isnan(v) for v in h)  # the axes
    assert -math.inf in h  # the line y = x
    assert all(isinstance(row["flags"], int) for row in rows)
    assert any(row["flags"] > 1 for row in rows)
    path = tmp_path / "phase.csv"
    write_phase_csv(rows, str(path))
    assert path.read_text() == reference_csv(
        columns, [[row[c] for c in columns] for row in rows]
    )


@pytest.mark.parametrize("start", [(1.0, 2.0), (0.0, 1.0), (1.0, 1.0)])
def test_trajectory_csv_matches_per_cell_writer(tmp_path, start):
    # an axis start has NaN log|H| throughout; a start on y = x has -inf
    ts, xs, ys = integrate_trajectory(*start, 1.0)
    hs = [log_abs_h(x, y) if x and y else math.nan for x, y in zip(xs, ys)]
    path = tmp_path / "traj.csv"
    write_trajectory_csv(ts, xs, ys, str(path))
    assert path.read_text() == reference_csv(
        ("t", "x", "y", "logAbsH"), zip(ts, xs, ys, hs)
    )
