import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inclab import (
    ConfigError,
    Ellipse,
    OptProblem,
    bound_gap_scan,
    coefficients_to_star,
    minimize_trace,
    overlay_svg,
)
from inclab import shapeopt
from inclab.cli import run
from inclab.shapeopt import disk_verdict, objective

coeff = st.floats(-0.25, 0.25)


def test_problem_validation():
    with pytest.raises(ConfigError):
        OptProblem(k=0.5)
    with pytest.raises(ConfigError):
        OptProblem(k=3.0, area=-1.0)
    with pytest.raises(ConfigError):
        OptProblem(k=3.0, m_max=1)
    with pytest.raises(ConfigError):
        OptProblem(k=3.0, n=64)
    with pytest.raises(ConfigError):
        OptProblem(k=3.0, n=255)


def test_dof_layout():
    assert OptProblem(k=3.0, m_max=6).dof == 10
    assert OptProblem(k=3.0, m_max=2).dof == 2


def test_disk_value_closed_form():
    problem = OptProblem(k=3.0)
    assert problem.disk_value == pytest.approx(2 * np.pi, rel=1e-14)


@settings(max_examples=25, deadline=None)
@given(coeff, coeff, coeff, coeff)
def test_area_constraint_enforced_exactly(c1, c2, c3, c4):
    area = np.pi
    star = coefficients_to_star(np.array([c1, c2, c3, c4]), area, 3)
    assert star.measure() == pytest.approx(area, rel=1e-12)


def test_zero_coefficients_give_disk():
    star = coefficients_to_star(np.zeros(10), np.pi, 6)
    assert star.r0 == pytest.approx(1.0, rel=1e-14)
    assert all(c == 0 and s == 0 for _, c, s in star.modes)


def test_objective_at_disk_matches_target():
    problem = OptProblem(k=3.0)
    val = objective(problem, np.zeros(problem.dof))[0]
    assert val == pytest.approx(problem.disk_value, rel=1e-9)


def test_objective_reflection_invariance():
    # reflecting the shape across the x-axis negates the sine
    # amplitudes and cannot change the tensor trace
    problem = OptProblem(k=3.0, m_max=3)
    x = np.array([0.1, 0.07, -0.05, 0.12])
    mirrored = np.array([0.1, -0.07, -0.05, -0.12])
    assert objective(problem, x)[0] == pytest.approx(
        objective(problem, mirrored)[0], rel=1e-10
    )


def test_objective_penalizes_invalid_coefficients():
    problem = OptProblem(k=3.0, m_max=2)
    bad = np.array([5.0, 5.0])
    value, gradient = objective(problem, bad)
    assert value == pytest.approx(10 * problem.disk_value)
    np.testing.assert_array_equal(gradient, np.zeros(problem.dof))


def test_objective_above_disk_for_perturbed_shapes():
    problem = OptProblem(k=3.0, m_max=3)
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.uniform(-0.15, 0.15, size=problem.dof)
        assert objective(problem, x)[0] >= problem.disk_value - 1e-9


@pytest.mark.parametrize(
    "problem, x",
    [
        (OptProblem(k=3.0, m_max=4), np.array([0.08, -0.05, 0.0, 0.06, -0.04, 0.03])),
        (
            OptProblem(k=7.0, area=2.0, m_max=5, n=192),
            np.array([-0.1, 0.04, 0.05, 0.0, 0.0, -0.07, 0.03, 0.02]),
        ),
    ],
)
def test_gradient_matches_central_differences(problem, x):
    _, gradient = objective(problem, x)
    h = 1e-5
    central = np.array(
        [
            (objective(problem, x + h * e)[0] - objective(problem, x - h * e)[0]) / (2 * h)
            for e in np.eye(problem.dof)
        ]
    )
    assert np.linalg.norm(gradient - central) <= 1e-6 * np.linalg.norm(central)


def test_gradient_vanishes_at_disk():
    # every coefficient direction is a rotation-free deformation of the
    # disk, which is stationary for the trace
    problem = OptProblem(k=3.0)
    _, gradient = objective(problem, np.zeros(problem.dof))
    assert np.linalg.norm(gradient) <= 1e-12


def test_criterion_13_problem_converges_in_few_evaluations():
    problem = OptProblem(k=3.0)
    trace = minimize_trace(problem, problem.start())
    assert trace.converged
    assert trace.evaluations <= 100
    assert disk_verdict(problem, trace)["passed"]


def test_search_calls_objective_through_the_module_once_per_record(monkeypatch):
    calls = []
    original = shapeopt.objective

    def counted(problem, coeffs):
        calls.append(np.array(coeffs))
        return original(problem, coeffs)

    monkeypatch.setattr(shapeopt, "objective", counted)
    problem = OptProblem(k=1.5, m_max=2, n=128)
    trace = minimize_trace(problem, np.array([0.15, -0.1]))
    assert len(calls) == len(trace.history) == trace.evaluations
    for c, rec in zip(calls, trace.history):
        assert list(c) == rec["coefficients"]
    assert trace.final_objective in [r["objective"] for r in trace.history]


def test_cli_refuses_odd_node_count(capsys):
    code = run(["shapeopt", "--k", "3", "--n", "255"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("config error: --n: ")


def test_small_search_reaches_disk():
    problem = OptProblem(k=1.5, m_max=2, n=128, max_iter=400)
    trace = minimize_trace(problem, np.array([0.15, -0.1]))
    assert trace.converged
    assert trace.gap <= 1e-3 * problem.disk_value
    assert np.max(np.abs(trace.final_coefficients)) <= 5e-2
    assert trace.evaluations == len(trace.history)
    objs = [r["objective"] for r in trace.history]
    assert min(objs) >= problem.disk_value - 1e-5 * problem.disk_value


def test_trace_history_records_best_flags():
    problem = OptProblem(k=1.5, m_max=2, n=128, max_iter=120)
    trace = minimize_trace(problem, np.array([0.1, 0.05]))
    best = np.inf
    for rec in trace.history:
        if rec["objective"] < best - 1e-15:
            best = rec["objective"]
            continue
    flagged = [r["objective"] for r in trace.history if r["best"]]
    assert min(flagged) == pytest.approx(min(r["objective"] for r in trace.history))


def test_bound_gap_scan_orders_shapes():
    from inclab import FourierStar, Polygon

    shapes = [
        Ellipse(1.0, 1.0),
        FourierStar(1.0, ((3, 0.2, 0.0),)),
        Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))),
    ]
    records = bound_gap_scan(shapes, 3.0, n=192)
    assert len(records) == 3
    assert records[0]["slack2"] <= 1e-10
    for rec in records[1:]:
        assert rec["slack2"] >= 1e-3


def test_overlay_svg_structure():
    problem = OptProblem(k=1.5, m_max=2, n=128, max_iter=60)
    start = np.array([0.1, 0.0])
    trace = minimize_trace(problem, start)
    svg = overlay_svg(problem, trace, start)
    assert svg.startswith("<svg")
    assert "viewBox" in svg
    assert svg.count("<polygon") + svg.count("<polyline") + svg.count("<circle") >= 3
