import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inclab import (
    ConfigError,
    OptProblem,
    coefficients_to_star,
    minimize_trace,
    overlay_svg,
)
from inclab import shapeopt
from inclab.cli import run
from inclab.shapeopt import disk_verdict, objective


def test_problem_validation():
    with pytest.raises(ConfigError):
        OptProblem(k=0.5)
    with pytest.raises(ConfigError):
        OptProblem(k=3.0, n=64)
    with pytest.raises(ConfigError):
        OptProblem(k=3.0, n=255)


def test_dof_layout():
    # area pi and modes 2..6 are fixed; only k and n are settable
    problem = OptProblem(k=3.0)
    assert (problem.area, problem.m_max, problem.dof) == (np.pi, 6, 10)
    with pytest.raises(TypeError):
        OptProblem(k=3.0, m_max=2)


def test_disk_value_closed_form():
    problem = OptProblem(k=3.0)
    assert problem.disk_value == pytest.approx(2 * np.pi, rel=1e-14)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-0.1, 0.1), min_size=10, max_size=10))
def test_area_constraint_enforced_exactly(coeffs):
    # five modes of amplitude at most 0.1 * sqrt(2) keep the radius positive
    star = coefficients_to_star(np.array(coeffs))
    assert star.measure() == pytest.approx(np.pi, rel=1e-12)


def test_zero_coefficients_give_disk():
    star = coefficients_to_star(np.zeros(10))
    assert star.r0 == pytest.approx(1.0, rel=1e-14)
    assert all(c == 0 and s == 0 for _, c, s in star.modes)


def test_objective_at_disk_matches_target():
    problem = OptProblem(k=3.0)
    val = objective(problem, np.zeros(problem.dof))[0]
    assert val == pytest.approx(problem.disk_value, rel=1e-9)


def test_objective_reflection_invariance():
    # reflecting the shape across the x-axis negates the sine
    # amplitudes and cannot change the tensor trace
    problem = OptProblem(k=3.0)
    x = np.array([0.1, 0.07, -0.05, 0.12, 0.03, -0.04, 0.0, 0.02, -0.01, 0.05])
    mirrored = x * np.tile([1.0, -1.0], 5)
    assert objective(problem, x)[0] == pytest.approx(
        objective(problem, mirrored)[0], rel=1e-10
    )


def test_objective_penalizes_invalid_coefficients():
    problem = OptProblem(k=3.0)
    bad = np.zeros(problem.dof)
    bad[:2] = 5.0
    value, gradient = objective(problem, bad)
    assert value == pytest.approx(10 * problem.disk_value)
    np.testing.assert_array_equal(gradient, np.zeros(problem.dof))


def test_objective_refuses_a_wrong_coefficient_count():
    # a caller's mistake, not a shape the search may back off from
    with pytest.raises(ConfigError, match="expected 10 coefficients"):
        objective(OptProblem(k=3.0), np.zeros(4))


def test_objective_above_disk_for_perturbed_shapes():
    problem = OptProblem(k=3.0)
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.uniform(-0.15, 0.15, size=problem.dof)
        assert objective(problem, x)[0] >= problem.disk_value - 1e-9


@pytest.mark.parametrize(
    "problem, x",
    [
        (OptProblem(k=3.0), np.array([0.08, -0.05, 0.0, 0.06, -0.04, 0.03, 0, 0, 0, 0])),
        (
            OptProblem(k=7.0, n=192),
            np.array([-0.1, 0.04, 0.05, 0.0, 0.0, -0.07, 0.03, 0.02, -0.02, 0.01]),
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


@pytest.mark.parametrize("k", [1.2, 3.0, 10.0, 1e3, 1e6])
def test_hessian_at_the_disk_is_the_closed_form_diagonal(k):
    # the curvature the search divides by: (m - 1) 8 pi lambda^3 for both
    # amplitudes of mode m, and nothing off the diagonal
    problem = OptProblem(k=k)
    lam = (k - 1) / (k + 1)
    expected = np.array([(m - 1) * 8 * np.pi * lam**3 for m in range(2, 7) for _ in "cs"])
    h = 1e-5
    hessian = np.column_stack([
        (objective(problem, h * e)[1] - objective(problem, -h * e)[1]) / (2 * h)
        for e in np.eye(problem.dof)
    ])
    np.testing.assert_allclose(np.diag(hessian), expected, rtol=1e-7, atol=0)
    off_diagonal = hessian - np.diag(np.diag(hessian))
    assert np.max(np.abs(off_diagonal)) <= 1e-7 * expected.min()
    np.testing.assert_allclose(problem.disk_curvature, expected, rtol=1e-15)


def test_criterion_13_problem_converges_in_few_evaluations():
    problem = OptProblem(k=3.0)
    trace = minimize_trace(problem, problem.start())
    assert trace.converged
    assert trace.evaluations <= 8
    assert disk_verdict(problem, trace)["passed"]


@pytest.mark.parametrize("k", [1.01, 1.5, 10.0, 1e6, 1e20])
def test_search_reaches_the_disk_in_few_evaluations_at_any_contrast(k):
    # k = 3 is criterion 13's, above; the stop rule reads the disk-scaled
    # step, which does not shrink with lambda^3 as the gradient does near k = 1
    problem = OptProblem(k=k)
    trace = minimize_trace(problem, problem.start())
    assert trace.converged
    assert trace.evaluations <= 8
    assert disk_verdict(problem, trace)["passed"]


@settings(max_examples=12, deadline=None)
@given(
    direction=st.lists(st.floats(-1.0, 1.0), min_size=10, max_size=10).filter(
        lambda d: np.linalg.norm(d) >= 1e-3
    ),
    norm=st.floats(0.05, 0.3),
    log_k=st.floats(np.log10(1.05), 6.0),
)
def test_search_reaches_the_disk_from_random_starts(direction, norm, log_k):
    # |c| <= 0.3 keeps the radius positive: sum_m |amplitude_m| <= sqrt(5) |c| < 1
    problem = OptProblem(k=10.0**log_k, n=128)
    start = norm * np.array(direction) / np.linalg.norm(direction)
    trace = minimize_trace(problem, start)
    assert trace.evaluations <= 8
    assert disk_verdict(problem, trace)["passed"]


def test_search_calls_objective_through_the_module_once_per_record(monkeypatch):
    calls = []
    original = shapeopt.objective

    def counted(problem, coeffs):
        calls.append(np.array(coeffs))
        return original(problem, coeffs)

    monkeypatch.setattr(shapeopt, "objective", counted)
    problem = OptProblem(k=1.5, n=128)
    trace = minimize_trace(problem, problem.start())
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
    problem = OptProblem(k=1.5, n=128)
    start = np.zeros(problem.dof)
    start[:2] = 0.15, -0.1
    trace = minimize_trace(problem, start)
    assert trace.converged
    assert trace.gap <= 1e-3 * problem.disk_value
    assert np.max(np.abs(trace.final_coefficients)) <= 5e-2
    assert trace.evaluations == len(trace.history)
    objs = [r["objective"] for r in trace.history]
    assert min(objs) >= problem.disk_value - 1e-5 * problem.disk_value


def test_trace_history_records_best_flags():
    problem = OptProblem(k=1.5, n=128)
    start = np.zeros(problem.dof)
    start[:2] = 0.1, 0.05
    trace = minimize_trace(problem, start)
    best = np.inf
    for rec in trace.history:
        if rec["objective"] < best - 1e-15:
            best = rec["objective"]
            continue
    flagged = [r["objective"] for r in trace.history if r["best"]]
    assert min(flagged) == pytest.approx(min(r["objective"] for r in trace.history))


def test_overlay_svg_structure():
    problem = OptProblem(k=1.5, n=128)
    trace = minimize_trace(problem, problem.start())
    svg = overlay_svg(problem, trace)
    assert svg.startswith("<svg")
    assert "viewBox" in svg
    assert svg.count("<polygon") + svg.count("<polyline") + svg.count("<circle") >= 3
