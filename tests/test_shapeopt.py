import dataclasses
import math
from types import SimpleNamespace

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
from inclab.shapeopt import OptTrace, disk_verdict, objective


def test_problem_validation():
    with pytest.raises(ConfigError):
        OptProblem(k=0.5)
    with pytest.raises(ConfigError):
        OptProblem(k=3.0, n=64)
    with pytest.raises(ConfigError):
        OptProblem(k=3.0, n=255)
    with pytest.raises(ConfigError):
        OptProblem(k=np.nextafter(OptProblem.k_max, np.inf))


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


@pytest.mark.parametrize("k", [1.2, 3.0, 10.0, 1e3, 1e6, 1e9, 1e12, 1e16])
def test_hessian_at_the_disk_is_the_closed_form_diagonal(k):
    # the curvature the search divides by: (m - 1) 8 pi lambda^3 for both
    # amplitudes of mode m, and nothing off the diagonal; up to k = 1e16 the
    # central difference meets it to 1.9e-9 on the diagonal and 1.2e-9 off
    # it, but at k = 1e20 it reads 1.2e-5, because the rounding error of the
    # gradient grows like k and the difference divides it by h
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


def test_a_trace_stores_coefficients_and_rebuilds_its_final_star():
    # a finished search keeps no built star: final_shape reads the coefficients
    problem = OptProblem(k=1.5, n=128)
    trace = minimize_trace(problem, problem.start())
    assert "final_shape" not in {f.name for f in dataclasses.fields(OptTrace)}
    assert trace.final_shape == coefficients_to_star(trace.final_coefficients)


@pytest.mark.parametrize("k", [1.01, 1.5, 10.0, 1e6, 1e20, OptProblem.k_max])
def test_search_reaches_the_disk_in_few_evaluations_at_any_contrast(k):
    # k = 3 is criterion 13's, above; the stop rule reads the disk-scaled
    # step, which does not shrink with lambda^3 as the gradient does near k = 1,
    # and the largest contrast OptProblem accepts still converges
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


def _exact_quotient(target):
    """A disk value D and a numerator x for which x / D rounds to ``target``
    exactly, searched among random D in [1.5, 1.75); x and D - x lie on the
    2^-52 grid, so D - (D - x) is x again."""
    rng = np.random.default_rng(0)
    for _ in range(64):
        disks = 1.5 + rng.integers(0, 1 << 50, 1 << 16) * 2.0**-52
        nums = np.round(target * disks * 2.0**52) * 2.0**-52
        hits = np.flatnonzero(nums / disks == target)
        if len(hits):
            return float(disks[hits[0]]), float(nums[hits[0]])
    raise AssertionError(f"no disk value divides to {target!r} exactly")


def _disk_report(field, value):
    """``disk_verdict`` on a one-evaluation trace whose ``field`` is exactly
    ``value`` and whose other two checked values are zero; the verdict reads
    only the problem's disk value."""
    disk, num = (1.0, 0.0) if field == "max_coefficient" else _exact_quotient(value)
    trace = OptTrace(
        history=[{"objective": disk - num if field == "disk_undercut" else disk}],
        final_coefficients=np.array([value if field == "max_coefficient" else 0.0]),
        final_objective=disk, gap=num if field == "relative_gap" else 0.0,
        converged=True, evaluations=1,
    )
    report = disk_verdict(SimpleNamespace(disk_value=disk), trace)
    assert report[field] == value
    return report


@pytest.mark.parametrize("field, tol_field", [
    ("relative_gap", "gap_tol"),
    ("max_coefficient", "coefficient_tol"),
    ("disk_undercut", "undercut_tol"),
])
def test_disk_verdict_passes_at_each_tolerance_and_fails_one_ulp_above(field, tol_field):
    tol = _disk_report(field, 0.0)[tol_field]
    assert _disk_report(field, tol)["passed"] is True
    assert _disk_report(field, math.nextafter(tol, math.inf))["passed"] is False


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


def test_backtracking_halves_the_step_until_armijo_holds(monkeypatch):
    # a quadratic four times as curved as the disk: the full step (t = 1)
    # lands at -3 x and t = 1/2 at -x, the same value, so both are rejected;
    # t = 1/4 is the exact minimizer, where the next step is too short to take
    problem = OptProblem(k=3.0)
    curvature = 4 * problem.disk_curvature
    monkeypatch.setattr(
        shapeopt, "objective", lambda problem, x: (0.5 * x @ (curvature * x), curvature * x)
    )
    start = problem.start()
    trace = minimize_trace(problem, start)
    assert trace.converged
    assert trace.evaluations == 4
    assert [r["best"] for r in trace.history] == [True, False, False, True]
    for record, t in zip(trace.history[1:], (1.0, 0.5, 0.25)):
        np.testing.assert_allclose(record["coefficients"], (1 - 4 * t) * start, rtol=1e-15,
                                   atol=1e-16)
    assert np.max(np.abs(trace.final_coefficients)) <= 1e-16


def test_a_gradient_that_never_descends_stops_the_search_unconverged(monkeypatch):
    # every step along minus a wrong-sign gradient climbs, so the step
    # halves until it is shorter than the stop rule's step and the search
    # gives up
    problem = OptProblem(k=3.0)
    curvature = problem.disk_curvature
    monkeypatch.setattr(
        shapeopt, "objective", lambda problem, x: (0.5 * x @ (curvature * x), -curvature * x)
    )
    start = problem.start()
    trace = minimize_trace(problem, start)
    assert not trace.converged
    assert 2 < trace.evaluations <= problem.max_iter
    assert all(np.isfinite(r["objective"]) for r in trace.history)
    np.testing.assert_array_equal(trace.final_coefficients, start)


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
    values = [rec["objective"] for rec in trace.history]
    # a record is flagged exactly when its value is below every earlier value
    assert [rec["best"] for rec in trace.history] == [
        value < min(values[:i], default=np.inf) for i, value in enumerate(values)
    ]


def test_overlay_svg_structure():
    problem = OptProblem(k=1.5, n=128)
    trace = minimize_trace(problem, problem.start())
    svg = overlay_svg(problem, trace)
    assert svg.startswith("<svg")
    assert "viewBox" in svg
    assert svg.count("<polygon") + svg.count("<polyline") + svg.count("<circle") >= 3
