import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inclab import (
    ConfigError,
    Ellipse,
    Ellipsoid,
    FourierStar,
    InvalidShapeError,
    Polygon,
    SolveError,
    discretize,
    minimal_trace_target,
    polarization_tensor,
)
import inclab
from inclab import polarization
from inclab.acceptance import run_criterion
from inclab.cli import parse_shape
from inclab.polarization import (
    PolarizationTensor,
    bound_gap_scan,
    bounds_verdict,
    closed_form_pt,
    pt_verdict,
)
from inclab.transmission import Contrast

contrast = st.floats(0.2, 10.0).filter(lambda k: abs(k - 1.0) > 0.05)
angle = st.floats(0.0, 2 * np.pi)


def _pt(shape, k, n=192):
    return polarization_tensor(discretize(shape, n), k)


def test_disk_closed_form():
    grid = discretize(Ellipse(1.0, 1.0), 256)
    for k in (0.5, 2.0, 3.0, 10.0):
        target = 2 * np.pi * (k - 1.0) / (k + 1.0)
        M = polarization_tensor(grid, k).M
        assert np.max(np.abs(M - target * np.eye(2))) <= 1e-8 * abs(target)


def test_ellipse_matches_closed_form(ellipse21_grid):
    for k in (2.0, 5.0):
        bem = polarization_tensor(ellipse21_grid, k).M
        closed = closed_form_pt(Ellipse(2.0, 1.0), k).M
        assert np.max(np.abs(bem - closed)) <= 1e-6


def test_tensor_symmetric_and_definite(ellipse21_grid):
    pt = polarization_tensor(ellipse21_grid, 3.0)
    assert pt.asymmetry <= 1e-10
    eigs = np.linalg.eigvalsh(pt.M)
    assert np.all(eigs > 0)
    neg = polarization_tensor(ellipse21_grid, 0.5)
    assert np.all(np.linalg.eigvalsh(neg.M) < 0)


@settings(max_examples=8, deadline=None)
@given(angle)
def test_rotation_equivariance(phi):
    # rotating the shape conjugates the tensor by the rotation
    base = FourierStar(1.0, ((3, 0.2, 0.0),))
    c, s = np.cos(phi), np.sin(phi)
    R = np.array([[c, -s], [s, c]])
    # rotate the star by shifting the mode phase: cos(3(t-phi3)) with
    # phi3 = 3*phi gives the same curve rotated by phi
    rot = FourierStar(
        1.0, ((3, 0.2 * np.cos(3 * phi), 0.2 * np.sin(3 * phi)),)
    )
    M0 = _pt(base, 3.0).M
    M1 = _pt(rot, 3.0).M
    assert np.max(np.abs(M1 - R @ M0 @ R.T)) <= 1e-8


def test_translation_invariance():
    sq = Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
    moved = Polygon(((5.0, -3.0), (6.0, -3.0), (6.0, -2.0), (5.0, -2.0)))
    M0 = _pt(sq, 2.0).M
    M1 = _pt(moved, 2.0).M
    assert np.max(np.abs(M1 - M0)) <= 1e-9


def test_dilation_scales_by_area():
    base = Ellipse(1.5, 1.0)
    doubled = Ellipse(3.0, 2.0)
    M0 = _pt(base, 4.0).M
    M1 = _pt(doubled, 4.0).M
    assert np.max(np.abs(M1 - 4.0 * M0)) <= 1e-8 * np.max(np.abs(M1))


def test_sphere_closed_form():
    k = 3.0
    pt = closed_form_pt(Ellipsoid(1.0, 1.0, 1.0), k)
    vol = 4 * np.pi / 3
    target = 3 * vol * (k - 1.0) / (k + 2.0)
    assert np.allclose(pt.M, target * np.eye(3), atol=1e-12)


def test_three_dimensional_generic_shape_rejected():
    from inclab import Box

    # no closed form for a box, and no boundary solve on any 3D grid
    assert closed_form_pt(Box((0.5, 0.5, 0.5)), 2.0) is None
    with pytest.raises(InvalidShapeError):
        polarization_tensor(discretize(Ellipsoid(2.0, 1.5, 1.0), 16), 2.0)


def test_bounds_hold_and_saturate_only_on_ellipses():
    shapes = {
        "disk": Ellipse(1.0, 1.0),
        "ellipse": Ellipse(4.0, 1.0),
        "square": Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))),
        "star": FourierStar(1.0, ((3, 0.2, 0.0),)),
    }
    for name, shape in shapes.items():
        rep = bounds_verdict(_pt(shape, 3.0, n=256))
        assert rep["slack1"] >= -1e-5, name
        assert rep["slack2"] >= -1e-5, name
        if name in ("disk", "ellipse"):
            assert rep["saturated2"], name
        else:
            assert not rep["saturated2"], name
            assert rep["slack2"] >= 1e-3, name


@settings(max_examples=6, deadline=None)
@given(contrast)
def test_bounds_hold_for_any_contrast_on_a_square(k):
    sq = Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
    rep = bounds_verdict(_pt(sq, k, n=192))
    assert rep["slack1"] >= -1e-5
    assert rep["slack2"] >= -1e-5
    assert rep["form"] == ("direct" if k > 1 else "sign-flipped")


def test_trace_positive_k_exceeds_minimal_target(ellipse21_grid):
    k = 3.0
    pt = polarization_tensor(ellipse21_grid, k)
    target = minimal_trace_target(k, pt.volume, 2)
    assert float(np.trace(pt.M)) >= target - 1e-10


@pytest.mark.parametrize("name", ["square", "kite", "polygon:0,0,1,0,0,1", "polygon:0,0,2,0,0,1"])
def test_polygon_tensors_are_definite_and_above_the_disk(name):
    # sign(k - 1) M is positive definite, and for k > 1 the disk of equal
    # area has the least trace; with a zero polygon diagonal in K* the kite
    # and the right triangle fell below the disk at k = 1e9
    shape = parse_shape(name)[1]
    grid = discretize(shape, 256)
    for k in (1e-9, 0.5, 3.0, 1e9):
        pt = polarization_tensor(grid, k)
        assert np.all(np.sign(k - 1.0) * np.linalg.eigvalsh(pt.M) > 0), k
        if k > 1:
            assert np.trace(pt.M) >= minimal_trace_target(k, pt.volume, 2), k


def test_bound_gap_scan_orders_shapes():
    shapes = [
        Ellipse(1.0, 1.0),
        FourierStar(1.0, ((3, 0.2, 0.0),)),
        Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))),
    ]
    records = bound_gap_scan(shapes, 3.0)
    assert len(records) == 3
    assert records[0]["slack2"] <= 1e-10
    for rec in records[1:]:
        assert rec["slack2"] >= 1e-3
    # the batch form of bounds_verdict lives beside it, and the package
    # exports that one function
    assert inclab.bound_gap_scan is bound_gap_scan


_SIX = [Ellipse(1.0, 1.0), Ellipse(2.0, 1.0), Ellipse(4.0, 1.0),
        Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))),
        Polygon(((1.0, 0.0), (0.0, 0.7), (-0.6, 0.0), (0.0, -0.7))),
        FourierStar(1.0, ((3, 0.2, 0.0),))]


def _counting_basis_densities(monkeypatch):
    calls = []
    solve = polarization._basis_densities

    def counted(grid, ks):
        calls.append(len(ks))
        return solve(grid, ks)

    monkeypatch.setattr(polarization, "_basis_densities", counted)
    return calls


def test_bound_gap_scan_solves_each_shape_once_for_every_contrast(monkeypatch):
    ks = (0.5, 2.0, 3.0, 10.0)
    single = [rec for k in ks for rec in bound_gap_scan(_SIX, k)]
    calls = _counting_basis_densities(monkeypatch)
    multi = bound_gap_scan(_SIX, *ks)
    assert calls == [4] * 6
    assert len(multi) == len(single) == 24
    # contrast by contrast; more shifts in one Krylov basis move a field by rounding only
    for one, many in zip(single, multi):
        assert (one["saturated2"], one["passed"]) == (many["saturated2"], many["passed"])
        for field in ("tr_M", "eig_low", "eig_high"):
            assert abs(many[field] - one[field]) <= 1e-15 * abs(one[field]), field
        assert abs(many["slack2"] - one["slack2"]) <= 1e-15


def test_bound_gap_scan_at_one_contrast_is_bounds_verdict_shape_by_shape():
    expected = []
    for shape in _SIX:
        pt = polarization_tensor(discretize(shape, 256), 3.0)
        report, eigs = bounds_verdict(pt), np.linalg.eigvalsh(pt.M)
        expected.append({
            "tr_M": report["trace_M"], "eig_low": float(eigs[0]), "eig_high": float(eigs[-1]),
            "slack2": report["slack2"], "saturated2": report["saturated2"],
            "passed": report["passed"],
        })
    assert bound_gap_scan(_SIX, 3.0) == expected


def test_bound_gap_scan_fails_saturation_off_the_ellipses(monkeypatch):
    # the scan's one rule: bounds_verdict passes and the inverse-trace bound
    # saturates exactly on the shapes with a closed form
    shapes = [Ellipse(2.0, 1.0), _SIX[3]]
    monkeypatch.setattr(polarization, "SATURATION_TOL", 1.0)  # the square saturates too
    assert [(r["saturated2"], r["passed"]) for r in bound_gap_scan(shapes, 3.0)] == [
        (True, True), (True, False)]
    monkeypatch.setattr(polarization, "SATURATION_TOL", -1.0)  # nothing saturates
    assert [(r["saturated2"], r["passed"]) for r in bound_gap_scan(shapes, 3.0)] == [
        (False, False), (False, True)]


@pytest.mark.parametrize("cid, ks", [(4, 4), (5, 2)])
def test_disk_and_ellipse_criteria_solve_once_for_all_contrasts(monkeypatch, cid, ks):
    calls = _counting_basis_densities(monkeypatch)
    assert run_criterion(cid)["passed"]
    assert calls == [ks]


def test_minimal_target_disk_equality():
    k = 3.0
    grid = discretize(Ellipse(1.0, 1.0), 256)
    pt = polarization_tensor(grid, k)
    assert float(np.trace(pt.M)) == pytest.approx(
        minimal_trace_target(k, np.pi, 2), rel=1e-10
    )


def test_minimal_target_validation():
    with pytest.raises(ConfigError):
        minimal_trace_target(2.0, 1.0, 4)
    with pytest.raises(ConfigError):
        minimal_trace_target(2.0, -1.0, 2)
    with pytest.raises(ConfigError):
        minimal_trace_target(1.0, 1.0, 2)


def test_ellipsoid_closed_form_increases_with_contrast():
    shape = Ellipsoid(2.0, 1.5, 1.0)
    traces = [float(np.trace(closed_form_pt(shape, k).M)) for k in (1.5, 2.0, 4.0, 8.0)]
    assert all(b > a for a, b in zip(traces, traces[1:]))


def test_verdicts_fail_on_a_nan_tensor():
    pt = PolarizationTensor(M=np.diag([np.nan, 1.0]), k=Contrast(3.0), volume=np.pi)
    with np.errstate(invalid="ignore"):
        pt_rep, bounds_rep = pt_verdict(Ellipse(1.0, 1.0), pt), bounds_verdict(pt)
    assert pt_rep["passed"] is False
    assert np.isnan(pt_rep["eigenvalues"]).all()
    assert np.isnan(pt_rep["closed_form_deviation"])
    assert bounds_rep["passed"] is False
    assert pt_verdict(Ellipse(1.0, 1.0), PolarizationTensor(
        M=np.eye(2), k=Contrast(3.0), volume=np.pi, asymmetry=np.nan
    ))["passed"] is False


def test_pt_verdict_passes_at_its_asymmetry_tol_and_fails_one_ulp_above():
    # the square has no closed form, so the asymmetry alone decides
    def verdict(asymmetry):
        pt = PolarizationTensor(M=np.eye(2), k=Contrast(3.0), volume=1.0, asymmetry=asymmetry)
        return pt_verdict(Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))), pt)

    tol = verdict(0.0)["asymmetry_tol"]
    assert verdict(tol)["passed"] is True
    assert verdict(math.nextafter(tol, math.inf))["passed"] is False


def test_bounds_refuse_a_tensor_only_when_an_eigenvalue_vanishes():
    for M in (np.zeros((2, 2)), np.diag([1.0, 0.0]), np.diag([1e300, 1e-300, 1e-300])):
        with pytest.raises(SolveError):
            bounds_verdict(PolarizationTensor(M=M, k=Contrast(3.0), volume=np.pi))
    # det(M) = 1e-400 underflows, yet the inverse is exact
    small = PolarizationTensor(M=np.diag([1e-200, 1e-200]), k=Contrast(3.0), volume=1e-200)
    assert bounds_verdict(small)["scaled_inverse_trace"] == 2.0
