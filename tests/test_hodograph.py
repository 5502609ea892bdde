import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inclab import (
    DomainError,
    ellipse_exterior_map,
    hodograph_map,
    invert_exterior_map,
    koebe,
    leading_coefficient,
    univalence_check,
)

radius = st.floats(1.01, 100.0)
angle = st.floats(0.0, 2 * np.pi)
axis = st.floats(0.5, 3.0)


def test_koebe_boundary_is_vertical_slit():
    theta = 2 * np.pi * np.arange(64) / 64
    vals = koebe(np.exp(1j * theta))
    assert np.max(np.abs(vals.real)) <= 1e-14
    assert np.max(np.abs(vals.imag - np.sin(theta))) <= 1e-14


def test_exterior_map_boundary_parametrizes_ellipse():
    # wide and tall alike: the unit circle lands on a cos t + i b sin t
    theta = 2 * np.pi * np.arange(128) / 128
    for a, b in ((2.0, 1.0), (1.0, 2.0)):
        w = ellipse_exterior_map(a, b)(np.exp(1j * theta))
        assert np.max(np.abs(w - (a * np.cos(theta) + 1j * b * np.sin(theta)))) <= 1e-14
        assert np.max(np.abs((w.real / a) ** 2 + (w.imag / b) ** 2 - 1.0)) <= 1e-12


def test_exterior_map_leading_behavior():
    fmap = ellipse_exterior_map(2.0, 1.0)
    z = 1e6 * np.exp(1j * 0.3)
    gamma = (2.0 + 1.0) / 2.0
    assert abs(fmap(np.array([z]))[0] / z - gamma) <= 1e-5


@settings(max_examples=40, deadline=None)
@given(radius, angle)
def test_inverse_round_trip(r, t):
    fmap = ellipse_exterior_map(2.0, 1.0)
    z = r * np.exp(1j * t)
    w = fmap(np.array([z]))
    z_back = invert_exterior_map(fmap, w)[0]
    assert abs(z_back - z) <= 1e-9 * abs(z)


@settings(max_examples=20, deadline=None)
@given(axis, axis, radius, angle)
def test_inverse_round_trip_any_axes(a, b, r, t):
    fmap = ellipse_exterior_map(a, b)
    z = r * np.exp(1j * t)
    w = fmap(np.array([z]))
    z_back = invert_exterior_map(fmap, w)[0]
    assert abs(z_back - z) <= 1e-9 * max(1.0, abs(z))


def test_inverse_rejects_interior_points():
    fmap = ellipse_exterior_map(2.0, 1.0)
    with pytest.raises(DomainError):
        invert_exterior_map(fmap, np.array([0.1 + 0.05j]))


def test_boundary_identity_on_ellipse():
    theta = 2 * np.pi * np.arange(512) / 512
    w = 2.0 * np.cos(theta) + 1j * np.sin(theta)
    vals = hodograph_map(2.0, 1.0, w)
    assert np.max(np.abs(vals - 1j * w.imag)) <= 1e-10


def test_hodograph_asymptotic_coefficient():
    for a, b in ((2.0, 1.0), (3.0, 1.5), (1.0, 2.0)):
        alpha = leading_coefficient(a, b)
        assert alpha == pytest.approx(b / (a + b), abs=1e-6)


def test_leading_coefficient_fits_at_radii_scaled_to_the_ellipse():
    # the fit radii are multiples of the major semi-axis, so an ellipse
    # wider than the smallest of them still has a fit outside it
    for a, b in ((20.0, 10.0), (2e10, 1e10), (1e-8, 3e-8)):
        assert leading_coefficient(a, b) == pytest.approx(b / (a + b), abs=1e-12)


def test_univalence_certificate_for_slit_map():
    a, b = 2.0, 1.0
    fmap = ellipse_exterior_map(a, b)
    rep = univalence_check(
        lambda z: hodograph_map(a, b, fmap(np.asarray(z, dtype=complex)))
    )
    assert rep["univalent"]
    assert rep["min_abs_derivative"] > 0
    assert rep["slit"][0] == {"re": 0.0, "im": pytest.approx(-b, abs=1e-10)}
    assert rep["slit"][1] == {"re": 0.0, "im": pytest.approx(b, abs=1e-10)}


def test_univalence_rejects_squaring_map():
    rep = univalence_check(lambda z: z * z)
    assert not rep["univalent"]


def test_univalence_rejects_folding_map():
    # z + 2/z has a vanishing derivative at |z| = sqrt(2), inside the
    # scanned annulus; its rings fold and the certificate must fail
    rep = univalence_check(lambda z: z + 2.0 / z)
    assert not rep["univalent"]
