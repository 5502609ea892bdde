"""Conformal exterior maps and the slit-plane hodograph composition.

The exterior of an ellipse is conformally equivalent to the exterior of the
unit disk through a degree-one rational map; composing its inverse with the
slit map of the disk exterior produces an analytic function on the ellipse
exterior whose boundary values are exactly ``i * Im(w)``.  That function is
the hodographic object whose existence drives the two-dimensional
uniformity argument; here every ingredient is explicit and checkable:
round-trip inversion, boundary slit identity, leading-order coefficient,
and a numerical univalence certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, InvalidShapeError
from .geometry import Ellipse

__all__ = [
    "ExteriorMap",
    "koebe",
    "ellipse_exterior_map",
    "invert_exterior_map",
    "hodograph_map",
    "leading_coefficient",
    "univalence_check",
    "slit_certificate",
]

#: Points this far inside the unit circle still count as boundary; the
#: boundary itself is an admissible evaluation set for slit maps.
_RIM_SLACK = 1e-10


def koebe(z):
    """Slit map of the disk exterior: (1/2)(z - 1/z) for |z| >= 1.

    Maps |z| > 1 univalently onto the complement of the vertical segment
    from -i to i; the unit circle itself lands on that segment.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(z) < 1.0 - _RIM_SLACK):
        raise DomainError("the slit map is defined on |z| >= 1")
    out = 0.5 * (z - 1.0 / z)
    return complex(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ExteriorMap:
    """Degree-one rational map F(z) = gamma z + beta / z on |z| > 1.

    Univalence outside the unit disk requires |gamma| > |beta|.
    """

    gamma: complex
    beta: complex

    def __post_init__(self):
        if not abs(self.gamma) > abs(self.beta):
            raise ConfigError("|gamma| must exceed |beta| for univalence")

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = self.gamma * z + self.beta / z
        return complex(out) if out.ndim == 0 else out


def ellipse_exterior_map(a: float, b: float) -> ExteriorMap:
    """Exterior uniformizer of the ellipse x^2/a^2 + y^2/b^2 = 1.

    F(z) = ((a + b) z + (a - b) / z) / 2 maps the unit circle to
    a cos(t) + i b sin(t) for every a, b > 0; for a tall ellipse (a < b)
    beta is negative.  Below an axis ratio of about 2^-53, (a + b)/2 and
    |a - b|/2 round to one float and the map is not univalent: the shape is
    refused with InvalidShapeError, as are semi-axes that are not positive.
    """
    gamma, beta = (a + b) / 2.0, (a - b) / 2.0
    if not (a > 0 and b > 0 and gamma > abs(beta)):
        raise InvalidShapeError(
            f"ellipse semi-axes ({a!r}, {b!r}) must be positive with (a + b)/2 "
            "above |a - b|/2 in floating point, as the exterior map needs"
        )
    return ExteriorMap(gamma=complex(gamma), beta=complex(beta))


def invert_exterior_map(fmap: ExteriorMap, w):
    """Preimage with |z| >= 1 of points outside (or on) the image curve.

    The roots of gamma z^2 - w z + beta = 0 multiply to beta/gamma, inside
    the unit disk, so only the larger-modulus one can lie outside it:
    z = (w + d)/(2 gamma), with the square root d of w^2 - 4 gamma beta
    aligned with w so that the sum does not cancel.  Points strictly inside
    the image curve leave that root inside the unit disk too and raise a
    DomainError, as does a residual |F(z) - w| that is not at most 1e-12
    relative to the point magnitude (it is NaN where w^2 overflows).
    """
    w = np.asarray(w, dtype=complex)
    disc = np.sqrt(w * w - 4.0 * fmap.gamma * fmap.beta)
    disc = np.where(np.real(np.conj(w) * disc) < 0, -disc, disc)
    z = 0.5 * (w + disc) / fmap.gamma
    if np.any(np.abs(z) < 1.0 - _RIM_SLACK):
        raise DomainError("point lies inside the image curve; no exterior preimage")
    residual = np.abs(fmap(z) - w) / np.maximum(1.0, np.abs(w))
    if not np.all(residual <= 1e-12):
        raise DomainError(f"inversion residual {float(np.max(residual)):.3e} exceeds 1e-12")
    return complex(z) if z.ndim == 0 else z


def hodograph_map(a: float, b: float, w):
    """Analytic continuation of i * Im(w) off the ellipse boundary.

    Composes the inverse exterior uniformizer with the slit map, scaled
    by the vertical semi-axis: on the boundary the value is exactly
    i * Im(w); off the boundary it is analytic with leading coefficient
    b/(a+b) at infinity, and its range omits the segment [-ib, ib].
    """
    out = np.asarray(b * koebe(invert_exterior_map(ellipse_exterior_map(a, b), w)))
    return complex(out) if out.ndim == 0 else out


def leading_coefficient(a: float, b: float) -> float:
    """Coefficient of w in the hodograph map at infinity, fitted numerically.

    The map is odd with a pure even expansion of psi(w)/w in 1/w^2, so a
    polynomial fit in t = 1/w^2 through the radii (10, 100, 1000) max(a, b)
    recovers the leading coefficient far below the requested tolerances at
    any size of the ellipse.
    """
    radii = np.array([10.0, 100.0, 1000.0]) * max(a, b)
    vals = np.array([hodograph_map(a, b, complex(r, 0.0)) / r for r in radii])
    t = 1.0 / radii**2
    coeffs = np.polynomial.polynomial.polyfit(t, np.real(vals), deg=2)
    return float(coeffs[0])


# The univalence certificate's exterior grid (48 radii in geometric steps from
# 1 + 1e-3 to 1e3, times 256 uniform angles, which also sample the rim), its
# central-difference step relative to |z|, and how far the rim image may
# stray from the imaginary axis.
_RING_RADII = np.geomspace(1.0 + 1e-3, 1e3, 48)
_RING_ANGLES = 2 * np.pi * np.arange(256) / 256
_DERIV_STEP = 1e-6
_RE_TOL = 1e-8


def univalence_check(f) -> dict:
    """Certify the slit-map behavior of an analytic function numerically.

    ``f`` must act on complex arrays with |z| >= 1.  The derivative is
    taken by relative-step central differences on the exterior grid; the
    boundary image is sampled on the unit circle itself.  Returns the
    ``hodograph`` report's certificate fields: ``univalent`` requires a
    nonvanishing derivative on the grid, a rim image within _RE_TOL of the
    imaginary axis, and image rings that wind exactly once with monotone
    argument; ``slit`` holds the rim image's endpoints i c1, i c2 at its
    extreme imaginary parts.
    """
    grid = _RING_RADII[:, None] * np.exp(1j * _RING_ANGLES)[None, :]
    h = _DERIV_STEP * np.abs(grid)
    deriv = (f(grid + h) - f(grid - h)) / (2.0 * h)
    min_abs = float(np.min(np.abs(deriv)))

    rim = f(np.exp(1j * _RING_ANGLES))
    c1 = float(np.min(np.imag(rim)))
    c2 = float(np.max(np.imag(rim)))
    max_re = float(np.max(np.abs(np.real(rim))))

    vals = f(grid)
    ang = np.unwrap(np.angle(vals), axis=1)
    closing = (np.angle(vals[:, 0]) - np.angle(vals[:, -1]) + np.pi) % (2 * np.pi) - np.pi
    total = ang[:, -1] - ang[:, 0] + closing
    step = np.diff(ang, axis=1)
    monotone = np.all(step > 0, axis=1) | np.all(step < 0, axis=1)
    rings_simple = bool(np.all(monotone & (np.abs(np.abs(total) - 2 * np.pi) <= 0.5)))

    return {
        "univalent": (min_abs > 0.0) and (max_re <= _RE_TOL) and rings_simple,
        "min_abs_derivative": min_abs,
        "max_real_deviation": max_re,
        "real_deviation_tol": _RE_TOL,
        "rings_simple": rings_simple,
        "slit": [{"re": 0.0, "im": c1}, {"re": 0.0, "im": c2}],
    }


def slit_certificate(a: float, b: float) -> dict:
    """The hodograph argument checked on the ellipse (a, b), tolerances included.

    Every check runs on the ellipse scaled to unit size, (a, b)/max(a, b),
    so lengths and their tolerances are in units of max(a, b), and an
    ellipse scaled by a power of two gets a bit-identical verdict; only
    ``slit`` is printed at the ellipse's own size.  Fields of the
    ``hodograph`` report, in its order: the boundary identity on 512 points
    and the slit endpoints (against -ib, ib) must come within their
    ``*_tol``, the univalence certificate of the map composed with the
    exterior uniformizer must pass with its rim within _RE_TOL of the
    imaginary axis, and the fitted leading coefficient must come within
    ``leading_coefficient_tol`` of b/(a+b).
    """
    size = max(a, b)
    a, b = a / size, b / size
    w = Ellipse(a, b).outline(512) @ np.array([1.0, 1j])
    fmap = ellipse_exterior_map(a, b)
    cert = univalence_check(lambda z: hodograph_map(a, b, fmap(z)))
    lo, hi = (end["im"] for end in cert["slit"])
    out = {
        "boundary_identity_deviation": float(np.max(np.abs(hodograph_map(a, b, w) - 1j * w.imag))),
        "boundary_identity_tol": 1e-10,
        **cert,
        "slit": [{"re": 0.0, "im": lo * size}, {"re": 0.0, "im": hi * size}],
        "slit_endpoint_error": float(np.max([abs(lo + b), abs(hi - b)])),
        "slit_tol": 1e-10,
        "leading_coefficient": leading_coefficient(a, b),
        "leading_coefficient_target": b / (a + b),
        "leading_coefficient_tol": 1e-4,
    }
    out["passed"] = (out["boundary_identity_deviation"] <= out["boundary_identity_tol"]
                     and out["univalent"] and out["slit_endpoint_error"] <= out["slit_tol"]
                     and abs(out["leading_coefficient"] - out["leading_coefficient_target"])
                     <= out["leading_coefficient_tol"])
    return out
