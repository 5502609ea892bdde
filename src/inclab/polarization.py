"""Polarization tensors, trace bounds, and their saturation detection.

The polarization tensor is the d x d matrix governing the leading dipole
term of the far-field perturbation caused by an inclusion under a uniform
applied field.  In 2D it is computed from boundary solves; for ellipses and
ellipsoids closed forms in terms of depolarization factors are exposed and
are the only 3D path.  One verdict, ``pt_verdict``, judges a tensor: its
symmetry and closed form in units of max|M|, then the trace bounds of
Hashin-Shtrikman type with explicit slack, judged free of the unit of
length, flagging saturation of the inverse-trace bound — the equality case
that singles out ellipses and ellipsoids.  The ``pt`` and ``bounds``
commands print it, and ``bound_gap_scan`` applies it to a batch of shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SolveError
from .geometry import BoundaryGrid, ShapeSpec, discretize
from .transmission import Contrast, _as_contrast, _basis_densities

__all__ = [
    "PolarizationTensor",
    "polarization_tensor",
    "closed_form_pt",
    "pt_verdict",
    "bound_gap_scan",
    "minimal_trace_target",
]

# |slack| <= SATURATION_TOL * |rhs| counts as equality in a bound
SATURATION_TOL = 1e-5


@dataclass
class PolarizationTensor:
    """Symmetric d x d dipole-response matrix of an inclusion.

    ``asymmetry`` is the largest entry-wise mismatch between the raw
    moment matrix and its transpose before symmetrization (zero for
    closed-form evaluations).  ``densities`` holds the solved (n, d) layer
    densities of the basis directions, one per column (None for closed
    forms).
    """

    M: np.ndarray
    k: Contrast
    volume: float
    asymmetry: float = 0.0
    densities: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.M.shape[0]


def _tensors(grid: BoundaryGrid, ks) -> list[PolarizationTensor]:
    """One polarization tensor per contrast in ``ks`` from one ``_basis_densities`` call.

    Entry (i, j) is the j-th moment of the i-th basis density, symmetrized by
    averaging with the raw asymmetry recorded; the densities are handed back.
    """
    contrasts = [_as_contrast(k) for k in ks]
    volume, tensors = float(grid.shape.measure()), []
    for contrast, phis in zip(contrasts, _basis_densities(grid, contrasts)):
        raw = (phis * grid.weights[:, None]).T @ grid.nodes
        asymmetry = float(np.max(np.abs(raw - raw.T)))
        tensors.append(PolarizationTensor(0.5 * (raw + raw.T), contrast, volume, asymmetry, phis))
    return tensors


def polarization_tensor(grid: BoundaryGrid, k) -> PolarizationTensor:
    """Polarization tensor from boundary solves on a 2D grid: ``_tensors`` at one contrast.

    One K* assembly and one Krylov basis per basis direction give the
    densities.  In 3D only ``closed_form_pt`` has a tensor: ``npo_matrix``
    refuses a 3D grid with InvalidShapeError.
    """
    (pt,) = _tensors(grid, [k])
    return pt


def closed_form_pt(shape: ShapeSpec, k) -> PolarizationTensor | None:
    """Closed-form polarization tensor of an ellipse or ellipsoid; None otherwise.

    Diagonal, since the shape's axes are the coordinate axes, with entries
    |Omega|/(1/(k-1) + a_j), where a_j are the depolarization factors
    (finite for k up to the float maximum).
    """
    factors = shape.closed_form_factors()
    if factors is None:
        return None
    contrast = _as_contrast(k)
    vol = float(shape.measure())
    with np.errstate(divide="ignore"):  # a_j rounds to -1/(k-1) on a flat ellipsoid at tiny k
        M = np.diag(vol / (1.0 / (contrast.k - 1.0) + factors))
    return PolarizationTensor(M=M, k=contrast, volume=vol, asymmetry=0.0)


def pt_verdict(shape: ShapeSpec, pt: PolarizationTensor) -> dict:
    """The ``pt`` and ``bounds`` report after k and n: each check beside its tolerance.

    The raw asymmetry, and on an ellipse or ellipsoid the largest entry-wise
    deviation from the closed form, are measured in units of max|M|.  Then the
    trace bounds.  For k > 1: Tr(M) <= |Omega|(k-1)(d-1+1/k) and
    |Omega| Tr(M^-1) <= (d-1+k)/(k-1), slacks = rhs - lhs ("direct"); for
    k < 1 both sides change sign, so slacks = lhs - rhs ("sign-flipped").
    slack1/|rhs1| and slack2 must be at least ``slack_floor``; a bound is
    saturated when |slack| <= SATURATION_TOL * |rhs|, and saturation of the
    inverse-trace bound is the ellipse/ellipsoid signature.  A finite M whose
    smallest |eigenvalue| is zero relative to its largest is singular and
    raises SolveError: det(M) underflows on small shapes, and a slender
    ellipsoid's diagonal closed form inverts exactly below a ratio of eps.
    A non-finite M fails, with NaN eigenvalues and inverse trace.
    """
    kk, d, vol = pt.k.k, pt.dim, pt.volume
    finite = bool(np.isfinite(pt.M).all())
    eigs = np.linalg.eigvalsh(pt.M) if finite else np.full(d, np.nan)
    with np.errstate(invalid="ignore"):
        if finite and not np.min(np.abs(eigs)) / np.max(np.abs(eigs)) > 0.0:
            raise SolveError("polarization tensor is singular; cannot form Tr(M^-1)")
    unit = float(np.max(np.abs(pt.M)))
    tr_M = float(np.trace(pt.M))
    out = {
        "volume": vol,
        "M": pt.M,
        "eigenvalues": eigs,
        "trace": tr_M,
        "asymmetry": pt.asymmetry / unit,
        "asymmetry_tol": 1e-6,
    }
    passed = finite and out["asymmetry"] <= out["asymmetry_tol"]
    closed = closed_form_pt(shape, pt.k)
    if closed is not None:
        out["closed_form_M"] = closed.M
        out["closed_form_deviation"] = float(np.max(np.abs(pt.M - closed.M))) / unit
        out["closed_form_tol"] = 1e-6
        passed = passed and out["closed_form_deviation"] <= out["closed_form_tol"]
    tr_Minv_scaled = vol * float(np.trace(np.linalg.inv(pt.M))) if finite else np.nan
    rhs1 = vol * (kk - 1.0) * (d - 1.0 + 1.0 / kk)
    rhs2 = (d - 1.0 + kk) / (kk - 1.0)
    if kk > 1.0:
        form, slack1, slack2 = "direct", rhs1 - tr_M, rhs2 - tr_Minv_scaled
    else:
        form, slack1, slack2 = "sign-flipped", tr_M - rhs1, tr_Minv_scaled - rhs2
    out.update({
        "form": form,
        "trace_M": tr_M,
        "trace_bound_rhs": rhs1,
        "slack1": slack1,
        "scaled_inverse_trace": tr_Minv_scaled,
        "inverse_trace_bound_rhs": rhs2,
        "slack2": slack2,
        "slack_floor": -1e-5,
        "saturated1": abs(slack1) <= SATURATION_TOL * abs(rhs1),
        "saturated2": abs(slack2) <= SATURATION_TOL * abs(rhs2),
        "saturation_tol": SATURATION_TOL,
    })
    out["passed"] = (passed and slack1 >= out["slack_floor"] * abs(rhs1)
                     and slack2 >= out["slack_floor"])
    return out


def bound_gap_scan(shapes, *ks) -> list[dict]:
    """Trace and inverse-trace-bound slack for a batch of shapes, 256 nodes each.

    Each shape is solved once for all contrasts ``ks``; the records come
    contrast by contrast, one per shape, with the tensor trace, its eigenvalue
    pair, the slack of the inverse-trace bound and its saturation, all read
    from ``pt_verdict``.  A record passes when the verdict does and the bound
    saturates exactly when the shape has a closed form: ellipses sit on the
    bound curve and everything else sits strictly inside.
    """
    records = []
    for tensors in zip(*(_tensors(discretize(shape, 256), ks) for shape in shapes)):
        for shape, pt in zip(shapes, tensors):  # one contrast, shape by shape
            report = pt_verdict(shape, pt)
            eig_low, eig_high = map(float, report["eigenvalues"][[0, -1]])
            records.append({
                "tr_M": report["trace_M"], "eig_low": eig_low, "eig_high": eig_high,
                "slack2": report["slack2"], "saturated2": report["saturated2"],
                "passed": report["passed"] and report["saturated2"] == ("closed_form_M" in report),
            })
    return records


def minimal_trace_target(k, volume: float, d: int) -> float:
    """Smallest achievable polarization-tensor trace at fixed volume.

    Attained by the ball/disk; the value is volume * d^2 (k-1)/(k+d-1).
    """
    contrast = _as_contrast(k)
    if d not in (2, 3):
        raise ConfigError("dimension must be 2 or 3")
    if volume <= 0:
        raise ConfigError("volume must be positive")
    return volume * d * d * ((contrast.k - 1.0) / (contrast.k + d - 1.0))
