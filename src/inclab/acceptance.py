"""Executable acceptance battery: every checkable identity, one verdict each.

Each criterion function performs a self-contained computation against
closed forms or independently derived oracles and returns a record with a
pass/fail verdict and the measured numbers.  The battery is what the test
suite asserts and what the ``suite`` subcommand prints; nothing here is
tuned per-run — tolerances are fixed at the values the package promises.
Where a criterion checks what a subcommand checks, both read the numbers,
the pass rule and the default tolerance from one verdict function.
"""

from __future__ import annotations

import numpy as np

from .elastostatics import LameParams, identity_verdict
from .geometry import (
    Box,
    Ellipse,
    Ellipsoid,
    FourierStar,
    Polygon,
    discretize,
)
from .hodograph import slit_certificate
from .layerpot import jump_check, npo_matrix
from .newtonian import (
    depolarization_factors,
    depolarization_factors_2d,
    quadratic_interior_fit,
    quadratic_verdict,
)
from .polarization import _tensors, bound_gap_scan, pt_verdict
from .shapeopt import OptProblem, disk_verdict, minimize_trace
from .transmission import DECAY_TOL, decay_check, uniformity_verdict

__all__ = ["run_criterion", "run_all", "CRITERIA"]

DISK = Ellipse(1.0, 1.0)
ELLIPSE21 = Ellipse(2.0, 1.0)
ELLIPSE41 = Ellipse(4.0, 1.0)
SQUARE = Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
KITE = Polygon(((1.0, 0.0), (0.0, 0.7), (-0.6, 0.0), (0.0, -0.7)))
STAR3 = FourierStar(1.0, ((3, 0.2, 0.0),))


def _record(cid: int, name: str, passed: bool, detail: str) -> dict:
    return {"id": cid, "name": name, "passed": bool(passed), "detail": detail}


def _tol(value: float) -> str:
    """A tolerance as the details write it: 1e-4, not 0.0001 or 1e-04."""
    mantissa, exponent = f"{value:.0e}".split("e")
    return f"{mantissa}e{int(exponent)}"


def criterion_01() -> dict:
    """One-sided normal-derivative jump of the single layer."""
    grid = discretize(ELLIPSE21, 256)
    worst = float(np.max([
        jump_check(grid, values)
        for values in (np.ones(grid.n), grid.normals[:, 0], grid.normals[:, 1])
    ]))
    return _record(
        1,
        "single-layer jump relation",
        worst <= 1e-4,
        f"max one-sided mismatch {worst:.3e} (tol 1e-4) on 1, n1, n2",
    )


def criterion_02() -> dict:
    """Pointwise half-value of the NP operator on the constant density."""
    devs = []
    details = []
    for shape in (DISK, ELLIPSE21):
        grid = discretize(shape, 256)
        row = npo_matrix(grid) @ np.ones(grid.n)
        devs.append(float(np.max(np.abs(row - 0.5))))
        details.append(f"{type(shape).__name__}({shape.a:g},{shape.b:g}): {devs[-1]:.3e}")
    worst = float(np.max(devs))
    return _record(
        2,
        "NP operator on the constant density",
        worst <= 1e-8,
        "max |K*[1] - 1/2| = " + "; ".join(details) + " (tol 1e-8)",
    )


def criterion_03() -> dict:
    """Normal-component eigen-relations of the NP operator."""
    grid = discretize(ELLIPSE21, 256)
    mat = npo_matrix(grid)
    r1 = float(np.max(np.abs(mat @ grid.normals[:, 0] - grid.normals[:, 0] / 6)))
    r2 = float(np.max(np.abs(mat @ grid.normals[:, 1] + grid.normals[:, 1] / 6)))
    gridc = discretize(DISK, 256)
    matc = npo_matrix(gridc)
    c1 = float(np.max(np.abs(matc @ gridc.normals[:, 0])))
    c2 = float(np.max(np.abs(matc @ gridc.normals[:, 1])))
    passed = r1 <= 1e-6 and r2 <= 1e-6 and c1 <= 1e-8 and c2 <= 1e-8
    return _record(
        3,
        "NP eigen-relation on normals",
        passed,
        f"ellipse residuals ({r1:.2e}, {r2:.2e}) tol 1e-6; "
        f"circle ({c1:.2e}, {c2:.2e}) tol 1e-8",
    )


def criterion_04() -> dict:
    """Disk polarization tensor closed form across contrasts."""
    ks, errors = (0.5, 2.0, 3.0, 10.0), []
    for k, pt in zip(ks, _tensors(discretize(DISK, 256), ks)):
        target = 2 * np.pi * (k - 1.0) / (k + 1.0)
        errors.append(float(np.max(np.abs(pt.M - target * np.eye(2)))) / abs(target))
    worst = float(np.max(errors))
    return _record(
        4,
        "disk polarization tensor",
        worst <= 1e-8,
        f"max relative error {worst:.3e} over k in {{0.5, 2, 3, 10}} (tol 1e-8)",
    )


def criterion_05() -> dict:
    """Boundary-solve PT agrees with the ellipse closed form."""
    tensors = _tensors(discretize(ELLIPSE21, 256), (2.0, 5.0))
    verdicts = [pt_verdict(ELLIPSE21, pt) for pt in tensors]
    worst = float(np.max([v["closed_form_deviation"] for v in verdicts]))
    return _record(
        5,
        "ellipse PT vs closed form",
        all(v["passed"] for v in verdicts),
        f"max entry difference {worst:.3e} over k in {{2, 5}} "
        f"(tol {_tol(verdicts[0]['closed_form_tol'])})",
    )


def criterion_06() -> dict:
    """Trace bounds hold for a shape library; saturation only for ellipses."""
    shapes = {"disk": DISK, "ellipse(2,1)": ELLIPSE21, "ellipse(4,1)": ELLIPSE41,
              "square": SQUARE, "star3": STAR3, "kite": KITE}
    records = dict(zip(shapes, bound_gap_scan(list(shapes.values()), 3.0)))
    # beyond the scan's rule: the square and the star sit clearly inside the bound
    ok = all(rec["passed"] for rec in records.values())
    ok = ok and records["square"]["slack2"] >= 1e-3 and records["star3"]["slack2"] >= 1e-3
    notes = [f"{label}: slack2={rec['slack2']:.2e}" for label, rec in records.items()]
    return _record(6, "trace bounds and their saturation", ok, "; ".join(notes))


def criterion_07() -> dict:
    """Uniform interior field on the ellipse, non-uniform on the square."""
    smooth = uniformity_verdict(discretize(ELLIPSE21, 256), (0.5, 2.0, 10.0))
    square = uniformity_verdict(discretize(SQUARE, 256), (0.5, 2.0))
    best_square = float(np.min([row["delta"] for row in square["rows"]]))
    return _record(
        7,
        "interior-field uniformity dichotomy",
        smooth["passed"] and best_square >= 1e-2,
        f"ellipse max delta {smooth['max_delta']:.2e} (tol {_tol(smooth['delta_tol'])}); "
        f"square min delta {best_square:.2e} (floor 1e-2)",
    )


def criterion_08() -> dict:
    """Interior gradient slope matches the two-axis closed form."""
    errors = []
    for shape, ks in ((ELLIPSE21, [2.0, 5.0]), (Ellipse(3.0, 2.0), [4.0])):
        factors = depolarization_factors_2d(shape)
        for row in uniformity_verdict(discretize(shape, 256), ks)["rows"]:
            k, j = row["k"], row["direction"] - 1
            target = np.eye(2)[j] / (1.0 + (k - 1.0) * factors[j])
            errors.append(float(np.max(np.abs([row["mean_gx"], row["mean_gy"]] - target))))
    worst = float(np.max(errors))
    return _record(
        8,
        "interior slope closed form",
        worst <= 1e-6,
        f"max slope error {worst:.3e} over two ellipses, k in {{2, 4, 5}} (tol 1e-6)",
    )


def criterion_09() -> dict:
    """Quadratic interior potential exactly on ellipsoids, not on boxes."""
    ellipsoid = quadratic_verdict(Ellipsoid(2.0, 1.5, 1.0))
    ellipse = quadratic_verdict(ELLIPSE21)
    cube = quadratic_interior_fit(Box((0.5, 0.5, 0.5)))["rms_residual"]
    square = quadratic_interior_fit(SQUARE)["rms_residual"]
    passed = ellipsoid["passed"] and ellipse["passed"] and cube >= 1e-3 and square >= 1e-3
    return _record(
        9,
        "quadratic interior potential dichotomy",
        passed,
        f"ellipsoid resid {ellipsoid['quadratic_fit']['rms_residual']:.2e} "
        f"diag err {ellipsoid['diag_vs_half_factors']:.2e}; "
        f"ellipse resid {ellipse['quadratic_fit']['rms_residual']:.2e}; "
        f"cube {cube:.2e}, square {square:.2e} (floors 1e-3)",
    )


def criterion_10(seed: int = 0) -> dict:
    """Depolarization factors: sum rule, sphere value, quadrature oracle.

    The oracle is the defining integral
    N_j = (abc/2) int_0^inf ds / ((s + c_j^2) prod_i sqrt(s + c_i^2)),
    taken with s = (u / (1 - u))^2, which makes the integrand smooth on
    [0, 1], and a 128-point Gauss-Legendre rule: a different formula from
    the Carlson form ``depolarization_factors`` evaluates.
    """
    nodes, weights = np.polynomial.legendre.leggauss(128)
    u = 0.5 * (nodes + 1.0)
    s = (u / (1.0 - u)) ** 2
    ds = weights * u / (1.0 - u) ** 3  # du/dx * ds/du = (1/2) * 2u / (1 - u)^3
    rng = np.random.default_rng(seed)
    sums = []
    quads = []
    sphere = depolarization_factors(Ellipsoid(1.0, 1.0, 1.0))
    sphere_exact = bool(np.all(sphere == 1.0 / 3.0))
    for _ in range(5):
        c = 0.5 + 2.5 * rng.random(3)
        vals = depolarization_factors(Ellipsoid(*c))
        sums.append(abs(float(vals.sum()) - 1.0))
        shifted = s[:, None] + c**2
        weight = ds / np.sqrt(np.prod(shifted, axis=1))
        ref = 0.5 * float(np.prod(c)) * (weight @ (1.0 / shifted))
        quads.extend(np.abs(ref - vals))
    worst_sum, worst_quad = float(np.max(sums)), float(np.max(quads))
    ok = worst_sum <= 1e-10 and sphere_exact and worst_quad <= 1e-8
    return _record(
        10,
        "depolarization factor identities",
        ok,
        f"sum rule {worst_sum:.2e} (tol 1e-10); sphere exact thirds: {sphere_exact}; "
        f"quadrature agreement {worst_quad:.2e} (tol 1e-8)",
    )


def criterion_11() -> dict:
    """Hydrostatic trace identities at interior points of an ellipsoid."""
    grid = discretize(Ellipsoid(2.0, 1.5, 1.0), 64)
    rep = identity_verdict(grid, LameParams(2.0, 1.0, 1.0, 0.5))
    eq = identity_verdict(grid, LameParams(2.0, 1.0, 2.0, 1.0))
    return _record(
        11,
        "elastic trace identities",
        rep["passed"] and eq["residual_difference"] == 0.0,
        f"residuals: matrix {rep['residual_matrix_phase']:.2e}, inclusion "
        f"{rep['residual_inclusion_phase']:.2e}, inverse-distance "
        f"{rep['residual_inverse_distance']:.2e} (tol {_tol(rep['residual_tol'])}); "
        f"equal-phase difference {eq['residual_difference']:.1e}",
    )


def criterion_12() -> dict:
    """Hodograph boundary identity, univalence, slit, leading coefficient."""
    cert = slit_certificate(2.0, 1.0)
    alpha_err = abs(cert["leading_coefficient"] - cert["leading_coefficient_target"])
    return _record(
        12,
        "hodograph slit map",
        cert["passed"],
        f"boundary identity {cert['boundary_identity_deviation']:.2e} "
        f"(tol {_tol(cert['boundary_identity_tol'])}); univalence {cert['univalent']}; "
        f"slit endpoint error {cert['slit_endpoint_error']:.2e} "
        f"(tol {_tol(cert['slit_tol'])}); leading coefficient error {alpha_err:.2e} "
        f"(tol {_tol(cert['leading_coefficient_tol'])})",
    )


def criterion_13() -> dict:
    """Trace minimization over star shapes converges to the disk."""
    problem = OptProblem(k=3.0)
    trace = minimize_trace(problem, problem.start())
    verdict = disk_verdict(problem, trace)
    return _record(
        13,
        "trace-minimal shape is the disk",
        verdict["passed"],
        f"relative gap {verdict['relative_gap']:.2e} (tol {_tol(verdict['gap_tol'])}); "
        f"max coefficient {verdict['max_coefficient']:.2e} "
        f"(tol {_tol(verdict['coefficient_tol'])}); best undercut "
        f"{verdict['disk_undercut']:.2e} (cap {_tol(verdict['undercut_tol'])}); "
        f"{trace.evaluations} evaluations",
    )


def criterion_14() -> dict:
    """Far-field decay of the perturbation potential on the circle."""
    ratio, expected, rel_error, passed = decay_check(DISK, 3.0, (1.0, 0.0))
    return _record(
        14,
        "far-field decay rate",
        passed,
        f"magnitude ratio {ratio:.6f} vs {expected:.0f} "
        f"(rel err {rel_error:.2e}, cap {DECAY_TOL:g})",
    )


CRITERIA = {
    1: criterion_01,
    2: criterion_02,
    3: criterion_03,
    4: criterion_04,
    5: criterion_05,
    6: criterion_06,
    7: criterion_07,
    8: criterion_08,
    9: criterion_09,
    10: criterion_10,
    11: criterion_11,
    12: criterion_12,
    13: criterion_13,
    14: criterion_14,
}


def run_criterion(cid: int, seed: int = 0) -> dict:
    """Run one criterion by number (seed only affects the sampled one)."""
    fn = CRITERIA[cid]
    if cid == 10:
        return fn(seed=seed)
    return fn()


def run_all() -> list[dict]:
    """Run the full battery in order."""
    return [run_criterion(cid) for cid in sorted(CRITERIA)]
