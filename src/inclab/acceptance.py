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

import functools
from collections.abc import Callable

import numpy as np

from .elastostatics import LameParams, identity_verdict
from .geometry import (
    Box,
    Ellipse,
    Ellipsoid,
    FourierStar,
    Polygon,
    _gauss_legendre,
    depolarization_factors,
    depolarization_factors_2d,
    discretize,
)
from .hodograph import slit_certificate
from .layerpot import jump_check, npo_matrix
from .newtonian import quadratic_interior_fit, quadratic_verdict
from .polarization import _tensors, bound_gap_scan, closed_form_pt, pt_verdict
from .shapeopt import OptProblem, disk_verdict, minimize_trace
from .transmission import DECAY_TOL, decay_check, uniformity_verdict

__all__ = ["run_criterion", "run_all", "CRITERIA"]

DISK = Ellipse(1.0, 1.0)
ELLIPSE21 = Ellipse(2.0, 1.0)
ELLIPSE41 = Ellipse(4.0, 1.0)
SQUARE = Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
KITE = Polygon(((1.0, 0.0), (0.0, 0.7), (-0.6, 0.0), (0.0, -0.7)))
STAR3 = FourierStar(1.0, ((3, 0.2, 0.0),))


# criterion number -> its function; ``_criterion`` fills it in the module's order
CRITERIA: dict[int, Callable[..., dict]] = {}


def _criterion(name: str):
    """Register the check below it as the criterion its name ``criterion_NN`` numbers.

    The check returns (passed, detail); the function registered, which is
    also the module's ``criterion_NN``, returns the battery's record.
    """
    def register(check):
        cid = int(check.__name__.removeprefix("criterion_"))

        @functools.wraps(check)
        def criterion(*args, **kwargs) -> dict:
            passed, detail = check(*args, **kwargs)
            return {"id": cid, "name": name, "passed": bool(passed), "detail": detail}

        CRITERIA[cid] = criterion
        return criterion

    return register


def _tol(value: float) -> str:
    """A tolerance as the details write it: 1e-4, not 0.0001 or 1e-04."""
    return np.format_float_scientific(value, trim="-", exp_digits=1)


@_criterion("single-layer jump relation")
def criterion_01() -> tuple[bool, str]:
    """One-sided normal-derivative jump of the single layer."""
    grid = discretize(ELLIPSE21, 256)
    worst = float(np.max([
        jump_check(grid, values)
        for values in (np.ones(grid.n), grid.normals[:, 0], grid.normals[:, 1])
    ]))
    tol = 1e-4
    return worst <= tol, f"max one-sided mismatch {worst:.3e} (tol {_tol(tol)}) on 1, n1, n2"


@_criterion("NP operator on the constant density")
def criterion_02() -> tuple[bool, str]:
    """Pointwise half-value of the NP operator on the constant density."""
    devs = []
    details = []
    for shape in (DISK, ELLIPSE21):
        grid = discretize(shape, 256)
        row = npo_matrix(grid) @ np.ones(grid.n)
        devs.append(float(np.max(np.abs(row - 0.5))))
        details.append(f"{type(shape).__name__}({shape.a:g},{shape.b:g}): {devs[-1]:.3e}")
    worst, tol = float(np.max(devs)), 1e-8
    return worst <= tol, "max |K*[1] - 1/2| = " + "; ".join(details) + f" (tol {_tol(tol)})"


@_criterion("NP eigen-relation on normals")
def criterion_03() -> tuple[bool, str]:
    """Normal-component eigen-relations of the NP operator."""
    grid = discretize(ELLIPSE21, 256)
    mat = npo_matrix(grid)
    r1 = float(np.max(np.abs(mat @ grid.normals[:, 0] - grid.normals[:, 0] / 6)))
    r2 = float(np.max(np.abs(mat @ grid.normals[:, 1] + grid.normals[:, 1] / 6)))
    gridc = discretize(DISK, 256)
    matc = npo_matrix(gridc)
    c1 = float(np.max(np.abs(matc @ gridc.normals[:, 0])))
    c2 = float(np.max(np.abs(matc @ gridc.normals[:, 1])))
    ellipse_tol, circle_tol = 1e-6, 1e-8
    return (
        r1 <= ellipse_tol and r2 <= ellipse_tol and c1 <= circle_tol and c2 <= circle_tol,
        f"ellipse residuals ({r1:.2e}, {r2:.2e}) tol {_tol(ellipse_tol)}; "
        f"circle ({c1:.2e}, {c2:.2e}) tol {_tol(circle_tol)}",
    )


@_criterion("disk polarization tensor")
def criterion_04() -> tuple[bool, str]:
    """Disk polarization tensor closed form across contrasts."""
    ks, errors = (0.5, 2.0, 3.0, 10.0), []
    for k, pt in zip(ks, _tensors(discretize(DISK, 256), ks)):
        target = closed_form_pt(DISK, k).M
        errors.append(float(np.max(np.abs(pt.M - target)) / np.max(np.abs(target))))
    worst, tol = float(np.max(errors)), 1e-8
    return worst <= tol, (
        f"max relative error {worst:.3e} over k in {{0.5, 2, 3, 10}} (tol {_tol(tol)})"
    )


@_criterion("ellipse PT vs closed form")
def criterion_05() -> tuple[bool, str]:
    """Boundary-solve PT agrees with the ellipse closed form."""
    tensors = _tensors(discretize(ELLIPSE21, 256), (2.0, 5.0))
    verdicts = [pt_verdict(ELLIPSE21, pt) for pt in tensors]
    worst = float(np.max([v["closed_form_deviation"] for v in verdicts]))
    return (
        all(v["passed"] for v in verdicts),
        f"max relative entry difference {worst:.3e} over k in {{2, 5}} "
        f"(tol {_tol(verdicts[0]['closed_form_tol'])})",
    )


@_criterion("trace bounds and their saturation")
def criterion_06() -> tuple[bool, str]:
    """Trace bounds hold for a shape library; saturation only for ellipses."""
    shapes = {"disk": DISK, "ellipse(2,1)": ELLIPSE21, "ellipse(4,1)": ELLIPSE41,
              "square": SQUARE, "star3": STAR3, "kite": KITE}
    records = dict(zip(shapes, bound_gap_scan(list(shapes.values()), 3.0)))
    # beyond the scan's rule: the square and the star sit clearly inside the bound
    ok = all(rec["passed"] for rec in records.values())
    ok = ok and all(records[label]["slack2"] >= 1e-3 for label in ("square", "star3"))
    notes = [f"{label}: slack2={rec['slack2']:.2e}" for label, rec in records.items()]
    return ok, "; ".join(notes)


@_criterion("interior-field uniformity dichotomy")
def criterion_07() -> tuple[bool, str]:
    """Uniform interior field on the ellipse, non-uniform on the square."""
    smooth = uniformity_verdict(discretize(ELLIPSE21, 256), (0.5, 2.0, 10.0))
    square = uniformity_verdict(discretize(SQUARE, 256), (0.5, 2.0))
    best_square, floor = float(np.min([row["delta"] for row in square["rows"]])), 1e-2
    return (
        smooth["passed"] and best_square >= floor,
        f"ellipse max delta {smooth['max_delta']:.2e} (tol {_tol(smooth['delta_tol'])}); "
        f"square min delta {best_square:.2e} (floor {_tol(floor)})",
    )


@_criterion("interior slope closed form")
def criterion_08() -> tuple[bool, str]:
    """Interior gradient slope matches the two-axis closed form."""
    errors = []
    for shape, ks in ((ELLIPSE21, [2.0, 5.0]), (Ellipse(3.0, 2.0), [4.0])):
        factors = depolarization_factors_2d(shape)
        for row in uniformity_verdict(discretize(shape, 256), ks)["rows"]:
            k, j = row["k"], row["direction"] - 1
            target = np.eye(2)[j] / (1.0 + (k - 1.0) * factors[j])
            errors.append(float(np.max(np.abs([row["mean_gx"], row["mean_gy"]] - target))))
    worst, tol = float(np.max(errors)), 1e-6
    return (
        worst <= tol,
        f"max slope error {worst:.3e} over two ellipses, k in {{2, 4, 5}} (tol {_tol(tol)})",
    )


@_criterion("quadratic interior potential dichotomy")
def criterion_09() -> tuple[bool, str]:
    """Quadratic interior potential exactly on ellipsoids, not on boxes."""
    ellipsoid = quadratic_verdict(Ellipsoid(2.0, 1.5, 1.0))
    ellipse = quadratic_verdict(ELLIPSE21)
    cube = quadratic_interior_fit(Box((0.5, 0.5, 0.5)))["rms_residual"]
    square = quadratic_interior_fit(SQUARE)["rms_residual"]
    floor = 1e-3
    return (
        ellipsoid["passed"] and ellipse["passed"] and cube >= floor and square >= floor,
        f"ellipsoid resid {ellipsoid['quadratic_fit']['rms_residual']:.2e} "
        f"diag err {ellipsoid['diag_vs_half_factors']:.2e}; "
        f"ellipse resid {ellipse['quadratic_fit']['rms_residual']:.2e}; "
        f"cube {cube:.2e}, square {square:.2e} (floors {_tol(floor)})",
    )


@_criterion("depolarization factor identities")
def criterion_10(seed: int = 0) -> tuple[bool, str]:
    """Depolarization factors: sum rule, sphere value, quadrature oracle.

    The oracle is the defining integral
    N_j = (abc/2) int_0^inf ds / ((s + c_j^2) prod_i sqrt(s + c_i^2)),
    taken with s = (u / (1 - u))^2, which makes the integrand smooth on
    [0, 1], and a 128-point Gauss-Legendre rule: a different formula from
    the Carlson form ``depolarization_factors`` evaluates.
    """
    nodes, weights = _gauss_legendre(128)
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
    sum_tol, quad_tol = 1e-10, 1e-8
    return (
        worst_sum <= sum_tol and sphere_exact and worst_quad <= quad_tol,
        f"sum rule {worst_sum:.2e} (tol {_tol(sum_tol)}); sphere exact thirds: {sphere_exact}; "
        f"quadrature agreement {worst_quad:.2e} (tol {_tol(quad_tol)})",
    )


@_criterion("elastic trace identities")
def criterion_11() -> tuple[bool, str]:
    """Hydrostatic trace identities at interior points of an ellipsoid."""
    grid = discretize(Ellipsoid(2.0, 1.5, 1.0), 64)
    rep = identity_verdict(grid, LameParams(2.0, 1.0, 1.0, 0.5))
    eq = identity_verdict(grid, LameParams(2.0, 1.0, 2.0, 1.0))
    return (
        rep["passed"] and eq["residual_difference"] == 0.0,
        f"residuals: matrix {rep['residual_matrix_phase']:.2e}, inclusion "
        f"{rep['residual_inclusion_phase']:.2e}, inverse-distance "
        f"{rep['residual_inverse_distance']:.2e} (tol {_tol(rep['residual_tol'])}); "
        f"equal-phase difference {eq['residual_difference']:.1e}",
    )


@_criterion("hodograph slit map")
def criterion_12() -> tuple[bool, str]:
    """Hodograph boundary identity, univalence, slit, leading coefficient."""
    cert = slit_certificate(2.0, 1.0)
    alpha_err = abs(cert["leading_coefficient"] - cert["leading_coefficient_target"])
    return (
        cert["passed"],
        f"boundary identity {cert['boundary_identity_deviation']:.2e} "
        f"(tol {_tol(cert['boundary_identity_tol'])}); univalence {cert['univalent']}; "
        f"slit endpoint error {cert['slit_endpoint_error']:.2e} "
        f"(tol {_tol(cert['slit_tol'])}); leading coefficient error {alpha_err:.2e} "
        f"(tol {_tol(cert['leading_coefficient_tol'])})",
    )


@_criterion("trace-minimal shape is the disk")
def criterion_13() -> tuple[bool, str]:
    """Trace minimization over star shapes converges to the disk."""
    problem = OptProblem(k=3.0)
    trace = minimize_trace(problem, problem.start())
    verdict = disk_verdict(problem, trace)
    return (
        verdict["passed"],
        f"relative gap {verdict['relative_gap']:.2e} (tol {_tol(verdict['gap_tol'])}); "
        f"max coefficient {verdict['max_coefficient']:.2e} "
        f"(tol {_tol(verdict['coefficient_tol'])}); best undercut "
        f"{verdict['disk_undercut']:.2e} (cap {_tol(verdict['undercut_tol'])}); "
        f"{trace.evaluations} evaluations",
    )


@_criterion("far-field decay rate")
def criterion_14() -> tuple[bool, str]:
    """Far-field decay of the perturbation potential on the circle."""
    ratio, expected, rel_error, passed = decay_check(DISK, 3.0, (1.0, 0.0))
    return (
        passed,
        f"magnitude ratio {ratio:.6f} vs {expected:.0f} "
        f"(rel err {rel_error:.2e}, cap {DECAY_TOL:g})",
    )


def run_criterion(cid: int, seed: int = 0) -> dict:
    """Run one criterion by number (seed only affects the sampled one)."""
    fn = CRITERIA[cid]
    if cid == 10:
        return fn(seed=seed)
    return fn()


def run_all() -> list[dict]:
    """Run the full battery in order."""
    return [run_criterion(cid) for cid in sorted(CRITERIA)]
