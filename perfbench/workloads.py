"""The four benchmark workloads: inputs from a seed, calls, and oracles.

A workload's plan is a fixed list of operations built from the seed
before timing starts. Each operation is one call into ``inclab`` (an
in-process ``cli.run`` or a library function) whose output is kept and
checked against an oracle only after the timed phase ends. Oracles come
from closed forms, from the paper's trace bounds and minimality theorem,
and from the converged square trace; never from outputs of the program
under test, so a later accuracy fix cannot count as a failure.

``shapeopt`` is the exception to "one call per operation": its single
call is ``minimize_trace``, and each objective evaluation inside it is one
operation (Nelder-Mead is the closed-loop caller).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np

import inclab
from inclab import acceptance, cli
from inclab.geometry import Ellipse, Ellipsoid, FourierStar
from inclab.newtonian import _default_margin

SQUARE_TRACE_K3 = 2.0418536270306  # converged square trace at k = 3, area 1
SQUARE_TRACE_TOL = 1e-5
MINIMALITY_SLACK = 1e-8  # relative rounding allowance for the disk itself
BOUND_FLOOR = 1e-5  # trace-bound slack floor the package promises
JUMP_TOL = 1e-4
FLUX_TOL = 1e-3
ROUTE_TOL = 1e-6  # flux vs radial Newtonian routes
SLOPE_TOL = 1e-6  # interior slope of an ellipse vs its closed form


@dataclass
class Op:
    """One closed-loop operation: a call and the check of its output.

    ``check(output)`` returns a list of problems (empty when the oracle
    holds). ``digest_key`` is set for CLI calls whose argv does not depend
    on the seed, so their report can be compared with the stored digest.
    """

    label: str
    call: object
    check: object
    digest_key: str | None = None


# ---------------------------------------------------------------------------
# closed forms, computed here and not by the package

def area(shape) -> float:
    if isinstance(shape, Ellipse):
        return math.pi * shape.a * shape.b
    if isinstance(shape, FourierStar):
        power = 1.0 + 0.5 * sum(c * c + s * s for _, c, s in shape.modes)
        return math.pi * shape.r0**2 * power
    v = np.asarray(shape.vertices)
    x, y = v[:, 0], v[:, 1]
    return float(0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def disk_trace(volume: float, k: float) -> float:
    """Trace of the disk's tensor at area ``volume``: the 2D minimum for k > 1."""
    return 4.0 * volume * (k - 1.0) / (k + 1.0)


def ellipse_factors(a: float, b: float) -> np.ndarray:
    return np.array([b / (a + b), a / (a + b)])


def ellipsoid_factors(c) -> np.ndarray:
    from scipy.integrate import quad

    c = np.asarray(c, dtype=float)
    out = []
    for j in range(3):
        def integrand(s, j=j):
            prod = math.sqrt((s + c[0] ** 2) * (s + c[1] ** 2) * (s + c[2] ** 2))
            return 1.0 / ((s + c[j] ** 2) * prod)

        out.append(0.5 * float(np.prod(c)) * quad(integrand, 0.0, np.inf, epsabs=1e-14)[0])
    return np.array(out)


def ellipse_pt(a: float, b: float, k: float) -> np.ndarray:
    return np.diag(math.pi * a * b * (k - 1.0) / (1.0 + (k - 1.0) * ellipse_factors(a, b)))


# ---------------------------------------------------------------------------
# helpers

def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return code, buf.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _num(x) -> str:
    return repr(float(x))


def star_spec(star: FourierStar) -> str:
    parts = [_num(star.r0)]
    for m, c, s in star.modes:
        parts += [str(m), _num(c), _num(s)]
    return "star:" + ",".join(parts)


def seeded_star(rng, modes, amplitude) -> FourierStar:
    """Unit-radius star with the given modes, each of a seeded amplitude
    in ``amplitude`` and a seeded phase."""
    out = []
    for m in modes:
        eps = rng.uniform(*amplitude)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        out.append((int(m), eps * math.cos(phase), eps * math.sin(phase)))
    return FourierStar(1.0, tuple(out))


def seeded_contrasts(rng, size: int) -> list[float]:
    """Contrasts below and above 1, kept off k = 1 where the tensor vanishes
    and the inverse-trace bound is singular."""
    low = rng.random(size) < 0.5
    logs = np.where(low, rng.uniform(math.log(0.1), math.log(0.8), size),
                    rng.uniform(math.log(1.25), math.log(20.0), size))
    return [float(x) for x in np.exp(logs)]


def _cli_op(argv, check, fixed) -> Op:
    key = " ".join(argv) if fixed else None
    return Op(" ".join(argv), lambda argv=argv: run_cli(argv), check, key)


def _expect_code(code, want, problems):
    if code != want:
        problems.append(f"exit {code}, expected {want}")


# ---------------------------------------------------------------------------
# shapeopt

@dataclass(frozen=True)
class ShapeoptInput:
    problem: object
    start: np.ndarray


def shapeopt_input(seed: int) -> ShapeoptInput:
    """Criterion 13's problem from its (0.2, 0.1) start, whatever the seed.

    The simplex search's evaluation count depends on the start: seeded
    starts of the same norm took 1,204-1,491 evaluations over five seeds,
    and even the four quarter-turn images of this start, the same problem,
    took 1,298-1,439. A seeded start would make ``wall_s`` measure the seed;
    this one makes every run do the same 1,298 evaluations.
    """
    del seed
    problem = inclab.OptProblem(k=3.0)
    start = np.zeros(problem.dof)
    start[0], start[2] = 0.2, 0.1
    return ShapeoptInput(problem, start)


def check_shapeopt(trace, area_value: float, k: float) -> tuple[int, list[str]]:
    """Failed evaluations under criterion 13's gates.

    An evaluation fails when it undercuts the disk value by more than the
    1e-5 cap (the minimality theorem). If the run misses its gates
    (relative gap <= 1e-3, max coefficient <= 1e-2), every evaluation
    fails: the run did not reach its answer.
    """
    disk = disk_trace(area_value, k)
    values = np.array([r["objective"] for r in trace.history])
    failed = int(np.count_nonzero(~((disk - values) / disk <= 1e-5)))
    problems = [f"{failed} evaluations undercut the disk value"] if failed else []
    rel_gap = (trace.final_objective - disk) / disk
    max_coeff = float(np.max(np.abs(trace.final_coefficients)))
    if not (abs(rel_gap) <= 1e-3 and max_coeff <= 1e-2):
        problems.append(f"gates missed: relative gap {rel_gap:.3e}, max coefficient {max_coeff:.3e}")
        failed = len(values)
    return failed, problems


# ---------------------------------------------------------------------------
# sweep

SWEEP_NAMED = [
    ("disk", Ellipse(1.0, 1.0)),
    ("ellipse:2,1", Ellipse(2.0, 1.0)),
    ("ellipse:4,1", Ellipse(4.0, 1.0)),
    ("star", FourierStar(1.0, ((3, 0.2, 0.0),))),
]
SWEEP_POLYGONS = [("square", acceptance.SQUARE), ("kite", acceptance.KITE)]
# the shape list of scripts/trace_bound_table.py
SCAN_SHAPES = [
    acceptance.DISK,
    acceptance.ELLIPSE21,
    acceptance.ELLIPSE41,
    acceptance.SQUARE,
    acceptance.KITE,
    acceptance.STAR3,
]
SMOOTH_N = (256, 512, 1024)
NAMED_KS = "0.5,2,3,5,10"


def _check_pt(shape, k, label):
    def check(output):
        code, text = output
        problems = []
        _expect_code(code, 0, problems)
        if code != 0:
            return problems
        rep = json.loads(text)
        vol = area(shape)
        if not abs(rep["volume"] - vol) <= 1e-9 * vol:
            problems.append(f"volume {rep['volume']} vs {vol}")
        trace = rep["trace"]
        if isinstance(shape, Ellipse):
            dev = float(np.max(np.abs(np.asarray(rep["M"]) - ellipse_pt(shape.a, shape.b, k))))
            if not dev <= rep["closed_form_tol"]:
                problems.append(f"closed-form deviation {dev:.3e}")
        if k > 1 and not trace >= disk_trace(vol, k) * (1 - MINIMALITY_SLACK):
            problems.append(f"trace {trace} below the disk value")
        if label == "square" and k == 3.0:
            rel = abs(trace - SQUARE_TRACE_K3) / SQUARE_TRACE_K3
            if not rel <= SQUARE_TRACE_TOL:
                problems.append(f"square trace off the converged value by {rel:.3e}")
        return problems

    return check


def _bounds_problems(shape, k, tr_m, scaled_inv, saturated2):
    """Both trace bounds hold, saturation exactly for ellipses, minimality."""
    problems = []
    vol = area(shape)
    rhs1 = vol * (k - 1.0) * (1.0 + 1.0 / k)
    rhs2 = (1.0 + k) / (k - 1.0)
    sign = 1.0 if k > 1 else -1.0
    if not sign * (rhs1 - tr_m) >= -BOUND_FLOOR:
        problems.append(f"trace bound broken: {tr_m} vs {rhs1}")
    if not sign * (rhs2 - scaled_inv) >= -BOUND_FLOOR:
        problems.append(f"inverse-trace bound broken: {scaled_inv} vs {rhs2}")
    if bool(saturated2) != isinstance(shape, Ellipse):
        problems.append(f"saturated2={saturated2} on {type(shape).__name__}")
    if k > 1 and not tr_m >= disk_trace(vol, k) * (1 - MINIMALITY_SLACK):
        problems.append(f"trace {tr_m} below the disk value")
    return problems


def _check_bounds(shape, k):
    def check(output):
        code, text = output
        problems = []
        _expect_code(code, 0, problems)
        if code != 0:
            return problems
        rep = json.loads(text)
        return problems + _bounds_problems(
            shape, k, rep["trace_M"], rep["scaled_inverse_trace"], rep["saturated2"]
        )

    return check


def _check_eshelby(shape, ks):
    def check(output):
        code, text = output
        problems = []
        is_ellipse = isinstance(shape, Ellipse)
        _expect_code(code, 0 if is_ellipse else 1, problems)
        rows = list(csv.DictReader(io.StringIO(text)))
        if len(rows) != 2 * len(ks):
            return problems + [f"{len(rows)} rows for {len(ks)} contrasts"]
        if is_ellipse:
            factors = ellipse_factors(shape.a, shape.b)
            for row in rows:
                k, j = float(row["k"]), int(row["direction"]) - 1
                target = np.zeros(2)
                target[j] = 1.0 / (1.0 + (k - 1.0) * factors[j])
                got = np.array([float(row["mean_gx"]), float(row["mean_gy"])])
                if not np.max(np.abs(got - target)) <= SLOPE_TOL:
                    problems.append(f"interior slope off at k={k}, direction {j + 1}")
        return problems

    return check


def _check_scan(shapes, k):
    def check(records):
        problems = []
        for shape, rec in zip(shapes, records):
            problems += _bounds_problems(
                shape, k, rec["tr_M"], area(shape) * (1 / rec["eig_low"] + 1 / rec["eig_high"]),
                rec["saturated2"],
            )
        if len(records) != len(shapes):
            problems.append(f"{len(records)} records for {len(shapes)} shapes")
        return problems

    return check


def sweep_plan(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    plan: list[Op] = []
    stars = []
    for _ in range(2):
        modes = rng.choice(np.arange(2, 6), size=2, replace=False)
        star = seeded_star(rng, modes, (0.05, 0.15))
        stars.append((star_spec(star), star, rng.uniform(1.5, 10.0), rng.uniform(0.2, 0.8)))
    shapes = [(label, shape, 3.0, 2.0, True) for label, shape in SWEEP_NAMED]
    shapes += [(label, shape, kp, kb, False) for label, shape, kp, kb in stars]
    for label, shape, k_pt, k_bounds, fixed in shapes:
        for n in SMOOTH_N:
            plan.append(_cli_op(
                ["pt", "--shape", label, "--k", _num(k_pt), "--n", str(n)],
                _check_pt(shape, k_pt, label), fixed))
            plan.append(_cli_op(
                ["bounds", "--shape", label, "--k", _num(k_bounds), "--n", str(n)],
                _check_bounds(shape, k_bounds), fixed))
        extra = (0.5, 5.0, 10.0) if fixed else seeded_contrasts(rng, 3)
        for k in extra:
            plan.append(_cli_op(
                ["bounds", "--shape", label, "--k", _num(k)], _check_bounds(shape, k), fixed))
        ks = NAMED_KS if fixed else ",".join(_num(k) for k in seeded_contrasts(rng, 5))
        plan.append(_cli_op(
            ["eshelby", "--shape", label, "--k", ks],
            _check_eshelby(shape, ks.split(",")), fixed))
    plan.append(_cli_op(
        ["eshelby", "--shape", "ellipse:2,1", "--k", NAMED_KS, "--n", "512"],
        _check_eshelby(Ellipse(2.0, 1.0), NAMED_KS.split(",")), True))
    for label, shape in SWEEP_POLYGONS:
        plan.append(_cli_op(
            ["pt", "--shape", label, "--k", "3"], _check_pt(shape, 3.0, label), True))
        k = seeded_contrasts(rng, 1)[0]
        plan.append(_cli_op(
            ["bounds", "--shape", label, "--k", _num(k)], _check_bounds(shape, k), False))
    k_scan = float(rng.uniform(1.5, 10.0))
    plan.append(Op(
        f"bound_gap_scan k={k_scan}",
        lambda: inclab.bound_gap_scan(SCAN_SHAPES, k_scan),
        _check_scan(SCAN_SHAPES, k_scan)))
    return plan


# ---------------------------------------------------------------------------
# verify

def _criterion_op(cid: int, seed: int) -> Op:
    def check(record):
        want = cid != 2  # criterion 02 fails by design (strict xfail in the tests)
        if record["passed"] != want:
            return [f"criterion {cid:02d} passed={record['passed']}: {record['detail']}"]
        return []

    return Op(f"criterion {cid:02d}", lambda: acceptance.run_criterion(cid, seed=seed), check)


def _close_eval_ops(shape, n, k, a) -> list[Op]:
    a = np.asarray(a)

    def jump():
        grid = inclab.discretize(shape, n)
        return inclab.jump_check(grid, inclab.solve_density(grid, k, a))

    def flux():
        grid = inclab.discretize(shape, n)
        return inclab.flux_continuity_check(grid, inclab.solve_density(grid, k, a), k, a)

    def under(tol):
        return lambda value: [] if value <= tol else [f"mismatch {value:.3e} above {tol:g}"]

    name = f"{type(shape).__name__} n={n} k={k:.3f}"
    return [Op(f"jump_check {name}", jump, under(JUMP_TOL)),
            Op(f"flux_continuity_check {name}", flux, under(FLUX_TOL))]


def _unit(rng) -> np.ndarray:
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return np.array([math.cos(phase), math.sin(phase)])


def verify_plan(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    plan: list[Op] = []
    for cid in sorted(acceptance.CRITERIA):
        if cid != 13:  # criterion 13 is the shapeopt workload
            plan.append(_criterion_op(cid, seed))
    plan += _close_eval_ops(Ellipse(2.0, 1.0), 256, rng.uniform(1.5, 10.0), _unit(rng))
    # Modes 4-5 with amplitudes 0.15-0.2 keep every seeded star on the same
    # 2^18-node fine grid, and every ellipse needs 2^17 nodes, so the seed
    # changes the inputs, not the work.
    star = seeded_star(rng, [rng.integers(4, 6)], (0.15, 0.2))
    plan += _close_eval_ops(star, 128, rng.uniform(1.5, 10.0), _unit(rng))
    return plan


# ---------------------------------------------------------------------------
# potentials

def _check_newtonian(shape):
    def check(output):
        code, text = output
        exact = isinstance(shape, (Ellipse, Ellipsoid))
        problems = []
        _expect_code(code, 0 if exact else 1, problems)
        if not exact or code != 0:
            return problems
        rep = json.loads(text)
        if isinstance(shape, Ellipse):
            factors = ellipse_factors(shape.a, shape.b)
        else:
            factors = ellipsoid_factors((shape.c1, shape.c2, shape.c3))
        diag = np.diag(np.asarray(rep["quadratic_fit"]["A"]))
        dev = float(np.max(np.abs(diag - factors / 2.0)))
        if not dev <= rep["diag_tol"]:
            problems.append(f"diagonal off half the depolarization factors by {dev:.3e}")
        return problems

    return check


def _check_elastic(output):
    code, text = output
    problems = []
    _expect_code(code, 0, problems)
    if code == 0:
        rep = json.loads(text)
        for key in ("residual_matrix_phase", "residual_inclusion_phase",
                    "residual_inverse_distance"):
            if not rep[key] <= rep["residual_tol"]:
                problems.append(f"{key} {rep[key]:.3e}")
    return problems


def _check_hodograph(a, b):
    def check(output):
        code, text = output
        problems = []
        _expect_code(code, 0, problems)
        if code != 0:
            return problems
        rep = json.loads(text)
        ends = [complex(p["re"], p["im"]) for p in rep["slit"]]
        err = max(abs(ends[0] - complex(0.0, -b)), abs(ends[1] - complex(0.0, b)))
        if not err <= rep["slit_tol"]:
            problems.append(f"slit endpoints off by {err:.3e}")
        lead = abs(rep["leading_coefficient"] - b / (a + b))
        if not lead <= rep["leading_coefficient_tol"]:
            problems.append(f"leading coefficient off by {lead:.3e}")
        if rep["univalent"] is not True:
            problems.append("not univalent")
        return problems

    return check


def _route_op(label, shape, margin=None) -> Op:
    """Radial against flux route on the interior sample ``newtonian`` fits
    (its default margin unless ``margin`` is given)."""
    count = 80 if isinstance(shape, Ellipsoid) else 40

    def call():
        m = _default_margin(shape) if margin is None else margin
        pts = inclab.interior_points(shape, count, m).points
        radial = inclab.newtonian_potential(shape, pts, method="radial")
        flux = inclab.newtonian_potential(shape, pts, method="flux")
        return radial, flux

    def check(output):
        dev = float(np.max(np.abs(output[0] - output[1])))
        return [] if dev <= ROUTE_TOL else [f"routes differ by {dev:.3e}"]

    return Op(f"newtonian routes {label}", call, check)


def potentials_plan(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    plan: list[Op] = []

    def ellipsoid():
        c = rng.uniform(0.8, 2.0, size=3)
        return f"ellipsoid:{_num(c[0])},{_num(c[1])},{_num(c[2])}", Ellipsoid(*c)

    def lame():
        lam, mu = rng.uniform(1.0, 3.0), rng.uniform(0.5, 1.5)
        s = rng.uniform(0.3, 0.8)  # both moduli contrasts of one sign
        return f"{_num(lam)},{_num(mu)},{_num(s * lam)},{_num(s * mu)}"

    newtonian = [
        ("disk", Ellipse(1.0, 1.0), True),
        ("ellipse:2,1", Ellipse(2.0, 1.0), True),
        ("square", acceptance.SQUARE, True),
        ("kite", acceptance.KITE, True),
        ("star", FourierStar(1.0, ((3, 0.2, 0.0),)), True),
        ("box:0.5,0.5,0.5", inclab.Box((0.5, 0.5, 0.5)), True),
        ("ellipsoid:2,1.5,1", Ellipsoid(2.0, 1.5, 1.0), True),
        ellipsoid() + (False,),
    ]
    for label, shape, fixed in newtonian:
        plan.append(_cli_op(["newtonian", "--shape", label], _check_newtonian(shape), fixed))

    # Wide ellipses only: on a tall one (b > a) hodograph raises at this
    # commit, so those calls are known-defect probes (see below).
    for ea, eb in [(2.0, 1.0), wide_ellipse(rng), wide_ellipse(rng)]:
        plan.append(_hodograph_op(ea, eb))

    plan.append(_cli_op(["elastic-identity"], _check_elastic, True))
    plan.append(_cli_op(["elastic-identity", "--n", "96"], _check_elastic, True))
    for n in ("64", "96", "128"):
        label, _ = ellipsoid()
        plan.append(_cli_op(
            ["elastic-identity", "--shape", label, "--lame", lame(), "--n", n], _check_elastic, False))

    # The radial route on every sample the newtonian calls fit, except the
    # box, where both routes are the same closed form.
    for label, shape, _ in newtonian:
        if not isinstance(shape, inclab.Box):
            plan.append(_route_op(label, shape))
    return plan


def wide_ellipse(rng) -> tuple[float, float]:
    return rng.uniform(1.5, 3.0), rng.uniform(0.5, 1.4)


def _hodograph_op(a, b) -> Op:
    fixed = a == int(a) and b == int(b)
    label = f"ellipse:{a:g},{b:g}" if fixed else f"ellipse:{_num(a)},{_num(b)}"
    return _cli_op(["hodograph", "--shape", label], _check_hodograph(a, b), fixed)


def defect_probes(workload: str, seed: int) -> list[Op]:
    """Calls in the workload's domain that fail at the commit that added
    the benchmark, because of a defect of the program.

    A run counts as correct only when none of its operations fails, and the
    benchmark cannot fix the program, so these calls stay out of the timed
    plan. Each run still makes them, untimed, after the timed phase, and
    reports their outcome beside the result: a fix shows as a probe that
    passes, and its call then belongs in the plan.

    ``hodograph`` on a tall ellipse (b > a) raises DomainError, although
    ``ellipse_exterior_map`` supports a < b through its ``rotated`` flag;
    the oracle is the same as for a wide ellipse. The radial Newtonian
    route is 3.0e-6 off the flux route on 40 interior points of a mode-4
    star at margin 0.2, beyond the 1e-6 the ``newtonian`` module promises.
    At the CLI's default margin for that star (0.214) both routes agree.
    """
    if workload != "potentials":
        return []
    a, b = wide_ellipse(np.random.default_rng(seed))
    star = FourierStar(1.0, ((4, -0.10596098051165517, 0.09499353177172293),))
    return [_hodograph_op(1.0, 2.0), _hodograph_op(b, a), _route_op("mode-4 star margin 0.2", star, 0.2)]


def build_plan(workload: str, seed: int):
    if workload == "shapeopt":
        return shapeopt_input(seed)
    return {"sweep": sweep_plan, "verify": verify_plan, "potentials": potentials_plan}[workload](seed)
