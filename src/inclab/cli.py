"""Command-line entry point binding all modules.

Every subcommand computes a report, prints it (deterministically
serialized), optionally writes it under ``--out``, and exits 0 only when
the checks it ran passed their configured tolerances.  Configuration
problems exit 2 with the violated field named; numerical check failures
exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass, replace

import numpy as np

from .elastostatics import LameParams, identity_verdict, kolosov
from .errors import ConfigError, InclabError, InvalidShapeError, ResolutionError
from .geometry import (
    Box,
    Ellipse,
    Ellipsoid,
    FourierStar,
    Polygon,
    ShapeSpec,
    discretize,
    interior_points,
)
from .hodograph import slit_certificate
from .newtonian import quadratic_verdict
from .polarization import bounds_verdict, closed_form_pt, polarization_tensor, pt_verdict
from .serialize import to_csv, to_json, to_jsonl
from .shapeopt import OptProblem, disk_verdict, minimize_trace, overlay_svg
from .transmission import default_interior_sample, uniformity_verdict

__all__ = ["RunConfig", "parse_shape", "run", "main"]

_SHAPE_ALIASES = {
    "disk": "ellipse:1,1",
    "square": "polygon:0,0,1,0,1,1,0,1",
    "kite": "polygon:1,0,0,0.7,-0.6,0,0,-0.7",
    "star": "star:1,3,0.2,0",
}


@dataclass(frozen=True)
class RunConfig:
    """Validated bundle of one subcommand invocation.

    ``tol`` is None when the flag is omitted, leaving each check its own
    default; ``ks`` holds every contrast value parsed from ``--k`` (a comma
    list is allowed where a table is produced).
    """

    command: str
    shape_label: str | None = None
    shape: ShapeSpec | None = None
    ks: tuple[float, ...] = ()
    lame: LameParams | None = None
    n: int | None = None
    tol: float | None = None
    out: str | None = None
    fmt: str = "json"
    seed: int = 0

    @property
    def tol_args(self) -> tuple:
        """``(tol,)`` for a check's tolerance argument when --tol was given."""
        return () if self.tol is None else (self.tol,)

    @property
    def k(self) -> float:
        return self.ks[0]

    def nodes(self, default: int = 256) -> int:
        return self.n if self.n is not None else default


def parse_shape(text: str) -> tuple[str, ShapeSpec]:
    """Turn an inline ``type:params`` string or ``@file.json`` into a shape.

    Returns the canonical label used in tables alongside the shape
    itself.  Raises ConfigError naming the offending field on any
    malformed input.
    """
    raw = text.strip()
    if raw.startswith("@"):
        path = raw[1:]
        if not os.path.isfile(path):
            raise ConfigError(f"--shape: file not found: {path}")
        with open(path, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except ValueError as exc:  # also bad UTF-8 and over-long integers
                raise ConfigError(f"--shape: invalid JSON in {path}: {exc}") from exc
        return _shape_from_json(payload, path)
    lowered = raw.lower()
    if lowered in _SHAPE_ALIASES:
        label = lowered
        raw = _SHAPE_ALIASES[lowered]
    else:
        label = raw
    kind, _, params = raw.partition(":")
    return label, _build_shape(kind.strip().lower(), _parse_floats(params, "--shape"))


def _build_shape(kind: str, v: list[float]) -> ShapeSpec:
    """Shape of type ``kind`` from its parameters in the inline ``--shape`` order.

    Every value must be finite and their count must fit the type; a
    violation, or a constructor's refusal, is a ConfigError naming --shape.
    """
    for value in v:
        _expect(np.isfinite(value), f"--shape: '{value}' is not a finite number")
    n = len(v)
    forms = {
        "ellipse": (n == 2, "a,b"),
        "ellipsoid": (n == 3, "c1,c2,c3"),
        "box": (n == 3, "h1,h2,h3"),
        "polygon": (n >= 6 and n % 2 == 0, "x1,y1,x2,y2,... (at least 3 vertices)"),
        "star": (n >= 4 and (n - 1) % 3 == 0, "r0,m,c,s[,m,c,s...]"),
    }
    _expect(kind in forms, f"--shape: unknown shape type '{kind}'")
    _expect(forms[kind][0], f"--shape: {kind} takes {forms[kind][1]}")
    try:
        if kind == "ellipse":
            return Ellipse(v[0], v[1])
        if kind == "ellipsoid":
            return Ellipsoid(v[0], v[1], v[2])
        if kind == "box":
            return Box((v[0], v[1], v[2]))
        if kind == "polygon":
            return Polygon(tuple(zip(v[0::2], v[1::2])))
        return FourierStar(v[0], tuple(zip(v[1::3], v[2::3], v[3::3])))
    except InvalidShapeError as exc:
        raise ConfigError(f"--shape: {exc}") from exc


# JSON type -> its fields in the inline parameter order, each one number
# (None), a list of numbers (0), or a list of lists of w numbers (w)
_JSON_FIELDS = {
    "ellipse": {"a": None, "b": None},
    "ellipsoid": {"c1": None, "c2": None, "c3": None},
    "box": {"half": 0},
    "polygon": {"vertices": 2},
    "star": {"r0": None, "modes": 3},
}


def _shape_from_json(payload, path: str) -> tuple[str, ShapeSpec]:
    """Shape from a parsed JSON file: the type's fields and no other key."""
    _expect(isinstance(payload, dict) and "type" in payload,
            f"--shape: {path} must be an object with a 'type' field")
    kind = str(payload["type"]).lower()
    _expect(kind in _JSON_FIELDS, f"--shape: unknown shape type '{kind}'")
    fields = _JSON_FIELDS[kind]
    for key in payload:
        _expect(key == "type" or key in fields, f"--shape: {kind} in {path} takes no key '{key}'")
    values = []
    for key, width in fields.items():
        _expect(key in payload, f"--shape: {kind} in {path} needs key '{key}'")
        values += _json_numbers(payload[key], width, f"'{key}' in {path}")
    return os.path.basename(path), _build_shape(kind, values)


def _json_numbers(value, width, where: str) -> list[float]:
    """One JSON field's numbers: the value itself (width None), its items
    (0), or the items of each of its lists of exactly ``width`` items.
    Booleans and strings are not numbers."""
    items = [value] if width is None else value
    _expect(isinstance(items, list), f"--shape: {where} must be a list")
    if width:
        _expect(all(isinstance(item, list) and len(item) == width for item in items),
                f"--shape: {where} must hold lists of {width} numbers")
        items = [v for item in items for v in item]
    out = []
    for v in items:
        _expect(type(v) in (int, float), f"--shape: {where} holds {json.dumps(v)}, not a number")
        try:
            out.append(float(v))
        except OverflowError:
            raise ConfigError(f"--shape: {where} holds an integer beyond the float range") from None
    return out


def _parse_floats(text: str, flag: str) -> list[float]:
    if not text.strip():
        return []
    out = []
    for piece in text.split(","):
        try:
            out.append(float(piece))
        except ValueError as exc:
            raise ConfigError(f"{flag}: '{piece}' is not a number") from exc
        _expect(np.isfinite(out[-1]), f"{flag}: '{piece}' is not a finite number")
    return out


def _expect(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _parse_lame(text: str) -> LameParams:
    values = _parse_floats(text, "--lame")
    _expect(len(values) == 4, "--lame: takes lam,mu,lam_inc,mu_inc")
    return LameParams(values[0], values[1], values[2], values[3])


# ---------------------------------------------------------------------------
# subcommand handlers: each returns the report after its "command" field;
# its "passed" sets the exit
# ---------------------------------------------------------------------------


def _grid(cfg: RunConfig):
    """Boundary grid of the configured shape at ``--n``; a refusal names its flag."""
    try:
        return discretize(cfg.shape, cfg.nodes())
    except ResolutionError as exc:
        raise ConfigError(f"--n: {exc}") from exc
    except InvalidShapeError as exc:
        raise ConfigError(f"--shape: {exc}") from exc


def _tensor(cfg: RunConfig):
    """Polarization tensor: the closed form in 3D, a boundary solve otherwise.

    A 3D shape without a closed form goes to ``_grid``, which refuses it.
    """
    closed = closed_form_pt(cfg.shape, cfg.k) if cfg.shape.dim == 3 else None
    return closed if closed is not None else polarization_tensor(_grid(cfg), cfg.k)


def _cmd_pt(cfg: RunConfig):
    verdict = pt_verdict(cfg.shape, _tensor(cfg), *cfg.tol_args)
    return {"shape": cfg.shape_label, "k": cfg.k, "n": cfg.nodes(), **verdict}


def _cmd_bounds(cfg: RunConfig):
    verdict = bounds_verdict(_tensor(cfg), *cfg.tol_args)
    _expect(np.isfinite(verdict["trace_bound_rhs"]), f"--k: {cfg.k!r} puts the trace bound out of range")
    return {"shape": cfg.shape_label, "k": cfg.k, "n": cfg.nodes(), **verdict}


def _cmd_eshelby(cfg: RunConfig):
    if cfg.shape.dim != 2:
        raise ConfigError("--shape: eshelby requires a 2D shape")
    grid = _grid(cfg)
    try:
        sample = default_interior_sample(cfg.shape, grid)
    except ResolutionError as exc:
        raise ConfigError(f"--n: {exc}") from exc
    return {
        "shape": cfg.shape_label,
        "ks": list(cfg.ks),
        "n": cfg.nodes(),
        **uniformity_verdict(grid, cfg.ks, sample, cfg.shape_label, *cfg.tol_args),
    }


def _cmd_newtonian(cfg: RunConfig):
    try:
        verdict = quadratic_verdict(cfg.shape, *cfg.tol_args)
    except InvalidShapeError as exc:
        raise ConfigError(f"--shape: {exc}") from exc
    return {"shape": cfg.shape_label, **verdict}


def _cmd_elastic_identity(cfg: RunConfig):
    shape = cfg.shape
    if not isinstance(shape, Ellipsoid):
        raise ConfigError("--shape: elastic-identity requires an ellipsoid shape")
    lame = cfg.lame if cfg.lame is not None else LameParams(2.0, 1.0, 1.0, 0.5)
    n = cfg.nodes(64)
    grid = discretize(shape, n)
    pts = interior_points(shape, 20, 0.3 * min(shape.c1, shape.c2, shape.c3))
    return {
        "shape": cfg.shape_label,
        "lame": asdict(lame),
        "kolosov_matrix": kolosov(lame.lam, lame.mu),
        "grid": [n, 2 * n],
        "points": len(pts.points),
        **identity_verdict(grid, lame, pts.points, *cfg.tol_args),
    }


def _cmd_hodograph(cfg: RunConfig):
    shape = cfg.shape
    if not isinstance(shape, Ellipse):
        raise ConfigError("--shape: hodograph requires an ellipse shape")
    cert = slit_certificate(shape.a, shape.b, *cfg.tol_args)
    return {"shape": cfg.shape_label, **cert}


def _cmd_shapeopt(cfg: RunConfig):
    problem = OptProblem(k=cfg.k)
    try:
        problem = replace(problem, n=cfg.nodes())
    except ConfigError as exc:
        raise ConfigError(f"--n: {exc}") from exc
    start = problem.start()
    trace = minimize_trace(problem, start)
    verdict = disk_verdict(problem, trace, *cfg.tol_args)
    passed = verdict.pop("passed")
    out_dir = cfg.out if cfg.out is not None else "."
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, "shapeopt_trace.jsonl")
    with open(trace_path, "w", encoding="utf-8") as fh:
        fh.write(to_jsonl(trace.history))
    svg_path = os.path.join(out_dir, "shapeopt_overlay.svg")
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(overlay_svg(problem, trace, start))
    return {
        "k": cfg.k,
        "area": problem.area,
        "modes": problem.m_max,
        "n": problem.n,
        "disk_value": problem.disk_value,
        "final_objective": trace.final_objective,
        "gap": trace.gap,
        **verdict,
        "evaluations": trace.evaluations,
        "converged": trace.converged,
        "trace_file": trace_path,
        "svg_file": svg_path,
        "passed": passed,
    }


def _cmd_suite(cfg: RunConfig):
    from .acceptance import run_all

    records = run_all(seed=cfg.seed)
    return {"criteria": records, "passed": all(r["passed"] for r in records)}


@dataclass(frozen=True)
class _Command:
    """A subcommand: handler, help, the only flags it takes, --shape default, --k help."""

    handler: Callable[[RunConfig], dict]
    help: str
    flags: str
    shape: str | None = None
    k_help: str = "conductivity contrast"


_COMMANDS = {
    "pt": _Command(_cmd_pt, "polarization tensor of a shape", "--shape --k --n --tol --out"),
    "bounds": _Command(_cmd_bounds, "trace bounds and their slack", "--shape --k --n --tol --out"),
    "eshelby": _Command(
        _cmd_eshelby,
        "interior-field uniformity table",
        "--shape --k --n --tol --out --format",
        k_help="conductivity contrast (comma list allowed)",
    ),
    "newtonian": _Command(_cmd_newtonian, "quadratic interior-potential fit", "--shape --tol --out"),
    "elastic-identity": _Command(
        _cmd_elastic_identity,
        "elastic single-layer trace identities",
        "--shape --lame --n --tol --out",
        shape="ellipsoid:2,1.5,1",
    ),
    "hodograph": _Command(_cmd_hodograph, "slit-map certificate for an ellipse", "--shape --tol --out"),
    "shapeopt": _Command(_cmd_shapeopt, "trace-minimizing shape search", "--k --n --tol --out"),
    "suite": _Command(_cmd_suite, "full acceptance battery", "--seed --out"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inclab",
        description=(
            "Numerical laboratory for inclusion problems: polarization "
            "tensors, trace bounds, uniform interior fields, Newtonian "
            "potentials, elastic trace identities, slit maps, and "
            "trace-minimizing shape search."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        options = {
            "--shape": dict(
                required=cmd.shape is None,
                default=cmd.shape,
                help="inline form 'type:params' (ellipse:a,b, ellipsoid:c1,c2,c3, "
                "box:h1,h2,h3, polygon:x1,y1,..., star:r0,m,c,s[,...]), an alias "
                "(disk, square, kite, star), or @file.json",
            ),
            "--k": dict(default="3", help=cmd.k_help),
            "--lame": dict(default=None, help="lam,mu,lam_inc,mu_inc"),
            "--n": dict(type=int, default=None, help="boundary resolution"),
            "--tol": dict(type=float, default=None, help="check tolerance"),
            "--out": dict(default=None, help="artifact output directory"),
            "--format": dict(
                dest="fmt", choices=("json", "csv"), default=None, help="stdout format"
            ),
            "--seed": dict(type=int, default=0, help="seed for sampled checks"),
        }
        p = sub.add_parser(name, help=cmd.help)
        for flag in cmd.flags.split():
            p.add_argument(flag, **options[flag])
    return parser


def _make_config(args: argparse.Namespace) -> RunConfig:
    shape_label = None
    shape = None
    if getattr(args, "shape", None) is not None:
        shape_label, shape = parse_shape(args.shape)
    ks: tuple[float, ...] = ()
    if getattr(args, "k", None) is not None:
        values = _parse_floats(args.k, "--k")
        _expect(bool(values), "--k: needs at least one value")
        _expect(all(0 < v != 1 for v in values), "--k: contrasts must be positive and not 1")
        ks = tuple(values)
    lame = _parse_lame(args.lame) if getattr(args, "lame", None) else None
    tol = getattr(args, "tol", None)
    if tol is not None and not (0 < tol < np.inf):
        raise ConfigError("--tol: must be positive and finite")
    n = getattr(args, "n", None)
    if n is not None and n < 16:
        raise ConfigError("--n: must be at least 16")
    fmt = getattr(args, "fmt", None)
    if fmt is None:
        fmt = "csv" if args.command == "eshelby" else "json"
    return RunConfig(
        command=args.command,
        shape_label=shape_label,
        shape=shape,
        ks=ks,
        lame=lame,
        n=n,
        tol=tol,
        out=getattr(args, "out", None),
        fmt=fmt,
        seed=getattr(args, "seed", 0),
    )


def _emit(cfg: RunConfig, report: dict) -> str:
    """The report as printed: one line per criterion for ``suite``, the rows
    as CSV for ``--format csv``, JSON otherwise."""
    if cfg.command == "suite":
        return "".join(
            f"criterion {rec['id']:02d} {'PASS' if rec['passed'] else 'FAIL'} "
            f"{rec['name']}: {rec['detail']}\n"
            for rec in report["criteria"]
        )
    if cfg.fmt == "csv":
        rows = report["rows"]
        return to_csv(list(rows[0]), [list(row.values()) for row in rows])
    return to_json(report) + "\n"


def run(argv=None) -> int:
    """Parse, dispatch, print, and map outcomes to exit codes."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _make_config(args)
        report = {"command": cfg.command, **_COMMANDS[cfg.command].handler(cfg)}
    except (ConfigError, InvalidShapeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InclabError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    text = _emit(cfg, report)
    sys.stdout.write(text)
    if cfg.out is not None and cfg.command != "shapeopt":
        os.makedirs(cfg.out, exist_ok=True)
        ext = "txt" if cfg.command == "suite" else cfg.fmt
        path = os.path.join(cfg.out, f"{cfg.command}.{ext}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0 if report["passed"] else 1


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
