"""Command-line entry point binding all modules.

Every subcommand computes a report, prints it (deterministically
serialized), optionally writes it under ``--out``, and exits 0 only when
the checks it ran passed their tolerances.  Configuration problems exit
2 with the flag at fault named; numerical check failures exit 1.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import itertools
import json
import os
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass, replace

import numpy as np

from .acceptance import DISK, ELLIPSE21, ELLIPSE41, KITE, SQUARE, STAR3, run_all
from .elastostatics import LameParams, identity_verdict, kolosov
from .errors import (ConfigError, EmptySampleError, InclabError, InvalidShapeError,
                     NearBoundaryError, ResolutionError)
from .geometry import SHAPE_TYPES, Ellipse, Ellipsoid, ShapeSpec, discretize
from .hodograph import slit_certificate
from .newtonian import quadratic_verdict
from .polarization import bound_gap_scan, closed_form_pt, polarization_tensor, pt_verdict
from .serialize import to_csv, to_json, to_jsonl
from .shapeopt import OptProblem, disk_verdict, minimize_trace, overlay_svg
from .transmission import uniformity_verdict

__all__ = ["parse_shape", "run", "main"]

# the battery's named shapes, so a report on "square" is one on acceptance.SQUARE
_SHAPE_ALIASES = {"disk": DISK, "square": SQUARE, "kite": KITE, "star": STAR3}

# the shapes of the bound table, in its row order, by their labels there
_TABLE_SHAPES = {"disk": DISK, "ellipse 2:1": ELLIPSE21, "ellipse 4:1": ELLIPSE41,
                 "square": SQUARE, "kite": KITE, "three-lobed star": STAR3}


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
        return lowered, _SHAPE_ALIASES[lowered]
    kind, _, params = raw.partition(":")
    return raw, _build_shape(kind.strip().lower(), _parse_floats(params, "--shape"))


def _build_shape(kind: str, v: list[float]) -> ShapeSpec:
    """Shape of type ``kind`` from its parameters in the inline ``--shape`` order.

    Every value must be finite and their count must fit the type: its
    fewest, or more by whole items of a last field of lists; a violation,
    or a constructor's refusal, is a ConfigError naming --shape.
    """
    for value in v:
        _expect(np.isfinite(value), f"--shape: '{value}' is not a finite number")
    _expect(kind in SHAPE_TYPES, f"--shape: unknown shape type '{kind}'")
    cls, form, least, widths = SHAPE_TYPES[kind]
    n, w = len(v), widths[-1] or 0
    _expect(n == least or (w and n > least and (n - least) % w == 0),
            f"--shape: {kind} takes {form}")
    scalars = widths.count(None)
    args = v[:scalars]
    if scalars < len(widths):
        rest = v[scalars:]
        args.append(tuple(zip(*(rest[j::w] for j in range(w)))) if w else tuple(rest))
    try:
        return cls(*args)
    except InvalidShapeError as exc:
        raise ConfigError(f"--shape: {exc}") from exc


def _shape_from_json(payload, path: str) -> tuple[str, ShapeSpec]:
    """Shape from a parsed JSON file: the type's constructor arguments and no other key."""
    _expect(isinstance(payload, dict) and "type" in payload,
            f"--shape: {path} must be an object with a 'type' field")
    kind = str(payload["type"]).lower()
    _expect(kind in SHAPE_TYPES, f"--shape: unknown shape type '{kind}'")
    cls, _, _, widths = SHAPE_TYPES[kind]
    keys = list(inspect.signature(cls).parameters)
    for key in payload:
        _expect(key == "type" or key in keys, f"--shape: {kind} in {path} takes no key '{key}'")
    values = []
    for key, width in zip(keys, widths):
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


def _parse_contrasts(text: str) -> tuple[float, ...]:
    """``--k`` as contrasts, at least one, each finite, positive and not 1, or a ConfigError."""
    values = _parse_floats(text, "--k")
    _expect(bool(values), "--k: needs at least one value")
    _expect(all(0 < v != 1 for v in values), "--k: contrasts must be positive and not 1")
    return tuple(values)


def _expect(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _named(flag: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a ConfigError it raises is refused naming ``flag``."""
    try:
        return build(*args, **kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommand handlers: each takes the configured namespace and returns the
# report after its "command" field; its "passed" sets the exit
# ---------------------------------------------------------------------------


def _cmd_tensor(args):
    """``pt`` and ``bounds``: the closed-form tensor in 3D (``discretize`` refuses a 3D
    shape without one), a boundary solve otherwise, and its one verdict; a contrast
    that puts the tensor or the trace bound beyond the floats is refused naming --k."""
    shape, k = args.shape, args.k
    pt = closed_form_pt(shape, k) if shape.dim == 3 else None
    pt = pt if pt is not None else polarization_tensor(discretize(shape, args.n), k)
    _expect(np.isfinite(pt.M).all(), f"--k: {k!r} puts the polarization tensor out of range")
    verdict = pt_verdict(shape, pt)
    _expect(np.isfinite(verdict["trace_bound_rhs"]),
            f"--k: {k!r} puts the trace bound out of range")
    return {"shape": args.label, "k": k, "n": args.n, **verdict}


def _cmd_eshelby(args):
    _expect(args.shape.dim == 2, "--shape: eshelby requires a 2D shape")
    verdict = uniformity_verdict(discretize(args.shape, args.n), args.ks)
    verdict["rows"] = [{"shape": args.label, **row} for row in verdict["rows"]]
    return {"shape": args.label, "ks": list(args.ks), "n": args.n, **verdict}


def _cmd_newtonian(args):
    return {"shape": args.label, **quadratic_verdict(args.shape)}


def _cmd_elastic_identity(args):
    shape, lame = args.shape, args.lame
    _expect(isinstance(shape, Ellipsoid), "--shape: elastic-identity requires an ellipsoid shape")
    return {
        "shape": args.label,
        "lame": asdict(lame),
        "kolosov_matrix": kolosov(lame.lam, lame.mu),
        "grid": [args.n, 2 * args.n],
        **identity_verdict(discretize(shape, args.n), lame),
    }


def _cmd_hodograph(args):
    _expect(isinstance(args.shape, Ellipse), "--shape: hodograph requires an ellipse shape")
    return {"shape": args.label, **slit_certificate(args.shape.a, args.shape.b)}


def _cmd_shapeopt(args):
    problem = _named("--n", replace, _named("--k", OptProblem, args.k), n=args.n)
    trace = minimize_trace(problem, problem.start())
    verdict = disk_verdict(problem, trace)
    passed = verdict.pop("passed")
    trace_path, svg_path = args.files
    with open(trace_path, "w", encoding="utf-8") as fh:
        fh.write(to_jsonl(trace.history))
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(overlay_svg(problem, trace))
    return {
        "k": args.k,
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


def _cmd_bound_table(args):
    # the scan's records come contrast by contrast, one per shape
    records = bound_gap_scan(list(_TABLE_SHAPES.values()), *args.ks)
    labels = itertools.product(args.ks, _TABLE_SHAPES)
    rows = [{"shape": name, "k": k, **rec} for (k, name), rec in zip(labels, records)]
    return {"rows": rows, "passed": all(row["passed"] for row in rows)}


def _cmd_suite(args):
    records = run_all()
    return {"criteria": records, "passed": all(r["passed"] for r in records)}


@dataclass(frozen=True)
class _Command:
    """A subcommand: handler, help, the only flags it takes, --shape default,
    whether --k takes a comma list, --n default and format."""

    handler: Callable[[argparse.Namespace], dict]
    help: str
    flags: str
    shape: str | None = None
    k_list: bool = False
    n: int = 256
    fmt: str = "json"


_COMMANDS = {
    "pt": _Command(_cmd_tensor, "polarization tensor of a shape", "--shape --k --n --out"),
    "bounds": _Command(_cmd_tensor, "trace bounds and their slack", "--shape --k --n --out"),
    "eshelby": _Command(
        _cmd_eshelby,
        "interior-field uniformity table",
        "--shape --k --n --out --format",
        k_list=True,
        fmt="csv",
    ),
    "newtonian": _Command(_cmd_newtonian, "quadratic interior-potential fit", "--shape --out"),
    "elastic-identity": _Command(
        _cmd_elastic_identity,
        "elastic single-layer trace identities",
        "--shape --lame --n --out",
        shape="ellipsoid:2,1.5,1",
        n=64,
    ),
    "hodograph": _Command(_cmd_hodograph, "slit-map certificate for an ellipse", "--shape --out"),
    "shapeopt": _Command(_cmd_shapeopt, "trace-minimizing shape search", "--k --n --out"),
    "bound-table": _Command(
        _cmd_bound_table,
        "inverse-trace bound slack of the battery's named shapes",
        "--k --out",
        k_list=True,
        fmt="csv",
    ),
    "suite": _Command(_cmd_suite, "full acceptance battery", "--out", fmt="txt"),
}


@functools.cache
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
    forms = ", ".join(f"{kind}:{form}" for kind, (_, form, *_) in SHAPE_TYPES.items())
    for name, cmd in _COMMANDS.items():
        options = {
            "--shape": dict(
                required=cmd.shape is None,
                default=cmd.shape,
                help=f"inline form 'type:params' ({forms}), an alias "
                "(disk, square, kite, star), or @file.json",
            ),
            "--k": dict(default="3", help="conductivity contrast (comma list allowed)"
                        if cmd.k_list else "conductivity contrast"),
            "--lame": dict(default="2,1,1,0.5", help="lam,mu,lam_inc,mu_inc"),
            "--n": dict(type=int, help="boundary resolution"),
            "--out": dict(help="artifact output directory"),
            "--format": dict(dest="fmt", choices=("json", "csv"), help="stdout format"),
        }
        p = sub.add_parser(name, help=cmd.help)
        for flag in cmd.flags.split():
            p.add_argument(flag, **options[flag])
        p.set_defaults(n=cmd.n, fmt=cmd.fmt)
    return parser


def _configure(args: argparse.Namespace):
    """Check the command's flags in order and parse them in place: --shape
    into ``label`` and ``shape``, --k into ``ks`` and its first value ``k``,
    --lame into LameParams, --out into the ``files`` written (none a directory)."""
    if "shape" in args:
        args.label, args.shape = parse_shape(args.shape)
    if "k" in args:
        args.ks = _parse_contrasts(args.k)
        _expect(len(args.ks) == 1 or _COMMANDS[args.command].k_list,
                f"--k: {args.command} takes one contrast")
        args.k = args.ks[0]
    if "lame" in args:
        values = _parse_floats(args.lame, "--lame")
        _expect(len(values) == 4, "--lame: takes lam,mu,lam_inc,mu_inc")
        args.lame = _named("--lame", LameParams, *values)
    _expect(args.n >= 16, "--n: must be at least 16")
    if args.out is not None:
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out: {exc}") from exc
    names = ("shapeopt_trace.jsonl", "shapeopt_overlay.svg")
    if args.command != "shapeopt":
        names = () if args.out is None else (f"{args.command}.{args.fmt}",)
    args.files = [os.path.join(args.out or ".", name) for name in names]
    for path in args.files:
        _expect(not os.path.isdir(path), f"--out: {path} is a directory")


def _emit(fmt: str, report: dict) -> str:
    """The report as printed: one line per criterion as txt, the rows as
    csv, JSON otherwise."""
    if fmt == "txt":
        return "".join(
            f"criterion {rec['id']:02d} {'PASS' if rec['passed'] else 'FAIL'} "
            f"{rec['name']}: {rec['detail']}\n"
            for rec in report["criteria"]
        )
    if fmt == "csv":
        rows = report["rows"]
        return to_csv(list(rows[0]), [list(row.values()) for row in rows])
    return to_json(report) + "\n"


# refusals, by the flag whose value they refuse (a ConfigError names its own; a
# shape with no interior room at its own margin, or a polygon too thin for any
# grid under the node cap, such as a sliver, is --shape's)
_FLAG_AT_FAULT = {ConfigError: "", InvalidShapeError: "--shape: ", EmptySampleError: "--shape: ",
                  ResolutionError: "--n: ", NearBoundaryError: "--n: "}


def run(argv=None) -> int:
    """Parse, dispatch, print, and map outcomes to exit codes."""
    args = _build_parser().parse_args(argv)
    made, path = [], args.out  # --out and its missing parents, deepest first
    while path and not os.path.exists(path):
        made, path = [*made, path], os.path.dirname(path)
    try:
        _configure(args)
        report = {"command": args.command, **_COMMANDS[args.command].handler(args)}
    except InclabError as exc:
        for path in made:  # a run that ends without a report leaves no --out behind
            with contextlib.suppress(OSError):
                os.rmdir(path)
        if type(exc) in _FLAG_AT_FAULT:
            flag = _FLAG_AT_FAULT[type(exc)]
            if flag == "--n: " and "--n" not in _COMMANDS[args.command].flags.split():
                flag = "--shape: "  # the command fixes its grid size, so only the shape can change
            print(f"config error: {flag}{exc}", file=sys.stderr)
            return 2
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    text = _emit(args.fmt, report)
    sys.stdout.write(text)
    if args.command != "shapeopt":
        for path in args.files:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    return 0 if report["passed"] else 1


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
