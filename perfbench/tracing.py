"""Per-layer spans recorded from outside the program.

The tracer wraps public functions of ``inclab`` modules and rebinds each
wrapper in every ``inclab.*`` module (and module-level dict) that holds a
reference to the original, so calls made from inside the package are seen
too: ``npo_matrix`` is called through ``layerpot``, ``transmission`` and
``acceptance``, and patching only ``layerpot`` would miss most calls.

Each span records its name, start, end, parent span, the id of the
benchmark operation in progress, and a few facts (grid sizes, point
counts). Work counts are derived from those facts after the run; they are
computed from array sizes, not measured.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import weakref
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: int
    end: float = 0.0
    facts: dict = field(default_factory=dict)
    children: list = field(default_factory=list)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _npoints(points) -> int:
    shape = getattr(points, "shape", None)
    if shape is None:
        points = list(points)
        return 1 if points and not hasattr(points[0], "__len__") else len(points)
    return 1 if len(shape) == 1 else int(shape[0])


def _grid_n(args, kwargs):
    return {"n": int(_arg(args, kwargs, 0, "grid").n)}


def _newtonian_name(args, kwargs):
    method = _arg(args, kwargs, 2, "method", "flux")
    return "newtonian.radial" if method == "radial" else "newtonian.flux"


# (module, attribute, span name or name function, facts taken from the
# call: f(args, kwargs, result) -> dict)
TARGETS = [
    ("geometry", "discretize", "geometry.discretize", lambda a, k, r: {"nodes": int(r.n)}),
    (
        "geometry",
        "interior_points",
        "geometry.interior_points",
        lambda a, k, r: {"points": len(r.points)},
    ),
    ("layerpot", "npo_matrix", "layerpot.npo_matrix", lambda a, k, r: _grid_n(a, k)),
    ("layerpot", "jump_check", "layerpot.jump_check", lambda a, k, r: _grid_n(a, k)),
    (
        "layerpot",
        "single_layer_eval",
        "layerpot.single_layer",
        lambda a, k, r: {**_grid_n(a, k), "points": _npoints(_arg(a, k, 2, "points"))},
    ),
    (
        "layerpot",
        "single_layer_gradient",
        "layerpot.single_layer",
        lambda a, k, r: {**_grid_n(a, k), "points": _npoints(_arg(a, k, 2, "points"))},
    ),
    ("transmission", "solve_density", "transmission.solve_density", lambda a, k, r: _grid_n(a, k)),
    ("transmission", "interior_field", "transmission.interior_field", None),
    (
        "transmission",
        "flux_continuity_check",
        "transmission.flux_continuity_check",
        lambda a, k, r: _grid_n(a, k),
    ),
    ("polarization", "polarization_tensor", "polarization.polarization_tensor", None),
    (
        "newtonian",
        "newtonian_potential",
        _newtonian_name,
        lambda a, k, r: {
            "points": _npoints(_arg(a, k, 1, "points")),
            "shape": repr(_arg(a, k, 0, "shape")),
        },
    ),
    ("newtonian", "quadratic_interior_fit", "newtonian.quadratic_interior_fit", None),
    ("newtonian", "depolarization_factors", "newtonian.depolarization_factors", None),
    ("newtonian", "depolarization_factors_2d", "newtonian.depolarization_factors", None),
    (
        "elastostatics",
        "trace_identity_check",
        "elastostatics.trace_identity_check",
        lambda a, k, r: {**_grid_n(a, k), "points": _npoints(_arg(a, k, 2, "points"))},
    ),
    ("elastostatics", "elastic_single_layer", "elastostatics.elastic_single_layer", None),
    ("elastostatics", "plain_kernel_moment", "elastostatics.plain_kernel_moment", None),
    ("hodograph", "univalence_check", "hodograph.univalence_check", None),
    ("hodograph", "hodograph_map", "hodograph.hodograph_map", None),
    ("shapeopt", "objective", "shapeopt.objective", None),
    ("shapeopt", "minimize_trace", "shapeopt.minimize_trace", None),
    ("serialize", "to_json", "serialize", lambda a, k, r: {"bytes": len(r.encode())}),
    ("serialize", "to_jsonl", "serialize", lambda a, k, r: {"bytes": len(r.encode())}),
    ("serialize", "to_csv", "serialize", lambda a, k, r: {"bytes": len(r.encode())}),
    ("cli", "run", "cli.run", None),
] + [
    ("acceptance", f"criterion_{cid:02d}", f"acceptance.criterion_{cid:02d}", None)
    for cid in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14)
]

CRITERIA = tuple(f"{cid:02d}" for cid in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14))

# Per-layer metrics in the order they are reported: name -> unit.
LAYER_METRICS = {}
for _layer, _stats in [
    ("geometry.discretize", ("calls", "self_ms", "nodes")),
    ("geometry.interior_points", ("calls", "self_ms", "points")),
    ("layerpot.npo_matrix", ("calls", "self_ms", "entries")),
    ("layerpot.jump_check", ("calls", "self_ms", "kernel_pairs")),
    ("layerpot.single_layer", ("calls", "self_ms", "pairs")),
    ("transmission.solve_density", ("calls", "self_ms", "factor_flops")),
    ("transmission.interior_field", ("calls", "self_ms")),
    ("transmission.flux_continuity_check", ("calls", "self_ms", "kernel_pairs")),
    ("polarization.polarization_tensor", ("calls", "self_ms")),
    ("newtonian.flux", ("calls", "self_ms", "pairs")),
    ("newtonian.radial", ("calls", "self_ms")),
    ("newtonian.quadratic_interior_fit", ("self_ms",)),
    ("newtonian.depolarization_factors", ("self_ms",)),
    ("elastostatics.trace_identity_check", ("calls", "self_ms", "pairs")),
    ("elastostatics.elastic_single_layer", ("self_ms",)),
    ("elastostatics.plain_kernel_moment", ("self_ms",)),
    ("hodograph.univalence_check", ("calls", "self_ms")),
    ("hodograph.hodograph_map", ("calls", "self_ms")),
    ("shapeopt.objective", ("calls", "self_ms", "p50_ms", "p90_ms", "penalized")),
    ("shapeopt.minimize_trace", ("self_ms",)),
    ("serialize", ("calls", "self_ms", "bytes")),
    ("cli.run", ("calls", "self_ms")),
]:
    for _stat in _stats:
        LAYER_METRICS[f"{_layer}.{_stat}"] = "ms" if _stat.endswith("_ms") else "count"
LAYER_METRICS["transmission.assemblies_per_grid"] = "ratio"
LAYER_METRICS["cli.reports_identical"] = "share"
for _cid in CRITERIA:
    LAYER_METRICS[f"acceptance.criterion_{_cid}.total_ms"] = "ms"
LAYER_METRICS["trace.wall_s"] = "s"
LAYER_METRICS["trace.spans"] = "count"
LAYER_METRICS["trace.selfcheck_failures"] = "count"

# Metrics that must repeat exactly between two traced runs of one seed.
COUNT_METRICS = tuple(
    name
    for name, unit in LAYER_METRICS.items()
    if unit in ("count", "ratio") and name != "trace.selfcheck_failures"
)


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = -1
        self.npo_grids = 0
        self._live_grids: dict = {}

    def _note_grid(self, grid) -> None:
        # Count distinct grid objects K* was assembled on; an id is reused
        # only after its grid is freed, so a weak reference tells them apart.
        key = id(grid)
        ref = self._live_grids.get(key)
        if ref is None or ref() is not grid:
            self.npo_grids += 1
            self._live_grids[key] = weakref.ref(
                grid, lambda _r, key=key: self._live_grids.pop(key, None)
            )

    def wrap(self, fn, name, facts):
        tracer = self

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            parent = tracer.stack[-1] if tracer.stack else None
            index = len(tracer.spans)
            span = Span(label, time.perf_counter(), parent, tracer.op)
            tracer.spans.append(span)
            if parent is not None:
                tracer.spans[parent].children.append(index)
            tracer.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
            if facts is not None:
                span.facts.update(facts(args, kwargs, result))
            if label == "layerpot.npo_matrix":
                tracer._note_grid(_arg(args, kwargs, 0, "grid"))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self) -> None:
        import importlib

        for module_name, attr, name, facts in TARGETS:
            module = importlib.import_module(f"inclab.{module_name}")
            rebind(getattr(module, attr), self.wrap(getattr(module, attr), name, facts))

    # -- aggregation -----------------------------------------------------

    def self_ms(self, span: Span) -> float:
        return span.ms - sum(self.spans[c].ms for c in span.children)

    def _descendants(self, span: Span, name: str) -> list[Span]:
        out = []
        todo = list(span.children)
        while todo:
            child = self.spans[todo.pop()]
            if child.name == name:
                out.append(child)
            todo.extend(child.children)
        return out

    def _fine_nodes(self, span: Span) -> int:
        nodes = [self.spans[c].facts.get("nodes", 0) for c in span.children
                 if self.spans[c].name == "geometry.discretize"]
        return max(nodes) if nodes else span.facts["n"]

    def metrics(self, wall_s: float) -> dict:
        """Every per-layer metric; layers the workload never reached read 0."""
        out = {name: 0 for name in LAYER_METRICS}
        flux_nodes: dict = {}
        objective_ms = []
        for span in self.spans:
            name = span.name
            if name.startswith("acceptance."):
                out[f"{name}.total_ms"] += span.ms
                continue
            if f"{name}.calls" in out:
                out[f"{name}.calls"] += 1
            if f"{name}.self_ms" in out:
                out[f"{name}.self_ms"] += self.self_ms(span)
            facts = span.facts
            if name == "geometry.discretize":
                out["geometry.discretize.nodes"] += facts["nodes"]
            elif name == "geometry.interior_points":
                out["geometry.interior_points.points"] += facts["points"]
            elif name == "layerpot.npo_matrix":
                out["layerpot.npo_matrix.entries"] += facts["n"] ** 2
            elif name in ("layerpot.jump_check", "transmission.flux_continuity_check"):
                # four probes per node against every node of the fine grid
                out[f"{name}.kernel_pairs"] += 4 * facts["n"] * self._fine_nodes(span)
            elif name == "layerpot.single_layer":
                out["layerpot.single_layer.pairs"] += facts["points"] * facts["n"]
            elif name == "transmission.solve_density":
                out["transmission.solve_density.factor_flops"] += 2 * facts["n"] ** 3
            elif name == "newtonian.flux":
                # the flux route caches one boundary grid per shape; its size
                # is known from the discretize call of the shape's first use
                # (boxes use a closed form and have no grid)
                grids = self._descendants(span, "geometry.discretize")
                if grids:
                    flux_nodes[facts["shape"]] = grids[0].facts["nodes"]
                out["newtonian.flux.pairs"] += facts["points"] * flux_nodes.get(facts["shape"], 0)
            elif name == "elastostatics.trace_identity_check":
                out["elastostatics.trace_identity_check.pairs"] += facts["points"] * facts["n"]
            elif name == "shapeopt.objective":
                objective_ms.append(span.ms)
                if not self._descendants(span, "polarization.polarization_tensor"):
                    out["shapeopt.objective.penalized"] += 1
            elif name == "serialize":
                out["serialize.bytes"] += facts["bytes"]
        out["transmission.solve_density.factor_flops"] //= 3
        if self.npo_grids:
            out["transmission.assemblies_per_grid"] = (
                out["layerpot.npo_matrix.calls"] / self.npo_grids
            )
        if objective_ms:
            out["shapeopt.objective.p50_ms"] = statistics.median(objective_ms)
            out["shapeopt.objective.p90_ms"] = statistics.quantiles(
                objective_ms, n=10, method="inclusive"
            )[8] if len(objective_ms) > 1 else objective_ms[0]
        out["trace.wall_s"] = wall_s
        out["trace.spans"] = len(self.spans)
        return out

    def self_check(self) -> list[str]:
        """Compare span counts with what the program's code implies.

        Two K* assemblies per unpenalized objective evaluation (one
        ``solve_density`` per direction, each assembling K*), and three
        ``jump_check`` calls in criterion 01 (densities 1, n1, n2).
        Returns one message per mismatch.
        """
        problems = []
        for span in self.spans:
            if span.name == "shapeopt.objective":
                if self._descendants(span, "polarization.polarization_tensor"):
                    got = len(self._descendants(span, "layerpot.npo_matrix"))
                    if got != 2:
                        problems.append(f"objective evaluation with {got} npo_matrix calls, expected 2")
            elif span.name == "acceptance.criterion_01":
                got = len(self._descendants(span, "layerpot.jump_check"))
                if got != 3:
                    problems.append(f"criterion 01 made {got} jump_check calls, expected 3")
        return sorted(set(problems))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "op": span.op,
                }
                record.update(span.facts)
                fh.write(json.dumps(record) + "\n")


def rebind(original, replacement) -> int:
    """Point every reference an ``inclab`` module holds to ``original`` at
    ``replacement``: module attributes and values of module-level dicts."""
    count = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "inclab" or module_name.startswith("inclab.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                count += 1
            elif isinstance(value, dict):
                for dkey, dvalue in list(value.items()):
                    if dvalue is original:
                        value[dkey] = replacement
                        count += 1
    return count
