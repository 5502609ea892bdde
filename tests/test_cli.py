import contextlib
import csv
import dataclasses
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st


from inclab import cli, geometry, layerpot
from inclab.cli import parse_shape, run
from inclab import ConfigError, Ellipse, FourierStar, Polygon, acceptance, discretize, transmission
from inclab import Ellipsoid, LameParams
from inclab.elastostatics import identity_verdict
from inclab.shapeopt import OptProblem


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_shape_aliases():
    # each name is the battery's own shape, which perfbench pairs with the
    # same label, and equals the inline form it abbreviates
    for alias, shape, inline in [
        ("disk", acceptance.DISK, "ellipse:1,1"),
        ("Square", acceptance.SQUARE, "polygon:0,0,1,0,1,1,0,1"),
        ("kite", acceptance.KITE, "polygon:1,0,0,0.7,-0.6,0,0,-0.7"),
        ("star", acceptance.STAR3, "star:1,3,0.2,0"),
    ]:
        label, parsed = parse_shape(alias)
        assert label == alias.lower() and parsed is shape
        assert parse_shape(inline)[1] == shape


def test_parse_shape_inline_forms():
    assert parse_shape("ellipse:2,1")[1] == Ellipse(2.0, 1.0)
    assert parse_shape("star:1,3,0.2,0")[1] == FourierStar(1.0, ((3, 0.2, 0.0),))
    poly = parse_shape("polygon:0,0,2,0,0,1")[1]
    assert isinstance(poly, Polygon) and len(poly.vertices) == 3


def _readme_shape_examples():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = re.search(r"file: `@shape.json` with one of\s+```json\n(.*?)```", fh.read(), re.S)
    return [json.loads(line) for line in block.group(1).splitlines()]


@pytest.mark.parametrize("example", _readme_shape_examples(), ids=lambda e: e["type"])
def test_shape_fields_are_the_json_keys_of_the_grammar(tmp_path, example):
    # a shape holds exactly what --shape can set: no placement or other
    # field that no input reaches
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(example))
    shape = parse_shape(f"@{path}")[1]
    assert [f.name for f in dataclasses.fields(shape)] == [k for k in example if k != "type"]


@pytest.mark.parametrize("kind", list(geometry.SHAPE_TYPES))
def test_every_registered_shape_parses_from_both_forms_to_one_shape(capsys, tmp_path, kind):
    # the README's JSON example of each registered type, and the same numbers
    # inline, in the order of the type's layout
    example = {e["type"]: e for e in _readme_shape_examples()}[kind]
    cls, form, _, layout = geometry.SHAPE_TYPES[kind]
    numbers = []
    for key, width in zip(inspect.signature(cls).parameters, layout):
        value = example[key]
        numbers += [value] if width is None else sum(value, []) if width else value
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(example))
    from_file = parse_shape(f"@{path}")[1]
    assert type(from_file) is cls
    assert from_file == parse_shape(f"{kind}:" + ",".join(map(repr, numbers)))[1]
    with pytest.raises(SystemExit):
        run(["pt", "--help"])
    assert f"{kind}:{form}" in " ".join(capsys.readouterr().out.split())


@pytest.fixture
def rect():
    """A shape class defined outside the package: the rectangle [0, w] x [0, h]
    as a polygon, registered as --shape type rect until the test ends."""

    @geometry.shape_type("rect", "w,h", 2, (None, None))
    class Rect(Polygon):
        def __init__(self, w, h):
            super().__init__(((0.0, 0.0), (w, 0.0), (w, h), (0.0, h)))

    yield Rect
    del geometry.SHAPE_TYPES["rect"]


@pytest.mark.parametrize("command", ["pt", "bounds", "eshelby", "newtonian"])
def test_a_registered_class_is_all_a_new_shape_takes(capsys, rect, command):
    # only the label differs from the same rectangle given as a polygon
    poly = "polygon:0,0,2,0,2,1,0,1"
    code, out, err = _run(capsys, command, "--shape", "rect:2,1")
    assert (code, out.replace("rect:2,1", poly), err) == _run(capsys, command, "--shape", poly)
    assert "rect:2,1" in out and not err


def test_a_registered_class_takes_its_constructor_arguments_as_json_keys(tmp_path, rect):
    path = tmp_path / "rect.json"
    path.write_text('{"type": "rect", "w": 2, "h": 1}')
    assert parse_shape(f"@{path}")[1] == parse_shape("rect:2,1")[1] == rect(2.0, 1.0)


def test_parse_shape_rejects_malformed():
    with pytest.raises(ConfigError):
        parse_shape("ellipse:2")
    with pytest.raises(ConfigError):
        parse_shape("ellipse:2,zebra")
    with pytest.raises(ConfigError):
        parse_shape("heptagram:1")


def test_parse_shape_from_json_file(tmp_path):
    path = tmp_path / "shape.json"
    path.write_text('{"type": "ellipse", "a": 3.0, "b": 1.5}')
    label, shape = parse_shape(f"@{path}")
    assert shape == Ellipse(3.0, 1.5)
    assert label == "shape.json"
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "ellipse", "a": 3.0}')
    with pytest.raises(ConfigError):
        parse_shape(f"@{bad}")
    star = tmp_path / "star.json"
    star.write_text('{"type": "star", "r0": 1.0, "modes": [[3, 0.2, 0.0], [5, 0.0, 0.1]]}')
    assert parse_shape(f"@{star}")[1] == FourierStar(1.0, ((3, 0.2, 0.0), (5, 0.0, 0.1)))
    square = tmp_path / "square.json"
    square.write_text('{"type": "polygon", "vertices": [[0,0], [1,0], [1,1], [0,1]]}')
    assert parse_shape(f"@{square}")[1] == parse_shape("square")[1]
    for name, text, message in (
        ("blob.json", '{"type": "blob"}', "--shape: unknown shape type 'blob'"),
        ("nan.json", '{"type":"polygon","vertices":[[0,0],[1,0],[NaN,1]]}',
         "--shape: 'nan' is not a finite number"),
        ("inf.json", '{"type":"ellipse","a":Infinity,"b":1}',
         "--shape: 'inf' is not a finite number"),
        ("box.json", '{"type": "box", "half": [0.5, 0.5]}', "--shape: box takes h1,h2,h3"),
        ("cw.json", '{"type":"polygon","vertices":[[0,0],[0,1],[1,1],[1,0]]}',
         "--shape: polygon vertices must be counterclockwise"),
        # JSON numbers only, in lists of the documented arity, and no other key
        ("str.json", '{"type":"box","half":"123"}', "--shape: 'half' in {} must be a list"),
        ("digits.json", '{"type":"polygon","vertices":["00","10","01"]}',
         "--shape: 'vertices' in {} must hold lists of 2 numbers"),
        ("bool.json", '{"type":"ellipse","a":true,"b":1}',
         "--shape: 'a' in {} holds true, not a number"),
        ("extra.json", '{"type":"ellipse","a":2,"b":1,"c":9}',
         "--shape: ellipse in {} takes no key 'c'"),
        ("long.json", '{"type":"ellipse","a":1' + "0" * 400 + ',"b":1}',
         "--shape: 'a' in {} holds an integer beyond the float range"),
        ("text.json", "not json",
         "--shape: invalid JSON in {}: Expecting value: line 1 column 1 (char 0)"),
    ):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ConfigError) as info:
            parse_shape(f"@{path}")
        assert str(info.value) == message.format(path)
    with pytest.raises(ConfigError) as info:
        parse_shape(f"@{tmp_path / 'missing.json'}")
    assert str(info.value) == f"--shape: file not found: {tmp_path / 'missing.json'}"


_LENGTH = st.floats(0.1, 10.0)


@st.composite
def _shape_payloads(draw, kinds=("ellipse", "ellipsoid", "box", "polygon", "star"),
                    length=_LENGTH):
    """A JSON payload for an ellipse, ellipsoid, box, counter-clockwise
    regular polygon or star, one of ``kinds`` with its lengths drawn from
    ``length``, and the numbers of its inline form in order."""
    kind = draw(st.sampled_from(kinds))
    if kind in ("ellipse", "ellipsoid"):
        keys = ("a", "b") if kind == "ellipse" else ("c1", "c2", "c3")
        values = [draw(length) for _ in keys]
        return {"type": kind, **dict(zip(keys, values))}, values
    if kind == "box":
        half = [draw(length) for _ in range(3)]
        return {"type": kind, "half": half}, half
    if kind == "polygon":
        count, radius, turn = draw(st.integers(3, 9)), draw(length), draw(st.floats(0.0, 6.3))
        t = turn + 2 * np.pi * np.arange(count) / count
        vertices = [[float(x), float(y)] for x, y in zip(radius * np.cos(t), radius * np.sin(t))]
        return {"type": kind, "vertices": vertices}, [v for vertex in vertices for v in vertex]
    modes = draw(st.lists(st.tuples(st.integers(2, 12), st.floats(-0.05, 0.05),
                                    st.floats(-0.05, 0.05)), min_size=1, max_size=3))
    r0 = draw(length)
    return {"type": kind, "r0": r0, "modes": [list(m) for m in modes]}, [r0, *sum(modes, ())]


@settings(max_examples=60, deadline=None)
@given(_shape_payloads())
def test_inline_and_json_forms_parse_to_equal_shapes(case):
    payload, numbers = case
    inline = f"{payload['type']}:" + ",".join(map(repr, numbers))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "shape.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        from_file = parse_shape(f"@{path}")[1]
    assert from_file == parse_shape(inline)[1]


@pytest.mark.parametrize("from_json", [False, True])
def test_polygon_edges_beyond_the_float_range_are_refused_in_one_line(capsys, tmp_path, from_json):
    # the edge vectors overflow to inf; the length check refuses them with no
    # warning printed ahead of its line
    text = "polygon:-1e308,0,1e308,0,0,1e308"
    if from_json:
        path = tmp_path / "polygon.json"
        path.write_text('{"type":"polygon","vertices":[[-1e308,0],[1e308,0],[0,1e308]]}')
        text = f"@{path}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, "pt", "--shape", text)
    assert (code, out) == (2, "")
    assert err == (
        "config error: --shape: polygon edge extremes (1.4142135623730951e+308, inf) must lie "
        "within 1.2e-77 .. 1.2e+77, where their fourth powers are normal floats\n"
    )


def test_pt_passes_on_ellipse(capsys):
    code, out, _ = _run(capsys, "pt", "--shape", "ellipse:2,1", "--k", "3")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["closed_form_deviation"] <= 1e-6
    M = np.asarray(report["M"])
    assert M.shape == (2, 2)


def test_pt_output_deterministic(capsys):
    _, out1, _ = _run(capsys, "pt", "--shape", "disk", "--k", "2")
    _, out2, _ = _run(capsys, "pt", "--shape", "disk", "--k", "2")
    assert out1 == out2


def test_config_error_exit_2(capsys):
    code, _, err = _run(capsys, "pt", "--shape", "disk", "--k", "1")
    assert code == 2
    assert "k" in err
    code, _, err = _run(capsys, "pt", "--shape", "nonagon:1", "--k", "2")
    assert code == 2
    assert "--shape" in err
    for argv, message in (
        (("pt", "--shape", "disk", "--n", "32"), "config error: --n: smooth curves need n >= 64\n"),
        (("pt", "--shape", "box:1,1,1"), "config error: --shape: no boundary grid for Box\n"),
    ):
        code, out, err = _run(capsys, *argv)
        assert (code, out, err) == (2, "", message)


def test_eshelby_refuses_an_n_whose_spacing_empties_the_sample(capsys):
    # the sample margin is 3 node spacings at this n, past the minor semi-axis
    code, out, err = _run(capsys, "eshelby", "--shape", "ellipse:20,1", "--k", "3")
    assert (code, out) == (2, "")
    assert err.startswith("config error: --n: margin leaves no interior room")
    assert err.endswith(" (3 node spacings): the grid is too coarse\n")
    # at 3,1 they come to 0.88 of the minor semi-axis, and the points that
    # still fit sample a uniform field
    code, out, err = _run(capsys, "eshelby", "--shape", "ellipse:3,1", "--k", "2", "--n", "64",
                          "--format", "json")
    assert (code, err, json.loads(out)["passed"]) == (0, "", True)


def test_eshelby_on_slender_ellipses_samples_at_the_shape_clearance(capsys):
    # 3 node spacings, 0.59 of the minor semi-axis, set the sample's margin
    # here, and the field is uniform
    code, out, err = _run(capsys, "eshelby", "--shape", "ellipse:8,1", "--k", "2",
                          "--format", "json")
    rep = json.loads(out)
    assert (code, err, rep["passed"]) == (0, "", True)
    assert rep["max_delta"] <= rep["delta_tol"]
    # at the default n three node spacings exceed the minor semi-axis of 20:1
    code, out, err = _run(capsys, "eshelby", "--shape", "ellipse:20,1", "--k", "2")
    assert (code, out) == (2, "")
    assert err.startswith("config error: --n: ")
    code, out, _ = _run(capsys, "eshelby", "--shape", "ellipse:20,1", "--k", "2",
                        "--n", "2048", "--format", "json")
    assert (code, json.loads(out)["passed"]) == (0, True)


def test_eshelby_samples_at_the_shape_margin_or_three_spacings():
    shape = Ellipse(5.0, 1.0)
    for n, margin in ((256, None), (1024, shape.default_margin())):
        grid = discretize(shape, n)
        sample = transmission.default_interior_sample(grid)
        # the spacings set the margin on the coarse grid, the shape on the fine one
        assert sample.margin == max(shape.default_margin(), 3.0 * float(np.max(grid.spacing)))
        assert margin is None or sample.margin == margin
        assert len(sample.points) == 40


@pytest.mark.parametrize("argv", [
    ("pt", "--shape", "ellipse:1e-60,1", "--k", "3"),
    ("bounds", "--shape", "ellipse:1,1e-60", "--k", "3"),
    ("pt", "--shape", "ellipse:1000,1", "--k", "3"),
    ("newtonian", "--shape", "ellipse:1e-60,1"),
])
def test_ellipses_the_grid_cannot_resolve_are_refused(capsys, argv):
    # the trapezoid rule resolves an ellipse like rho^n, rho = |a - b|/(a + b);
    # here rho^n >= 1/2, and ellipse:1e-60,1 (rho rounds to 1) would pass on
    # rounding noise; a semi-axis of 1e-200 is refused by the constructor
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("config error: --shape: aspect ratio ")
    assert err.endswith(" boundary nodes resolve\n")


# the (command, shape type) pairs the CLI refuses whatever the shape's size,
# with the refusal each prints
_REFUSED_TYPES = {
    **{(command, "box"): "no boundary grid for Box" for command in ("pt", "bounds")},
    **{("eshelby", kind): "eshelby requires a 2D shape" for kind in ("ellipsoid", "box")},
    **{("hodograph", kind): "hodograph requires an ellipse shape"
       for kind in geometry.SHAPE_TYPES if kind != "ellipse"},
    **{("elastic-identity", kind): "elastic-identity requires an ellipsoid shape"
       for kind in geometry.SHAPE_TYPES if kind != "ellipsoid"},
}

_SCALED = {
    "ellipse": lambda s: f"ellipse:{2 * s!r},{s!r}",
    "ellipsoid": lambda s: f"ellipsoid:{2 * s!r},{1.5 * s!r},{s!r}",
    "polygon": lambda s: f"polygon:0,0,{s!r},0,{s!r},{s!r},0,{s!r}",
}


@pytest.mark.parametrize("kind", list(geometry.SHAPE_TYPES))
@pytest.mark.parametrize(
    "command", ["pt", "bounds", "hodograph", "eshelby", "newtonian", "elastic-identity"])
def test_verdicts_do_not_depend_on_the_scale_of_the_shape(command, kind):
    # the sample's bounding box and margin slack, the fit's coordinates, the
    # tensor's entries and trace bound, and the hodograph's lengths are
    # measured in units of the shape's scale; a drawn polygon's grid is kept small
    takes_k = command in ("pt", "bounds", "eshelby")
    flags = ["--format", "json"] if command == "eshelby" else []

    def verdict(text, *argv):
        """The exit code and ``passed`` of the command on the shape ``text``,
        and its report: one whose exit code is its verdict, or none, when
        the refusal its shape type always gets is printed instead."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([command, "--shape", text, *flags, *argv])
        if (command, kind) in _REFUSED_TYPES:
            refusal = f"config error: --shape: {_REFUSED_TYPES[command, kind]}\n"
            assert (code, out.getvalue(), err.getvalue()) == (2, "", refusal)
            return (code, None), None
        assert out.getvalue(), err.getvalue()
        report = json.loads(out.getvalue())
        assert code == (0 if report["passed"] else 1)
        return (code, report["passed"]), report

    # scales that are not powers of 2, at the default contrast and grid
    if kind in _SCALED:
        runs = [verdict(_SCALED[kind](s)) for s in (1e-10, 1.0, 1e10)]
        assert [outcome for outcome, _ in runs] == [runs[1][0]] * 3
        if (command, kind) == ("newtonian", "polygon"):
            assert min(rep["quadratic_fit"]["rms_residual"] for _, rep in runs) >= 1e-3

    @settings(max_examples=4, deadline=None)
    @given(case=_shape_payloads([kind], st.floats(0.5, 2.0)), p=st.integers(-60, 60),
           k=st.floats(0.05, 20.0).filter(lambda k: k != 1.0))
    def scaled_alike(case, p, k):
        # every inline number is a length but a star's modes, whose
        # amplitudes are relative to r0
        numbers = case[1]
        lengths = 1 if kind == "star" else len(numbers)
        argv = (["--k", repr(k)] if takes_k else []) + (
            ["--n", "16"] if takes_k and kind == "polygon" else [])
        outcomes = [verdict(f"{kind}:" + ",".join(map(repr, [
            x * 2.0**q for x in numbers[:lengths]] + numbers[lengths:])), *argv)[0] for q in (0, p)]
        assert outcomes[0] == outcomes[1], (case, p, k)

    scaled_alike()


def test_trace_bound_saturation_does_not_depend_on_the_scale_of_the_shape(capsys):
    # slack1 is judged against |trace_bound_rhs|, which has units of area
    reports = [json.loads(_run(capsys, "bounds", "--shape", f"star:{r0!r},3,0.2,0")[1])
               for r0 in (1e-4, 1.0)]
    assert [(rep["passed"], rep["saturated1"]) for rep in reports] == [(True, False)] * 2
    ratios = [rep["slack1"] / rep["trace_bound_rhs"] for rep in reports]
    assert ratios[0] == pytest.approx(ratios[1], rel=1e-9)


@pytest.mark.parametrize("shape", ["star:1,100,0.1,0", "polygon:0,0,30,0,0,1"])
def test_pt_and_bounds_print_one_report(capsys, shape):
    # one verdict judges the tensor: an under-resolved star breaks the trace
    # bound, and a 1.9 degree corner breaks the tensor's symmetry
    (code, out, err), (code_b, out_b, err_b) = (
        _run(capsys, command, "--shape", shape, "--k", "3") for command in ("pt", "bounds"))
    report, report_b = json.loads(out), json.loads(out_b)
    assert (report.pop("command"), report_b.pop("command")) == ("pt", "bounds")
    assert (code, report, err) == (code_b, report_b, err_b)
    assert (code, report["passed"]) == (1, False)


def test_bounds_on_a_tiny_sphere_is_not_singular(capsys):
    # det(M) of the 1e-50 sphere underflows to 0, though M = 5e-150 I
    code, out, err = _run(capsys, "bounds", "--shape", "ellipsoid:1e-50,1e-50,1e-50", "--k", "3")
    assert (code, err) == (0, "")
    assert json.loads(out)["passed"] is True


def test_ellipse_resolution_rule_leaves_resolved_aspect_ratios_alone():
    for a, n in ((100.0, 256), (500.0, 256), (1000.0, 512), (1.0, 64)):
        assert discretize(Ellipse(a, 1.0), n).n == n


@pytest.mark.parametrize(
    "argv",
    [
        ("pt", "--shape", "disk", "--format", "csv"),
        ("bounds", "--shape", "disk", "--lame", "2,1,1,0.5"),
        ("eshelby", "--shape", "disk", "--seed", "4"),
        ("newtonian", "--shape", "disk", "--n", "999"),
        ("elastic-identity", "--format", "csv"),
        ("hodograph", "--shape", "ellipse:2,1", "--n", "128"),
        ("shapeopt", "--k", "3", "--seed", "4"),
        ("suite", "--tol", "1e-3"),
        # the verdicts fix their tolerances, and the battery takes no seed
        ("pt", "--shape", "disk", "--tol", "1e-3"),
        ("suite", "--seed", "3"),
        # the bound table's shapes and grid are fixed, and it prints CSV only
        ("bound-table", "--n", "128"),
        ("bound-table", "--k", "3", "--format", "json"),
    ],
)
def test_subcommands_refuse_flags_they_do_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in captured.err


def test_non_finite_values_are_config_errors(capsys, tmp_path):
    nan_polygon = tmp_path / "nan_polygon.json"
    nan_polygon.write_text('{"type":"polygon","vertices":[[0,0],[1,0],[NaN,1]]}')
    inf_ellipse = tmp_path / "inf_ellipse.json"
    inf_ellipse.write_text('{"type":"ellipse","a":Infinity,"b":1}')
    for argv, flag in (
        (("pt", "--shape", f"@{nan_polygon}", "--k", "3"), "--shape"),
        (("pt", "--shape", f"@{inf_ellipse}", "--k", "3"), "--shape"),
        (("pt", "--shape", "disk", "--k", "inf"), "--k"),
        (("eshelby", "--shape", "disk", "--k", "2,nan"), "--k"),
        (("pt", "--shape", "polygon:0,0,1,0,nan,1", "--k", "3"), "--shape"),
        (("elastic-identity", "--lame", "2,1,inf,0.5"), "--lame"),
    ):
        code, out, err = _run(capsys, *argv)
        assert code == 2
        assert flag in err
        assert out == ""


@pytest.mark.parametrize("from_json", [False, True])
def test_non_integer_star_modes_are_config_errors(capsys, tmp_path, from_json):
    text = "star:1,2.5,0.1,0"
    if from_json:
        star = tmp_path / "star.json"
        star.write_text('{"type":"star","r0":1,"modes":[[2.5,0.1,0]]}')
        text = f"@{star}"
    code, out, err = _run(capsys, "pt", "--shape", text, "--k", "3")
    assert (code, out) == (2, "")
    assert err == "config error: --shape: star modes must be integers >= 2\n"


def test_eshelby_refuses_3d_shapes(capsys):
    for shape in ("ellipsoid:2,1.5,1", "box:0.5,0.5,0.5"):
        code, out, err = _run(capsys, "eshelby", "--shape", shape, "--k", "2")
        assert code == 2
        assert "--shape" in err
        assert out == ""


def test_numerical_failure_exit_1(capsys):
    # the square is genuinely non-uniform, so the uniformity check fails
    code, out, _ = _run(capsys, "eshelby", "--shape", "square", "--k", "2", "--n", "128")
    assert code == 1
    lines = [l for l in out.strip().splitlines() if l]
    assert lines[0] == "shape,k,direction,mean_gx,mean_gy,delta"
    assert len(lines) == 3


def test_eshelby_passes_on_ellipse(capsys):
    # the README's command, at the default n
    code, out, _ = _run(capsys, "eshelby", "--shape", "ellipse:2,1", "--k", "0.5,2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["shape", "k", "direction", "mean_gx", "mean_gy", "delta"]
    assert rows[1][0] == "ellipse:2,1"
    assert all(float(row[-1]) <= 1e-6 for row in rows[1:])


def test_eshelby_label_quoting(capsys):
    # shape labels containing commas must be quoted in the CSV
    code, out, _ = _run(
        capsys, "eshelby", "--shape", "ellipse:2,1", "--k", "0.5,2", "--n", "128"
    )
    assert code == 0
    assert out.splitlines()[1].startswith('"ellipse:2,1"')


def test_bounds_json_fields(capsys):
    code, out, _ = _run(capsys, "bounds", "--shape", "star", "--k", "3", "--n", "192")
    assert code == 0
    rep = json.loads(out)
    assert rep["slack2"] >= 1e-3
    assert rep["saturated2"] is False
    assert rep["form"] == "direct"
    assert "slack_floor" in rep and "saturation_tol" in rep


def test_newtonian_cube_fails_quadratic_check(capsys):
    code, out, _ = _run(capsys, "newtonian", "--shape", "box:0.5,0.5,0.5")
    assert code == 1
    rep = json.loads(out)
    assert rep["quadratic_fit"]["rms_residual"] >= 1e-3
    assert rep["passed"] is False


def test_newtonian_ellipse_reports_factors(capsys):
    code, out, _ = _run(capsys, "newtonian", "--shape", "ellipse:2,1")
    assert code == 0
    rep = json.loads(out)
    assert rep["depolarization_factors"] == pytest.approx([1 / 3, 2 / 3], rel=1e-10)


def test_hodograph_requires_ellipse(capsys):
    code, _, err = _run(capsys, "hodograph", "--shape", "square")
    assert code == 2
    assert "ellipse" in err


@pytest.mark.parametrize("a, b", [(2, 1), (1, 2), (1, 3), (0.7, 2.5), (20, 10), (1, 1e-16)])
def test_hodograph_runs(capsys, a, b):
    # tall ellipses (b > a) too, ellipses wider than 10, the smallest fit
    # radius in units of the major semi-axis, and the most slender ellipse
    # whose exterior map (a + b)/2, (a - b)/2 stays univalent in floats
    code, out, _ = _run(capsys, "hodograph", "--shape", f"ellipse:{a},{b}")
    assert code == 0
    rep = json.loads(out)
    assert rep["univalent"] is True
    assert rep["slit_endpoint_error"] <= 1e-10
    ends = [complex(p["re"], p["im"]) for p in rep["slit"]]
    assert ends == pytest.approx([-1j * b, 1j * b], abs=1e-10)
    assert rep["leading_coefficient"] == pytest.approx(b / (a + b), abs=1e-4)


def test_elastic_identity_runs(capsys):
    code, out, _ = _run(capsys, "elastic-identity", "--lame", "2,1,1,0.5")
    assert code == 0
    rep = json.loads(out)
    assert rep["residual_matrix_phase"] <= 1e-6
    assert rep["residual_inverse_distance"] <= 1e-6


def test_elastic_identity_coarse_grid_fails_honestly(capsys):
    # on a deliberately coarse grid 3 node spacings reach past the smallest
    # semi-axis, so no point is clear of the quadrature guard; that must
    # surface as a refusal naming --n, not a silent pass
    code, out, err = _run(capsys, "elastic-identity", "--lame", "2,1,1,0.5", "--n", "16")
    assert (code, out) == (2, "")
    assert err.startswith("config error: --n: margin leaves no interior room")


def test_elastic_identity_rejects_bad_lame(capsys):
    code, _, err = _run(capsys, "elastic-identity", "--lame", "2,-1,1,0.5")
    assert code == 2
    assert "mu" in err


# every subcommand, and the first file it writes under --out
_OUT_CASES = [
    (("pt", "--shape", "disk"), "pt.json"),
    (("bounds", "--shape", "disk"), "bounds.json"),
    (("eshelby", "--shape", "disk"), "eshelby.csv"),
    (("newtonian", "--shape", "disk"), "newtonian.json"),
    (("elastic-identity",), "elastic-identity.json"),
    (("hodograph", "--shape", "disk"), "hodograph.json"),
    (("shapeopt",), "shapeopt_trace.jsonl"),
    (("bound-table",), "bound-table.csv"),
    (("suite",), "suite.txt"),
]

# (argv, the start of its one stderr line, to the end where it is fixed);
# FILE is a file in the working directory, so neither it nor a path under it
# can be the --out directory, and in the directory REPORTS each file of
# _OUT_CASES is a directory
_REFUSALS = [
    (("pt", "--shape", "nonagon:1"), "--shape: unknown shape type 'nonagon'\n"),
    # FILE holds a box whose half-widths are a string of digits, not three numbers
    (("pt", "--shape", "@FILE"), "--shape: 'half' in FILE must be a list\n"),
    (("pt", "--shape", "box:1,1,1"), "--shape: no boundary grid for Box\n"),
    (("bounds", "--shape", "ellipse:1,1e-200"),
     "--shape: ellipse semi-axes (1.0, 1e-200) must lie within 1.2e-77 .. 1.2e+77, "),
    (("pt", "--shape", "ellipsoid:1e-300,1,1"),
     "--shape: ellipsoid semi-axes (1e-300, 1.0, 1.0) must lie within 1.2e-77 .. 1.2e+77, "),
    (("eshelby", "--shape", "ellipsoid:2,1.5,1"), "--shape: eshelby requires a 2D shape\n"),
    # no grid under the node cap resolves a valid sliver triangle's height:
    # it is refused there, before any solve, and newtonian's flux grid
    # refuses it after its sample
    *(((cmd, "--shape", "polygon:0,0,1,0,1,1e-60", *(("--k", "3") if cmd != "newtonian" else ())),
       "--shape: polygon mean width 2 area / perimeter = 5.000e-61 is below 4.768e-07, ")
      for cmd in ("pt", "bounds", "eshelby", "newtonian")),
    # a sliver parallelogram along the diagonal fills 6e-10 of its bounding
    # box: no candidate the sampler reads fits its margin
    (("newtonian", "--shape", "polygon:0,0,1e-9,0,1.000000001,1,1,1"),
     "--shape: only 0 interior points of the first 65536 candidates fit margin "),
    (("newtonian", "--shape", "ellipse:1e-200,1"),
     "--shape: ellipse semi-axes (1e-200, 1.0) must lie within 1.2e-77 .. 1.2e+77, "),
    # a mode the 4096-angle radius sample cannot integrate, refused before any
    # trigonometry; a mode the grid cannot sample names --n, or --shape where
    # the command fixes its grid (512 flux nodes here)
    (("pt", "--shape", "star:1,1e300,0.1,0"), "--shape: star modes must be below 2048, "),
    (("pt", "--shape", "star:1,128,0.1,0"),
     "--n: star mode 128 needs more than 256 boundary nodes, not 256\n"),
    (("newtonian", "--shape", "star:1,1024,0.1,0"),
     "--shape: star mode 1024 needs more than 2048 boundary nodes, not 512\n"),
    # the hodograph builds no grid: its shape's lengths are checked on construction
    (("hodograph", "--shape", "ellipse:1e-200,1e-200"),
     "--shape: ellipse semi-axes (1e-200, 1e-200) must lie within 1.2e-77 .. 1.2e+77, "),
    (("hodograph", "--shape", "ellipse:1e200,1e199"),
     "--shape: ellipse semi-axes (1e+200, 1e+199) must lie within 1.2e-77 .. 1.2e+77, "),
    # edge lengths come before the signed area, which would overflow
    (("pt", "--shape", "polygon:0,0,1e200,0,0,1e200"),
     "--shape: polygon edge extremes (1e+200, 1.414213562373095e+200) must lie within "),
    # a counterclockwise pentagram (signed area 1.47) crosses itself
    (("pt", "--shape", "polygon:0,1,-0.588,-0.809,0.951,0.309,-0.951,0.309,0.588,-0.809"),
     "--shape: polygon must be simple (no self-intersection)\n"),
    # a simple polygon whose corner at (1, -1) is a needle 1e-11 wide: the
    # graded panels of its two edges put two nodes on one point
    (("pt", "--shape", "polygon:1,1,-1,1,0.1,1e-13,1,-1,0.1,1e-11"),
     "--shape: polygon corner too sharp: two boundary nodes coincide\n"),
    # (a + b)/2 and (a - b)/2 round to one float: no univalent exterior map
    (("hodograph", "--shape", "ellipse:1,1e-17"), "--shape: ellipse semi-axes (1.0, 1e-17) must "),
    (("hodograph", "--shape", "ellipse:1e-17,1"), "--shape: ellipse semi-axes (1e-17, 1.0) must "),
    (("elastic-identity", "--shape", "disk"),
     "--shape: elastic-identity requires an ellipsoid shape\n"),
    (("hodograph", "--shape", "square"), "--shape: hodograph requires an ellipse shape\n"),
    (("pt", "--shape", "disk", "--k", "1"), "--k: contrasts must be positive and not 1\n"),
    (("pt", "--shape", "disk", "--k", "2,3"), "--k: pt takes one contrast\n"),
    (("bounds", "--shape", "disk", "--k", "2,3"), "--k: bounds takes one contrast\n"),
    (("shapeopt", "--k", "2,3"), "--k: shapeopt takes one contrast\n"),
    (("bounds", "--shape", "disk", "--k", "1e308"),
     "--k: 1e+308 puts the trace bound out of range\n"),
    (("pt", "--shape", "disk", "--k", "1e308"), "--k: 1e+308 puts the trace bound out of range\n"),
    # a_3 rounds to 1 = -1/(k - 1), so M_33 = |Omega|/0
    (("bounds", "--shape", "ellipsoid:1,1,1e-17", "--k", "1e-20"),
     "--k: 1e-20 puts the polarization tensor out of range\n"),
    (("eshelby", "--shape", "disk", "--k", "2,nan"), "--k: 'nan' is not a finite number\n"),
    (("shapeopt", "--k", "0.5"), "--k: trace minimization is posed for k > 1\n"),
    (("pt", "--shape", "disk", "--n", "32"), "--n: smooth curves need n >= 64\n"),
    # K* past its node limit is refused before it is allocated (3.2 GB here)
    (("pt", "--shape", "disk", "--n", "20000"), "--n: K* on 20000 nodes exceeds the cap of 16384\n"),
    (("bounds", "--shape", "disk", "--n", "8"), "--n: must be at least 16\n"),
    (("eshelby", "--shape", "ellipse:20,1"), "--n: margin leaves no interior room "),
    # refused after --out is made: the directories it made are removed again
    (("eshelby", "--shape", "ellipse:20,1", "--out", os.path.join("o", "p")),
     "--n: margin leaves no interior room "),
    (("elastic-identity", "--n", "16"), "--n: margin leaves no interior room "),
    (("elastic-identity", "--shape", "ellipsoid:1,1,100"), "--n: margin leaves no interior room "),
    (("shapeopt", "--n", "64"), "--n: need at least 128 boundary nodes\n"),
    (("shapeopt", "--n", "129"),
     "--n: need an even number of boundary nodes for the shape gradient\n"),
    (("elastic-identity", "--lame", "1,-1,1,1"), "--lame: mu must be positive\n"),
    (("elastic-identity", "--lame", "2,1"), "--lame: takes lam,mu,lam_inc,mu_inc\n"),
    (("bound-table", "--k", "1"), "--k: contrasts must be positive and not 1\n"),
] + [
    # the bound table takes the command line's --k rule, before --out is made
    (("bound-table", "--k", k, "--out", "o"), f"--k: {message}\n")
    for k, message in (
        ("abc", "'abc' is not a number"),
        ("1", "contrasts must be positive and not 1"),
        ("-2", "contrasts must be positive and not 1"),
        ("nan", "'nan' is not a finite number"),
        ("", "needs at least one value"),
        ("2,1", "contrasts must be positive and not 1"),
    )
] + [
    ((*argv, "--out", out), f"--out: [Errno {errno}] ")
    for argv, _ in _OUT_CASES
    for out, errno in (("FILE", 17), (os.path.join("FILE", "sub"), 20))
] + [
    ((*argv, "--out", "REPORTS"), f"--out: {os.path.join('REPORTS', name)} is a directory\n")
    for argv, name in _OUT_CASES
]


@pytest.mark.parametrize(
    "argv, start", _REFUSALS, ids=lambda v: " ".join(v) if isinstance(v, tuple) else ""
)
def test_every_refusal_names_a_flag_its_command_takes(capsys, tmp_path, monkeypatch, argv, start):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "FILE").write_text('{"type":"box","half":"123"}\n')
    for _, name in _OUT_CASES:
        (tmp_path / "REPORTS" / name).mkdir(parents=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a refusal prints its one line and nothing else
        code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: {start}") and err.count("\n") == 1, err
    assert start.split(":")[0] in cli._COMMANDS[argv[0]].flags.split()
    # --out is made before any computation, and a refusal leaves nothing behind
    assert sorted(os.listdir(tmp_path)) == ["FILE", "REPORTS"]
    assert sorted(os.listdir(tmp_path / "REPORTS")) == sorted(name for _, name in _OUT_CASES)


@pytest.mark.parametrize("argv, module, cap, start", [
    (("pt", "--shape", "disk", "--n", "2048"), geometry, "_MAX_GRID_NODES",
     "--n: a grid of 2048 nodes exceeds the cap of 1024\n"),
    (("bounds", "--shape", "square"), geometry, "_MAX_GRID_NODES",
     "--n: a grid of 1408 nodes exceeds the cap of 1024\n"),
    (("elastic-identity", "--n", "32"), geometry, "_MAX_GRID_NODES",
     "--n: a grid of 2048 nodes exceeds the cap of 1024\n"),
    (("eshelby", "--shape", "disk", "--n", "2048"), layerpot, "_MAX_NPO_NODES",
     "--n: K* on 2048 nodes exceeds the cap of 1024\n"),
], ids=["smooth-grid", "polygon-grid", "ellipsoid-grid", "npo-matrix"])
def test_grids_above_a_cap_are_refused_naming_n(capsys, monkeypatch, argv, module, cap, start):
    # the caps themselves (2^22 grid nodes, K* on 2^14) are too large to run here
    monkeypatch.setattr(module, cap, 1024)
    code, out, err = _run(capsys, *argv)
    assert (code, out, err) == (2, "", f"config error: {start}")


def test_the_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_shapeopt_refuses_a_contrast_above_its_ceiling(capsys, tmp_path):
    # above OptProblem.k_max the gradient is rounding noise times k: the
    # search stops unconverged from 1e24, fails from about 1e28, and never
    # leaves the start from 1e32; such contrasts are refused, not searched
    for k in ("1e24", "1e30", "1e308"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = _run(capsys, "shapeopt", "--k", k, "--out", str(tmp_path / "so"))
        assert (code, out, [str(w.message) for w in caught]) == (2, "", [])
        assert err == (
            "config error: --k: trace minimization is posed for k <= 1e+23, "
            "where the shape gradient keeps its digits\n"
        )
        assert not (tmp_path / "so").exists()


@pytest.mark.parametrize("k", ["1.01", "1.001"])
def test_shapeopt_leaves_the_start_at_a_contrast_near_one(capsys, tmp_path, k):
    # the gradient scales like lambda^3 (4.5e-7 at the start for k = 1.01),
    # so an absolute gradient rule stopped at the start
    code, out, err = _run(capsys, "shapeopt", "--k", k, "--out", str(tmp_path))
    rep = json.loads(out)
    assert (code, err) == (0, "")
    assert rep["passed"] is True and rep["converged"] is True
    assert rep["evaluations"] <= 8


def test_shapeopt_fails_a_search_that_stops_unconverged(capsys, tmp_path):
    # at k = 1.00001 the gradient (like lambda^3) is rounding noise, so the
    # search stops unconverged, while every shape's trace lies within the
    # gap tolerance of the disk's
    code, out, err = _run(capsys, "shapeopt", "--k", "1.00001", "--out", str(tmp_path))
    rep = json.loads(out)
    assert (code, err) == (1, "")
    assert (rep["converged"], rep["passed"]) == (False, False)
    assert rep["relative_gap"] <= rep["gap_tol"]


def test_out_directory_written(capsys, tmp_path):
    out_dir = str(tmp_path / "artifacts")
    code, out, _ = _run(
        capsys, "pt", "--shape", "disk", "--k", "2", "--out", out_dir
    )
    assert code == 0
    path = os.path.join(out_dir, "pt.json")
    with open(path, "r", encoding="utf-8") as fh:
        assert fh.read() == out


def test_bound_table_writes_its_rows_under_out(capsys, tmp_path):
    # the README's command: one row per contrast and shape, contrast by contrast
    code, out, err = _run(capsys, "bound-table", "--k", "0.5,2,3,10", "--out", str(tmp_path))
    assert (code, err) == (0, "")
    assert (tmp_path / "bound-table.csv").read_text(encoding="utf-8") == out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["shape", "k", "tr_M", "eig_low", "eig_high", "slack2", "saturated2",
                       "passed"]
    assert [row[:2] for row in rows[1:]] == [
        [shape, k] for k in ("0.5", "2", "3", "10")
        for shape in ("disk", "ellipse 2:1", "ellipse 4:1", "square", "kite", "three-lobed star")
    ]
    # the inverse-trace bound saturates exactly on the ellipses
    assert [row[6] for row in rows[1:]] == (["true"] * 3 + ["false"] * 3) * 4
    assert {row[7] for row in rows[1:]} == {"true"}


def test_bound_table_exits_1_on_a_failed_record(capsys, monkeypatch):
    calls = []

    def failing_scan(shapes, *ks):
        # one call for all contrasts; the records come contrast by contrast
        calls.append(ks)
        record = {"tr_M": 1.0, "eig_low": 0.5, "eig_high": 0.5, "slack2": 0.0,
                  "saturated2": True, "passed": True}
        return [{**record, "passed": i != 7} for i in range(len(ks) * len(shapes))]

    monkeypatch.setattr(cli, "bound_gap_scan", failing_scan)
    code, out, err = _run(capsys, "bound-table", "--k", "3,5")
    assert (code, err, calls) == (1, "", [(3.0, 5.0)])
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == 12
    assert [row[:2] for row in rows if row[-1] != "true"] == [["ellipse 2:1", "5"]]


def test_suite_prints_one_line_per_criterion_and_writes_them(capsys, tmp_path):
    code, out, _ = _run(capsys, "suite", "--out", str(tmp_path))
    assert code == 1
    line = re.compile(r"criterion (\d\d) (PASS|FAIL) [^:\n]+: [^\n]+")
    verdicts = [line.fullmatch(text).groups() for text in out.splitlines()]
    assert [int(cid) for cid, _ in verdicts] == list(range(1, 15))
    # criterion 02 fails by design (a strict xfail in test_acceptance)
    assert [cid for cid, verdict in verdicts if verdict == "FAIL"] == ["02"]
    assert (tmp_path / "suite.txt").read_text(encoding="utf-8") == out


def test_shapeopt_finds_the_disk_and_writes_its_artifacts(capsys, tmp_path):
    code, out, _ = _run(capsys, "shapeopt", "--k", "3", "--out", str(tmp_path))
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True and rep["converged"] is True
    with open(rep["trace_file"], encoding="utf-8") as fh:
        records = [json.loads(text) for text in fh]
    assert [r["eval"] for r in records] == list(range(rep["evaluations"]))
    assert rep["trace_file"] == str(tmp_path / "shapeopt_trace.jsonl")
    svg = (tmp_path / "shapeopt_overlay.svg").read_text(encoding="utf-8")
    # the initial, optimized and target-disk outlines
    assert svg.count("<polygon ") == 3


def test_cli_import_leaves_scipy_optimize_unloaded():
    # the package imports no SciPy at all (see the test below); the CLI
    # import is where an import would be paid by every subcommand
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = "import sys, inclab, inclab.cli; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("argv", [["shapeopt", "--k", "3"], ["suite"]], ids=["shapeopt", "suite"])
def test_runtime_loads_no_scipy(argv, tmp_path):
    # SciPy is a test dependency only: the shape search and the whole
    # acceptance battery run on NumPy alone
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = (
        "import sys\n"
        "from inclab.cli import run\n"
        f"code = run({argv + ['--out', str(tmp_path)]!r})\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), file=sys.stderr)"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stderr.strip() == f"{1 if argv == ['suite'] else 0} []"


def test_pt_leaves_scipy_sparse_unloaded():
    # the boundary solve is GMRES written in NumPy: one pt call in a fresh
    # interpreter must not pay the 0.3-0.4 s import of scipy.sparse
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = (
        "import sys\n"
        "from inclab.cli import run\n"
        "code = run(['pt', '--shape', 'kite', '--k', '3'])\n"
        "print(code, 'scipy.sparse' in sys.modules, file=sys.stderr)"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stderr.strip() == "0 False"


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_CONTRAST_TEXT = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    .filter(lambda k: k != 1.0)
    .map(repr),
    st.sampled_from(["", " ", "abc", "0", "-1", "1", "1.0", "nan", "inf", "-inf", "1e400",
                     "2,,3", "0x10", "-x", "--shape"]),
    st.text(max_size=6),
)


@settings(max_examples=40, deadline=None)
@given(
    command=st.sampled_from(["pt", "bounds", "eshelby"]),
    shape=st.sampled_from(["disk", "ellipse:2,1", "star", "square", "kite"]),
    k=_CONTRAST_TEXT,
)
@example(command="bounds", shape="ellipsoid:1,1,1e-17", k="1e-20")  # a_3 = 1 = -1/(k - 1)
def test_any_contrast_ends_in_a_finite_report_or_a_refusal_naming_k(command, shape, k):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run([command, "--shape", shape, "--k", k])
        except SystemExit as exc:  # argparse refuses a value that looks like a flag
            code = exc.code
    if code == 2:
        assert "--k" in err.getvalue()
        return
    assert code in (0, 1), err.getvalue()
    report = out.getvalue()
    assert "null" not in report
    assert all(np.isfinite(float(x)) for x in _NUMBER.findall(report))


# values log-uniform in magnitude over 1e-320 .. 1e308, either sign
_VALUE = st.builds(
    lambda sign, exponent: sign * 10.0**exponent,
    st.sampled_from([1.0, -1.0]),
    st.floats(-320.0, 308.0),
)
_MODE = st.one_of(st.integers(2, 9).map(float), _VALUE)
_INLINE_VALUES = {
    "ellipse": st.lists(_VALUE, min_size=2, max_size=2),
    "ellipsoid": st.lists(_VALUE, min_size=3, max_size=3),
    "box": st.lists(_VALUE, min_size=3, max_size=3),
    "polygon": st.lists(_VALUE, min_size=6, max_size=12).filter(lambda v: len(v) % 2 == 0),
    "star": st.builds(
        lambda r0, modes: [r0] + [v for mode in modes for v in mode],
        _VALUE,
        st.lists(st.tuples(_MODE, _VALUE, _VALUE), min_size=1, max_size=3),
    ),
}
_INLINE = st.sampled_from(sorted(_INLINE_VALUES)).flatmap(
    lambda kind: _INLINE_VALUES[kind].map(lambda v: f"{kind}:" + ",".join(map(repr, v)))
)
_ANY_ARITY = st.builds(
    lambda kind, v: f"{kind}:" + ",".join(map(repr, v)),
    st.sampled_from(sorted(_INLINE_VALUES)),
    st.lists(_VALUE, max_size=5),
)
_JUNK = st.one_of(
    st.sampled_from(["", ":", "ellipse", "ellipse:", "ellipse:a,b", "polygon:0,0,1,0",
                     "star:1", "box:1,,1", "@", "@missing.json", "disk:1"]),
    st.text(max_size=12),
)
# JSON payloads: one field dropped, or one field given a wrong type
_JSON_PAYLOADS = {
    "ellipse": lambda v: {"a": v[0], "b": v[1]},
    "ellipsoid": lambda v: {"c1": v[0], "c2": v[1], "c3": v[2]},
    "box": lambda v: {"half": v[:3]},
    "polygon": lambda v: {"vertices": [v[i : i + 2] for i in range(0, len(v) - 1, 2)]},
    "star": lambda v: {"r0": v[0], "modes": [v[i : i + 3] for i in range(1, len(v) - 2, 3)]},
}
_WRONG_TYPES = st.sampled_from(["x", None, True, [], {}, [["a", 1]], [1.0]])


def _payload(kind, values, damage, index, wrong):
    """The payload, and whether it was damaged (so must be refused)."""
    fields = _JSON_PAYLOADS[kind](values)
    key = sorted(fields)[index % len(fields)]
    if damage == "drop":
        del fields[key]
    elif damage == "type":
        fields[key] = wrong
    return {"type": kind, **fields}, damage != "none"


_JSON = st.builds(
    _payload,
    st.sampled_from(sorted(_JSON_PAYLOADS)),
    st.lists(_VALUE, min_size=10, max_size=10),
    st.sampled_from(["none", "drop", "type"]),
    st.integers(0, 2),
    _WRONG_TYPES,
)
_SHAPE_TEXT = st.one_of(
    st.sampled_from(["disk", "square", "kite", "star"]),
    _INLINE,
    _ANY_ARITY,
    _JUNK,
    _JSON,
)


@settings(max_examples=40, deadline=None)
@given(command=st.sampled_from(["pt", "bounds", "newtonian"]), shape=_SHAPE_TEXT)
@example(command="pt", shape="ellipsoid:1e-300,1,1")
@example(command="newtonian", shape="ellipsoid:1e-300,1,1")
@example(command="pt", shape="ellipsoid:1e200,1,1")
@example(command="pt", shape="ellipsoid:1e150,1e150,1e150")
@example(command="pt", shape="ellipsoid:1e-150,1e-150,1e-150")
@example(command="newtonian", shape="box:1e200,1e200,1e200")
@example(command="newtonian", shape="ellipsoid:6.28e98,6.28e98,6.28e98")
@example(command="newtonian", shape="star:1,2,1,1.6e-150")
@example(command="newtonian", shape="ellipse:1e76,1e76")
@example(command="pt", shape="ellipse:1e154,1e154")
@example(command="bounds", shape="ellipse:1e154,1e154")
@example(command="pt", shape="polygon:0,0,1e154,0,1e154,1e154,0,1e154")
@example(command="pt", shape=({"type": "ellipse", "a": True, "b": 1.0}, True))
@example(command="pt", shape="star:1,1e300,0.1,0")
@example(command="pt", shape="star:1,128,0.1,0")
@example(command="pt", shape="star:1e13,2,1,1,2,1,1e296")  # its radius sample overflows
def test_any_shape_ends_in_a_finite_report_or_a_refusal_naming_shape(command, shape):
    damaged = False
    with tempfile.TemporaryDirectory() as tmp:
        if isinstance(shape, tuple):
            payload, damaged = shape
            path = os.path.join(tmp, "shape.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            shape = f"@{path}"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run([command, "--shape", shape])
            except SystemExit as exc:  # argparse refuses a value that looks like a flag
                code = exc.code
    if damaged:
        assert code == 2 and "--shape" in err.getvalue(), (code, err.getvalue())
    if code == 2:
        assert "--shape" in err.getvalue() or "--n" in err.getvalue(), err.getvalue()
        return
    assert code in (0, 1), err.getvalue()
    report = out.getvalue()
    assert "null" not in report
    assert all(np.isfinite(float(x)) for x in _NUMBER.findall(report))


def _key_paths(obj, prefix=""):
    """Every key of a parsed report in order, nested ones dotted; the items
    of a list of objects must share one layout, which counts once."""
    if isinstance(obj, dict):
        out = []
        for key, value in obj.items():
            out += [prefix + key] + _key_paths(value, f"{prefix}{key}.")
        return out
    if isinstance(obj, list) and obj and isinstance(obj[0], dict):
        layouts = [_key_paths(item, prefix + "[].") for item in obj]
        assert all(layout == layouts[0] for layout in layouts)
        return layouts[0]
    return []


_PT = ["command", "shape", "k", "n", "volume", "M", "eigenvalues", "trace", "asymmetry",
       "asymmetry_tol"]
_CLOSED_FORM = ["closed_form_M", "closed_form_deviation", "closed_form_tol"]
_BOUNDS = ["form", "trace_M", "trace_bound_rhs", "slack1", "scaled_inverse_trace",
           "inverse_trace_bound_rhs", "slack2", "slack_floor", "saturated1", "saturated2",
           "saturation_tol", "passed"]
_FIT = ["command", "shape", "quadratic_fit", "quadratic_fit.A", "quadratic_fit.b",
        "quadratic_fit.c", "quadratic_fit.rms_residual", "quadratic_fit.residual_tol", "passed"]


@pytest.mark.parametrize(
    "argv, layout",
    [
        (("pt", "--shape", "ellipse:2,1"), _PT + _CLOSED_FORM + _BOUNDS),
        (("pt", "--shape", "square"), _PT + _BOUNDS),
        (("pt", "--shape", "ellipsoid:2,1.5,1"), _PT + _CLOSED_FORM + _BOUNDS),
        (("bounds", "--shape", "star"), _PT + _BOUNDS),
        (
            ("eshelby", "--shape", "ellipse:2,1", "--k", "0.5,2", "--format", "json"),
            ["command", "shape", "ks", "n", "max_delta", "delta_tol", "passed", "rows",
             "rows.[].shape", "rows.[].k", "rows.[].direction", "rows.[].mean_gx",
             "rows.[].mean_gy", "rows.[].delta"],
        ),
        (
            ("newtonian", "--shape", "ellipsoid:2,1.5,1"),
            _FIT + ["depolarization_factors", "factor_sum", "factor_sum_tol",
                    "diag_vs_half_factors", "diag_tol"],
        ),
        (
            ("newtonian", "--shape", "ellipse:2,1"),
            _FIT + ["depolarization_factors", "diag_vs_half_factors", "diag_tol"],
        ),
        (("newtonian", "--shape", "square"), _FIT),
        (
            ("elastic-identity",),
            ["command", "shape", "lame", "lame.lam", "lame.mu", "lame.lam_inc", "lame.mu_inc",
             "kolosov_matrix", "grid", "points", "residual_matrix_phase",
             "residual_inclusion_phase", "residual_difference", "residual_inverse_distance",
             "residual_tol", "passed"],
        ),
        (
            ("hodograph", "--shape", "ellipse:2,1"),
            ["command", "shape", "boundary_identity_deviation", "boundary_identity_tol",
             "univalent", "min_abs_derivative", "max_real_deviation", "real_deviation_tol",
             "rings_simple", "slit", "slit.[].re", "slit.[].im", "slit_endpoint_error",
             "slit_tol", "leading_coefficient", "leading_coefficient_target",
             "leading_coefficient_tol", "passed"],
        ),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else None,
)
def test_report_layout(capsys, argv, layout):
    # key order fixes the report bytes and does not depend on the platform
    code, out, _ = _run(capsys, *argv)
    assert code in (0, 1)
    assert _key_paths(json.loads(out)) == layout


def _readme_commands():
    """The argument lists of the README's ``inclab`` command lines, once each."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = re.findall(r"```sh\n(.*?)```", fh.read(), re.S)
    lines = [line.split("#")[0].split() for block in blocks for line in block.splitlines()]
    return list(dict.fromkeys(tuple(argv[1:]) for argv in lines if argv[:1] == ["inclab"]))


def _readme_limits():
    """The README's limits table, as {constant: (low, relation, high)} read
    from its "Accepted" column (``n ≤ 2^22``, ``1.2e-77 ≤ length ≤ 1.2e+77``)."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        table = re.search(r"### Limits\n.*?\n\n(\|.*?)\n\n", fh.read(), re.S).group(1)
    limits = {}
    for line in table.splitlines()[2:]:
        _, accepted, constant, _ = (cell.strip() for cell in line.strip("|").split("|"))
        low, relation, high = re.fullmatch(r"(?:(\S+) ≤ )?\w+ ([≤<]) (\S+)", accepted).groups()
        limits[constant] = (low and _readme_number(low), relation, _readme_number(high))
    return limits


def _readme_number(text):
    """A number as the README writes it: 2^p, or a float literal."""
    base, _, power = text.partition("^")
    return int(base) ** int(power) if power else float(text)


def test_the_readme_limits_are_the_constants_the_code_checks():
    # the lengths' range is printed to two digits, as the refusal prints it
    tiny, huge = (float(f"{x ** 0.25:.1e}") for x in (np.finfo(float).tiny, np.finfo(float).max))
    assert _readme_limits() == {
        "`geometry._MAX_GRID_NODES`": (None, "≤", geometry._MAX_GRID_NODES),
        "`layerpot._MAX_NPO_NODES`": (None, "≤", layerpot._MAX_NPO_NODES),
        "`geometry._STAR_MODE_CAP`": (None, "<", geometry._STAR_MODE_CAP),
        "`geometry._MAX_CANDIDATES`": (None, "≤", geometry._MAX_CANDIDATES),
        "`OptProblem.k_max`": (None, "≤", OptProblem.k_max),
        "`np.finfo(float).tiny ** 0.25`, `np.finfo(float).max ** 0.25`": (tiny, "≤", huge),
    }


def _below(report, *pairs):
    return all(report[value] <= report[tol] for value, tol in pairs)


# each JSON report's pass rule, restated from the report's own value and
# *_tol fields (a closed form's fields only where the shape has one)
_PASS_RULES = {
    **dict.fromkeys(("pt", "bounds"), lambda r: _below(r, ("asymmetry", "asymmetry_tol"))
                    and ("closed_form_tol" not in r
                         or _below(r, ("closed_form_deviation", "closed_form_tol")))
                    and r["slack1"] >= r["slack_floor"] * abs(r["trace_bound_rhs"])
                    and r["slack2"] >= r["slack_floor"]),
    "eshelby": lambda r: _below(r, ("max_delta", "delta_tol")),
    "newtonian": lambda r: _below(r["quadratic_fit"], ("rms_residual", "residual_tol"))
    and ("diag_tol" not in r or _below(r, ("diag_vs_half_factors", "diag_tol")))
    and ("factor_sum_tol" not in r or abs(r["factor_sum"] - 1.0) <= r["factor_sum_tol"]),
    "elastic-identity": lambda r: _below(r, *((key, "residual_tol") for key in (
        "residual_matrix_phase", "residual_inclusion_phase", "residual_inverse_distance"))),
    "hodograph": lambda r: _below(
        r, ("boundary_identity_deviation", "boundary_identity_tol"),
        ("max_real_deviation", "real_deviation_tol"), ("slit_endpoint_error", "slit_tol"),
    ) and r["min_abs_derivative"] > 0 and r["rings_simple"]
    and abs(r["leading_coefficient"] - r["leading_coefficient_target"])
    <= r["leading_coefficient_tol"],
    "shapeopt": lambda r: r["converged"] and _below(r, ("relative_gap", "gap_tol"),
                                                    ("max_coefficient", "coefficient_tol"),
                                                    ("disk_undercut", "undercut_tol")),
}


def test_readme_commands_are_the_json_reports_bound_table_and_suite():
    assert {argv[0] for argv in _readme_commands()} == {*_PASS_RULES, "bound-table", "suite"}


_FAILING_REPORT = ("newtonian", "--shape", "square")

# beside the README's commands, inputs at the edges of what passes: the
# slowest Krylov solves (corners at extreme contrast), a far-from-unit
# ellipse fit, the finest elastic grid the benchmark runs, and stars with
# several modes
_EDGE_REPORTS = [
    ("pt", "--shape", "kite", "--k", "1e9"),
    ("pt", "--shape", "square", "--k", "1e-9"),
    ("pt", "--shape", "polygon:0,0,2,0,0,1", "--k", "3"),
    ("bounds", "--shape", "kite", "--k", "1e9"),
    ("newtonian", "--shape", "ellipse:1e10,1e9"),
    ("elastic-identity", "--n", "128"),
    ("pt", "--shape", "star:1,3,0.2,0,5,0.05,0.03", "--k", "0.5"),
    ("pt", "--shape", "star:1,2,0.1,0,3,0.05,0.02,4,0.03,0,5,0.01,0.01,6,0.02,-0.01,40,0.002,0.001",
     "--k", "3"),
]


@pytest.mark.parametrize(
    "argv",
    [argv for argv in _readme_commands() if argv[0] in _PASS_RULES] + _EDGE_REPORTS
    + [_FAILING_REPORT],
    ids=" ".join,
)
def test_reports_pass_by_the_tol_fields_they_print(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)  # where the README's --out artifacts goes
    if argv[0] == "eshelby":
        argv += ("--format", "json")
    code, out, _ = _run(capsys, *argv)
    report = json.loads(out)
    assert report["passed"] is bool(_PASS_RULES[argv[0]](report))
    assert report["passed"] is (argv != _FAILING_REPORT)
    assert code == (0 if report["passed"] else 1)


def test_nan_delta_fails_eshelby_and_criterion_07(capsys, monkeypatch):
    original = transmission.interior_field

    def nan_field(*args, **kwargs):
        mean, _ = original(*args, **kwargs)
        return mean, float("nan")

    monkeypatch.setattr(transmission, "interior_field", nan_field)
    argv = ("eshelby", "--shape", "ellipse:2,1", "--k", "2", "--format", "json")
    code, out, _ = _run(capsys, *argv)
    rep = json.loads(out)
    assert code == 1
    assert (rep["max_delta"], rep["passed"]) == (None, False)
    assert acceptance.criterion_07()["passed"] is False


def test_eshelby_reads_the_verdict_of_criterion_07(capsys, monkeypatch):
    verdicts = []

    def recording(*args):
        verdicts.append(transmission.uniformity_verdict(*args))
        return verdicts[-1]

    monkeypatch.setattr(acceptance, "uniformity_verdict", recording)
    acceptance.criterion_07()
    argv = ("eshelby", "--shape", "ellipse:2,1", "--k", "0.5,2,10", "--format", "json")
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    # the criterion's first verdict is the ellipse's, at the same n and contrasts
    assert json.loads(out)["max_delta"] == verdicts[0]["max_delta"]


def test_elastic_identity_default_agrees_with_criterion_11(capsys):
    code, out, _ = _run(capsys, "elastic-identity")
    assert code == 0
    rep = json.loads(out)
    # the command and the criterion call one verdict, which places the points
    want = identity_verdict(discretize(Ellipsoid(2.0, 1.5, 1.0), 64), LameParams(2.0, 1.0, 1.0, 0.5))
    assert {key: rep[key] for key in want} == want
    assert rep["residual_tol"] == 1e-6
    assert acceptance.criterion_11()["detail"].startswith(
        f"residuals: matrix {rep['residual_matrix_phase']:.2e}, inclusion "
        f"{rep['residual_inclusion_phase']:.2e}, inverse-distance "
        f"{rep['residual_inverse_distance']:.2e} (tol 1e-6); "
    )
