"""Every point-by-node boundary sum against a per-point reference.

The evaluators, close evaluation among them, walk point-node pairs in
blocks (``geometry._pair_blocks``).  Each is checked here
against a plain NumPy sum taken one target point at a time, at the default
block budget and at one that ends the targets in a partial block, and the
walks that overwrite their block arrays in place against their own
one-block result.
"""

import tracemalloc

import numpy as np
import pytest

from inclab import (
    Ellipse,
    Ellipsoid,
    LameParams,
    NearBoundaryError,
    Polygon,
    conormal_linear,
    discretize,
    elastic_single_layer,
    interior_points,
    jump_check,
    kelvin_matrix,
    newtonian_potential,
    plain_kernel_moment,
    single_layer_eval,
    single_layer_gradient,
    trace_identity_check,
)
from inclab import geometry
from inclab.elastostatics import _kelvin, _surface_sums, _weighted
from inclab.layerpot import _one_sided_derivatives, upsample_periodic
from inclab.newtonian import _flux_grid, _newtonian_flux

SHAPES = {
    "ellipse": (Ellipse(2.0, 1.0), 128, 0.3),
    "square": (Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))), 16, 0.15),
    "ellipsoid": (Ellipsoid(2.0, 1.5, 1.0), 32, 0.45),
}
CHUNKS = ["default", "split"]
COUNT = 23  # targets; a prime, so no block size divides it


def _setup(monkeypatch, name, chunk, grid=None):
    shape, n, margin = SHAPES[name]
    grid = discretize(shape, n) if grid is None else grid
    if chunk == "split":
        # five target rows per block, so the 23 targets end in a partial block of three
        monkeypatch.setattr(geometry, "_CHUNK", 5 * grid.n + grid.n // 2)
    return grid, interior_points(shape, COUNT, margin).points


def _per_point(points, nodes, term):
    """term(x - y, |x - y|) summed over the nodes y, for one x at a time."""
    out = []
    for x in points:
        dx = x - nodes
        out.append(term(dx, np.sqrt((dx * dx).sum(axis=1))))
    return np.array(out)


def _assert_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _density(grid):
    return 1.0 + grid.nodes[:, 0] - 0.5 * grid.nodes[:, 1]


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name", ["ellipse", "square"])
def test_single_layer_and_gradient_match_per_point_sums(monkeypatch, name, chunk):
    # 2D only: the 3D single layer is -plain_kernel_moment, checked below
    grid, pts = _setup(monkeypatch, name, chunk)
    q = _density(grid) * grid.weights
    value = lambda dx, r: np.sum(np.log(r) / (2 * np.pi) * q)
    grad = lambda dx, r: (dx * (q / (2 * np.pi * r**2))[:, None]).sum(axis=0)
    _assert_close(single_layer_eval(grid, _density(grid), pts), _per_point(pts, grid.nodes, value))
    _assert_close(
        single_layer_gradient(grid, _density(grid), pts), _per_point(pts, grid.nodes, grad)
    )


@pytest.mark.parametrize(
    "a, chunk",
    [(2.0, chunk) for chunk in CHUNKS] + [(6.0, chunk) for chunk in CHUNKS],
    ids=CHUNKS + [f"slender-{chunk}" for chunk in CHUNKS],
)
def test_one_sided_derivatives_match_per_center_sums(monkeypatch, a, chunk):
    # quadrature by expansion: order 16 about centers 2 spacings off each
    # side of every node, summed over 8n source nodes; the walk expands only
    # the sources near each node and takes the plain kernel for the rest
    grid = discretize(Ellipse(a, 1.0), 128)
    fine = discretize(grid.shape, 8 * grid.n)
    if chunk == "split":
        # five nodes per block, so the 128 nodes end in a partial block of three
        monkeypatch.setattr(geometry, "_CHUNK", 5 * fine.n + fine.n // 2)
    values = _density(grid)
    q = upsample_periodic(values, fine.n) * fine.weights / (2 * np.pi)
    to_z = np.array([1.0, 1j])
    w = fine.nodes @ to_z
    if a == 6.0:
        # across the minor axis the far side of the 6:1 ellipse, half a turn
        # away in parameter, lies within the near radius (9 center distances),
        # so only a near set chosen by distance expands those sources
        top, bottom = grid.n // 4, 3 * fine.n // 4
        assert abs(grid.nodes[top] @ to_z - w[bottom]) < 9 * 2.0 * grid.spacing[top]
    want = []
    for side in (1.0, -1.0):
        for x, nu, h in zip(grid.nodes @ to_z, grid.normals @ to_z, grid.spacing):
            c = x + side * 2.0 * h * nu
            t = (c - x) / (c - w)
            g = np.sum(q * sum(t**p for p in range(17)) / (c - w))
            want.append((nu * g).real)
    _assert_close(_one_sided_derivatives(grid, values).ravel(), np.array(want))


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name", list(SHAPES))
def test_newtonian_flux_matches_per_point_sums(monkeypatch, name, chunk):
    grid, pts = _setup(monkeypatch, name, chunk, grid=_flux_grid(SHAPES[name][0]))
    if grid.dim == 2:
        u = lambda r: (1.0 - 2.0 * np.log(r)) / (8.0 * np.pi)
    else:
        u = lambda r: 1.0 / (8.0 * np.pi * r)
    term = lambda dx, r: np.sum(u(r) * (dx * grid.normals).sum(axis=1) * grid.weights)
    _assert_close(newtonian_potential(grid.shape, pts), _per_point(pts, grid.nodes, term))


@pytest.mark.parametrize("chunk", CHUNKS)
def test_surface_sums_match_per_point_sums(monkeypatch, chunk):
    grid, pts = _setup(monkeypatch, "ellipsoid", chunk)
    w = grid.weights
    flux = lambda dx, r: (dx * grid.normals).sum(axis=1) / r**3
    green_lhs = _per_point(pts, grid.nodes, lambda dx, r: (dx * (flux(dx, r) * w)[:, None]).sum(0))
    green_rhs = _per_point(pts, grid.nodes, lambda dx, r: -(grid.normals * (w / r)[:, None]).sum(0))
    ((inverse, flux_sum),) = _surface_sums(grid, pts, _weighted(grid, [grid.normals]))
    _assert_close(flux_sum, green_lhs)
    _assert_close(-inverse, green_rhs)

    # the Kelvin layer is the node sum of kelvin_matrix(x - y) psi(y) w(y)
    lam, mu = 2.0, 1.0
    psi = grid.normals * _density(grid)[:, None]
    trac = conormal_linear(np.eye(3), 1.3, 0.7, grid.normals)
    kelvin = []
    for density in (psi, trac):
        wpsi = density * w[:, None]
        term = lambda dx, r: np.einsum("sij,sj->i", kelvin_matrix(dx, lam, mu), wpsi)
        kelvin.append(_per_point(pts, grid.nodes, term))
    _assert_close(elastic_single_layer(grid, psi, pts, lam, mu), kelvin[0])

    moments = []
    for values in (grid.normals, _density(grid)):
        wv = values * (w if values.ndim == 1 else w[:, None])
        moment = lambda dx, r: (wv / (r if values.ndim == 1 else r[:, None])).sum(0) / (4 * np.pi)
        moments.append(_per_point(pts, grid.nodes, moment))
        _assert_close(plain_kernel_moment(grid, values, pts), moments[-1])

    # trace_identity_check reads two Kelvin layers, the moment of the normal
    # and both Green sides off one walk over three densities
    weighted = _weighted(grid, [psi, trac, grid.normals])
    (a0, b0), (a1, b1), (inverse, flux_sum) = _surface_sums(grid, pts, weighted)
    _assert_close(_kelvin(a0, b0, lam, mu), kelvin[0])
    _assert_close(_kelvin(a1, b1, lam, mu), kelvin[1])
    _assert_close(inverse / (4 * np.pi), moments[0])
    _assert_close(flux_sum, green_lhs)


@pytest.mark.parametrize("name", ["gradient", "surface", "flux"])
def test_in_place_walks_match_their_one_block_result(monkeypatch, name):
    # each block overwrites the walk's dx, r2 and work arrays, so a kernel
    # that read a stale or shared array would differ from one block
    shape, n, margin = SHAPES["ellipse" if name == "gradient" else "ellipsoid"]
    grid = _flux_grid(shape) if name == "flux" else discretize(shape, n)
    pts = interior_points(shape, COUNT, margin).points
    psi = grid.normals * _density(grid)[:, None]
    call = {
        "gradient": lambda: single_layer_gradient(grid, _density(grid), pts),
        "surface": lambda: np.hstack(
            sum(_surface_sums(grid, pts, _weighted(grid, [psi, grid.normals])), ())),
        "flux": lambda: _newtonian_flux(shape, pts),
    }[name]
    blocks = []

    def counted(count, width, budget):
        for rows in row_blocks(count, width, budget):
            blocks.append(rows)
            yield rows

    row_blocks = geometry._row_blocks
    monkeypatch.setattr(geometry, "_row_blocks", counted)
    monkeypatch.setattr(geometry, "_CHUNK", COUNT * grid.n)
    whole = call()
    assert len(blocks) == 1
    monkeypatch.setattr(geometry, "_CHUNK", 7 * grid.n)
    blocks.clear()
    split = call()
    assert len(blocks) >= 3
    assert np.max(np.abs(split - whole)) <= 1e-14 * np.max(np.abs(whole))


def test_3d_walk_memory_is_bounded():
    # the flux route's 80 fit points x 4,608 nodes and the identities' 20
    # points x 32,768 nodes peaked at 8.97 and 14.5 MiB with blocks of 2^17
    # pairs allocated per block; blocks of 2^15 pairs in buffers allocated
    # once per walk took them to 1.3 and 5.8 MiB, and weighting the identities'
    # three densities into one stack, with the tractions freed before the walk,
    # took the second to 4.2 MiB
    shape = Ellipsoid(2.0, 1.5, 1.0)
    pts = interior_points(shape, 80, shape.default_margin()).points
    newtonian_potential(shape, pts)  # builds the cached flux grid
    grid = discretize(shape, 128)
    inner = interior_points(shape, 20, 0.3).points
    peaks = []
    for call in (
        lambda: newtonian_potential(shape, pts),
        lambda: trace_identity_check(grid, LameParams(2.0, 1.0, 1.0, 0.5), inner),
    ):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 3 << 20
    assert peaks[1] < 5 << 20


def test_guard_names_the_first_offender_in_a_later_block(monkeypatch):
    grid, pts = _setup(monkeypatch, "ellipse", "split")
    pts = pts.copy()
    pts[13] = grid.nodes[40] - 1e-3 * grid.normals[40]
    pts[19] = grid.nodes[90] - 1e-4 * grid.normals[90]
    for x in pts:
        d = np.sqrt(((x - grid.nodes) ** 2).sum(axis=1))
        j = int(np.argmin(d))
        if d[j] < 2.0 * grid.spacing[j]:
            break
    want = (
        f"point {x} is {d[j]:.3e} from the boundary; "
        f"need >= {2 * grid.spacing[j]:.3e} for this grid"
    )
    with pytest.raises(NearBoundaryError) as exc:
        single_layer_eval(grid, _density(grid), pts)
    assert str(exc.value) == want
    assert np.array_equal(x, pts[13])


def test_single_layer_eval_memory_is_bounded():
    # 2,000 targets x 4,096 nodes: 8.2M pairs, 62.5 MiB per pair array held whole
    grid = discretize(Ellipse(2.0, 1.0), 4096)
    xs, ys = np.meshgrid(np.linspace(-1.0, 1.0, 50), np.linspace(-0.5, 0.5, 40))
    pts = np.stack([xs.ravel(), ys.ravel()], axis=1)
    density = np.ones(grid.n)
    tracemalloc.start()
    try:
        single_layer_eval(grid, density, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


def test_jump_check_memory_is_bounded():
    # 1,024 nodes x 8,192 fine sources: 8.4M node-source pairs, 64 MiB per
    # pair array held whole.  jump_check's peak (12.3 MiB measured) is the
    # 8 MiB K* matrix it multiplies; the close-evaluation walk alone peaked
    # at 1.8 MiB, its blocks of 2^15 pairs and the near pairs gathered in them
    grid = discretize(Ellipse(2.0, 1.0), 1024)
    density = np.ones(grid.n)
    peaks = []
    for check in (jump_check, _one_sided_derivatives):
        tracemalloc.start()
        try:
            check(grid, density)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 16 << 20
    assert peaks[1] < 4 << 20
