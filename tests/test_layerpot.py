import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inclab import (
    Ellipse,
    Ellipsoid,
    InvalidShapeError,
    NearBoundaryError,
    Polygon,
    ResolutionError,
    discretize,
    jump_check,
    layerpot,
    npo_matrix,
    single_layer_eval,
    single_layer_gradient,
    solve_density,
)
from inclab.cli import parse_shape

axis = st.floats(0.5, 3.0, allow_nan=False)


def test_jump_relation_ellipse(ellipse21_grid):
    for values in (
        np.ones(ellipse21_grid.n),
        ellipse21_grid.normals[:, 0],
        ellipse21_grid.normals[:, 1],
    ):
        assert jump_check(ellipse21_grid, values) <= 1e-4


def test_close_evaluation_jump_to_machine_precision_on_ellipse(ellipse21_grid):
    # the outer and inner limits come from separate expansions, so their
    # difference measures the jump rather than imposing it
    grid = ellipse21_grid
    solved = solve_density(grid, 3.0, np.array([1.0, 0.0]))
    for values in (np.ones(grid.n), grid.normals[:, 0], grid.normals[:, 1], solved):
        outer, inner = layerpot._one_sided_derivatives(grid, values)
        assert np.max(np.abs(outer - inner - values)) <= 1e-12
        assert jump_check(grid, values) <= 1e-12


def test_close_evaluation_builds_one_grid_of_8n_nodes(monkeypatch, ellipse21_grid):
    sizes = []

    def spy(shape, n):
        sizes.append(n)
        return discretize(shape, n)

    monkeypatch.setattr(layerpot, "discretize", spy)
    jump_check(ellipse21_grid, np.ones(ellipse21_grid.n))
    assert sizes == [8 * ellipse21_grid.n]


def _npo_one_block(grid):
    """K* assembled as one n x n complex division, the reference for the row blocks."""
    z = grid.nodes[:, 0] + 1j * grid.nodes[:, 1]
    nu = grid.normals[:, 0] + 1j * grid.normals[:, 1]
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, 1.0)
    mat = (nu[:, None] / diff).real * (grid.weights / (2 * np.pi))
    if grid.curvature is None:
        # the discrete Gauss identity w^T K* = w^T / 2 sets a polygon's diagonal
        np.fill_diagonal(mat, 0.0)
        np.fill_diagonal(mat, (0.5 * grid.weights - grid.weights @ mat) / grid.weights)
    else:
        np.fill_diagonal(mat, grid.curvature / (4 * np.pi) * grid.weights)
    return mat


@pytest.mark.parametrize("chunk", [None, 7 * 256 + 3])
def test_npo_matrix_row_blocks_match_one_block(monkeypatch, ellipse21_grid, square_grid, chunk):
    # the square's 1,408 nodes take several blocks at the default size; the
    # small size ends the ellipse's 256 rows in a partial block of 4
    if chunk is not None:
        monkeypatch.setattr(layerpot, "_NPO_CHUNK", chunk)
    for grid in (ellipse21_grid, square_grid):
        np.testing.assert_array_equal(npo_matrix(grid), _npo_one_block(grid))


@pytest.mark.parametrize("m", [1, 3])
def test_tangential_derivative_of_cosine_on_unit_circle(circle_grid, m):
    # on the unit circle S[cos mt] = -cos(mt) / 2m, whose t-derivative is sin(mt) / 2
    t = circle_grid.params
    got = layerpot.tangential_derivative(circle_grid, np.cos(m * t))
    assert np.max(np.abs(got - 0.5 * np.sin(m * t))) <= 1e-12


def test_tangential_derivative_takes_density_columns(ellipse21_grid):
    t = ellipse21_grid.params
    columns = np.stack([np.cos(t), np.sin(2 * t) + 0.3], axis=1)
    both = layerpot.tangential_derivative(ellipse21_grid, columns)
    for j in range(2):
        np.testing.assert_allclose(
            both[:, j],
            layerpot.tangential_derivative(ellipse21_grid, columns[:, j]),
            rtol=0,
            atol=1e-14,
        )


def test_tangential_derivative_refuses_odd_and_polygon_grids(square_grid):
    with pytest.raises(InvalidShapeError):
        layerpot.tangential_derivative(discretize(Ellipse(1.0, 1.0), 255), np.ones(255))
    with pytest.raises(InvalidShapeError):
        layerpot.tangential_derivative(square_grid, np.ones(square_grid.n))


@settings(max_examples=10, deadline=None)
@given(axis, axis)
def test_weighted_row_sums_half(a, b):
    # the exact discrete counterpart of the constant-density identity:
    # integrating the kernel against the weights over the first argument
    # gives half the weight at the second argument; smooth grids meet it by
    # quadrature, polygon grids by the construction of their diagonal
    for grid in (
        discretize(Ellipse(a, b), 128),
        discretize(Polygon(((0.0, 0.0), (a, 0.0), (a, b), (0.0, b))), 16),
        discretize(Polygon(((0.0, 0.0), (a, 0.0), (0.0, b))), 16),
    ):
        K = npo_matrix(grid)
        lhs = grid.weights @ K
        assert np.max(np.abs(lhs - 0.5 * grid.weights)) <= 1e-10 * grid.weights.max()


@pytest.mark.parametrize(
    "name",
    ["square", "kite", "polygon:0,0,1,0,0,1", "polygon:0,0,2,0,0,1", "polygon:0,0,30,0,0,1"],
)
def test_polygon_spectrum_stays_at_or_below_one_half(name):
    # the true K* has spectrum in (-1/2, 1/2]; a zero polygon diagonal put the
    # largest real eigenvalue at 1/2 + 3e-5 (square) up to 1/2 + 11.7 (1.9 degrees)
    grid = discretize(parse_shape(name)[1], 16)
    assert np.linalg.eigvals(npo_matrix(grid)).real.max() <= 0.5 + 1e-12


def test_constant_density_half_value_circle_only(circle_grid, ellipse21_grid):
    ones = np.ones(circle_grid.n)
    circle_dev = np.max(np.abs(npo_matrix(circle_grid) @ ones - 0.5))
    assert circle_dev <= 1e-12
    ones = np.ones(ellipse21_grid.n)
    ellipse_dev = np.max(np.abs(npo_matrix(ellipse21_grid) @ ones - 0.5))
    # the pointwise half-value is a genuinely circle-only property of the
    # adjoint operator; on the 2:1 ellipse the deviation is order one and
    # stable under refinement
    assert ellipse_dev > 0.2
    fine = discretize(Ellipse(2.0, 1.0), 512)
    fine_dev = np.max(np.abs(npo_matrix(fine) @ np.ones(fine.n) - 0.5))
    assert abs(fine_dev - ellipse_dev) < 1e-6


def test_normal_component_eigenvalues(ellipse21_grid):
    op = npo_matrix(ellipse21_grid)
    n1 = ellipse21_grid.normals[:, 0]
    n2 = ellipse21_grid.normals[:, 1]
    assert np.max(np.abs(op @ n1 - n1 / 6)) <= 1e-10
    assert np.max(np.abs(op @ n2 + n2 / 6)) <= 1e-10


@settings(max_examples=8, deadline=None)
@given(axis, axis)
def test_normal_eigenvalues_match_two_axis_factors(a, b):
    # eigenvalue on the j-th normal component is 1/2 - a_j with
    # a_1 = b/(a+b), a_2 = a/(a+b)
    grid = discretize(Ellipse(a, b), 128)
    op = npo_matrix(grid)
    for j, fac in enumerate((b / (a + b), a / (a + b))):
        nj = grid.normals[:, j]
        assert np.max(np.abs(op @ nj - (0.5 - fac) * nj)) <= 1e-8


def test_spectrum_inside_half_interval(ellipse21_grid):
    # eigenvalues of the trace operator lie in (-1/2, 1/2]
    eigs = np.linalg.eigvals(npo_matrix(ellipse21_grid))
    assert np.max(np.abs(eigs.imag)) < 1e-10
    real = eigs.real
    assert real.max() <= 0.5 + 1e-10
    assert real.min() > -0.5


def test_single_layer_harmonic_outside():
    grid = discretize(Ellipse(2.0, 1.0), 256)
    phi = grid.normals[:, 0]
    x = np.array([[3.5, 1.2]])
    h = 1e-4
    vals = []
    for dx, dy in ((h, 0), (-h, 0), (0, h), (0, -h), (0, 0)):
        vals.append(single_layer_eval(grid, phi, x + np.array([dx, dy]))[0])
    lap = (vals[0] + vals[1] + vals[2] + vals[3] - 4 * vals[4]) / h**2
    assert abs(lap) < 1e-4


def test_gradient_consistent_with_values():
    grid = discretize(Ellipse(2.0, 1.0), 256)
    phi = np.cos(grid.params)
    x = np.array([[0.4, 0.2]])
    g = single_layer_gradient(grid, phi, x)[0]
    h = 1e-6
    for j in range(2):
        step = np.zeros(2)
        step[j] = h
        fd = (
            single_layer_eval(grid, phi, x + step)[0]
            - single_layer_eval(grid, phi, x - step)[0]
        ) / (2 * h)
        assert abs(fd - g[j]) < 1e-8


def test_near_boundary_guard():
    grid = discretize(Ellipse(2.0, 1.0), 64)
    phi = np.ones(grid.n)
    close = grid.nodes[0] + 1e-6 * grid.normals[0]
    with pytest.raises(NearBoundaryError):
        single_layer_eval(grid, phi, close[None, :])


def test_npo_matrix_refuses_grids_above_its_node_cap(monkeypatch, ellipse21_grid):
    monkeypatch.setattr(layerpot, "_MAX_NPO_NODES", ellipse21_grid.n)
    assert npo_matrix(ellipse21_grid).shape == (ellipse21_grid.n,) * 2
    monkeypatch.setattr(layerpot, "_MAX_NPO_NODES", ellipse21_grid.n - 1)
    with pytest.raises(ResolutionError, match=f"K\\* on {ellipse21_grid.n} nodes exceeds"):
        npo_matrix(ellipse21_grid)


def test_layer_sums_refuse_3d_grids():
    # the 3D surface sums live in elastostatics
    grid = discretize(Ellipsoid(2.0, 1.5, 1.0), 16)
    phi, pts = np.ones(grid.n), np.zeros((1, 3))
    for call in (
        lambda: single_layer_eval(grid, phi, pts),
        lambda: single_layer_gradient(grid, phi, pts),
        lambda: npo_matrix(grid),
    ):
        with pytest.raises(InvalidShapeError):
            call()
