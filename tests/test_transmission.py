import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inclab import (
    ConfigError,
    Contrast,
    Ellipse,
    Ellipsoid,
    FourierStar,
    InvalidShapeError,
    Polygon,
    SolveError,
    decay_check,
    default_interior_sample,
    discretize,
    flux_continuity_check,
    interior_field,
    jump_check,
    layerpot,
    polarization_tensor,
    solve_density,
    transmission,
)
from inclab.cli import parse_shape, run
from inclab.polarization import closed_form_pt
from inclab.transmission import _basis_densities, _gmres, uniformity_verdict

SQUARE = Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
STAR = FourierStar(1.0, ((3, 0.2, 0.0), (5, 0.05, 0.03)))

contrast = st.floats(0.1, 20.0).filter(lambda k: abs(k - 1.0) > 0.05)


def test_contrast_validation():
    with pytest.raises(ConfigError):
        Contrast(0.0)
    with pytest.raises(ConfigError):
        Contrast(-2.0)
    with pytest.raises(ConfigError):
        Contrast(1.0)
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ConfigError):
            Contrast(bad)


@settings(max_examples=20, deadline=None)
@given(contrast)
def test_coupling_exceeds_operator_norm_bound(k):
    # |(k+1)/(2(k-1))| > 1/2 for every admissible contrast, so the
    # boundary system is always solvable
    assert abs(Contrast(k).coupling) > 0.5


@settings(max_examples=8, deadline=None)
@given(contrast, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_solve_linearity(k, ax, ay):
    grid = discretize(Ellipse(2.0, 1.0), 128)
    a = np.array([ax, ay])
    if np.linalg.norm(a) < 1e-3:
        a = np.array([1.0, 0.0])
    phi_a = solve_density(grid, k, a)
    phi_1 = solve_density(grid, k, np.array([1.0, 0.0]))
    phi_2 = solve_density(grid, k, np.array([0.0, 1.0]))
    assert np.max(np.abs(phi_a - (a[0] * phi_1 + a[1] * phi_2))) <= 1e-10 * max(
        1.0, np.max(np.abs(phi_a))
    )


def test_density_parallel_to_normal_component_on_ellipse(ellipse21_grid):
    # for an axis-aligned loading the solved density is proportional to
    # the matching normal component; measure by projection, not ratio
    phi = solve_density(ellipse21_grid, 2.0, np.array([1.0, 0.0]))
    n1 = ellipse21_grid.normals[:, 0]
    w = ellipse21_grid.weights
    coeff = float(np.sum(w * phi * n1) / np.sum(w * n1 * n1))
    resid = phi - coeff * n1
    cos2 = 1.0 - float(np.sum(w * resid * resid) / np.sum(w * phi * phi))
    assert cos2 >= 1.0 - 1e-8


def test_uniform_interior_field_ellipse(ellipse21_grid):
    sample = default_interior_sample(ellipse21_grid)
    for k in (0.5, 2.0, 10.0):
        for j in range(2):
            a = np.zeros(2)
            a[j] = 1.0
            _, delta = interior_field(
                ellipse21_grid, solve_density(ellipse21_grid, k, a), a, sample
            )
            assert delta <= 1e-6
    # no loading leaves no mean gradient to measure the deviation against
    zero = np.zeros(2)
    with pytest.raises(SolveError, match="^mean interior gradient vanished; cannot normalize$"):
        interior_field(ellipse21_grid, solve_density(ellipse21_grid, 2.0, zero), zero, sample)


def test_interior_slope_two_axis_formula(ellipse21_grid):
    sample = default_interior_sample(ellipse21_grid)
    k = 2.0
    targets = (0.75, 0.6)
    for j in range(2):
        a = np.zeros(2)
        a[j] = 1.0
        mean, _ = interior_field(
            ellipse21_grid, solve_density(ellipse21_grid, k, a), a, sample
        )
        expect = np.zeros(2)
        expect[j] = targets[j]
        assert np.max(np.abs(mean - expect)) <= 1e-6


def test_square_interior_field_not_uniform(square_grid):
    sample = default_interior_sample(square_grid)
    for k in (0.5, 2.0):
        a = np.array([1.0, 0.0])
        _, delta = interior_field(square_grid, solve_density(square_grid, k, a), a, sample)
        assert delta >= 1e-2


def _mean_gradients(verdict):
    """The applied-direction -> mean-interior-gradient map of each row."""
    return np.array([[row["mean_gx"], row["mean_gy"]] for row in verdict["rows"]])


def test_lambda_map_diagonal_on_ellipse(ellipse21_grid):
    # column j of the map is the mean interior gradient under the field e_j
    verdict = uniformity_verdict(ellipse21_grid, [2.0])
    assert verdict["passed"]
    assert np.allclose(_mean_gradients(verdict).T, np.diag([0.75, 0.6]), atol=1e-8)


def test_k_independence_on_ellipse():
    grid = discretize(Ellipse(2.0, 1.0), 128)
    verdict = uniformity_verdict(grid, (0.5, 2.0, 10.0))
    assert len(verdict["rows"]) == 6
    for row, grad in zip(verdict["rows"], _mean_gradients(verdict)):
        assert row["delta"] <= 1e-6
        assert abs(grad[2 - row["direction"]]) < 1e-8


def test_flux_continuity_across_boundary(ellipse21_grid):
    a = np.array([1.0, 0.0])
    k = 3.0
    phi = solve_density(ellipse21_grid, k, a)
    assert flux_continuity_check(ellipse21_grid, phi, k, a) <= 1e-3


def test_close_evaluation_converges_on_a_star():
    star = FourierStar(1.0, ((5, 0.2, 0.0),))
    a = np.array([1.0, 0.0])
    jumps, fluxes = [], []
    for n in (128, 256, 512):
        grid = discretize(star, n)
        phi = solve_density(grid, 3.0, a)
        jumps.append(jump_check(grid, phi))
        fluxes.append(flux_continuity_check(grid, phi, 3.0, a))
    for errors in (jumps, fluxes):
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] <= 1e-10


def test_far_field_decay_rate():
    ratio, expected, rel_error, passed = decay_check(Ellipse(1.0, 1.0), 3.0, (1.0, 0.0))
    assert passed
    assert expected == pytest.approx(2.0)
    assert rel_error <= 0.2
    assert rel_error == abs(ratio / expected - 1.0)


def test_decay_check_refuses_3d_shapes():
    # K* is assembled on 2D grids only, so no 3D decay test can run
    with pytest.raises(InvalidShapeError):
        decay_check(Ellipsoid(2.0, 1.5, 1.0), 3.0, (1.0, 0.0, 0.0))


def test_close_evaluation_checks_refuse_polygon_grids(square_grid):
    # close evaluation needs a smooth parametrized grid
    values = np.ones(square_grid.n)
    with pytest.raises(InvalidShapeError):
        jump_check(square_grid, values)
    with pytest.raises(InvalidShapeError):
        flux_continuity_check(square_grid, values, 3.0, (1.0, 0.0))


def test_solve_rejects_wrong_direction_dimension(ellipse21_grid):
    with pytest.raises(ConfigError):
        solve_density(ellipse21_grid, 2.0, np.array([1.0, 0.0, 0.0]))


def _reference_npo(grid):
    """Real-form K* <x - y, n(x)> w(y) / (2 pi |x - y|^2)."""
    dx = grid.nodes[:, None, :] - grid.nodes[None, :, :]
    r2 = (dx * dx).sum(-1)
    np.fill_diagonal(r2, 1.0)
    K = (dx * grid.normals[:, None, :]).sum(-1) / (2 * np.pi * r2) * grid.weights[None, :]
    if grid.curvature is not None:
        np.fill_diagonal(K, grid.curvature / (4 * np.pi) * grid.weights)
    else:
        # the discrete Gauss identity w^T K* = w^T / 2 sets a polygon's diagonal
        np.fill_diagonal(K, 0.0)
        np.fill_diagonal(K, (0.5 * grid.weights - grid.weights @ K) / grid.weights)
    return K


def _reference_densities(grid, k, K=None):
    """Per-direction densities by a dense direct solve with the real-form K*."""
    K = _reference_npo(grid) if K is None else K
    system = (k + 1.0) / (2.0 * (k - 1.0)) * np.eye(grid.n) - K
    return [np.linalg.solve(system, grid.normals[:, j]) for j in range(grid.dim)]


def _close(got, ref, rtol=1e-13):
    return np.max(np.abs(np.asarray(got) - ref)) <= rtol * np.max(np.abs(ref))


@pytest.mark.parametrize("shape", [Ellipse(2.0, 1.0), STAR, SQUARE], ids=["ellipse", "star", "square"])
def test_shared_solve_matches_per_direction_reference(shape):
    grid = discretize(shape, 192)
    sample = default_interior_sample(grid)
    eye = np.eye(2)
    for k in (0.5, 3.0):
        phis = _reference_densities(grid, k)
        raw = np.array([(grid.nodes * (phi * grid.weights)[:, None]).sum(axis=0) for phi in phis])
        assert _close(polarization_tensor(grid, k).M, 0.5 * (raw + raw.T))
        ref = [interior_field(grid, phi, eye[j], sample) for j, phi in enumerate(phis)]
        verdict = uniformity_verdict(grid, [k])
        assert _close(_mean_gradients(verdict), np.stack([mean for mean, _ in ref]))
        # delta is already relative to the mean gradient, so its scale is 1
        deltas = [row["delta"] for row in verdict["rows"]]
        assert np.max(np.abs(np.subtract(deltas, [delta for _, delta in ref]))) <= 1e-13
    ks = (0.5, 2.0, 10.0)
    verdict = uniformity_verdict(grid, ks)
    rows = verdict["rows"]
    assert [(r["k"], r["direction"]) for r in rows] == [(k, j) for k in ks for j in (1, 2)]
    for row, grad in zip(rows, _mean_gradients(verdict)):
        phi = _reference_densities(grid, row["k"])[row["direction"] - 1]
        mean, delta = interior_field(grid, phi, eye[row["direction"] - 1], sample)
        assert _close(grad, mean)
        assert abs(row["delta"] - delta) <= 1e-13


def _count_assemblies(monkeypatch):
    grids = []

    def counting(grid):
        grids.append(grid)
        return layerpot.npo_matrix(grid)

    monkeypatch.setattr(transmission, "npo_matrix", counting)
    return grids


def test_one_assembly_per_grid(monkeypatch, capsys, ellipse21_grid):
    grids = _count_assemblies(monkeypatch)
    polarization_tensor(ellipse21_grid, 3.0)
    assert grids == [ellipse21_grid]
    grids.clear()
    uniformity_verdict(ellipse21_grid, (0.5, 2.0, 10.0))
    assert grids == [ellipse21_grid]
    grids.clear()
    assert run(["eshelby", "--shape", "ellipse:2,1", "--k", "0.5,2,10", "--n", "128"]) == 0
    capsys.readouterr()
    assert len(grids) == 1


def test_solve_guard_fails_closed_on_nan(monkeypatch, ellipse21_grid):
    def poisoned(grid):
        mat = layerpot.npo_matrix(grid)
        mat[3, 5] = np.nan
        return mat

    monkeypatch.setattr(transmission, "npo_matrix", poisoned)
    with pytest.raises(SolveError):
        solve_density(ellipse21_grid, 2.0, np.array([1.0, 0.0]))
    with pytest.raises(SolveError):
        polarization_tensor(ellipse21_grid, 2.0)


class _CountingMatrix:
    """K* that counts its matrix-vector products, one per Arnoldi step."""

    def __init__(self, matrix):
        self.matrix, self.products = matrix, 0

    def __matmul__(self, vector):
        self.products += 1
        return self.matrix @ vector


def test_gmres_on_an_ellipse_stops_within_two_steps_at_the_closed_form(ellipse21_grid):
    # n_j is an eigenvector of K* on an ellipse: K*[n_j] = (1/2 - a_j) n_j
    # with depolarization factors a = (b, a) / (a + b), so each basis
    # density is n_j / (coupling - 1/2 + a_j)
    grid = ellipse21_grid
    mat = layerpot.npo_matrix(grid)
    factors = (1.0 / 3.0, 2.0 / 3.0)
    ks = (1e-9, 0.5, 3.0, 1e3, 1e9)
    shifts = np.array([Contrast(k).coupling for k in ks])
    for group in [[c] for c in shifts] + [shifts]:
        for cols in ([0], [1], [0, 1]):
            counting = _CountingMatrix(mat)
            got = _gmres(counting, grid.normals[:, cols], np.array(group))
            # one product per column and step; the columns advance together
            assert counting.products <= 2 * len(cols)
            for phis, c in zip(got, group):
                for phi, j in zip(phis.T, cols):
                    assert _close(phi, grid.normals[:, j] / (c - 0.5 + factors[j]), 1e-12)


def _named_grid(name):
    return discretize(parse_shape(name)[1], 256)


@pytest.mark.parametrize("name", ["disk", "ellipse:2,1", "star", "square", "kite"])
def test_tensor_matches_a_dense_direct_solve(name):
    grid = _named_grid(name)
    K = _reference_npo(grid)
    for k in (1e-9, 0.5, 3.0, 1e3):
        phis = _reference_densities(grid, k, K)
        raw = np.array([(grid.nodes * (phi * grid.weights)[:, None]).sum(axis=0) for phi in phis])
        assert _close(polarization_tensor(grid, k).M, 0.5 * (raw + raw.T), 1e-12)


@pytest.mark.parametrize("k", [1e9, 1e308])
def test_ellipse_tensor_matches_the_closed_form_at_extreme_contrast(ellipse21_grid, k):
    closed = closed_form_pt(Ellipse(2.0, 1.0), k).M
    assert _close(polarization_tensor(ellipse21_grid, k).M, closed, 1e-12)


@pytest.mark.parametrize("name", ["star", "kite"])
def test_one_basis_serves_every_contrast(name):
    grid = _named_grid(name)
    ks = [0.5, 2.0, 3.0, 5.0, 10.0]
    shared = _basis_densities(grid, ks)
    assert len(shared) == len(ks)
    for k, phis in zip(ks, shared):
        (single,) = _basis_densities(grid, [k])
        assert phis.shape == (grid.n, 2)
        assert _close(phis, single, 1e-13)


@pytest.mark.parametrize("k", [1e-9, 1e9])
def test_a_sharp_corner_at_extreme_contrast_passes_the_solve_guard(k):
    # the slowest-converging input here: a 1.9 degree corner at extreme
    # contrast takes 180-185 Arnoldi steps per direction on 1,056 nodes
    grid = _named_grid("polygon:0,0,30,0,0,1")
    pt = polarization_tensor(grid, k)
    assert np.all(np.isfinite(pt.M)) and np.all(np.isfinite(pt.densities))
