import math

import numpy as np
import pytest

import oracles
from chns.assembly import assemble_mass, assemble_stiffness, l2_error
from chns.fem import build_space, coarser_grid, grid_interpolation, interpolate, p1_basis, \
    p2_basis, triangle_quadrature
from chns.mesh import build_uniform_mesh


def reference_monomial_integral(a, b):
    # closed form: int_T x^a y^b = a! b! / (a+b+2)!
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6, 7, 8])
def test_quadrature_exactness(degree):
    rule = triangle_quadrature(degree)
    assert rule.exactness_degree >= degree
    assert abs(rule.weights.sum() - 0.5) <= 1e-14
    x, y = rule.points[:, 1], rule.points[:, 2]
    for a in range(rule.exactness_degree + 1):
        for b in range(rule.exactness_degree + 1 - a):
            exact = reference_monomial_integral(a, b)
            approx = float(np.sum(rule.weights * x ** a * y ** b))
            assert abs(approx - exact) <= 1e-13 * exact


def test_quadrature_spot_values():
    rule = triangle_quadrature(5)
    assert float(rule.weights.sum()) == pytest.approx(0.5, abs=1e-15)          # integral of 1
    x = rule.points[:, 1]
    assert float(np.sum(rule.weights * x)) == pytest.approx(1 / 6, abs=1e-15)  # integral of x
    y = rule.points[:, 2]
    assert float(np.sum(rule.weights * x ** 2 * y ** 2)) == pytest.approx(1 / 180, abs=1e-16)


@pytest.mark.parametrize("degree", [0, 9, -3])
def test_quadrature_invalid_degree(degree):
    with pytest.raises(ValueError):
        triangle_quadrature(degree)


def test_p1_kronecker_and_centroid():
    for i, pt in enumerate(np.eye(3)):
        vals, _ = p1_basis(pt)
        assert np.allclose(vals, np.eye(3)[i])
    vals, _ = p1_basis((1 / 3, 1 / 3, 1 / 3))
    assert np.allclose(vals, 1 / 3)


def test_p2_kronecker_at_nodes():
    nodes = [(1, 0, 0), (0, 1, 0), (0, 0, 1),
             (0.5, 0.5, 0), (0, 0.5, 0.5), (0.5, 0, 0.5)]
    for i, pt in enumerate(nodes):
        vals, _ = p2_basis(pt)
        expect = np.zeros(6)
        expect[i] = 1.0
        assert np.allclose(vals, expect, atol=1e-14)


def test_partition_of_unity_random_points():
    rng = np.random.default_rng(3)
    pts = rng.dirichlet([1.0, 1.0, 1.0], size=100)
    for pt in pts:
        v1, g1 = p1_basis(pt)
        v2, g2 = p2_basis(pt)
        assert abs(v1.sum() - 1.0) <= 1e-14
        assert abs(v2.sum() - 1.0) <= 1e-14
        # differentiating the partition of unity kills the gradient sum
        assert np.abs(g1.sum(axis=0)).max() <= 1e-14
        assert np.abs(g2.sum(axis=0)).max() <= 1e-13


def test_space_dof_counts():
    mesh1 = build_uniform_mesh(1, 1)
    assert build_space(mesh1, "p2").ndofs == 4 + 5 == 9
    mesh4 = build_uniform_mesh(4, 4)
    assert build_space(mesh4, "p2vec").ndofs == 2 * (25 + 56) == 162
    assert build_space(mesh4, "p1").ndofs == 25


def test_space_boundary_dofs():
    mesh = build_uniform_mesh(4, 4)
    p2 = build_space(mesh, "p2")
    assert len(p2.boundary_dofs) == 16 + 16  # boundary vertices + boundary edge midpoints
    p2v = build_space(mesh, "p2vec")
    assert len(p2v.boundary_dofs) == 2 * 32


def test_every_dof_referenced():
    mesh = build_uniform_mesh(3, 2)
    for kind in ("p1", "p2", "p2vec"):
        space = build_space(mesh, kind)
        assert set(space.cell_dofs.ravel()) == set(range(space.ndofs))


def test_unknown_kind():
    with pytest.raises(ValueError):
        build_space(build_uniform_mesh(1, 1), "p3")


def test_interpolate_constant_and_linear():
    mesh = build_uniform_mesh(4, 4)
    p1 = build_space(mesh, "p1")
    c = interpolate(p1, lambda x, y: np.full_like(x, 3.25))
    assert np.allclose(c, 3.25)
    cx = interpolate(p1, lambda x, y: x)
    assert np.allclose(cx, p1.dof_coords[:, 0])


def test_interpolate_quadratic_exact_in_p2():
    mesh = build_uniform_mesh(4, 4)
    p2 = build_space(mesh, "p2")
    coeffs = interpolate(p2, lambda x, y: x ** 2)
    assert l2_error(p2, coeffs, lambda x, y: x ** 2) <= 1e-13


def test_interpolation_orders():
    # smooth non-polynomial: order 2 in L2 for linears, order 3 for quadratics
    def f(x, y):
        return np.sin(np.pi * x) * np.cos(np.pi * y)

    errs = {"p1": [], "p2": []}
    for nx in (4, 8, 16):
        mesh = build_uniform_mesh(nx, nx)
        for kind in ("p1", "p2"):
            space = build_space(mesh, kind)
            errs[kind].append(l2_error(space, interpolate(space, f), f))
    for kind, order in (("p1", 2.0), ("p2", 3.0)):
        rates = [math.log2(a / b) for a, b in zip(errs[kind], errs[kind][1:])]
        for r in rates:
            assert abs(r - order) <= 0.2


@pytest.mark.parametrize("nx,ny,rect", oracles.SETUP_SHAPES)
def test_spaces_match_dict_oracle(nx, ny, rect):
    mesh = build_uniform_mesh(nx, ny, rect)
    for kind in ("p1", "p2", "p2vec"):
        space, ref = build_space(mesh, kind), oracles.dict_space(mesh, kind)
        assert (space.ndofs, space.ncomp) == (ref.ndofs, ref.ncomp)
        for name in ("cell_dofs", "boundary_dofs", "dof_coords", "scalar_cell_dofs"):
            assert oracles.identical(getattr(space, name), getattr(ref, name)), (kind, name)


RECT = (0.5, -1.0, 2.0, 3.0)


def _galerkin_gap(p, fine, coarse):
    """Largest relative entry gap of P^T A_fine P against A_coarse, for mass and stiffness."""
    gaps = []
    for assemble in (assemble_mass, assemble_stiffness):
        a_fine, a_coarse = assemble(fine), assemble(coarse)
        gaps.append(abs(p.T @ a_fine @ p - a_coarse).max() / abs(a_coarse).max())
    return max(gaps)


@pytest.mark.parametrize("nx,ny", [(1, 1), (4, 4), (5, 3), (7, 4)])
def test_p1_embeds_exactly_in_p2(nx, ny):
    mesh = build_uniform_mesh(nx, ny, RECT)
    p1, p2 = build_space(mesh, "p1"), build_space(mesh, "p2")
    # P1 is a subspace of P2, so its Galerkin matrices are the P1 ones
    assert _galerkin_gap(oracles.p1_to_p2(mesh), p2, p1) <= 1e-13


@pytest.mark.parametrize("nx,ny", [(4, 4), (6, 2), (8, 4), (5, 3), (7, 4), (2, 9)])
def test_grid_interpolation(nx, ny):
    grid = (nx, ny)
    coarse_grid = coarser_grid(grid)
    fine = build_space(build_uniform_mesh(nx, ny, RECT), "p1")
    coarse = build_space(build_uniform_mesh(*coarse_grid, RECT), "p1")
    p = grid_interpolation(grid, coarse_grid)
    assert p.shape == (fine.ndofs, coarse.ndofs) and (p.data > 0.0).all()
    assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-15

    def linear(x, y):
        return 0.3 + 1.7 * x - 2.1 * y

    # every grid reproduces the linear functions
    assert np.abs(p @ interpolate(coarse, linear) - interpolate(fine, linear)).max() <= 1e-14
    if nx % 2 == 0 and ny % 2 == 0:
        # nested grids: the coarse space is a subspace, with the exact weights 1 and 1/2
        assert set(p.data) <= {0.5, 1.0}
        assert _galerkin_gap(p, fine, coarse) <= 1e-13


def test_coarser_grid_halves_up():
    assert coarser_grid((64, 64)) == (32, 32)
    assert coarser_grid((5, 2)) == (3, 1)
    assert coarser_grid((1, 1)) == (1, 1)
