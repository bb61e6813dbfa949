import numpy as np
import pytest

import oracles
from oracles import triangle_areas
from chns.mesh import build_uniform_mesh

MESH_ARRAYS = ("vertices", "triangles", "edges", "boundary_vertices", "boundary_edges")


def test_smallest_mesh_counts():
    m = build_uniform_mesh(1, 1)
    assert m.num_vertices == 4
    assert m.num_triangles == 2
    assert m.num_edges == 5


def test_4x4_counts_match_enumeration():
    m = build_uniform_mesh(4, 4)
    assert m.num_vertices == 25
    assert m.num_triangles == 32
    # E = (3T + boundary edges) / 2 by edge-incidence counting
    assert m.num_edges == (3 * 32 + 16) // 2 == 56


def test_2x1_counts():
    m = build_uniform_mesh(2, 1)
    assert m.num_vertices == 6
    assert m.num_triangles == 4


@pytest.mark.parametrize("nx,ny", [(n, m) for n in range(1, 17, 5) for m in range(1, 17, 5)])
def test_area_euler_boundary_sweep(nx, ny):
    m = build_uniform_mesh(nx, ny)
    areas = triangle_areas(m)
    assert (areas > 0).all()
    assert abs(areas.sum() - 1.0) <= 1e-12
    assert m.num_vertices - m.num_edges + m.num_triangles == 1
    assert len(m.boundary_vertices) == 2 * (nx + ny)


def test_full_sweep_area_and_euler():
    for n in range(1, 17):
        m = build_uniform_mesh(n, n)
        assert abs(triangle_areas(m).sum() - 1.0) <= 1e-12
        assert m.num_vertices - m.num_edges + m.num_triangles == 1


def test_edge_triangle_incidence():
    m = build_uniform_mesh(3, 5)
    # the triangles each edge lies in, counted by triangle
    incident = [set() for _ in range(m.num_edges)]
    index = {tuple(e): k for k, e in enumerate(m.edges.tolist())}
    for t, tri in enumerate(m.triangles.tolist()):
        for a, b in ((0, 1), (1, 2), (2, 0)):
            incident[index[tuple(sorted((tri[a], tri[b])))]].add(t)
    counts = np.array([len(s) for s in incident])
    boundary = np.zeros(m.num_edges, dtype=bool)
    boundary[m.boundary_edges] = True
    assert (counts[boundary] == 1).all()
    assert (counts[~boundary] == 2).all()


def test_rectangle_scaling():
    m = build_uniform_mesh(2, 3, rect=(-1.0, 0.0, 3.0, 1.5))
    assert abs(triangle_areas(m).sum() - 4.0 * 1.5) <= 1e-12 * 6.0
    assert m.grid == (2, 3)


def test_deterministic_rebuild():
    a = build_uniform_mesh(5, 7)
    b = build_uniform_mesh(5, 7)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.triangles, b.triangles)
    assert np.array_equal(a.edges, b.edges)


def test_arrays_read_only():
    m = build_uniform_mesh(2, 2)
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 99.0


@pytest.mark.parametrize("nx,ny", [(0, 1), (1, 0), (-2, 3)])
def test_invalid_subdivisions(nx, ny):
    with pytest.raises(ValueError):
        build_uniform_mesh(nx, ny)


def test_degenerate_rectangle():
    with pytest.raises(ValueError):
        build_uniform_mesh(2, 2, rect=(0.0, 0.0, 0.0, 1.0))


@pytest.mark.parametrize("nx,ny,rect", oracles.SETUP_SHAPES)
def test_mesh_matches_loop_oracle(nx, ny, rect):
    mesh = build_uniform_mesh(nx, ny, rect)
    ref = oracles.loop_uniform_mesh(nx, ny, rect)
    for name in MESH_ARRAYS:
        assert oracles.identical(getattr(mesh, name), getattr(ref, name)), name
        assert not getattr(mesh, name).flags.writeable, name
