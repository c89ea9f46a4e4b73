"""Mesh construction, refinement and topology invariants."""

import gc
import weakref

import numpy as np
import pytest

from nematicfem.exceptions import MeshError
from nematicfem.fespace import MeshGeometry
from nematicfem.mesh import (DomainShape, L_SHAPE, SLIT_SQUARE, UNIT_SQUARE,
                             build_initial_mesh, nvb_refine, red_refine)


def test_unit_square_counts(unit_square):
    assert unit_square.n_triangles == 2
    assert unit_square.n_vertices == 4
    assert unit_square.n_edges == 5
    assert len(unit_square.interior_edges) == 1


def test_lshape_counts(lshape):
    assert lshape.n_triangles == 6
    assert lshape.n_vertices == 8
    # every vertex of the coarse L-shape mesh lies on the boundary
    on_boundary = np.zeros(lshape.n_vertices, bool)
    on_boundary[lshape.edges[lshape.boundary_edges].ravel()] = True
    assert on_boundary.all()
    lshape.check_conforming(geometric=True)


def test_slit_duplicated_vertices(slit):
    at_half = np.flatnonzero((slit.vertices == [0.5, 0.0]).all(axis=1))
    assert len(at_half) == 2
    at_one = np.flatnonzero((slit.vertices == [1.0, 0.0]).all(axis=1))
    assert len(at_one) == 2
    # both slit faces present as distinct boundary segments
    segs = set(slit.edge_segment[slit.boundary_edges])
    assert {4, 5} <= segs


def test_unknown_shape_rejected():
    with pytest.raises(MeshError):
        DomainShape("pentagon")


@pytest.mark.parametrize("kind,count", [(UNIT_SQUARE, 8), (L_SHAPE, 24),
                                        (SLIT_SQUARE, 40)])
def test_red_refine_quadruples(kind, count):
    mesh = red_refine(build_initial_mesh(DomainShape(kind)))
    assert mesh.n_triangles == count
    mesh.check_conforming(geometric=True)


def test_red_refine_halves_diameters(lshape):
    fine = red_refine(lshape)
    assert fine.max_diameter() == pytest.approx(lshape.max_diameter() / 2, rel=1e-14)


def test_red_refine_twice_single_triangle(single_triangle):
    twice = red_refine(red_refine(single_triangle))
    assert twice.n_triangles == 16
    # all children similar to the parent: same angle set
    assert twice.min_angle() == pytest.approx(single_triangle.min_angle(), abs=1e-12)


def test_lshape_ndof_sequence(lshape):
    """One red refinement gives 21 vertices (42 dofs), then 65, 225, ..."""
    mesh = lshape
    counts = []
    for _ in range(3):
        mesh = red_refine(mesh)
        counts.append(2 * mesh.n_vertices)
    assert counts == [42, 130, 450]


def test_nvb_single_triangle(single_triangle):
    fine = nvb_refine(single_triangle, {0})
    assert fine.n_triangles == 2
    assert fine.n_vertices == 4
    fine.check_conforming(geometric=False)
    assert np.all(fine.signed_areas() > 0)


def test_nvb_closure_on_shared_diagonal(unit_square):
    # both triangles' refinement edge is the shared diagonal: marking one
    # forces the neighbour to split too
    fine = nvb_refine(unit_square, {0})
    assert fine.n_triangles == 4
    fine.check_conforming(geometric=True)


def test_nvb_empty_marking(unit_square):
    assert nvb_refine(unit_square, set()) is unit_square


def test_nvb_marked_out_of_range(unit_square):
    with pytest.raises(IndexError):
        nvb_refine(unit_square, {5})


def test_nvb_children_track_parents(unit_square):
    fine = nvb_refine(unit_square, {0})
    for parent in (0, 1):
        assert (fine.tri_parents == parent).sum() >= 2


@pytest.mark.parametrize("refine", ["red", "nvb"])
def test_refined_mesh_releases_its_parent(lshape, refine):
    """A refined mesh refers to its parent weakly: without the cyclic
    garbage collector, the parent dies once its caller drops it, while the
    refined mesh lives and its reference then returns None."""
    coarse = red_refine(lshape)
    fine = (red_refine(coarse) if refine == "red"
            else nvb_refine(coarse, [0, 5]))
    assert fine.parent() is coarse
    watch = weakref.ref(coarse)
    gc.disable()
    try:
        del coarse
        assert watch() is None
        assert fine.parent() is None and fine.n_triangles > 0
    finally:
        gc.enable()


@pytest.mark.parametrize("kind", [UNIT_SQUARE, L_SHAPE, SLIT_SQUARE])
def test_nvb_sequence_invariants(kind):
    """Conformity, orientation, area and angle floor over 6 NVB rounds."""
    mesh = red_refine(build_initial_mesh(DomainShape(kind)))
    floor = mesh.min_angle() / 2
    area = mesh.total_area()
    rng = np.random.default_rng(7)
    for _ in range(6):
        marked = rng.choice(mesh.n_triangles,
                            size=max(1, mesh.n_triangles // 5), replace=False)
        mesh = nvb_refine(mesh, marked)
        mesh.check_conforming(geometric=mesh.n_triangles < 2000)
        assert np.all(mesh.signed_areas() > 0)
        assert abs(mesh.total_area() - area) <= 1e-12 * area
        assert mesh.min_angle() >= floor - 1e-12


def test_mixed_refinement_conformity(lshape):
    mesh = red_refine(lshape)
    mesh = nvb_refine(mesh, {0, 3, 7})
    mesh = red_refine(mesh)
    mesh = nvb_refine(mesh, set(range(0, mesh.n_triangles, 9)))
    mesh.check_conforming(geometric=True)


def test_edge_length_and_diameter(single_triangle):
    m = single_triangle
    assert m.triangle_diameters()[0] == pytest.approx(np.sqrt(2.0))
    horizontal = [e for e in range(m.n_edges)
                  if set(map(tuple, m.vertices[m.edges[e]])) == {(0, 0), (1, 0)}]
    assert MeshGeometry(m).edge_len[horizontal[0]] == pytest.approx(1.0)


def test_refinement_edge_is_longest_edge(lshape):
    for t in range(lshape.n_triangles):
        k = lshape.ref_edge[t]
        tri = lshape.triangles[t]
        pts = lshape.vertices[tri]
        lengths = [np.linalg.norm(pts[(i + 1) % 3] - pts[i]) for i in range(3)]
        assert lengths[k] == pytest.approx(max(lengths))


def test_dump_roundtrip_header(unit_square, tmp_path):
    path = tmp_path / "mesh.txt"
    unit_square.dump(path)
    text = path.read_text()
    assert text.splitlines()[0] == "vertices 4 triangles 2 edges 5"
    assert len(text.splitlines()) == 1 + 4 + 2 + 5


@pytest.mark.parametrize("kind", [UNIT_SQUARE, L_SHAPE, SLIT_SQUARE])
def test_initial_mesh_dump_golden(kind, tmp_path):
    import pathlib
    golden = pathlib.Path(__file__).parent / "data" / f"{kind}.mesh.txt"
    mesh = build_initial_mesh(DomainShape(kind))
    assert mesh.dumps() == golden.read_text()


def _reference_topology(mesh):
    """Edge topology from a row-wise ``np.unique`` of the sorted vertex
    pairs and a plain loop over the triangles."""
    raw = mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    edges, inverse, counts = np.unique(np.sort(raw, axis=1), axis=0,
                                       return_inverse=True, return_counts=True)
    tri_edges = inverse.reshape(-1, 3)
    edge_tris = np.full((len(edges), 2), -1, dtype=np.int64)
    for t, ids in enumerate(tri_edges):
        for e in ids:
            edge_tris[e, int(edge_tris[e, 0] >= 0)] = t
    return (edges, tri_edges, edge_tris, np.flatnonzero(counts == 1),
            np.flatnonzero(counts == 2))


@pytest.mark.parametrize("kind", [UNIT_SQUARE, L_SHAPE, SLIT_SQUARE])
@pytest.mark.parametrize("refine", ["red", "nvb"])
def test_edges_match_rowwise_unique(kind, refine):
    mesh = red_refine(build_initial_mesh(DomainShape(kind)))
    rng = np.random.default_rng(3)
    for _ in range(3):
        if refine == "red":
            mesh = red_refine(mesh)
        else:
            mesh = nvb_refine(mesh, rng.choice(
                mesh.n_triangles, size=mesh.n_triangles // 4, replace=False))
        actual = (mesh.edges, mesh.tri_edges, mesh.edge_tris,
                  mesh.boundary_edges, mesh.interior_edges)
        for got, want in zip(actual, _reference_topology(mesh)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
