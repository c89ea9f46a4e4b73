"""Triangulations of the benchmark domains and their refinement.

A :class:`Mesh` stores vertices, counterclockwise triangles, a designated
refinement edge per triangle (for newest-vertex bisection) and the full
edge topology.  Meshes are immutable after construction; both refinement
routines return a new mesh that remembers its parent, the parent edge each
new vertex bisects and the parent triangle of every child, which is what
makes exact field transfer between levels possible.

The slit domain is represented with duplicated vertices along the slit, so
the two slit faces are topologically separate boundary segments while the
geometry stays exact.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import MeshError

UNIT_SQUARE = "unit-square"
L_SHAPE = "l-shape"
SLIT_SQUARE = "slit-square"

_SHAPE_AREAS = {UNIT_SQUARE: 1.0, L_SHAPE: 3.0, SLIT_SQUARE: 2.0}


@dataclass(frozen=True)
class DomainShape:
    """One of the three benchmark domains.

    * ``unit-square``: (0,1)^2.
    * ``l-shape``: (-1,1)^2 minus the closed quadrant [0,1] x [-1,0].
    * ``slit-square``: {|x|+|y| < 1} minus the slit [0,1] x {0}.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in _SHAPE_AREAS:
            raise MeshError(f"unknown domain shape {self.kind!r}")

    @property
    def area(self) -> float:
        return _SHAPE_AREAS[self.kind]

    def boundary_segment(self, midpoints, inward):
        """Segment id for boundary edges given their midpoints and a vector
        from each midpoint toward the adjacent triangle's centroid (needed
        to tell the two slit faces apart)."""
        x, y = midpoints[:, 0], midpoints[:, 1]
        seg = np.full(len(midpoints), -1, dtype=np.int64)
        tol = 1e-9
        if self.kind == UNIT_SQUARE:
            seg[np.abs(y) < tol] = 0
            seg[np.abs(x - 1) < tol] = 1
            seg[np.abs(y - 1) < tol] = 2
            seg[np.abs(x) < tol] = 3
        elif self.kind == L_SHAPE:
            seg[np.abs(y + 1) < tol] = 0
            seg[(np.abs(x) < tol) & (y < tol)] = 1
            seg[(np.abs(y) < tol) & (x > -tol)] = 2
            seg[np.abs(x - 1) < tol] = 3
            seg[np.abs(y - 1) < tol] = 4
            seg[np.abs(x + 1) < tol] = 5
        else:
            on_slit = (np.abs(y) < tol) & (x > -tol)
            seg[np.abs(x + y - 1) < tol] = 0
            seg[np.abs(-x + y - 1) < tol] = 1
            seg[np.abs(x + y + 1) < tol] = 2
            seg[np.abs(x - y - 1) < tol] = 3
            seg[on_slit & (inward[:, 1] > 0)] = 4
            seg[on_slit & (inward[:, 1] < 0)] = 5
        return seg


class Mesh:
    """Conforming triangulation with edge topology and NVB bookkeeping.

    Parameters
    ----------
    vertices : (V, 2) float array
    triangles : (T, 3) int array, counterclockwise vertex ids
    ref_edge : (T,) int array, local refinement edge k, meaning the edge
        between local vertices k and k+1 (mod 3); defaults to the longest
        edge with ties broken by the smallest opposite-vertex id
    shape : DomainShape or None
    """

    def __init__(self, vertices, triangles, ref_edge=None, shape=None,
                 parent=None, vertex_parents=None, tri_parents=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        self.shape = shape
        self.parent = parent
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (V, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be an (T, 3) array")

        if vertex_parents is None:
            ids = np.arange(len(self.vertices), dtype=np.int64)
            vertex_parents = np.stack([ids, ids], axis=1)
        self.vertex_parents = np.asarray(vertex_parents, dtype=np.int64)
        if tri_parents is None:
            tri_parents = np.arange(len(self.triangles), dtype=np.int64)
        self.tri_parents = np.asarray(tri_parents, dtype=np.int64)

        self._build_edges()
        if ref_edge is None:
            ref_edge = self._longest_edge_labels()
        self.ref_edge = np.asarray(ref_edge, dtype=np.int64)
        if self.ref_edge.shape != (len(self.triangles),):
            raise MeshError("ref_edge must hold one local edge index per triangle")
        if np.any((self.ref_edge < 0) | (self.ref_edge > 2)):
            raise MeshError("refinement edge indices must lie in {0, 1, 2}")

    # -- construction helpers -------------------------------------------------

    def _build_edges(self):
        t = self.triangles
        raw = np.stack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]], axis=1)
        raw = raw.reshape(-1, 2)
        raw_sorted = np.sort(raw, axis=1)
        self.edges, inverse, counts = np.unique(
            raw_sorted, axis=0, return_inverse=True, return_counts=True)
        if counts.max(initial=0) > 2:
            raise MeshError("an edge is shared by more than two triangles")
        self.tri_edges = inverse.reshape(-1, 3)

        ne = len(self.edges)
        # adjacency: the smaller adjacent triangle id is the "plus" side
        order = np.argsort(inverse, kind="stable")
        owner = order // 3
        starts = np.zeros(ne + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        self.edge_tris = np.full((ne, 2), -1, dtype=np.int64)
        first = owner[starts[:-1]]
        self.edge_tris[:, 0] = first
        two = counts == 2
        second = owner[starts[:-1][two] + 1]
        lo = np.minimum(first[two], second)
        hi = np.maximum(first[two], second)
        self.edge_tris[two, 0] = lo
        self.edge_tris[two, 1] = hi

        self.boundary_edge_mask = counts == 1
        self.boundary_edges = np.flatnonzero(self.boundary_edge_mask)
        self.interior_edges = np.flatnonzero(~self.boundary_edge_mask)

        self.edge_segment = np.full(ne, -1, dtype=np.int64)
        if self.shape is not None and len(self.boundary_edges):
            be = self.boundary_edges
            mids = 0.5 * (self.vertices[self.edges[be, 0]]
                          + self.vertices[self.edges[be, 1]])
            cent = self.vertices[self.triangles[self.edge_tris[be, 0]]].mean(axis=1)
            seg = self.shape.boundary_segment(mids, cent - mids)
            if np.any(seg < 0):
                bad = be[np.flatnonzero(seg < 0)[0]]
                raise MeshError(
                    f"edge {bad} has a single adjacent triangle but does not lie "
                    "on the domain boundary (hanging node or broken topology)")
            self.edge_segment[be] = seg

    def _longest_edge_labels(self):
        p = self.vertices[self.triangles]
        lens = np.stack([
            ((p[:, 1] - p[:, 0]) ** 2).sum(1),
            ((p[:, 2] - p[:, 1]) ** 2).sum(1),
            ((p[:, 0] - p[:, 2]) ** 2).sum(1),
        ], axis=1)
        longest = lens.max(axis=1, keepdims=True)
        candidate = lens >= longest * (1.0 - 1e-12)
        # opposite vertex of local edge k is local vertex k+2
        opposite = self.triangles[:, [2, 0, 1]]
        key = np.where(candidate, opposite, np.iinfo(np.int64).max)
        return np.argmin(key, axis=1)

    # -- basic queries --------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def signed_areas(self):
        p = self.vertices[self.triangles]
        a = p[:, 1] - p[:, 0]
        b = p[:, 2] - p[:, 0]
        return 0.5 * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])

    def triangle_diameters(self):
        p = self.vertices[self.triangles]
        return np.sqrt(np.stack([
            ((p[:, 1] - p[:, 0]) ** 2).sum(1),
            ((p[:, 2] - p[:, 1]) ** 2).sum(1),
            ((p[:, 0] - p[:, 2]) ** 2).sum(1),
        ], axis=1).max(axis=1))

    def edge_length(self, e: int) -> float:
        if not 0 <= e < self.n_edges:
            raise IndexError(f"edge id {e} out of range [0, {self.n_edges})")
        a, b = self.edges[e]
        return float(np.hypot(*(self.vertices[b] - self.vertices[a])))

    def triangle_diameter(self, t: int) -> float:
        if not 0 <= t < self.n_triangles:
            raise IndexError(f"triangle id {t} out of range [0, {self.n_triangles})")
        return float(self.triangle_diameters()[t])

    def min_angle(self) -> float:
        """Smallest interior angle over all triangles, in radians."""
        p = self.vertices[self.triangles]
        angles = []
        for k in range(3):
            u = p[:, (k + 1) % 3] - p[:, k]
            v = p[:, (k + 2) % 3] - p[:, k]
            cross = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
            dot = (u * v).sum(1)
            angles.append(np.arctan2(np.abs(cross), dot))
        return float(np.min(angles))

    def total_area(self) -> float:
        return float(self.signed_areas().sum())

    def max_diameter(self) -> float:
        return float(self.triangle_diameters().max())

    # -- validation -----------------------------------------------------------

    def check_conforming(self, geometric: bool = False):
        """Raise :class:`MeshError` on orientation, area or conformity defects.

        Edge counts and boundary classification already reject hanging nodes:
        a hanging node turns the two half-edges beside it into single-triangle
        edges that do not lie on the domain boundary, which the segment
        classifier refuses (checked at construction).  ``geometric=True`` adds
        a brute-force O(V*E) check that no vertex sits strictly inside an
        edge; use it on small meshes only.
        """
        areas = self.signed_areas()
        if np.any(areas <= 0):
            raise MeshError("triangle with non-positive signed area")
        if self.shape is not None:
            if abs(self.total_area() - self.shape.area) > 1e-12 * self.shape.area:
                raise MeshError("mesh area does not match the domain area")
        if geometric:
            self._check_no_hanging_nodes()

    def _check_no_hanging_nodes(self):
        pts = self.vertices
        # mean y-coordinate of the triangles touching each vertex; tells the
        # two slit faces apart (their vertices coincide geometrically)
        side = np.zeros(self.n_vertices)
        cents = pts[self.triangles].mean(axis=1)
        for k in range(3):
            np.add.at(side, self.triangles[:, k], cents[:, 1])
        for e, (a, b) in enumerate(self.edges):
            pa, pb = pts[a], pts[b]
            d = pb - pa
            L2 = d @ d
            rel = pts - pa
            t = (rel @ d) / L2
            off = np.abs(rel[:, 0] * d[1] - rel[:, 1] * d[0]) / np.sqrt(L2)
            on = (off < 1e-12) & (t > 1e-12) & (t < 1 - 1e-12)
            on[a] = on[b] = False
            if (self.shape is not None and self.shape.kind == SLIT_SQUARE
                    and self.edge_segment[e] in (4, 5)):
                # vertices of the opposite slit face are not hanging nodes
                own = cents[self.edge_tris[e, 0], 1]
                on &= side * own > 0
            if np.any(on):
                raise MeshError(f"hanging node on edge {e}")

    # -- dump -----------------------------------------------------------------

    def dumps(self) -> str:
        """Plain-text dump: header then one line per vertex, triangle, edge."""
        lines = [f"vertices {self.n_vertices} triangles {self.n_triangles} "
                 f"edges {self.n_edges}"]
        for x, y in self.vertices:
            lines.append(f"{float(x)!r} {float(y)!r}")
        for (a, b, c), k in zip(self.triangles, self.ref_edge):
            lines.append(f"{a} {b} {c} {k}")
        for e in range(self.n_edges):
            a, b = self.edges[e]
            tp, tm = self.edge_tris[e]
            flag = int(self.boundary_edge_mask[e])
            lines.append(f"{a} {b} {tp} {tm} {flag} {self.edge_segment[e]}")
        return "\n".join(lines) + "\n"

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())


# -- initial meshes ----------------------------------------------------------


def build_initial_mesh(shape: DomainShape) -> Mesh:
    """Hand-built coarse mesh of one of the benchmark domains."""
    if shape.kind == UNIT_SQUARE:
        vertices = [(0, 0), (1, 0), (1, 1), (0, 1)]
        triangles = [(0, 1, 2), (0, 2, 3)]
    elif shape.kind == L_SHAPE:
        # one square per quadrant of the L, each split along the diagonal
        # through the re-entrant corner at the origin
        vertices = [(-1, -1), (0, -1), (-1, 0), (0, 0),
                    (1, 0), (-1, 1), (0, 1), (1, 1)]
        triangles = [(0, 1, 3), (0, 3, 2),
                     (2, 3, 5), (3, 6, 5),
                     (3, 4, 7), (3, 7, 6)]
    elif shape.kind == SLIT_SQUARE:
        # diamond |x|+|y| < 1; the slit [0,1] x {0} carries duplicated
        # vertices (ids 1/10 at (0.5,0) and 2/11 at (1,0)) so the two slit
        # faces are distinct boundary segments
        vertices = [(0, 0), (0.5, 0), (1, 0), (0.5, 0.5), (0, 1), (-0.5, 0.5),
                    (-1, 0), (-0.5, -0.5), (0, -1), (0.5, -0.5),
                    (0.5, 0), (1, 0)]
        triangles = [(0, 1, 3), (1, 2, 3), (0, 3, 4),
                     (0, 4, 5), (0, 5, 6), (0, 6, 7), (0, 7, 8),
                     (0, 8, 9), (0, 9, 10), (10, 9, 11)]
    else:  # pragma: no cover - DomainShape already validates
        raise MeshError(f"unknown shape {shape.kind!r}")
    mesh = Mesh(np.asarray(vertices, dtype=float),
                np.asarray(triangles, dtype=np.int64), shape=shape)
    mesh.check_conforming(geometric=False)
    return mesh


# -- refinement --------------------------------------------------------------


def red_refine(mesh: Mesh) -> Mesh:
    """Split every triangle into four similar children via edge midpoints."""
    nv = mesh.n_vertices
    mid = nv + np.arange(mesh.n_edges)
    midpoints = 0.5 * (mesh.vertices[mesh.edges[:, 0]]
                       + mesh.vertices[mesh.edges[:, 1]])
    vertices = np.vstack([mesh.vertices, midpoints])

    ids = np.arange(nv, dtype=np.int64)
    vertex_parents = np.vstack([np.stack([ids, ids], axis=1), mesh.edges])

    a, b, c = mesh.triangles.T
    mab = mid[mesh.tri_edges[:, 0]]
    mbc = mid[mesh.tri_edges[:, 1]]
    mca = mid[mesh.tri_edges[:, 2]]
    children = np.stack([
        np.stack([a, mab, mca], axis=1),
        np.stack([mab, b, mbc], axis=1),
        np.stack([mca, mbc, c], axis=1),
        np.stack([mab, mbc, mca], axis=1),
    ], axis=1).reshape(-1, 3)
    tri_parents = np.repeat(np.arange(mesh.n_triangles, dtype=np.int64), 4)

    return Mesh(vertices, children, shape=mesh.shape, parent=mesh,
                vertex_parents=vertex_parents, tri_parents=tri_parents)


def nvb_refine(mesh: Mesh, marked) -> Mesh:
    """Newest-vertex bisection of the marked triangles plus closure.

    Every marked triangle is bisected through its refinement edge; closure
    bisections are added until the mesh is conforming.  Children get their
    refinement edge opposite the newly created vertex.
    """
    marked = np.asarray(sorted(set(int(t) for t in marked)), dtype=np.int64)
    if marked.size and (marked.min() < 0 or marked.max() >= mesh.n_triangles):
        raise IndexError("marked triangle id out of range")
    if marked.size == 0:
        return mesh

    nt = mesh.n_triangles
    tri_edges = mesh.tri_edges
    rows = np.arange(nt)
    ref_ids = tri_edges[rows, mesh.ref_edge]

    edge_marked = np.zeros(mesh.n_edges, dtype=bool)
    edge_marked[ref_ids[marked]] = True
    while True:
        need = edge_marked[tri_edges].any(axis=1) & ~edge_marked[ref_ids]
        if not need.any():
            break
        edge_marked[ref_ids[need]] = True

    split_edges = np.flatnonzero(edge_marked)
    midpoint = np.full(mesh.n_edges, -1, dtype=np.int64)
    midpoint[split_edges] = mesh.n_vertices + np.arange(len(split_edges))
    mids = 0.5 * (mesh.vertices[mesh.edges[split_edges, 0]]
                  + mesh.vertices[mesh.edges[split_edges, 1]])
    vertices = np.vstack([mesh.vertices, mids])
    ids = np.arange(mesh.n_vertices, dtype=np.int64)
    vertex_parents = np.vstack([np.stack([ids, ids], axis=1),
                                mesh.edges[split_edges]])

    # rotate each triangle so its refinement edge is (z1, z2)
    k = mesh.ref_edge
    z1 = mesh.triangles[rows, k]
    z2 = mesh.triangles[rows, (k + 1) % 3]
    z3 = mesh.triangles[rows, (k + 2) % 3]
    m0 = midpoint[tri_edges[rows, k]]
    m1 = midpoint[tri_edges[rows, (k + 1) % 3]]
    m2 = midpoint[tri_edges[rows, (k + 2) % 3]]

    new_tris = []
    new_ref = []
    new_parent = []

    def emit(sel, cols):
        if not sel.any():
            return
        new_tris.append(np.stack([c[sel] for c in cols], axis=1))
        new_ref.append(np.zeros(sel.sum(), dtype=np.int64))
        new_parent.append(rows[sel])

    untouched = m0 < 0
    if untouched.any():
        new_tris.append(mesh.triangles[untouched])
        new_ref.append(mesh.ref_edge[untouched])
        new_parent.append(rows[untouched])

    split = ~untouched
    left_plain = split & (m2 < 0)    # child (z3, z1, m0) not bisected again
    left_twice = split & (m2 >= 0)
    right_plain = split & (m1 < 0)   # child (z2, z3, m0) not bisected again
    right_twice = split & (m1 >= 0)

    emit(left_plain, (z3, z1, m0))
    emit(left_twice, (m0, z3, m2))
    emit(left_twice, (z1, m0, m2))
    emit(right_plain, (z2, z3, m0))
    emit(right_twice, (m0, z2, m1))
    emit(right_twice, (z3, m0, m1))

    triangles = np.vstack(new_tris)
    ref_edge = np.concatenate(new_ref)
    tri_parents = np.concatenate(new_parent)
    return Mesh(vertices, triangles, ref_edge=ref_edge, shape=mesh.shape,
                parent=mesh, vertex_parents=vertex_parents,
                tri_parents=tri_parents)
