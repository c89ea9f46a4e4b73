"""P1 spaces (continuous and discontinuous), fields, norms and transfer.

A field holds one two-component piecewise-linear function as a flat
coefficient vector.  Scalar dofs are blocked by component: the first
component occupies coefficients ``[0, nscalar)`` and the second
``[nscalar, 2*nscalar)``.  For the continuous space a scalar dof is a
vertex value; for the dG space it is one of the three vertex values of a
triangle, so neighbouring triangles carry independent copies.

This module owns that layout: only :func:`gather`, :func:`scatter_add`,
:func:`join`, :func:`componentwise`, :func:`block_diagonal`,
:class:`CoupledLayout` (the CSR layout of the Newton Jacobian, which
every Jacobian of a level has, its exact zeros stored),
:func:`vertex_blocks` and :func:`vertex_block_matrix` index coefficients
by component.

Problem data (g, f, the exact solution and its gradient) map (N, 2)
points to (N, 2) values, or (N, 2, 2) for the gradient; :func:`evaluate`
is their one caller, and checks the shape and finiteness of every return.

Quadrature values, gradients and edge traces are batched matrix products:
the (Q, 3) barycentric points times the (k, 3, 2) nodal values of a block
of triangles (or of all of them), and the transposed nodal values times
the (T, 3, 2) basis gradients.  Physical quadrature points are not kept:
only data evaluation needs them, and it computes them a block of
ERROR_BLOCK triangles at a time (:func:`triangle_blocks`), as do the
error norms and the Newton step's kernels for their values, so the memory
of those loops does not grow with the mesh.  :func:`l2_norm` and
:func:`free_energy` take all triangles at once: blocked, their sums and
the recorded energies and difference norms would round differently.

Spaces, their geometry, patterns and layouts are immutable and safe to
share across threads; fields are value-like (a space reference plus a
coefficient vector).
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .exceptions import (ConfigError, DataEvaluationError, NestingError,
                         SpaceMismatchError)
from .mesh import Mesh
from .quadrature import (ASSEMBLY_DEGREE, EDGE_POINTS, ERROR_DEGREE,
                         edge_rule, triangle_rule)

# the edge rule of every edge integral, with the two endpoint hat values at
# its points
_EDGE_RULE = edge_rule(EDGE_POINTS)
_EDGE_HATS = np.stack([1.0 - _EDGE_RULE.points, _EDGE_RULE.points], axis=1)

CONTINUOUS = "continuous-P1"
DG = "dg-P1"

NITSCHE = "nitsche"
DG_METHOD = "dg"


def space_kind(method: str) -> str:
    """The space a method discretizes on: continuous P1 for Nitsche, broken
    P1 for dG."""
    if method == NITSCHE:
        return CONTINUOUS
    if method == DG_METHOD:
        return DG
    raise ConfigError(f"unknown method {method!r}")


class Space:
    """A two-component P1 space over a mesh.

    ``elem_dofs[t, i]`` is the scalar dof carried by local vertex ``i`` of
    triangle ``t``; full dof ids are ``comp * nscalar + scalar``.  The
    mesh geometry and the scalar :class:`ElementPattern` are built once
    per space, on first use: a level's element matrices are all filled
    into that one pattern.
    """

    def __init__(self, mesh: Mesh, kind: str):
        if kind not in (CONTINUOUS, DG):
            raise SpaceMismatchError(f"unknown space kind {kind!r}")
        self.mesh = mesh
        self.kind = kind
        nt = mesh.n_triangles
        if kind == CONTINUOUS:
            self.nscalar = mesh.n_vertices
            self.elem_dofs = mesh.triangles
            self.node_coords = mesh.vertices
        else:
            self.nscalar = 3 * nt
            self.elem_dofs = np.arange(3 * nt, dtype=np.int64).reshape(nt, 3)
            self.node_coords = mesh.vertices[mesh.triangles].reshape(-1, 2)
        self.ndof = 2 * self.nscalar
        self._geom = None
        self._pattern = None

    @classmethod
    def continuous(cls, mesh: Mesh) -> "Space":
        return cls(mesh, CONTINUOUS)

    @classmethod
    def dg(cls, mesh: Mesh) -> "Space":
        return cls(mesh, DG)

    @property
    def geometry(self) -> "MeshGeometry":
        if self._geom is None:
            self._geom = MeshGeometry(self.mesh)
        return self._geom

    @property
    def pattern(self) -> "ElementPattern":
        if self._pattern is None:
            # continuous P1 couples the two ends of every mesh edge; a dG
            # triangle couples its own three dofs only
            pair_ids = (self.mesh.tri_edges if self.kind == CONTINUOUS else
                        np.arange(3 * self.mesh.n_triangles).reshape(-1, 3))
            self._pattern = ElementPattern(self.elem_dofs, self.nscalar,
                                           pair_ids)
        return self._pattern


# the local vertex pairs (a, b) of the triangle sides, in the order of
# Mesh.tri_edges
_SIDE_A = np.array([0, 1, 2])
_SIDE_B = np.array([1, 2, 0])


class ElementPattern:
    """The scalar sparsity pattern of a space's element matrices.

    ``indptr`` and ``indices`` are the sorted CSR pattern of every coupling
    ``(elem_dofs[t, a], elem_dofs[t, b])``, and ``slots[t, 3 a + b]`` is the
    position of that local entry in it (int32, 9 per triangle).  A sum of
    local matrices is then one ``np.bincount`` into the pattern, or one
    ``np.add.at`` per block of triangles, with no COO sort.  The matrices
    built on it share its index arrays, which are read-only: none of them
    may be mutated in place (``eliminate_zeros`` raises).

    ``pair_ids[t, k]`` numbers the dof pair of the local vertices ``(k, k +
    1 mod 3)``, alike in every triangle that has it, from 0 without gaps:
    the mesh's ``tri_edges`` for continuous P1.  The entries are then the
    diagonal (every dof lies on a triangle) and both orientations of every
    pair, all distinct, and building the pattern is one sort of them.
    """

    def __init__(self, elem_dofs: np.ndarray, n: int, pair_ids: np.ndarray):
        da, db = elem_dofs[:, _SIDE_A], elem_dofs[:, _SIDE_B]
        npairs = int(pair_ids.max(initial=-1)) + 1
        lo = np.empty(npairs, dtype=np.int64)
        hi = np.empty(npairs, dtype=np.int64)
        lo[pair_ids] = np.minimum(da, db)
        hi[pair_ids] = np.maximum(da, db)
        keys = np.concatenate([np.arange(n, dtype=np.int64) * (n + 1),
                               lo * n + hi, hi * n + lo])
        order = np.argsort(keys)
        position = np.empty(len(keys), dtype=np.int32)
        position[order] = np.arange(len(keys), dtype=np.int32)
        diagonal, upper, lower = np.split(position, [n, n + npairs])
        slots = np.empty((len(elem_dofs), 3, 3), dtype=np.int32)
        slots[:, _SIDE_A, _SIDE_A] = diagonal[elem_dofs]
        first_lower = da < db
        upper, lower = upper[pair_ids], lower[pair_ids]
        slots[:, _SIDE_A, _SIDE_B] = np.where(first_lower, upper, lower)
        slots[:, _SIDE_B, _SIDE_A] = np.where(first_lower, lower, upper)
        keys = keys[order]
        self.shape = (n, n)
        self.slots = slots.reshape(-1, 9)
        self.indices = (keys % n).astype(np.int32)
        self.indptr = np.searchsorted(
            keys, np.arange(n + 1, dtype=np.int64) * n).astype(np.int32)
        for arr in (self.slots, self.indices, self.indptr):
            arr.flags.writeable = False

    def data(self, local: np.ndarray, tris=slice(None)) -> np.ndarray:
        """The entries of the sum of the local matrices ``local`` (k, 3, 3)
        or (k, 9) of the triangles ``tris``, in pattern order."""
        return np.bincount(self.slots[tris].ravel(), weights=local.ravel(),
                           minlength=len(self.indices))

    def add(self, out: np.ndarray, local: np.ndarray, tris):
        """Add the local matrices ``local`` of the triangles ``tris`` into
        the entries ``out``.  Every entry sums in the order of the local
        entries, as in :meth:`data`: adding the blocks of a partition of
        the triangles in turn to zeros gives :meth:`data` bit for bit."""
        np.add.at(out, self.slots[tris].ravel(), local.ravel())

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        """The CSR matrix with the entries ``data`` on the pattern."""
        out = sp.csr_matrix((data, self.indices, self.indptr),
                            shape=self.shape)
        out.has_canonical_format = True
        return out


class MeshGeometry:
    """Per-triangle and per-edge geometric data used by assembly.

    Normals on interior edges point from the lower-id adjacent triangle
    (the "plus" side of jumps) to the higher-id one; boundary normals point
    outward.  ``loc[e, side, end]`` is the local index (int8, 0-2; -1 for
    the missing side of a boundary edge) of edge ``e``'s endpoint ``end``
    in its triangle on ``side``.  No quadrature data is cached: see
    :meth:`triangle_points`.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        p = mesh.vertices[mesh.triangles]
        a = p[:, 1] - p[:, 0]
        b = p[:, 2] - p[:, 0]
        self.det = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
        self.area = 0.5 * self.det
        # grad of barycentric i: rotate (p_{i+1} - p_{i+2}) by -90deg, / det
        d = np.stack([p[:, 1] - p[:, 2], p[:, 2] - p[:, 0], p[:, 0] - p[:, 1]],
                     axis=1)
        self.grads = np.stack([d[..., 1], -d[..., 0]], axis=-1) / self.det[:, None, None]

        ev = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
        self.edge_len = np.hypot(ev[:, 0], ev[:, 1])
        tangent = ev / self.edge_len[:, None]
        normal = np.stack([tangent[:, 1], -tangent[:, 0]], axis=1)
        mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]]
                      + mesh.vertices[mesh.edges[:, 1]])
        cent_plus = p.mean(axis=1)[mesh.edge_tris[:, 0]]
        flip = ((mids - cent_plus) * normal).sum(axis=1) < 0
        normal[flip] *= -1
        self.edge_normal = normal

        # local index of each edge endpoint within the adjacent triangles:
        # the edge at a triangle's local slot k joins its vertices k and
        # k + 1 (mod 3), and an edge's end 0 is its lower vertex id; row
        # 2 e + side of loc holds edge e's ends in the triangle on ``side``
        tris = mesh.triangles
        edges = mesh.tri_edges
        rows = 2 * edges + (mesh.edge_tris[edges, 0]
                            != np.arange(len(tris))[:, None])
        slot = np.arange(3, dtype=np.int8)
        up = (tris < np.roll(tris, -1, axis=1)).view(np.int8)
        self.loc = np.full((mesh.n_edges, 2, 2), -1, dtype=np.int8)
        self.loc.reshape(-1, 2)[rows] = np.stack(
            [(slot + 1 - up) % 3, (slot + up) % 3], axis=-1)

    def triangle_points(self, degree: int, tris=slice(None)):
        """Quadrature data: barycentric weights ``lam`` (Q, 3), physical
        points (k, Q, 2) of the triangles ``tris`` and combined weights (Q,)
        to scale by area.  The points are computed on every call, for data
        evaluation a block of triangles at a time."""
        rule = triangle_rule(degree)
        pts = np.matmul(rule.points,
                        self.mesh.vertices[self.mesh.triangles[tris]])
        return rule.points, rule.weights, pts

    def edge_points(self, edge_ids):
        """1D Gauss data on the given edges: hat values (Q, 2), physical
        points (n, Q, 2), weights (Q,)."""
        pa = self.mesh.vertices[self.mesh.edges[edge_ids, 0]]
        pb = self.mesh.vertices[self.mesh.edges[edge_ids, 1]]
        pts = (pa[:, None, :]
               + _EDGE_RULE.points[None, :, None] * (pb - pa)[:, None, :])
        return _EDGE_HATS, pts, _EDGE_RULE.weights


# -- the coefficient layout ----------------------------------------------------
# gather and scatter_add index one 1-D component block at a time: indexing
# an (n, 2) view of the coefficients is several times slower.


def gather(coeffs: np.ndarray, dofs) -> np.ndarray:
    """Both components of ``coeffs`` at the scalar dofs ``dofs`` (any
    shape), with the component as a new last axis."""
    u, v = coeffs.reshape(2, -1)
    return np.stack([u[dofs], v[dofs]], axis=-1)


def scatter_add(out: np.ndarray, dofs, local):
    """Add the local vectors ``local`` (``dofs.shape + (2,)``, last axis the
    component) on the scalar dofs ``dofs`` into the coefficient vector
    ``out``, summing repeated dofs."""
    u, v = out.reshape(2, -1)
    np.add.at(u, dofs, local[..., 0])
    np.add.at(v, dofs, local[..., 1])


def join(values: np.ndarray) -> np.ndarray:
    """Coefficient vector of nodal values (..., 2), whose leading axes,
    flattened, run over the scalar dofs in order."""
    return np.concatenate([values[..., 0].reshape(-1),
                           values[..., 1].reshape(-1)])


def componentwise(op, coeffs: np.ndarray) -> np.ndarray:
    """Apply a scalar operator, a sparse matrix or a function such as a
    factor's ``solve``, to both component blocks of ``coeffs`` at once, as
    the columns of an (n, 2) array."""
    blocks = coeffs.reshape(2, -1).T
    out = op @ blocks if sp.issparse(op) else op(blocks)
    return out.T.reshape(-1)


def block_diagonal(scalar: sp.csr_matrix) -> sp.csr_matrix:
    """The matrix that :func:`componentwise` applies for the (m, n) matrix
    ``scalar``: diag(scalar, scalar), (2m, 2n) on the full dofs, from its
    CSR arrays twice.  It maps a coefficient vector with no transposed copy
    in or out."""
    (m, n), nnz = scalar.shape, scalar.nnz
    return sp.csr_matrix(
        (np.tile(scalar.data, 2),
         np.concatenate([scalar.indices, scalar.indices + n]),
         np.concatenate([scalar.indptr, scalar.indptr[1:] + nnz])),
        shape=(2 * m, 2 * n))


class CoupledLayout:
    """The CSR layout of the matrices [[S + m11, m12], [m12, S + m22]] on
    the full dofs, such as the Newton Jacobian, built once per system.

    ``linear`` is the scalar CSR matrix S (sorted, no duplicate entry) and
    the blocks m11, m12 and m22 lie on the :class:`ElementPattern`
    ``pattern``, whose entries are S's entries at ``positions`` (an index
    array, or ``slice(None)`` when both patterns are one).  Row i holds S's
    row i, then the pattern's row i shifted by nscalar; row nscalar + i the
    pattern's row i, then S's row i shifted.  ``indptr`` and ``indices``
    are read-only and shared by the matrices built here, which store every
    entry of the layout, exact zeros included (those of m12 at a state
    with v = 0), so their structure does not depend on the state; only a
    fill-reducing ordering reads it.  Boolean masks
    over the entries of the u rows and of the v rows say where S's entries,
    the diagonal blocks' and the coupling block's go, each in its own
    order, so :meth:`fill` is a few masked writes into one data array.
    """

    def __init__(self, linear: sp.csr_matrix, pattern: "ElementPattern",
                 positions=slice(None)):
        n = linear.shape[0]
        s_len, p_len = np.diff(linear.indptr), np.diff(pattern.indptr)
        self.shape = (2 * n, 2 * n)
        self._linear_data = linear.data
        # S's entries at the pattern's positions, to add to m11 and m22
        self._linear_on_pattern = linear.data[positions]
        # the u rows hold S's entries and then the pattern's, the v rows
        # the pattern's and then S's
        self._linear_u = np.repeat(np.tile([True, False], n),
                                   np.stack([s_len, p_len], 1).ravel())
        self._linear_v = np.repeat(np.tile([False, True], n),
                                   np.stack([p_len, s_len], 1).ravel())
        self._coupling_u, self._coupling_v = ~self._linear_u, ~self._linear_v
        if isinstance(positions, slice):
            self._block_u, self._block_v = self._linear_u, self._linear_v
        else:
            on_pattern = np.zeros(len(linear.data), dtype=bool)
            on_pattern[positions] = True
            self._block_u = np.zeros(len(self._linear_u), dtype=bool)
            self._block_u[self._linear_u] = on_pattern
            self._block_v = np.zeros(len(self._linear_v), dtype=bool)
            self._block_v[self._linear_v] = on_pattern
        half = len(self._linear_u)
        self.indptr = np.zeros(2 * n + 1, dtype=np.int32)
        np.cumsum(np.tile(s_len + p_len, 2), out=self.indptr[1:])
        self.indices = np.empty(2 * half, dtype=np.int32)
        u, v = self.indices[:half], self.indices[half:]
        u[self._linear_u] = linear.indices
        u[self._coupling_u] = pattern.indices + n
        v[self._coupling_v] = pattern.indices
        v[self._linear_v] = linear.indices + n
        for arr in (self.indptr, self.indices):
            arr.flags.writeable = False

    def fill(self, m11, m12, m22) -> sp.csr_matrix:
        """The matrix with the block entries ``m11``, ``m12`` and ``m22``
        (in pattern order), its exact zeros kept: its data array is filled
        in layout order and it shares ``indices`` and ``indptr``, so every
        matrix of a layout has the one structure.  ``m11`` and ``m22`` are
        overwritten."""
        data = np.empty(len(self.indices))
        half = len(self._linear_u)
        for out, linear_mask, block_mask, coupling_mask, block in (
                (data[:half], self._linear_u, self._block_u, self._coupling_u,
                 m11),
                (data[half:], self._linear_v, self._block_v, self._coupling_v,
                 m22)):
            if block_mask is not linear_mask:
                out[linear_mask] = self._linear_data
            # m + S is S + m, bit for bit
            block += self._linear_on_pattern
            out[block_mask] = block
            out[coupling_mask] = m12
        matrix = sp.csr_matrix((data, self.indices, self.indptr),
                               shape=self.shape)
        matrix.has_canonical_format = True
        return matrix


def vertex_blocks(matrix) -> np.ndarray:
    """The 2 x 2 blocks (n, 2, 2) of a matrix on the full dofs that couple
    the two components of each scalar dof: its main diagonal and its
    diagonals at +-nscalar."""
    n = matrix.shape[0] // 2
    blocks = np.empty((n, 2, 2))
    diagonal = matrix.diagonal()
    blocks[:, 0, 0], blocks[:, 1, 1] = diagonal[:n], diagonal[n:]
    blocks[:, 0, 1], blocks[:, 1, 0] = matrix.diagonal(n), matrix.diagonal(-n)
    return blocks


def vertex_block_matrix(blocks: np.ndarray) -> sp.csr_matrix:
    """The CSR matrix on the full dofs whose only entries are the 2 x 2
    blocks ``blocks`` (n, 2, 2) of the scalar dofs, as :func:`vertex_blocks`
    reads them."""
    n = len(blocks)
    # row i (u) and row n + i (v) both hold the columns i and n + i
    data = np.empty((2, n, 2))
    data[...] = blocks.transpose(1, 0, 2)
    indices = np.empty((2, n, 2), dtype=np.int32)
    indices[..., 0] = np.arange(n, dtype=np.int32)
    indices[..., 1] = indices[..., 0] + n
    return sp.csr_matrix((data.ravel(), indices.ravel(),
                          np.arange(0, 4 * n + 1, 2, dtype=np.int32)),
                         shape=(2 * n, 2 * n))


@dataclass
class Field:
    """Coefficient vector of one two-component piecewise-linear function."""

    space: Space
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.space.ndof,):
            raise SpaceMismatchError(
                f"coefficient vector of length {self.coeffs.shape} does not "
                f"match dof count {self.space.ndof}")
        if not np.all(np.isfinite(self.coeffs)):
            raise DataEvaluationError("field coefficients contain non-finite values")

    def element_values(self, tris=slice(None)):
        """Nodal values of the triangles ``tris`` (all by default), shape
        (k, 3, 2)."""
        return gather(self.coeffs, self.space.elem_dofs[tris])

    def values_at(self, lam, tris=slice(None)):
        """Values at the barycentric points ``lam`` (Q, 3) of the triangles
        ``tris`` (all by default), shape (k, Q, 2)."""
        return np.matmul(lam, self.element_values(tris))

    def gradients(self):
        """Constant gradient per triangle, shape (T, 2, 2) with axes
        (triangle, component, direction)."""
        return self.element_values().transpose(0, 2, 1) @ self.space.geometry.grads

    def copy(self) -> "Field":
        return Field(self.space, self.coeffs.copy())


def evaluate(fn, points: np.ndarray, what: str, shape=(2,)) -> np.ndarray:
    """The data function ``fn`` at the points (..., 2), shaped (...) +
    ``shape``: ``fn`` takes all of them as one (N, 2) array and must
    return an (N,) + ``shape`` array of finite values, else
    :class:`DataEvaluationError` names ``what`` and the first bad point."""
    flat = points.reshape(-1, 2)
    values = np.asarray(fn(flat), dtype=float)
    if values.shape != (len(flat),) + shape:
        raise DataEvaluationError(f"{what} returned shape {values.shape} "
                                  f"for {len(flat)} points")
    if not np.isfinite(values).all():
        bad = ~np.isfinite(values.reshape(len(flat), -1)).all(axis=1)
        i = int(np.flatnonzero(bad)[0])
        x, y = flat[i]
        raise DataEvaluationError(
            f"{what} non-finite at point {i} = ({x}, {y})")
    return values.reshape(points.shape[:-1] + shape)


def interpolate(space: Space, fn) -> Field:
    """Nodal interpolation of a pointwise two-vector function."""
    return Field(space, join(evaluate(fn, space.node_coords, "data function")))


# -- transfer between nested meshes -------------------------------------------


def _parent_dofs(coarse_space: Space, fine_space: Space) -> np.ndarray:
    """Coarse scalar dofs ``(a, b)`` of every fine scalar dof, shape
    (nscalar_fine, 2): the fine node is the midpoint of the coarse nodes
    ``a`` and ``b`` (``a == b`` for a node the coarse mesh already has).

    For continuous P1 these are the vertex parents.  For dG they are the
    local dofs of the same two vertices in the child's parent triangle.
    """
    fine_mesh = fine_space.mesh
    if fine_space.kind == CONTINUOUS:
        return fine_mesh.vertex_parents
    parents = fine_mesh.tri_parents
    ends = fine_mesh.vertex_parents[fine_mesh.triangles]   # (Tf, 3, 2)
    tri = coarse_space.mesh.triangles[parents][:, None, None, :]
    # every end is a vertex of the parent triangle: local index 0, 1 or 2
    loc = (ends == tri[..., 1]) + 2 * (ends == tri[..., 2])
    # dG scalar dofs are numbered triangle by triangle, so the rows come out
    # in fine-dof order
    return coarse_space.elem_dofs[parents[:, None, None], loc].reshape(-1, 2)


def prolongation_matrix(coarse_space: Space, fine_space: Space) -> sp.csr_matrix:
    """Scalar prolongation P, shape (nscalar_fine, nscalar_coarse), applied
    to each component alike.

    Red refinement and newest-vertex bisection create every new vertex at
    the midpoint of a parent edge, so row i holds 0.5 at the two coarse
    scalar dofs of :func:`_parent_dofs` (one entry 1 where they coincide),
    in both the continuous and the dG space.  Every row sums to 1.

    Nesting is proven by identity: the fine mesh's weak reference to the
    mesh it refines (``Mesh.parent``) must return ``coarse_space.mesh``.
    The caller holds that mesh, so the reference is alive whenever the
    meshes are nested; a sibling refinement, a grandparent, or an equal
    mesh built from the parent's arrays raises :class:`NestingError`.
    """
    parent = fine_space.mesh.parent
    if parent is None or parent() is not coarse_space.mesh:
        raise NestingError("fine mesh is not a refinement of the coarse mesh")
    if fine_space.kind != coarse_space.kind:
        raise SpaceMismatchError("prolongation between different space kinds")
    n = fine_space.nscalar
    return sp.csr_matrix(
        (np.full(2 * n, 0.5), (np.repeat(np.arange(n), 2),
                               _parent_dofs(coarse_space, fine_space).ravel())),
        shape=(n, coarse_space.nscalar))


def prolong(coarse: Field, fine_space: Space) -> Field:
    """Exact representation of a coarse field on a refined mesh: the
    :func:`prolongation_matrix` applied to each component."""
    return Field(fine_space,
                 componentwise(prolongation_matrix(coarse.space, fine_space),
                               coarse.coeffs))


def embedding_matrix(dg_space: Space) -> sp.csr_matrix:
    """Scalar embedding E of continuous P1 into the dG space on the same
    mesh, shape (nscalar_dg, n_vertices): row (t, i) holds a 1 at vertex
    ``triangles[t, i]``, so E copies every vertex value into each triangle
    at that vertex."""
    if dg_space.kind != DG:
        raise SpaceMismatchError("embedding maps continuous P1 into dG")
    mesh = dg_space.mesh
    n = dg_space.nscalar
    # dG scalar dofs are numbered triangle by triangle, local vertex by
    # local vertex: the order of the raveled triangles
    return sp.csr_matrix((np.ones(n), mesh.triangles.ravel(),
                          np.arange(n + 1)), shape=(n, mesh.n_vertices))


# -- norms and integrals -------------------------------------------------------


def squared_norm(values: np.ndarray) -> np.ndarray:
    """Sum of squares over the last axis, the two components, written as
    two terms: numpy reduces a last axis of size 2 on its slow path."""
    return values[..., 0] ** 2 + values[..., 1] ** 2


def _edge_trace_values(field: Field, edge_ids, side: int):
    """Endpoint values of the trace from the given side, shape (n, 2, 2):
    last axis is the component, middle axis the edge endpoint."""
    geom = field.space.geometry
    tris = field.space.mesh.edge_tris[edge_ids, side]
    loc = geom.loc[edge_ids, side]                      # (n, 2) local indices
    return gather(field.coeffs, field.space.elem_dofs[tris[:, None], loc])


def jump_sq(field: Field, edge_ids) -> np.ndarray:
    """Integral over each edge of |[field]|^2, exact for P1 fields; on a
    boundary edge the jump is the trace."""
    values = _edge_trace_values(field, edge_ids, 0)
    inner = field.space.mesh.edge_tris[edge_ids, 1] >= 0
    values[inner] -= _edge_trace_values(field, edge_ids[inner], 1)
    va, vb = values[:, 0, :], values[:, 1, :]
    return field.space.geometry.edge_len[edge_ids] / 3.0 * (
        squared_norm(va) + (va[:, 0] * vb[:, 0] + va[:, 1] * vb[:, 1])
        + squared_norm(vb))


def boundary_misfit_sq(field: Field, g, edge_ids) -> np.ndarray:
    """Integral over each boundary edge of |field - g|^2 divided by the edge
    length, with g at the edge Gauss points."""
    geom = field.space.geometry
    hats, pts, ew = geom.edge_points(edge_ids)
    gv = evaluate(g, pts, "boundary data g")
    fv = np.matmul(hats, _edge_trace_values(field, edge_ids, 0))
    return (ew[None, :] * squared_norm(fv - gv)).sum(1)


def broken_gradient_sq(field: Field) -> float:
    """Sum over triangles of the squared gradient integral."""
    geom = field.space.geometry
    grads = field.gradients()
    sq = squared_norm(grads[:, 0]) + grads[:, 1, 0] ** 2 + grads[:, 1, 1] ** 2
    return float((geom.area * sq).sum())


def discrete_norm(field: Field, sigma: float) -> float:
    """Mesh-dependent norm of the field's method: broken H1 seminorm plus
    penalty-weighted jump terms on the boundary edges (continuous P1,
    Nitsche) or on all edges (dG)."""
    if not sigma > 0:
        raise ConfigError("penalty parameter sigma must be positive")
    geom = field.space.geometry
    total = broken_gradient_sq(field)
    bd = field.space.mesh.boundary_edges
    total += (sigma / geom.edge_len[bd] * jump_sq(field, bd)).sum()
    if field.space.kind == DG:
        ie = field.space.mesh.interior_edges
        total += (sigma / geom.edge_len[ie] * jump_sq(field, ie)).sum()
    return float(np.sqrt(total))


def l2_norm(field: Field) -> float:
    geom = field.space.geometry
    rule = triangle_rule(ASSEMBLY_DEGREE)
    vals = field.values_at(rule.points)
    return float(np.sqrt((geom.area[:, None] * rule.weights[None, :]
                          * squared_norm(vals)).sum()))


def free_energy(field: Field, epsilon: float) -> float:
    """Dimensionless free energy: gradient part plus the double-well bulk
    term scaled by 1/epsilon^2 (exact for P1 fields)."""
    if not epsilon > 0:
        raise ConfigError("epsilon must be positive")
    geom = field.space.geometry
    rule = triangle_rule(ASSEMBLY_DEGREE)
    well = (squared_norm(field.values_at(rule.points)) - 1.0) ** 2
    bulk = (geom.area[:, None] * rule.weights[None, :] * well).sum()
    return float(broken_gradient_sq(field) + bulk / epsilon ** 2)


# Triangles per block of the quadrature loops: the ERROR_DEGREE quadrature of
# the error norms and of the estimator's volume term, and the Newton step's
# quartic and cubic kernels and source term.  The data and its temporaries at
# the points of a block take a few MB; over a whole fine mesh they took tens
# to hundreds of MB and set a study's peak memory.
ERROR_BLOCK = 4096


def triangle_blocks(n_triangles):
    """Slices of ERROR_BLOCK consecutive triangles (or rows) covering
    ``range(n_triangles)``, with a lone last one joined to the block before
    it: numpy computes a one-row matrix product by BLAS gemv, whose sums
    round differently from gemm's, and a local matrix must not depend on
    the block it was computed in."""
    starts = list(range(0, n_triangles, ERROR_BLOCK))
    if len(starts) > 1 and n_triangles - starts[-1] == 1:
        del starts[-1]
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n_triangles])]


def energy_error_norm(field: Field, exact_grad, g, sigma: float) -> float:
    """:func:`discrete_norm` of (exact - field) with the exact solution
    evaluated by quadrature, from its gradient ``exact_grad`` and its
    boundary values ``g``."""
    if not sigma > 0:
        raise ConfigError("penalty parameter sigma must be positive")
    geom = field.space.geometry
    grads = field.gradients()
    total = 0.0
    for blk in triangle_blocks(len(grads)):
        _, w, bp = geom.triangle_points(ERROR_DEGREE, blk)
        eg = evaluate(exact_grad, bp, "exact gradient", (2, 2))
        diff = eg - grads[blk, None, :, :]
        sq = (squared_norm(diff[..., 0, :]) + diff[..., 1, 0] ** 2
              + diff[..., 1, 1] ** 2)
        total += (geom.area[blk, None] * w[None, :] * sq).sum()

    bd = field.space.mesh.boundary_edges
    if len(bd):
        total += (sigma * boundary_misfit_sq(field, g, bd)).sum()
    if field.space.kind == DG:
        ie = field.space.mesh.interior_edges
        total += (sigma / geom.edge_len[ie] * jump_sq(field, ie)).sum()
    return float(np.sqrt(total))


def l2_error_norm(field: Field, exact) -> float:
    geom = field.space.geometry
    total = 0.0
    for blk in triangle_blocks(len(geom.area)):
        lam, w, bp = geom.triangle_points(ERROR_DEGREE, blk)
        diff = squared_norm(evaluate(exact, bp, "exact solution")
                            - field.values_at(lam, blk))
        total += (geom.area[blk, None] * w[None, :] * diff).sum()
    return float(np.sqrt(total))
