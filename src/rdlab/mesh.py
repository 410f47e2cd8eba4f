"""Interval and conformal triangular meshes with P1/P2 Lagrange DOF lattices.

Conventions used throughout the package:

* an interval is the 1-simplex: points on either element type are barycentric
  coordinates, which are also its P1 basis;
* triangles are stored counter-clockwise, so all element measures are positive;
* local face j of a triangle is the edge opposite vertex j, and local face j
  of an interval is its vertex j, a point of weight 1;
* ``element_geometry`` returns ``snormal``, the OUTWARD normal of each local
  face scaled by the face length (1 in 1D), so grad(phi_j) at P1 is
  -snormal_j / (2|K|) on a triangle and snormal_j / |K| on an interval;
* P2 local ordering is vertices 0,1,2 then midpoint 3 + k on local face
  ``MIDPOINT_FACES[k]``, the edge ``MIDPOINT_EDGES[k]``: 3 (edge 01), 4 (edge 12),
  5 (edge 20).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, UnsupportedFeatureError

DEGENERATE_REL_TOL = 1e-14


@dataclass(frozen=True)
class ElementGraph:
    """Oriented DOF graph of one element (tail, head) local index pairs."""

    n_nodes: int
    edges: tuple


@dataclass(frozen=True)
class FaceTable:
    """Which element and local face lies across each face of a mesh.

    Local face j of an element is the edge opposite vertex j of a triangle,
    or vertex j of an interval, so every element has nf = dim + 1 faces.
    """

    keys: np.ndarray      # (n_faces, 2) lowest and highest vertex id of each face
    id: np.ndarray        # (ne, nf) face id of each (element, local face)
    across: np.ndarray    # (ne, nf) nf*e2+lf2 across, -1 on the boundary; see Discretization.across
    boundary: np.ndarray  # (2, nb) element and local face of each boundary face, in flat order


@dataclass
class Mesh:
    """Vertices and element connectivity.  Faces, neighbours and the boundary
    are derived from the connectivity alone (``faces``), so a mesh built by
    hand has the same boundary as a builder's mesh: the faces owned by one
    element."""

    dim: int
    vertices: np.ndarray          # (nv, dim)
    elements: np.ndarray          # (ne, dim+1) vertex indices
    degree: int = 1
    period: float | None = None   # 1D only: length of a periodic interval

    @property
    def periodic(self):
        return self.period is not None

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_elements(self):
        return self.elements.shape[0]

    @functools.cached_property
    def faces(self):
        """The face table, built once from the element connectivity."""
        ends = self.elements[:, np.array(_LOCAL_FACES[self.dim])]   # (ne, nf, dim)
        nf, nv = ends.shape[1], self.n_vertices
        # a face's key is its lowest and highest vertex id
        keys, ids, counts = np.unique((ends.min(-1) * nv + ends.max(-1)).ravel(),
                                      return_inverse=True, return_counts=True)
        # sum of the flat indices (nf*e + lf) owning each face: across an
        # interior face lies the owner sum minus this one
        owners = np.add.reduceat(np.argsort(ids, kind="stable"), np.cumsum(counts) - counts)
        across = np.where(counts[ids] == 2, owners[ids] - np.arange(len(ids)), -1)
        boundary = np.stack(np.divmod(np.flatnonzero(across < 0), nf))
        table = FaceTable(np.stack(np.divmod(keys, nv), axis=-1), ids.reshape(-1, nf),
                          across.reshape(-1, nf), boundary)
        for a in (table.keys, table.id, table.across, table.boundary):
            a.flags.writeable = False
        return table

    @functools.cached_property
    def boundary_faces(self):
        """``faces.boundary`` as a tuple of plain (element, local face) pairs,
        for callers that take the faces one at a time: a pair indexes like an
        integer, so it drops the face axis as numpy indexing does."""
        return tuple(zip(*self.faces.boundary.tolist()))


@dataclass
class DofMap:
    element_dofs: np.ndarray      # (ne, #K) global DOF ids
    dof_coords: np.ndarray        # (ndof, dim)
    n_dofs: int
    dofs_per_element: int


# local faces of a triangle: face j is the edge opposite local vertex j
_TRI_FACES = ((1, 2), (2, 0), (0, 1))
# local faces of each element type, as local vertex tuples
_LOCAL_FACES = {1: ((0,), (1,)), 2: _TRI_FACES}
# P2 midpoint 3+k lies on local face MIDPOINT_FACES[k], the edge opposite that vertex
MIDPOINT_FACES = (2, 0, 1)
# the edge (i, j) of each P2 midpoint: (0, 1), (1, 2), (2, 0)
MIDPOINT_EDGES = tuple(_TRI_FACES[f] for f in MIDPOINT_FACES)

# oriented element graphs used for flux recovery, fixed edge ordering
_GRAPH_EDGES = {
    (2, 1): ((0, 1), (1, 2), (2, 0)),
    (2, 2): ((0, 3), (0, 5), (3, 5), (4, 3), (3, 1), (1, 4), (4, 2), (5, 2), (5, 4)),
    (1, 1): ((0, 1),),
}


# ---------------------------------------------------------------------------
# builders


def build_structured_tri_mesh(nx, ny, domain=((0.0, 0.0), (1.0, 1.0)), degree=1):
    """Split an nx-by-ny rectangle grid into 2*nx*ny triangles.

    ``domain`` is ((x0, y0), (x1, y1)).  Vertices are numbered row by row
    from (x0, y0); cell (i, j) with lower-left vertex a is split into the
    triangles (a, a+1, a+nx+2) and (a, a+nx+2, a+nx+1).
    """
    if nx < 1 or ny < 1:
        raise ValueError(f"cell counts must be >= 1, got nx={nx}, ny={ny}")
    (x0, y0), (x1, y1) = domain
    if not (x1 > x0 and y1 > y0):
        raise ValueError("degenerate domain rectangle")
    xs, ys = np.meshgrid(np.linspace(x0, x1, nx + 1), np.linspace(y0, y1, ny + 1))
    verts = np.stack([xs.ravel(), ys.ravel()], axis=-1)
    a = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    tris = np.stack([a, a + 1, a + nx + 2, a, a + nx + 2, a + nx + 1], axis=-1).reshape(-1, 3)
    return Mesh(dim=2, vertices=verts, elements=tris, degree=degree)


def build_interval_mesh(n, a=0.0, b=1.0, periodic=False, degree=1):
    """Uniform 1D mesh of ``n`` cells on [a, b]; a periodic one drops vertex b."""
    if n < 1:
        raise ValueError("cell count must be >= 1")
    if degree != 1:
        raise UnsupportedFeatureError("1D meshes are built at degree 1 only")
    verts = np.linspace(a, b, n + 1)[:n + 1 - periodic].reshape(-1, 1)
    elems = np.array([(i, (i + 1) % len(verts)) for i in range(n)], dtype=int)
    return Mesh(dim=1, vertices=verts, elements=elems, degree=degree,
                period=b - a if periodic else None)


# ---------------------------------------------------------------------------
# DOF maps


def build_dofmap(mesh):
    """Global continuous Lagrange DOF numbering: P1 on any simplex, P2 on triangles."""
    if mesh.degree == 1:
        return DofMap(mesh.elements.copy(), mesh.vertices.copy(), mesh.n_vertices, mesh.dim + 1)
    if mesh.degree == 2 and mesh.dim == 2:
        # midpoint DOFs numbered in first-seen order over the edges 01, 12, 20
        edges = mesh.faces.id[:, MIDPOINT_FACES]
        order = np.argsort(np.unique(edges, return_index=True)[1])
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        ends = mesh.faces.keys[order]
        mids = 0.5 * (mesh.vertices[ends[:, 0]] + mesh.vertices[ends[:, 1]])
        coords = np.concatenate([mesh.vertices, mids])
        elem_dofs = np.concatenate([mesh.elements, mesh.n_vertices + rank[edges]], axis=1)
        return DofMap(elem_dofs, coords, coords.shape[0], 6)
    raise UnsupportedFeatureError(f"degree {mesh.degree} not supported on a {mesh.dim}-D mesh")


# ---------------------------------------------------------------------------
# element geometry


def element_geometry(mesh, e=slice(None)):
    """Measures (k,), diameters (k,) and outward face normals scaled by the
    face length (k, nf, dim) of the elements ``e``, an index array or slice;
    an integer ``e`` drops the element axis, as numpy indexing does."""
    v = mesh.vertices[mesh.elements[e]]                   # (k, dim+1, dim)
    if mesh.dim == 1:
        x0, x1 = v[..., 0, 0], v[..., 1, 0]
        h = x1 - x0
        if mesh.periodic:
            # the wrap-around cell runs from x0 to the image of x1
            h = np.where(x1 <= x0, x1 + mesh.period - x0, h)
        measure, diameter, snormal = h, h, np.tile([[-1.0], [1.0]], np.shape(h) + (1, 1))
        bad = ~(h > 0.0)
    else:
        # (k, 3, 2) face j, ccw; np.take keeps the element axis outermost in
        # memory, and every table built from the normals inherits that layout
        tail, head = zip(*_TRI_FACES)
        edge = np.take(v, head, axis=-2) - np.take(v, tail, axis=-2)
        # half the cross product of the edges v0 - v2 and v1 - v0
        measure = 0.5 * (edge[..., 1, 0] * edge[..., 2, 1] - edge[..., 1, 1] * edge[..., 2, 0])
        diameter = np.linalg.norm(edge, axis=-1).max(axis=-1)
        snormal = np.stack([edge[..., 1], -edge[..., 0]], axis=-1)
        bad = measure <= DEGENERATE_REL_TOL * diameter * diameter
    if bad.any():
        k = int(np.argmax(bad))
        e = np.arange(mesh.n_elements)[e].flat[k]           # the global element id
        raise DegenerateGeometryError(f"element {e} has measure {measure.flat[k]}")
    return measure, diameter, snormal


def reference_graph(dim, degree):
    """Oriented flux-recovery graph for an element type."""
    edges = _GRAPH_EDGES.get((dim, degree))
    if edges is None:
        raise UnsupportedFeatureError(f"no element graph for dim={dim}, degree={degree}")
    return ElementGraph(n_nodes=1 + max(map(max, edges)), edges=edges)


def element_graph(mesh):
    """Oriented flux-recovery graph of an element (same for all elements)."""
    return reference_graph(mesh.dim, mesh.degree)


# ---------------------------------------------------------------------------
# reference bases and quadrature


def tri_basis(degree, lam):
    """Basis values at barycentric points ``lam`` (..., dim + 1) -> (..., #K);
    P1 is ``lam`` itself on any simplex, P2 needs a triangle."""
    lam = np.asarray(lam, dtype=float)
    if degree == 1:
        return lam.copy()
    if degree == 2:
        lk = [lam[..., k] for k in range(3)]
        return np.stack([v * (2 * v - 1) for v in lk]
                        + [4 * lk[i] * lk[j] for i, j in MIDPOINT_EDGES], axis=-1)
    raise UnsupportedFeatureError(f"degree {degree} not supported")


def tri_basis_grad(degree, lam, grad_lam):
    """Physical gradients of basis functions; returns (..., #K, dim).

    ``grad_lam`` (..., dim + 1, dim) broadcasts against the leading axes of
    ``lam``; at P1 it is the result, on any simplex.
    """
    lam = np.asarray(lam, dtype=float)
    g = np.asarray(grad_lam, dtype=float)
    if degree == 1:
        lead = np.broadcast_shapes(lam.shape[:-1], g.shape[:-2])
        return np.broadcast_to(g, lead + g.shape[-2:]).copy()
    if degree == 2:
        lk, gk = [lam[..., k, None] for k in range(3)], [g[..., k, :] for k in range(3)]
        return np.stack([(4 * lk[k] - 1) * gk[k] for k in range(3)]
                        + [4 * lk[j] * gk[i] + 4 * lk[i] * gk[j] for i, j in MIDPOINT_EDGES],
                        axis=-2)
    raise UnsupportedFeatureError(f"degree {degree} not supported")


def edge_points(edges, t, n):
    """Barycentric points 1 - t, t along each edge (i, j) of an n-vertex
    simplex, (len(edges), len(t), n); a one-vertex edge (i,) is that vertex."""
    lam = np.zeros((len(edges), len(t), n))
    for f, ends in enumerate(edges):
        lam[f, :, ends[0]] = 1.0 - t
        lam[f, :, ends[-1]] += t
    return lam


# triangle rule of each mesh degree k, exact for degree 2k polynomials:
# barycentric points and weights summing to 1.  k = 2 is Dunavant's 6-point rule
_TRI_RULES = {
    1: (np.array([[2 / 3, 1 / 6, 1 / 6], [1 / 6, 2 / 3, 1 / 6], [1 / 6, 1 / 6, 2 / 3]]),
        np.full(3, 1 / 3)),
    2: (np.array([np.roll([1 - 2 * c, c, c], k)
                  for c in (0.445948490915965, 0.091576213509771) for k in range(3)]),
        np.repeat([0.223381589678011, 0.109951743655322], 3)),
}


# Gauss-Legendre nodes and weights on [-1, 1] of 1 to 4 points, the floats that
# np.polynomial.legendre.leggauss returns (its 3-point end weight is not the double nearest 5/9)
_LEGGAUSS = {
    1: ([0.0], [2.0]),
    2: ([-0.5773502691896257, 0.5773502691896257], [1.0, 1.0]),
    3: ([-0.7745966692414834, 0.0, 0.7745966692414834],
        [0.5555555555555557, 0.8888888888888888, 0.5555555555555557]),
    4: ([-0.8611363115940526, -0.33998104358485626, 0.33998104358485626, 0.8611363115940526],
        [0.34785484513745357, 0.6521451548625464, 0.6521451548625464, 0.34785484513745357]),
}


@functools.lru_cache(maxsize=None)
def gauss_01(npts):
    """Gauss-Legendre nodes/weights on [0, 1], cached and read-only.  Tabulated
    for 1 to 4 points (P2 needs at most 4), equal to ``leggauss`` bit for bit."""
    if npts not in _LEGGAUSS:
        raise UnsupportedFeatureError(f"no {npts}-point Gauss rule")
    x, w = map(np.array, _LEGGAUSS[npts])
    t, w = 0.5 * (x + 1.0), 0.5 * w
    t.flags.writeable = w.flags.writeable = False
    return t, w


def volume_rule(mesh):
    """Element rule: barycentric points (nq, dim + 1) and weights (nq,)
    summing to 1 (scale by |K|).  Two Gauss points on an interval, exact for
    cubics; ``_TRI_RULES`` of the mesh degree on a triangle."""
    if mesh.dim == 1:
        t, w = gauss_01(2)
        return edge_points([(0, 1)], t, 2)[0], w
    if mesh.degree not in _TRI_RULES:
        raise UnsupportedFeatureError(f"no triangle rule for degree {mesh.degree}")
    return _TRI_RULES[mesh.degree]


# ---------------------------------------------------------------------------
# faces

def face_local_dofs(mesh, local_face):
    """Local DOF indices lying on a local face, in trace order."""
    ends = _LOCAL_FACES[mesh.dim][local_face]
    return ends + (3 + MIDPOINT_FACES.index(local_face),) if mesh.degree == 2 else ends
