"""Interval and conformal triangular meshes with P1/P2 Lagrange DOF lattices.

Conventions used throughout the package:

* triangles are stored counter-clockwise, so all element measures are positive;
* ``scaled_normals`` returns the edge-length-scaled INWARD normal of the edge
  opposite each vertex, i.e. n_j = 2|K| grad(phi_j) for the P1 basis;
* P2 local ordering is vertices 0,1,2 then midpoints 3 (edge 01), 4 (edge 12),
  5 (edge 20).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometryError, UnsupportedFeatureError

DEGENERATE_REL_TOL = 1e-14


@dataclass(frozen=True)
class BoundaryFace:
    element: int
    local_face: int
    normal: np.ndarray  # outward unit normal
    measure: float
    tag: str = ""


@dataclass(frozen=True)
class ElementGraph:
    """Oriented DOF graph of one element (tail, head) local index pairs."""

    n_nodes: int
    edges: tuple


@dataclass
class Mesh:
    dim: int
    vertices: np.ndarray          # (nv, dim)
    elements: np.ndarray          # (ne, dim+1) vertex indices
    boundary_faces: list = field(default_factory=list)
    degree: int = 1
    periodic: bool = False        # 1D only

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_elements(self):
        return self.elements.shape[0]


@dataclass
class DofMap:
    element_dofs: np.ndarray      # (ne, #K) global DOF ids
    dof_coords: np.ndarray        # (ndof, dim)
    n_dofs: int
    dofs_per_element: int


# local faces of a triangle: face j is the edge opposite local vertex j
_TRI_FACES = ((1, 2), (2, 0), (0, 1))
# P2 midpoint DOF on each local face
_FACE_MIDPOINTS = (4, 5, 3)

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

    ``domain`` is ((x0, y0), (x1, y1)). Boundary faces are tagged by side.
    """
    if nx < 1 or ny < 1:
        raise ValueError(f"cell counts must be >= 1, got nx={nx}, ny={ny}")
    (x0, y0), (x1, y1) = domain
    if not (x1 > x0 and y1 > y0):
        raise ValueError("degenerate domain rectangle")
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    verts = np.array([(x, y) for y in ys for x in xs])

    def vid(i, j):
        return j * (nx + 1) + i

    tris = []
    for j in range(ny):
        for i in range(nx):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    mesh = Mesh(dim=2, vertices=verts, elements=np.array(tris, dtype=int), degree=degree)
    mesh.boundary_faces = _detect_boundary_faces(mesh, domain)
    return mesh


def build_interval_mesh(n, a=0.0, b=1.0, periodic=False, degree=1):
    """Uniform 1D mesh of ``n`` cells on [a, b]."""
    if n < 1:
        raise ValueError("cell count must be >= 1")
    if degree != 1:
        raise UnsupportedFeatureError("1D meshes are built at degree 1 only")
    if periodic:
        verts = np.linspace(a, b, n + 1)[:-1].reshape(-1, 1)
        elems = np.array([(i, (i + 1) % n) for i in range(n)], dtype=int)
        mesh = Mesh(dim=1, vertices=verts, elements=elems, degree=degree, periodic=True)
        return mesh
    verts = np.linspace(a, b, n + 1).reshape(-1, 1)
    elems = np.array([(i, i + 1) for i in range(n)], dtype=int)
    mesh = Mesh(dim=1, vertices=verts, elements=elems, degree=degree)
    mesh.boundary_faces = [
        BoundaryFace(0, 0, np.array([-1.0]), 1.0, "left"),
        BoundaryFace(n - 1, 1, np.array([1.0]), 1.0, "right"),
    ]
    return mesh


def _detect_boundary_faces(mesh, domain=None):
    """Faces incident to exactly one element are boundary faces."""
    seen = {}
    for e in range(mesh.n_elements):
        tri = mesh.elements[e]
        for lf, (i, j) in enumerate(_TRI_FACES):
            key = tuple(sorted((tri[i], tri[j])))
            seen.setdefault(key, []).append((e, lf))
    faces = []
    for key, owners in seen.items():
        if len(owners) != 1:
            continue
        e, lf = owners[0]
        tri = mesh.elements[e]
        i, j = _TRI_FACES[lf]
        p, q = mesh.vertices[tri[i]], mesh.vertices[tri[j]]
        t = q - p
        length = float(np.hypot(*t))
        nrm = np.array([t[1], -t[0]]) / length  # outward for ccw elements
        tag = _side_tag(0.5 * (p + q), domain)
        faces.append(BoundaryFace(e, lf, nrm, length, tag))
    faces.sort(key=lambda f: (f.element, f.local_face))
    return faces


def _side_tag(mid, domain):
    if domain is None:
        return ""
    (x0, y0), (x1, y1) = domain
    tol = 1e-12 * max(x1 - x0, y1 - y0)
    if abs(mid[0] - x0) < tol:
        return "left"
    if abs(mid[0] - x1) < tol:
        return "right"
    if abs(mid[1] - y0) < tol:
        return "bottom"
    if abs(mid[1] - y1) < tol:
        return "top"
    return ""


# ---------------------------------------------------------------------------
# DOF maps


def build_dofmap(mesh):
    """Global continuous Lagrange DOF numbering for the mesh degree."""
    if mesh.dim == 1:
        return DofMap(mesh.elements.copy(), mesh.vertices.copy(), mesh.n_vertices, 2)
    if mesh.degree == 1:
        return DofMap(mesh.elements.copy(), mesh.vertices.copy(), mesh.n_vertices, 3)
    if mesh.degree == 2:
        edge_ids = {}
        coords = [mesh.vertices[i] for i in range(mesh.n_vertices)]
        elem_dofs = np.zeros((mesh.n_elements, 6), dtype=int)
        for e in range(mesh.n_elements):
            tri = mesh.elements[e]
            elem_dofs[e, :3] = tri
            for k, (i, j) in enumerate(((0, 1), (1, 2), (2, 0))):
                key = tuple(sorted((tri[i], tri[j])))
                if key not in edge_ids:
                    edge_ids[key] = len(coords)
                    coords.append(0.5 * (mesh.vertices[key[0]] + mesh.vertices[key[1]]))
                elem_dofs[e, 3 + k] = edge_ids[key]
        coords = np.array(coords)
        return DofMap(elem_dofs, coords, coords.shape[0], 6)
    raise UnsupportedFeatureError(f"degree {mesh.degree} not supported")


# ---------------------------------------------------------------------------
# element geometry


def element_coords(mesh, e):
    return mesh.vertices[mesh.elements[e]]


def element_measure(mesh, e):
    v = element_coords(mesh, e)
    if mesh.dim == 1:
        x0, x1 = float(v[0, 0]), float(v[1, 0])
        if mesh.periodic and x1 <= x0:
            # wrap-around cell of a uniform periodic interval
            return _periodic_spacing(mesh)
        return x1 - x0
    a = v[1] - v[0]
    b = v[2] - v[0]
    return 0.5 * float(a[0] * b[1] - a[1] * b[0])


def _periodic_spacing(mesh):
    xs = np.sort(mesh.vertices[:, 0])
    return float(xs[1] - xs[0]) if len(xs) > 1 else 1.0


def element_diameter(mesh, e):
    v = element_coords(mesh, e)
    if mesh.dim == 1:
        return element_measure(mesh, e)
    d01 = np.linalg.norm(v[1] - v[0])
    d12 = np.linalg.norm(v[2] - v[1])
    d20 = np.linalg.norm(v[0] - v[2])
    return float(max(d01, d12, d20))


def element_scaled_normals(mesh, e):
    """Scaled inward normals n_j = 2|K| grad(phi_j); sum to zero."""
    if mesh.dim != 2:
        raise UnsupportedFeatureError("scaled normals are defined for 2D elements")
    v = element_coords(mesh, e)
    area = element_measure(mesh, e)
    h = element_diameter(mesh, e)
    if area <= DEGENERATE_REL_TOL * h * h:
        raise DegenerateGeometryError(f"element {e} has measure {area}")
    # edge opposite vertex j, rotated to point toward vertex j
    normals = np.empty((3, 2))
    for j in range(3):
        a, b = v[(j + 1) % 3], v[(j + 2) % 3]
        t = b - a
        normals[j] = (-t[1], t[0])  # ccw orientation -> inward
    return normals


def barycentric_gradients(mesh, e):
    """Gradients of the barycentric coordinates, shape (3, 2)."""
    return element_scaled_normals(mesh, e) / (2.0 * element_measure(mesh, e))


def reference_graph(dim, degree):
    """Oriented flux-recovery graph for an element type."""
    key = (dim, degree)
    if key not in _GRAPH_EDGES:
        raise UnsupportedFeatureError(f"no element graph for dim={dim}, degree={degree}")
    n_nodes = {(2, 1): 3, (2, 2): 6, (1, 1): 2}[key]
    return ElementGraph(n_nodes=n_nodes, edges=_GRAPH_EDGES[key])


def element_graph(mesh, e=None):
    """Oriented flux-recovery graph of an element (same for all elements)."""
    return reference_graph(mesh.dim, mesh.degree)


# ---------------------------------------------------------------------------
# reference bases and quadrature


def tri_basis(degree, lam):
    """Basis values at barycentric points ``lam`` (..., 3) -> (..., #K)."""
    lam = np.asarray(lam, dtype=float)
    l1, l2, l3 = lam[..., 0], lam[..., 1], lam[..., 2]
    if degree == 1:
        return np.stack([l1, l2, l3], axis=-1)
    if degree == 2:
        return np.stack(
            [
                l1 * (2 * l1 - 1),
                l2 * (2 * l2 - 1),
                l3 * (2 * l3 - 1),
                4 * l1 * l2,
                4 * l2 * l3,
                4 * l3 * l1,
            ],
            axis=-1,
        )
    raise UnsupportedFeatureError(f"degree {degree} not supported")


def tri_basis_grad(degree, lam, grad_lam):
    """Physical gradients of basis functions; returns (..., #K, 2).

    ``grad_lam`` (..., 3, 2) broadcasts against the leading axes of ``lam``.
    """
    lam = np.asarray(lam, dtype=float)
    g = np.asarray(grad_lam, dtype=float)
    if degree == 1:
        lead = np.broadcast_shapes(lam.shape[:-1], g.shape[:-2])
        return np.broadcast_to(g, lead + (3, 2)).copy()
    if degree == 2:
        l1, l2, l3 = (lam[..., k, None] for k in range(3))
        g1, g2, g3 = (g[..., k, :] for k in range(3))
        rows = [
            (4 * l1 - 1) * g1,
            (4 * l2 - 1) * g2,
            (4 * l3 - 1) * g3,
            4 * l2 * g1 + 4 * l1 * g2,
            4 * l3 * g2 + 4 * l2 * g3,
            4 * l1 * g3 + 4 * l3 * g1,
        ]
        return np.stack(rows, axis=-2)
    raise UnsupportedFeatureError(f"degree {degree} not supported")


def interval_basis(lam):
    """P1 basis on an interval at local coordinate(s) t in [0, 1]."""
    t = np.asarray(lam, dtype=float)
    return np.stack([1.0 - t, t], axis=-1)


# interior triangle rules (barycentric points, weights summing to 1)
_TRI_RULES = {
    2: (
        np.array([[2 / 3, 1 / 6, 1 / 6], [1 / 6, 2 / 3, 1 / 6], [1 / 6, 1 / 6, 2 / 3]]),
        np.array([1 / 3, 1 / 3, 1 / 3]),
    ),
}


def _dunavant6():
    a, wa = 0.445948490915965, 0.223381589678011
    b, wb = 0.091576213509771, 0.109951743655322
    pts = []
    wts = []
    for c, w in ((a, wa), (b, wb)):
        pts += [[1 - 2 * c, c, c], [c, 1 - 2 * c, c], [c, c, 1 - 2 * c]]
        wts += [w, w, w]
    return np.array(pts), np.array(wts)


_TRI_RULES[4] = _dunavant6()


def tri_quadrature(degree_exact):
    """Return (barycentric points, weights); weights sum to 1 (scale by |K|)."""
    for d in sorted(_TRI_RULES):
        if d >= degree_exact:
            return _TRI_RULES[d]
    raise UnsupportedFeatureError(f"no triangle rule of degree {degree_exact}")


@functools.lru_cache(maxsize=None)
def gauss_01(npts):
    """Gauss-Legendre nodes/weights on [0, 1], cached and read-only."""
    x, w = np.polynomial.legendre.leggauss(npts)
    t, w = 0.5 * (x + 1.0), 0.5 * w
    t.flags.writeable = w.flags.writeable = False
    return t, w


def volume_rule(mesh):
    """Interior rule exact for degree 2k polynomials."""
    if mesh.dim == 1:
        t, w = gauss_01(2)
        return t, w
    return tri_quadrature(2 * mesh.degree)


def face_rule(mesh):
    """Face rule exact for degree 2k+1 polynomials."""
    npts = mesh.degree + 1
    return gauss_01(npts)


# ---------------------------------------------------------------------------
# faces

def face_local_dofs(mesh, local_face):
    """Local DOF indices lying on a local face, in trace order."""
    if mesh.dim == 1:
        return (local_face,)
    i, j = _TRI_FACES[local_face]
    if mesh.degree == 1:
        return (i, j)
    return (i, j, _FACE_MIDPOINTS[local_face])


def face_geometry(mesh, e, local_face, npts):
    """Quadrature points on a triangle edge.

    Returns (x, w, normal, lam): physical points (npts, 2), weights including
    the edge length, outward unit normal, and barycentric coords (npts, 3).
    """
    v = element_coords(mesh, e)
    i, j = _TRI_FACES[local_face]
    t, w = gauss_01(npts)
    p, q = v[i], v[j]
    x = p[None, :] + t[:, None] * (q - p)[None, :]
    length = float(np.linalg.norm(q - p))
    tv = (q - p) / length
    normal = np.array([tv[1], -tv[0]])
    lam = np.zeros((npts, 3))
    lam[:, i] = 1.0 - t
    lam[:, j] = t
    return x, w * length, normal, lam


# ---------------------------------------------------------------------------
# text/CSV I/O


def save_text(mesh, path):
    """Simple text format: ``dim nvert nelem`` header, vertices, elements."""
    with open(path, "w") as fh:
        fh.write(f"{mesh.dim} {mesh.n_vertices} {mesh.n_elements}\n")
        for v in mesh.vertices:
            fh.write(" ".join(f"{x:.17g}" for x in v) + "\n")
        for el in mesh.elements:
            fh.write(" ".join(str(int(i)) for i in el) + "\n")


def load_text(path, degree=1):
    with open(path) as fh:
        dim, nv, ne = (int(t) for t in fh.readline().split())
        verts = np.array([[float(t) for t in fh.readline().split()] for _ in range(nv)])
        elems = np.array([[int(t) for t in fh.readline().split()] for _ in range(ne)], dtype=int)
    mesh = Mesh(dim=dim, vertices=verts, elements=elems, degree=degree)
    if dim == 2:
        mesh.boundary_faces = _detect_boundary_faces(mesh)
    elif dim == 1 and elems[-1, 1] > elems[-1, 0]:
        mesh.boundary_faces = [
            BoundaryFace(0, 0, np.array([-1.0]), 1.0, "left"),
            BoundaryFace(ne - 1, 1, np.array([1.0]), 1.0, "right"),
        ]
    return mesh


def export_csv(mesh, directory):
    """Write vertices/elements/boundary tags as three CSV files."""
    import os

    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "vertices.csv"), "w") as fh:
        fh.write(",".join(f"x{k}" for k in range(mesh.dim)) + "\n")
        for v in mesh.vertices:
            fh.write(",".join(f"{x:.17g}" for x in v) + "\n")
    with open(os.path.join(directory, "elements.csv"), "w") as fh:
        fh.write(",".join(f"v{k}" for k in range(mesh.dim + 1)) + "\n")
        for el in mesh.elements:
            fh.write(",".join(str(int(i)) for i in el) + "\n")
    with open(os.path.join(directory, "boundary.csv"), "w") as fh:
        fh.write("element,local_face,tag\n")
        for bf in mesh.boundary_faces:
            fh.write(f"{bf.element},{bf.local_face},{bf.tag}\n")
