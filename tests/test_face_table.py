"""The face table and the element geometry against the frozen code in
``_oracles.py``.

Boundary faces, the P2 midpoint DOFs, the neighbour table and the entropy
audit are all derived from ``Mesh.faces``, and measures, diameters and
scaled face normals from ``element_geometry``; on structured,
vertex-jittered, shuffled (irregular element and vertex order), read-back
and interval meshes they must reproduce the dictionary loops and
per-element functions they replaced.  The structured builder must
reproduce its cell loop.
"""

import numpy as np
import pytest

from _oracles import (
    oracle_boundary_faces,
    oracle_dofmap,
    oracle_element_diameter,
    oracle_element_measure,
    oracle_element_scaled_normals,
    oracle_entropy_inequality_audit,
    oracle_neighbors,
    oracle_structured_tri_mesh,
)
from rdlab import mesh as msh
from rdlab.conslaw import Advection, Burgers
from rdlab.diagnostics import entropy_inequality_audit
from rdlab.errors import DegenerateGeometryError
from rdlab.rd_core import Discretization, ResidualSet, Scheme
from test_batched_equivalence import (
    jittered_interval_mesh,
    jittered_tri_mesh,
    read_back,
    shuffled_tri_mesh,
)

DOMAIN = ((-1.0, 0.5), (2.0, 2.0))


def build(name):
    if name == "structured_p1":
        return msh.build_structured_tri_mesh(4, 3, DOMAIN)
    if name == "structured_p2":
        return msh.build_structured_tri_mesh(3, 3, DOMAIN, degree=2)
    if name.startswith("jittered"):
        return jittered_tri_mesh(3, int(name[-1]), seed=17)
    if name.startswith("shuffled"):
        return shuffled_tri_mesh(3, int(name[-1]), seed=19)
    if name == "interval":
        return jittered_interval_mesh(7, False, seed=3)
    if name == "periodic_interval_jittered":
        return jittered_interval_mesh(10, True, seed=2)
    return msh.build_interval_mesh(6, -1.0, 2.0, periodic=True)


NAMES = ["structured_p1", "structured_p2", "jittered_p1", "jittered_p2", "shuffled_p1",
         "shuffled_p2", "interval", "periodic_interval", "periodic_interval_jittered"]


@pytest.fixture(params=[(n, rt) for n in NAMES for rt in (False, True)],
                ids=lambda p: p[0] + ("_read_back" if p[1] else ""))
def case(request, tmp_path):
    """A mesh, or the same mesh written as text and built by hand from the files."""
    name, read_back_ = request.param
    mesh = build(name)
    return read_back(mesh, tmp_path) if read_back_ else mesh


def test_element_geometry_matches_reference(case):
    mesh = case
    ne = mesh.n_elements
    measure, diameter, snormal = msh.element_geometry(mesh)
    assert np.array_equal(measure, [oracle_element_measure(mesh, e) for e in range(ne)])
    ref = np.array([oracle_element_diameter(mesh, e) for e in range(ne)])
    assert np.all(np.abs(diameter - ref) <= 1e-15 * ref)
    if mesh.dim == 2:
        ref = -np.array([oracle_element_scaled_normals(mesh, e) for e in range(ne)])
    else:
        ref = np.broadcast_to([[-1.0], [1.0]], (ne, 2, 1))
    assert snormal.shape == (ne, mesh.dim + 1, mesh.dim)
    assert np.array_equal(snormal, ref)
    # one element, and an index array, are slices of the batch
    for e in (ne // 2, np.array([ne // 2, 0])):
        for got, want in zip(msh.element_geometry(mesh, e), (measure, diameter, snormal)):
            assert np.array_equal(got, want[e])


def test_degenerate_element_names_its_global_id():
    mesh = msh.build_structured_tri_mesh(3, 3)
    ne = mesh.n_elements
    # vertices 0, 1, 2 lie on the bottom side
    bad = msh.Mesh(dim=2, vertices=mesh.vertices,
                   elements=np.vstack([mesh.elements, [0, 1, 2]]))
    for e in (np.array([3, ne, 5]), slice(ne - 1, None), ne):
        with pytest.raises(DegenerateGeometryError, match=f"element {ne} has measure"):
            msh.element_geometry(bad, e)
    assert msh.element_geometry(bad, np.array([3, 5]))[0].shape == (2,)


@pytest.mark.parametrize("a, b, n", [(0.0, 1.0, 10), (-1.0, 2.0, 9)])
def test_jittered_periodic_measures_sum_to_the_period(a, b, n):
    mesh = msh.build_interval_mesh(n, a, b, periodic=True)
    rng = np.random.default_rng(2)
    mesh.vertices[1:-1, 0] += rng.uniform(-0.2, 0.2, size=n - 2) * (b - a) / n
    measure = Discretization(mesh, Burgers(dim=1)).measure
    assert abs(measure.sum() - (b - a)) <= 1e-14 * (b - a)
    # the wrap-around cell runs from the last vertex to the image of the first
    assert abs(measure[-1] - (b - mesh.vertices[-1, 0])) <= 1e-15 * (b - a)


def test_boundary_faces_match_reference(case):
    mesh = case
    ref = oracle_boundary_faces(mesh)
    disc = Discretization(mesh, Burgers(dim=mesh.dim))
    assert len(mesh.boundary_faces) == len(ref)
    assert np.array_equal(mesh.faces.boundary,
                          np.reshape([(f.element, f.local_face) for f in ref], (-1, 2)).T)
    for got, want in zip(mesh.boundary_faces, ref):
        e, lf = got
        assert (e, lf) == (want.element, want.local_face)
        assert np.abs(disc.fnormal[e, lf] - want.normal).max() <= 1e-15
        assert abs(np.linalg.norm(disc.snormal[e, lf]) - want.measure) <= 1e-15


def test_dofmap_matches_reference(case):
    mesh = case
    got, ref = msh.build_dofmap(mesh), oracle_dofmap(mesh)
    assert np.array_equal(got.element_dofs, ref.element_dofs)
    assert np.array_equal(got.dof_coords, ref.dof_coords)
    assert (got.n_dofs, got.dofs_per_element) == (ref.n_dofs, ref.dofs_per_element)


def test_neighbors_match_reference(case):
    mesh = case
    disc = Discretization(mesh, Burgers(dim=mesh.dim))
    ref = oracle_neighbors(mesh)
    nf = mesh.dim + 1
    nbr = np.full((mesh.n_elements, nf), -1)
    for (e, lf), (e2, lf2) in ref.items():
        nbr[e, lf] = nf * e2 + lf2
    assert np.array_equal(disc.nbr, nbr)


def test_entropy_audit_matches_reference(case):
    mesh = case
    disc = Discretization(mesh, Burgers(dim=mesh.dim))
    rng = np.random.default_rng(5)
    u = rng.uniform(-1.0, 2.0, size=(disc.dofmap.n_dofs, 1))
    # the 1D reference ignores boundary states
    states = [None] if mesh.dim == 1 else [None, 0.7, lambda x: x[..., :1] - x[..., 1:]]
    # with alpha < 0 the Rusanov split is anti-dissipative and violates the
    # inequality in many elements; Scheme rejects a negative alpha, so that
    # split is the Galerkin split plus the Rusanov term with alpha = -1
    e = slice(None)
    anti = ResidualSet(disc.galerkin_residuals(e, u) + disc._rusanov_term(e, u, -1.0))
    for alpha, rset in ((None, disc.residual_set(u, Scheme(kind="rusanov"))), (-1.0, anti)):
        for u_b in states:
            report = entropy_inequality_audit(disc, u, rset, u_b)
            worst, where, count = oracle_entropy_inequality_audit(disc, u, rset, u_b)
            assert worst > 0.0 or alpha is None
            assert abs(report.defect - worst) <= 1e-14 * worst
            assert report.worst_location == where
            assert report.extra["violations"] == count


def test_across_reads_the_neighbours_matching_face_point(case):
    """A continuous u_h has one value at each interior face point, so the entry
    that ``across`` gathers from the neighbour equals this element's own; a
    global quadratic has a continuous gradient too, so at P2 its interior
    gradient jumps vanish at round-off."""
    mesh = case
    disc = Discretization(mesh, Burgers(dim=mesh.dim))
    interior = mesh.faces.across >= 0
    u = np.random.default_rng(7).uniform(-1.0, 2.0, size=(disc.dofmap.n_dofs, 2))
    own = disc.face_values(disc.element_values(slice(None), u))
    gap = np.abs(disc.across(own) - own)[interior]
    assert interior.any() and gap.max() <= 1e-14 * np.abs(own).max()
    if mesh.degree == 2:
        x, y = disc.dofmap.dof_coords.T
        quad = (1.0 + x - 2.0 * y + 3.0 * x * x + x * y - y * y)[:, None]
        jumps = disc.state(quad).jumps[interior]
        # the largest sum of |u_s grad(phi_s)| at a face point bounds the cancellation
        terms = np.einsum("kfqsd,ksm->kfqdm", np.abs(disc.fgrad),
                          np.abs(disc.element_values(slice(None), quad)))
        assert np.abs(jumps).max() <= 1e-14 * terms.max()


@pytest.mark.parametrize("u_b", [1.0, lambda x: (x[..., :1] > 0.5) * 1.0])
def test_1d_entropy_audit_uses_boundary_state(u_b):
    """Zero state, inflow 1 at the right end: only the last element sees the
    entropy flux g(1/2) = 1/24 of the face average."""
    mesh = msh.build_interval_mesh(5)
    disc = Discretization(mesh, Burgers(dim=1))
    u = np.zeros((disc.dofmap.n_dofs, 1))
    rset = disc.residual_set(u, Scheme(kind="rusanov"))
    assert entropy_inequality_audit(disc, u, rset).defect == 0.0
    report = entropy_inequality_audit(disc, u, rset, u_b)
    assert report.defect == pytest.approx(1.0 / 24.0, rel=1e-15)
    assert report.worst_location == ("element", 4)
    assert report.extra["violations"] == 1


def test_periodic_interval_survives_read_back(tmp_path):
    mesh = msh.build_interval_mesh(8, periodic=True)
    back = read_back(mesh, tmp_path)
    assert back.periodic and not back.boundary_faces
    assert back.period == mesh.period == 1.0
    measure = Discretization(back, Burgers(dim=1)).measure
    assert np.array_equal(measure, Discretization(mesh, Burgers(dim=1)).measure)
    assert np.allclose(measure, 0.125, rtol=1e-14)


def test_face_table_is_built_once_and_read_only():
    mesh = msh.build_structured_tri_mesh(2, 2, degree=2)
    faces = mesh.faces
    assert mesh.faces is faces
    assert faces.keys.shape == (16, 2) and faces.id.shape == (8, 3)
    # every interior face is owned twice, every boundary face once
    assert np.bincount(faces.id.ravel()).tolist().count(1) == len(mesh.boundary_faces)
    assert mesh.boundary_faces is mesh.boundary_faces
    for a in (faces.across, faces.boundary):
        with pytest.raises(ValueError):
            a[0, 0] = 0


@pytest.mark.parametrize("nx, ny, domain", [(1, 1, ((0.0, 0.0), (1.0, 1.0))), (5, 2, DOMAIN),
                                            (3, 7, ((0.1, -2.0), (0.7, 3.0)))])
@pytest.mark.parametrize("degree", [1, 2])
def test_structured_builder_matches_cell_loop(nx, ny, domain, degree):
    mesh = msh.build_structured_tri_mesh(nx, ny, domain, degree=degree)
    verts, tris = oracle_structured_tri_mesh(nx, ny, domain)
    assert mesh.vertices.dtype == verts.dtype and mesh.elements.dtype == tris.dtype
    assert np.array_equal(mesh.vertices, verts)
    assert np.array_equal(mesh.elements, tris)
    assert mesh.degree == degree


@pytest.mark.parametrize("degree", [1, 2])
def test_hand_built_mesh_has_the_builders_boundary(degree):
    """Boundary faces are the faces owned by one element, however the mesh
    was made, so weak boundary data reaches a hand-built mesh too."""
    built = msh.build_structured_tri_mesh(2, 2, degree=degree)
    by_hand = msh.Mesh(dim=2, vertices=built.vertices.copy(),
                       elements=built.elements.copy(), degree=degree)
    assert by_hand.boundary_faces == built.boundary_faces
    assert len(by_hand.boundary_faces) == 8
    law = Advection((1.0, 0.5))
    disc, ref = Discretization(by_hand, law), Discretization(built, law)
    assert np.array_equal(disc.boundary_dofs, ref.boundary_dofs)
    u = np.zeros((disc.dofmap.n_dofs, 1))
    R, _ = disc.assemble(u, Scheme(kind="rusanov"), u_b=1.0)
    assert np.array_equal(R, ref.assemble(u, Scheme(kind="rusanov"), u_b=1.0)[0])
    # inflow of the unit state through the left and bottom sides, 1 + 0.5
    assert np.abs(R).sum() == pytest.approx(1.5, rel=1e-14)
