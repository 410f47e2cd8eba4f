import numpy as np
import pytest

from rdlab import mesh as msh
from rdlab.conslaw import Advection, Burgers
from rdlab.errors import DegenerateGeometryError, UnsupportedFeatureError
from rdlab.rd_core import Discretization
from test_batched_equivalence import read_back


def ref_triangle(degree=1):
    mesh = msh.Mesh(
        dim=2,
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        elements=np.array([[0, 1, 2]]),
        degree=degree,
    )
    return mesh


def test_structured_mesh_counts():
    mesh = msh.build_structured_tri_mesh(2, 3)
    assert mesh.n_vertices == 3 * 4
    assert mesh.n_elements == 2 * 2 * 3
    assert len(mesh.boundary_faces) == 2 * (2 + 3)


def test_element_measures_positive_and_sum_to_area():
    mesh = msh.build_structured_tri_mesh(3, 2, ((0.0, -1.0), (2.0, 1.0)))
    areas = msh.element_geometry(mesh)[0]
    assert min(areas) > 0.0
    assert abs(sum(areas) - 4.0) < 1e-13


def test_boundary_faces_outward():
    mesh = msh.build_structured_tri_mesh(2, 2)
    fnormal = Discretization(mesh, Advection((1.0, 0.0))).fnormal
    for e, lf in mesh.boundary_faces:
        normal = fnormal[e, lf]
        assert abs(np.linalg.norm(normal) - 1.0) < 1e-14
        v = mesh.vertices[mesh.elements[e]]
        i, j = msh._TRI_FACES[lf]
        mid = 0.5 * (v[i] + v[j])
        centroid = v.mean(axis=0)
        assert np.dot(normal, mid - centroid) > 0.0


def test_scaled_normals_reference_triangle():
    mesh = ref_triangle()
    measure, _, snormal = msh.element_geometry(mesh, 0)
    n = -snormal  # inward
    assert np.allclose(n, [[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(n.sum(axis=0), 0.0)
    g = Discretization(mesh, Advection((1.0, 0.5))).bgrad[0]
    assert np.allclose(n, 2.0 * measure * g)


def test_degenerate_triangle_raises():
    mesh = msh.Mesh(
        dim=2,
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
        elements=np.array([[0, 1, 2]]),
    )
    with pytest.raises(DegenerateGeometryError):
        msh.element_geometry(mesh, 0)


@pytest.mark.parametrize("elements, bad, measure", [
    ([(0, 1), (2, 1), (2, 3), (3, 4)], 1, -0.25),      # one cell reversed
    ([(0, 1), (1, 2), (2, 3), (3, 0)], 3, -0.75),      # closed, without a period
], ids=["reversed", "closed"])
def test_interval_cell_measures_are_checked(elements, bad, measure):
    mesh = msh.Mesh(dim=1, vertices=np.linspace(0.0, 1.0, 5)[:, None],
                    elements=np.array(elements))
    for e in (np.arange(4), slice(bad, None), np.array([0, bad]), bad):
        with pytest.raises(DegenerateGeometryError, match=f"element {bad} has measure {measure}"):
            msh.element_geometry(mesh, e)
    assert np.array_equal(msh.element_geometry(mesh, np.array([0, 2]))[0], [0.25, 0.25])


def test_p2_dofmap_midpoints():
    mesh = msh.build_structured_tri_mesh(2, 2, degree=2)
    dm = msh.build_dofmap(mesh)
    n_edges = (dm.n_dofs - mesh.n_vertices)
    assert dm.dofs_per_element == 6
    assert n_edges == 16  # interior + boundary edges of a 2x2 criss-cross grid
    for e in range(mesh.n_elements):
        v = mesh.vertices[mesh.elements[e]]
        mids = dm.dof_coords[dm.element_dofs[e, 3:]]
        expect = 0.5 * np.array([v[0] + v[1], v[1] + v[2], v[2] + v[0]])
        assert np.allclose(mids, expect)


@pytest.mark.parametrize("degree", [1, 2])
def test_tri_basis_partition_of_unity(degree):
    rng = np.random.default_rng(0)
    pts = rng.dirichlet(np.ones(3), size=20)
    vals = msh.tri_basis(degree, pts)
    assert np.allclose(vals.sum(axis=-1), 1.0)


def test_p2_basis_is_nodal():
    nodes = np.array(
        [
            [1, 0, 0], [0, 1, 0], [0, 0, 1],
            [0.5, 0.5, 0], [0, 0.5, 0.5], [0.5, 0, 0.5],
        ],
        dtype=float,
    )
    vals = msh.tri_basis(2, nodes)
    assert np.allclose(vals, np.eye(6), atol=1e-14)


def test_basis_gradients_sum_to_zero():
    mesh = msh.build_structured_tri_mesh(2, 2, degree=2)
    measure, _, snormal = msh.element_geometry(mesh, 1)
    g = -snormal / (2.0 * measure)
    lam = np.array([[0.3, 0.5, 0.2], [1 / 3, 1 / 3, 1 / 3]])
    grads = msh.tri_basis_grad(2, lam, g)
    assert np.allclose(grads.sum(axis=-2), 0.0, atol=1e-13)
    # the gradient is the chain rule through the basis: sum_k dphi/dlam_k
    # grad(lam_k), with dphi/dlam_k the central difference of tri_basis,
    # exact for quadratics up to round-off
    rng = np.random.default_rng(3)
    lam, grad_lam = rng.dirichlet(np.ones(3), size=(4, 5)), rng.standard_normal((4, 1, 3, 2))
    h = 1e-3
    for degree in (1, 2):
        dphi = np.stack([msh.tri_basis(degree, lam + d) - msh.tri_basis(degree, lam - d)
                         for d in h * np.eye(3)], axis=-1) / (2 * h)   # (4, 5, #K, 3)
        chain = np.einsum("...sk,...kd->...sd", dphi, grad_lam)
        assert np.abs(msh.tri_basis_grad(degree, lam, grad_lam) - chain).max() <= 1e-9


@pytest.mark.parametrize("basis, args", [(msh.tri_basis, ()),
                                         (msh.tri_basis_grad, (np.zeros((3, 2)),))],
                         ids=["basis", "grad"])
def test_basis_rejects_degree_3(basis, args):
    with pytest.raises(UnsupportedFeatureError, match="degree 3 not supported"):
        basis(3, np.full(3, 1 / 3), *args)


def test_triangle_quadrature_exactness():
    mesh = ref_triangle()
    area = msh.element_geometry(mesh, 0)[0]
    # on the reference triangle x = lam_1 and y = lam_2
    lam, w = msh.volume_rule(mesh)
    val = area * np.sum(w * lam[:, 1] ** 2)
    assert abs(val - 1.0 / 12.0) < 1e-14
    lam, w = msh.volume_rule(ref_triangle(degree=2))
    val = area * np.sum(w * lam[:, 1] ** 2 * lam[:, 2] ** 2)
    assert abs(val - 1.0 / 180.0) < 1e-14
    with pytest.raises(UnsupportedFeatureError):
        msh.volume_rule(ref_triangle(degree=3))
    # the interval rule, two Gauss points: t = lam_1 on [0, 1]
    lam, w = msh.volume_rule(msh.build_interval_mesh(1))
    assert abs(np.sum(w * lam[:, 1] ** 3) - 0.25) < 1e-14


def test_gauss_rule():
    t, w = msh.gauss_01(2)
    assert abs(w.sum() - 1.0) < 1e-14
    assert abs(np.sum(w * t**3) - 0.25) < 1e-14


@pytest.mark.parametrize("npts", [1, 2, 3, 4])
def test_gauss_rule_is_leggauss_on_unit_interval(npts):
    x, w = np.polynomial.legendre.leggauss(npts)
    t, wt = msh.gauss_01(npts)
    assert np.array_equal(t, 0.5 * (x + 1.0))
    assert np.array_equal(wt, 0.5 * w)
    assert msh.gauss_01(npts)[0] is t  # cached, not recomputed


def test_gauss_rule_is_read_only():
    """And tabulated for 1 to 4 points only: P2 needs at most 4."""
    t, w = msh.gauss_01(3)
    with pytest.raises(ValueError):
        t[0] = 0.0
    with pytest.raises(ValueError):
        w += 1.0
    for npts in (0, 5):
        with pytest.raises(UnsupportedFeatureError):
            msh.gauss_01(npts)


def test_face_geometry():
    mesh = ref_triangle(degree=2)
    disc = Discretization(mesh, Advection((1.0, 0.5)))
    # the hypotenuse, with the 3-point face rule
    w, n, lam = disc.fw[0, 0], disc.fnormal[0, 0], disc.flam[0]
    x = lam @ mesh.vertices
    assert abs(w.sum() - np.sqrt(2.0)) < 1e-13
    assert np.allclose(n, np.array([1.0, 1.0]) / np.sqrt(2.0))
    assert np.allclose(lam.sum(axis=1), 1.0)
    assert np.allclose(x.sum(axis=1), 1.0)
    assert np.allclose(msh.element_geometry(mesh, 0)[2][0], np.sqrt(2.0) * n)


def test_face_local_dofs():
    mesh = msh.build_structured_tri_mesh(1, 1, degree=2)
    assert msh.face_local_dofs(mesh, 0) == (1, 2, 4)
    assert msh.face_local_dofs(mesh, 1) == (2, 0, 5)
    assert msh.face_local_dofs(mesh, 2) == (0, 1, 3)


def test_interval_mesh_periodic():
    mesh = msh.build_interval_mesh(4, 0.0, 2.0, periodic=True)
    assert mesh.n_elements == 4
    assert not mesh.boundary_faces
    measure = msh.element_geometry(mesh)[0]
    for e in range(4):
        assert abs(measure[e] - 0.5) < 1e-14


def test_interval_mesh_rejects_p2():
    with pytest.raises(UnsupportedFeatureError):
        msh.build_interval_mesh(4, degree=2)


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("periodic", [False, True])
def test_interval_mesh_vertices_and_cells(n, periodic):
    mesh = msh.build_interval_mesh(n, -1.0, 2.0, periodic=periodic)
    x = np.linspace(-1.0, 2.0, n + 1)
    nv = n if periodic else n + 1
    assert np.array_equal(mesh.vertices, x[:nv, None])
    assert np.array_equal(mesh.elements, [(i, (i + 1) % nv) for i in range(n)])
    assert mesh.elements.dtype == np.array([0]).dtype
    assert mesh.period == (3.0 if periodic else None)


def test_p2_interval_mesh_is_rejected():
    """Only triangles carry P2: a degree-2 interval mesh built by hand must
    not run as P1."""
    mesh = msh.Mesh(dim=1, vertices=np.array([[0.0], [0.4], [1.0]]),
                    elements=np.array([[0, 1], [1, 2]]), degree=2)
    with pytest.raises(UnsupportedFeatureError, match="degree 2 not supported on a 1-D mesh"):
        msh.build_dofmap(mesh)
    with pytest.raises(UnsupportedFeatureError):
        Discretization(mesh, Burgers(dim=1))


def test_reference_graphs():
    assert len(msh.reference_graph(2, 1).edges) == 3
    assert len(msh.reference_graph(2, 2).edges) == 9
    assert msh.reference_graph(1, 1).n_nodes == 2
    with pytest.raises(UnsupportedFeatureError):
        msh.reference_graph(3, 1)


def test_text_io_roundtrip(tmp_path):
    mesh = msh.build_structured_tri_mesh(2, 2)
    back = read_back(mesh, tmp_path)
    assert np.allclose(back.vertices, mesh.vertices)
    assert np.array_equal(back.elements, mesh.elements)
    assert back.boundary_faces == mesh.boundary_faces
