import numpy as np
import pytest

from rdlab import mesh as msh
from rdlab.conslaw import Advection
from rdlab.errors import DegenerateGeometryError, UnsupportedFeatureError
from rdlab.rd_core import Discretization


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
    for bf in mesh.boundary_faces:
        normal = fnormal[bf.element, bf.local_face]
        assert abs(np.linalg.norm(normal) - 1.0) < 1e-14
        v = mesh.vertices[mesh.elements[bf.element]]
        i, j = msh._TRI_FACES[bf.local_face]
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


def test_triangle_quadrature_exactness():
    mesh = ref_triangle()
    area = msh.element_geometry(mesh, 0)[0]
    # on the reference triangle x = lam_1 and y = lam_2
    lam, w = msh.tri_quadrature(2)
    val = area * np.sum(w * lam[:, 1] ** 2)
    assert abs(val - 1.0 / 12.0) < 1e-14
    lam, w = msh.tri_quadrature(4)
    val = area * np.sum(w * lam[:, 1] ** 2 * lam[:, 2] ** 2)
    assert abs(val - 1.0 / 180.0) < 1e-14
    with pytest.raises(UnsupportedFeatureError):
        msh.tri_quadrature(9)


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
    t, w = msh.gauss_01(3)
    with pytest.raises(ValueError):
        t[0] = 0.0
    with pytest.raises(ValueError):
        w += 1.0


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


def test_reference_graphs():
    assert len(msh.reference_graph(2, 1).edges) == 3
    assert len(msh.reference_graph(2, 2).edges) == 9
    assert msh.reference_graph(1, 1).n_nodes == 2
    with pytest.raises(UnsupportedFeatureError):
        msh.reference_graph(3, 1)


def test_text_io_roundtrip(tmp_path):
    mesh = msh.build_structured_tri_mesh(2, 2)
    path = tmp_path / "mesh.txt"
    msh.save_text(mesh, path)
    back = msh.load_text(path)
    assert np.allclose(back.vertices, mesh.vertices)
    assert np.array_equal(back.elements, mesh.elements)
    assert back.boundary_faces == mesh.boundary_faces
