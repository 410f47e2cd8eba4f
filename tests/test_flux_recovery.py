import numpy as np
import pytest

from rdlab import flux_recovery as fr
from rdlab import mesh as msh
from rdlab.conslaw import Advection, Burgers, Euler
from rdlab.errors import ConservationDefectError, InvalidGraphError, UnsupportedFeatureError
from rdlab.mesh import ElementGraph
from rdlab.rd_core import Discretization, Scheme
from test_batched_equivalence import (
    boundary_state,
    jittered_interval_mesh,
    jittered_tri_mesh,
    random_state,
)
from test_mesh import ref_triangle


def test_p1_cycle_recovery():
    system = fr.build_incidence(msh.reference_graph(2, 1))
    psi = np.array([[1.0], [0.0], [-1.0]])
    f = fr.recover_fluxes(system, psi)
    assert np.allclose(f[:, 0], [1.0 / 3.0, 1.0 / 3.0, -2.0 / 3.0])
    assert np.allclose(system.A @ f, psi, atol=1e-14)


def test_recovery_matches_pseudo_inverse():
    rng = np.random.default_rng(8)
    for degree in (1, 2):
        system = fr.build_incidence(msh.reference_graph(2, degree))
        n = system.A.shape[0]
        psi = rng.normal(size=(n, 2))
        psi -= psi.mean(axis=0)
        f = fr.recover_fluxes(system, psi)
        ref, *_ = np.linalg.lstsq(system.A, psi, rcond=None)
        assert np.abs(f - ref).max() < 1e-12


def test_incompatible_residuals_raise():
    system = fr.build_incidence(msh.reference_graph(2, 1))
    with pytest.raises(ConservationDefectError) as err:
        fr.recover_fluxes(system, np.array([[1.0], [1.0], [1.0]]))
    assert np.max(err.value.defect) > 1.0


def test_residual_shape_is_not_guessed():
    """1-D input is one column; (m, #nodes) input is used as given, and
    with m = 4 its column sums (the DOFs) are not zero."""
    system = fr.build_incidence(msh.reference_graph(2, 2))
    rng = np.random.default_rng(4)
    psi = rng.normal(size=(6, 4))
    psi -= psi.mean(axis=0)
    assert fr.recover_fluxes(system, psi).shape == (9, 4)
    assert fr.recover_fluxes(system, psi[:, 0]).shape == (9, 1)
    with pytest.raises(ConservationDefectError):
        fr.recover_fluxes(system, psi.T)


def test_disconnected_graph_raises():
    graph = ElementGraph(n_nodes=4, edges=((0, 1), (2, 3)))
    with pytest.raises(InvalidGraphError):
        fr.build_incidence(graph)


def test_p2_laplacian_rank():
    system = fr.build_incidence(msh.reference_graph(2, 2))
    assert np.linalg.matrix_rank(system.L) == 5
    assert np.allclose(system.L @ np.ones(6), 0.0, atol=1e-13)
    # Linv is the pseudo-inverse on the zero-mean subspace
    P = np.eye(6) - np.ones((6, 6)) / 6.0
    assert np.allclose(system.Linv @ system.L, P, atol=1e-12)


def test_certify_report():
    system = fr.build_incidence(msh.reference_graph(2, 1))
    psi = np.array([[0.5], [-0.2], [-0.3]])
    f = fr.recover_fluxes(system, psi)
    report = fr.certify(system, f, psi)
    assert report.passed
    assert report.balance_defect < 1e-14
    f_bad = f.copy()
    f_bad[0] += 0.1  # single-edge perturbation leaves the cycle nullspace
    bad = fr.certify(system, f_bad, psi)
    assert not bad.passed


def test_certify_scales_tolerances_with_the_residuals():
    """Exact recoveries of large zero-sum residuals pass, as recover_fluxes
    accepts them; a perturbation far above round-off still fails."""
    system = fr.build_incidence(msh.reference_graph(2, 2))
    rng = np.random.default_rng(14)
    psi = 1e5 * rng.normal(size=(100, 6, 1))
    psi -= psi.mean(axis=1, keepdims=True)
    fluxes = fr.recover_fluxes(system, psi)
    report = fr.certify(system, fluxes, psi)
    assert report.balance_defect > 1e-11     # above the unscaled tolerance
    assert report.passed
    fluxes[3, 0] += 1e-3
    assert not fr.certify(system, fluxes, psi).passed


@pytest.mark.parametrize("where", ["psi", "fluxes"])
def test_certify_fails_nan_defects(where):
    system = fr.build_incidence(msh.reference_graph(2, 1))
    psi = np.array([[0.5], [-0.2], [-0.3]])
    fluxes = fr.recover_fluxes(system, psi)
    {"psi": psi, "fluxes": fluxes}[where][1, 0] = np.nan
    assert not fr.certify(system, fluxes, psi).passed


def test_trace_weights_p1():
    mesh = ref_triangle()
    N = fr.trace_normal_weights(mesh, 0)
    n_in = -msh.element_geometry(mesh, 0)[2]
    assert np.allclose(N, -0.5 * n_in)
    assert np.allclose(N.sum(axis=0), 0.0, atol=1e-14)
    with pytest.raises(UnsupportedFeatureError):
        fr.trace_normal_weights(msh.build_interval_mesh(4), 0)


def test_split_weights_pattern():
    mesh = msh.build_structured_tri_mesh(2, 2, degree=2)
    for e in (0, 3):
        N = fr.split_normal_weights(mesh, e)
        n_in = -msh.element_geometry(mesh, e)[2]
        assert np.allclose(N[:3], -n_in / 6.0)
        opp = (2, 0, 1)
        for k in range(3):
            assert np.allclose(N[3 + k], n_in[opp[k]] / 3.0)
        assert np.allclose(N.sum(axis=0), 0.0, atol=1e-13)
    with pytest.raises(ValueError):
        fr.split_normal_weights(ref_triangle(), 0)


@pytest.mark.parametrize("degree", [1, 2])
def test_constant_state_consistency(degree):
    """Constant-state fluxes equal f(u) dotted with the recovered normals."""
    mesh = msh.build_structured_tri_mesh(2, 2, degree=degree)
    law = Advection((0.7, -0.4))
    disc = Discretization(mesh, law)
    system = fr.build_incidence(msh.element_graph(mesh))
    u = np.full((disc.dofmap.n_dofs, 1), 1.3)
    for e in range(3):
        phi = disc.galerkin_residuals([e], u)[0]
        fb = fr.boundary_dof_flux(disc, e, u)
        fluxes = fr.recover_fluxes(system, phi - fb)
        normals = fr.recover_normals(system, fr.trace_normal_weights(mesh, e))
        fu = law.flux(np.array([1.3]))[:, 0]  # (2,) flux vector of the state
        expect = normals @ fu
        assert np.abs(fluxes[:, 0] - expect).max() < 1e-13


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("kind", ["galerkin", "rusanov"])
def test_end_to_end_reassembly(kind, degree):
    """Recovered edge plus boundary fluxes rebuild the distributed residuals."""
    mesh = msh.build_structured_tri_mesh(2, 2, degree=degree)
    disc = Discretization(mesh, Burgers(dim=2))
    system = fr.build_incidence(msh.element_graph(mesh))
    rng = np.random.default_rng(12)
    u = rng.uniform(0.2, 1.0, size=(disc.dofmap.n_dofs, 1))
    scheme = Scheme(kind=kind)
    for e in range(mesh.n_elements):
        phi = disc.element_residuals([e], u, scheme)[0]
        fb = fr.boundary_dof_flux(disc, e, u)
        fluxes = fr.recover_fluxes(system, phi - fb)
        back = fr.reassemble_dof_residuals(system, fluxes, boundary_flux=fb)
        assert np.abs(back - phi).max() < 1e-12


def test_boundary_dof_flux_custom_interface_flux():
    mesh = msh.build_structured_tri_mesh(1, 1)
    disc = Discretization(mesh, Advection((1.0, 0.0)))
    u = np.ones((disc.dofmap.n_dofs, 1))

    def flux_n(uq, n, x):
        return 2.0 * n[..., :1]

    out = fr.boundary_dof_flux(disc, 0, u, flux_n=flux_n)
    # doubling the normal flux doubles every per-DOF boundary flux
    base = fr.boundary_dof_flux(disc, 0, u)
    assert np.allclose(out, 2.0 * base, atol=1e-13)


@pytest.mark.parametrize("dim, degree", [(1, 1), (2, 1), (2, 2)])
def test_boundary_dof_flux_callback_matches_default(dim, degree):
    """With f(u_h).n as the callback the custom path reproduces the default,
    and every point it passes lies on its face."""
    if dim == 1:
        mesh = msh.build_interval_mesh(4, 0.0, 1.0)
    else:
        mesh = msh.build_structured_tri_mesh(2, 2, degree=degree)
    law = Burgers(dim=dim)
    disc = Discretization(mesh, law)
    u = np.random.default_rng(3).uniform(0.2, 1.0, size=(disc.dofmap.n_dofs, 1))
    e = 1
    v = mesh.vertices[mesh.elements[e]]
    seen = []

    def flux_n(uq, n, x):
        seen.extend(np.reshape(x, (-1, dim)))
        return np.einsum("...dm,...d->...m", law.flux(uq), n)

    out = fr.boundary_dof_flux(disc, e, u, flux_n=flux_n)
    assert np.abs(out - fr.boundary_dof_flux(disc, e, u)).max() < 1e-14
    assert len(seen) == (dim + 1) * (degree + 1 if dim == 2 else 1)
    faces = ((0, 0), (1, 1)) if dim == 1 else msh._TRI_FACES
    for x in seen:
        # on a face: the distances to its two end points add up to its length
        dist = np.linalg.norm(v - x, axis=-1)
        assert min(dist[i] + dist[j] - np.linalg.norm(v[i] - v[j]) for i, j in faces) < 1e-14


def test_boundary_dof_flux_1d():
    mesh = msh.build_interval_mesh(4, 0.0, 1.0)
    disc = Discretization(mesh, Burgers(dim=1))
    u = np.full((disc.dofmap.n_dofs, 1), 2.0)
    fb = fr.boundary_dof_flux(disc, 0, u)
    assert np.allclose(fb[:, 0], [-2.0, 2.0])


def euler_flux_n(uq, n, x):
    """The interior normal flux f(u_h).n, through the callback."""
    return np.einsum("...dm,...d->...m", Euler(dim=2).flux(uq), n)


@pytest.fixture(scope="module", params=["structured_p1", "structured_p2",
                                        "jittered_p1", "jittered_p2"])
def euler_problem(request):
    """(disc, system, u) for 2D Euler on a 3x3 mesh."""
    degree = int(request.param[-1])
    if request.param.startswith("jittered"):
        mesh = jittered_tri_mesh(3, degree, seed=23)
    else:
        mesh = msh.build_structured_tri_mesh(3, 3, degree=degree)
    disc = Discretization(mesh, Euler(dim=2))
    u = random_state(disc.law, disc.dofmap.dof_coords, seed=degree)
    return disc, fr.build_incidence(msh.element_graph(mesh)), u


@pytest.mark.parametrize("kind", Scheme.KINDS)
def test_batched_recovery_matches_per_element_calls(euler_problem, kind):
    """One call over many elements gives the bits of a stack of calls over
    one element each, for index arrays and slices, with and without a
    custom interface flux."""
    disc, system, u = euler_problem
    ne = disc.mesh.n_elements
    phi = disc.residual_set(u, Scheme(kind=kind)).phi
    for flux_n in (None, euler_flux_n):
        fb = np.array([fr.boundary_dof_flux(disc, e, u, flux_n) for e in range(ne)])
        psi = phi - fb
        fluxes = np.array([fr.recover_fluxes(system, psi[e]) for e in range(ne)])
        for e in (slice(None), np.arange(ne)[::-1], np.array([4, 1, 4])):
            assert np.array_equal(fr.boundary_dof_flux(disc, e, u, flux_n), fb[e])
            assert np.array_equal(fr.recover_fluxes(system, psi[e]), fluxes[e])
        report = fr.certify(system, fluxes, psi)
        assert report.passed
        assert report.balance_defect == max(
            fr.certify(system, fluxes[e], psi[e]).balance_defect for e in range(ne))


ROW_CASES = [(law, mesh) for law in ("burgers", "euler") for mesh in ("p1", "p2", "interval")]


def _row_problem(law_name, mesh_name):
    """(disc, u) on a jittered mesh: P1 or P2 triangles, or an interval."""
    if mesh_name == "interval":
        mesh, dim = jittered_interval_mesh(6, False, seed=2), 1
    else:
        mesh, dim = jittered_tri_mesh(3, int(mesh_name[-1]), seed=23), 2
    law = Euler(dim=dim) if law_name == "euler" else Burgers(dim=dim)
    disc = Discretization(mesh, law)
    return disc, random_state(law, disc.dofmap.dof_coords, seed=5)


@pytest.mark.parametrize("law_name, mesh_name", ROW_CASES)
def test_one_element_is_the_batch_row(law_name, mesh_name):
    """An integer element gives the bits of that row of the batched call."""
    disc, u = _row_problem(law_name, mesh_name)
    total = disc.total_residual(slice(None), u)
    for e in range(disc.mesh.n_elements):
        assert np.array_equal(disc.total_residual(e, u), total[e])


@pytest.mark.parametrize("law_name, mesh_name", ROW_CASES)
def test_one_face_is_the_batch_row(law_name, mesh_name):
    """One (element, local face) pair of ``mesh.boundary_faces`` gives the
    bits of that row of the batched ``faces.boundary`` call."""
    disc, u = _row_problem(law_name, mesh_name)
    mesh = disc.mesh
    for u_b in boundary_state(disc.law):
        dofs, psi = disc.boundary_residuals(mesh.faces.boundary, u, u_b)
        assert len(mesh.boundary_faces) == len(dofs)
        for b, face in enumerate(mesh.boundary_faces):
            one_dofs, one_psi = disc.boundary_residuals(face, u, u_b)
            assert np.array_equal(one_dofs, dofs[b])
            assert np.array_equal(one_psi, psi[b])


def test_defect_in_a_batch_names_its_element(euler_problem):
    disc, system, u = euler_problem
    e = slice(None)
    psi = disc.element_residuals(e, u, Scheme(kind="rusanov")) - fr.boundary_dof_flux(disc, e, u)
    psi[5, 2, 1] += 1e-3
    psi[7, 0, 3] += 1.0
    with pytest.raises(ConservationDefectError, match="element 5 ") as err:
        fr.recover_fluxes(system, psi)
    assert err.value.defect.shape == (4,)
    assert err.value.defect[1] == pytest.approx(1e-3, rel=1e-6)
    report = fr.certify(system, system.A.T @ (system.Linv @ psi), psi)
    assert report.compat_defect == pytest.approx(1.0, rel=1e-6)
