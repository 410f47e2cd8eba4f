import numpy as np
import pytest

from rdlab import mesh as msh
from rdlab import rd_core
from rdlab.conslaw import Advection, Burgers, Euler, conserved_from_primitive
from rdlab.errors import (
    ConservationDefectError,
    StepFailureError,
    UnsupportedFeatureError,
)
from rdlab.rd_core import (
    Discretization,
    Scheme,
    blend_limiter,
    monotone_dt,
    rusanov_coefficients,
)
from test_batched_equivalence import jittered_tri_mesh
from test_mesh import ref_triangle

ALL_KINDS = Scheme.KINDS


def test_scheme_validation():
    with pytest.raises(ValueError):
        Scheme(kind="upwind")
    with pytest.raises(ValueError):
        Scheme(kind="supg", tau_scale=0.0)
    with pytest.raises(ValueError):
        Scheme(kind="jump", theta_e=-1.0)
    Scheme(kind="limited")  # fine


def test_total_residual_linear_field():
    # u = x under advection a = (1, 0): the contour integral equals |K|
    disc = Discretization(ref_triangle(), Advection((1.0, 0.0)))
    u = disc.dofmap.dof_coords[:, :1].copy()
    assert abs(disc.total_residual(0, u)[0] - 0.5) < 1e-14


def test_rusanov_alpha_reference_value():
    disc = Discretization(ref_triangle(), Advection((1.0, 0.0)))
    u = np.zeros((3, 1))
    assert abs(disc.rusanov_alpha(0, u) - 0.5) < 1e-13


def conservation_mesh(name, degree, tmp_path):
    """The 2x2 structured mesh, a 3x3 mesh with jittered interior vertices,
    or that jittered mesh written by ``save_text`` and read by ``load_text``."""
    if name == "structured":
        return msh.build_structured_tri_mesh(2, 2, degree=degree)
    mesh = jittered_tri_mesh(3, degree, seed=3)
    if name == "text":
        msh.save_text(mesh, tmp_path / "mesh.txt")
        mesh = msh.load_text(tmp_path / "mesh.txt", degree=degree)
    return mesh


def assert_element_conservation(disc, u, scheme, tol):
    """Each element's distributed residuals sum to its boundary integral,
    checked for all elements in one batched call."""
    phi = disc.element_residuals(slice(None), u, scheme)
    total = disc.total_residual(slice(None), u)
    defect = np.abs(phi.sum(axis=1) - total).max(axis=1)
    assert np.all(defect <= tol * (1.0 + np.abs(total).max(axis=1)))


IRREGULAR = ("jittered", "text")


@pytest.mark.parametrize("kind, degree, mesh_name", [
    pytest.param(kind, degree, "structured", id=f"{kind}-{degree}")
    for kind in ALL_KINDS for degree in (1, 2)
] + [
    pytest.param(kind, degree, name, id=f"{kind}-{degree}-{name}")
    for name in IRREGULAR for kind in ALL_KINDS for degree in (1, 2)
])
def test_conservation_all_families_scalar(kind, degree, mesh_name, tmp_path):
    mesh = conservation_mesh(mesh_name, degree, tmp_path)
    disc = Discretization(mesh, Burgers(dim=2))
    scheme = Scheme(kind=kind)
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = rng.uniform(-1.0, 2.0, size=(disc.dofmap.n_dofs, 1))
        assert_element_conservation(disc, u, scheme, 1e-12)


@pytest.mark.parametrize("kind, degree, mesh_name", [
    pytest.param(kind, 1, "structured", id=kind) for kind in ALL_KINDS
] + [
    pytest.param(kind, degree, name, id=f"{kind}-{degree}-{name}")
    for name in IRREGULAR for kind in ALL_KINDS for degree in (1, 2)
])
def test_conservation_euler_system(kind, degree, mesh_name, tmp_path):
    mesh = conservation_mesh(mesh_name, degree, tmp_path)
    law = Euler(gamma=1.4, dim=2)
    disc = Discretization(mesh, law)
    rng = np.random.default_rng(5)
    n = disc.dofmap.n_dofs
    w = np.stack(
        [rng.uniform(0.5, 1.5, n), rng.uniform(-0.3, 0.3, n),
         rng.uniform(-0.3, 0.3, n), rng.uniform(0.5, 1.5, n)], axis=-1
    )
    u = conserved_from_primitive(w)
    assert_element_conservation(disc, u, Scheme(kind=kind), 1e-11)


def test_conservation_1d():
    mesh = msh.build_interval_mesh(8, periodic=True)
    disc = Discretization(mesh, Burgers(dim=1))
    rng = np.random.default_rng(2)
    u = rng.uniform(0.0, 1.0, size=(disc.dofmap.n_dofs, 1))
    for kind in ("galerkin", "rusanov", "supg", "limited"):
        for e in range(mesh.n_elements):
            phi = disc.element_residuals(e, u, Scheme(kind=kind))
            total = disc.total_residual(e, u)
            assert np.abs(phi.sum(axis=0) - total).max() < 1e-13


def test_jump_needs_2d():
    mesh = msh.build_interval_mesh(4)
    disc = Discretization(mesh, Burgers(dim=1))
    with pytest.raises(UnsupportedFeatureError):
        disc.jump_residuals(0, np.zeros((5, 1)))


def test_rusanov_coefficients_identity_and_sign():
    mesh = msh.build_structured_tri_mesh(3, 3)
    law = Advection((1.0, 0.5))
    disc = Discretization(mesh, law)
    u = np.zeros((disc.dofmap.n_dofs, 1))
    for e in range(3):
        c = rusanov_coefficients(disc, e, u)
        assert np.all(c >= -1e-14)
        # the skew part of the coefficient matrix recovers the advection term
        g = -msh.element_geometry(mesh, e)[2] / (2.0 * disc.measure[e])
        adv = disc.measure[e] * (g @ law.a)
        skew = (c - c.T).sum(axis=1)
        assert np.allclose(skew, adv, atol=1e-13)


def test_rusanov_coefficients_reproduce_residual():
    mesh = msh.build_structured_tri_mesh(2, 2)
    disc = Discretization(mesh, Advection((1.0, 0.5)))
    rng = np.random.default_rng(9)
    u = rng.uniform(-1, 1, size=(disc.dofmap.n_dofs, 1))
    for e in range(mesh.n_elements):
        c = rusanov_coefficients(disc, e, u)
        ue = disc.element_values(e, u)[:, 0]
        phi_c = np.array(
            [np.sum(c[s] * (ue[s] - ue)) for s in range(3)]
        )
        phi = disc.rusanov_residuals(e, u)[:, 0]
        assert np.allclose(phi_c, phi, atol=1e-13)


def test_monotone_dt_scaling():
    law = Advection((1.0, 0.0))
    dts = []
    for n in (4, 8):
        mesh = msh.build_structured_tri_mesh(n, n)
        disc = Discretization(mesh, law)
        u = np.zeros((disc.dofmap.n_dofs, 1))
        mass = np.zeros(disc.dofmap.n_dofs)
        for e in range(mesh.n_elements):
            mass[disc.dofmap.element_dofs[e]] += disc.measure[e] / 3.0
        dt = monotone_dt(disc, u, mass)
        assert dt > 0.0
        dts.append(dt)
    assert 1.5 < dts[0] / dts[1] < 2.5  # roughly first order in h


def test_blend_limiter_example():
    phi = np.array([[3.0], [-1.0], [2.0]])
    beta, limited = blend_limiter(phi, phi.sum(axis=0))
    assert np.allclose(beta[:, 0], [0.6, 0.0, 0.4])
    assert np.allclose(limited.sum(axis=0), phi.sum(axis=0))
    assert np.allclose(limited[:, 0], [2.4, 0.0, 1.6])


def test_blend_limiter_zero_total():
    phi = np.array([[1.0], [-1.0], [0.0]])
    beta, limited = blend_limiter(phi, np.zeros(1))
    assert np.allclose(beta[:, 0], 1.0 / 3.0)
    assert np.allclose(limited, 0.0)


def test_blend_limiter_rejects_nonconservative_input():
    phi = np.array([[1.0], [1.0], [1.0]])
    with pytest.raises(ConservationDefectError):
        blend_limiter(phi, np.array([1.0]))


def test_upwind_flux_scalar():
    disc = Discretization(ref_triangle(), Advection((1.0, 0.0)))
    uh, ub = np.array([2.0]), np.array([5.0])
    # outflow: a.n > 0, interior state wins
    out = disc.upwind_flux(uh, ub, np.array([1.0, 0.0]))
    assert abs(out[0] - 2.0) < 1e-14
    # inflow: a.n < 0, boundary state wins
    inn = disc.upwind_flux(uh, ub, np.array([-1.0, 0.0]))
    assert abs(inn[0] + 5.0) < 1e-14


def test_boundary_residuals_inflow():
    mesh = msh.build_structured_tri_mesh(1, 1)
    disc = Discretization(mesh, Advection((1.0, 0.0)))
    u = np.zeros((disc.dofmap.n_dofs, 1))
    face = next(f for f in mesh.boundary_faces if f.tag == "left")
    dofs, psi = disc.boundary_residuals(face, u, 1.0)
    # inflow of a unit state through a unit edge: total flux difference is -1
    assert abs(psi.sum() + 1.0) < 1e-13
    assert np.allclose(psi[:, 0], -0.5)
    assert len(dofs) == 2


def test_boundary_residuals_vanish_when_trace_matches():
    mesh = msh.build_structured_tri_mesh(2, 2)
    disc = Discretization(mesh, Advection((1.0, 0.5)))
    u = disc.dofmap.dof_coords[:, :1] + 2.0

    def u_b(x):
        return x[..., :1] + 2.0

    for face in mesh.boundary_faces:
        _, psi = disc.boundary_residuals(face, u, u_b)
        assert np.abs(psi).max() < 1e-13


def test_assemble_matches_residual_set():
    mesh = msh.build_structured_tri_mesh(2, 2)
    disc = Discretization(mesh, Burgers(dim=2))
    rng = np.random.default_rng(1)
    u = rng.uniform(0.0, 1.0, size=(disc.dofmap.n_dofs, 1))
    R, rset = disc.assemble(u, Scheme(kind="rusanov"), u_b=0.5)
    manual = np.zeros_like(R)
    for e in range(mesh.n_elements):
        for s in range(3):
            manual[disc.dofmap.element_dofs[e][s]] += rset.phi[e, s]
    for face, psi in zip(mesh.boundary_faces, rset.boundary, strict=True):
        dofs = msh.face_local_dofs(mesh, face.local_face)
        gd = disc.dofmap.element_dofs[face.element]
        for k, s in enumerate(dofs):
            manual[gd[s]] += psi[k]
    assert np.array_equal(R, manual)


def test_inadmissible_state_reports_element():
    mesh = msh.build_structured_tri_mesh(2, 2)
    law = Euler(gamma=1.4, dim=2)
    disc = Discretization(mesh, law)
    u = np.tile(conserved_from_primitive(np.array([1.0, 0.1, 0.0, 1.0])),
                (disc.dofmap.n_dofs, 1))
    u[0, 0] = -1.0  # negative density at a corner DOF
    with pytest.raises(StepFailureError) as err:
        disc.residual_set(u, Scheme(kind="rusanov"))
    assert err.value.element is not None


def test_inadmissible_state_names_the_owning_element():
    mesh = msh.build_structured_tri_mesh(3, 3)
    disc = Discretization(mesh, Euler(gamma=1.4, dim=2))
    u = np.tile(conserved_from_primitive(np.array([1.0, 0.1, 0.0, 1.0])),
                (disc.dofmap.n_dofs, 1))
    dofs = disc.dofmap.element_dofs
    # the last DOF that only one element touches, so the answer is not 0
    owners = np.bincount(dofs.ravel(), minlength=disc.dofmap.n_dofs)
    dof = int(np.flatnonzero(owners == 1)[-1])
    element = int(np.flatnonzero((dofs == dof).any(axis=1))[0])
    assert element > 0
    # a negative density, and NaN in the density, a momentum or the energy
    for component, value in ((0, -1.0), (0, np.nan), (1, np.nan), (3, np.nan)):
        bad = u.copy()
        bad[dof, component] = value
        for kind in ALL_KINDS:
            with pytest.raises(StepFailureError, match=f"in element {element}:") as err:
                disc.residual_set(bad, Scheme(kind=kind))
            assert err.value.element == element


def test_limited_scheme_is_a_convex_split_of_the_total():
    mesh = msh.build_structured_tri_mesh(2, 2)
    disc = Discretization(mesh, Burgers(dim=2))
    rng = np.random.default_rng(4)
    u = rng.uniform(0.1, 1.0, size=(disc.dofmap.n_dofs, 1))
    for e in range(mesh.n_elements):
        phi = disc.element_residuals(e, u, Scheme(kind="limited"))
        total = disc.total_residual(e, u)
        if abs(total[0]) > 1e-10:
            beta = phi[:, 0] / total[0]
            assert np.all(beta >= -1e-13)
            assert abs(beta.sum() - 1.0) < 1e-12


def test_coefficient_extraction_is_scalar_only():
    mesh = msh.build_structured_tri_mesh(1, 1)
    disc = Discretization(mesh, Euler(gamma=1.4, dim=2))
    with pytest.raises(UnsupportedFeatureError):
        rusanov_coefficients(disc, 0, np.zeros((disc.dofmap.n_dofs, 4)))


def test_specnorm():
    assert rd_core._specnorm(np.array([[-3.0]])) == 3.0
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert abs(rd_core._specnorm(a) - 1.0) < 1e-14
