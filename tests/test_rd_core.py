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


@pytest.mark.parametrize("kind, key, value", [
    ("supg", "tau_scale", np.nan),
    ("jump", "theta_e", np.inf),
    ("rusanov", "alpha", np.nan),
    ("limited", "alpha", np.inf),
    ("limited", "alpha", -1.0),
    ("limited_supg", "gamma_jump", -0.1),
    ("limited_jump", "gamma_jump", np.nan),
])
def test_scheme_rejects_non_finite_and_negative_parameters(kind, key, value):
    with pytest.raises(ValueError, match=f"{key} must be"):
        Scheme(kind=kind, **{key: value})


def test_scheme_accepts_zero_alpha_and_gamma_jump():
    Scheme(kind="limited_supg", alpha=0.0, gamma_jump=0.0)
    Scheme(kind="galerkin", alpha=np.nan)    # galerkin does not read alpha


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_dispatch_reads_exactly_the_parameters_of_its_kind(kind):
    """Changing a parameter of ``Scheme.PARAMS[kind]`` changes phi; changing
    any other leaves it bit for bit, on a jittered P2 Burgers state whose
    interior faces carry gradient jumps."""
    disc = Discretization(jittered_tri_mesh(3, 2, seed=11), Burgers(dim=2))
    u = np.random.default_rng(6).uniform(0.2, 1.0, size=(disc.dofmap.n_dofs, 1))
    phi = disc.element_residuals(slice(None), u, Scheme(kind=kind))
    changed = {"tau_scale": 2.0, "theta_e": 0.05, "gamma_jump": 0.3, "alpha": 3.0}
    for key, value in changed.items():
        other = disc.element_residuals(slice(None), u, Scheme(kind=kind, **{key: value}))
        if key in Scheme.PARAMS[kind]:
            assert np.abs(other - phi).max() > 1e-8, key
        else:
            assert np.array_equal(other, phi), key


def test_total_residual_linear_field():
    # u = x under advection a = (1, 0): the contour integral equals |K|
    disc = Discretization(ref_triangle(), Advection((1.0, 0.0)))
    u = disc.dofmap.dof_coords[:, :1].copy()
    assert abs(disc.total_residual(0, u)[0] - 0.5) < 1e-14


def test_rusanov_alpha_reference_value():
    disc = Discretization(ref_triangle(), Advection((1.0, 0.0)))
    u = np.zeros((3, 1))
    assert abs(disc.rusanov_alpha([0], u)[0] - 0.5) < 1e-13


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
            phi = disc.element_residuals([e], u, Scheme(kind=kind))[0]
            total = disc.total_residual(e, u)
            assert np.abs(phi.sum(axis=0) - total).max() < 1e-13


def test_jump_needs_2d():
    mesh = msh.build_interval_mesh(4)
    disc = Discretization(mesh, Burgers(dim=1))
    with pytest.raises(UnsupportedFeatureError):
        disc.element_residuals([0], np.zeros((5, 1)), Scheme(kind="jump"))


def test_rusanov_coefficients_identity_and_sign():
    mesh = msh.build_structured_tri_mesh(3, 3)
    law = Advection((1.0, 0.5))
    disc = Discretization(mesh, law)
    u = np.zeros((disc.dofmap.n_dofs, 1))
    for e in range(3):
        c = rusanov_coefficients(disc, [e], u)[0]
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
        c = rusanov_coefficients(disc, [e], u)[0]
        ue = disc.element_values(e, u)[:, 0]
        phi_c = np.array(
            [np.sum(c[s] * (ue[s] - ue)) for s in range(3)]
        )
        phi = disc.element_residuals([e], u, Scheme(kind="rusanov"))[0, :, 0]
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
    face = next((e, lf) for e, lf in mesh.boundary_faces
                if np.array_equal(disc.fnormal[e, lf], [-1.0, 0.0]))
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
    for (e, lf), psi in zip(mesh.boundary_faces, rset.boundary, strict=True):
        dofs = msh.face_local_dofs(mesh, lf)
        gd = disc.dofmap.element_dofs[e]
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


@pytest.mark.parametrize("law", [Advection((1.0, 0.5)), Burgers(dim=2)], ids=["advection", "burgers"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_scalar_state_names_the_first_element(law, value):
    """A scalar law accepts every state, so a non-finite DOF is caught in its
    residuals: the first element whose residual reads it is named."""
    disc = Discretization(msh.build_structured_tri_mesh(4, 4), law)
    dofs = disc.dofmap.element_dofs
    u = np.random.default_rng(9).uniform(0.2, 1.0, (disc.dofmap.n_dofs, 1))
    dof = 12
    u[dof] = value
    for kind in ALL_KINDS:
        reads = (dofs == dof).any(axis=1)
        if kind.endswith("jump"):                 # the jump term reads the neighbours
            across = disc.nbr[reads]
            reads[across[across >= 0] // 3] = True
        element = int(np.flatnonzero(reads)[0])
        # inf - inf warns on the way to the NaN residual
        with pytest.raises(StepFailureError, match=f"non-finite residual in element {element}$"), \
                np.errstate(invalid="ignore"):
            disc.residual_set(u, Scheme(kind=kind), 0.0)


def test_limited_scheme_is_a_convex_split_of_the_total():
    mesh = msh.build_structured_tri_mesh(2, 2)
    disc = Discretization(mesh, Burgers(dim=2))
    rng = np.random.default_rng(4)
    u = rng.uniform(0.1, 1.0, size=(disc.dofmap.n_dofs, 1))
    for e in range(mesh.n_elements):
        phi = disc.element_residuals([e], u, Scheme(kind="limited"))[0]
        total = disc.total_residual(e, u)
        if abs(total[0]) > 1e-10:
            beta = phi[:, 0] / total[0]
            assert np.all(beta >= -1e-13)
            assert abs(beta.sum() - 1.0) < 1e-12


def test_coefficient_extraction_is_scalar_only():
    mesh = msh.build_structured_tri_mesh(1, 1)
    disc = Discretization(mesh, Euler(gamma=1.4, dim=2))
    with pytest.raises(UnsupportedFeatureError):
        rusanov_coefficients(disc, [0], np.zeros((disc.dofmap.n_dofs, 4)))


def test_specnorm():
    assert rd_core._specnorm(np.array([[-3.0]])) == 3.0
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert abs(rd_core._specnorm(a) - 1.0) < 1e-14


def full_max_specnorm(a):
    """Every block decomposed (1x1 blocks: their absolute value), as
    ``rusanov_alpha`` computed it before pruning, (k,)."""
    if a.shape[-2:] == (1, 1):
        return np.abs(a[..., 0, 0]).max(axis=(1, 2))
    return np.linalg.norm(a, 2, axis=(-2, -1)).max(axis=(1, 2))


def one_line_blocks(rng, shape, m, axis):
    """Blocks with one nonzero column (axis=-1) or row (axis=-2)."""
    a = np.zeros(shape + (m, m))
    line = rng.integers(0, m, size=shape)
    vals = rng.standard_normal(shape + (m,))
    if axis == -1:
        np.put_along_axis(a, np.broadcast_to(line[..., None, None], shape + (m, 1)),
                          vals[..., None], axis=-1)
    else:
        np.put_along_axis(a, np.broadcast_to(line[..., None, None], shape + (1, m)),
                          vals[..., None, :], axis=-2)
    return a


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_pruned_spectral_maximum_equals_the_full_maximum(m):
    """Bit for bit on seeded batches (k, #K, #K, m, m): dense, single-column
    and single-row blocks, all-zero blocks and elements, exact ties between
    blocks whose entries are summed in different orders, and near-ties."""
    rng = np.random.default_rng(100 + m)
    k, n = 300, 6
    dense = rng.standard_normal((k, n, n, m, m)) * rng.uniform(0.1, 10.0, (k, n, n, 1, 1))
    cols = one_line_blocks(rng, (k, n, n), m, -1)
    rows = one_line_blocks(rng, (k, n, n), m, -2)
    mixed = np.where(rng.random((k, n, n, 1, 1)) < 0.5, cols, rows)
    zeros = dense * (rng.random((k, n, n, 1, 1)) < 0.2)
    zeros[::7] = 0.0
    # one row vector laid out, permuted, as the single column of another
    # block, and as a transposed copy of a dense block: equal norms
    ties = np.zeros((k, n, n, m, m))
    ties[:, 0, 0, 0, :] = rng.standard_normal((k, m))
    ties[:, 1, 2, :, 0] = ties[:, 0, 0, 0, rng.permutation(m)]
    ties[:, 3, 4] = rng.standard_normal((k, m, m))
    ties[:, 4, 3] = np.swapaxes(ties[:, 3, 4], -2, -1)
    ties[:, 5, 5] = ties[:, 0, 0]
    # a single-row and a single-column block whose norms differ by 1e-9
    # relative; scaled by 1e-158, their squares are subnormal
    near = np.zeros((k, n, n, m, m))
    x, y = rng.standard_normal((2, k, m))
    y *= (np.linalg.norm(x, axis=1) / np.linalg.norm(y, axis=1) * (1.0 - 1e-9))[:, None]
    near[:, 0, 0, 0, :] = x
    near[:, 1, 1, :, 0] = y
    for a in (dense, cols, rows, mixed, zeros, ties, near, 1e-158 * near):
        assert np.array_equal(rd_core._max_specnorm(a), full_max_specnorm(a))


def test_pruned_spectral_maximum_keeps_nan_blocks():
    """A NaN block is decomposed, and fails as the full decomposition does."""
    a = np.random.default_rng(8).standard_normal((3, 2, 2, 4, 4))
    a[1, 1, 0, 2, 3] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        full_max_specnorm(a)
    with pytest.raises(np.linalg.LinAlgError):
        rd_core._max_specnorm(a)


def test_rusanov_alpha_decomposes_only_candidate_blocks(monkeypatch):
    """On a P2 Euler state alpha is the full maximum, and fewer than a tenth
    of the 4x4 blocks need a singular value decomposition."""
    mesh = jittered_tri_mesh(3, 2, seed=6)
    disc = Discretization(mesh, Euler(gamma=1.4, dim=2))
    rng = np.random.default_rng(6)
    w = np.array([1.0, 0.5, 0.25, 1.0]) + rng.uniform(-0.2, 0.2, (disc.dofmap.n_dofs, 4))
    u = conserved_from_primitive(w)
    a = disc._rusanov_matrix(slice(None), u)
    decomposed = []
    specnorm = rd_core._specnorm

    def counting(blocks):
        decomposed.append(len(blocks))
        return specnorm(blocks)

    monkeypatch.setattr(rd_core, "_specnorm", counting)
    alpha = disc.rusanov_alpha(slice(None), u)
    assert np.array_equal(alpha, disc.nloc * full_max_specnorm(a))
    assert sum(decomposed) < 0.1 * a[..., 0, 0].size


@pytest.mark.parametrize("dim,degree", [(1, 1), (2, 1), (2, 2)])
def test_discretization_tables_are_c_contiguous(dim, degree):
    """Per-element tables keep the element axis outermost in memory."""
    if dim == 1:
        mesh = msh.build_interval_mesh(6)
    else:
        mesh = jittered_tri_mesh(3, degree, seed=2)
    disc = Discretization(mesh, Euler(gamma=1.4, dim=dim))
    disc.element_mass                                     # built on first use
    tables = {k: v for k, v in vars(disc).items()
              if isinstance(v, np.ndarray) and v.ndim > 1}
    assert {"snormal", "fnormal", "fw", "bw", "bgrad", "vgrad", "element_mass"} <= set(tables)
    assert [k for k, v in tables.items() if not v.flags.c_contiguous] == []
