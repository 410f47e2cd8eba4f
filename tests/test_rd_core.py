import copy
import functools
import gc
import weakref

import numpy as np
import pytest

from rdlab import flux_recovery as fr
from rdlab import mesh as msh
from rdlab import rd_core
from rdlab import time_dec as td
from rdlab.conslaw import (Advection, Burgers, CubicTransport, Euler, conserved_from_primitive,
                           make_law)
from rdlab.errors import InadmissibleStateError, StepFailureError, UnsupportedFeatureError
from rdlab.rd_core import (
    Discretization,
    Scheme,
    State,
    blend_limiter,
    monotone_dt,
    rusanov_coefficients,
)
from _oracles import oracle_blend_limiter
from test_batched_equivalence import (
    assert_close,
    jittered_interval_mesh,
    jittered_tri_mesh,
    random_state,
    read_back,
)
from test_mesh import ref_triangle

ALL_KINDS = Scheme.KINDS


@pytest.mark.parametrize("mesh, law, message", [
    (msh.build_interval_mesh(4), Advection((1.0, 0.5)), "a 2-D advection law on a 1-D mesh"),
    (msh.build_structured_tri_mesh(2, 2, ((0.0, 0.0), (1.0, 1.0))), CubicTransport(),
     "a 1-D cubic law on a 2-D mesh"),
], ids=["interval", "triangle"])
def test_discretization_refuses_a_law_of_another_dimension(mesh, law, message):
    with pytest.raises(ValueError, match=message):
        Discretization(mesh, law)


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
    or that jittered mesh written as text and built by hand from the files."""
    if name == "structured":
        return msh.build_structured_tri_mesh(2, 2, degree=degree)
    mesh = jittered_tri_mesh(3, degree, seed=3)
    if name == "text":
        mesh = read_back(mesh, tmp_path)
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


@pytest.mark.parametrize("periodic", [False, True])
def test_interval_tables_are_the_end_point_rules(periodic):
    """An interval is the 1-simplex: gradients +-1/h, two Gauss points, and
    each end point a face of one point with weight 1."""
    mesh = msh.build_interval_mesh(6, -1.0, 2.0, periodic=periodic)
    mesh.vertices[1:-1, 0] += np.array([0.1, -0.05, 0.08, -0.1, 0.02][:len(mesh.vertices) - 2])
    x = mesh.vertices[:, 0]
    h = np.diff(np.append(x, x[0] + mesh.period) if periodic else x)
    disc = Discretization(mesh, Burgers(dim=1))
    bgrad = np.stack([-1.0 / h, 1.0 / h], axis=-1)[..., None]
    t, w = msh.gauss_01(2)
    ends, ones = np.eye(2)[:, None, :], np.ones((len(h), 2, 1))
    expect = dict(bgrad=bgrad, vgrad=np.repeat(bgrad[:, None], len(t), axis=1), vq_w=w,
                  vq_phi=msh.edge_points([(0, 1)], t, 2)[0], fw=ones, bw=ones, flam=ends, blam=ends,
                  fphi=ends, bphi=ends)
    for name, table in expect.items():
        got = getattr(disc, name)
        assert got.shape == table.shape and np.array_equal(got, table), name


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


def test_monotone_dt_without_a_positive_budget_is_unbounded():
    disc = Discretization(msh.build_structured_tri_mesh(3, 3), Advection((0.0, 0.0)))
    u = np.zeros((disc.dofmap.n_dofs, 1))
    assert monotone_dt(disc, u, np.ones(disc.dofmap.n_dofs)) == np.inf


def test_blend_limiter_example():
    phi = np.array([[3.0], [-1.0], [2.0]])
    beta, limited = blend_limiter(phi)
    assert np.allclose(beta[:, 0], [0.6, 0.0, 0.4])
    assert np.allclose(limited.sum(axis=0), phi.sum(axis=0))
    assert np.allclose(limited[:, 0], [2.4, 0.0, 1.6])


def test_blend_limiter_zero_total():
    phi = np.array([[1.0], [-1.0], [0.0]])
    beta, limited = blend_limiter(phi)
    assert np.allclose(beta[:, 0], 1.0 / 3.0)
    assert np.allclose(limited, 0.0)


def test_blend_limiter_default_total_is_the_sum():
    rng = np.random.default_rng(3)
    phi = rng.standard_normal((50, 6, 4))
    phi[:5] -= phi[:5].mean(axis=1, keepdims=True)     # totals at round-off: the zero branch
    beta, limited = blend_limiter(phi)
    for e in range(len(phi)):
        want_beta, want = oracle_blend_limiter(phi[e], phi[e].sum(axis=0))
        assert np.array_equal(beta[e], want_beta)
        assert np.array_equal(limited[e], want)


@pytest.mark.parametrize("m", [1, 4])
@pytest.mark.parametrize("nloc", [2, 3, 6])
def test_blend_limiter_matches_the_oracle_bit_for_bit(nloc, m):
    """Each #K of an interval, a P1 and a P2 triangle, for a scalar law and a
    system, with totals at round-off, exactly 0 and summed from -0.0 only, and
    rows where a single ratio survives the clip: every element's beta and
    limited split are the oracle's floats, signed zeros included."""
    rng = np.random.default_rng(10 * nloc + m)
    phi = rng.standard_normal((40, nloc, m)) * np.exp(rng.uniform(-20.0, 20.0, (40, 1, m)))
    phi[:5] -= phi[:5].mean(axis=1, keepdims=True)     # totals at round-off
    phi[5] = 0.0
    phi[5, 0], phi[5, 1] = 1.0, -1.0                    # a total of exactly 0
    phi[6] = -0.0
    one = slice(7, 17)                                  # one ratio of each sign of total
    phi[one] = -np.abs(phi[one])
    phi[one, 0] = 1.5 * np.abs(phi[one]).sum(axis=1)
    phi[12:17] *= -1.0
    ratios = phi[one] / phi[one].sum(axis=1, keepdims=True)
    assert np.array_equal((ratios > 0.0).sum(axis=1), np.ones((10, m)))
    beta, limited = blend_limiter(phi)
    for e in range(len(phi)):
        want_beta, want = oracle_blend_limiter(phi[e], phi[e].sum(axis=0))
        assert beta[e].tobytes() == want_beta.tobytes()
        assert limited[e].tobytes() == want.tobytes()


@pytest.mark.parametrize("m", [1, 4])
@pytest.mark.parametrize("nloc", [2, 3, 6])
def test_blend_limiter_edge_inputs_match_the_oracle(nloc, m):
    """Inputs where the limiter's memory layout could show: whole elements of
    -0.0, signed zeros beside a nonzero total, totals at round-off from pairs of
    +-1e-20, subnormals, +-inf, and the batch given one element (#K, m) at a
    time and with two leading axes (k1, k2, #K, m).  Every float is the
    oracle's to the byte, except that a NaN (from inf - inf) is only required
    to be a NaN: its sign may differ."""
    rng = np.random.default_rng(100 + 10 * nloc + m)
    phi = rng.standard_normal((10, nloc, m))
    phi[0] = -0.0
    phi[1] = 0.0
    phi[1, 0], phi[1, 1] = 1e-20, -1e-20                # a total at round-off
    phi[2] = 5e-324 * rng.integers(-3, 4, (nloc, m))    # subnormals only
    phi[3] = 1e-310 * rng.standard_normal((nloc, m))
    phi[3, 0] = 1.0                                     # subnormal ratios
    phi[4, 0] = np.inf
    phi[5, 0], phi[5, -1] = np.inf, -np.inf             # a NaN total
    phi[6, -1] = -np.inf
    phi[7, 1:] = np.abs(phi[7, 1:])
    phi[7, 0] = -0.0                                    # signed zeros beside a nonzero total
    phi[8] = -phi[7]
    with np.errstate(invalid="ignore"):
        want = [oracle_blend_limiter(p, p.sum(axis=0)) for p in phi]
        one = [blend_limiter(p) for p in phi]
        batch = blend_limiter(phi)
        lead = [a.reshape(phi.shape) for a in blend_limiter(phi.reshape(2, 5, nloc, m))]
    for e in range(len(phi)):
        for got in (one[e], [a[e] for a in batch], [a[e] for a in lead]):
            for a, b in zip(got, want[e]):
                assert a.shape == b.shape and np.array_equal(a, b, equal_nan=True), e
                assert a[~np.isnan(b)].tobytes() == b[~np.isnan(b)].tobytes(), e


@pytest.mark.parametrize("m", [1, 4])
@pytest.mark.parametrize("nloc", range(1, 8))
def test_numpy_sums_up_to_7_terms_in_order_from_zero(nloc, m):
    """``blend_limiter`` sums over #K with ``np.add.reduce`` along axis 0 of a
    contiguous (#K, ..., m) copy, from 0.0, and takes the round-off scale with
    numpy's axis-0 max; ``_rusanov_term`` takes numpy's mean over the #K axis.
    Each must add the rows in order from 0.0, as the oracle's per-element sums
    do (from 8 terms along a contiguous axis numpy adds pairwise).  A numpy that
    changes either order fails here, before the limited kinds' floats move;
    rdlab's #K is 2, 3 or 6."""
    rng = np.random.default_rng(nloc + 10 * m)
    a = rng.standard_normal((300, nloc, m)) * np.exp(rng.uniform(-30.0, 30.0, (300, nloc, m)))
    a[0] = -0.0
    ordered = np.zeros((300, 1, m))
    for s in range(nloc):
        ordered = ordered + a[:, s:s + 1]
    rows = np.moveaxis(a, -2, 0).copy()
    for got in (a.sum(axis=-2, keepdims=True), np.add.reduce(rows, axis=0, initial=0.0)):
        assert got.tobytes() == ordered.tobytes()
    assert a.mean(axis=-2, keepdims=True).tobytes() == (ordered / nloc).tobytes()
    if nloc > 2:                                        # the data tells the orders apart
        assert not np.array_equal(ordered[:, 0], a[:, ::-1].cumsum(axis=1)[:, -1])
    assert np.array_equal(np.abs(rows).max(axis=0, initial=0.0), np.abs(a).max(axis=-2))


@pytest.mark.parametrize("mesh, law", [
    (jittered_interval_mesh(7, False, 2), Burgers(dim=1)),
    (jittered_tri_mesh(3, 1, 5), Burgers(dim=2)),
    (jittered_tri_mesh(3, 2, 5), Euler(gamma=1.4, dim=2)),
], ids=["interval", "p1", "p2-euler"])
def test_rusanov_term_is_alpha_times_the_deviation_from_the_mean(mesh, law):
    """The Rusanov term is alpha * (u - mean u) of each element, to the bit; an
    element of -0.0 values has the mean +0.0 that numpy's sum from 0.0 gives."""
    disc = Discretization(mesh, law)
    u = random_state(law, disc.dofmap.dof_coords, seed=6)
    if law.m == 1:
        u[disc.dofmap.element_dofs[1]] = -0.0
    term = disc._rusanov_term(slice(None), u)
    alpha = disc.rusanov_alpha(slice(None), u)
    for e in range(mesh.n_elements):
        ue = u[disc.dofmap.element_dofs[e]]
        assert term[e].tobytes() == (alpha[e] * (ue - ue.mean(axis=0))).tobytes()


def test_upwind_flux_scalar():
    disc = Discretization(ref_triangle(), Advection((1.0, 0.0)))
    uh, ub = np.array([2.0]), np.array([5.0])
    # outflow: a.n > 0, interior state wins
    n = np.array([1.0, 0.0])
    out = disc.upwind_flux(uh, ub, n, np.einsum("dm,d->m", disc.law.flux(uh), n))
    assert abs(out[0] - 2.0) < 1e-14
    # inflow: a.n < 0, boundary state wins
    n = np.array([-1.0, 0.0])
    inn = disc.upwind_flux(uh, ub, n, np.einsum("dm,d->m", disc.law.flux(uh), n))
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


def test_non_finite_state_names_an_element_that_reads_it():
    """An infinite DOF is named through an element that owns it or shares a
    face with an owner, for every kind.  The DOF belongs to the last element,
    whose last face entry is what the index -1 of a boundary face reads, so a
    jump term that read it there would name element 0."""
    disc = Discretization(msh.build_structured_tri_mesh(3, 3), Burgers(dim=2))
    dofs = disc.dofmap.element_dofs
    u = np.random.default_rng(9).uniform(0.2, 1.0, (disc.dofmap.n_dofs, 1))
    dof = 15
    u[dof] = np.inf
    owners = np.flatnonzero((dofs == dof).any(axis=1))
    across = disc.nbr[owners]
    readers = set(owners) | set(across[across >= 0] // 3)
    assert disc.mesh.n_elements - 1 in owners and 0 not in readers
    for kind in ALL_KINDS:
        # inf - inf warns on the way to the NaN residual
        with pytest.raises(StepFailureError, match="non-finite residual") as err, \
                np.errstate(invalid="ignore"):
            disc.residual_set(u, Scheme(kind=kind))
        assert err.value.element in readers and err.value.element != 0, kind


@pytest.mark.parametrize("degree", [1, 2])
def test_gradient_jumps_are_zero_on_boundary_faces(degree):
    disc = Discretization(jittered_tri_mesh(3, degree, seed=4), Burgers(dim=2))
    u = random_state(disc.law, disc.dofmap.dof_coords, seed=27)
    jumps = disc.state(u).jumps
    boundary = disc.nbr < 0
    assert boundary.any() and (jumps[boundary] == 0.0).all()
    assert (jumps[~boundary] != 0.0).any()


def test_finite_residuals_whose_sum_overflows_are_not_refused(monkeypatch):
    """The finiteness check reads each residual, not a grand total of them."""
    disc = Discretization(msh.build_structured_tri_mesh(2, 2), Burgers(dim=2))
    phi = np.full((disc.mesh.n_elements, disc.nloc, 1), 1e308)
    with np.errstate(over="ignore"):
        assert not np.isfinite(phi.sum())
    monkeypatch.setattr(disc, "element_residuals", lambda e, u, scheme: phi)
    assert disc.residual_set(np.zeros((disc.dofmap.n_dofs, 1)), Scheme()).phi is phi


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
    a = disc.state(u).rusanov_matrix
    decomposed = []
    specnorm = rd_core._specnorm

    def counting(blocks):
        decomposed.append(len(blocks))
        return specnorm(blocks)

    monkeypatch.setattr(rd_core, "_specnorm", counting)
    alpha = disc.rusanov_alpha(slice(None), u)
    assert np.array_equal(alpha, disc.nloc * full_max_specnorm(a))
    assert sum(decomposed) < 0.1 * a[..., 0, 0].size


def advection_disc(name):
    """Advection on jittered P1 or P2 triangles, or on an interval."""
    if name == "interval":
        return Discretization(msh.build_interval_mesh(7), Advection((0.7,)))
    return Discretization(jittered_tri_mesh(3, int(name[1]), seed=4), Advection((0.8, -0.5)))


@pytest.mark.parametrize("name", ["p1", "p2", "interval"])
def test_linear_alpha_is_the_bound_on_any_state(name):
    """A linear law reads alpha from the read-only ``State`` table of the state, as
    every law does; it equals the bound evaluated on the state, bit for bit, for two
    states and for each kind of element selection.  A NaN state gives the bound of
    a detached zero ``State`` bit for bit, as ``linear_rusanov`` relies on: J.grad(phi)
    of a linear law reads no state."""
    disc = advection_disc(name)
    ne = disc.mesh.n_elements
    for u in np.random.default_rng(12).standard_normal((2, disc.dofmap.n_dofs, 1)):
        for e in (slice(1, None, 2), np.arange(ne)[::-1], [ne - 1, 0, 0], []):
            got = disc.rusanov_alpha(e, u)
            ref = disc.nloc * rd_core._max_specnorm(disc.state(u).rusanov_matrix[e])
            assert got.shape == ref.shape and np.array_equal(got, ref), e
    with pytest.raises(ValueError, match="read-only"):
        disc.rusanov_alpha(slice(None), u)[0] = 0.0
    zero = State(disc, np.zeros((disc.dofmap.n_dofs, 1))).alpha
    assert np.array_equal(disc.rusanov_alpha(slice(None), np.full_like(u, np.nan)), zero)


@pytest.mark.parametrize("name", ["p1", "p2", "interval"])
def test_linear_alpha_is_built_once(name, monkeypatch):
    """Five limited residual sets with boundary data evaluate the Rusanov
    matrix once and the law's flux once and ``jac_n`` twice: each builds one
    per-mesh table (flux: the Galerkin split; jac_n: the bound and the inflow weights)."""
    disc = advection_disc(name)
    u = np.random.default_rng(13).standard_normal((disc.dofmap.n_dofs, 1))
    calls = {"rusanov_matrix": 0, "flux": 0, "jac_n": 0}

    def count(owner, attr):
        method = getattr(owner, attr)

        def counting(*args):
            calls[attr] += 1
            return method(*args)
        monkeypatch.setattr(owner, attr, counting)

    builds = record_builds(monkeypatch, "rusanov_matrix")
    count(disc.law, "flux")
    count(disc.law, "jac_n")
    for _ in range(5):
        disc.residual_set(u, Scheme(kind="limited"), u_b=0.0)
    calls["rusanov_matrix"] = len(builds)
    assert calls == {"rusanov_matrix": 1, "flux": 1, "jac_n": 2}


@pytest.mark.parametrize("name", ["p1", "p2", "interval"])
def test_linear_march_builds_no_state(name, monkeypatch):
    """A linear law's march reads the per-mesh tables alone: once ``linear_rusanov``
    has built its detached zero ``State``, a limited CN march with boundary data
    builds none, and the Galerkin and Rusanov splits build none either."""
    disc = advection_disc(name)
    u = np.random.default_rng(29).standard_normal((disc.dofmap.n_dofs, 1))
    built, init = [], State.__init__
    monkeypatch.setattr(State, "__init__",
                        lambda state, *args: built.append(1) or init(state, *args))
    disc.linear_rusanov
    assert built == [1]
    td.dec_run(disc, u, 0.02, Scheme(kind="limited"), td.DecConfig("cn"), u_b=0.0)
    for kind in ("galerkin", "rusanov"):
        disc.residual_set(u, Scheme(kind=kind), u_b=0.0)
    assert built == [1]


def test_linear_alpha_keeps_the_state_memo(monkeypatch):
    """A linear law's ``rusanov_alpha`` reads the ``State`` of the state queried, so
    a query of the bound between two queries of a state does not evict that state."""
    disc = advection_disc("p2")
    u = np.random.default_rng(18).standard_normal((disc.dofmap.n_dofs, 1))
    calls = []
    flux = disc.law.flux
    monkeypatch.setattr(disc.law, "flux", lambda x: calls.append(1) or flux(x))
    disc.total_residual(slice(None), u)
    disc.rusanov_alpha(slice(None), u)
    disc.total_residual(0, u)
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["p1", "p2", "interval"])
def test_linear_tables_match_the_flux_path(name):
    """A linear law's Galerkin and Rusanov tables and its inflow operator give
    the residuals that the flux path computes for a copy of the law flagged
    nonlinear, within 1e-14 relative, for every kind (and a Rusanov override),
    element selection and boundary state, in direct boundary calls and in the
    residual set.  The tables are read-only, and nonlinear laws never build them."""
    disc = advection_disc(name)
    law = copy.copy(disc.law)
    law.linear = False
    flux_path = Discretization(disc.mesh, law)
    ne = disc.mesh.n_elements
    u = np.random.default_rng(18).standard_normal((disc.dofmap.n_dofs, 1))
    kinds = [k for k in ALL_KINDS if not (k.endswith("jump") and name == "interval")]

    def check(got, want):
        assert got.shape == want.shape
        if want.size:
            assert_close(got, want)

    schemes = [Scheme(kind) for kind in kinds] + [Scheme(kind="limited", alpha=0.3)]
    for scheme in schemes:
        for e in (slice(None), np.arange(ne)[::-1], [ne - 1, 0, 0], [], 2):
            check(disc.element_residuals(e, u, scheme), flux_path.element_residuals(e, u, scheme))
    for u_b in (0.4, lambda x: np.sin(3.0 * x[..., :1]) + x[..., -1:]):
        for face in [disc.mesh.faces.boundary] + list(zip(*disc.mesh.faces.boundary)):
            dofs, psi = disc.boundary_residuals(face, u, u_b)
            want_dofs, want = flux_path.boundary_residuals(face, u, u_b)
            assert np.array_equal(dofs, want_dofs)
            check(psi, want)
        for scheme in schemes:
            got, want = disc.residual_set(u, scheme, u_b), flux_path.residual_set(u, scheme, u_b)
            check(got.phi, want.phi)
            check(got.boundary, want.boundary)
    for table in (disc.linear_galerkin, disc.linear_rusanov, disc.linear_inflow):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0
    dim = disc.mesh.dim
    for law in (Burgers(dim=dim), Euler(gamma=1.4, dim=dim)):
        nonlinear = Discretization(disc.mesh, law)
        w = np.random.default_rng(19).uniform(0.8, 1.2, (nonlinear.dofmap.n_dofs, law.m))
        v = conserved_from_primitive(w) if law.m > 1 else w
        for kind in kinds:
            nonlinear.residual_set(v, Scheme(kind), u_b=v[0])
        assert not {"linear_galerkin", "linear_rusanov",
                    "linear_inflow"} & set(vars(nonlinear))


def test_only_linear_advection_is_flagged_linear():
    assert Advection((1.0, 0.0)).linear and Advection((0.5,)).linear
    for law in (Burgers(dim=1), Burgers(dim=2), CubicTransport(), Euler(dim=1), Euler(dim=2)):
        assert not law.linear, law.name


def test_nonlinear_alpha_reads_the_state():
    """Burgers' alpha is linear in u, so doubling the state doubles it exactly;
    a table that ignored the state would not, unless it were zero."""
    disc = Discretization(jittered_tri_mesh(3, 2, seed=4), Burgers(dim=2))
    u = np.random.default_rng(14).uniform(0.5, 2.0, (disc.dofmap.n_dofs, 1))
    alpha = disc.rusanov_alpha(slice(None), u)
    assert alpha.min() > 0.0
    assert np.array_equal(disc.rusanov_alpha(slice(None), 2.0 * u), 2.0 * alpha)


# the per-element queries that read rows of the whole-mesh ``State`` tables,
# each with the table whose build an inadmissible state fails
MEMO_QUERIES = {
    "total_residual": (Discretization.total_residual, "point_flux"),
    "boundary_dof_flux": (fr.boundary_dof_flux, "point_flux"),
    "galerkin_residuals": (Discretization.galerkin_residuals, "point_flux"),
    "rusanov_alpha": (Discretization.rusanov_alpha, "alpha"),
    # the volume Jacobians; with tau, and A.grad(u_h) contracted from the
    # Jacobians; the gradient jumps, zero on boundary faces, which read DOF
    # values alone, so no state is inadmissible to them
    "rusanov_matrix": (lambda disc, e, u: disc.state(u).rusanov_matrix[e], "jacobians"),
    "supg_term": (lambda disc, e, u: disc._supg_term(e, u, 2.0), "jacobians"),
    "jump_term": (lambda disc, e, u: disc._jump_term(e, u, 0.05), None),
}

# every whole-mesh table of a ``State``, found on the class
STATE_TABLES = [name for name, attr in vars(State).items()
                if isinstance(attr, functools.cached_property)]


def record_builds(monkeypatch, table):
    """The rows of each build of the ``State`` table ``table``, one entry per build."""
    build, builds = vars(State)[table].func, []

    def recording(state):
        rows = build(state)
        builds.append(len(rows))
        return rows

    prop = functools.cached_property(recording)
    prop.__set_name__(State, table)
    monkeypatch.setattr(State, table, prop)
    return builds


def euler_memo_problem(seed):
    """(disc, u): 2D Euler on jittered P2 triangles, a smooth admissible state."""
    disc = Discretization(jittered_tri_mesh(3, 2, seed=4), Euler(gamma=1.4, dim=2))
    w = np.array([1.0, 0.5, 0.25, 1.0]) + np.random.default_rng(seed).uniform(
        -0.2, 0.2, (disc.dofmap.n_dofs, 4))
    return disc, conserved_from_primitive(w)


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("name, reads", [("euler", {"flux": 1, "jac_n": 1}),
                                         ("burgers", {"flux": 1, "jac_n": 2})])
def test_one_state_reads_each_law_evaluation_once(name, reads, degree, monkeypatch):
    """Every kind and per-element query of one state evaluates the flux once
    and the volume Jacobians J(u_h).grad(phi_s) once; SUPG's A.grad(u_h) is
    their contraction with the DOF values.  Burgers' tau calls jac_n once
    more, for the wave speed at the element means; Euler's is closed form."""
    law = make_law(name, dim=2)
    calls = dict.fromkeys(reads, 0)
    for attr in calls:
        def counting(*args, method=getattr(law, attr), attr=attr):
            calls[attr] += 1
            return method(*args)
        monkeypatch.setattr(law, attr, counting)
    disc = Discretization(jittered_tri_mesh(3, degree, seed=4), law)
    u = random_state(law, disc.dofmap.dof_coords, seed=28)
    for kind in ALL_KINDS:
        disc.residual_set(u, Scheme(kind))
    for e in (0, [1, 2], slice(None)):
        for kind in ALL_KINDS:
            disc.element_residuals(e, u, Scheme(kind))
        disc.total_residual(e, u)
        fr.boundary_dof_flux(disc, e, u)
    assert calls == reads


def test_memo_reads_a_state_changed_in_place():
    """The memo is keyed on the state's bytes, not on the array object: a
    state changed in place after a call gives the new state's results, the
    bits of a fresh Discretization."""
    disc, u = euler_memo_problem(20)
    for name, (query, _) in MEMO_QUERIES.items():
        before = query(disc, slice(None), u)
        u[5] *= 1.1
        fresh = Discretization(disc.mesh, disc.law)
        for e in (slice(None), 7, [7, 2]):
            assert np.array_equal(query(disc, e, u), query(fresh, e, u)), (name, e)
        assert not np.array_equal(query(disc, slice(None), u), before), name


def test_memo_tells_minus_zero_from_zero(monkeypatch):
    """States that differ only in the sign of a zero have different bytes, so
    each fills its own memo entry; a repeated state does not."""
    disc = Discretization(jittered_tri_mesh(3, 2, seed=4), Burgers(dim=2))
    u = np.random.default_rng(21).uniform(0.5, 2.0, (disc.dofmap.n_dofs, 1))
    u[3] = 0.0
    v = u.copy()
    v[3] = -0.0
    calls = []
    flux = disc.law.flux
    monkeypatch.setattr(disc.law, "flux", lambda x: calls.append(x.shape) or flux(x))
    for state in (u, v, v, u):
        for query, _ in MEMO_QUERIES.values():
            query(disc, slice(None), state)
            query(disc, 2, state)
    assert len(calls) == 3


def test_memo_per_element_query_beside_an_inadmissible_element():
    """A state inadmissible in some elements has no whole-mesh table that reads
    the law: a query of any element, admissible or not, raises the error of
    that table's build.  The gradient jumps read DOF values alone and give a
    fresh Discretization's bits."""
    disc, u0 = euler_memo_problem(22)
    dofs = disc.dofmap.element_dofs
    u = u0.copy()
    u[dofs[4, 0], 0] = -1.0
    bad = np.flatnonzero((dofs == dofs[4, 0]).any(axis=1))
    good = np.setdiff1d(np.arange(disc.mesh.n_elements), bad)
    for name, (query, table) in MEMO_QUERIES.items():
        fresh = Discretization(disc.mesh, disc.law)
        if table is None:
            for e in (int(bad[-1]), slice(None)):
                assert np.array_equal(query(disc, e, u), query(fresh, e, u)), (name, e)
            continue
        with pytest.raises(InadmissibleStateError) as want:
            getattr(State(disc, u), table)
        for e in (int(good[0]), good[::-1], int(bad[-1]), slice(None)):
            with pytest.raises(InadmissibleStateError, match="density") as err:
                query(disc, e, u)
            assert str(err.value) == str(want.value), (name, e)


def test_memo_tries_an_inadmissible_whole_mesh_once(monkeypatch):
    """residual_set evaluates the flux of a state inadmissible somewhere once
    and names the element; a per-element total of that state raises too,
    each query one whole-mesh attempt, as no table of it is kept."""
    mesh = msh.build_structured_tri_mesh(3, 3, ((0.0, 0.0), (1.0, 1.0)), degree=2)
    calls = []

    def counted():
        disc = Discretization(mesh, Euler(gamma=1.4, dim=2))
        flux = disc.law.flux
        monkeypatch.setattr(disc.law, "flux", lambda x: calls.append(x.shape[:-2]) or flux(x))
        return disc

    disc = counted()
    u = conserved_from_primitive(np.tile([1.0, 0.5, 0.25, 1.0], (disc.dofmap.n_dofs, 1)))
    u[5, 0] = -5.0
    with pytest.raises(StepFailureError, match="inadmissible state") as err:
        disc.residual_set(u, Scheme(kind="rusanov"))
    assert calls == [(18,)]                  # the element axes of each evaluation
    assert (disc.dofmap.element_dofs[err.value.element] == 5).any()
    calls.clear()
    disc = counted()
    for e in range(18):
        with pytest.raises(InadmissibleStateError, match="density"):
            disc.total_residual(e, u)
    assert calls == [(18,)] * 18


def test_memo_tables_are_read_only():
    """A whole-mesh query may return a view of a ``State`` table, so writing
    into any table raises instead of changing what later queries of the state
    read."""
    disc, u = euler_memo_problem(23)
    assert {"point_flux", "face_flux", "alpha", "jumps"} <= set(STATE_TABLES)
    tables = [getattr(disc.state(u), name) for name in STATE_TABLES]
    for table in tables + [disc.rusanov_alpha(slice(None), u), disc.total_residual(slice(None), u),
                           fr.boundary_dof_flux(disc, slice(None), u)]:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0
    fresh = Discretization(disc.mesh, disc.law)
    assert np.array_equal(disc.rusanov_alpha(slice(None), u), fresh.rusanov_alpha(slice(None), u))


def test_supg_builds_one_a_grad_u_table_per_state(monkeypatch):
    """SUPG's A.grad(u_h) is one state-memo table: supg, limited_supg and the
    per-element SUPG queries of a state build it once, over every element,
    and each new state builds it once more."""
    disc, u = euler_memo_problem(25)
    builds = record_builds(monkeypatch, "adu")
    v = u.copy()
    v[5] *= 1.1
    for count, state in enumerate((u, v, u), start=1):
        for kind in ("supg", "limited_supg"):
            disc.residual_set(state, Scheme(kind=kind))
            for e in (slice(None), 7, [7, 2]):
                disc.element_residuals(e, state, Scheme(kind=kind, tau_scale=0.5))
        assert builds == [disc.mesh.n_elements] * count


def test_a_discretization_with_a_state_is_freed_without_a_collection():
    """A ``State`` refers to its Discretization weakly, so dropping a
    Discretization that keeps its last State frees it at once, not at a later
    cyclic collection: repeated set-ups do not pile up their tables."""
    disc, u = euler_memo_problem(27)
    disc.total_residual(slice(None), u)
    ref = weakref.ref(disc)
    gc.disable()
    try:
        del disc
        assert ref() is None
    finally:
        gc.enable()


def test_state_tables_read_the_state_at_construction():
    """A ``State`` copies its element values when it is made, so a table first
    read after the caller changes its state in place is the old state's."""
    disc, u = euler_memo_problem(26)
    state, want = State(disc, u), State(disc, u.copy())
    u[5] *= 1.1
    for name in STATE_TABLES:
        assert np.array_equal(getattr(state, name), getattr(want, name)), name


def test_scheme_parameters_survive_the_memo():
    """tau_scale and theta_e are applied to the memo's rows on every call:
    one Discretization gives a fresh one's bits for each value, batched and
    for one element, in either order of the calls."""
    disc, u = euler_memo_problem(24)
    schemes = [Scheme(kind=kind, **{key: value})
               for kind, key, values in (("supg", "tau_scale", (0.5, 2.0)),
                                         ("limited_supg", "tau_scale", (0.5, 2.0)),
                                         ("jump", "theta_e", (0.01, 0.05)),
                                         ("limited_jump", "theta_e", (0.01, 0.05)))
               for value in values]
    for order in (schemes, schemes[::-1]):
        for scheme in order:
            for e in (slice(None), 5):
                want = Discretization(disc.mesh, disc.law).element_residuals(e, u, scheme)
                assert np.array_equal(disc.element_residuals(e, u, scheme), want), (scheme, e)


@pytest.mark.parametrize("law", ["advection", "burgers", "euler"])
def test_rusanov_alpha_of_one_integer_element(law):
    """An integer element drops the element axis, as numpy indexing does."""
    mesh = jittered_tri_mesh(3, 2, seed=4)
    disc = Discretization(mesh, {"advection": Advection((0.8, -0.5)), "burgers": Burgers(dim=2),
                                 "euler": Euler(gamma=1.4, dim=2)}[law])
    w = np.random.default_rng(15).uniform(0.8, 1.2, (disc.dofmap.n_dofs, disc.m))
    u = conserved_from_primitive(w) if law == "euler" else w
    for e in (0, 7, mesh.n_elements - 1):
        got = disc.rusanov_alpha(e, u)
        assert np.shape(got) == () and got == disc.rusanov_alpha([e], u)[0], e


@pytest.mark.parametrize("kind, name", [(kind, name) for kind in ALL_KINDS
                                         for name in ("p1", "p2", "interval")
                                         if not (kind.endswith("jump") and name == "interval")])
def test_element_residuals_of_one_integer_element(kind, name):
    """An integer element drops the element axis for every kind, with the
    bits of the one-element batch, for a scalar law and a system."""
    scalar = advection_disc(name)
    euler = Discretization(scalar.mesh, Euler(gamma=1.4, dim=scalar.mesh.dim))
    rng = np.random.default_rng(16)
    for disc in (scalar, euler):
        w = rng.uniform(0.8, 1.2, (disc.dofmap.n_dofs, disc.m))
        u = conserved_from_primitive(w) if disc is euler else w
        for e in range(disc.mesh.n_elements):
            got = disc.element_residuals(e, u, Scheme(kind=kind))
            assert np.array_equal(got, disc.element_residuals([e], u, Scheme(kind=kind))[0]), e


@pytest.mark.parametrize("name", ["p1", "p2", "interval"])
def test_rusanov_coefficients_of_one_integer_element(name):
    disc = advection_disc(name)
    u = np.random.default_rng(17).uniform(0.8, 1.2, (disc.dofmap.n_dofs, 1))
    for alpha in (None, 0.9):
        for e in range(disc.mesh.n_elements):
            got = rusanov_coefficients(disc, e, u, alpha)
            assert np.array_equal(got, rusanov_coefficients(disc, [e], u, alpha)[0]), e


@pytest.mark.parametrize("dim,degree", [(1, 1), (2, 1), (2, 2)])
def test_discretization_tables_are_c_contiguous(dim, degree):
    """Per-element tables keep the element axis outermost in memory."""
    if dim == 1:
        mesh = msh.build_interval_mesh(6)
    else:
        mesh = jittered_tri_mesh(3, degree, seed=2)
    disc = Discretization(mesh, Euler(gamma=1.4, dim=dim))
    # the operator tables are built on first use, so set-up does not pay for them
    lazy = {"element_mass", "fphi_w", "vphi_w", "vgrad_w", "bphi_w", "ptrace", "gal_w",
            "_slots"}
    if dim == 2:                                          # the jump term's tables
        lazy |= {"fgrad", "fgrad_w"}
    assert not lazy & set(vars(disc))
    for name in lazy:
        getattr(disc, name)
    tables = {k: v for k, v in vars(disc).items()
              if isinstance(v, np.ndarray) and (v.ndim > 1 or k in lazy)}
    assert {"snormal", "fnormal", "fw", "bw", "bgrad", "vgrad", "ftrace"} | lazy <= set(tables)
    assert [k for k, v in tables.items() if not v.flags.c_contiguous] == []


def p1_advection_and_p2_euler():
    """A P1 advection and a P2 Euler discretization, each with a state."""
    mesh = msh.build_structured_tri_mesh(3, 3)
    disc = Discretization(mesh, Advection((1.0, 0.5)))
    yield disc, np.sin(3.0 * mesh.vertices[:, :1]) + 2.0
    mesh = jittered_tri_mesh(3, 2, seed=4)
    disc = Discretization(mesh, Euler(gamma=1.4, dim=2))
    x = disc.dofmap.dof_coords
    w = np.stack([1.0 + 0.1 * np.sin(3 * x[:, 0]), 0.5 + 0.1 * x[:, 1], 0.25 + 0.0 * x[:, 0],
                  1.0 + 0.1 * np.cos(2 * x[:, 1])], axis=-1)
    yield disc, conserved_from_primitive(w)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_empty_element_selection_gives_empty_residuals(kind):
    for disc, u in p1_advection_and_p2_euler():
        phi = disc.element_residuals(np.array([], dtype=int), u, Scheme(kind))
        assert phi.shape == (0, disc.nloc, disc.m)


def test_scatter_equals_add_at():
    """One bincount adds in the order of np.add.at over the element entries,
    then over the boundary entries, so the sums are bit-identical."""
    for disc, u in p1_advection_and_p2_euler():
        rset = disc.residual_set(u, Scheme("limited"), u_b=u[0])
        rng = np.random.default_rng(5)
        for phi, boundary in ((rset.phi, rset.boundary), (rset.phi, None),
                              (rng.standard_normal(rset.phi.shape),
                               rng.standard_normal(rset.boundary.shape))):
            want = np.zeros((disc.dofmap.n_dofs, disc.m))
            np.add.at(want, disc.dofmap.element_dofs, phi)
            if boundary is not None:
                np.add.at(want, disc.boundary_dofs, boundary)
            assert np.array_equal(disc.scatter(phi, boundary), want)
