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


@pytest.mark.parametrize("psi", [[[0.5], [np.nan], [-0.3]], [[np.inf], [-0.2], [-0.3]],
                                 [[np.inf], [-np.inf], [0.0]]], ids=["nan", "inf", "inf-inf"])
def test_non_finite_residuals_raise(psi):
    """A NaN or infinite residual has no defect within any tolerance."""
    system = fr.build_incidence(msh.reference_graph(2, 1))
    batch = np.zeros((3, 3, 1))
    batch[2] = psi
    for residuals, element in ((psi, 0), (batch, 2)):
        # inf - inf warns on the way to the NaN defect
        with pytest.raises(ConservationDefectError, match=f"element {element} ") as err, \
                np.errstate(invalid="ignore"):
            fr.recover_fluxes(system, residuals)
        assert err.value.element == element


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
    """Connectivity is tested exactly, by reachability from node 0: two
    components, an isolated node and a graph of no edge raise.  A connected
    graph given with reversed and duplicated edges builds, and certifies."""
    for graph in (ElementGraph(n_nodes=4, edges=((0, 1), (2, 3))),
                  ElementGraph(n_nodes=4, edges=((0, 1), (1, 2), (2, 0))),
                  ElementGraph(n_nodes=3, edges=())):
        with pytest.raises(InvalidGraphError):
            fr.build_incidence(graph)
    system = fr.build_incidence(ElementGraph(n_nodes=4,
                                             edges=((1, 0), (2, 1), (1, 2), (3, 2), (1, 0))))
    psi = np.array([[0.5], [-0.2], [-0.4], [0.1]])
    assert fr.certify(system, fr.recover_fluxes(system, psi), psi).passed


def test_p2_laplacian_rank():
    system = fr.build_incidence(msh.reference_graph(2, 2))
    L = system.A @ system.A.T
    assert np.linalg.matrix_rank(L) == 5
    assert np.allclose(L @ np.ones(6), 0.0, atol=1e-13)
    # Linv is the pseudo-inverse on the zero-mean subspace
    P = np.eye(6) - np.ones((6, 6)) / 6.0
    assert np.allclose(system.Linv @ L, P, atol=1e-12)


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
    """And infinite ones: no tolerance scaled by 1 + max|psi| admits them."""
    system = fr.build_incidence(msh.reference_graph(2, 1))
    for value in (np.nan, np.inf):
        psi = np.array([[0.5], [-0.2], [-0.3]])
        fluxes = fr.recover_fluxes(system, psi)
        {"psi": psi, "fluxes": fluxes}[where][1, 0] = value
        with np.errstate(invalid="ignore"):             # 0 * inf in A @ fluxes
            assert not fr.certify(system, fluxes, psi).passed


@pytest.mark.parametrize("m", [1, 4])
def test_empty_batch(m):
    """A batch of no elements recovers no fluxes and certifies with defects 0."""
    system = fr.build_incidence(msh.reference_graph(2, 2))
    psi = np.zeros((0, 6, m))
    fluxes = fr.recover_fluxes(system, psi)
    assert fluxes.shape == (0, system.A.shape[1], m)
    report = fr.certify(system, fluxes, psi)
    assert (report.balance_defect, report.compat_defect, report.passed) == (0.0, 0.0, True)


def scaled_rule(system, fluxes, psi):
    """(certify passes, recover_fluxes accepts) by the per-element rule of
    their docstrings: each defect within its tolerance times 1 + max|psi|."""
    scale = 1.0 + np.abs(psi).max(axis=-2)
    balance = np.abs(system.A @ fluxes - psi).max(axis=-2)
    compat = np.abs(psi.sum(axis=-2))
    accepts = bool(np.all(compat <= fr.COMPAT_TOL * scale))
    return accepts and bool(np.all(balance <= fr.BALANCE_TOL * scale)), accepts


def test_unscaled_check_gives_the_scaled_verdict():
    """Balance and compatibility defects just under and just over the
    unscaled and the scaled tolerance, on zero-sum residuals of magnitude
    1e-3 to 1e5: certify passes and recover_fluxes accepts exactly when the
    scaled rule does, element by element and as one batch."""
    system = fr.build_incidence(msh.reference_graph(2, 2))
    rng = np.random.default_rng(32)
    cases = []
    for size in (1e-3, 1.0, 1e2, 1e5):
        base = size * rng.uniform(-1.0, 1.0, (6, 1))
        base -= base.mean()
        scale = 1.0 + np.abs(base).max()
        for tol, where in ((fr.BALANCE_TOL, "fluxes"), (fr.COMPAT_TOL, "psi")):
            for level in (tol, tol * scale):
                for factor in (0.9, 1.1):
                    psi = base.copy()
                    fluxes = system.A.T @ (system.Linv @ psi)
                    {"fluxes": fluxes, "psi": psi}[where][0, 0] += factor * level
                    cases.append((fluxes, psi))
    verdicts = set()
    for fluxes, psi in cases + [tuple(np.stack(arrays) for arrays in zip(*cases))]:
        passes, accepts = scaled_rule(system, fluxes, psi)
        report = fr.certify(system, fluxes, psi)
        assert report.passed == passes
        try:
            fr.recover_fluxes(system, psi)
        except ConservationDefectError:
            assert not accepts
        else:
            assert accepts
        verdicts.add((passes, accepts, report.balance_defect > fr.BALANCE_TOL
                      or report.compat_defect > fr.COMPAT_TOL))
    # passes by the unscaled check, by the scale alone, and fails both ways
    assert {(True, True, False), (True, True, True), (False, True, True),
            (False, False, True)} <= verdicts


def two_step_fluxes(system, psi):
    """Reference recovery: the product with the strided view A.T."""
    return system.A.T @ (system.Linv @ psi)


def two_step_report(system, fluxes, psi):
    """Reference certificate: per-element maxima of each defect, then their
    maximum from 0.0, and the scaled rule where one exceeds its tolerance."""
    balance = np.abs(system.A @ fluxes - psi).max(axis=-2)
    compat = np.abs(psi.sum(axis=-2))
    worst = float(balance.max(initial=0.0)), float(compat.max(initial=0.0))
    passed = worst[0] <= fr.BALANCE_TOL and worst[1] <= fr.COMPAT_TOL
    if not passed:
        scale = 1.0 + np.abs(psi).max(axis=-2)
        passed = bool((np.isfinite(balance) & np.isfinite(compat)
                       & (balance <= fr.BALANCE_TOL * scale)
                       & (compat <= fr.COMPAT_TOL * scale)).all())
    return worst, passed


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("m", [1, 4])
def test_recovery_and_certificate_keep_the_two_step_bits(degree, m):
    """recover_fluxes and certify give the bits of the formulas above on the
    reference graph: one element (also 1-D for m = 1), batches of 1, 5 and 0
    elements, and the certificate of NaN, infinite and perturbed entries."""
    system = fr.build_incidence(msh.reference_graph(2, degree))
    n = system.A.shape[0]
    rng = np.random.default_rng(40 + m + degree)
    for shape in [(n, m), (1, n, m), (5, n, m), (0, n, m)] + [(n,)] * (m == 1):
        # zero-sum residuals, each element at its own magnitude from 1e-3 to 1e5
        size = 10.0 ** rng.uniform(-3.0, 5.0, shape[:-2] + (1,) * min(len(shape), 2))
        psi = size * rng.normal(size=shape)
        psi -= psi.mean(axis=-2 if len(shape) > 1 else 0, keepdims=True)
        cols = psi if len(shape) > 1 else psi[:, None]
        fluxes = fr.recover_fluxes(system, psi)
        want = two_step_fluxes(system, cols)
        assert fluxes.shape == want.shape and fluxes.tobytes() == want.tobytes(), shape
        for where, value in [(None, 0.0), ("fluxes", np.nan), ("psi", np.nan), ("fluxes", np.inf),
                             ("psi", -np.inf), ("fluxes", 1e-3), ("psi", 1e-8)]:
            f, p = fluxes.copy(), cols.copy()
            if where is not None:
                {"fluxes": f, "psi": p}[where].reshape(-1, m)[-1:, -1] += value
            with np.errstate(invalid="ignore"):             # 0 * inf in A @ fluxes
                report = fr.certify(system, *((f, p) if len(shape) > 1 else (f[:, 0], p[:, 0])))
                worst, passed = two_step_report(system, f, p)
            got = np.array([report.balance_defect, report.compat_defect])
            assert got.tobytes() == np.array(worst).tobytes(), (shape, where)
            assert report.passed is passed, (shape, where)


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
        normals = fr.recover_fluxes(system, fr.trace_normal_weights(mesh, e))
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
        back = system.A @ fluxes + fb
        assert np.abs(back - phi).max() < 1e-12


def test_boundary_dof_flux_1d():
    mesh = msh.build_interval_mesh(4, 0.0, 1.0)
    disc = Discretization(mesh, Burgers(dim=1))
    u = np.full((disc.dofmap.n_dofs, 1), 2.0)
    fb = fr.boundary_dof_flux(disc, 0, u)
    assert np.allclose(fb[:, 0], [-2.0, 2.0])


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
    one element each, for index arrays and slices."""
    disc, system, u = euler_problem
    ne = disc.mesh.n_elements
    phi = disc.residual_set(u, Scheme(kind=kind)).phi
    fb = np.array([fr.boundary_dof_flux(disc, e, u) for e in range(ne)])
    psi = phi - fb
    fluxes = np.array([fr.recover_fluxes(system, psi[e]) for e in range(ne)])
    for e in (slice(None), np.arange(ne)[::-1], np.array([4, 1, 4])):
        assert np.array_equal(fr.boundary_dof_flux(disc, e, u), fb[e])
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
    """An integer element gives the bits of that row of the batched call, for
    each query that reads the state memo, whether the batch or the rows come
    first on a fresh discretization."""
    queries = {"total_residual": Discretization.total_residual,
               "boundary_dof_flux": fr.boundary_dof_flux,
               "rusanov_alpha": Discretization.rusanov_alpha}
    for name, query in queries.items():
        for batch_first in (True, False):
            disc, u = _row_problem(law_name, mesh_name)
            ne = disc.mesh.n_elements
            if batch_first:
                batch = query(disc, slice(None), u)
            rows = [query(disc, e, u) for e in range(ne)]
            if not batch_first:
                batch = query(disc, slice(None), u)
            assert len(batch) == ne
            for e in range(ne):
                assert np.array_equal(rows[e], batch[e]), (name, batch_first, e)


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
