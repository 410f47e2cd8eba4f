import numpy as np
import pytest

from rdlab import diagnostics as diag
from rdlab import flux_recovery as fr
from rdlab import mesh as msh
from rdlab.conslaw import Advection, Burgers
from rdlab.rd_core import Discretization, Scheme


def test_conservation_audit_passes_and_formats():
    mesh = msh.build_structured_tri_mesh(2, 2)
    disc = Discretization(mesh, Burgers(dim=2))
    rng = np.random.default_rng(0)
    u = rng.uniform(0.0, 1.0, size=(disc.dofmap.n_dofs, 1))
    rset = disc.residual_set(u, Scheme(kind="rusanov"))
    report = diag.conservation_audit(disc, u, rset)
    assert report.passed
    assert report.defect <= 1e-12
    line = report.line()
    assert line.startswith("PASS conservation:")


def test_conservation_audit_detects_tampering():
    mesh = msh.build_structured_tri_mesh(2, 2)
    disc = Discretization(mesh, Burgers(dim=2))
    u = np.full((disc.dofmap.n_dofs, 1), 0.7)
    rset = disc.residual_set(u, Scheme(kind="rusanov"))
    rset.phi[2, 0, 0] += 1e-3
    report = diag.conservation_audit(disc, u, rset)
    assert not report.passed
    assert report.worst_location == ("element", 2)
    assert "FAIL" in report.line()


def test_flux_form_audit_fails_a_nan_residual():
    mesh = msh.build_structured_tri_mesh(2, 2)
    disc = Discretization(mesh, Burgers(dim=2))
    u = np.full((disc.dofmap.n_dofs, 1), 0.7)
    rset = disc.residual_set(u, Scheme(kind="rusanov"))
    assert diag.flux_form_audit(disc, u, rset).passed
    rset.phi[3, 1, 0] = np.nan
    report = diag.flux_form_audit(disc, u, rset)
    assert not report.passed
    assert report.line().startswith("FAIL flux_form: defect=nan")


def test_flux_form_verdict_is_the_certificates():
    """On a Burgers state near 1e5 the balance defect is far above
    ``BALANCE_TOL``, yet within the per-element tolerance that ``certify``
    scales by 1 + max|psi|: the audit passes exactly when ``certify`` does."""
    disc = Discretization(msh.build_structured_tri_mesh(4, 4), Burgers(dim=2))
    u = 1e5 * np.random.default_rng(7).uniform(0.5, 1.0, (disc.dofmap.n_dofs, 1))
    rset = disc.residual_set(u, Scheme(kind="rusanov"), 0.0)
    psi = rset.phi - fr.boundary_dof_flux(disc, slice(None), u)
    system = fr.build_incidence(msh.element_graph(disc.mesh))
    cert = fr.certify(system, fr.recover_fluxes(system, psi), psi)
    assert cert.passed and cert.balance_defect > fr.BALANCE_TOL
    report = diag.flux_form_audit(disc, u, rset)
    assert report.defect == cert.balance_defect
    assert report.passed == cert.passed


def test_conservation_audit_checks_the_boundary_integral_total(monkeypatch):
    """A split shifted off its element's total FAILs even when it is
    self-consistent, i.e. re-summing it gives the totals stored with it."""
    mesh = msh.build_structured_tri_mesh(2, 2)
    disc = Discretization(mesh, Burgers(dim=2))
    u = np.random.default_rng(1).uniform(0.0, 1.0, size=(disc.dofmap.n_dofs, 1))
    exact = disc.element_residuals

    def shifted(e, u, scheme):
        phi = exact(e, u, scheme).copy()
        phi[5] += 1e-3
        return phi

    monkeypatch.setattr(disc, "element_residuals", shifted)
    report = diag.conservation_audit(disc, u, disc.residual_set(u, Scheme(kind="rusanov")))
    assert not report.passed
    assert report.worst_location == ("element", 5)
    total = disc.total_residual(5, u)
    assert report.defect == pytest.approx(3e-3 / (1.0 + abs(total[0])), rel=1e-9)


def test_maximum_principle_audit():
    history = [np.array([0.0, 1.0]), np.array([0.2, 0.9])]
    assert diag.maximum_principle_audit(history).defect == 0.0
    bad = [np.array([0.0, 1.0]), np.array([-0.5, 1.2])]
    report = diag.maximum_principle_audit(bad)
    assert abs(report.defect - 0.5) < 1e-14
    assert report.worst_location == ("step", 1)
    assert not report.passed


def test_maximum_principle_audit_fails_a_nan_state_at_its_step():
    good, nan = np.array([0.0, 1.0]), np.array([np.nan, 0.5])
    report = diag.maximum_principle_audit([good, np.array([-0.1, 1.0]), nan, good, nan])
    assert not report.passed
    assert report.worst_location == ("step", 2)
    assert report.line().startswith("FAIL maximum_principle: defect=nan")
    report = diag.maximum_principle_audit([np.full(2, np.nan), good])
    assert not report.passed and report.worst_location == ("step", 0)


def test_entropy_inequality_audit_rusanov_shock():
    mesh = msh.build_interval_mesh(40, periodic=True)
    disc = Discretization(mesh, Burgers(dim=1))
    x = disc.dofmap.dof_coords[:, 0]
    u = np.where((x > 0.25) & (x <= 0.75), 1.0, 0.0)[:, None]
    rset = disc.residual_set(u, Scheme(kind="rusanov"))
    report = diag.entropy_inequality_audit(disc, u, rset)
    assert report.extra["violations"] == 0
    assert report.passed


def test_entropy_inequality_audit_2d():
    mesh = msh.build_structured_tri_mesh(4, 4)
    disc = Discretization(mesh, Burgers(dim=2))
    x = disc.dofmap.dof_coords[:, 0]
    u = np.where(x < 0.5, 1.0, 0.0)[:, None]
    rset = disc.residual_set(u, Scheme(kind="rusanov"))
    report = diag.entropy_inequality_audit(disc, u, rset)
    assert report.extra["violations"] == 0


def test_entropy_audit_uses_the_boundary_state():
    """On u = 1 the boundary trace and the boundary state 0 differ, so the
    entropy audit with ``u_b = 0`` reads the boundary faces' face-average
    state, and without it their own trace."""
    disc = Discretization(msh.build_structured_tri_mesh(4, 4), Advection((1.0, 0.5)))
    u = np.ones((disc.dofmap.n_dofs, 1))
    rset = disc.residual_set(u, Scheme(kind="rusanov"), 0.0)
    with_state = diag.entropy_inequality_audit(disc, u, rset, 0.0)
    assert with_state.defect != diag.entropy_inequality_audit(disc, u, rset).defect


def test_convergence_order():
    h = np.array([0.1, 0.05, 0.025])
    errors = 3.0 * h**2
    assert abs(diag.convergence_order(errors, h) - 2.0) < 1e-12
    with pytest.raises(ValueError):
        diag.convergence_order([1e-3], [0.1])
    with pytest.raises(ValueError):
        diag.convergence_order([1e-3, 0.0], [0.1, 0.05])
