"""Machine-checkable audits: conservation, flux form, maximum principle,
entropy inequality, and convergence-order estimation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import flux_recovery as fr
from . import mesh as msh
from .errors import ConservationDefectError

CONSERVATION_TOL = 1e-12
MAXIMUM_PRINCIPLE_TOL = 1e-10
ENTROPY_TOL = 1e-12
SOD_BALANCE_TOL = 1e-10     # the Sod tube's worst momentum and energy balance defects


@dataclass
class AuditReport:
    name: str
    defect: float
    tolerance: float
    worst_location: object = None
    extra: dict = None
    passed: bool = None     # None: the defect is within the tolerance

    def __post_init__(self):
        if self.passed is None:
            self.passed = self.defect <= self.tolerance

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.name}: defect={self.defect:.6e} "
            f"tol={self.tolerance:.6e} at={self.worst_location}"
        )


def conservation_audit(disc, u, rset):
    """Largest relative gap between each element's split in ``rset``, a residual set
    of ``u``, and its total residual, the flux's boundary integral (criterion 01's bound)."""
    total = disc.total_residual(slice(None), u)
    defect = (np.abs(rset.phi.sum(axis=1) - total) / (1.0 + np.abs(total))).max(axis=1)
    e = int(np.argmax(defect))
    return AuditReport("conservation", float(defect[e]), CONSERVATION_TOL, ("element", e))


def flux_form_audit(disc, u, rset):
    """Certificate that the split in ``rset``, a residual set of ``u``, is a
    finite-volume scheme: the edge fluxes recovered on the element graph from
    phi minus the boundary DOF fluxes, checked by ``flux_recovery.certify``.
    Reports the worst balance defect against ``BALANCE_TOL`` and passes
    exactly when the certificate does, whose tolerances scale per element; a
    split off the boundary flux has no flux form and FAILs with defect inf,
    or NaN where the split is NaN."""
    system = fr.build_incidence(msh.element_graph(disc.mesh))
    psi = rset.phi - fr.boundary_dof_flux(disc, slice(None), u)
    try:
        fluxes = fr.recover_fluxes(system, psi)
    except ConservationDefectError as err:
        defect = np.nan if np.isnan(err.defect).any() else np.inf
        return AuditReport("flux_form", defect, fr.BALANCE_TOL, ("element", err.element))
    report = fr.certify(system, fluxes, psi)
    return AuditReport("flux_form", report.balance_defect, fr.BALANCE_TOL, passed=report.passed)


def maximum_principle_audit(history):
    """Overshoot of a scalar run history beyond the initial data range."""
    u0 = np.asarray(history[0], dtype=float)
    lo, hi = float(u0.min()), float(u0.max())
    worst = 0.0
    where = None
    for k, u in enumerate(history):
        u = np.asarray(u, dtype=float)
        d = max(float(u.max()) - hi, lo - float(u.min()), 0.0)
        if not d <= worst:              # d is NaN for a NaN state: FAIL there
            worst, where = d, ("step", k)
            if np.isnan(d):
                break
    return AuditReport("maximum_principle", worst, MAXIMUM_PRINCIPLE_TOL, where)


def entropy_inequality_audit(disc, u, rset, u_b=None):
    """Per-element defect (entropy outflux minus entropy residual), clamped.

    The numerical entropy flux is the law's entropy flux at the face-average
    state: the average of the two traces on interior faces, and of the trace
    and ``u_b`` on boundary faces (``mesh.faces.boundary``), which keep their
    own trace when ``u_b`` is None.  The neighbour's trace is read through
    ``Discretization.across`` and ``u_b`` through ``boundary_state``.
    Violations are counted where the clamped defect exceeds ``ENTROPY_TOL``.
    ``u`` is (ndof, m).
    """
    law = disc.law
    ue = disc.element_values(slice(None), u)                      # (ne, #K, m)
    lhs = np.sum(law.entropy_var(ue) * rset.phi, axis=(1, 2))
    u_in = disc.face_values(ue)                                   # (ne, nf, nfq, m)
    u_out = disc.across(u_in)
    e, lf = disc.mesh.faces.boundary
    u_out[e, lf] = u_in[e, lf] if u_b is None else disc.boundary_state(u_b, e, disc.flam[lf])
    g = law.entropy_flux(0.5 * (u_in + u_out))                    # (ne, nf, nfq, dim)
    gn = np.einsum("kfqd,kfd->kfq", g, disc.fnormal)[..., None]
    outflux = disc.contour(gn).sum(axis=(1, 2))                    # the basis sums to 1
    defect = np.maximum(0.0, outflux - lhs)
    e = int(np.argmax(defect))
    report = AuditReport("entropy_inequality", float(defect[e]), ENTROPY_TOL,
                         ("element", e) if defect[e] > 0.0 else None)
    report.extra = {"violations": int((defect > ENTROPY_TOL).sum())}
    return report


def convergence_order(errors, h):
    """Least-squares slope of log(error) against log(h)."""
    errors = np.asarray(errors, dtype=float)
    h = np.asarray(h, dtype=float)
    if errors.size < 2:
        raise ValueError("need at least two points")
    if np.any(errors <= 0.0) or np.any(h <= 0.0):
        raise ValueError("errors and mesh sizes must be positive")
    slope = np.polyfit(np.log(h), np.log(errors), 1)[0]
    return float(slope)
