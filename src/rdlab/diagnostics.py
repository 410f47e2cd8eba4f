"""Machine-checkable audits: conservation, Lipschitz bound, maximum principle,
entropy inequality, and convergence-order estimation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CONSERVATION_TOL = 1e-12
MAXIMUM_PRINCIPLE_TOL = 1e-10
ENTROPY_TOL = 1e-12
# the Lipschitz audit certifies finiteness and reports the constant;
# callers may assert a concrete bound on the defect
LIPSCHITZ_TOL = np.inf


@dataclass
class AuditReport:
    name: str
    defect: float
    tolerance: float
    worst_location: object = None
    extra: dict = None

    @property
    def passed(self):
        return self.defect <= self.tolerance

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.name}: defect={self.defect:.6e} "
            f"tol={self.tolerance:.6e} at={self.worst_location}"
        )


def conservation_audit(disc, u, scheme, rset=None):
    """Largest relative gap between an element's distributed residuals and its
    total residual, the boundary integral of the flux (criterion 01's bound)."""
    if rset is None:
        rset = disc.residual_set(u, scheme)
    total = disc.total_residual(slice(None), u)
    defect = (np.abs(rset.phi.sum(axis=1) - total) / (1.0 + np.abs(total))).max(axis=1)
    e = int(np.argmax(defect))
    return AuditReport("conservation", float(defect[e]), CONSERVATION_TOL, ("element", e))


def lipschitz_audit(disc, scheme, bound_M=1.0, n_samples=10000, seed=0):
    """Empirical Lipschitz constant of the distribution: the largest ratio
    max_sigma |Phi_sigma| / sum |u_sigma - u_sigma'| over random element data."""
    rng = np.random.default_rng(seed)
    nloc, m = disc.nloc, disc.m
    worst = 0.0
    where = None
    for k in range(n_samples):
        e = int(rng.integers(disc.mesh.n_elements))
        ue = rng.uniform(-bound_M, bound_M, size=(nloc, m))
        u = np.zeros((disc.dofmap.n_dofs, m))
        u[disc.dofmap.element_dofs[e]] = ue
        phi = disc.element_residuals(e, u, scheme)
        denom = 0.0
        for i in range(nloc):
            for j in range(i + 1, nloc):
                denom += float(np.abs(ue[i] - ue[j]).sum())
        num = float(np.abs(phi).max())
        if denom < 1e-14:
            continue
        ratio = num / denom
        if ratio > worst:
            worst, where = ratio, ("sample", k)
    return AuditReport("lipschitz", worst, LIPSCHITZ_TOL, where)


def maximum_principle_audit(history):
    """Overshoot of a scalar run history beyond the initial data range."""
    u0 = np.asarray(history[0], dtype=float)
    lo, hi = float(u0.min()), float(u0.max())
    worst = 0.0
    where = None
    for k, u in enumerate(history):
        u = np.asarray(u, dtype=float)
        d = max(float(u.max()) - hi, lo - float(u.min()), 0.0)
        if d > worst:
            worst, where = d, ("step", k)
    return AuditReport("maximum_principle", worst, MAXIMUM_PRINCIPLE_TOL, where)


def entropy_inequality_audit(disc, u, rset, u_b=None):
    """Per-element defect (entropy outflux minus entropy residual), clamped.

    The numerical entropy flux is the law's entropy flux at the face-average
    state: the average of the two traces on interior faces, and of the trace
    and ``u_b`` on boundary faces (``mesh.faces.boundary``), which keep their
    own trace when ``u_b`` is None.  ``u_b`` is a constant state (m,) or a
    callable taking positions (..., dim) to states (..., m), called once.
    Violations are counted where the clamped defect exceeds ``ENTROPY_TOL``.
    ``u`` is (ndof, m), or (ndof,) for one component.
    """
    law = disc.law
    u = np.asarray(u, dtype=float)
    u = u[:, None] if u.ndim == 1 else u
    ue = disc.element_values(slice(None), u)                      # (ne, #K, m)
    lhs = np.sum(law.entropy_var(ue) * rset.phi, axis=(1, 2))
    u_in = np.einsum("fqs,ksm->kfqm", disc.fphi, ue)              # (ne, nf, nfq, m)
    # the neighbour runs a shared face the other way round
    u_out = u_in.reshape((-1,) + u_in.shape[2:])[disc.nbr][:, :, ::-1]
    e, lf = disc.mesh.faces.boundary
    if u_b is None:
        u_out[e, lf] = u_in[e, lf]
    elif callable(u_b):
        u_out[e, lf] = u_b(disc.face_points(e, disc.flam[lf]))
    else:
        u_out[e, lf] = np.atleast_1d(u_b)
    g = law.entropy_flux(0.5 * (u_in + u_out))                    # (ne, nf, nfq, dim)
    outflux = np.einsum("kfq,kfqd,kfd->k", disc.fw, g, disc.fnormal)
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
