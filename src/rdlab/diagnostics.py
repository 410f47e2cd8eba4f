"""Machine-checkable audits: conservation, Lipschitz bound, maximum principle,
entropy inequality, and convergence-order estimation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mesh as msh


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


def conservation_audit(disc, u, scheme, u_b=None, rset=None, tol=1e-12):
    """Largest gap between re-summed distributed residuals and stored totals."""
    if rset is None:
        rset = disc.residual_set(u, scheme, u_b)
    worst = 0.0
    where = None
    for e in range(rset.phi.shape[0]):
        d = float(np.abs(rset.phi[e].sum(axis=0) - rset.phi_total[e]).max())
        if d > worst:
            worst, where = d, ("element", e)
    for i, _, psi, psi_total in rset.boundary:
        d = float(np.abs(psi.sum(axis=0) - psi_total).max())
        if d > worst:
            worst, where = d, ("face", i)
    return AuditReport("conservation", worst, tol, where)


def lipschitz_audit(disc, scheme, bound_M=1.0, n_samples=10000, seed=0, tol=np.inf):
    """Empirical Lipschitz constant of the distribution: the largest ratio
    max_sigma |Phi_sigma| / sum |u_sigma - u_sigma'| over random element data.

    The tolerance defaults to infinity: the audit certifies finiteness and
    reports the constant; callers may assert a concrete bound.
    """
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
    return AuditReport("lipschitz", worst, tol, where)


def maximum_principle_audit(history, tol=1e-10):
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
    return AuditReport("maximum_principle", worst, tol, where)


def _face_average_trace(disc, e, lf, u, u_b=None):
    """Quadrature points, weights, normal, and the two-sided average state."""
    mesh = disc.mesh
    nq = mesh.degree + 1
    xq, w, n, lam = msh.face_geometry(mesh, e, lf, nq)
    tb = msh.tri_basis(mesh.degree, lam)
    u_in = tb @ disc.element_values(e, u)
    key = (e, lf)
    if key in disc._neighbors:
        e2, lf2 = disc._neighbors[key]
        # the neighbour runs the shared edge the other way round
        u_out = (disc.fphi[lf2] @ disc.element_values(e2, u))[::-1]
    elif u_b is not None:
        if callable(u_b):
            u_out = np.array([np.atleast_1d(u_b(x)) for x in xq])
        else:
            u_out = np.broadcast_to(np.atleast_1d(u_b), u_in.shape)
    else:
        u_out = u_in
    return w, n, 0.5 * (u_in + u_out)


def entropy_inequality_audit(disc, u, rset, u_b=None, tol=1e-12):
    """Per-element defect (entropy outflux minus entropy residual), clamped.

    The numerical entropy flux is the law's entropy flux at the face-average
    state; violations are counted where the clamped defect exceeds ``tol``.
    """
    law = disc.law
    mesh = disc.mesh
    worst = 0.0
    where = None
    count = 0
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.shape[0] != disc.dofmap.n_dofs:
        u = u.T
    for e in range(mesh.n_elements):
        ue = disc.element_values(e, u)
        v = law.entropy_var(ue)
        lhs = float(np.sum(v * rset.phi[e]))
        if mesh.dim == 1:
            outflux = 0.0
            for lf, sign in ((0, -1.0), (1, 1.0)):
                nbr = e - 1 if lf == 0 else e + 1
                if mesh.periodic:
                    nbr %= mesh.n_elements
                if 0 <= nbr < mesh.n_elements and nbr != e:
                    u2 = disc.element_values(nbr, u)[1 - lf]
                else:
                    u2 = ue[lf]
                avg = 0.5 * (ue[lf] + u2)
                g = law.entropy_flux(avg[None, :])[0]
                outflux += sign * float(g[0])
        else:
            outflux = 0.0
            for lf in range(3):
                w, n, uavg = _face_average_trace(disc, e, lf, u, u_b)
                g = law.entropy_flux(uavg)       # (nq, dim)
                outflux += float(w @ (g @ n))
        d = max(0.0, outflux - lhs)
        if d > tol:
            count += 1
        if d > worst:
            worst, where = d, ("element", e)
    report = AuditReport("entropy_inequality", worst, tol, where)
    report.extra = {"violations": count}
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
