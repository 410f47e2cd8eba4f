"""Turn distributed residuals into finite-volume fluxes on the DOF graph.

Given the oriented incidence matrix A of an element graph and per-DOF values
Psi_sigma summing to zero, the minimum-norm solution of A f = Psi is
f = A^T L^+ Psi with L = A A^T the graph Laplacian.  The pseudo-inverse is
computed once with the rank-one shift trick: on the orthogonal complement of
the constant vector,

    L^+ = (L + lambda x0 x0^T / |x0|^2)^(-1) - x0 x0^T / (lambda |x0|^2),

with x0 the all-ones vector and any lambda != 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mesh as msh
from .errors import ConservationDefectError, InvalidGraphError

COMPAT_TOL = 1e-10
CONNECTIVITY_TOL = 1e-10


@dataclass
class IncidenceSystem:
    A: np.ndarray       # (#nodes, #edges), +1 at the tail, -1 at the head
    L: np.ndarray       # graph Laplacian A A^T
    Linv: np.ndarray    # pseudo-inverse of L on the zero-mean subspace
    edges: tuple        # oriented (tail, head) pairs


@dataclass
class BalanceReport:
    balance_defect: float
    compat_defect: float
    antisymmetry_defect: float
    balance_tol: float
    compat_tol: float

    @property
    def passed(self):
        return (
            self.balance_defect <= self.balance_tol
            and self.compat_defect <= self.compat_tol
        )


def build_incidence(graph):
    """Incidence matrix and Laplacian pseudo-inverse of an element graph."""
    n = graph.n_nodes
    edges = tuple(graph.edges)
    A = np.zeros((n, len(edges)))
    for k, (tail, head) in enumerate(edges):
        A[tail, k] = 1.0
        A[head, k] = -1.0
    L = A @ A.T
    lam = np.trace(L) / n
    x0 = np.ones(n)
    shift = lam * np.outer(x0, x0) / n
    M = L + shift
    # connectivity check: the shifted matrix must be far from singular
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[-1] <= CONNECTIVITY_TOL * sv[0]:
        raise InvalidGraphError(
            f"graph Laplacian has rank below {n - 1}; graph is disconnected"
        )
    Linv = np.linalg.inv(M) - np.outer(x0, x0) / (lam * n)
    return IncidenceSystem(A=A, L=L, Linv=Linv, edges=edges)


def recover_fluxes(system, psi, compat_tol=COMPAT_TOL):
    """Minimum-norm edge fluxes solving A f = Psi, componentwise.

    ``psi`` has shape (#nodes, m); returns (#edges, m).
    """
    psi = np.atleast_2d(np.asarray(psi, dtype=float))
    if psi.shape[0] != system.A.shape[0]:
        psi = psi.T
    defect = np.abs(psi.sum(axis=0))
    scale = 1.0 + np.abs(psi).max(axis=0)
    if np.any(defect > compat_tol * scale):
        raise ConservationDefectError(
            "per-DOF residuals do not sum to zero", defect
        )
    return system.A.T @ (system.Linv @ psi)


def recover_normals(system, N):
    """Equivalent control-volume normals from boundary weights N_sigma."""
    return recover_fluxes(system, N)


def certify(system, fluxes, psi, balance_tol=1e-11, compat_tol=COMPAT_TOL):
    """Balance and compatibility defects of a recovered flux assignment."""
    psi = np.atleast_2d(np.asarray(psi, dtype=float))
    if psi.shape[0] != system.A.shape[0]:
        psi = psi.T
    fluxes = np.atleast_2d(np.asarray(fluxes, dtype=float))
    if fluxes.shape[0] != system.A.shape[1]:
        fluxes = fluxes.T
    balance = float(np.abs(system.A @ fluxes - psi).max())
    compat = float(np.abs(psi.sum(axis=0)).max())
    # edge fluxes are stored once per direct edge; the reverse flux is the
    # negation by data layout, so the antisymmetry defect is identically zero
    return BalanceReport(
        balance_defect=balance,
        compat_defect=compat,
        antisymmetry_defect=0.0,
        balance_tol=balance_tol,
        compat_tol=compat_tol,
    )


# ---------------------------------------------------------------------------
# boundary DOF fluxes and normal weights


def boundary_dof_flux(disc, e, u, flux_n=None):
    """Per-DOF boundary fluxes f_sigma^b = contour integral of phi_sigma fn.

    ``flux_n(uq, n, x)`` returns the normal interface flux at one quadrature
    point; it defaults to the interior normal flux f(u_h).n.
    """
    if flux_n is None:
        return disc.boundary_flux(e, u)
    mesh = disc.mesh
    ue = disc.element_values(e, u)
    out = np.zeros((disc.nloc, disc.m))
    if mesh.dim == 1:
        for lf, sign in ((0, -1.0), (1, 1.0)):
            n = np.array([sign])
            x = msh.element_coords(mesh, e)[lf]
            out[lf] += flux_n(ue[lf], n, x)
        return out
    nq = disc.fw.shape[-1]
    for lf in range(3):
        xq, w, n, lam = msh.face_geometry(mesh, e, lf, nq)
        tb = msh.tri_basis(mesh.degree, lam)
        uq = tb @ ue
        for q in range(nq):
            out += w[q] * tb[q][:, None] * flux_n(uq[q], n, xq[q])[None, :]
    return out


def trace_normal_weights(mesh, e):
    """Exact boundary weights in the inward convention, shape (#K, 2).

    N_sigma = -(contour integral of phi_sigma n_out); with these weights the
    constant-state recovered fluxes satisfy f_hat = f(u).n_sigmasigma' for
    n_sigmasigma' = recover_normals(system, N).  For P1 each vertex collects
    half of its two incident inward edge normals, i.e. N_sigma = -n_sigma/2.
    """
    n_in = msh.element_scaled_normals(mesh, e)  # scaled inward normals
    if mesh.degree == 1:
        return -0.5 * n_in
    N = np.zeros((6, 2))
    N[:3] = -n_in / 6.0
    # midpoint 3+k sits on the edge opposite vertex opp[k]
    opp = (2, 0, 1)
    for k in range(3):
        N[3 + k] = (2.0 / 3.0) * n_in[opp[k]]
    return N


def split_normal_weights(mesh, e):
    """Alternative zero-sum splitting for P2 elements.

    Vertices are weighted with -n_l/6 and each midpoint with n_opp/3 where
    n_opp is the scaled inward normal opposite that midpoint's edge.  The
    weights sum to zero, which is all the normal recovery requires.
    """
    n_in = msh.element_scaled_normals(mesh, e)
    if mesh.degree != 2:
        raise ValueError("split weights are defined for P2 elements")
    N = np.zeros((6, 2))
    N[:3] = -n_in / 6.0
    opp = (2, 0, 1)
    for k in range(3):
        N[3 + k] = n_in[opp[k]] / 3.0
    return N


def reassemble_dof_residuals(system, fluxes, boundary_flux=None):
    """Per-DOF sums of incident edge fluxes (plus boundary fluxes if given).

    Inverse direction of the recovery: returns Psi_sigma + f_sigma^b, which
    reproduces the original distributed residuals Phi_sigma.
    """
    psi = system.A @ np.atleast_2d(fluxes)
    if boundary_flux is not None:
        psi = psi + boundary_flux
    return psi
