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
from .errors import ConservationDefectError, InvalidGraphError, UnsupportedFeatureError

BALANCE_TOL = 1e-11
COMPAT_TOL = 1e-10


@dataclass
class IncidenceSystem:
    A: np.ndarray       # (#nodes, #edges), +1 at the tail, -1 at the head
    Linv: np.ndarray    # pseudo-inverse of L on the zero-mean subspace


@dataclass
class BalanceReport:
    balance_defect: float   # worst absolute defects over the batch
    compat_defect: float
    passed: bool            # every element within its scaled tolerances


def build_incidence(graph):
    """Incidence matrix and Laplacian pseudo-inverse of an element graph, which must
    have an edge and be connected, else ``InvalidGraphError``: tested exactly, with no
    tolerance, as every node reachable from node 0 over the edges taken either way."""
    n, edges = graph.n_nodes, graph.edges
    reached = {0}
    for _ in range(n - 1):   # a pass adds a node while one is unreached but adjacent
        reached |= {v for edge in edges if reached.intersection(edge) for v in edge}
    if not edges or len(reached) < n:
        raise InvalidGraphError(f"graph has no edge or is disconnected: node 0 reaches "
                                f"{len(reached)} of its {n} nodes")
    A = np.zeros((n, len(edges)))
    for k, (tail, head) in enumerate(edges):
        A[tail, k] = 1.0
        A[head, k] = -1.0
    L = A @ A.T
    lam = np.trace(L) / n
    x0 = np.ones(n)
    shift = lam * np.outer(x0, x0) / n
    Linv = np.linalg.inv(L + shift) - np.outer(x0, x0) / (lam * n)
    return IncidenceSystem(A=A, Linv=Linv)


def recover_fluxes(system, psi):
    """Minimum-norm edge fluxes A^T (L^+ Psi) solving A f = Psi, componentwise.

    ``psi`` has shape (..., #nodes, m) with any leading element axes, or
    (#nodes,) for one component; returns (..., #edges, m).
    The residuals of every element must be finite and sum to zero; the error names the
    first element that fails, as a flat index over the leading axes, and carries its defect.
    A worst defect within ``COMPAT_TOL`` itself passes before the scale is built.
    """
    psi = _columns(psi)
    defect = np.abs(np.add.reduce(psi, axis=-2))
    if not np.maximum.reduce(defect, None, initial=0.0) <= COMPAT_TOL:   # NaN goes on to fail
        bad = ~(np.isfinite(defect) & (defect <= COMPAT_TOL * (1.0 + np.abs(psi).max(axis=-2))))
        if np.any(bad):
            e = int(np.argmax(np.any(bad, axis=-1)))
            raise ConservationDefectError(f"per-DOF residuals of element {e} do not sum to zero",
                                          defect.reshape(-1, defect.shape[-1])[e], e)
    return system.A.T @ (system.Linv @ psi)


def certify(system, fluxes, psi):
    """Worst balance and compatibility defects over a batch of recovered
    ``fluxes`` (..., #edges, m) and residuals ``psi`` (..., #nodes, m), or 1-D
    for one component.  Each edge flux is stored once, for the oriented edge,
    so the reverse flux is its negation by data layout: no antisymmetry defect.
    The report passes when, for every element and component, both defects
    are within their tolerance (``BALANCE_TOL``, ``COMPAT_TOL``) times
    1 + max|psi|, as ``recover_fluxes`` scales its own; each worst defect is one maximum
    over all its entries; per-element maxima and the scale are built only if one exceeds
    its tolerance.  A NaN or infinite defect fails; an empty batch has defects 0 and passes.
    """
    psi, fluxes = _columns(psi), _columns(fluxes)
    balance = np.abs(system.A @ fluxes - psi)
    compat = np.abs(np.add.reduce(psi, axis=-2))
    worst = (float(np.maximum.reduce(balance, None, initial=0.0)),
             float(np.maximum.reduce(compat, None, initial=0.0)))
    passed = worst[0] <= BALANCE_TOL and worst[1] <= COMPAT_TOL
    if not passed:
        balance, scale = balance.max(axis=-2), 1.0 + np.abs(psi).max(axis=-2)
        passed = bool((np.isfinite(balance) & np.isfinite(compat) & (balance <= BALANCE_TOL * scale)
                       & (compat <= COMPAT_TOL * scale)).all())
    return BalanceReport(*worst, passed=passed)


def _columns(a):
    """``a`` as a float array; a 1-D array becomes one column."""
    a = np.asarray(a, dtype=float)
    return a[:, None] if a.ndim == 1 else a


# ---------------------------------------------------------------------------
# boundary DOF fluxes and normal weights


def boundary_dof_flux(disc, e, u):
    """Per-DOF boundary fluxes f_sigma^b = contour integral of phi_sigma f(u_h).n:
    rows ``e`` of the read-only ``rd_core.State.boundary_dof_flux`` of ``u``, (k,
    #K, m); one integer element drops the element axis, as numpy indexing does."""
    return disc.state(u).boundary_dof_flux[e]


def _p2_normal_weights(mesh, e, mid):
    """-n_l/6 at the vertices and ``mid`` times the scaled inward normal
    opposite each midpoint's edge at the midpoints, shape (..., 6, 2)."""
    n_in = -msh.element_geometry(mesh, e)[2]
    return np.concatenate([-n_in / 6.0, mid * n_in[..., msh.MIDPOINT_FACES, :]], axis=-2)


def trace_normal_weights(mesh, e):
    """Exact boundary weights in the inward convention, shape (..., #K, 2).

    N_sigma = -(contour integral of phi_sigma n_out); with these weights the
    constant-state recovered fluxes satisfy f_hat = f(u).n_sigmasigma' for
    n_sigmasigma' = recover_fluxes(system, N).  For P1 each vertex collects
    half of its two incident inward edge normals, i.e. N_sigma = -n_sigma/2;
    for P2 each midpoint takes 2/3 of the normal opposite its edge.
    """
    if mesh.dim != 2:
        raise UnsupportedFeatureError("normal weights are defined for triangles")
    if mesh.degree == 1:
        return 0.5 * msh.element_geometry(mesh, e)[2]
    return _p2_normal_weights(mesh, e, 2.0 / 3.0)


def split_normal_weights(mesh, e):
    """Alternative zero-sum splitting for P2 elements, shape (..., 6, 2).

    Vertices are weighted with -n_l/6 and each midpoint with n_opp/3 where
    n_opp is the scaled inward normal opposite that midpoint's edge.  The
    weights sum to zero, which is all the normal recovery requires.
    """
    if mesh.degree != 2:
        raise ValueError("split weights are defined for P2 elements")
    return _p2_normal_weights(mesh, e, 1.0 / 3.0)

