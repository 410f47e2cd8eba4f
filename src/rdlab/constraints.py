"""Residual corrections restoring discrete conservation for primitive-variable
Euler schemes, plus the auxiliary entropy (pressure) correction.

Working variables are the primitives W = (rho, u, e) with e the internal
energy per unit volume, p = (gamma - 1) e.  A scheme updating W is made
conservative in (rho, rho*u, E) by adding a uniform per-element correction to
the velocity residuals first (r_u^K) and then to the energy residuals
(r_e^K), each solving the element conserved-balance equation exactly.  The
corrections batch with the DOF axis first: the balance sums run over axis 0,
and any trailing axes are elements; 1-D arrays are one element.
"""

from __future__ import annotations

import numpy as np

from .conslaw import ADMISSIBLE_TOL
from .errors import InadmissibleStateError, InfeasibleCorrectionError

ENTROPY_CORRECTION_TOL = 1e-11


def conserved_increment_matrix(w_p, w_p1):
    """Lower-triangular matrix M with M @ (delta rho, delta u, delta e) =
    (delta rho, delta(rho u), delta E), exact for the pair of states.

    Rows: (1, 0, 0); (u_p, rho_p1, 0); (u_p^2/2, rho_p1 (u_p + u_p1)/2, 1).
    ``w_p``/``w_p1`` are primitive states (..., 3); returns (..., 3, 3).
    """
    w_p = np.asarray(w_p, dtype=float)
    w_p1 = np.asarray(w_p1, dtype=float)
    u_p, rho_p1, u_p1 = w_p[..., 1], w_p1[..., 0], w_p1[..., 1]
    e = np.eye(3).reshape((3, 3) + (1,) * u_p.ndim)    # unit (delta rho, delta u, delta e)
    rows = np.broadcast_arrays(e[0], momentum_residuals(e[0], e[1], rho_p1, u_p),
                               energy_residuals(*e, u_p, rho_p1, u_p1))
    return np.moveaxis(np.array(rows), (0, 1), (-2, -1))


def velocity_correction(phi_rho, phi_u, rho_p1, u_p, target_m):
    """Uniform velocity-residual correction closing the momentum balance.

    Solves sum_sigma [rho_p1 (phi_u + r_u) + u_p phi_rho] = target_m for r_u;
    density residuals are final and stay untouched.
    """
    rho_p1 = np.asarray(rho_p1, dtype=float)
    denom = rho_p1.sum(axis=0)
    ok = denom >= ADMISSIBLE_TOL                      # NaN fails
    if not ok.all():
        i = int(np.argmin(ok))
        raise InadmissibleStateError(f"density sum {np.ravel(denom)[i]} below "
                                     f"{ADMISSIBLE_TOL} in element {i}")
    current = momentum_residuals(phi_rho, phi_u, rho_p1, np.asarray(u_p)).sum(axis=0)
    return (target_m - current) / denom


def momentum_residuals(phi_rho, phi_u, rho_p1, u_p):
    """Conserved momentum residual of each DOF: the second row of the
    increment matrix applied to (phi_rho, phi_u)."""
    return rho_p1 * phi_u + u_p * phi_rho


def energy_residuals(phi_rho, phi_u, phi_e, u_p, rho_p1, u_p1):
    """Conserved total-energy residual of each DOF: the third row of the
    increment matrix applied to (phi_rho, phi_u, phi_e), written out."""
    return phi_e + 0.5 * (u_p * u_p) * phi_rho + 0.5 * rho_p1 * (u_p + u_p1) * phi_u


def energy_correction(mapped, target_e):
    """Uniform energy-residual correction closing the total-energy balance.

    ``mapped`` are the ``energy_residuals`` of the velocity-corrected
    residuals.
    """
    return (target_e - mapped.sum(axis=0)) / mapped.shape[0]


def divided_difference_rho_kappa(rho_p, rho_p1, kappa):
    """Divided difference of rho -> rho^(-kappa) between two iterates.

    At coincidence the derivative branch -kappa * rho_p^(-(kappa+1)) is used.
    """
    rho_p = np.asarray(rho_p, dtype=float)
    rho_p1 = np.asarray(rho_p1, dtype=float)
    same = rho_p1 == rho_p
    denom = np.where(same, 1.0, rho_p1 - rho_p)
    dd = (rho_p1 ** (-kappa) - rho_p ** (-kappa)) / denom
    deriv = -kappa * rho_p ** (-(kappa + 1.0))
    out = np.where(same, deriv, dd)
    return out if out.ndim else float(out)


def entropy_pressure_correction(rho_p, kappa, E1, E2):
    """Minimum-norm pressure corrections (r_p)_sigma satisfying

        sum_sigma (r_p)_sigma = E1
        sum_sigma rho_sigma^(-kappa) (r_p)_sigma = E2.

    Raises an infeasibility error when the two rows are linearly dependent
    (uniform density) and the data are incompatible.
    """
    rho_p = np.asarray(rho_p, dtype=float)
    n = rho_p.shape[0]
    A = np.vstack([np.ones(n), rho_p ** (-kappa)])
    b = np.array([float(E1), float(E2)], dtype=float)
    r, *_ = np.linalg.lstsq(A, b, rcond=None)
    defect = np.abs(A @ r - b)
    scale = 1.0 + np.abs(b)
    if np.any(defect > ENTROPY_CORRECTION_TOL * scale):
        raise InfeasibleCorrectionError(
            "entropy correction constraints are incompatible; "
            f"row defects {defect.tolist()}"
        )
    return r
