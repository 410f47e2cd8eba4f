"""1D Euler solver in primitive variables (rho, u, e) with conservation
corrections, built for shock-tube experiments.

The scheme is a lumped forward-Euler residual distribution on P1 interval
elements with Rusanov dissipation, applied to the non-conservative primitive
form

    rho_t + (rho u)_x            = 0
    u_t   + u u_x + p_x / rho    = 0
    e_t   + u e_x + (e + p) u_x  = 0,      p = (gamma - 1) e.

Updated in that order, each element receives a uniform velocity correction
and then a uniform energy correction so the conserved momentum and total
energy balances close exactly (up to round-off); see the constraints module.

``step`` takes and returns (n_nodes, 3) states but works on contiguous
component-first arrays: the state (3, n_nodes), element residuals
(3, 2, n_cells) and element node pairs (2, n_cells), side first.  B(W) dW is
written out row by row, with no 3x3 matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constraints import DENSITY_TOL, energy_correction, energy_residuals, velocity_correction
from .errors import InadmissibleStateError

GAUSS_T = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])


@dataclass
class SodResult:
    x: np.ndarray                  # node coordinates
    w: np.ndarray                  # primitive states (rho, u, e) per node
    t: float
    gamma: float
    defect_m: float                # worst per-element momentum defect seen
    defect_e: float                # worst per-element energy defect seen
    mass_history: list = field(default_factory=list)

    def pressure(self):
        return (self.gamma - 1.0) * self.w[:, 2]

    def density(self):
        return self.w[:, 0]


def wave_speed(w, gamma):
    rho, u, e = w[..., 0], w[..., 1], w[..., 2]
    p = (gamma - 1.0) * e
    return np.abs(u) + np.sqrt(gamma * p / rho)


def momentum_flux(w, gamma):
    rho, u, e = w[..., 0], w[..., 1], w[..., 2]
    return rho * u * u + (gamma - 1.0) * e


def energy_flux(w, gamma):
    rho, u, e = w[..., 0], w[..., 1], w[..., 2]
    E = e + 0.5 * rho * u * u
    return u * (E + (gamma - 1.0) * e)


def _element_residuals(w, gamma, h):
    """Rusanov-distributed primitive residuals per element: ``w`` is the state
    (3, n+1), phi is (3, 2, n), component, then left and right node, then
    element."""
    wl, wr = w[:, :-1], w[:, 1:]
    drho, du, de = (wr - wl) / h                     # (3, n) gradient
    k = gamma - 1.0
    # total residual by two-point Gauss quadrature of B(W_h) dW/dx
    total = np.zeros_like(wl)
    for t in GAUSS_T:
        rho, u, e = (1.0 - t) * wl + t * wr
        total[0] += 0.5 * h * (u * drho + rho * du)
        total[1] += 0.5 * h * (u * du + k / rho * de)
        total[2] += 0.5 * h * ((e + k * e) * du + u * de)
    ws = wave_speed(w.T, gamma)
    alpha = np.maximum(ws[:-1], ws[1:])
    wbar = 0.5 * (wl + wr)
    phi = np.empty((3, 2, wl.shape[1]))
    phi[:, 0] = 0.5 * total + alpha * (wl - wbar)
    phi[:, 1] = 0.5 * total + alpha * (wr - wbar)
    return phi


def _pairs(a):
    """Per-element node values (2, n) of a nodal array (n+1,), side first."""
    return np.stack((a[:-1], a[1:]))


def _scatter(phi):
    """Per-node sums (n+1,) of element contributions (2, n), side first."""
    out = np.zeros(phi.shape[1] + 1)
    out[:-1] += phi[0]
    out[1:] += phi[1]
    return out


def step(w, dt, h, gamma, correct=True):
    """One forward-Euler step; returns (w_next, momentum defect, energy defect).

    ``w`` and ``w_next`` are (n+1, 3).  The defects are the worst per-element
    conserved-balance residuals after whatever corrections were applied.
    """
    wt = w.T.copy()                                  # component first, contiguous
    rho, u, e = wt
    ok = (rho >= DENSITY_TOL) & (e >= DENSITY_TOL)  # NaN fails
    if not ok.all():
        i = int(np.argmin(ok))
        name, value = ("internal energy", e[i]) if rho[i] >= DENSITY_TOL else ("density", rho[i])
        raise InadmissibleStateError(f"{name} {value} below {DENSITY_TOL} at node {i}")
    mass = np.full(rho.shape[0], h)
    mass[0] = mass[-1] = 0.5 * h
    phi_rho, phi_u, phi_e = _element_residuals(wt, gamma, h)   # each (2, n)

    # density first: its residual needs no correction
    rho_new = rho - dt * _scatter(phi_rho) / mass
    rho_p1, u_p = _pairs(rho_new), _pairs(u)

    # velocity: uniform per-element correction closing the momentum balance
    target_m = np.diff(momentum_flux(wt.T, gamma))
    if correct:
        phi_u += velocity_correction(phi_rho, phi_u, rho_p1, u_p, target_m)
    m = rho_p1 * phi_u + u_p * phi_rho
    defect_m = np.abs(m[0] + m[1] - target_m)
    u_new = u - dt * _scatter(phi_u) / mass
    u_p1 = _pairs(u_new)

    # energy: map residuals through the increment matrix, then correct
    target_e = np.diff(energy_flux(wt.T, gamma))
    mapped = energy_residuals(phi_rho, phi_u, phi_e, u_p, rho_p1, u_p1)
    if correct:
        r_e = energy_correction(mapped, target_e)
        phi_e += r_e
        mapped += r_e
    defect_e = np.abs(mapped[0] + mapped[1] - target_e)
    e_new = e - dt * _scatter(phi_e) / mass

    w_next = np.stack((rho_new, u_new, e_new), axis=1)
    return w_next, float(defect_m.max()), float(defect_e.max())


def sod_initial(n_cells, gamma=1.4):
    """Node coordinates and primitive states of Sod's shock tube on [0, 1]:
    (rho, u, p) = (1, 0, 1) left of x = 0.5 and (0.125, 0, 0.1) from it on."""
    x = np.linspace(0.0, 1.0, n_cells + 1)
    w = np.empty((n_cells + 1, 3))
    for (rho, u, p), mask in (((1.0, 0.0, 1.0), x < 0.5), ((0.125, 0.0, 0.1), x >= 0.5)):
        w[mask] = (rho, u, p / (gamma - 1.0))
    return x, w


def run_sod(n_cells=400, t_end=0.2, gamma=1.4, cfl=0.3, correct=True):
    """March Sod's shock tube to ``t_end``; reports worst conservation defects."""
    x, w = sod_initial(n_cells, gamma)
    h = x[1] - x[0]
    t = 0.0
    worst_m = worst_e = 0.0
    mass_hist = []
    while t < t_end - 1e-14:
        dt = min(cfl * h / wave_speed(w, gamma).max(), t_end - t)
        if not dt > 0.0:
            raise ValueError(f"time step {dt} is not positive")
        w, dm, de = step(w, dt, h, gamma, correct=correct)
        worst_m = max(worst_m, dm)
        worst_e = max(worst_e, de)
        t += dt
        lumped_rho = h * (w[:, 0].sum() - 0.5 * (w[0, 0] + w[-1, 0]))
        mass_hist.append((t, float(lumped_rho)))
    return SodResult(
        x=x, w=w, t=t, gamma=gamma,
        defect_m=worst_m, defect_e=worst_e, mass_history=mass_hist,
    )


def locate_shock(x, rho):
    """Position of the strongest density jump right of x = 0.55, past Sod's
    rarefaction."""
    mask = x[:-1] >= 0.55
    jumps = np.abs(np.diff(rho))
    jumps[~mask] = 0.0
    i = int(np.argmax(jumps))
    return 0.5 * (x[i] + x[i + 1])
