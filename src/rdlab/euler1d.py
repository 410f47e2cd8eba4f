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

    def velocity(self):
        return self.w[:, 1]


def primitive_matrix(w, gamma):
    """Quasi-linear matrix B(W) of the primitive system, (..., 3, 3)."""
    w = np.asarray(w, dtype=float)
    rho, u, e = w[..., 0], w[..., 1], w[..., 2]
    k = gamma - 1.0
    B = np.zeros(w.shape[:-1] + (3, 3))
    B[..., 0, 0] = u
    B[..., 0, 1] = rho
    B[..., 1, 1] = u
    B[..., 1, 2] = k / rho
    B[..., 2, 1] = e + k * e
    B[..., 2, 2] = u
    return B


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


def total_energy(w):
    return w[..., 2] + 0.5 * w[..., 0] * w[..., 1] ** 2


def _element_residuals(w, gamma, h):
    """Rusanov-distributed primitive residuals per element.

    ``w`` is (n+1, 3); returns phi with shape (n, 2, 3): contribution of each
    element to its left and right node.
    """
    wl, wr = w[:-1], w[1:]
    dw = (wr - wl) / h                               # (n, 3) gradient
    # total residual by two-point Gauss quadrature of B(W_h) dW/dx
    total = np.zeros_like(wl)
    for t in GAUSS_T:
        wq = (1.0 - t) * wl + t * wr
        B = primitive_matrix(wq, gamma)
        total += 0.5 * h * np.einsum("eij,ej->ei", B, dw)
    alpha = np.maximum(wave_speed(wl, gamma), wave_speed(wr, gamma))
    wbar = 0.5 * (wl + wr)
    phi = np.empty((wl.shape[0], 2, 3))
    phi[:, 0] = 0.5 * total + alpha[:, None] * (wl - wbar)
    phi[:, 1] = 0.5 * total + alpha[:, None] * (wr - wbar)
    return phi


def _scatter(phi, n_nodes):
    """Per-node sums of element residual contributions."""
    out = np.zeros((n_nodes, phi.shape[-1]))
    out[:-1] += phi[:, 0]
    out[1:] += phi[:, 1]
    return out


def step(w, dt, h, gamma, correct=True):
    """One forward-Euler step; returns (w_next, momentum defect, energy defect).

    The defects are the worst per-element conserved-balance residuals after
    whatever corrections were applied.
    """
    n_nodes = w.shape[0]
    if np.any(w[:, 0] < DENSITY_TOL) or np.any(w[:, 2] < DENSITY_TOL):
        raise InadmissibleStateError("nonpositive density or internal energy")
    mass = np.full(n_nodes, h)
    mass[0] = mass[-1] = 0.5 * h
    phi = _element_residuals(w, gamma, h)            # (n, 2, 3)

    # density first: its residual needs no correction
    rho_new = w[:, 0] - dt * _scatter(phi[..., 0:1], n_nodes)[:, 0] / mass
    rho_p1 = np.stack([rho_new[:-1], rho_new[1:]], axis=1)   # per element (n, 2)
    u_p = np.stack([w[:-1, 1], w[1:, 1]], axis=1)

    # velocity: uniform per-element correction closing the momentum balance
    target_m = momentum_flux(w[1:], gamma) - momentum_flux(w[:-1], gamma)
    if correct:
        phi[..., 1] += velocity_correction(phi[..., 0], phi[..., 1], rho_p1, u_p,
                                           target_m)[:, None]
    defect_m = np.abs(np.sum(rho_p1 * phi[..., 1] + u_p * phi[..., 0], axis=1) - target_m)
    u_new = w[:, 1] - dt * _scatter(phi[..., 1:2], n_nodes)[:, 0] / mass
    u_p1 = np.stack([u_new[:-1], u_new[1:]], axis=1)

    # energy: map residuals through the increment matrix, then correct
    target_e = energy_flux(w[1:], gamma) - energy_flux(w[:-1], gamma)
    mapped = energy_residuals(phi[..., 0], phi[..., 1], phi[..., 2], u_p, rho_p1, u_p1)
    if correct:
        r_e = energy_correction(mapped, target_e)
        phi[..., 2] += r_e[:, None]
        mapped = mapped + r_e[:, None]
    defect_e = np.abs(mapped.sum(axis=1) - target_e)
    e_new = w[:, 2] - dt * _scatter(phi[..., 2:3], n_nodes)[:, 0] / mass

    w_next = np.stack([rho_new, u_new, e_new], axis=1)
    return w_next, float(defect_m.max()), float(defect_e.max())


def sod_initial(n_cells, gamma=1.4, left=(1.0, 0.0, 1.0), right=(0.125, 0.0, 0.1)):
    """Node coordinates and primitive states of a shock tube on [0, 1]."""
    x = np.linspace(0.0, 1.0, n_cells + 1)
    w = np.empty((n_cells + 1, 3))
    for state, mask in ((left, x < 0.5), (right, x >= 0.5)):
        rho, u, p = state
        w[mask] = (rho, u, p / (gamma - 1.0))
    return x, w


def run_sod(n_cells=400, t_end=0.2, gamma=1.4, cfl=0.3, correct=True,
            left=(1.0, 0.0, 1.0), right=(0.125, 0.0, 0.1)):
    """March the shock tube to ``t_end``; reports worst conservation defects."""
    x, w = sod_initial(n_cells, gamma, left, right)
    h = x[1] - x[0]
    t = 0.0
    worst_m = worst_e = 0.0
    mass_hist = []
    while t < t_end - 1e-14:
        dt = min(cfl * h / wave_speed(w, gamma).max(), t_end - t)
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


def locate_shock(x, rho, x_min=0.55):
    """Position of the strongest density jump right of ``x_min``."""
    mask = x[:-1] >= x_min
    jumps = np.abs(np.diff(rho))
    jumps[~mask] = 0.0
    i = int(np.argmax(jumps))
    return 0.5 * (x[i] + x[i + 1])
