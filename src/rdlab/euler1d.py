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

``step`` takes and returns component-first states (3, n_nodes), the layout
``run_sod`` marches in, and never writes into its arguments.  It copies each
cell's two node states into a (2, 3, n_cells) buffer, side first, that becomes
the element residuals in place; its numpy operations run on contiguous rows
and blocks of the few buffers a step allocates, and each update is written
straight into its row of the new state.  B(W) dW is written out row by row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .constraints import (DENSITY_TOL, energy_correction, energy_residuals, momentum_residuals,
                          velocity_correction)
from .errors import InadmissibleStateError
from .time_dec import march

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


def checked_wave_speed(w, gamma):
    """Nodal wave speeds (n+1,) of an admissible state (3, n+1)."""
    rho, _, e = w
    ok = (rho >= DENSITY_TOL) & (e >= DENSITY_TOL)  # NaN fails
    if not ok.all():
        i = int(np.argmin(ok))
        name, value = ("internal energy", e[i]) if rho[i] >= DENSITY_TOL else ("density", rho[i])
        raise InadmissibleStateError(f"{name} {value} below {DENSITY_TOL} at node {i}")
    return wave_speed(w.T, gamma)


def _element_residuals(w, gamma, h, speed):
    """Rusanov-distributed primitive residuals per element: ``w`` is the state
    (3, n+1) and ``speed`` its nodal wave speeds, phi is (2, 3, n), left and
    right node, then component, then element.  phi starts as the cells' node
    states and is overwritten with the residuals."""
    n = w.shape[1] - 1
    phi = np.empty((2, 3, n))
    wl, wr = phi
    wl[...], wr[...] = w[:, :-1], w[:, 1:]
    grad = np.subtract(wr, wl)
    grad /= h
    drho, du, de = grad
    k, hh = gamma - 1.0, 0.5 * h
    # total residual by two-point Gauss quadrature of B(W_h) dW/dx: per point
    # hh * (a + b), a = u (drho, du, de) and b = (rho du, k / rho de, (e + k e) du)
    total = np.zeros((3, n))
    wq, a, b = np.empty((3, 3, n))
    for t in GAUSS_T:
        np.multiply(wl, 1.0 - t, out=wq)
        wq += np.multiply(wr, t, out=a)
        rho, u, e = wq
        np.multiply(grad, u, out=a)
        np.multiply(rho, du, out=b[0])
        np.multiply(np.divide(k, rho, out=b[1]), de, out=b[1])
        np.multiply(e, k, out=b[2])
        b[2] += e
        b[2] *= du
        a += b
        a *= hh
        total += a
    alpha = np.maximum(speed[:-1], speed[1:])
    wbar = np.add(wl, wr, out=a)
    wbar *= 0.5
    total *= 0.5
    # half + alpha * (w - wbar), both sides at once
    phi -= wbar
    phi *= alpha
    phi += total
    return phi


def _pairs(a):
    """Per-element node values (2, n) of a nodal array (n+1,), side first: a
    view whose two rows overlap (of a contiguous copy if ``a`` is strided)."""
    a = np.ascontiguousarray(a)
    return np.ndarray((2, a.size - 1), a.dtype, a, 0, a.strides * 2)


def _update(out, a, phi, dt, mass):
    """Writes ``a - dt * S / mass`` into ``out`` (n+1,), S the per-node sums of
    the element contributions ``phi`` (2, n), side first."""
    out[0], out[-1] = phi[0, 0], phi[1, -1]
    np.add(phi[0, 1:], phi[1, :-1], out=out[1:-1])
    out *= dt
    out /= mass
    np.subtract(a, out, out=out)


@lru_cache(maxsize=1)
def _lumped_mass(n_nodes, h):
    """Lumped mass (n_nodes,) of cells of length ``h``, kept for the last mesh."""
    return np.concatenate(([0.5 * h], np.full(n_nodes - 2, h), [0.5 * h]))


def step(w, dt, h, gamma, correct=True, speed=None):
    """One forward-Euler step; returns (w_next, momentum defect, energy defect).

    ``w`` and ``w_next`` are (3, n+1), and ``speed`` is ``checked_wave_speed(w,
    gamma)``.  The defects are the worst per-element conserved-balance
    residuals after whatever corrections were applied.  Nothing is written
    into the arguments.
    """
    speed = checked_wave_speed(w, gamma) if speed is None else speed
    rho, u, e = w
    mass = _lumped_mass(w.shape[1], h)
    phi_rho, phi_u, phi_e = _element_residuals(w, gamma, h, speed).transpose(1, 0, 2)
    w_next = np.empty(w.shape)
    rho_new, u_new, e_new = w_next

    # density first: its residual needs no correction
    _update(rho_new, rho, phi_rho, dt, mass)
    rho_p1, u_p = _pairs(rho_new), _pairs(u)

    # velocity: uniform per-element correction closing the momentum balance
    flux = momentum_flux(w.T, gamma)
    target_m = flux[1:] - flux[:-1]
    if correct:
        phi_u += velocity_correction(phi_rho, phi_u, rho_p1, u_p, target_m)
    m = momentum_residuals(phi_rho, phi_u, rho_p1, u_p)
    defect_m = np.abs(m[0] + m[1] - target_m)
    _update(u_new, u, phi_u, dt, mass)
    u_p1 = _pairs(u_new)

    # energy: map residuals through the increment matrix, then correct
    flux = energy_flux(w.T, gamma)
    target_e = flux[1:] - flux[:-1]
    mapped = energy_residuals(phi_rho, phi_u, phi_e, u_p, rho_p1, u_p1)
    if correct:
        r_e = energy_correction(mapped, target_e)
        phi_e += r_e
        mapped += r_e
    defect_e = np.abs(mapped[0] + mapped[1] - target_e)
    _update(e_new, e, phi_e, dt, mass)

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
    """``time_dec.march`` Sod's shock tube to a finite ``t_end`` >= 0 with the bound
    ``cfl * h / speed.max()``; reports worst conservation defects.  Every state, the
    last included, passes ``checked_wave_speed``, whose speeds serve its step."""
    x, w = sod_initial(n_cells, gamma)
    w = w.T.copy()                                   # component first, for the march
    h = x[1] - x[0]

    def advance(state, dt):
        w, dm, de = step(state[0], dt, h, gamma, correct=correct, speed=state[1])
        speed = checked_wave_speed(w, gamma)
        return (w, speed), (dm, de, float(h * (w[0].sum() - 0.5 * (w[0, 0] + w[0, -1]))))

    (w, _), records = march(t_end, (w, checked_wave_speed(w, gamma)),
                            lambda state: cfl * h / state[1].max(), advance)
    return SodResult(
        x=x, w=w.T.copy(), t=records[-1][0] if records else 0.0, gamma=gamma,
        defect_m=max([0.0, *(r[1] for r in records)]),
        defect_e=max([0.0, *(r[2] for r in records)]),
        mass_history=[(t, m) for t, _, _, m in records],
    )


def locate_shock(x, rho):
    """Position of the strongest density jump right of x = 0.55, past Sod's
    rarefaction."""
    mask = x[:-1] >= 0.55
    jumps = np.abs(np.diff(rho))
    jumps[~mask] = 0.0
    i = int(np.argmax(jumps))
    return 0.5 * (x[i] + x[i + 1])
