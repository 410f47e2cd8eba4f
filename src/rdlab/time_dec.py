"""Deferred-correction time stepping with a lumped mass pairing.

The pairing <<u, v>> lumps each element with the weight C_K = |K|/#K, so no
mass matrix is inverted.  Each correction sweep solves

    <<u^(p+1), v>> = <<u^(p), v>> - <u^(p) - u^n, v> - dt * A(u^(p), v),

where <., .> is the consistent pairing and A collects the space residuals of
the chosen time-average.  Two averages are built: the frozen flux at t_n
(forward Euler, one sweep) and the arithmetic average of t_n and t_{n+1}
(Crank-Nicholson, two sweeps for second order).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


class CflWarning(RuntimeWarning):
    """A given time step exceeds the CFL bound ``stable_dt`` of the state."""


@dataclass
class DecConfig:
    method: str                 # "euler" (weights 1,0) or "cn" (1/2,1/2)
    cfl: float = 0.3

    def __post_init__(self):
        if self.method not in ("euler", "cn"):
            raise ValueError(f"unknown time method {self.method!r}")

    @property
    def iterations(self):
        """Correction sweeps: the time average fixes them, one for forward
        Euler and two for the second-order trapezoidal average."""
        return 1 if self.method == "euler" else 2

    @property
    def weights(self):
        return (1.0, 0.0) if self.method == "euler" else (0.5, 0.5)


def lumped_mass(disc):
    """Per-DOF lumped mass and per-element C_K = |K|/#K."""
    C = disc.measure / disc.nloc
    dofs = disc.dofmap.element_dofs
    mass = np.zeros(disc.dofmap.n_dofs)
    np.add.at(mass, dofs, np.broadcast_to(C[:, None], dofs.shape))
    return mass, C


def mass_apply(disc, w):
    """Consistent mass action <w, phi_sigma> for a DOF field w (ndof, m),
    or (ndof,) for one component."""
    w = np.asarray(w, dtype=float)
    w = w[:, None] if w.ndim == 1 else w
    dofs = disc.dofmap.element_dofs
    out = np.zeros_like(w)
    np.add.at(out, dofs, disc.element_mass @ w[dofs])
    return out


def stable_dt(disc, u, cfl):
    """CFL time step from the smallest element and largest wave speed;
    ``u`` is (ndof, m), or (ndof,) for one component."""
    u = np.asarray(u, dtype=float)
    u = u[:, None] if u.ndim == 1 else u
    speed = 0.0
    for k in range(disc.mesh.dim):
        n = np.zeros(disc.mesh.dim)
        n[k] = 1.0
        speed = max(speed, float(np.max(disc.law.max_wave_speed(u, n))))
    speed *= np.sqrt(disc.mesh.dim)
    if speed <= 0.0:
        return np.inf
    if disc.mesh.dim == 1:
        hmin = float(disc.measure.min())
    else:
        hmin = float((2.0 * disc.measure / disc.diameter).min())
    return cfl * hmin / speed


def dec_step(disc, u_n, dt, scheme, config, u_b=None, mass=None, R_n=None):
    """One time slab of the deferred-correction iteration; ``dt`` is taken
    as given (``dec_run`` checks it against ``stable_dt``).

    ``R_n``, if given, is the residual at ``u_n``; it is not recomputed.
    """
    if mass is None:
        mass, _ = lumped_mass(disc)
    u_n = np.asarray(u_n, dtype=float)
    w0, w1 = config.weights
    if R_n is None:
        R_n = disc.assemble(u_n, scheme, u_b)[0]
    if config.method == "euler":
        return u_n - dt * R_n / mass[:, None]
    u_p = u_n
    for sweep in range(config.iterations):
        # the first sweep starts at u_n, where the residual is R_n
        R_p = R_n if sweep == 0 else disc.assemble(u_p, scheme, u_b)[0]
        A = dt * (w0 * R_n + w1 * R_p)
        rhs = mass[:, None] * u_p - mass_apply(disc, u_p - u_n) - A
        u_p = rhs / mass[:, None]
    return u_p


def dec_run(disc, u0, t_end, scheme, config, u_b=None, dt=None, log=None):
    """March to ``t_end``; returns (final state, times list).

    Each step is ``stable_dt`` of the current state, or ``dt`` if given, with
    a ``CflWarning`` where ``dt`` exceeds that bound.  ``log``, if given, is
    called after each step with (t, u, total lumped mass per component,
    residual infinity norm).  The residual at the new state is computed once
    and serves both the log and the next step.
    """
    mass, _ = lumped_mass(disc)
    u = np.array(u0, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    t = 0.0
    times = [0.0]
    R = disc.assemble(u, scheme, u_b)[0]
    while t < t_end - 1e-14:
        dtmax = stable_dt(disc, u, config.cfl)
        step = min(dtmax if dt is None else dt, t_end - t)
        if not step > 0.0:
            raise ValueError(f"time step {step} is not positive")
        if step > dtmax * (1.0 + 1e-12):
            warnings.warn(f"time step {step} exceeds the CFL bound {dtmax}", CflWarning)
        u = dec_step(disc, u, step, scheme, config, u_b=u_b, mass=mass, R_n=R)
        t += step
        times.append(t)
        R = disc.assemble(u, scheme, u_b)[0]
        if log is not None:
            log(t, u, mass @ u, float(np.abs(R).max()))
    return u, times
