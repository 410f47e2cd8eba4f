"""Deferred-correction time stepping with a lumped mass pairing.

The pairing <<u, v>> lumps each element with the weight C_K = |K|/#K, so no
mass matrix is inverted.  Two schemes are built.  Forward Euler is the lumped
step

    u^(1) = u^n - dt R(u^n) / C.

Crank-Nicholson takes that step and then one correction towards the
trapezoidal average of t_n and t_{n+1},

    <<u^(2), v>> = <<u^(1), v>> - <u^(1) - u^n, v> - dt (R(u^n) + R(u^(1))) / 2,

where <., .> is the consistent pairing.  Fields are (ndof, m).  It is second
order for the central ``galerkin`` split (acceptance criterion 08).  The
limited kinds add the consistent-mass term unlimited to a limited split: on
criterion 08's problem ``limited`` measures order 0.94 and ``limited_supg`` 0.93.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

MAX_STEPS = 10**6               # most steps a march may take


def check_step(step, left, first=None):
    """``ValueError`` for a step that is not > 0 or takes over ``MAX_STEPS`` to cover
    ``left``, naming the march's ``first`` step if the step shrank from it."""
    if not step > 0.0:
        raise ValueError(f"time step {step} is not positive")
    if left > MAX_STEPS * step:
        down = f", down from a first step of {first}" if first and step < first else ""
        raise ValueError(f"{left} left to t_end takes more than {MAX_STEPS} steps of {step}{down}")


class CflWarning(RuntimeWarning):
    """A given time step exceeds the CFL bound ``stable_dt`` of the state."""


@dataclass
class DecConfig:
    method: str                 # "euler" or "cn"
    cfl: float = 0.3

    def __post_init__(self):
        if self.method not in ("euler", "cn"):
            raise ValueError(f"unknown time method {self.method!r}")


def lumped_mass(disc):
    """Per-DOF lumped mass, the sum of C_K = |K|/#K over the elements."""
    C = disc.measure / disc.nloc
    return np.bincount(disc.dofmap.element_dofs.ravel(), np.repeat(C, disc.nloc),
                       disc.dofmap.n_dofs)


def mass_apply(disc, w):
    """Consistent mass action <w, phi_sigma> for a DOF field w (ndof, m)."""
    w = np.asarray(w, dtype=float)
    return disc.scatter(disc.element_mass @ w[disc.dofmap.element_dofs])


def stable_dt(disc, u, cfl):
    """CFL time step from the smallest element and largest axis wave speed;
    ``u`` is (ndof, m).  A ``linear`` law reads the per-mesh ``linear_speed``,
    so only its NaN state does not give a NaN step."""
    u = np.asarray(u, dtype=float)
    speed = disc.linear_speed if disc.law.linear else float(
        np.max(disc.law.max_wave_speed(u[:, None, :], np.eye(disc.mesh.dim))))
    speed *= np.sqrt(disc.mesh.dim)
    return np.inf if speed <= 0.0 else cfl * disc.hmin / speed


def dec_step(disc, u_n, dt, scheme, config, mass, u_b=None, R_n=None):
    """One time step of ``config.method`` with the lumped ``mass``; ``dt`` is
    taken as given (``march`` checks it against ``stable_dt``).

    ``R_n``, if given, is the residual at ``u_n``; it is not recomputed.
    """
    u_n = np.asarray(u_n, dtype=float)
    if R_n is None:
        R_n = disc.assemble(u_n, scheme, u_b)[0]
    u_p = u_n - dt * R_n / mass[:, None]
    if config.method == "cn":
        A = dt * (0.5 * R_n + 0.5 * disc.assemble(u_p, scheme, u_b)[0])
        u_p = (mass[:, None] * u_p - mass_apply(disc, u_p - u_n) - A) / mass[:, None]
    return u_p


def march(t_end, state, bound, advance, dt=None):
    """March ``state`` to a finite ``t_end`` >= 0; returns (final state, records).

    Each step is ``bound(state)``, or ``dt`` if given, clipped to ``t_end - t``;
    it passes ``check_step`` and warns ``CflWarning`` where it exceeds the bound.
    ``advance(state, step)`` returns the next state and a tuple of values the
    step computed; each step's record is ``(t, *that tuple)``.
    """
    if not 0.0 <= t_end < np.inf:
        raise ValueError(f"t_end {t_end} is not a finite number >= 0")
    t, first, records = 0.0, None, []
    while t < t_end - 1e-14:
        dtmax = bound(state)
        step = min(dtmax if dt is None else dt, t_end - t)
        check_step(step, t_end - t, first)
        first = first or step
        if step > dtmax * (1.0 + 1e-12):
            warnings.warn(f"time step {step} exceeds the CFL bound {dtmax}", CflWarning)
        state, record = advance(state, step)
        t += step
        records.append((t, *record))
    return state, records


def dec_run(disc, u0, t_end, scheme, config, u_b=None, dt=None):
    """``march`` with the ``stable_dt`` bound; returns (final state, records,
    final ``ResidualSet``).  Each record is ``(t, mass @ u, max |R|, u.min(),
    u.max())`` at the step's new state ``u``: the total lumped mass per
    component, the residual infinity norm and the extrema.  The residual at
    each state is computed once; it serves the record, the next step and the
    returned set."""
    mass = lumped_mass(disc)
    u = np.array(u0, dtype=float)
    u = u[:, None] if u.ndim == 1 else u

    def advance(state, step):
        u = dec_step(disc, state[0], step, scheme, config, mass, u_b=u_b, R_n=state[1])
        R, rset = disc.assemble(u, scheme, u_b)
        return (u, R, rset), (mass @ u, float(np.abs(R).max()), u.min(), u.max())

    (u, _, rset), records = march(t_end, (u, *disc.assemble(u, scheme, u_b)),
                                  lambda state: stable_dt(disc, state[0], config.cfl),
                                  advance, dt)
    return u, records, rset
