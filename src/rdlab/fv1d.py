"""1D Burgers lab: conservative vs non-conservative updates on a uniform grid.

Both schemes are upwind for nonnegative data and share the positivity/TVD
constraint lam * max(u) <= 1; they differ only in whether the transport term
is written in flux form.  The non-conservative variant converges to wrong
shock speeds, which is what this module is built to demonstrate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .conslaw import Burgers
from .errors import DiagnosticError


@dataclass
class Grid1D:
    n: int
    x0: float = 0.0
    x1: float = 1.0
    periodic: bool = True

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need at least 3 cells")
        self.dx = (self.x1 - self.x0) / self.n
        self.x = self.x0 + self.dx * (np.arange(self.n) + 0.5)


def _check_cfl(u, lam):
    a = float(np.max(np.abs(u)))
    if lam * a > 1.0 + 1e-12:
        warnings.warn(f"lam*max|u| = {lam * a} exceeds 1", RuntimeWarning)


def _shift(u, periodic):
    """u_{i-1}; non-periodic grids repeat the first value (inflow hold)."""
    if periodic:
        return np.roll(u, 1)
    um = np.empty_like(u)
    um[1:] = u[:-1]
    um[0] = u[0]
    return um


def step_nonconservative(u, lam, periodic=True):
    """u_i - lam * u_i * (u_i - u_{i-1})."""
    u = np.asarray(u, dtype=float)
    _check_cfl(u, lam)
    return u - lam * u * (u - _shift(u, periodic))


def step_conservative(u, lam, periodic=True):
    """u_i - lam * (f(u_i) - f(u_{i-1})), f(u) = u^2/2."""
    u = np.asarray(u, dtype=float)
    _check_cfl(u, lam)
    f = Burgers().flux(u[..., None])[..., 0, 0]
    return u - lam * (f - _shift(f, periodic))


STEPPERS = {"cons": step_conservative, "noncons": step_nonconservative}


def total_variation(u, periodic=True):
    u = np.asarray(u, dtype=float)
    tv = float(np.abs(np.diff(u)).sum())
    if periodic:
        tv += abs(float(u[0] - u[-1]))
    return tv


def tadmor_cell_entropy(u_i, u_ip1):
    """Numerical entropy flux g_{i+1/2} = vbar * fhat - thetabar.

    Square entropy for Burgers: v = u, theta(v) = v^3/6, and the upwind
    numerical flux fhat = f(u_i).  Consistent: g(u, u) = u^3/3.
    """
    u_i = np.asarray(u_i, dtype=float)
    u_ip1 = np.asarray(u_ip1, dtype=float)
    vbar = 0.5 * (u_i + u_ip1)
    thetabar = 0.5 * (u_i**3 + u_ip1**3) / 6.0
    return vbar * Burgers().flux(u_i[..., None])[..., 0, 0] - thetabar


def cell_entropy_defect(u, u_next, lam, periodic=True):
    """E(u^{n+1}) - E(u^n) + lam * (g_{i+1/2} - g_{i-1/2}) per cell.

    Nonpositive values certify the discrete entropy inequality.
    """
    u = np.asarray(u, dtype=float)
    u_next = np.asarray(u_next, dtype=float)
    up1 = np.roll(u, -1) if periodic else np.append(u[1:], u[-1])
    g_right = tadmor_cell_entropy(u, up1)
    g_left = _shift(g_right, periodic)
    return 0.5 * (u_next**2 - u**2) + lam * (g_right - g_left)


def run(scheme, u0, lam, n_steps, periodic=True, snapshot_every=None):
    """March ``n_steps``; returns (final u, list of (step, u) snapshots)."""
    stepper = STEPPERS[scheme]
    u = np.array(u0, dtype=float)
    snaps = [(0, u.copy())]
    for k in range(1, n_steps + 1):
        u = stepper(u, lam, periodic)
        if snapshot_every and k % snapshot_every == 0:
            snaps.append((k, u.copy()))
    if not snapshot_every or snaps[-1][0] != n_steps:
        snaps.append((n_steps, u.copy()))
    return u, snaps


def locate_jump(x, u):
    """Mid-jump position: first window of 3 cells whose jump exceeds half the range of
    ``u`` exactly scaled below 1 by a power of two, refined linearly to the mid level."""
    u = np.asarray(u, dtype=float)
    u = np.ldexp(u, -np.frexp(np.abs(u).max())[1])
    half = 0.5 * float(u.max() - u.min())
    if half <= 0.0:
        raise DiagnosticError("constant profile, no discontinuity")
    mid = 0.5 * u.max() + 0.5 * u.min()
    for i in range(len(u) - 3):
        if abs(u[i + 3] - u[i]) > half:
            for j in range(i, i + 3):
                a, b = u[j], u[j + 1]
                if min(a, b) <= mid <= max(a, b) and a != b:
                    t = (mid - a) / (b - a)
                    return float(x[j] + t * (x[j + 1] - x[j]))
    raise DiagnosticError("no jump above half the data range")


def measure_shock_speed(snapshots, x, dt):
    """Least-squares slope of mid-jump position against time.

    ``snapshots`` is a list of (step index, profile) pairs.
    """
    ts, pos = [], []
    for k, u in snapshots:
        try:
            p = locate_jump(x, u)
        except DiagnosticError:
            continue
        ts.append(k * dt)
        pos.append(p)
    if len(ts) < 2:
        raise DiagnosticError("too few usable snapshots to fit a speed")
    slope = np.polyfit(ts, pos, 1)[0]
    return float(slope)
