"""Conservation law descriptors: fluxes, Jacobian actions, entropy pairs.

States are numpy arrays of shape (..., m). ``flux`` returns (..., d, m) and
``jac_n`` the m-by-m matrix of the normal-flux Jacobian, shape (..., m, m);
its normals (..., d) broadcast against the leading axes of the states.
"""

from __future__ import annotations

import numpy as np

from .errors import InadmissibleStateError

ADMISSIBLE_TOL = 1e-12


class ConservationLaw:
    """Base descriptor; subclasses set ``m`` (components) and ``dim``."""

    m = 1
    dim = 1
    name = "abstract"
    has_entropy = False

    def flux(self, u):
        raise NotImplementedError

    def jac_n(self, u, n):
        raise NotImplementedError

    def admissible(self, u):
        """Mask of the states (..., m) the flux accepts, shape (...)."""
        return np.ones(np.shape(u)[:-1], dtype=bool)

    def max_wave_speed(self, u, n):
        """Spectral radius of the normal Jacobian of a scalar law, vectorised
        over states; systems override it with their closed form."""
        return np.abs(self.jac_n(u, n)[..., 0, 0])

    # entropy pair interface (scalar laws with the square entropy)
    def entropy(self, u):
        raise NotImplementedError

    def entropy_var(self, u):
        raise NotImplementedError

    def entropy_flux(self, u):
        raise NotImplementedError


class Advection(ConservationLaw):
    """Linear transport with constant speed vector ``a``."""

    has_entropy = True

    def __init__(self, a):
        self.a = np.atleast_1d(np.asarray(a, dtype=float))
        self.dim = self.a.shape[0]
        self.name = "advection"

    def flux(self, u):
        u = np.asarray(u, dtype=float)
        return self.a.reshape((1,) * (u.ndim - 1) + (self.dim, 1)) * u[..., None, :]

    def jac_n(self, u, n):
        u = np.asarray(u, dtype=float)
        an = np.asarray(n, dtype=float) @ self.a
        return (np.zeros(u.shape[:-1]) + an)[..., None, None]

    def entropy(self, u):
        return 0.5 * np.asarray(u)[..., 0] ** 2

    def entropy_var(self, u):
        return np.asarray(u, dtype=float).copy()

    def entropy_flux(self, u):
        e = self.entropy(u)
        return self.a * e[..., None]


class Burgers(ConservationLaw):
    """f(u) = u^2/2 along the x axis."""

    has_entropy = True

    def __init__(self, dim=1):
        self.dim = dim
        self.d = np.eye(dim)[0]
        self.name = "burgers"

    def flux(self, u):
        u = np.asarray(u, dtype=float)
        f = 0.5 * u[..., 0] ** 2
        return self.d.reshape((1,) * (u.ndim - 1) + (self.dim, 1)) * f[..., None, None]

    def jac_n(self, u, n):
        u = np.asarray(u, dtype=float)
        dn = np.asarray(n, dtype=float) @ self.d
        return (u[..., 0] * dn)[..., None, None]

    def entropy(self, u):
        return 0.5 * np.asarray(u)[..., 0] ** 2

    def entropy_var(self, u):
        return np.asarray(u, dtype=float).copy()

    def entropy_flux(self, u):
        g = np.asarray(u)[..., 0] ** 3 / 3.0
        return self.d * g[..., None]


class CubicTransport(ConservationLaw):
    """The v-form of Burgers under u = v^3: flux v^4/4, 1D only."""

    def __init__(self):
        self.name = "cubic"

    def flux(self, u):
        u = np.asarray(u, dtype=float)
        return (0.25 * u[..., 0] ** 4)[..., None, None]

    def jac_n(self, u, n):
        u = np.asarray(u, dtype=float)
        return (u[..., 0] ** 3 * np.asarray(n, dtype=float)[..., 0])[..., None, None]


def burgers_flux(u):
    return 0.5 * np.asarray(u, dtype=float) ** 2


def rh_shock_speed(uL, uR, law):
    """Jump speed (f(uR)-f(uL))/(uR-uL); characteristic speed if uL == uR."""
    uL = np.atleast_1d(np.asarray(uL, dtype=float))
    uR = np.atleast_1d(np.asarray(uR, dtype=float))
    n = np.zeros(law.dim)
    n[0] = 1.0
    if np.array_equal(uL, uR):
        return float(law.jac_n(uL, n)[0, 0])
    fL = law.flux(uL)[0]  # first spatial direction
    fR = law.flux(uR)[0]
    return float((fR[0] - fL[0]) / (uR[0] - uL[0]))


# ---------------------------------------------------------------------------
# compressible Euler (perfect gas)


def _decode(u, gamma):
    """Density, velocity and pressure of conserved states (..., m),
    unchecked: a zero density gives inf or NaN."""
    u = np.asarray(u, dtype=float)
    rho = u[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        v = u[..., 1:-1] / rho[..., None]
        ke = 0.5 * rho * (v * v).sum(axis=-1)
    return rho, v, (gamma - 1.0) * (u[..., -1] - ke)


def _admissible(rho, p):
    """Where density and pressure reach ``ADMISSIBLE_TOL``; NaN fails."""
    return (np.asarray(rho) >= ADMISSIBLE_TOL) & (np.asarray(p) >= ADMISSIBLE_TOL)


def _check_admissible(rho, p):
    ok = _admissible(rho, p)
    if not ok.all():
        i = int(np.argmin(ok))
        rho, p = (a.flat[i] for a in np.broadcast_arrays(rho, p))
        raise InadmissibleStateError(f"density {rho} or pressure {p} below {ADMISSIBLE_TOL}")


def primitive_from_conserved(u, gamma=1.4):
    """(rho, m, E) -> (rho, v, p); vectorised over leading axes."""
    rho, v, p = _decode(u, gamma)
    _check_admissible(rho, p)
    return np.concatenate([rho[..., None], v, p[..., None]], axis=-1)


def conserved_from_primitive(w, gamma=1.4):
    """(rho, v, p) -> (rho, m, E)."""
    w = np.asarray(w, dtype=float)
    d = w.shape[-1] - 2
    rho, p = w[..., 0], w[..., -1]
    _check_admissible(rho, p)
    v = w[..., 1 : 1 + d]
    out = np.empty_like(w)
    out[..., 0] = rho
    out[..., 1 : 1 + d] = rho[..., None] * v
    out[..., -1] = p / (gamma - 1.0) + 0.5 * rho * np.sum(v * v, axis=-1)
    return out


def euler_flux(u, gamma=1.4):
    """Flux tensor of conserved Euler state(s) (..., m), shape (..., d, m)."""
    u = np.asarray(u, dtype=float)
    rho, v, p = _decode(u, gamma)
    _check_admissible(rho, p)
    m = u.shape[-1]
    rv = rho[..., None] * v                                 # momentum rho v_k
    f = np.empty(u.shape[:-1] + (m - 2, m))
    f[..., 0] = rv
    f[..., 1:-1] = rv[..., :, None] * v[..., None, :]       # (rho v_k) v_i
    f[..., -1] = v * (u[..., -1] + p)[..., None]
    # the entries (k, 1 + k) are every (m + 1)-th of the flattened (d, m)
    f.reshape(u.shape[:-1] + (-1,))[..., 1 :: m + 1] += p[..., None]
    return f


class Euler(ConservationLaw):
    """Conserved-variable perfect-gas Euler system in ``dim`` dimensions."""

    def __init__(self, gamma=1.4, dim=2):
        self.gamma = float(gamma)
        self.dim = dim
        self.m = dim + 2
        self.name = "euler"

    def flux(self, u):
        return euler_flux(u, self.gamma)

    def jac_n(self, u, n):
        u = np.asarray(u, dtype=float)
        d = self.dim
        g = self.gamma
        k = g - 1.0
        rho, v, p = _decode(u, g)
        _check_admissible(rho, p)
        n = np.asarray(n, dtype=float)
        vn = np.sum(v * n, axis=-1)
        q2 = np.sum(v * v, axis=-1)
        H = (u[..., -1] + p) / rho
        A = np.zeros(np.broadcast_shapes(u.shape[:-1], n.shape[:-1]) + (self.m, self.m))
        A[..., 0, 1 : 1 + d] = n
        for i in range(d):
            A[..., 1 + i, 0] = 0.5 * k * q2 * n[..., i] - v[..., i] * vn
            for j in range(d):
                A[..., 1 + i, 1 + j] = v[..., i] * n[..., j] - k * v[..., j] * n[..., i]
            A[..., 1 + i, 1 + i] += vn
            A[..., 1 + i, -1] = k * n[..., i]
        A[..., -1, 0] = (0.5 * k * q2 - H) * vn
        A[..., -1, 1 : 1 + d] = H[..., None] * n - k * v * vn[..., None]
        A[..., -1, -1] = g * vn
        return A

    def max_wave_speed(self, u, n):
        rho, v, p = _decode(u, self.gamma)
        _check_admissible(rho, p)
        vn = np.sum(v * np.asarray(n), axis=-1)
        a = np.sqrt(self.gamma * p / rho)
        return np.abs(vn) + a * np.linalg.norm(n, axis=-1)

    def admissible(self, u):
        rho, _, p = _decode(u, self.gamma)
        return _admissible(rho, p)


# ---------------------------------------------------------------------------
# name-based construction for config files


def make_law(spec, dim=None):
    """Build a law from a config string such as ``advection(1,0.5)``."""
    spec = spec.strip()
    args = []
    name = spec
    if "(" in spec:
        if not spec.endswith(")"):
            raise ValueError(f"malformed law spec: {spec!r}")
        name, rest = spec.split("(", 1)
        body = rest[:-1].strip()
        if body:
            args = [float(t) for t in body.split(",")]
    name = name.strip().lower()
    if name == "burgers":
        return Burgers(dim=dim or 1)
    if name == "cubic":
        return CubicTransport()
    if name == "advection":
        if not args:
            args = [1.0] if (dim or 1) == 1 else [1.0, 0.0]
        return Advection(args)
    if name == "euler":
        gamma = args[0] if args else 1.4
        return Euler(gamma=gamma, dim=dim or 2)
    raise ValueError(f"unknown conservation law: {name!r}")
