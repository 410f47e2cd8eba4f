"""Conservation law descriptors: fluxes, Jacobian actions, entropy pairs.

The scalar laws are one family, f(u) = a u^p / p: linear advection (p = 1),
Burgers (p = 2) and the cubic transport of the non-conservative
counterexample (p = 4), all with the square entropy u^2/2; the system is
perfect-gas Euler.  States are numpy arrays of shape (..., m). ``flux``
returns (..., d, m) and ``jac_n`` the m-by-m matrix of the normal-flux
Jacobian, shape (..., m, m); its normals (..., d) broadcast against the
leading axes of the states.  ``jac_n`` is linear in the normal, so ``rd_core``'s
SUPG term reads A(u).grad(u_h) as sum_s jac_n(u, grad(phi_s)) u_s.
"""

from __future__ import annotations

import numpy as np

from .errors import InadmissibleStateError

ADMISSIBLE_TOL = 1e-12


class ConservationLaw:
    """Base descriptor; subclasses set ``m`` (components) and ``dim``.
    A ``linear`` law's flux is linear in u and its ``jac_n`` reads the normal,
    not the state; the per-mesh tables ``rd_core`` builds for it rely on both."""

    m = 1
    dim = 1
    name = "abstract"
    has_entropy = False
    linear = False

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


class ScalarLaw(ConservationLaw):
    """f(u) = a u^p / p along a constant direction ``a``, with the square
    entropy pair E = u^2/2, v = u and G = a u^(p+1) / (p+1)."""

    has_entropy = True

    def __init__(self, a, p, name):
        self.a = np.atleast_1d(np.asarray(a, dtype=float))
        if not np.isfinite(self.a).all():
            raise ValueError(f"{name} direction {self.a} is not finite")
        self.dim = self.a.shape[0]
        self.p = p
        self.linear = p == 1
        self.name = name

    def flux(self, u):
        u = np.asarray(u, dtype=float)
        return self.a[:, None] * (u[..., None, :] ** self.p / self.p)

    def jac_n(self, u, n):
        u = np.asarray(u, dtype=float)
        n = np.asarray(n, dtype=float)
        an = n[..., 0] * self.a[0]          # n . a, faster than n @ a for small dim
        for i in range(1, self.dim):
            an += n[..., i] * self.a[i]
        return (u[..., 0] ** (self.p - 1) * an)[..., None, None]

    def entropy(self, u):
        return 0.5 * np.asarray(u)[..., 0] ** 2

    def entropy_var(self, u):
        return np.asarray(u, dtype=float).copy()

    def entropy_flux(self, u):
        q = self.p + 1
        return self.a * (np.asarray(u)[..., 0] ** q / q)[..., None]


class Advection(ScalarLaw):
    """Linear transport with constant speed vector ``a``."""

    def __init__(self, a):
        super().__init__(a, 1, "advection")


class Burgers(ScalarLaw):
    """f(u) = u^2/2 along the x axis."""

    def __init__(self, dim=1):
        super().__init__(np.eye(dim)[0], 2, "burgers")


class CubicTransport(ScalarLaw):
    """The v-form of Burgers under u = v^3: flux v^4/4, 1D only.  Its pair
    is the square entropy of v, not of u, so the entropy audit skips it."""

    has_entropy = False

    def __init__(self):
        super().__init__([1.0], 4, "cubic")


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
    f.reshape(u.shape[:-1] + ((m - 2) * m,))[..., 1 :: m + 1] += p[..., None]
    return f


class Euler(ConservationLaw):
    """Conserved-variable perfect-gas Euler system in ``dim`` dimensions."""

    def __init__(self, gamma=1.4, dim=2):
        self.gamma = float(gamma)
        if not 1.0 < self.gamma < np.inf:
            raise ValueError(f"gamma {gamma} is not in (1, inf)")
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
    most = {"burgers": 0, "cubic": 0, "euler": 1}.get(name, len(args))
    if len(args) > most:
        raise ValueError(f"{name} takes at most {most} parameter(s): {spec!r}")
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
