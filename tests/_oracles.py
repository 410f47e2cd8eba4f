"""Independent reference solutions used by the test suite.

Implemented from standard closed-form results, not from the package code:
an exact Riemann solver for the 1D perfect-gas Euler equations (Newton
iteration on the star pressure, plus a full similarity sampler).

The second half holds frozen copies of package code that was since
replaced: the per-element geometry, the per-element residual kernel and
deferred-correction stepper from before batching, the cell-loop mesh
builder and dictionary-based face code from before the face table, the
Euler flux assembled entry by entry from the primitive variables, and the
1D Euler step on (n, 3) arrays with B(W) as (n, 3, 3) matrices and its
corrections inline, kept as the references the current code must
reproduce.

The last section holds verbatim copies, frozen as of ``e731dd2``, of the
package code those references call: the bases, quadrature rules, DOF map
and local faces of ``rdlab.mesh``, the scalar and Euler laws of
``rdlab.conslaw``, and the primitive fluxes and initial state of
``rdlab.euler1d``.  A law a test passes in is read for its data only, and
a mesh for its vertices, elements and face table, so a change to a package
formula moves the code under test and not its reference.  From the package
this module imports only ``rdlab.errors`` and ``rdlab.rd_core.ResidualSet``,
the container the reference residual set is returned in.
"""

from __future__ import annotations

import functools
import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from rdlab.errors import (
    ConservationDefectError,
    DegenerateGeometryError,
    InadmissibleStateError,
    RdlabError,
    StepFailureError,
    UnsupportedFeatureError,
)
from rdlab.rd_core import ResidualSet


def _sound(rho, p, gamma):
    return np.sqrt(gamma * p / rho)


def _pressure_fn(p, rho_k, p_k, a_k, gamma):
    """f_K(p) and its derivative for one side of the Riemann problem."""
    if p > p_k:  # shock
        A = 2.0 / ((gamma + 1.0) * rho_k)
        B = (gamma - 1.0) / (gamma + 1.0) * p_k
        root = np.sqrt(A / (p + B))
        f = (p - p_k) * root
        df = root * (1.0 - 0.5 * (p - p_k) / (B + p))
    else:  # rarefaction
        f = 2.0 * a_k / (gamma - 1.0) * ((p / p_k) ** ((gamma - 1.0) / (2.0 * gamma)) - 1.0)
        df = (p / p_k) ** (-(gamma + 1.0) / (2.0 * gamma)) / (rho_k * a_k)
    return f, df


def riemann_star(left, right, gamma=1.4, tol=1e-13, max_iter=100):
    """Star-region pressure and velocity for primitive states (rho, u, p)."""
    rho_l, u_l, p_l = left
    rho_r, u_r, p_r = right
    a_l = _sound(rho_l, p_l, gamma)
    a_r = _sound(rho_r, p_r, gamma)
    du = u_r - u_l
    p = max(0.5 * (p_l + p_r), 1e-8)
    for _ in range(max_iter):
        f_l, df_l = _pressure_fn(p, rho_l, p_l, a_l, gamma)
        f_r, df_r = _pressure_fn(p, rho_r, p_r, a_r, gamma)
        g = f_l + f_r + du
        step = g / (df_l + df_r)
        p_new = max(p - step, 1e-10)
        if abs(p_new - p) <= tol * (1.0 + p):
            p = p_new
            break
        p = p_new
    f_l, _ = _pressure_fn(p, rho_l, p_l, a_l, gamma)
    f_r, _ = _pressure_fn(p, rho_r, p_r, a_r, gamma)
    u_star = 0.5 * (u_l + u_r) + 0.5 * (f_r - f_l)
    return p, u_star


def right_shock_speed(left, right, gamma=1.4):
    """Speed of the right wave when it is a shock (p_star > p_right)."""
    rho_r, u_r, p_r = right
    p_star, _ = riemann_star(left, right, gamma)
    if p_star <= p_r:
        raise ValueError("right wave is not a shock for this data")
    a_r = _sound(rho_r, p_r, gamma)
    g = gamma
    return u_r + a_r * np.sqrt(
        (g + 1.0) / (2.0 * g) * p_star / p_r + (g - 1.0) / (2.0 * g)
    )


def sample_riemann(left, right, xi, gamma=1.4):
    """Similarity solution (rho, u, p) at speeds xi = x/t; vectorised."""
    rho_l, u_l, p_l = left
    rho_r, u_r, p_r = right
    a_l = _sound(rho_l, p_l, gamma)
    a_r = _sound(rho_r, p_r, gamma)
    g = gamma
    gm, gp = g - 1.0, g + 1.0
    p_s, u_s = riemann_star(left, right, gamma)
    xi = np.asarray(xi, dtype=float)
    rho = np.empty_like(xi)
    u = np.empty_like(xi)
    p = np.empty_like(xi)

    def set_state(mask, r, v, q):
        rho[mask], u[mask], p[mask] = r, v, q

    # left side of the contact
    if p_s > p_l:  # left shock
        rho_sl = rho_l * ((p_s / p_l + gm / gp) / (gm / gp * p_s / p_l + 1.0))
        s_l = u_l - a_l * np.sqrt(gp / (2 * g) * p_s / p_l + gm / (2 * g))
        set_state(xi < s_l, rho_l, u_l, p_l)
        set_state((xi >= s_l) & (xi < u_s), rho_sl, u_s, p_s)
    else:  # left rarefaction
        rho_sl = rho_l * (p_s / p_l) ** (1.0 / g)
        a_sl = _sound(rho_sl, p_s, gamma)
        head, tail = u_l - a_l, u_s - a_sl
        set_state(xi < head, rho_l, u_l, p_l)
        fan = (xi >= head) & (xi < tail)
        if fan.any():
            v = 2.0 / gp * (a_l + 0.5 * gm * u_l + xi[fan])
            a = a_l - 0.5 * gm * (v - u_l)
            rho[fan] = rho_l * (a / a_l) ** (2.0 / gm)
            u[fan] = v
            p[fan] = p_l * (a / a_l) ** (2.0 * g / gm)
        set_state((xi >= tail) & (xi < u_s), rho_sl, u_s, p_s)

    # right side of the contact
    if p_s > p_r:  # right shock
        rho_sr = rho_r * ((p_s / p_r + gm / gp) / (gm / gp * p_s / p_r + 1.0))
        s_r = u_r + a_r * np.sqrt(gp / (2 * g) * p_s / p_r + gm / (2 * g))
        set_state((xi >= u_s) & (xi < s_r), rho_sr, u_s, p_s)
        set_state(xi >= s_r, rho_r, u_r, p_r)
    else:  # right rarefaction
        rho_sr = rho_r * (p_s / p_r) ** (1.0 / g)
        a_sr = _sound(rho_sr, p_s, gamma)
        tail, head = u_s + a_sr, u_r + a_r
        set_state((xi >= u_s) & (xi < tail), rho_sr, u_s, p_s)
        fan = (xi >= tail) & (xi < head)
        if fan.any():
            v = 2.0 / gp * (-a_r + 0.5 * gm * u_r + xi[fan])
            a = a_r + 0.5 * gm * (v - u_r)
            rho[fan] = rho_r * (a / a_r) ** (2.0 / gm)
            u[fan] = v
            p[fan] = p_r * (a / a_r) ** (2.0 * g / gm)
        set_state(xi >= head, rho_r, u_r, p_r)
    return rho, u, p


# ---------------------------------------------------------------------------
# Pre-geometry reference: the per-element geometry functions as they were
# before ``mesh.element_geometry`` replaced them, with one fix: the wrap-around
# cell of a periodic interval spans ``x1 + period - x0`` instead of the first
# sorted vertex gap, which was wrong on non-uniform meshes.  Used by the
# frozen kernel below and by test_face_table.py.

DEGENERATE_REL_TOL = 1e-14


def oracle_element_coords(mesh, e):
    return mesh.vertices[mesh.elements[e]]


def oracle_element_measure(mesh, e):
    v = oracle_element_coords(mesh, e)
    if mesh.dim == 1:
        x0, x1 = float(v[0, 0]), float(v[1, 0])
        if mesh.periodic and x1 <= x0:
            # wrap-around cell of a periodic interval
            return x1 + mesh.period - x0
        return x1 - x0
    a = v[1] - v[0]
    b = v[2] - v[0]
    return 0.5 * float(a[0] * b[1] - a[1] * b[0])


def oracle_element_diameter(mesh, e):
    v = oracle_element_coords(mesh, e)
    if mesh.dim == 1:
        return oracle_element_measure(mesh, e)
    d01 = np.linalg.norm(v[1] - v[0])
    d12 = np.linalg.norm(v[2] - v[1])
    d20 = np.linalg.norm(v[0] - v[2])
    return float(max(d01, d12, d20))


def oracle_element_scaled_normals(mesh, e):
    """Scaled inward normals n_j = 2|K| grad(phi_j); sum to zero."""
    if mesh.dim != 2:
        raise UnsupportedFeatureError("scaled normals are defined for 2D elements")
    v = oracle_element_coords(mesh, e)
    area = oracle_element_measure(mesh, e)
    h = oracle_element_diameter(mesh, e)
    if area <= DEGENERATE_REL_TOL * h * h:
        raise DegenerateGeometryError(f"element {e} has measure {area}")
    # edge opposite vertex j, rotated to point toward vertex j
    normals = np.empty((3, 2))
    for j in range(3):
        a, b = v[(j + 1) % 3], v[(j + 2) % 3]
        t = b - a
        normals[j] = (-t[1], t[0])  # ccw orientation -> inward
    return normals


def oracle_barycentric_gradients(mesh, e):
    """Gradients of the barycentric coordinates, shape (3, 2)."""
    return oracle_element_scaled_normals(mesh, e) / (2.0 * oracle_element_measure(mesh, e))


def oracle_face_geometry(mesh, e, local_face, npts):
    """Quadrature points on a triangle edge.

    Returns (x, w, normal, lam): physical points (npts, 2), weights including
    the edge length, outward unit normal, and barycentric coords (npts, 3).
    """
    v = oracle_element_coords(mesh, e)
    i, j = _TRI_FACES[local_face]
    t, w = gauss_01(npts)
    p, q = v[i], v[j]
    x = p[None, :] + t[:, None] * (q - p)[None, :]
    length = float(np.linalg.norm(q - p))
    tv = (q - p) / length
    normal = np.array([tv[1], -tv[0]])
    lam = np.zeros((npts, 3))
    lam[:, i] = 1.0 - t
    lam[:, j] = t
    return x, w * length, normal, lam


# ---------------------------------------------------------------------------
# Pre-batching reference: the per-element residual kernel and the
# deferred-correction stepper as they were before the batched kernel, loops
# over elements, quadrature points and DOF pairs included.  The P2
# ``face_local_dofs`` lookup is the package one, frozen below (the copy
# frozen with this kernel raised KeyError on local face 1).  Used by
# test_batched_equivalence.py.


class OracleDiscretization:
    """Per-element ``Discretization`` as it was before batching."""

    def __init__(self, mesh, law, dofmap=None):
        self.mesh = mesh
        self.law = frozen_law(law)
        self.dofmap = dofmap if dofmap is not None else build_dofmap(mesh)
        self.m = law.m
        self.nloc = self.dofmap.dofs_per_element
        self._setup()

    # -- geometry / quadrature caches ------------------------------------

    def _setup(self):
        mesh = self.mesh
        ne = mesh.n_elements
        self.measure = np.array([oracle_element_measure(mesh, e) for e in range(ne)])
        self.diameter = np.array([oracle_element_diameter(mesh, e) for e in range(ne)])
        if mesh.dim == 2:
            self.bgrad = np.array(
                [oracle_barycentric_gradients(mesh, e) for e in range(ne)]
            )  # (ne, 3, 2)
            lam, w = volume_rule(mesh)
            self.vq_lam, self.vq_w = lam, w
            self.vq_phi = tri_basis(mesh.degree, lam)  # (nq, #K)
            self.fq_t, self.fq_w = face_rule(mesh)
            self._neighbors = self._build_neighbors()
        else:
            t, w = gauss_01(2)
            self.vq_t, self.vq_w = t, w
            self.vq_phi = interval_basis(t)

    def _build_neighbors(self):
        """Map (element, local_face) -> (neighbor element, its local face)."""
        owners = {}
        nbr = {}
        for e in range(self.mesh.n_elements):
            tri = self.mesh.elements[e]
            for lf, (i, j) in enumerate(_TRI_FACES):
                key = tuple(sorted((tri[i], tri[j])))
                if key in owners:
                    e2, lf2 = owners[key]
                    nbr[(e, lf)] = (e2, lf2)
                    nbr[(e2, lf2)] = (e, lf)
                else:
                    owners[key] = (e, lf)
        return nbr

    def element_values(self, e, u):
        """DOF values of one element, shape (#K, m)."""
        return np.asarray(u)[self.dofmap.element_dofs[e]]

    # -- residual families -------------------------------------------------

    def total_residual(self, e, u):
        """Boundary quadrature of the normal flux, an m-vector."""
        ue = self.element_values(e, u)
        if self.mesh.dim == 1:
            fr = self.law.flux(ue[1])[0]
            fl = self.law.flux(ue[0])[0]
            return fr - fl
        total = np.zeros(self.m)
        for lf in range(3):
            _, w, n, lam = oracle_face_geometry(self.mesh, e, lf, len(self.fq_t))
            phi = tri_basis(self.mesh.degree, lam)           # (nq, #K)
            uq = phi @ ue                                     # (nq, m)
            fq = self.law.flux(uq)                            # (nq, 2, m)
            fn = np.einsum("qdm,d->qm", fq, n)
            total += w @ fn
        return total

    def galerkin_residuals(self, e, u):
        """Phi_sigma = boundary term with phi_sigma weight minus volume term."""
        ue = self.element_values(e, u)
        phi = np.zeros((self.nloc, self.m))
        if self.mesh.dim == 1:
            h = self.measure[e]
            # boundary part: basis traces are Kronecker deltas at endpoints
            fr = self.law.flux(ue[1])[0]
            fl = self.law.flux(ue[0])[0]
            phi[0] -= fl
            phi[1] += fr
            # volume part: grad(phi) = (-1/h, 1/h)
            uq = self.vq_phi @ ue
            fq = self.law.flux(uq)[..., 0, :]                # (nq, m)
            integral = (self.vq_w * h) @ fq                   # (m,)
            phi[0] -= (-1.0 / h) * integral
            phi[1] -= (1.0 / h) * integral
            return phi
        for lf in range(3):
            _, w, n, lam = oracle_face_geometry(self.mesh, e, lf, len(self.fq_t))
            tb = tri_basis(self.mesh.degree, lam)
            uq = tb @ ue
            fn = np.einsum("qdm,d->qm", self.law.flux(uq), n)
            phi += np.einsum("q,qs,qm->sm", w, tb, fn)
        grads = tri_basis_grad(self.mesh.degree, self.vq_lam, self.bgrad[e])
        uq = self.vq_phi @ ue
        fq = self.law.flux(uq)                                # (nq, 2, m)
        wq = self.vq_w * self.measure[e]
        phi -= np.einsum("q,qsd,qdm->sm", wq, grads, fq)
        return phi

    def rusanov_alpha(self, e, u):
        """Dissipation bound #K * max_{s,s'} ||int phi_s J(u_h)*grad(phi_s')||."""
        ue = self.element_values(e, u)
        if self.mesh.dim == 1:
            h = self.measure[e]
            uq = self.vq_phi @ ue
            grads = np.array([[-1.0 / h], [1.0 / h]])        # (#K, 1)
            wq = self.vq_w * h
            best = 0.0
            for s in range(2):
                for sp in range(2):
                    acc = np.zeros((self.m, self.m))
                    for q in range(len(wq)):
                        acc += wq[q] * self.vq_phi[q, s] * self.law.jac_n(uq[q], grads[sp])
                    best = max(best, _specnorm(acc))
            return 2.0 * best
        grads = tri_basis_grad(self.mesh.degree, self.vq_lam, self.bgrad[e])
        uq = self.vq_phi @ ue
        wq = self.vq_w * self.measure[e]
        best = 0.0
        for s in range(self.nloc):
            for sp in range(self.nloc):
                acc = np.zeros((self.m, self.m))
                for q in range(len(wq)):
                    acc += wq[q] * self.vq_phi[q, s] * self.law.jac_n(uq[q], grads[q, sp])
                best = max(best, _specnorm(acc))
        return self.nloc * best

    def rusanov_residuals(self, e, u, alpha=None):
        ue = self.element_values(e, u)
        phi = self.galerkin_residuals(e, u)
        if alpha is None:
            alpha = self.rusanov_alpha(e, u)
        ubar = ue.mean(axis=0)
        return phi + alpha * (ue - ubar)

    def _tau(self, e, ubar):
        """Streamline relaxation time from the element wave-speed budget."""
        normals = oracle_element_scaled_normals(self.mesh, e) if self.mesh.dim == 2 \
            else np.array([[-1.0], [1.0]])
        speed = 0.0
        for n in normals:
            speed += float(self.law.max_wave_speed(ubar[None, :], n)[0])
        speed /= 2.0 * self.measure[e]
        if speed <= 0.0:
            return 0.0
        return 1.0 / (speed * self.diameter[e])

    def supg_residuals(self, e, u, tau_scale=1.0):
        ue = self.element_values(e, u)
        phi = self.galerkin_residuals(e, u)
        if self.mesh.dim == 1:
            h = self.measure[e]
            grads = np.array([[-1.0 / h], [1.0 / h]])
            gq = np.broadcast_to(grads, (len(self.vq_w), 2, 1))
        else:
            gq = tri_basis_grad(self.mesh.degree, self.vq_lam, self.bgrad[e])
        uq = self.vq_phi @ ue
        wq = self.vq_w * self.measure[e]
        tau = tau_scale * self._tau(e, ue.mean(axis=0))
        hK = self.diameter[e]
        dim = gq.shape[-1]
        for q in range(len(wq)):
            # A.grad(u_h) at the quadrature point
            du = gq[q].T @ ue                                 # (dim, m) gradient
            adu = np.zeros(self.m)
            for k in range(dim):
                ek = np.zeros(dim)
                ek[k] = 1.0
                adu += self.law.jac_n(uq[q], ek) @ du[k]
            for s in range(self.nloc):
                aphi = self.law.jac_n(uq[q], gq[q, s])        # A.grad(phi_s)
                phi[s] += wq[q] * hK * tau * (aphi @ adu)
        return phi

    def _edge_gradient(self, e, u, xq):
        """Gradient of u_h of element e at physical points xq, (nq, dim, m)."""
        ue = self.element_values(e, u)
        v = oracle_element_coords(self.mesh, e)
        lam = _bary_coords(v, xq)
        gq = tri_basis_grad(self.mesh.degree, lam, self.bgrad[e])
        return np.einsum("qsd,sm->qdm", gq, ue)

    def jump_residuals(self, e, u, theta_e=0.01):
        if self.mesh.dim != 2:
            raise UnsupportedFeatureError("gradient-jump stabilization needs 2D")
        phi = self.galerkin_residuals(e, u)
        nq = len(self.fq_t)
        for lf in range(3):
            if (e, lf) not in self._neighbors:
                continue
            e2, _ = self._neighbors[(e, lf)]
            xq, w, n, lam = oracle_face_geometry(self.mesh, e, lf, nq)
            he = float(np.sum(w))
            grad_in = self._edge_gradient(e, u, xq)           # (nq, 2, m)
            grad_out = self._edge_gradient(e2, u, xq)
            jump = grad_in - grad_out                         # (nq, 2, m)
            gphi = tri_basis_grad(self.mesh.degree, lam, self.bgrad[e])
            coef = 0.5 * theta_e * he * he
            phi += coef * np.einsum("q,qsd,qdm->sm", w, gphi, jump)
        return phi

    def element_residuals(self, e, u, scheme):
        """Distribute the element residual per the scheme kind."""
        k = scheme.kind
        if k == "galerkin":
            return self.galerkin_residuals(e, u)
        if k == "rusanov":
            return self.rusanov_residuals(e, u, alpha=scheme.alpha)
        if k == "supg":
            return self.supg_residuals(e, u, scheme.tau_scale)
        if k == "jump":
            return self.jump_residuals(e, u, scheme.theta_e)
        # limited variants blend the Rusanov split, then add stabilization
        phi_mono = self.rusanov_residuals(e, u, alpha=scheme.alpha)
        total = phi_mono.sum(axis=0)
        _, limited = oracle_blend_limiter(phi_mono, total)
        if k == "limited":
            return limited
        base = self.galerkin_residuals(e, u)
        if k == "limited_supg":
            stab = self.supg_residuals(e, u, scheme.tau_scale) - base
        else:
            stab = self.jump_residuals(e, u, scheme.theta_e) - base
        return limited + scheme.gamma_jump * stab

    # -- boundary ---------------------------------------------------------

    def upwind_flux(self, uh, ub, n):
        """Normal interface flux; picks the boundary state on inflow."""
        uh = np.atleast_1d(uh)
        ub = np.atleast_1d(ub)
        fh = np.einsum("dm,d->m", self.law.flux(uh), n)
        fb = np.einsum("dm,d->m", self.law.flux(ub), n)
        if self.m == 1:
            speed = float(self.law.jac_n(0.5 * (uh + ub), n)[0, 0])
            return fh if speed >= 0.0 else fb
        # systems: characteristic upwinding at the average state
        A = self.law.jac_n(0.5 * (uh + ub), np.asarray(n, dtype=float))
        lam, R = np.linalg.eig(A)
        absA = (R * np.abs(lam)) @ np.linalg.inv(R)
        return 0.5 * (fh + fb) - 0.5 * np.real(absA) @ (ub - uh)

    def boundary_residuals(self, face, u, u_b):
        """Weak boundary contribution of one boundary face.

        Returns (local DOF ids on the face, per-DOF residuals (nfd, m)).
        ``u_b`` is a constant state or a callable of position.
        """
        e, lf = face
        ue = self.element_values(e, u)
        if self.mesh.dim == 1:
            x = oracle_element_coords(self.mesh, e)[lf]
            uh = ue[lf]
            ub = np.atleast_1d(u_b(x)) if callable(u_b) else np.atleast_1d(u_b)
            n = np.array([(-1.0, 1.0)[lf]])
            fn = self.upwind_flux(uh, ub, n)
            fh = np.einsum("dm,d->m", self.law.flux(np.atleast_1d(uh)), n)
            dofs = (lf,)
            return dofs, (fn - fh)[None, :]
        nq = len(self.fq_t) + 1  # one extra point, exact for the upwind product
        xq, w, n, lam = oracle_face_geometry(self.mesh, e, lf, nq)
        tb = tri_basis(self.mesh.degree, lam)
        uq = tb @ ue
        dofs = face_local_dofs(self.mesh, lf)
        psi = np.zeros((len(dofs), self.m))
        for q in range(nq):
            ub = np.atleast_1d(u_b(xq[q])) if callable(u_b) else np.atleast_1d(u_b)
            fn = self.upwind_flux(uq[q], ub, n)
            fh = np.einsum("dm,d->m", self.law.flux(uq[q][None, :])[0], n)
            diff = fn - fh
            for i, s in enumerate(dofs):
                psi[i] += w[q] * tb[q, s] * diff
        return dofs, psi

    # -- assembly -----------------------------------------------------------

    def residual_set(self, u, scheme, u_b=None):
        ne = self.mesh.n_elements
        phi = np.zeros((ne, self.nloc, self.m))
        for e in range(ne):
            try:
                phi[e] = self.element_residuals(e, u, scheme)
            except InadmissibleStateError as err:
                raise StepFailureError(
                    f"inadmissible state in element {e}: {err}", element=e
                ) from err
        boundary = None
        if u_b is not None and self.mesh.boundary_faces:
            boundary = np.array([self.boundary_residuals(face, u, u_b)[1]
                                 for face in self.mesh.boundary_faces])
        return ResidualSet(phi=phi, boundary=boundary)

    def assemble(self, u, scheme, u_b=None):
        """Per-DOF residual R_sigma; fixed element order for bit stability."""
        rset = self.residual_set(u, scheme, u_b)
        R = np.zeros((self.dofmap.n_dofs, self.m))
        for e in range(self.mesh.n_elements):
            dofs = self.dofmap.element_dofs[e]
            for s in range(self.nloc):
                R[dofs[s]] += rset.phi[e, s]
        if rset.boundary is not None:
            for face, psi in zip(self.mesh.boundary_faces, rset.boundary):
                e, lf = face
                gdofs = self.dofmap.element_dofs[e]
                local_dofs = face_local_dofs(self.mesh, lf)
                for k, s in enumerate(local_dofs):
                    R[gdofs[s]] += psi[k]
        return R, rset


def oracle_rusanov_coefficients(disc, e, u, alpha=None):
    """Monotone-form coefficients c[s, sp] of the scalar Rusanov split.

    For scalar laws the residual is Phi_s = sum_sp c[s, sp] (u_s - u_sp) with
    c[s, sp] = alpha/#K - int phi_s a.grad(phi_sp); all entries are
    nonnegative when alpha meets the dissipation bound.
    """
    if disc.m != 1:
        raise UnsupportedFeatureError("coefficient extraction is scalar-only")
    if alpha is None:
        alpha = disc.rusanov_alpha(e, u)
    ue = disc.element_values(e, u)
    if disc.mesh.dim == 1:
        h = disc.measure[e]
        gq = np.broadcast_to(
            np.array([[-1.0 / h], [1.0 / h]]), (len(disc.vq_w), 2, 1)
        )
    else:
        gq = tri_basis_grad(disc.mesh.degree, disc.vq_lam, disc.bgrad[e])
    uq = disc.vq_phi @ ue
    wq = disc.vq_w * disc.measure[e]
    c = np.full((disc.nloc, disc.nloc), alpha / disc.nloc)
    for q in range(len(wq)):
        for sp in range(disc.nloc):
            adv = float(disc.law.jac_n(uq[q], gq[q, sp])[0, 0])
            c[:, sp] -= wq[q] * disc.vq_phi[q] * adv
    np.fill_diagonal(c, 0.0)
    return c


def oracle_monotone_dt(disc, u, mass, alpha=None, safety=1.0):
    """Largest forward-Euler step keeping the scalar Rusanov split monotone.

    Bound: dt * sum_K sum_sp max(c_ssp, 0) <= mass_s for every DOF s.
    """
    budget = np.zeros(disc.dofmap.n_dofs)
    for e in range(disc.mesh.n_elements):
        c = oracle_rusanov_coefficients(disc, e, u, alpha=alpha)
        rowsum = np.maximum(c, 0.0).sum(axis=1)
        budget[disc.dofmap.element_dofs[e]] += rowsum
    positive = budget > 0.0
    if not positive.any():
        return np.inf
    return safety * float((mass[positive] / budget[positive]).min())


def oracle_blend_limiter(phi_L, total):
    """Convex reweighting of a monotone split; componentwise for systems.

    Returns (beta, limited residuals beta_sigma * total).  The split must be
    conservative: sum(phi_L) == total within 1e-10 relative.
    """
    phi_L = np.asarray(phi_L, dtype=float)
    total = np.asarray(total, dtype=float)
    nloc, m = phi_L.shape
    defect = np.abs(phi_L.sum(axis=0) - total)
    if np.any(defect > 1e-10 * (1.0 + np.abs(total))):
        raise ConservationDefectError("limiter input is not conservative", defect)
    beta = np.empty((nloc, m))
    for c in range(m):
        if abs(total[c]) <= BLEND_ZERO_TOL * (1.0 + np.abs(phi_L[:, c]).max()):
            beta[:, c] = 1.0 / nloc
            continue
        ratios = phi_L[:, c] / total[c]
        num = np.maximum(0.0, ratios)
        den = num.sum()
        if den <= 0.0:
            raise InternalConsistencyError(
                "all limiter ratios clipped although the total is nonzero"
            )
        beta[:, c] = num / den
    return beta, beta * total[None, :]


def _specnorm(a):
    if a.shape == (1, 1):
        return abs(float(a[0, 0]))
    return float(np.linalg.norm(a, 2))


def oracle_euler_flux(u, gamma=1.4):
    """Flux tensor of conserved Euler state(s), shape (..., d, m), filled
    entry by entry from ``primitive_from_conserved``."""
    u = np.asarray(u, dtype=float)
    d = u.shape[-1] - 2
    w = primitive_from_conserved(u, gamma)
    rho, v, p = w[..., 0], w[..., 1 : 1 + d], w[..., -1]
    E = u[..., -1]
    f = np.zeros(u.shape[:-1] + (d, u.shape[-1]))
    for k in range(d):
        f[..., k, 0] = rho * v[..., k]
        for i in range(d):
            f[..., k, 1 + i] = rho * v[..., k] * v[..., i]
        f[..., k, 1 + k] += p
        f[..., k, -1] = v[..., k] * (E + p)
    return f


def _bary_coords(v, x):
    """Barycentric coordinates of points ``x`` (nq, 2) in triangle ``v``."""
    T = np.array([v[0] - v[2], v[1] - v[2]]).T  # (2, 2)
    sol = np.linalg.solve(T, (np.asarray(x) - v[2]).T).T
    lam = np.empty((x.shape[0], 3))
    lam[:, 0] = sol[:, 0]
    lam[:, 1] = sol[:, 1]
    lam[:, 2] = 1.0 - sol[:, 0] - sol[:, 1]
    return lam


def oracle_lumped_mass(disc):
    C = disc.measure / disc.nloc
    mass = np.zeros(disc.dofmap.n_dofs)
    for e in range(disc.mesh.n_elements):
        mass[disc.dofmap.element_dofs[e]] += C[e]
    return mass, C


def oracle_element_mass_matrix(disc, e):
    phi = disc.vq_phi
    w = disc.vq_w * disc.measure[e]
    return np.einsum("q,qi,qj->ij", w, phi, phi)


def oracle_mass_apply(disc, w):
    w = np.atleast_2d(np.asarray(w, dtype=float))
    if w.shape[0] != disc.dofmap.n_dofs:
        w = w.T
    out = np.zeros_like(w)
    for e in range(disc.mesh.n_elements):
        dofs = disc.dofmap.element_dofs[e]
        Me = oracle_element_mass_matrix(disc, e)
        out[dofs] += Me @ w[dofs]
    return out


def oracle_stable_dt(disc, u, cfl):
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.shape[0] != disc.dofmap.n_dofs:
        u = u.T
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


def _oracle_residual(disc, u, scheme, u_b):
    R, _ = disc.assemble(u, scheme, u_b)
    return R


def oracle_dec_step(disc, u_n, dt, scheme, config, u_b=None, mass=None):
    if mass is None:
        mass, _ = oracle_lumped_mass(disc)
    u_n = np.asarray(u_n, dtype=float)
    dtmax = oracle_stable_dt(disc, u_n, config.cfl)
    if dt > dtmax * (1.0 + 1e-12):
        warnings.warn(
            f"time step {dt} exceeds the CFL bound {dtmax}", RuntimeWarning
        )
    w0, w1 = config.weights
    R_n = _oracle_residual(disc, u_n, scheme, u_b)
    if config.method == "euler" and config.iterations == 1:
        return u_n - dt * R_n / mass[:, None]
    u_p = u_n
    for _ in range(config.iterations):
        R_p = _oracle_residual(disc, u_p, scheme, u_b)
        A = dt * (w0 * R_n + w1 * R_p)
        rhs = mass[:, None] * u_p - oracle_mass_apply(disc, u_p - u_n) - A
        u_p = rhs / mass[:, None]
    return u_p


def oracle_dec_run(disc, u0, t_end, scheme, config, u_b=None, dt=None, log=None):
    mass, _ = oracle_lumped_mass(disc)
    u = np.array(u0, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    t = 0.0
    times = [0.0]
    while t < t_end - 1e-14:
        step = dt if dt is not None else oracle_stable_dt(disc, u, config.cfl)
        step = min(step, t_end - t)
        u = oracle_dec_step(disc, u, step, scheme, config, u_b=u_b, mass=mass)
        t += step
        times.append(t)
        if log is not None:
            R = _oracle_residual(disc, u, scheme, u_b)
            log(t, u, mass @ u, float(np.abs(R).max()))
    return u, times


# ---------------------------------------------------------------------------
# Pre-face-table reference: the structured triangle builder, boundary
# faces, the P2 midpoint numbering, the neighbour map and the entropy audit
# as they were before the face table, with their loops over grid cells,
# dictionary loops over sorted vertex pairs, the hand-written 1D end-point
# lists and the 1D e +- 1 neighbour guess.  Used by test_face_table.py.


def oracle_structured_tri_mesh(nx, ny, domain=((0.0, 0.0), (1.0, 1.0))):
    """(vertices, elements) of an nx-by-ny grid, two triangles per cell."""
    (x0, y0), (x1, y1) = domain
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    verts = np.array([(x, y) for y in ys for x in xs])

    def vid(i, j):
        return j * (nx + 1) + i

    tris = []
    for j in range(ny):
        for i in range(nx):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    return verts, np.array(tris, dtype=int)


# the boundary face record as it was, with its outward unit normal and length
OracleBoundaryFace = namedtuple("OracleBoundaryFace", "element local_face normal measure")


def oracle_boundary_faces(mesh):
    """Faces incident to exactly one element are boundary faces."""
    if mesh.dim == 1:
        ne = mesh.n_elements
        if mesh.elements[-1, 1] <= mesh.elements[-1, 0]:
            return []  # periodic: the last cell wraps around
        return [
            OracleBoundaryFace(0, 0, np.array([-1.0]), 1.0),
            OracleBoundaryFace(ne - 1, 1, np.array([1.0]), 1.0),
        ]
    seen = {}
    for e in range(mesh.n_elements):
        tri = mesh.elements[e]
        for lf, (i, j) in enumerate(_TRI_FACES):
            key = tuple(sorted((tri[i], tri[j])))
            seen.setdefault(key, []).append((e, lf))
    faces = []
    for key, owners in seen.items():
        if len(owners) != 1:
            continue
        e, lf = owners[0]
        tri = mesh.elements[e]
        i, j = _TRI_FACES[lf]
        p, q = mesh.vertices[tri[i]], mesh.vertices[tri[j]]
        t = q - p
        length = float(np.hypot(*t))
        nrm = np.array([t[1], -t[0]]) / length  # outward for ccw elements
        faces.append(OracleBoundaryFace(e, lf, nrm, length))
    faces.sort(key=lambda f: (f.element, f.local_face))
    return faces


def oracle_dofmap(mesh):
    """Global DOF numbering; P2 midpoints in first-seen order over edges."""
    if mesh.dim == 1 or mesh.degree == 1:
        return DofMap(mesh.elements.copy(), mesh.vertices.copy(),
                          mesh.n_vertices, mesh.dim + 1)
    edge_ids = {}
    coords = [mesh.vertices[i] for i in range(mesh.n_vertices)]
    elem_dofs = np.zeros((mesh.n_elements, 6), dtype=int)
    for e in range(mesh.n_elements):
        tri = mesh.elements[e]
        elem_dofs[e, :3] = tri
        for k, (i, j) in enumerate(((0, 1), (1, 2), (2, 0))):
            key = tuple(sorted((tri[i], tri[j])))
            if key not in edge_ids:
                edge_ids[key] = len(coords)
                coords.append(0.5 * (mesh.vertices[key[0]] + mesh.vertices[key[1]]))
            elem_dofs[e, 3 + k] = edge_ids[key]
    coords = np.array(coords)
    return DofMap(elem_dofs, coords, coords.shape[0], 6)


def oracle_neighbors(mesh):
    """Map (element, local_face) -> (neighbor element, its local face)."""
    nbr = {}
    if mesh.dim == 1:
        n = mesh.n_elements
        for e in range(n):
            for lf in (0, 1):
                e2 = e - 1 if lf == 0 else e + 1
                if mesh.periodic:
                    e2 %= n
                if 0 <= e2 < n and e2 != e:
                    nbr[(e, lf)] = (e2, 1 - lf)
        return nbr
    owners = {}
    for e in range(mesh.n_elements):
        tri = mesh.elements[e]
        for lf, (i, j) in enumerate(_TRI_FACES):
            key = tuple(sorted((tri[i], tri[j])))
            if key in owners:
                e2, lf2 = owners[key]
                nbr[(e, lf)] = (e2, lf2)
                nbr[(e2, lf2)] = (e, lf)
            else:
                owners[key] = (e, lf)
    return nbr


def _oracle_face_average_trace(mesh, dofs, neighbors, e, lf, u, u_b=None):
    """Quadrature points, weights, normal, and the two-sided average state."""
    nq = mesh.degree + 1
    xq, w, n, lam = oracle_face_geometry(mesh, e, lf, nq)
    tb = tri_basis(mesh.degree, lam)
    u_in = tb @ u[dofs[e]]
    key = (e, lf)
    if key in neighbors:
        e2, lf2 = neighbors[key]
        lam2 = oracle_face_geometry(mesh, e2, lf2, nq)[3]
        # the neighbour runs the shared edge the other way round
        u_out = (tri_basis(mesh.degree, lam2) @ u[dofs[e2]])[::-1]
    elif u_b is not None:
        if callable(u_b):
            u_out = np.array([np.atleast_1d(u_b(x)) for x in xq])
        else:
            u_out = np.broadcast_to(np.atleast_1d(u_b), u_in.shape)
    else:
        u_out = u_in
    return w, n, 0.5 * (u_in + u_out)


def oracle_entropy_inequality_audit(disc, u, rset, u_b=None, tol=1e-12):
    """(worst defect, worst location, violation count) of the entropy audit;
    the 1D branch ignores ``u_b``.  Of ``disc`` it reads the mesh and the
    law's data."""
    law = frozen_law(disc.law)
    mesh = disc.mesh
    dofmap = build_dofmap(mesh)
    dofs = dofmap.element_dofs
    neighbors = oracle_neighbors(mesh)
    worst = 0.0
    where = None
    count = 0
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.shape[0] != dofmap.n_dofs:
        u = u.T
    for e in range(mesh.n_elements):
        ue = u[dofs[e]]
        v = law.entropy_var(ue)
        lhs = float(np.sum(v * rset.phi[e]))
        if mesh.dim == 1:
            outflux = 0.0
            for lf, sign in ((0, -1.0), (1, 1.0)):
                nbr = e - 1 if lf == 0 else e + 1
                if mesh.periodic:
                    nbr %= mesh.n_elements
                if 0 <= nbr < mesh.n_elements and nbr != e:
                    u2 = u[dofs[nbr]][1 - lf]
                else:
                    u2 = ue[lf]
                avg = 0.5 * (ue[lf] + u2)
                g = law.entropy_flux(avg[None, :])[0]
                outflux += sign * float(g[0])
        else:
            outflux = 0.0
            for lf in range(3):
                w, n, uavg = _oracle_face_average_trace(mesh, dofs, neighbors, e, lf, u, u_b)
                g = law.entropy_flux(uavg)       # (nq, dim)
                outflux += float(w @ (g @ n))
        d = max(0.0, outflux - lhs)
        if d > tol:
            count += 1
        if d > worst:
            worst, where = d, ("element", e)
    return worst, where, count


# ---------------------------------------------------------------------------
# The 1D Euler step as it was before it worked on component-first arrays and
# called the ``constraints`` functions: the quasi-linear matrix B(W), the
# element residuals as an einsum over (n, 3, 3) matrices, the scatter and the
# velocity and energy corrections written inline.  The wave speed, the
# fluxes and the initial state are the package ones, frozen below.

ORACLE_GAUSS_T = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])


def oracle_primitive_matrix(w, gamma):
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


def oracle_euler1d_element_residuals(w, gamma, h):
    """Rusanov-distributed primitive residuals; ``w`` is (n+1, 3), phi is
    (n, 2, 3)."""
    wl, wr = w[:-1], w[1:]
    dw = (wr - wl) / h
    total = np.zeros_like(wl)
    for t in ORACLE_GAUSS_T:
        wq = (1.0 - t) * wl + t * wr
        B = oracle_primitive_matrix(wq, gamma)
        total += 0.5 * h * np.einsum("eij,ej->ei", B, dw)
    alpha = np.maximum(wave_speed(wl, gamma), wave_speed(wr, gamma))
    wbar = 0.5 * (wl + wr)
    phi = np.empty((wl.shape[0], 2, 3))
    phi[:, 0] = 0.5 * total + alpha[:, None] * (wl - wbar)
    phi[:, 1] = 0.5 * total + alpha[:, None] * (wr - wbar)
    return phi


def oracle_euler1d_scatter(phi, n_nodes):
    """Per-node sums of element residual contributions (n, 2, m)."""
    out = np.zeros((n_nodes, phi.shape[-1]))
    out[:-1] += phi[:, 0]
    out[1:] += phi[:, 1]
    return out


def oracle_euler1d_step(w, dt, h, gamma, correct=True):
    scatter = oracle_euler1d_scatter
    n_nodes = w.shape[0]
    mass = np.full(n_nodes, h)
    mass[0] = mass[-1] = 0.5 * h
    phi = oracle_euler1d_element_residuals(w, gamma, h)
    rho_new = w[:, 0] - dt * scatter(phi[..., 0:1], n_nodes)[:, 0] / mass
    rho_p1 = np.stack([rho_new[:-1], rho_new[1:]], axis=1)
    u_p = np.stack([w[:-1, 1], w[1:, 1]], axis=1)
    target_m = momentum_flux(w[1:], gamma) - momentum_flux(w[:-1], gamma)
    current_m = np.sum(rho_p1 * phi[..., 1] + u_p * phi[..., 0], axis=1)
    if correct:
        r_u = (target_m - current_m) / rho_p1.sum(axis=1)
        phi[..., 1] += r_u[:, None]
        defect_m = np.abs(
            np.sum(rho_p1 * phi[..., 1] + u_p * phi[..., 0], axis=1) - target_m
        )
    else:
        defect_m = np.abs(current_m - target_m)
    u_new = w[:, 1] - dt * scatter(phi[..., 1:2], n_nodes)[:, 0] / mass
    u_p1 = np.stack([u_new[:-1], u_new[1:]], axis=1)
    target_e = energy_flux(w[1:], gamma) - energy_flux(w[:-1], gamma)
    mapped = (
        phi[..., 2]
        + 0.5 * (u_p * u_p) * phi[..., 0]
        + 0.5 * rho_p1 * (u_p + u_p1) * phi[..., 1]
    )
    if correct:
        r_e = 0.5 * (target_e - mapped.sum(axis=1))
        phi[..., 2] += r_e[:, None]
        mapped = mapped + r_e[:, None]
    defect_e = np.abs(mapped.sum(axis=1) - target_e)
    e_new = w[:, 2] - dt * scatter(phi[..., 2:3], n_nodes)[:, 0] / mass
    w_next = np.stack([rho_new, u_new, e_new], axis=1)
    return w_next, float(defect_m.max()), float(defect_e.max())


def oracle_run_sod(n_cells, t_end, correct, gamma=1.4, cfl=0.3):
    """The shock-tube loop of ``euler1d.run_sod`` over ``oracle_euler1d_step``;
    returns (w, t, defect_m, defect_e, mass_history)."""
    x, w = sod_initial(n_cells, gamma)
    h = x[1] - x[0]
    t = 0.0
    worst_m = worst_e = 0.0
    mass_hist = []
    while t < t_end - 1e-14:
        dt = min(cfl * h / wave_speed(w, gamma).max(), t_end - t)
        w, dm, de = oracle_euler1d_step(w, dt, h, gamma, correct=correct)
        worst_m = max(worst_m, dm)
        worst_e = max(worst_e, de)
        t += dt
        lumped_rho = h * (w[:, 0].sum() - 0.5 * (w[0, 0] + w[-1, 0]))
        mass_hist.append((t, float(lumped_rho)))
    return w, t, worst_m, worst_e, mass_hist


# ---------------------------------------------------------------------------
# Frozen package code: the package functions, constants and law methods the
# references below call, copied verbatim as of ``e731dd2`` with their module
# prefixes dropped, so that a change to a live formula does not move the
# reference with it.  Only the methods the references call are kept.  A law
# a test passes in is read for its data (``frozen_law``), never called.

# rd_core.py
BLEND_ZERO_TOL = 1e-13


# errors.py
class InternalConsistencyError(RdlabError):
    """An identity that should hold by construction failed."""


# mesh.py

@dataclass
class DofMap:
    element_dofs: np.ndarray      # (ne, #K) global DOF ids
    dof_coords: np.ndarray        # (ndof, dim)
    n_dofs: int
    dofs_per_element: int


# local faces of a triangle: face j is the edge opposite local vertex j
_TRI_FACES = ((1, 2), (2, 0), (0, 1))
# local faces of each element type, as local vertex tuples
_LOCAL_FACES = {1: ((0,), (1,)), 2: _TRI_FACES}
# P2 midpoint DOF on each local face
_FACE_MIDPOINTS = (4, 5, 3)


def build_dofmap(mesh):
    """Global continuous Lagrange DOF numbering: P1 on any simplex, P2 on triangles."""
    if mesh.degree == 1:
        return DofMap(mesh.elements.copy(), mesh.vertices.copy(), mesh.n_vertices, mesh.dim + 1)
    if mesh.degree == 2 and mesh.dim == 2:
        # midpoint DOFs numbered in first-seen order over the edges 01, 12, 20
        edges = mesh.faces.id[:, [2, 0, 1]]
        order = np.argsort(np.unique(edges, return_index=True)[1])
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        ends = mesh.faces.keys[order]
        mids = 0.5 * (mesh.vertices[ends[:, 0]] + mesh.vertices[ends[:, 1]])
        coords = np.concatenate([mesh.vertices, mids])
        elem_dofs = np.concatenate([mesh.elements, mesh.n_vertices + rank[edges]], axis=1)
        return DofMap(elem_dofs, coords, coords.shape[0], 6)
    raise UnsupportedFeatureError(f"degree {mesh.degree} not supported on a {mesh.dim}-D mesh")


def tri_basis(degree, lam):
    """Basis values at barycentric points ``lam`` (..., dim + 1) -> (..., #K);
    P1 is ``lam`` itself on any simplex, P2 needs a triangle."""
    lam = np.asarray(lam, dtype=float)
    if degree == 1:
        return lam.copy()
    l1, l2, l3 = lam[..., 0], lam[..., 1], lam[..., 2]
    if degree == 2:
        return np.stack(
            [
                l1 * (2 * l1 - 1),
                l2 * (2 * l2 - 1),
                l3 * (2 * l3 - 1),
                4 * l1 * l2,
                4 * l2 * l3,
                4 * l3 * l1,
            ],
            axis=-1,
        )
    raise UnsupportedFeatureError(f"degree {degree} not supported")


def tri_basis_grad(degree, lam, grad_lam):
    """Physical gradients of basis functions; returns (..., #K, dim).

    ``grad_lam`` (..., dim + 1, dim) broadcasts against the leading axes of
    ``lam``; at P1 it is the result, on any simplex.
    """
    lam = np.asarray(lam, dtype=float)
    g = np.asarray(grad_lam, dtype=float)
    if degree == 1:
        lead = np.broadcast_shapes(lam.shape[:-1], g.shape[:-2])
        return np.broadcast_to(g, lead + g.shape[-2:]).copy()
    if degree == 2:
        l1, l2, l3 = (lam[..., k, None] for k in range(3))
        g1, g2, g3 = (g[..., k, :] for k in range(3))
        rows = [
            (4 * l1 - 1) * g1,
            (4 * l2 - 1) * g2,
            (4 * l3 - 1) * g3,
            4 * l2 * g1 + 4 * l1 * g2,
            4 * l3 * g2 + 4 * l2 * g3,
            4 * l1 * g3 + 4 * l3 * g1,
        ]
        return np.stack(rows, axis=-2)
    raise UnsupportedFeatureError(f"degree {degree} not supported")


def interval_basis(lam):
    """Barycentric coordinates (1 - t, t), the P1 basis, of t in [0, 1] on an interval."""
    t = np.asarray(lam, dtype=float)
    return np.stack([1.0 - t, t], axis=-1)


# triangle rule of each mesh degree k, exact for degree 2k polynomials:
# barycentric points and weights summing to 1.  k = 2 is Dunavant's 6-point rule
_TRI_RULES = {
    1: (np.array([[2 / 3, 1 / 6, 1 / 6], [1 / 6, 2 / 3, 1 / 6], [1 / 6, 1 / 6, 2 / 3]]),
        np.full(3, 1 / 3)),
    2: (np.array([np.roll([1 - 2 * c, c, c], k)
                  for c in (0.445948490915965, 0.091576213509771) for k in range(3)]),
        np.repeat([0.223381589678011, 0.109951743655322], 3)),
}


@functools.lru_cache(maxsize=None)
def gauss_01(npts):
    """Gauss-Legendre nodes/weights on [0, 1], cached and read-only."""
    x, w = np.polynomial.legendre.leggauss(npts)
    t, w = 0.5 * (x + 1.0), 0.5 * w
    t.flags.writeable = w.flags.writeable = False
    return t, w


def volume_rule(mesh):
    """Element rule: barycentric points (nq, dim + 1) and weights (nq,)
    summing to 1 (scale by |K|).  Two Gauss points on an interval, exact for
    cubics; ``_TRI_RULES`` of the mesh degree on a triangle."""
    if mesh.dim == 1:
        t, w = gauss_01(2)
        return interval_basis(t), w
    if mesh.degree not in _TRI_RULES:
        raise UnsupportedFeatureError(f"no triangle rule for degree {mesh.degree}")
    return _TRI_RULES[mesh.degree]


def face_rule(mesh):
    """Face rule exact for degree 2k+1 polynomials."""
    npts = mesh.degree + 1
    return gauss_01(npts)


def face_local_dofs(mesh, local_face):
    """Local DOF indices lying on a local face, in trace order."""
    ends = _LOCAL_FACES[mesh.dim][local_face]
    return ends + (_FACE_MIDPOINTS[local_face],) if mesh.degree == 2 else ends


# conslaw.py
ADMISSIBLE_TOL = 1e-12


class ScalarLaw:
    """f(u) = a u^p / p along a constant direction ``a``, with the square
    entropy pair E = u^2/2, v = u and G = a u^(p+1) / (p+1)."""

    m = 1

    def __init__(self, a, p, name):
        self.a = np.atleast_1d(np.asarray(a, dtype=float))
        if not np.isfinite(self.a).all():
            raise ValueError(f"{name} direction {self.a} is not finite")
        self.dim = self.a.shape[0]
        self.p = p
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

    def max_wave_speed(self, u, n):
        """Spectral radius of the normal Jacobian of a scalar law, vectorised
        over states; systems override it with their closed form."""
        return np.abs(self.jac_n(u, n)[..., 0, 0])

    def entropy_var(self, u):
        return np.asarray(u, dtype=float).copy()

    def entropy_flux(self, u):
        q = self.p + 1
        return self.a * (np.asarray(u)[..., 0] ** q / q)[..., None]


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


class Euler:
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


def frozen_law(law):
    """The frozen copy of a package law, rebuilt from its data (``name``, and
    ``a`` and ``p`` of a scalar law, ``gamma`` and ``dim`` of Euler)."""
    if law.name == "euler":
        return Euler(law.gamma, law.dim)
    if law.name in ("advection", "burgers"):
        return ScalarLaw(law.a, law.p, law.name)
    raise UnsupportedFeatureError(f"no frozen copy of the law {law.name!r}")


# euler1d.py

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


def sod_initial(n_cells, gamma=1.4):
    """Node coordinates and primitive states of Sod's shock tube on [0, 1]:
    (rho, u, p) = (1, 0, 1) left of x = 0.5 and (0.125, 0, 0.1) from it on."""
    x = np.linspace(0.0, 1.0, n_cells + 1)
    w = np.empty((n_cells + 1, 3))
    for (rho, u, p), mask in (((1.0, 0.0, 1.0), x < 0.5), ((0.125, 0.0, 0.1), x >= 0.5)):
        w[mask] = (rho, u, p / (gamma - 1.0))
    return x, w
