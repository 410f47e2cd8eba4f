"""Element residuals and their distribution to degrees of freedom.

The total residual of an element is the boundary quadrature of the normal
flux.  Distribution families implemented here: central Galerkin splitting,
Rusanov dissipation, streamline (SUPG-type) stabilization, gradient-jump
stabilization, and the nonlinear blend limiter.  Every family satisfies the
conservation contract sum_sigma Phi_sigma = Phi^K by construction.

Every family is one Galerkin evaluation plus its stabilization terms, for
an index array or slice of elements at once.  ``total_residual`` and
``boundary_residuals`` also take one integer element or one (element, local
face) pair, which drops that axis as numpy indexing does.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import mesh as msh
from .errors import (
    ConservationDefectError,
    InadmissibleStateError,
    InternalConsistencyError,
    StepFailureError,
    UnsupportedFeatureError,
)

BLEND_ZERO_TOL = 1e-13
# relative and absolute (subnormal squares) slack of the pruning in rusanov_alpha
PRUNE_SLACK = 1e-12
PRUNE_FLOOR = 1e-300


@dataclass
class Scheme:
    kind: str = "rusanov"
    tau_scale: float = 1.0
    theta_e: float = 0.01
    gamma_jump: float = 0.1
    alpha: float | None = None  # Rusanov dissipation override

    # the parameters each kind reads in Discretization.element_residuals
    PARAMS = {"galerkin": (), "rusanov": ("alpha",), "supg": ("tau_scale",),
              "jump": ("theta_e",), "limited": ("alpha",),
              "limited_supg": ("alpha", "tau_scale", "gamma_jump"),
              "limited_jump": ("alpha", "theta_e", "gamma_jump")}
    KINDS = tuple(PARAMS)

    def __post_init__(self):
        if self.kind not in self.PARAMS:
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        for key in self.PARAMS[self.kind]:
            value = getattr(self, key)          # alpha None: the computed bound
            positive = key in ("tau_scale", "theta_e")
            if value is not None and not (0.0 <= value < np.inf and (value > 0.0 or not positive)):
                raise ValueError(f"{key} must be {'positive' if positive else '>= 0'} and finite")


@dataclass
class ResidualSet:
    phi: np.ndarray                 # (ne, #K, m) distributed residuals
    # (nb, nfd, m) weak boundary residuals of the faces owned by one element,
    # in mesh.faces.boundary order, on the DOFs Discretization.boundary_dofs;
    # None without boundary data or on a mesh without boundary faces
    boundary: np.ndarray | None = None


class Discretization:
    """Per-mesh geometry and quadrature arrays for batched residual evaluation.

    Every element has ``nf`` local faces: the edges of a triangle (face j
    opposite vertex j) or the end points of an interval (face j at vertex j,
    weight 1, normal -1 or +1), so 1D and 2D share one residual kernel.
    """

    def __init__(self, mesh, law):
        self.mesh = mesh
        self.law = law
        self.dofmap = msh.build_dofmap(mesh)
        self.m = law.m
        self.nloc = self.dofmap.dofs_per_element
        self._setup()

    # -- geometry / quadrature arrays ----------------------------------------

    def _setup(self):
        mesh = self.mesh
        # (ne,), (ne,), (ne, nf, dim) outward normals scaled by the face length
        self.measure, self.diameter, self.snormal = msh.element_geometry(mesh)
        length = np.linalg.norm(self.snormal, axis=-1)    # (ne, nf)
        self.fnormal = self.snormal / length[..., None]   # (ne, nf, dim) unit outward
        if mesh.dim == 2:
            self._triangle_rules(length)
        else:
            self._interval_rules()
        self.nbr = mesh.faces.across                     # (ne, nf), see FaceTable
        # (nf, nfd) local DOFs on each local face, in trace order
        self.face_dofs = np.array(
            [msh.face_local_dofs(mesh, f) for f in range(self.snormal.shape[1])])
        # (nb, nfd) global DOFs of each boundary face
        be, blf = mesh.faces.boundary
        self.boundary_dofs = np.take_along_axis(
            self.dofmap.element_dofs[be], self.face_dofs[blf], axis=1)

    def _triangle_rules(self, length):
        mesh = self.mesh
        self.bgrad = -self.snormal / (2.0 * self.measure[:, None, None])  # (ne, 3, 2)
        self.vq_lam, self.vq_w = msh.volume_rule(mesh)    # (nq, 3), (nq,)
        self.vq_phi = msh.tri_basis(mesh.degree, self.vq_lam)  # (nq, #K)
        # (ne, nq, #K, 2) basis gradients at the volume points
        self.vgrad = msh.tri_basis_grad(mesh.degree, self.vq_lam, self.bgrad[:, None])
        rules = []
        # face rule, and one more point (exact for the upwind product) on boundaries
        for npts in (mesh.degree + 1, mesh.degree + 2):
            t, w = msh.gauss_01(npts)
            lam = np.zeros((3, npts, 3))
            for f, (i, j) in enumerate(msh._TRI_FACES):
                lam[f, :, i] = 1.0 - t
                lam[f, :, j] = t
            rules.append((w * length[..., None], lam))
        # fw (ne, 3, nfq): weights times the edge length; flam (3, nfq, 3):
        # barycentric face points; bw, blam: the same for the boundary rule
        (self.fw, self.flam), (self.bw, self.blam) = rules
        self.fphi = msh.tri_basis(mesh.degree, self.flam)  # (3, nfq, #K) traces
        self.bphi = msh.tri_basis(mesh.degree, self.blam)  # (3, nbq, #K)

    def _interval_rules(self):
        h = self.measure
        self.bgrad = np.stack([-1.0 / h, 1.0 / h], axis=-1)[..., None]  # (ne, 2, 1)
        t, self.vq_w = msh.gauss_01(2)                    # (nq,)
        self.vq_phi = msh.interval_basis(t)               # (nq, 2)
        self.vgrad = np.repeat(self.bgrad[:, None], len(t), axis=1)  # (ne, nq, 2, 1)
        # each end point is a face with one point of weight 1: fw, bw
        # (ne, 2, 1); flam, blam, fphi, bphi (2, 1, 2)
        self.flam = self.fphi = self.blam = self.bphi = np.eye(2)[:, None, :]
        self.fw = self.bw = np.ones((len(h), 2, 1))

    @functools.cached_property
    def element_mass(self):
        """Consistent element mass matrices int_K phi_i phi_j, (ne, #K, #K);
        built on first use, so runs that never step in time skip them."""
        w = self.vq_w * self.measure[:, None]
        return np.einsum("...q,qi,qj->...ij", w, self.vq_phi, self.vq_phi)

    def face_points(self, e, lam):
        """Positions (..., nq, dim) of barycentric points ``lam`` (..., nq,
        dim + 1) on the elements ``e``, whose index shape broadcasts against
        the leading axes of ``lam``."""
        return lam @ self.mesh.vertices[self.mesh.elements[e]]

    def element_values(self, e, u):
        """DOF values of one element (#K, m), or of an index array (k, #K, m)."""
        return np.asarray(u)[self.dofmap.element_dofs[e]]

    def _admissible(self, e, u):
        """Per element: every state its residuals evaluate is admissible, (k,)."""
        ue = self.element_values(e, u)
        ok = self.law.admissible(np.einsum("fqs,ksm->kfqm", self.fphi, ue)).all(axis=(1, 2))
        ok &= self.law.admissible(self.vq_phi @ ue).all(axis=1)
        return ok & self.law.admissible(ue.mean(axis=1))

    # -- residual families -------------------------------------------------

    def _face_flux(self, e, ue):
        """Normal flux f(u_h).n at the face points, (k, nf, nfq, m)."""
        uf = np.einsum("fqs,...sm->...fqm", self.fphi, ue)
        return np.einsum("...fqdm,...fd->...fqm", self.law.flux(uf), self.fnormal[e])

    def total_residual(self, e, u):
        """Boundary quadrature of the normal flux, (k, m); (m,) for one integer."""
        fn = self._face_flux(e, self.element_values(e, u))
        return np.einsum("...fq,...fqm->...m", self.fw[e], fn)

    def boundary_flux(self, e, u):
        """Contour integral of phi_sigma f(u_h).n, (k, #K, m)."""
        fn = self._face_flux(e, self.element_values(e, u))
        return np.einsum("...fq,fqs,...fqm->...sm", self.fw[e], self.fphi, fn)

    def galerkin_residuals(self, e, u):
        """Phi_sigma = boundary term with phi_sigma weight minus volume term."""
        fq = self.law.flux(self.vq_phi @ self.element_values(e, u))  # (k, nq, dim, m)
        wq = self.vq_w * self.measure[e, None]
        return (self.boundary_flux(e, u)
                - np.einsum("kq,kqsd,kqdm->ksm", wq, self.vgrad[e], fq))

    def _flux_jacobians(self, e, ue):
        """States u_q (k, nq, m) and J(u_q).grad(phi_s) (k, nq, #K, m, m)."""
        uq = self.vq_phi @ ue
        return uq, self.law.jac_n(uq[:, :, None, :], self.vgrad[e])

    def _rusanov_matrix(self, e, u):
        """int_K phi_s J(u_h).grad(phi_s'), (k, #K, #K, m, m)."""
        _, jg = self._flux_jacobians(e, self.element_values(e, u))
        wq = self.vq_w * self.measure[e, None]
        return np.einsum("kq,qs,kqpij->kspij", wq, self.vq_phi, jg)

    def rusanov_alpha(self, e, u):
        """Dissipation bound #K * max_{s,s'} ||int phi_s J(u_h)*grad(phi_s')||_2.

        A block's largest column or row norm bounds its spectral norm from
        below and its Frobenius norm from above, so only blocks whose
        Frobenius norm reaches the element's largest column or row norm are
        decomposed.  The bound is relaxed by ``PRUNE_SLACK`` and
        ``PRUNE_FLOOR``, far above the rounding of the squared norms: the
        block that sets the maximum always gets its own SVD, and alpha is the
        float that decomposing every block gives.
        """
        return self.nloc * _max_specnorm(self._rusanov_matrix(e, u))

    def _rusanov_term(self, e, u, alpha=None):
        ue = self.element_values(e, u)
        if alpha is None:
            alpha = self.rusanov_alpha(e, u)
        return np.reshape(alpha, (-1, 1, 1)) * (ue - ue.mean(axis=1, keepdims=True))

    def _tau(self, e, ubar):
        """Streamline relaxation time from the element wave-speed budget, (k,)."""
        speed = self.law.max_wave_speed(ubar[:, None, :], self.snormal[e]).sum(axis=1)
        speed /= 2.0 * self.measure[e]
        hk = speed * self.diameter[e]
        return np.divide(1.0, hk, out=np.zeros_like(hk), where=speed > 0.0)

    def _supg_term(self, e, u, tau_scale):
        ue = self.element_values(e, u)
        uq, jg = self._flux_jacobians(e, ue)                  # A.grad(phi_s)
        jd = self.law.jac_n(uq[:, :, None, :], np.eye(self.mesh.dim))  # (k, nq, dim, m, m)
        du = np.einsum("kqsd,ksm->kqdm", self.vgrad[e], ue)   # grad(u_h)
        adu = np.einsum("kqdij,kqdj->kqi", jd, du)            # A.grad(u_h)
        tau = tau_scale * self._tau(e, ue.mean(axis=1))
        wq = self.vq_w * (self.measure[e] * self.diameter[e] * tau)[:, None]
        return np.einsum("kq,kqsij,kqj->ksi", wq, jg, adu)

    def _jump_term(self, e, u, theta_e):
        if self.mesh.dim != 2:
            raise UnsupportedFeatureError("gradient-jump stabilization needs 2D")
        nbr = self.nbr[e]                                     # (k, 3)
        e2, f2 = nbr // 3, nbr % 3
        deg = self.mesh.degree
        # basis gradients at the face points, (k, 3, nfq, #K, 2)
        g_in = msh.tri_basis_grad(deg, self.flam, self.bgrad[e][:, None, None])
        g_out = msh.tri_basis_grad(deg, self.flam[f2], self.bgrad[e2][:, :, None])
        # ccw elements run a shared edge in opposite directions, so the
        # neighbour's face point nfq-1-q is this element's face point q
        jump = (np.einsum("kfqsd,ksm->kfqdm", g_in, self.element_values(e, u))
                - np.einsum("kfqsd,kfsm->kfqdm", g_out, self.element_values(e2, u))[:, :, ::-1])
        he = self.fw[e].sum(axis=-1)                          # (k, 3)
        coef = np.where(nbr >= 0, 0.5 * theta_e * he * he, 0.0)
        return np.einsum("kf,kfq,kfqsd,kfqdm->ksm", coef, self.fw[e], g_in, jump)

    def element_residuals(self, e, u, scheme):
        """The Galerkin split plus the stabilization terms of the scheme kind."""
        k = scheme.kind
        phi = self.galerkin_residuals(e, u)
        coef = 1.0
        if k == "rusanov" or k.startswith("limited"):
            phi = phi + self._rusanov_term(e, u, scheme.alpha)
        if k.startswith("limited"):
            _, phi = blend_limiter(phi, phi.sum(axis=1))
            coef = scheme.gamma_jump
        if k.endswith("supg"):
            phi = phi + coef * self._supg_term(e, u, scheme.tau_scale)
        elif k.endswith("jump"):
            phi = phi + coef * self._jump_term(e, u, scheme.theta_e)
        return phi

    # -- boundary ---------------------------------------------------------

    def upwind_flux(self, uh, ub, n):
        """Normal interface flux; picks the boundary state on inflow.

        Batched over the leading axes of ``uh``, ``ub`` (..., m) and ``n`` (..., d).
        """
        uh, ub = np.atleast_1d(uh), np.atleast_1d(ub)
        n = np.asarray(n, dtype=float)
        fh = np.einsum("...dm,...d->...m", self.law.flux(uh), n)
        fb = np.einsum("...dm,...d->...m", self.law.flux(ub), n)
        A = self.law.jac_n(0.5 * (uh + ub), n)
        if self.m == 1:
            return np.where(A[..., 0] >= 0.0, fh, fb)
        # systems: characteristic upwinding at the average state.  eig returns
        # the whole stack complex if one matrix has a complex pair, so the
        # real ones are split off and kept in real arithmetic: no row then
        # depends on the other rows of its batch
        lam, R = np.linalg.eig(A)
        real = ~np.iscomplex(lam).any(axis=-1)
        absA = np.empty(A.shape)
        for part, cast in ((real, np.real), (~real, np.asarray)):
            lp, Rp = cast(lam[part]), cast(R[part])
            absA[part] = np.real((Rp * np.abs(lp)[..., None, :]) @ np.linalg.inv(Rp))
        return 0.5 * (fh + fb) - 0.5 * (absA @ (ub - uh)[..., None])[..., 0]

    def boundary_residuals(self, face, u, u_b):
        """Weak boundary contribution of the faces ``e, lf = face``: index
        arrays of elements and local faces like ``faces.boundary``, or one
        (element, local face) pair like an entry of ``mesh.boundary_faces``.

        Returns local DOF ids on the faces (nb, nfd) and per-DOF residuals
        (nb, nfd, m); one pair drops the face axis as numpy indexing does.
        ``u_b`` is a constant state (m,) or a callable taking positions
        (..., dim) to states (..., m), called once for all face points.
        """
        e, lf = face
        uq = np.einsum("...qs,...sm->...qm", self.bphi[lf], self.element_values(e, u))
        ub = u_b(self.face_points(e, self.blam[lf])) if callable(u_b) else np.atleast_1d(u_b)
        ub = np.broadcast_to(ub, uq.shape)
        n = np.broadcast_to(self.fnormal[e, lf][..., None, :], uq.shape[:-1] + (self.mesh.dim,))
        diff = self.upwind_flux(uq, ub, n) - np.einsum(
            "...qdm,...qd->...qm", self.law.flux(uq), n)
        dofs = self.face_dofs[lf]                             # (nb, nfd)
        trace = np.take_along_axis(self.bphi[lf], dofs[..., None, :], axis=-1)
        psi = np.einsum("...q,...qs,...qm->...sm", self.bw[e, lf], trace, diff)
        return dofs, psi

    # -- assembly -----------------------------------------------------------

    def residual_set(self, u, scheme, u_b=None):
        elements = slice(None)
        try:
            phi = self.element_residuals(elements, u, scheme)
        except InadmissibleStateError as err:
            e = int(np.argmin(self._admissible(elements, u)))
            raise StepFailureError(
                f"inadmissible state in element {e}: {err}", element=e
            ) from err
        finite = np.isfinite(phi).all(axis=(1, 2))
        if not finite.all():
            e = int(np.argmin(finite))
            raise StepFailureError(f"non-finite residual in element {e}", element=e)
        boundary = None
        if u_b is not None and len(self.boundary_dofs):
            _, boundary = self.boundary_residuals(self.mesh.faces.boundary, u, u_b)
        return ResidualSet(phi=phi, boundary=boundary)

    def assemble(self, u, scheme, u_b=None):
        """Per-DOF residual R_sigma; element-major scatter for bit stability."""
        rset = self.residual_set(u, scheme, u_b)
        R = np.zeros((self.dofmap.n_dofs, self.m))
        np.add.at(R, self.dofmap.element_dofs, rset.phi)
        if rset.boundary is not None:
            np.add.at(R, self.boundary_dofs, rset.boundary)
        return R, rset


def rusanov_coefficients(disc, e, u, alpha=None):
    """Monotone-form coefficients c[s, sp] of the scalar Rusanov split.

    For scalar laws the residual is Phi_s = sum_sp c[s, sp] (u_s - u_sp) with
    c[s, sp] = alpha/#K - int phi_s a.grad(phi_sp); all entries are
    nonnegative when alpha meets the dissipation bound.
    """
    if disc.m != 1:
        raise UnsupportedFeatureError("coefficient extraction is scalar-only")
    adv = disc._rusanov_matrix(e, u)[..., 0, 0]           # (k, #K, #K)
    if alpha is None:
        alpha = disc.nloc * np.abs(adv).max(axis=(1, 2))
    c = np.reshape(alpha, (-1, 1, 1)) / disc.nloc - adv
    diag = np.arange(disc.nloc)
    c[:, diag, diag] = 0.0
    return c


def monotone_dt(disc, u, mass, alpha=None, safety=1.0):
    """Largest forward-Euler step keeping the scalar Rusanov split monotone.

    Bound: dt * sum_K sum_sp max(c_ssp, 0) <= mass_s for every DOF s.
    """
    c = rusanov_coefficients(disc, slice(None), u, alpha=alpha)
    budget = np.zeros(disc.dofmap.n_dofs)
    np.add.at(budget, disc.dofmap.element_dofs, np.maximum(c, 0.0).sum(axis=2))
    positive = budget > 0.0
    if not positive.any():
        return np.inf
    return safety * float((mass[positive] / budget[positive]).min())


def blend_limiter(phi_L, total):
    """Convex reweighting of a monotone split; componentwise for systems.

    ``phi_L`` is (..., #K, m) and ``total`` (..., m), with any leading
    element axes.  Returns (beta, limited residuals beta_sigma * total).  The
    split must be conservative: sum(phi_L) == total within 1e-10 relative.
    """
    phi_L = np.asarray(phi_L, dtype=float)
    total = np.asarray(total, dtype=float)[..., None, :]
    defect = np.abs(phi_L.sum(axis=-2, keepdims=True) - total)
    if np.any(defect > 1e-10 * (1.0 + np.abs(total))):
        raise ConservationDefectError("limiter input is not conservative", defect[..., 0, :])
    zero = np.abs(total) <= BLEND_ZERO_TOL * (1.0 + np.abs(phi_L).max(axis=-2, keepdims=True))
    num = np.maximum(0.0, phi_L / np.where(zero, 1.0, total))
    den = num.sum(axis=-2, keepdims=True)
    if np.any((den <= 0.0) & ~zero):
        raise InternalConsistencyError(
            "all limiter ratios clipped although the total is nonzero"
        )
    beta = np.where(zero, 1.0 / phi_L.shape[-2], num / np.where(zero, 1.0, den))
    return beta, beta * total


def _specnorm(a):
    """Spectral norms of the trailing (m, m) matrices."""
    return np.linalg.norm(a, 2, axis=(-2, -1))


def _max_specnorm(a):
    """Largest ``_specnorm`` of the trailing (m, m) blocks of each a[k], (k,),
    decomposing only blocks that can set it (see ``rusanov_alpha``)."""
    if a.shape[-2:] == (1, 1):
        return np.abs(a).reshape(len(a), -1).max(axis=1)
    blocks = a.reshape((len(a), -1) + a.shape[-2:])      # (k, nb, m, m)
    sq = blocks * blocks
    col2 = sq.sum(axis=-2)                               # (k, nb, m)
    line2 = np.maximum(col2.max(axis=(1, 2)), sq.sum(axis=-1).max(axis=(1, 2)))
    lower = (1.0 - PRUNE_SLACK) * line2 - PRUNE_FLOOR
    keep = ~(col2.sum(axis=-1) < lower[:, None])         # NaN is kept
    norms = np.zeros(keep.shape)
    norms[keep] = _specnorm(blocks[keep])
    return norms.max(axis=1)
