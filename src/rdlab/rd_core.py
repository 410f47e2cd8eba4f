"""Element residuals and their distribution to degrees of freedom.

The total residual of an element is the boundary quadrature of the normal
flux.  Distribution families implemented here: central Galerkin splitting,
Rusanov dissipation, streamline (SUPG-type) stabilization, gradient-jump
stabilization, and the nonlinear blend limiter.  Every family satisfies the
conservation contract sum_sigma Phi_sigma = Phi^K by construction.

Every family is one Galerkin evaluation plus its stabilization terms, for
an index array or slice of elements at once.  One integer element, or one
face pair of ``boundary_residuals``, drops that axis, as numpy indexing does.

Tables of the mesh alone, a linear law's splits and weak inflow among them,
are built once per mesh, on first use.  Those of one state alone, from its
flux to its gradient jumps, are the whole-mesh tables of the ``State`` that
``Discretization.state`` keeps for the last state: the families and queries
of one state read one evaluation, and scheme parameters apply on each call.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass

import numpy as np

from . import mesh as msh
from .errors import InadmissibleStateError, StepFailureError, UnsupportedFeatureError

BLEND_ZERO_TOL = 1e-13
# relative and absolute (subnormal squares) slack of the pruning in rusanov_alpha
PRUNE_SLACK = 1e-12
PRUNE_FLOOR = 1e-300


def _table(build):
    """A cached property whose array is read-only: a table that queries return views of."""
    @functools.wraps(build)
    def read_only(self):
        table = build(self)
        table.flags.writeable = False
        return table
    return functools.cached_property(read_only)


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
    weight 1, normal -1 or +1), so 1D and 2D share one set-up and one kernel.
    """

    def __init__(self, mesh, law):
        if law.dim != mesh.dim:
            raise ValueError(f"a {law.dim}-D {law.name} law on a {mesh.dim}-D mesh")
        self.mesh = mesh
        self.law = law
        self.dofmap = msh.build_dofmap(mesh)
        self.m = law.m
        self.nloc = self.dofmap.dofs_per_element
        self._state_key = self._state = None
        self._setup()

    # -- geometry / quadrature arrays ----------------------------------------

    def _setup(self):
        mesh, dim = self.mesh, self.mesh.dim
        # (ne,), (ne,), (ne, nf, dim) outward normals scaled by the face length
        self.measure, self.diameter, self.snormal = msh.element_geometry(mesh)
        length = np.linalg.norm(self.snormal, axis=-1)    # (ne, nf)
        self.fnormal = self.snormal / length[..., None]   # (ne, nf, dim) unit outward
        # (ne, nf, dim) P1 basis gradients: face j lies opposite vertex j of a
        # triangle, and is vertex j of an interval
        self.bgrad = (-self.snormal / 2 if dim == 2 else self.snormal) / self.measure[:, None, None]
        self.vq_lam, self.vq_w = msh.volume_rule(mesh)    # (nq, dim + 1), (nq,)
        self.vq_phi = msh.tri_basis(mesh.degree, self.vq_lam)  # (nq, #K)
        # (ne, nq, #K, dim) basis gradients at the volume points
        self.vgrad = msh.tri_basis_grad(mesh.degree, self.vq_lam, self.bgrad[:, None])
        faces, rules = msh._LOCAL_FACES[dim], []
        # face rule, and one more point (exact for the upwind product) on
        # boundaries; the face of an interval is one point of weight 1
        for npts in (mesh.degree + 1, mesh.degree + 2):
            t, w = msh.gauss_01(npts) if dim == 2 else (np.zeros(1), np.ones(1))
            rules.append((w * length[..., None], msh.edge_points(faces, t, dim + 1)))
        # fw (ne, nf, nfq): weights times the face length; flam (nf, nfq, dim + 1):
        # barycentric face points; bw, blam: the same for the boundary rule
        (self.fw, self.flam), (self.bw, self.blam) = rules
        self.fphi = msh.tri_basis(mesh.degree, self.flam)  # (nf, nfq, #K) traces
        self.bphi = msh.tri_basis(mesh.degree, self.blam)  # (nf, nbq, #K)
        self.ftrace = self.fphi.reshape(-1, self.nloc)   # (nf*nfq, #K) flat traces
        self.nbr = mesh.faces.across                     # (ne, nf), see FaceTable
        # (nf, nfd) local DOFs on each local face, in trace order
        self.face_dofs = np.array([msh.face_local_dofs(mesh, f) for f in range(len(faces))])
        # (nb, nfd) global DOFs of each boundary face
        be, blf = mesh.faces.boundary
        self.boundary_dofs = np.take_along_axis(
            self.dofmap.element_dofs[be], self.face_dofs[blf], axis=1)

    # operator tables, built on first use: the mesh-constant factors of each residual term

    @functools.cached_property
    def fphi_w(self):
        """Face weight times the trace, (ne, #K, nf*nfq)."""
        return np.einsum("kl,ls->ksl", self.fw.reshape(len(self.fw), -1), self.ftrace, order="C")

    @functools.cached_property
    def vphi_w(self):
        """Volume weight times the basis, (ne, #K, nq)."""
        return np.einsum("q,k,qs->ksq", self.vq_w, self.measure, self.vq_phi, order="C")

    @functools.cached_property
    def vgrad_w(self):
        """Volume weight times the basis gradient, (ne, #K, nq*dim)."""
        wg = np.einsum("q,k,kqsd->ksqd", self.vq_w, self.measure, self.vgrad, order="C")
        return wg.reshape(len(wg), self.nloc, -1)

    @functools.cached_property
    def bphi_w(self):
        """Boundary-rule weight times the trace of each face DOF, (ne, nf, nfd, nbq)."""
        trace = np.take_along_axis(self.bphi, self.face_dofs[:, None, :], axis=-1)
        return np.einsum("kfq,fqs->kfsq", self.bw, trace, order="C")

    @functools.cached_property
    def fgrad(self):
        """Basis gradients at the face points, (ne, nf, nfq, #K, dim)."""
        return msh.tri_basis_grad(self.mesh.degree, self.flam, self.bgrad[:, None, None])

    @functools.cached_property
    def fgrad_w(self):
        """Face weight times ``fgrad``, (ne, #K, nf*nfq*dim)."""
        wg = np.einsum("kfq,kfqsd->ksfqd", self.fw, self.fgrad, order="C")
        return wg.reshape(len(wg), self.nloc, -1)

    @functools.cached_property
    def ptrace(self):
        """Face traces, then the volume basis, (nf*nfq + nq, #K)."""
        return np.concatenate([self.ftrace, self.vq_phi])

    @functools.cached_property
    def gal_w(self):
        """Galerkin split of the flux at the ``ptrace`` points: ``fphi_w`` times
        the face points' unit normals, then ``-vgrad_w``, (ne, #K, (nf*nfq + nq)*dim)."""
        fn = np.repeat(self.fnormal, self.fw.shape[-1], axis=1)       # (ne, nf*nfq, dim)
        cw = (self.fphi_w[..., None] * fn[:, None]).reshape(len(fn), self.nloc, -1)
        return np.concatenate([cw, -self.vgrad_w], axis=-1)

    @functools.cached_property
    def _slots(self):
        """Flat (DOF, component) slots of the element, then the boundary entries."""
        dofs = np.concatenate([self.dofmap.element_dofs.ravel(), self.boundary_dofs.ravel()])
        return (dofs[:, None] * self.m + np.arange(self.m)).ravel()

    @functools.cached_property
    def element_mass(self):
        """Consistent element mass matrices int_K phi_i phi_j, (ne, #K, #K)."""
        return self.vphi_w @ self.vq_phi

    @_table
    def linear_galerkin(self):
        """``galerkin_residuals`` of a scalar linear law as a matrix, read-only, (ne, #K, #K)."""
        return self.gal_w @ self.law.flux(self.ptrace.T[..., None]).reshape(self.nloc, -1).T

    @_table
    def linear_rusanov(self):
        """``linear_galerkin`` plus the Rusanov term of a linear law's bound, which a detached
        zero ``State`` gives as every state does, read-only, (ne, #K, #K)."""
        alpha = State(self, np.zeros((self.dofmap.n_dofs, self.m))).alpha
        deviation = np.eye(self.nloc) - 1.0 / self.nloc          # u_s minus the element mean
        return self.linear_galerkin + alpha[:, None, None] * deviation

    @_table
    def linear_inflow(self):
        """A scalar linear law's weak inflow on the ``faces.boundary`` faces, read-only, (nb, nfd,
        #K + nbq): -W.phi on u_h's DOF values, then W = ``bphi_w`` min(a.n, 0) on u_b's points."""
        e, lf = self.mesh.faces.boundary
        w = self.bphi_w[e, lf] * np.minimum(self.law.jac_n(np.zeros(1), self.fnormal[e, lf]), 0.0)
        return np.concatenate([-w @ self.bphi[lf], w], axis=-1)

    @functools.cached_property
    def linear_speed(self):
        """Largest axis wave speed of a linear law, which reads no state."""
        return float(np.max(self.law.max_wave_speed(np.zeros(self.m), np.eye(self.mesh.dim))))

    @functools.cached_property
    def hmin(self):
        """Smallest element size of the CFL step: an interval's length, or 2|K|/diam."""
        h = self.measure if self.mesh.dim == 1 else 2.0 * self.measure / self.diameter
        return float(h.min())

    def state(self, u):
        """The ``State`` of ``u``, kept while its shape, dtype and bytes are the last ones."""
        u = np.asarray(u)
        key = (u.shape, u.dtype.str, u.tobytes())
        if key != self._state_key:
            self._state_key, self._state = key, State(self, u)
        return self._state

    def across(self, a):
        """The entry across each face point of a whole-mesh face table ``a`` (ne, nf,
        nfq, ...), the only reader of ``mesh.faces.across``: the neighbour's entry at
        its face point nfq-1-q, as ccw elements run a shared face the other way round.
        A boundary face's entry is left for the caller to replace or zero."""
        return a.reshape((-1,) + a.shape[2:])[self.nbr][:, :, ::-1]

    def boundary_state(self, u_b, e, lam):
        """The weak boundary state at barycentric points ``lam`` (..., nq, dim + 1)
        of the elements ``e``, whose index shape broadcasts against the leading
        axes of ``lam``: a constant ``u_b`` (m,) as it is, or a callable taking
        positions (..., nq, dim) to states (..., nq, m), called once."""
        if not callable(u_b):
            return np.atleast_1d(u_b)
        return u_b(lam @ self.mesh.vertices[self.mesh.elements[e]])

    def element_values(self, e, u):
        """DOF values of one element (#K, m), or of an index array (k, #K, m)."""
        return np.asarray(u)[self.dofmap.element_dofs[e]]

    def _admissible(self, u):
        """Per element: every state its residuals evaluate is admissible, (ne,)."""
        ue = self.element_values(slice(None), u)
        ok = self.law.admissible(self.ptrace @ ue).all(axis=1)
        return ok & self.law.admissible(ue.mean(axis=1))

    # -- residual families -------------------------------------------------

    def face_values(self, ue):
        """Values at the face points (..., nf, nfq, m) of DOF values (..., #K, m)."""
        return (self.ftrace @ ue).reshape(ue.shape[:-2] + self.fphi.shape[:2] + ue.shape[-1:])

    def contour(self, fn):
        """Contour integral of phi_sigma fn, (ne, #K, m), for fn (ne, nf, nfq, m)."""
        return self.fphi_w @ fn.reshape(fn.shape[:-3] + (len(self.ftrace), fn.shape[-1]))

    def total_residual(self, e, u):
        """Rows ``e`` of ``State.total_residual``, (k, m); (m,) for one integer."""
        return self.state(u).total_residual[e]

    def galerkin_residuals(self, e, u):
        """Phi_sigma = contour minus volume term: ``State.point_flux``, or ``linear_galerkin``."""
        if self.law.linear:
            return self.linear_galerkin[e] @ self.element_values(e, u)
        fq = self.state(u).point_flux[e]                      # (k, nf*nfq + nq, dim, m)
        return self.gal_w[e] @ fq.reshape(fq.shape[:-3] + (self.gal_w.shape[-1], self.m))

    def rusanov_alpha(self, e, u):
        """Dissipation bound #K * max_{s,s'} ||int phi_s J(u_h)*grad(phi_s')||_2, read from the
        ``State`` of ``u`` for every law (a linear march reads it inside ``linear_rusanov``).  A
        block's largest column or row norm bounds its spectral norm from below and its Frobenius
        norm from above, so only blocks whose Frobenius norm reaches the element's largest column
        or row norm are decomposed.  The bound is relaxed by ``PRUNE_SLACK`` and ``PRUNE_FLOOR``,
        far above the rounding of the squared norms: the block that sets the maximum always
        gets its own SVD, and alpha is the float that decomposing every block gives."""
        return self.state(u).alpha[e]

    def _rusanov_term(self, e, u, alpha=None):
        ue = self.element_values(e, u)
        alpha = self.rusanov_alpha(e, u) if alpha is None else alpha
        return np.asarray(alpha)[..., None, None] * (ue - ue.mean(axis=-2, keepdims=True))

    def _supg_term(self, e, u, tau_scale):
        state = self.state(u)
        jg = state.jacobians[e]                               # A.grad(phi_s)
        tau = tau_scale * state.tau[e]
        wq = self.vq_w * (self.measure[e] * self.diameter[e] * tau)[..., None]
        return np.einsum("...qsij,...qj->...si", jg, wq[..., None] * state.adu[e])

    def _jump_term(self, e, u, theta_e):
        he = self.fw[e].sum(axis=-1)                          # (k, 3)
        # out of place: the State's table is read-only
        jump = self.state(u).jumps[e] * (0.5 * theta_e * he * he)[..., None, None, None]
        return self.fgrad_w[e] @ jump.reshape(jump.shape[:-4] + (self.fgrad_w.shape[-1], self.m))

    def check_kind(self, kind):
        """Refuse a scheme kind that this mesh cannot run."""
        if kind.endswith("jump") and self.mesh.dim != 2:
            raise UnsupportedFeatureError(f"kind {kind!r}: gradient-jump stabilization needs 2D")

    def element_residuals(self, e, u, scheme):
        """The Galerkin split plus the stabilization terms of the scheme kind."""
        k, coef = scheme.kind, 1.0
        self.check_kind(k)
        if "alpha" not in scheme.PARAMS[k]:                  # no Rusanov split
            phi = self.galerkin_residuals(e, u)
        elif self.law.linear and scheme.alpha is None:
            phi = self.linear_rusanov[e] @ self.element_values(e, u)
        else:
            phi = self.galerkin_residuals(e, u) + self._rusanov_term(e, u, scheme.alpha)
        if k.startswith("limited"):
            _, phi = blend_limiter(phi)
            coef = scheme.gamma_jump
        if k.endswith("supg"):
            phi = phi + coef * self._supg_term(e, u, scheme.tau_scale)
        elif k.endswith("jump"):
            phi = phi + coef * self._jump_term(e, u, scheme.theta_e)
        return phi

    # -- boundary ---------------------------------------------------------

    def upwind_flux(self, uh, ub, n, fh):
        """Normal interface flux; picks the boundary state on inflow.

        Batched over the leading axes of the arrays ``uh``, ``ub`` (..., m)
        and ``n`` (..., d), which broadcast; ``fh`` (..., m) is f(uh).n, which the caller has.
        """
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
        """Weak upwind boundary residuals of the faces ``e, lf = face`` on the flux path, for
        every law (``residual_set`` applies a linear law's ``linear_inflow``): index arrays
        like ``faces.boundary``, or one (element, local face) pair like an entry of
        ``mesh.boundary_faces``, which drops the face axis.  Returns local DOF ids (nb, nfd)
        and residuals (nb, nfd, m); ``u_b`` is read through ``boundary_state`` at the points."""
        e, lf = face
        uq = np.einsum("...qs,...sm->...qm", self.bphi[lf], self.element_values(e, u))
        ub = self.boundary_state(u_b, e, self.blam[lf])
        n = np.broadcast_to(self.fnormal[e, lf][..., None, :], uq.shape[:-1] + (self.mesh.dim,))
        fh = np.einsum("...qdm,...qd->...qm", self.law.flux(uq), n)
        return self.face_dofs[lf], self.bphi_w[e, lf] @ (self.upwind_flux(uq, ub, n, fh) - fh)

    # -- assembly -----------------------------------------------------------

    def residual_set(self, u, scheme, u_b=None):
        try:
            phi = self.element_residuals(slice(None), u, scheme)
        except InadmissibleStateError as err:
            e = int(np.argmin(self._admissible(u)))
            raise StepFailureError(
                f"inadmissible state in element {e}: {err}", element=e
            ) from err
        finite = np.isfinite(phi)
        if not finite.all():
            e = int(np.argmin(finite.all(axis=(1, 2))))
            raise StepFailureError(f"non-finite residual in element {e}", element=e)
        boundary, (be, blf) = None, self.mesh.faces.boundary
        if u_b is not None and len(be) and self.law.linear:
            lam = self.blam[blf]                                 # u_b at every boundary point
            ub = self.boundary_state(u_b, be, lam) * np.ones(lam.shape[:-1] + (1,))
            boundary = self.linear_inflow @ np.concatenate([self.element_values(be, u), ub], axis=1)
        elif u_b is not None and len(be):
            _, boundary = self.boundary_residuals((be, blf), u, u_b)
        return ResidualSet(phi=phi, boundary=boundary)

    def scatter(self, phi, boundary=None):
        """Sum element entries phi (ne, #K, m), then boundary entries (nb,
        nfd, m) if given, into their DOFs, (ndof, m): one ``bincount`` that
        adds in the order of ``np.add.at`` over each in turn, so bit-stable."""
        slots, w = self._slots[:self.dofmap.element_dofs.size * self.m], np.ravel(phi)
        if boundary is not None:
            slots, w = self._slots, np.concatenate([w, np.ravel(boundary)])
        return np.bincount(slots, w, self.dofmap.n_dofs * self.m).reshape(-1, self.m)

    def assemble(self, u, scheme, u_b=None):
        """Per-DOF residual R_sigma; element-major scatter for bit stability."""
        rset = self.residual_set(u, scheme, u_b)
        return self.scatter(rset.phi, rset.boundary), rset


class State:
    """One state's whole-mesh tables, each built on first read and read-only, from
    one copy of its element values, which a later in-place change cannot reach."""

    def __init__(self, disc, u):
        self.disc = weakref.proxy(disc)   # no cycle: ``disc`` keeps its last State
        self.ue = disc.element_values(slice(None), u)     # (ne, #K, m)

    @_table
    def point_flux(self):
        """f(u_h) at the ``ptrace`` points, (ne, nf*nfq + nq, dim, m)."""
        return self.disc.law.flux(self.disc.ptrace @ self.ue)

    @_table
    def face_flux(self):
        """Normal flux f(u_h).n at the face points, (ne, nf, nfq, m)."""
        fq = self.point_flux[..., :len(self.disc.ftrace), :, :]
        fq = fq.reshape(fq.shape[:-3] + self.disc.fphi.shape[:2] + fq.shape[-2:])
        return np.einsum("...fqdm,...fd->...fqm", fq, self.disc.fnormal)

    @_table
    def total_residual(self):
        """Boundary quadrature of the normal flux, (ne, m)."""
        return np.einsum("...fq,...fqm->...m", self.disc.fw, self.face_flux)

    @_table
    def boundary_dof_flux(self):
        """Contour integral of phi_sigma f(u_h).n, (ne, #K, m)."""
        return self.disc.contour(self.face_flux)

    @_table
    def jacobians(self):
        """J(u_h).grad(phi_s) at the volume points, (ne, nq, #K, m, m): ne*nq*#K*m^2 floats."""
        uq = self.disc.vq_phi @ self.ue
        return self.disc.law.jac_n(uq[..., None, :], self.disc.vgrad)

    @_table
    def rusanov_matrix(self):
        """int_K phi_s J(u_h).grad(phi_s'), (ne, #K, #K, m, m)."""
        jg = self.jacobians
        mat = self.disc.vphi_w @ jg.reshape(jg.shape[:-3] + (self.disc.nloc * self.disc.m**2,))
        return mat.reshape(mat.shape[:-1] + jg.shape[-3:])

    @_table
    def alpha(self):
        """The Rusanov bound of ``Discretization.rusanov_alpha``, (ne,)."""
        return self.disc.nloc * _max_specnorm(self.rusanov_matrix)

    @_table
    def tau(self):
        """SUPG's streamline relaxation time from the element wave-speed budget, (ne,)."""
        ubar = self.ue.mean(axis=-2)
        speed = self.disc.law.max_wave_speed(ubar[..., None, :], self.disc.snormal).sum(axis=-1)
        speed /= 2.0 * self.disc.measure
        hk = speed * self.disc.diameter
        return np.divide(1.0, hk, out=np.zeros_like(hk), where=speed > 0.0)

    @_table
    def adu(self):
        """A(u_h).grad(u_h) = sum_s (A.grad(phi_s)) u_s, as jac_n is linear in n, (ne, nq, m)."""
        return np.einsum("...qsij,...sj->...qi", self.jacobians, self.ue)

    @_table
    def jumps(self):
        """Jumps of grad(u_h) at the face points, (ne, nf, nfq, dim, m); zero on boundary faces."""
        grad = np.einsum("kfqsd,ksm->kfqdm", self.disc.fgrad, self.ue)
        interior = (self.disc.nbr >= 0)[:, :, None, None, None]
        return np.where(interior, grad - self.disc.across(grad), 0.0)


def rusanov_coefficients(disc, e, u, alpha=None):
    """Monotone-form coefficients c[s, sp] of the scalar Rusanov split.

    For scalar laws the residual is Phi_s = sum_sp c[s, sp] (u_s - u_sp) with
    c[s, sp] = alpha/#K - int phi_s a.grad(phi_sp); all entries are
    nonnegative when alpha meets the dissipation bound.
    """
    if disc.m != 1:
        raise UnsupportedFeatureError("coefficient extraction is scalar-only")
    mat = disc.state(u).rusanov_matrix[e]                 # (k, #K, #K, 1, 1)
    alpha = disc.rusanov_alpha(e, u) if alpha is None else alpha
    c = np.asarray(alpha)[..., None, None] / disc.nloc - mat[..., 0, 0]
    diag = np.arange(disc.nloc)
    c[..., diag, diag] = 0.0
    return c


def monotone_dt(disc, u, mass, alpha=None, safety=1.0):
    """Largest forward-Euler step keeping the scalar Rusanov split monotone.

    Bound: dt * sum_K sum_sp max(c_ssp, 0) <= mass_s for every DOF s.
    """
    c = rusanov_coefficients(disc, slice(None), u, alpha=alpha)
    budget = disc.scatter(np.maximum(c, 0.0).sum(axis=2)[..., None])[:, 0]
    positive = budget > 0.0
    if not positive.any():
        return np.inf
    return safety * float((mass[positive] / budget[positive]).min())


def blend_limiter(phi_L):
    """Convex reweighting of a monotone split; componentwise for systems.

    ``phi_L`` is (..., #K, m), with any leading element axes.  Returns (beta,
    limited residuals beta_sigma * Phi^K) with Phi^K the split's own sum and
    sum_sigma beta_sigma = 1, so the limited split conserves by construction.
    A nonzero float sum has a summand of its sign, so some ratio
    phi_sigma / Phi^K is positive; a sum at round-off is spread evenly.
    Every sum over #K runs in order from 0.0 over the rows of one contiguous
    (#K, ..., m) copy, so an element's floats do not depend on its batch.
    """
    k = np.ndim(phi_L) - 2                               # the #K axis, moved to the front
    rows = np.asarray(phi_L, dtype=float).transpose((k, *range(k), k + 1)).copy()
    total = np.add.reduce(rows, axis=0, initial=0.0)
    zero = np.abs(total) <= BLEND_ZERO_TOL * (1.0 + np.maximum.reduce(np.abs(rows), 0, initial=0.0))
    np.maximum(0.0, rows / np.where(zero, 1.0, total), out=rows)
    np.copyto(rows, 1.0, where=zero)                     # beta = 1/#K below
    rows /= np.add.reduce(rows, axis=0, initial=0.0)
    beta = rows.transpose((*range(1, k + 1), 0, k + 1))
    return beta, beta * total[..., None, :]


def _specnorm(a):
    """Spectral norms of the trailing (m, m) matrices."""
    return np.linalg.norm(a, 2, axis=(-2, -1))


def _max_specnorm(a):
    """Largest ``_specnorm`` of the (m, m) blocks of ``a`` (..., #K, #K, m, m),
    shape (...), decomposing only blocks that can set it (see ``rusanov_alpha``)."""
    lead, nb = a.shape[:-4], a.shape[-4] * a.shape[-3]   # nb named: k may be 0
    if a.shape[-2:] == (1, 1):
        return np.abs(a).reshape(lead + (nb,)).max(axis=-1)
    blocks = a.reshape((int(np.prod(lead)), nb) + a.shape[-2:])   # (k, nb, m, m)
    sq = blocks * blocks
    col2 = sq.sum(axis=-2)                               # (k, nb, m)
    line2 = np.maximum(col2.max(axis=(1, 2)), sq.sum(axis=-1).max(axis=(1, 2)))
    lower = (1.0 - PRUNE_SLACK) * line2 - PRUNE_FLOOR
    keep = ~(col2.sum(axis=-1) < lower[:, None])         # NaN is kept
    norms = np.zeros(keep.shape)
    norms[keep] = _specnorm(blocks[keep])
    return norms.max(axis=1).reshape(lead)
