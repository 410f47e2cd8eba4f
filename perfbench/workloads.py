"""The three benchmark workloads, each a set-up, a solve and its checks.

Every workload calls only rdlab's public entry points.  ``setup()`` builds
what ``setup_s`` times, ``solve()`` runs from the built problem to a checked
result and returns an ``Outcome``.  A failed check or an exception counts as
one failed operation.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import traceback
from dataclasses import dataclass

import numpy as np

from rdlab import Discretization, Euler, Scheme, cli, euler1d
from rdlab import flux_recovery as fr
from rdlab import mesh as msh
from rdlab.conslaw import conserved_from_primitive, make_law

HERE = os.path.dirname(os.path.abspath(__file__))

# ROADMAP equivalence tolerance, relative to max|u| of the reference
SOLUTION_RTOL = 1e-14
# criterion 01: distributed residuals sum to the element total
CONSERVATION_RTOL = 1e-12
# criterion 09: corrected defects and the shock position
DEFECT_TOL = 1e-10
SHOCK_RTOL = 0.02


@dataclass
class Outcome:
    attempted: int
    failed: int


def _passes(check, *args):
    """Run one checked operation; an exception is reported and fails it."""
    try:
        return bool(check(*args))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return False


class Workload:
    name = ""
    # constructors called inside solve(), once per call; their time counts
    # as set-up, not as solve time (Tracer target format)
    setup_targets = ()

    def __init__(self, seed, scratch):
        self.seed = seed
        self.scratch = scratch

    def setup(self):
        raise NotImplementedError

    def inputs(self, problem):
        """Inputs derived from the seed; None for deterministic workloads."""
        return None

    def solve(self, problem, inputs):
        raise NotImplementedError

    def boundary_probe(self, problem, inputs):
        """(operations tried, raised) of a probe of a known defect, or None."""
        return None


class ReadmeRun(Workload):
    """``rdlab run`` on the README configuration, unchanged."""

    name = "readme_run"
    config = os.path.join(HERE, "readme_config.ini")
    reference = os.path.join(HERE, "reference", "readme_solution.csv")
    # constructors that ``rdlab run`` calls once per run
    setup_targets = (
        ("mesh", (msh,), ("build_structured_tri_mesh",)),
        ("rd_core", (Discretization,), ("__init__",)),
    )

    def setup(self):
        # the mesh and law of readme_config.ini, built as ``rdlab run`` does
        mesh = msh.build_structured_tri_mesh(16, 16, degree=1)
        return Discretization(mesh, make_law("advection(1, 0.5)", dim=2))

    def solve(self, problem, inputs):
        out = tempfile.mkdtemp(prefix="readme_run_", dir=self.scratch)
        try:
            ok = _passes(self._run_and_check, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return Outcome(1, int(not ok))

    def _run_and_check(self, out):
        if cli.main(["run", self.config, "--out", out]) != 0:
            return False
        with open(os.path.join(out, "audit.txt")) as fh:
            audit = fh.read().splitlines()
        # maximum_principle is expected to FAIL: its precondition (forward
        # Euler below monotone_dt) does not hold for CN, so it is not counted
        if not any(line.startswith("PASS conservation") for line in audit):
            return False
        got = np.loadtxt(os.path.join(out, "solution.csv"), delimiter=",",
                         skiprows=1, ndmin=2)
        ref = np.loadtxt(self.reference, delimiter=",", skiprows=1, ndmin=2)
        if got.shape != ref.shape:
            return False
        scale = np.abs(ref[:, 3:]).max()
        return bool(np.abs(got - ref).max() <= SOLUTION_RTOL * scale)


@dataclass
class SweepProblem:
    mesh: object
    disc: object
    system: object


class FamilySweepP2Euler(Workload):
    """Every residual family on 2D Euler at P2, with flux recovery."""

    name = "family_sweep_p2_euler"
    base = np.array([1.0, 0.5, 0.25, 1.0])   # rho, vx, vy, p

    def setup(self):
        mesh = msh.build_structured_tri_mesh(6, 6, degree=2)
        disc = Discretization(mesh, Euler(dim=2))
        system = fr.build_incidence(msh.element_graph(mesh))
        return SweepProblem(mesh, disc, system)

    def inputs(self, problem):
        """Smooth admissible state: sine perturbations of amplitude <= 0.2."""
        rng = np.random.default_rng(self.seed)
        x = problem.disc.dofmap.dof_coords
        waves = rng.integers(1, 3, size=(4, 2))
        phase = rng.uniform(0.0, 2.0 * np.pi, size=4)
        amp = rng.uniform(0.05, 0.2, size=4)
        w = self.base + amp * np.sin(2.0 * np.pi * x @ waves.T + phase)
        return conserved_from_primitive(w)

    def solve(self, problem, u):
        disc, system = problem.disc, problem.system
        ne = problem.mesh.n_elements
        attempted = failed = 0
        for kind in Scheme.KINDS:
            attempted += ne
            try:
                rset = disc.residual_set(u, Scheme(kind=kind))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                failed += ne
                continue
            for e in range(ne):
                failed += not _passes(self._check_element, disc, system,
                                      rset.phi[e], e, u)
        return Outcome(attempted, failed)

    @staticmethod
    def _check_element(disc, system, phi, e, u):
        psi = phi - fr.boundary_dof_flux(disc, e, u)
        fluxes = fr.recover_fluxes(system, psi)
        if not fr.certify(system, fluxes, psi).passed:
            return False
        total = disc.total_residual(e, u)
        defect = np.abs(phi.sum(axis=0) - total)
        return bool(np.all(defect <= CONSERVATION_RTOL * (1.0 + np.abs(total))))

    def boundary_probe(self, problem, u):
        """Weak boundary residual on every boundary face, once.

        Returns (faces tried, faces that raised).  At P2 every face with local
        face 2 raises ``KeyError`` (a ``face_local_dofs`` lookup defect).
        """
        u_b = conserved_from_primitive(self.base)
        faces = problem.mesh.boundary_faces
        raised = 0
        for face in faces:
            try:
                problem.disc.boundary_residuals(face, u, u_b)
            except Exception:
                raised += 1
        return len(faces), raised


class SodCorrected(Workload):
    """Corrected primitive-variable Sod shock tube, criterion 09 at 1600 cells."""

    name = "sod_corrected"
    setup_targets = (("euler1d", (euler1d,), ("sod_initial",)),)
    n_cells = 1600
    t_end = 0.2
    left, right = (1.0, 0.0, 1.0), (0.125, 0.0, 0.1)

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.exact_shock = 0.5 + self.t_end * right_shock_speed(self.left, self.right)

    def setup(self):
        return euler1d.sod_initial(self.n_cells)

    def solve(self, problem, inputs):
        return Outcome(1, int(not _passes(self._run_and_check)))

    def _run_and_check(self):
        res = euler1d.run_sod(n_cells=self.n_cells, t_end=self.t_end,
                              correct=True)
        shock = euler1d.locate_shock(res.x, res.density())
        return (res.defect_m <= DEFECT_TOL and res.defect_e <= DEFECT_TOL
                and abs(shock - self.exact_shock) <= SHOCK_RTOL * self.exact_shock)


def right_shock_speed(left, right, gamma=1.4):
    """Exact speed of the right-moving shock of a perfect-gas Riemann problem.

    Newton iteration on the star pressure (Toro, ch. 4), shock branch on the
    right and rarefaction or shock branch on the left.
    """
    (rho_l, u_l, p_l), (rho_r, u_r, p_r) = left, right
    a_l, a_r = np.sqrt(gamma * p_l / rho_l), np.sqrt(gamma * p_r / rho_r)

    def side(p, rho, pk, a):
        if p > pk:
            A, B = 2.0 / ((gamma + 1.0) * rho), (gamma - 1.0) / (gamma + 1.0) * pk
            s = np.sqrt(A / (p + B))
            return (p - pk) * s, s * (1.0 - 0.5 * (p - pk) / (B + p))
        r = p / pk
        ex = (gamma - 1.0) / (2.0 * gamma)
        return (2.0 * a / (gamma - 1.0) * (r ** ex - 1.0),
                r ** (-(gamma + 1.0) / (2.0 * gamma)) / (rho * a))

    p = 0.5 * (p_l + p_r)
    for _ in range(100):
        f_l, d_l = side(p, rho_l, p_l, a_l)
        f_r, d_r = side(p, rho_r, p_r, a_r)
        p_new = max(p - (f_l + f_r + u_r - u_l) / (d_l + d_r), 1e-12)
        if abs(p_new - p) <= 1e-14 * p:
            p = p_new
            break
        p = p_new
    return u_r + a_r * np.sqrt((gamma + 1.0) / (2.0 * gamma) * p / p_r
                               + (gamma - 1.0) / (2.0 * gamma))


WORKLOADS = {w.name: w for w in (ReadmeRun, FamilySweepP2Euler, SodCorrected)}
