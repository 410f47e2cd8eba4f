"""Acceptance suite: one test per guaranteed property of the package.

Each test prints a single PASS line with the measured figure, so a verbose
run reads as a checklist.  The frozen P2 table and the Riemann reference in
_oracles.py were produced independently of the library code.
"""

import time

import numpy as np
import pytest

from _oracles import right_shock_speed
from rdlab import euler1d, fv1d
from rdlab import flux_recovery as fr
from rdlab import mesh as msh
from rdlab import time_dec as td
from rdlab.conslaw import Advection, Burgers
from rdlab.constraints import (
    conserved_increment_matrix,
    entropy_pressure_correction,
)
from rdlab.diagnostics import convergence_order, maximum_principle_audit
from rdlab.errors import InfeasibleCorrectionError
from rdlab.rd_core import Discretization, Scheme, monotone_dt

# exact rational edge-flux coefficients of the quadratic triangle graph,
# rows per oriented edge, columns per DOF residual, all in units of 1/36
P2_EDGE_TABLE_36 = np.array(
    [
        [15, -5, -1, -7, -3, 1],    # (0, 3)
        [15, -1, -5, 1, -3, -7],    # (0, 5)
        [0, 4, -4, 8, 0, -8],       # (3, 5)
        [-4, 0, 4, -8, 8, 0],       # (4, 3)
        [5, -15, 1, 7, -1, 3],      # (3, 1)
        [-1, 15, -5, 1, -7, -3],    # (1, 4)
        [1, 5, -15, 3, 7, -1],      # (4, 2)
        [5, 1, -15, 3, -1, 7],      # (5, 2)
        [4, -4, 0, 0, -8, 8],       # (5, 4)
    ],
    dtype=float,
)


def report(label, detail):
    print(f"PASS {label}: {detail}")


def test_criterion_01_element_conservation_all_families():
    """Every family splits the exact total residual, 1000 random states."""
    mesh = msh.build_structured_tri_mesh(2, 2)
    disc = Discretization(mesh, Burgers(dim=2))
    # an element with three interior edges so jump terms are active
    e = next(e for e in range(mesh.n_elements) if (disc.nbr[e] >= 0).all())
    schemes = [Scheme(kind=k) for k in Scheme.KINDS]
    rng = np.random.default_rng(42)
    n = disc.dofmap.n_dofs
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(1000):
        u = rng.uniform(-1.0, 2.0, size=(n, 1))
        total = disc.total_residual(e, u)
        scale = 1.0 + abs(float(total[0]))
        for scheme in schemes:
            phi = disc.element_residuals([e], u, scheme)[0]
            d = abs(float(phi.sum(axis=0)[0] - total[0]))
            worst = max(worst, d / scale)
            assert d <= 1e-12 * scale, scheme.kind
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report("criterion 01 element conservation",
           f"worst relative defect {worst:.3e} over 1000 states x "
           f"{len(schemes)} families in {elapsed:.2f}s")


def test_criterion_02_p2_recovery_table():
    """Edge-flux and normal-weight coefficients of the quadratic triangle."""
    system = fr.build_incidence(msh.reference_graph(2, 2))
    C = system.A.T @ system.Linv
    assert np.abs(36.0 * C - P2_EDGE_TABLE_36).max() < 1e-13
    # the documented magnitude pattern all occurs among the coefficients
    mags = set(np.round(np.abs(P2_EDGE_TABLE_36).ravel()).astype(int))
    assert {3, 1, 7, 5, 8, 4} <= mags  # 1/12, 1/36, 7/36, 5/36, 2/9, 1/9
    # normal weights: -n_l/6 at vertices, n_opp/3 at midpoints, and the
    # recovered equivalent normals rebalance them exactly
    mesh = msh.build_structured_tri_mesh(2, 2, degree=2)
    worst = 0.0
    for e in range(mesh.n_elements):
        N = fr.split_normal_weights(mesh, e)
        n_in = -msh.element_geometry(mesh, e)[2]
        assert np.abs(N[:3] + n_in / 6.0).max() < 1e-13
        for k, opp in enumerate((2, 0, 1)):
            assert np.abs(N[3 + k] - n_in[opp] / 3.0).max() < 1e-13
        normals = fr.recover_fluxes(system, N)
        worst = max(worst, float(np.abs(system.A @ normals - N).max()))
    assert worst < 1e-13
    report("criterion 02 quadratic recovery table",
           f"all 9 edge rows and 6 weight formulas exact, "
           f"normal rebalance defect {worst:.3e}")


def test_criterion_03_recovery_oracle_equivalence():
    """Graph recovery matches an SVD least-squares oracle on random data."""
    rng = np.random.default_rng(7)
    worst_eq = worst_bal = 0.0
    for degree in (1, 2):
        system = fr.build_incidence(msh.reference_graph(2, degree))
        n = system.A.shape[0]
        for _ in range(100):
            psi = rng.normal(size=(n, 1))
            psi -= psi.mean(axis=0)
            f = fr.recover_fluxes(system, psi)
            oracle, *_ = np.linalg.lstsq(system.A, psi, rcond=None)
            worst_eq = max(worst_eq, float(np.abs(f - oracle).max()))
            worst_bal = max(worst_bal, float(np.abs(system.A @ f - psi).max()))
    assert worst_eq < 1e-10
    assert worst_bal < 1e-11
    report("criterion 03 recovery oracle equivalence",
           f"max oracle gap {worst_eq:.3e}, max balance defect {worst_bal:.3e}")


def test_criterion_04_burgers_shock_speeds():
    """Flux form hits the exact shock speed; the nonconservative form misses."""
    n, t_end = 400, 1.0
    grid = fv1d.Grid1D(n, 0.0, 2.0, periodic=False)
    lam = 0.8
    dt = lam * grid.dx
    n_steps = int(round(t_end / dt))
    u0 = np.where(grid.x < 0.5, 1.0, 0.0)
    tol = grid.dx / t_end
    t0 = time.perf_counter()
    speeds = {}
    for scheme in ("cons", "noncons"):
        _, snaps = fv1d.run(scheme, u0, lam, n_steps, periodic=False,
                            snapshot_every=n_steps // 10)
        speeds[scheme] = fv1d.measure_shock_speed(snaps, grid.x, dt)
    elapsed = time.perf_counter() - t0
    assert abs(speeds["cons"] - 0.5) <= tol
    assert abs(speeds["noncons"] - 0.5) > tol
    assert elapsed < 30.0
    report("criterion 04 shock speeds",
           f"conservative {speeds['cons']:.6f} (exact 0.5, tol {tol:.4f}), "
           f"nonconservative {speeds['noncons']:.6f}, {elapsed:.2f}s")


def test_criterion_05_tvd_and_range_preservation():
    """Both 1D schemes keep [0, A] and shrink total variation, 1000 profiles."""
    rng = np.random.default_rng(11)
    violations = 0
    for _ in range(1000):
        A = rng.uniform(0.5, 2.0)
        u = rng.uniform(0.0, A, size=64)
        lam = rng.uniform(0.2, 1.0) / A
        tv0 = fv1d.total_variation(u)
        for stepper in (fv1d.step_conservative, fv1d.step_nonconservative):
            out = stepper(u, lam, periodic=True)
            if out.min() < -1e-13 or out.max() > A * (1.0 + 1e-13):
                violations += 1
            if fv1d.total_variation(out) > tv0 * (1.0 + 1e-12) + 1e-13:
                violations += 1
    assert violations == 0
    report("criterion 05 TVD and range preservation",
           "0 violations over 1000 random positive profiles, both schemes")


def test_criterion_06_cell_entropy_inequality():
    """Flux-form upwind Burgers satisfies the per-cell entropy inequality."""
    rng = np.random.default_rng(13)
    worst = -np.inf
    for _ in range(200):
        A = rng.uniform(0.5, 2.0)
        u = rng.uniform(0.0, A, size=50)
        lam = 0.2 / A
        for _ in range(5):
            u_next = fv1d.step_conservative(u, lam)
            defect = fv1d.cell_entropy_defect(u, u_next, lam)
            worst = max(worst, float(defect.max()))
            u = u_next
    assert worst <= 1e-12
    report("criterion 06 cell entropy inequality",
           f"largest per-cell defect {worst:.3e} (bound 1e-12)")


def _max_principle_overshoot(kind, n, t_end=0.2):
    mesh = msh.build_structured_tri_mesh(n, n)
    disc = Discretization(mesh, Advection((1.0, 0.5)))
    coords = disc.dofmap.dof_coords
    u0 = np.exp(-40.0 * np.sum((coords - 0.5) ** 2, axis=1))[:, None]
    mass = td.lumped_mass(disc)
    alpha = max(disc.rusanov_alpha([e], u0)[0] for e in range(mesh.n_elements))
    scheme = Scheme(kind=kind, alpha=alpha)
    dt = monotone_dt(disc, u0, mass, alpha=alpha, safety=0.9)
    config = td.DecConfig(method="euler", cfl=1e6)  # dt is fixed explicitly
    u = u0
    history = [u0[:, 0]]
    t = 0.0
    while t < t_end - 1e-14:
        step = min(dt, t_end - t)
        u = td.dec_step(disc, u, step, scheme, config, u_b=None, mass=mass)
        t += step
        history.append(u[:, 0].copy())
    rng_u = float(u0.max() - u0.min())
    return maximum_principle_audit(history).defect, rng_u


def test_criterion_07_limited_maximum_principle():
    """Limited Rusanov never overshoots; stabilized blends barely do."""
    worst_limited = 0.0
    for n in (4, 8, 16):
        defect, _ = _max_principle_overshoot("limited", n)
        worst_limited = max(worst_limited, defect)
        assert defect <= 1e-10, f"limited overshoot {defect} at n={n}"
    worst_stab = 0.0
    for kind in ("limited_supg", "limited_jump"):
        for n in (4, 8, 16):
            defect, rng_u = _max_principle_overshoot(kind, n)
            worst_stab = max(worst_stab, defect)
            assert defect <= 1e-3 * rng_u, f"{kind} overshoot {defect} at n={n}"
    report("criterion 07 limited maximum principle",
           f"limited overshoot {worst_limited:.3e} (bound 1e-10), "
           f"stabilized worst {worst_stab:.3e} (bound 1e-3 x range)")


def test_criterion_08_dec_second_order():
    """Central split plus two-sweep trapezoidal stepping is second order."""
    errors, hs = [], []
    t0 = time.perf_counter()
    for n in (32, 64, 128, 256):
        mesh = msh.build_interval_mesh(n, periodic=True)
        disc = Discretization(mesh, Advection([1.0]))
        x = disc.dofmap.dof_coords[:, 0]
        u0 = np.sin(2.0 * np.pi * x)[:, None]
        h = 1.0 / n
        config = td.DecConfig(method="cn")
        u, *_ = td.dec_run(disc, u0, 0.5, Scheme(kind="galerkin"), config,
                           dt=0.25 * h)
        exact = np.sin(2.0 * np.pi * (x - 0.5))
        errors.append(float(np.sqrt(h * np.sum((u[:, 0] - exact) ** 2))))
        hs.append(h)
    elapsed = time.perf_counter() - t0
    slope = convergence_order(errors, hs)
    assert slope >= 1.9
    assert elapsed < 120.0
    report("criterion 08 two-sweep time accuracy",
           f"slope {slope:.3f} over h = 1/32..1/256 "
           f"(errors {errors[0]:.2e} -> {errors[-1]:.2e}), {elapsed:.1f}s")


def test_criterion_09_sod_corrections():
    """Corrected primitive scheme is conservative and hits the shock."""
    left, right = (1.0, 0.0, 1.0), (0.125, 0.0, 0.1)
    res = euler1d.run_sod(n_cells=400, t_end=0.2, correct=True)
    assert res.defect_m <= 1e-10
    assert res.defect_e <= 1e-10
    shock = euler1d.locate_shock(res.x, res.density())
    exact = 0.5 + 0.2 * right_shock_speed(left, right)
    assert abs(shock - exact) <= 0.02 * exact
    res_off = euler1d.run_sod(n_cells=400, t_end=0.2, correct=False)
    defect_off = max(res_off.defect_m, res_off.defect_e)
    assert defect_off > 0.0
    report("criterion 09 shock-tube corrections",
           f"defects m={res.defect_m:.2e} e={res.defect_e:.2e}, shock at "
           f"{shock:.5f} vs exact {exact:.5f}; uncorrected defect "
           f"{defect_off:.3e}")


def test_criterion_10_entropy_correction():
    """Pressure corrections satisfy both rows; infeasible data must raise."""
    rng = np.random.default_rng(21)
    kappa = 0.4
    worst = 0.0
    for _ in range(100):
        rho = rng.uniform(0.2, 2.0, size=3)
        E1, E2 = rng.normal(size=2)
        r = entropy_pressure_correction(rho, kappa, E1, E2)
        worst = max(
            worst,
            abs(float(r.sum()) - E1) / (1.0 + abs(E1)),
            abs(float(np.sum(rho ** (-kappa) * r)) - E2) / (1.0 + abs(E2)),
        )
    assert worst <= 1e-11
    with pytest.raises(InfeasibleCorrectionError):
        entropy_pressure_correction(np.ones(3), kappa, 1.0, 2.0)
    report("criterion 10 entropy correction",
           f"worst constraint defect {worst:.3e}; "
           "uniform incompatible data raises as required")


def test_criterion_11_increment_matrix_identity():
    """The triangular increment matrix maps primitive to conserved jumps."""
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(100):
        w_p = np.array([rng.uniform(0.2, 2.0), rng.uniform(-1, 1),
                        rng.uniform(0.2, 2.0)])
        w_p1 = np.array([rng.uniform(0.2, 2.0), rng.uniform(-1, 1),
                         rng.uniform(0.2, 2.0)])
        M = conserved_increment_matrix(w_p, w_p1)
        lhs = M @ (w_p1 - w_p)

        def cons(w):
            return np.array([w[0], w[0] * w[1], w[2] + 0.5 * w[0] * w[1] ** 2])

        rhs = cons(w_p1) - cons(w_p)
        worst = max(worst, float(np.abs(lhs - rhs).max() /
                                 (1.0 + np.abs(rhs).max())))
    assert worst <= 1e-12
    report("criterion 11 increment matrix identity",
           f"worst relative defect {worst:.3e} over 100 random state pairs")


@pytest.mark.parametrize("degree", [1, 2])
def test_criterion_12_rd_accuracy_condition(degree):
    """Every family meets the RD accuracy condition on a smooth steady state.

    For a = (1, 0.5) and u = sin 2pi(x/2 - y), a.grad(u) = 0, so a scheme of
    order k+1 has max|Phi_sigma^K(I_h u)| = O(h^(k+d)) (Abgrall and Roe,
    J. Sci. Comput. 19, 2003); the first-order Rusanov split only O(h^d).
    """
    d = 2
    law = Advection((1.0, 0.5))
    ns = (8, 16, 32)
    residuals = {kind: [] for kind in Scheme.KINDS}
    t0 = time.perf_counter()
    for n in ns:
        disc = Discretization(msh.build_structured_tri_mesh(n, n, degree=degree), law)
        x = disc.dofmap.dof_coords
        u = np.sin(2.0 * np.pi * (0.5 * x[:, 0] - x[:, 1]))[:, None]
        for kind in Scheme.KINDS:
            phi = disc.element_residuals(slice(None), u, Scheme(kind=kind))
            residuals[kind].append(float(np.abs(phi).max()))
    elapsed = time.perf_counter() - t0
    slopes = {kind: convergence_order(r, [1.0 / n for n in ns]) for kind, r in residuals.items()}
    for kind, slope in slopes.items():
        floor = d - 0.1 if kind == "rusanov" else degree + d - 0.1
        assert slope >= floor, f"{kind}: slope {slope:.3f} < {floor}"
    report(f"criterion 12 RD accuracy condition P{degree}",
           ", ".join(f"{kind} {slope:.2f}" for kind, slope in slopes.items())
           + f" over n = 8, 16, 32, {elapsed:.2f}s")
