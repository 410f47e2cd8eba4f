import time
import warnings

import numpy as np
import pytest

from rdlab import mesh as msh
from rdlab import time_dec as td
from rdlab.conslaw import Advection, Burgers
from rdlab.errors import StepFailureError
from rdlab.rd_core import Discretization, Scheme
from _oracles import oracle_stable_dt
from test_batched_equivalence import jittered_tri_mesh


def make_disc(n=8):
    mesh = msh.build_interval_mesh(n, periodic=True)
    return Discretization(mesh, Advection([1.0]))


def test_dec_config_defaults():
    with pytest.raises(ValueError):
        td.DecConfig(method="rk4")
    with pytest.raises(TypeError):
        td.DecConfig()    # the method has no default


def test_lumped_mass_totals():
    mesh = msh.build_structured_tri_mesh(3, 3, ((0.0, 0.0), (2.0, 1.0)))
    disc = Discretization(mesh, Advection((1.0, 0.0)))
    mass = td.lumped_mass(disc)
    assert np.all(mass > 0.0)
    assert abs(mass.sum() - 2.0) < 1e-13


def test_element_mass_matrix_p1():
    mesh = msh.build_interval_mesh(4)
    disc = Discretization(mesh, Advection([1.0]))
    Me = disc.element_mass[0]
    h = 0.25
    assert np.allclose(Me, h * np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]]),
                       atol=1e-14)


def test_mass_apply_constant_field():
    disc = make_disc(6)
    w = np.ones((disc.dofmap.n_dofs, 1))
    out = td.mass_apply(disc, w)
    mass = td.lumped_mass(disc)
    # consistent and lumped pairings agree on constants
    assert np.allclose(out[:, 0], mass, atol=1e-14)


def test_element_mass_matrices_are_built_once_on_first_use():
    disc = make_disc(6)
    assert "element_mass" not in vars(disc)
    w = np.ones((disc.dofmap.n_dofs, 1))
    td.mass_apply(disc, w)
    built = vars(disc)["element_mass"]
    td.mass_apply(disc, w)
    assert vars(disc)["element_mass"] is built


def test_stable_dt_scaling():
    dts = []
    for n in (8, 16):
        disc = make_disc(n)
        u = np.ones((disc.dofmap.n_dofs, 1))
        dts.append(td.stable_dt(disc, u, 0.5))
    assert abs(dts[0] / dts[1] - 2.0) < 1e-12
    still = Discretization(msh.build_interval_mesh(8, periodic=True),
                           Burgers(dim=1))
    assert td.stable_dt(still, np.zeros((8, 1)), 0.5) == np.inf


@pytest.mark.parametrize("dim, degree", [(1, 1), (2, 1), (2, 2)])
def test_stable_dt_is_the_oracles_from_a_per_mesh_hmin(dim, degree):
    """The smallest element size is built once per mesh; the step is the
    oracle's float, which recomputes it on every call."""
    mesh = msh.build_interval_mesh(9, degree=degree) if dim == 1 else jittered_tri_mesh(4, degree, 4)
    disc = Discretization(mesh, Burgers(dim=dim))
    rng = np.random.default_rng(5)
    for _ in range(3):
        u = rng.uniform(-1.0, 2.0, (disc.dofmap.n_dofs, 1))
        assert td.stable_dt(disc, u, 0.3) == oracle_stable_dt(disc, u, 0.3)
    assert "hmin" in vars(disc)                         # kept with the other mesh tables


def test_stable_dt_of_a_nan_state_is_nan():
    """A NaN wave speed gives a NaN step; folding the per-axis speeds with
    Python ``max`` dropped it and returned an infinite step."""
    disc = Discretization(msh.build_structured_tri_mesh(4, 4), Burgers(dim=2))
    u = np.full((disc.dofmap.n_dofs, 1), 0.5)
    assert np.isfinite(td.stable_dt(disc, u, 0.3))
    u[12] = np.nan
    assert np.isnan(td.stable_dt(disc, u, 0.3))
    linear = Discretization(disc.mesh, Advection((1.0, 0.5)))   # reads no state
    assert td.stable_dt(linear, u, 0.3) == td.stable_dt(linear, np.zeros_like(u), 0.3) > 0.0


@pytest.mark.parametrize("a", [(1.0, 0.5), (-0.3, 0.0), (0.0, 0.0)])
def test_linear_stable_dt_reads_a_per_mesh_speed(a, monkeypatch):
    """A linear law's CFL step reads the per-mesh ``linear_speed``: the bits
    of the law's wave speed on the state, with one ``jac_n`` call for any
    number of steps."""
    disc = Discretization(msh.build_structured_tri_mesh(4, 4), Advection(a))
    calls = []
    jac_n = disc.law.jac_n
    monkeypatch.setattr(disc.law, "jac_n", lambda *args: calls.append(1) or jac_n(*args))
    states = np.random.default_rng(31).standard_normal((3, disc.dofmap.n_dofs, 1))
    hmin = float((2.0 * disc.measure / disc.diameter).min())
    want = []
    for u in states:
        speed = float(np.max(disc.law.max_wave_speed(u[:, None, :], np.eye(2)))) * np.sqrt(2)
        want.append(np.inf if speed <= 0.0 else 0.3 * hmin / speed)
    calls.clear()
    assert [td.stable_dt(disc, u, 0.3) for u in states] == want
    assert len(calls) == 1


def test_euler_step_is_lumped_forward_euler():
    disc = make_disc(8)
    rng = np.random.default_rng(0)
    u = rng.uniform(0.0, 1.0, size=(disc.dofmap.n_dofs, 1))
    scheme = Scheme(kind="rusanov")
    mass = td.lumped_mass(disc)
    dt = td.stable_dt(disc, u, 0.3)
    out = td.dec_step(disc, u, dt, scheme, td.DecConfig(method="euler"),
                      mass=mass)
    R, _ = disc.assemble(u, scheme)
    assert np.array_equal(out, u - dt * R / mass[:, None])


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("law", [Advection((1.0, 0.5)), Burgers(dim=2)], ids=["advection", "burgers"])
def test_each_sweep_balances_in_time(law, degree):
    """Summed over the DOFs, each sweep closes its balance at round-off with
    weak boundary data, also at P2 where the lumped total alone drifts:
    sum C (u1 - u_n) + dt sum R_n = 0 for the forward-Euler sweep, and
    sum C (u2 - u1) + sum mass_apply(u1 - u_n) + dt sum (R_n + R(u1)) / 2 = 0
    for the second Crank-Nicholson sweep."""
    disc = Discretization(msh.build_structured_tri_mesh(8, 8, degree=degree), law)
    x = disc.dofmap.dof_coords
    u_n = (0.6 + 0.4 * np.sin(2.0 * np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1]))[:, None]
    scheme = Scheme(kind="limited")
    mass = td.lumped_mass(disc)
    dt = td.stable_dt(disc, u_n, 0.3)
    R_n = disc.assemble(u_n, scheme, 0.0)[0]
    u1 = td.dec_step(disc, u_n, dt, scheme, td.DecConfig("euler"), u_b=0.0, mass=mass)
    u2 = td.dec_step(disc, u_n, dt, scheme, td.DecConfig("cn"), u_b=0.0, mass=mass)
    C = mass[:, None]
    sweeps = [
        (C * u1, -C * u_n, dt * R_n),
        (C * u2, -C * u1, td.mass_apply(disc, u1 - u_n),
         dt * (0.5 * R_n + 0.5 * disc.assemble(u1, scheme, 0.0)[0])),
    ]
    for terms in sweeps:
        scale = sum(np.abs(t).sum() for t in terms)
        assert abs(sum(t.sum() for t in terms)) <= 1e-14 * scale


@pytest.mark.parametrize("cfl, dt", [(0.0, None), (-0.3, None), (0.3, 0.0), (0.3, -0.01)])
def test_dec_run_rejects_a_step_that_is_not_positive(cfl, dt):
    disc = make_disc(8)
    u0 = np.ones((disc.dofmap.n_dofs, 1))
    with pytest.raises(ValueError, match="is not positive"):
        td.dec_run(disc, u0, 0.1, Scheme(kind="rusanov"), td.DecConfig("euler", cfl), dt=dt)


def test_dec_run_caps_the_step_count():
    mesh = msh.build_structured_tri_mesh(4, 4, ((0.0, 0.0), (1.0, 1.0)))
    disc = Discretization(mesh, Advection((1.0, 0.5)))
    u0 = np.ones((disc.dofmap.n_dofs, 1))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="takes more than 1000000 steps of 1e-300"):
        td.dec_run(disc, u0, 0.1, Scheme(kind="rusanov"), td.DecConfig("euler"), dt=1e-300)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("t_end", [np.nan, -0.1])
def test_dec_run_rejects_a_t_end_that_is_not_a_number_at_least_0(t_end):
    disc = make_disc(8)
    u0 = np.ones((disc.dofmap.n_dofs, 1))
    with pytest.raises(ValueError, match=f"t_end {t_end} is not a finite number >= 0"):
        td.dec_run(disc, u0, t_end, Scheme(kind="rusanov"), td.DecConfig("euler"))


def test_cfl_violation_warns():
    disc = make_disc(8)
    u = np.ones((disc.dofmap.n_dofs, 1))
    dt = 10.0 * td.stable_dt(disc, u, 0.3)
    with pytest.warns(RuntimeWarning):
        td.dec_run(disc, u, dt, Scheme(kind="rusanov"), td.DecConfig(method="euler"), dt=dt)


def test_dec_run_computes_the_cfl_bound_once_per_step(monkeypatch):
    disc = make_disc(8)
    u0 = np.ones((disc.dofmap.n_dofs, 1))
    calls = []
    monkeypatch.setattr(td, "stable_dt", lambda *a: calls.append(1) or 0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")    # the default step never warns
        _, times = td.dec_run(disc, u0, 0.05, Scheme(kind="rusanov"), td.DecConfig(method="cn"))
    assert len(times) - 1 == len(calls) == 5


def test_dec_run_conserves_mass_periodic():
    mesh = msh.build_interval_mesh(32, periodic=True)
    disc = Discretization(mesh, Burgers(dim=1))
    x = disc.dofmap.dof_coords[:, 0]
    u0 = (1.0 + 0.5 * np.sin(2 * np.pi * x))[:, None]
    mass = td.lumped_mass(disc)
    m0 = float(mass @ u0[:, 0])
    logged = []
    u, times = td.dec_run(
        disc, u0, 0.2, Scheme(kind="rusanov"), td.DecConfig(method="cn"),
        log=lambda t, u, m, r: logged.append((t, m[0], r)),
    )
    assert abs(times[-1] - 0.2) < 1e-12
    assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
    m1 = float(mass @ u[:, 0])
    assert abs(m1 - m0) < 1e-12 * (1.0 + abs(m0))
    assert logged and abs(logged[-1][1] - m1) < 1e-14


def test_dec_run_accepts_1d_initial_state():
    disc = make_disc(8)
    u0 = np.ones(disc.dofmap.n_dofs)
    u, _ = td.dec_run(disc, u0, 0.05, Scheme(kind="rusanov"),
                      td.DecConfig(method="euler"))
    assert u.shape == (disc.dofmap.n_dofs, 1)
    # constant states are exact for periodic advection
    assert np.abs(u - 1.0).max() < 1e-13


@pytest.mark.parametrize("law", [Advection((1.0, 0.5)), Burgers(dim=2)], ids=["advection", "burgers"])
def test_non_finite_state_stops_the_run(law):
    """One NaN DOF stops the run before its first step, where it used to run
    on (advection) or take one step to t_end (Burgers, whose NaN wave speed
    made the CFL step infinite)."""
    disc = Discretization(msh.build_structured_tri_mesh(4, 4), law)
    u0 = np.full(disc.dofmap.n_dofs, 0.5)
    u0[12] = np.nan
    with pytest.raises(StepFailureError, match="non-finite residual in element"):
        td.dec_run(disc, u0, 0.2, Scheme(kind="limited"), td.DecConfig("cn"), u_b=0.0)
