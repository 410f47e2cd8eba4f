import warnings

import numpy as np
import pytest

from rdlab import mesh as msh
from rdlab import time_dec as td
from rdlab.conslaw import Advection, Burgers
from rdlab.errors import StepFailureError
from rdlab.rd_core import Discretization, Scheme


def make_disc(n=8):
    mesh = msh.build_interval_mesh(n, periodic=True)
    return Discretization(mesh, Advection([1.0]))


def test_dec_config_defaults():
    euler = td.DecConfig(method="euler")
    assert euler.iterations == 1
    assert euler.weights == (1.0, 0.0)
    cn = td.DecConfig(method="cn")
    assert cn.iterations == 2
    assert cn.weights == (0.5, 0.5)
    with pytest.raises(ValueError):
        td.DecConfig(method="rk4")
    with pytest.raises(TypeError):
        td.DecConfig()    # the method has no default


def test_lumped_mass_totals():
    mesh = msh.build_structured_tri_mesh(3, 3, ((0.0, 0.0), (2.0, 1.0)))
    disc = Discretization(mesh, Advection((1.0, 0.0)))
    mass, C = td.lumped_mass(disc)
    assert np.all(mass > 0.0)
    assert abs(mass.sum() - 2.0) < 1e-13
    assert np.allclose(C, disc.measure / 3.0)


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
    mass, _ = td.lumped_mass(disc)
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


def test_euler_step_is_lumped_forward_euler():
    disc = make_disc(8)
    rng = np.random.default_rng(0)
    u = rng.uniform(0.0, 1.0, size=(disc.dofmap.n_dofs, 1))
    scheme = Scheme(kind="rusanov")
    mass, _ = td.lumped_mass(disc)
    dt = td.stable_dt(disc, u, 0.3)
    out = td.dec_step(disc, u, dt, scheme, td.DecConfig(method="euler"),
                      mass=mass)
    R, _ = disc.assemble(u, scheme)
    assert np.array_equal(out, u - dt * R / mass[:, None])


@pytest.mark.parametrize("cfl, dt", [(0.0, None), (-0.3, None), (0.3, 0.0), (0.3, -0.01)])
def test_dec_run_rejects_a_step_that_is_not_positive(cfl, dt):
    disc = make_disc(8)
    u0 = np.ones((disc.dofmap.n_dofs, 1))
    with pytest.raises(ValueError, match="is not positive"):
        td.dec_run(disc, u0, 0.1, Scheme(kind="rusanov"), td.DecConfig("euler", cfl), dt=dt)


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
    mass, _ = td.lumped_mass(disc)
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
