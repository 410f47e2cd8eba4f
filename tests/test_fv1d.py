import numpy as np
import pytest

from rdlab import fv1d
from rdlab.errors import DiagnosticError


def test_grid_geometry():
    grid = fv1d.Grid1D(4, 0.0, 2.0)
    assert abs(grid.dx - 0.5) < 1e-14
    assert np.allclose(grid.x, [0.25, 0.75, 1.25, 1.75])
    with pytest.raises(ValueError):
        fv1d.Grid1D(2)


def test_conservative_step_conserves_mass():
    rng = np.random.default_rng(0)
    u = rng.uniform(0.0, 1.0, 64)
    out = fv1d.step_conservative(u, 0.5, periodic=True)
    assert abs(out.sum() - u.sum()) < 1e-12 * (1.0 + abs(u.sum()))


def test_nonconservative_step_loses_mass_at_shocks():
    u = np.where(np.arange(64) < 32, 1.0, 0.0)
    out = fv1d.step_nonconservative(u, 0.5, periodic=False)
    # the flux-form update moves mass; the nonconservative one freezes the jump
    cons = fv1d.step_conservative(u, 0.5, periodic=False)
    assert not np.allclose(out, cons)


def test_cfl_warning():
    u = np.full(8, 3.0)
    with pytest.warns(RuntimeWarning):
        fv1d.step_conservative(u, 0.5)


def test_total_variation():
    u = np.array([0.0, 1.0, 0.0])
    assert abs(fv1d.total_variation(u, periodic=False) - 2.0) < 1e-14
    assert abs(fv1d.total_variation(u, periodic=True) - 2.0) < 1e-14


def test_tadmor_entropy_flux_consistency():
    u = np.linspace(0.1, 2.0, 7)
    g = fv1d.tadmor_cell_entropy(u, u)
    assert np.allclose(g, u**3 / 3.0, atol=1e-14)


def test_cell_entropy_defect_nonpositive_sample():
    rng = np.random.default_rng(4)
    u = rng.uniform(0.0, 1.0, 50)
    lam = 0.2
    u_next = fv1d.step_conservative(u, lam)
    defect = fv1d.cell_entropy_defect(u, u_next, lam)
    assert defect.max() <= 1e-12


def test_run_snapshots():
    u0 = np.where(np.arange(20) < 10, 1.0, 0.0)
    u, snaps = fv1d.run("cons", u0, 0.4, 10, periodic=False, snapshot_every=5)
    assert snaps[0][0] == 0 and snaps[-1][0] == 10
    assert len(snaps) == 3
    assert np.allclose(snaps[-1][1], u)
    # a step count that is not a multiple of snapshot_every ends on the last step
    u, snaps = fv1d.run("cons", u0, 0.4, 10, periodic=False, snapshot_every=4)
    assert [k for k, _ in snaps] == [0, 4, 8, 10]
    assert np.array_equal(snaps[-1][1], u)


def test_locate_jump():
    grid = fv1d.Grid1D(100, 0.0, 1.0)
    u = np.where(grid.x < 0.3, 1.0, 0.0)
    pos = fv1d.locate_jump(grid.x, u)
    assert abs(pos - 0.3) < 2.0 * grid.dx
    with pytest.raises(DiagnosticError):
        fv1d.locate_jump(grid.x, np.ones(100))
    with pytest.raises(DiagnosticError, match="no jump above half the data range"):
        fv1d.locate_jump(grid.x, grid.x)


def test_locate_jump_refuses_a_nan_profile():
    """A NaN range passes the constant-profile check, but no window's jump
    exceeds a NaN half range, so the search ends in the final refusal."""
    grid = fv1d.Grid1D(20, 0.0, 1.0)
    u = np.where(grid.x < 0.3, 1.0, 0.0)
    u[7] = np.nan
    with pytest.raises(DiagnosticError, match="no jump above half the data range"):
        fv1d.locate_jump(grid.x, u)


def test_locate_jump_at_any_finite_scale():
    """The profile is scaled to |u| < 1 by a power of two and a crossing is an
    ordered test, so no range overflows and no product underflows: near the
    largest float, of one sign or both, the step is found, and near the smallest
    the position is the one of the same profile at scale 1, inside the grid."""
    x = np.linspace(0.0, 1.0, 8)
    assert fv1d.locate_jump(x, np.repeat([1e308, 1.7e308], 4)) == 0.5
    assert fv1d.locate_jump(x, np.repeat([-1.7e308, 1.7e308], 4)) == 0.5
    step = np.array([1.0, 1.0, 1.0, 0.9, 0.2, 0.0, 0.0, 0.0])
    pos = fv1d.locate_jump(x, step * 1e-170)
    assert pos == fv1d.locate_jump(x, step) and abs(pos - 0.5102) < 1e-4


def test_measure_shock_speed_synthetic():
    grid = fv1d.Grid1D(200, 0.0, 2.0)
    dt = 0.01
    speed = 0.5
    snaps = []
    for k in (0, 50, 100, 150):
        pos = 0.4 + speed * k * dt
        snaps.append((k, np.where(grid.x < pos, 1.0, 0.0)))
    measured = fv1d.measure_shock_speed(snaps, grid.x, dt)
    assert abs(measured - speed) < 2.0 * grid.dx / (150 * dt)
    with pytest.raises(DiagnosticError):
        fv1d.measure_shock_speed([(0, np.ones(200))], grid.x, dt)
