import numpy as np
import pytest

from _oracles import oracle_euler1d_step, oracle_primitive_matrix, oracle_run_sod
from rdlab import euler1d
from rdlab.errors import InadmissibleStateError


def test_primitive_matrix_structure():
    w = np.array([2.0, 0.5, 1.5])
    gamma = 1.4
    B = oracle_primitive_matrix(w, gamma)
    k = gamma - 1.0
    expect = np.array([
        [0.5, 2.0, 0.0],
        [0.0, 0.5, k / 2.0],
        [0.0, gamma * 1.5, 0.5],
    ])
    assert np.allclose(B, expect, atol=1e-14)


def test_wave_speed_and_fluxes():
    gamma = 1.4
    w = np.array([1.0, 0.3, 2.5])
    p = (gamma - 1.0) * 2.5
    c = np.sqrt(gamma * p / 1.0)
    assert abs(euler1d.wave_speed(w, gamma) - (0.3 + c)) < 1e-14
    assert abs(euler1d.momentum_flux(w, gamma) - (0.09 + p)) < 1e-14
    E = 2.5 + 0.5 * 0.09
    assert abs(euler1d.energy_flux(w, gamma) - 0.3 * (E + p)) < 1e-14


def test_step_rejects_inadmissible_states():
    x, w = euler1d.sod_initial(10)
    w[3, 0] = -1.0
    w[5, 2] = -1.0
    with pytest.raises(InadmissibleStateError, match="density -1.0 below 1e-12 at node 3$"):
        euler1d.step(w, 1e-4, x[1] - x[0], 1.4)
    w[3, 0] = 1.0
    with pytest.raises(InadmissibleStateError,
                       match="internal energy -1.0 below 1e-12 at node 5$"):
        euler1d.step(w, 1e-4, x[1] - x[0], 1.4)


def test_step_rejects_nan_states():
    x, w = euler1d.sod_initial(10)
    w[4, 0] = np.nan
    with pytest.raises(InadmissibleStateError, match="density nan below 1e-12 at node 4$"):
        euler1d.step(w, 1e-4, x[1] - x[0], 1.4)
    w[4, 0] = 1.0
    w[6, 2] = np.nan
    with pytest.raises(InadmissibleStateError,
                       match="internal energy nan below 1e-12 at node 6$"):
        euler1d.step(w, 1e-4, x[1] - x[0], 1.4)


def test_corrected_step_rejects_collapsed_new_density():
    """The velocity correction divides by each element's new density sum, so
    a step that drives one below zero raises in the step itself; without the
    correction the step returns the state and the next step rejects it."""
    x, w = euler1d.sod_initial(8)
    h = x[1] - x[0]
    w_next, _, _ = euler1d.step(w.copy(), 0.5, h, 1.4, correct=False)
    sums = w_next[:-1, 0] + w_next[1:, 0]
    assert sums[2] < 0.0 and np.delete(sums, 2).min() > 0.0
    with pytest.raises(InadmissibleStateError, match=r"density sum \S+ below 1e-12 in element 2$"):
        euler1d.step(w.copy(), 0.5, h, 1.4, correct=True)


def test_corrected_step_closes_balances():
    x, w = euler1d.sod_initial(50)
    h = x[1] - x[0]
    _, dm, de = euler1d.step(w, 1e-4, h, 1.4, correct=True)
    assert dm < 1e-13
    assert de < 1e-13


def test_uncorrected_step_reports_defect():
    x, w = euler1d.sod_initial(50)
    h = x[1] - x[0]
    _, dm, de = euler1d.step(w, 1e-4, h, 1.4, correct=False)
    assert dm > 1e-8 or de > 1e-8


def test_run_sod_short_history():
    res = euler1d.run_sod(n_cells=100, t_end=0.02)
    assert abs(res.t - 0.02) < 1e-12
    assert res.defect_m < 1e-12 and res.defect_e < 1e-12
    assert np.all(res.density() > 0.0)
    assert np.all(res.pressure() > 0.0)
    masses = np.array([m for _, m in res.mass_history])
    assert np.ptp(masses) < 1e-10  # lumped density mass is constant in time


@pytest.mark.parametrize("cfl", [0.0, -0.3])
def test_run_sod_rejects_a_step_that_is_not_positive(cfl):
    with pytest.raises(ValueError, match="is not positive"):
        euler1d.run_sod(n_cells=20, t_end=0.01, cfl=cfl)


def test_locate_shock_synthetic():
    x = np.linspace(0.0, 1.0, 101)
    rho = np.where(x < 0.8, 0.4, 0.125)
    assert abs(euler1d.locate_shock(x, rho) - 0.8) < 0.02


@pytest.mark.parametrize("correct", [True, False])
def test_step_matches_inline_corrections_bit_for_bit(correct):
    """The component-first step with the batched ``constraints`` corrections
    gives the states and defects of the frozen (n, 3) step with the inline
    corrections, bit for bit."""
    rng = np.random.default_rng(11)
    x, w = euler1d.sod_initial(40)
    w = w * rng.uniform(0.8, 1.2, size=w.shape) + [0.0, 0.1, 0.0]
    for _ in range(5):
        got = euler1d.step(w, 2e-3, x[1] - x[0], 1.4, correct=correct)
        ref = oracle_euler1d_step(w, 2e-3, x[1] - x[0], 1.4, correct=correct)
        assert np.array_equal(got[0], ref[0]) and got[1:] == ref[1:]
        w = got[0]


@pytest.mark.parametrize("correct", [True, False])
def test_run_sod_matches_frozen_step_loop_bit_for_bit(correct):
    res = euler1d.run_sod(n_cells=200, t_end=0.05, correct=correct)
    w, t, defect_m, defect_e, mass_history = oracle_run_sod(200, 0.05, correct)
    assert np.array_equal(res.w, w)
    assert (res.defect_m, res.defect_e) == (defect_m, defect_e)
    assert res.mass_history == mass_history and res.t == t
