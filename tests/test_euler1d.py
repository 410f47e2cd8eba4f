import time

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
        euler1d.step(w.T, 1e-4, x[1] - x[0], 1.4)
    w[3, 0] = 1.0
    with pytest.raises(InadmissibleStateError,
                       match="internal energy -1.0 below 1e-12 at node 5$"):
        euler1d.step(w.T, 1e-4, x[1] - x[0], 1.4)


def test_step_rejects_nan_states():
    x, w = euler1d.sod_initial(10)
    w[4, 0] = np.nan
    with pytest.raises(InadmissibleStateError, match="density nan below 1e-12 at node 4$"):
        euler1d.step(w.T, 1e-4, x[1] - x[0], 1.4)
    w[4, 0] = 1.0
    w[6, 2] = np.nan
    with pytest.raises(InadmissibleStateError,
                       match="internal energy nan below 1e-12 at node 6$"):
        euler1d.step(w.T, 1e-4, x[1] - x[0], 1.4)


def test_corrected_step_rejects_collapsed_new_density():
    """The velocity correction divides by each element's new density sum, so
    a step that drives one below zero raises in the step itself; without the
    correction the step returns the state and the next step rejects it."""
    x, w = euler1d.sod_initial(8)
    h = x[1] - x[0]
    w_next = euler1d.step(w.T.copy(), 0.5, h, 1.4, correct=False)[0].T
    sums = w_next[:-1, 0] + w_next[1:, 0]
    assert sums[2] < 0.0 and np.delete(sums, 2).min() > 0.0
    with pytest.raises(InadmissibleStateError, match=r"density sum \S+ below 1e-12 in element 2$"):
        euler1d.step(w.T.copy(), 0.5, h, 1.4, correct=True)


def test_corrected_step_closes_balances():
    x, w = euler1d.sod_initial(50)
    h = x[1] - x[0]
    _, dm, de = euler1d.step(w.T, 1e-4, h, 1.4, correct=True)
    assert dm < 1e-13
    assert de < 1e-13


def test_uncorrected_step_reports_defect():
    x, w = euler1d.sod_initial(50)
    h = x[1] - x[0]
    _, dm, de = euler1d.step(w.T, 1e-4, h, 1.4, correct=False)
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


@pytest.mark.parametrize("t_end", [np.nan, -0.1])
def test_run_sod_rejects_a_t_end_that_is_not_a_number_at_least_0(t_end):
    with pytest.raises(ValueError, match=f"t_end {t_end} is not a finite number >= 0"):
        euler1d.run_sod(20, t_end=t_end)


def test_run_sod_checks_its_final_state():
    """One uncorrected step at CFL 50 reaches t_end with a negative density;
    the returned state is checked like every other."""
    with pytest.raises(InadmissibleStateError, match=r"density -4\.17\d* below 1e-12 at node 24$"):
        euler1d.run_sod(n_cells=50, cfl=50.0, correct=False)


def test_run_sod_caps_the_step_count():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="takes more than 1000000 steps"):
        euler1d.run_sod(50, cfl=1e-300)
    assert time.perf_counter() - start < 1.0


def test_run_sod_evaluates_wave_speeds_once_per_state(monkeypatch):
    """Each state's check and wave speeds serve both its step size and its
    step's Rusanov bound: one evaluation per state, the last included."""
    calls = {"step": 0, "speed": 0}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(euler1d, "step", counted("step", euler1d.step))
    monkeypatch.setattr(euler1d, "checked_wave_speed",
                        counted("speed", euler1d.checked_wave_speed))
    res = euler1d.run_sod(n_cells=40, t_end=0.02)
    assert calls["step"] == len(res.mass_history) > 1
    assert calls["speed"] == len(res.mass_history) + 1


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
        got = euler1d.step(w.T, 2e-3, x[1] - x[0], 1.4, correct=correct)
        ref = oracle_euler1d_step(w, 2e-3, x[1] - x[0], 1.4, correct=correct)
        assert np.array_equal(got[0].T, ref[0]) and got[1:] == ref[1:]
        w = got[0].T


@pytest.mark.parametrize("correct", [True, False])
def test_run_sod_matches_frozen_step_loop_bit_for_bit(correct):
    res = euler1d.run_sod(n_cells=200, t_end=0.05, correct=correct)
    w, t, defect_m, defect_e, mass_history = oracle_run_sod(200, 0.05, correct)
    assert np.array_equal(res.w, w)
    assert (res.defect_m, res.defect_e) == (defect_m, defect_e)
    assert res.mass_history == mass_history and res.t == t


@pytest.mark.parametrize("n_cells", [1, 2])
@pytest.mark.parametrize("correct", [True, False])
def test_step_matches_inline_corrections_on_one_and_two_cells(n_cells, correct):
    """The scatter's edge rows: with one cell both end nodes take a single
    contribution and no node takes two."""
    rng = np.random.default_rng(12)
    x, w = euler1d.sod_initial(n_cells)
    w = w * rng.uniform(0.8, 1.2, size=w.shape) + [0.0, 0.1, 0.0]
    for _ in range(5):
        got = euler1d.step(w.T, 2e-3, x[1] - x[0], 1.4, correct=correct)
        ref = oracle_euler1d_step(w, 2e-3, x[1] - x[0], 1.4, correct=correct)
        assert np.array_equal(got[0].T, ref[0]) and got[1:] == ref[1:]
        w = got[0].T


@pytest.mark.parametrize("correct", [True, False])
def test_step_writes_nothing_into_its_arguments(correct):
    """The step works in buffers of its own: the state, the wave speeds and
    the cached lumped mass come back byte for byte, and the new state shares
    no memory with the old."""
    rng = np.random.default_rng(11)
    x, w = euler1d.sod_initial(40)
    w = (w * rng.uniform(0.8, 1.2, size=w.shape) + [0.0, 0.1, 0.0]).T.copy()
    h = x[1] - x[0]
    sp = euler1d.checked_wave_speed(w, 1.4)
    mass = euler1d._lumped_mass(w.shape[1], h)
    before = [a.tobytes() for a in (w, sp, mass)]
    w_next, _, _ = euler1d.step(w, 2e-3, h, 1.4, correct=correct, speed=sp)
    assert euler1d._lumped_mass(w.shape[1], h) is mass
    assert [a.tobytes() for a in (w, sp, mass)] == before
    assert not np.shares_memory(w_next, w)


def test_run_sod_calls_each_correction_once_per_step(monkeypatch):
    """The corrections stay in ``constraints``: one velocity and one energy
    correction per step, and none without corrections."""
    calls = {"velocity_correction": 0, "energy_correction": 0}

    def counted(name):
        fn = getattr(euler1d, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in calls:
        monkeypatch.setattr(euler1d, name, counted(name))
    res = euler1d.run_sod(n_cells=40, t_end=0.02)
    assert calls == dict.fromkeys(calls, len(res.mass_history)) and len(res.mass_history) > 1
    calls.update(dict.fromkeys(calls, 0))
    euler1d.run_sod(n_cells=40, t_end=0.02, correct=False)
    assert calls == dict.fromkeys(calls, 0)
