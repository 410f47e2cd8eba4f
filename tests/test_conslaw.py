import numpy as np
import pytest

from rdlab import conslaw as cl
from rdlab.errors import InadmissibleStateError


def test_advection_flux_and_jacobian():
    law = cl.Advection((2.0, -1.0))
    u = np.array([[0.5], [-1.0]])
    f = law.flux(u)
    assert f.shape == (2, 2, 1)
    assert np.allclose(f[0, :, 0], [1.0, -0.5])
    n = np.array([1.0, 1.0])
    assert np.allclose(law.jac_n(u, n)[..., 0, 0], 1.0)
    assert np.allclose(law.max_wave_speed(u, n), 1.0)


def test_burgers_flux_and_direction():
    law = cl.Burgers(dim=2)
    u = np.array([[2.0]])
    f = law.flux(u)
    assert np.allclose(f[0], [[2.0], [0.0]])
    assert abs(law.jac_n(u, np.array([1.0, 0.0]))[0, 0, 0] - 2.0) < 1e-14


def test_cubic_transport():
    law = cl.CubicTransport()
    u = np.array([[2.0]])
    assert abs(law.flux(u)[0, 0, 0] - 4.0) < 1e-14
    assert abs(law.jac_n(u, np.array([1.0]))[0, 0, 0] - 8.0) < 1e-14


def test_burgers_entropy_pair_identity():
    u = np.linspace(-2.0, 2.0, 11)
    E, v, theta, g = cl.entropy_pair_burgers(u)
    assert np.allclose(E, 0.5 * u**2)
    # Tadmor potential identity: theta = v f(v) - g(v)
    assert np.allclose(theta, v * cl.burgers_flux(u) - g, atol=1e-14)


def test_rh_shock_speed():
    assert abs(cl.rh_shock_speed([1.0], [0.0], cl.Burgers()) - 0.5) < 1e-14
    assert abs(cl.rh_shock_speed([1.0], [0.0], cl.CubicTransport()) - 0.25) < 1e-14
    # degenerate jump falls back to the characteristic speed
    assert abs(cl.rh_shock_speed([2.0], [2.0], cl.Burgers()) - 2.0) < 1e-14


def test_euler_conversion_roundtrip():
    rng = np.random.default_rng(3)
    w = np.stack(
        [rng.uniform(0.1, 2.0, 50), rng.uniform(-1, 1, 50),
         rng.uniform(-1, 1, 50), rng.uniform(0.1, 2.0, 50)], axis=-1
    )
    u = cl.conserved_from_primitive(w)
    back = cl.primitive_from_conserved(u)
    assert np.allclose(back, w, atol=1e-13)


def test_inadmissible_states_raise():
    with pytest.raises(InadmissibleStateError):
        cl.primitive_from_conserved(np.array([-1.0, 0.0, 1.0]))
    with pytest.raises(InadmissibleStateError):
        cl.conserved_from_primitive(np.array([1.0, 0.0, -1.0]))
    with pytest.raises(InadmissibleStateError):
        # kinetic energy exceeds the total energy -> negative pressure
        cl.primitive_from_conserved(np.array([1.0, 2.0, 1.0]))


def test_conversion_accepts_exactly_the_admissible_states():
    """Near the density and pressure bounds, and with NaN in any component,
    ``Euler.admissible`` and ``primitive_from_conserved`` agree state by
    state."""
    law = cl.Euler(dim=1)
    rng = np.random.default_rng(19)
    rho = rng.uniform(-1e-12, 3e-12, 200)
    u = np.stack([rho, np.zeros_like(rho), rng.uniform(-1e-12, 6e-12, 200) / 0.4], axis=-1)
    u = np.concatenate([u, [[1e-12, 0.0, 1.0], [0.0, 0.0, 1.0]], 1.0 + np.diag([np.nan] * 3)])
    ok = law.admissible(u)
    assert ok.any() and not ok[-3:].any()
    for state, accepted in zip(u, ok):
        if accepted:
            cl.primitive_from_conserved(state)
        else:
            with pytest.raises(InadmissibleStateError):
                cl.primitive_from_conserved(state)


def test_euler_flux_value():
    w = np.array([1.2, 0.3, 2.0])  # rho, v, p in 1D
    u = cl.conserved_from_primitive(w)
    f = cl.euler_flux(u)[0]
    E = u[-1]
    assert np.allclose(f, [1.2 * 0.3, 1.2 * 0.09 + 2.0, 0.3 * (E + 2.0)])


def test_euler_jacobian_matches_finite_differences():
    law = cl.Euler(gamma=1.4, dim=2)
    rng = np.random.default_rng(7)
    n = np.array([0.6, -0.8])
    for _ in range(10):
        w = np.array([rng.uniform(0.5, 2), rng.uniform(-1, 1),
                      rng.uniform(-1, 1), rng.uniform(0.5, 2)])
        u = cl.conserved_from_primitive(w)
        A = law.jac_n(u, n)
        eps = 1e-6
        for j in range(4):
            du = np.zeros(4)
            du[j] = eps
            fp = np.einsum("dm,d->m", law.flux(u + du), n)
            fm = np.einsum("dm,d->m", law.flux(u - du), n)
            assert np.allclose(A[:, j], (fp - fm) / (2 * eps), atol=5e-6)


def test_euler_max_wave_speed():
    law = cl.Euler(gamma=1.4, dim=1)
    u = cl.conserved_from_primitive(np.array([1.0, 0.5, 1.0]))
    a = np.sqrt(1.4)
    assert abs(law.max_wave_speed(u, np.array([1.0])) - (0.5 + a)) < 1e-13


def test_make_law_parsing():
    law = cl.make_law("advection(1, 0.5)", dim=2)
    assert isinstance(law, cl.Advection)
    assert np.allclose(law.a, [1.0, 0.5])
    assert isinstance(cl.make_law("burgers", dim=2), cl.Burgers)
    assert isinstance(cl.make_law("cubic"), cl.CubicTransport)
    e = cl.make_law("euler(1.667)", dim=1)
    assert isinstance(e, cl.Euler) and abs(e.gamma - 1.667) < 1e-14
    with pytest.raises(ValueError):
        cl.make_law("navier_stokes")
    with pytest.raises(ValueError):
        cl.make_law("advection(1,")
