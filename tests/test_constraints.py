import numpy as np
import pytest

from rdlab import constraints as cs
from rdlab.errors import InadmissibleStateError, InfeasibleCorrectionError


def random_primitive(rng, n=2):
    return np.stack(
        [rng.uniform(0.2, 2.0, n), rng.uniform(-1.0, 1.0, n),
         rng.uniform(0.2, 2.0, n)], axis=-1
    )


def conserved(w):
    rho, u, e = w[..., 0], w[..., 1], w[..., 2]
    return np.stack([rho, rho * u, e + 0.5 * rho * u * u], axis=-1)


def test_increment_matrix_identity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        w_p = random_primitive(rng)
        w_p1 = random_primitive(rng)
        M = cs.conserved_increment_matrix(w_p, w_p1)
        lhs = np.einsum("...ij,...j->...i", M, w_p1 - w_p)
        rhs = conserved(w_p1) - conserved(w_p)
        assert np.abs(lhs - rhs).max() < 1e-12 * (1.0 + np.abs(rhs).max())


def test_increment_matrix_is_lower_triangular():
    rng = np.random.default_rng(1)
    M = cs.conserved_increment_matrix(random_primitive(rng), random_primitive(rng))
    assert np.allclose(np.triu(M, k=1), 0.0)
    assert np.allclose(M[..., 0, 0], 1.0)
    assert np.allclose(M[..., 2, 2], 1.0)


def test_velocity_correction_closes_momentum_balance():
    rng = np.random.default_rng(2)
    phi_rho = rng.normal(size=2)
    phi_u = rng.normal(size=2)
    rho_p1 = rng.uniform(0.5, 2.0, 2)
    u_p = rng.normal(size=2)
    target = 0.7
    r_u = cs.velocity_correction(phi_rho, phi_u, rho_p1, u_p, target)
    closed = np.sum(rho_p1 * (phi_u + r_u) + u_p * phi_rho)
    assert abs(closed - target) < 1e-13


def test_velocity_correction_rejects_vanishing_density():
    with pytest.raises(InadmissibleStateError):
        cs.velocity_correction(np.zeros(2), np.zeros(2), np.zeros(2),
                               np.zeros(2), 1.0)


def test_velocity_correction_rejects_nan_density():
    rho_p1 = np.array([[1.0, 1.0, np.nan], [1.0, 1.0, 1.0]])    # (2 DOFs, 3 elements)
    with pytest.raises(InadmissibleStateError, match="density sum nan below 1e-12 in element 2$"):
        cs.velocity_correction(np.zeros((2, 3)), np.zeros((2, 3)), rho_p1,
                               np.zeros((2, 3)), np.zeros(3))


def test_energy_correction_closes_energy_balance():
    rng = np.random.default_rng(3)
    w_p = random_primitive(rng)
    w_p1 = random_primitive(rng)
    phi_rho = rng.normal(size=2)
    phi_u = rng.normal(size=2)
    phi_e = rng.normal(size=2)
    target = -0.4
    mapped = cs.energy_residuals(phi_rho, phi_u, phi_e, w_p[..., 1], w_p1[..., 0], w_p1[..., 1])
    r_e = cs.energy_correction(mapped, target)
    phi = np.stack([phi_rho, phi_u, phi_e + r_e], axis=-1)
    M = cs.conserved_increment_matrix(w_p, w_p1)
    mapped = np.einsum("...ij,...j->...i", M, phi)[..., 2]
    assert abs(mapped.sum() - target) < 1e-13


def test_batched_corrections_equal_per_element_calls():
    """(2, k) inputs, DOF axis first, give the k per-element 1-D results bit
    for bit."""
    rng = np.random.default_rng(4)
    k = 37
    phi_rho, phi_u, phi_e, u_p, u_p1 = rng.normal(size=(5, 2, k))
    rho_p1 = rng.uniform(0.2, 2.0, (2, k))
    target_m, target_e = rng.normal(size=(2, k))
    r_u = cs.velocity_correction(phi_rho, phi_u, rho_p1, u_p, target_m)
    mapped = cs.energy_residuals(phi_rho, phi_u, phi_e, u_p, rho_p1, u_p1)
    r_e = cs.energy_correction(mapped, target_e)
    for j in range(k):
        pr, pu, pe, up, rp, up1 = (a[:, j] for a in (phi_rho, phi_u, phi_e, u_p, rho_p1, u_p1))
        assert r_u[j] == cs.velocity_correction(pr, pu, rp, up, target_m[j])
        one = cs.energy_residuals(pr, pu, pe, up, rp, up1)
        assert np.array_equal(mapped[:, j], one)
        assert r_e[j] == cs.energy_correction(one, target_e[j])


def test_divided_difference():
    kappa = 0.4
    dd = cs.divided_difference_rho_kappa(1.0, 2.0, kappa)
    assert abs(dd - (2.0**-kappa - 1.0)) < 1e-14
    # coincidence uses the derivative branch
    same = cs.divided_difference_rho_kappa(1.5, 1.5, kappa)
    assert abs(same - (-kappa * 1.5 ** (-(kappa + 1.0)))) < 1e-14
    arr = cs.divided_difference_rho_kappa(
        np.array([1.0, 1.5]), np.array([2.0, 1.5]), kappa
    )
    assert abs(arr[1] - same) < 1e-14


def test_entropy_pressure_correction_nonuniform():
    rho = np.array([1.0, 0.5, 2.0])
    kappa = 0.4
    E1, E2 = 0.3, -0.1
    r = cs.entropy_pressure_correction(rho, kappa, E1, E2)
    assert abs(r.sum() - E1) < 1e-12
    assert abs(np.sum(rho ** (-kappa) * r) - E2) < 1e-12


def test_entropy_pressure_correction_uniform_compatible():
    rho = np.full(3, 2.0)
    kappa = 0.4
    E1 = 0.9
    E2 = 2.0 ** (-kappa) * E1
    r = cs.entropy_pressure_correction(rho, kappa, E1, E2)
    assert abs(r.sum() - E1) < 1e-12


def test_entropy_pressure_correction_uniform_incompatible_raises():
    rho = np.ones(3)
    with pytest.raises(InfeasibleCorrectionError):
        cs.entropy_pressure_correction(rho, 0.4, 1.0, 2.0)
