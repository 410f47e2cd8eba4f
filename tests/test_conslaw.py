import numpy as np
import pytest

from _oracles import oracle_euler_flux
from rdlab import conslaw as cl
from rdlab import mesh as msh
from rdlab.errors import InadmissibleStateError
from rdlab.rd_core import Discretization


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


SCALAR_LAWS = {"advection-1d": cl.Advection([1.3]), "advection-2d": cl.Advection((1.0, -0.5)),
               "burgers-1d": cl.Burgers(1), "burgers-2d": cl.Burgers(2)}


@pytest.mark.parametrize("law", SCALAR_LAWS.values(), ids=SCALAR_LAWS.keys())
def test_scalar_entropy_pair_identity(law):
    """The square entropy pair of every scalar law: E = u^2/2, v = u, and
    d(G.n)/du = v f'(u).n by central differences on random states."""
    u = np.linspace(-2.0, 2.0, 11)[:, None]
    E, v, g = law.entropy(u), law.entropy_var(u)[:, 0], law.entropy_flux(u)[:, 0]
    assert np.allclose(E, 0.5 * u[:, 0] ** 2)
    assert np.array_equal(v, u[:, 0])
    if law.name == "burgers":
        # Tadmor potential identity: theta = v f(v) - g(v), theta = v^3/6
        assert np.allclose(v**3 / 6.0, v * cl.Burgers().flux(v[:, None])[:, 0, 0] - g, atol=1e-14)
    rng = np.random.default_rng(law.dim)
    u = rng.uniform(-2.0, 2.0, (200, 1))
    n = rng.normal(size=(200, law.dim))
    h = 1e-6
    dG = np.sum((law.entropy_flux(u + h) - law.entropy_flux(u - h)) * n, axis=-1) / (2.0 * h)
    vA = law.entropy_var(u)[:, 0] * law.jac_n(u, n)[:, 0, 0]
    assert np.all(np.abs(dG - vA) <= 1e-8)


@pytest.mark.parametrize("dim", [1, 2])
def test_euler_max_wave_speed_is_the_spectral_radius(dim):
    """The closed form |v.n| + c|n| is the largest |eigenvalue| of jac_n."""
    rng = np.random.default_rng(11 + dim)
    k = 200
    w = np.concatenate([rng.uniform(0.1, 2.0, (k, 1)), rng.uniform(-2.0, 2.0, (k, dim)),
                        rng.uniform(0.1, 2.0, (k, 1))], axis=-1)
    u = cl.conserved_from_primitive(w)
    n = rng.normal(size=(k, dim)) * rng.uniform(0.1, 5.0, (k, 1))
    law = cl.Euler(gamma=1.4, dim=dim)
    radius = np.abs(np.linalg.eigvals(law.jac_n(u, n))).max(axis=-1)
    assert np.all(np.abs(law.max_wave_speed(u, n) - radius) <= 1e-12 * radius)


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


def random_euler_states(rng, dim, shape):
    w = np.concatenate([rng.uniform(0.2, 2.0, shape + (1,)),
                        rng.uniform(-1.0, 1.0, shape + (dim,)),
                        rng.uniform(0.2, 2.0, shape + (1,))], axis=-1)
    return cl.conserved_from_primitive(w)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_euler_flux_is_bit_identical_to_the_frozen_flux(dim):
    """Shapes (m,), (k, m) and (k, nf, nfq, m), as the kernels call it."""
    rng = np.random.default_rng(40 + dim)
    law = cl.Euler(dim=dim)
    for shape in [(), (7,), (5, 3, 4)]:
        u = random_euler_states(rng, dim, shape)
        ref = oracle_euler_flux(u)
        assert ref.shape == shape + (dim, dim + 2)
        assert np.array_equal(cl.euler_flux(u), ref)
        assert np.array_equal(law.flux(u), ref)


@pytest.mark.parametrize("bad", ["nan_density", "nan_energy", "negative_pressure"])
@pytest.mark.parametrize("dim", [1, 2])
def test_euler_kernels_reject_inadmissible_states_as_before(dim, bad):
    """The flux raises what the frozen flux raises, with the same message;
    ``jac_n`` and ``max_wave_speed`` raise what ``primitive_from_conserved``
    raises."""
    law = cl.Euler(dim=dim)
    u = random_euler_states(np.random.default_rng(5), dim, (4,))
    if bad == "nan_density":
        u[2, 0] = np.nan
    elif bad == "nan_energy":
        u[2, -1] = np.nan
    else:
        u[2, -1] = 0.4 * u[2, 1] ** 2 / u[2, 0]   # below the kinetic energy
    n = np.eye(dim)[0]
    with pytest.raises(InadmissibleStateError) as ref:
        oracle_euler_flux(u)
    with pytest.raises(InadmissibleStateError) as conv:
        cl.primitive_from_conserved(u)
    assert str(conv.value) == str(ref.value)
    for kernel in (cl.euler_flux, law.flux, lambda s: law.jac_n(s, n),
                   lambda s: law.max_wave_speed(s, n)):
        with pytest.raises(InadmissibleStateError) as got:
            kernel(u)
        assert str(got.value) == str(ref.value)


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


@pytest.mark.parametrize("spec", ["burgers(7)", "cubic(2,3)", "euler(1.4, 9)"])
def test_make_law_rejects_parameters_the_law_does_not_read(spec):
    with pytest.raises(ValueError, match="takes at most"):
        cl.make_law(spec)


@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("dim", [1, 2])
def test_scalar_jac_n_matches_matrix_product(dim, p):
    """The componentwise n.a of ``ScalarLaw.jac_n`` against ``n @ a``, on
    batched normals shaped like the basis gradients at the volume points
    (ne, nq, #K, dim) and the scaled face normals (ne, nf, dim)."""
    mesh = msh.build_interval_mesh(5) if dim == 1 else msh.build_structured_tri_mesh(3, 2)
    law = cl.ScalarLaw((0.7, -1.3)[:dim], p, "scalar")
    disc = Discretization(mesh, law)
    rng = np.random.default_rng(p)
    for n in (disc.vgrad, disc.snormal):
        u = rng.uniform(-2.0, 2.0, size=n.shape[:-1] + (1,))
        ref = (u[..., 0] ** (p - 1) * (n @ law.a))[..., None, None]
        got = law.jac_n(u, n)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()
