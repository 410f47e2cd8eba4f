"""The batched residual kernel against the frozen per-element reference.

Every family, at P1 and P2, for scalar and system laws, on a mesh whose
interior vertices are jittered by a seeded RNG, must reproduce the
pre-batching per-element code kept in ``_oracles.py`` within 1e-14 of the
largest reference entry.
"""

import ast
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from _oracles import (
    OracleDiscretization,
    oracle_dec_run,
    oracle_dec_step,
    oracle_lumped_mass,
    oracle_mass_apply,
    oracle_monotone_dt,
    oracle_rusanov_coefficients,
)
from rdlab import mesh as msh
from rdlab import time_dec as td
from rdlab.conslaw import Advection, Burgers, Euler, ScalarLaw, conserved_from_primitive
from rdlab.errors import UnsupportedFeatureError
from rdlab.rd_core import Discretization, Scheme, monotone_dt, rusanov_coefficients

RTOL = 1e-14
BASE = np.array([1.0, 0.3, 0.2, 1.0])  # rho, vx, vy, p


def assert_close(got, ref):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= RTOL * np.abs(ref).max()


def jittered_tri_mesh(n, degree, seed):
    """Structured n x n mesh with interior vertices moved by up to 0.15 h."""
    mesh = msh.build_structured_tri_mesh(n, n, degree=degree)
    x = mesh.vertices
    inner = (x > 0.0).all(axis=1) & (x < 1.0).all(axis=1)
    rng = np.random.default_rng(seed)
    x[inner] += rng.uniform(-0.15, 0.15, size=(inner.sum(), 2)) / n
    return mesh


def read_back(mesh, tmp_path):
    """The mesh written as text with ``np.savetxt`` and built by hand from
    what ``np.loadtxt`` reads back: its vertices, elements, degree and period."""
    np.savetxt(tmp_path / "vertices.txt", mesh.vertices, fmt="%.17g")
    np.savetxt(tmp_path / "elements.txt", mesh.elements, fmt="%d")
    return msh.Mesh(dim=mesh.dim, vertices=np.loadtxt(tmp_path / "vertices.txt", ndmin=2),
                    elements=np.loadtxt(tmp_path / "elements.txt", dtype=int, ndmin=2),
                    degree=mesh.degree, period=mesh.period)


def make_law(name, dim=2):
    return {"advection": lambda: Advection((1.0, 0.5)[:dim]),
            "burgers": lambda: Burgers(dim=dim),
            "euler": lambda: Euler(gamma=1.4, dim=dim)}[name]()


def random_state(law, coords, seed):
    rng = np.random.default_rng(seed)
    n = coords.shape[0]
    if law.m == 1:
        return rng.uniform(-1.0, 2.0, size=(n, 1))
    d = law.dim
    w = np.concatenate([BASE[:1 + d], BASE[-1:]]) + rng.uniform(-0.2, 0.2, (n, d + 2))
    return conserved_from_primitive(w)


def boundary_state(law):
    """A constant boundary state and a callable one."""
    if law.m == 1:
        return 0.5, lambda x: 0.5 + x[..., :1] * x[..., -1:]
    d = law.dim
    w = np.concatenate([BASE[:1 + d], BASE[-1:]])

    def varying(x):
        return conserved_from_primitive(w + 0.1 * np.sin(3.0 * x[..., :1]))

    return conserved_from_primitive(w), varying


def pair(mesh, law):
    return Discretization(mesh, law), OracleDiscretization(mesh, law)


def oracle_config(method, cfl):
    """The sweep table the reference DeC step reads: forward Euler is one
    sweep of the frozen residual, CN two sweeps of the trapezoidal average."""
    sweeps = {"euler": (1, (1.0, 0.0)), "cn": (2, (0.5, 0.5))}[method]
    return SimpleNamespace(method=method, cfl=cfl, iterations=sweeps[0], weights=sweeps[1])


@pytest.mark.parametrize("kind", Scheme.KINDS)
@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("law_name", ["advection", "burgers", "euler"])
def test_families_match_reference(law_name, degree, kind):
    law = make_law(law_name)
    disc, ref = pair(jittered_tri_mesh(3, degree, seed=17), law)
    u = random_state(law, disc.dofmap.dof_coords, seed=3)
    scheme = Scheme(kind=kind)
    phi = disc.residual_set(u, scheme).phi
    assert_close(phi, ref.residual_set(u, scheme).phi)
    # the per-element call is the same slice of the batch
    e = disc.mesh.n_elements // 2
    assert np.array_equal(disc.element_residuals([e], u, scheme)[0], phi[e])


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("law_name", ["advection", "burgers", "euler"])
def test_alpha_totals_boundary_and_assembly_match_reference(law_name, degree):
    law = make_law(law_name)
    disc, ref = pair(jittered_tri_mesh(3, degree, seed=29), law)
    u = random_state(law, disc.dofmap.dof_coords, seed=8)
    ne = disc.mesh.n_elements
    nf = disc.nbr.shape[1]
    assert {divmod(a, nf): divmod(int(b), nf)
            for a, b in enumerate(disc.nbr.flat) if b >= 0} == ref._neighbors
    assert_close(disc.rusanov_alpha(np.arange(ne), u),
                 [ref.rusanov_alpha(e, u) for e in range(ne)])
    assert_close(disc.total_residual(np.arange(ne), u),
                 [ref.total_residual(e, u) for e in range(ne)])
    for u_b in boundary_state(law):
        for face in disc.mesh.boundary_faces:
            dofs, psi = disc.boundary_residuals(face, u, u_b)
            ref_dofs, ref_psi = ref.boundary_residuals(face, u, u_b)
            assert tuple(dofs) == ref_dofs
            assert_close(psi, ref_psi)
        R, _ = disc.assemble(u, Scheme(kind="limited"), u_b)
        assert_close(R, ref.assemble(u, Scheme(kind="limited"), u_b)[0])


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("law_name", ["advection", "burgers"])
def test_coefficients_and_monotone_dt_match_reference(law_name, degree):
    law = make_law(law_name)
    disc, ref = pair(jittered_tri_mesh(4, degree, seed=5), law)
    u = random_state(law, disc.dofmap.dof_coords, seed=6)
    ne = disc.mesh.n_elements
    for alpha in (None, 2.5):
        assert_close(rusanov_coefficients(disc, np.arange(ne), u, alpha=alpha),
                     [oracle_rusanov_coefficients(ref, e, u, alpha=alpha)
                      for e in range(ne)])
    mass = td.lumped_mass(disc)
    assert np.array_equal(mass, oracle_lumped_mass(ref)[0])
    assert_close(monotone_dt(disc, u, mass), oracle_monotone_dt(ref, u, mass))
    assert_close(td.mass_apply(disc, u), oracle_mass_apply(ref, u))


def jittered_interval_mesh(n, periodic, seed):
    mesh = msh.build_interval_mesh(n, periodic=periodic)
    rng = np.random.default_rng(seed)
    mesh.vertices[1:-1, 0] += rng.uniform(-0.2, 0.2, size=mesh.n_vertices - 2) / n
    return mesh


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("law_name", ["advection", "burgers", "euler"])
def test_1d_families_match_reference(law_name, periodic):
    law = make_law(law_name, dim=1)
    disc, ref = pair(jittered_interval_mesh(10, periodic, seed=2), law)
    u = random_state(law, disc.dofmap.dof_coords, seed=4)
    for kind in Scheme.KINDS:
        scheme = Scheme(kind=kind)
        if "jump" in kind:
            with pytest.raises(UnsupportedFeatureError):
                disc.residual_set(u, scheme)
            continue
        assert_close(disc.residual_set(u, scheme).phi, ref.residual_set(u, scheme).phi)
    for u_b in boundary_state(law):
        for face in disc.mesh.boundary_faces:
            dofs, psi = disc.boundary_residuals(face, u, u_b)
            assert tuple(dofs) == ref.boundary_residuals(face, u, u_b)[0]
            assert_close(psi, ref.boundary_residuals(face, u, u_b)[1])
    assert_close(td.mass_apply(disc, u), oracle_mass_apply(ref, u))


def test_cn_dec_run_matches_reference_on_readme_problem():
    """Five CN steps of the README problem (16x16 P1, limited, bump)."""
    mesh = msh.build_structured_tri_mesh(16, 16)
    law = Advection((1.0, 0.5))
    disc, ref = pair(mesh, law)
    x = disc.dofmap.dof_coords
    u0 = np.exp(-40.0 * np.sum((x - 0.5) ** 2, axis=1))
    config = td.DecConfig(method="cn")
    dt = td.stable_dt(disc, u0[:, None], config.cfl)
    scheme = Scheme(kind="limited")
    u, records, _ = td.dec_run(disc, u0, 5 * dt, scheme, config, u_b=0.0, dt=dt)
    times = [0.0, *(t for t, *_ in records)]
    logs = [(t, None, mass, res) for t, mass, res, *_ in records], []
    u_ref, times_ref = oracle_dec_run(ref, u0, 5 * dt, scheme, oracle_config("cn", config.cfl),
                                      u_b=0.0, dt=dt, log=lambda *row: logs[1].append(row))
    assert times == times_ref and len(times) == 6
    assert_close(u, u_ref)
    for (t, _, mass, res), (t_ref, _, mass_ref, res_ref) in zip(*logs):
        assert t == t_ref
        assert_close(mass, mass_ref)
        assert_close(res, res_ref)


@pytest.mark.parametrize("method", ["euler", "cn"])
@pytest.mark.parametrize("degree", [1, 2])
def test_dec_step_matches_reference_with_weak_boundaries(degree, method):
    """One step of either scheme, at P1 and P2, with the boundary state 0."""
    law = make_law("advection")
    disc, ref = pair(jittered_tri_mesh(4, degree, seed=11), law)
    u = random_state(law, disc.dofmap.dof_coords, seed=12)
    config = td.DecConfig(method)
    dt = td.stable_dt(disc, u, config.cfl)
    scheme = Scheme(kind="limited")
    got = td.dec_step(disc, u, dt, scheme, config, td.lumped_mass(disc), u_b=0.0)
    assert_close(got, oracle_dec_step(ref, u, dt, scheme, oracle_config(method, config.cfl),
                                      u_b=0.0))


def test_reference_does_not_move_with_the_package(monkeypatch):
    """A scalar Jacobian scaled by 1 + 1e-10, or a P2 basis shifted by
    1e-10, moves the batched residuals away from the frozen reference."""
    jac_n, tri_basis = ScalarLaw.jac_n, msh.tri_basis
    patches = [(ScalarLaw, "jac_n", lambda law, u, n: jac_n(law, u, n) * (1.0 + 1e-10)),
               (msh, "tri_basis", lambda degree, lam: tri_basis(degree, lam) + 1e-10 * (degree == 2))]
    law = make_law("advection")
    mesh = jittered_tri_mesh(3, 2, seed=17)
    u = random_state(law, msh.build_dofmap(mesh).dof_coords, seed=3)
    scheme = Scheme(kind="rusanov")
    for target, name, patched in patches:
        with monkeypatch.context() as patch:
            patch.setattr(target, name, patched)
            disc, ref = pair(mesh, law)
            phi, want = disc.residual_set(u, scheme).phi, ref.residual_set(u, scheme).phi
        assert np.abs(phi - want).max() > RTOL * np.abs(want).max(), name


def test_reference_imports_no_package_code_under_test():
    """From the package, ``_oracles.py`` imports its exception types and the
    container of a residual set, at module level or inside a function."""
    tree = ast.parse(Path(__file__).with_name("_oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(alias.name, None) for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {(node.module, alias.name) for alias in node.names}
    package = {(module, name) for module, name in imported
               if module.split(".")[0] == "rdlab" and module != "rdlab.errors"}
    assert package == {("rdlab.rd_core", "ResidualSet")}
