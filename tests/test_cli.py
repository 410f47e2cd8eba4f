import os
import subprocess
import sys

import numpy as np
import pytest

import rdlab
from rdlab import diagnostics as diag
from rdlab import flux_recovery as fr
from rdlab import mesh as msh
from rdlab import time_dec
from rdlab.cli import main
from rdlab.conslaw import Advection, Burgers
from rdlab.flux_recovery import boundary_dof_flux
from rdlab.rd_core import Discretization, Scheme

RUN_INI = """
[law]
name = advection(1, 0.5)

[mesh]
kind = structured_tri
nx = 4
ny = 4

[scheme]
kind = rusanov

[time]
method = euler
t_end = 0.05

[run]
initial = bump
"""


def write_config(tmp_path, text=RUN_INI, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_writes_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    for name in ("solution.csv", "series.csv", "audit.txt", "manifest.txt"):
        assert (out / name).exists()
    audit = (out / "audit.txt").read_text()
    assert "conservation" in audit
    manifest = (out / "manifest.txt").read_text()
    assert "mesh.nx=4" in manifest


def test_run_is_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg, "--out", str(out1)]) == 0
    assert main(["run", cfg, "--out", str(out2)]) == 0
    assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()


def test_run_p2_with_weak_boundaries(tmp_path):
    cfg = write_config(tmp_path, RUN_INI.replace("ny = 4\n", "ny = 4\ndegree = 2\n"))
    out = tmp_path / "p2"
    assert main(["run", cfg, "--out", str(out)]) == 0
    data = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1)
    assert data.shape == (9 * 9, 4)  # the P2 lattice of a 4x4 grid
    assert "PASS conservation" in (out / "audit.txt").read_text()


def test_strict_rejects_a_step_above_the_cfl_bound(tmp_path, capsys):
    """The 4x4 grid's CFL bound is 0.0375 for the bump; a step of 0.05 only
    warns, and under --strict exits 3 naming the step and the bound."""
    cfg = write_config(tmp_path, with_key(RUN_INI, "time", "dt = 0.05"))
    with pytest.warns(time_dec.CflWarning, match="time step 0.05 exceeds the CFL bound 0.037"):
        assert main(["run", cfg, "--out", str(tmp_path / "warned")]) == 0
    capsys.readouterr()
    assert main(["run", cfg, "--out", str(tmp_path / "strict"), "--strict"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("step rejected: time step 0.05 exceeds the CFL bound 0.037")


def test_bad_config_exits_2(tmp_path):
    cfg = write_config(tmp_path, "[mesh]\nnz = 3\n", name="bad.ini")
    assert main(["run", cfg]) == 2


def test_bad_initial_exits_2(tmp_path):
    cfg = write_config(tmp_path, RUN_INI.replace("bump", "vortex"))
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2


def test_euler_run(tmp_path):
    ini = """
[law]
name = euler(1.4)

[mesh]
n = 100

[time]
t_end = 0.02
"""
    cfg = write_config(tmp_path, ini)
    out = tmp_path / "sod"
    assert main(["run", cfg, "--out", str(out), "--strict"]) == 0
    text = (out / "defects.txt").read_text()
    assert "momentum_defect=" in text
    assert "corrections=on" in text
    data = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1)
    assert data.shape == (101, 5)


SOD_INI = """
[law]
name = euler(1.4)

[mesh]
n = 20

[time]
t_end = 0.01
"""

TRI_INI = """
[mesh]
kind = structured_tri
nx = 2
ny = 2

[time]
t_end = 0.01
"""

INTERVAL_INI = """
[law]
name = advection(1)

[mesh]
kind = interval
n = 8

[time]
t_end = 0.01
"""


def with_key(ini, section, line):
    """``ini`` with ``line`` added to ``section``, opening it if absent."""
    head = f"[{section}]\n"
    return ini.replace(head, head + line + "\n") if head in ini else f"{ini}\n{head}{line}\n"


PATHS = {"sod": SOD_INI, "triangle": TRI_INI, "interval": INTERVAL_INI}


@pytest.mark.parametrize("path, section, key, value", [
    ("sod", "mesh", "kind", "structured_tri"),
    ("sod", "mesh", "nx", "8"),
    ("sod", "mesh", "ny", "8"),
    ("sod", "scheme", "kind", "limited_jump"),
    ("sod", "time", "method", "cn"),
    ("sod", "time", "dt", "0.001"),
    ("triangle", "mesh", "n", "50"),
    ("triangle", "mesh", "periodic", "true"),
    ("interval", "mesh", "nx", "4"),
    ("interval", "mesh", "ny", "4"),
    ("triangle", "corrections", "correct_conservation", "false"),
    ("interval", "corrections", "correct_conservation", "false"),
])
def test_key_the_run_does_not_read_exits_2(tmp_path, capsys, path, section, key, value):
    cfg = write_config(tmp_path, with_key(PATHS[path], section, f"{key} = {value}"))
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert f"[{section}] {key}" in err


@pytest.mark.parametrize("family, key", [
    ("galerkin", "alpha"),
    ("rusanov", "tau_scale"),
    ("limited", "theta_e"),
    ("supg", "alpha"),
    ("jump", "gamma_jump"),
    ("limited_supg", "theta_e"),
    ("limited_jump", "tau_scale"),
])
def test_scheme_key_the_family_does_not_read_exits_2(tmp_path, capsys, family, key):
    cfg = write_config(tmp_path, with_key(TRI_INI, "scheme", f"kind = {family}\n{key} = 5"))
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert f"does not read [scheme] {key}" in err


@pytest.mark.parametrize("ini, problem", [
    (TRI_INI.replace("structured_tri", "bogus"), "unknown mesh kind 'bogus'"),
    (with_key(TRI_INI, "scheme", "kind = bogus"), "unknown scheme kind 'bogus'"),
    (with_key(TRI_INI, "law", "name = warp"), "unknown conservation law: 'warp'"),
    (with_key(TRI_INI, "time", "method = rk4"), "unknown time method 'rk4'"),
    (SOD_INI.replace("euler(1.4)", "euler(abc)"), "[law] name: could not convert"),
    (with_key(TRI_INI, "scheme", "kind = supg\ntau_scale = -1"), "tau_scale must be positive"),
    (with_key(TRI_INI, "time", "dec_iterations = 2"), "unknown key 'dec_iterations' in section [time]"),
    (TRI_INI.replace("nx = 2", "nx = 0"), "cell counts must be >= 1"),
    (with_key(INTERVAL_INI, "mesh", "degree = 2"), "degree 1 only"),
    (with_key(TRI_INI, "mesh", "degree = 3"), "degree 3 not supported"),
    (SOD_INI.replace("n = 20", "n = 0"), "[mesh] n: cell count must be >= 1"),
    (INTERVAL_INI.replace("advection(1)", "advection(1, 0)"), "2-D advection law on a 1-D"),
    (with_key(TRI_INI, "law", "name = cubic"), "1-D cubic law on a 2-D mesh"),
    # a step that is not positive never advances the clock, and a
    # non-finite end time never stops it or is never reached
    (with_key(TRI_INI, "time", "cfl = 0"), "[time] cfl: 0.0 is not a finite positive number"),
    (with_key(TRI_INI, "time", "cfl = -0.3"), "[time] cfl: -0.3 is not a finite positive"),
    (with_key(TRI_INI, "time", "cfl = nan"), "[time] cfl: nan is not a finite positive"),
    (with_key(TRI_INI, "time", "dt = 0"), "[time] dt: 0.0 is not a finite positive number"),
    (with_key(TRI_INI, "time", "dt = -0.01"), "[time] dt: -0.01 is not a finite positive"),
    (with_key(INTERVAL_INI, "time", "dt = inf"), "[time] dt: inf is not a finite positive"),
    (TRI_INI.replace("t_end = 0.01", "t_end = nan"), "[time] t_end: nan is not a finite number"),
    (INTERVAL_INI.replace("t_end = 0.01", "t_end = inf"), "[time] t_end: inf is not a finite"),
    (with_key(SOD_INI, "time", "cfl = 0"), "[time] cfl: 0.0 is not a finite positive number"),
    (with_key(SOD_INI, "time", "cfl = -0.3"), "[time] cfl: -0.3 is not a finite positive"),
    (SOD_INI.replace("t_end = 0.01", "t_end = nan"), "[time] t_end: nan is not a finite number"),
    (with_key(TRI_INI, "scheme", "kind = limited\nalpha = nan"), "alpha must be >= 0 and finite"),
    (with_key(TRI_INI, "scheme", "kind = limited\nalpha = -1"), "alpha must be >= 0 and finite"),
    (with_key(TRI_INI, "scheme", "kind = limited_supg\ngamma_jump = inf"),
     "gamma_jump must be >= 0 and finite"),
    (with_key(INTERVAL_INI, "mesh", "x1 = -1"), "element 0 has measure -0.125"),
    (with_key(INTERVAL_INI, "mesh", "x0 = nan"), "element 0 has measure nan"),
], ids=["mesh_kind", "scheme_kind", "law_name", "time_method", "euler_gamma", "tau_scale",
        "dec_iterations_unknown", "nx", "interval_degree", "triangle_degree", "sod_cells",
        "law_dim_interval", "law_dim_triangle", "cfl_zero", "cfl_negative", "cfl_nan", "dt_zero",
        "dt_negative", "dt_inf", "t_end_nan", "t_end_inf", "sod_cfl_zero", "sod_cfl_negative",
        "sod_t_end_nan", "alpha_nan", "alpha_negative", "gamma_jump_inf",
        "interval_reversed", "interval_nan"])
def test_bad_value_exits_2(tmp_path, capsys, ini, problem):
    assert main(["run", write_config(tmp_path, ini), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert problem in err


def test_bad_value_has_no_traceback(tmp_path):
    cfg = write_config(tmp_path, with_key(TRI_INI, "time", "method = rk4"))
    src = os.path.dirname(os.path.dirname(rdlab.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "rdlab.cli", "run", cfg, "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 2
    assert proc.stderr == "config error: unknown time method 'rk4'\n"


@pytest.mark.parametrize("path, read, unread", [
    ("triangle", "mesh.nx=2", "mesh.n="),
    ("interval", "mesh.periodic=false", "mesh.nx="),
    ("sod", "corrections.correct_conservation=true", "scheme.kind="),
])
def test_manifest_lists_the_keys_read(tmp_path, path, read, unread):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, with_key(PATHS[path], "run", "out = elsewhere"))
    assert main(["run", cfg, "--out", str(out)]) == 0
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert read in manifest
    assert f"run.out={out}" in manifest    # --out overrides [run] out
    assert not any(line.startswith(unread) for line in manifest)


def test_burgers1d_command(tmp_path):
    out = tmp_path / "b"
    rc = main(["burgers1d", "--scheme", "cons", "--n", "50", "--periodic",
               "--tend", "0.2", "--lam", "0.4", "--out", str(out)])
    assert rc == 0
    series = np.loadtxt(out / "series.csv", delimiter=",", skiprows=1)
    # mass column stays constant for the conservative flux-form scheme
    assert np.abs(series[:, 3] - series[0, 3]).max() < 1e-12
    final = np.loadtxt(out / "final.csv", delimiter=",", skiprows=1)
    assert final.shape == (50, 2)


@pytest.mark.parametrize("flag, value, problem", [
    ("--n", "2", "2 is not a finite number >= 3"),
    ("--n", "3.5", "invalid int value: '3.5'"),
    ("--lam", "0", "0 is not a finite number > 0"),
    ("--lam", "nan", "nan is not a finite number > 0"),
    ("--lam", "-0.5", "-0.5 is not a finite number > 0"),
    ("--tend", "inf", "inf is not a finite number >= 0"),
    ("--tend", "-1", "-1 is not a finite number >= 0"),
])
def test_burgers1d_bad_flag_exits_2(tmp_path, capsys, flag, value, problem):
    with pytest.raises(SystemExit) as exit_:
        main(["burgers1d", flag, value, "--out", str(tmp_path / "b")])
    assert exit_.value.code == 2
    assert f"argument {flag}: {problem}" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


def test_burgers1d_accepts_the_bounds(tmp_path):
    out = tmp_path / "b"
    assert main(["burgers1d", "--n", "3", "--tend", "0", "--out", str(out)]) == 0
    assert np.loadtxt(out / "series.csv", delimiter=",", skiprows=1).shape == (4,)


def test_burgers1d_caps_the_step_count(tmp_path, capsys):
    """--n 3 --lam 1e-12 would take 1.5e12 steps: it exits 2 before any
    output is written."""
    out = tmp_path / "b"
    assert main(["burgers1d", "--n", "3", "--lam", "1e-12", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --tend 0.5 with --lam 1e-12 takes more than 1000000 steps")
    assert not out.exists()


def _write_dump(path, disc, u, scheme):
    with open(path, "w") as fh:
        fh.write("element,dof,psi0\n")
        for e in range(disc.mesh.n_elements):
            phi = disc.element_residuals([e], u, scheme)[0]
            psi = phi - boundary_dof_flux(disc, e, u)
            for s in range(disc.nloc):
                fh.write(f"{e},{s},{float(psi[s, 0]):.17g}\n")


def test_recover_command(tmp_path):
    mesh = msh.build_structured_tri_mesh(2, 2)
    disc = Discretization(mesh, Burgers(dim=2))
    rng = np.random.default_rng(0)
    u = rng.uniform(0.2, 1.0, size=(disc.dofmap.n_dofs, 1))
    dump = tmp_path / "dump.csv"
    _write_dump(dump, disc, u, Scheme(kind="rusanov"))
    out = tmp_path / "rec"
    assert main(["recover", str(dump), "--degree", "1", "--out", str(out)]) == 0
    cert = (out / "certification.txt").read_text()
    assert "passed=True" in cert
    fluxes = np.loadtxt(out / "edge_fluxes.csv", delimiter=",", skiprows=1)
    assert fluxes.shape == (mesh.n_elements * 3, 4)


def test_recover_incompatible_dump_exits_1(tmp_path):
    dump = tmp_path / "bad.csv"
    dump.write_text("element,dof,psi0\n0,0,1.0\n0,1,1.0\n0,2,1.0\n")
    assert main(["recover", str(dump), "--out", str(tmp_path / "r")]) == 1


def test_recover_nan_dump_exits_1(tmp_path):
    dump = tmp_path / "nan.csv"
    dump.write_text("element,dof,psi0\n0,0,0.5\n0,1,nan\n0,2,-0.3\n")
    out = tmp_path / "r"
    assert main(["recover", str(dump), "--out", str(out)]) == 1
    assert "passed=False" in (out / "certification.txt").read_text()


@pytest.mark.parametrize("rows, problem", [
    ("0,0,1.0\n0,1,-1.0\n", "element 0 has 0 rows for DOF 2"),
    ("0,0,1.0\n0,1,-0.5\n0,2,-0.5\n0,3,5.0\n", "DOF ids in [0, 3)"),
    ("0,0,1.0\n0,1,-0.5\n0,2,-0.5\n0,2,-0.5\n", "element 0 has 2 rows for DOF 2"),
    ("0,0,1.0\n0,1,-0.5\n0,2,half\n", "'half'"),
], ids=["missing_row", "dof_out_of_range", "duplicate_row", "non_numeric"])
def test_recover_malformed_dump_exits_2(tmp_path, capsys, rows, problem):
    dump = tmp_path / "bad.csv"
    dump.write_text("element,dof,psi0\n" + rows)
    assert main(["recover", str(dump), "--out", str(tmp_path / "r")]) == 2
    assert problem in capsys.readouterr().err


def test_audit_command(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    rc = main(["audit", cfg, str(out / "solution.csv")])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "conservation.passed=True" in captured


@pytest.mark.parametrize("scheme", ["kind = rusanov\nalpha = 0", "kind = supg\ntau_scale = 3",
                                    "kind = jump\ntheta_e = 0.5"],
                         ids=["alpha", "tau_scale", "theta_e"])
def test_audit_uses_the_configured_scheme(tmp_path, capsys, scheme):
    cfg = write_config(tmp_path, RUN_INI.replace("kind = rusanov", scheme))
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["audit", cfg, str(out / "solution.csv")]) == 0
    printed = capsys.readouterr().out.splitlines()
    disc = Discretization(msh.build_structured_tri_mesh(4, 4), Advection((1.0, 0.5)))
    u = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1, ndmin=2)[:, -1:]
    kwargs = dict(line.split(" = ") for line in scheme.splitlines())
    full = Scheme(kind=kwargs.pop("kind"), **{k: float(v) for k, v in kwargs.items()})
    # the run's boundary state, 0 on every boundary face
    rset = disc.residual_set(u, full, 0.0)
    for r in (diag.conservation_audit(disc, u, full, rset=rset),
              diag.entropy_inequality_audit(disc, u, rset, 0.0)):
        assert f"{r.name}.defect={r.defect:.17g}" in printed


def test_audit_uses_the_runs_boundary_state(tmp_path, capsys):
    """On u = 1 the boundary trace and the boundary state 0 differ, so the
    entropy audit reads the boundary faces' face-average state."""
    disc = Discretization(msh.build_structured_tri_mesh(4, 4), Advection((1.0, 0.5)))
    u = np.ones((disc.dofmap.n_dofs, 1))
    state = tmp_path / "state.csv"
    state.write_text("dof,u0\n" + "".join(f"{k},1\n" for k in range(len(u))))
    assert main(["audit", write_config(tmp_path), str(state)]) == 0
    printed = capsys.readouterr().out.splitlines()
    rset = disc.residual_set(u, Scheme(kind="rusanov"), 0.0)
    with_state = diag.entropy_inequality_audit(disc, u, rset, 0.0)
    assert f"entropy_inequality.defect={with_state.defect:.17g}" in printed
    assert with_state.defect != diag.entropy_inequality_audit(disc, u, rset).defect


def test_audit_non_finite_state_exits_1(tmp_path, capsys):
    state = tmp_path / "state.csv"
    state.write_text("dof,u0\n" + "".join(f"{k},{'nan' if k == 12 else 1}\n" for k in range(25)))
    assert main(["audit", write_config(tmp_path), str(state)]) == 1
    assert capsys.readouterr().err.startswith("runtime error: non-finite residual in element")


@pytest.mark.parametrize("state, problem", [
    ("dof,x0,x1,u0\n0,0,0,1\n", "has 1 rows"),
    ("dof,x0,x1,u0\n0,0,0,one\n", "'one'"),
], ids=["rows", "non_numeric"])
def test_audit_malformed_state_exits_2(tmp_path, capsys, state, problem):
    path = tmp_path / "state.csv"
    path.write_text(state)
    assert main(["audit", write_config(tmp_path), str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert problem in err


def test_audit_euler_config_exits_2(tmp_path, capsys):
    path = tmp_path / "state.csv"
    path.write_text("node,x,rho,u,p\n0,0,1,0,1\n")
    assert main(["audit", write_config(tmp_path, SOD_INI), str(path)]) == 2
    assert "Sod" in capsys.readouterr().err


def test_recover_certifies_large_residuals(tmp_path):
    """A dump that recovery accepts is certified however large its values."""
    rng = np.random.default_rng(14)
    psi = 1e5 * rng.normal(size=(100, 6))
    psi -= psi.mean(axis=1, keepdims=True)
    dump = tmp_path / "dump.csv"
    dump.write_text("element,dof,psi0\n" + "".join(
        f"{e},{s},{psi[e, s]:.17g}\n" for e in range(100) for s in range(6)))
    out = tmp_path / "rec"
    assert main(["recover", str(dump), "--degree", "2", "--out", str(out)]) == 0
    assert "passed=True" in (out / "certification.txt").read_text()


def test_console_script_version():
    # the child imports the same rdlab as this test, installed or not
    src = os.path.dirname(os.path.dirname(rdlab.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "rdlab.cli", "--version"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip()
