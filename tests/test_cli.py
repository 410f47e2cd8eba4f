import os
import subprocess
import sys

import numpy as np

import rdlab
from rdlab import mesh as msh
from rdlab.cli import main
from rdlab.conslaw import Burgers
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


def _write_dump(path, disc, u, scheme):
    with open(path, "w") as fh:
        fh.write("element,dof,psi0\n")
        for e in range(disc.mesh.n_elements):
            phi = disc.element_residuals(e, u, scheme)
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


def test_audit_command(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    rc = main(["audit", cfg, str(out / "solution.csv")])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "conservation.passed=True" in captured


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
