import os
import subprocess
import sys

import numpy as np
import pytest

import rdlab
from rdlab import diagnostics as diag
from rdlab import flux_recovery as fr
from rdlab import mesh as msh
from rdlab import cli, euler1d, time_dec
from rdlab.cli import main
from rdlab.config import RunConfig
from rdlab.conslaw import Advection
from rdlab.errors import StepFailureError
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
    audit = (out / "audit.txt").read_text()
    assert "PASS momentum_balance" in audit
    assert "PASS energy_balance" in audit
    assert not (out / "defects.txt").exists()
    data = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1)
    assert data.shape == (101, 5)


def test_euler_run_rejects_an_inadmissible_final_state(tmp_path, capsys):
    ini = """
[law]
name = euler(1.4)

[mesh]
n = 50

[time]
t_end = 0.2
cfl = 50

[corrections]
correct_conservation = false
"""
    out = tmp_path / "sod"
    assert main(["run", write_config(tmp_path, ini), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("runtime error: density -4.17") and err.endswith("at node 24\n")
    assert not (out / "solution.csv").exists()


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


def test_sine_initial_is_written_at_t_end_zero(tmp_path):
    """A run to t_end = 0 takes no step, so solution.csv is sin(2 pi x) at the DOFs."""
    out = tmp_path / "o"
    ini = with_key(INTERVAL_INI.replace("t_end = 0.01", "t_end = 0"), "run", "initial = sine")
    assert main(["run", write_config(tmp_path, ini), "--out", str(out)]) == 0
    _, x, u = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1).T
    assert len(x) == 9 and np.array_equal(u, np.sin(2.0 * np.pi * x))


@pytest.mark.parametrize("path, explicit", [("interval", "advection(1)"),
                                            ("triangle", "advection(1, 0)")])
def test_advection_without_parameters_runs_along_x(tmp_path, path, explicit):
    """``advection`` alone is the unit speed along the x axis in either dimension."""
    def solution(law):
        ini = PATHS[path].replace("name = advection(1)\n", "")
        out = tmp_path / law
        assert main(["run", write_config(tmp_path, with_key(ini, "law", f"name = {law}")),
                     "--out", str(out)]) == 0
        return (out / "solution.csv").read_bytes()

    assert solution("advection") == solution(explicit)


def test_interval_runs_with_the_default_law(tmp_path):
    """A config that leaves ``[law] name`` unset runs on an interval as on triangles:
    the default ``advection`` takes its direction from the mesh dimension."""
    ini = "[mesh]\nkind = interval\nn = 20\n\n[time]\nt_end = 0.01\n"
    out = tmp_path / "o"
    assert main(["run", write_config(tmp_path, ini), "--out", str(out)]) == 0
    assert "law.name=advection\n" in (out / "manifest.txt").read_text()


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
    # a gamma outside (1, inf) or a non-finite direction is no law
    (SOD_INI.replace("euler(1.4)", "euler(1)"), "[law] name: gamma 1.0 is not in (1, inf)"),
    (SOD_INI.replace("euler(1.4)", "euler(nan)"), "[law] name: gamma nan is not in (1, inf)"),
    (SOD_INI.replace("euler(1.4)", "euler(-1)"), "[law] name: gamma -1.0 is not in (1, inf)"),
    (SOD_INI.replace("euler(1.4)", "euler(inf)"), "[law] name: gamma inf is not in (1, inf)"),
    (SOD_INI.replace("euler(1.4)", "euler(0.5)"), "[law] name: gamma 0.5 is not in (1, inf)"),
    (with_key(TRI_INI, "law", "name = advection(nan, 0.5)"),
     "[law] name: advection direction [nan 0.5] is not finite"),
    (with_key(TRI_INI, "scheme", "kind = supg\ntau_scale = -1"), "tau_scale must be positive"),
    (with_key(TRI_INI, "time", "dec_iterations = 2"), "unknown key 'dec_iterations' in section [time]"),
    (TRI_INI.replace("nx = 2", "nx = 0"), "cell counts must be >= 1"),
    (with_key(TRI_INI, "mesh", "x1 = 0"), "config error: degenerate domain rectangle"),
    (INTERVAL_INI.replace("n = 8", "n = 0"), "config error: cell count must be >= 1"),
    (with_key(INTERVAL_INI, "mesh", "degree = 2"), "degree 1 only"),
    (with_key(TRI_INI, "mesh", "degree = 3"), "degree 3 not supported"),
    (SOD_INI.replace("n = 20", "n = 0"), "[mesh] n: cell count must be >= 1"),
    (INTERVAL_INI.replace("advection(1)", "advection(1, 0)"), "2-D advection law on a 1-D"),
    (with_key(TRI_INI, "law", "name = cubic"), "1-D cubic law on a 2-D mesh"),
    # a law parameter the law does not read is rejected, not dropped
    (with_key(TRI_INI, "law", "name = burgers(7)"), "[law] name: burgers takes at most 0"),
    (INTERVAL_INI.replace("advection(1)", "cubic(2,3)"), "[law] name: cubic takes at most 0"),
    (SOD_INI.replace("euler(1.4)", "euler(1.4, 9)"), "[law] name: euler takes at most 1"),
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
    (TRI_INI.replace("t_end = 0.01", "t_end = -1"), "[time] t_end: -1.0 is not a finite number >= 0"),
    (SOD_INI.replace("t_end = 0.01", "t_end = -1"), "[time] t_end: -1.0 is not a finite number >= 0"),
    # the gradient-jump term needs the neighbours across triangle faces
    (with_key(INTERVAL_INI, "scheme", "kind = jump"),
     "kind 'jump': gradient-jump stabilization needs 2D"),
    (with_key(INTERVAL_INI, "scheme", "kind = limited_jump"),
     "kind 'limited_jump': gradient-jump stabilization needs 2D"),
    (with_key(TRI_INI, "scheme", "kind = limited\nalpha = nan"), "alpha must be >= 0 and finite"),
    (with_key(TRI_INI, "scheme", "kind = limited\nalpha = -1"), "alpha must be >= 0 and finite"),
    (with_key(TRI_INI, "scheme", "kind = limited_supg\ngamma_jump = inf"),
     "gamma_jump must be >= 0 and finite"),
    (with_key(INTERVAL_INI, "mesh", "x1 = -1"), "element 0 has measure -0.125"),
    (with_key(INTERVAL_INI, "mesh", "x0 = nan"), "element 0 has measure nan"),
    # the march refuses a first step, [time] dt or the CFL step of the
    # initial state, that takes over 10^6 steps to t_end, or that underflows to 0
    (with_key(TRI_INI, "time", "dt = 1e-300"),
     "[time] t_end 0.01 with [time] dt 1e-300: 0.01 left to t_end takes more than 1000000 "
     "steps of 1e-300"),
    (with_key(TRI_INI, "time", "cfl = 1e-300"),
     "[time] t_end 0.01 with [time] cfl 1e-300: 0.01 left to t_end takes more than 1000000 steps"),
    (with_key(INTERVAL_INI, "time", "cfl = 5e-324"),
     "[time] t_end 0.01 with [time] cfl 5e-324: time step 0.0 is not positive"),
    (with_key(SOD_INI, "time", "cfl = 1e-300"),
     "[time] t_end 0.01 with [time] cfl 1e-300: 0.01 left to t_end takes more than 1000000 steps"),
    (with_key(SOD_INI, "time", "cfl = 5e-324"),
     "[time] t_end 0.01 with [time] cfl 5e-324: time step 0.0 is not positive"),
], ids=["mesh_kind", "scheme_kind", "law_name", "time_method", "euler_gamma", "gamma_1",
        "gamma_nan", "gamma_negative", "gamma_inf", "gamma_below_1", "advection_nan", "tau_scale",
        "dec_iterations_unknown", "nx", "domain_x1", "interval_cells", "interval_degree", "triangle_degree", "sod_cells",
        "law_dim_interval", "law_dim_triangle", "burgers_args", "cubic_args", "euler_args",
        "cfl_zero", "cfl_negative", "cfl_nan", "dt_zero",
        "dt_negative", "dt_inf", "t_end_nan", "t_end_inf", "sod_cfl_zero", "sod_cfl_negative",
        "sod_t_end_nan", "t_end_negative", "sod_t_end_negative", "interval_jump",
        "interval_limited_jump", "alpha_nan", "alpha_negative", "gamma_jump_inf",
        "interval_reversed", "interval_nan", "steps_dt", "steps_cfl", "steps_cfl_underflows",
        "sod_steps_cfl", "sod_steps_cfl_underflows"])
def test_bad_value_exits_2(tmp_path, capsys, ini, problem):
    assert main(["run", write_config(tmp_path, ini), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert problem in err
    assert not (tmp_path / "o").exists()


def run_cli(*argv):
    """``rdlab`` run as a separate process, as from a shell."""
    src = os.path.dirname(os.path.dirname(rdlab.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "rdlab.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


def test_bad_value_has_no_traceback(tmp_path):
    cfg = write_config(tmp_path, with_key(TRI_INI, "time", "method = rk4"))
    proc = run_cli("run", cfg, "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert proc.stderr == "config error: unknown time method 'rk4'\n"


@pytest.mark.parametrize("command", [["run", "triangle"], ["run", "sod"],
                                     ["burgers1d", "--n", "3", "--tend", "0"]],
                         ids=["scalar", "sod", "burgers1d"])
def test_unwritable_out_exits_1(tmp_path, command):
    """An --out below a regular file cannot be made: exit 1 with
    ``runtime error:``, not a traceback."""
    (tmp_path / "file").write_text("")
    if command[0] == "run":
        command = ["run", write_config(tmp_path, PATHS[command[1]])]
    proc = run_cli(*command, "--out", str(tmp_path / "file" / "sub"))
    assert proc.returncode == 1
    assert proc.stderr.startswith("runtime error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("path", ["scalar", "sod"])
def test_unwritable_out_is_refused_before_the_march(tmp_path, capsys, monkeypatch, path):
    """An --out whose nearest existing ancestor is a regular file is refused
    before the march, creating nothing; an --out whose missing ancestors end at
    a directory goes on to the march, still creating nothing before it."""
    def march(*args, **kwargs):
        raise StepFailureError("march entered")

    monkeypatch.setattr(time_dec, "dec_run", march)
    monkeypatch.setattr(euler1d, "run_sod", march)
    cfg = write_config(tmp_path, PATHS["triangle" if path == "scalar" else "sod"])
    (tmp_path / "file").write_text("")
    for out in ("file", "file/sub", "file/sub/deeper", "new/deeper"):
        assert main(["run", cfg, "--out", str(tmp_path / out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("runtime error:")
        assert ("march entered" in err) == out.startswith("new"), out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "run.ini"]


BURGERS_RIEMANN_INI = """
[law]
name = burgers

[mesh]
kind = structured_tri
nx = 4
ny = 4

[scheme]
kind = limited

[time]
method = cn
t_end = 37499

[run]
initial = riemann
"""


@pytest.mark.parametrize("ini, message", [
    # the CFL step falls from 0.0375 to 0.0369 after the first step
    (BURGERS_RIEMANN_INI, "[time] t_end 37499.0 with [time] cfl 0.3: 37498.9625 left to t_end"),
    # the CFL step falls from 0.01268 to 0.01087 after the first step
    (SOD_INI.replace("t_end = 0.01", "t_end = 12677"),
     "[time] t_end 12677.0 with [time] cfl 0.3: 12676.98732"),
], ids=["burgers", "sod"])
def test_step_cap_reached_mid_march_exits_2(tmp_path, ini, message):
    """t_end passes the check on the first step, but the step shrinks, so a
    later step leaves more than 10^6 steps: exit 2 naming t_end and the step
    key, with no traceback, and no --out is created."""
    out = tmp_path / "o"
    proc = run_cli("run", write_config(tmp_path, ini), "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"config error: {message}")
    assert "takes more than 1000000 steps" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_step_cap_message_names_the_first_step(tmp_path, capsys):
    """P1 Galerkin Burgers from a Riemann state grows until its CFL step
    falls from 1.5e-3 to 6.4e-8: the refusal names the first step as well,
    so it does not read as a t_end misconfiguration; exit 2, no --out."""
    ini = """
[law]
name = burgers

[mesh]
kind = interval
n = 200
periodic = true

[scheme]
kind = galerkin

[time]
method = euler
t_end = 0.3

[run]
initial = riemann
"""
    out = tmp_path / "o"
    assert main(["run", write_config(tmp_path, ini), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [time] t_end 0.3 with [time] cfl 0.3: ")
    last, first = err.split("takes more than 1000000 steps of ")[1].split(
        ", down from a first step of ")
    assert float(first) == pytest.approx(1.5e-3) and float(last) < 1e-4 * float(first)
    assert not out.exists()


def test_run_computes_each_step_once(tmp_path, monkeypatch):
    """The march's own stable_dt calls are the only ones: one per step, and
    none more to check the first step before the march."""
    calls = []
    stable_dt = time_dec.stable_dt
    monkeypatch.setattr(time_dec, "stable_dt", lambda *a: calls.append(a) or stable_dt(*a))
    out = tmp_path / "o"
    assert main(["run", write_config(tmp_path), "--out", str(out)]) == 0
    steps = np.loadtxt(out / "series.csv", delimiter=",", skiprows=1, ndmin=2)
    assert len(calls) == len(steps) > 1


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
    assert err.startswith("config error: --tend 0.5 with --lam 1e-12: 0.5 left to t_end takes "
                          "more than 1000000 steps")
    assert not out.exists()


def test_burgers1d_rejects_a_step_that_underflows(tmp_path, capsys):
    """--lam 5e-324 is > 0 but lam * dx underflows to 0.0: exit 2 before any
    output is written, not a ZeroDivisionError."""
    out = tmp_path / "b"
    assert main(["burgers1d", "--n", "3", "--lam", "5e-324", "--tend", "0",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --tend 0.0 with --lam 5e-324: time step 0.0 is not positive")
    assert not out.exists()


# the README config on a 4x4 grid, P2 triangles, Burgers at P2 with the
# gradient-jump kind, and the interval with and without periodic wrap
FLUX_FORM_RUNS = {
    "readme": RUN_INI.replace("rusanov", "limited").replace("euler", "cn"),
    "p2": with_key(RUN_INI.replace("rusanov", "limited_supg"), "mesh", "degree = 2"),
    "p2_burgers_jump": with_key(RUN_INI.replace("advection(1, 0.5)", "burgers")
                                .replace("rusanov", "jump"), "mesh", "degree = 2"),
    "interval": INTERVAL_INI,
    "periodic_interval": with_key(INTERVAL_INI, "mesh", "periodic = true"),
}


@pytest.mark.parametrize("path", sorted(FLUX_FORM_RUNS))
def test_run_certifies_its_flux_form(tmp_path, monkeypatch, path):
    """Every path ``rdlab run`` takes writes a passing flux-form line, from
    the final state's residual set, between the conservation and
    maximum-principle lines; the entropy line of these laws comes last.
    No scalar run takes an SVD: the graph's connectivity is tested by
    reachability, not by singular values."""
    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, FLUX_FORM_RUNS[path]), "--out", str(out)]) == 0
    audit = (out / "audit.txt").read_text().splitlines()
    assert [line.split(":")[0].split()[1] for line in audit] == \
        ["conservation", "flux_form", "maximum_principle", "entropy_inequality"]
    assert audit[1].startswith("PASS flux_form: defect=")


def test_maximum_principle_line_is_the_audit_of_every_state(tmp_path, monkeypatch):
    """The run keeps each state's minimum and maximum, not the state: its
    maximum-principle line is the audit of the march's full state history,
    on a CN run that leaves its initial range mid-march."""
    cfg = write_config(tmp_path, FLUX_FORM_RUNS["readme"])
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    run = cli._setup(RunConfig.load(cfg))
    history = [run.u0]
    dec_step = time_dec.dec_step

    def recorded(*args, **kwargs):
        u = dec_step(*args, **kwargs)
        history.append(u[:, 0].copy())
        return u

    monkeypatch.setattr(time_dec, "dec_step", recorded)
    time_dec.dec_run(run.disc, run.u0, run.t_end, run.scheme, run.time, u_b=run.u_b)
    expected = diag.maximum_principle_audit(history)
    assert not expected.passed and expected.worst_location[1] not in (0, len(history) - 1)
    assert (out / "audit.txt").read_text().splitlines()[2] == expected.line()


def test_flux_form_failure_exits_3(tmp_path, monkeypatch):
    """``certify`` reads ``BALANCE_TOL`` when called; at 0 no round-off
    passes, so ``run --strict`` fails on the flux form."""
    cfg = write_config(tmp_path)
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    monkeypatch.setattr(fr, "BALANCE_TOL", 0.0)
    assert main(["run", cfg, "--out", str(tmp_path / "strict"), "--strict"]) == 3
    assert "FAIL flux_form" in (tmp_path / "strict" / "audit.txt").read_text()


def test_non_conservative_split_fails_the_flux_form(tmp_path, monkeypatch):
    """A split that does not sum to its element's boundary flux has no flux
    form: ``run`` still writes its audit, FAILing conservation and flux_form at
    that element, and ``run --strict`` exits 3."""
    exact = Discretization.element_residuals

    def shifted(self, e, u, scheme):
        phi = exact(self, e, u, scheme).copy()
        phi[2, 0] += 1e-3
        return phi

    monkeypatch.setattr(Discretization, "element_residuals", shifted)
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    audit = (out / "audit.txt").read_text().splitlines()
    assert audit[0].startswith("FAIL conservation:") and audit[0].endswith("('element', 2)")
    assert audit[1].startswith("FAIL flux_form: defect=inf")
    assert audit[1].endswith("at=('element', 2)")
    assert main(["run", cfg, "--out", str(tmp_path / "strict"), "--strict"]) == 3


@pytest.mark.parametrize("scheme", ["kind = rusanov\nalpha = 0", "kind = supg\ntau_scale = 3",
                                    "kind = jump\ntheta_e = 0.5"],
                         ids=["alpha", "tau_scale", "theta_e"])
def test_audit_uses_the_configured_scheme(tmp_path, scheme):
    """The audit lines that read the final residual set are the library
    audits of the run's ``solution.csv`` under the fully configured scheme
    and the run's boundary state, 0 on every boundary face; the family's
    default parameters give other lines."""
    cfg = write_config(tmp_path, RUN_INI.replace("kind = rusanov", scheme))
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    audit = (out / "audit.txt").read_text().splitlines()
    disc = Discretization(msh.build_structured_tri_mesh(4, 4), Advection((1.0, 0.5)))
    u = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1, ndmin=2)[:, -1:]
    kwargs = dict(line.split(" = ") for line in scheme.splitlines())
    kind = kwargs.pop("kind")

    def lines(scheme):
        rset = disc.residual_set(u, scheme, 0.0)
        return [r.line() for r in (diag.conservation_audit(disc, u, rset),
                                   diag.flux_form_audit(disc, u, rset),
                                   diag.entropy_inequality_audit(disc, u, rset, 0.0))]

    written = [audit[0], audit[1], audit[3]]
    assert written == lines(Scheme(kind=kind, **{k: float(v) for k, v in kwargs.items()}))
    assert written != lines(Scheme(kind=kind))


def test_run_non_finite_state_exits_1(tmp_path, capsys, monkeypatch):
    """A NaN in the initial field stops the run at its first residual, naming
    the element, before ``--out`` is created."""
    field = cli._initial_field

    def with_nan(name, coords):
        u = field(name, coords)
        u[12] = np.nan
        return u

    monkeypatch.setattr(cli, "_initial_field", with_nan)
    out = tmp_path / "o"
    assert main(["run", write_config(tmp_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("runtime error: non-finite residual in element")
    assert not out.exists()


def test_entropy_failure_alone_passes_strict(tmp_path, monkeypatch):
    """The entropy line is reported only: FAILing it alone leaves ``run
    --strict`` at exit 0, with the three gating lines passing."""
    monkeypatch.setattr(diag, "ENTROPY_TOL", -1.0)
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path), "--out", str(out), "--strict"]) == 0
    audit = (out / "audit.txt").read_text().splitlines()
    assert [line.split()[0] for line in audit] == ["PASS", "PASS", "PASS", "FAIL"]
    assert audit[3].startswith("FAIL entropy_inequality:")


@pytest.mark.parametrize("correct, code", [("true", 3), ("false", 0)], ids=["on", "off"])
def test_sod_balance_lines_gate_strict_with_corrections_on(tmp_path, capsys, monkeypatch,
                                                           correct, code):
    """At a tolerance of 0 the Sod tube's momentum balance FAILs: with
    corrections on that exits 3 under --strict; with them off the lines are
    reported only, and say so."""
    monkeypatch.setattr(diag, "SOD_BALANCE_TOL", 0.0)
    cfg = write_config(tmp_path, with_key(SOD_INI, "corrections",
                                          f"correct_conservation = {correct}"))
    out = tmp_path / "sod"
    assert main(["run", cfg, "--out", str(out), "--strict"]) == code
    audit = (out / "audit.txt").read_text().splitlines()
    assert [line.split(":")[0].split()[1] for line in audit] == \
        ["momentum_balance", "energy_balance"]
    assert audit[0].startswith("FAIL momentum_balance:")
    at = "None" if correct == "true" else "('corrections', 'off')"
    assert all(line.endswith(f"at={at}") for line in audit)
    assert ("audit failed" in capsys.readouterr().err) == (code == 3)


def test_audit_gradient_jump_on_intervals_exits_2(tmp_path, capsys):
    """The run's set-up refuses the kind before it evaluates a residual, so
    no audit is written and ``--out`` is not created."""
    cfg = write_config(tmp_path, with_key(INTERVAL_INI, "scheme", "kind = jump"))
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: kind 'jump': gradient-jump")
    assert not out.exists()


@pytest.mark.parametrize("command", ["audit", "recover"])
def test_removed_command_exits_2(tmp_path, capsys, command):
    """Every run writes its own audits, so no command re-reads a state."""
    with pytest.raises(SystemExit) as exit_:
        main([command, write_config(tmp_path), str(tmp_path / "solution.csv")])
    assert exit_.value.code == 2
    assert f"invalid choice: '{command}'" in capsys.readouterr().err


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
