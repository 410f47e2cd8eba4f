"""Command line entry point: run experiments, recover fluxes, audit states.

Exit codes: 0 success, 1 runtime failure, 2 bad arguments or config,
3 audit failure or a time step above the CFL bound under --strict.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from contextlib import contextmanager
from functools import partial
from types import SimpleNamespace

import numpy as np

from . import __version__
from . import diagnostics as diag
from . import euler1d, fv1d
from . import flux_recovery as fr
from . import mesh as msh
from . import time_dec
from .config import ConfigError, RunConfig
from .conslaw import Euler, make_law
from .errors import DegenerateGeometryError, RdlabError, UnsupportedFeatureError
from .rd_core import Discretization, Scheme

FMT = "%.17g"
MAX_BURGERS_STEPS = 10**6


def _fmt(x):
    return FMT % float(x)


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(c) if isinstance(c, (int, str)) else _fmt(c)
                              for c in row) + "\n")


def _initial_field(name, coords):
    x = coords[:, 0]
    if name == "cosine":
        return 1.0 + np.cos(2.0 * np.pi * (x + 0.5))
    if name == "sine":
        return np.sin(2.0 * np.pi * x)
    if name == "riemann":
        return np.where(x < 0.5, 1.0, 0.0)
    if name == "bump":
        r2 = np.sum((coords - 0.5) ** 2, axis=1)
        return np.exp(-40.0 * r2)
    raise ConfigError(f"unknown initial condition {name!r}")


@contextmanager
def _config_values(prefix=""):
    """Report a value a constructor rejects, or a degenerate mesh, as a ConfigError."""
    try:
        yield
    except (ValueError, UnsupportedFeatureError, DegenerateGeometryError) as err:
        raise ConfigError(f"{prefix}{err}") from err


def _law(cfg, dim=1):
    with _config_values("[law] name: "):
        return make_law(cfg.get("law", "name"), dim=dim)


def _time_value(cfg, key, positive=True):
    """A finite [time] value, positive where ``positive``; None if unset."""
    value = cfg.get_float("time", key)
    if value is not None and not (np.isfinite(value) and (value > 0.0 or not positive)):
        raise ConfigError(f"[time] {key}: {value} is not a finite{' positive' * positive} number")
    return value


def _setup(cfg):
    """Read every key of the run the config selects, reject the others the
    file sets, then build the run: the 1D Euler Sod tube for an euler law,
    else a scalar run.  ``run.sod`` holds the keyword arguments of
    ``euler1d.run_sod``, or is None for a scalar run."""
    law = _law(cfg)
    return _sod_setup(cfg, law.gamma) if isinstance(law, Euler) else _scalar_setup(cfg)


def _scalar_setup(cfg):
    """Interval meshes read [mesh] n and periodic, triangle meshes nx, ny, y0
    and y1; [scheme] reads the parameters of its kind (``Scheme.PARAMS``);
    the law is parsed again for the mesh dimension.  The boundary state
    ``u_b`` is 0 on every boundary face; a periodic mesh has none."""
    kind = cfg.get("mesh", "kind")
    x0, x1 = cfg.get_float("mesh", "x0"), cfg.get_float("mesh", "x1")
    if kind == "interval":
        build = partial(msh.build_interval_mesh, cfg.get_int("mesh", "n"), x0, x1,
                        periodic=cfg.get_bool("mesh", "periodic"))
    elif kind == "structured_tri":
        y0, y1 = cfg.get_float("mesh", "y0"), cfg.get_float("mesh", "y1")
        build = partial(msh.build_structured_tri_mesh, cfg.get_int("mesh", "nx"),
                        cfg.get_int("mesh", "ny"), ((x0, y0), (x1, y1)))
    else:
        raise ConfigError(f"unknown mesh kind {kind!r}")
    degree = cfg.get_int("mesh", "degree")
    family = cfg.get("scheme", "kind")
    with _config_values("[scheme] "):
        scheme = Scheme(family, **{key: cfg.get_float("scheme", key)
                                   for key in Scheme.PARAMS.get(family, ())})
    time = dict(method=cfg.get("time", "method"), cfl=_time_value(cfg, "cfl"))
    t_end, dt = _time_value(cfg, "t_end", positive=False), _time_value(cfg, "dt")
    initial, out = cfg.get("run", "initial"), cfg.get("run", "out")
    cfg.check_all_read(f"a scalar run on {kind} meshes")
    with _config_values():
        mesh = build(degree=degree)
        law = _law(cfg, mesh.dim)
        if law.dim != mesh.dim:
            raise ConfigError(f"[law] name: a {law.dim}-D {law.name} law on a {mesh.dim}-D mesh")
        disc = Discretization(mesh, law)
        return SimpleNamespace(disc=disc, scheme=scheme, u_b=0.0,
                               time=time_dec.DecConfig(**time), t_end=t_end, dt=dt,
                               u0=_initial_field(initial, disc.dofmap.dof_coords), out=out,
                               sod=None)


def _sod_setup(cfg, gamma):
    """The Sod tube reads the keyword arguments of ``euler1d.run_sod`` and the
    output directory."""
    sod = dict(n_cells=cfg.get_int("mesh", "n"), t_end=_time_value(cfg, "t_end", positive=False),
               gamma=gamma, cfl=_time_value(cfg, "cfl"),
               correct=cfg.get_bool("corrections", "correct_conservation"))
    out = cfg.get("run", "out")
    cfg.check_all_read("the 1D Euler Sod run")
    if sod["n_cells"] < 1:
        raise ConfigError("[mesh] n: cell count must be >= 1")
    return SimpleNamespace(sod=sod, out=out)


def _write_manifest(cfg, outdir):
    lines = [f"rdlab.version={__version__}", f"numpy.version={np.__version__}"]
    lines += cfg.manifest_lines()
    with open(os.path.join(outdir, "manifest.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_run(args):
    cfg = RunConfig.load(args.config)
    if args.out:
        cfg.values["run", "out"] = args.out
    run = _setup(cfg)
    if run.sod is not None:
        return _run_sod(cfg, run, args)
    disc, scheme = run.disc, run.scheme
    os.makedirs(run.out, exist_ok=True)
    series = []
    history = [run.u0[:, None]]

    def log(t, u, mass_total, rnorm):
        series.append((t, mass_total[0], rnorm))
        history.append(u.copy())

    with warnings.catch_warnings():
        if args.strict:
            warnings.simplefilter("error", time_dec.CflWarning)
        try:
            u, _ = time_dec.dec_run(disc, run.u0, run.t_end, scheme, run.time, u_b=run.u_b,
                                    dt=run.dt, log=log)
        except time_dec.CflWarning as err:
            print(f"step rejected: {err}", file=sys.stderr)
            return 3
    coords = disc.dofmap.dof_coords
    rows = zip(range(len(coords)), *coords.T, *u.T)
    hdr = ["dof"] + [f"x{k}" for k in range(disc.mesh.dim)] + \
          [f"u{k}" for k in range(disc.law.m)]
    _write_csv(os.path.join(run.out, "solution.csv"), hdr, rows)
    _write_csv(os.path.join(run.out, "series.csv"), ["t", "mass", "res_inf"],
               series)
    reports = [
        diag.conservation_audit(disc, u, scheme),
        diag.maximum_principle_audit([h[:, 0] for h in history]),
    ]
    with open(os.path.join(run.out, "audit.txt"), "w") as fh:
        for r in reports:
            fh.write(r.line() + "\n")
    _write_manifest(cfg, run.out)
    if args.strict and not all(r.passed for r in reports):
        print("audit failed", file=sys.stderr)
        return 3
    return 0


def _run_sod(cfg, run, args):
    os.makedirs(run.out, exist_ok=True)
    res = euler1d.run_sod(**run.sod)
    rows = zip(range(len(res.x)), res.x, res.w[:, 0], res.w[:, 1], res.pressure())
    _write_csv(os.path.join(run.out, "solution.csv"),
               ["node", "x", "rho", "u", "p"], rows)
    with open(os.path.join(run.out, "defects.txt"), "w") as fh:
        fh.write(f"momentum_defect={_fmt(res.defect_m)}\n")
        fh.write(f"energy_defect={_fmt(res.defect_e)}\n")
        fh.write(f"corrections={'on' if run.sod['correct'] else 'off'}\n")
    _write_manifest(cfg, run.out)
    if args.strict and run.sod["correct"] and max(res.defect_m, res.defect_e) > 1e-10:
        return 3
    return 0


def cmd_burgers1d(args):
    grid = fv1d.Grid1D(args.n, periodic=args.periodic)
    dt = args.lam * grid.dx
    if args.tend > MAX_BURGERS_STEPS * dt:
        raise ConfigError(f"--tend {args.tend} with --lam {args.lam} takes more than "
                          f"{MAX_BURGERS_STEPS} steps of {dt}")
    n_steps = int(np.ceil(args.tend / dt))
    os.makedirs(args.out, exist_ok=True)
    if args.periodic:
        u0 = 1.0 + np.cos(2.0 * np.pi * (grid.x + 0.5))
    else:
        u0 = np.where(grid.x < 0.5, 1.0, 0.0)
    stepper = fv1d.STEPPERS[args.scheme]
    u = u0.copy()
    series = [(0, 0.0, fv1d.total_variation(u, args.periodic),
               float(u.sum() * grid.dx))]
    for k in range(1, n_steps + 1):
        u = stepper(u, args.lam, args.periodic)
        series.append((k, k * dt, fv1d.total_variation(u, args.periodic),
                       float(u.sum() * grid.dx)))
    _write_csv(os.path.join(args.out, "final.csv"), ["x", "u"],
               list(zip(grid.x, u)))
    _write_csv(os.path.join(args.out, "series.csv"),
               ["step", "t", "tv", "mass"], series)
    return 0


def _read_table(path):
    """The rows of a CSV file with a header line, as a 2-D float array."""
    try:
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as err:
        raise ConfigError(f"{path}: {err}") from err


def _read_dump(path, n_nodes):
    """Element ids and psi (ne, n_nodes, m) of a residual dump with rows
    ``element,dof,psi0,...``: one row per DOF of every element."""
    table = _read_table(path)
    ids = table[:, :2].astype(int)
    if (len(table) == 0 or table.shape[1] < 3 or np.any(ids != table[:, :2])
            or np.any(ids < 0) or np.any(ids[:, 1] >= n_nodes)):
        raise ConfigError(f"{path}: rows must be element,dof,psi0,... with integer "
                          f"element ids >= 0 and DOF ids in [0, {n_nodes})")
    elements, e = np.unique(ids[:, 0], return_inverse=True)
    count = np.zeros((len(elements), n_nodes), dtype=int)
    np.add.at(count, (e, ids[:, 1]), 1)
    if np.any(count != 1):
        k, s = np.argwhere(count != 1)[0]
        raise ConfigError(f"{path}: element {elements[k]} has {count[k, s]} rows for DOF {s}")
    psi = np.empty((len(elements), n_nodes, table.shape[1] - 2))
    psi[e, ids[:, 1]] = table[:, 2:]
    return elements, psi


def cmd_recover(args):
    graph = msh.reference_graph(2, args.degree)
    elements, psi = _read_dump(args.dump, graph.n_nodes)
    system = fr.build_incidence(graph)
    fluxes = fr.recover_fluxes(system, psi)                # (ne, #edges, m)
    report = fr.certify(system, fluxes, psi)
    os.makedirs(args.out, exist_ok=True)
    ne, nedges, ncomp = fluxes.shape
    rows = zip(np.repeat(elements, nedges).tolist(), *np.tile(graph.edges, (ne, 1)).T.tolist(),
               *fluxes.reshape(-1, ncomp).T)
    hdr = ["element", "tail", "head"] + [f"f{k}" for k in range(ncomp)]
    _write_csv(os.path.join(args.out, "edge_fluxes.csv"), hdr, rows)
    with open(os.path.join(args.out, "certification.txt"), "w") as fh:
        fh.write(f"balance_defect={_fmt(report.balance_defect)}\n")
        fh.write(f"compat_defect={_fmt(report.compat_defect)}\n")
        fh.write(f"passed={report.passed}\n")
    return 0 if report.passed else 1


def cmd_audit(args):
    run = _setup(RunConfig.load(args.config))
    if run.sod is not None:
        raise ConfigError("euler is run as the 1D Sod tube, which rdlab audit does not check")
    disc, scheme, law = run.disc, run.scheme, run.disc.law
    u = _read_table(args.state)
    if u.shape[0] != disc.dofmap.n_dofs or u.shape[1] < law.m:
        raise ConfigError(f"{args.state}: needs one row per DOF ({disc.dofmap.n_dofs}) with at "
                          f"least {law.m} value columns; has {len(u)} rows of {u.shape[1]}")
    u = u[:, -law.m:]
    rset = disc.residual_set(u, scheme, run.u_b)
    reports = [diag.conservation_audit(disc, u, scheme, rset=rset)]
    if law.has_entropy:
        reports.append(diag.entropy_inequality_audit(disc, u, rset, run.u_b))
    for r in reports:
        print(f"{r.name}.defect={_fmt(r.defect)}")
        print(f"{r.name}.tolerance={_fmt(r.tolerance)}")
        print(f"{r.name}.passed={r.passed}")
    return 0 if reports[0].passed else 3    # only conservation fails the audit


def _bounded(kind, low, strict=False):
    """An argparse type: a finite ``kind`` at least ``low``, or above it if ``strict``."""

    def parse(text):
        value = kind(text)
        if np.isfinite(value) and (value > low or (value == low and not strict)):
            return value
        raise argparse.ArgumentTypeError(
            f"{text} is not a finite number {'>' if strict else '>='} {low}")

    parse.__name__ = kind.__name__    # argparse names it in "invalid int value"
    return parse


def build_parser():
    p = argparse.ArgumentParser(prog="rdlab")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="run a configured experiment")
    pr.add_argument("config")
    pr.add_argument("--strict", action="store_true")
    pr.add_argument("--out", default=None)
    pr.set_defaults(func=cmd_run)

    pb = sub.add_parser("burgers1d", help="1D Burgers counterexample lab")
    pb.add_argument("--scheme", choices=("cons", "noncons"), default="cons")
    pb.add_argument("--n", type=_bounded(int, 3), default=100)
    pb.add_argument("--tend", type=_bounded(float, 0), default=0.5)
    pb.add_argument("--lam", type=_bounded(float, 0, strict=True), default=0.25)
    pb.add_argument("--periodic", action="store_true")
    pb.add_argument("--out", default="out")
    pb.set_defaults(func=cmd_burgers1d)

    pc = sub.add_parser("recover", help="flux recovery from a residual dump")
    pc.add_argument("dump")
    pc.add_argument("--degree", type=int, choices=(1, 2), default=1)
    pc.add_argument("--out", default="out")
    pc.set_defaults(func=cmd_recover)

    pa = sub.add_parser("audit", help="audit a solution state")
    pa.add_argument("config")
    pa.add_argument("state")
    pa.set_defaults(func=cmd_audit)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except RdlabError as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
