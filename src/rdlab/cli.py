"""Command line entry point: run experiments.

Every ``rdlab run`` writes its audits as ``AuditReport`` lines to
``audit.txt``: a scalar run conservation, flux_form and maximum_principle,
which gate --strict, then entropy_inequality where the law has an entropy
pair, which is reported only; the Sod tube momentum_balance and
energy_balance, which gate --strict with corrections on and are reported
with them off.  Exit codes: 0 success, 1 runtime failure or an output that
cannot be written, 2 bad arguments or config, 3 (``run --strict`` only) a
gating audit that fails or a time step above the CFL bound.
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
from . import mesh as msh
from . import time_dec
from .config import ConfigError, RunConfig
from .conslaw import Euler, make_law
from .errors import DegenerateGeometryError, RdlabError, UnsupportedFeatureError
from .rd_core import Discretization, Scheme

FMT = "%.17g"


def _write_csv(path, header, rows, ints=0):
    """Write ``rows`` of tuples under ``header``, making the file's directory: the
    first ``ints`` columns as integers, the others as ``FMT``."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fmt = ",".join(["%d"] * ints + [FMT] * (len(header) - ints)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(fmt % row for row in rows)


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
    """Report a value a constructor or march rejects, or a degenerate mesh, as a ConfigError."""
    try:
        yield
    except (ValueError, UnsupportedFeatureError, DegenerateGeometryError) as err:
        raise ConfigError(f"{prefix}{err}") from err


def _law(cfg, dim=1):
    with _config_values("[law] name: "):
        return make_law(cfg.get("law", "name"), dim=dim)


def _time_value(cfg, key, positive=True):
    """A finite [time] value, > 0 where ``positive`` and >= 0 elsewhere; None if unset."""
    value = cfg.get_float("time", key)
    if value is not None and not (0.0 <= value < np.inf and (value > 0.0 or not positive)):
        raise ConfigError(f"[time] {key}: {value} is not a finite "
                          + ("positive number" if positive else "number >= 0"))
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
        disc = Discretization(mesh, _law(cfg, mesh.dim))
        disc.check_kind(scheme.kind)
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


def _write_audits(cfg, outdir, strict, gating, reported):
    """Write the audit lines, gating then reported, to ``audit.txt``, and the
    manifest; the one --strict audit rule: exit 3 if a gating report fails."""
    with open(os.path.join(outdir, "audit.txt"), "w") as fh:
        fh.writelines(r.line() + "\n" for r in [*gating, *reported])
    lines = [f"rdlab.version={__version__}", f"numpy.version={np.__version__}"]
    with open(os.path.join(outdir, "manifest.txt"), "w") as fh:
        fh.write("\n".join(lines + cfg.manifest_lines()) + "\n")
    if strict and not all(r.passed for r in gating):
        print("audit failed", file=sys.stderr)
        return 3
    return 0


def cmd_run(args):
    cfg = RunConfig.load(args.config)
    if args.out:
        cfg.values["run", "out"] = args.out
    run = _setup(cfg)
    top = os.path.abspath(run.out)
    while not os.path.exists(top):          # the nearest existing ancestor of the output
        top = os.path.dirname(top)
    if not os.path.isdir(top):              # refused before the march, creating nothing
        raise NotADirectoryError(f"cannot make {run.out}: {top} is not a directory")
    if run.sod is not None:
        return _run_sod(cfg, run, args)
    disc, scheme = run.disc, run.scheme
    key = f"dt {run.dt}" if run.dt else f"cfl {run.time.cfl}"
    with warnings.catch_warnings():
        if args.strict:
            warnings.simplefilter("error", time_dec.CflWarning)
        try:
            with _config_values(f"[time] t_end {run.t_end} with [time] {key}: "):
                u, records, rset = time_dec.dec_run(disc, run.u0, run.t_end, scheme, run.time,
                                                    u_b=run.u_b, dt=run.dt)
        except time_dec.CflWarning as err:
            print(f"step rejected: {err}", file=sys.stderr)
            return 3
    coords = disc.dofmap.dof_coords
    rows = zip(range(len(coords)), *coords.T, *u.T)
    hdr = ["dof"] + [f"x{k}" for k in range(disc.mesh.dim)] + \
          [f"u{k}" for k in range(disc.law.m)]
    _write_csv(os.path.join(run.out, "solution.csv"), hdr, rows, ints=1)
    _write_csv(os.path.join(run.out, "series.csv"), ["t", "mass", "res_inf"],
               ((t, mass[0], rnorm) for t, mass, rnorm, *_ in records))
    gating = [diag.conservation_audit(disc, u, rset), diag.flux_form_audit(disc, u, rset),
              diag.maximum_principle_audit([run.u0, *(r[3:] for r in records)])]
    reported = [diag.entropy_inequality_audit(disc, u, rset, run.u_b)] \
        if disc.law.has_entropy else []
    return _write_audits(cfg, run.out, args.strict, gating, reported)


def _run_sod(cfg, run, args):
    with _config_values(f"[time] t_end {run.sod['t_end']} with [time] cfl {run.sod['cfl']}: "):
        res = euler1d.run_sod(**run.sod)
    rows = zip(range(len(res.x)), res.x, res.w[:, 0], res.w[:, 1], res.pressure())
    _write_csv(os.path.join(run.out, "solution.csv"),
               ["node", "x", "rho", "u", "p"], rows, ints=1)
    correct = run.sod["correct"]
    reports = [diag.AuditReport(f"{name}_balance", defect, diag.SOD_BALANCE_TOL,
                                None if correct else ("corrections", "off"))
               for name, defect in (("momentum", res.defect_m), ("energy", res.defect_e))]
    gating, reported = (reports, []) if correct else ([], reports)
    return _write_audits(cfg, run.out, args.strict, gating, reported)


def cmd_burgers1d(args):
    grid = fv1d.Grid1D(args.n, periodic=args.periodic)
    dt = args.lam * grid.dx
    with _config_values(f"--tend {args.tend} with --lam {args.lam}: "):
        time_dec.check_step(dt, args.tend)
    n_steps = int(np.ceil(args.tend / dt))
    os.makedirs(args.out, exist_ok=True)
    stepper = fv1d.STEPPERS[args.scheme]
    u = _initial_field("cosine" if args.periodic else "riemann", grid.x[:, None])
    series = [(0, 0.0, fv1d.total_variation(u, args.periodic),
               float(u.sum() * grid.dx))]
    # a fixed lam over ceil(tend / dt) steps: time_dec.march would clip the last one
    for k in range(1, n_steps + 1):
        u = stepper(u, args.lam, args.periodic)
        series.append((k, k * dt, fv1d.total_variation(u, args.periodic),
                       float(u.sum() * grid.dx)))
    _write_csv(os.path.join(args.out, "final.csv"), ["x", "u"], zip(grid.x, u))
    _write_csv(os.path.join(args.out, "series.csv"),
               ["step", "t", "tv", "mass"], series, ints=1)
    return 0


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
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (RdlabError, OSError) as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
