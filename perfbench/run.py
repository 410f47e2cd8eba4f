"""rdlab benchmark: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload readme_run --seed 1 --seconds 20
    python3 perfbench/run.py --workload family_sweep_p2_euler --trace 1
    python3 perfbench/run.py --workload all

With ``--trace 0`` the end-to-end metrics are measured with tracing off:
``setup_s`` (median of the set-ups repeated before every solve), ``solve_s``
(median of the solves repeated until ``--seconds`` have passed, at least
one) and ``peak_rss_mb``.  Each set-up and solve time is rescaled to a fixed
reference machine speed measured alongside it (``speed.py``); the raw wall
times are printed too.  With ``--trace 1`` the benchmark does one
untraced solve, then one traced set-up and solve, and prints the per-layer
metrics.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# before each solve the set-up is repeated until both limits are reached;
# setup_s is the median over those rounds of each round's median
SETUP_MIN_REPS = 5
SETUP_MIN_S = 0.2
WORKLOAD_NAMES = ("readme_run", "family_sweep_p2_euler", "sod_corrected")

# per-layer metrics read from the trace: span name -> what is reported
CALLS = (
    "mesh.face_geometry", "mesh.gauss_01", "conslaw.jac_n", "conslaw.flux",
    "rd_core.residual_set", "rd_core.element_residuals",
    "rd_core.blend_limiter", "time_dec.dec_step", "time_dec.mass_apply",
    "flux_recovery.recover_fluxes", "euler1d.step",
    "constraints.velocity_correction", "constraints.energy_correction",
)
SELF_S = (
    "mesh.face_geometry", "mesh.gauss_01", "conslaw.jac_n", "conslaw.flux",
    "rd_core.residual_set", "rd_core.galerkin_residuals",
    "rd_core.rusanov_alpha", "rd_core.supg_residuals",
    "rd_core.jump_residuals", "rd_core.blend_limiter",
    "rd_core.boundary_residuals", "rd_core.assemble", "time_dec.dec_step",
    "time_dec.mass_apply", "time_dec.stable_dt", "time_dec.lumped_mass",
    "flux_recovery.build_incidence", "flux_recovery.recover_fluxes",
    "flux_recovery.boundary_dof_flux", "flux_recovery.certify",
    "euler1d.step", "diagnostics.conservation_audit",
    "diagnostics.maximum_principle_audit", "cli.cmd_run",
)
MESH_BUILDERS = ("mesh.build_structured_tri_mesh", "mesh.build_interval_mesh",
                 "mesh.build_dofmap")


def git_sha():
    """Commit of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(numpy):
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "git_sha": git_sha(), "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": nproc,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def wall_clock():
    return time.perf_counter(), 0.0


def program_s(start, end):
    """Wall seconds between two (wall, probe) clock readings, minus the
    speed probe's share."""
    return (end[0] - start[0]) - (end[1] - start[1])


def timed_solve(spans, workload, problem, inputs, clock=wall_clock):
    """(solve seconds without in-run set-up, in-run set-up seconds, outcome,
    (start, end) of the solve)."""
    timer = spans.Tracer(workload.setup_targets)
    with timer.installed():
        start = clock()
        outcome = workload.solve(problem, inputs)
        end = clock()
    inner = timer.root_s()
    elapsed = program_s(start, end)
    return elapsed - inner, inner, outcome, (start[0], end[0])


def set_up(workload, clock):
    """Repeat the set-up for at least SETUP_MIN_REPS and SETUP_MIN_S.

    Returns the last problem, the seconds of each repetition, and the
    (start, end) of the round.
    """
    reps, spent, first = [], 0.0, clock()[0]
    while len(reps) < SETUP_MIN_REPS or spent < SETUP_MIN_S:
        start = clock()
        problem = workload.setup()
        reps.append(program_s(start, clock()))
        spent += reps[-1]
    return problem, reps, (first, clock()[0])


def untraced(spans, speed, workload, seconds):
    # samples are (seconds, start, end); rescaled once the run is over
    setup, solve, attempted, failed = [], [], 0, 0
    probe = None
    machine = speed.SpeedProbe()
    with machine.running():
        begin = time.perf_counter()
        while not solve or time.perf_counter() - begin < seconds:
            # set-up is sampled before every solve, so both metrics see the
            # same stretch of machine time
            problem, reps, round_span = set_up(workload, machine.clock)
            inputs = workload.inputs(problem)
            if probe is None:
                probe = workload.boundary_probe(problem, inputs)
            solve_s, inner_s, outcome, (t0, t1) = timed_solve(
                spans, workload, problem, inputs, machine.clock)
            solve.append((solve_s, t0, t1))
            if workload.setup_targets:
                reps.append(inner_s)
            # one set-up sample per round, so that memory use does not grow
            # with the number of repetitions
            setup.append((statistics.median(reps), *round_span))
            attempted += outcome.attempted
            failed += outcome.failed
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {}
    for key, samples in (("setup_s", setup), ("solve_s", solve)):
        wall = [s for s, _, _ in samples]
        ref = [s * machine.speed(t0, t1) for s, t0, t1 in samples]
        metrics[key] = (statistics.median(ref), "s", ref)
        print(f"[{workload.name}] {key:<44} wall-clock median "
              f"{statistics.median(wall):.6g} s (min {min(wall):.6g}, "
              f"max {max(wall):.6g}), machine speed "
              f"{statistics.median(r / w for r, w in zip(ref, wall) if w):.4g}"
              f" x reference over {len(machine.took)} probes")
    metrics["peak_rss_mb"] = (rss_mb, "MB", [rss_mb])
    return metrics, attempted, failed, probe


def traced(spans, workload):
    problem = workload.setup()
    inputs = workload.inputs(problem)
    probe = workload.boundary_probe(problem, inputs)
    plain_s, _, first, _ = timed_solve(spans, workload, problem, inputs)
    tracer = spans.Tracer()
    with tracer.installed():
        # a workload whose solve builds its own problem traces that build
        if not workload.setup_targets:
            problem = workload.setup()
            inputs = workload.inputs(problem)
        traced_s, _, second, _ = timed_solve(spans, workload, problem,
                                             inputs)
    tracer.save(os.path.join(OUT_DIR, f"spans_{workload.name}.npz"))
    metrics = layer_metrics(tracer.summary(), probe, traced_s - plain_s)
    return (metrics, first.attempted + second.attempted,
            first.failed + second.failed, probe)


def layer_metrics(summary, probe, overhead_s):
    def get(span, key):
        return summary.get(span, {}).get(key, 0)

    m = {"mesh.build_s": (sum(get(s, "total_s") for s in MESH_BUILDERS), "s")}
    m.update({f"{s}.calls": (get(s, "calls"), "count") for s in CALLS})
    m.update({f"{s}.self_s": (get(s, "self_s"), "s") for s in SELF_S})
    m["rd_core.setup_s"] = (get("rd_core.__init__", "total_s"), "s")
    steps = get("time_dec.dec_step", "calls")
    m["time_dec.assemblies_per_step"] = (
        get("rd_core.assemble", "calls") / steps if steps else 0.0, "calls/step")
    m["rd_core.boundary_residuals.probe_raised"] = (probe[1] if probe else 0,
                                                    "count")
    m["trace.overhead_s"] = (overhead_s, "s")
    return {k: (v, unit, [v]) for k, (v, unit) in m.items()}


def report(name, metrics, attempted, failed, probe):
    for key, (value, unit, samples) in metrics.items():
        spread = (f"  (median of {len(samples)}, min {min(samples):.6g}, "
                  f"max {max(samples):.6g})" if len(samples) > 1 else "")
        print(f"[{name}] {key:<44} {value:.6g} {unit}{spread}")
    print(f"[{name}] {'ops_failed_share':<44} {failed / attempted:.6g} "
          f"({failed} of {attempted} checked operations failed)")
    if probe:
        print(f"[{name}] known defect: boundary_residuals raised on {probe[1]} "
              f"of {probe[0]} P2 boundary faces (not counted as failed)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rdlab", "__init__.py")):
        print(f"perfbench: rdlab sources not found under {SRC}",
              file=sys.stderr)
        return 2
    # pin BLAS/OpenMP to one thread before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import numpy

    import spans
    import speed
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    meta = metadata(numpy)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        workload = workloads.WORKLOADS[name](args.seed, OUT_DIR)
        print(f"[{name}] seed={args.seed} trace={args.trace} "
              f"meta={json.dumps(meta, sort_keys=True)}")
        if args.trace:
            metrics, attempted, failed, probe = traced(spans, workload)
        else:
            metrics, attempted, failed, probe = untraced(
                spans, speed, workload, args.seconds)
        report(name, metrics, attempted, failed, probe)
        prefix = f"{name}." if len(names) > 1 else ""
        result["metrics"].update({
            prefix + key: {"value": value, "unit": unit}
            for key, (value, unit, _) in metrics.items()
        })
        result["attempted"] += attempted
        result["failed"] += failed
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
