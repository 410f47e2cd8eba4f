"""The benchmark's workloads, each run once as a check of the calls they make.

``perfbench/workloads.py`` and ``perfbench/spans.py`` are imported as they
stand, from their directory; the timing and repetition of
``perfbench/run.py`` are left out.  Each
workload's set-up, inputs, one solve and its boundary probe must run with
no failed operation, so a change that breaks a call the benchmark makes
into rdlab fails here rather than only in a benchmark run.
"""

import os
import sys

import pytest

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench"))
import spans  # noqa: E402
import workloads  # noqa: E402

# (faces tried, faces that raised) of each workload that probes its boundary:
# the 4 x 6 boundary faces of the 6 x 6 P2 sweep mesh, none raising
PROBES = {"family_sweep_p2_euler": (24, 0)}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_without_failures(name, tmp_path):
    workload = workloads.WORKLOADS[name](0, str(tmp_path))
    problem = workload.setup()
    inputs = workload.inputs(problem)
    outcome = workload.solve(problem, inputs)
    assert outcome.attempted > 0
    assert outcome.failed == 0
    assert workload.boundary_probe(problem, inputs) == PROBES.get(name)


# traced names the package no longer defines, listed under items 12 and 17
# of ROADMAP.md; their metrics read 0 until perfbench drops them
STALE_TARGETS = {"mesh.face_geometry", "rd_core.rusanov_residuals",
                 "rd_core.supg_residuals", "rd_core.jump_residuals"}


def test_traced_names_exist():
    """The tracer skips a missing target silently, so a rename would zero its
    metrics; every target resolves on one of its owners except the stale ones."""
    missing = {f"{prefix}.{attr}" for prefix, owners, attrs in spans.TARGETS for attr in attrs
               if not any(attr in vars(owner) for owner in owners)}
    assert missing == STALE_TARGETS


@pytest.mark.parametrize("name", ["readme_run", "family_sweep_p2_euler"])
def test_tracer_counts_the_law_calls(name, tmp_path):
    """The tracer patches the law classes that define ``flux`` and ``jac_n``,
    so a law class that defines them again out of its reach would read 0
    calls and zero the benchmark's ``conslaw`` metrics.  The traced names
    that feed per-layer metrics are pinned to their counts, so a change that
    bypasses one fails here rather than zeroing its metric."""
    workload = workloads.WORKLOADS[name](0, str(tmp_path))
    problem = workload.setup()
    inputs = workload.inputs(problem)
    tracer = spans.Tracer()
    with tracer.installed():
        outcome = workload.solve(problem, inputs)
    assert outcome.failed == 0
    summary = tracer.summary()
    for span in ("conslaw.flux", "conslaw.jac_n"):
        assert summary.get(span, {}).get("calls", 0) > 0
    if name == "readme_run":
        # 22 CN steps of two assemblies each, plus the residual at t = 0; the
        # conservation and flux-form audits read the final state's residual
        # set, not a new one.  Every assembly limits its split once.  Advection
        # is linear, so its Rusanov split (the Galerkin table plus the bound's
        # term) and its weak inflow are per-mesh operators, and no assembly
        # calls rusanov_alpha: the span is traced and reads 0 calls.  The
        # flux runs once to build the Galerkin table, then once for the final
        # state's point flux table, which the conservation audit's total_residual
        # and the flux-form audit's boundary_dof_flux both read (1 + 1);
        # jac_n runs once to build each of the bound, inflow and CFL wave
        # speed tables, which the 22 stable_dt calls read (1 + 1 + 1)
        pins = (("time_dec.dec_step", 22), ("time_dec.mass_apply", 22),
                ("rd_core.assemble", 45), ("rd_core.residual_set", 45),
                ("rd_core.blend_limiter", 45), ("time_dec.lumped_mass", 1),
                ("diagnostics.conservation_audit", 1), ("rd_core.total_residual", 1),
                ("conslaw.flux", 2), ("rd_core.rusanov_alpha", 0),
                ("conslaw.jac_n", 3), ("flux_recovery.boundary_dof_flux", 1),
                ("flux_recovery.recover_fluxes", 1), ("flux_recovery.certify", 1))
    else:
        # one residual set per family, three of them limited, then for each of
        # the 72 elements of each family the boundary DOF flux, recovery,
        # certification and total.  All of them read one state, so the flux
        # is evaluated once, for the state's point flux table that every
        # Galerkin split, boundary DOF flux and total reads; jac_n once, for the
        # volume Jacobians table, read by the Rusanov bound of the 4 kinds
        # that read it and by the 2 SUPG terms, whose A.grad(u_h) is their
        # contraction with the DOF values
        pins = (("flux_recovery.boundary_dof_flux", 504), ("flux_recovery.recover_fluxes", 504),
                ("flux_recovery.certify", 504), ("rd_core.total_residual", 504),
                ("rd_core.residual_set", 7), ("rd_core.blend_limiter", 3),
                ("conslaw.flux", 1), ("conslaw.jac_n", 1))
    for span, calls in pins:
        assert summary[span]["calls"] == calls, span
