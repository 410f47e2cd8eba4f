"""In-memory span tracer that wraps rdlab's functions from the outside.

A ``Tracer`` replaces each target function or method with a wrapper that
records one span per call: name, start, end and the enclosing span.  Nothing
under ``src/`` is edited.  Module functions are patched on the defining
module and on every ``rdlab`` module that imported the same object by name
(``from .mesh import ...``), so callers see the wrapper however they look it
up; methods are patched on each class that defines them.

Self time is a span's duration minus the durations of its direct child spans,
so nested calls such as ``residual_set -> element_residuals ->
rusanov_residuals -> galerkin_residuals -> face_geometry -> gauss_01`` are
counted once.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

from rdlab import cli, conslaw, constraints, diagnostics, euler1d
from rdlab import flux_recovery, mesh, rd_core, time_dec

# (span name prefix, owners, attribute names).  Owners are modules or
# classes; every law class shares the ``conslaw.<method>`` span name.
# Targets that a later version of the package no longer has are skipped.
TARGETS = (
    ("mesh", (mesh,), ("build_structured_tri_mesh", "build_interval_mesh",
                       "build_dofmap", "face_geometry", "gauss_01")),
    ("conslaw", (conslaw.ConservationLaw,
                 *conslaw.ConservationLaw.__subclasses__()), ("flux", "jac_n")),
    ("rd_core", (rd_core.Discretization,),
     ("__init__", "residual_set", "assemble", "element_residuals",
      "galerkin_residuals", "rusanov_residuals", "rusanov_alpha",
      "supg_residuals", "jump_residuals", "boundary_residuals",
      "total_residual")),
    ("rd_core", (rd_core,), ("blend_limiter",)),
    ("time_dec", (time_dec,), ("dec_run", "dec_step", "mass_apply",
                               "stable_dt", "lumped_mass")),
    ("flux_recovery", (flux_recovery,), ("build_incidence", "recover_fluxes",
                                         "boundary_dof_flux", "certify")),
    ("euler1d", (euler1d,), ("run_sod", "step", "sod_initial")),
    ("constraints", (constraints,), ("velocity_correction",
                                     "energy_correction")),
    ("diagnostics", (diagnostics,), ("conservation_audit",
                                     "maximum_principle_audit")),
    ("cli", (cli,), ("main", "cmd_run")),
)


class Tracer:
    """Records spans of the wrapped calls while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self._ids = {}               # span name -> id, in first-seen order
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _wrap(self, name, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1

        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        undo = []
        try:
            for prefix, owners, attrs in self.targets:
                for owner in owners:
                    for attr in attrs:
                        if attr in vars(owner):
                            undo += self._patch(owner, attr, f"{prefix}.{attr}")
            yield self
        finally:
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)

    def _patch(self, owner, attr, name):
        original = vars(owner)[attr]
        wrapped = self._wrap(name, original)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            return [(owner, attr, original)]
        undo = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "rdlab":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, original))
        return undo

    def summary(self):
        """Per span name: {"calls", "self_s", "total_s"}."""
        n_names = len(self._ids)
        nid = np.frombuffer(self.name_id, dtype=np.intc)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=dur.size)
        own = dur - child
        calls = np.bincount(nid, minlength=n_names)
        self_s = np.bincount(nid, weights=own, minlength=n_names)
        total_s = np.bincount(nid, weights=dur, minlength=n_names)
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                   "total_s": float(total_s[i])}
            for i, name in enumerate(self._ids)
        }

    def root_s(self):
        """Summed duration of the outermost spans."""
        top = np.frombuffer(self.parent, dtype=np.intc) < 0
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        return float(dur[top].sum())

    def save(self, path):
        """Write every span to a ``.npz`` file."""
        np.savez(path, names=np.array(list(self._ids)),
                 name_id=np.frombuffer(self.name_id, dtype=np.intc),
                 parent=np.frombuffer(self.parent, dtype=np.intc),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))
