"""Span tracer for the traced benchmark run.

The tracer wraps eigtrack's public functions from outside the package:
each call becomes a span ``[name, start, end, parent, info, ok]`` kept
in memory.  A function that another module imported by value is wrapped
in every module that looks it up, otherwise those calls would go
uncounted; provider and ``LUFactorization`` methods are wrapped on the
class, and a model's ``f``/``g`` on the instance.  ``uninstall`` puts
every original back.

Span names are ``<layer>.<function>``, the layer being the module whose
public function is called.  ``layer_metrics`` turns one traced repeat
into ``<name>.calls`` and ``<name>.self_s`` (span time minus the time of
its child spans) plus the LU and tracker counters.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from typing import Dict, List

import numpy as np

from checks import corrected
from eigtrack import dae, linalg, models, spectrum, tracker

NAME, START, END, PARENT, INFO, OK = range(6)


def _lu_in(args, kwargs):
    M = args[0] if args else kwargs["M"]
    return {"nnz_in": int(M.nnz) if hasattr(M, "nnz") else int(np.count_nonzero(M))}


def _lu_out(info, result):
    # SuperLU.nnz: nonzeros stored in the L and U factors
    lu = getattr(result, "_lu", None)
    if lu is not None and hasattr(lu, "nnz"):
        info["fill_nnz"] = int(lu.nnz)


def _state_p(args, kwargs):
    state = args[1] if len(args) > 1 else kwargs["state"]
    return {"p": state.p}


# (owner, attribute, span name, note before call, note after call)
TARGETS = [
    (dae, "solve_equilibrium", "dae.solve_equilibrium", None, None),
    (dae, "fd_jacobians", "dae.fd_jacobians", None, None),
    (dae, "fd_matrix_derivatives", "dae.fd_matrix_derivatives", None, None),
    (dae, "assemble_pencil", "dae.assemble_pencil", None, None),
    (dae, "reduce_state_matrix", "dae.reduce_state_matrix", None, None),
    (dae.ModelPencilProvider, "matrices", "dae.provider_matrices", None, None),
    (dae.ModelPencilProvider, "sample", "dae.provider_sample", None, None),
    (models.SyntheticSparseProvider, "matrices", "dae.provider_matrices", None, None),
    (models.SyntheticSparseProvider, "sample", "dae.provider_sample", None, None),
    (tracker, "track", "tracker.track", None, None),
    (tracker, "assemble_system", "tracker.assemble_system", None, None),
    (tracker, "predict_fem", "tracker.predict", None, None),
    (tracker, "predict_rk4", "tracker.predict", None, None),
    (tracker, "correct_newton", "tracker.correct_newton", _state_p, None),
    (tracker, "residual", "tracker.residual", None, None),
    (tracker, "reinitialize", "tracker.reinitialize", None, None),
    (linalg, "lu_factor", "linalg.lu_factor", _lu_in, _lu_out),
    (tracker, "lu_factor", "linalg.lu_factor", _lu_in, _lu_out),
    (dae, "lu_factor", "linalg.lu_factor", _lu_in, _lu_out),
    (models, "lu_factor", "linalg.lu_factor", _lu_in, _lu_out),
    (linalg.LUFactorization, "solve", "linalg.lu_solve", None, None),
    (linalg, "eig_dense", "linalg.eig_dense", None, None),
    (spectrum, "eig_dense", "linalg.eig_dense", None, None),
    (spectrum, "full_spectrum", "spectrum.full_spectrum", None, None),
    (tracker, "full_spectrum", "spectrum.full_spectrum", None, None),
    (spectrum, "mac", "spectrum.mac", None, None),
    (tracker, "mac", "spectrum.mac", None, None),
]

TIMED_SPANS = sorted({t[2] for t in TARGETS} | {"models.f_g"})
COUNTERS = ["linalg.lu_factor.nnz_in", "linalg.lu_factor.fill_nnz",
            "tracker.accepted_steps", "tracker.rejected_attempts",
            "tracker.newton_iters"]


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name in TIMED_SPANS:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(name, "count") for name in COUNTERS]
    out.append(("trace.overhead_s", "s"))
    return out


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    def reset(self) -> None:
        """Start a new span list; the previous one stays with its holder."""
        self.spans = []
        self._stack.clear()

    def wrap(self, fn, name, before=None, after=None):
        tracer, stack, clock = self, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            info = before(args, kwargs) if before is not None else None
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, info, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            rec[OK] = True
            if after is not None:
                after(info, result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, before, after in TARGETS:
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, before, after))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def instrument_model(self, model) -> None:
        """Wrap a model's f/g evaluations, including the calls its core makes."""
        if model is None:
            return
        model.f = self.wrap(model.f, "models.f_g")
        model.g = self.wrap(model.g, "models.f_g")
        core = getattr(model, "core", None)
        if core is not None:
            core.f = self.wrap(core.f, "models.f_g")
            core.g = self.wrap(core.g, "models.f_g")

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps({"name": rec[NAME], "start": rec[START],
                                     "end": rec[END], "parent": rec[PARENT]}))
                fh.write("\n")


def self_times(spans) -> Dict[str, float]:
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    out: Dict[str, float] = defaultdict(float)
    for i, rec in enumerate(spans):
        out[rec[NAME]] += rec[END] - rec[START] - child[i]
    return out


def _corrected_records(traj):
    return [pt for i, pt in enumerate(traj) if corrected(i, pt)]


def _ancestor(spans, k: int, name: str) -> int:
    """Index of the nearest span named ``name`` at or above span k, or -1."""
    while k >= 0 and spans[k][NAME] != name:
        k = spans[k][PARENT]
    return k


def layer_metrics(spans, results, time_scale: float = 1.0) -> Dict[str, float]:
    """Per-layer counts and self times of one traced repeat.

    Self times are multiplied by ``time_scale``, the repeat's host-speed
    factor, so they are in the same reference-core seconds as track_s.
    """
    calls = Counter(rec[NAME] for rec in spans)
    selfs = self_times(spans)
    out: Dict[str, float] = {}
    for name in TIMED_SPANS:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = selfs.get(name, 0.0) * time_scale
    lu = [rec[INFO] for rec in spans
          if rec[NAME] == "linalg.lu_factor" and rec[OK]]
    out["linalg.lu_factor.nnz_in"] = sum(i["nnz_in"] for i in lu)
    out["linalg.lu_factor.fill_nnz"] = sum(i.get("fill_nnz", 0) for i in lu)
    trajs = [r.trajectory for r in results if r.trajectory is not None]
    fixed = [pt for traj in trajs for pt in _corrected_records(traj)]
    out["tracker.accepted_steps"] = sum(len(traj) - 1 for traj in trajs)
    out["tracker.rejected_attempts"] = (
        calls.get("tracker.correct_newton", 0) - len(fixed))
    out["tracker.newton_iters"] = sum(pt.corrector_iters for pt in fixed)
    return out


def newton_lu_problems(spans, results) -> List[str]:
    """LUs inside accepted corrections must equal the records' iterations.

    The tracer counts ``lu_factor`` spans below each successful
    ``correct_newton`` span; the trajectory carries the tracker's own
    ``corrector_iters``.  A correction is matched to the accepted record
    with the same p inside the same ``track`` call (the last such
    correction wins, as a later retry at that p replaces an earlier one).
    """
    lu_below = Counter(
        _ancestor(spans, rec[PARENT], "tracker.correct_newton")
        for rec in spans if rec[NAME] == "linalg.lu_factor")
    tracks = [i for i, rec in enumerate(spans)
              if rec[NAME] == "tracker.track" and rec[OK]]
    trajs = [r.trajectory for r in results if r.trajectory is not None]
    if len(tracks) != len(trajs):
        return [f"{len(tracks)} completed track spans for "
                f"{len(trajs)} trajectories"]
    by_track: Dict[int, Dict[float, int]] = defaultdict(dict)
    for i, rec in enumerate(spans):
        if rec[NAME] == "tracker.correct_newton" and rec[OK]:
            track = _ancestor(spans, rec[PARENT], "tracker.track")
            by_track[track][rec[INFO]["p"]] = i
    problems = []
    for t, traj in zip(tracks, trajs):
        counted = iters = 0
        for pt in _corrected_records(traj):
            span = by_track[t].get(pt.p)
            if span is None:
                problems.append(f"no traced correction for the record "
                                f"at p={pt.p}")
                continue
            counted += lu_below[span]
            iters += pt.corrector_iters
        if counted != iters:
            problems.append(f"{counted} traced LUs in accepted corrections, "
                            f"records say {iters} Newton iterations")
    return problems
