"""In-memory span tracer for the benchmark's traced runs.

Every library function listed in ``TARGETS`` is looked up by its callers as
a module global at call time, so replacing that module attribute with a
timing wrapper reroutes every call without editing the library.  The
``sc3opt`` package attributes are wrapped too: the library never calls
through them, the benchmark always does, so they time the benchmark's own
calls into each layer.

A span is ``(id, name, start, end, parent id, op id, thread id, size)``.
``size`` is the work a call carried where that differs from one (pairs for
the batch latency kernel, simulated cycles for Monte Carlo).  Spans stay in
a list until ``dump`` writes them out at the end of the run.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time

import numpy as np

import sc3opt
import sc3opt.baselines
import sc3opt.cli
import sc3opt.oracle
import sc3opt.solver

SETUP_OP = -1  # spans made while generating inputs
CHECK_OP = -2  # spans made while checking outputs, outside op time


def _pairs(args, kwargs, result):
    return int(np.size(result))


def _cycles(args, kwargs, result):
    return int(result.cycles)


# (module, attribute, span name, size extractor)
TARGETS = (
    (sc3opt.solver, "surrogate_batch", "surrogate.surrogate_batch", None),
    (sc3opt.solver, "project_budget_simplex", "solver.project_budget_simplex", None),
    (sc3opt.solver, "min_compute_time", "compute.min_compute_time", None),
    (sc3opt.solver, "optimal_split", "compute.optimal_split", None),
    (sc3opt.solver, "make_anchors", "solver.make_anchors", None),
    (sc3opt.baselines, "project_budget_simplex", "solver.project_budget_simplex", None),
    (sc3opt.baselines, "min_compute_time", "compute.min_compute_time", None),
    (sc3opt.baselines, "optimal_split", "compute.optimal_split", None),
    (sc3opt.baselines, "classify_region", "compute.classify_region", None),
    (sc3opt.cli, "generate_scenario", "cli.generate_scenario", None),
    (sc3opt.cli, "build_entropy_params", "control.build_entropy_params", None),
    (sc3opt.cli, "sca_solve", "solver.sca_solve", None),
    (sc3opt.cli, "power_only_closed_loop", "baselines.power_only_closed_loop", None),
    (sc3opt.cli, "communication_oriented", "baselines.communication_oriented", None),
    (sc3opt.cli, "evaluate_allocation", "baselines.evaluate_allocation", None),
    (sc3opt.cli, "write_csv", "cli.write_csv", None),
    (sc3opt.oracle, "min_compute_time_batch", "compute.min_compute_time_batch", _pairs),
    (sc3opt, "generate_scenario", "cli.generate_scenario", None),
    (sc3opt, "sca_solve", "solver.sca_solve", None),
    (sc3opt, "check_allocation", "solver.check_allocation", None),
    (sc3opt, "evaluate_allocation", "baselines.evaluate_allocation", None),
    (sc3opt, "min_compute_time", "compute.min_compute_time", None),
    (sc3opt, "brute_force_min_time", "compute.brute_force_min_time", None),
    (sc3opt, "grid_search_global", "oracle.grid_search_global", None),
    (sc3opt, "monte_carlo_loop", "oracle.monte_carlo_loop", _cycles),
    (sc3opt, "convexity_probe", "oracle.convexity_probe", None),
)


class _Stack(threading.local):
    def __init__(self):
        self.ids: list[int] = []


class Tracer:
    """Collects spans while installed; ``op`` tags spans with the current op."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = SETUP_OP
        self._ids = itertools.count()
        self._stack = _Stack()
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, size):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack.ids
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                n = size(args, kwargs, result) if size and result is not None else 1
                self.spans.append((sid, name, t0, t1, parent, self.op, threading.get_ident(), n))

        return wrapper

    def __enter__(self):
        for module, attr, name, size in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, size))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def dump(self, path) -> None:
        """One JSON array per line, after a header line naming the fields."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["id", "name", "start", "end", "parent", "op", "thread", "size"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
