"""Outside-in tracing: spans and counts recorded around calls into the
program's modules, from the benchmark's own files.

The tracer replaces, for the length of one operation, the names that each
calling module looks up (for example ``neharifrac.solver.energy_gradient``)
with wrappers. A wrapper records a span (label, start, end, parent span,
operation id) in memory. A layer is the first part of a label; its self
time is its spans' durations minus the part covered by their child spans,
so the self times of all layers add up to the operation's root span.

A name that has disappeared from the program is listed as absent and its
metrics are reported as absent, never as a failure.
"""

from __future__ import annotations

import collections
import contextlib
import importlib
import time

LAYERS = ("problem", "form", "energy", "fiber", "solver", "thresholds", "verify", "cli")

# (module that looks the name up, name, span label)
SPANNED = (
    ("neharifrac.cli", "validate_params", "problem.validate"),
    ("neharifrac.cli", "assemble_form", "form.assemble"),
    ("neharifrac.energy", "pair_norm_sq", "form.norm"),
    ("neharifrac.cli", "energy", "energy.energy"),
    ("neharifrac.solver", "energy_gradient", "energy.gradient"),
    ("neharifrac.solver", "pair_stats", "energy.pair_stats"),
    ("neharifrac.verify", "pair_stats", "energy.pair_stats"),
    ("neharifrac.solver", "project", "fiber.project"),
    ("neharifrac.cli", "solve_branch", "solver.solve"),
    ("neharifrac.solver", "initial_direction", "solver.initial_direction"),
    ("neharifrac.cli", "compute_constants", "thresholds.constants"),
    ("neharifrac.thresholds", "estimate_S", "thresholds.estimate_S"),
    ("neharifrac.thresholds", "estimate_S_coupled", "thresholds.estimate_S_coupled"),
    ("neharifrac.verify", "weak_residual", "verify.residual"),
    ("neharifrac.verify", "inequality_suite", "verify.inequality"),
)

# counted, not timed: a span around each of these costs more than the call
COUNTED = (
    ("neharifrac.problem", "GridFunction.__post_init__", "problem.gridfunction"),
)

# the psi count has a pass of its own: wrapping psi doubles an operation's time
PSI_COUNTED = (
    ("neharifrac.fiber", "psi", "fiber.psi"),
    ("neharifrac.solver", "project", "fiber.project"),
)


def _resolve(module_name: str, dotted: str):
    owner = importlib.import_module(module_name)
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr
    return owner, attr


class Tracer:
    """Spans and counts of traced operations, kept in memory."""

    def __init__(self, counted=COUNTED, spanned=SPANNED):
        self.spans: list = []  # (label, start, end, parent index, op id)
        self.counts: collections.Counter = collections.Counter()
        self.absent: set[str] = set()
        self.op = None
        self._counted = counted
        self._spanned = spanned
        self._stack: list[int] = []
        self._undo: list = []

    @contextlib.contextmanager
    def span(self, label: str):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (label, start, end, parent, self.op)

    def _spanning(self, fn, label):
        # span() inlined: the hot loop makes tens of thousands of these
        # calls per operation
        spans, stack = self.spans, self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[idx] = (label, start, end, parent, self.op)
            if label == "solver.solve":
                self._observe_solve(result, end - start)
            return result
        return wrapper

    def _observe_solve(self, report, seconds):
        branch = getattr(getattr(report, "branch", None), "value", None)
        if branch is not None:
            self.counts[f"solver.solve_s.{branch}"] += seconds
            self.counts[f"solver.iters.{branch}"] += getattr(report, "iters", 0)

    def _counting(self, fn, label):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _install(self):
        for table, make in ((self._counted, self._counting), (self._spanned, self._spanning)):
            for module_name, dotted, label in table:
                owner, attr = _resolve(module_name, dotted)
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    self.absent.add(f"{module_name}.{dotted}")
                    continue
                self._undo.append((owner, attr, fn))
                setattr(owner, attr, make(fn, label))

    def _restore(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    @contextlib.contextmanager
    def operation(self, op_id):
        """Trace one operation: wrappers are in place only inside this block."""
        self.op = op_id
        self._install()
        try:
            yield
        finally:
            self._restore()
            self.op = None

    def summary(self) -> dict:
        """Totals over all spans: inclusive time and calls per label, self
        time per layer, and the duration of the root spans."""
        child = [0.0] * len(self.spans)
        for label, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive = collections.Counter()
        calls = collections.Counter()
        self_time = collections.Counter()
        root = 0.0
        for i, (label, start, end, parent, _) in enumerate(self.spans):
            inclusive[label] += end - start
            calls[label] += 1
            self_time[label.split(".")[0]] += end - start - child[i]
            if parent < 0:
                root += end - start
        return {"inclusive": inclusive, "calls": calls, "self": self_time, "root": root}

    def export(self) -> dict:
        return {"columns": ["label", "start", "end", "parent", "op"],
                "spans": self.spans, "counts": dict(self.counts),
                "absent": sorted(self.absent)}
