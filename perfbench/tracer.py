"""Span tracer that times hypograd's layers from outside the package.

``install`` replaces the public entry points of each module, as the estimators
look them up, with wrappers that record one span per call (name, start,
end, parent span, thread) and a few work counts.  Spans stay in memory and
are written once the traced run has ended; ``layer_metrics`` turns them
into per-layer self times.  Nothing under ``src/`` is changed: the wrappers
live only in the traced benchmark process.
"""

from __future__ import annotations

import collections
import functools
import math
import threading
import time

# Every span name is reported as "<name>.self_s" and every count by its own
# name, with 0 when a workload never enters the layer.
SPAN_NAMES = (
    "cli",
    "estimator.driver",
    "estimator.noise",
    "flow.simulate",
    "flow.terminal_flow",
    "flow.jacobian_flow",
    "flow.valid_mask",
    "control.weights",
    "control.alpha",
    "control.bridge",
    "control.qbound",
    "model.drift",
    "model.full_jacobian",
    "exprdrift",
)

COUNT_NAMES = (
    "estimator.noise.calls",
    "estimator.noise.normals",
    "flow.simulate.path_steps",
    "flow.simulate.state_bytes",
    "control.degenerate_paths",
    "control.dropped_nodes",
    "exprdrift.calls",
    "exprdrift.points",
    "flow.invalid_paths",
)


class Tracer:
    """In-memory span recorder; one parent stack per thread."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index, thread id]
        self.counts = collections.Counter()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, count=None):
        """Return ``fn`` wrapped in a span; ``count(counts, args, out)`` runs
        after the span closes, so its cost lands in the caller's self time."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    threading.get_ident()]
            stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(self.counts, args, out)
            return out

        return traced


def _count_noise(counts, args, out):
    counts["estimator.noise.calls"] += 1
    counts["estimator.noise.normals"] += int(out.size)


def _count_simulate(counts, args, out):
    steps = out.shape[-2] - 1
    paths = math.prod(out.shape[:-2])
    counts["flow.simulate.path_steps"] += paths * steps
    counts["flow.simulate.state_bytes"] += int(out.nbytes)


def _count_valid(counts, args, out):
    counts["flow.invalid_paths"] += int(out.size - out.sum())


def _count_alpha(counts, args, out):
    counts["control.degenerate_paths"] += int(out.degenerate.sum())
    counts["control.dropped_nodes"] += int(out.dropped_nodes.sum())


def _count_expr(counts, args, out):
    x = args[1]
    counts["exprdrift.calls"] += 1
    counts["exprdrift.points"] += math.prod(getattr(x, "shape", (1,))[:-1])


def install(tracer):
    """Wrap hypograd's layer entry points; call before the traced run."""
    from hypograd import cli, estimator, exprdrift, model

    def patch(owner, attr, name, count=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))

    patch(cli, "run", "cli")
    patch(estimator, "bismut_gradient", "estimator.driver")
    patch(estimator, "duality_gap", "estimator.driver")
    patch(estimator, "path_increments", "estimator.noise", _count_noise)
    patch(estimator, "simulate_path", "flow.simulate", _count_simulate)
    patch(estimator, "terminal_flow", "flow.terminal_flow")
    patch(estimator, "full_jacobian_flow", "flow.jacobian_flow")
    patch(estimator, "valid_mask", "flow.valid_mask", _count_valid)
    for attr in ("phi_parabolic", "xi_case1", "xi_case2"):
        patch(estimator, attr, "control.weights")
    patch(estimator, "build_alpha", "control.alpha", _count_alpha)
    patch(estimator, "build_bridge", "control.bridge")
    patch(estimator, "q_inverse_bound_ratio", "control.qbound")
    patch(model.ModelSpec, "drift", "model.drift")
    patch(model.ModelSpec, "full_jacobian", "model.full_jacobian")
    for attr in ("value", "jacobian", "hessian"):
        patch(exprdrift.DriftExpr, attr, "exprdrift", _count_expr)


def self_times(spans):
    """Per-name self time: each span's duration minus its children's."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = collections.defaultdict(float)
    for idx, (name, start, end, _, _) in enumerate(spans):
        out[name] += (end - start) - child_time[idx]
    return out


def check_spans(spans):
    """Raise ValueError unless every span nests inside its parent, on the
    parent's thread, and no self time is negative."""
    for idx, (name, start, end, parent, thread) in enumerate(spans):
        if end < start:
            raise ValueError(f"span {idx} ({name}) ends before it starts")
        if parent >= 0:
            p = spans[parent]
            if p[4] != thread or start < p[1] or end > p[2]:
                raise ValueError(f"span {idx} ({name}) is not nested in its "
                                 f"parent {parent} ({p[0]})")
    for name, value in self_times(spans).items():
        if value < -1e-9:
            raise ValueError(f"negative self time for {name}: {value}")


def layer_metrics(spans, counts, wall_s):
    """Self times by layer, the work counts, and the part of ``wall_s`` that
    no span covers (``trace.unattributed_s``)."""
    selfs = self_times(spans)
    unknown = set(selfs) - set(SPAN_NAMES)
    if unknown:
        raise ValueError(f"unexpected span names {sorted(unknown)}")
    out = {f"{name}.self_s": selfs.get(name, 0.0) for name in SPAN_NAMES}
    out.update({name: int(counts.get(name, 0)) for name in COUNT_NAMES})
    out["trace.unattributed_s"] = wall_s - sum(selfs.values())
    return out
