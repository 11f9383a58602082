"""Span tracing of the hrlmc layers, patched in from outside the package.

A ``Tracer`` records one span per call into a probed function or method:
its layer group, start, end, parent span and trace id (one id per traced
workload call).  Spans stay in flat in-memory arrays until the run ends.
``installed`` patches the probes in and restores the original attributes on
exit, even when the traced call raises; wrappers pass arguments and results
through untouched, so traced outputs are byte-identical to untraced ones.

Per-layer numbers come from ``span_totals``: a group's ``calls`` and
``busy_s`` count only its outermost spans (a span with no ancestor in the
same group), and ``self_s`` is each span's duration minus the durations of
its direct children, summed over the group.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np


def _argument(module, qualname, name):
    """Counter hook reading one bound argument of the probed callable."""
    owner, _, attr = qualname.rpartition(".")
    fn = getattr(getattr(module, owner) if owner else module, attr)
    sig = inspect.signature(fn)

    def get(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return get


@dataclass(frozen=True)
class Probe:
    """One probed callable: ``qualname`` is ``func``, ``Class.method`` or
    ``*.method`` (every class of the module deriving from ``base`` that
    defines the method itself)."""

    module: str
    qualname: str
    group: str
    count: Callable | None = None  # (module) -> hook(args, kwargs, result) -> counters
    base: str | None = None


def _sampler_counts(module):
    n_chains = _argument(module, "run_parallel_chains", "n_chains")
    n_steps = _argument(module, "run_parallel_chains", "n_steps")

    def count(args, kwargs, result):
        # A list of per-chain Trajectory objects, or one object holding a
        # per-chain ``rejections`` array.
        rej = getattr(result, "rejections", None)
        if rej is None:
            rej = sum(tr.rejections for tr in result)
        return {
            "chain_steps": int(n_chains(args, kwargs)) * int(n_steps(args, kwargs)),
            "rejections": int(np.sum(rej)),
        }

    return count


def _first_rows(module):
    return lambda args, kwargs, result: {"points": int(np.shape(args[0])[0])}


def _exact_points(module):
    get = _argument(module, "Target.sample_exact", "n")
    return lambda args, kwargs, result: {"points": int(get(args, kwargs))}


def _constants_pairs(module):
    get = _argument(module, "estimate_constants", "n_pairs")
    return lambda args, kwargs, result: {"pairs": int(get(args, kwargs))}


def _points(module):
    # Entropy methods: args = (self, points); a point has self.dim coordinates.
    return lambda args, kwargs, result: {"points": int(np.size(args[1])) // args[0].dim}


# The entry points the four workloads reach, grouped by the layer they
# belong to.  The private estimators and unchecked maps are probed because
# they are where the sampler and the distance layer do their work.
PROBES = (
    Probe("hrlmc.cli", "main", "cli"),
    Probe("hrlmc.experiments", "run_convergence_experiment", "experiments"),
    Probe("hrlmc.experiments", "run_dimension_sweep", "experiments"),
    Probe("hrlmc.analysis", "estimate_constants", "analysis.constants", _constants_pairs),
    Probe("hrlmc.analysis", "bound_report", "analysis.bound"),
    Probe("hrlmc.metrics", "w2phi", "metrics"),
    Probe("hrlmc.metrics", "_w2_assignment", "metrics.assignment", _first_rows),
    Probe("hrlmc.metrics", "_w2_exact_1d", "metrics.exact1d", _first_rows),
    Probe("hrlmc.sampler", "run_parallel_chains", "sampler", _sampler_counts),
    Probe("hrlmc.target", "parse_target", "target.parse"),
    Probe("hrlmc.target", "Target.grad", "target.grad"),
    Probe("hrlmc.target", "Target.sample_exact", "target.exact", _exact_points),
    Probe("hrlmc.entropy", "parse_entropy", "entropy.parse"),
    Probe("hrlmc.entropy", "Entropy.grad", "entropy.map", _points),
    Probe("hrlmc.entropy", "Entropy.hessian_sqrt_diag", "entropy.map", _points),
    Probe("hrlmc.entropy", "*._grad_unchecked", "entropy.map", _points, base="Entropy"),
    Probe("hrlmc.entropy", "*._hessian_sqrt_diag_unchecked", "entropy.map", _points,
          base="Entropy"),
    Probe("hrlmc.entropy", "*.contains", "entropy.domain", base="Entropy"),
    Probe("hrlmc.entropy", "*.dual_contains", "entropy.domain", base="Entropy"),
    Probe("hrlmc.entropy", "Entropy.grad_conjugate", "entropy.inverse", _points),
    Probe("hrlmc.entropy", "*._grad_conjugate_unchecked", "entropy.inverse", _points,
          base="Entropy"),
)


class Tracer:
    """In-memory span store; ``trace_id`` tags the spans of one workload call."""

    def __init__(self):
        self.groups: list[str] = []
        self._group_ids: dict[str, int] = {}
        self.group = array("i")
        self.parent = array("i")
        self.trace = array("i")
        self.start = array("d")
        self.end = array("d")
        self.trace_id = 0
        self.counters: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._depth: dict[int, int] = defaultdict(int)
        self.missing: set[str] = set()

    def group_id(self, name: str) -> int:
        if name not in self._group_ids:
            self._group_ids[name] = len(self.groups)
            self.groups.append(name)
        return self._group_ids[name]

    def wrap(self, fn, group: str, count=None):
        gid = self.group_id(group)
        stack, depth = self._stack, self._depth
        add_group, add_parent = self.group.append, self.parent.append
        add_trace, add_start, add_end = self.trace.append, self.start.append, self.end.append
        ends = self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ends)
            add_group(gid)
            add_parent(stack[-1] if stack else -1)
            add_trace(self.trace_id)
            add_end(0.0)
            stack.append(idx)
            depth[gid] += 1
            add_start(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
                depth[gid] -= 1
            if count is not None and depth[gid] == 0:
                counters = self.counters[self.trace_id]
                for key, value in count(args, kwargs, result).items():
                    counters[f"{group}.{key}"] += value
            return result

        return traced

    def arrays(self, trace_id=None):
        """(group, parent, start, end) of the spans, optionally of one trace."""
        # Copies: an array.array cannot grow while a numpy view exports it.
        group = np.array(self.group, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        if trace_id is None:
            return group, parent, start, end
        keep = np.array(self.trace, dtype=np.int64) == trace_id
        # Spans of one trace are contiguous, so parents shift by its offset.
        offset = int(np.argmax(keep)) if keep.any() else 0
        sub_parent = parent[keep]
        sub_parent = np.where(sub_parent >= 0, sub_parent - offset, -1)
        return group[keep], sub_parent, start[keep], end[keep]

    def totals(self, trace_id):
        group, parent, start, end = self.arrays(trace_id)
        return span_totals(self.groups, group, parent, start, end)

    def save(self, path, **meta):
        """Write every span, with the group names, to an ``.npz`` file."""
        group, parent, start, end = self.arrays()
        np.savez(
            path, groups=np.array(self.groups), group=group, parent=parent,
            trace=np.array(self.trace, dtype=np.int64), start=start, end=end,
            **{k: np.array(v) for k, v in meta.items()},
        )


def span_totals(groups, group, parent, start, end):
    """Per-group ``calls``, ``busy_s`` and ``self_s`` from a span tree.

    ``parent[i]`` is the index of span i's parent, or -1 for a root; parents
    precede their children.
    """
    group = np.asarray(group, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    n = dur.size
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child_time[:n]

    # A span is outermost when no ancestor shares its group; walk all
    # ancestors at once, one level per pass.
    nested = np.zeros(n, dtype=bool)
    ancestor = parent.copy()
    while np.any(ancestor >= 0):
        live = ancestor >= 0
        nested[live] |= group[ancestor[live]] == group[live]
        ancestor[live] = parent[ancestor[live]]
    outer = ~nested

    totals = {}
    for gid, name in enumerate(groups):
        mine = group == gid
        totals[name] = {
            "calls": int(np.sum(mine & outer)),
            "busy_s": float(np.sum(dur[mine & outer])),
            "self_s": float(np.sum(self_time[mine])),
        }
    return totals


def _targets(probe):
    """(owner, attribute, original) for every attribute a probe patches;
    empty when the probed callable does not exist in this version."""
    module = importlib.import_module(probe.module)
    owner_name, _, attr = probe.qualname.rpartition(".")
    if owner_name == "*":
        base = getattr(module, probe.base)
        return [
            (cls, attr, vars(cls)[attr]) for cls in vars(module).values()
            if inspect.isclass(cls) and issubclass(cls, base) and attr in vars(cls)
        ]
    if owner_name:
        cls = getattr(module, owner_name, None)
        return [(cls, attr, vars(cls)[attr])] if cls and attr in vars(cls) else []
    original = getattr(module, attr, None)
    if original is None:
        return []
    # Modules that imported the function hold their own reference to it.
    holders = [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "hrlmc" or name.startswith("hrlmc."))
    ]
    return [
        (mod, name, original)
        for mod in holders
        for name, value in list(vars(mod).items())
        if value is original
    ]


@contextmanager
def installed(tracer: Tracer, probes=PROBES):
    """Patch ``probes`` to record into ``tracer``; restore them on exit.

    Probes whose callable is missing are listed in ``tracer.missing``.
    """
    patches = []
    try:
        for probe in probes:
            targets = _targets(probe)
            if not targets:
                tracer.missing.add(f"{probe.module}.{probe.qualname}")
                continue
            hook = probe.count(importlib.import_module(probe.module)) if probe.count else None
            for owner, attr, original in targets:
                patches.append((owner, attr, original))
                setattr(owner, attr, tracer.wrap(original, probe.group, hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        leftover = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in patches
            if vars(owner)[attr] is not original
        ]
        if leftover:
            raise RuntimeError(f"tracer left patched attributes: {leftover}")


# Per-layer metrics of the traced run: (name, unit, better, what it moves).
LAYER_METRICS = (
    ("metrics.assignment_calls", "count", "lower", "wall_s on sweep"),
    ("metrics.assignment_points", "count", "lower", "wall_s on sweep"),
    ("metrics.assignment_busy_s", "s", "lower", "wall_s on sweep"),
    ("metrics.exact1d_calls", "count", "lower", "wall_s on converge"),
    ("metrics.exact1d_busy_s", "s", "lower", "wall_s on converge"),
    ("sampler.calls", "count", "lower", "wall_s on sample and sweep"),
    ("sampler.chain_steps", "count", "higher", "wall_s on sample and sweep"),
    ("sampler.busy_s", "s", "lower", "wall_s on sample and sweep"),
    ("sampler.self_s", "s", "lower",
     "wall_s on sample and sweep; wall_s and peak_rss_mb on converge"),
    ("sampler.chain_steps_per_s", "1/s", "higher", "wall_s on sample and sweep"),
    ("sampler.rejections", "count", "lower", "wall_s on sweep"),
    ("sampler.rejections_per_chain_step", "ratio", "lower", "wall_s on sweep"),
    ("sampler.accept_ratio", "ratio", "higher", "wall_s on sweep"),
    ("entropy.map_calls", "count", "lower", "wall_s on sweep and sample"),
    ("entropy.map_points", "count", "lower", "wall_s on sweep and sample"),
    ("entropy.map_busy_s", "s", "lower", "wall_s on sweep and sample"),
    ("entropy.domain_calls", "count", "lower", "wall_s on sweep and sample"),
    ("entropy.domain_busy_s", "s", "lower", "wall_s on sweep and sample"),
    ("entropy.inverse_calls", "count", "lower", "wall_s on mixed"),
    ("entropy.inverse_points", "count", "lower", "wall_s on mixed"),
    ("entropy.inverse_busy_s", "s", "lower", "wall_s on mixed"),
    ("target.grad_calls", "count", "lower", "wall_s on sample"),
    ("target.grad_busy_s", "s", "lower", "wall_s on sample"),
    ("target.exact_calls", "count", "lower", "wall_s on converge and sweep"),
    ("target.exact_points", "count", "lower", "wall_s on converge and sweep"),
    ("target.exact_busy_s", "s", "lower", "wall_s on converge and sweep"),
    ("analysis.constants_busy_s", "s", "lower", "wall_s on converge"),
    ("analysis.constants_pairs", "count", "lower", "wall_s on converge"),
    ("experiments.self_s", "s", "lower", "wall_s on converge"),
    ("cli.self_s", "s", "lower", "wall_s and peak_rss_mb on sample"),
    ("cli.output_rows", "count", "lower", "wall_s and peak_rss_mb on sample"),
    ("cli.output_bytes", "B", "lower", "wall_s and peak_rss_mb on sample"),
    ("trace.spans", "count", "lower", "tracing overhead on every workload"),
    ("trace.traced_wall_s", "s", "lower", "tracing overhead on every workload"),
    ("trace.overhead_s", "s", "lower", "nothing: traced minus untraced wall_s"),
)


def layer_metrics(totals, counters, n_spans, output_rows=0, output_bytes=0):
    """The per-layer metrics of one traced call (all but ``trace.*`` timings)."""

    def total(group, key):
        return totals.get(group, {}).get(key, 0)

    steps = counters.get("sampler.chain_steps", 0)
    rejections = counters.get("sampler.rejections", 0)
    busy = total("sampler", "busy_s")
    return {
        "metrics.assignment_calls": total("metrics.assignment", "calls"),
        "metrics.assignment_points": counters.get("metrics.assignment.points", 0),
        "metrics.assignment_busy_s": total("metrics.assignment", "busy_s"),
        "metrics.exact1d_calls": total("metrics.exact1d", "calls"),
        "metrics.exact1d_busy_s": total("metrics.exact1d", "busy_s"),
        "sampler.calls": total("sampler", "calls"),
        "sampler.chain_steps": steps,
        "sampler.busy_s": busy,
        "sampler.self_s": total("sampler", "self_s"),
        "sampler.chain_steps_per_s": steps / busy if busy > 0 else 0.0,
        "sampler.rejections": rejections,
        "sampler.rejections_per_chain_step": rejections / steps if steps else 0.0,
        "sampler.accept_ratio": steps / (steps + rejections) if steps else 0.0,
        "entropy.map_calls": total("entropy.map", "calls"),
        "entropy.map_points": counters.get("entropy.map.points", 0),
        "entropy.map_busy_s": total("entropy.map", "busy_s"),
        "entropy.domain_calls": total("entropy.domain", "calls"),
        "entropy.domain_busy_s": total("entropy.domain", "busy_s"),
        "entropy.inverse_calls": total("entropy.inverse", "calls"),
        "entropy.inverse_points": counters.get("entropy.inverse.points", 0),
        "entropy.inverse_busy_s": total("entropy.inverse", "busy_s"),
        "target.grad_calls": total("target.grad", "calls"),
        "target.grad_busy_s": total("target.grad", "busy_s"),
        "target.exact_calls": total("target.exact", "calls"),
        "target.exact_points": counters.get("target.exact.points", 0),
        "target.exact_busy_s": total("target.exact", "busy_s"),
        "analysis.constants_busy_s": total("analysis.constants", "busy_s"),
        "analysis.constants_pairs": counters.get("analysis.constants.pairs", 0),
        "experiments.self_s": total("experiments", "self_s"),
        "cli.self_s": total("cli", "self_s"),
        "cli.output_rows": output_rows,
        "cli.output_bytes": output_bytes,
        "trace.spans": n_spans,
    }
