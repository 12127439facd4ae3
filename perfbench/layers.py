"""Per-layer timing from outside the engine.

`traced()` rebinds each layer's public functions and methods to timing
wrappers for the length of a `with` block and puts every binding back when
the block ends.  A function is rebound under every name any `dynacut` module
holds it by, because callers import with `from .x import f`: wrapping only
`cutprimitives.enumerate_simple_cuts` would miss the calls `repair` makes
through its own binding.

Each wrapper records a span: wall time, self time (the span minus the time
of wrapped calls made inside it) and a call count.  A function that re-enters
itself through a wrapped binding adds its time once, at the outermost call.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

# span name -> (module, attribute path) of the definition.  A dotted path
# names a method on a class of that module.
SPANS: Dict[str, Tuple[str, str]] = {
    "connectivity.engine_update": ("connectivity", "engine_update"),
    "connectivity.engine_query": ("connectivity", "engine_query"),
    "connectivity.final_answer": ("connectivity", "offline_oracle"),
    "multigraph.reduce_update": ("multigraph", "ReductionImage.reduce_update"),
    "multigraph.add_original_vertex":
        ("multigraph", "ReductionImage.add_original_vertex"),
    "onlinebatch.step": ("onlinebatch", "Scheduler.step"),
    "onlinebatch.initialize": ("connectivity", "StackDS.initialize"),
    "onlinebatch.clone": ("connectivity", "StackDS.clone"),
    "multilevel.preprocess": ("multilevel", "preprocess_multi_level"),
    "multilevel.clone": ("multilevel", "MultiLevelDS.clone"),
    "cutpartition.preprocess": ("cutpartition", "cut_partition_preprocess"),
    "cutpartition.build_sparsifier": ("cutpartition", "build_sparsifier"),
    "cutpartition.update": ("cutpartition", "cut_partition_update"),
    "cutpartition.update_partition": ("cutpartition", "update_partition"),
    "expander.decomposition": ("expander", "expander_decomposition"),
    "expander.decremental": ("expander", "decremental_single_expander"),
    "repair.repair_set": ("repair", "repair_set"),
    "repair.type_one": ("repair", "type_one_repair_set"),
    "repair.type_two": ("repair", "type_two_repair_set"),
    "repair.type_three": ("repair", "type_three_repair_set"),
    "repair.bipartition_system": ("repair", "bipartition_system"),
    "cutprimitives.enumerate_simple_cuts":
        ("cutprimitives", "enumerate_simple_cuts"),
    "cutprimitives.enumerate_cuts": ("cutprimitives", "enumerate_cuts"),
    "dynforest.graphds_build": ("dynforest", "GraphDS.__init__"),
    "dynforest.graphds_clone": ("dynforest", "GraphDS.clone"),
    "dynforest.ds_update": ("dynforest", "GraphDS.ds_update"),
}


def _count_image_ops(tr: "Trace", args, kwargs, out) -> None:
    tr.counts["image_ops"] += len(out)


def _count_repair(tr: "Trace", args, kwargs, out) -> None:
    s = args[3] if len(args) > 3 else kwargs["s"]
    tr.counts["repair_s"] += len(set(s))
    tr.counts["repair_w"] += len(out)


def _count_sides(tr: "Trace", args, kwargs, out) -> None:
    tr.counts["sides"] += len(out)


# Counters read off a wrapped call's arguments and result.
_AFTER: Dict[str, Callable[["Trace", tuple, dict, object], None]] = {
    "multigraph.reduce_update": _count_image_ops,
    "multigraph.add_original_vertex": _count_image_ops,
    "repair.repair_set": _count_repair,
    "cutprimitives.enumerate_simple_cuts": _count_sides,
}


class Trace:
    """Span totals of one traced run, in seconds."""

    def __init__(self) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._children: List[float] = []   # child time of each open span
        self._open: Counter = Counter()    # open spans per name

    def wrap(self, name: str, fn: Callable) -> Callable:
        after = _AFTER.get(name)
        children = self._children
        open_ = self._open

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children.append(0.0)
            open_[name] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                open_[name] -= 1
                self.self_time[name] += dt - children.pop()
                self.calls[name] += 1
                if not open_[name]:
                    self.total[name] += dt
                if children:
                    children[-1] += dt
            if after is not None:
                after(self, args, kwargs, out)
            return out

        return span


Binding = Tuple[object, str, object]    # (owner, attribute, original)


def _bindings(module: str, path: str) -> List[Binding]:
    """Every place the engine looks the target up at call time."""
    owner = sys.modules[f"dynacut.{module}"]
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    fn = owner.__dict__[attr]
    if classes:
        return [(owner, attr, fn)]
    return [(mod, key, fn)
            for name, mod in sorted(sys.modules.items())
            if name == "dynacut" or name.startswith("dynacut.")
            for key, value in sorted(vars(mod).items()) if value is fn]


@contextmanager
def traced() -> Iterator[Trace]:
    """Time every span in SPANS while the block runs."""
    import dynacut.connectivity  # noqa: F401  (loads every traced module)
    trace = Trace()
    done: List[Binding] = []
    try:
        for name, (module, path) in SPANS.items():
            for owner, attr, fn in _bindings(module, path):
                setattr(owner, attr, trace.wrap(name, fn))
                done.append((owner, attr, fn))
        yield trace
    finally:
        for owner, attr, fn in reversed(done):
            setattr(owner, attr, fn)


# Per-layer metric -> unit.  `.ms` is a span's total over the replay,
# `.self_ms` its self time, `.calls` its call count.
PER_LAYER: Dict[str, str] = {
    "connectivity.engine_update.ms": "ms",
    "connectivity.engine_query.ms": "ms",
    "connectivity.final_answer.ms": "ms",
    "connectivity.h_vertices.mean": "count",
    "connectivity.h_edges.mean": "count",
    "multigraph.reduce_update.ms": "ms",
    "multigraph.image_ops_per_update": "ops/update",
    "onlinebatch.step.self_ms": "ms",
    "onlinebatch.steps_charged_per_update": "steps/update",
    "onlinebatch.rebuilds_per_update": "1/update",
    "onlinebatch.clones_per_update": "1/update",
    "multilevel.preprocess.ms": "ms",
    "multilevel.preprocess.calls": "count",
    "multilevel.clone.ms": "ms",
    "multilevel.levels": "count",
    "cutpartition.preprocess.self_ms": "ms",
    "cutpartition.build_sparsifier.ms": "ms",
    "cutpartition.update.ms": "ms",
    "cutpartition.update_partition.self_ms": "ms",
    "expander.decomposition.ms": "ms",
    "expander.decomposition.calls": "count",
    "expander.decremental.ms": "ms",
    "repair.repair_set.ms": "ms",
    "repair.repair_set.calls": "count",
    "repair.type_one.self_ms": "ms",
    "repair.type_two.self_ms": "ms",
    "repair.type_three.self_ms": "ms",
    "repair.bipartition_system.self_ms": "ms",
    "repair.w_per_terminal": "ratio",
    "cutprimitives.enumerate_simple_cuts.self_ms": "ms",
    "cutprimitives.enumerate_simple_cuts.calls": "count",
    "cutprimitives.sides_per_call": "ratio",
    "cutprimitives.enumerate_cuts.self_ms": "ms",
    "dynforest.graphds_build.ms": "ms",
    "dynforest.graphds_build.calls": "count",
    "dynforest.graphds_clone.ms": "ms",
    "dynforest.graphds_clone.calls": "count",
    "dynforest.ds_update.ms": "ms",
    "dynforest.ds_update.calls": "count",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Trace, updates: int, query_stats: Sequence[dict],
                  steps_charged: int) -> Dict[str, float]:
    """Every PER_LAYER value for a replay of `updates` engine updates whose
    queries appended `query_stats` to `Engine.query_stats`."""
    out: Dict[str, float] = {}
    for name in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if kind == "ms":
            out[name] = tr.total[span] * 1e3
        elif kind == "self_ms":
            out[name] = tr.self_time[span] * 1e3
        elif kind == "calls":
            out[name] = tr.calls[span]
    n_q = len(query_stats)
    out.update({
        "connectivity.h_vertices.mean":
            _ratio(sum(s["h_vertices"] for s in query_stats), n_q),
        "connectivity.h_edges.mean":
            _ratio(sum(s["h_edges"] for s in query_stats), n_q),
        "multigraph.image_ops_per_update":
            _ratio(tr.counts["image_ops"], updates),
        "onlinebatch.steps_charged_per_update":
            _ratio(steps_charged, updates),
        # StackDS.batch_update rebuilds through StackDS.initialize, so the
        # initialize calls count every rebuild once.
        "onlinebatch.rebuilds_per_update":
            _ratio(tr.calls["onlinebatch.initialize"], updates),
        "onlinebatch.clones_per_update":
            _ratio(tr.calls["onlinebatch.clone"], updates),
        "multilevel.levels":
            _ratio(sum(s["levels"] for s in query_stats), n_q),
        "repair.w_per_terminal":
            _ratio(tr.counts["repair_w"], tr.counts["repair_s"]),
        "cutprimitives.sides_per_call":
            _ratio(tr.counts["sides"],
                   tr.calls["cutprimitives.enumerate_simple_cuts"]),
    })
    return out
