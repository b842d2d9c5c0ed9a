"""Outside-in span tracing of the library's layers.

The tracer wraps public functions the engine resolves at call time, either
globals of the `thinkprune.engine` module or methods of the classes it
uses, and records one span (name, start, end, parent) per call. Nothing in
the library changes; the wrappers are installed for a traced round and
removed after it. A target that does not exist is reported as unplaced.

Self time of a span is its duration minus the durations of its direct
children. Spans run on one thread and nest strictly, so the self times of
all spans sum to the durations of the root spans.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from thinkprune import engine

RUN = "engine.run"
PROBE_CYCLE = "engine.probe_cycle"
REQUERY = "engine.requery_logits"
FORWARD_KINDS = ("model.prefill_forward", "model.decode_forward",
                 "model.probe_forward", "model.requery_forward")


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.prompt_len = 0
        self.unplaced: list[str] = []

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, fn, name):
        """Span every call of fn. name is a span name, or a function of the
        call's (args, kwargs) giving one, or None to pass the call through."""
        spans, stack = self.spans, self._stack
        name_of = name if callable(name) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name_of(args, kwargs) if name_of is not None else name
            if span_name is None:
                return fn(*args, **kwargs)
            entry = [span_name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(entry)
            entry[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                entry[2] = perf_counter()
                stack.pop()

        return wrapper

    # --- naming rules ---------------------------------------------------

    def _forward_name(self, args, kwargs):
        parent = self.parent_name()
        if parent == PROBE_CYCLE:
            return "model.probe_forward"
        if parent == REQUERY:
            return "model.requery_forward"
        position = kwargs.get("position", args[3] if len(args) > 3 else None)
        if position is not None and position < self.prompt_len:
            return "model.prefill_forward"
        return "model.decode_forward"

    def _snapshot_name(self, args, kwargs):
        # only the engine loop's own occupancy snapshots; the same methods
        # called inside probe_cycle or enforce_budget stay in their caller
        return "cache.snapshot" if self.parent_name() == RUN else None

    def _enforce_budget(self, fn):
        """Span enforce_budget and, separately, the victim selector passed to it."""
        spanned = self.wrap(fn, "cache.enforce_budget")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            args = list(args)
            if len(args) > 2 and callable(args[2]):
                args[2] = self.wrap(args[2], "policy.victim_select")
            elif callable(kwargs.get("select_victims")):
                kwargs["select_victims"] = self.wrap(kwargs["select_victims"],
                                                     "policy.victim_select")
            return spanned(*args, **kwargs)

        return wrapper

    def targets(self):
        """(owner, attribute, wrapper factory) for every hook the tracer places.

        The owner is the engine module itself or the name of a class the
        engine module imports."""
        def fixed(name):
            return lambda fn: self.wrap(fn, name)

        snapshot = lambda fn: self.wrap(fn, self._snapshot_name)  # noqa: E731
        return [
            ("engine", "probe_cycle", fixed(PROBE_CYCLE)),
            ("engine", "requery_logits", fixed(REQUERY)),
            ("engine", "enforce_budget", self._enforce_budget),
            ("engine", "extract_token_scores", fixed("scoring.extract")),
            ("engine", "aggregate_step_scores", fixed("scoring.aggregate")),
            ("engine", "segment", fixed("trace.segment")),
            ("engine", "allocate", fixed("policy.allocate")),
            ("engine", "plan_from_allocation", fixed("policy.plan")),
            ("engine", "plan_random", fixed("policy.plan")),
            ("engine", "plan_h2o", fixed("policy.plan")),
            ("engine", "h2o_scores", fixed("policy.plan")),
            ("engine", "plan_oldest", fixed("policy.plan")),
            ("TinyDecoder", "forward_step", lambda fn: self.wrap(fn, self._forward_name)),
            ("KvCacheState", "live_arrays", fixed("cache.gather")),
            ("KvCacheState", "append", fixed("cache.append")),
            ("KvCacheState", "apply_plan", fixed("cache.apply_plan")),
            ("KvCacheState", "remove_suffix", fixed("cache.remove_suffix")),
            ("KvCacheState", "stats", snapshot),
            ("KvCacheState", "live_sets", snapshot),
            ("KvCacheState", "live_nonprompt_count", snapshot),
            ("H2OAccumulator", "update", fixed("policy.h2o_update")),
        ]

    @contextmanager
    def installed(self):
        """Place every wrapper; restore the originals on exit."""
        placed = []
        self.unplaced = []
        for owner_name, attr, factory in self.targets():
            owner = engine if owner_name == "engine" else getattr(engine, owner_name, None)
            if isinstance(owner, type):
                # read the class __dict__ so a method stays a plain function
                original = owner.__dict__.get(attr)
            else:
                original = getattr(owner, attr, None)
            if not callable(original):
                self.unplaced.append(f"{owner_name}.{attr}")
                continue
            setattr(owner, attr, factory(original))
            placed.append((owner, attr, original))
        try:
            yield
        finally:
            for owner, attr, original in reversed(placed):
                setattr(owner, attr, original)

    # --- analysis ---------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        names = sorted({s[0] for s in self.spans})
        code = {name: i for i, name in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        doc = {
            "names": names,
            "columns": ["name", "start_us", "end_us", "parent"],
            "spans": [[code[n], round((s - origin) * 1e6, 1), round((e - origin) * 1e6, 1), p]
                      for n, s, e, p in self.spans],
            "unplaced": self.unplaced,
        }
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


# name, unit, span, statistic, denominator; see README.md for what each should move
PER_LAYER = (
    ("engine.loop_self_ms", "ms/token", RUN, "self_s", "tokens"),
    ("engine.probe_cycle_ms", "ms/round", PROBE_CYCLE, "total_s", "rounds"),
    ("engine.probe_cycle_self_ms", "ms/round", PROBE_CYCLE, "self_s", "rounds"),
    ("engine.requery_ms", "ms/round", REQUERY, "total_s", "rounds"),
    ("model.decode_forward_self_ms", "ms/token", "model.decode_forward", "self_s", "tokens"),
    ("model.probe_forward_ms", "ms/round", "model.probe_forward", "total_s", "rounds"),
    ("model.prefill_ms", "ms/cell", "model.prefill_forward", "total_s", "cells"),
    ("model.forward_calls", "count", FORWARD_KINDS, "calls", "cell_rounds"),
    ("cache.gather_ms", "ms/token", "cache.gather", "total_s", "tokens"),
    ("cache.gather_calls", "count", "cache.gather", "calls", "cell_rounds"),
    ("cache.append_ms", "ms/token", "cache.append", "total_s", "tokens"),
    ("cache.apply_plan_ms", "ms/call", "cache.apply_plan", "total_s", "calls"),
    ("cache.remove_suffix_ms", "ms/round", "cache.remove_suffix", "total_s", "rounds"),
    ("cache.enforce_budget_self_ms", "ms/token", "cache.enforce_budget", "self_s", "tokens"),
    ("cache.snapshot_ms", "ms/token", "cache.snapshot", "total_s", "tokens"),
    ("scoring.extract_ms", "ms/round", "scoring.extract", "total_s", "rounds"),
    ("scoring.aggregate_ms", "ms/round", "scoring.aggregate", "total_s", "rounds"),
    ("trace.segment_ms", "ms/round", "trace.segment", "total_s", "rounds"),
    ("policy.allocate_ms", "ms/round", "policy.allocate", "total_s", "rounds"),
    ("policy.plan_ms", "ms/round", "policy.plan", "total_s", "rounds"),
    ("policy.victim_select_ms", "ms/token", "policy.victim_select", "total_s", "tokens"),
    ("policy.victim_select_calls", "count", "policy.victim_select", "calls", "cell_rounds"),
    ("policy.h2o_update_ms", "ms/token", "policy.h2o_update", "total_s", "tokens"),
    ("policy.h2o_update_calls", "count", "policy.h2o_update", "calls", "cell_rounds"),
)


def per_layer_metrics(totals: dict, tokens: int, cells: int, workload_rounds: int) -> dict:
    """Per-layer figures: times per generated token, probe round, call or cell;
    counts per workload round."""
    rounds = totals.get(PROBE_CYCLE, {}).get("calls", 0)
    metrics = {}
    for name, unit, spans, stat, per in PER_LAYER:
        names = spans if isinstance(spans, tuple) else (spans,)
        value = sum(totals.get(n, {}).get(stat, 0.0) for n in names)
        calls = sum(totals.get(n, {}).get("calls", 0) for n in names)
        denominator = {"tokens": tokens, "rounds": rounds, "cells": cells,
                       "calls": calls, "cell_rounds": workload_rounds}[per]
        if stat != "calls":
            value *= 1e3
        metrics[name] = {"value": value / denominator if denominator else 0.0, "unit": unit}
    return metrics
