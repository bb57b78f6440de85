"""Spans around the public entry points of each repro layer.

The wrappers live in the benchmark, not in the program: ``install()``
replaces module and class attributes with timing wrappers and
``uninstall()`` puts the originals back, so a process can alternate
traced and untraced operations. Spans are kept in memory as tuples
``(span_id, parent_id, name, start, end, tag)`` and written out by
``dump()``; the parent is the span that was open when the call began
(a ``contextvars`` variable, so asyncio tasks and the callbacks they
schedule inherit it).

Times come from ``time.monotonic`` (CLOCK_MONOTONIC on Linux), so
spans written by the serve daemon can be placed in the load
generator's timed window.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import time
from typing import Any, Callable, Dict, Iterable, List, Tuple

clock = time.monotonic

#: tag of spans recorded during set-up (ops use their index, from 0)
SETUP = -1

#: (module, class or None for a module function, attribute, span name)
TARGETS: Tuple[Tuple[str, Any, str, str], ...] = (
    ("repro.cluster", None, "build_hpn", "topos.build_hpn"),
    ("repro.collective.comm", "Communicator", "edge_flows",
     "collective.edge_flows"),
    ("repro.collective.comm", "Communicator", "ring_flows",
     "collective.ring_flows"),
    ("repro.collective.comm", "Communicator", "all_rails_ring_flows",
     "collective.all_rails_ring_flows"),
    ("repro.routing.cache", "CachedRouter", "path_for", "routing.path_for"),
    ("repro.routing.cache", "CachedRouter", "route_many",
     "routing.route_many"),
    ("repro.routing.cache", "CachedRouter", "usable_planes",
     "routing.usable_planes"),
    ("repro.fabric.simulator", "FluidSimulator", "run", "fabric.run"),
    ("repro.fabric.solver", "IncrementalMaxMinSolver", "solve",
     "fabric.solve"),
    ("repro.fabric.incidence", "IncidenceIndex", "refresh_capacities",
     "fabric.refresh_capacities"),
    ("repro.fabric.incidence", "IncidenceIndex", "component",
     "fabric.component"),
    ("repro.serve.batching", "MicroBatcher", "submit", "serve.submit"),
    ("repro.serve.state", "ServeState", "execute_batch",
     "serve.execute_batch"),
)

_current: "contextvars.ContextVar[int]" = contextvars.ContextVar(
    "perfbench_span", default=0
)


class Tracer:
    """In-memory span store plus the instances the wrappers saw."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, str, float, float, int]] = []
        self.tag = SETUP
        #: the solver of the latest wrapped solve (its stats per op)
        self.solver: Any = None
        #: every CachedRouter a routing wrapper saw, by id
        self.routers: Dict[int, Any] = {}
        self.capacity_lookups = 0
        self._ids = itertools.count(1)
        self._saved: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable, name: str) -> Callable:
        spans = self.spans
        ids = self._ids
        routing = name.startswith("routing.")
        solve = name == "fabric.solve"

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def awrapper(*args, **kwargs):
                sid = next(ids)
                parent = _current.get()
                token = _current.set(sid)
                t0 = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    spans.append((sid, parent, name, t0, clock(), self.tag))
                    _current.reset(token)
            return awrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = _current.get()
            token = _current.set(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((sid, parent, name, t0, clock(), self.tag))
                _current.reset(token)
                if routing:
                    self.routers[id(args[0])] = args[0]
                elif solve:
                    self.solver = args[0]
        return wrapper

    def install(self) -> None:
        """Wrap every target; a no-op when already installed."""
        if self._saved:
            return
        for module, cls, attr, name in TARGETS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def count_capacity_lookups(self, on: bool) -> None:
        """Count ``FluidSimulator.link_gbps`` calls (no span per call).

        Kept apart from the span wrappers because the sweep calls it
        millions of times; the benchmark counts it on one untimed op.
        """
        from repro.fabric.simulator import FluidSimulator

        if not on:
            original = getattr(FluidSimulator.link_gbps, "__wrapped__", None)
            if original is not None:
                FluidSimulator.link_gbps = original
            return
        original = FluidSimulator.link_gbps

        @functools.wraps(original)
        def counted(sim, dirlink):
            self.capacity_lookups += 1
            return original(sim, dirlink)

        FluidSimulator.link_gbps = counted

    def router_stats(self) -> Dict[str, int]:
        out = {"hits": 0, "misses": 0, "invalidations": 0, "fib_compiles": 0}
        for router in self.routers.values():
            for key, value in router.stats.as_dict().items():
                out[key] += value
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def load_spans(path: str) -> List[Tuple[int, int, str, float, float, int]]:
    with open(path) as fh:
        return [tuple(s) for s in json.load(fh)["spans"]]


def _covered(start: float, end: float,
             intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def summarize(spans, tags: Iterable[int]) -> Dict[str, Dict[str, float]]:
    """Per span name, over spans tagged ``tags``: seconds and calls.

    ``total`` sums durations; ``self`` subtracts the part of each span
    that its child spans cover; ``outer`` sums only spans not nested in
    a span of the same layer (the name's first dotted part), so nested
    calls within one layer are not counted twice.
    """
    wanted = set(tags)
    names = {s[0]: s[2] for s in spans}
    children: Dict[int, List[Tuple[float, float]]] = {}
    for sid, parent, _name, t0, t1, _tag in spans:
        if parent:
            children.setdefault(parent, []).append((t0, t1))
    out: Dict[str, Dict[str, float]] = {}
    for sid, parent, name, t0, t1, tag in spans:
        if tag not in wanted:
            continue
        row = out.setdefault(
            name, {"total": 0.0, "self": 0.0, "outer": 0.0, "calls": 0}
        )
        dur = t1 - t0
        row["total"] += dur
        row["self"] += dur - _covered(t0, t1, children.get(sid, ()))
        layer = name.split(".", 1)[0]
        if names.get(parent, "").split(".", 1)[0] != layer:
            row["outer"] += dur
        row["calls"] += 1
    return out


def merged_durations(spans, name: str) -> List[float]:
    """Durations of the unions of overlapping ``name`` spans.

    One closed-loop connection sends one request at a time, so the
    submits of one request overlap each other and no other request's.
    """
    out: List[float] = []
    cur_s = cur_e = None
    for t0, t1 in sorted((s[3], s[4]) for s in spans if s[2] == name):
        if cur_e is None or t0 > cur_e:
            if cur_e is not None:
                out.append(cur_e - cur_s)
            cur_s, cur_e = t0, t1
        else:
            cur_e = max(cur_e, t1)
    if cur_e is not None:
        out.append(cur_e - cur_s)
    return out
