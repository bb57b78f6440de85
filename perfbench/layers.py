"""Per-layer metrics of the traced run: names, units, derivation.

Times and counts are per op where the layer runs per op, and set-up
totals where it runs only in set-up (``topos`` and ``collective``
everywhere, ``routing`` on the simulation workloads). A layer that a
workload never calls reports 0.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from common import median, percentile

#: name -> unit, in BENCHMARK.json order
PER_LAYER: Dict[str, str] = {
    "topos.build_s": "s",
    "collective.flowgen_s": "s",
    "collective.flows": "count",
    "routing.route_s": "s",
    "routing.calls": "count",
    "routing.hits": "count",
    "routing.misses": "count",
    "routing.invalidations": "count",
    "routing.hit_rate": "frac",
    "routing.fib_compiles": "count",
    "fabric.run_s": "s",
    "fabric.solve_s": "s",
    "fabric.fill_self_s": "s",
    "fabric.kernel_iters": "count",
    "fabric.full_solves": "count",
    "fabric.incremental_solves": "count",
    "fabric.noop_solves": "count",
    "fabric.mean_dirty_frac": "frac",
    "fabric.resolved_flows": "count",
    "fabric.refresh_s": "s",
    "fabric.capacity_lookups": "count",
    "fabric.component_s": "s",
    "fabric.loop_self_s": "s",
    "serve.submit_ms": "ms",
    "serve.execute_s": "s",
    "serve.http_self_ms": "ms",
    "serve.batches": "count",
    "serve.mean_batch_size": "count",
    "serve.deduped": "count",
    "serve.flushed_deadline": "count",
    "serve.flushed_full": "count",
    "serve.cache_hit_rate": "frac",
    "serve.probe_cache_hit_rate": "frac",
    "throughput_per_s": "1/s",
    "loadgen.busy_frac": "frac",
    "host.ref_ms": "ms",
    "op_wall_p50_ms": "ms",
    "op_p90_ms": "ms",
    "op_p99_ms": "ms",
    "op_samples": "count",
    "trace.overhead_frac": "frac",
}

ROUTING_SPANS = ("routing.path_for", "routing.route_many",
                 "routing.usable_planes")
COLLECTIVE_SPANS = ("collective.edge_flows", "collective.ring_flows",
                    "collective.all_rails_ring_flows")


def span_total(summary, names, key: str = "total") -> float:
    return sum(summary.get(n, {}).get(key, 0.0) for n in names)


def diagnostics(op_ms: List[float], traced_ms: List[float], busy: float,
                wall_ms: List[float], ref_ms: List[float],
                work_per_op: float) -> Dict[str, float]:
    """Rate and tails of the untraced ops, host speed, tracing cost.

    ``op_ms`` are the ops as ``op_p50_ms`` reports them (sims: scaled
    to nominal host speed), ``wall_ms`` the same ops as measured,
    ``ref_ms`` the reference loop's times in the run and
    ``work_per_op`` the flows or queries one op completes.
    """
    return {
        "throughput_per_s": work_per_op * len(op_ms) * 1e3 / sum(op_ms),
        "loadgen.busy_frac": busy,
        "host.ref_ms": median(ref_ms),
        "op_wall_p50_ms": median(wall_ms),
        "op_p90_ms": percentile(op_ms, 90),
        "op_p99_ms": percentile(op_ms, 99),
        "op_samples": len(op_ms),
        "trace.overhead_frac": median(traced_ms) / median(op_ms) - 1.0,
    }


def complete(values: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric with its unit; absent layers read 0."""
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return {
        name: (float(values.get(name, 0.0)), unit)
        for name, unit in PER_LAYER.items()
    }
