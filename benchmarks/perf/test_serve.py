"""Serve perf gate: batched dispatch vs serial single-query evaluation.

Two tiers of the same ``bench.serve`` reference shape (a mixed
path / planes / RePaC / residual-what-if workload replayed three ways
over one HPN pod: uncached oracle serial, warm cached serial, and
micro-batched through ``ServeState.execute_batch``):

* **smoke** (always on): a 4-segment pod, 8k requests -- catches
  byte-identity drift and gross perf regressions on every run;
* **reference** (``REPRO_PERF_FULL=1``): the 15-segment pod the CI
  ``serve-smoke`` job gates on (24k requests, the ISSUE acceptance
  shape: batched >= 3x over serial at >= 90% route-cache hits).

Each tier appends its payload to ``BENCH_serve.json`` in the bench
artifact dir (``REPRO_BENCH_DIR``, default ``benchmarks/.artifacts``).
Both tiers assert the three result streams are byte-identical and that
the speedup / hit-rate gates hold.
"""

from __future__ import annotations

import os

import pytest
from conftest import record, report

from repro.serve.bench import run_serve_bench

#: the CI gate -- batched dispatch must beat serial single-query
#: evaluation by at least this factor ...
MIN_SPEEDUP = 3.0
#: ... while the shared route cache serves at least this hit rate
MIN_HIT_RATE = 0.90

SMOKE_PARAMS = {
    "segments": 4, "hosts_per_segment": 8, "aggs_per_plane": 4,
    "requests": 8000, "pairs": 60, "conns": 2,
    "planes_frac": 0.05, "repac_frac": 0.02, "whatif_frac": 0.01,
    "repac_pairs": 3, "repac_num_paths": 3, "repac_span": 48,
    "whatif_pairs": 2, "batch_size": 64,
}
REFERENCE_PARAMS = {
    "segments": 15, "hosts_per_segment": 8, "aggs_per_plane": 8,
    "requests": 24000, "pairs": 150, "conns": 2,
    "planes_frac": 0.05, "repac_frac": 0.02, "whatif_frac": 0.01,
    "repac_pairs": 3, "repac_num_paths": 3, "repac_span": 48,
    "whatif_pairs": 2, "batch_size": 64,
}


def _check(tier: str, payload) -> None:
    cache = payload["cache"]
    kinds = " ".join(
        f"{k}={v}" for k, v in sorted(payload["kinds"].items())
    )
    report(
        f"bench.serve [{tier}]",
        [
            f"requests         {payload['requests']}"
            f" ({payload['distinct']} distinct; {kinds})",
            f"oracle serial    {payload['serial_wall_s'] * 1e3:9.1f} ms",
            f"warm serial      {payload['warm_serial_wall_s'] * 1e3:9.1f} ms",
            f"batched          {payload['batched_wall_s'] * 1e3:9.1f} ms"
            f" ({payload['batches']} batches of <= {payload['batch_size']},"
            f" {payload['deduped_in_batch']} deduped)",
            f"speedup          {payload['speedup']:9.2f}x"
            f" (gate >= {MIN_SPEEDUP}x; vs warm serial"
            f" {payload['warm_serial_speedup']:.2f}x)",
            f"throughput       {payload['qps']:9.0f} queries/s batched",
            f"cache hit rate   {cache['hit_rate']:9.1%}"
            f" ({cache['hits']} hits / {cache['misses']} misses,"
            f" gate >= {MIN_HIT_RATE:.0%})",
            f"recorded in      {record('BENCH_serve.json', tier, payload)}",
        ],
    )
    eq = payload["equivalence"]
    assert eq["ok"], (
        f"batched results diverge: first mismatch vs serial "
        f"{eq['first_mismatch_vs_serial']}, vs oracle "
        f"{eq['first_mismatch_vs_oracle']}"
    )
    assert cache["hit_rate"] >= MIN_HIT_RATE, (
        f"route cache hit rate {cache['hit_rate']:.4f} under the "
        f"{MIN_HIT_RATE:.0%} gate"
    )
    assert payload["speedup"] >= MIN_SPEEDUP, (
        f"batched dispatch only {payload['speedup']:.2f}x over serial "
        f"single-query evaluation (gate: {MIN_SPEEDUP}x)"
    )


def test_serve_smoke():
    _check("smoke", run_serve_bench(dict(SMOKE_PARAMS), seed=7))


@pytest.mark.skipif(
    os.environ.get("REPRO_PERF_FULL", "0") != "1",
    reason="reference tier is the 15-segment pod; set REPRO_PERF_FULL=1 "
    "(CI serve-smoke runs it via `repro exp run bench.serve`)",
)
def test_serve_reference():
    _check("reference", run_serve_bench(dict(REFERENCE_PARAMS), seed=7))
