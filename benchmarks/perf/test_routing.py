"""Routing perf gate: compiled FIB + route cache vs the uncached walker.

Two tiers of the same ``bench.routing`` reference shape (an HPN pod
driving per-rail ring traffic for many steps, persistent
per-connection five-tuples, a fabric link flapped every few steps):

* **smoke** (always on): a 4-segment pod, ~8k routed requests --
  catches byte-level equivalence drift and gross perf regressions on
  every run;
* **reference** (``REPRO_PERF_FULL=1``): the 15-segment pod the CI
  ``perf-smoke`` job gates on (~38k requests; the paper's "path fully
  determined after the ToR uplink" claim at the scale it was made).

Each tier appends its payload to ``BENCH_routing.json`` in the bench
artifact dir (``REPRO_BENCH_DIR``, default ``benchmarks/.artifacts``).
Both tiers also assert:

* cached == uncached outcomes byte for byte over every step, plus a
  seeded 50-case randomized failure/repair campaign across the HPN,
  DCN+ and rail-only fabrics (``RoutingEquivalence``);
* a link flap invalidates only the routes depending on the flapped
  link -- the invalidation count stays a small fraction of the entries
  the cache is holding.
"""

from __future__ import annotations

import os

import pytest
from conftest import record, report

from repro.routing.routebench import run_routing_bench

#: the CI gate -- cached/batched routing must beat the uncached
#: hop-by-hop walker by at least this factor
MIN_SPEEDUP = 3.0

SMOKE_PARAMS = {
    "segments": 4, "hosts_per_segment": 8, "aggs_per_plane": 4,
    "conns": 2, "steps": 16, "flap_every": 4, "campaign_cases": 50,
}
REFERENCE_PARAMS = {
    "segments": 15, "hosts_per_segment": 8, "aggs_per_plane": 8,
    "conns": 2, "steps": 20, "flap_every": 5, "campaign_cases": 50,
}


def _check(tier: str, payload, min_flows: int) -> None:
    cache = payload["cache"]
    report(
        f"bench.routing [{tier}]",
        [
            f"requests         {payload['flows']}"
            f" ({payload['requests_per_step']}/step x {payload['steps']})",
            f"uncached walker  {payload['uncached_wall_s'] * 1e3:9.1f} ms",
            f"cached batched   {payload['cached_wall_s'] * 1e3:9.1f} ms",
            f"speedup          {payload['speedup']:9.2f}x (gate >= {MIN_SPEEDUP}x)",
            f"cache hit rate   {cache['hit_rate']:9.1%}"
            f" ({cache['hits']} hits / {cache['misses']} misses)",
            f"invalidations    {cache['invalidations']:9d}"
            f" (fib compiles {cache['fib_compiles']})",
            f"campaign         {payload['campaign']['checked']} queries,"
            f" {payload['campaign']['mismatch_count']} mismatches",
            f"recorded in      {record('BENCH_routing.json', tier, payload)}",
        ],
    )
    assert payload["flows"] >= min_flows
    eq = payload["equivalence"]
    assert eq["ok"], (
        f"cached/uncached divergence over {eq['checked']} requests: "
        f"{eq['mismatches']} mismatches, first: {eq['first_mismatch']}"
    )
    campaign = payload["campaign"]
    assert campaign["ok"], campaign["mismatches"]
    assert campaign["checked"] >= campaign["cases"], campaign
    # precise invalidation: link flaps must dirty a small slice of the
    # cache, not flush it (the BGP /32 withdrawal-scope property)
    assert 0 < cache["invalidations"] < payload["flows"] * 0.05, cache
    assert payload["speedup"] >= MIN_SPEEDUP, (
        f"cached routing only {payload['speedup']:.2f}x over the "
        f"uncached walker (gate: {MIN_SPEEDUP}x)"
    )


def test_routing_smoke():
    _check("smoke", run_routing_bench(dict(SMOKE_PARAMS), seed=7),
           min_flows=5000)


@pytest.mark.skipif(
    os.environ.get("REPRO_PERF_FULL", "0") != "1",
    reason="reference tier is the 15-segment pod; set REPRO_PERF_FULL=1 "
    "(CI perf-smoke runs it via `repro exp run bench.routing`)",
)
def test_routing_reference():
    _check(
        "reference", run_routing_bench(dict(REFERENCE_PARAMS), seed=7),
        min_flows=30000,
    )
