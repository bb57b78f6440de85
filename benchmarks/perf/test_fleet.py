"""Fleet perf gate: pod-scale churn must stay within a wall budget.

Two tiers of the same ``bench.fleet`` shape (a multi-segment HPN pod
under Figure-6 arrivals with frontend flow classes and interference
snapshots enabled):

* **smoke** (always on): 60 arrivals, catches gross slowdowns in the
  event loop / placement / snapshot machinery on every run;
* **reference** (``REPRO_PERF_FULL=1``): the >=200-arrival workload
  the CI ``perf-smoke`` job gates on via ``repro exp run bench.fleet``.

Each tier appends its payload to ``BENCH_fleet.json`` in the bench
artifact dir (``REPRO_BENCH_DIR``, default ``benchmarks/.artifacts``).
"""

from __future__ import annotations

import os

import pytest
from conftest import record, report

from repro.fleet import run_fleet_bench

#: wall-clock budgets (seconds) -- the snapshot machinery bounds fluid
#: simulation cost by snapshots x flows, so churn length cannot drag
#: simulation time with it; these budgets enforce that design property
SMOKE_BUDGET_S = 5.0
REFERENCE_BUDGET_S = 20.0

SMOKE_PARAMS = {
    "segments": 2, "hosts_per_segment": 8, "aggs_per_plane": 4,
    "arrivals": 60, "snapshots": 2, "policy": "pack", "frontend": True,
}
REFERENCE_PARAMS = {
    "segments": 6, "hosts_per_segment": 16, "aggs_per_plane": 8,
    "arrivals": 240, "snapshots": 6, "policy": "pack", "frontend": True,
}


def _check(tier: str, params, budget_s: float) -> None:
    payload = run_fleet_bench(dict(params), seed=7)
    report(
        f"bench.fleet [{tier}]",
        [
            f"arrivals         {payload['arrivals']}"
            f" ({payload['admitted']} admitted,"
            f" {payload['rejected']} rejected)",
            f"makespan         {payload['makespan_s']:9.0f} sim-s",
            f"snapshots        {payload['snapshot_count']}"
            f" ({payload['backend_flows']} backend flows,"
            f" {payload['frontend_classes']} frontend classes)",
            f"wall             {payload['wall_s'] * 1e3:9.1f} ms"
            f" (budget {budget_s:.0f} s)",
            f"throughput       {payload['arrivals_per_sec']:9.1f} arrivals/s",
            f"recorded in      {record('BENCH_fleet.json', tier, payload)}",
        ],
    )
    assert payload["arrivals"] == params["arrivals"]
    # every arrival resolves: admitted jobs all complete, the rest are
    # capacity rejections -- nothing may hang in the queue forever
    assert payload["admitted"] + payload["rejected"] == payload["arrivals"]
    assert payload["completed"] == payload["admitted"]
    # frontend classes must actually be concurrent with the churn
    assert payload["frontend_classes"] >= 2 * payload["snapshot_count"]
    assert payload["wall_s"] <= budget_s, (
        f"fleet churn took {payload['wall_s']:.2f}s "
        f"(budget {budget_s:.0f}s): the snapshot-bounded design is "
        "no longer bounding simulation cost"
    )


def test_fleet_smoke():
    _check("smoke", SMOKE_PARAMS, SMOKE_BUDGET_S)


@pytest.mark.skipif(
    os.environ.get("REPRO_PERF_FULL", "0") != "1",
    reason="reference tier is CI's perf-smoke gate; set "
    "REPRO_PERF_FULL=1 (CI runs it via `repro exp run bench.fleet`)",
)
def test_fleet_reference():
    _check("reference", REFERENCE_PARAMS, REFERENCE_BUDGET_S)
