"""Solver-core perf gates: each engine family vs its baseline.

Tiers of the ``bench.simcore`` benchmark:

* **smoke** (always on): the reference shape at ~1k flows,
  sub-second -- catches equivalence drift and gross perf regressions
  on every run;
* **reference** (``REPRO_PERF_FULL=1``): the paper-scale >=20k-flow
  workload the CI ``perf-smoke`` job gates on (incremental >=3x over
  the full-solve baseline; the full baseline alone takes minutes, so
  it is opt-in locally);
* **pod_smoke** / **multipod** (always on): a downscaled Pod
  allreduce window and the 3-Pod §7 PP workload -- the heap fill
  byte-exact against the list-scan reference fill, plus the
  per-component oracle drift check;
* **pod** (``REPRO_PERF_FULL=1``): the full 15,360-GPU Pod window the
  CI ``perf-smoke`` job gates on (heap fill >=3x over the list-scan
  reference, oracle drift <=1e-9).

Each tier appends its payload to ``BENCH_simcore.json`` in the bench
artifact dir (``REPRO_BENCH_DIR``, default ``benchmarks/.artifacts``)
so the trajectory of speedups is recorded alongside the session's
engine manifest and ``BENCH_trajectory.json`` row.
"""

from __future__ import annotations

import os

import pytest
from conftest import record, report

from repro.fabric.simbench import EQUIVALENCE_TOL, run_pod_tier, run_simcore

#: the CI gate -- the incremental engine must beat the pre-existing
#: full-solve path by at least this factor on the reference workload,
#: and the heap fill must beat the list-scan reference fill by the
#: same factor on the pod tier
MIN_SPEEDUP = 3.0

SMOKE_PARAMS = {
    "hosts": 8, "conns": 1, "steps": 16, "step_gap_s": 0.004,
    "edge_mb": 24, "jitter": 0.05, "fail_at_s": 0.02,
    "repair_at_s": 0.05, "repeat": 1,
}
REFERENCE_PARAMS = {
    "hosts": 16, "conns": 2, "steps": 80, "step_gap_s": 0.004,
    "edge_mb": 24, "jitter": 0.05, "fail_at_s": 0.05,
    "repair_at_s": 0.12, "repeat": 1,
}
#: downscaled Pod window (4 segments x 24 hosts): correctness always-on
POD_SMOKE_PARAMS = {
    "segments": 4, "hosts_per_segment": 24, "aggs_per_plane": 8,
    "edge_mb": 8.0, "window_s": 0.0015,
}


def _check(tier: str, payload, min_flows: int) -> None:
    report(
        f"bench.simcore [{tier}]",
        [
            f"flows            {payload['flows']}",
            f"full engine      {payload['full_wall_s'] * 1e3:9.1f} ms",
            f"incremental      {payload['incremental_wall_s'] * 1e3:9.1f} ms",
            f"speedup          {payload['speedup']:9.2f}x (gate >= {MIN_SPEEDUP}x)",
            f"max finish err   {payload['equivalence']['max_finish_rel_err']:.3e}"
            f" (tol {EQUIVALENCE_TOL})",
            f"mean dirty frac  {payload['solver']['mean_dirty_frac']:.4f}",
            f"recorded in      {record('BENCH_simcore.json', tier, payload)}",
        ],
    )
    assert payload["flows"] >= min_flows
    eq = payload["equivalence"]
    assert eq["ok"], (
        f"incremental/full divergence: {eq['max_finish_rel_err']:.3e} "
        f"rel err, {eq['one_sided_finishes']} one-sided finishes"
    )
    assert payload["speedup"] >= MIN_SPEEDUP, (
        f"incremental engine only {payload['speedup']:.2f}x over the "
        f"full-solve baseline (gate: {MIN_SPEEDUP}x)"
    )
    # the dirty-set machinery must actually be engaging, not falling
    # back to full solves at every boundary
    assert payload["solver"]["incremental_solves"] > payload["solver"]["full_solves"]


def _check_pod(tier: str, payload, min_flows: int,
               gate_speedup: bool) -> None:
    """Gate a pod/multipod payload: equivalence, oracle, speedup."""
    eq = payload["equivalence"]
    oracle = payload["oracle"]
    report(
        f"bench.simcore [{tier}]",
        [
            f"flows            {payload['flows']}",
            f"list-scan fill   {payload['list_scan_wall_s'] * 1e3:9.1f} ms",
            f"heap fill        {payload['heap_wall_s'] * 1e3:9.1f} ms",
            f"speedup          {payload['speedup']:9.2f}x"
            + (f" (gate >= {MIN_SPEEDUP}x)" if gate_speedup else ""),
            f"kernel iters     {payload['solver']['kernel_iters']}",
            f"max rate err     {eq['max_rate_err_gbps']:.3e} Gbps (byte gate)",
            f"oracle drift     {oracle['max_rate_drift_gbps']:.3e} Gbps over "
            f"{oracle['flows_checked']} flows / {oracle['components']} comps",
            f"recorded in      {record('BENCH_simcore.json', tier, payload)}",
        ],
    )
    assert payload["flows"] >= min_flows
    assert eq["ok"], (
        f"engine divergence: {eq['one_sided_finishes']} one-sided, "
        f"finish rel err {eq['max_finish_rel_err']:.3e}, "
        f"rate err {eq['max_rate_err_gbps']:.3e}"
    )
    # heap and list-scan fills must agree byte-for-byte
    assert eq["max_finish_rel_err"] == 0.0
    assert eq["max_rate_err_gbps"] == 0.0
    assert eq["kernel_iters_match"]
    assert oracle["ok"], (
        f"oracle drift {oracle['max_rate_drift_gbps']:.3e} Gbps "
        f"(tol {oracle['tol']})"
    )
    assert oracle["flows_checked"] > 0
    if gate_speedup:
        assert payload["speedup"] >= MIN_SPEEDUP, (
            f"heap fill only {payload['speedup']:.2f}x over the "
            f"list-scan reference (gate: {MIN_SPEEDUP}x)"
        )


def test_simcore_smoke():
    _check("smoke", run_simcore(dict(SMOKE_PARAMS), seed=7), min_flows=1000)


def test_simcore_pod_smoke():
    """Downscaled Pod window: only the correctness gates apply here;
    the speed gate belongs to the full-scale ``pod`` tier."""
    _check_pod(
        "pod_smoke", run_pod_tier(dict(POD_SMOKE_PARAMS), 7, "pod"),
        min_flows=500, gate_speedup=False,
    )


def test_simcore_multipod():
    """3-Pod §7 PP workload, run to completion under both fills."""
    _check_pod(
        "multipod", run_pod_tier({}, 42, "multipod"),
        min_flows=1000, gate_speedup=False,
    )


@pytest.mark.skipif(
    os.environ.get("REPRO_PERF_FULL", "0") != "1",
    reason="reference tier takes minutes; set REPRO_PERF_FULL=1 "
    "(CI perf-smoke runs it via `repro exp run bench.simcore`)",
)
def test_simcore_reference():
    _check(
        "reference", run_simcore(dict(REFERENCE_PARAMS), seed=7),
        min_flows=20000,
    )


@pytest.mark.skipif(
    os.environ.get("REPRO_PERF_FULL", "0") != "1",
    reason="full-Pod tier runs the list-scan baseline for about a "
    "minute; set REPRO_PERF_FULL=1 (CI perf-smoke does)",
)
def test_simcore_pod():
    """Full 15,360-GPU Pod window: the heap fill >=3x CI gate."""
    _check_pod(
        "pod", run_pod_tier({}, 42, "pod"),
        min_flows=15000, gate_speedup=True,
    )
