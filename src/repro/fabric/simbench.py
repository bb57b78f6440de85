"""Reference workloads + harness for the solver-core perf benchmark.

The ``bench.simcore`` experiment (and the ``benchmarks/perf`` pytest
suite) measure the one hot path every figure funnels through:
:meth:`FluidSimulator.run`. Three tiers:

* **reference** (:func:`run_simcore`) -- the paper's single-segment
  stress shape: a dual-plane rail-optimized AllReduce driven for many
  collective steps, an access-link failure/repair mid-run, per-flow
  size jitter spreading completions into tens of thousands of
  rate-solve boundaries. Gates the incremental engine against the
  from-scratch full engine.
* **pod** (:func:`run_pod_tier`) -- the paper's headline scale: one
  full Pod (15 segments x 128 hosts x 8 rails = 15,360 GPUs, §6), a
  pod-wide inter-segment AllReduce ring per rail (every edge crosses
  the dual-plane aggregation layer), an access-link failure/repair
  inside the measured window. Gates the heap-driven fill against the
  list-scan reference fill (:func:`list_scan_fill`; CI requires >=3x
  and byte-identical results) and the committed rates against the
  legacy oracle per connected component (<=1e-9 drift).
* **multipod** (:func:`run_pod_tier`) -- the §7 shape: a 3-Pod
  pipeline-parallel job (whole stages per pod, PP activations crossing
  the oversubscribed core) with per-pod data-parallel rings, run to
  completion under both fills.

Every comparison runs the *same* flow objects (reset in between); the
payloads are JSON-safe and land in ``BENCH_simcore.json``.
"""

from __future__ import annotations

import random
import time
import types
from array import array
from typing import Any, Dict, FrozenSet, List, Set, Tuple

from .flow import Flow
from .simulator import FluidSimulator, max_min_rates
from .solver import _EPS

#: relative finish-time drift beyond which the engines "disagree"
EQUIVALENCE_TOL = 1e-9


def build_reference_workload(
    params: Dict[str, Any], seed: int
) -> Tuple[Any, List[Flow], List[Tuple[float, int, bool]]]:
    """Build ``(topology, flows, link_events)`` for the benchmark.

    ``params``: hosts, conns, steps, step_gap_s, edge_mb, jitter,
    fail_at_s, repair_at_s. Flows are reusable across runs via
    ``Flow.reset``; ``link_events`` are ``(time, link_id, up)``.
    """
    from ..cluster import Cluster
    from ..topos.spec import HpnSpec

    rng = random.Random(seed)
    hosts = int(params["hosts"])
    cluster = Cluster.hpn(HpnSpec(
        segments_per_pod=1,
        hosts_per_segment=max(8, hosts),
        backup_hosts_per_segment=0,
        aggs_per_plane=4,
    ))
    comm = cluster.communicator(
        cluster.place(hosts), num_conns=int(params["conns"])
    )
    steps = int(params["steps"])
    step_gap_s = float(params["step_gap_s"])
    per_edge = float(params["edge_mb"]) * 1e6
    jitter = float(params["jitter"])
    flows: List[Flow] = []
    for step in range(steps):
        batch = comm.all_rails_ring_flows(
            per_edge, tag=f"simcore/step{step}",
            start_time=step * step_gap_s,
        )
        for f in batch:
            if jitter > 0:
                f.size_bytes *= 1.0 + rng.uniform(-jitter, jitter)
                f.reset()
        flows.extend(batch)

    events: List[Tuple[float, int, bool]] = []
    fail_at = float(params["fail_at_s"])
    repair_at = float(params["repair_at_s"])
    if fail_at >= 0 and repair_at > fail_at:
        # victim: an access link some mid-pack flow enters the fabric on
        victim = flows[len(flows) // 2].path.dirlinks[0] // 2
        events.append((fail_at, victim, False))
        events.append((repair_at, victim, True))
    return cluster.topo, flows, events


def _timed_run(
    topo, flows: List[Flow], events, mode: str,
) -> Tuple[float, Dict[int, float], FluidSimulator]:
    sim = FluidSimulator(topo, solver=mode)
    t0 = time.perf_counter()
    sim.add_flows(flows)
    for t, lid, up in events:
        sim.schedule(t, lambda s, l=lid, u=up: s.topo.set_link_state(l, u))
    result = sim.run()
    wall = time.perf_counter() - t0
    return wall, result.flow_finish, sim


def run_simcore(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Run the reference workload under both engines and compare.

    Wall-clock is min-of-``repeat`` per engine. The full engine runs
    first so the incremental engine pays its own (indexed) cache
    warm-up inside its measured window -- the reported speedup is
    conservative.
    """
    topo, flows, events = build_reference_workload(params, seed)
    initial_up = {lid: link.up for lid, link in topo.links.items()}
    repeat = max(1, int(params.get("repeat", 1)))

    def measure(mode: str):
        best_wall = float("inf")
        finish: Dict[int, float] = {}
        sim: FluidSimulator = None  # type: ignore[assignment]
        for _ in range(repeat):
            wall, finish, sim = _timed_run(topo, flows, events, mode)
            best_wall = min(best_wall, wall)
            for lid, up in initial_up.items():
                topo.set_link_state(lid, up)
            for f in flows:
                f.reset()
        return best_wall, finish, sim

    full_wall, full_finish, _ = measure("full")
    inc_wall, inc_finish, inc_sim = measure("incremental")

    max_err = 0.0
    missing = 0
    for f in flows:
        a = full_finish.get(f.flow_id)
        b = inc_finish.get(f.flow_id)
        if a is None or b is None:
            missing += int((a is None) != (b is None))
            continue
        err = abs(a - b) / max(1.0, abs(a))
        if err > max_err:
            max_err = err
    stats = inc_sim._solver.stats if inc_sim._solver is not None else None
    payload: Dict[str, Any] = {
        "workload": {
            "hosts": int(params["hosts"]),
            "conns": int(params["conns"]),
            "steps": int(params["steps"]),
            "step_gap_s": float(params["step_gap_s"]),
            "edge_mb": float(params["edge_mb"]),
            "jitter": float(params["jitter"]),
            "fail_at_s": float(params["fail_at_s"]),
            "repair_at_s": float(params["repair_at_s"]),
            "seed": seed,
        },
        "flows": len(flows),
        "full_wall_s": full_wall,
        "incremental_wall_s": inc_wall,
        "speedup": full_wall / inc_wall if inc_wall > 0 else float("inf"),
        "equivalence": {
            "max_finish_rel_err": max_err,
            "one_sided_finishes": missing,
            "tol": EQUIVALENCE_TOL,
            "ok": missing == 0 and max_err <= EQUIVALENCE_TOL,
        },
    }
    if stats is not None:
        payload["solver"] = {
            "full_solves": stats.full_solves,
            "incremental_solves": stats.incremental_solves,
            "noop_solves": stats.noop_solves,
            "mean_dirty_frac": stats.mean_dirty_frac,
            "kernel_iters": stats.kernel_iters,
        }
    return payload


# ======================================================================
# list-scan reference fill: the pod tier's speed baseline
# ======================================================================
def list_scan_fill(self, flow_ids: FrozenSet[int]) -> int:
    """The pre-heap progressive fill, kept as the pod tier's baseline.

    Same canonical order as :meth:`IncrementalMaxMinSolver._fill`
    (bottleneck = smallest share, ties to the smallest dense id;
    flow-major debits in ascending flow id), but each iteration rescans
    every active link three times: the argmin, the drained list and
    the set rebuild. Never selectable through :class:`FluidSimulator`;
    :func:`use_list_scan` installs it on one simulator's solver.
    """
    idx = self.index
    flow_links = idx.flow_links
    link_flows = idx.link_flows
    rates = self.rates
    # scratch vectors: C-speed copies of the persistent arrays
    residual = array("d", idx.cap)
    unfixed = array("q", idx.weight)
    fixed: Set[int] = set()

    # dead-link pass, per-flow-first-fix: each flow crossing any
    # dead link is zeroed once and debited along its own links by
    # its own occurrence counts (never once per dead link crossed)
    participating: Set[int] = set()
    for fid in sorted(flow_ids):
        links = flow_links[fid]
        dead = False
        for dense, _mult in links:
            participating.add(dense)
            if residual[dense] <= _EPS:
                dead = True
        if dead:
            rates[fid] = 0.0
            fixed.add(fid)
            for dense, mult in links:
                unfixed[dense] -= mult

    active = {
        dense for dense in participating
        if unfixed[dense] > 0 and residual[dense] > _EPS
    }
    on_bottleneck = self.on_bottleneck
    dirlinks = idx.dirlinks
    iterations = 0
    while active:
        # bottleneck: the link offering the smallest fair share
        # (ties -> smallest dense id, as in the heap fill)
        share = float("inf")
        bottleneck = -1
        for dense in active:
            s = residual[dense] / unfixed[dense]
            if s < share or (s == share and dense < bottleneck):
                share = s
                bottleneck = dense
        newly = sorted(
            fid for fid in link_flows[bottleneck] if fid not in fixed
        )
        iterations += 1
        if on_bottleneck is not None:
            on_bottleneck(dirlinks[bottleneck], share, len(newly))
        if not newly:
            # only drained-to-zero flows remain on this link: it
            # can make no further progress -- retire it (liveness
            # guard, mirrored exactly in the heap fill)
            active.discard(bottleneck)
            continue
        for fid in newly:
            rates[fid] = share
            fixed.add(fid)
            for dense, mult in flow_links[fid]:
                residual[dense] -= share * mult
                unfixed[dense] -= mult
        drained = [
            dense for dense in active
            if unfixed[dense] <= 0 or residual[dense] <= _EPS
        ]
        for dense in drained:
            if unfixed[dense] > 0:
                # capacity exhausted with flows still unfixed: they
                # get ~0 (mirrors the oracle: no further debits)
                for fid in link_flows[dense]:
                    if fid not in fixed:
                        rates[fid] = 0.0
                        fixed.add(fid)
            active.discard(dense)
        active = {
            dense for dense in active
            if unfixed[dense] > 0 and residual[dense] > _EPS
        }
    # flows never constrained by any link (e.g. empty paths) match
    # the oracle's terminal setdefault: rate 0
    for fid in flow_ids:
        if fid not in fixed:
            rates[fid] = 0.0
    return iterations


def use_list_scan(sim: FluidSimulator) -> FluidSimulator:
    """Swap ``sim``'s heap fill for :func:`list_scan_fill`; returns it."""
    solver = sim._solver
    solver._fill = types.MethodType(  # type: ignore[method-assign,union-attr]
        list_scan_fill, solver
    )
    return sim


# ======================================================================
# pod / multipod tiers: the heap fill at paper scale
# ======================================================================
#: per-tier workload defaults (every key overridable via params)
POD_DEFAULTS: Dict[str, Any] = {
    "segments": 15, "hosts_per_segment": 128, "aggs_per_plane": 60,
    "conns": 1, "edge_mb": 64.0, "jitter": 0.05,
    "fail_at_s": 0.0005, "repair_at_s": 0.0012, "window_s": 0.002,
}
MULTIPOD_DEFAULTS: Dict[str, Any] = {
    "pods": 3, "segments": 2, "hosts_per_segment": 8,
    "aggs_per_plane": 8, "agg_core_uplinks": 2, "cores_per_plane": 4,
    "conns": 1, "edge_mb": 24.0, "pp_mb": 8.0, "steps": 2,
    "step_gap_s": 0.004, "jitter": 0.05,
    "fail_at_s": 0.0005, "repair_at_s": 0.0015, "window_s": 0.0,
}


def _tier_params(params: Dict[str, Any], tier: str) -> Dict[str, Any]:
    base = dict(POD_DEFAULTS if tier == "pod" else MULTIPOD_DEFAULTS)
    for key in base:
        if key in params:
            base[key] = params[key]
    return base


def build_pod_workload(
    params: Dict[str, Any], seed: int
) -> Tuple[Any, List[Flow], List[Tuple[float, int, bool]], Dict[str, Any]]:
    """Full-Pod AllReduce: one inter-segment ring per rail (§6 scale).

    Hosts are placed round-robin across the Pod's segments, so every
    ring edge crosses the aggregation layer -- the traffic that
    actually exercises the dual-plane tier-2 fabric (intra-segment
    edges would each own their access links and decompose into
    singleton components).
    """
    from ..cluster import Cluster
    from ..topos.spec import HpnSpec

    rng = random.Random(seed)
    spec = HpnSpec(
        segments_per_pod=int(params["segments"]),
        hosts_per_segment=int(params["hosts_per_segment"]),
        backup_hosts_per_segment=0,
        aggs_per_plane=int(params["aggs_per_plane"]),
    )
    cluster = Cluster.hpn(spec)
    hosts = cluster.place(
        spec.segments_per_pod * spec.hosts_per_segment, interleave=True
    )
    comm = cluster.communicator(hosts, num_conns=int(params["conns"]))
    per_edge = float(params["edge_mb"]) * 1e6
    jitter = float(params["jitter"])
    flows = comm.all_rails_ring_flows(per_edge, tag="pod/allreduce")
    for f in flows:
        if jitter > 0:
            f.size_bytes *= 1.0 + rng.uniform(-jitter, jitter)
            f.reset()
    events: List[Tuple[float, int, bool]] = []
    fail_at = float(params["fail_at_s"])
    repair_at = float(params["repair_at_s"])
    if fail_at >= 0 and repair_at > fail_at:
        victim = flows[len(flows) // 2].path.dirlinks[0] // 2
        events.append((fail_at, victim, False))
        events.append((repair_at, victim, True))
    meta = {
        "tier": "pod",
        "gpus": spec.total_gpus,
        "segments": spec.segments_per_pod,
        "hosts": len(hosts),
        "rails": spec.rails,
        "links": len(cluster.topo.links),
    }
    return cluster.topo, flows, events, meta


def build_multipod_workload(
    params: Dict[str, Any], seed: int
) -> Tuple[Any, List[Flow], List[Tuple[float, int, bool]], Dict[str, Any]]:
    """3-Pod §7 PP workload: whole stages per pod, DP rings inside.

    ``place_cross_pod`` enforces the paper's rule (only PP traffic
    crosses the oversubscribed core): each pod holds one pipeline
    stage; activations flow host i of stage s -> host i of stage s+1
    across the core, while each stage runs its own per-rail
    data-parallel ring.
    """
    from ..cluster import Cluster
    from ..topos.spec import HpnSpec

    rng = random.Random(seed)
    pods = int(params["pods"])
    spec = HpnSpec(
        pods=pods,
        segments_per_pod=int(params["segments"]),
        hosts_per_segment=int(params["hosts_per_segment"]),
        backup_hosts_per_segment=0,
        aggs_per_plane=int(params["aggs_per_plane"]),
        agg_core_uplinks=int(params["agg_core_uplinks"]),
        cores_per_plane=int(params["cores_per_plane"]),
    )
    cluster = Cluster.hpn(spec)
    per_stage = spec.segments_per_pod * spec.hosts_per_segment
    hosts = cluster.scheduler.place_cross_pod(
        hosts_per_stage=per_stage, pp=pods, pods=list(range(pods))
    )
    stages = [
        hosts[i * per_stage:(i + 1) * per_stage] for i in range(pods)
    ]
    comm = cluster.communicator(hosts, num_conns=int(params["conns"]))
    per_edge = float(params["edge_mb"]) * 1e6
    pp_bytes = float(params["pp_mb"]) * 1e6
    jitter = float(params["jitter"])
    steps = int(params["steps"])
    step_gap_s = float(params["step_gap_s"])
    flows: List[Flow] = []
    for step in range(steps):
        t = step * step_gap_s
        # per-stage DP rings, one per rail (stays inside each pod)
        for s, stage in enumerate(stages):
            for rail in range(spec.rails):
                flows.extend(comm.ring_flows(
                    rail, per_edge, tag=f"mp/step{step}/dp{s}",
                    hosts=stage, start_time=t,
                ))
        # PP activations: stage s -> stage s+1 across the core
        for s in range(pods - 1):
            for i, src in enumerate(stages[s]):
                dst = stages[s + 1][i]
                for rail in range(spec.rails):
                    flows.extend(comm.edge_flows(
                        src, dst, rail, pp_bytes,
                        tag=f"mp/step{step}/pp{s}", start_time=t,
                    ))
    for f in flows:
        if jitter > 0:
            f.size_bytes *= 1.0 + rng.uniform(-jitter, jitter)
            f.reset()
    events: List[Tuple[float, int, bool]] = []
    fail_at = float(params["fail_at_s"])
    repair_at = float(params["repair_at_s"])
    if fail_at >= 0 and repair_at > fail_at:
        victim = flows[len(flows) // 2].path.dirlinks[0] // 2
        events.append((fail_at, victim, False))
        events.append((repair_at, victim, True))
    meta = {
        "tier": "multipod",
        "gpus": spec.total_gpus,
        "pods": pods,
        "segments": spec.segments_per_pod * pods,
        "hosts": len(hosts),
        "rails": spec.rails,
        "links": len(cluster.topo.links),
    }
    return cluster.topo, flows, events, meta


def _timed_tier_run(
    topo, flows: List[Flow], events, fill: str, window_s: float,
) -> Tuple[float, Dict[int, float], Dict[int, float], FluidSimulator]:
    """One incremental-engine pass; returns (wall, finishes, rates, sim).

    ``fill`` is ``"heap"`` (the engine as shipped) or ``"list-scan"``
    (:func:`list_scan_fill` installed). ``window_s > 0`` bounds
    simulated time (the pod tier measures a fixed window of the
    collective rather than running 15k completions under the slow
    baseline); 0 runs to completion. The caller resets flows and
    restores link states between passes -- restoring here would
    desynchronize the topology from the committed rates any oracle
    check reads.
    """
    sim = FluidSimulator(topo)
    if fill == "list-scan":
        use_list_scan(sim)
    t0 = time.perf_counter()
    sim.add_flows(flows)
    for t, lid, up in events:
        sim.schedule(t, lambda s, l=lid, u=up: s.topo.set_link_state(l, u))
    result = sim.run(until=window_s if window_s > 0 else None)
    wall = time.perf_counter() - t0
    rates = {f.flow_id: f.rate_gbps for f in sim.active_flows}
    return wall, result.flow_finish, rates, sim


def _oracle_component_drift(sim: FluidSimulator) -> Dict[str, Any]:
    """Max |committed - oracle| rate over every active flow.

    Runs the legacy :func:`max_min_rates` oracle per connected
    component (components are closed, so the restricted solve is
    exact) -- feasible even at Pod scale, where one flat oracle pass
    over 15k coupled dict entries would dominate the benchmark.
    """
    solver = sim._solver
    assert solver is not None
    index = solver.index
    comps = index.components(index.flows, ())
    worst = 0.0
    checked = 0
    for comp_flows, _links in comps:
        live = [index.flows[fid] for fid in sorted(comp_flows)]
        oracle = max_min_rates(live, sim.link_gbps)
        for f in live:
            drift = abs(f.rate_gbps - oracle[f.flow_id])
            if drift > worst:
                worst = drift
            checked += 1
    return {
        "flows_checked": checked,
        "components": len(comps),
        "max_rate_drift_gbps": worst,
        "tol": EQUIVALENCE_TOL,
        "ok": worst <= EQUIVALENCE_TOL,
    }


def run_pod_tier(
    params: Dict[str, Any], seed: int, tier: str = "pod"
) -> Dict[str, Any]:
    """Pod / multipod benchmark: heap fill vs the list-scan reference.

    Both passes run the incremental engine over the same flows; only
    the progressive fill differs. The list-scan pass is the baseline:
    the heap pass must match it byte-for-byte (finishes and final
    committed rates) and, on the ``pod`` tier, beat it >=3x; its
    committed rates must sit within 1e-9 of the legacy oracle.
    """
    if tier not in ("pod", "multipod"):
        raise ValueError(f"unknown simcore tier {tier!r}")
    p = _tier_params(params, tier)
    if tier == "pod":
        topo, flows, events, meta = build_pod_workload(p, seed)
    else:
        topo, flows, events, meta = build_multipod_workload(p, seed)
    window_s = float(p["window_s"])
    initial_up = {lid: link.up for lid, link in topo.links.items()}

    def restore() -> None:
        for lid, up in initial_up.items():
            topo.set_link_state(lid, up)

    def measure(fill: str, until: float = window_s):
        for f in flows:
            f.reset()
        return _timed_tier_run(topo, flows, events, fill, until)

    ref_wall, ref_finish, ref_rates, ref_sim = measure("list-scan")
    restore()
    heap_wall, heap_finish, heap_rates, heap_sim = measure("heap")
    # oracle drift against the heap engine's committed rates -- read
    # *before* restoring links, at the window boundary when one is
    # set, else at a mid-failure probe (completion runs end with
    # nothing active to check)
    if window_s > 0:
        oracle = _oracle_component_drift(heap_sim)
        restore()
    else:
        restore()
        probe_s = (float(p["fail_at_s"]) + float(p["repair_at_s"])) / 2.0
        _pw, _pf, _pr, probe_sim = measure("heap", until=probe_s)
        oracle = _oracle_component_drift(probe_sim)
        restore()

    # equivalence: byte-compare finishes AND final committed rates
    mism = 0
    max_err = 0.0
    for fid in set(ref_finish) | set(heap_finish):
        a, b = ref_finish.get(fid), heap_finish.get(fid)
        if (a is None) != (b is None):
            mism += 1
            continue
        if a is not None and b is not None:
            err = abs(a - b) / max(1.0, abs(a))
            max_err = max(max_err, err)
    rate_err = 0.0
    for fid in set(ref_rates) | set(heap_rates):
        a = ref_rates.get(fid)
        b = heap_rates.get(fid)
        if a is None or b is None:
            mism += 1
            continue
        rate_err = max(rate_err, abs(a - b))

    stats = heap_sim._solver.stats
    iters_match = stats.kernel_iters == ref_sim._solver.stats.kernel_iters
    payload: Dict[str, Any] = {
        "tier": tier,
        "workload": dict(meta, seed=seed, **{
            k: p[k] for k in sorted(p)
        }),
        "flows": len(flows),
        "list_scan_wall_s": ref_wall,
        "heap_wall_s": heap_wall,
        "speedup": ref_wall / heap_wall if heap_wall > 0 else float("inf"),
        "equivalence": {
            "max_finish_rel_err": max_err,
            "max_rate_err_gbps": rate_err,
            "one_sided_finishes": mism,
            "kernel_iters_match": iters_match,
            "tol": EQUIVALENCE_TOL,
            "ok": (mism == 0 and iters_match and max_err <= EQUIVALENCE_TOL
                   and rate_err <= EQUIVALENCE_TOL),
        },
        "oracle": oracle,
        "solver": {
            "full_solves": stats.full_solves,
            "incremental_solves": stats.incremental_solves,
            "noop_solves": stats.noop_solves,
            "mean_dirty_frac": stats.mean_dirty_frac,
            "kernel_iters": stats.kernel_iters,
        },
    }
    return payload
