"""Incremental solver core: incidence index, dirty-set engine, heap loop.

Covers the pieces the rewrite added -- the persistent
:class:`~repro.fabric.IncidenceIndex`, the
:class:`~repro.fabric.IncrementalMaxMinSolver` dirty-set state machine
(noop / incremental / full-fallback modes), the simulator's
completion-heap event loop and batched arrivals -- plus regression
tests for the satellite fixes (``until`` with stalled flows, the
``flow.start`` emit-once guard, the oracle's dead-link pass), and the
heap-driven fill checked byte-for-byte against the list-scan reference
fill and to 1e-9 against the oracle.
"""

import os
import subprocess
import sys
from types import MethodType

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.units import GB, MB
from repro.fabric import (
    Flow,
    FluidSimulator,
    IncidenceIndex,
    IncrementalMaxMinSolver,
    max_min_rates,
    run_flows,
)
from repro.fabric import solver as solver_mod
from repro.fabric.simbench import list_scan_fill
from repro.obs import Recorder
from repro.routing import FiveTuple, Router
from repro.routing.path import FlowPath


def _edge_flow(topo, router, src, dst, rail, size, sport=50000, plane=0,
               start_time=0.0):
    a = topo.hosts[src].nic_for_rail(rail)
    b = topo.hosts[dst].nic_for_rail(rail)
    ft = FiveTuple(a.ip, b.ip, sport, 4791)
    path = router.path_for(a, b, ft, plane=plane)
    return Flow(ft, size, path, start_time=start_time)


def _cap_of(topo):
    def link_gbps(dl):
        link = topo.links[dl // 2]
        return link.gbps if link.up else 0.0
    return link_gbps


def _mesh_flows(topo, router, n=10):
    """Cross-segment flows sharing access links -> coupled components."""
    return [
        _edge_flow(
            topo, router,
            f"pod0/seg0/host{i % 4}", f"pod0/seg1/host{(i + 1) % 4}",
            i % 2, (i + 1) * 200 * MB, sport=50000 + i,
        )
        for i in range(n)
    ]


# ======================================================================
class TestIncidenceIndex:
    def test_add_remove_maintains_weights(self, hpn_small, hpn_router):
        idx = IncidenceIndex()
        cap = _cap_of(hpn_small)
        f1 = _edge_flow(hpn_small, hpn_router,
                        "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
        f2 = _edge_flow(hpn_small, hpn_router,
                        "pod0/seg0/host0", "pod0/seg0/host2", 0, GB,
                        sport=50001)
        idx.add(f1, cap)
        idx.add(f2, cap)
        assert len(idx) == 2
        shared = set(f1.path.dirlinks) & set(f2.path.dirlinks)
        assert shared  # same source NIC -> shared access dirlink
        dense = idx.dense_of[next(iter(shared))]
        assert idx.weight[dense] == 2
        idx.remove(f1)
        assert idx.weight[dense] == 1
        idx.remove(f2)
        assert idx.weight[dense] == 0
        assert len(idx) == 0
        # dense ids survive (the index never forgets a link)
        assert idx.num_links > 0

    def test_double_add_rejected(self, hpn_small, hpn_router):
        idx = IncidenceIndex()
        f = _edge_flow(hpn_small, hpn_router,
                       "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
        idx.add(f, _cap_of(hpn_small))
        with pytest.raises(ValueError):
            idx.add(f, _cap_of(hpn_small))

    def test_capacities_registered_and_refreshed(self, hpn_mutable):
        router = Router(hpn_mutable)
        idx = IncidenceIndex()
        cap = _cap_of(hpn_mutable)
        f = _edge_flow(hpn_mutable, router,
                       "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
        idx.add(f, cap)
        assert idx.refresh_capacities(cap) == []  # nothing changed
        victim = f.path.dirlinks[0]
        hpn_mutable.set_link_state(victim // 2, False)
        changed = idx.refresh_capacities(cap)
        assert idx.dense_of[victim] in changed
        assert idx.cap[idx.dense_of[victim]] == 0.0
        hpn_mutable.set_link_state(victim // 2, True)
        assert idx.dense_of[victim] in idx.refresh_capacities(cap)

    def test_component_closure_and_limit(self, hpn_small, hpn_router):
        idx = IncidenceIndex()
        cap = _cap_of(hpn_small)
        # two flows share host0's NIC; a third is disjoint (host4->5)
        f1 = _edge_flow(hpn_small, hpn_router,
                        "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
        f2 = _edge_flow(hpn_small, hpn_router,
                        "pod0/seg0/host0", "pod0/seg0/host2", 0, GB,
                        sport=50001)
        f3 = _edge_flow(hpn_small, hpn_router,
                        "pod0/seg0/host4", "pod0/seg0/host5", 1, GB,
                        sport=50002)
        for f in (f1, f2, f3):
            idx.add(f, cap)
        comp = idx.component([f1.flow_id], [], flow_limit=3)
        assert comp is not None
        comp_flows, comp_links = comp
        assert comp_flows == {f1.flow_id, f2.flow_id}  # f3 unreachable
        assert all(idx.weight[d] > 0 for d in comp_links)
        # the limit aborts the walk as soon as it is exceeded
        assert idx.component([f1.flow_id], [], flow_limit=1) is None

    def test_multiplicity_counted(self, hpn_small, hpn_router):
        f = _edge_flow(hpn_small, hpn_router,
                       "pod0/seg0/host0", "pod0/seg1/host0", 0, GB)
        mult = dict(f.path.dirlink_multiplicity())
        assert sum(mult.values()) == len(f.path.dirlinks)
        for dl in f.path.dirlinks:
            assert mult[dl] >= 1


# ======================================================================
class TestIncrementalSolver:
    def test_matches_oracle_on_shared_access(self, hpn_small, hpn_router):
        a = hpn_small.hosts["pod0/seg0/host0"].nic_for_rail(0)
        flows = []
        for i, dst in enumerate(["pod0/seg0/host1", "pod0/seg0/host2"]):
            b = hpn_small.hosts[dst].nic_for_rail(0)
            ft = FiveTuple(a.ip, b.ip, 50000 + i, 4791)
            flows.append(Flow(ft, GB, hpn_router.path_for(a, b, ft, plane=0)))
        solver = IncrementalMaxMinSolver(_cap_of(hpn_small))
        for f in flows:
            solver.activate(f)
        solver.solve()
        oracle = max_min_rates(flows, _cap_of(hpn_small))
        for f in flows:
            assert solver.rates[f.flow_id] == pytest.approx(
                oracle[f.flow_id], abs=1e-9
            )

    def test_noop_when_nothing_dirty(self, hpn_small, hpn_router):
        f = _edge_flow(hpn_small, hpn_router,
                       "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
        solver = IncrementalMaxMinSolver(_cap_of(hpn_small))
        solver.activate(f)
        first = solver.solve()
        assert first.mode in ("incremental", "full")
        again = solver.solve()
        assert again.mode == "noop"
        assert again.touched == frozenset()
        assert solver.stats.noop_solves == 1

    def test_disjoint_component_not_resolved(self, hpn_small, hpn_router):
        """An arrival re-solves its component, not the whole graph."""
        f1 = _edge_flow(hpn_small, hpn_router,
                        "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
        f3 = _edge_flow(hpn_small, hpn_router,
                        "pod0/seg0/host4", "pod0/seg0/host5", 1, GB,
                        sport=50002)
        solver = IncrementalMaxMinSolver(_cap_of(hpn_small),
                                         full_threshold=1.0)
        solver.activate(f1)
        solver.solve()
        solver.activate(f3)
        outcome = solver.solve()
        assert outcome.mode == "incremental"
        assert outcome.touched == frozenset({f3.flow_id})
        assert f1.flow_id in solver.rates  # frozen rate spliced, not lost

    def test_threshold_zero_forces_full(self, hpn_small, hpn_router):
        f = _edge_flow(hpn_small, hpn_router,
                       "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
        solver = IncrementalMaxMinSolver(_cap_of(hpn_small),
                                         full_threshold=0.0)
        solver.activate(f)
        outcome = solver.solve()
        assert outcome.mode == "full"
        assert solver.stats.full_solves == 1

    def test_finish_dirties_vacated_links(self, hpn_small, hpn_router):
        a = hpn_small.hosts["pod0/seg0/host0"].nic_for_rail(0)
        flows = []
        for i, dst in enumerate(["pod0/seg0/host1", "pod0/seg0/host2"]):
            b = hpn_small.hosts[dst].nic_for_rail(0)
            ft = FiveTuple(a.ip, b.ip, 50000 + i, 4791)
            flows.append(Flow(ft, GB, hpn_router.path_for(a, b, ft, plane=0)))
        solver = IncrementalMaxMinSolver(_cap_of(hpn_small))
        for f in flows:
            solver.activate(f)
        solver.solve()
        assert solver.rates[flows[1].flow_id] == pytest.approx(100.0)
        solver.finish(flows[0])
        outcome = solver.solve()
        assert flows[1].flow_id in outcome.touched
        assert solver.rates[flows[1].flow_id] == pytest.approx(200.0)
        assert flows[0].flow_id not in solver.rates

    def test_capacity_sweep_catches_out_of_band_failure(self, hpn_mutable):
        """No mark_link_dirty call needed: the refresh sweep sees it."""
        router = Router(hpn_mutable)
        f = _edge_flow(hpn_mutable, router,
                       "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
        solver = IncrementalMaxMinSolver(_cap_of(hpn_mutable))
        solver.activate(f)
        solver.solve()
        assert solver.rates[f.flow_id] == pytest.approx(200.0)
        hpn_mutable.set_link_state(f.path.dirlinks[0] // 2, False)
        outcome = solver.solve()
        assert outcome.mode != "noop"
        assert solver.rates[f.flow_id] == 0.0
        hpn_mutable.set_link_state(f.path.dirlinks[0] // 2, True)
        solver.solve()
        assert solver.rates[f.flow_id] == pytest.approx(200.0)

    def test_bad_threshold_rejected(self, hpn_small):
        with pytest.raises(ValueError):
            IncrementalMaxMinSolver(_cap_of(hpn_small), full_threshold=1.5)

    def test_mean_dirty_frac_accounting(self, hpn_small, hpn_router):
        """One active_flow_boundaries bump per non-noop solve, summing
        |active| at that boundary; resolved_flows sums |touched|."""
        solver = IncrementalMaxMinSolver(_cap_of(hpn_small))
        for f in _mesh_flows(hpn_small, hpn_router, 12):
            solver.activate(f)
        boundaries = resolved = 0
        live = sorted(solver.index.flows)
        for finished in ([], live[:3], live[3:5], []):
            for fid in finished:
                solver.finish(solver.index.flows[fid])
            n_active = len(solver.index.flows)
            outcome = solver.solve()
            if outcome.mode != "noop":
                boundaries += n_active
                resolved += len(outcome.touched)
                assert outcome.dirty_frac == (
                    1.0 if outcome.mode == "full"
                    else len(outcome.touched) / n_active
                )
        stats = solver.stats
        assert stats.noop_solves == 1
        assert stats.active_flow_boundaries == boundaries
        assert stats.resolved_flows == resolved
        assert stats.mean_dirty_frac == resolved / boundaries
        assert 0.0 < stats.mean_dirty_frac <= 1.0


# ======================================================================
class TestIncrementalEngineLoop:
    """The simulator's incremental event loop mirrors the legacy one."""

    def test_completion_time_of_one_flow(self, hpn_small, hpn_router):
        f = _edge_flow(hpn_small, hpn_router,
                       "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
        result = run_flows(hpn_small, [f], solver="incremental")
        assert result.finish_time == pytest.approx(0.04)
        assert f.finish_time == pytest.approx(0.04)

    def test_rate_rises_after_short_flow_finishes(self, hpn_small, hpn_router):
        a = hpn_small.hosts["pod0/seg0/host0"].nic_for_rail(0)
        b = hpn_small.hosts["pod0/seg0/host1"].nic_for_rail(0)
        short = Flow(FiveTuple(a.ip, b.ip, 50000, 4791), 100 * MB,
                     hpn_router.path_for(
                         a, b, FiveTuple(a.ip, b.ip, 50000, 4791), plane=0))
        long = Flow(FiveTuple(a.ip, b.ip, 50001, 4791), GB,
                    hpn_router.path_for(
                        a, b, FiveTuple(a.ip, b.ip, 50001, 4791), plane=0))
        result = run_flows(hpn_small, [short, long], solver="incremental")
        oracle = run_flows(hpn_small, [short.reset() or short,
                                       long.reset() or long], solver="full")
        assert result.flow_finish[short.flow_id] == pytest.approx(
            oracle.flow_finish[short.flow_id])
        assert result.flow_finish[long.flow_id] == pytest.approx(
            oracle.flow_finish[long.flow_id])

    def test_batched_arrivals_one_solve(self, hpn_small, hpn_router):
        """Simultaneous arrivals cost one rate solve, not one each."""
        flows = [
            _edge_flow(hpn_small, hpn_router,
                       f"pod0/seg0/host{i}", f"pod0/seg1/host{i}", 0, GB,
                       sport=50000 + i)
            for i in range(4)
        ]
        sim = FluidSimulator(hpn_small, solver="incremental")
        sim.add_flows(flows)
        sim.run()
        stats = sim._solver.stats
        # boundary 1: all four arrive (one solve); then one boundary
        # per completion wave -- never one solve per arriving flow
        assert stats.solves <= 1 + len(flows)

    def test_mid_run_failure_event(self, hpn_mutable):
        router = Router(hpn_mutable)
        f = _edge_flow(hpn_mutable, router,
                       "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
        link_id = f.path.dirlinks[0] // 2
        sim = FluidSimulator(hpn_mutable, solver="incremental")
        sim.add_flows([f])
        # down for 10 ms mid-transfer: finish slides out by exactly that
        sim.schedule(0.01, lambda s: s.topo.set_link_state(link_id, False))
        sim.schedule(0.02, lambda s: s.topo.set_link_state(link_id, True))
        result = sim.run()
        assert result.finish_time == pytest.approx(0.05)

    def test_deadlock_detection(self, hpn_mutable):
        from repro.core.errors import SimulationError

        router = Router(hpn_mutable)
        f = _edge_flow(hpn_mutable, router,
                       "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
        hpn_mutable.set_link_state(f.path.dirlinks[0] // 2, False)
        sim = FluidSimulator(hpn_mutable, solver="incremental")
        sim.add_flows([f])
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run()
        hpn_mutable.set_link_state(f.path.dirlinks[0] // 2, True)

    def test_active_flows_materialized_mid_run(self, hpn_small, hpn_router):
        """Lazy progress accounting is invisible to observers."""
        f = _edge_flow(hpn_small, hpn_router,
                       "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
        sim = FluidSimulator(hpn_small, solver="incremental")
        sim.add_flows([f])
        sim.run(until=0.02)  # halfway through the 40 ms transfer
        [live] = sim.active_flows
        assert live.remaining_bytes == pytest.approx(GB / 2, rel=1e-6)

    def test_solver_mode_validated(self, hpn_small):
        with pytest.raises(ValueError):
            FluidSimulator(hpn_small, solver="quantum")
        for gone in ("vectorized", "sharded"):
            with pytest.raises(ValueError):
                FluidSimulator(hpn_small, solver=gone)

    def test_kernel_iters_series(self, hpn_small, hpn_router):
        """sim.kernel_iters counts every fill iteration of the run."""
        rec = Recorder()
        sim = FluidSimulator(hpn_small, recorder=rec)
        sim.add_flows(_mesh_flows(hpn_small, hpn_router, 8))
        sim.run()
        iters = rec.metrics.counter("sim.kernel_iters").value
        assert iters > 0
        assert iters == sim._solver.stats.kernel_iters

    def test_obs_counters_report_engine_mix(self, hpn_small, hpn_router):
        flows = [
            _edge_flow(hpn_small, hpn_router,
                       "pod0/seg0/host0", "pod0/seg0/host1", 0, GB),
            _edge_flow(hpn_small, hpn_router,
                       "pod0/seg0/host4", "pod0/seg0/host5", 1, GB,
                       sport=50001),
        ]
        rec = Recorder()
        run_flows(hpn_small, flows, solver="incremental", recorder=rec)
        m = rec.metrics
        total = m.counter("sim.solves").value
        assert total > 0
        assert (m.counter("sim.full_solves").value
                + m.counter("sim.incremental_solves").value
                + m.counter("sim.noop_solves").value) == total
        assert m.histogram("sim.dirty_frac").count > 0


# ======================================================================
class TestSatelliteRegressions:
    def test_until_with_stalled_flow_does_not_spin(self, hpn_mutable):
        """A zero-rate (stalled) flow + ``until`` before the repair
        event must stop at ``until`` -- not deadlock, not loop."""
        router = Router(hpn_mutable)
        f = _edge_flow(hpn_mutable, router,
                       "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
        link_id = f.path.dirlinks[0] // 2
        for mode in ("full", "incremental"):
            f.reset()
            hpn_mutable.set_link_state(link_id, False)
            sim = FluidSimulator(hpn_mutable, solver=mode)
            sim.add_flows([f])
            # the flow is stalled until the repair at t=1.0; until=0.5
            # lands strictly before it
            sim.schedule(1.0, lambda s: s.topo.set_link_state(link_id, True))
            result = sim.run(until=0.5)
            assert result.finish_time == pytest.approx(0.5)
            assert f.flow_id not in result.flow_finish
            hpn_mutable.set_link_state(link_id, True)

    def test_until_before_first_arrival(self, hpn_small, hpn_router):
        f = _edge_flow(hpn_small, hpn_router,
                       "pod0/seg0/host0", "pod0/seg0/host1", 0, GB,
                       start_time=1.0)
        for mode in ("full", "incremental"):
            f.reset()
            sim = FluidSimulator(hpn_small, solver=mode)
            sim.add_flows([f])
            result = sim.run(until=0.25)
            assert result.finish_time == pytest.approx(0.25)
            assert result.flow_finish == {}

    def test_flow_start_emitted_once_across_reactivation(
            self, hpn_small, hpn_router):
        """Replay re-activates the same Flow objects; the ``flow.start``
        instant fires once per reset-delimited lifetime."""
        f = _edge_flow(hpn_small, hpn_router,
                       "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
        rec = Recorder()
        sim = FluidSimulator(hpn_small, recorder=rec, solver="full")
        sim._activate(f)
        sim._activate(f)  # same object, re-activated (replay pattern)
        starts = [e for e in rec.events if e.name == "flow.start"]
        assert len(starts) == 1
        assert rec.metrics.counter("sim.flows_started").value == 1
        # a reset opens a new lifetime: the next activation emits again
        f.reset()
        rec2 = Recorder()
        run_flows(hpn_small, [f], recorder=rec2)
        assert len([e for e in rec2.events if e.name == "flow.start"]) == 1

    def test_oracle_two_dead_links_no_double_debit(self, hpn_mutable):
        """A flow crossing *two* dead links must be debited exactly once
        from each link it shares with live flows."""
        router = Router(hpn_mutable)
        # victim crosses the inter-segment fabric (many links)
        victim = _edge_flow(hpn_mutable, router,
                            "pod0/seg0/host0", "pod0/seg1/host0", 0, GB)
        # bystander shares the victim's first access link's ToR side
        bystander = _edge_flow(hpn_mutable, router,
                               "pod0/seg0/host0", "pod0/seg0/host1", 0, GB,
                               sport=50001)
        assert set(victim.path.dirlinks) & set(bystander.path.dirlinks)
        # kill two distinct links on the victim's path that the
        # bystander does NOT use
        victim_only = [dl for dl in victim.path.dirlinks
                       if dl not in set(bystander.path.dirlinks)]
        assert len(victim_only) >= 2
        dead = {victim_only[0] // 2, victim_only[-1] // 2}
        assert len(dead) == 2
        for lid in dead:
            hpn_mutable.set_link_state(lid, False)
        rates = max_min_rates([victim, bystander], _cap_of(hpn_mutable))
        assert rates[victim.flow_id] == 0.0
        # with a correct single debit the bystander owns the shared
        # access link alone: full 200G, not an inflated/corrupt share
        assert rates[bystander.flow_id] == pytest.approx(200.0)
        for lid in dead:
            hpn_mutable.set_link_state(lid, True)

    def test_incremental_two_dead_links_matches_oracle(self, hpn_mutable):
        router = Router(hpn_mutable)
        victim = _edge_flow(hpn_mutable, router,
                            "pod0/seg0/host0", "pod0/seg1/host0", 0, GB)
        bystander = _edge_flow(hpn_mutable, router,
                               "pod0/seg0/host0", "pod0/seg0/host1", 0, GB,
                               sport=50001)
        victim_only = [dl for dl in victim.path.dirlinks
                       if dl not in set(bystander.path.dirlinks)]
        dead = {victim_only[0] // 2, victim_only[-1] // 2}
        for lid in dead:
            hpn_mutable.set_link_state(lid, False)
        solver = IncrementalMaxMinSolver(_cap_of(hpn_mutable))
        solver.activate(victim)
        solver.activate(bystander)
        solver.solve()
        oracle = max_min_rates([victim, bystander], _cap_of(hpn_mutable))
        assert solver.rates[victim.flow_id] == oracle[victim.flow_id] == 0.0
        assert solver.rates[bystander.flow_id] == pytest.approx(
            oracle[bystander.flow_id])
        for lid in dead:
            hpn_mutable.set_link_state(lid, True)


# ======================================================================
# heap fill vs the list-scan reference fill and the oracle
# ======================================================================
#: hand-built corner cases, ``name -> (capacity per raw dirlink,
#: paths)``. Dense ids follow first sight, so raw ids that run against
#: dense order make the dense-id tie break visible.
SCENARIOS = {
    # equal shares (5.0) on raw 9 (dense 0) and raw 4 (dense 1)
    "tie": ({9: 10.0, 4: 10.0}, [[9], [9], [4], [4]]),
    # raw 20 (share 25) fixes one of raw 21's four flows: 75/3 == 100/4,
    # so raw 21 is pushed again under the key it already holds
    "duplicate": ({20: 25.0, 21: 100.0}, [[20, 21], [21], [21], [21]]),
    # raw 30 fixes three flows at 4e-13; raw 31 drops to 6e-13 <= eps
    # with one flow unfixed, which is zeroed; that flow keeps raw 32's
    # unfixed count up with no unfixed flow left -> liveness guard
    "exhausted": ({30: 1.2e-12, 31: 1.8e-12, 32: 10.0},
                  [[30, 31], [30, 31], [30, 31], [31, 32]]),
    # raw 40 is down: its flows are zeroed up front, debited off raw 41
    "dead": ({40: 0.0, 41: 10.0}, [[40, 41], [41], [40]]),
    # a path crossing raw 50 twice: occurrence count 2
    "multiplicity": ({50: 10.0, 51: 10.0}, [[50, 51, 50], [51], [50]]),
}
#: capacities that make ties, duplicate keys, exhaustion and dead links
#: likely in random draws too
_CAPS = (0.0, 1.2e-12, 1.8e-12, 5.0, 10.0, 25.0, 100.0)


def _synthetic(paths):
    return [
        Flow(FiveTuple("10.0.0.1", "10.0.0.2", 50000 + i, 4791), GB,
             FlowPath(nodes=["src", "dst"], dirlinks=list(path)))
        for i, path in enumerate(paths)
    ]


class _OracleSpins(Exception):
    pass


def _oracle(flows, link_gbps):
    """max_min_rates, or None where it has no trustworthy answer.

    * It has no liveness guard: a bottleneck with no flow left to fix
      repeats forever.
    * It lists a flow once per occurrence on a link, so a flow that
      crosses its bottleneck link twice is fixed and debited twice.
    """
    if any(len(set(f.path.dirlinks)) < len(f.path.dirlinks)
           for f in flows):
        return None

    def guard(_dl, _share, n):
        if n == 0:
            raise _OracleSpins

    try:
        return max_min_rates(flows, link_gbps, guard)
    except _OracleSpins:
        return None


def _drive(caps, flows, steps, list_scan=False):
    """Activate ``flows``, solve, then apply ``steps`` with a solve
    after each. Returns one ``(rates, kernel_iters, bottleneck calls)``
    per solve, floats as hex so equality is bit-for-bit, plus the live
    flow set each solve saw."""
    caps = dict(caps)
    calls = []
    solver = IncrementalMaxMinSolver(
        lambda dl: caps[dl],
        on_bottleneck=lambda dl, share, n: calls.append(
            (dl, share.hex(), n)),
    )
    if list_scan:
        solver._fill = MethodType(list_scan_fill, solver)
    for f in flows:
        solver.activate(f)
    seen = []

    def solve():
        del calls[:]
        outcome = solver.solve()
        rates = {fid: r.hex() for fid, r in sorted(solver.rates.items())}
        seen.append((rates, outcome.kernel_iters, list(calls)))
        live.append((list(solver.index.flows.values()), dict(caps)))

    live = []
    solve()
    for step in steps:
        if step[0] == "finish":
            active = sorted(solver.index.flows)
            if not active:
                continue
            solver.finish(solver.index.flows[active[step[1] % len(active)]])
        else:
            caps[step[1]] = step[2]
        solve()
    return seen, live


@st.composite
def _fill_cases(draw):
    caps = {}
    paths = []
    names = draw(st.lists(st.sampled_from(sorted(SCENARIOS)), max_size=3))
    for k, name in enumerate(names):
        # each scenario copy gets its own raw id range
        off = 100 * (k + 1)
        case_caps, case_paths = SCENARIOS[name]
        caps.update({off + dl: c for dl, c in case_caps.items()})
        paths.extend([off + dl for dl in p] for p in case_paths)
    # random links: raw ids drawn out of order, shared with scenarios
    rand = draw(st.lists(st.integers(1000, 1020), min_size=1, max_size=6,
                         unique=True))
    for dl in rand:
        caps[dl] = draw(st.sampled_from(_CAPS))
    pool = sorted(caps)
    # random paths visit a link at most once; repeats come from the
    # "multiplicity" scenario, where the oracle cannot be checked
    for _ in range(draw(st.integers(0 if paths else 1, 8))):
        paths.append(draw(st.lists(st.sampled_from(pool), min_size=1,
                                   max_size=4, unique=True)))
    paths = draw(st.permutations(paths))
    steps = draw(st.lists(st.one_of(
        st.tuples(st.just("finish"), st.integers(0, 63)),
        st.tuples(st.just("cap"), st.sampled_from(pool),
                  st.sampled_from(_CAPS)),
    ), max_size=4))
    return caps, paths, steps


class TestHeapFill:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_fill_cases())
    def test_matches_list_scan_and_oracle(self, case):
        caps, paths, steps = case
        flows = _synthetic(paths)
        heap, live = _drive(caps, flows, steps)
        ref, _ = _drive(caps, flows, steps, list_scan=True)
        # rates, iteration counts and the on_bottleneck call sequence
        assert heap == ref
        for (rates, _iters, _calls), (flows_now, caps_now) in zip(
            heap, live
        ):
            oracle = _oracle(flows_now, caps_now.__getitem__)
            if oracle is None:
                continue
            for f in flows_now:
                rate = float.fromhex(rates[f.flow_id])
                assert abs(rate - oracle[f.flow_id]) <= 1e-9

    def _run(self, name):
        caps, paths = SCENARIOS[name]
        flows = _synthetic(paths)
        [(rates, iters, calls)], _ = _drive(caps, flows, ())
        rates = {i: float.fromhex(rates[f.flow_id])
                 for i, f in enumerate(flows)}
        calls = [(dl, float.fromhex(share), n) for dl, share, n in calls]
        return rates, iters, calls

    def test_tie_breaks_to_smallest_dense_id(self):
        rates, iters, calls = self._run("tie")
        assert calls == [(9, 5.0, 2), (4, 5.0, 2)]
        assert rates == {0: 5.0, 1: 5.0, 2: 5.0, 3: 5.0}

    def test_duplicate_entry_counts_once(self, monkeypatch):
        pushed = []
        push = solver_mod.heappush

        def recording_push(heap, item):
            pushed.append(item)
            push(heap, item)

        monkeypatch.setattr(solver_mod, "heappush", recording_push)
        rates, iters, calls = self._run("duplicate")
        # raw 21 (dense 1) re-pushed under its initial key 100/4
        assert (100.0 / 4, 1) in pushed
        assert calls == [(20, 25.0, 1), (21, 25.0, 3)]
        assert iters == 2  # the stale twin is skipped, not counted
        assert set(rates.values()) == {25.0}

    def test_exhausted_link_zeroes_then_liveness_guard(self):
        rates, iters, calls = self._run("exhausted")
        share = 1.2e-12 / 3
        assert calls == [(30, share, 3), (32, 10.0, 0)]
        assert iters == 2
        assert rates == {0: share, 1: share, 2: share, 3: 0.0}

    def test_dead_link_flows_zeroed_and_debited(self):
        rates, iters, calls = self._run("dead")
        assert calls == [(41, 10.0, 1)]
        assert rates == {0: 0.0, 1: 10.0, 2: 0.0}

    def test_multiplicity_debits_each_occurrence(self):
        rates, iters, calls = self._run("multiplicity")
        assert calls[0] == (50, 10.0 / 3, 2)
        assert rates[0] == rates[2] == 10.0 / 3
        assert rates[1] == 10.0 - 10.0 / 3


def test_stack_never_imports_numpy():
    """The solver, the daemon and the CLI import no numpy, and the
    equivalence campaign runs in that process."""
    code = (
        "import sys\n"
        "import repro.cli, repro.serve\n"
        "from repro.fabric import SolverEquivalence\n"
        "r = SolverEquivalence().run_random(cases=3, seed=11)\n"
        "assert r.ok, r.failures[:3]\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
