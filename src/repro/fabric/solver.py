"""Incremental max-min solver: dirty-set re-solve over a persistent index.

The progressive-filling allocation decomposes over connected components
of the flow<->link incidence graph: two flows that share no link (even
transitively) cannot influence each other's fair share. The
:class:`IncrementalMaxMinSolver` exploits that -- events (flow arrival,
completion, link state change) mark flows/links *dirty*, and the next
solve re-runs progressive filling only on the connected component
reachable from the dirty set, splicing frozen rates for the untouched
remainder. When the dirty component covers most of the graph the solver
falls back to one array-backed full solve (no dict rebuild either way:
the :class:`~repro.fabric.incidence.IncidenceIndex` persists across
events).

The legacy :func:`repro.fabric.simulator.max_min_rates` stays intact as
the differential-testing oracle; :class:`SolverEquivalence` drives both
through randomized topologies, flow sets, and failure scripts and
asserts the rates agree to ``1e-9``.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .flow import Flow
from .incidence import IncidenceIndex

#: numerical guard for "rate/capacity is zero"
_EPS = 1e-12


@dataclass
class SolverStats:
    """Counters the solver keeps; mirrored into obs by the simulator."""

    full_solves: int = 0
    incremental_solves: int = 0
    noop_solves: int = 0
    #: flows re-solved, summed over boundaries (vs. flows active)
    resolved_flows: int = 0
    active_flow_boundaries: int = 0
    #: progressive-filling iterations, summed over fills
    kernel_iters: int = 0

    @property
    def solves(self) -> int:
        return self.full_solves + self.incremental_solves

    @property
    def mean_dirty_frac(self) -> float:
        """Average fraction of active flows re-solved per boundary."""
        if not self.active_flow_boundaries:
            return 0.0
        return self.resolved_flows / self.active_flow_boundaries


@dataclass
class SolveOutcome:
    """What one :meth:`IncrementalMaxMinSolver.solve` call did."""

    #: "noop" (nothing dirty), "incremental", or "full"
    mode: str
    #: flow ids whose rate may have changed this solve
    touched: FrozenSet[int]
    #: |touched| / |active| for this boundary (0.0 on noop)
    dirty_frac: float
    #: progressive-filling iterations this solve ran
    kernel_iters: int = 0


_NOOP = SolveOutcome("noop", frozenset(), 0.0)


class IncrementalMaxMinSolver:
    """Event-maintained max-min fairness over an incidence index.

    ``link_gbps(raw_dirlink)`` supplies capacities (0 marks a link
    down). ``full_threshold`` is the dirty-component size (as a
    fraction of active flows) beyond which a full solve is cheaper
    than BFS + component fill; 0 forces every solve full, 1 never
    falls back on size alone. ``on_bottleneck(raw_dirlink, share,
    flows_fixed)`` fires per progressive-filling iteration, exactly
    like the oracle's hook.
    """

    def __init__(
        self,
        link_gbps: Callable[[int], float],
        full_threshold: float = 0.5,
        on_bottleneck: Optional[Callable[[int, float, int], None]] = None,
    ):
        if not 0.0 <= full_threshold <= 1.0:
            raise ValueError("full_threshold must be within [0, 1]")
        self.index = IncidenceIndex()
        self.full_threshold = full_threshold
        self.on_bottleneck = on_bottleneck
        self.stats = SolverStats()
        #: committed rate (Gbps) per active flow id -- the splice target
        self.rates: Dict[int, float] = {}
        self._link_gbps = link_gbps
        self._dirty_flows: Set[int] = set()
        self._dirty_links: Set[int] = set()

    # -- event notifications -------------------------------------------
    def activate(self, flow: Flow) -> None:
        """A flow became active: index it and mark it dirty."""
        self.index.add(flow, self._link_gbps)
        self._dirty_flows.add(flow.flow_id)

    def finish(self, flow: Flow) -> None:
        """A flow completed: remove it and dirty the links it vacates."""
        dense_links = self.index.remove(flow)
        self._dirty_links.update(dense for dense, _m in dense_links)
        self.rates.pop(flow.flow_id, None)

    def mark_link_dirty(self, raw_dirlink: int) -> None:
        """Explicitly dirty a link (capacity sweeps catch this anyway)."""
        dense = self.index.dense_of.get(raw_dirlink)
        if dense is not None:
            self._dirty_links.add(dense)

    # ------------------------------------------------------------------
    def solve(self) -> SolveOutcome:
        """Bring :attr:`rates` up to date; returns what was re-solved."""
        self._dirty_links.update(
            self.index.refresh_capacities(self._link_gbps)
        )
        n_active = len(self.index.flows)
        if not self._dirty_flows and not self._dirty_links:
            self.stats.noop_solves += 1
            return _NOOP
        stats = self.stats
        stats.active_flow_boundaries += n_active
        limit = int(self.full_threshold * n_active)
        comp = self.index.component(
            self._dirty_flows, self._dirty_links, limit
        )
        self._dirty_flows.clear()
        self._dirty_links.clear()
        if comp is None:
            touched = frozenset(self.index.flows)
            iters = self._fill(touched)
            stats.full_solves += 1
            stats.resolved_flows += n_active
            stats.kernel_iters += iters
            return SolveOutcome("full", touched, 1.0, kernel_iters=iters)
        comp_flows, _comp_links = comp
        touched = frozenset(comp_flows)
        iters = self._fill(touched)
        stats.incremental_solves += 1
        stats.resolved_flows += len(touched)
        stats.kernel_iters += iters
        frac = len(touched) / n_active if n_active else 0.0
        return SolveOutcome("incremental", touched, frac,
                            kernel_iters=iters)

    # ------------------------------------------------------------------
    def _fill(self, flow_ids: FrozenSet[int]) -> int:
        """Progressive filling over ``flow_ids``, splicing into rates.

        Exact for any union of connected components: every flow on a
        participating link is in ``flow_ids`` (BFS closure), so link
        capacities need no adjustment for frozen outside flows.

        The fill follows the **canonical order**: the bottleneck is
        the live link with the smallest fair share, ties to the
        smallest dense link id; newly fixed flows debit in ascending
        flow-id order, each along its links in path order. Live links
        sit in a lazy-invalidation heap keyed ``(share, dense)``: a
        popped entry counts only if its link is still live and its
        share still equals ``residual / unfixed``. After each fix only
        the links the fixed flows cross are re-checked and re-pushed.
        Returns the iteration count.
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

        live = bytearray(len(residual))
        heap: List[Tuple[float, int]] = []
        for dense in participating:
            if unfixed[dense] > 0 and residual[dense] > _EPS:
                live[dense] = 1
                heap.append((residual[dense] / unfixed[dense], dense))
        heapify(heap)
        on_bottleneck = self.on_bottleneck
        dirlinks = idx.dirlinks
        iterations = 0
        while heap:
            share, bottleneck = heappop(heap)
            if (not live[bottleneck]
                    or share != residual[bottleneck] / unfixed[bottleneck]):
                continue  # stale entry: the link moved on or retired
            newly = sorted(
                fid for fid in link_flows[bottleneck] if fid not in fixed
            )
            iterations += 1
            if on_bottleneck is not None:
                on_bottleneck(dirlinks[bottleneck], share, len(newly))
            if not newly:
                # only drained-to-zero flows remain on this link: it
                # can make no further progress -- retire it (liveness
                # guard)
                live[bottleneck] = 0
                continue
            touched: Set[int] = set()
            for fid in newly:
                rates[fid] = share
                fixed.add(fid)
                for dense, mult in flow_links[fid]:
                    residual[dense] -= share * mult
                    unfixed[dense] -= mult
                    touched.add(dense)
            for dense in touched:
                if not live[dense]:
                    continue
                if unfixed[dense] > 0 and residual[dense] > _EPS:
                    heappush(heap, (residual[dense] / unfixed[dense], dense))
                    continue
                live[dense] = 0
                if unfixed[dense] > 0:
                    # capacity exhausted with flows still unfixed: they
                    # get ~0 (mirrors the oracle: no further debits)
                    for fid in link_flows[dense]:
                        if fid not in fixed:
                            rates[fid] = 0.0
                            fixed.add(fid)
        # flows never constrained by any link (e.g. empty paths) match
        # the oracle's terminal setdefault: rate 0
        for fid in flow_ids:
            if fid not in fixed:
                rates[fid] = 0.0
        return iterations


# ======================================================================
# differential-testing harness: incremental engine vs the full oracle
# ======================================================================
@dataclass
class EquivalenceReport:
    """Outcome of one randomized equivalence campaign."""

    cases: int = 0
    solves_checked: int = 0
    flows_checked: int = 0
    max_rate_err: float = 0.0
    max_finish_err: float = 0.0
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "cases": self.cases,
            "solves_checked": self.solves_checked,
            "flows_checked": self.flows_checked,
            "max_rate_err": self.max_rate_err,
            "max_finish_err": self.max_finish_err,
            "failures": list(self.failures),
            "ok": self.ok,
        }


class SolverEquivalence:
    """Asserts incremental == full (oracle) to ``tol`` everywhere.

    Two layers of checking:

    * :meth:`check_rates` -- drive one solver through a scripted event
      sequence, comparing its spliced rates against a from-scratch
      oracle solve after every step;
    * :meth:`check_run` -- run a full :class:`FluidSimulator` twice
      over the same flow objects (reset in between), once per engine,
      and compare ``SimResult.flow_finish``;
    * :meth:`run_random` -- a seeded campaign of randomized topologies,
      flow sets, and failure scripts through both layers.
    """

    def __init__(self, tol: float = 1e-9):
        self.tol = tol

    # ------------------------------------------------------------------
    def check_rates(
        self,
        flows: Sequence[Flow],
        link_gbps: Callable[[int], float],
        script: Sequence[Tuple[str, object]] = (),
        report: Optional[EquivalenceReport] = None,
        label: str = "case",
    ) -> EquivalenceReport:
        """Differential-test the solver state machine.

        ``script`` is a sequence of ``("activate", flow)``,
        ``("finish", flow)``, and ``("cap", (dirlink, gbps))`` steps
        applied on top of activating ``flows``; after every solve the
        spliced rates are compared to the oracle on the live set.
        """
        from .simulator import max_min_rates

        report = report if report is not None else EquivalenceReport()
        caps: Dict[int, float] = {}

        def capacity(dl: int) -> float:
            return caps.get(dl, link_gbps(dl))

        solver = IncrementalMaxMinSolver(capacity)
        for f in flows:
            solver.activate(f)

        def compare(step: str) -> None:
            solver.solve()
            live = list(solver.index.flows.values())
            oracle = max_min_rates(live, capacity)
            report.solves_checked += 1
            for f in live:
                err = abs(solver.rates[f.flow_id] - oracle[f.flow_id])
                report.flows_checked += 1
                if err > report.max_rate_err:
                    report.max_rate_err = err
                if err > self.tol:
                    report.failures.append(
                        f"{label}/{step}: flow {f.flow_id} incremental="
                        f"{solver.rates[f.flow_id]!r} oracle="
                        f"{oracle[f.flow_id]!r} (err {err:.3e})"
                    )

        compare("initial")
        for i, (op, arg) in enumerate(script):
            if op == "activate":
                solver.activate(arg)  # type: ignore[arg-type]
            elif op == "finish":
                solver.finish(arg)  # type: ignore[arg-type]
            elif op == "cap":
                dl, gbps = arg  # type: ignore[misc]
                caps[dl] = gbps
            else:
                raise ValueError(f"unknown script op {op!r}")
            compare(f"step{i}:{op}")
        return report

    # ------------------------------------------------------------------
    def check_run(
        self,
        topo,
        flows: Sequence[Flow],
        events: Sequence[Tuple[float, int, bool]] = (),
        report: Optional[EquivalenceReport] = None,
        label: str = "case",
        full_threshold: float = 0.5,
        modes: Sequence[str] = ("full", "incremental"),
    ) -> EquivalenceReport:
        """End-to-end: every engine over identical flows and failures.

        ``events`` are ``(time, link_id, up)`` link-state transitions.
        ``modes`` names the engines to compare -- the first is the
        baseline. Link states are restored and flows reset between (and
        after) the runs, so callers keep reusable inputs.
        """
        from .simulator import FluidSimulator

        report = report if report is not None else EquivalenceReport()
        initial_up = {lid: link.up for lid, link in topo.links.items()}

        def one_run(mode: str) -> Dict[int, float]:
            sim = FluidSimulator(topo, solver=mode,
                                 full_solve_threshold=full_threshold)
            sim.add_flows(flows)
            for t, lid, up in events:
                sim.schedule(
                    t, lambda s, l=lid, u=up: s.topo.set_link_state(l, u)
                )
            try:
                return sim.run().flow_finish
            finally:
                for lid, up in initial_up.items():
                    topo.set_link_state(lid, up)
                for f in flows:
                    f.reset()

        base_mode = modes[0]
        finish_base = one_run(base_mode)
        report.cases += 1
        for mode in modes[1:]:
            finish_other = one_run(mode)
            for f in flows:
                a = finish_base.get(f.flow_id)
                b = finish_other.get(f.flow_id)
                report.flows_checked += 1
                if (a is None) != (b is None):
                    report.failures.append(
                        f"{label}: flow {f.flow_id} finished in one "
                        f"engine only ({base_mode}={a!r} {mode}={b!r})"
                    )
                    continue
                if a is None or b is None:
                    continue
                err = abs(a - b)
                if err > report.max_finish_err:
                    report.max_finish_err = err
                if err > self.tol * max(1.0, abs(a)):
                    report.failures.append(
                        f"{label}: flow {f.flow_id} finish "
                        f"{base_mode}={a!r} {mode}={b!r} (err {err:.3e})"
                    )
        return report

    # ------------------------------------------------------------------
    def run_random(self, cases: int = 50, seed: int = 0,
                   max_flows: int = 60,
                   modes: Sequence[str] = ("full", "incremental"),
                   ) -> EquivalenceReport:
        """A seeded campaign of randomized topology/flow/failure cases.

        Each case runs every engine in ``modes`` through
        :meth:`check_run` (the first is the baseline, by default the
        full oracle), then drives the solver state machine through a
        scripted subset of the same flows in :meth:`check_rates`.
        """
        rng = random.Random(seed)
        report = EquivalenceReport()
        for case in range(cases):
            built = random_case(rng, max_flows, tag=f"eqv{case}")
            if built is None:
                continue
            topo, flows, events = built
            self.check_run(topo, flows, events, report=report,
                           label=f"case{case}", modes=modes)
            # scripted solver-state check on a subset of the same flows
            sample = rng.sample(flows, min(len(flows), 12))
            script: List[Tuple[str, object]] = []
            for f in sample[: len(sample) // 2]:
                script.append(("finish", f))
            if events:
                script.insert(
                    rng.randrange(len(script) + 1),
                    ("cap", (events[0][1] * 2, 0.0)),
                )
            self.check_rates(
                flows,
                lambda dl: topo.links[dl // 2].gbps
                if topo.links[dl // 2].up else 0.0,
                script,
                report=report,
                label=f"case{case}/rates",
            )
        return report


def random_case(
    rng: random.Random, max_flows: int = 60, tag: str = "eqv",
) -> Optional[Tuple[object, List[Flow], List[Tuple[float, int, bool]]]]:
    """One randomized ``(topology, flows, link_events)`` case.

    HPN, rail-only, or single-ToR fabric; random same-rail flows routed
    through the shared router; with probability 0.6 one link on some
    flow's path fails and is repaired later. ``None`` when fewer than
    two flows routed.
    """
    from ..routing import FiveTuple, shared_router
    from ..topos import (
        HpnSpec,
        RailOnlySpec,
        SingleTorSpec,
        build_hpn,
        build_railonly,
        build_singletor,
    )

    shape = rng.random()
    if shape < 0.55:
        topo = build_hpn(HpnSpec(
            segments_per_pod=rng.choice([1, 2]),
            hosts_per_segment=rng.choice([4, 6, 8]),
            backup_hosts_per_segment=0,
            aggs_per_plane=rng.choice([2, 4]),
            agg_core_uplinks=0,
        ))
    elif shape < 0.75:
        topo = build_railonly(RailOnlySpec(
            segments_per_pod=rng.choice([1, 2]),
            hosts_per_segment=rng.choice([4, 8]),
            aggs_per_plane=rng.choice([2, 4]),
        ))
    else:
        topo = build_singletor(SingleTorSpec(
            segments=rng.choice([1, 2]),
            hosts_per_segment=rng.choice([4, 8]),
        ))
    router = shared_router(topo)
    hosts = sorted(topo.hosts)
    rails = [n.rail for n in topo.hosts[hosts[0]].backend_nics()]
    flows: List[Flow] = []
    n_flows = rng.randrange(8, max_flows)
    requests = []
    for i in range(n_flows):
        src, dst = rng.sample(hosts, 2)
        rail = rng.choice(rails) if rails else 0
        a = topo.hosts[src].nic_for_rail(rail)
        b = topo.hosts[dst].nic_for_rail(rail)
        requests.append((a, b, FiveTuple(a.ip, b.ip, 49152 + i, 4791), None))
    paths = router.route_many(requests, strict=False)
    for (a, b, ft, _plane), path in zip(requests, paths):
        if path is None:
            continue
        f = Flow(ft, rng.uniform(1e6, 5e8), path,
                 start_time=rng.choice([0.0, 0.0, rng.uniform(0, 0.01)]),
                 tag=tag)
        flows.append(f)
    if len(flows) < 2:
        return None
    events: List[Tuple[float, int, bool]] = []
    if rng.random() < 0.6:
        victim = rng.choice(flows)
        lid = rng.choice(victim.path.dirlinks) // 2
        t_down = rng.uniform(0.0001, 0.005)
        events.append((t_down, lid, False))
        events.append((t_down + rng.uniform(0.001, 0.01), lid, True))
    return topo, flows, events
