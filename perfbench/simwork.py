"""Simulation workloads: one FluidSimulator run to completion per op.

The harness (``run_sim``) starts worker processes of this file:

* ``oracle`` builds the inputs and, unless cached, runs them once under
  the ``solver="full"`` engine and stores the finish times under
  ``perfbench/.work`` (keyed by workload, seed and an input digest);
* ``setup`` builds the inputs, reports ready and exits -- the harness
  times launch-to-ready several times and reports the median;
* ``run`` builds the inputs, reports ready, then runs one warm-up op
  per input instance and timed ops until the window closes, checking
  every op, and prints its figures as one JSON line. Each timed op sits
  between two runs of ``common.reference_ms`` and is reported scaled to
  nominal host speed by their mean; the measured times are kept too.

Inputs are made from the seed by the repo's own generators
(``repro.fabric.simbench``); the simulator only sees the built
topology, flows and link events.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import layers  # noqa: E402
from tracing import SETUP, Tracer, load_spans, summarize  # noqa: E402

#: launch-to-ready samples per run (the last worker also runs the ops)
SETUPS = 7
#: timed rounds (one op per instance) run even when the window closes
#: first; the traced run alternates untraced and traced rounds
MIN_ROUNDS = {False: 1, True: 2}
#: reference loops a worker times right after it reports ready
READY_REFS = 3
#: oracle processes run side by side (the host has 2 cores)
ORACLE_PROCS = 2

_LINK_EVENTS = {"jitter": 0.05, "fail_at_s": 0.0005, "repair_at_s": 0.0015}
WORKLOADS = {
    # §7 shape: 3 Pods x 1 segment x 8 hosts, one step; PP flows join
    # the Pods into one component. The full-solve count swings between
    # jitter draws (7 to 31 of 322 solves) and one draw's op time from
    # 0.4 to 1.0 s, so each run cycles its ops over 12 draws
    # ("instances"): the median over 12 varies between seeds about half
    # as much as over 4, and the oracle (~4 s a draw) still fits a run.
    "pp-multipod": {
        "generator": "multipod",
        "instances": 12,
        "full": dict(
            _LINK_EVENTS, pods=3, segments=1, hosts_per_segment=8,
            aggs_per_plane=8, agg_core_uplinks=2, cores_per_plane=4,
            conns=1, edge_mb=24.0, pp_mb=8.0, steps=1, step_gap_s=0.004,
        ),
        "tiny": dict(
            _LINK_EVENTS, pods=2, segments=1, hosts_per_segment=2,
            aggs_per_plane=2, agg_core_uplinks=1, cores_per_plane=2,
            conns=1, edge_mb=4.0, pp_mb=2.0, steps=1, step_gap_s=0.004,
        ),
    },
    # single-segment dual-plane rail AllReduce over several steps: many
    # one-flow incremental solves, each sweeping every link's capacity.
    # 4 steps, not 16: the full-engine oracle costs ~4 s per step and
    # runs once per seed, outside the timed window but inside the run.
    "segment-steps": {
        "generator": "reference",
        "instances": 1,
        "full": dict(_LINK_EVENTS, hosts=16, conns=2, steps=4,
                     step_gap_s=0.004, edge_mb=24.0),
        "tiny": dict(_LINK_EVENTS, hosts=4, conns=1, steps=2,
                     step_gap_s=0.004, edge_mb=4.0),
    },
}


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def build_inputs(name: str, size: str, seed: int):
    """Topology build, flow generation and routing: the set-up phase."""
    from repro.fabric import simbench

    spec = WORKLOADS[name]
    params = dict(spec[size])
    if spec["generator"] == "multipod":
        topo, flows, events, _meta = simbench.build_multipod_workload(
            params, seed)
    else:
        topo, flows, events = simbench.build_reference_workload(params, seed)
    return topo, flows, events


def input_digest(flows, events) -> str:
    h = hashlib.sha256()
    for f in flows:
        h.update(repr((f.size_bytes, f.start_time,
                       tuple(f.path.dirlinks))).encode())
    h.update(repr(events).encode())
    return h.hexdigest()[:16]


class Op:
    """One simulation to completion over reusable inputs."""

    def __init__(self, topo, flows, events):
        self.topo = topo
        self.flows = flows
        self.events = events
        self.initial_up = [(lid, link.up) for lid, link in topo.links.items()]

    def reset(self) -> None:
        for f in self.flows:
            f.reset()
        links = self.topo.links
        for lid, up in self.initial_up:
            if links[lid].up != up:
                self.topo.set_link_state(lid, up)

    def run(self, solver: str = "incremental"):
        """Timed part: build the simulator, schedule, run."""
        from repro.fabric.simulator import FluidSimulator

        sim = FluidSimulator(self.topo, solver=solver)
        sim.add_flows(self.flows)
        for t, lid, up in self.events:
            sim.schedule(t, lambda s, l=lid, u=up: s.topo.set_link_state(l, u))
        return sim.run().flow_finish

    def finishes(self, flow_finish):
        return tuple(flow_finish.get(f.flow_id) for f in self.flows)


def sub_seeds(name: str, seed: int) -> range:
    """One input instance per sub-seed; distinct seeds never share one."""
    m = WORKLOADS[name]["instances"]
    return range(seed * m, seed * m + m)


def oracle_path(name: str, size: str, seed: int, k: int,
                digest: str) -> Path:
    return common.WORK / f"oracle-{name}-{size}-{seed}.{k}-{digest}.json"


def matches_oracle(finishes, oracle) -> bool:
    from repro.fabric.simbench import EQUIVALENCE_TOL

    if len(finishes) != len(oracle):
        return False
    for a, b in zip(oracle, finishes):
        if (a is None) != (b is None):
            return False
        if a is not None and abs(a - b) / max(1.0, abs(a)) > EQUIVALENCE_TOL:
            return False
    return True


SOLVER_STATS = ("kernel_iters", "full_solves", "incremental_solves",
                "noop_solves", "mean_dirty_frac", "resolved_flows")


def worker(args) -> int:
    trace = args.trace and args.role == "run"
    tracer = Tracer()
    if trace:
        tracer.install()
    ops = [Op(*build_inputs(args.workload, args.size, sub))
           for sub in sub_seeds(args.workload, args.seed)]
    setup_routing = tracer.router_stats()
    print("READY", flush=True)
    # host speed right after set-up, for scaling launch-to-ready
    print(common.median([common.reference_ms() for _ in range(READY_REFS)]),
          flush=True)
    if args.role == "setup":
        return 0

    paths = [oracle_path(args.workload, args.size, args.seed, k,
                         input_digest(op.flows, op.events))
             for k, op in enumerate(ops)]
    if args.role == "oracle":
        for k, (op, path) in enumerate(zip(ops, paths)):
            if k % ORACLE_PROCS == args.part and not path.exists():
                op.reset()
                oracle = op.finishes(op.run(solver="full"))
                tmp = path.with_suffix(".tmp")
                tmp.write_text(json.dumps(oracle))
                tmp.replace(path)
        return 0

    # warm-up: one untimed op per instance, checked against the oracle;
    # the traced run also counts capacity lookups on them
    if trace:
        tracer.uninstall()
        tracer.count_capacity_lookups(True)
    firsts, first_ok = [], []
    for op, path in zip(ops, paths):
        op.reset()
        firsts.append(op.finishes(op.run()))
        first_ok.append(matches_oracle(firsts[-1],
                                       json.loads(path.read_text())))
    if trace:
        tracer.count_capacity_lookups(False)
    attempted, failed = len(ops), first_ok.count(False)

    # each op is timed between two runs of the reference loop and
    # scaled by their mean to nominal host speed (common.reference_ms)
    m = len(ops)
    op_ms, traced_ms, traced_tags, solver = [], [], [], []
    wall_ms, ref_ms = [], [common.reference_ms()]
    flows_done = 0
    deadline = time.monotonic() + args.seconds
    i = 0
    while i < MIN_ROUNDS[bool(trace)] * m or time.monotonic() < deadline:
        k = i % m
        op = ops[k]
        # whole rounds over the instances alternate untraced / traced
        traced = trace and (i // m) % 2 == 1
        if traced:
            tracer.tag = i
            tracer.install()
        op.reset()
        gc.collect()
        gc.disable()
        t0 = time.perf_counter()
        flow_finish = op.run()
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        ref_ms.append(common.reference_ms())
        gc.enable()
        dt = wall * common.REF_NOMINAL_MS / ((ref_ms[-2] + ref_ms[-1]) / 2)
        if traced:
            traced_ms.append(dt * 1e3)
            traced_tags.append(i)
            stats = tracer.solver.stats
            solver.append([getattr(stats, name) for name in SOLVER_STATS])
        else:
            op_ms.append(dt * 1e3)
            wall_ms.append(wall * 1e3)
            flows_done += len(flow_finish)
        finishes = op.finishes(flow_finish)
        if args.inject and i == m:
            finishes = (finishes[0] * 2.0,) + finishes[1:]
        attempted += 1
        failed += int(not (first_ok[k] and finishes == firsts[k]))
        i += 1

    out = {
        "attempted": attempted,
        "failed": failed,
        "op_ms": op_ms,
        "wall_ms": wall_ms,
        "ref_ms": ref_ms,
        "flows_done": flows_done,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if trace:
        spans_file = common.WORK / f"spans-sim-{args.workload}.json"
        tracer.dump(str(spans_file))
        out.update(
            traced_ms=traced_ms,
            traced_tags=traced_tags,
            spans_file=str(spans_file),
            setup_routing=setup_routing,
            capacity_lookups=tracer.capacity_lookups / m,
            flows=sum(len(op.flows) for op in ops) / m,
            solver={
                name: sum(row[j] for row in solver) / len(solver)
                for j, name in enumerate(SOLVER_STATS)
            },
        )
    print(json.dumps(out), flush=True)
    return 0


# ----------------------------------------------------------------------
# harness side
# ----------------------------------------------------------------------
def _worker_args(role: str, args) -> list:
    return [
        str(Path(__file__).resolve()), role,
        "--workload", args.workload, "--size", args.size,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(int(args.trace)), "--inject", str(int(args.inject)),
    ]


def _until_ready(proc) -> None:
    line = proc.stdout.readline()
    if line.strip() != "READY":
        common.stop(proc)
        raise RuntimeError(f"worker failed before ready ({line!r})")


def run_sim(args) -> None:
    # the oracle runs before anything is timed, so it may use both cores
    parts = range(min(ORACLE_PROCS, WORKLOADS[args.workload]["instances"]))
    oracles = [common.spawn(_worker_args("oracle", args)
                            + ["--part", str(j)]) for j in parts]
    for proc in oracles:
        _until_ready(proc)
    for proc in oracles:
        common.stop(proc, timeout=170.0)
        if proc.returncode != 0:
            raise RuntimeError("oracle run failed")

    setups = []
    for k in range(SETUPS):
        role = "run" if k == SETUPS - 1 else "setup"
        t0 = time.perf_counter()
        proc = common.spawn(_worker_args(role, args))
        _until_ready(proc)
        ready_s = time.perf_counter() - t0
        ref_ms = float(proc.stdout.readline())
        setups.append(ready_s * common.REF_NOMINAL_MS / ref_ms)
        if role == "setup":
            common.stop(proc)
    cpu0, wall0 = time.process_time(), time.perf_counter()
    res = common.read_result(proc)
    busy = (time.process_time() - cpu0) / (time.perf_counter() - wall0)

    if not args.trace:
        metrics = {
            "setup_s": common.median(setups),
            "op_p50_ms": common.median(res["op_ms"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        common.emit(res["attempted"], res["failed"], {
            k: (v, common.END_TO_END[k]) for k, v in metrics.items()
        })
        return

    spans = load_spans(res["spans_file"])
    n = len(res["traced_tags"])
    setup = summarize(spans, [SETUP])
    ops = summarize(spans, res["traced_tags"])
    routing = res["setup_routing"]
    lookups = routing["hits"] + routing["misses"]
    values = {
        "topos.build_s": layers.span_total(setup, ["topos.build_hpn"]),
        "collective.flowgen_s": layers.span_total(
            setup, layers.COLLECTIVE_SPANS, "outer"),
        "collective.flows": res["flows"],
        "routing.route_s": layers.span_total(
            setup, layers.ROUTING_SPANS, "outer"),
        "routing.calls": layers.span_total(
            setup, layers.ROUTING_SPANS, "calls"),
        "routing.hits": routing["hits"],
        "routing.misses": routing["misses"],
        "routing.invalidations": routing["invalidations"],
        "routing.hit_rate": routing["hits"] / lookups if lookups else 0.0,
        "routing.fib_compiles": routing["fib_compiles"],
        "fabric.run_s": layers.span_total(ops, ["fabric.run"]) / n,
        "fabric.solve_s": layers.span_total(ops, ["fabric.solve"]) / n,
        "fabric.fill_self_s": layers.span_total(
            ops, ["fabric.solve"], "self") / n,
        "fabric.refresh_s": layers.span_total(
            ops, ["fabric.refresh_capacities"]) / n,
        "fabric.component_s": layers.span_total(
            ops, ["fabric.component"]) / n,
        "fabric.loop_self_s": layers.span_total(
            ops, ["fabric.run"], "self") / n,
        "fabric.capacity_lookups": res["capacity_lookups"],
    }
    values.update(layers.diagnostics(
        res["op_ms"], res["traced_ms"], busy, res["wall_ms"], res["ref_ms"],
        res["flows_done"] / len(res["op_ms"])))
    values.update({f"fabric.{k}": v for k, v in res["solver"].items()})
    common.emit(res["attempted"], res["failed"], layers.complete(values))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("role", choices=["oracle", "setup", "run"])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--size", default="full", choices=["full", "tiny"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--inject", type=int, default=0)
    p.add_argument("--part", type=int, default=0,
                   help="oracle: handle instances k with k %% 2 == part")
    args = p.parse_args(argv)
    common.require_program()
    return worker(args)


if __name__ == "__main__":
    sys.exit(main())
