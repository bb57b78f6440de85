"""Serve workloads: ``repro serve`` driven over one keep-alive socket.

This process is the load generator. It builds the same topology as the
daemon, draws a query pool from the seed, computes every expected
response with ``ServeState.execute_oracle`` in its own process, then
drives the daemon closed loop over one connection, no threads: the
next request goes out when the previous response is in. Each response
must be byte-identical to the oracle's JSON.

Set-up is timed from launching the daemon to ``/healthz`` answering,
several times per run (median reported); the last daemon serves the
timed window. The traced run also starts ``daemon.py`` (the same
daemon with span wrappers) and alternates requests between the two.
"""

from __future__ import annotations

import gc
import json
import random
import re
import socket
import time
from typing import Dict, List, Optional, Tuple

import common
import layers
from tracing import SETUP, load_spans, merged_durations, summarize

SETUPS = 7
MIN_OPS = 20
#: peak RSS is read after this many timed requests: serve-batch keeps
#: sending never-seen five-tuples, which the daemon caches, so reading
#: at the window's end would tie memory to throughput
RSS_AT_OPS = 1000
#: ops generated before the window, per window second (ahead of need)
PREGEN_PER_S = {1: 2000, 64: 500}

DAEMON_ARGS = ["serve", "--segments", "2", "--hosts", "8", "--aggs", "4",
               "--port", "0"]
SPEC = dict(segments_per_pod=2, hosts_per_segment=8,
            backup_hosts_per_segment=0, aggs_per_plane=4)

_MIX = dict(planes_frac=0.10, repac_frac=0.03, repac_pairs=3, conns=2)
WORKLOADS = {
    # one /v1/query per request: every request waits out the batch window
    "serve-single": dict(_MIX, batch=1, whatif_frac=0.01, whatif_sets=2,
                         fresh_per_op=0),
    # 64-query /v1/batch requests; heavier what-if share, and 4 path
    # queries per request with five-tuples never sent before
    "serve-batch": dict(_MIX, batch=64, whatif_frac=0.05, whatif_sets=4,
                        fresh_per_op=4),
}
POOL_PAIRS = {"full": 120, "tiny": 12}


# ----------------------------------------------------------------------
# inputs and their oracle
# ----------------------------------------------------------------------
class Inputs:
    """Seeded query stream with the oracle's JSON for every query."""

    def __init__(self, name: str, size: str, seed: int):
        from repro.cluster import Cluster
        from repro.serve import Query, ServeState
        from repro.topos.spec import HpnSpec

        self.Query = Query
        self.p = WORKLOADS[name]
        self.rng = random.Random(seed)
        topo = Cluster.hpn(HpnSpec(**SPEC)).topo
        self.oracle = ServeState(topo, fresh=True)
        self.hosts = sorted(h.name for h in topo.active_hosts())
        self.rails = sorted({n.rail for n in next(
            iter(topo.hosts.values())).backend_nics()})
        self.frag: Dict[object, Tuple[bytes, bytes]] = {}
        self.sent_keys = set()
        self.next_sport = 50000
        self._pools(topo, POOL_PAIRS[size])
        self.ops: List[Tuple[tuple, int]] = []

    def _pair(self) -> Tuple[str, str]:
        rng, hosts = self.rng, self.hosts
        src = hosts[rng.randrange(len(hosts))]
        dst = src
        while dst == src:
            dst = hosts[rng.randrange(len(hosts))]
        return src, dst

    def _pools(self, topo, pairs: int) -> None:
        Query, rng, p = self.Query, self.rng, self.p
        self.path_pool, self.planes_pool = [], []
        for _ in range(pairs):
            src, dst = self._pair()
            rail = self.rails[rng.randrange(len(self.rails))]
            for c in range(p["conns"]):
                self.path_pool.append(Query(
                    kind="path", src_host=src, dst_host=dst,
                    src_rail=rail, dst_rail=rail, sport=49152 + c))
            self.planes_pool.append(Query(
                kind="planes", src_host=src, dst_host=dst,
                src_rail=rail, dst_rail=rail))
        self.repac_pool = []
        for _ in range(p["repac_pairs"]):
            src, dst = self._pair()
            self.repac_pool.append(Query(
                kind="repac", src_host=src, dst_host=dst,
                num_paths=3, sport_span=48))
        link_ids = sorted(topo.links)
        self.whatif_pool = []
        for _ in range(p["whatif_sets"]):
            src, dst = self._pair()
            lid = link_ids[rng.randrange(len(link_ids))]
            self.whatif_pool.append(Query(
                kind="residual", src_host=src, dst_host=dst,
                num_paths=2, sport_span=32, fail_links=(lid,)))
        self.pool = (self.path_pool + self.planes_pool + self.repac_pool
                     + self.whatif_pool)
        for q in self.pool:
            self.fragments(q)

    def fragments(self, q) -> Tuple[bytes, bytes]:
        """(request JSON, expected response JSON) for one query."""
        got = self.frag.get(q)
        if got is None:
            got = (json.dumps(q.to_jsonable()).encode(),
                   json.dumps(self.oracle.execute_oracle(q),
                              sort_keys=True).encode())
            self.frag[q] = got
            key = (q.src_host, q.dst_host, q.src_rail, q.sport)
            self.sent_keys.add(key)
        return got

    def _draw(self):
        p, rng = self.p, self.rng
        roll = rng.random()
        if roll < p["whatif_frac"]:
            pool = self.whatif_pool
        elif roll < p["whatif_frac"] + p["repac_frac"]:
            pool = self.repac_pool
        elif roll < p["whatif_frac"] + p["repac_frac"] + p["planes_frac"]:
            pool = self.planes_pool
        else:
            pool = self.path_pool
        return pool[rng.randrange(len(pool))]

    def _fresh(self):
        """A path query whose five-tuple was never sent before."""
        while True:
            src, dst = self._pair()
            rail = self.rails[self.rng.randrange(len(self.rails))]
            sport = self.next_sport
            self.next_sport = 50000 + (self.next_sport - 49999) % 15000
            if (src, dst, rail, sport) not in self.sent_keys:
                return self.Query(kind="path", src_host=src, dst_host=dst,
                                  src_rail=rail, dst_rail=rail, sport=sport)

    def op(self, i: int) -> Tuple[tuple, int]:
        """The ``i``-th request: (query fragments, query count)."""
        while len(self.ops) <= i:
            n = self.p["batch"]
            queries = [self._draw() for _ in range(n - self.p["fresh_per_op"])]
            for _ in range(self.p["fresh_per_op"]):
                queries.insert(self.rng.randrange(len(queries) + 1),
                               self._fresh())
            self.ops.append((tuple(self.fragments(q) for q in queries), n))
        return self.ops[i]


def request_body(frags, batch: bool) -> bytes:
    if not batch:
        return frags[0][0]
    return b'{"queries": [' + b", ".join(f[0] for f in frags) + b"]}"


def expected_body(frags, batch: bool) -> bytes:
    if not batch:
        return frags[0][1]
    return b'{"results": [' + b", ".join(f[1] for f in frags) + b"]}"


# ----------------------------------------------------------------------
# daemon processes and the wire
# ----------------------------------------------------------------------
class Conn:
    """Minimal keep-alive HTTP/1.1 client over one socket."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def request(self, method: str, path: str,
                body: bytes = b"") -> Tuple[int, bytes]:
        self.sock.sendall(
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
        while b"\r\n\r\n" not in self.buf:
            self._recv()
        head, _, rest = self.buf.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            key, _, value = line.partition(b":")
            if key.strip().lower() == b"content-length":
                length = int(value)
        self.buf = rest
        while len(self.buf) < length:
            self._recv()
        body, self.buf = self.buf[:length], self.buf[length:]
        return status, body

    def _recv(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        self.buf += chunk

    def json(self, path: str) -> dict:
        status, body = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"{path} returned {status}")
        return json.loads(body)

    def close(self) -> None:
        self.sock.close()


class Daemon:
    """One daemon process; ``ready_s`` is launch to ``/healthz`` 200."""

    def __init__(self, traced: bool, spans_file: Optional[str] = None):
        self.conn: Optional[Conn] = None
        t0 = time.perf_counter()
        if traced:
            self.proc = common.spawn(
                [str(common.BENCH / "daemon.py"), spans_file, *DAEMON_ARGS])
        else:
            self.proc = common.spawn(["-m", "repro", *DAEMON_ARGS])
        try:
            line = self.proc.stdout.readline()
            match = re.search(r"http://[\d.]+:(\d+)", line)
            if match is None:
                raise RuntimeError(f"daemon did not start ({line!r})")
            self.conn = Conn(int(match.group(1)))
            self.conn.json("/healthz")
        except BaseException:
            self.shutdown()
            raise
        self.ready_s = time.perf_counter() - t0
        self.ready_mono = time.monotonic()

    def shutdown(self) -> None:
        try:
            if self.conn is None:
                raise ConnectionError("never connected")
            self.conn.request("POST", "/admin/shutdown", b"{}")
            self.conn.close()
        except OSError:
            self.proc.terminate()
        common.stop(self.proc)


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------
def _stats_delta(before: dict, after: dict) -> dict:
    out = {}
    for part in ("batch", "cache", "probe_cache"):
        out[part] = {
            k: after[part][k] - before[part][k]
            for k in after[part] if isinstance(after[part][k], int)
        }
    b0, b1 = before["batch"], after["batch"]
    out["batch"]["batched_queries"] = round(
        b1["mean_batch_size"] * b1["batches"]
        - b0["mean_batch_size"] * b0["batches"])
    return out


def run_serve(args) -> None:
    inputs = Inputs(args.workload, args.size, args.seed)
    batch = inputs.p["batch"] > 1
    path = "/v1/batch" if batch else "/v1/query"
    pregen = int(PREGEN_PER_S[inputs.p["batch"]] * args.seconds)
    for i in range(pregen):
        inputs.op(i)

    daemons: List[Daemon] = []
    try:
        setups = []
        n_setups = 1 if args.trace else SETUPS
        for _ in range(n_setups):
            if daemons:
                daemons.pop().shutdown()
            daemons.append(Daemon(traced=False))
            setups.append(daemons[-1].ready_s)
        if args.trace:
            spans_file = str(common.WORK / f"spans-{args.workload}.json")
            daemons.append(Daemon(traced=True, spans_file=spans_file))

        attempted = failed = 0
        # warm-up: the whole pool in batches, then some ops of the mode
        pool = [inputs.fragments(q) for q in inputs.pool]
        for d in daemons:
            for k in range(0, len(pool), 64):
                chunk = pool[k:k + 64]
                status, body = d.conn.request(
                    "POST", "/v1/batch", request_body(chunk, True))
                attempted += 1
                failed += int(status != 200
                              or body != expected_body(chunk, True))
        for i in range(MIN_OPS):
            frags, _n = inputs.op(pregen + i)
            for d in daemons:
                status, body = d.conn.request(
                    "POST", path, request_body(frags, batch))
                attempted += 1
                failed += int(status != 200
                              or body != expected_body(frags, batch))
        traced_d = daemons[-1] if args.trace else None
        before = traced_d.conn.json("/stats") if traced_d else None

        gc.collect()
        gc.freeze()
        gc.disable()
        op_ms, traced_ms = [], []
        rss = None
        i = 0
        cpu0 = time.process_time()
        win0_mono = time.monotonic()
        t_start = time.perf_counter()
        deadline = t_start + args.seconds
        while i < MIN_OPS or time.perf_counter() < deadline:
            frags, n = inputs.op(i)
            d = daemons[i % len(daemons)]
            body = request_body(frags, batch)
            t0 = time.perf_counter()
            status, resp = d.conn.request("POST", path, body)
            dt = time.perf_counter() - t0
            if args.inject and i == 3:
                resp = resp[:-1] + b"!"
            ok = status == 200 and resp == expected_body(frags, batch)
            attempted += 1
            failed += int(not ok)
            if d is traced_d:
                traced_ms.append(dt * 1e3)
            else:
                op_ms.append(dt * 1e3)
            i += 1
            if i == RSS_AT_OPS:
                rss = common.peak_rss_mb(daemons[0].proc.pid)
        wall = time.perf_counter() - t_start
        win1_mono = time.monotonic()
        busy = (time.process_time() - cpu0) / wall
        gc.enable()
        gc.unfreeze()

        after = traced_d.conn.json("/stats") if traced_d else None
        if rss is None:
            rss = common.peak_rss_mb(daemons[0].proc.pid)
    finally:
        for d in daemons:
            d.shutdown()

    if not args.trace:
        metrics = {
            "setup_s": common.median(setups),
            "op_p50_ms": common.median(op_ms),
            "peak_rss_mb": rss,
        }
        common.emit(attempted, failed, {
            k: (v, common.END_TO_END[k]) for k, v in metrics.items()
        })
        return

    # daemon spans: set-up before /healthz answered, op inside the window
    spans = []
    for sid, parent, name, t0, t1, _tag in load_spans(spans_file):
        if t1 <= traced_d.ready_mono:
            tag = SETUP
        elif t0 >= win0_mono and t1 <= win1_mono:
            tag = 0
        else:
            tag = 1
        spans.append((sid, parent, name, t0, t1, tag))
    setup = summarize(spans, [SETUP])
    ops = summarize(spans, [0])
    n = len(traced_ms)
    delta = _stats_delta(before, after)
    live, probe, bstats = delta["cache"], delta["probe_cache"], delta["batch"]
    hits = live["hits"] + probe["hits"]
    misses = live["misses"] + probe["misses"]
    submit_ms = common.median(
        merged_durations([s for s in spans if s[5] == 0], "serve.submit")
    ) * 1e3

    def rate(part: dict) -> float:
        total = part["hits"] + part["misses"]
        return part["hits"] / total if total else 0.0

    values = {
        "topos.build_s": layers.span_total(setup, ["topos.build_hpn"]),
        "routing.route_s": layers.span_total(
            ops, layers.ROUTING_SPANS, "outer") / n,
        "routing.calls": layers.span_total(
            ops, layers.ROUTING_SPANS, "calls") / n,
        "routing.hits": hits / n,
        "routing.misses": misses / n,
        "routing.invalidations": (
            live["invalidations"] + probe["invalidations"]) / n,
        "routing.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "routing.fib_compiles": after["cache"]["fib_compiles"]
        + after["probe_cache"]["fib_compiles"],
        "serve.submit_ms": submit_ms,
        "serve.execute_s": layers.span_total(
            ops, ["serve.execute_batch"]) / n,
        "serve.http_self_ms": common.median(traced_ms) - submit_ms,
        "serve.batches": bstats["batches"] / n,
        "serve.mean_batch_size": (bstats["batched_queries"] / bstats["batches"]
                                  if bstats["batches"] else 0.0),
        "serve.deduped": bstats["deduped"] / n,
        "serve.flushed_deadline": bstats["flushed_deadline"] / n,
        "serve.flushed_full": bstats["flushed_full"] / n,
        "serve.cache_hit_rate": rate(live),
        "serve.probe_cache_hit_rate": rate(probe),
    }
    # the ops run in the daemon, so they are reported as measured; the
    # reference loop only shows the host speed of the run
    ref_ms = [common.reference_ms() for _ in range(9)]
    values.update(layers.diagnostics(op_ms, traced_ms, busy, op_ms, ref_ms,
                                     inputs.p["batch"]))
    common.emit(attempted, failed, layers.complete(values))
