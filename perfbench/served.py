"""Served workloads: a closed loop of two connections against ``serve``.

One pass = start a ``python -m repro serve --checkpoint-dir`` process
(default flags otherwise: WAL fsync=always, 5 s checkpoint cron, 1 s
snapshot cron), create the workload's sketch, replay the pre-generated
plan of each connection with one request in flight per connection,
then verify the server's state against a serial replay of every acked
batch.  A traced pass runs the server under ``perfbench/child.py``.
"""

from __future__ import annotations

import asyncio
import os
import re
import select
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from common import (
    BenchError,
    child_env,
    latency_summary,
    now,
    stop_process,
    vm_hwm_mb,
)

CONNECTIONS = 2
REQUEST_TIMEOUT = 60.0
#: Seconds of load before the timed window opens, so that the first
#: folds' page faults and buffer allocations fall outside it.
WARMUP = 1.0
#: Seconds the last requests may take after the window closes.
WINDOW_GRACE = 60.0
READY_TIMEOUT = 60.0
SKETCH = "load-0"


@dataclass(frozen=True)
class Shape:
    n: int
    batch_size: int
    queries_per_batch: float
    consistency: str
    #: Ingest batches generated per connection per second of warm-up
    #: and ``--seconds``: 1.7x (``ingest-bulk``) to 3x what a quiet 2-core
    #: box acks, so the plan outlasts the window after a large speed-up
    #: too.  A plan that still runs out ends the window early, which the
    #: ``events_per_s`` note reports.
    batches_per_second: float


SHAPES = {
    "ingest-bulk": Shape(256, 8192, 10.0, "snapshot", 16.0),
    "ingest-small": Shape(256, 256, 1.0, "snapshot", 200.0),
    "query-fresh": Shape(512, 1024, 1.0, "fresh", 12.0),
}


def build_plans(shape: Shape, seed: int, seconds: float):
    """Each connection's op list, from ``loadgen.build_workload``."""
    from repro.service.loadgen import LoadConfig, build_workload

    config = LoadConfig(
        sketches=1,
        n=shape.n,
        seed=seed,
        connections=CONNECTIONS,
        batches=max(4, round((WARMUP + seconds) * shape.batches_per_second)),
        batch_size=shape.batch_size,
        delete_fraction=0.2,
        queries_per_batch=shape.queries_per_batch,
        fresh_fraction=1.0 if shape.consistency == "fresh" else 0.0,
    )
    _, plans = build_workload(config)
    if shape.consistency == "fresh":
        # Every fresh query asks for the components: each one decodes
        # under the record lock and ships the whole partition.
        plans = [
            [
                ("query", op[1], "components", "fresh")
                if op[0] == "query" else op
                for op in ops
            ]
            for ops in plans
        ]
    return plans


# -- server process ----------------------------------------------------------

@dataclass
class Server:
    proc: subprocess.Popen
    port: int
    spawned: float
    trace_dir: Optional[str]


def start_server(run_dir: str, label: str, traced: bool) -> Server:
    checkpoint_dir = os.path.join(run_dir, f"ckpt-{label}")
    os.makedirs(checkpoint_dir)
    serve = ["serve", "--checkpoint-dir", checkpoint_dir]
    trace_dir = None
    if traced:
        trace_dir = os.path.join(run_dir, f"trace-{label}")
        os.makedirs(trace_dir)
        child = os.path.join(os.path.dirname(__file__), "child.py")
        argv = [sys.executable, child, "--trace-dir", trace_dir,
                "--mode", "full", "--", *serve]
    else:
        argv = [sys.executable, "-m", "repro", *serve]
    stderr = open(os.path.join(run_dir, f"serve-{label}.err"), "w")
    spawned = now()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=stderr, text=True,
        env=child_env(),
    )
    stderr.close()
    ready, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT)
    line = proc.stdout.readline() if ready else ""
    match = re.search(r"serving on [\d.]+:(\d+)", line)
    if not match:
        stop_process(proc)
        raise BenchError(f"server failed to start: {line!r}")
    return Server(proc, int(match.group(1)), spawned, trace_dir)


async def _connect(port: int):
    from repro.engine.supervisor import RetryPolicy
    from repro.service.client import ServiceClient

    return await ServiceClient.connect(
        port=port, timeout=REQUEST_TIMEOUT, retry=RetryPolicy(max_restarts=3)
    )


@dataclass
class Setup:
    #: Monotonic times of the spawn of ``serve`` and of the ``create`` ack.
    spawned: float
    acked: float
    #: VmHWM of the server right after the ``create`` ack.
    peak_rss_mb: float
    #: Host speed over the set-up (``HostProbe.scale``), set afterwards.
    speed: float = 1.0

    @property
    def seconds(self) -> float:
        return self.acked - self.spawned

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.speed


async def _create(server: Server, shape: Shape, seed: int) -> Setup:
    """Create the workload's sketch and time the server's set-up."""
    client = await _connect(server.port)
    try:
        await client.create(SKETCH, kind="forest", n=shape.n, seed=seed)
    finally:
        await client.close()
    return Setup(server.spawned, now(), vm_hwm_mb(server.proc.pid))


def measure_setup(run_dir: str, label: str, shape: Shape, seed: int,
                  probe) -> Setup:
    """One set-up on a throwaway server, which is then killed."""
    server = start_server(run_dir, label, traced=False)
    try:
        setup = asyncio.run(_create(server, shape, seed))
    finally:
        stop_process(server.proc)
    setup.speed = probe.scale(setup.spawned, setup.acked)
    return setup


# -- the closed loop -----------------------------------------------------------

@dataclass
class ConnResult:
    acked: List[int] = field(default_factory=list)
    #: Events of every acked batch, warm-up included.
    events: int = 0
    #: Events of the batches acked inside the timed window.
    window_events: int = 0
    attempted: int = 0
    failed: int = 0
    ingest: List[float] = field(default_factory=list)
    snapshot: List[float] = field(default_factory=list)
    fresh: List[float] = field(default_factory=list)
    #: The plan ran out before the window closed.
    exhausted: bool = False
    retries: int = 0
    reconnects: int = 0


async def _run_connection(client, ops, open_at: float,
                          close_at: float) -> ConnResult:
    """Send ``ops`` in order, one in flight, until ``close_at``.

    Ops sent before ``open_at`` are the warm-up: they are checked like
    the rest but give no latency sample, and only batches acked after
    ``open_at`` count towards the window's events.
    """
    from repro.errors import ServiceError

    res = ConnResult()
    for index, op in enumerate(ops):
        start = now()
        if start >= close_at:
            break
        try:
            if op[0] == "ingest":
                await client.request(
                    "ingest-batch", payload=op[2], name=op[1],
                    **client.next_stamp()
                )
            else:
                await client.query(op[1], op=op[2], consistency=op[3])
            ok = True
        except (ServiceError, ConnectionError, OSError):
            ok = False
        done = now()
        res.attempted += 1
        if not ok:
            res.failed += 1
        if op[0] == "ingest" and ok:
            res.acked.append(index)
            res.events += op[3]
            if done >= open_at:
                res.window_events += op[3]
        if start < open_at:
            continue
        # A failed op misses every latency bound.
        latency = done - start if ok else float("inf")
        if op[0] == "ingest":
            res.ingest.append(latency)
        else:
            (res.fresh if op[3] == "fresh" else res.snapshot).append(latency)
    else:
        res.exhausted = True
    res.retries = client.retries
    res.reconnects = client.reconnects
    return res


@dataclass
class PassResult:
    setup: Setup
    window: tuple
    results: List[ConnResult]
    peak_rss_mb: float
    dump: bytes
    final_fresh: Optional[dict]
    stats: Dict[str, dict]
    trace_dir: Optional[str]
    #: Host speed over the window (``HostProbe.scale``) and the share of
    #: wanted CPU time the host stole in it, set afterwards.
    speed: float = 1.0
    steal_share: float = 0.0

    @property
    def events(self) -> int:
        return sum(r.events for r in self.results)

    @property
    def window_events(self) -> int:
        return sum(r.window_events for r in self.results)

    @property
    def seconds(self) -> float:
        return self.window[1] - self.window[0]

    @property
    def events_per_s(self) -> float:
        return self.window_events / self.seconds

    @property
    def ref_events_per_s(self) -> float:
        """Events per reference second (see ``hostprobe``)."""
        return self.window_events / (self.seconds * self.speed)

    def samples(self, kind: str) -> List[float]:
        return [s for r in self.results for s in getattr(r, kind)]

    @property
    def attempted(self) -> int:
        return sum(r.attempted for r in self.results)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.results)


async def _drive(server: Server, shape: Shape, seed: int, plans,
                 seconds: float, traced: bool) -> PassResult:
    setup = await _create(server, shape, seed)
    control = await _connect(server.port)
    clients = [await _connect(server.port) for _ in plans]
    try:
        open_at = now() + WARMUP
        close_at = open_at + seconds
        stats = {}
        if traced:
            before = asyncio.ensure_future(_counters(control, open_at))
        loop = asyncio.gather(
            *(_run_connection(c, ops, open_at, close_at)
              for c, ops in zip(clients, plans))
        )
        try:
            results = await asyncio.wait_for(
                loop, timeout=WARMUP + seconds + WINDOW_GRACE
            )
        except asyncio.TimeoutError:
            raise BenchError("the server stopped answering") from None
        end = now()
        if traced:
            stats["before"] = await before
            stats["after"] = await _counters(control)
        final_fresh = None
        if shape.consistency == "fresh":
            final_fresh = await control.query(
                SKETCH, op="components", consistency="fresh"
            )
        peak = vm_hwm_mb(server.proc.pid)
        _, dump = await control.dump(SKETCH)
        await control.shutdown()
    finally:
        for client in (*clients, control):
            await client.close()
    return PassResult(setup, (open_at, end), list(results), peak, dump,
                      final_fresh, stats, server.trace_dir)


async def _counters(client, at: float = 0.0) -> dict:
    """``stats`` and ``health`` read at monotonic time ``at`` or now."""
    await asyncio.sleep(max(0.0, at - now()))
    stats = await client.stats()
    health = await client.health()
    return {"stats": stats, "health": health}


def run_pass(run_dir: str, label: str, shape: Shape, seed: int, plans,
             seconds: float, traced: bool, probe) -> PassResult:
    server = start_server(run_dir, label, traced)
    try:
        result = asyncio.run(
            _drive(server, shape, seed, plans, seconds, traced)
        )
        server.proc.wait(timeout=120)
        if server.proc.returncode != 0:
            raise BenchError(
                f"server exited with code {server.proc.returncode}"
            )
        result.speed = probe.scale(*result.window)
        result.steal_share = probe.steal_share(*result.window)
        result.setup.speed = probe.scale(result.setup.spawned,
                                         result.setup.acked)
        return result
    finally:
        stop_process(server.proc)


# -- correctness ---------------------------------------------------------------

def serial_replay(shape: Shape, seed: int, plans, acked):
    """The sketch a single thread gets by folding every acked batch.

    The sketch is linear, so folding each pair once with its net
    multiplicity over all acked batches gives the same sketch, byte for
    byte, as folding the batches one by one, in about a tenth of the
    time (at n=256 there are at most 32 640 distinct pairs).
    """
    import numpy as np

    from repro.service.protocol import decode_pairs
    from repro.sketch.spanning_forest import SpanningForestSketch

    n = shape.n
    net = np.zeros(n * n, dtype=np.int64)
    for ops, indices in zip(plans, acked):
        for index in indices:
            us, vs, signs = decode_pairs(ops[index][2])
            np.add.at(net, us * n + vs, signs)
    keys = np.flatnonzero(net)
    # The kernel takes signs of +-1 only: a net multiplicity m is |m|
    # copies of the pair.
    keys = np.repeat(keys, np.abs(net[keys]))
    sketch = SpanningForestSketch(n, seed=seed)
    sketch.update_batch_pairs(keys // n, keys % n, np.sign(net[keys]))
    return sketch


def components_of(sketch, n: int) -> List[List[int]]:
    """Components of a sketch's decoded forest, as the server lists them."""
    from repro.graph.union_find import UnionFind

    uf = UnionFind(n)
    for u, v in sketch.decode().edges():
        uf.union(u, v)
    groups: Dict[int, List[int]] = {}
    for v in sketch.vertices:
        groups.setdefault(uf.find(v), []).append(v)
    return sorted(sorted(g) for g in groups.values())


def verify(shape: Shape, seed: int, plans, result: PassResult) -> List[str]:
    """Problems with a pass's answers (empty when all are right)."""
    from repro.sketch.serialization import dump_sketch

    acked = [r.acked for r in result.results]
    reference = serial_replay(shape, seed, plans, acked)
    problems = []
    if result.dump != dump_sketch(reference):
        problems.append("final dump differs from the serial replay")
    if result.final_fresh is not None:
        if result.final_fresh.get("as_of") != result.events:
            problems.append(
                f"final fresh answer as_of={result.final_fresh.get('as_of')}"
                f" but {result.events} events were acked"
            )
        elif result.final_fresh["components"] != components_of(
            reference, shape.n
        ):
            problems.append(
                "final fresh components differ from the replayed decode"
            )
    return problems


# -- workload entry points -------------------------------------------------------

#: Timed passes per untraced run, each on a fresh server for an equal
#: share of ``--seconds``: the same requests run 10-25% faster or slower
#: from one server process to the next, so the run pools two of them.
PASSES = 2
#: Set-ups timed per untraced run: the passes' own plus throwaway ones.
SETUPS = 5


def run_untraced(run_dir: str, workload: str, seed: int, seconds: float,
                 probe):
    shape = SHAPES[workload]
    window = seconds / PASSES
    plans = build_plans(shape, seed, window)
    setups = [
        measure_setup(run_dir, f"setup{i}", shape, seed, probe)
        for i in range(SETUPS - PASSES)
    ]
    passes = [
        run_pass(run_dir, f"main{i}", shape, seed, plans, window, False,
                 probe)
        for i in range(PASSES)
    ]
    setups += [p.setup for p in passes]
    problems = [
        problem for p in passes for problem in verify(shape, seed, plans, p)
    ]
    return shape, passes, setups, problems


def end_to_end(shape: Shape, passes: List[PassResult], setups: List[Setup]):
    """Every end-to-end figure of a run's passes, with notes for display."""
    def samples(kind):
        return [s for p in passes for s in p.samples(kind)]

    events = sum(p.window_events for p in passes)
    seconds = sum(p.seconds for p in passes)
    ref_seconds = sum(p.seconds * p.speed for p in passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    exhausted = any(r.exhausted for p in passes for r in p.results)
    per_pass = ", ".join(
        f"{p.events_per_s:.0f}/s at host speed {p.speed:.3f} and "
        f"{100 * p.steal_share:.1f}% steal"
        for p in passes
    )
    figures = {
        "setup_s": (
            statistics.median(s.ref_seconds for s in setups), "s",
            f"spawn to create ack in reference seconds, median of "
            f"{len(setups)} servers: "
            + ", ".join(f"{s.ref_seconds:.3f}" for s in setups),
        ),
        "wall_setup_s": (
            statistics.median(s.seconds for s in setups), "s",
            f"spawn to create ack in wall seconds, median of {len(setups)}: "
            + ", ".join(f"{s.seconds:.3f}" for s in setups),
        ),
        "events_per_s": (
            events / ref_seconds, "events/s",
            f"{events} events acked in {ref_seconds:.3f} reference seconds "
            f"of {len(passes)} windows"
            + ("; a plan ran out early" if exhausted else ""),
        ),
        "wall_events_per_s": (
            events / seconds, "events/s",
            f"the same events in {seconds:.3f} wall seconds; passes: "
            f"{per_pass}",
        ),
        "peak_rss_mb": (
            statistics.median([s.peak_rss_mb for s in setups]), "MB",
            f"VmHWM of serve after set-up, median of {len(setups)}",
        ),
        "loaded_peak_rss_mb": (
            statistics.median(p.peak_rss_mb for p in passes), "MB",
            "VmHWM of serve after the timed window, median of passes: "
            + ", ".join(f"{p.peak_rss_mb:.1f}" for p in passes),
        ),
    }
    _latency_figures(figures, "ingest_ack", latency_summary(samples("ingest")))
    kind = shape.consistency
    _latency_figures(figures, f"{kind}_query", latency_summary(samples(kind)))
    figures["failed_ops_ratio"] = (
        failed / max(1, attempted), "ratio", f"{failed} of {attempted} ops",
    )
    figures["cpu_steal_share"] = (
        statistics.mean(p.steal_share for p in passes), "ratio",
        "share of the CPU time wanted during the windows that the host "
        "stole",
    )
    return figures


def _latency_figures(figures, key, summary) -> None:
    count = summary["count"]
    if not count:
        return
    figures[f"{key}_p50_ms"] = (summary["p50_ms"], "ms", f"n={count}")
    if "tail_ms" in summary:
        figures[f"{key}_tail_ms"] = (
            summary["tail_ms"], "ms", f"p{summary['tail_pct']:.4g}, n={count}"
        )
