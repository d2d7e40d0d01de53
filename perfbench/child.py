"""Launch one ``repro`` CLI command with benchmark-owned probes installed.

Usage::

    python perfbench/child.py --trace-dir DIR --mode {milestones,full} \
        [--capture-forest] -- <repro cli arguments>

The program under test is unchanged: this launcher imports ``repro``,
replaces a few of its public functions, methods and seams with timing
wrappers, runs ``repro.cli.main`` on the given arguments and, when the
command returns, writes what it recorded to ``DIR/spans-<pid>.jsonl``.

``milestones`` records only what the offline workload needs to time and
check a run from outside: when the engine's ``ingest`` is entered (the
end of set-up) and when each decode returned (with ``--capture-forest``,
also the decoded forest's edges).
``full`` adds one span per call at every layer boundary the traced run
reports (see ``perfbench/layers.py``):

* timing wrappers around the layers' public functions;
* the server's ``offload`` seam, timing submit -> worker start;
* a timing lock in place of each ``SketchRecord.lock``, recording wait
  and hold by holder (ingest, fresh query, snapshot cron, checkpoint
  cron).

A span line is ``[name, start, end, tag, cmd, extra]``: ``start`` and
``end`` come from the system-wide monotonic clock, so the parent can
keep only spans inside its timed window; ``cmd`` is the command of the
request whose handling caused the span (None for cron work).  Forked
shard workers never return to this launcher, so spans recorded in a
forked process are appended to their own file as they happen.
"""

from __future__ import annotations

import argparse
import asyncio
import contextvars
import functools
import itertools
import json
import os
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

now = time.monotonic

#: ``(request id, command)`` of the request a session task is serving;
#: copied into worker threads by ``asyncio.to_thread``.
_REQUEST = contextvars.ContextVar("perfbench_request", default=None)


class Tracer:
    """Span sink: in memory in the launcher's process, written through
    to a per-process file in forked children."""

    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        self.pid = os.getpid()
        self.spans = []
        self._local = threading.local()

    def record(self, name, start, end, tag=None, extra=None):
        req = _REQUEST.get()
        cmd = req[1] if req is not None else None
        span = [name, start, end, tag, cmd, extra]
        if os.getpid() == self.pid:
            self.spans.append(span)
        else:
            path = os.path.join(self.trace_dir, f"spans-{os.getpid()}.jsonl")
            with open(path, "a") as fh:
                fh.write(json.dumps(span) + "\n")

    def write(self) -> None:
        path = os.path.join(self.trace_dir, f"spans-{self.pid}.jsonl")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # -- wrapping helpers -------------------------------------------------

    def timed(self, name, fn, extra_of=None):
        """A wrapper recording one span per call of ``fn``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = now()
            result = fn(*args, **kwargs)
            extra = extra_of(args, result) if extra_of is not None else None
            self.record(name, start, now(), extra=extra)
            return result

        return wrapper

    def nested_seconds(self) -> list:
        """Per-thread stack of child-time accumulators (decode inside
        refresh_snapshot)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


def install_milestones(tracer: Tracer, capture_forest: bool) -> None:
    from repro.engine.shard import ShardedIngestEngine
    from repro.sketch.spanning_forest import SpanningForestSketch

    ingest = ShardedIngestEngine.ingest

    @functools.wraps(ingest)
    def traced_ingest(self, stream, *args, **kwargs):
        tracer.record("milestone.ingest_entered", now(), now(),
                      extra={"events": len(stream)})
        return ingest(self, stream, *args, **kwargs)

    decode = SpanningForestSketch.decode

    @functools.wraps(decode)
    def traced_decode(self, *args, **kwargs):
        start = now()
        forest = decode(self, *args, **kwargs)
        end = now()
        stack = tracer.nested_seconds()
        if stack:
            stack[-1] += end - start
        tracer.record("query.decode", start, end)
        if capture_forest:
            tracer.record("milestone.forest", end, end,
                          extra=[list(e) for e in forest.edges()])
        return forest

    ShardedIngestEngine.ingest = traced_ingest
    SpanningForestSketch.decode = traced_decode


def install_full(tracer: Tracer) -> dict:
    """Every probe of the traced run (after :func:`install_milestones`).

    Returns the partitioner's running totals: ``shard_of_edge`` runs
    once per event, so it is counted rather than given a span per call.
    """
    import repro.cli as cli
    import repro.engine.shard as shard
    import repro.service.registry as registry
    import repro.service.server as server
    import repro.service.wal as wal
    import repro.sketch.bank as bank
    import repro.util.binomial as binomial
    from repro.engine.checkpoint import CheckpointManager
    from repro.sketch.spanning_forest import SpanningForestSketch

    # -- request context: which command is this session task serving? --
    read_frame = server.read_frame
    request_ids = itertools.count(1)

    @functools.wraps(read_frame)
    async def traced_read_frame(*args, **kwargs):
        frame = await read_frame(*args, **kwargs)
        if frame is not None:
            _REQUEST.set((next(request_ids), frame[0].get("cmd")))
        return frame

    server.read_frame = traced_read_frame

    # -- the offload seam: submit -> worker-thread start ----------------
    async def timed_offload(fn, *args):
        submitted = now()
        name = getattr(fn, "__name__", type(fn).__name__)

        def run():
            tracer.record("server.offload.wait", submitted, now(), tag=name)
            return fn(*args)

        return await asyncio.to_thread(run)

    server_init = server.SketchServer.__init__

    @functools.wraps(server_init)
    def traced_server_init(self, *args, **kwargs):
        if kwargs.get("offload") is None:
            kwargs["offload"] = timed_offload
        server_init(self, *args, **kwargs)

    server.SketchServer.__init__ = traced_server_init

    # -- a timing lock in place of every SketchRecord.lock --------------
    class TimingLock(asyncio.Lock):
        def _holder(self) -> str:
            req = _REQUEST.get()
            if req is not None:
                return {"ingest-batch": "ingest", "query": "fresh"}.get(
                    req[1], str(req[1])
                )
            task = asyncio.current_task()
            coro = task.get_coro() if task is not None else None
            qualname = getattr(coro, "__qualname__", "")
            if "snapshot_cron" in qualname:
                return "snapshot-cron"
            if "checkpoint_cron" in qualname:
                return "checkpoint-cron"
            return "other"

        async def acquire(self):
            start = now()
            await super().acquire()
            self._held_since = now()
            self._held_by = self._holder()
            tracer.record("registry.lock.wait", start, self._held_since,
                          tag=self._held_by)
            return True

        def release(self):
            tracer.record("registry.lock.hold", self._held_since, now(),
                          tag=self._held_by)
            super().release()

    record_init = registry.SketchRecord.__init__

    @functools.wraps(record_init)
    def traced_record_init(self, *args, **kwargs):
        record_init(self, *args, **kwargs)
        self.lock = TimingLock()

    registry.SketchRecord.__init__ = traced_record_init

    # -- registry calls -------------------------------------------------
    Reg = registry.SketchRegistry
    for method in ("validate_pairs", "ingest_pairs", "wal_commit"):
        setattr(Reg, method,
                tracer.timed(f"registry.{method}", getattr(Reg, method)))

    refresh = Reg.refresh_snapshot

    @functools.wraps(refresh)
    def traced_refresh(self, record, *args, **kwargs):
        before = record.snapshot
        stack = tracer.nested_seconds()
        stack.append(0.0)
        start = now()
        try:
            snap = refresh(self, record, *args, **kwargs)
        finally:
            decode_seconds = stack.pop()
        end = now()
        if snap is not before:
            tracer.record("registry.refresh_snapshot", start, end,
                          tag="fresh" if _REQUEST.get() else "cron",
                          extra={"decode": decode_seconds})
        return snap

    Reg.refresh_snapshot = traced_refresh

    checkpoint = Reg.checkpoint

    @functools.wraps(checkpoint)
    def traced_checkpoint(self, record, *args, **kwargs):
        start = now()
        path = checkpoint(self, record, *args, **kwargs)
        if path is not None:
            tracer.record("registry.checkpoint", start, now())
        return path

    Reg.checkpoint = traced_checkpoint

    # -- protocol, WAL, serialization, checkpoint files ------------------
    server.decode_pairs = tracer.timed(
        "protocol.decode_pairs", server.decode_pairs,
        extra_of=lambda args, out: [len(args[0]), int(len(out[0]))],
    )
    wal.WriteAheadLog.append = tracer.timed(
        "wal.append", wal.WriteAheadLog.append
    )
    wal.encode_record = tracer.timed(
        "wal.encode_record", wal.encode_record,
        extra_of=lambda args, out: len(out),
    )
    for module in (registry, server):
        module.dump_sketch = tracer.timed(
            "serialization.dump_sketch", module.dump_sketch
        )
    CheckpointManager.save = tracer.timed(
        "checkpoint.save", CheckpointManager.save,
        extra_of=lambda args, path: os.path.getsize(path),
    )

    # -- batch kernel, placement tables, decode helpers -----------------
    SpanningForestSketch.update_batch_pairs = tracer.timed(
        "batch.update_batch_pairs", SpanningForestSketch.update_batch_pairs,
        extra_of=lambda args, out: int(len(args[1])),
    )
    bank.SamplerGrid.attach_hash_cache = tracer.timed(
        "bank.attach_hash_cache", bank.SamplerGrid.attach_hash_cache,
        extra_of=lambda args, out: bank.hash_cache_pool_bytes(),
    )
    binomial.colex_unrank = tracer.timed(
        "binomial.colex_unrank", binomial.colex_unrank
    )

    # -- offline path: stream file and partitioner ------------------------
    cli.load_stream_file = tracer.timed("file_io.read_stream",
                                        cli.load_stream_file)
    partition = shard.shard_of_edge
    totals = {"calls": 0, "seconds": 0.0}

    @functools.wraps(partition)
    def counted_partition(*args, **kwargs):
        start = now()
        out = partition(*args, **kwargs)
        totals["seconds"] += now() - start
        totals["calls"] += 1
        return out

    shard.shard_of_edge = counted_partition
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dir", required=True)
    parser.add_argument("--mode", choices=["milestones", "full"],
                        required=True)
    parser.add_argument("--capture-forest", action="store_true",
                        help="record the edges of every decoded forest")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    sys.path.insert(0, SRC)
    import repro.cli

    tracer = Tracer(args.trace_dir)
    install_milestones(tracer, args.capture_forest)
    totals = install_full(tracer) if args.mode == "full" else None
    code = repro.cli.main(cli_args)
    if totals and totals["calls"]:
        tracer.record("shard.partition", now(), now(), extra=totals)
    tracer.write()
    return code


if __name__ == "__main__":
    sys.exit(main())
