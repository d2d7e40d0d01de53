"""Per-layer metrics of a traced run, from spans and public counters.

Each metric names the layer module it measures.  A layer that a
workload does not run reports 0 (no calls were made), e.g. the shard
engine on served workloads or the registry on ``offline-shm``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from common import read_spans

#: (name, unit, better) of every per-layer metric, in report order.
#: Times are means per call; ``wal.*`` are per ingest batch and the
#: ``query.*``/``binomial.*`` counters per decode, so they compare
#: across changes that move throughput.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("server.offload.wait_ms", "ms", "lower"),
    ("server.offload.hops", "count", "lower"),
    ("server.request.self_ms", "ms", "lower"),
    ("registry.lock.wait_ms", "ms", "lower"),
    ("registry.lock.hold_ms.ingest", "ms", "lower"),
    ("registry.lock.hold_ms.fresh", "ms", "lower"),
    ("registry.lock.hold_ms.snapshot-cron", "ms", "lower"),
    ("registry.lock.hold_ms.checkpoint-cron", "ms", "lower"),
    ("registry.validate_pairs.ms", "ms", "lower"),
    ("registry.ingest_pairs.ms", "ms", "lower"),
    ("registry.wal_commit.ms", "ms", "lower"),
    ("registry.refresh_snapshot.cron.ms", "ms", "lower"),
    ("registry.refresh_snapshot.cron.count", "count", "lower"),
    ("registry.refresh_snapshot.fresh.ms", "ms", "lower"),
    ("registry.refresh_snapshot.fresh.count", "count", "higher"),
    ("registry.snapshot.components_ms", "ms", "lower"),
    ("registry.checkpoint.ms", "ms", "lower"),
    ("registry.checkpoint.count", "count", "lower"),
    ("protocol.decode_pairs.ms", "ms", "lower"),
    ("protocol.bytes_per_event", "bytes", "lower"),
    ("wal.append.ms", "ms", "lower"),
    ("wal.synced", "count", "lower"),
    ("wal.bytes", "bytes", "lower"),
    ("batch.ms_per_batch", "ms", "lower"),
    ("batch.pairs_per_s", "pairs/s", "higher"),
    ("bank.hash_cache.bytes", "bytes", "lower"),
    ("bank.hash_cache.build_ms", "ms", "lower"),
    ("query.decode.ms", "ms", "lower"),
    ("query.cells_decoded", "count", "lower"),
    ("query.kernel_ms", "ms", "lower"),
    ("query.summed_cache.hit_ratio", "ratio", "higher"),
    ("binomial.colex_unrank.calls", "count", "lower"),
    ("binomial.colex_unrank.ms", "ms", "lower"),
    ("serialization.dump_sketch.ms", "ms", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
    ("shard.partition.ms", "ms", "lower"),
    ("shard.dispatch_s", "s", "lower"),
    ("shard.merge_s", "s", "lower"),
    ("shard.skew", "ratio", "lower"),
    ("shard.max_queue_depth", "count", "lower"),
    ("pool.restarts", "count", "lower"),
    ("file_io.read_stream.ms", "ms", "lower"),
    ("client.retries", "count", "lower"),
    ("client.reconnects", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
    ("trace.unattributed_share", "ratio", "lower"),
]

#: Registry calls made on behalf of a client request; with the
#: protocol decode, lock waits and offload waits they are the spans that
#: cover a request's latency.
_REQUEST_CHILDREN = (
    "registry.validate_pairs",
    "registry.ingest_pairs",
    "registry.wal_commit",
    "registry.refresh_snapshot",
)


class Spans:
    """Spans grouped by name: ``[name, start, end, tag, cmd, extra, pid]``."""

    def __init__(self, spans, window: Optional[Tuple[float, float]] = None):
        self.by_name = defaultdict(list)
        for span in spans:
            if window is None or window[0] <= span[1] <= window[1]:
                self.by_name[span[0]].append(span)

    def get(self, name, tag=None, cmd=None, session=None) -> list:
        out = []
        for span in self.by_name.get(name, ()):
            if tag is not None and span[3] != tag:
                continue
            if cmd is not None and span[4] != cmd:
                continue
            if session is not None and (span[4] is not None) != session:
                continue
            out.append(span)
        return out

    def seconds(self, name, **match) -> List[float]:
        return [s[2] - s[1] for s in self.get(name, **match)]


def _mean_ms(seconds: List[float]) -> float:
    return 1e3 * sum(seconds) / len(seconds) if seconds else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _table_build(all_spans: Spans) -> Dict[str, float]:
    """Placement tables: pooled bytes, and attach time in the process
    that spent the most on it."""
    per_pid = defaultdict(float)
    nbytes = 0
    for span in all_spans.get("bank.attach_hash_cache"):
        per_pid[span[6]] += span[2] - span[1]
        nbytes = max(nbytes, span[5])
    return {
        "bank.hash_cache.bytes": nbytes,
        "bank.hash_cache.build_ms": 1e3 * max(per_pid.values(), default=0.0),
    }


def _decode_layers(spans: Spans, before: dict, after: dict):
    """Decode-path figures per decode: spans plus ``QueryMetrics`` deltas."""
    def delta(key):
        return after.get(key, 0) - before.get(key, 0)

    decodes = spans.seconds("query.decode")
    unrank = spans.seconds("binomial.colex_unrank")
    hits, misses = delta("cache_hits"), delta("cache_misses")
    return {
        "query.decode.ms": _mean_ms(decodes),
        "query.cells_decoded": _ratio(delta("cells_decoded"), len(decodes)),
        "query.kernel_ms": _ratio(1e3 * delta("kernel_seconds"), len(decodes)),
        "query.summed_cache.hit_ratio": _ratio(hits, hits + misses),
        "binomial.colex_unrank.calls": _ratio(len(unrank), len(decodes)),
        "binomial.colex_unrank.ms": _ratio(1e3 * sum(unrank), len(decodes)),
    }


def served_layers(result, untraced_events_per_s: float, sketch: str):
    """Per-layer metrics of a traced served pass (window-filtered)."""
    raw = read_spans(result.trace_dir)
    spans = Spans(raw, result.window)
    out: Dict[str, float] = {}

    ingests = spans.get("protocol.decode_pairs")
    n_ingest = len(ingests)
    out["server.offload.wait_ms"] = _mean_ms(
        spans.seconds("server.offload.wait", session=True)
    )
    out["server.offload.hops"] = _ratio(
        len(spans.get("server.offload.wait", cmd="ingest-batch")), n_ingest
    )
    acked = [s for s in result.samples("ingest") if s != float("inf")]
    registry_per_ingest = _ratio(
        sum(
            sum(spans.seconds(name, cmd="ingest-batch"))
            for name in _REQUEST_CHILDREN
        ),
        n_ingest,
    )
    out["server.request.self_ms"] = (
        _mean_ms(acked) - 1e3 * registry_per_ingest if acked else 0.0
    )

    out["registry.lock.wait_ms"] = _mean_ms(
        spans.seconds("registry.lock.wait", session=True)
    )
    for holder in ("ingest", "fresh", "snapshot-cron", "checkpoint-cron"):
        out[f"registry.lock.hold_ms.{holder}"] = _mean_ms(
            spans.seconds("registry.lock.hold", tag=holder)
        )
    for name in ("validate_pairs", "ingest_pairs", "wal_commit"):
        out[f"registry.{name}.ms"] = _mean_ms(spans.seconds(f"registry.{name}"))
    for tag in ("cron", "fresh"):
        secs = spans.seconds("registry.refresh_snapshot", tag=tag)
        out[f"registry.refresh_snapshot.{tag}.ms"] = _mean_ms(secs)
        out[f"registry.refresh_snapshot.{tag}.count"] = len(secs)
    refreshes = spans.get("registry.refresh_snapshot")
    out["registry.snapshot.components_ms"] = _mean_ms(
        [s[2] - s[1] - s[5]["decode"] for s in refreshes]
    )
    checkpoints = spans.seconds("registry.checkpoint")
    out["registry.checkpoint.ms"] = _mean_ms(checkpoints)
    out["registry.checkpoint.count"] = len(checkpoints)

    out["protocol.decode_pairs.ms"] = _mean_ms(
        spans.seconds("protocol.decode_pairs")
    )
    out["protocol.bytes_per_event"] = _ratio(
        sum(s[5][0] for s in ingests), sum(s[5][1] for s in ingests)
    )

    out["wal.append.ms"] = _mean_ms(spans.seconds("wal.append"))
    before, after = result.stats["before"], result.stats["after"]

    def wal_stat(counters, key):
        return counters["health"]["sketches"][sketch].get("wal", {}).get(key, 0)

    out["wal.synced"] = _ratio(
        wal_stat(after, "synced") - wal_stat(before, "synced"), n_ingest
    )
    out["wal.bytes"] = _ratio(
        sum(s[5] for s in spans.get("wal.encode_record")), n_ingest
    )

    batches = spans.get("batch.update_batch_pairs")
    fold_seconds = [s[2] - s[1] for s in batches]
    out["batch.ms_per_batch"] = _mean_ms(fold_seconds)
    out["batch.pairs_per_s"] = _ratio(
        sum(s[5] for s in batches), sum(fold_seconds)
    )
    out.update(_table_build(Spans(raw)))

    out.update(_decode_layers(
        spans,
        before["stats"]["sections"]["query"],
        after["stats"]["sections"]["query"],
    ))
    out["serialization.dump_sketch.ms"] = _mean_ms(
        spans.seconds("serialization.dump_sketch")
    )
    saves = spans.get("checkpoint.save")
    out["checkpoint.bytes"] = _ratio(sum(s[5] for s in saves), len(saves))

    out["client.retries"] = sum(r.retries for r in result.results)
    out["client.reconnects"] = sum(r.reconnects for r in result.results)
    out["trace.overhead_ratio"] = _ratio(
        result.ref_events_per_s, untraced_events_per_s
    )
    latency = sum(
        s for kind in ("ingest", "snapshot", "fresh")
        for s in result.samples(kind) if s != float("inf")
    )
    covered = sum(spans.seconds("protocol.decode_pairs"))
    covered += sum(spans.seconds("registry.lock.wait", session=True))
    covered += sum(spans.seconds("server.offload.wait", session=True))
    for name in _REQUEST_CHILDREN:
        covered += sum(spans.seconds(name, session=True))
    out["trace.unattributed_share"] = 1.0 - _ratio(covered, latency)
    return out


def offline_layers(job, untraced_events_per_s: float):
    """Per-layer metrics of a traced ``offline-shm`` job."""
    spans = Spans(job.spans)
    ingest = job.metrics["ingest"]
    out: Dict[str, float] = {}
    shards = ingest["per_shard"]
    fold_seconds = sum(s["seconds"] for s in shards)
    out["batch.ms_per_batch"] = _ratio(
        1e3 * fold_seconds, sum(s["batches"] for s in shards)
    )
    out["batch.pairs_per_s"] = _ratio(
        sum(s["events"] for s in shards), fold_seconds
    )
    out.update(_table_build(spans))
    out.update(_decode_layers(spans, {}, job.metrics["query"]))
    partition = spans.get("shard.partition")
    out["shard.partition.ms"] = (
        1e3 * partition[0][5]["seconds"] if partition else 0.0
    )
    out["shard.dispatch_s"] = ingest["dispatch_seconds"]
    out["shard.merge_s"] = ingest["merge_seconds"]
    events = [s["events"] for s in shards]
    out["shard.skew"] = _ratio(max(events), sum(events) / len(events))
    out["shard.max_queue_depth"] = ingest["max_queue_depth"]
    out["pool.restarts"] = ingest["restarts"]
    out["file_io.read_stream.ms"] = _mean_ms(
        spans.seconds("file_io.read_stream")
    )
    out["trace.overhead_ratio"] = _ratio(
        job.ref_events_per_s, untraced_events_per_s
    )
    entered = spans.get("milestone.ingest_entered")[0][1]
    done = spans.get("milestone.forest")[0][2]
    covered = (ingest["dispatch_seconds"] + ingest["merge_seconds"]
               + sum(spans.seconds("query.decode")))
    out["trace.unattributed_share"] = 1.0 - _ratio(covered, done - entered)
    return out


def complete(measured: Dict[str, float]) -> Dict[str, dict]:
    """Every per-layer metric with its unit; layers not run read 0."""
    return {
        name: {"value": float(measured.get(name, 0.0)), "unit": unit}
        for name, unit, _ in PER_LAYER
    }
