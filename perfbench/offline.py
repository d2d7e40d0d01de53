"""The offline workload: ``repro ingest --backend shm`` on a stream file.

The benchmark writes an n=1024 G(n,p) churn stream (target edges plus
decoy insert/delete pairs, so the final graph is the target) and runs
``python -m repro ingest STREAM --backend shm --shards 2 --batch-size
8192`` on it through ``perfbench/child.py``, which records when the
engine's ``ingest`` is entered and the decoded forest.  A run repeats
the job several times and reports medians.
"""

from __future__ import annotations

import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from common import (
    BenchError,
    child_env,
    child_pids,
    now,
    read_spans,
    stop_process,
    vm_hwm_mb,
)

N = 1024
P = 0.0025
DECOYS = 17_000
SHARDS = 2
BATCH_SIZE = 8192
#: Seconds between two readings of the job's proportional set size.
PSS_EVERY = 0.2
#: Seconds of ``--seconds`` per job: six jobs at ``--seconds 15``, each
#: taking about 3-4 s on a 2-core box, of which about 2.4-3 s are timed.
SECONDS_PER_JOB = 2.5
MIN_JOBS = 3
JOB_TIMEOUT = 60.0


@dataclass
class Stream:
    path: str
    events: int
    edges: Set[Tuple[int, int]]


def write_stream(run_dir: str, seed: int) -> Stream:
    """The churn stream of ``seed`` and the edge set of its final graph."""
    from repro.graph.generators import gnp_graph
    from repro.stream.file_io import save_stream_file
    from repro.stream.generators import with_churn

    target = gnp_graph(N, P, seed=seed)
    edges = {tuple(sorted(e)) for e in target.edges()}
    rng = random.Random(seed * 7919 + 17)
    decoys: Set[Tuple[int, int]] = set()
    while len(decoys) < DECOYS:
        v = rng.randrange(1, N)
        u = rng.randrange(0, v)
        if (u, v) not in edges:
            decoys.add((u, v))
    updates = with_churn(target, sorted(decoys), shuffle_seed=seed)
    path = os.path.join(run_dir, "churn.stream")
    count = save_stream_file(path, N, updates)
    return Stream(path, count, edges)


def _shm_segments(pid: int) -> List[str]:
    """Shared-memory bank segments created by process ``pid``."""
    prefix = f"repro-bank-{pid:x}-"
    try:
        return sorted(n for n in os.listdir("/dev/shm") if n.startswith(prefix))
    except FileNotFoundError:
        return []


def pss_mb(pid: int) -> float:
    """Proportional set size of a live process, in MB: a page shared by k
    processes counts 1/k in each."""
    with open(f"/proc/{pid}/smaps_rollup") as fh:
        for line in fh:
            if line.startswith("Pss:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no Pss for pid {pid}")


@dataclass
class Job:
    events: int
    #: Monotonic times: spawn, entry into the engine's ``ingest`` and the
    #: decoded forest.
    spawned: float
    entered: float
    decoded: float
    #: Sum of the VmHWM of ``ingest`` and of each shard worker.  A shared
    #: memory page counts once in every process that touched it, so the
    #: bank segments are counted about twice.
    peak_rss_mb: float
    #: Highest sum of the processes' Pss seen: shared pages count once.
    peak_pss_mb: float
    forest: List[Tuple[int, int]]
    metrics: Dict[str, object]
    spans: List[list]
    #: Host speed (``HostProbe.scale``) over set-up and over ingest.
    setup_speed: float = 1.0
    ingest_speed: float = 1.0

    @property
    def setup_s(self) -> float:
        return self.entered - self.spawned

    @property
    def ref_setup_s(self) -> float:
        return self.setup_s * self.setup_speed

    @property
    def events_per_s(self) -> float:
        return self.events / (self.decoded - self.entered)

    @property
    def ref_events_per_s(self) -> float:
        """Events per reference second (see ``hostprobe``)."""
        return self.events_per_s / self.ingest_speed


def run_job(run_dir: str, label: str, stream: Stream, seed: int,
            traced: bool, probe) -> Job:
    trace_dir = os.path.join(run_dir, f"trace-{label}")
    os.makedirs(trace_dir)
    metrics_path = os.path.join(run_dir, f"metrics-{label}.json")
    argv = [
        sys.executable, os.path.join(os.path.dirname(__file__), "child.py"),
        "--trace-dir", trace_dir,
        "--mode", "full" if traced else "milestones", "--capture-forest",
        "--", "ingest", stream.path, "--backend", "shm",
        "--shards", str(SHARDS), "--batch-size", str(BATCH_SIZE),
        "--seed", str(seed), "--metrics-json", metrics_path,
    ]
    out_path = os.path.join(run_dir, f"ingest-{label}.out")
    hwm: Dict[int, float] = {}
    peak_pss = 0.0
    with open(out_path, "w") as out:
        spawned = now()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                env=child_env())
    try:
        deadline = spawned + JOB_TIMEOUT
        pss_at = spawned
        while proc.poll() is None:
            if now() > deadline:
                raise BenchError(f"ingest job {label} timed out")
            pids = (proc.pid, *child_pids(proc.pid))
            for pid in pids:
                try:
                    hwm[pid] = max(hwm.get(pid, 0.0), vm_hwm_mb(pid))
                except (OSError, BenchError):
                    pass  # exited between listing and reading
            if now() >= pss_at:
                pss_at = now() + PSS_EVERY
                peak_pss = max(peak_pss, _sum_pss(pids))
            time.sleep(0.05)
    finally:
        if proc.poll() is None:
            # Failure path: the shard workers would only notice the
            # parent's death at their next watchdog poll.
            for pid in child_pids(proc.pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        stop_process(proc)
    if proc.returncode != 0:
        with open(out_path) as fh:
            raise BenchError(f"ingest job {label} failed:\n{fh.read()}")
    leaked = _shm_segments(proc.pid)
    if leaked:
        raise BenchError(f"ingest job {label} left /dev/shm segments {leaked}")
    spans = read_spans(trace_dir)
    entered = [s for s in spans if s[0] == "milestone.ingest_entered"]
    forests = [s for s in spans if s[0] == "milestone.forest"]
    if len(entered) != 1 or len(forests) != 1:
        raise BenchError(f"ingest job {label} recorded no ingest or decode")
    events = entered[0][5]["events"]
    if events != stream.events:
        raise BenchError(f"ingest job read {events} of {stream.events} events")
    with open(metrics_path) as fh:
        metrics = json.load(fh)["sections"]
    job = Job(
        events=events,
        spawned=spawned,
        entered=entered[0][1],
        decoded=forests[0][2],
        peak_rss_mb=sum(hwm.values()),
        peak_pss_mb=peak_pss,
        forest=[tuple(e) for e in forests[0][5]],
        metrics=metrics,
        spans=spans,
    )
    job.setup_speed = probe.scale(job.spawned, job.entered)
    job.ingest_speed = probe.scale(job.entered, job.decoded)
    return job


def _sum_pss(pids) -> float:
    total = 0.0
    for pid in pids:
        try:
            total += pss_mb(pid)
        except (OSError, BenchError):
            pass  # exited between listing and reading
    return total


def verify(stream: Stream, job: Job) -> List[str]:
    """The forest must span exactly the final graph's components."""
    from repro.graph.union_find import UnionFind

    problems = []
    stray = [e for e in job.forest if tuple(sorted(e)) not in stream.edges]
    if stray:
        problems.append(f"{len(stray)} forest edges are not in the graph")
    forest_uf = UnionFind(N)
    for u, v in job.forest:
        if not forest_uf.union(u, v):
            problems.append(f"forest edge {(u, v)} closes a cycle")
            break
    graph_uf = UnionFind(N)
    for u, v in stream.edges:
        graph_uf.union(u, v)
    if _partition(forest_uf) != _partition(graph_uf):
        problems.append("forest components differ from the graph's")
    return problems


def _partition(uf) -> List[List[int]]:
    groups: Dict[int, List[int]] = {}
    for v in range(N):
        groups.setdefault(uf.find(v), []).append(v)
    return sorted(groups.values())


def jobs_for(seconds: float) -> int:
    return max(MIN_JOBS, round(seconds / SECONDS_PER_JOB))


def run_untraced(run_dir: str, seed: int, seconds: float, probe):
    stream = write_stream(run_dir, seed)
    start = now()
    jobs = [run_job(run_dir, f"job{i}", stream, seed, traced=False,
                    probe=probe)
            for i in range(jobs_for(seconds))]
    steal_share = probe.steal_share(start, now())
    problems = [p for job in jobs for p in verify(stream, job)]
    return stream, jobs, steal_share, problems


def end_to_end(stream: Stream, jobs: List[Job], steal_share: float):
    k = len(jobs)
    return {
        "setup_s": (
            statistics.median(j.ref_setup_s for j in jobs), "s",
            f"spawn to ingest entry in reference seconds, median of {k} "
            "jobs: " + ", ".join(f"{j.ref_setup_s:.3f}" for j in jobs),
        ),
        "wall_setup_s": (
            statistics.median(j.setup_s for j in jobs), "s",
            "the same in wall seconds: "
            + ", ".join(f"{j.setup_s:.3f}" for j in jobs),
        ),
        "events_per_s": (
            statistics.median(j.ref_events_per_s for j in jobs), "events/s",
            f"per reference second, median of {k} jobs of {stream.events} "
            "events: " + ", ".join(f"{j.ref_events_per_s:.0f}" for j in jobs),
        ),
        "wall_events_per_s": (
            statistics.median(j.events_per_s for j in jobs), "events/s",
            "per wall second: " + ", ".join(
                f"{j.events_per_s:.0f} at host speed {j.ingest_speed:.3f}"
                for j in jobs),
        ),
        "peak_rss_mb": (
            statistics.median([j.peak_rss_mb for j in jobs]), "MB",
            "sum of the VmHWM of ingest and its shard workers, median of "
            "jobs; shared-memory banks count once per process",
        ),
        "peak_pss_mb": (
            statistics.median([j.peak_pss_mb for j in jobs]), "MB",
            f"highest Pss sum of the same processes, read every "
            f"{PSS_EVERY:g} s, median of jobs; shared pages count once",
        ),
        "failed_ops_ratio": (0.0, "ratio", f"0 of {k} jobs"),
        "cpu_steal_share": (
            steal_share, "ratio",
            "share of the CPU time wanted during the jobs that the host stole",
        ),
    }
