"""Shared helpers: paths, run environment, percentiles, processes."""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import signal
import subprocess
import tempfile
import time
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for one run (checkpoints, stream files, traces); inside
#: the checkout and ignored by git.
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")

now = time.monotonic


class BenchError(RuntimeError):
    """A run that cannot produce a result (the program misbehaved)."""


def source_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "cli.py"))


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def make_run_dir() -> str:
    os.makedirs(TMP_ROOT, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)


def remove_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def stop_process(proc: Optional[subprocess.Popen], timeout: float = 20.0):
    """Kill ``proc`` if it still runs and reap it."""
    if proc is None:
        return
    if proc.poll() is None:
        proc.send_signal(signal.SIGKILL)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:  # pragma: no cover - unkillable
        pass
    for stream in (proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()


def vm_hwm_mb(pid: int) -> float:
    """Peak resident memory (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def child_pids(pid: int) -> List[int]:
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as fh:
            return [int(p) for p in fh.read().split()]
    except OSError:
        return []


def read_spans(trace_dir: str) -> List[list]:
    """Spans written by ``perfbench/child.py``, each with its pid appended."""
    spans = []
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            pid = int(name[len("spans-"):-len(".jsonl")])
            with open(os.path.join(trace_dir, name)) as fh:
                spans.extend(
                    json.loads(line) + [pid] for line in fh if line.strip()
                )
    return spans


# -- statistics ------------------------------------------------------------

def nearest_rank(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_summary(samples: Sequence[float]) -> Dict[str, object]:
    """p50 and tail of raw latency samples (seconds; inf = failed op).

    The tail is the highest percentile with at least ten samples beyond
    it: the sample of rank ``count - 10``, at percentile
    ``100 * (count - 10) / count``.
    """
    ordered = sorted(samples)
    count = len(ordered)
    out: Dict[str, object] = {"count": count}
    if not count:
        return out
    out["p50_ms"] = nearest_rank(ordered, 50.0) * 1e3
    if count > 10:
        out["tail_pct"] = 100.0 * (count - 10) / count
        out["tail_ms"] = ordered[count - 11] * 1e3
    return out


# -- environment -----------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_commit() -> str:
    """The git commit of the checkout, or ``unknown`` outside a repository."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> Dict[str, object]:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": source_commit(),
    }

