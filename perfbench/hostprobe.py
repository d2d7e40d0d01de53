"""Host-speed probe: how fast the host runs a fixed piece of Python.

On a shared VM the speed of a vCPU drifts with what the host's other
tenants do.  On the reference VM a fixed pure-Python loop took from 28
to 46 ms within 15 seconds while nothing else ran, and passes of the
same served requests read from 35k to 75k events/s within an hour.  So
a run starts this file as a subprocess, which times a fixed task every
``PERIOD`` seconds for as long as the run lasts, and the benchmark
counts each timed interval in *reference seconds*: its wall seconds
times ``REFERENCE_MS`` over the probe's median task time inside it
(``HostProbe.scale``).  The task is pure Python and shares no code with
the program, so a change to the program moves the scaled figures and
leaves the probe where it was.

The task is timed in the probe thread's CPU time, so waiting for a core
that the program holds does not count.  Time the host steals is left out
of CPU time by the guest kernel, so each sample also records the VM's
busy and stolen CPU ticks (``/proc/stat``), and the share of wanted CPU
time the host stole over an interval shortens it as well.

Run by hand::

    python3 perfbench/hostprobe.py OUT_FILE

writes one line per sample, ``<monotonic s> <task CPU ms> <busy ticks>
<stolen ticks> <vCPU>``, until its parent exits.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

#: Seconds between two samples; one sample takes ~2 ms of one core.
PERIOD = 0.05
#: What the task takes on a quiet reference VM ("Intel(R) Xeon(R)
#: Processor", 2 vCPU, Python 3.11.7).  Scaled figures are "as on a
#: host where the task takes this long"; the constant only sets the
#: scale, since every run on every commit divides by the same value.
REFERENCE_MS = 2.0
#: Fewest samples an interval is scaled by (~0.8 s of probing); a
#: shorter interval borrows samples from either side.
MIN_SAMPLES = 15
STARTUP_TIMEOUT = 30.0


class ProbeError(RuntimeError):
    """The probe could not measure the host's speed."""


def task() -> int:
    total = 0
    for i in range(20_000):
        total += (i * 2654435761) & 0xFFFF
    return total


def cpu_ticks() -> Tuple[int, int]:
    """The VM's busy and stolen CPU ticks since boot, all CPUs."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:9]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal


def main(out_path: str) -> int:
    parent = os.getppid()
    cpus = sorted(os.sched_getaffinity(0))
    turn = 0
    with open(out_path, "w", buffering=1) as out:
        while os.getppid() == parent:
            # Each vCPU can sit on a differently loaded host core, and the
            # program's threads move between them: take turns on each.
            turn += 1
            cpu = cpus[turn % len(cpus)]
            try:
                os.sched_setaffinity(0, {cpu})
            except OSError:
                cpu = -1  # pinning not allowed: sample wherever we run
            start = time.thread_time()
            task()
            spent = time.thread_time() - start
            busy, stolen = cpu_ticks()
            out.write(f"{time.monotonic():.6f} {spent * 1e3:.6f} "
                      f"{busy} {stolen} {cpu}\n")
            time.sleep(PERIOD)
    return 0


class HostProbe:
    """The probe subprocess of one run; ``stop`` kills it and reaps it."""

    def __init__(self, run_dir: str):
        self.path = os.path.join(run_dir, "hostprobe.txt")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), self.path],
            stdin=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + STARTUP_TIMEOUT
        while not self._samples():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise ProbeError("the host-speed probe did not start")
            time.sleep(0.05)

    def _samples(self) -> List[Tuple[float, ...]]:
        try:
            with open(self.path) as fh:
                text = fh.read()
        except FileNotFoundError:
            return []
        # Whatever follows the last newline may be half written.
        return [tuple(map(float, line.split()))
                for line in text.split("\n")[:-1]]

    def _inside(self, start: float, end: float):
        """Samples of the monotonic interval [start, end], widened evenly
        on both sides when it holds fewer than ``MIN_SAMPLES``."""
        samples = self._samples()
        inside = [s for s in samples if start <= s[0] <= end]
        if len(inside) < MIN_SAMPLES:
            pad = (MIN_SAMPLES * PERIOD - (end - start)) / 2
            inside = [s for s in samples
                      if start - pad <= s[0] <= end + pad]
        if len(inside) < 2:
            raise ProbeError("the host-speed probe recorded no samples")
        return inside

    def median_ms(self, start: float, end: float) -> float:
        """Task time over [start, end]: the mean over vCPUs of the median
        on each, so that a slower vCPU counts by its share of the CPUs
        rather than by where it puts the median of the mixed samples."""
        by_cpu: Dict[float, List[float]] = {}
        for sample in self._inside(start, end):
            by_cpu.setdefault(sample[4], []).append(sample[1])
        return statistics.mean(statistics.median(v) for v in by_cpu.values())

    def steal_share(self, start: float, end: float) -> float:
        """Share of the CPU time the VM wanted over [start, end] that the
        host stole."""
        inside = self._inside(start, end)
        busy = inside[-1][2] - inside[0][2]
        stolen = inside[-1][3] - inside[0][3]
        return stolen / max(1.0, busy + stolen)

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per wall second over [start, end]: below 1
        when the host ran slower than the reference or stole time."""
        return (REFERENCE_MS / self.median_ms(start, end)
                * (1.0 - self.steal_share(start, end)))

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
