"""The repository benchmark: served ingest, small batches, fresh queries
and offline sharded ingest, checked for correctness on every run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload ingest-bulk --seed 1 \
        --seconds 15 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``ingest-bulk``  - served forest, n=256, 8192-pair batches, 20% deletes,
  10 snapshot queries per batch;
* ``ingest-small`` - served forest, n=256, 256-pair batches, 1 snapshot
  query per batch;
* ``query-fresh``  - served forest, n=512, 1024-pair batches, each
  followed by a fresh ``components`` query;
* ``offline-shm``  - ``repro ingest --backend shm --shards 2
  --batch-size 8192`` on an n=1024 G(n,p) churn stream file.

Served workloads run a closed loop of two connections from this process
against a ``python -m repro serve --checkpoint-dir`` subprocess.  With
``--trace 0`` the run makes two passes on fresh servers that share
``--seconds`` and prints every end-to-end figure by name and unit; with
``--trace 1`` it runs one untraced and one traced pass of ``--seconds``
each and prints the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  A run
whose answers are wrong prints ``"correct": false`` with no metrics and
exits 1.  Compared times are counted in reference seconds: wall seconds
scaled by the host's speed, which ``hostprobe.py`` samples all through
the run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
from hostprobe import HostProbe, ProbeError  # noqa: E402

WORKLOADS = ("ingest-bulk", "ingest-small", "query-fresh", "offline-shm")
#: End-to-end metrics in the last line of an untraced run: the ones
#: every workload has and that are never 0 (``BENCHMARK.json``).
REPORTED = (
    ("setup_s", "s"),
    ("events_per_s", "events/s"),
    ("peak_rss_mb", "MB"),
)


def _print_figures(title: str, figures) -> None:
    print(f"[{title}]")
    for name, (value, unit, note) in figures.items():
        print(f"  {name} = {value:.6g} {unit}  ({note})")


def _result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    })


def run_served(run_dir, workload, seed, seconds, trace, probe):
    import served
    from layers import complete, served_layers

    if not trace:
        shape, passes, setups, problems = served.run_untraced(
            run_dir, workload, seed, seconds, probe
        )
        figures = served.end_to_end(shape, passes, setups)
        return (problems, sum(p.attempted for p in passes),
                sum(p.failed for p in passes), figures, None)
    shape = served.SHAPES[workload]
    plans = served.build_plans(shape, seed, seconds)
    plain = served.run_pass(run_dir, "untraced", shape, seed, plans,
                            seconds, False, probe)
    traced = served.run_pass(run_dir, "traced", shape, seed, plans,
                             seconds, True, probe)
    problems = served.verify(shape, seed, plans, plain)
    problems += served.verify(shape, seed, plans, traced)
    layers = served_layers(traced, plain.ref_events_per_s, served.SKETCH)
    return (problems, plain.attempted + traced.attempted,
            plain.failed + traced.failed, None, complete(layers))


def run_offline(run_dir, seed, seconds, trace, probe):
    import offline
    from layers import complete, offline_layers

    if not trace:
        stream, jobs, steal, problems = offline.run_untraced(
            run_dir, seed, seconds, probe
        )
        return (problems, len(jobs), 0,
                offline.end_to_end(stream, jobs, steal), None)
    stream = offline.write_stream(run_dir, seed)
    plain = offline.run_job(run_dir, "untraced", stream, seed, traced=False,
                            probe=probe)
    traced = offline.run_job(run_dir, "traced", stream, seed, traced=True,
                             probe=probe)
    problems = offline.verify(stream, plain) + offline.verify(stream, traced)
    layers = offline_layers(traced, plain.ref_events_per_s)
    return problems, 2, 0, None, complete(layers)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one workload of the repository benchmark."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="seconds measured: split between the served "
                        "passes, or spread over the offline jobs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not common.source_present():
        print(f"error: no repro sources under {common.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, common.SRC)

    env = common.environment()
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    run_dir = common.make_run_dir()
    probe = None
    try:
        probe = HostProbe(run_dir)
        if args.workload == "offline-shm":
            outcome = run_offline(run_dir, args.seed, args.seconds,
                                  args.trace, probe)
        else:
            outcome = run_served(run_dir, args.workload, args.seed,
                                 args.seconds, args.trace, probe)
    except (common.BenchError, ProbeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(_result_line(False, 1, 1, {}))
        return 1
    finally:
        if probe is not None:
            probe.stop()
        common.remove_dir(run_dir)
    problems, attempted, failed, figures, layers = outcome
    if problems:
        for problem in problems:
            print(f"WRONG: {problem}")
        print(_result_line(False, attempted, failed, {}))
        return 1
    print("correct: every answer matched its reference")
    if figures is not None:
        _print_figures("end-to-end", figures)
        metrics = {
            name: {"value": figures[name][0], "unit": unit}
            for name, unit in REPORTED
        }
    else:
        print("[per-layer]")
        for name, metric in layers.items():
            print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
        metrics = layers
    print(_result_line(True, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
