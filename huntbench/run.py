"""Hunt benchmark: run one workload for a fixed time and print its metrics.

Usage, from the root of the repository::

    python3 huntbench/run.py --workload fsp --seed 1 --seconds 30 --trace 0

A closed loop in this one process runs cold hunts back to back: the
first inputs are hunted once untimed, then every input is hunted in
turn, in whole rounds that fit in ``--seconds`` (at least one). Every hunt is checked by its workload's oracle, and
its findings digest and exact counters must repeat on every hunt of the
same input. Times are scaled to a reference machine speed (see
:mod:`hunting`).

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics (means per traced
hunt) and the tracing overhead. The lines before it give the machine,
the digest and the counters. The exit code is 1 if any hunt raised,
failed its oracle or did not repeat, or a worker daemon exited with a
code other than 0; it is 2 if the program source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="huntbench/run.py",
        description="Run one hunt workload and print its metrics as JSON.")
    parser.add_argument("--workload", required=True,
                        choices=("fsp", "wildcard-tcp2", "corpus"))
    parser.add_argument("--seed", type=int, required=True,
                        help="picks the corpus draw; FSP inputs are fixed")
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics instead")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"huntbench: the program source {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hunting
    import procs
    import workloads
    from speed import SpeedProbe

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]]
                                 if env.get("PYTHONPATH") else []))
    workload = workloads.WORKLOADS[args.workload]
    with SpeedProbe() as speed:
        before = speed.loop_seconds()
        started = time.perf_counter()
        inputs = workload.build(args.seed)
        generate_seconds = 0.0
        if workload.name == "corpus":
            generate_seconds = ((time.perf_counter() - started)
                                * hunting.speed_factor(before,
                                                       speed.loop_seconds()))

        setup_times, fleet = hunting.measure_setup(workload, speed,
                                                   args.seed, env, ROOT)
        run = None
        try:
            run = hunting.Run(workload, inputs, fleet.hosts if fleet else (),
                              speed, bool(args.trace))
            run.warm_up()
            run.timed(args.seconds)
        finally:
            if fleet is not None:
                try:
                    fleet.stop()
                except procs.FleetError as exc:
                    if run is None:
                        raise
                    run.failures.append(str(exc))

    for failure in run.failures[:20]:
        print(f"huntbench: FAILED {failure}", file=sys.stderr)
    timed_hunts = len(run.walls) + len(run.traced_walls)
    print(f"huntbench workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"machine nproc={len(os.sched_getaffinity(0))} "
          f"python={platform.python_version()} "
          f"platform={platform.platform()}")
    print(f"hunts {timed_hunts} timed + {run.attempted - timed_hunts} "
          f"warm-up, {run.failed} failed "
          f"(failed_ratio {run.failed / max(run.attempted, 1):g})")
    print(f"findings digest {run.digest()} over {len(inputs)} input(s)")
    sums: dict[str, int] = defaultdict(int)
    for _, counters in run.expected.values():
        for name, value in counters.items():
            sums[name] += value
    print("exact counters (sum over inputs): " + " ".join(
        f"{name}={value}" for name, value in sorted(sums.items())))
    inexact = [c for c in workloads.COUNTERS if c not in workload.exact]
    print("inexact counters (reported, never compared): "
          + (" ".join(inexact) or "none"))

    metrics = {}
    if run.walls and (not args.trace or run.traced_walls):
        print(f"speed: reference loop median "
              f"{statistics.median(run.loop_times) * 1e3:.2f} ms "
              f"(reference {hunting.REFERENCE_LOOP_S * 1e3:g} ms); "
              f"untraced hunt median {statistics.median(run.raw_walls):.4f}"
              " s unscaled")
        if args.trace:
            metrics = run.per_layer(generate_seconds)
        else:
            metrics = run.end_to_end(setup_times)
            _, percentile, beyond = hunting.tail(run.walls)
            print(f"hunt_s.tail at p{percentile:.1f} of {len(run.walls)} "
                  f"hunts, {beyond} beyond")
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}")
    correct = not run.failures
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
