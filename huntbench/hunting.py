"""The closed hunting loop of one benchmark run, and its set-up.

Times are scaled to a reference machine speed: the run times the
reference loop of :mod:`speed` before the timed window and after every
block of about :data:`BLOCK_SECONDS` of hunting, and multiplies every
time measured in a block by :data:`REFERENCE_LOOP_S` over the mean of
the loop's times on either side of it.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import layers
import procs
import workloads

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Untimed hunts before the timed window: one input per corpus template.
WARMUP_INPUTS = 3
#: A tail percentile needs this many hunts beyond it.
TAIL_BEYOND = 10
#: The reference loop's time at the reference speed: a typical time on a
#: 2-core Xeon VM, where it ran in 35-70 ms. Times are scaled to it.
REFERENCE_LOOP_S = 0.050
#: Seconds of hunting between two timings of the reference loop.
BLOCK_SECONDS = 2.0

# Builds a workload's inputs in a fresh interpreter: one set-up's imports
# and input generation.
_SETUP_PROBE = ("import sys, workloads; "
                "workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))")


def speed_factor(before: float, after: float) -> float:
    """Scale from this machine's speed around a measurement to the
    reference speed."""
    return REFERENCE_LOOP_S / ((before + after) / 2)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest nearest-rank
    percentile with :data:`TAIL_BEYOND` samples beyond it.

    Up to ``2 * TAIL_BEYOND`` samples that percentile is not above the
    median, which is reported instead.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count <= 2 * TAIL_BEYOND:
        return (statistics.median(ordered), 50.0,
                count - (count + 1) // 2)
    rank = count - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / count, TAIL_BEYOND


class Run:
    """Hunts the inputs of one workload and keeps what the metrics need.

    With ``trace``, each input is hunted twice per round, once with the
    :class:`layers.LayerProbe` installed and once without.
    """

    def __init__(self, workload, inputs, hosts, speed, trace: bool):
        self.workload = workload
        self.inputs = inputs
        self.hosts = hosts
        self.speed = speed
        self.probe = layers.LayerProbe() if trace else None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        # Per input: the first hunt's findings digest and exact counters.
        self.expected: dict[str, tuple[str, dict[str, int]]] = {}
        # Timed hunts of the open block: (traced, wall, cpu), unscaled.
        self.pending: list[tuple[bool, float, float]] = []
        self.raw_walls: list[float] = []
        self.loop_times: list[float] = []
        # Scaled to the reference speed:
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.traced_walls: list[float] = []
        self.layer_seconds = {"total": defaultdict(float),
                              "self": defaultdict(float)}
        # Sums over the timed traced hunts:
        self.counter_sums: dict[str, int] = defaultdict(int)
        self.cache_hits = 0

    def _cpu(self) -> float:
        return procs.cpu_seconds(live_children=self.workload.shards > 1)

    def hunt(self, item, traced: bool = False, timed: bool = True) -> None:
        """One cold hunt of ``item``, checked and recorded."""
        self.attempted += 1
        calls_before = dict(self.probe.calls) if traced else {}
        cpu_before = self._cpu()
        if traced:
            self.probe.install()
        started = time.perf_counter()
        try:
            report = workloads.hunt(item, self.hosts)
        except Exception as exc:  # a failed hunt is a result, not a crash
            self.failed += 1
            self.failures.append(f"{item.label}: raised {exc!r}")
            return
        finally:
            wall = time.perf_counter() - started
            if traced:
                self.probe.remove()
        cpu = self._cpu() - cpu_before

        counters = workloads.report_counters(report)
        if traced:
            for metric, (layer, stat, _) in layers.METRICS.items():
                if stat == "calls":
                    counters[metric] = (self.probe.calls[layer]
                                        - calls_before.get(layer, 0))
        self._check(item, report, counters)
        if not timed:
            return
        self.pending.append((traced, wall, cpu))
        if traced:
            self.cache_hits += report.cache_hits
            for name in workloads.REPORT_COUNTERS:
                self.counter_sums[name] += counters[name]

    def _check(self, item, report, counters: dict[str, int]) -> None:
        problems = []
        verdict = item.oracle(report)
        if verdict is not None:
            problems.append(f"oracle: {verdict}")
        digest = workloads.findings_digest(report)
        exact = {name: counters[name] for name in self.workload.exact
                 if name in counters}
        if item.label not in self.expected:
            self.expected[item.label] = (digest, exact)
        else:
            expected_digest, expected = self.expected[item.label]
            if digest != expected_digest:
                problems.append(f"findings digest {digest} != "
                                f"{expected_digest}")
            for name, value in exact.items():
                # Call counters first appear on the first traced hunt.
                expected.setdefault(name, value)
                if value != expected[name]:
                    problems.append(f"exact counter {name} = {value} != "
                                    f"{expected[name]}")
        if problems:
            self.failed += 1
            self.failures.append(f"{item.label}: " + "; ".join(problems))

    def _layer_snapshot(self) -> dict[str, dict[str, float]]:
        if self.probe is None:
            return {}
        return {"total": dict(self.probe.total),
                "self": dict(self.probe.self_time)}

    def _close_block(self, before: float, after: float, snapshot) -> None:
        """Scale the open block's hunts by the speed measured around it."""
        factor = speed_factor(before, after)
        self.loop_times.append(after)
        for traced, wall, cpu in self.pending:
            if traced:
                self.traced_walls.append(wall * factor)
            else:
                self.raw_walls.append(wall)
                self.walls.append(wall * factor)
                self.cpus.append(cpu * factor)
        self.pending = []
        if self.probe is not None:
            current = {"total": self.probe.total,
                       "self": self.probe.self_time}
            for stat, seconds in current.items():
                for layer, value in seconds.items():
                    self.layer_seconds[stat][layer] += (
                        value - snapshot[stat].get(layer, 0.0)) * factor

    def warm_up(self) -> None:
        """Hunt the first inputs once, checked but untimed."""
        for item in self.inputs[:WARMUP_INPUTS]:
            self.hunt(item, timed=False)

    def timed(self, seconds: float) -> None:
        """Whole rounds over the inputs: at least one, and then another
        while the last one's length still fits in ``seconds``."""
        started = time.perf_counter()
        before = self.speed.loop_seconds()
        self.loop_times.append(before)
        block_started = time.perf_counter()
        snapshot = self._layer_snapshot()
        round_no = 0
        round_seconds = 0.0
        while time.perf_counter() - started + round_seconds <= seconds:
            round_started = time.perf_counter()
            for item in self.inputs:
                if self.probe is None:
                    self.hunt(item)
                else:
                    # Untraced and traced hunts of one input in pairs,
                    # alternating which goes first.
                    for traced in ((False, True) if round_no % 2 == 0
                                   else (True, False)):
                        self.hunt(item, traced)
                if time.perf_counter() - block_started >= BLOCK_SECONDS:
                    after = self.speed.loop_seconds()
                    self._close_block(before, after, snapshot)
                    before = after
                    block_started = time.perf_counter()
                    snapshot = self._layer_snapshot()
            round_no += 1
            round_seconds = time.perf_counter() - round_started
        if self.pending:
            self._close_block(before, self.speed.loop_seconds(), snapshot)

    def digest(self) -> str:
        """The run's findings digest: over each input's, in input order."""
        combined = hashlib.sha256()
        for item in self.inputs:
            digest = self.expected.get(item.label, ("none",))[0]
            combined.update(f"{item.label}={digest}\n".encode())
        return combined.hexdigest()[:16]

    def end_to_end(self, setup_times: list[float]) -> dict:
        hunts = len(self.walls)
        value, _, _ = tail(self.walls)
        return {
            "hunt_s.p50": (statistics.median(self.walls), "s"),
            "hunt_s.tail": (value, "s"),
            "hunts_per_min": (60.0 * hunts / sum(self.walls), "1/min"),
            "cpu_s_per_hunt": (sum(self.cpus) / hunts, "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
        }

    def per_layer(self, generate_seconds: float) -> dict:
        hunts = len(self.traced_walls)
        metrics = {}
        for metric, (layer, stat, unit) in layers.METRICS.items():
            value = (self.probe.calls[layer] if stat == "calls"
                     else self.layer_seconds[stat][layer])
            metrics[metric] = (value / hunts, unit)
        for name, total in self.counter_sums.items():
            metrics[name] = (total / hunts, "count")
        lookups = self.counter_sums["solver.cache.lookups"]
        metrics["solver.cache.hit_ratio"] = (
            self.cache_hits / lookups if lookups else 0.0, "ratio")
        metrics["corpus.generate.s"] = (generate_seconds, "s")
        traced = statistics.median(self.traced_walls)
        untraced = statistics.median(self.walls)
        metrics["traced.hunt_s.p50"] = (traced, "s")
        metrics["untraced.hunt_s.p50"] = (untraced, "s")
        metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
        return metrics


def measure_setup(workload, speed, seed: int, env: dict[str, str],
                  root: Path):
    """Set up :data:`SETUP_REPEATS` times; return the scaled times and the
    last daemon fleet (None when the workload has no daemons).

    One set-up is a fresh interpreter importing the pipeline and building
    the inputs (the corpus draw), then the workload's daemons starting
    and printing READY.
    """
    times, fleet = [], None
    before = speed.loop_seconds()
    try:
        for _ in range(SETUP_REPEATS):
            if fleet is not None:
                # Unchecked: the daemon prints READY before it installs its
                # SIGTERM drain handler, so a SIGTERM this soon can kill it
                # (-15). The fleet that serves the hunts is checked.
                fleet.stop(check=False)
                fleet = None
            started = time.perf_counter()
            subprocess.run([sys.executable, "-c", _SETUP_PROBE,
                            workload.name, str(seed)],
                           env=env, cwd=root, check=True)
            if workload.shards > 1:
                fleet = procs.DaemonFleet(workload.shards, env, root)
            elapsed = time.perf_counter() - started
            after = speed.loop_seconds()
            times.append(elapsed * speed_factor(before, after))
            before = after
    except BaseException:
        if fleet is not None:
            fleet.stop(check=False)
        raise
    return times, fleet
