"""Chaos suite: injected worker loss must never change what Achilles finds.

The headline robustness criterion, end to end: the FSP and Raft analyses
run under a scripted :class:`FaultPlan` — one worker killed before it
delivers anything, its first respawn attempt refused — with
``on_worker_loss="recover"``, on both transports, at shards = 2 and 4;
the findings must be byte-identical to a fault-free serial run, and the
report must prove the faults actually fired (``worker_failures``,
``prefixes_reassigned``) rather than silently missing the injection.

This is the suite the CI chaos job runs. Like the parity suite,
``REPRO_TCP_HOSTS`` can aim the TCP runs at externally launched daemons;
otherwise two private localhost daemons are spawned per module. Two
hosts also exercise the respawn ring: the killed session's replacement
connects to the *next* listed host.
"""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.achilles import Achilles, AchillesConfig
from repro.bench.experiments import FSP_SESSION_MASK
from repro.explore import (
    FaultPlan,
    FaultyTransport,
    KillWorker,
    LocalTransport,
    RefuseRespawn,
)
from repro.explore.tcp import TcpTransport
from repro.systems import broadcast, fsp, raft

SHARD_COUNTS = (2, 4)

_REPO_ROOT = Path(__file__).resolve().parents[2]


def _chaos_plan():
    """One worker dead before its first result; its first respawn
    attempt refused (inside the default max_worker_retries=2 budget)."""
    return FaultPlan(KillWorker(0, after_results=0),
                     RefuseRespawn(0, times=1))


def _spawn_daemons(count: int):
    env = dict(os.environ)
    path_entries = [str(_REPO_ROOT / "src")]
    if env.get("PYTHONPATH"):
        path_entries.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path_entries)
    daemons, hosts = [], []
    for _ in range(count):
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--listen", "127.0.0.1:0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        daemons.append(daemon)
        line = daemon.stdout.readline().strip()
        ready, host, port = line.split()
        assert ready == "READY", f"unexpected daemon banner: {line!r}"
        hosts.append(f"{host}:{port}")
    return daemons, tuple(hosts)


@pytest.fixture(scope="module")
def tcp_hosts():
    configured = os.environ.get("REPRO_TCP_HOSTS", "").strip()
    if configured:
        yield tuple(h.strip() for h in configured.split(",") if h.strip())
        return
    daemons, hosts = _spawn_daemons(2)
    try:
        yield hosts
    finally:
        for daemon in daemons:
            daemon.terminate()
        for daemon in daemons:
            try:
                daemon.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                daemon.kill()
                daemon.wait()


def _finding_signature(report):
    return [
        (f.server_path_id, f.decisions, f.path_condition, f.negation,
         f.witness, f.live_predicates, f.labels)
        for f in report.findings
    ]


def _run_fsp(shards, transport="local", on_worker_loss="fail"):
    commands = dict(itertools.islice(fsp.COMMANDS.items(), 4))
    config = AchillesConfig(layout=fsp.FSP_LAYOUT, mask=FSP_SESSION_MASK,
                            shards=shards, transport=transport,
                            on_worker_loss=on_worker_loss)
    with Achilles(config) as achilles:
        predicates = achilles.extract_clients(fsp.literal_clients(commands))
        return achilles.search(fsp.fsp_server, predicates)


def _template_runner(variant):
    """A runner hunting a template system's canonical point."""
    def run(shards, transport="local", on_worker_loss="fail"):
        config = AchillesConfig(layout=variant.layout,
                                destination=variant.destination,
                                shards=shards, transport=transport,
                                on_worker_loss=on_worker_loss)
        with Achilles(config) as achilles:
            predicates = achilles.extract_clients(variant.clients)
            return achilles.search(variant.server, predicates)
    return run


_RUNNERS = {"broadcast": _template_runner(broadcast.CANONICAL),
            "fsp": _run_fsp, "raft": _template_runner(raft.CANONICAL)}

#: Systems whose path trees outlive the seed phase at shards=2, so the
#: kill plan is guaranteed a worker to hit. The broadcast tree is small
#: enough to finish at seed time — its chaos runs assert parity (and
#: clean counters) above, but cannot assert the injection fired.
_FANS_OUT = ("fsp", "raft")


@pytest.fixture(scope="module")
def baselines():
    """Fault-free serial signature per system."""
    return {name: _finding_signature(run(1)) for name, run in _RUNNERS.items()}


def _assert_parity(report, faulty, baseline, label):
    """Findings must match the fault-free serial baseline; the recovery
    accounting must be consistent with whether the kill actually fired
    (a tree small enough to finish at seed time never spawns workers, so
    there is nothing to kill — parity is still required)."""
    assert baseline, f"{label}: serial run found nothing"
    assert _finding_signature(report) == baseline, (
        f"{label}: findings diverged under injected worker loss")
    if faulty.injected_kills:
        assert report.worker_failures >= 1
        assert report.prefixes_reassigned >= 1
    else:
        assert report.worker_failures == 0
        assert report.prefixes_reassigned == 0


class TestChaosParityLocal:
    @pytest.mark.parametrize("system", sorted(_RUNNERS))
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_findings_survive_injected_worker_loss(self, system, shards,
                                                   baselines):
        faulty = FaultyTransport(LocalTransport(), _chaos_plan())
        report = _RUNNERS[system](shards, transport=faulty,
                                  on_worker_loss="recover")
        _assert_parity(report, faulty, baselines[system],
                       f"{system} local shards={shards}")

    @pytest.mark.parametrize("system", _FANS_OUT)
    def test_injection_fires_at_two_shards(self, system, baselines):
        """Teeth check: at shards=2 every system fans out, so the plan
        must actually fire — a chaos run whose faults never triggered
        proves nothing."""
        faulty = FaultyTransport(LocalTransport(), _chaos_plan())
        report = _RUNNERS[system](2, transport=faulty,
                                  on_worker_loss="recover")
        assert faulty.injected_kills == 1
        assert faulty.refused_respawns == 1
        assert report.worker_failures == 1
        _assert_parity(report, faulty, baselines[system],
                       f"{system} local shards=2")


class TestChaosParityTcp:
    @pytest.mark.parametrize("system", sorted(_RUNNERS))
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_findings_survive_injected_worker_loss(self, system, shards,
                                                   tcp_hosts, baselines):
        faulty = FaultyTransport(TcpTransport(tcp_hosts), _chaos_plan())
        report = _RUNNERS[system](shards, transport=faulty,
                                  on_worker_loss="recover")
        _assert_parity(report, faulty, baselines[system],
                       f"{system} tcp shards={shards}")

    @pytest.mark.parametrize("system", _FANS_OUT)
    def test_injection_fires_at_two_shards(self, system, tcp_hosts,
                                           baselines):
        faulty = FaultyTransport(TcpTransport(tcp_hosts), _chaos_plan())
        report = _RUNNERS[system](2, transport=faulty,
                                  on_worker_loss="recover")
        assert faulty.injected_kills == 1
        assert faulty.refused_respawns == 1
        assert report.worker_failures == 1
        _assert_parity(report, faulty, baselines[system],
                       f"{system} tcp shards=2")


class TestRecoveryCountersSurface:
    def test_report_counts_the_recovery(self):
        """AchillesReport carries the fault accounting: how many workers
        died, how much work moved, what the wall-clock overhead was."""
        faulty = FaultyTransport(LocalTransport(), _chaos_plan())
        report = _run_fsp(2, transport=faulty, on_worker_loss="recover")
        assert report.worker_failures == 1
        assert report.prefixes_reassigned >= 1
        assert report.recovery_seconds > 0.0

    def test_fault_free_run_reports_clean_counters(self):
        report = _run_fsp(2, on_worker_loss="recover")
        assert report.worker_failures == 0
        assert report.prefixes_reassigned == 0
        assert report.recovery_seconds == 0.0
