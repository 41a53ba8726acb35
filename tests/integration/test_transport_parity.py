"""Transport parity: sockets must never change what Achilles finds.

The FSP, PBFT, Raft and two-phase-commit analyses must produce
*identical* findings (same order, same path ids, same witnesses, same
live-predicate sets) whether the shard workers are local
``multiprocessing`` processes or ``python -m repro worker`` daemons
reached over TCP — at shards = 1, 2 and 4. Combined with
``test_shard_parity.py`` (local transport across shard counts) this pins
the full matrix: any shard count, either transport, byte-identical
output.

By default the suite spawns two ephemeral-port daemons on localhost —
two daemons serving four shard sessions also exercises the round-robin
fork-per-session path. Set ``REPRO_TCP_HOSTS`` (comma-separated
``host:port`` list) to aim the parity runs at externally launched
daemons instead, which is how the CI job drives it.

The robustness tests (killed workers, remote tracebacks) always spawn
their own private daemons: their setup callables live in this module, so
the daemon needs the test directory on its ``PYTHONPATH`` to unpickle
them — true for daemons we spawn, not for external ones.
"""

import itertools
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.achilles import Achilles, AchillesConfig
from repro.bench.experiments import FSP_SESSION_MASK
from repro.errors import SymexError
from repro.explore import ShardScheduler
from repro.systems import broadcast, fsp, raft, tpc
from repro.systems.pbft import REQUEST_LAYOUT, pbft_client, pbft_replica

SHARD_COUNTS = (1, 2, 4)

_REPO_ROOT = Path(__file__).resolve().parents[2]


def _spawn_daemons(count: int, extra_pythonpath: str | None = None):
    """Start ``count`` worker daemons on ephemeral ports; return
    (processes, hosts) once every daemon has printed its READY line."""
    env = dict(os.environ)
    path_entries = [str(_REPO_ROOT / "src")]
    if extra_pythonpath:
        path_entries.append(extra_pythonpath)
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


def _stop_daemons(daemons):
    for daemon in daemons:
        daemon.terminate()
    for daemon in daemons:
        try:
            daemon.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover - hung daemon
            daemon.kill()
            daemon.wait()


@pytest.fixture(scope="module")
def tcp_hosts():
    """Worker daemon addresses for the parity runs.

    ``REPRO_TCP_HOSTS`` points at externally launched daemons (the CI
    job); otherwise two private localhost daemons are spawned. Either
    way, 4-shard runs stress one-daemon-many-sessions round-robin.
    """
    configured = os.environ.get("REPRO_TCP_HOSTS", "").strip()
    if configured:
        yield tuple(h.strip() for h in configured.split(",") if h.strip())
        return
    daemons, hosts = _spawn_daemons(2)
    try:
        yield hosts
    finally:
        _stop_daemons(daemons)


def _finding_signature(report):
    """Everything observable about the findings, in discovery order."""
    return [
        (f.server_path_id, f.decisions, f.path_condition, f.negation,
         f.witness, f.live_predicates, f.labels)
        for f in report.findings
    ]


def _transport_kwargs(shards, hosts):
    if hosts is None:
        return {"shards": shards}
    return {"shards": shards, "transport": "tcp", "hosts": tuple(hosts)}


def _run_fsp(shards, hosts=None, trace_dir=None):
    commands = dict(itertools.islice(fsp.COMMANDS.items(), 4))
    config = AchillesConfig(layout=fsp.FSP_LAYOUT, mask=FSP_SESSION_MASK,
                            trace_dir=trace_dir,
                            **_transport_kwargs(shards, hosts))
    with Achilles(config) as achilles:
        predicates = achilles.extract_clients(fsp.literal_clients(commands))
        return achilles.search(fsp.fsp_server, predicates)


def _run_pbft(shards, hosts=None):
    config = AchillesConfig(layout=REQUEST_LAYOUT, destination="replica0",
                            **_transport_kwargs(shards, hosts))
    with Achilles(config) as achilles:
        predicates = achilles.extract_clients({"pbft-client": pbft_client})
        return achilles.search(pbft_replica, predicates)


def _template_runner(variant):
    """A runner hunting a template system's canonical point."""
    def run(shards, hosts=None):
        config = AchillesConfig(layout=variant.layout,
                                destination=variant.destination,
                                **_transport_kwargs(shards, hosts))
        with Achilles(config) as achilles:
            predicates = achilles.extract_clients(variant.clients)
            return achilles.search(variant.server, predicates)
    return run


_RUNNERS = {"broadcast": _template_runner(broadcast.CANONICAL),
            "fsp": _run_fsp, "pbft": _run_pbft,
            "raft": _template_runner(raft.CANONICAL),
            "tpc": _template_runner(tpc.CANONICAL)}


@pytest.fixture(scope="module")
def local_baselines():
    """Serial (shards=1, local) signature per system. The local transport
    is already pinned byte-identical at shards=1,2,4 by
    ``test_shard_parity.py``, so equality against this baseline pins the
    TCP runs against every local shard count transitively."""
    return {name: _finding_signature(run(1)) for name, run in _RUNNERS.items()}


class TestTcpParity:
    @pytest.mark.parametrize("system", sorted(_RUNNERS))
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_findings_identical_over_tcp(self, system, shards,
                                         tcp_hosts, local_baselines):
        report = _RUNNERS[system](shards, hosts=tcp_hosts)
        assert local_baselines[system], f"{system}: serial run found nothing"
        assert _finding_signature(report) == local_baselines[system], (
            f"{system} diverged over tcp at shards={shards}")

    def test_counters_identical_over_tcp(self, tcp_hosts):
        """Exploration/pruning counters are part of the determinism
        contract too, not just the findings."""
        serial = _run_fsp(1)
        tcp = _run_fsp(4, hosts=tcp_hosts)
        assert tcp.server_paths_explored == serial.server_paths_explored
        assert tcp.server_paths_pruned == serial.server_paths_pruned
        assert tcp.predicate_samples == serial.predicate_samples


# -- tracing parity -----------------------------------------------------------


SOLVER_LAYERS = {"solver.canonicalize", "solver.cache",
                 "solver.incremental", "solver.scratch"}


def _assert_canonical_trace_order(records):
    """The merged trace's ordering invariant: one contiguous block per
    source — coordinator first, workers in ascending id order — with
    sequence numbers renumbered gaplessly inside each block. This is
    what makes the merge independent of real-time delta arrival."""
    body = [r for r in records if r["kind"] != "metrics"]
    blocks = []
    for record in body:
        if not blocks or blocks[-1] != record["src"]:
            blocks.append(record["src"])
    assert blocks[0] == "coordinator"
    workers = blocks[1:]
    assert workers == sorted(workers, key=lambda s: int(s.split("-")[1]))
    assert len(set(blocks)) == len(blocks), "source blocks not contiguous"
    for source in set(blocks):
        seqs = [r["seq"] for r in body if r["src"] == source]
        assert seqs == list(range(len(seqs)))


def _assert_trace_covers(records, shards):
    names = {r["name"] for r in records if r["kind"] in ("span", "agg")}
    assert SOLVER_LAYERS <= names, f"missing {SOLVER_LAYERS - names}"
    sources = {r["src"] for r in records}
    if shards == 1:
        assert "coordinator.explore" in names
    else:
        assert {"coordinator.seed", "coordinator.assign",
                "coordinator.merge", "worker.assignment"} <= names
        assert sources == {"coordinator"} | {
            f"worker-{w}" for w in range(shards)}
    assert records[-1]["kind"] == "metrics"  # the trailer survived


class TestTracingParity:
    """Tracing is observational: findings must stay byte-identical with
    it on, and the merged trace must cover every layer and obey the
    canonical source ordering — at any shard count, on both transports."""

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_traced_local_run_is_byte_identical(self, shards, tmp_path,
                                                local_baselines):
        from repro.obs.trace import read_trace

        report = _run_fsp(shards, trace_dir=str(tmp_path))
        assert _finding_signature(report) == local_baselines["fsp"], (
            f"tracing changed the findings at shards={shards}")
        trace = read_trace(tmp_path / "trace.jsonl")
        assert not trace.damaged
        _assert_trace_covers(trace.records, shards)
        _assert_canonical_trace_order(trace.records)

    def test_traced_tcp_run_is_byte_identical(self, tmp_path, tcp_hosts,
                                              local_baselines):
        from repro.obs.trace import read_trace

        report = _run_fsp(2, hosts=tcp_hosts, trace_dir=str(tmp_path))
        assert _finding_signature(report) == local_baselines["fsp"]
        trace = read_trace(tmp_path / "trace.jsonl")
        assert not trace.damaged
        _assert_trace_covers(trace.records, shards=2)
        _assert_canonical_trace_order(trace.records)

    def test_tracing_leaves_no_global_tracer_behind(self, tmp_path):
        from repro.obs import metrics as obs_metrics
        from repro.obs import trace as obs_trace

        _run_fsp(1, trace_dir=str(tmp_path))
        assert obs_trace.active is None
        assert obs_metrics.active is None


# -- robustness: these spawn private daemons (see module docstring) -----------


def dying_setup(engine, coordinator_pid):
    """Hard-kills the worker mid-run — no error frame possible, the
    coordinator only sees the socket go quiet."""
    def program(ctx):
        for i in range(4):
            ctx.branch(ctx.fresh_bool(f"b{i}"))
        if os.getpid() != coordinator_pid:
            os.kill(os.getpid(), signal.SIGKILL)
    return program, None


def failing_setup(engine, coordinator_pid):
    """Raises only inside remote workers, exercising the error frame."""
    def program(ctx):
        for i in range(4):
            ctx.branch(ctx.fresh_bool(f"b{i}"))
        if os.getpid() != coordinator_pid:
            raise RuntimeError("remote worker boom")
    return program, None


def die_once_setup(engine, coordinator_pid, marker):
    """SIGKILLs the first worker session to finish a path — exactly once
    across the whole run, via an O_EXCL marker file — so a recovery run
    sees one real daemon-session death and the respawned session (on the
    next listed host) completes the reclaimed work."""
    def program(ctx):
        for i in range(4):
            ctx.branch(ctx.fresh_bool(f"b{i}"))
        x = ctx.fresh_byte("x")
        ctx.branch(x < 100)
        if os.getpid() != coordinator_pid:
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return
            os.close(fd)
            os.kill(os.getpid(), signal.SIGKILL)
    return program, None


@pytest.fixture
def private_hosts():
    daemons, hosts = _spawn_daemons(
        2, extra_pythonpath=str(Path(__file__).resolve().parent))
    try:
        yield hosts
    finally:
        _stop_daemons(daemons)


class TestTcpRobustness:
    def test_killed_worker_fails_loudly_naming_assignment(self,
                                                          private_hosts):
        """SIGKILL on a TCP worker mid-assignment: the coordinator must
        detect the dropped connection and name the lost assignment, not
        hang waiting for a result frame that will never come."""
        scheduler = ShardScheduler(dying_setup, (os.getpid(),), shards=2,
                                   seed_factor=1, transport="tcp",
                                   hosts=private_hosts)
        with pytest.raises(SymexError) as excinfo:
            scheduler.run()
        message = str(excinfo.value)
        assert "died without reporting a result" in message
        assert "127.0.0.1:" in message            # which host
        assert "prefix(es)" in message            # the lost assignment

    def test_worker_exception_travels_back_as_traceback(self,
                                                        private_hosts):
        scheduler = ShardScheduler(failing_setup, (os.getpid(),), shards=2,
                                   seed_factor=1, transport="tcp",
                                   hosts=private_hosts)
        with pytest.raises(SymexError) as excinfo:
            scheduler.run()
        message = str(excinfo.value)
        assert "remote worker boom" in message
        assert "Traceback" in message             # the full remote trace

    def test_killed_worker_recovers_byte_identical_over_tcp(
            self, private_hosts, tmp_path):
        """SIGKILL on a TCP worker session mid-run, this time with
        ``on_worker_loss="recover"``: the coordinator reclaims the dead
        session's prefixes, respawns against the next host, and the
        merged result matches the serial engine path-for-path."""
        from repro.symex.engine import Engine, EngineConfig

        marker = str(tmp_path / "killed-once")
        args = (os.getpid(), marker)
        engine = Engine(EngineConfig())
        program, _ = die_once_setup(engine, *args)
        serial = engine.explore(program)
        scheduler = ShardScheduler(die_once_setup, args, shards=2,
                                   seed_factor=1, transport="tcp",
                                   hosts=private_hosts,
                                   on_worker_loss="recover")
        sharded = scheduler.run()
        assert os.path.exists(marker), "the kill never fired"
        assert sharded.worker_failures == 1
        assert sharded.prefixes_reassigned >= 1
        serial_paths = [(p.path_id, p.verdict, p.decisions, p.constraints)
                        for p in serial.paths]
        sharded_paths = [(p.path_id, p.verdict, p.decisions, p.constraints)
                         for p in sharded.exploration.paths]
        assert sharded_paths == serial_paths
        assert sharded.exploration.executed == serial.executed

    def test_plain_exploration_parity_over_tcp(self, private_hosts):
        """Scheduler-level (no Achilles) parity: a plain tree explored
        over TCP matches the local run path-for-path."""
        local = ShardScheduler(tree_setup, (4, [30, 200]), shards=2,
                               seed_factor=2).run()
        remote = ShardScheduler(tree_setup, (4, [30, 200]), shards=2,
                                seed_factor=2, transport="tcp",
                                hosts=private_hosts).run()
        local_paths = [(p.path_id, p.verdict, p.decisions, p.constraints)
                       for p in local.exploration.paths]
        remote_paths = [(p.path_id, p.verdict, p.decisions, p.constraints)
                        for p in remote.exploration.paths]
        assert remote_paths == local_paths
        assert remote.exploration.executed == local.exploration.executed


def tree_setup(engine, depth, thresholds=()):
    def program(ctx):
        for i in range(depth):
            ctx.branch(ctx.fresh_bool(f"b{i}"))
        x = ctx.fresh_byte("x")
        for threshold in thresholds:
            ctx.branch(x < threshold)
    return program, None
