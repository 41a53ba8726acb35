"""Worker daemons for the sharded workload, and CPU time of the process tree."""

from __future__ import annotations

import os
import resource
import select
import signal
import subprocess
import sys
from pathlib import Path

#: Seconds a daemon gets to print READY, and to drain after SIGTERM.
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0


class FleetError(RuntimeError):
    """A worker daemon failed to start or exited abnormally."""


class DaemonFleet:
    """``python -m repro worker`` daemons on ephemeral localhost ports.

    Started like the TCP parity suite starts them: listen on
    ``127.0.0.1:0`` and parse the ``READY host port`` banner. ``stop``
    sends SIGTERM, which drains in-flight sessions, and raises
    :class:`FleetError` if a daemon exits with a code other than 0.
    """

    def __init__(self, count: int, env: dict[str, str], cwd: Path):
        self.daemons: list[subprocess.Popen] = []
        self.hosts: tuple[str, ...] = ()
        try:
            for _ in range(count):
                self.daemons.append(subprocess.Popen(
                    [sys.executable, "-m", "repro", "worker",
                     "--listen", "127.0.0.1:0"],
                    env=env, cwd=cwd, stdout=subprocess.PIPE, text=True))
            self.hosts = tuple(self._ready(d) for d in self.daemons)
        except BaseException:
            self.stop(check=False)
            raise

    @staticmethod
    def _ready(daemon: subprocess.Popen) -> str:
        # The banner is the daemon's only stdout line; a daemon that dies
        # during start-up closes the pipe, which reads as "".
        readable, _, _ = select.select([daemon.stdout], [], [], START_TIMEOUT)
        if not readable:
            raise FleetError(f"worker daemon {daemon.pid} printed nothing "
                             f"in {START_TIMEOUT:.0f} s")
        line = daemon.stdout.readline().split()
        if len(line) != 3 or line[0] != "READY":
            raise FleetError(f"worker daemon {daemon.pid} printed "
                             f"{' '.join(line)!r} instead of READY")
        return f"{line[1]}:{line[2]}"

    def stop(self, check: bool = True) -> None:
        """SIGTERM every daemon and wait for each to drain and exit."""
        codes = []
        for daemon in self.daemons:
            if daemon.poll() is None:
                daemon.send_signal(signal.SIGTERM)
        for daemon in self.daemons:
            try:
                codes.append(daemon.wait(timeout=STOP_TIMEOUT))
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait()
                codes.append(f"hung past {STOP_TIMEOUT:.0f} s drain")
            daemon.stdout.close()
        self.daemons = []
        bad = [code for code in codes if code != 0]
        if check and bad:
            raise FleetError(f"worker daemons exited with {bad}")


_TICK = os.sysconf("SC_CLK_TCK")


def _descendant_cpu() -> float:
    """User+system CPU of every live (or unreaped) descendant process,
    plus what each has collected from the children it reaped."""
    parents: dict[int, int] = {}
    times: dict[int, float] = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:  # exited while scanning
            continue
        # Fields after the parenthesised command name: state, ppid, ...,
        # utime (14), stime, cutime, cstime (17) in proc(5) numbering.
        fields = stat[stat.rindex(b")") + 2:].split()
        pid = int(entry.name)
        parents[pid] = int(fields[1])
        times[pid] = sum(int(f) for f in fields[11:15]) / _TICK
    me = os.getpid()
    total = 0.0
    for pid, seconds in times.items():
        parent = parents.get(pid)
        while parent and parent != me:
            parent = parents.get(parent)
        if parent == me:
            total += seconds
    return total


def cpu_seconds(live_children: bool) -> float:
    """CPU time used so far by this process and all its descendants.

    This process and reaped children come from ``getrusage``. With
    ``live_children``, daemons that are still running, and the session
    children they fork, are read from ``/proc``.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime
            + (_descendant_cpu() if live_children else 0.0))
