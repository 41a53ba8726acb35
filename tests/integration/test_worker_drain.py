"""SIGTERM drains the worker daemon instead of killing it.

A rolling restart of a worker fleet sends SIGTERM; if that dropped
in-flight sessions it would look exactly like a mid-assignment crash to
every coordinator. The drain contract: the listener closes immediately
(new coordinators get connection-refused and fail over to other hosts),
in-flight sessions run their assignments to completion and see the
coordinator's stop frame, and only then does the daemon exit — with
status 0, not -SIGTERM.

The test drives one session by hand over a raw socket so it can hold
the session open across the SIGTERM and observe both halves of the
contract on the same daemon.
"""

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from repro.explore.tcp import (
    MSG_HELLO,
    MSG_INIT,
    MSG_STOP,
    MSG_TASK,
    PROTOCOL_VERSION,
    FrameReader,
    send_frame,
    serve_worker,
)
from repro.explore.shard import MSG_DONE
from repro.explore.transport import WorkerSession
from repro.symex.engine import EngineConfig

_REPO_ROOT = Path(__file__).resolve().parents[2]


def drain_setup(engine):
    """Tiny two-path program; lives at module level so the daemon (which
    gets this directory on its PYTHONPATH) can unpickle it."""
    def program(ctx):
        ctx.branch(ctx.fresh_bool("b"))
    return program, None


def _spawn_daemon():
    env = dict(os.environ)
    entries = [str(_REPO_ROOT / "src"), str(Path(__file__).resolve().parent)]
    if env.get("PYTHONPATH"):
        entries.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(entries)
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker",
         "--listen", "127.0.0.1:0"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    line = daemon.stdout.readline().strip()
    ready, host, port = line.split()
    assert ready == "READY", f"unexpected daemon banner: {line!r}"
    return daemon, host, int(port)


class TestSigtermDrain:
    def test_drain_finishes_in_flight_session_and_refuses_new_ones(self):
        daemon, host, port = _spawn_daemon()
        sock = None
        try:
            # Open a session and complete the handshake, so the daemon
            # has one in-flight session child when the SIGTERM lands.
            sock = socket.create_connection((host, port), timeout=10)
            reader = FrameReader(sock)
            frame = reader.recv_blocking(timeout=10)
            assert frame == (MSG_HELLO, PROTOCOL_VERSION)
            send_frame(sock, MSG_INIT,
                       WorkerSession(setup=drain_setup,
                                     engine_config=EngineConfig()))

            daemon.send_signal(signal.SIGTERM)

            # Half 1: the listener closes — new coordinators are refused.
            # (A connection that races the close is simply dropped; its
            # session child sees EOF and exits.)
            deadline = time.monotonic() + 10
            refused = False
            while time.monotonic() < deadline:
                try:
                    probe = socket.create_connection((host, port),
                                                     timeout=1.0)
                except OSError:
                    refused = True
                    break
                probe.close()
                time.sleep(0.05)
            assert refused, "listener still accepting after SIGTERM"

            # Half 2: the in-flight session still serves assignments.
            send_frame(sock, MSG_TASK, [()])
            frame = reader.recv_blocking(timeout=60)
            assert frame is not None, "drained session dropped mid-task"
            kind, outcome = frame
            assert kind == MSG_DONE
            assert len(outcome.paths) == 2

            # Session over: the daemon may now exit — cleanly.
            send_frame(sock, MSG_STOP, None)
            sock.close()
            sock = None
            assert daemon.wait(timeout=30) == 0, (
                "daemon did not exit 0 after draining")
        finally:
            if sock is not None:
                sock.close()
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()

    def test_sigterm_right_after_ready_drains(self):
        """READY is printed only once the drain handler is installed, so
        a supervisor may stop the daemon the moment it reads the banner."""
        daemon, _, _ = _spawn_daemon()
        try:
            daemon.send_signal(signal.SIGTERM)
            assert daemon.wait(timeout=30) == 0, (
                "daemon killed by a SIGTERM sent right after READY")
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()

    def test_drain_handler_installed_before_ready(self):
        """The race above, pinned deterministically in-process: whoever
        reads READY must already find the drain handler in place."""
        handlers = []

        class Banner:
            def write(self, text):
                handlers.append(signal.getsignal(signal.SIGTERM))

            def flush(self):
                pass

        before = signal.getsignal(signal.SIGTERM)
        serve_worker("127.0.0.1:0", max_sessions=0, ready_stream=Banner())
        assert handlers and all(h is not before for h in handlers)
        assert signal.getsignal(signal.SIGTERM) is before
