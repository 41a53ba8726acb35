"""TCP transport: the shard protocol over sockets, for multi-host fleets.

This is the networked sibling of
:class:`~repro.explore.transport.LocalTransport`: the same
coordinator↔worker protocol (session init, prefix assignments, steal
flags, outcome/donation/error returns), but the workers are
``python -m repro worker --listen HOST:PORT`` daemons that may live on
other machines. Everything crossing the wire is a *frame* — a 4-byte
big-endian length prefix followed by a pickled ``(kind, payload)`` tuple
— and every expression inside a payload re-interns into the receiving
process's hash-consed arena on unpickle, with canonical forms anchored
by the process-stable sha256 structural fingerprints, so remote-computed
feasibility answers, deltas and witness models are byte-identical to
locally-computed ones.

Protocol, per session (one coordinator connection to one daemon):

1. worker → ``hello`` (protocol version; the coordinator rejects a
   mismatched or non-worker endpoint with a clear error),
2. coordinator → ``init`` carrying the pickled
   :class:`~repro.explore.transport.WorkerSession` (setup callable,
   engine config, query-cache snapshot),
3. coordinator → ``task`` / ``steal`` / ``stop`` frames; worker →
   ``done`` / ``donate`` / ``error`` frames, exactly the local
   transport's message kinds.

The daemon handles each session in a forked child process when the
platform has ``fork`` (real CPU parallelism when one daemon serves
several coordinator connections — that is how 4 shards run against 2
hosts), falling back to a thread per session elsewhere. Within a session
the worker owns a warm private pipeline: engine, canonical cache and
frame stack persist across assignments just like a local shard process.

Failure semantics: a worker-side exception travels back as an ``error``
frame with the traceback; a killed worker/host surfaces as EOF on the
socket, which the coordinator reports as a :class:`SymexError` naming
the assignment that died with it. Frames are pickles, so run workers
only on hosts and networks you trust — the coordinator and daemon
mutually execute each other's pickled payloads by design (the setup
callable must be importable on the worker anyway).
"""

from __future__ import annotations

import os
import pickle
import random
import select
import socket
import struct
import threading
import time

from repro.errors import SymexError
from repro.explore.shard import Assignment, Prefix
from repro.explore.transport import Transport, WorkerSession

#: Bumped on any incompatible frame/protocol change; the hello handshake
#: rejects mismatches instead of failing deep inside an unpickle.
#: v2: ``task`` frames may carry an :class:`Assignment` (roots +
#: exclusions for reclaimed work) instead of a bare prefix list.
PROTOCOL_VERSION = 2

# coordinator -> worker frame kinds (worker -> coordinator kinds are the
# queue message kinds MSG_DONE/MSG_DONATE/MSG_ERROR from explore.shard).
MSG_HELLO = "hello"
MSG_INIT = "init"
MSG_TASK = "task"
MSG_STEAL = "steal"
MSG_STOP = "stop"

_HEADER = struct.Struct(">I")

#: Refuse frames beyond this size (64 MiB): a corrupt/foreign header
#: would otherwise ask us to allocate gigabytes before failing.
_MAX_FRAME = 64 * 1024 * 1024


def parse_hostport(spec: str) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)`` with a clear error on junk."""
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise SymexError(
            f"bad worker address {spec!r}: expected 'host:port'")
    try:
        return host, int(port)
    except ValueError:
        raise SymexError(
            f"bad worker address {spec!r}: port {port!r} is not an integer")


def send_frame(sock: socket.socket, kind: str, payload: object) -> None:
    """Ship one length-prefixed pickled ``(kind, payload)`` frame."""
    body = pickle.dumps((kind, payload), protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_HEADER.pack(len(body)) + body)


class FrameReader:
    """Incremental frame decoder over one socket.

    Socket reads land in an internal buffer; :meth:`pending` says whether
    a complete frame is buffered (a single ``recv`` can deliver several
    frames, which a bare ``select`` loop would miss), :meth:`feed` pulls
    more bytes (False on EOF), and :meth:`next_frame` pops one decoded
    ``(kind, payload)`` tuple.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._buf = bytearray()

    def pending(self) -> bool:
        if len(self._buf) < _HEADER.size:
            return False
        (length,) = _HEADER.unpack_from(self._buf)
        if length > _MAX_FRAME:
            raise SymexError(
                f"oversized frame ({length} bytes): not a repro worker "
                "endpoint, or a corrupted stream")
        return len(self._buf) >= _HEADER.size + length

    def feed(self) -> bool:
        """Read whatever the socket has; False when the peer closed."""
        data = self.sock.recv(1 << 16)
        if not data:
            return False
        self._buf.extend(data)
        return True

    def next_frame(self) -> tuple[str, object]:
        (length,) = _HEADER.unpack_from(self._buf)
        end = _HEADER.size + length
        body = bytes(self._buf[_HEADER.size:end])
        del self._buf[:end]
        return pickle.loads(body)

    def partial(self) -> bool:
        """True while the buffer holds an incomplete frame (bytes arrived
        but no frame is decodable yet) — the stalled-stream signal the
        coordinator's per-worker recv deadline watches."""
        return bool(self._buf) and not self.pending()

    def buffered(self) -> int:
        """Bytes currently buffered — the coordinator's stall clock
        restarts whenever this grows (a slow frame is not a dead one)."""
        return len(self._buf)

    def recv_blocking(self, timeout: float | None = None) -> tuple | None:
        """Block for the next frame; None on EOF.

        Raises :class:`SymexError` when ``timeout`` (seconds) elapses
        first — used for the handshake, where a silent peer should fail
        fast rather than hang the coordinator. The socket's previous
        timeout mode is restored on every exit (success, EOF, timeout,
        error) — callers that configured their own timeout keep it.
        """
        previous = self.sock.gettimeout()
        self.sock.settimeout(timeout)
        try:
            while not self.pending():
                if not self.feed():
                    return None
        except socket.timeout:
            raise SymexError(
                f"timed out after {timeout}s waiting for a frame from "
                f"{_peer_name(self.sock)}")
        finally:
            self.sock.settimeout(previous)
        return self.next_frame()


def _peer_name(sock: socket.socket) -> str:
    try:
        peer = sock.getpeername()
    except OSError:  # pragma: no cover - racing a closed socket
        return "<disconnected>"
    if isinstance(peer, tuple) and len(peer) >= 2:
        return f"{peer[0]}:{peer[1]}"
    return repr(peer) if peer else "<unnamed peer>"  # e.g. AF_UNIX


# -- coordinator side ----------------------------------------------------------


class TcpTransport(Transport):
    """Shard workers as remote ``repro worker`` daemons over TCP.

    Args:
        hosts: ``"host:port"`` addresses of running daemons. When the
            shard count exceeds the host count, sessions are assigned
            round-robin — each daemon serves its extra sessions in
            separate forked processes, so 4 shards on 2 hosts still run
            4-wide.
        connect_timeout: total seconds to keep retrying each initial
            connection before failing (daemons may still be starting).
        retry_interval: initial sleep between connection attempts; each
            failed attempt doubles it (capped at ``retry_max_delay``)
            with jitter, so a fleet reconnecting to a recovering daemon
            does not hammer it in lockstep.
        retry_max_delay: backoff cap for the sleep between attempts.
        recv_deadline: seconds a *partially received* frame may go
            without a single new byte before the sender is declared
            dead. A worker host that drops off the network mid-frame
            delivers no EOF; without this deadline the coordinator
            would buffer the torso forever. A large frame that merely
            takes long to transfer keeps resetting the clock as its
            bytes arrive.
    """

    def __init__(self, hosts, connect_timeout: float = 10.0,
                 retry_interval: float = 0.1,
                 retry_max_delay: float = 2.0,
                 recv_deadline: float = 60.0):
        if not hosts:
            raise SymexError("TcpTransport needs at least one 'host:port'")
        self.hosts = [parse_hostport(h) if isinstance(h, str) else tuple(h)
                      for h in hosts]
        self.connect_timeout = connect_timeout
        self.retry_interval = retry_interval
        self.retry_max_delay = retry_max_delay
        self.recv_deadline = recv_deadline
        self._socks: list[socket.socket] = []
        self._readers: list[FrameReader] = []
        self._dead: set[int] = set()
        self._host_of_wid: dict[int, int] = {}
        self._init_frame: bytes | None = None
        # Per-worker stall clock: (buffered bytes last seen, when that
        # count was first seen). Reset whenever the buffer grows.
        self._partial_since: dict[int, tuple[int, float]] = {}

    # -- lifecycle -----------------------------------------------------------

    def start(self, count: int, session: WorkerSession) -> None:
        self.worker_count = count
        body = pickle.dumps((MSG_INIT, session),
                            protocol=pickle.HIGHEST_PROTOCOL)
        self._init_frame = _HEADER.pack(len(body)) + body
        try:
            for wid in range(count):
                index = wid % len(self.hosts)
                self._host_of_wid[wid] = index
                sock = self._connect(*self.hosts[index])
                self._socks.append(sock)
                self._readers.append(FrameReader(sock))
                self._handshake(wid)
                sock.sendall(self._init_frame)
        except Exception:
            self.stop()
            raise

    def _connect(self, host: str, port: int) -> socket.socket:
        # Capped exponential backoff with jitter: the first attempt is
        # immediate, then sleeps double from retry_interval up to
        # retry_max_delay, each scaled by a random factor in [0.5, 1.0).
        deadline = time.monotonic() + self.connect_timeout
        delay = self.retry_interval
        attempts = 0
        last_error: Exception | None = None
        while True:
            attempts += 1
            try:
                sock = socket.create_connection((host, port), timeout=5.0)
                sock.settimeout(None)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                return sock
            except OSError as error:
                last_error = error
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            time.sleep(min(remaining, delay * (0.5 + random.random() / 2)))
            delay = min(delay * 2, self.retry_max_delay)
        raise SymexError(
            f"cannot reach shard worker at {host}:{port} after "
            f"{attempts} attempt(s) over {self.connect_timeout:.1f}s "
            f"(exponential backoff): {last_error} — is "
            f"`python -m repro worker --listen {host}:{port}` running?")

    def _handshake(self, wid: int) -> None:
        frame = self._readers[wid].recv_blocking(timeout=self.connect_timeout)
        if frame is None:
            raise SymexError(
                f"shard worker at {self.describe(wid)} closed the "
                "connection before the hello handshake")
        kind, version = frame
        if kind != MSG_HELLO or version != PROTOCOL_VERSION:
            raise SymexError(
                f"endpoint at {self.describe(wid)} is not a compatible "
                f"repro worker (got {kind!r} v{version!r}, expected "
                f"{MSG_HELLO!r} v{PROTOCOL_VERSION})")

    def stop(self) -> None:
        for wid, sock in enumerate(self._socks):
            if wid not in self._dead:
                try:
                    send_frame(sock, MSG_STOP, None)
                except OSError:
                    pass
            try:
                sock.close()
            except OSError:  # pragma: no cover - double close
                pass
        self._socks = []
        self._readers = []
        self._dead = set()
        self._host_of_wid = {}
        self._init_frame = None
        self._partial_since = {}

    # -- shard protocol ------------------------------------------------------

    def assign(self, wid: int, prefixes) -> None:
        roots = (list(prefixes.roots) if isinstance(prefixes, Assignment)
                 else list(prefixes))
        try:
            send_frame(self._socks[wid], MSG_TASK, prefixes)
        except OSError as error:
            self._dead.add(wid)
            raise SymexError(
                f"shard worker at {self.describe(wid)} became unreachable "
                f"while being assigned {len(roots)} prefix(es) "
                f"{_preview(roots)}: {error}")

    def request_steal(self, wid: int) -> None:
        try:
            send_frame(self._socks[wid], MSG_STEAL, None)
        except OSError:
            # Not fatal by itself: the liveness check surfaces the death
            # together with whatever assignment the worker held.
            self._dead.add(wid)

    def acknowledge_done(self, wid: int) -> None:
        """No-op: a TCP worker clears its own steal flag at assignment
        start (the coordinator cannot reach into its Event)."""

    def recv(self, timeout: float) -> tuple[str, int, object] | None:
        deadline = time.monotonic() + timeout
        while True:
            # Serve buffered frames first: one socket read can deliver
            # several frames, and select() would not re-report them.
            for wid, reader in enumerate(self._readers):
                if wid in self._dead:
                    continue
                try:
                    if not reader.pending():
                        continue
                    kind, payload = reader.next_frame()
                except Exception:
                    # An oversized header or an undecodable pickle means
                    # the stream is desynced — nothing after this point
                    # can be framed. Equivalent to losing the worker.
                    self._dead.add(wid)
                    continue
                return kind, wid, payload
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            by_fd = {self._socks[wid].fileno(): wid
                     for wid in range(len(self._socks))
                     if wid not in self._dead}
            if not by_fd:
                return None
            readable, _, _ = select.select(list(by_fd), [], [], remaining)
            for fd in readable:
                wid = by_fd[fd]
                try:
                    if not self._readers[wid].feed():
                        self._dead.add(wid)
                except OSError:
                    self._dead.add(wid)
            self._check_stalls()

    def _check_stalls(self) -> None:
        """Per-worker recv deadline: a frame torso that stops growing for
        ``recv_deadline`` seconds means the host dropped off the network
        without an EOF — declare the worker dead instead of buffering the
        partial frame forever. The clock restarts every time the buffer
        grows, so a large frame that simply takes longer than the
        deadline to transfer is never mistaken for a death."""
        now = time.monotonic()
        for wid, reader in enumerate(self._readers):
            if wid in self._dead:
                self._partial_since.pop(wid, None)
                continue
            try:
                stalled = reader.partial()
            except SymexError:
                continue  # oversized header; the frame scan handles it
            if not stalled:
                self._partial_since.pop(wid, None)
                continue
            size = reader.buffered()
            mark = self._partial_since.get(wid)
            if mark is None or size > mark[0]:
                self._partial_since[wid] = (size, now)
            elif now - mark[1] > self.recv_deadline:
                self._dead.add(wid)

    def alive(self, wid: int) -> bool:
        return wid not in self._dead

    def respawn(self, wid: int) -> bool:
        """Open a replacement session for ``wid``, preferring the *next*
        listed host (a spare daemon) and falling back around the ring to
        the original. The old socket is closed first, so a still-running
        remote session child sees EOF and exits."""
        if self._init_frame is None:  # pragma: no cover - not started
            return False
        try:
            self._socks[wid].close()
        except OSError:  # pragma: no cover - already closed
            pass
        start_index = self._host_of_wid.get(wid, wid % len(self.hosts))
        for step in range(1, len(self.hosts) + 1):
            index = (start_index + step) % len(self.hosts)
            host, port = self.hosts[index]
            try:
                sock = self._connect(host, port)
            except SymexError:
                continue
            self._socks[wid] = sock
            self._readers[wid] = FrameReader(sock)
            self._host_of_wid[wid] = index
            self._dead.discard(wid)
            self._partial_since.pop(wid, None)
            try:
                self._handshake(wid)
                sock.sendall(self._init_frame)
            except (SymexError, OSError):
                self._dead.add(wid)
                try:
                    sock.close()
                except OSError:  # pragma: no cover - double close
                    pass
                continue
            return True
        return False

    def describe(self, wid: int) -> str:
        index = self._host_of_wid.get(wid, wid % len(self.hosts))
        host, port = self.hosts[index]
        return f"{host}:{port} (session {wid})"


def _preview(prefixes: list[Prefix], limit: int = 3) -> str:
    """First few prefixes of a lost assignment, for error messages."""
    shown = ", ".join(
        "".join("T" if d else "F" for d in p) or "<root>"
        for p in prefixes[:limit])
    more = len(prefixes) - limit
    return f"[{shown}{f', +{more} more' if more > 0 else ''}]"


# -- worker daemon -------------------------------------------------------------


def _session_reader(reader: FrameReader, tasks, steal_flag) -> None:
    """Socket → worker-loop adapter thread.

    Turns incoming frames into exactly what
    :func:`repro.explore.shard.worker_loop` consumes: ``task`` payloads
    land in the local task queue, ``steal`` sets the (threading) steal
    flag mid-assignment, and ``stop``/EOF enqueue the shutdown sentinel.
    """
    try:
        while True:
            if not reader.pending() and not reader.feed():
                break
            while reader.pending():
                kind, payload = reader.next_frame()
                if kind == MSG_TASK:
                    tasks.put(payload)
                elif kind == MSG_STEAL:
                    steal_flag.set()
                elif kind == MSG_STOP:
                    return
                else:
                    raise SymexError(
                        f"unknown coordinator frame kind {kind!r}")
    except OSError:  # pragma: no cover - coordinator vanished mid-read
        pass
    finally:
        tasks.put(None)


def handle_session(sock: socket.socket) -> None:
    """Serve one coordinator connection to completion.

    Sends the hello, waits for the session init, then runs the shared
    :func:`~repro.explore.shard.worker_loop` with a reader thread
    translating frames — so assignment execution, stealing and error
    reporting behave identically to a local shard worker.
    """
    import queue

    from repro.explore.shard import worker_loop

    try:
        with sock:
            reader = FrameReader(sock)
            send_frame(sock, MSG_HELLO, PROTOCOL_VERSION)
            frame = reader.recv_blocking()
            if frame is None:
                return
            kind, session = frame
            if kind != MSG_INIT or not isinstance(session, WorkerSession):
                raise SymexError(
                    f"expected an {MSG_INIT!r} frame to open the session, "
                    f"got {kind!r}")
            tasks: queue.Queue = queue.Queue()
            steal_flag = threading.Event()
            thread = threading.Thread(
                target=_session_reader, args=(reader, tasks, steal_flag),
                daemon=True)
            thread.start()
            worker_loop(
                session,
                get_task=tasks.get,
                put_message=lambda kind, payload: send_frame(
                    sock, kind, payload),
                steal_flag=steal_flag)
    except (OSError, BrokenPipeError):  # pragma: no cover - peer vanished
        pass


def serve_worker(listen: str, max_sessions: int | None = None,
                 ready_stream=None) -> None:
    """Run the ``python -m repro worker`` daemon: accept and serve sessions.

    Binds ``listen`` (``"host:port"``; port 0 picks a free port) and
    serves coordinator sessions until ``max_sessions`` have completed
    (forever by default). On platforms with ``fork`` each session runs
    in its own child process — concurrent sessions then explore on
    separate cores, which is how one daemon serves several shards of the
    same run; elsewhere sessions fall back to threads (correct, but
    GIL-serialized). Prints a parseable ``READY host port`` line once
    listening so scripts and tests can wait on it.

    ``SIGTERM`` drains rather than kills: the listener closes (new
    coordinators get connection-refused and fail over to other hosts)
    while in-flight sessions run to completion before the daemon exits —
    a rolling restart never looks like a mid-assignment crash.
    """
    import multiprocessing
    import signal as signal_module
    import sys

    host, port = parse_hostport(listen)
    server = socket.create_server((host, port))
    actual_host, actual_port = server.getsockname()[:2]
    draining = threading.Event()

    def _start_drain(signum=None, frame=None):
        draining.set()
        try:
            server.close()  # pending accept() raises OSError, loop exits
        except OSError:  # pragma: no cover - already closed
            pass

    previous_handler = None
    try:
        previous_handler = signal_module.signal(
            signal_module.SIGTERM, _start_drain)
    except ValueError:  # pragma: no cover - not the main thread (tests)
        pass
    # Only announce once the drain handler is in place: a supervisor may
    # send SIGTERM the moment it reads READY.
    stream = ready_stream or sys.stdout
    print(f"READY {actual_host} {actual_port}", file=stream, flush=True)

    fork_ctx = (multiprocessing.get_context("fork")
                if "fork" in multiprocessing.get_all_start_methods()
                else None)
    children: list = []
    threads: list = []
    served = 0
    try:
        while max_sessions is None or served < max_sessions:
            try:
                conn, addr = server.accept()
            except OSError:
                if draining.is_set():
                    break
                raise
            served += 1
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            children[:] = [c for c in children if c.is_alive()]
            if fork_ctx is not None:
                child = fork_ctx.Process(target=_serve_forked, args=(conn,),
                                         daemon=False)
                child.start()
                children.append(child)
                conn.close()  # the child owns its inherited copy
            else:  # pragma: no cover - non-fork platforms
                thread = threading.Thread(target=handle_session, args=(conn,),
                                          daemon=True)
                thread.start()
                threads.append(thread)
    finally:
        try:
            server.close()
        except OSError:  # pragma: no cover - double close
            pass
        # Drain: in-flight sessions (forked children / threads) finish
        # their assignments and see the coordinator's stop frame before
        # the daemon exits.
        for child in children:
            child.join()
        for thread in threads:  # pragma: no cover - non-fork platforms
            thread.join(timeout=60.0)
        if previous_handler is not None:
            try:
                signal_module.signal(signal_module.SIGTERM, previous_handler)
            except ValueError:  # pragma: no cover - not the main thread
                pass


def _serve_forked(conn: socket.socket) -> None:  # pragma: no cover - child
    """Forked session child: serve one session, then exit hard.

    ``os._exit`` skips the parent's inherited atexit/multiprocessing
    teardown — the child must not touch the listener it forked with.
    """
    try:
        handle_session(conn)
    finally:
        os._exit(0)
