"""The asyncio TCP server in front of the optimization scheduler.

:class:`OptimizationServer` owns one
:class:`~repro.service.scheduler.OptimizationService` and serves the
JSON-lines dialect of :mod:`repro.service.net.protocol` to any number
of concurrent TCP clients.  The scheduler stays the synchronous,
explicitly-pumped machine it always was — a single asyncio *pump task*
drives it, so every scheduling decision still happens in one thread in
a deterministic order; the event loop only multiplexes I/O.

Per connection:

* a **reader task** parses request lines and dispatches them;
* a **writer task** drains an outbox queue, so responses and events
  from the pump task never interleave mid-line and a slow reader
  exerts backpressure on its own connection only;
* at most ``max_pending`` unresolved waits may be outstanding — a
  submit beyond that is refused with a retryable ``Backpressure``
  error instead of letting one client queue unbounded state;
* ``heartbeat`` events flow while a wait is outstanding, so clients
  with read timeouts can tell a slow job from a dead server.

**Graceful drain** (SIGTERM, SIGINT, or a ``shutdown`` command): the
listener closes (no new connections), new submissions are refused with
retryable ``ServerDraining``, in-flight jobs get ``drain_grace``
seconds to land (their waiters are answered normally), whatever
remains is cleanly failed as ``ServiceClosed`` — which clients also
treat as retry-after-restart — the persistent cache tier is already
durable (every store was an atomic rename), and the process exits 0.

``kill -9`` needs no handler at all: the disk tier's atomic writes
mean an abrupt death can strand at most a temp file, never a corrupt
entry — the network chaos campaign (`repro.verify.netchaos`) proves
exactly that.

The test-only ``chaos_disconnect`` knob severs a connection after
writing *half* of a response line (seeded), exercising the client's
mid-read reconnect path.
"""

from __future__ import annotations

import asyncio
import os
import random
import signal
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from repro._version import __version__
from repro.service.job import JobError
from repro.service.net.protocol import (
    MAX_LINE_BYTES,
    decode_line,
    encode_line,
    error_message,
    job_from_request,
)
from repro.service.scheduler import (
    OptimizationService,
    ServiceConfig,
    ServiceError,
)


#: scheduler pump cadence (also the event-delivery cadence)
PUMP_INTERVAL = 0.005

#: keep-alive cadence towards connections with outstanding waits
HEARTBEAT_INTERVAL = 2.0


@dataclass
class ServeConfig:
    """Network-server knobs; the scheduler's ride in ``service``."""

    host: str = "127.0.0.1"
    #: 0 picks a free port; the bound port lands in ``port_file``
    port: int = 0
    service: ServiceConfig = field(
        default_factory=lambda: ServiceConfig(backend="process", max_workers=4)
    )
    #: unresolved waits one connection may hold before ``Backpressure``
    max_pending: int = 64
    #: seconds in-flight jobs get to land during a drain
    drain_grace: float = 10.0
    #: written atomically once bound (how tests learn a port-0 choice)
    port_file: Optional[str] = None
    #: test-only: sever a connection after half a response at this rate
    chaos_disconnect: float = 0.0
    chaos_seed: int = 0


class _Connection:
    """One client session: its writer task, waiters, and subscriptions."""

    _ids = iter(range(1, 1 << 62))

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.conn_id = next(self._ids)
        self.outbox: asyncio.Queue = asyncio.Queue()
        #: (request id, job id) pairs awaiting results
        self.waiters: list[tuple[Optional[int], int]] = []
        #: job id -> last status sent as a job event
        self.subscriptions: dict[int, Optional[str]] = {}
        self.alive = True
        self.last_write = time.monotonic()
        self.writer_task: Optional[asyncio.Task] = None

    def send(self, payload: dict, truncate: bool = False) -> None:
        """Enqueue one message (the writer task serializes the wire)."""
        if not self.alive:
            return
        self.last_write = time.monotonic()
        self.outbox.put_nowait((encode_line(payload), truncate))

    def close(self) -> None:
        self.alive = False
        self.outbox.put_nowait(None)


class OptimizationServer:
    """Serve one :class:`OptimizationService` over TCP JSON lines."""

    def __init__(self, config: Optional[ServeConfig] = None, log=None):
        self.config = config or ServeConfig()
        self._log_sink = log if log is not None else (
            lambda message: print(message, file=sys.stderr, flush=True)
        )
        self.service = OptimizationService(
            self.config.service, log=self._log_sink
        )
        self.port: Optional[int] = None
        self._conns: set[_Connection] = set()
        self._draining = False
        self._drain_event: Optional[asyncio.Event] = None
        self._rng = (
            random.Random(self.config.chaos_seed)
            if self.config.chaos_disconnect > 0
            else None
        )
        self.chaos_disconnects = 0

    def _log(self, message: str) -> None:
        self._log_sink(f"serve: {message}")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def run(self) -> int:
        """Blocking entry point: serve until drained; exit status 0."""
        try:
            asyncio.run(self._main())
        except KeyboardInterrupt:  # pragma: no cover - signal fallback
            pass
        return 0

    async def _main(self) -> None:
        loop = asyncio.get_running_loop()
        self._drain_event = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self._drain_event.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-Unix loop: shutdown command still works
        server = await asyncio.start_server(
            self._handle,
            self.config.host,
            self.config.port,
            limit=MAX_LINE_BYTES,
        )
        self.port = server.sockets[0].getsockname()[1]
        self._write_port_file()
        self._log(
            f"listening on {self.config.host}:{self.port} "
            f"(backend={self.service.backend.name}, "
            f"workers={self.service.backend.max_workers}, "
            f"cache_dir={self.config.service.cache_dir or '<memory only>'})"
        )
        pump = asyncio.create_task(self._pump_loop())
        try:
            async with server:
                await self._drain_event.wait()
                await self._drain(server)
        finally:
            pump.cancel()

    def _write_port_file(self) -> None:
        """Publish the bound port atomically (the test/CLI handshake)."""
        if not self.config.port_file:
            return
        path = self.config.port_file
        tmp = f"{path}.tmp-{os.getpid()}"
        with open(tmp, "w") as handle:
            handle.write(f"{self.port}\n")
        os.replace(tmp, path)

    async def _drain(self, server: asyncio.AbstractServer) -> None:
        """SIGTERM semantics: stop admission, land or cleanly reject
        in-flight work, flush state, exit 0."""
        self._draining = True
        self._log("draining: admission stopped")
        server.close()
        await server.wait_closed()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_grace
        while self.service.pending and loop.time() < deadline:
            # the pump task is still running: jobs land, waiters resolve
            await asyncio.sleep(PUMP_INTERVAL)
        # whatever is still in flight fails structurally (ServiceClosed,
        # which clients treat as retry-after-restart); completed results
        # are already durable in the disk tier (atomic renames)
        self.service.close()
        self._deliver()
        for conn in list(self._conns):
            conn.send({"event": "shutdown"})
            conn.close()
        await asyncio.sleep(0)  # let writer tasks flush their outboxes
        for conn in list(self._conns):
            if conn.writer_task is not None:
                try:
                    await asyncio.wait_for(conn.writer_task, timeout=1.0)
                except (asyncio.TimeoutError, Exception):
                    pass
        self._log(f"drained: {self.service.stats.summary()}")

    # ------------------------------------------------------------------
    # per-connection tasks
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer)
        self._conns.add(conn)
        conn.writer_task = asyncio.create_task(self._writer_loop(conn))
        try:
            while conn.alive:
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionError, OSError):
                    break  # oversized line or torn connection
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    message = decode_line(line)
                except ValueError as error:
                    conn.send(error_message(None, str(error)))
                    continue
                self._dispatch(conn, message)
        finally:
            self._conns.discard(conn)
            conn.close()

    async def _writer_loop(self, conn: _Connection) -> None:
        try:
            while True:
                item = await conn.outbox.get()
                if item is None:
                    break
                data, truncate = item
                if truncate:
                    # chaos: half a response, then a hard abort — the
                    # client must treat the torn line as a dead server
                    conn.writer.write(data[: max(1, len(data) // 2)])
                    await conn.writer.drain()
                    conn.writer.transport.abort()
                    break
                conn.writer.write(data)
                await conn.writer.drain()
        except (ConnectionError, OSError):  # client went away mid-write
            pass
        finally:
            conn.alive = False
            try:
                conn.writer.close()
            except Exception:  # pragma: no cover - transport gone
                pass

    # ------------------------------------------------------------------
    # request dispatch (synchronous; runs on the event loop)
    # ------------------------------------------------------------------
    def _dispatch(self, conn: _Connection, message: dict) -> None:
        request_id = message.get("id")
        command = message.get("cmd", "submit")
        try:
            if command == "hello":
                conn.send({
                    "id": request_id,
                    "ok": True,
                    "server": "genesis-serve",
                    "version": __version__,
                    "queue_limit": self.service.config.queue_limit,
                    "max_pending": self.config.max_pending,
                    "backend": self.service.backend.name,
                    "workers": self.service.backend.max_workers,
                    "draining": self._draining,
                })
            elif command == "ping":
                conn.send({"id": request_id, "pong": True,
                           "t": time.time()})
            elif command == "stats":
                conn.send({
                    "id": request_id,
                    "stats": self.service.stats.as_dict(),
                    "summary": self.service.stats.summary(),
                })
            elif command == "shutdown":
                conn.send({"id": request_id, "ok": True,
                           "draining": True})
                assert self._drain_event is not None
                self._drain_event.set()
            elif command == "wait":
                job_id = int(message["job_id"])
                self.service.status(job_id)  # raises on unknown ids
                conn.waiters.append((request_id, job_id))
                self._deliver_conn(conn)
            elif command == "submit":
                self._submit(conn, request_id, message)
            else:
                conn.send(error_message(
                    request_id, f"unknown command {command!r}",
                    "ProtocolError",
                ))
        except (JobError, ServiceError, KeyError, TypeError,
                ValueError) as error:
            conn.send(error_message(
                request_id,
                str(error) or type(error).__name__,
                type(error).__name__,
            ))

    def _submit(
        self, conn: _Connection, request_id: Optional[int], message: dict
    ) -> None:
        if self._draining:
            conn.send(error_message(
                request_id,
                "server is draining and admits no new jobs",
                "ServerDraining",
                retryable=True,
            ))
            return
        if len(conn.waiters) >= self.config.max_pending:
            conn.send(error_message(
                request_id,
                f"connection holds {len(conn.waiters)} unresolved "
                f"wait(s) (limit {self.config.max_pending})",
                "Backpressure",
                retryable=True,
            ))
            return
        job = job_from_request(message)
        job_id = self.service.submit(job)
        if message.get("events"):
            conn.subscriptions[job_id] = None
        if message.get("wait", True):
            conn.waiters.append((request_id, job_id))
        else:
            conn.send({
                "id": request_id,
                "job_id": job_id,
                "status": self.service.status(job_id),
            })
        self._deliver_conn(conn)

    # ------------------------------------------------------------------
    # the pump task: scheduling + event/response delivery
    # ------------------------------------------------------------------
    async def _pump_loop(self) -> None:
        while True:
            try:
                self.service.pump()
            except ServiceError:  # service closed mid-drain
                pass
            self._deliver()
            await asyncio.sleep(PUMP_INTERVAL)

    def _deliver(self) -> None:
        for conn in list(self._conns):
            if conn.alive:
                self._deliver_conn(conn)

    def _deliver_conn(self, conn: _Connection) -> None:
        # job-status events for subscribed jobs
        finished: list[int] = []
        for job_id, last_status in conn.subscriptions.items():
            status = self.service.status(job_id)
            if status != last_status:
                conn.subscriptions[job_id] = status
                conn.send({
                    "event": "job", "job_id": job_id, "status": status,
                })
            if self.service.result(job_id) is not None:
                finished.append(job_id)
        for job_id in finished:
            del conn.subscriptions[job_id]
        # resolved waiters become responses
        still_waiting: list[tuple[Optional[int], int]] = []
        for request_id, job_id in conn.waiters:
            result = self.service.result(job_id)
            if result is None:
                still_waiting.append((request_id, job_id))
                continue
            truncate = (
                self._rng is not None
                and self._rng.random() < self.config.chaos_disconnect
            )
            if truncate:
                self.chaos_disconnects += 1
                self._log(
                    f"chaos: severing connection {conn.conn_id} "
                    f"mid-response (job {job_id})"
                )
            conn.send(
                {"id": request_id, "result": result.to_dict()},
                truncate=truncate,
            )
            if truncate:
                # the connection is gone; drop its remaining waiters —
                # the client will reconnect and resubmit (idempotent)
                return
        conn.waiters = still_waiting
        # keep-alive towards connections with outstanding waits
        if conn.waiters and (
            time.monotonic() - conn.last_write
            > HEARTBEAT_INTERVAL
        ):
            conn.send({"event": "heartbeat", "t": time.time()})


def _parse_hostport(text: str, default_host: str = "127.0.0.1") -> tuple[str, int]:
    """``HOST:PORT``, ``:PORT`` or ``PORT`` → (host, port)."""
    host, sep, port = text.rpartition(":")
    if not sep:
        host, port = default_host, text
    host = host or default_host
    try:
        return host, int(port)
    except ValueError as error:
        raise ServiceError(
            f"bad address {text!r} (expected HOST:PORT or PORT)"
        ) from error


def run_server(config: ServeConfig, log=None) -> int:
    """Build and run one server (the ``genesis serve --listen`` path)."""
    return OptimizationServer(config, log=log).run()
