"""The retrying network client for the optimization service.

:class:`NetworkServiceClient` speaks the JSON-lines dialect of
:mod:`repro.service.net.protocol` over a plain blocking socket and
duck-types :class:`~repro.service.client.ServiceClient` —
``optimize_source`` one-shots, ``submit``/``wait`` tickets,
``queue_limit`` and ``stats`` — so every batch consumer (the batch CLI,
the search engine's :class:`~repro.search.space.ServiceEvaluator`, the
fuzz and chaos harnesses, all through
:func:`repro.service.client.run_batch`) can point at a remote server
by swapping the client.

**Why retries are safe.**  Job identity *is* the cache key (a sha256
over version × kind × fingerprint × opts × options × payload), so
resubmitting after an ambiguous failure — the connection died after
the server may or may not have run the job — can never execute twice
for an observable difference: the retry either rides the in-flight
execution (single-flight coalescing) or hits the cache, byte-identical
either way.  That collapses the classic exactly-once problem into
at-least-once delivery plus idempotent submission.

Three failure families, three behaviours:

* **transport errors** (connect refused, timeouts, torn lines, EOF
  mid-read) → reconnect and resubmit, under
  :class:`RetryPolicy`'s capped, seeded-jitter exponential backoff;
* **retryable rejections** (``QueueFull``, ``ServerDraining``,
  ``ServiceClosed``, ``Backpressure``) → the server is explicitly
  saying "back off and try again", same policy, same counter;
* **terminal errors** (malformed job, unknown optimization, or any
  genuine job failure) → raised once as :class:`RequestError`, never
  retried — a poisoned request stays poisoned no matter how often
  it is resent.

When the budget runs out, :class:`ServiceUnavailable` reports every
attempt and delay so the operator sees the whole campaign, not just
the last socket error.
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.genesis.driver import DriverOptions
from repro.service.job import Job, JobResult
from repro.service.net.protocol import (
    decode_line,
    encode_line,
    retryable_rejection,
)


class ServiceUnavailable(ConnectionError):
    """The retry budget is spent and the server is still unreachable."""


class RequestError(RuntimeError):
    """The server rejected the request terminally; retrying is useless."""

    def __init__(self, message: str, error_type: str = "RequestError"):
        super().__init__(message)
        self.error_type = error_type


@dataclass
class RetryPolicy:
    """Capped exponential backoff with seeded multiplicative jitter.

    ``delay(n) = min(max_delay, base_delay * multiplier**n)
    * (1 + jitter * rng())`` — monotone below the cap whenever
    ``jitter < multiplier - 1``, so seeded tests can assert both the
    attempt count and that successive delays never shrink.
    """

    attempts: int = 5
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.25
    seed: Optional[int] = None
    #: test hook: sleep replacement (defaults to ``time.sleep``)
    sleep: object = None

    def delay(self, attempt: int, rng: random.Random) -> float:
        base = min(self.max_delay, self.base_delay * self.multiplier**attempt)
        return base * (1.0 + self.jitter * rng.random())


class RemoteStats(dict):
    """A remote service's counter tree; ``str()`` is its summary line."""

    summary_text: str = ""

    def __str__(self) -> str:
        import json

        return self.summary_text or json.dumps(self)


class NetworkServiceClient:
    """A blocking JSON-lines client with bounded, jittered retries."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        connect_timeout: float = 2.0,
        request_timeout: Optional[float] = 120.0,
        retry: Optional[RetryPolicy] = None,
        log=None,
    ):
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self.retry = retry or RetryPolicy()
        self._rng = random.Random(self.retry.seed)
        self._log = log or (lambda message: None)
        self._sock: Optional[socket.socket] = None
        self._reader = None
        self._next_id = 0
        #: connection epoch: ticket job ids are only meaningful against
        #: the server process that issued them
        self._epoch = 0
        #: ticket -> (epoch, job_id-or-None, Job) for submit()/wait()
        self._tickets: dict[int, tuple[int, Optional[int], Job]] = {}
        self._next_ticket = 0
        self._hello: Optional[dict] = None
        # test hooks: total reconnect attempts and the delays slept
        self.attempts = 0
        self.delays: list[float] = []

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _connect(self) -> None:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout
        )
        sock.settimeout(self.request_timeout)
        self._sock = sock
        self._reader = sock.makefile("rb")
        self._epoch += 1
        self._hello = self._roundtrip({"cmd": "hello"})

    def _ensure_connected(self) -> None:
        if self._sock is None:
            self._connect()

    def _disconnect(self) -> None:
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:
                pass
            self._reader = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _send(self, message: dict) -> int:
        self._next_id += 1
        message = dict(message, id=self._next_id)
        assert self._sock is not None
        self._sock.sendall(encode_line(message))
        return self._next_id

    def _read_message(self) -> dict:
        """One complete line from the wire, or ``ConnectionError``.

        A line without its trailing newline means the server died (or
        chaos severed us) mid-write: the payload cannot be trusted, so
        it is a transport error, not a protocol error.
        """
        assert self._reader is not None
        try:
            line = self._reader.readline()
        except socket.timeout as error:
            raise ConnectionError("request timed out") from error
        if not line:
            raise ConnectionError("server closed the connection")
        if not line.endswith(b"\n"):
            raise ConnectionError("connection severed mid-response")
        try:
            return decode_line(line)
        except ValueError as error:
            raise ConnectionError(f"garbled response: {error}") from error

    def _roundtrip(self, message: dict) -> dict:
        """Send one request and block for *its* response.

        Events (messages without an ``id``) and stale responses from a
        previous request on this connection are skipped; heartbeats
        while a job runs reset the read timeout, so a slow job is
        distinguishable from a dead server.
        """
        request_id = self._send(message)
        while True:
            response = self._read_message()
            if response.get("id") != request_id:
                continue  # event or superseded response
            if "error" in response:
                if response.get("retryable"):
                    raise ConnectionError(
                        f"{response.get('error_type')}: "
                        f"{response['error']}"
                    )
                raise RequestError(
                    str(response["error"]),
                    str(response.get("error_type", "RequestError")),
                )
            return response

    # ------------------------------------------------------------------
    # the retry loop
    # ------------------------------------------------------------------
    def request(self, message: dict) -> dict:
        """One request with reconnect-and-resubmit retries.

        Only idempotent requests may travel here (every protocol
        command is: submission is idempotent under cache keys, the
        rest are read-only).
        """
        errors: list[str] = []
        for attempt in range(self.retry.attempts):
            self.attempts += 1
            try:
                self._ensure_connected()
                return self._roundtrip(message)
            except RequestError:
                raise  # terminal: a poisoned request is never retried
            except (ConnectionError, OSError) as error:
                self._disconnect()
                errors.append(f"{type(error).__name__}: {error}")
                if attempt + 1 >= self.retry.attempts:
                    break
                pause = self.retry.delay(attempt, self._rng)
                self.delays.append(pause)
                self._log(
                    f"net: attempt {attempt + 1} failed ({error}); "
                    f"retrying in {pause:.3f}s"
                )
                sleep = self.retry.sleep or time.sleep
                sleep(pause)
        raise ServiceUnavailable(
            f"{self.host}:{self.port} unavailable after "
            f"{self.retry.attempts} attempt(s): " + " | ".join(errors)
        )

    def _optimize_job(self, job: Job) -> JobResult:
        """Submit-and-wait as one request, with rejection retries.

        Wire errors retry inside :meth:`request`; *resolved* retryable
        rejections (``QueueFull`` et al.) retry here, against the same
        bounded budget, because they arrive as normal results.
        """
        payload = {"cmd": "submit", "job": job.to_dict(), "wait": True}
        errors: list[str] = []
        for attempt in range(self.retry.attempts):
            response = self.request(payload)
            result = JobResult.from_dict(response["result"])
            if not retryable_rejection(result):
                return result
            errors.append(
                result.failure.error_type if result.failure else "rejected"
            )
            if attempt + 1 >= self.retry.attempts:
                break
            self.attempts += 1
            pause = self.retry.delay(attempt, self._rng)
            self.delays.append(pause)
            self._log(
                f"net: job rejected ({errors[-1]}); "
                f"retrying in {pause:.3f}s"
            )
            sleep = self.retry.sleep or time.sleep
            sleep(pause)
        raise ServiceUnavailable(
            f"job rejected after {self.retry.attempts} attempt(s): "
            + " | ".join(errors)
        )

    # ------------------------------------------------------------------
    # the ServiceClient surface
    # ------------------------------------------------------------------
    def optimize_source(
        self,
        source: str,
        opt_names: Sequence[str],
        options: Optional[DriverOptions] = None,
        timeout: Optional[float] = None,
    ) -> JobResult:
        job = Job.from_source(source, opt_names, options)
        return self._optimize_job(job)

    def submit(self, job: Job) -> int:
        """Pipeline a job; returns a client-local ticket for ``wait``.

        The submission goes out eagerly (``wait: false``) so the
        server starts work immediately; the ticket remembers the job,
        so if the connection dies before ``wait`` collects the result,
        the job is simply resubmitted — idempotent under its cache key.
        """
        self._next_ticket += 1
        ticket = self._next_ticket
        try:
            self._ensure_connected()
            response = self._roundtrip(
                {"cmd": "submit", "job": job.to_dict(), "wait": False}
            )
            self._tickets[ticket] = (self._epoch, response["job_id"], job)
        except RequestError:
            self._tickets.pop(ticket, None)
            raise
        except (ConnectionError, OSError):
            # collect via full resubmission at wait() time
            self._disconnect()
            self._tickets[ticket] = (self._epoch, None, job)
        return ticket

    def wait(self, ticket: int, timeout: Optional[float] = None) -> JobResult:
        """Resolve a ticket from :meth:`submit`."""
        try:
            epoch, job_id, job = self._tickets.pop(ticket)
        except KeyError:
            raise RequestError(f"unknown ticket {ticket}") from None
        if job_id is not None and epoch == self._epoch and self._sock:
            try:
                response = self._roundtrip(
                    {"cmd": "wait", "job_id": job_id}
                )
                return JobResult.from_dict(response["result"])
            except (ConnectionError, OSError):
                self._disconnect()
        # connection (or server) changed since submit: resubmit —
        # coalesces or cache-hits if the first submission ran
        return self._optimize_job(job)

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------
    def ping(self) -> bool:
        return bool(self.request({"cmd": "ping"}).get("pong"))

    @property
    def stats(self) -> "RemoteStats":
        """The remote counter tree (a dict that prints as the remote
        service's one-line summary, mirroring ``ServiceClient.stats``)."""
        response = self.request({"cmd": "stats"})
        stats = RemoteStats(response["stats"])
        stats.summary_text = str(response.get("summary", ""))
        return stats

    def hello(self) -> dict:
        if self._hello is None:
            self._ensure_connected()
        assert self._hello is not None
        return self._hello

    def shutdown_server(self) -> None:
        """Ask the server to drain and exit (acked before it does)."""
        self.request({"cmd": "shutdown"})

    @property
    def queue_limit(self) -> int:
        """The remote admission-queue limit (batch windowing), bounded
        by the per-connection pending cap."""
        try:
            hello = self.hello()
        except (ConnectionError, OSError):
            return 64
        return min(
            int(hello.get("queue_limit", 256)),
            int(hello.get("max_pending", 64)),
        )

    def close(self) -> None:
        self._disconnect()

    def __enter__(self) -> "NetworkServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
