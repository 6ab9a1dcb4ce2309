"""The JSON-lines wire dialect of the optimization service.

One JSON object per ``\\n``-terminated line, in both directions.

**Requests** (client → server) carry a client-chosen ``id`` echoed on
the response, and a ``cmd``:

========  ============================================================
cmd       payload
========  ============================================================
hello     — → server identity, version, ``queue_limit``,
          ``max_pending`` (per-connection), backend, draining flag
ping      — → ``{"pong": true}`` (liveness/heartbeat probe)
stats     — → the service's full counter tree
submit    ``job`` (a :meth:`~repro.service.job.Job.to_dict` object) or
          the legacy ``source``/``workload`` + ``opts`` + ``options``
          keys; ``wait`` (default true) resolves the response with the
          final result, else it returns ``job_id`` immediately;
          ``events`` streams status transitions for the job
wait      ``job_id`` from an earlier non-waiting submit on the *same*
          connection's server process
shutdown  — → ack, then the server drains and exits 0
========  ============================================================

**Responses** echo ``id`` and carry either a payload or an error
envelope ``{"error", "error_type", "retryable"}``.  ``retryable`` is
the server telling the client whether backing off and resubmitting can
succeed (``Backpressure``, ``ServerDraining``) or is pointless (a
malformed job).  Job-level rejections travel inside a normal
``result`` payload — see ``RETRYABLE_REJECTIONS``.

**Events** (server → client, no ``id``): ``{"event": "job", "job_id",
"status"}`` transitions for subscribed jobs, ``{"event": "heartbeat"}``
keep-alives while a wait is outstanding, and ``{"event": "shutdown"}``
as the server drains.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.genesis.driver import DriverOptions
from repro.service.job import (
    KIND_OPTIMIZE,
    Job,
    JobError,
    JobResult,
    options_from_dict,
)

#: A line longer than this is a protocol violation (64 MiB of program
#: text is far beyond the million-quad roadmap sizes).
MAX_LINE_BYTES = 64 * 1024 * 1024

#: ``failure.error_type`` values on a resolved result that a client may
#: safely retry after backoff: the job never ran (full queue, draining
#: or closing server), and resubmission is idempotent under cache keys.
RETRYABLE_REJECTIONS = frozenset(
    {"QueueFull", "ServiceClosed", "ServerDraining"}
)


class ProtocolError(ValueError):
    """A message that violates the wire dialect."""


def encode_line(payload: dict) -> bytes:
    """One message as a ``\\n``-terminated JSON line."""
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode()


def decode_line(line: bytes) -> dict:
    """Parse one received line into a message object."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"line exceeds {MAX_LINE_BYTES} bytes")
    try:
        message = json.loads(line)
    except (ValueError, UnicodeDecodeError) as error:
        raise ProtocolError(f"bad JSON: {error}") from error
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object")
    return message


def error_message(
    request_id: Optional[int],
    error: str,
    error_type: str = "ProtocolError",
    retryable: bool = False,
) -> dict:
    envelope: dict[str, object] = {
        "error": error,
        "error_type": error_type,
        "retryable": retryable,
    }
    if request_id is not None:
        envelope["id"] = request_id
    return envelope


def retryable_rejection(result: JobResult) -> bool:
    """A resolved result the client should back off and resubmit.

    Resubmission is safe because job identity *is* the cache key: if
    the first submission actually ran, the retry is a cache hit or a
    single-flight ride, never a second execution.
    """
    if result.ok or result.failure is None:
        return False
    return result.failure.error_type in RETRYABLE_REJECTIONS


def job_from_request(request: dict, workloads: Optional[dict] = None) -> Job:
    """Build the :class:`Job` a submit request describes.

    Two spellings: a full ``{"job": {...Job.to_dict()...}}`` object
    (what :class:`~repro.service.net.client.NetworkServiceClient`
    sends — the fingerprint travels with it, so the server does not
    re-parse), or the legacy ``source``/``workload`` + ``opts`` +
    ``options`` + ``deadline`` keys, handy from ``nc`` or a script
    (parsed eagerly, so a malformed program is rejected at admission).
    Optimization names resolve through the one catalog lookup,
    :func:`repro.opts.catalog.spec_source`; an unknown name is a
    :class:`JobError`.  So is any job kind but ``optimize``: an
    experiment job's result is a Python object the JSON wire cannot
    carry, so experiments run only on a local service.
    """
    if "job" in request:
        payload = request["job"]
        if not isinstance(payload, dict):
            raise JobError("'job' must be an object")
        kind = payload.get("kind", KIND_OPTIMIZE)
        if kind != KIND_OPTIMIZE:
            raise JobError(
                f"the server runs only {KIND_OPTIMIZE!r} jobs, not "
                f"{kind!r} jobs"
            )
        return Job.from_dict(payload)
    if workloads is None:
        from repro.workloads.programs import SOURCES as workloads  # noqa: F811
    if "workload" in request:
        name = str(request["workload"])
        if name not in workloads:
            raise JobError(
                f"unknown workload {name!r}; known: "
                f"{', '.join(workloads)}"
            )
        source = workloads[name]
    elif "source" in request:
        source = str(request["source"])
    else:
        raise JobError(
            "request needs a 'job' object, or a 'source' or "
            "'workload' key"
        )
    opts = request.get("opts", "CTP,CFO,DCE")
    if isinstance(opts, str):
        opt_names = tuple(
            name.strip().upper() for name in opts.split(",")
        )
    else:
        opt_names = tuple(str(name).upper() for name in opts)
    from repro.opts.catalog import spec_source

    for name in opt_names:
        try:
            spec_source(name)
        except KeyError as error:
            raise JobError(error.args[0]) from None
    options = DriverOptions(apply_all=True)
    if "options" in request:
        options = options_from_dict(dict(request["options"]))
    return Job.from_source(
        source, opt_names, options,
        deadline_seconds=request.get("deadline"),
    )
