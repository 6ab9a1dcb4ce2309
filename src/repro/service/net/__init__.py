"""The network face of the optimization service.

``repro.service.net`` puts the PR 5 scheduler on a TCP socket:

* :mod:`repro.service.net.protocol` — the JSON-lines wire dialect
  (requests, responses, events, error envelopes) shared by the server
  and the client;
* :mod:`repro.service.net.server` — :class:`OptimizationServer`: an
  asyncio server fronting one
  :class:`~repro.service.scheduler.OptimizationService`, with
  concurrent client sessions, streaming job-status events, heartbeats,
  per-connection backpressure, and graceful SIGTERM drain;
* :mod:`repro.service.net.client` — :class:`NetworkServiceClient`: a
  blocking socket client with connect/request timeouts, bounded
  seeded-jitter exponential backoff, and idempotent resubmission
  (safe because job identity is the cache key, so a retried
  submission coalesces or cache-hits instead of re-running).

See ``docs/service.md`` for the wire protocol and failure matrix.
"""

from repro.service.net.client import (
    NetworkServiceClient,
    RequestError,
    RetryPolicy,
    ServiceUnavailable,
)
from repro.service.net.protocol import (
    ProtocolError,
    job_from_request,
)
from repro.service.net.server import OptimizationServer, ServeConfig

__all__ = [
    "NetworkServiceClient",
    "OptimizationServer",
    "ProtocolError",
    "RequestError",
    "RetryPolicy",
    "ServeConfig",
    "ServiceUnavailable",
    "job_from_request",
]
