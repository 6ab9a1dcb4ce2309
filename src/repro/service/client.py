"""`ServiceClient` and `run_batch`: the Python API in front of the service.

:class:`ServiceClient` is a thin convenience layer that owns (or
borrows) an :class:`~repro.service.scheduler.OptimizationService` and
exposes one-shot optimization (``optimize_source``) and explicit
``submit``/``wait``.  :func:`run_batch` is the one way to batch jobs:
it works on any client with ``submit``, ``wait`` and ``queue_limit`` —
this one or :class:`~repro.service.net.client.NetworkServiceClient` —
and is what the batch CLI, the search engine, and the fuzz, chaos and
experiment harnesses use to parallelize their studies across cores.

    from repro.service import ServiceClient, run_batch

    with ServiceClient(backend="process", max_workers=4) as client:
        results = run_batch(client, jobs)
"""

from __future__ import annotations

import time
from collections import deque
from typing import Optional, Sequence

from repro.genesis.driver import DriverOptions
from repro.service.job import Job, JobResult
from repro.service.net.protocol import retryable_rejection
from repro.service.scheduler import (
    OptimizationService,
    ServiceConfig,
    ServiceStats,
)

#: resubmissions of one job after a retryable rejection
BATCH_RETRIES = 3


def run_batch(
    client, jobs: Sequence[Job], timeout: Optional[float] = None
) -> list[JobResult]:
    """Run jobs through a client; results come back in submission order.

    At most ``client.queue_limit`` jobs are in flight at once — the
    oldest is collected before the next is submitted — so a batch of
    any size never trips the bounded queue's ``QueueFull`` rejection.
    A rejection that slips through anyway (a shared service filling up
    behind the window) is resubmitted up to ``BATCH_RETRIES`` times
    after a short growing pause; resubmission is safe because job
    identity is the cache key.  ``timeout`` bounds the whole batch.
    """
    give_up = time.monotonic() + timeout if timeout is not None else None
    limit = max(1, client.queue_limit)
    results: list[Optional[JobResult]] = [None] * len(jobs)
    #: (job index, ticket, resubmissions so far), oldest first
    inflight: deque[tuple[int, int, int]] = deque()
    submitted = 0
    while submitted < len(jobs) or inflight:
        while submitted < len(jobs) and len(inflight) < limit:
            inflight.append((submitted, client.submit(jobs[submitted]), 0))
            submitted += 1
        index, ticket, retries = inflight.popleft()
        remaining = None if give_up is None else give_up - time.monotonic()
        result = client.wait(ticket, timeout=remaining)
        if retries < BATCH_RETRIES and retryable_rejection(result):
            # a rejection resolves instantly, so give the queue a beat
            # to drain before resubmitting
            time.sleep(0.05 * (retries + 1))
            inflight.appendleft(
                (index, client.submit(jobs[index]), retries + 1)
            )
            continue
        results[index] = result
    return results  # type: ignore[return-value]


class ServiceClient:
    """Submit programs to an optimization service and await results."""

    def __init__(
        self,
        service: Optional[OptimizationService] = None,
        *,
        backend: str = "inprocess",
        max_workers: int = 2,
        queue_limit: int = 256,
        cache_capacity: int = 256,
        cache_dir: Optional[str] = None,
        default_deadline: Optional[float] = None,
    ):
        if service is not None:
            self.service = service
            self._owned = False
        else:
            self.service = OptimizationService(
                ServiceConfig(
                    backend=backend,
                    max_workers=max_workers,
                    queue_limit=queue_limit,
                    cache_capacity=cache_capacity,
                    cache_dir=cache_dir,
                    default_deadline=default_deadline,
                )
            )
            self._owned = True

    def optimize_source(
        self,
        source: str,
        opt_names: Sequence[str],
        options: Optional[DriverOptions] = None,
        timeout: Optional[float] = None,
    ) -> JobResult:
        """Optimize mini-Fortran text; blocks until the job resolves."""
        job = Job.from_source(source, opt_names, options)
        return self.service.wait(self.service.submit(job), timeout=timeout)

    def submit(self, job: Job) -> int:
        return self.service.submit(job)

    def wait(self, job_id: int, timeout: Optional[float] = None) -> JobResult:
        return self.service.wait(job_id, timeout=timeout)

    @property
    def stats(self) -> ServiceStats:
        return self.service.stats

    @property
    def queue_limit(self) -> int:
        """The service's admission-queue limit (:func:`run_batch`
        windows its submissions to this)."""
        return self.service.config.queue_limit

    def close(self) -> None:
        """Close the underlying service if this client created it."""
        if self._owned:
            self.service.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
