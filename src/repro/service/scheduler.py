"""The optimization service: queue, admission control, dispatch, reap.

:class:`OptimizationService` is a synchronous, explicitly-pumped
scheduler (no background threads — determinism is a feature, and the
process-pool backend supplies the actual parallelism):

* **bounded queue + admission control** — at most ``queue_limit`` jobs
  may wait; a submission beyond that is *rejected* with a structured
  failure instead of growing memory without bound.  Malformed programs
  are rejected at admission (the job constructor parses eagerly), and a
  fingerprint whose jobs have repeatedly killed workers is quarantined
  by a :class:`~repro.genesis.transaction.HealthLedger` — the same
  circuit breaker the pipeline uses for misbehaving optimizers.

* **fingerprint-keyed result cache** — identical requests (canonical
  program content hash × optimization sequence × options × version)
  are served from the :class:`~repro.service.cache.ResultCache`
  without re-optimizing.

* **single-flight coalescing** — a request identical to one already
  queued or running does not run twice: it attaches to the in-flight
  job and receives the same result when it lands.

* **per-job deadlines + worker reaping** — every pump checks running
  jobs against their wall-clock budget; an overrunning or stalled
  worker is killed and the job reported failed, a crashed worker
  (died without a result) likewise.  Queued jobs whose deadline passes
  before dispatch expire without ever occupying a worker.

The service is driven by :meth:`pump` (one non-blocking scheduling
step); :meth:`wait` pumps until a job resolves.  See
``docs/service.md`` for the architecture picture.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

from repro._version import __version__
from repro.genesis.transaction import HealthLedger
from repro.service.backends import (
    InProcessBackend,
    ProcessPoolBackend,
    WorkerHandle,
)
from repro.service.cache import CacheStats, ResultCache
from repro.service.diskcache import DiskCache
from repro.service.job import (
    COMPLETED,
    EXPIRED,
    FAILED,
    QUEUED,
    REJECTED,
    RUNNING,
    Job,
    JobResult,
    job_failure,
)


#: sleep between pumps while blocking in :meth:`OptimizationService.wait`
POLL_INTERVAL = 0.005


class ServiceError(RuntimeError):
    """Misuse of the service API (unknown job id, closed service)."""


@dataclass
class ServiceConfig:
    """Service-level knobs (driver knobs travel inside each job)."""

    #: worker backend: ``"inprocess"`` or ``"process"``
    backend: str = "inprocess"
    #: concurrent workers (the process pool's width; the in-process
    #: backend is inherently serial but honours the dispatch order)
    max_workers: int = 2
    #: bounded-queue admission limit (waiting jobs, running excluded)
    queue_limit: int = 256
    #: result-cache capacity in entries (0 disables the memory tier)
    cache_capacity: int = 256
    #: directory for the persistent disk cache tier (None: memory only);
    #: shareable across restarts and across a fleet of serve processes
    cache_dir: Optional[str] = None
    #: size cap for the disk tier before oldest-first GC
    cache_disk_bytes: int = 64 * 1024 * 1024
    #: default service-level wall-clock budget per job (None: no limit)
    default_deadline: Optional[float] = None
    #: worker crashes/stalls per fingerprint before it is quarantined
    crash_quarantine: int = 3


@dataclass
class ServiceStats:
    """Aggregate service counters (cache counters ride along)."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    expired: int = 0
    #: submissions coalesced onto an identical in-flight job
    coalesced: int = 0
    #: submissions served straight from the result cache
    cache_served: int = 0
    #: workers killed for deadline overrun or stall
    reaped: int = 0
    #: workers that died without producing a result
    crashes: int = 0
    max_queue_depth: int = 0
    cache: CacheStats = field(default_factory=CacheStats)
    #: persistent-tier counters (None when no cache_dir is configured)
    disk: Optional[object] = None

    def as_dict(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "expired": self.expired,
            "coalesced": self.coalesced,
            "cache_served": self.cache_served,
            "reaped": self.reaped,
            "crashes": self.crashes,
            "max_queue_depth": self.max_queue_depth,
            "cache": self.cache.as_dict(),
        }
        if self.disk is not None:
            payload["disk"] = self.disk.as_dict()
        return payload

    def summary(self) -> str:
        text = (
            f"service: {self.submitted} submitted, {self.completed} "
            f"completed, {self.failed} failed, {self.rejected} rejected, "
            f"{self.expired} expired, {self.coalesced} coalesced, "
            f"{self.cache_served} cache-served, {self.crashes} crash(es), "
            f"{self.reaped} reaped; {self.cache}"
        )
        if self.disk is not None:
            text += f"; {self.disk}"
        return text

    def __str__(self) -> str:
        return self.summary()


@dataclass
class _JobRecord:
    """Internal bookkeeping for one submitted job."""

    job_id: int
    job: Job
    key: str
    status: str = QUEUED
    result: Optional[JobResult] = None
    #: job ids coalesced onto this record (single-flight followers)
    followers: list[int] = field(default_factory=list)
    handle: Optional[WorkerHandle] = None
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    deadline: Optional[float] = None

    @property
    def done(self) -> bool:
        return self.status in (COMPLETED, FAILED, REJECTED, EXPIRED)


class OptimizationService:
    """The optimization-as-a-service execution layer."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        backend=None,
        log=None,
    ):
        self.config = config or ServiceConfig()
        if backend is not None:
            self.backend = backend
        elif self.config.backend == "process":
            self.backend = ProcessPoolBackend(self.config.max_workers)
        elif self.config.backend == "inprocess":
            self.backend = InProcessBackend(self.config.max_workers)
        else:
            raise ServiceError(
                f"unknown backend {self.config.backend!r} "
                "(expected 'inprocess' or 'process')"
            )
        disk = (
            DiskCache(self.config.cache_dir, self.config.cache_disk_bytes)
            if self.config.cache_dir
            else None
        )
        self.cache = ResultCache(self.config.cache_capacity, disk=disk)
        #: crash-looping fingerprints trip the same circuit breaker
        #: that quarantines misbehaving optimizers in a pipeline
        self.health = HealthLedger(
            quarantine_after=max(1, self.config.crash_quarantine)
        )
        self.stats = ServiceStats(
            cache=self.cache.stats,
            disk=disk.stats if disk is not None else None,
        )
        self._records: dict[int, _JobRecord] = {}
        self._queue: deque[int] = deque()
        self._running: list[_JobRecord] = []
        #: cache-key -> leading in-flight record (single-flight)
        self._inflight: dict[str, int] = {}
        self._next_id = 1
        self._closed = False
        self._log = log
        if self._log is not None:
            self._log(
                f"optimization service v{__version__}: "
                f"backend={self.backend.name} "
                f"workers={self.backend.max_workers} "
                f"queue_limit={self.config.queue_limit} "
                f"cache={self.config.cache_capacity}"
            )

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, job: Job) -> int:
        """Admit one job; returns its job id immediately.

        Rejections (full queue, quarantined fingerprint) resolve the
        job *immediately* with a structured ``rejected`` result — the
        caller always gets an id it can :meth:`wait` on.

        A submission identical to an in-flight job coalesces onto it
        (single-flight): the follower receives a copy of the leader's
        result, carrying the leader's timing and worker fields.  The
        follower keeps its *own* wall-clock deadline, though — if that
        passes before the leader lands, the follower expires
        individually while the leader runs on unaffected.
        """
        if self._closed:
            raise ServiceError("service is closed")
        job_id = self._next_id
        self._next_id += 1
        record = _JobRecord(
            job_id=job_id,
            job=job,
            key=job.cache_key(),
            submitted_at=time.perf_counter(),
        )
        deadline = (
            job.deadline_seconds
            if job.deadline_seconds is not None
            else self.config.default_deadline
        )
        if deadline is not None:
            record.deadline = record.submitted_at + deadline
        self._records[job_id] = record
        self.stats.submitted += 1

        cached = self.cache.get(record.key)
        if cached is not None:
            self.stats.cache_served += 1
            self._resolve(record, self._stamp(cached, record))
            return job_id
        if self.health.is_quarantined(record.key):
            self.stats.rejected += 1
            self._resolve(
                record,
                self._rejection(
                    record,
                    "FingerprintQuarantined",
                    "this request has repeatedly crashed or stalled "
                    "workers and is quarantined "
                    f"(after {self.health.quarantine_after} strikes)",
                ),
            )
            return job_id
        leader_id = self._inflight.get(record.key)
        if leader_id is not None and not self._records[leader_id].done:
            # single-flight: ride the identical in-flight job
            self._records[leader_id].followers.append(job_id)
            self.stats.coalesced += 1
            return job_id
        if len(self._queue) >= self.config.queue_limit:
            self.stats.rejected += 1
            self._resolve(
                record,
                self._rejection(
                    record,
                    "QueueFull",
                    f"admission queue is at its limit "
                    f"({self.config.queue_limit} waiting job(s))",
                ),
            )
            return job_id
        self._inflight[record.key] = job_id
        self._queue.append(job_id)
        self.stats.max_queue_depth = max(
            self.stats.max_queue_depth, len(self._queue)
        )
        self.pump()
        return job_id

    # ------------------------------------------------------------------
    # the scheduling pump
    # ------------------------------------------------------------------
    def pump(self) -> None:
        """One non-blocking scheduling step: collect, reap, dispatch."""
        now = time.perf_counter()
        self._expire_followers(now)
        self._collect(now)
        self._dispatch(now)

    def _expire_followers(self, now: float) -> None:
        """Enforce coalesced followers' own wall-clock budgets.

        A follower rides its leader's execution but keeps its own
        deadline: when that passes before the leader lands, the
        follower expires individually (the leader and any other
        followers are unaffected).
        """
        for record in self._leaders_with_followers():
            keep: list[int] = []
            for follower_id in record.followers:
                follower = self._records[follower_id]
                if (
                    follower.deadline is not None
                    and now > follower.deadline
                ):
                    self.stats.expired += 1
                    follower.status = EXPIRED
                    follower.result = self._follower_expiry(follower)
                else:
                    keep.append(follower_id)
            record.followers = keep

    def _leaders_with_followers(self) -> Iterator[_JobRecord]:
        for record in self._running:
            if record.followers:
                yield record
        for job_id in self._queue:
            record = self._records[job_id]
            if record.followers:
                yield record

    def _follower_expiry(self, follower: _JobRecord) -> JobResult:
        return JobResult(
            job_id=follower.job_id,
            status=EXPIRED,
            fingerprint=follower.job.fingerprint,
            cache_key=follower.key,
            coalesced=True,
            failure=job_failure(
                "queue",
                "JobExpired",
                "deadline passed while coalesced on an in-flight job "
                f"({self._budget_text(follower)})",
            ),
        )

    def _collect(self, now: float) -> None:
        still_running: list[_JobRecord] = []
        for record in self._running:
            assert record.handle is not None
            result = record.handle.poll()
            if result is not None:
                self._land(record, result)
                continue
            if record.deadline is not None and now > record.deadline:
                record.handle.kill()
                self.stats.reaped += 1
                self.stats.failed += 1
                self.health.record_rollback(
                    record.key,
                    failure := job_failure(
                        "worker",
                        "JobDeadlineExceeded",
                        f"job exceeded its {self._budget_text(record)} "
                        "wall-clock budget and its worker "
                        f"({record.handle.worker}) was reaped",
                    ),
                )
                self._resolve(
                    record,
                    JobResult(
                        job_id=record.job_id,
                        status=FAILED,
                        fingerprint=record.job.fingerprint,
                        cache_key=record.key,
                        failure=failure,
                        worker=record.handle.worker,
                    ),
                )
                continue
            if record.handle.crashed:
                self.stats.crashes += 1
                self.stats.failed += 1
                exitcode = record.handle.exitcode
                self.health.record_rollback(
                    record.key,
                    failure := job_failure(
                        "worker",
                        "WorkerCrashed",
                        f"worker {record.handle.worker} died without a "
                        f"result (exit code {exitcode})",
                    ),
                )
                self._resolve(
                    record,
                    JobResult(
                        job_id=record.job_id,
                        status=FAILED,
                        fingerprint=record.job.fingerprint,
                        cache_key=record.key,
                        failure=failure,
                        worker=record.handle.worker,
                    ),
                )
                continue
            still_running.append(record)
        self._running = still_running

    def _dispatch(self, now: float) -> None:
        while (
            self._queue
            and len(self._running) < self.backend.max_workers
        ):
            record = self._records[self._queue.popleft()]
            if record.done:  # pragma: no cover - defensive
                continue
            if record.deadline is not None and now > record.deadline:
                self.stats.expired += 1
                self._resolve(
                    record,
                    JobResult(
                        job_id=record.job_id,
                        status=EXPIRED,
                        fingerprint=record.job.fingerprint,
                        cache_key=record.key,
                        failure=job_failure(
                            "queue",
                            "JobExpired",
                            "deadline passed while queued "
                            f"({self._budget_text(record)})",
                        ),
                    ),
                )
                continue
            record.status = RUNNING
            record.started_at = now
            record.handle = self.backend.spawn(record.job)
            self._running.append(record)
            # a synchronous backend may already have the result
            result = record.handle.poll()
            if result is not None:
                self._running.remove(record)
                self._land(record, result)

    def _land(self, record: _JobRecord, result: JobResult) -> None:
        """A worker produced a result: account, cache, fan out."""
        if result.status == COMPLETED:
            self.stats.completed += 1
            self.health.record_success(record.key)
            self.cache.put(record.key, result)
        else:
            self.stats.failed += 1
            self.health.record_rollback(
                record.key,
                result.failure
                or job_failure("worker", "JobFailed", "worker reported "
                               "failure"),
            )
        self._resolve(record, self._stamp(result, record))

    def _stamp(self, result: JobResult, record: _JobRecord) -> JobResult:
        result.job_id = record.job_id
        result.fingerprint = record.job.fingerprint
        result.cache_key = record.key
        if record.started_at is not None:
            result.queued_seconds = record.started_at - record.submitted_at
        if record.handle is not None:
            result.worker = record.handle.worker or result.worker
        return result

    def _resolve(self, record: _JobRecord, result: JobResult) -> None:
        record.status = result.status
        record.result = result
        if self._inflight.get(record.key) == record.job_id:
            del self._inflight[record.key]
        now = time.perf_counter()
        for follower_id in record.followers:
            follower = self._records[follower_id]
            if follower.deadline is not None and now > follower.deadline:
                # the leader landed after this follower's own budget:
                # honour the follower's deadline, not the leader's
                follower_result = self._follower_expiry(follower)
            else:
                follower_result = replace(
                    result, job_id=follower_id, coalesced=True
                )
            follower.status = follower_result.status
            follower.result = follower_result
            if follower_result.status == COMPLETED:
                self.stats.completed += 1
            elif follower_result.status == EXPIRED:
                self.stats.expired += 1
            elif follower_result.status == FAILED:
                self.stats.failed += 1
        record.followers = []

    def _rejection(
        self, record: _JobRecord, error_type: str, message: str
    ) -> JobResult:
        return JobResult(
            job_id=record.job_id,
            status=REJECTED,
            fingerprint=record.job.fingerprint,
            cache_key=record.key,
            failure=job_failure("admission", error_type, message),
        )

    @staticmethod
    def _budget_text(record: _JobRecord) -> str:
        if record.deadline is None:  # pragma: no cover - guarded by caller
            return "unbounded"
        return f"{record.deadline - record.submitted_at:.3g}s"

    # ------------------------------------------------------------------
    # waiting
    # ------------------------------------------------------------------
    def result(self, job_id: int) -> Optional[JobResult]:
        """The job's result if it has one (non-blocking)."""
        record = self._records.get(job_id)
        if record is None:
            raise ServiceError(f"unknown job id {job_id}")
        return record.result

    def status(self, job_id: int) -> str:
        """The job's lifecycle state (the network server streams its
        transitions as job events)."""
        record = self._records.get(job_id)
        if record is None:
            raise ServiceError(f"unknown job id {job_id}")
        return record.status

    def wait(self, job_id: int, timeout: Optional[float] = None) -> JobResult:
        """Pump until the job resolves; returns its result."""
        record = self._records.get(job_id)
        if record is None:
            raise ServiceError(f"unknown job id {job_id}")
        give_up = (
            time.perf_counter() + timeout if timeout is not None else None
        )
        while record.result is None:
            self.pump()
            if record.result is not None:
                break
            if give_up is not None and time.perf_counter() > give_up:
                raise ServiceError(
                    f"timed out waiting for job {job_id} "
                    f"(status {record.status})"
                )
            time.sleep(POLL_INTERVAL)
        return record.result

    @property
    def pending(self) -> int:
        """Jobs submitted but not yet resolved."""
        return sum(1 for r in self._records.values() if r.result is None)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Reap all workers, fail unfinished jobs, refuse new work."""
        if self._closed:
            return
        self._closed = True
        for record in self._running:
            if record.handle is not None:
                record.handle.kill()
                self.stats.reaped += 1
        for record in self._records.values():
            if record.result is None:
                self.stats.failed += 1
                self._resolve(
                    record,
                    JobResult(
                        job_id=record.job_id,
                        status=FAILED,
                        fingerprint=record.job.fingerprint,
                        cache_key=record.key,
                        failure=job_failure(
                            "shutdown", "ServiceClosed",
                            "service closed before the job finished",
                        ),
                    ),
                )
        self._running = []
        self._queue.clear()
        self.backend.close()

    def __enter__(self) -> "OptimizationService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
