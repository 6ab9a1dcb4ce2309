"""The scheduler: admission, caching, coalescing, deadlines, shutdown."""

import pytest

from repro.genesis.driver import DriverOptions
from repro.service import (
    COMPLETED,
    EXPIRED,
    FAILED,
    OptimizationService,
    REJECTED,
    ServiceConfig,
    ServiceError,
)
from repro.service.backends import WorkerHandle, execute_job
from repro.service.job import Job
from repro.workloads.programs import SOURCES


def _job(name="fft", opts=("CTP", "DCE"), **extra):
    return Job.from_source(SOURCES[name], opts, **extra)


def _service(**overrides):
    settings = {"backend": "inprocess"}
    settings.update(overrides)
    return OptimizationService(ServiceConfig(**settings))


class _ManualHandle(WorkerHandle):
    """A worker that completes only when the test releases it."""

    def __init__(self, job):
        self.job = job
        self.released = False
        self.worker = "manual"

    def poll(self):
        if not self.released:
            return None
        return execute_job(self.job, worker=self.worker)

    @property
    def crashed(self):
        return False

    def kill(self):
        pass


class _ManualBackend:
    """Deterministic asynchrony: jobs finish when the test says so."""

    name = "manual"

    def __init__(self, max_workers=2):
        self.max_workers = max_workers
        self.handles = []
        #: once set, handles spawned later complete immediately
        self.auto_release = False

    def spawn(self, job):
        handle = _ManualHandle(job)
        handle.released = self.auto_release
        self.handles.append(handle)
        return handle

    def close(self):
        pass


def test_submit_wait_completes():
    with _service() as service:
        result = service.wait(service.submit(_job()))
        assert result.ok and result.status == COMPLETED
        assert result.applications > 0
        assert result.source is not None
        assert result.fingerprint and result.cache_key
        assert service.stats.completed == 1


def test_duplicate_submission_served_from_cache():
    with _service() as service:
        first = service.wait(service.submit(_job()))
        second = service.wait(service.submit(_job()))
        assert second.ok and second.cached
        assert not first.cached
        assert second.source == first.source
        assert second.job_id != first.job_id
        assert service.stats.cache_served == 1
        assert service.stats.cache.hits == 1


def test_single_flight_coalesces_concurrent_duplicates():
    backend = _ManualBackend(max_workers=2)
    service = OptimizationService(ServiceConfig(), backend=backend)
    with service:
        leader = service.submit(_job())
        follower = service.submit(_job())
        other = service.submit(_job("newton"))
        # one execution for the duplicate pair, one for the other job
        assert len(backend.handles) == 2
        assert service.stats.coalesced == 1
        for handle in backend.handles:
            handle.released = True
        lead, follow, rest = (
            service.wait(job_id, timeout=10.0)
            for job_id in (leader, follower, other)
        )
        assert lead.ok and follow.ok
        assert follow.coalesced and not lead.coalesced
        assert follow.source == lead.source
        assert follow.job_id == follower
        assert rest.ok


def test_coalesced_follower_keeps_its_own_deadline():
    import time

    backend = _ManualBackend(max_workers=1)
    service = OptimizationService(ServiceConfig(), backend=backend)
    with service:
        leader = service.submit(_job())
        follower = service.submit(_job(deadline_seconds=0.0))
        assert service.stats.coalesced == 1
        time.sleep(0.01)
        service.pump()
        expired = service.result(follower)
        assert expired is not None and expired.status == EXPIRED
        assert expired.failure.error_type == "JobExpired"
        assert expired.coalesced
        # the leader (no deadline of its own) runs on unaffected
        assert service.result(leader) is None
        backend.handles[0].released = True
        assert service.wait(leader, timeout=10.0).ok
        assert service.stats.expired == 1


def test_queue_limit_rejects_with_structured_failure():
    backend = _ManualBackend(max_workers=1)
    service = OptimizationService(
        ServiceConfig(queue_limit=1), backend=backend
    )
    with service:
        running = service.submit(_job("fft"))  # dispatched, held
        queued = service.submit(_job("newton"))  # waits in the queue
        rejected = service.result(service.submit(_job("poly")))
        assert rejected.status == REJECTED
        assert rejected.failure.error_type == "QueueFull"
        assert rejected.failure.restored == "isolation"
        assert service.stats.rejected == 1
        backend.auto_release = True
        for handle in backend.handles:
            handle.released = True
        assert service.wait(running, timeout=10.0).ok
        assert service.wait(queued, timeout=10.0).ok


def test_zero_deadline_job_expires_before_dispatch():
    with _service() as service:
        result = service.wait(
            service.submit(_job(deadline_seconds=0.0))
        )
        assert result.status == EXPIRED
        assert result.failure.error_type == "JobExpired"
        assert service.stats.expired == 1


def test_zero_driver_budgets_complete_vacuously():
    with _service() as service:
        spent = service.wait(service.submit(_job(
            opts=("CTP", "DCE"),
            options=DriverOptions(apply_all=True, deadline_seconds=0.0),
        )))
        assert spent.ok and spent.applications == 0
        assert set(spent.stopped.values()) == {"deadline"}
        no_rollbacks = service.wait(service.submit(_job(
            opts=("CTP",),
            options=DriverOptions(apply_all=True, max_rollbacks=0),
        )))
        assert no_rollbacks.ok and no_rollbacks.applications == 0
        assert no_rollbacks.stopped["CTP"] == "rollback-budget"


def test_empty_program_completes_with_zero_applications():
    with _service() as service:
        job = Job.from_source("program empty\nend\n", ("CTP", "DCE"))
        result = service.wait(service.submit(job))
        assert result.ok and result.applications == 0
        assert result.source == "program empty\nend\n"


def test_crash_looping_fingerprint_is_quarantined():
    service = _service(crash_quarantine=2)
    with service:
        for _ in range(2):
            result = service.wait(service.submit(_job(chaos="exit")))
            assert result.status == FAILED
            assert result.failure.error_type == "WorkerCrashed"
        rejected = service.wait(service.submit(_job(chaos="exit")))
        assert rejected.status == REJECTED
        assert rejected.failure.error_type == "FingerprintQuarantined"
        # a different request is unaffected by the quarantine
        assert service.wait(service.submit(_job("newton"))).ok


def test_close_fails_unresolved_jobs():
    backend = _ManualBackend(max_workers=1)
    service = OptimizationService(ServiceConfig(), backend=backend)
    running = service.submit(_job("fft"))
    queued = service.submit(_job("newton"))
    service.close()
    for job_id in (running, queued):
        result = service.result(job_id)
        assert result.status == FAILED
        assert result.failure.error_type == "ServiceClosed"
    with pytest.raises(ServiceError):
        service.submit(_job())
    service.close()  # idempotent


def test_unknown_job_id_raises():
    with _service() as service:
        with pytest.raises(ServiceError):
            service.result(999)
        with pytest.raises(ServiceError):
            service.wait(999)


def test_unknown_backend_rejected():
    with pytest.raises(ServiceError):
        OptimizationService(ServiceConfig(backend="threads"))


def test_batch_results_in_submission_order():
    from repro.service import ServiceClient, run_batch

    names = ["poly", "fft", "newton", "fft"]
    with ServiceClient(backend="inprocess") as client:
        results = run_batch(client, [_job(name) for name in names])
        assert [r.ok for r in results] == [True] * 4
        assert results[3].cached
        assert results[1].source == results[3].source
        by_name = {n: r.source for n, r in zip(names, results)}
        assert by_name["poly"] != by_name["fft"]
