"""Worker backends: execution parity, crash isolation, reaping.

The ``slow`` tests fork real worker processes and exercise wall-clock
deadlines; CI's service smoke job deselects them with ``-m "not slow"``.
"""

import pytest

from repro.service import (
    COMPLETED,
    FAILED,
    InProcessBackend,
    OptimizationService,
    ProcessPoolBackend,
    ServiceClient,
    ServiceConfig,
    execute_job,
    run_batch,
)
from repro.service.backends import CHAOS_EXIT_CODE
from repro.service.job import Job
from repro.workloads.programs import SOURCES


def _job(name="fft", opts=("CTP", "CFO", "DCE"), **extra):
    return Job.from_source(SOURCES[name], opts, **extra)


def test_execute_job_runs_the_pipeline():
    result = execute_job(_job())
    assert result.status == COMPLETED
    assert result.applications > 0
    assert sum(result.per_optimizer.values()) == result.applications
    assert result.elapsed_seconds > 0


def test_execute_job_contains_unknown_optimization():
    result = execute_job(_job(opts=("NOPE",)))
    assert result.status == FAILED
    assert result.failure is not None
    assert result.failure.phase == "execute"
    assert "NOPE" in result.failure.error


def test_execute_job_rejects_unknown_kind():
    job = _job()
    job.kind = "mystery"
    result = execute_job(job)
    assert result.status == FAILED
    assert "mystery" in result.failure.error


def test_inprocess_backend_simulates_worker_faults():
    with OptimizationService(ServiceConfig(backend="inprocess")) as service:
        crashed = service.wait(service.submit(_job(chaos="exit")))
        assert crashed.status == FAILED
        assert crashed.failure.error_type == "WorkerCrashed"
        stalled = service.wait(service.submit(_job(chaos="stall")))
        assert stalled.status == FAILED
        assert stalled.failure.error_type == "WorkerStalled"


@pytest.mark.slow
def test_process_backend_matches_inprocess_output():
    job = _job("newton")
    with ServiceClient(backend="inprocess") as client:
        serial = client.wait(client.submit(job))
    with ServiceClient(backend="process", max_workers=2) as client:
        parallel = client.wait(client.submit(_job("newton")))
    assert serial.ok and parallel.ok
    assert parallel.source == serial.source
    assert parallel.applications == serial.applications
    assert parallel.worker.startswith("pid:")


@pytest.mark.slow
def test_crashed_worker_reported_and_batch_survives():
    """The acceptance scenario: a worker killed mid-job yields a
    structured failure, the batch completes, and the surviving results
    are byte-identical to a serial run."""
    names = ["newton", "fft", "poly", "tridiag"]
    jobs = [_job(name) for name in names]
    jobs[1].chaos = "exit"  # hard-kill fft's worker mid-job
    with ServiceClient(backend="process", max_workers=2) as client:
        results = run_batch(client, jobs, timeout=120.0)
        stats = client.stats
    dead = results[1]
    assert dead.status == FAILED
    assert dead.failure.error_type == "WorkerCrashed"
    assert str(CHAOS_EXIT_CODE) in dead.failure.error
    assert dead.failure.restored == "isolation"
    assert stats.crashes == 1
    survivors = [r for i, r in enumerate(results) if i != 1]
    assert all(r.ok for r in survivors)
    with ServiceClient(backend="inprocess") as client:
        serial = run_batch(
            client, [_job(name) for name in names if name != "fft"]
        )
    for parallel_result, serial_result in zip(survivors, serial):
        assert parallel_result.source == serial_result.source
        assert parallel_result.applications == serial_result.applications


@pytest.mark.slow
def test_run_batch_windows_to_the_queue_limit():
    """Eight distinct jobs against one worker and a two-job queue: the
    window keeps every submission admitted, and results come back in
    submission order (byte-identical to in-process runs)."""
    names = ["newton", "fft", "gauss", "solve", "poly", "integrate",
             "tridiag", "ordering"]
    with ServiceClient(
        backend="process", max_workers=1, queue_limit=2
    ) as client:
        results = run_batch(client, [_job(name) for name in names])
        stats = client.stats
    assert [r.status for r in results] == [COMPLETED] * len(names)
    assert stats.rejected == 0
    with ServiceClient(backend="inprocess") as client:
        serial = run_batch(client, [_job(name) for name in names])
    assert [r.fingerprint for r in results] == [
        r.fingerprint for r in serial
    ]
    assert [r.source for r in results] == [r.source for r in serial]


@pytest.mark.slow
def test_stalled_worker_reaped_at_deadline():
    with ServiceClient(
        backend="process", max_workers=2, default_deadline=60.0
    ) as client:
        stalled_id = client.submit(_job("fft", chaos="stall",
                                        deadline_seconds=0.5))
        healthy_id = client.submit(_job("newton"))
        stalled = client.wait(stalled_id, timeout=60.0)
        healthy = client.wait(healthy_id, timeout=60.0)
        stats = client.stats
    assert stalled.status == FAILED
    assert stalled.failure.error_type == "JobDeadlineExceeded"
    assert stats.reaped >= 1
    assert healthy.ok


@pytest.mark.slow
def test_close_reaps_running_workers():
    backend = ProcessPoolBackend(max_workers=1)
    service = OptimizationService(
        ServiceConfig(backend="process"), backend=backend
    )
    job_id = service.submit(_job("fft", chaos="stall"))
    service.close()
    result = service.result(job_id)
    assert result.status == FAILED
    assert result.failure.error_type == "ServiceClosed"


def test_execute_job_honours_payload_quarantine_after(monkeypatch):
    import repro.genesis.pipeline as pipeline_mod

    seen = {}
    real_optimize = pipeline_mod.optimize

    def spy(*args, **kwargs):
        seen["quarantine_after"] = kwargs.get("quarantine_after", 5)
        return real_optimize(*args, **kwargs)

    monkeypatch.setattr(pipeline_mod, "optimize", spy)
    result = execute_job(_job(payload={"quarantine_after": 2}))
    assert result.status == COMPLETED
    assert seen["quarantine_after"] == 2
    # without the payload knob the pipeline default stands
    execute_job(_job("newton"))
    assert seen["quarantine_after"] == 5


@pytest.mark.slow
def test_process_backend_releases_finished_handles():
    """A finished job's pipe end is closed and its handle pruned, so a
    long-running service does not leak one fd + process per job."""
    import time

    backend = ProcessPoolBackend(max_workers=2)
    first = backend.spawn(_job("newton", opts=("CTP",)))
    give_up = time.monotonic() + 60.0
    while first.poll() is None and time.monotonic() < give_up:
        time.sleep(0.01)
    assert first.poll() is not None
    assert first.finished
    assert first._conn.closed
    second = backend.spawn(_job("poly", opts=("CTP",)))
    assert backend._handles == [second]
    backend.close()


def test_backend_name_and_width():
    assert InProcessBackend(0).max_workers == 1
    assert ProcessPoolBackend(0).max_workers == 1
    assert InProcessBackend().name == "inprocess"
    assert ProcessPoolBackend().name == "process"
