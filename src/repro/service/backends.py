"""Worker backends: where jobs actually execute.

Two interchangeable backends implement the same tiny contract
(:class:`WorkerHandle`): :class:`InProcessBackend` runs each job
synchronously in the submitting process — fully deterministic, no
subprocess machinery, the right arm for tests and for ``workers=1``
serial baselines — and :class:`ProcessPoolBackend` runs each job in its
own forked worker process, up to ``max_workers`` concurrently, results
returned over a pipe.

One process per job (rather than long-lived pool workers) keeps fault
isolation trivial: a crashed or stalled worker is *reaped* — terminated
and collected — without poisoning any other job's state, and the
scheduler reports the death as a structured
:class:`~repro.genesis.transaction.ApplicationFailure` (phase
``"worker"``).  On fork-capable platforms a worker inherits the
parent's generated-optimizer cache and match-engine code, so spawn cost
is milliseconds against jobs that run pipelines for tens of
milliseconds to seconds.

:func:`execute_job` is the shared execution path: parse the job's
source, build the named optimizers from the catalog, and run the
existing transactional pipeline (:func:`repro.genesis.pipeline.optimize`)
with its rollback/quarantine/budget semantics intact.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Optional

from repro.service.job import (
    COMPLETED,
    FAILED,
    KIND_EXPERIMENT,
    KIND_OPTIMIZE,
    Job,
    JobResult,
    job_failure,
)

#: Exit code a chaos-"exit" worker dies with (distinctive in reports).
CHAOS_EXIT_CODE = 23

#: How long a chaos-"stall" worker wedges (longer than any deadline).
_STALL_SECONDS = 3600.0


def execute_job(job: Job, worker: str = "inprocess") -> JobResult:
    """Run one job to completion in the current process.

    Any exception is converted into a ``status="failed"`` result with
    a structured failure — the service never surfaces a traceback for
    a bad job, matching the driver's own containment policy.
    """
    started = time.perf_counter()
    try:
        if job.kind == KIND_EXPERIMENT:
            result = _execute_experiment(job)
        elif job.kind == KIND_OPTIMIZE:
            result = _execute_optimize(job)
        else:
            raise ValueError(f"unknown job kind {job.kind!r}")
    except Exception as error:
        result = JobResult(
            job_id=-1,
            status=FAILED,
            fingerprint=job.fingerprint,
            failure=job_failure(
                "execute", type(error).__name__, str(error)
            ),
        )
    result.worker = worker
    result.elapsed_seconds = time.perf_counter() - started
    return result


def _execute_optimize(job: Job) -> JobResult:
    from repro.frontend.lower import parse_program
    from repro.frontend.unparse import unparse_program
    from repro.genesis.pipeline import optimize

    program = parse_program(job.source)
    if program.fingerprint() != job.fingerprint:
        # the fingerprint was stamped at admission from the same text,
        # so a mismatch means the job was corrupted in transit
        raise ValueError(
            f"program fingerprint mismatch: job says "
            f"{job.fingerprint[:12]}…, parsed source hashes to "
            f"{program.fingerprint()[:12]}…"
        )
    optimizers = _resolve_optimizers(job.opt_names)
    # pipeline knobs that are not DriverOptions travel in the payload
    # (and therefore in the cache key) so a service run is byte-
    # identical to a serial one under the same settings
    pipeline_kwargs: dict[str, int] = {}
    if "quarantine_after" in job.payload:
        pipeline_kwargs["quarantine_after"] = int(
            job.payload["quarantine_after"]  # type: ignore[arg-type]
        )
    report = optimize(
        program,
        optimizers,
        options=job.driver_options(),
        in_place=True,
        **pipeline_kwargs,
    )
    per_optimizer: dict[str, int] = {}
    stopped: dict[str, str] = {}
    for result in report.results:
        per_optimizer[result.optimizer] = (
            per_optimizer.get(result.optimizer, 0) + result.applied
        )
        if result.stopped:
            stopped.setdefault(result.optimizer, result.stopped)
    return JobResult(
        job_id=-1,
        status=COMPLETED,
        fingerprint=job.fingerprint,
        source=unparse_program(program, name=program.name),
        applications=report.total_applications,
        rollbacks=report.total_rollbacks,
        per_optimizer=per_optimizer,
        stopped=stopped,
        quarantined=list(report.quarantined),
        app_failures=[str(failure) for failure in report.failures()],
    )


def _resolve_optimizers(opt_names):
    """Catalog lookups, sharing the generated-optimizer cache."""
    from repro.opts.catalog import standard_optimizers

    catalog = standard_optimizers(tuple(opt_names))
    return [catalog[name] for name in opt_names]


def _execute_experiment(job: Job) -> JobResult:
    from repro.experiments.runner import run_experiment_component

    name = str(job.payload.get("experiment", ""))
    workload_names = job.payload.get("workloads")
    component = run_experiment_component(name, workload_names)
    return JobResult(
        job_id=-1,
        status=COMPLETED,
        fingerprint=job.fingerprint,
        payload=component,
    )


def _apply_chaos(job: Job) -> None:
    """Honour the test-only worker fault hooks (subprocess side)."""
    if job.chaos == "stall":
        time.sleep(_STALL_SECONDS)
    elif job.chaos == "exit":
        os._exit(CHAOS_EXIT_CODE)


class WorkerHandle:
    """One in-flight job execution (the backend contract).

    ``poll()`` is non-blocking and returns the :class:`JobResult` once
    available; ``crashed`` reports a worker that died without
    producing one; ``kill()`` reaps the worker (used for deadline
    enforcement and shutdown).
    """

    worker: str = "?"

    def poll(self) -> Optional[JobResult]:  # pragma: no cover - interface
        raise NotImplementedError

    @property
    def crashed(self) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    @property
    def exitcode(self) -> Optional[int]:
        return None

    def kill(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class _CompletedHandle(WorkerHandle):
    """An already-finished execution (the in-process backend)."""

    def __init__(self, result: JobResult, worker: str):
        self._result = result
        self.worker = worker

    def poll(self) -> Optional[JobResult]:
        return self._result

    @property
    def crashed(self) -> bool:
        return False

    def kill(self) -> None:
        pass


class InProcessBackend:
    """Synchronous execution in the submitting process.

    Deterministic and debuggable: ``spawn`` runs the job to completion
    before returning, so scheduling order *is* completion order.  The
    chaos hooks are simulated (a ``chaos="exit"``/``"stall"`` job
    yields the same structured worker failure the process backend
    reports) so containment tests run identically on either backend.
    """

    name = "inprocess"

    def __init__(self, max_workers: int = 1):
        self.max_workers = max(1, max_workers)

    def spawn(self, job: Job) -> WorkerHandle:
        if job.chaos in ("exit", "stall"):
            error_type = (
                "WorkerCrashed" if job.chaos == "exit" else "WorkerStalled"
            )
            result = JobResult(
                job_id=-1,
                status=FAILED,
                fingerprint=job.fingerprint,
                failure=job_failure(
                    "worker",
                    error_type,
                    f"simulated {job.chaos} fault (in-process backend)",
                ),
            )
            return _CompletedHandle(result, worker=self.name)
        return _CompletedHandle(execute_job(job, worker=self.name),
                                worker=self.name)

    def close(self) -> None:
        pass


def _worker_main(conn, payload: dict) -> None:
    """Subprocess entry: execute one job, ship the result back."""
    job = Job.from_dict(payload)
    try:
        if job.chaos == "exit":
            # die mid-job: parse work has happened, no result ever sent
            _apply_chaos(job)
        elif job.chaos == "stall":
            _apply_chaos(job)
        result = execute_job(job, worker=f"pid:{os.getpid()}")
        conn.send(result.to_dict() if job.kind != KIND_EXPERIMENT
                  else result)
    except BaseException:  # pragma: no cover - belt and braces
        try:
            conn.send(
                JobResult(
                    job_id=-1,
                    status=FAILED,
                    fingerprint=job.fingerprint,
                    failure=job_failure(
                        "worker", "WorkerError", "worker raised unexpectedly"
                    ),
                ).to_dict()
            )
        except Exception:
            pass
    finally:
        conn.close()


class _ProcessHandle(WorkerHandle):
    """A live worker process plus the pipe its result arrives on."""

    def __init__(self, process, conn, kind: str):
        self._process = process
        self._conn = conn
        self._kind = kind
        self._result: Optional[JobResult] = None
        self._dead = False
        self._released = False
        #: exit code snapshot taken before the Process object is closed
        self._exitcode: Optional[int] = None
        self.worker = f"pid:{process.pid}"

    def poll(self) -> Optional[JobResult]:
        if self._result is not None:
            return self._result
        if self._dead:
            return None
        try:
            if self._conn.poll():
                payload = self._conn.recv()
                self._result = (
                    payload if isinstance(payload, JobResult)
                    else JobResult.from_dict(payload)
                )
                self._process.join(timeout=5.0)
                self._release()
                return self._result
        except (EOFError, OSError):
            # the worker closed the pipe without a result: it is dead
            self._dead = True
            self._release()
            return None
        if not self._process.is_alive():
            # one last race-free look: the worker may have written the
            # result and exited between the two checks above
            try:
                if self._conn.poll():
                    payload = self._conn.recv()
                    self._result = (
                        payload if isinstance(payload, JobResult)
                        else JobResult.from_dict(payload)
                    )
                    self._release()
                    return self._result
            except (EOFError, OSError):
                pass
            self._dead = True
            self._release()
        return None

    def _release(self) -> None:
        """Free per-job OS resources as soon as the outcome is known.

        Closes the parent's pipe end, joins the exited process, and
        closes the Process object (dropping its sentinel fd) so a
        long-running service does not accumulate one open pipe and one
        unreaped process per completed job.  The exit code is
        snapshotted first — the scheduler reports it for crashes.
        """
        if self._released:
            return
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if self._process.is_alive():  # pragma: no cover - lingering
            return
        self._process.join(timeout=1.0)
        self._exitcode = self._process.exitcode
        try:
            self._process.close()
        except ValueError:  # pragma: no cover - still running
            return
        self._released = True

    @property
    def finished(self) -> bool:
        """The outcome is known (result landed or the worker died)."""
        return self._result is not None or self._dead

    @property
    def crashed(self) -> bool:
        return self._result is None and self._dead

    @property
    def exitcode(self) -> Optional[int]:
        if self._released:
            return self._exitcode
        return self._process.exitcode

    def kill(self) -> None:
        """Reap the worker: terminate, escalate to SIGKILL, join."""
        if self._released:
            return
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=1.0)
            if self._process.is_alive():  # pragma: no cover - stubborn
                self._process.kill()
                self._process.join(timeout=1.0)
        self._dead = self._result is None
        self._release()


class ProcessPoolBackend:
    """One forked worker process per job, ``max_workers`` at a time.

    The concurrency cap is enforced by the scheduler (it never holds
    more than ``max_workers`` live handles); the backend itself only
    knows how to spawn and how to reap.
    """

    name = "process"

    def __init__(self, max_workers: int = 4, mp_context=None):
        self.max_workers = max(1, max_workers)
        self._ctx = mp_context or multiprocessing.get_context()
        self._handles: list[_ProcessHandle] = []

    def spawn(self, job: Job) -> WorkerHandle:
        # prune handles whose jobs already finished (their fds are
        # closed in _release); only live workers need tracking for
        # close()'s shutdown reap
        self._handles = [h for h in self._handles if not h.finished]
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, job.to_dict()),
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle = _ProcessHandle(process, parent_conn, job.kind)
        self._handles.append(handle)
        return handle

    def close(self) -> None:
        """Reap every worker still alive (service shutdown)."""
        for handle in self._handles:
            handle.kill()
        self._handles.clear()
