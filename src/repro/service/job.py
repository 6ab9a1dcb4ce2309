"""The unit of work the optimization service schedules.

A :class:`Job` is one program (carried as mini-Fortran source — the
frontend/unparse round trip is the serialization format, so jobs cross
process boundaries as plain text), one optimization sequence, and one
set of driver knobs.  :class:`JobResult` is the structured outcome:
either the optimized source plus per-optimizer statistics, or a
:class:`~repro.genesis.transaction.ApplicationFailure`-shaped record of
why the job died (worker crash, deadline, rejection) — a job never
surfaces a raw traceback to the submitter.

Everything here is plain-dict serializable (``to_dict``/``from_dict``)
because the process-pool backend ships jobs and results over pipes and
the ``genesis serve`` network server speaks JSON lines.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

from repro._version import __version__
from repro.genesis.driver import DriverOptions
from repro.genesis.transaction import ApplicationFailure
from repro.ir.program import Program

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
REJECTED = "rejected"
EXPIRED = "expired"

#: Job kinds the workers know how to execute.
KIND_OPTIMIZE = "optimize"
KIND_EXPERIMENT = "experiment"

#: ``DriverOptions`` fields, every one of which serializes into a job.
_OPTION_FIELDS = tuple(f.name for f in fields(DriverOptions))


class JobError(ValueError):
    """A job that cannot be represented or executed as submitted."""


def options_to_dict(options: DriverOptions) -> dict[str, object]:
    """Serialize driver knobs to a plain dict (the job wire format)."""
    return {name: getattr(options, name) for name in _OPTION_FIELDS}


def options_from_dict(payload: dict[str, object]) -> DriverOptions:
    """Rebuild :class:`DriverOptions` from the job wire format."""
    unknown = set(payload) - set(_OPTION_FIELDS)
    if unknown:
        raise JobError(
            f"unknown DriverOptions field(s) in job: {sorted(unknown)}"
        )
    return DriverOptions(**payload)  # type: ignore[arg-type]


@dataclass
class Job:
    """One optimization request.

    ``source`` is the program's mini-Fortran text; ``opt_names`` the
    optimization sequence (catalog names, applied in order, duplicates
    allowed — a multi-pass pipeline is just a repeated name); and
    ``options`` the serialized :class:`DriverOptions`.  ``fingerprint``
    is the canonical content hash of the *parsed* program
    (:meth:`repro.ir.program.Program.fingerprint`), computed at
    construction so admission control can key caches and single-flight
    tracking without re-parsing.

    ``deadline_seconds`` is the *service-level* wall-clock budget for
    the whole job (queue wait included) — distinct from the driver's
    own per-run ``options["deadline_seconds"]`` budget.  ``chaos`` is a
    test-only fault hook honoured by workers: ``"exit"`` hard-kills the
    worker process mid-job, ``"stall"`` wedges it until reaped.
    """

    source: str
    opt_names: tuple[str, ...]
    options: dict[str, object] = field(default_factory=dict)
    kind: str = KIND_OPTIMIZE
    fingerprint: str = ""
    #: service-level wall-clock budget (None: the service default)
    deadline_seconds: Optional[float] = None
    #: opaque payload for non-optimize kinds (e.g. experiment name)
    payload: dict[str, object] = field(default_factory=dict)
    #: test-only worker fault injection: None | "exit" | "stall"
    chaos: Optional[str] = None

    def __post_init__(self) -> None:
        self.opt_names = tuple(self.opt_names)
        if self.kind == KIND_OPTIMIZE and not self.fingerprint:
            from repro.frontend.lower import parse_program

            self.fingerprint = parse_program(self.source).fingerprint()

    @classmethod
    def from_program(
        cls,
        program: Program,
        opt_names: Sequence[str],
        options: Optional[DriverOptions] = None,
        **extra: object,
    ) -> "Job":
        """Build a job from an in-memory program (unparse round trip)."""
        from repro.frontend.unparse import unparse_program

        return cls(
            source=unparse_program(program, name=program.name),
            opt_names=tuple(opt_names),
            options=options_to_dict(options or DriverOptions(apply_all=True)),
            fingerprint=program.fingerprint(),
            **extra,  # type: ignore[arg-type]
        )

    @classmethod
    def from_source(
        cls,
        source: str,
        opt_names: Sequence[str],
        options: Optional[DriverOptions] = None,
        **extra: object,
    ) -> "Job":
        """Build a job from mini-Fortran text (parsed once, eagerly, so
        malformed programs are rejected at admission, not in a worker)."""
        return cls(
            source=source,
            opt_names=tuple(opt_names),
            options=options_to_dict(options or DriverOptions(apply_all=True)),
            **extra,  # type: ignore[arg-type]
        )

    @classmethod
    def experiment(cls, name: str, **extra: object) -> "Job":
        """An experiment-component job (see ``repro.experiments.runner``)."""
        return cls(
            source="",
            opt_names=(),
            kind=KIND_EXPERIMENT,
            fingerprint=f"experiment:{name}",
            payload={"experiment": name},
            **extra,  # type: ignore[arg-type]
        )

    def driver_options(self) -> DriverOptions:
        return options_from_dict(dict(self.options))

    def cache_key(self) -> str:
        """The fingerprint-keyed cache identity of this job.

        Canonical program content hash × optimization sequence ×
        driver options × job kind/payload × package version.  The
        version component makes caches self-invalidate across
        releases: a result computed by repro 1.0 is never served for
        the same request under 1.1.
        """
        material = json.dumps(
            {
                "version": __version__,
                "kind": self.kind,
                "fingerprint": self.fingerprint,
                "opts": list(self.opt_names),
                "options": {
                    name: self.options[name] for name in sorted(self.options)
                },
                "payload": {
                    str(k): repr(v) for k, v in sorted(self.payload.items())
                },
            },
            sort_keys=True,
        )
        return hashlib.sha256(material.encode()).hexdigest()

    def to_dict(self) -> dict[str, object]:
        return {
            "source": self.source,
            "opt_names": list(self.opt_names),
            "options": dict(self.options),
            "kind": self.kind,
            "fingerprint": self.fingerprint,
            "deadline_seconds": self.deadline_seconds,
            "payload": dict(self.payload),
            "chaos": self.chaos,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "Job":
        return cls(
            source=payload["source"],  # type: ignore[arg-type]
            opt_names=tuple(payload.get("opt_names", ())),  # type: ignore[arg-type]
            options=dict(payload.get("options", {})),  # type: ignore[arg-type]
            kind=payload.get("kind", KIND_OPTIMIZE),  # type: ignore[arg-type]
            fingerprint=payload.get("fingerprint", ""),  # type: ignore[arg-type]
            deadline_seconds=payload.get("deadline_seconds"),  # type: ignore[arg-type]
            payload=dict(payload.get("payload", {})),  # type: ignore[arg-type]
            chaos=payload.get("chaos"),  # type: ignore[arg-type]
        )


def job_failure(
    phase: str, error_type: str, error: str, optimizer: str = "<service>"
) -> ApplicationFailure:
    """A job-level failure in the pipeline's own failure shape.

    Reuses :class:`ApplicationFailure` so service consumers handle
    worker crashes, reaped stalls and rejections with the same code
    that handles contained optimization failures.  ``restored`` is
    ``"isolation"``: the submitter's program was never mutated — the
    worker's copy died with the worker.
    """
    return ApplicationFailure(
        optimizer=optimizer,
        phase=phase,
        error_type=error_type,
        error=error,
        restored="isolation",
    )


@dataclass
class JobResult:
    """The structured outcome of one job."""

    job_id: int
    status: str
    fingerprint: str = ""
    cache_key: str = ""
    #: optimized program source (``status == "completed"``, optimize kind)
    source: Optional[str] = None
    applications: int = 0
    rollbacks: int = 0
    #: applications per optimizer name, in submission order
    per_optimizer: dict[str, int] = field(default_factory=dict)
    #: optimizer -> early-stop reason (deadline/fuel/rollback-budget/...)
    stopped: dict[str, str] = field(default_factory=dict)
    quarantined: list[str] = field(default_factory=list)
    #: contained per-application failures, rendered
    app_failures: list[str] = field(default_factory=list)
    #: the job-level failure for failed/rejected/expired statuses
    failure: Optional[ApplicationFailure] = None
    #: served from the result cache without running
    cached: bool = False
    #: piggybacked on another in-flight job's execution (single-flight)
    coalesced: bool = False
    #: backend worker that ran the job ("inprocess" or "pid:<n>")
    worker: str = ""
    queued_seconds: float = 0.0
    elapsed_seconds: float = 0.0
    #: opaque result object for non-optimize kinds (in-process and
    #: pipe-pickle transport only; omitted from the JSON wire format)
    payload: object = None

    @property
    def ok(self) -> bool:
        return self.status == COMPLETED

    def to_dict(self) -> dict[str, object]:
        """JSON-safe rendering (for ``genesis serve``/``batch``)."""
        failure = None
        if self.failure is not None:
            failure = {
                "optimizer": self.failure.optimizer,
                "phase": self.failure.phase,
                "error_type": self.failure.error_type,
                "error": self.failure.error,
                "restored": self.failure.restored,
            }
        return {
            "job_id": self.job_id,
            "status": self.status,
            "fingerprint": self.fingerprint,
            "source": self.source,
            "applications": self.applications,
            "rollbacks": self.rollbacks,
            "per_optimizer": dict(self.per_optimizer),
            "stopped": dict(self.stopped),
            "quarantined": list(self.quarantined),
            "app_failures": list(self.app_failures),
            "failure": failure,
            "cached": self.cached,
            "coalesced": self.coalesced,
            "worker": self.worker,
            "queued_seconds": round(self.queued_seconds, 6),
            "elapsed_seconds": round(self.elapsed_seconds, 6),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "JobResult":
        failure = payload.get("failure")
        rebuilt = None
        if isinstance(failure, dict):
            rebuilt = ApplicationFailure(
                optimizer=failure.get("optimizer", "<service>"),
                phase=failure.get("phase", "worker"),
                error_type=failure.get("error_type", "Error"),
                error=failure.get("error", ""),
                restored=failure.get("restored", "isolation"),
            )
        return cls(
            job_id=int(payload.get("job_id", -1)),
            status=str(payload.get("status", FAILED)),
            fingerprint=str(payload.get("fingerprint", "")),
            source=payload.get("source"),  # type: ignore[arg-type]
            applications=int(payload.get("applications", 0)),
            rollbacks=int(payload.get("rollbacks", 0)),
            per_optimizer=dict(payload.get("per_optimizer", {})),  # type: ignore[arg-type]
            stopped=dict(payload.get("stopped", {})),  # type: ignore[arg-type]
            quarantined=list(payload.get("quarantined", [])),  # type: ignore[arg-type]
            app_failures=list(payload.get("app_failures", [])),  # type: ignore[arg-type]
            failure=rebuilt,
            cached=bool(payload.get("cached", False)),
            coalesced=bool(payload.get("coalesced", False)),
            worker=str(payload.get("worker", "")),
            queued_seconds=float(payload.get("queued_seconds", 0.0)),
            elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
        )

    def program(self) -> Program:
        """Parse the optimized source back to a :class:`Program`."""
        if self.source is None:
            raise JobError(
                f"job {self.job_id} has no program (status {self.status})"
            )
        from repro.frontend.lower import parse_program

        return parse_program(self.source)

    def __str__(self) -> str:
        text = f"job {self.job_id}: {self.status}"
        if self.status == COMPLETED:
            text += f", {self.applications} application(s)"
            if self.rollbacks:
                text += f", {self.rollbacks} rollback(s)"
            if self.cached:
                text += " [cached]"
            if self.coalesced:
                text += " [coalesced]"
        elif self.failure is not None:
            text += f" ({self.failure.error_type}: {self.failure.error})"
        return text
