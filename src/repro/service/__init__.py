"""Optimization-as-a-service: scheduler, worker pools, result cache.

The serving layer above the Figure 5 driver and the Figure 3 pipeline:
many programs, many optimization pipelines, concurrently, with
identical requests served from a fingerprint-keyed cache instead of
re-optimized.  See ``docs/service.md`` for the architecture.

* :mod:`repro.service.job` — the :class:`Job`/:class:`JobResult`
  wire model (programs travel as mini-Fortran text via the
  frontend/unparse round trip);
* :mod:`repro.service.cache` — the LRU :class:`ResultCache` keyed by
  :meth:`repro.ir.program.Program.fingerprint` × optimization sequence
  × options × package version;
* :mod:`repro.service.backends` — the in-process (deterministic) and
  process-pool (parallel, crash-isolated) worker backends;
* :mod:`repro.service.scheduler` — :class:`OptimizationService`:
  bounded queue, admission control, per-job deadlines, single-flight
  coalescing, worker reaping;
* :mod:`repro.service.client` — the :class:`ServiceClient` Python API
  and :func:`run_batch`, the one windowed, order-preserving way to
  batch jobs through any client; the ``genesis submit``/``batch`` CLI
  verbs wrap them.
"""

from repro.service.backends import (
    InProcessBackend,
    ProcessPoolBackend,
    execute_job,
)
from repro.service.cache import CacheStats, ResultCache
from repro.service.client import ServiceClient, run_batch
from repro.service.job import (
    COMPLETED,
    EXPIRED,
    FAILED,
    Job,
    JobError,
    JobResult,
    REJECTED,
    options_from_dict,
    options_to_dict,
)
from repro.service.scheduler import (
    OptimizationService,
    ServiceConfig,
    ServiceError,
    ServiceStats,
)

__all__ = [
    "COMPLETED",
    "EXPIRED",
    "FAILED",
    "REJECTED",
    "CacheStats",
    "InProcessBackend",
    "Job",
    "JobError",
    "JobResult",
    "OptimizationService",
    "ProcessPoolBackend",
    "ResultCache",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceStats",
    "execute_job",
    "options_from_dict",
    "options_to_dict",
    "run_batch",
]
