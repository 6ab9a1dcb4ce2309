"""The shared schema for the repository's BENCH_*.json files.

Every benchmark (``BENCH_match.json``, ``BENCH_dependence.json``,
``BENCH_service.json``) records its numbers in one normalized shape so
dashboards and regression checks can read any of them identically:

* ``host`` — where the numbers were measured: ``python`` version,
  ``platform`` string, ``cpus`` (usable cores, the scheduler's
  affinity mask), ``cpu_count`` (``os.cpu_count()``, the machine's
  total — parallel speedups are meaningless without both),
  optionally ``backend`` (the service worker mode the numbers were
  taken under), and — optional, so older files still validate —
  ``commit`` (``git rev-parse HEAD``, or ``"unknown"``) and
  ``recorded_at`` (UTC ISO-8601), which tie a record to the run that
  wrote it;
* ``sizes`` — a non-empty list of measurements, each with an integer
  ``size`` (the workload scale knob) and at least one ``*speedup*``
  field (the ratio the benchmark exists to track).

Benchmark-specific fields (pipelines, counters, targets) ride along
unconstrained.  :func:`write_bench` stamps the host block, validates,
and writes; ``tests/test_bench_schema.py`` re-validates the committed
files so a benchmark edit cannot silently drift from the shape.
"""

from __future__ import annotations

import json
import os
import platform as _platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

#: the checkout whose commit :func:`host_info` stamps
REPO_ROOT = Path(__file__).resolve().parent.parent


def _commit() -> str:
    """``git rev-parse HEAD`` of this checkout, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else "unknown"


def host_info(backend: str | None = None) -> dict[str, object]:
    """Where (and under which service backend) these numbers were
    measured.  ``cpus`` is the usable-core count (affinity mask);
    ``cpu_count`` is the machine total — a 0.9x "parallel speedup"
    on a 1-CPU host is expected, not a regression, and the host block
    is what lets a reader tell the difference.  ``commit`` and
    ``recorded_at`` say which code wrote the record, and when."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    info: dict[str, object] = {
        "python": sys.version.split()[0],
        "platform": _platform.platform(),
        "cpus": cpus,
        "cpu_count": os.cpu_count() or 1,
        "commit": _commit(),
        "recorded_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
    }
    if backend is not None:
        info["backend"] = backend
    return info


def validate_bench(payload: dict) -> list[str]:
    """Schema problems in a BENCH payload (empty list: conforming)."""
    problems: list[str] = []
    host = payload.get("host")
    if not isinstance(host, dict):
        problems.append("missing 'host' object")
    else:
        for key in ("python", "platform"):
            if not isinstance(host.get(key), str) or not host.get(key):
                problems.append(f"host.{key} must be a non-empty string")
        cpus = host.get("cpus")
        if not isinstance(cpus, int) or cpus < 1:
            problems.append("host.cpus must be an integer >= 1")
        cpu_count = host.get("cpu_count")
        if not isinstance(cpu_count, int) or cpu_count < 1:
            problems.append("host.cpu_count must be an integer >= 1")
        for key in ("backend", "commit", "recorded_at"):
            value = host.get(key)
            if value is not None and (not isinstance(value, str) or not value):
                problems.append(f"host.{key} must be a non-empty string")
    sizes = payload.get("sizes")
    if not isinstance(sizes, list) or not sizes:
        problems.append("'sizes' must be a non-empty list")
        return problems
    previous_size: int | None = None
    for index, entry in enumerate(sizes):
        if not isinstance(entry, dict):
            problems.append(f"sizes[{index}] must be an object")
            continue
        size = entry.get("size")
        if not isinstance(size, int) or size < 1:
            problems.append(f"sizes[{index}].size must be an integer >= 1")
        else:
            if previous_size is not None and size <= previous_size:
                problems.append(
                    f"sizes[{index}].size ({size}) must exceed "
                    f"sizes[{index - 1}].size ({previous_size}): entries "
                    "are one scaling curve, smallest first"
                )
            previous_size = size
        speedups = [
            key for key, value in entry.items()
            if "speedup" in key and isinstance(value, (int, float))
        ]
        if not speedups:
            problems.append(
                f"sizes[{index}] needs at least one numeric *speedup* field"
            )
    return problems


def write_bench(path: Path | str, payload: dict) -> dict:
    """Stamp the host block, validate, and write the BENCH file."""
    payload = dict(payload)
    payload.setdefault("host", host_info())
    problems = validate_bench(payload)
    if problems:
        raise ValueError(
            f"{path}: BENCH payload violates the shared schema: "
            + "; ".join(problems)
        )
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload
