"""The persistent, content-addressed disk tier of the result cache.

The in-memory LRU (:class:`~repro.service.cache.ResultCache`) dies with
the process; this tier does not.  Every completed
:class:`~repro.service.job.JobResult` of an optimize job is written to
``<root>/<key[:2]>/<key>.json`` — the sha256 cache key
(:meth:`repro.service.job.Job.cache_key`) *is* the address, so a result
computed by any serve process in a fleet is readable by every other one
sharing the directory, and survives restarts, crashes and ``kill -9``.

Crash safety is structural, not best-effort:

* **atomic writes** — an entry is serialized to a pid-tagged ``*.tmp``
  file in the same shard directory, flushed and fsynced, then published
  with :func:`os.replace`.  A process that dies mid-write leaves only a
  temp file, never a partial entry; readers can only ever observe a
  complete rename.
* **checksums on read** — the header records the sha256 of the payload
  JSON; an entry that fails the checksum (torn by a filesystem fault,
  truncated by hand, bit-flipped) is *quarantined*: deleted and
  counted, never deserialized.
* **version headers** — the header embeds ``repro.__version__`` and the
  on-disk ``FORMAT`` number; a mismatch on either is silently treated
  as a miss (with a counter), so an upgraded service never
  deserializes a stale format.
* **cross-process locking** — mutations (store, GC, temp-file sweep)
  serialize on an ``fcntl``-locked ``.lock`` file so a fleet of serve
  processes can share one directory; reads are lock-free (atomic
  rename makes every visible entry complete).
* **size-capped GC** — when the directory exceeds ``limit_bytes``, the
  oldest entries (by mtime; a read refreshes it, so this is LRU-ish)
  are removed until it fits.  Orphaned temp files whose writer died are
  swept on startup and during GC.

``REPRO_CHAOS_DISKCACHE=crash-put:<n>`` is a test-only fault hook: the
``n``-th store writes *half* of its temp file and hard-exits the
process (exit code :data:`CACHE_CRASH_EXIT`) — the network chaos
campaign uses it to prove that a crash mid-cache-write can never
publish a corrupt entry.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

from repro._version import __version__
from repro.service.job import JobResult

try:  # POSIX; the lock degrades to a no-op elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

#: On-disk entry format; bump on any incompatible header/payload change.
FORMAT = 1

#: Exit code of the test-only crash-mid-write fault hook.
CACHE_CRASH_EXIT = 21

#: Environment variable carrying the fault hook (``crash-put:<n>``).
CHAOS_ENV = "REPRO_CHAOS_DISKCACHE"

#: Temp files older than this with a dead writer pid are swept.
_TMP_GRACE_SECONDS = 60.0


@dataclass
class DiskCacheStats:
    """Counters for the persistent tier (ride along in ServiceStats)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: entries that failed checksum/parse and were quarantined (deleted)
    corrupt_dropped: int = 0
    #: entries skipped because their format/version header mismatched
    version_misses: int = 0
    #: entries removed by the size-capped GC
    gc_evictions: int = 0
    #: orphaned temp files swept
    tmp_swept: int = 0
    #: I/O errors tolerated (cache degraded to a miss/no-op)
    errors: int = 0

    def as_dict(self) -> dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt_dropped": self.corrupt_dropped,
            "version_misses": self.version_misses,
            "gc_evictions": self.gc_evictions,
            "tmp_swept": self.tmp_swept,
            "errors": self.errors,
        }

    def __str__(self) -> str:
        return (
            f"disk: {self.hits} hit(s), {self.misses} miss(es), "
            f"{self.stores} store(s), {self.corrupt_dropped} "
            f"quarantined, {self.version_misses} version-miss(es), "
            f"{self.gc_evictions} gc-evicted"
        )


@dataclass
class DiskVerifyReport:
    """What :meth:`DiskCache.verify` found on a full directory scan."""

    entries: int = 0
    valid: int = 0
    #: published entries that failed checksum/parse (corruption!)
    corrupt: list[str] = None  # type: ignore[assignment]
    #: entries with a mismatched format/version header (stale, benign)
    stale: list[str] = None  # type: ignore[assignment]
    #: temp files present (unpublished partial writes, benign)
    temp_files: list[str] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.corrupt = self.corrupt or []
        self.stale = self.stale or []
        self.temp_files = self.temp_files or []

    @property
    def ok(self) -> bool:
        """No published entry is corrupt (temp files are not entries)."""
        return not self.corrupt

    def __str__(self) -> str:
        return (
            f"disk cache verify: {self.entries} entr(ies), "
            f"{self.valid} valid, {len(self.corrupt)} corrupt, "
            f"{len(self.stale)} stale, {len(self.temp_files)} temp "
            f"file(s)"
        )


class DiskCache:
    """Content-addressed persistent result store, shared across
    processes via atomic renames and an ``fcntl`` lock file."""

    def __init__(
        self,
        root: Path | str,
        limit_bytes: int = 64 * 1024 * 1024,
        shard_width: int = 2,
    ):
        if limit_bytes <= 0:
            raise ValueError("disk cache limit_bytes must be > 0")
        self.root = Path(root)
        self.limit_bytes = limit_bytes
        self.shard_width = max(0, shard_width)
        self.stats = DiskCacheStats()
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock_path = self.root / ".lock"
        self._puts = 0
        self._crash_at = _parse_chaos(os.environ.get(CHAOS_ENV))
        with self._locked():
            self._sweep_tmp()

    # ------------------------------------------------------------------
    # addressing
    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        """Where this cache key lives (sharded by fingerprint prefix)."""
        shard = key[: self.shard_width] if self.shard_width else ""
        return (self.root / shard if shard else self.root) / f"{key}.json"

    # ------------------------------------------------------------------
    # read
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[JobResult]:
        """The stored result, or None; corrupt entries are quarantined.

        Lock-free: atomic publication means any visible entry is
        complete.  A hit refreshes the entry's mtime so the GC's
        oldest-first eviction approximates LRU.
        """
        path = self.path_for(key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except OSError:
            self.stats.errors += 1
            self.stats.misses += 1
            return None
        result = self._decode(key, blob)
        if result is None:
            self.stats.misses += 1
            return None
        try:
            now = time.time()
            os.utime(path, (now, now))
        except OSError:  # pragma: no cover - entry raced away
            pass
        self.stats.hits += 1
        return result

    def _decode(self, key: str, blob: bytes) -> Optional[JobResult]:
        """Header-check, checksum-check, and rebuild one entry."""
        try:
            envelope = json.loads(blob)
            if not isinstance(envelope, dict):
                raise ValueError("entry is not an object")
        except (ValueError, UnicodeDecodeError):
            self._quarantine(key, "unparseable entry")
            return None
        if (
            envelope.get("format") != FORMAT
            or envelope.get("version") != __version__
        ):
            # a different release (or on-disk format) wrote this: a
            # miss, never a deserialization — upgrades stay safe
            self.stats.version_misses += 1
            return None
        payload = envelope.get("payload")
        recorded = envelope.get("checksum")
        if not isinstance(payload, dict) or not isinstance(recorded, str):
            self._quarantine(key, "missing payload/checksum")
            return None
        if _checksum(payload) != recorded:
            self._quarantine(key, "checksum mismatch")
            return None
        result = JobResult.from_dict(payload)
        result.cache_key = key
        return result

    def _quarantine(self, key: str, reason: str) -> None:
        """Delete a corrupt entry so it can never be served again."""
        self.stats.corrupt_dropped += 1
        with self._locked():
            try:
                self.path_for(key).unlink()
            except OSError:  # pragma: no cover - already gone
                pass

    # ------------------------------------------------------------------
    # write
    # ------------------------------------------------------------------
    def put(self, key: str, result: JobResult) -> None:
        """Publish one completed result atomically.

        Serialized to a pid-tagged temp file in the entry's shard
        directory, fsynced, then renamed over the final path — a crash
        at any instant leaves either the old state or the new entry,
        never a torn one.  I/O failures degrade to a no-op (the cache
        is an accelerator, not a dependency).  A result carrying a
        Python ``payload`` (an experiment job's) has no JSON form, so it
        stays in the memory tier only.
        """
        if not result.ok or result.payload is not None:
            return
        path = self.path_for(key)
        payload = result.to_dict()
        envelope = {
            "format": FORMAT,
            "version": __version__,
            "key": key,
            "checksum": _checksum(payload),
            "payload": payload,
        }
        blob = (json.dumps(envelope, sort_keys=True) + "\n").encode()
        tmp = path.parent / f"{path.name}.tmp-{os.getpid()}"
        self._puts += 1
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as handle:
                if self._crash_at is not None and self._puts >= self._crash_at:
                    # test-only fault: die mid-write with a half-written
                    # temp file on disk — the rename below never happens
                    handle.write(blob[: len(blob) // 2])
                    handle.flush()
                    os.fsync(handle.fileno())
                    os._exit(CACHE_CRASH_EXIT)
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except OSError:
            self.stats.errors += 1
            try:
                tmp.unlink()
            except OSError:
                pass
            return
        self.stats.stores += 1
        self._maybe_gc()

    # ------------------------------------------------------------------
    # GC / maintenance
    # ------------------------------------------------------------------
    def _entries(self) -> Iterator[Path]:
        yield from self.root.glob("*/*.json")
        yield from self.root.glob("*.json")

    def _maybe_gc(self) -> None:
        try:
            files = [
                (path, path.stat()) for path in set(self._entries())
            ]
        except OSError:  # pragma: no cover - directory raced away
            self.stats.errors += 1
            return
        total = sum(stat.st_size for _, stat in files)
        if total <= self.limit_bytes:
            return
        with self._locked():
            self.gc(files_hint=files, total_hint=total)

    def gc(self, files_hint=None, total_hint=None) -> int:
        """Evict oldest entries until under the byte cap; sweep temps.

        Call under the lock (``_maybe_gc`` does); returns evictions.
        """
        self._sweep_tmp()
        if files_hint is None:
            files_hint = [
                (path, path.stat()) for path in set(self._entries())
            ]
            total_hint = sum(stat.st_size for _, stat in files_hint)
        total = total_hint or 0
        evicted = 0
        for path, stat in sorted(files_hint, key=lambda f: f[1].st_mtime):
            if total <= self.limit_bytes:
                break
            try:
                path.unlink()
            except OSError:  # pragma: no cover - raced with a peer
                continue
            total -= stat.st_size
            evicted += 1
            self.stats.gc_evictions += 1
        return evicted

    def _sweep_tmp(self) -> None:
        """Remove temp files whose writer died (crash mid-write)."""
        now = time.time()
        for tmp in list(self.root.glob("**/*.tmp-*")):
            pid = _tmp_pid(tmp.name)
            stale_age = False
            try:
                stale_age = now - tmp.stat().st_mtime > _TMP_GRACE_SECONDS
            except OSError:
                continue
            if pid == os.getpid():
                continue
            if pid is None or stale_age or not _pid_alive(pid):
                try:
                    tmp.unlink()
                    self.stats.tmp_swept += 1
                except OSError:  # pragma: no cover - raced with a peer
                    pass

    def verify(self) -> DiskVerifyReport:
        """Full-directory integrity scan (the chaos campaign's gate).

        Classifies every published entry as valid / corrupt / stale
        and lists unpublished temp files.  Read-only: nothing is
        quarantined or swept.
        """
        report = DiskVerifyReport()
        for tmp in self.root.glob("**/*.tmp-*"):
            report.temp_files.append(str(tmp))
        for path in sorted(set(self._entries())):
            report.entries += 1
            try:
                envelope = json.loads(path.read_bytes())
                if not isinstance(envelope, dict):
                    raise ValueError("entry is not an object")
            except (ValueError, UnicodeDecodeError, OSError):
                report.corrupt.append(str(path))
                continue
            if (
                envelope.get("format") != FORMAT
                or envelope.get("version") != __version__
            ):
                report.stale.append(str(path))
                continue
            payload = envelope.get("payload")
            if (
                not isinstance(payload, dict)
                or _checksum(payload) != envelope.get("checksum")
            ):
                report.corrupt.append(str(path))
                continue
            report.valid += 1
        return report

    def __len__(self) -> int:
        return sum(1 for _ in set(self._entries()))

    # ------------------------------------------------------------------
    # locking
    # ------------------------------------------------------------------
    @contextmanager
    def _locked(self):
        """Cross-process mutation lock (no-op where fcntl is absent)."""
        if fcntl is None:  # pragma: no cover - non-POSIX platform
            yield
            return
        try:
            handle = open(self._lock_path, "a+b")
        except OSError:  # pragma: no cover - unwritable cache dir
            self.stats.errors += 1
            yield
            return
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            yield
        finally:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            finally:
                handle.close()


def _checksum(payload: dict) -> str:
    """sha256 over the canonical payload JSON."""
    material = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(material).hexdigest()


def _tmp_pid(name: str) -> Optional[int]:
    _, _, tail = name.rpartition(".tmp-")
    try:
        return int(tail)
    except ValueError:
        return None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except OSError as error:
        return error.errno == errno.EPERM
    return True


def _parse_chaos(value: Optional[str]) -> Optional[int]:
    """``crash-put:<n>`` from the environment, else None."""
    if not value:
        return None
    kind, _, count = value.partition(":")
    if kind != "crash-put":
        return None
    try:
        return max(1, int(count))
    except ValueError:
        return None
