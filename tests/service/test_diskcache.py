"""The persistent disk tier: atomicity, checksums, versions, GC."""

import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro._version import __version__
from repro.experiments.strategies import VariantComparison
from repro.genesis.driver import DriverOptions
from repro.service.cache import ResultCache
from repro.service.client import ServiceClient, run_batch
from repro.service.diskcache import (
    CACHE_CRASH_EXIT,
    CHAOS_ENV,
    DiskCache,
    _TMP_GRACE_SECONDS,
)
from repro.service.job import Job, JobResult
from repro.workloads.programs import SOURCES

SOURCE = SOURCES["poly"]


def _result(job_id=1, source="x = 1\n"):
    return JobResult(
        job_id=job_id,
        status="completed",
        fingerprint="f" * 16,
        source=source,
        applications=2,
    )


def _job(source=SOURCE, opts=("CTP", "DCE")):
    return Job.from_source(source, opts, DriverOptions(apply_all=True))


class TestRoundTrip:
    def test_put_get_round_trip(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = "ab" + "0" * 62
        cache.put(key, _result())
        loaded = cache.get(key)
        assert loaded is not None
        assert loaded.source == "x = 1\n"
        assert loaded.cache_key == key
        assert cache.stats.stores == 1
        assert cache.stats.hits == 1

    def test_sharded_layout(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = "cd" + "0" * 62
        cache.put(key, _result())
        assert (tmp_path / "cd" / f"{key}.json").exists()

    def test_miss_counts(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.get("ee" + "0" * 62) is None
        assert cache.stats.misses == 1

    def test_failed_results_are_not_stored(self, tmp_path):
        cache = DiskCache(tmp_path)
        bad = JobResult(job_id=1, status="failed", fingerprint="f")
        cache.put("ff" + "0" * 62, bad)
        assert cache.stats.stores == 0
        assert len(cache) == 0

    def test_shared_across_instances(self, tmp_path):
        key = "aa" + "0" * 62
        DiskCache(tmp_path).put(key, _result())
        other = DiskCache(tmp_path)  # a different process, in spirit
        assert other.get(key) is not None


class TestCorruption:
    def test_truncated_entry_is_quarantined(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = "ab" + "1" * 62
        cache.put(key, _result())
        path = cache.path_for(key)
        path.write_bytes(path.read_bytes()[:20])
        assert cache.get(key) is None
        assert cache.stats.corrupt_dropped == 1
        assert not path.exists(), "corrupt entry must be deleted"

    def test_bitflipped_payload_fails_checksum(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = "ab" + "2" * 62
        cache.put(key, _result(source="x = 1\n"))
        path = cache.path_for(key)
        envelope = json.loads(path.read_bytes())
        envelope["payload"]["source"] = "x = 2\n"  # tampered
        path.write_text(json.dumps(envelope))
        assert cache.get(key) is None
        assert cache.stats.corrupt_dropped == 1
        assert not path.exists()

    def test_verify_classifies_corrupt_entries(self, tmp_path):
        cache = DiskCache(tmp_path)
        good = "ab" + "3" * 62
        bad = "ab" + "4" * 62
        cache.put(good, _result())
        cache.put(bad, _result())
        path = cache.path_for(bad)
        path.write_bytes(b"not json at all")
        report = cache.verify()
        assert report.entries == 2
        assert report.valid == 1
        assert [str(path)] == report.corrupt
        assert not report.ok
        # verify is read-only: the corrupt entry is still there
        assert path.exists()


class TestVersioning:
    def test_version_mismatch_is_a_silent_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = "ab" + "5" * 62
        cache.put(key, _result())
        path = cache.path_for(key)
        envelope = json.loads(path.read_bytes())
        envelope["version"] = "0.0.0-older"
        path.write_text(json.dumps(envelope))
        assert cache.get(key) is None
        assert cache.stats.version_misses == 1
        assert cache.stats.corrupt_dropped == 0
        assert path.exists(), "stale entries are kept, not quarantined"

    def test_format_mismatch_is_a_silent_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = "ab" + "6" * 62
        cache.put(key, _result())
        path = cache.path_for(key)
        envelope = json.loads(path.read_bytes())
        envelope["format"] = 999
        path.write_text(json.dumps(envelope))
        assert cache.get(key) is None
        assert cache.stats.version_misses == 1

    def test_entries_embed_running_version(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = "ab" + "7" * 62
        cache.put(key, _result())
        envelope = json.loads(cache.path_for(key).read_bytes())
        assert envelope["version"] == __version__
        assert envelope["key"] == key
        report = cache.verify()
        assert envelope["version"] != "0.0.0"  # sanity: single-sourced
        assert report.stale == []


class TestGC:
    def test_size_cap_evicts_oldest_first(self, tmp_path):
        probe = DiskCache(tmp_path / "probe")
        probe.put("aa" + "0" * 62, _result(source="old\n"))
        entry_size = probe.path_for("aa" + "0" * 62).stat().st_size
        # room for one entry but not two
        cache = DiskCache(tmp_path, limit_bytes=entry_size + 8)
        old = "aa" + "8" * 62
        new = "bb" + "8" * 62
        cache.put(old, _result(source="old\n"))
        entry = cache.path_for(old)
        past = time.time() - 1000
        os.utime(entry, (past, past))
        cache.put(new, _result(source="new\n"))
        # the second put triggered GC; the older entry went first
        assert cache.stats.gc_evictions >= 1
        assert not entry.exists()
        assert cache.path_for(new).exists()

    def test_read_refreshes_mtime(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = "cc" + "9" * 62
        cache.put(key, _result())
        path = cache.path_for(key)
        past = time.time() - 1000
        os.utime(path, (past, past))
        cache.get(key)
        assert path.stat().st_mtime > past + 500

    def test_stale_tmp_files_swept_on_startup(self, tmp_path):
        first = DiskCache(tmp_path)
        shard = tmp_path / "ab"
        shard.mkdir(exist_ok=True)
        tmp = shard / ("x" * 64 + ".json.tmp-999999999")
        tmp.write_bytes(b"half-written")
        old = time.time() - _TMP_GRACE_SECONDS - 10
        os.utime(tmp, (old, old))
        fresh = DiskCache(tmp_path)
        assert not tmp.exists()
        assert fresh.stats.tmp_swept == 1
        assert first.stats.tmp_swept == 0


class TestCrashMidWrite:
    def test_crash_put_leaves_no_published_entry(self, tmp_path):
        """A process dying mid-write strands a temp file at worst."""
        script = textwrap.dedent(
            """
            import sys
            from repro.service.diskcache import DiskCache
            from repro.service.job import JobResult
            cache = DiskCache(sys.argv[1])
            result = JobResult(
                job_id=1, status="completed", fingerprint="f",
                source="y = 2\\n",
            )
            cache.put("ab" + "0" * 62, result)
            print("unreachable")
            """
        )
        env = dict(os.environ, **{CHAOS_ENV: "crash-put:1"})
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src, env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == CACHE_CRASH_EXIT
        assert "unreachable" not in proc.stdout
        cache = DiskCache(tmp_path)
        report = cache.verify()
        assert report.entries == 0, "no partial entry was published"
        assert report.ok
        # the stranded temp file is gone (dead pid -> swept on init)
        assert cache.stats.tmp_swept == 1
        assert list(tmp_path.glob("**/*.tmp-*")) == []


class TestLayeredUnderMemory:
    def test_memory_then_disk_then_miss(self, tmp_path):
        disk = DiskCache(tmp_path)
        cache = ResultCache(capacity=4, disk=disk)
        cache.put("k1", _result())
        assert disk.stats.stores == 1
        # memory hit: disk untouched
        assert cache.get("k1").cached
        assert disk.stats.hits == 0
        # new instance sharing the directory: disk hit, promoted
        other = ResultCache(capacity=4, disk=DiskCache(tmp_path))
        promoted = other.get("k1")
        assert promoted is not None and promoted.cached
        assert other.get("k1") is not None  # now a memory hit
        assert other.disk.stats.hits == 1

    def test_capacity_zero_is_disk_only(self, tmp_path):
        cache = ResultCache(capacity=0, disk=DiskCache(tmp_path))
        cache.put("k2", _result())
        assert cache.get("k2") is not None  # served from disk
        assert cache.disk.stats.hits == 1

    def test_service_warm_restart_via_disk(self, tmp_path):
        """Two service lifetimes sharing one cache directory."""
        job = _job()
        with ServiceClient(
            backend="inprocess", cache_dir=str(tmp_path)
        ) as client:
            first = client.wait(client.submit(job))
        assert first.ok and not first.cached
        with ServiceClient(
            backend="inprocess", cache_dir=str(tmp_path)
        ) as client:
            second = client.wait(client.submit(_job()))
            stats = client.stats
        assert second.ok and second.cached
        assert second.source == first.source
        assert stats.disk is not None and stats.disk.hits == 1

    def test_experiment_results_stay_off_disk(self, tmp_path):
        """An experiment's result is a Python object the JSON entry
        cannot hold: a second service lifetime reruns the component
        instead of serving a payload-less ``completed`` result."""

        def run():
            job = Job.experiment("lur_variants")
            job.payload["workloads"] = ["poly"]
            with ServiceClient(
                backend="inprocess", cache_dir=str(tmp_path)
            ) as client:
                [result] = run_batch(client, [job])
            return result

        first = run()
        second = run()
        assert first.ok and isinstance(first.payload, VariantComparison)
        assert second.ok and not second.cached
        assert isinstance(second.payload, VariantComparison)
        assert not list(tmp_path.glob("*/*.json"))
