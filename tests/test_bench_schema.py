"""Every committed BENCH_*.json conforms to the shared schema.

The benchmarks themselves live under ``benchmarks/`` and run outside
tier-1; this test pins the *shape* of their committed outputs (host
block, sizes list, speedup fields) so a benchmark edit cannot silently
drift the files the README and CI point at.
"""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The benchmark outputs the repository commits.
BENCH_FILES = (
    "BENCH_match.json",
    "BENCH_dependence.json",
    "BENCH_service.json",
    "BENCH_ir.json",
)


def _load_schema():
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        from bench_schema import validate_bench
    finally:
        sys.path.pop(0)
    return validate_bench


@pytest.mark.parametrize("name", BENCH_FILES)
def test_committed_bench_file_conforms(name):
    path = REPO_ROOT / name
    assert path.exists(), f"{name} is missing from the repository root"
    payload = json.loads(path.read_text())
    validate_bench = _load_schema()
    problems = validate_bench(payload)
    assert not problems, f"{name}: {problems}"


def test_validator_rejects_malformed_payloads():
    validate_bench = _load_schema()
    assert validate_bench({}) != []
    assert any(
        "host" in problem
        for problem in validate_bench({"sizes": [{"size": 1, "speedup": 2}]})
    )
    host = {
        "python": "3.11", "platform": "linux", "cpus": 4, "cpu_count": 8,
    }
    assert validate_bench({"host": host, "sizes": []}) != []
    assert any(
        "speedup" in problem
        for problem in validate_bench(
            {"host": host, "sizes": [{"size": 10}]}
        )
    )
    assert validate_bench(
        {"host": host, "sizes": [{"size": 10, "match_speedup": 2.5}]}
    ) == []
    # cpu_count is required; backend is optional but must be a string
    legacy = {"python": "3.11", "platform": "linux", "cpus": 4}
    assert any(
        "cpu_count" in problem
        for problem in validate_bench(
            {"host": legacy, "sizes": [{"size": 10, "speedup": 2.0}]}
        )
    )
    assert any(
        "backend" in problem
        for problem in validate_bench(
            {
                "host": dict(host, backend=7),
                "sizes": [{"size": 10, "speedup": 2.0}],
            }
        )
    )
    assert validate_bench(
        {
            "host": dict(host, backend="process"),
            "sizes": [{"size": 10, "speedup": 2.0}],
        }
    ) == []


def test_validator_rejects_non_increasing_sizes():
    """The sizes list is one scaling curve: strictly increasing."""
    validate_bench = _load_schema()
    host = {
        "python": "3.11", "platform": "linux", "cpus": 4, "cpu_count": 8,
    }
    def curve(*sizes):
        return {
            "host": host,
            "sizes": [{"size": s, "speedup": 1.5} for s in sizes],
        }
    assert validate_bench(curve(10, 100, 1000)) == []
    assert any(
        "exceed" in problem for problem in validate_bench(curve(10, 10))
    )
    assert any(
        "exceed" in problem for problem in validate_bench(curve(100, 10))
    )


def test_host_info_stamps_commit_and_time():
    """Records say which code wrote them, and when; both keys stay
    optional so older files still validate."""
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        from bench_schema import host_info, validate_bench
    finally:
        sys.path.pop(0)
    host = host_info()
    assert isinstance(host["commit"], str) and host["commit"]
    assert host["recorded_at"].endswith("+00:00")
    entry = [{"size": 10, "speedup": 2.0}]
    assert validate_bench({"host": host, "sizes": entry}) == []
    for key in ("commit", "recorded_at"):
        assert any(
            key in problem
            for problem in validate_bench(
                {"host": dict(host, **{key: ""}), "sizes": entry}
            )
        )
