"""Spec-inference throughput: serial vs service-backed screening.

Runs the full mine -> generalize -> admit loop at growing pair-stream
sizes, once with in-process screening and once with the legality gate
fanned out through a :class:`~repro.service.client.ServiceClient`
(process backend).  Records candidates screened per second, admitted
counts, and the service-vs-serial wall-clock ratio per size in
``BENCH_infer.json`` (shared schema, ``benchmarks/bench_schema.py``).

The two arms must agree exactly — same admitted fingerprints, same
rejection sequence — before any timing is recorded; a parity break is
a correctness bug, not a performance data point.

``test_smoke_infer_admits_and_refuses`` is the cheap CI entry point
(select with ``-k smoke``): a small serial run asserting the harness
admits sound specs, refuses the unsound plants, and leaves
counterexample artifacts, with no timing assertions.
"""

from __future__ import annotations

import time
from pathlib import Path

from bench_schema import host_info, write_bench
from repro.service.client import ServiceClient
from repro.synth.infer import InferenceConfig, run_inference

#: pair-generator stream lengths (the workload scale knob); each size
#: also trace-mines a fuzz corpus scaled to the stream
SIZES = (9, 18, 36)

SEED = 0

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_infer.json"


def _config(pairs: int) -> InferenceConfig:
    return InferenceConfig(
        seed=SEED,
        pairs=pairs,
        trace_programs=pairs,
        matcher_gate=False,
    )


def _signature(result):
    return (
        [(s.name, s.fingerprint) for s in result.admitted],
        [(r.name, r.rung, r.rejected_gate) for r in result.rejections],
    )


def test_infer_throughput():
    entries = []
    for pairs in SIZES:
        config = _config(pairs)
        start = time.perf_counter()
        serial = run_inference(config)
        serial_s = time.perf_counter() - start
        with ServiceClient(backend="process", max_workers=2) as client:
            start = time.perf_counter()
            backed = run_inference(config, client=client)
            service_s = time.perf_counter() - start
        assert _signature(serial) == _signature(backed), (
            "service-backed screening diverged from serial"
        )
        entries.append(
            {
                "size": pairs,
                "windows": serial.windows,
                "candidates_screened": serial.screened,
                "admitted": len(serial.admitted),
                "rejections": len(serial.rejections),
                "skipped_windows": len(serial.skipped_windows),
                "serial_s": round(serial_s, 4),
                "service_s": round(service_s, 4),
                "candidates_per_s_serial": round(
                    serial.screened / serial_s, 2
                ),
                "candidates_per_s_service": round(
                    backed.screened / service_s, 2
                ),
                "service_speedup": round(serial_s / service_s, 2),
            }
        )
    payload = {
        "seed": SEED,
        "host": host_info(backend="process"),
        "sizes": entries,
    }
    write_bench(RESULTS_PATH, payload)
    # throughput floor, not a parallel-speedup target: screening is
    # admission-dominated and the container may have one usable core
    # (see host.cpus), so the service arm only has to stay sane
    largest = entries[-1]
    assert largest["admitted"] >= 5, largest
    assert largest["candidates_per_s_serial"] > 1.0, largest


def test_smoke_infer_admits_and_refuses(tmp_path):
    """CI smoke: one small serial run, evidence checks only."""
    config = InferenceConfig(
        seed=SEED, pairs=9, trace_programs=0,
        matcher_gate=False, out_dir=tmp_path,
    )
    result = run_inference(config)
    assert len(result.admitted) >= 5, result.summary()
    admitted = {spec.name for spec in result.admitted}
    assert not any("DIV" in name or "MOD" in name for name in admitted)
    # every admitted spec is persisted, every oracle rejection shrunk
    for spec in result.admitted:
        assert (tmp_path / f"{spec.name}.gospel").exists()
    oracle_rejects = [
        r for r in result.rejections if r.rejected_gate == "oracle"
    ]
    assert oracle_rejects
    assert any(r.counterexample is not None for r in oracle_rejects)
