"""Spec-inference smoke: the harness admits sound specs and refuses
unsound plants.

``test_smoke_infer_admits_and_refuses`` is the cheap CI entry point
(select with ``-k smoke``): a small serial run asserting the harness
admits sound specs, refuses the unsound plants, and leaves
counterexample artifacts, with no timing assertions.  Inference
throughput is measured by the ``infer-campaign`` workload of the
GENesis benchmark (``genesis_bench/``).
"""

from __future__ import annotations

from repro.synth.infer import InferenceConfig, run_inference

SEED = 0


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
