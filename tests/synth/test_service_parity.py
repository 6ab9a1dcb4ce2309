"""Service-backed screening must be bit-identical to serial screening.

The legality gate can evaluate corpus programs as service jobs with
the candidate's GOSpeL source shipped inline in the job payload; the
admitted set and the rejection sequence must not depend on which
execution path ran.
"""

from __future__ import annotations

from repro.service.client import ServiceClient
from repro.synth.infer import InferenceConfig, run_inference

CONFIG = InferenceConfig(pairs=9, trace_programs=0, matcher_gate=False)


def test_service_backed_inference_matches_serial():
    serial = run_inference(CONFIG)
    with ServiceClient(backend="inprocess") as client:
        backed = run_inference(CONFIG, client=client)
    assert [(s.name, s.fingerprint) for s in serial.admitted] == [
        (s.name, s.fingerprint) for s in backed.admitted
    ]
    assert [
        (r.name, r.rung, r.rejected_gate) for r in serial.rejections
    ] == [
        (r.name, r.rung, r.rejected_gate) for r in backed.rejections
    ]


def test_inline_spec_source_travels_in_payload():
    """A service job can resolve an optimizer that is not in any
    catalog — the inference pipeline ships candidate sources this way."""
    from repro.ir.builder import IRBuilder
    from repro.service.job import Job
    from repro.synth.admit import SCREEN_OPTIONS

    source = """
TYPE
  Stmt: Si;
PRECOND
  Code_Pattern
    any Si: Si.opc == sub AND type(Si.opr_1) == var AND
            type(Si.opr_2) == var AND type(Si.opr_3) == var AND
            Si.opr_2 == Si.opr_3;
  Depend
ACTION
  modify(Si.opc, assign);
  modify(Si.opr_2, 0);
  modify(Si.opr_3, none);
"""
    builder = IRBuilder()
    builder.read("x")
    builder.binary("a", "x", "-", "x")
    builder.write("a")
    program = builder.build()
    job = Job.from_program(
        program,
        ("NOT_IN_CATALOG",),
        SCREEN_OPTIONS,
        payload={"spec_sources": {"NOT_IN_CATALOG": source}},
    )
    with ServiceClient(backend="inprocess") as client:
        (result,) = client.run_batch([job])
    assert result.ok, result
    assert result.applications == 1
