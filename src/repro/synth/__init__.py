"""Spec inference: growing the GOSpeL catalog beyond the paper's ten.

The paper's premise is that optimizations are *data* — TYPE / PRECOND /
ACTION specifications fed to GENesis.  This package supplies the
generator side of that premise: it **mines** candidate rewrites from
before/after program pairs (driver traces, the fuzz corpus's seeded
program stream, and a seeded pair generator), **generalizes** each
mined rewrite through a template-based abstraction ladder over the quad
IR, and **admits** a candidate only after an admission pipeline
certifies it — GOSpeL sema, dependence-legality under the transactional
driver, the differential oracle on randomized environments, and a
shadow-checked run through the worklist matcher.  Rejected
candidates are shrunk into replayable counterexample files; admitted
candidates are unparsed to GOSpeL source and become ordinary catalog
citizens (``repro.opts.inferred``).

See ``docs/inference.md`` for the full tour, and ``genesis infer`` /
the session ``infer`` command for the entry points.
"""

from repro.synth.admit import (
    AdmissionPipeline,
    AdmissionReport,
    GateResult,
)
from repro.synth.generalize import Candidate, GeneralizeError, ladder
from repro.synth.infer import (
    AdmittedSpec,
    InferenceConfig,
    InferenceResult,
    emit_module,
    run_inference,
)
from repro.synth.mine import (
    PLANT_TEMPLATES,
    PairGenerator,
    RewritePair,
    RewriteWindow,
    diff_pair,
    mine_fuzz_corpus,
    mine_pairs,
    mine_traces,
)

__all__ = [
    "AdmissionPipeline",
    "AdmissionReport",
    "AdmittedSpec",
    "Candidate",
    "GateResult",
    "GeneralizeError",
    "InferenceConfig",
    "InferenceResult",
    "PLANT_TEMPLATES",
    "PairGenerator",
    "RewritePair",
    "RewriteWindow",
    "diff_pair",
    "emit_module",
    "ladder",
    "mine_fuzz_corpus",
    "mine_pairs",
    "mine_traces",
    "run_inference",
]
