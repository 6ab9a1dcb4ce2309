"""The inference harness: mine -> generalize -> admit -> emit.

:func:`run_inference` drives the whole loop:

1. mine rewrite windows from the seeded pair generator and from driver
   traces of statement-local catalog optimizers over the fuzz corpus;
2. lift each window through the abstraction ladder
   (:func:`repro.synth.generalize.ladder`), most general rung first;
3. run rungs through the :class:`~repro.synth.admit.AdmissionPipeline`
   until one is certified — the admitted spec is the *most general*
   sound rung, and every more general rung's rejection evidence is
   kept;
4. deduplicate admitted specs against the shipped catalog and each
   other by :func:`~repro.genesis.matching.spec_fingerprint`, so a
   trace-mined rediscovery of ALG or STR does not shadow the original.

:func:`emit_module` renders an admitted set as the source of a Python
catalog module (``repro.opts.inferred`` is a committed instance); the
specs inside are plain GOSpeL text and re-enter through the normal
parser -> codegen path like any hand-written spec.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.analysis.manager import AnalysisCache
from repro.genesis.generator import GeneratedOptimizer, generate_optimizer
from repro.genesis.matching import spec_fingerprint
from repro.opts.catalog import build_optimizer
from repro.opts.extended import EXTENDED_SPECS
from repro.opts.specs import STANDARD_SPECS
from repro.synth.admit import AdmissionPipeline, AdmissionReport
from repro.synth.generalize import ladder
from repro.synth.mine import (
    MAX_WINDOW,
    PairGenerator,
    RewriteWindow,
    mine_fuzz_corpus,
    mine_pairs,
)

#: statement-local catalog optimizers whose traces generalize (region
#: transformations diff wider than the window cap; per-opcode DCE
#: traces would only rediscover one delete spec many times over)
TRACE_OPT_NAMES = ("STR", "ALG")


@dataclass
class InferenceConfig:
    """Knobs for one inference run."""

    seed: int = 0
    #: pair-generator stream length (two full passes over the nine
    #: plant templates by default)
    pairs: int = 18
    #: fuzz-corpus programs to trace-mine (statement-local catalog
    #: applications are rare per program, so the trace arm needs a
    #: wider net than the pair generator)
    trace_programs: int = 24
    trace_opts: tuple[str, ...] = TRACE_OPT_NAMES
    #: admission corpus shape
    corpus_programs: int = 5
    corpus_size: int = 12
    trials: int = 3
    #: where rejection counterexamples and admitted ``.gospel`` files
    #: land; None keeps everything in memory
    out_dir: Optional[Path] = None
    matcher_gate: bool = True
    #: cap on windows entering the ladder (None = no cap); capped runs
    #: report what they dropped
    max_windows: Optional[int] = None


@dataclass(frozen=True)
class AdmittedSpec:
    """One certified, catalog-ready specification."""

    name: str
    source: str
    fingerprint: str
    origin: str
    rung: int
    rung_label: str
    applications: int

    def optimizer(self) -> GeneratedOptimizer:
        return generate_optimizer(self.source, name=self.name)


@dataclass
class InferenceResult:
    """Everything one :func:`run_inference` call produced."""

    admitted: list[AdmittedSpec] = field(default_factory=list)
    #: every failed rung evaluation, in order (includes the general
    #: rungs of candidates that were later admitted at a lower rung)
    rejections: list[AdmissionReport] = field(default_factory=list)
    #: deduplicated windows that entered the ladder
    windows: int = 0
    #: windows the ladder could not express (key -> reason)
    skipped_windows: dict[str, str] = field(default_factory=dict)
    #: total rung evaluations run through the pipeline
    screened: int = 0
    #: admitted specs dropped as duplicates of the shipped catalog or
    #: of an earlier admission (name -> fingerprint)
    duplicates: dict[str, str] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    def optimizers(self) -> dict[str, GeneratedOptimizer]:
        return {spec.name: spec.optimizer() for spec in self.admitted}

    def sources(self) -> dict[str, str]:
        return {spec.name: spec.source for spec in self.admitted}

    def summary(self) -> str:
        lines = [
            f"{self.windows} window(s), {self.screened} candidate "
            f"rung(s) screened, {len(self.admitted)} spec(s) admitted, "
            f"{len(self.rejections)} rejection(s), "
            f"{len(self.duplicates)} duplicate(s), "
            f"{len(self.skipped_windows)} window(s) skipped "
            f"[{self.elapsed_seconds:.1f}s]"
        ]
        for spec in self.admitted:
            lines.append(
                f"  + {spec.name} ({spec.rung_label} rung, "
                f"{spec.applications} applications, {spec.origin})"
            )
        for report in self.rejections:
            note = f"rejected at {report.rejected_gate}"
            if report.counterexample is not None:
                note += f", counterexample {report.counterexample}"
            lines.append(f"  - {report.name} [rung {report.rung}]: {note}")
        for key, reason in self.skipped_windows.items():
            lines.append(f"  ~ skipped {key!r}: {reason}")
        return "\n".join(lines)


def catalog_fingerprints() -> dict[str, str]:
    """Fingerprints of every shipped (non-broken) catalog spec."""
    fingerprints: dict[str, str] = {}
    for name in sorted(STANDARD_SPECS) + sorted(EXTENDED_SPECS):
        fingerprints[spec_fingerprint(build_optimizer(name))] = name
    return fingerprints


def run_inference(
    config: Optional[InferenceConfig] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> InferenceResult:
    """Mine, generalize, and admit — one full inference run.

    Trace mining and admission clone their programs through one
    :class:`AnalysisCache`, made for this run and dropped with it, so
    each distinct program is analysed once however many candidates
    run on it.
    """
    config = config or InferenceConfig()
    say = progress or (lambda _message: None)
    started = time.perf_counter()
    result = InferenceResult()
    cache = AnalysisCache()

    # ------------------------------------------------------------- mine
    windows: list[RewriteWindow] = []
    seen_keys: set[str] = set()
    generator = PairGenerator(seed=config.seed)
    for window in mine_pairs(generator.pairs(config.pairs)):
        if window.key() not in seen_keys:
            seen_keys.add(window.key())
            windows.append(window)
    if config.trace_programs and config.trace_opts:
        trace_optimizers = [
            build_optimizer(name) for name in config.trace_opts
        ]
        for window in mine_fuzz_corpus(
            trace_optimizers, programs=config.trace_programs, cache=cache
        ):
            if window.key() not in seen_keys:
                seen_keys.add(window.key())
                windows.append(window)
    if config.max_windows is not None and len(windows) > config.max_windows:
        for window in windows[config.max_windows:]:
            result.skipped_windows[window.key()] = "window cap"
        windows = windows[: config.max_windows]
    result.windows = len(windows)
    say(f"mined {len(windows)} rewrite window(s)")

    # ------------------------------------------------- generalize/admit
    pipeline = AdmissionPipeline(
        trials=config.trials,
        seed=config.seed,
        out_dir=config.out_dir,
        matcher_gate=config.matcher_gate,
        programs=config.corpus_programs,
        program_size=config.corpus_size,
        cache=cache,
    )
    shipped = catalog_fingerprints()
    admitted_fingerprints: dict[str, str] = {}
    taken_names: set[str] = set(STANDARD_SPECS) | set(EXTENDED_SPECS)
    for window in windows:
        candidates = ladder(window)
        if not candidates:
            result.skipped_windows[window.key()] = (
                "not expressible by the statement ladder"
            )
            continue
        for candidate in candidates:
            result.screened += 1
            report = pipeline.evaluate(candidate)
            if not report.admitted:
                result.rejections.append(report)
                say(
                    f"{candidate.name} rung {candidate.rung} "
                    f"({candidate.rung_label}): rejected at "
                    f"{report.rejected_gate}"
                )
                continue
            optimizer = generate_optimizer(
                report.source, name=candidate.name
            )
            fingerprint = spec_fingerprint(optimizer)
            if fingerprint in shipped:
                result.duplicates[candidate.name] = shipped[fingerprint]
                say(
                    f"{candidate.name}: duplicate of shipped "
                    f"{shipped[fingerprint]}"
                )
                break
            if fingerprint in admitted_fingerprints:
                result.duplicates[candidate.name] = (
                    admitted_fingerprints[fingerprint]
                )
                break
            name = candidate.name
            serial = 2
            while name in taken_names:
                name = f"{candidate.name}_{serial}"
                serial += 1
            taken_names.add(name)
            admitted_fingerprints[fingerprint] = name
            result.admitted.append(
                AdmittedSpec(
                    name=name,
                    source=report.source,
                    fingerprint=fingerprint,
                    origin=candidate.origin,
                    rung=candidate.rung,
                    rung_label=candidate.rung_label,
                    applications=report.applications,
                )
            )
            say(
                f"{name}: ADMITTED at {candidate.rung_label} rung "
                f"({report.applications} applications)"
            )
            break  # most general certified rung wins; stop the ladder

    # ------------------------------------------------------------- emit
    if config.out_dir is not None:
        out_dir = Path(config.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for spec in result.admitted:
            (out_dir / f"{spec.name}.gospel").write_text(spec.source)
    result.elapsed_seconds = time.perf_counter() - started
    return result


def emit_module(result: InferenceResult) -> str:
    """Render an admitted set as a ``repro.opts``-style catalog module.

    The output is what ``src/repro/opts/inferred.py`` contains: an
    ``INFERRED_SPECS`` dict of GOSpeL sources with per-spec provenance
    comments.  ``tests/synth/test_inferred_catalog.py`` re-runs the
    admission pipeline over the committed module so a stale or
    hand-edited entry cannot silently survive.
    """
    lines = [
        '"""Machine-inferred GOSpeL specifications (generated).',
        "",
        "Produced by ``repro.synth.infer.emit_module`` from an",
        "admission-certified inference run (``genesis infer",
        "--emit-module``).  Every entry passed all five admission",
        "gates: sema/codegen, dependence legality, corpus coverage,",
        "the differential oracle, and the matcher shadow check.",
        "Regenerate rather than hand-edit.",
        '"""',
        "",
        "from __future__ import annotations",
        "",
        "INFERRED_SPECS: dict[str, str] = {}",
        "",
    ]
    for spec in result.admitted:
        lines.append(
            f"# origin {spec.origin}; admitted at the "
            f"{spec.rung_label} rung with {spec.applications} "
            f"corpus applications"
        )
        lines.append(f'INFERRED_SPECS["{spec.name}"] = """\\')
        lines.append(spec.source.rstrip("\n"))
        lines.append('"""')
        lines.append("")
    return "\n".join(lines)
