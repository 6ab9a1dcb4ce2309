"""The admission pipeline: certify a candidate or shrink a refutation.

A candidate specification enters the catalog only after clearing, in
order:

1. **sema/codegen** — the GOSpeL front half.  The candidate's source
   must parse, pass semantic analysis, and compile to a Python
   optimizer through :func:`repro.genesis.generator.generate_optimizer`,
   exactly as a hand-written catalog spec would.
2. **legality** — the compiled optimizer runs over the admission
   corpus under the transactional driver with ``validate=True`` and
   dependence recomputation on; any contained failure (restriction
   violation, rollback exhaustion, validator rejection) refuses the
   candidate.  Screening runs in-process: a corpus program is a
   job of a few milliseconds, and fanning the corpus out through the
   optimization service ran at 0.21-0.29x of serial speed on one- and
   two-CPU hosts.
3. **coverage** — the candidate must actually fire somewhere on the
   corpus.  A spec that never applies is unfalsifiable and useless;
   it is refused, not vacuously admitted.
4. **oracle** — every (program, transformed) pair the candidate
   produced is checked by the differential oracle over randomized
   environments, plus a deterministic all-``2.5`` environment that
   catches float-only unsoundness (``x mod 1`` is zero for ints but
   not for ``2.5``).  A divergence triggers the shrinker: the
   counterexample program is minimized while still exhibiting the
   divergence and written as a replayable ``!``-header repro file with
   the candidate's GOSpeL source alongside.
5. **matcher** — the candidate is re-run on its first firing corpus
   program under a shadow-checking matching engine
   (``engine_for(manager, full_check=True)``): every incremental
   worklist sweep is compared with a full re-scan, and a mismatch
   refuses it.

The pipeline reports every gate's verdict in an
:class:`AdmissionReport`, admitted or not — rejection evidence is the
product here, not an error path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.analysis.manager import AnalysisCache
from repro.frontend.unparse import unparse_program
from repro.genesis.generator import generate_optimizer
from repro.genesis.driver import DriverOptions, run_optimizer
from repro.genesis.matching import MatchMismatchError, engine_for
from repro.gospel.errors import GospelError
from repro.ir.program import Program
from repro.verify.envgen import EnvironmentGenerator, InputEnvironment
from repro.verify.oracle import EquivalenceOracle
from repro.verify.shrink import shrink_program
from repro.workloads.synthetic import random_program

#: driver settings for screening a candidate — bounded everything, so a
#: pathological candidate cannot wedge the pipeline
SCREEN_OPTIONS = DriverOptions(
    apply_all=True,
    max_applications=16,
    recompute_dependences=True,
    enforce_restrictions=True,
    validate=True,
    max_rollbacks=2,
    deadline_seconds=10.0,
    max_match_attempts=50_000,
)


@dataclass(frozen=True)
class GateResult:
    """One gate's verdict."""

    gate: str  # "sema" | "legality" | "coverage" | "oracle" | "matcher"
    ok: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "pass" if self.ok else "FAIL"
        suffix = f" — {self.detail}" if self.detail else ""
        return f"{self.gate}: {mark}{suffix}"


@dataclass
class AdmissionReport:
    """Everything the pipeline learned about one candidate."""

    name: str
    source: str
    admitted: bool
    gates: list[GateResult] = field(default_factory=list)
    applications: int = 0
    counterexample: Optional[Path] = None
    shrunk_statements: Optional[int] = None
    elapsed_seconds: float = 0.0
    origin: str = ""
    rung: Optional[int] = None

    @property
    def rejected_gate(self) -> Optional[str]:
        for gate in self.gates:
            if not gate.ok:
                return gate.gate
        return None

    def summary(self) -> str:
        verdict = "ADMITTED" if self.admitted else (
            f"REJECTED at {self.rejected_gate}"
        )
        return (
            f"{self.name}: {verdict} "
            f"({self.applications} applications, "
            f"{self.elapsed_seconds:.2f}s)"
        )


def halves_environment(template: InputEnvironment) -> InputEnvironment:
    """A deterministic all-``2.5`` clone of an oracle environment.

    The random environment generator leans heavily on small integers;
    a rewrite that is an identity on the integers but not the reals
    (``x mod 1 -> 0``) can survive randomized trials.  Setting every
    scalar, array cell, and input value to ``2.5`` refutes that class
    deterministically.
    """
    return InputEnvironment(
        label="halves",
        scalars={name: 2.5 for name in template.scalars},
        arrays={
            name: {index: 2.5 for index in cells}
            for name, cells in template.arrays.items()
        },
        inputs=[2.5] * len(template.inputs),
    )


def audit_programs() -> list[Program]:
    """Hand-built adversarial corpus members.

    The random corpus initializes scalars from constants and rarely
    produces loop-carried-only consumers, so two whole classes of
    miscompile never reach the oracle from it alone.  These programs
    close that hole deterministically; ``BROKEN_DCE`` and
    ``BROKEN_CTP`` are each refuted by one of them.
    """
    from repro.ir.builder import IRBuilder

    # a statement whose *only* consumer is the next loop iteration:
    # deleting it (flow-independent DCE) changes u whenever the read
    # value of t differs from its in-loop recomputation
    carried = IRBuilder(name="audit_carried_use")
    carried.read("t")
    carried.read("s")
    carried.assign("u", 0)
    with carried.loop("i", 1, 4):
        carried.binary("u", "t", "+", "s")
        carried.binary("t", "s", "+", "i")
    carried.write("u")

    # a constant definition with a conditional redefinition between it
    # and the use: propagating the constant past the branch (reaching-
    # definition-blind CTP) miscompiles every taken-branch environment
    condredef = IRBuilder(name="audit_cond_redef")
    condredef.read("k")
    condredef.assign("x", 3)
    with condredef.if_("k", ">=", 1):
        condredef.assign("x", "k")
    condredef.binary("y", "x", "+", 1)
    condredef.write("y")

    return [carried.build(), condredef.build()]


class AdmissionPipeline:
    """Runs candidates through the five gates over a fixed corpus.

    ``out_dir`` receives counterexample repro files and the refuted
    candidate's GOSpeL source; when None, rejection is still reported
    but nothing is persisted.  Every program a gate runs is cloned
    through ``cache`` (a fresh :class:`AnalysisCache` when None), so
    candidates screened on the same corpus share its first dependence
    builds.
    """

    def __init__(
        self,
        corpus: Optional[Sequence[Program]] = None,
        *,
        trials: int = 3,
        seed: int = 0,
        out_dir: Optional[Path] = None,
        matcher_gate: bool = True,
        compare_stores: bool = False,
        max_shrink_attempts: int = 300,
        programs: int = 6,
        program_size: int = 12,
        cache: Optional[AnalysisCache] = None,
    ) -> None:
        if corpus is None:
            corpus = audit_programs() + [
                random_program(seed * 1_000_003 + i, size=program_size)
                for i in range(programs)
            ]
        self.corpus = list(corpus)
        self.trials = trials
        self.seed = seed
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.matcher_gate = matcher_gate
        self.compare_stores = compare_stores
        self.max_shrink_attempts = max_shrink_attempts
        self.cache = cache if cache is not None else AnalysisCache()

    # ------------------------------------------------------------------
    def evaluate(self, candidate) -> AdmissionReport:
        """Evaluate a :class:`~repro.synth.generalize.Candidate`.

        The candidate's rung-discriminating probes and its mined
        exemplar join the shared corpus for this evaluation — probes
        are what refute an over-general rung deterministically, the
        exemplar is what guarantees a correctly-lifted rung covers.
        """
        extra = tuple(candidate.probes)
        if candidate.exemplar is not None:
            extra += (candidate.exemplar,)
        report = self.evaluate_source(
            candidate.name, candidate.source, extra_corpus=extra
        )
        report.origin = candidate.origin
        report.rung = candidate.rung
        return report

    def evaluate_source(
        self,
        name: str,
        source: str,
        extra_corpus: Sequence[Program] = (),
    ) -> AdmissionReport:
        """Evaluate raw GOSpeL source (also the broken-fixture entry)."""
        started = time.perf_counter()
        report = AdmissionReport(name=name, source=source, admitted=False)

        # gate 1: sema/codegen ------------------------------------------
        try:
            optimizer = generate_optimizer(source, name=name)
        except GospelError as exc:
            report.gates.append(GateResult("sema", False, str(exc)))
            report.elapsed_seconds = time.perf_counter() - started
            return report
        report.gates.append(GateResult("sema", True))

        # gate 2: legality ----------------------------------------------
        corpus = list(extra_corpus) + self.corpus
        transformed = self._screen(optimizer, corpus, report)
        if transformed is None:
            report.elapsed_seconds = time.perf_counter() - started
            return report

        # gate 3: coverage ----------------------------------------------
        fired = [(orig, after) for orig, after, n in transformed if n]
        report.applications = sum(n for _, _, n in transformed)
        if not fired:
            report.gates.append(
                GateResult(
                    "coverage", False,
                    "candidate never applied on the admission corpus",
                )
            )
            report.elapsed_seconds = time.perf_counter() - started
            return report
        report.gates.append(
            GateResult("coverage", True, f"{report.applications} applications")
        )

        # gate 4: oracle ------------------------------------------------
        if not self._oracle_gate(name, optimizer, fired, report):
            report.elapsed_seconds = time.perf_counter() - started
            return report

        # gate 5: matcher -----------------------------------------------
        if self.matcher_gate and not self._matcher_gate(
            name, optimizer, fired[0][0], report
        ):
            report.elapsed_seconds = time.perf_counter() - started
            return report

        report.admitted = True
        report.elapsed_seconds = time.perf_counter() - started
        return report

    # ------------------------------------------------------------------
    # gate bodies
    # ------------------------------------------------------------------
    def _screen(self, optimizer, corpus, report):
        """Legality gate; returns [(original, transformed, applied)] or
        None after recording the failure."""
        results = []
        for program in corpus:
            working, manager = self.cache.clone(program)
            try:
                outcome = run_optimizer(
                    optimizer, working, SCREEN_OPTIONS, manager=manager
                )
            except Exception as exc:  # codegen'd spec misbehaving
                report.gates.append(
                    GateResult("legality", False, f"driver error: {exc}")
                )
                return None
            if outcome.failures:
                first = outcome.failures[0]
                report.gates.append(
                    GateResult("legality", False, f"contained failure: {first}")
                )
                return None
            results.append((program, working, outcome.applied))

        report.gates.append(GateResult("legality", True))
        return results

    def _oracle_gate(self, name, optimizer, fired, report) -> bool:
        oracle = EquivalenceOracle(
            trials=self.trials,
            seed=self.seed,
            compare_stores=self.compare_stores,
        )
        generator = EnvironmentGenerator(self.seed)
        for original, transformed in fired:
            environments = generator.environments(
                [original, transformed], self.trials
            )
            environments.append(halves_environment(environments[0]))
            verdict = oracle.check(original, transformed, environments)
            if not verdict.equivalent:
                divergence = verdict.divergences[0]
                report.gates.append(
                    GateResult("oracle", False, str(divergence))
                )
                self._shrink_counterexample(
                    name, optimizer, original, report
                )
                return False
        report.gates.append(
            GateResult(
                "oracle", True,
                f"{len(fired)} programs x {len(environments)} environments",
            )
        )
        return True

    def _matcher_gate(self, name, optimizer, program, report) -> bool:
        working, manager = self.cache.clone(program)
        try:
            # attach a shadow-checking engine; the driver's engine_for
            # call then finds it on the manager
            engine_for(manager, full_check=True)
            run_optimizer(optimizer, working, SCREEN_OPTIONS, manager=manager)
        except MatchMismatchError as exc:
            report.gates.append(
                GateResult("matcher", False, f"shadow mismatch: {exc}")
            )
            return False
        except Exception as exc:
            report.gates.append(
                GateResult("matcher", False, f"matcher error: {exc}")
            )
            return False
        report.gates.append(GateResult("matcher", True))
        return True

    # ------------------------------------------------------------------
    # counterexample shrinking
    # ------------------------------------------------------------------
    def _still_diverges(self, optimizer) -> Callable[[Program], bool]:
        oracle = EquivalenceOracle(
            trials=self.trials,
            seed=self.seed,
            compare_stores=self.compare_stores,
        )
        generator = EnvironmentGenerator(self.seed)

        def predicate(program: Program) -> bool:
            working, manager = self.cache.clone(program)
            try:
                outcome = run_optimizer(
                    optimizer, working, SCREEN_OPTIONS, manager=manager
                )
            except Exception:
                return False
            if not outcome.applied or outcome.failures:
                return False
            environments = generator.environments(
                [program, working], self.trials
            )
            environments.append(halves_environment(environments[0]))
            return not oracle.check(program, working, environments).equivalent

        return predicate

    def _shrink_counterexample(self, name, optimizer, program, report):
        predicate = self._still_diverges(optimizer)
        if not predicate(program):
            return  # divergence not reproducible standalone; keep verdict
        result = shrink_program(
            program,
            predicate,
            max_attempts=self.max_shrink_attempts,
            name=f"admit_{name}",
        )
        shrunk = result.program
        report.shrunk_statements = result.statements
        if self.out_dir is None:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"reject_{name}.f"
        headers = [
            f"! synth-candidate: {name}",
            "! gate: oracle",
            f"! opts: {name}",
            f"! oracle-trials: {self.trials}",
            f"! oracle-seed: {self.seed}",
            f"! shrunk-statements: {result.statements}",
        ]
        body = unparse_program(shrunk, name=f"reject_{name}")
        path.write_text("\n".join(headers) + "\n" + body)
        (self.out_dir / f"reject_{name}.gospel").write_text(report.source)
        report.counterexample = path
