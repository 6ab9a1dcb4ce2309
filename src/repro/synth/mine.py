"""Mining candidate rewrites from before/after program pairs.

Three mining sources, all reduced to the same artifact — a
:class:`RewriteWindow`, the minimal contiguous quad window that differs
between an original program and a transformed one:

* **driver traces** (:func:`mine_traces`) — run catalog optimizers one
  application at a time over a program corpus and diff each
  before/after pair.  This closes the loop on the system's own output:
  the harness re-derives STR- and ALG-shaped rules from their traces.
* **the fuzz corpus** (:func:`mine_fuzz_corpus`) — the same trace
  miner pointed at the fuzz campaign's seeded program stream
  (``FuzzConfig.program_seed``), so inference and ``genesis fuzz``
  share one corpus identity.
* **a seeded pair generator** (:class:`PairGenerator`) — plants one
  algebraic-identity rewrite site (drawn from :data:`PLANT_TEMPLATES`)
  into a random straight-line scaffold and emits the before/after
  pair.  This is the stand-in for an external suggestion source (the
  LLM in "Leveraging Large Language Models for Generalizing Peephole
  Optimizations"); the miner, generalizer and admission pipeline treat
  its pairs exactly like trace pairs — including *refusing* the
  deliberately unsound templates it also plants.

Windows are deduplicated by :meth:`RewriteWindow.key`, a
variable-renaming-invariant template of the rewrite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from repro.analysis.manager import AnalysisCache
from repro.genesis.driver import DriverOptions, run_optimizer
from repro.ir.builder import IRBuilder
from repro.ir.program import Program
from repro.ir.quad import COMPUTE_OPS, Opcode, Quad
from repro.ir.types import Const, Operand, Var
from repro.verify.fuzz import FuzzConfig
from repro.workloads.synthetic import random_program

#: scalar pool for pair-generator scaffolds (the synthetic workload's
#: pool, so mined exemplars look like fuzz-corpus programs)
SCAFFOLD_SCALARS = ("u", "v", "w", "x", "y", "z")

#: seed stride separating pair-generator streams (prime, like the fuzz
#: harness's program-seed stride)
_PAIR_STRIDE = 7919

#: largest before/after window a miner will keep (bigger diffs are
#: whole-region transformations the statement ladder cannot express)
MAX_WINDOW = 3


@dataclass
class RewriteWindow:
    """The minimal differing quad window of one before/after pair."""

    before: tuple[Quad, ...]
    after: tuple[Quad, ...]
    #: provenance label, e.g. ``pairgen:mul_two:4`` or ``trace:STR:1``
    origin: str
    #: the full original program the window was cut from (admission
    #: uses it as the candidate's exemplar workload)
    exemplar: Program
    exemplar_after: Optional[Program] = None

    def key(self) -> str:
        """Variable-renaming-invariant template of the rewrite.

        Distinct scalar names are numbered in order of first
        appearance, so ``x := y - y -> x := 0`` planted over any
        operand choice dedups to one window.
        """
        names: dict[str, str] = {}

        def operand_token(operand: Optional[Operand]) -> str:
            if operand is None:
                return "_"
            if isinstance(operand, Const):
                return f"c{operand.value}"
            if isinstance(operand, Var):
                if operand.name not in names:
                    names[operand.name] = f"v{len(names)}"
                return names[operand.name]
            return str(operand)  # arrays keep their rendering

        def quad_token(quad: Quad) -> str:
            fields = ",".join(
                operand_token(part)
                for part in (quad.result, quad.a, quad.b)
            )
            return f"{quad.opcode.name}({fields})"

        before = " ".join(quad_token(q) for q in self.before)
        after = " ".join(quad_token(q) for q in self.after) or "<delete>"
        return f"{before} -> {after}"

    def __str__(self) -> str:
        return f"{self.key()}  [{self.origin}]"


@dataclass
class RewritePair:
    """One before/after program pair from a mining source."""

    before: Program
    after: Program
    origin: str


def diff_pair(
    before: Program,
    after: Program,
    origin: str,
    max_window: int = MAX_WINDOW,
) -> Optional[RewriteWindow]:
    """The minimal differing window of a program pair, or ``None``.

    Strips the longest common prefix and suffix (by per-quad content
    hash — qids do not participate) and keeps what is left when it
    fits in ``max_window`` quads per side.
    """
    before_quads = list(before)
    after_quads = list(after)
    lo = 0
    while (
        lo < len(before_quads)
        and lo < len(after_quads)
        and before_quads[lo].content_hash() == after_quads[lo].content_hash()
    ):
        lo += 1
    hi = 0
    while (
        hi < len(before_quads) - lo
        and hi < len(after_quads) - lo
        and before_quads[len(before_quads) - 1 - hi].content_hash()
        == after_quads[len(after_quads) - 1 - hi].content_hash()
    ):
        hi += 1
    window_before = before_quads[lo : len(before_quads) - hi]
    window_after = after_quads[lo : len(after_quads) - hi]
    if not window_before and not window_after:
        return None  # identical programs: nothing to mine
    if len(window_before) > max_window or len(window_after) > max_window:
        return None
    return RewriteWindow(
        before=tuple(quad.copy() for quad in window_before),
        after=tuple(quad.copy() for quad in window_after),
        origin=origin,
        exemplar=before.clone(),
        exemplar_after=after.clone(),
    )


# ----------------------------------------------------------------------
# the seeded pair generator
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlantTemplate:
    """One plantable rewrite: concrete before/after quads over chosen
    operands.  ``sound`` records the *expected* verdict — the admission
    pipeline neither sees nor trusts it (the unsound templates exist
    precisely to prove the oracle gate does real work)."""

    key: str
    sound: bool
    build: Callable[[str, str], tuple[tuple[Quad, ...], tuple[Quad, ...]]]


def _stmt(opcode: Opcode, result: str, a, b=None) -> Quad:
    def operand(value):
        if value is None:
            return None
        if isinstance(value, str):
            return Var(value)
        return Const(value)

    return Quad(opcode, result=Var(result), a=operand(a), b=operand(b))


#: The planted rewrite families.  Sound entries are algebraic
#: identities the shipped catalog does *not* cover (ALG only folds
#: right identities); the two unsound entries miscompile on division
#: by zero and on fractional values respectively.
PLANT_TEMPLATES: tuple[PlantTemplate, ...] = (
    PlantTemplate(
        "sub_self", True,
        lambda t, v: (
            (_stmt(Opcode.SUB, t, v, v),),
            (_stmt(Opcode.ASSIGN, t, 0),),
        ),
    ),
    PlantTemplate(
        "mul_zero", True,
        lambda t, v: (
            (_stmt(Opcode.MUL, t, v, 0),),
            (_stmt(Opcode.ASSIGN, t, 0),),
        ),
    ),
    PlantTemplate(
        "add_left_zero", True,
        lambda t, v: (
            (_stmt(Opcode.ADD, t, 0, v),),
            (_stmt(Opcode.ASSIGN, t, v),),
        ),
    ),
    PlantTemplate(
        "mul_left_one", True,
        lambda t, v: (
            (_stmt(Opcode.MUL, t, 1, v),),
            (_stmt(Opcode.ASSIGN, t, v),),
        ),
    ),
    PlantTemplate(
        "mul_two", True,
        lambda t, v: (
            (_stmt(Opcode.MUL, t, 2, v),),
            (_stmt(Opcode.ADD, t, v, v),),
        ),
    ),
    PlantTemplate(
        "pow_zero", True,
        lambda t, v: (
            (_stmt(Opcode.POW, t, v, 0),),
            (_stmt(Opcode.ASSIGN, t, 1),),
        ),
    ),
    PlantTemplate(
        "self_copy", True,
        lambda t, v: (
            (_stmt(Opcode.ASSIGN, t, t),),
            (),
        ),
    ),
    # unsound: y / y is 1 only when y != 0 — division by zero is an
    # observable runtime error, and the zeros environment always fires
    PlantTemplate(
        "div_self", False,
        lambda t, v: (
            (_stmt(Opcode.DIV, t, v, v),),
            (_stmt(Opcode.ASSIGN, t, 1),),
        ),
    ),
    # unsound: y mod 1 is 0 only for integers (2.5 mod 1 == 0.5); the
    # admission pipeline's fractional environment exists for this
    PlantTemplate(
        "mod_one", False,
        lambda t, v: (
            (_stmt(Opcode.MOD, t, v, 1),),
            (_stmt(Opcode.ASSIGN, t, 0),),
        ),
    ),
)


class PairGenerator:
    """Deterministic before/after pair factory.

    Each pair plants one template instance into a random straight-line
    scaffold: every pool scalar initialized, filler arithmetic around
    the planted site, and every pool scalar written at the end — so a
    miscompile at the site is observable in the oracle's write trace.
    """

    def __init__(
        self,
        seed: int = 0,
        templates: Sequence[PlantTemplate] = PLANT_TEMPLATES,
    ):
        self.seed = seed
        self.templates = tuple(templates)

    def pair(self, index: int) -> RewritePair:
        """The ``index``-th pair of this generator's stream."""
        template = self.templates[index % len(self.templates)]
        rng = random.Random(self.seed * _PAIR_STRIDE + index)
        target = rng.choice(SCAFFOLD_SCALARS)
        source = rng.choice(
            [name for name in SCAFFOLD_SCALARS if name != target]
        )
        before_site, after_site = template.build(target, source)
        inits = {
            name: rng.randint(-4, 9) for name in SCAFFOLD_SCALARS
        }
        fillers_before = self._fillers(rng, rng.randint(0, 2))
        fillers_after = self._fillers(rng, rng.randint(0, 2))

        def build(site: tuple[Quad, ...], label: str) -> Program:
            builder = IRBuilder(
                name=f"pair_{template.key}_{index}_{label}"
            )
            for name, value in inits.items():
                builder.assign(name, value)
            for quad in fillers_before:
                builder.emit(quad.copy())
            for quad in site:
                builder.emit(quad.copy())
            for quad in fillers_after:
                builder.emit(quad.copy())
            for name in SCAFFOLD_SCALARS:
                builder.write(name)
            return builder.build()

        return RewritePair(
            before=build(before_site, "before"),
            after=build(after_site, "after"),
            origin=f"pairgen:{template.key}:{index}",
        )

    def pairs(self, count: int) -> list[RewritePair]:
        return [self.pair(index) for index in range(count)]

    def _fillers(self, rng: random.Random, count: int) -> list[Quad]:
        """Neutral filler statements (constants kept away from the
        identity values 0/1/2 so a filler never forms a second rewrite
        site)."""
        fillers = []
        for _ in range(count):
            target = rng.choice(SCAFFOLD_SCALARS)
            left = rng.choice(SCAFFOLD_SCALARS)
            fillers.append(
                _stmt(
                    rng.choice((Opcode.ADD, Opcode.SUB)),
                    target,
                    left,
                    rng.randint(3, 9),
                )
            )
        return fillers


def mine_pairs(
    pairs: Iterable[RewritePair], max_window: int = MAX_WINDOW
) -> list[RewriteWindow]:
    """Diff a stream of program pairs into deduplicated windows."""
    windows: list[RewriteWindow] = []
    seen: set[str] = set()
    for pair in pairs:
        window = diff_pair(
            pair.before, pair.after, pair.origin, max_window=max_window
        )
        if window is None:
            continue
        key = window.key()
        if key in seen:
            continue
        seen.add(key)
        windows.append(window)
    return windows


# ----------------------------------------------------------------------
# driver-trace and fuzz-corpus mining
# ----------------------------------------------------------------------
#: budgets for one trace application (mirrors the fuzz campaign's
#: containment so a pathological program cannot wedge mining)
_TRACE_OPTIONS = DriverOptions(
    apply_all=False,
    max_applications=1,
    max_rollbacks=2,
    deadline_seconds=10.0,
    max_match_attempts=50_000,
)


def mine_traces(
    programs: Iterable[Program],
    optimizers: Sequence,
    max_window: int = MAX_WINDOW,
    *,
    cache: Optional[AnalysisCache] = None,
) -> list[RewriteWindow]:
    """Windows from single catalog-optimizer applications.

    Each (program, optimizer) pair contributes at most one window: the
    diff of the program before and after the optimizer's *first*
    application.  Statement-local transformations (STR, ALG, DCE …)
    produce generalizable windows; region transformations diff too
    wide and are dropped by the window cap — that skip is reported by
    the harness, not silent.  Programs are cloned through ``cache`` (a
    fresh one when None), so every optimizer after the first takes
    over a program's first dependence build.
    """
    if cache is None:
        cache = AnalysisCache()
    pairs: list[RewritePair] = []
    for program in programs:
        for optimizer in optimizers:
            work, manager = cache.clone(program)
            result = run_optimizer(
                optimizer, work, _TRACE_OPTIONS, manager=manager
            )
            if not result.applied:
                continue
            pairs.append(
                RewritePair(
                    before=program.clone(),
                    after=work,
                    origin=f"trace:{optimizer.name}",
                )
            )
    return mine_pairs(pairs, max_window=max_window)


def mine_fuzz_corpus(
    optimizers: Sequence,
    config: Optional[FuzzConfig] = None,
    programs: int = 4,
    size: int = 12,
    max_window: int = MAX_WINDOW,
    *,
    cache: Optional[AnalysisCache] = None,
) -> list[RewriteWindow]:
    """Trace mining over the fuzz campaign's seeded program stream.

    Uses ``FuzzConfig.program_seed`` so the corpus here is the same
    corpus ``genesis fuzz`` would generate for the same seed.
    """
    config = config or FuzzConfig()
    corpus = [
        random_program(config.program_seed(index), size=size)
        for index in range(programs)
    ]
    return mine_traces(corpus, optimizers, max_window=max_window, cache=cache)
