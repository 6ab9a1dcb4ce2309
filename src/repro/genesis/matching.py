"""Incremental pattern matching: a dirty-region worklist.

The paper's driver (Figure 5) restarts candidate enumeration from the
top of the program after every committed application; with dependences
maintained incrementally by the analysis manager, that re-scan became
the dominant cost of multi-pass pipelines.  :class:`MatchEngine`
removes it with a **dirty-region worklist** over application points.
After a committed application only the quads its transaction touched
(from the :class:`~repro.ir.program.Program` change log), the
statements whose dependence edges changed (from the manager's
per-refresh deltas), and the seeds at the far ends of the
specification's anchor chains walked back from them can gain or lose
application points.  The engine keeps the previous sweep's point set
per optimizer, drops the points whose bound elements intersect that
dirty region, re-enumerates candidates only from it (by arming a
one-shot seed restriction on the
:class:`~repro.genesis.library.MatchContext`), and serves the merged
set.  Rollbacks need no special casing: the undo mutations are
ordinary change-log entries, so the next sweep's dirty region covers
exactly the rolled-back quads.

Matching keeps no index of the program.  Seed scans walk the program
(or the armed restriction) in order; during an engine sweep
(``MatchContext.sweeping``) they skip the statements whose shapes miss
the *shape hint* :mod:`repro.genesis.codegen` derives from the clause
format, so a constant-propagation seed scan counts only constant-RHS
assignments as candidates.  Loop enumerations read the manager's
version-cached :class:`~repro.ir.loops.StructureTable`.

Falling back to a full sweep — mirroring the splice-vs-rebuild policy
of the analysis manager — happens whenever the incremental path cannot
be proven exact:

* the change log was trimmed (``changes_since`` returned ``None``);
* the specification is not *worklist-eligible* (see
  :func:`profile_spec`): its seed is not a single ``any``-quantified
  statement variable, it uses an ``all`` quantifier, or a depend
  clause's search variable is not bound along one unambiguous
  dependence chain back to the seed;
* the specification is *position-sensitive* (``path``/``region``/
  ``uses``/``mem``/``pos()``/``.next``/``.prev``) and the interval
  contains structural (add/remove/move) changes or touches a
  structural marker (``DO``/``ENDDO``/``IF``/...);
* the analysis manager performed a refresh with no exact dependence
  delta in the interval.

A sweep neither reads nor fills the point cache unless its graph is
the manager's graph at the current program version (stale-graph mode
and explicit graphs always take a full sweep), and unless dependence
restrictions are enforced — cached point sets only describe enforcing
sweeps over the current graph.

Every sweep, full or worklist, reads the one loop over the generated
``set_up``/``match``/``pre`` procedures, :func:`enumerate_points`; the
driver's point listing (``find_application_points``,
``apply_at_point``) reads it too.

Set ``REPRO_MATCH_CHECK=1`` (or construct the engine with
``full_check=True``) to shadow every worklist sweep with a naive full
re-scan and assert point-set equality — the debug mode the property
tests and CI use to prove the two paths agree.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Generator, Iterable, Optional

from repro.analysis.manager import AnalysisManager
from repro.genesis.cost import CostCounters
from repro.genesis.library import LoopBinding, MatchContext, PosBinding
from repro.gospel.ast import (
    Arith,
    BoolOp,
    Compare,
    Cond,
    DepCond,
    ElemType,
    FuncVal,
    MemCond,
    NotOp,
    Quant,
    Ref,
    Value,
)
from repro.gospel.sema import AnalyzedSpec
from repro.ir.program import Program

#: Environment variable enabling the shadow full-rescan check.
ENV_MATCH_CHECK = "REPRO_MATCH_CHECK"


class MatchMismatchError(AssertionError):
    """The shadow check found a worklist/full point-set divergence."""


# ----------------------------------------------------------------------
# robust point signatures
# ----------------------------------------------------------------------
def point_signature(bindings: dict[str, object]) -> tuple:
    """A hashable identity for one application point.

    Tolerates arbitrary binding values: hashable values key by value,
    anything else falls back to an identity-based key instead of
    raising — two points are then "the same" only when they carry the
    very same object.
    """
    items = tuple(sorted(bindings.items()))
    try:
        hash(items)  # every value hashable: the items are the signature
    except TypeError:
        return tuple(
            (name, _signature_value(value)) for name, value in items
        )
    return items


def _signature_value(value: object) -> object:
    if isinstance(value, tuple):
        return tuple(_signature_value(item) for item in value)
    try:
        hash(value)
    except TypeError:
        return ("unhashable", type(value).__name__, id(value))
    return value


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
@dataclass
class MatchStats:
    """Counters of the matching engine, exposed via ``stats``."""

    full_sweeps: int = 0
    worklist_sweeps: int = 0
    cached_sweeps: int = 0
    shadow_checks: int = 0
    points_survived: int = 0
    points_dropped: int = 0
    points_rediscovered: int = 0
    #: candidates enumerated across every engine sweep
    candidates_scanned: int = 0
    #: read by genesis_bench/child.py (frozen); nothing counts it: 0
    network_tail_runs = 0
    #: read by genesis_bench/child.py (frozen); nothing counts it: 0
    network_entries_reused = 0

    def summary(self) -> str:
        return (
            f"matching: {self.candidates_scanned} candidate(s) scanned, "
            f"{self.worklist_sweeps} worklist sweep(s), "
            f"{self.full_sweeps} full sweep(s), "
            f"{self.cached_sweeps} cached sweep(s) "
            f"({self.points_survived} point(s) survived, "
            f"{self.points_dropped} dropped, "
            f"{self.points_rediscovered} rediscovered)"
        )


# ----------------------------------------------------------------------
# specification profiling (worklist eligibility)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SpecProfile:
    """Static facts about a specification the worklist policy needs."""

    #: the single ``any``-quantified statement seed, when eligible
    seed: Optional[str]
    #: conditions inspect program positions (``path``/``pos``/``.next``
    #: ...) — structural changes then force a full sweep
    position_sensitive: bool
    #: the dependence kinds the conditions traverse — edge deltas of
    #: any other kind are ignored; ``None`` disables the filter
    dep_kinds: Optional[frozenset[str]] = None
    #: one entry per search variable: the exact ``(kind, var_is_dst)``
    #: dependence steps from that variable's binding back to the seed,
    #: which the dirty region walks; ``None`` makes the spec ineligible
    var_paths: Optional[tuple[tuple[tuple[str, bool], ...], ...]] = None

    @property
    def eligible(self) -> bool:
        """The dirty-region worklist may serve this optimizer's sweeps."""
        return self.var_paths is not None


def profile_spec(analyzed: AnalyzedSpec) -> SpecProfile:
    """Classify one specification for the worklist policy.

    Eligibility demands that every application point be *reachable*
    from its seed statement through dependence atoms: a single
    ``any``-quantified statement-typed seed, no ``all`` quantifier, and
    every depend clause introducing at most one search variable, bound
    along one unambiguous dependence chain back to the seed (see
    :func:`_anchor_paths`).  Everything else — loop-seeded
    specifications in particular — always takes the full sweep (their
    actions touch structural markers anyway).
    """
    spec = analyzed.spec
    seed: Optional[str] = None
    if len(spec.patterns) == 1 and spec.patterns[0].quant is Quant.ANY:
        plan = analyzed.pattern_plans[0]
        if len(plan.search_vars) == 1 and (
            analyzed.types.get(plan.search_vars[0]) is ElemType.STMT
        ):
            seed = plan.search_vars[0]
    eligible = seed is not None and seed in analyzed.action_names
    for clause in tuple(spec.patterns) + tuple(spec.depends):
        if clause.quant is Quant.ALL:
            eligible = False
    for plan in analyzed.depend_plans:
        if len(plan.search_vars) > 1:
            eligible = False
    sensitive = False
    for pattern in spec.patterns:
        if pattern.format is not None and _cond_sensitive(pattern.format):
            sensitive = True
    for depend in spec.depends:
        if depend.memberships:
            sensitive = True  # membership sets are position queries
        if depend.condition is not None and _cond_sensitive(depend.condition):
            sensitive = True
    kinds: set[str] = set()
    for pattern in spec.patterns:
        if pattern.format is not None:
            kinds |= _cond_dep_kinds(pattern.format)
    for depend in spec.depends:
        if depend.condition is not None:
            kinds |= _cond_dep_kinds(depend.condition)
    # an empty set is meaningful: no dependence atoms at all, so no
    # edge delta can affect a point
    dep_kinds: Optional[frozenset[str]] = None
    if kinds <= {"flow", "anti", "out", "ctrl"}:
        dep_kinds = frozenset(kinds)
    var_paths = _anchor_paths(analyzed, seed) if eligible else None
    return SpecProfile(
        seed=seed if var_paths is not None else None,
        position_sensitive=sensitive,
        dep_kinds=dep_kinds,
        var_paths=var_paths,
    )


def _anchor_paths(
    analyzed: AnalyzedSpec, seed: Optional[str]
) -> Optional[tuple[tuple[tuple[str, bool], ...], ...]]:
    """The exact dependence chain from each search variable to the seed.

    Each depend clause binds its variable by walking one dependence
    atom from an already-bound anchor; concatenating those steps gives
    the only routes along which a changed quad can be bound during a
    seed's search.  When a variable's anchor cannot be pinned down (no
    dependence atom ties it to a known variable, an exotic edge kind,
    several candidate generator atoms of conflicting shape), ``None``
    makes the specification ineligible: it always takes a full sweep.
    """
    if seed is None:
        return None
    spec = analyzed.spec
    known: dict[str, tuple[tuple[str, bool], ...]] = {seed: ()}
    for clause, plan in zip(spec.depends, analyzed.depend_plans):
        if not plan.search_vars:
            continue
        var = plan.search_vars[0]
        links: list[tuple[str, bool, str]] = []
        for term in _conjuncts(clause.condition) if clause.condition else []:
            if not isinstance(term, DepCond):
                continue
            if term.kind not in ("flow", "anti", "out", "ctrl"):
                return None
            src, dst = term.src, term.dst
            if (
                isinstance(dst, Ref) and dst.base == var and not dst.attrs
                and isinstance(src, Ref) and not src.attrs
                and src.base in known
            ):
                links.append((term.kind, True, src.base))
            elif (
                isinstance(src, Ref) and src.base == var and not src.attrs
                and isinstance(dst, Ref) and not dst.attrs
                and dst.base in known
            ):
                links.append((term.kind, False, dst.base))
        if not links:
            return None
        # with several candidate generator atoms the binding may travel
        # any of their chains — only a single unambiguous route is safe
        paths = {
            ((kind, var_is_dst),) + known[anchor]
            for kind, var_is_dst, anchor in links
        }
        if len(paths) > 1:
            return None
        known[var] = next(iter(paths))
    return tuple(path for name, path in known.items() if name != seed)


def _conjuncts(cond: Cond) -> list[Cond]:
    if isinstance(cond, BoolOp) and cond.op == "and":
        terms: list[Cond] = []
        for term in cond.terms:
            terms.extend(_conjuncts(term))
        return terms
    return [cond]


def _cond_dep_kinds(cond: Cond) -> set[str]:
    """Every dependence kind the condition's atoms may traverse."""
    if isinstance(cond, BoolOp):
        kinds: set[str] = set()
        for term in cond.terms:
            kinds |= _cond_dep_kinds(term)
        return kinds
    if isinstance(cond, NotOp):
        return _cond_dep_kinds(cond.term)
    if isinstance(cond, DepCond):
        return {cond.kind}
    return set()


def _cond_sensitive(cond: Cond) -> bool:
    if isinstance(cond, BoolOp):
        return any(_cond_sensitive(term) for term in cond.terms)
    if isinstance(cond, NotOp):
        return _cond_sensitive(cond.term)
    if isinstance(cond, Compare):
        return _value_sensitive(cond.left) or _value_sensitive(cond.right)
    if isinstance(cond, DepCond):
        return _value_sensitive(cond.src) or _value_sensitive(cond.dst)
    if isinstance(cond, MemCond):
        return True
    return True  # unknown condition node: assume the worst


def _value_sensitive(value: Value) -> bool:
    if isinstance(value, Ref):
        return any(attr in ("next", "prev", "body") for attr in value.attrs)
    if isinstance(value, FuncVal):
        if value.func == "pos":
            return True
        return any(_value_sensitive(arg) for arg in value.args)
    if isinstance(value, Arith):
        return _value_sensitive(value.left) or _value_sensitive(value.right)
    return False


# ----------------------------------------------------------------------
# the matching engine
# ----------------------------------------------------------------------
Point = tuple[tuple, dict[str, object]]

#: a cached point also pins down every statement its *search* (not just
#: its action) bound, so staleness can be decided against the exact
#: changed set instead of a dependence ball
_CachedPoint = tuple[tuple, dict[str, object], Optional[frozenset[int]]]


def enumerate_points(
    optimizer, ctx: MatchContext
) -> Generator[_CachedPoint, None, int]:
    """The one loop over an optimizer's generated procedures.

    Runs ``set_up``, then ``pre`` under every ``match`` yield, and
    yields each distinct application point in listing order as
    ``(signature, action-name bindings, bound qids)``; a point the
    listing reaches again is skipped.  While suspended at a point,
    ``ctx`` is bound to it.  Returns the match-phase yields consumed
    (the driver's fuel).  Closing the generator early closes the
    ``match``/``pre`` generators it suspends, so no half-finished scan
    keeps counting candidates against ``ctx.counters``.
    """
    ctx.bindings.clear()
    optimizer.set_up(ctx)
    action_names = optimizer.action_names
    seen: set[tuple] = set()
    attempts = 0
    match_gen = optimizer.match(ctx)
    try:
        for _found in match_gen:
            attempts += 1
            pre_gen = optimizer.pre(ctx)
            try:
                for _ok in pre_gen:
                    bound = ctx.bindings
                    # leftover bindings of failed ``no``-clause scans are
                    # not part of the point's identity
                    bindings = {
                        name: value
                        for name, value in bound.items()
                        if name in action_names
                    }
                    signature = point_signature(bindings)
                    if signature in seen:
                        continue
                    seen.add(signature)
                    yield signature, bindings, _bound_qids(bound)
            finally:
                pre_gen.close()
    finally:
        match_gen.close()
    return attempts


def _drain(
    points: Generator[_CachedPoint, None, int]
) -> tuple[list[_CachedPoint], int]:
    """Every point of one enumeration, and its match-phase yields."""
    found: list[_CachedPoint] = []
    while True:
        try:
            found.append(next(points))
        except StopIteration as done:
            return found, done.value


@dataclass
class SweepResult:
    """One sweep's outcome: the canonical point list and its cost."""

    points: list[Point]
    #: match-phase yields consumed (feeds the driver's fuel budget)
    attempts: int
    mode: str  # "full" | "worklist" | "cached"


def spec_fingerprint(optimizer) -> str:
    """Content identity of a generated optimizer: its emitted source.

    Cached on the optimizer object; two regenerations of the same spec
    hash equal, so fingerprint-keyed sweep caches and profiles survive
    object churn (the previous identity check silently discarded a
    valid cache whenever a spec was re-generated under the same name).
    """
    cached = getattr(optimizer, "_spec_fingerprint", None)
    if cached is None:
        cached = hashlib.sha256(optimizer.source.encode()).hexdigest()
        optimizer._spec_fingerprint = cached
    return cached


@dataclass
class _SweepCache:
    """The previous sweep's point set for one optimizer."""

    version: int
    points: list[_CachedPoint]
    #: spec fingerprint the points belong to (a re-generated spec with
    #: the same name but different source must not reuse them)
    fingerprint: str


class MatchEngine:
    """Worklist-driven sweeps over one manager's program.

    One engine serves one :class:`AnalysisManager` (use
    :func:`engine_for`); per-optimizer sweep caches live here, shared
    across ``run_optimizer`` calls.
    """

    def __init__(
        self,
        manager: AnalysisManager,
        full_check: Optional[bool] = None,
    ):
        self.manager = manager
        if full_check is None:
            full_check = os.environ.get(ENV_MATCH_CHECK, "") not in ("", "0")
        self.full_check = full_check
        self.stats = MatchStats()
        self._caches: dict[str, _SweepCache] = {}
        self._profiles: dict[str, SpecProfile] = {}

    # -- public API ----------------------------------------------------
    def sweep(self, optimizer, ctx: MatchContext) -> SweepResult:
        """Enumerate every application point of ``optimizer``.

        Serves from the per-optimizer cache when the program is
        unchanged, from the dirty-region worklist when the interval
        since the cached sweep is provably local, and from a full
        sweep otherwise; either scan skips statements that miss the
        spec's shape hints (``ctx.sweeping``).  The cache is read and
        written only when ``ctx.graph`` is the manager's graph at the
        current program version: points found over a stale or
        explicit graph describe that graph, not the program.  Points
        are returned in canonical order: by seed position, then the
        positions of the other bound elements.
        """
        program = self.manager.program
        candidates_before = ctx.counters.candidates
        ctx.sweeping = True
        version = program.version
        cacheable = ctx.enforce_restrictions and self.manager.is_current(
            ctx.graph
        )
        profile = self._profile(optimizer)
        fingerprint = spec_fingerprint(optimizer)
        cache = self._caches.get(optimizer.name)
        if cache is not None and cache.fingerprint != fingerprint:
            cache = None
        points: Optional[list[_CachedPoint]] = None
        attempts = 0
        mode = "full"
        shadow = False
        if cache is not None and cacheable:
            if cache.version == version:
                points = list(cache.points)
                mode = "cached"
                self.stats.cached_sweeps += 1
            else:
                dirty = self._dirty_region(profile, cache, ctx)
                if dirty is not None:
                    points, attempts = self._worklist_sweep(
                        optimizer, profile, ctx, cache, *dirty
                    )
                    mode = "worklist"
                    shadow = True
                    self.stats.worklist_sweeps += 1
        if points is None:
            points, attempts = _drain(enumerate_points(optimizer, ctx))
            mode = "full"
            self.stats.full_sweeps += 1
        points = _sort_points(points, program)
        result_points = [(sig, dict(bindings)) for sig, bindings, _ in points]
        if shadow and self.full_check:
            self._shadow_check(optimizer, ctx, result_points)
        if cacheable:
            self._caches[optimizer.name] = _SweepCache(
                version=version, points=points, fingerprint=fingerprint
            )
        self.stats.candidates_scanned += (
            ctx.counters.candidates - candidates_before
        )
        return SweepResult(
            points=result_points, attempts=attempts, mode=mode
        )

    #: genesis_bench/tracer.py (frozen) patches both names; plain sweep
    network_sweep = sweep_all = sweep

    # -- internals -----------------------------------------------------
    def _profile(self, optimizer) -> SpecProfile:
        key = spec_fingerprint(optimizer)
        profile = self._profiles.get(key)
        if profile is None:
            profile = profile_spec(optimizer.analyzed)
            self._profiles[key] = profile
        return profile

    def _dirty_region(
        self,
        profile: SpecProfile,
        cache: _SweepCache,
        ctx: MatchContext,
    ) -> Optional[tuple[set[int], set[int]]]:
        """``(drop, seeds)`` for a worklist sweep, or ``None`` when
        only a full sweep is sound.

        ``drop`` is the exact changed set — statements whose fields or
        incident dependence edges differ since the cached sweep; a
        cached point is stale iff it binds one of them.  ``seeds`` is
        every statement whose *search tree* can see the change and
        must therefore be re-enumerated as a candidate seed: the ends
        of the profile's anchor chains walked back from the change.
        ``ctx.graph`` must be the manager's current graph.
        """
        if not profile.eligible:
            return None
        program = self.manager.program
        changes = program.changes_since(cache.version)
        if changes is None:
            return None
        touched: set[int] = set()
        structural = False
        for change in changes:
            touched.add(change.qid)
            if change.kind in ("add", "remove", "move"):
                structural = True
            if not profile.position_sensitive:
                # field and edge diffs fully determine this profile's
                # points; marker touches need no special treatment
                continue
            before = change.before
            if before is not None and before.is_structural():
                return None
            if (
                program.contains(change.qid)
                and program.quad(change.qid).is_structural()
            ):
                return None
        if structural and profile.position_sensitive:
            return None
        deltas = self.manager.dependence_deltas_since(cache.version)
        if deltas is None:
            return None
        kinds = profile.dep_kinds
        if kinds is not None:
            # an edge of a kind no condition ever traverses can affect
            # neither a cached point nor a candidate seed
            deltas = frozenset(edge for edge in deltas if edge[0] in kinds)
        drop = touched | {qid for edge in deltas for qid in edge[1:]}
        graph = ctx.graph

        def walk(start: set[int], steps) -> set[int]:
            cur = start
            for kind, var_is_dst in steps:
                grown: set[int] = set()
                for qid in cur:
                    if var_is_dst:
                        for edge in graph.deps_to(qid):
                            if edge.kind == kind:
                                grown.add(edge.src)
                    else:
                        for edge in graph.deps_from(qid):
                            if edge.kind == kind:
                                grown.add(edge.dst)
                cur = grown
                if not cur:
                    break
            return cur

        # a changed quad flips a seed's search outcome only if it can be
        # *bound* during that search — i.e. the seed lies at the end of
        # some variable's exact anchor chain walked backward from it.  A
        # changed edge is traversed right at the generator step of a
        # variable of its kind, with the seed at the end of the
        # *anchor's* (suffix) chain from the edge's anchor-side
        # endpoint.  Interior stops of a chain are covered by the
        # anchoring variable's own, shorter chain, so only the far ends
        # are candidate seeds.
        seeds = set(drop)
        for steps in profile.var_paths or ():
            seeds |= walk(set(touched), steps)
            kind0, var_is_dst0 = steps[0]
            anchor_side = {
                edge[1] if var_is_dst0 else edge[2]
                for edge in deltas
                if edge[0] == kind0
            }
            if anchor_side:
                seeds |= walk(anchor_side, steps[1:])
        return drop, seeds

    def _worklist_sweep(
        self,
        optimizer,
        profile: SpecProfile,
        ctx: MatchContext,
        cache: _SweepCache,
        drop: set[int],
        dirty_seeds: set[int],
    ) -> tuple[list[_CachedPoint], int]:
        """Drop stale cached points, re-enumerate from the dirty seeds,
        merge with the survivors."""
        program = self.manager.program
        survivors: list[_CachedPoint] = []
        dropped_seeds: set[int] = set()
        for sig, bindings, qids in cache.points:
            stale = qids is None or any(
                qid in drop or not program.contains(qid) for qid in qids
            )
            if stale:
                self.stats.points_dropped += 1
                seed_qid = bindings.get(profile.seed or "")
                if isinstance(seed_qid, int) and program.contains(seed_qid):
                    dropped_seeds.add(seed_qid)
            else:
                survivors.append((sig, bindings, qids))
        self.stats.points_survived += len(survivors)
        seeds = {
            qid for qid in dirty_seeds if program.contains(qid)
        } | dropped_seeds
        ordered = sorted(seeds, key=program.position)
        ctx.arm_seed_restriction(ordered)
        try:
            rediscovered, attempts = _drain(enumerate_points(optimizer, ctx))
        finally:
            ctx.take_seed_restriction()  # disarm if never consumed
        merged: dict[tuple, _CachedPoint] = {
            point[0]: point for point in survivors
        }
        fresh = 0
        for point in rediscovered:
            if point[0] not in merged:
                merged[point[0]] = point
                fresh += 1
        self.stats.points_rediscovered += fresh
        return list(merged.values()), attempts

    def _shadow_check(
        self, optimizer, ctx: MatchContext, points: list[Point]
    ) -> None:
        """Assert a worklist sweep equals a naive full re-scan: the same
        enumeration with no shape filter and no seed restriction."""
        self.stats.shadow_checks += 1
        reference = MatchContext(
            self.manager.program,
            ctx.graph,
            counters=CostCounters(),
            structure_provider=self.manager.structure,
        )
        reference.enforce_restrictions = ctx.enforce_restrictions
        want = {point[0] for point in enumerate_points(optimizer, reference)}
        got = {point[0] for point in points}
        if want == got:
            return
        missing = sorted(repr(sig) for sig in want - got)
        extra = sorted(repr(sig) for sig in got - want)
        raise MatchMismatchError(
            f"incremental sweep of {optimizer.name} diverged from the "
            f"full re-scan at program version "
            f"{self.manager.program.version}:\n"
            f"  missing ({len(missing)}): {missing[:5]}\n"
            f"  extra ({len(extra)}): {extra[:5]}"
        )


def _bound_qids(bindings: dict[str, object]) -> Optional[frozenset[int]]:
    """Every statement identity a point's bindings pin down, or None
    when a binding's shape is unknown (the point is then always
    considered dirty)."""
    qids: set[int] = set()
    for value in bindings.values():
        if isinstance(value, bool):
            return None
        if isinstance(value, int):
            qids.add(value)
        elif isinstance(value, LoopBinding):
            qids.update((value.head, value.end))
        elif isinstance(value, tuple):
            for item in value:
                if isinstance(item, int) and not isinstance(item, bool):
                    qids.add(item)
                else:
                    return None
        elif isinstance(value, PosBinding):
            continue
        elif isinstance(value, (str, float)):
            continue
        else:
            return None
    return frozenset(qids)


def _sort_points(points: Iterable[Point], program: Program) -> list[Point]:
    """Canonical point order: positions of the bound elements in
    binding insertion order (the seed binds first)."""

    def value_key(value: object) -> tuple:
        if isinstance(value, bool):
            return (4, str(value))
        if isinstance(value, int):
            position = (
                program.position(value) if program.contains(value)
                else 1 << 30
            )
            return (0, position, value)
        if isinstance(value, LoopBinding):
            position = (
                program.position(value.head) if program.contains(value.head)
                else 1 << 30
            )
            return (1, position, value.head, value.end)
        if isinstance(value, PosBinding):
            return (2, value.pos, value.var)
        if isinstance(value, tuple):
            return (3, tuple(value_key(item) for item in value))
        try:
            return (4, str(value))
        except Exception:
            return (5, type(value).__name__)

    def key(point) -> tuple:
        bindings = point[1]
        return tuple(value_key(value) for value in bindings.values())

    return sorted(points, key=key)


def engine_for(
    manager: AnalysisManager, full_check: Optional[bool] = None
) -> MatchEngine:
    """The matching engine attached to ``manager`` (created on first
    use).  Keeping it on the manager shares the sweep caches across
    every ``run_optimizer`` call that shares the manager — the
    pipeline and session do."""
    engine = getattr(manager, "_match_engine", None)
    if engine is None or engine.manager is not manager:
        engine = MatchEngine(manager, full_check=full_check)
        manager._match_engine = engine
    return engine
