"""Equivalence of the structured reaching-sites solver with the
bit-vector reference.

:mod:`repro.analysis.siteflow` replaced the generic
:func:`~repro.analysis.dataflow.solve_forward` for the scalar
dependence pass.  These tests re-derive the four solutions —
definition/use sites, cyclic/acyclic — via the bit-vector solver using
the exact gen/kill encoding the dependence analyzer historically used,
then compare the structured walk's answer at *every* program position
for *every* variable.  Any divergence is a soundness bug in one of the
two solvers, not a performance matter.

Registering every position makes the walk visit every region, so the
region pruning is exercised separately: restricted site lists with the
analyzer's own sparse query map, compared at each registered point.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import bits_to_indices, solve_forward
from repro.analysis.dependence import DependenceAnalyzer
from repro.analysis.manager import _quad_names
from repro.analysis.siteflow import SiteFlow
from repro.frontend import parse_program
from repro.ir.quad import STRUCTURAL_OPS
from repro.workloads import large_program
from repro.workloads.programs import SOURCES
from repro.workloads.synthetic import random_program


def _reference_solutions(program, cfg, sites, gen_uses):
    """The seed encoding: defs kill other defs of the variable; for the
    use flavour a definition kills all pending uses (its own reads are
    in ``gen`` and survive the ``gen ∪ (IN ∖ kill)`` transfer)."""
    size = len(program)
    gen = [0] * size
    kill = [0] * size
    var_mask: dict[str, int] = {}
    entry_bits = 0
    for site in sites:
        if site.position == -1:
            entry_bits |= 1 << site.index
        else:
            gen[site.position] |= 1 << site.index
        var_mask[site.var] = var_mask.get(site.var, 0) | (1 << site.index)
    for position, quad in enumerate(program):
        var = quad.defined_scalar()
        if var is None:
            continue
        mask = var_mask.get(var, 0)
        if gen_uses:
            kill[position] |= mask
        else:
            kill[position] |= mask & ~gen[position]
    full = solve_forward(cfg, gen, kill, may=True, entry_bits=entry_bits)
    acyclic = solve_forward(
        cfg, gen, kill, may=True, acyclic=True, entry_bits=entry_bits
    )
    return full, acyclic, var_mask


def _assert_equivalent(program) -> None:
    """Compare SiteFlow against the bit-vector reference everywhere."""
    analyzer = DependenceAnalyzer(program)
    variables = sorted(
        {site.var for site in analyzer._def_sites}
        | {site.var for site in analyzer._use_sites}
    )
    needed = {
        position: variables for position in range(len(program))
    }
    flow = SiteFlow(
        program, analyzer._def_sites, analyzer._use_sites, needed,
        analyzer.structure,
    )
    cfg = build_cfg(program)
    checked = 0
    for sites, gen_uses, full_sets, acyclic_sets in (
        (analyzer._def_sites, False, flow.def_full, flow.def_acyclic),
        (analyzer._use_sites, True, flow.use_full, flow.use_acyclic),
    ):
        full, acyclic, var_mask = _reference_solutions(
            program, cfg, sites, gen_uses
        )
        for position in range(len(program)):
            for var in variables:
                mask = var_mask.get(var, 0)
                want_full = frozenset(
                    bits_to_indices(full.in_bits(position) & mask)
                )
                want_acyclic = frozenset(
                    bits_to_indices(acyclic.in_bits(position) & mask)
                )
                assert full_sets.at(position, var) == want_full, (
                    f"full mismatch at position {position} var {var!r}"
                )
                assert acyclic_sets.at(position, var) == want_acyclic, (
                    f"acyclic mismatch at position {position} var {var!r}"
                )
                checked += 1
    assert checked > 0


@pytest.mark.parametrize("seed", range(12))
def test_random_programs_match_bitvector(seed):
    """Randomized structured programs, every position and variable."""
    program = random_program(seed, size=30 + 5 * seed, max_depth=3)
    _assert_equivalent(program)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_workload_programs_match_bitvector(name):
    """The hand-written FORTRAN-style corpus."""
    _assert_equivalent(parse_program(SOURCES[name]))


def test_scale_generator_program_matches_bitvector():
    """A slice of the HOMPACK-flavoured scaling workload."""
    _assert_equivalent(large_program(seed=11, target_quads=400))


def test_unregistered_query_is_loud():
    """``SiteSets.at`` must raise for points not pre-registered, so a
    forgotten ``needed`` entry cannot read as an empty reaching set."""
    program = parse_program(SOURCES[sorted(SOURCES)[0]])
    analyzer = DependenceAnalyzer(program)
    flow = SiteFlow(
        program, analyzer._def_sites, analyzer._use_sites, needed={},
        structure=analyzer.structure,
    )
    with pytest.raises(KeyError):
        flow.def_full.at(0, "nosuchvar")


@pytest.mark.parametrize("seed", range(8))
def test_pruned_walk_matches_bitvector_on_restricted_sites(seed):
    """Restricted site lists plus the analyzer's sparse ``needed`` map:
    the walk skips every region holding none of their positions, and
    each registered point must still equal the bit-vector reference."""
    rng = random.Random(seed)
    program = random_program(seed, size=40 + 10 * seed, max_depth=3)
    names = sorted(program.scalar_names())
    cfg = build_cfg(program)
    markers = sum(quad.opcode in STRUCTURAL_OPS for quad in program)
    for _ in range(4):
        some = frozenset(rng.sample(names, rng.randint(1, 2)))
        analyzer = DependenceAnalyzer(program, restrict_names=some)
        flow = analyzer._site_flow()
        walked = flow._order
        assert len(walked) < len(program)
        assert sum(
            program[position].opcode in STRUCTURAL_OPS for position in walked
        ) < markers
        checked = 0
        for sites, gen_uses, full_sets, acyclic_sets in (
            (analyzer._def_sites, False, flow.def_full, flow.def_acyclic),
            (analyzer._use_sites, True, flow.use_full, flow.use_acyclic),
        ):
            full, acyclic, var_mask = _reference_solutions(
                program, cfg, sites, gen_uses
            )
            for position, variables in flow._needed.items():
                for var in variables:
                    mask = var_mask.get(var, 0)
                    assert full_sets.at(position, var) == frozenset(
                        bits_to_indices(full.in_bits(position) & mask)
                    ), f"full mismatch at {position} {var!r} for {some}"
                    assert acyclic_sets.at(position, var) == frozenset(
                        bits_to_indices(acyclic.in_bits(position) & mask)
                    ), f"acyclic mismatch at {position} {var!r} for {some}"
                    checked += 1
        assert checked > 0


def test_restricted_analysis_matches_full_subset():
    """A ``restrict_names`` analyzer's data edges — scalar and array —
    are exactly the matching subset of the full graph (the splice
    property the incremental manager relies on), and scoping it to the
    quads mentioning those names, plus unrelated ones, changes
    nothing: same edges, in the same order."""
    for name in ("gauss", "fft", "solve"):
        program = parse_program(SOURCES[name])
        full = DependenceAnalyzer(program).analyze()
        arrays = program.array_names()
        names = sorted(program.scalar_names() | arrays)
        for some in (
            frozenset(names[::2]), frozenset(names[1::2]), arrays
        ):
            partial = DependenceAnalyzer(
                program, restrict_names=some
            ).analyze()
            want = {
                edge for edge in full.edges
                if edge.kind != "ctrl" and edge.var in some
            }
            got = {edge for edge in partial.edges if edge.kind != "ctrl"}
            assert got == want
            assert any(edge.var in arrays for edge in got)
            mentions = [
                quad.qid for quad in program if _quad_names(quad) & some
            ]
            unrelated = [
                quad.qid for quad in program if not _quad_names(quad) & some
            ][::3]
            for scope in (mentions, mentions + unrelated):
                scoped = DependenceAnalyzer(
                    program, restrict_names=some, scope=reversed(scope)
                )
                assert scoped.analyze().edges == partial.edges
