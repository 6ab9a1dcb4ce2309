"""End-to-end inference tests: mine -> generalize -> admit -> emit.

Also re-certifies the committed ``repro.opts.inferred`` catalog: the
module is regenerated from a fresh deterministic inference run and
must match what is checked in, so a stale or hand-edited entry cannot
silently survive; and every inferred spec, run next to the standard
catalog, must keep the worklist matcher's shadow check green.
"""

from __future__ import annotations

import pytest

from repro.analysis.manager import AnalysisCache, AnalysisManager
from repro.genesis.driver import DriverOptions, run_optimizer
from repro.genesis.matching import engine_for, spec_fingerprint
from repro.ir.interp import same_behaviour
from repro.opts.catalog import build_optimizer, standard_optimizers
from repro.opts.inferred import INFERRED_SPECS
from repro.synth.infer import (
    InferenceConfig,
    catalog_fingerprints,
    emit_module,
    run_inference,
)
from repro.workloads.synthetic import random_program

FAST = InferenceConfig(pairs=9, trace_programs=0, matcher_gate=False)


@pytest.fixture(scope="module")
def result():
    return run_inference(FAST)


# ----------------------------------------------------------------------
# the harness end to end
# ----------------------------------------------------------------------
def test_at_least_five_specs_admitted(result):
    assert len(result.admitted) >= 5, result.summary()


def test_unsound_templates_never_admitted(result):
    """The unsound plants (x/x -> 1, x mod 1 -> 0) must be refuted."""
    admitted = {spec.name for spec in result.admitted}
    assert not any("DIV" in name for name in admitted)
    assert not any("MOD" in name for name in admitted)
    rejected = {report.name for report in result.rejections}
    assert any("DIV" in name for name in rejected)
    assert any("MOD" in name for name in rejected)


def test_every_rejection_carries_a_gate(result):
    for report in result.rejections:
        assert report.rejected_gate is not None


def test_most_general_sound_rung_wins(result):
    """Each admitted spec's more-general rungs appear as rejections."""
    for spec in result.admitted:
        if spec.rung == 0:
            continue
        earlier = [
            r
            for r in result.rejections
            if r.name == spec.name and r.rung < spec.rung
        ]
        # collapsed rungs keep their ladder position, so the count may
        # be smaller than the rung index — but every more general rung
        # that survived collapsing must have been tried and rejected
        assert earlier, spec
        assert all(r.rung != spec.rung for r in earlier)


def test_admitted_specs_not_in_shipped_catalog(result):
    shipped = catalog_fingerprints()
    for spec in result.admitted:
        assert spec.fingerprint not in shipped


def test_deterministic(result):
    again = run_inference(FAST)
    assert [(s.name, s.fingerprint) for s in again.admitted] == [
        (s.name, s.fingerprint) for s in result.admitted
    ]
    assert [(r.name, r.rung) for r in again.rejections] == [
        (r.name, r.rung) for r in result.rejections
    ]


def test_admitted_specs_preserve_semantics(result):
    """Belt and braces: run each admitted optimizer standalone over
    fresh programs the admission corpus never saw."""
    for spec in result.admitted:
        optimizer = spec.optimizer()
        for seed in (101, 202, 303):
            program = random_program(seed, size=12)
            transformed = program.clone()
            run_optimizer(
                optimizer,
                transformed,
                DriverOptions(apply_all=True, max_applications=16),
            )
            assert same_behaviour(program, transformed), spec.name


def test_output_does_not_depend_on_the_analysis_cache(monkeypatch):
    """Mining and admission share first dependence builds through one
    cache per run; a run whose every lookup misses decides the same."""
    config = InferenceConfig(seed=0, pairs=9, trace_programs=2)
    lookup = AnalysisCache._lookup
    taken_over = []

    def counting(self, key):
        entry = lookup(self, key)
        if entry is not None:
            taken_over.append(key)
        return entry

    def decisions(result):
        return (
            [(spec.name, spec.source, spec.fingerprint, spec.applications)
             for spec in result.admitted],
            [(report.name, report.rung,
              [(gate.gate, gate.ok, gate.detail) for gate in report.gates])
             for report in result.rejections],
            result.screened,
        )

    monkeypatch.setattr(AnalysisCache, "_lookup", counting)
    shipped = run_inference(config)
    monkeypatch.setattr(AnalysisCache, "_lookup", lambda self, key: None)
    missing = run_inference(config)
    assert taken_over
    assert decisions(shipped) == decisions(missing)


# ----------------------------------------------------------------------
# the committed catalog module
# ----------------------------------------------------------------------
def test_committed_module_matches_regeneration():
    """src/repro/opts/inferred.py is exactly what the default
    deterministic inference run emits."""
    import repro.opts.inferred as module

    result = run_inference(InferenceConfig())
    with open(module.__file__) as handle:
        committed = handle.read()
    assert committed == emit_module(result)


def test_committed_specs_build_through_catalog():
    for name in INFERRED_SPECS:
        optimizer = build_optimizer(name)
        assert optimizer.name == name


def test_committed_specs_pass_worklist_shadow_check():
    """Inferred specs run after the standard catalog over one shared
    engine; full_check shadows every worklist sweep with the naive
    matcher and raises on any disagreement."""
    catalog = list(standard_optimizers().values()) + [
        build_optimizer(name) for name in sorted(INFERRED_SPECS)
    ]
    options = DriverOptions(apply_all=True, max_applications=8)
    for seed in (7, 17):
        program = random_program(seed, size=12)
        manager = AnalysisManager(program)
        engine = engine_for(manager, full_check=True)
        for optimizer in catalog:
            run_optimizer(optimizer, program, options, manager=manager)
        assert engine.stats.shadow_checks == engine.stats.worklist_sweeps


def test_emit_module_output_is_importable(result, tmp_path):
    rendered = emit_module(result)
    namespace: dict = {}
    exec(compile(rendered, "<emitted>", "exec"), namespace)
    specs = namespace["INFERRED_SPECS"]
    assert sorted(specs) == sorted(s.name for s in result.admitted)
    for spec in result.admitted:
        rebuilt = spec.optimizer()
        assert spec_fingerprint(rebuilt) == spec.fingerprint
