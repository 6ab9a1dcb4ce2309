"""Admission-pipeline tests.

The load-bearing ones are the broken-fixture refusals: the
deliberately unsound specifications from ``repro.verify.fixtures``
must be rejected by the differential-oracle gate and leave a shrunk,
replayable counterexample on disk — an admission pipeline is only
trustworthy if it demonstrably refuses known miscompiles.
"""

from __future__ import annotations

import pytest

from repro.ir.builder import IRBuilder
from repro.synth.admit import AdmissionPipeline
from repro.synth.generalize import ladder
from repro.synth.mine import diff_pair
from repro.verify.fixtures import BROKEN_SPECS


def _window(before_stmts, after_stmts):
    def build(statements):
        builder = IRBuilder()
        builder.assign("sink", 0)
        for target, left, symbol, right in statements:
            if symbol is None:
                builder.assign(target, left)
            else:
                builder.binary(target, left, symbol, right)
        builder.write("sink")
        return builder.build()

    return diff_pair(build(before_stmts), build(after_stmts), origin="unit")


@pytest.fixture(scope="module")
def pipeline():
    return AdmissionPipeline(matcher_gate=False)


# ----------------------------------------------------------------------
# deliberately broken fixtures are refused with evidence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(BROKEN_SPECS))
def test_broken_fixture_is_refused_with_counterexample(name, tmp_path):
    pipeline = AdmissionPipeline(matcher_gate=False, out_dir=tmp_path)
    report = pipeline.evaluate_source(name, BROKEN_SPECS[name])
    assert not report.admitted
    assert report.rejected_gate == "oracle", report.summary()
    assert report.counterexample is not None
    repro_file = tmp_path / f"reject_{name}.f"
    assert repro_file.exists()
    text = repro_file.read_text()
    assert "! gate: oracle" in text
    assert f"! opts: {name}" in text
    assert (tmp_path / f"reject_{name}.gospel").read_text().strip() == (
        BROKEN_SPECS[name].strip()
    )


def test_candidate_counterexample_replays_divergent(tmp_path):
    """A refuted candidate is not in any catalog, so replay must pick
    up its GOSpeL source from the sibling ``reject_<name>.gospel``."""
    from repro.verify.fuzz import replay_repro

    pipeline = AdmissionPipeline(matcher_gate=False, out_dir=tmp_path)
    window = _window([("a", "x", "-", "y")], [("a", 0, None, None)])
    shape = ladder(window)[0]
    report = pipeline.evaluate(shape)
    assert not report.admitted
    assert report.rejected_gate == "oracle"
    repro_file = tmp_path / f"reject_{shape.name}.f"
    assert repro_file.exists()
    oracle_report, applied = replay_repro(repro_file)
    assert applied >= 1
    assert not oracle_report.equivalent


@pytest.mark.parametrize("name", sorted(BROKEN_SPECS))
def test_broken_fixture_counterexample_is_shrunk(name, tmp_path):
    pipeline = AdmissionPipeline(matcher_gate=False, out_dir=tmp_path)
    report = pipeline.evaluate_source(name, BROKEN_SPECS[name])
    assert report.shrunk_statements is not None
    # the shrinker must do real work: the corpus programs are ~12
    # statements plus loop scaffolding, the kernel of either broken
    # spec's miscompile is a handful
    assert report.shrunk_statements <= 8, report.summary()


# ----------------------------------------------------------------------
# unsound ladder candidates are refused at the oracle
# ----------------------------------------------------------------------
def test_div_self_rewrite_is_refused(pipeline):
    window = _window([("a", "x", "/", "x")], [("a", 1, None, None)])
    candidates = ladder(window)
    assert candidates
    for candidate in candidates:
        report = pipeline.evaluate(candidate)
        assert not report.admitted, report.summary()
        assert report.rejected_gate == "oracle"


def test_mod_one_rewrite_is_refused(pipeline):
    window = _window([("a", "x", "mod", 1)], [("a", 0, None, None)])
    for candidate in ladder(window):
        report = pipeline.evaluate(candidate)
        assert not report.admitted, report.summary()
        assert report.rejected_gate == "oracle"


# ----------------------------------------------------------------------
# sound candidates are admitted at their most general sound rung
# ----------------------------------------------------------------------
def test_sub_self_rewrite_is_admitted(pipeline):
    window = _window([("a", "x", "-", "x")], [("a", 0, None, None)])
    outcomes = {}
    for candidate in ladder(window):
        report = pipeline.evaluate(candidate)
        outcomes[candidate.rung_label] = report
    # x := y - y -> x := 0 is only sound when the operands are equal
    assert any(report.admitted for report in outcomes.values())
    admitted = [
        label for label, report in outcomes.items() if report.admitted
    ]
    assert "equal" in admitted or "pinned" in admitted
    if "shape" in outcomes:
        assert not outcomes["shape"].admitted


def test_admitted_report_counts_applications(pipeline):
    window = _window([("a", "x", "*", 0)], [("a", 0, None, None)])
    reports = [pipeline.evaluate(c) for c in ladder(window)]
    admitted = [r for r in reports if r.admitted]
    assert admitted
    assert all(r.applications >= 1 for r in admitted)
    assert all(
        any(g.gate == "oracle" and g.ok for g in r.gates)
        for r in admitted
    )


# ----------------------------------------------------------------------
# early gates
# ----------------------------------------------------------------------
def test_unparsable_source_rejected_at_sema(pipeline):
    report = pipeline.evaluate_source("BAD", "this is not gospel")
    assert not report.admitted
    assert report.rejected_gate == "sema"


def test_never_firing_spec_rejected_at_coverage(pipeline):
    source = """
TYPE
  Stmt: Si;
PRECOND
  Code_Pattern
    any Si: Si.opc == sub AND Si.opr_2 == 77 AND Si.opr_3 == 77;
  Depend
ACTION
  modify(Si.opc, assign);
  modify(Si.opr_2, 0);
  modify(Si.opr_3, none);
"""
    report = pipeline.evaluate_source("NEVER", source)
    assert not report.admitted
    assert report.rejected_gate == "coverage"


def test_matcher_gate_runs_when_enabled():
    pipeline = AdmissionPipeline(matcher_gate=True)
    window = _window([("a", "x", "-", "x")], [("a", 0, None, None)])
    admitted = [
        report
        for report in (pipeline.evaluate(c) for c in ladder(window))
        if report.admitted
    ]
    assert admitted
    for report in admitted:
        assert any(g.gate == "matcher" and g.ok for g in report.gates)
