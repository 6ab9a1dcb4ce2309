"""Property tests for the blocked-list IR container.

Random edit scripts — inserts, removes, moves, replaces, touches,
rollbacks and clones — drive a :class:`Program` next to a plain-list
model.  After every step the order-maintenance index must
agree with the model (``position`` / ``qids`` / iteration), the
incremental fingerprint must equal a full recompute, and the store's
own structural invariants must hold.  A separate case shrinks the
change-log limit to force trimming past ``_log_floor`` and asserts
rollback fails *loudly* (``RollbackUnavailable``) while the program
state stays intact.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import pytest

import repro.ir.program as program_mod
from repro.ir.program import Program, RollbackUnavailable
from repro.ir.quad import Opcode, Quad
from repro.ir.types import Const, Var

COMMON = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _fresh_quad(rng: random.Random) -> Quad:
    return Quad(
        Opcode.ASSIGN,
        result=Var(f"v{rng.randint(0, 30)}"),
        a=Const(rng.randint(0, 99)),
    )


def _seed_program(rng: random.Random, size: int) -> tuple[Program, list[int]]:
    program = Program([_fresh_quad(rng) for _ in range(size)])
    return program, [quad.qid for quad in program]


def _check(program: Program, model: list[int]) -> None:
    assert len(program) == len(model)
    assert program.qids() == model
    assert [quad.qid for quad in program] == model
    assert [quad.qid for quad in reversed(program)] == model[::-1]
    for position, qid in enumerate(model):
        assert program.position(qid) == position
    program._store.check_invariants()
    assert program.fingerprint() == program._full_fingerprint()


def _edit_once(program: Program, model: list[int], rng: random.Random) -> None:
    """One random undoable mutation, mirrored into the model."""
    kind = rng.choice(
        (
            "append",
            "insert_at",
            "insert_after",
            "insert_before",
            "remove",
            "move_after",
            "move_to_front",
            "replace",
            "touch",
        )
    )
    if not model and kind not in ("append", "insert_at"):
        kind = "append"
    if kind == "append":
        quad = program.append(_fresh_quad(rng))
        model.append(quad.qid)
    elif kind == "insert_at":
        position = rng.randint(0, len(model))
        quad = program.insert_at(position, _fresh_quad(rng))
        model.insert(position, quad.qid)
    elif kind == "insert_after":
        anchor = rng.choice(model)
        quad = program.insert_after(anchor, _fresh_quad(rng))
        model.insert(model.index(anchor) + 1, quad.qid)
    elif kind == "insert_before":
        anchor = rng.choice(model)
        quad = program.insert_before(anchor, _fresh_quad(rng))
        model.insert(model.index(anchor), quad.qid)
    elif kind == "remove":
        qid = rng.choice(model)
        program.remove(qid)
        model.remove(qid)
    elif kind == "move_after":
        if len(model) < 2:
            return
        qid = rng.choice(model)
        after = rng.choice([other for other in model if other != qid])
        program.move_after(qid, after)
        model.remove(qid)
        model.insert(model.index(after) + 1, qid)
    elif kind == "move_to_front":
        qid = rng.choice(model)
        program.move_to_front(qid)
        model.remove(qid)
        model.insert(0, qid)
    elif kind == "replace":
        qid = rng.choice(model)
        program.replace(qid, _fresh_quad(rng))
    elif kind == "touch":
        qid = rng.choice(model)
        before = program.preimage(qid)
        quad = program.quad(qid)
        quad.a = Const(rng.randint(100, 199))
        program.touch(qid, before=before)


@settings(**COMMON)
@given(st.integers(0, 10**6), st.integers(1, 40), st.integers(10, 80))
def test_edit_scripts_match_model(seed, size, steps):
    """Positions, iteration order and fingerprints track a list model
    through arbitrary edit scripts."""
    rng = random.Random(seed)
    program, model = _seed_program(rng, size)
    _check(program, model)
    for _ in range(steps):
        _edit_once(program, model, rng)
        _check(program, model)


@settings(**COMMON)
@given(st.integers(0, 10**6), st.integers(2, 25), st.integers(1, 25))
def test_rollback_restores_exact_state(seed, size, steps):
    """``rollback_to`` returns the program to the pinned version's
    exact order and rendering, and the index/fingerprint follow."""
    rng = random.Random(seed)
    program, model = _seed_program(rng, size)
    version = program.pin()
    saved_model = list(model)
    saved_render = [str(quad) for quad in program]
    saved_fp = program.fingerprint()
    for _ in range(steps):
        _edit_once(program, model, rng)
    program.unpin(version)
    program.rollback_to(version)
    _check(program, saved_model)
    assert [str(quad) for quad in program] == saved_render
    assert program.fingerprint() == saved_fp


@settings(**COMMON)
@given(st.integers(0, 10**6), st.integers(2, 25), st.integers(1, 20))
def test_rollback_matches_pre_edit_clone(seed, size, steps):
    """Clones are independent of later edits, and a log rollback
    reproduces the clone taken before them (the rollback reference)."""
    rng = random.Random(seed)
    program, model = _seed_program(rng, size)
    snapshot = program.clone()
    snapshot_fp = snapshot.fingerprint()
    assert snapshot_fp == program.fingerprint()
    version = program.pin()
    for _ in range(steps):
        _edit_once(program, model, rng)
    # the clone never sees the edits
    assert snapshot.fingerprint() == snapshot_fp
    snapshot._store.check_invariants()
    program.rollback_to(version)
    program.unpin(version)
    assert program.fingerprint() == snapshot_fp
    assert [str(a) for a in program] == [str(b) for b in snapshot]
    assert program.qids() == snapshot.qids()
    program._store.check_invariants()
    assert program.fingerprint() == program._full_fingerprint()


@settings(**COMMON)
@given(seed=st.integers(0, 10**6))
def test_changelog_trim_blocks_rollback_loudly(seed):
    """Editing past the (shrunken) change-log limit trims the log;
    rolling back to a pre-trim version raises RollbackUnavailable and
    leaves the program untouched."""
    saved_limit = program_mod._CHANGELOG_LIMIT
    program_mod._CHANGELOG_LIMIT = 16
    try:
        rng = random.Random(seed)
        program, model = _seed_program(rng, 8)
        floor_version = program.version
        for _ in range(80):
            _edit_once(program, model, rng)
        assert program._log_floor > floor_version
        before_render = [str(quad) for quad in program]
        before_fp = program.fingerprint()
        with pytest.raises(RollbackUnavailable):
            program.rollback_to(floor_version)
        assert [str(quad) for quad in program] == before_render
        assert program.fingerprint() == before_fp
        _check(program, model)
    finally:
        program_mod._CHANGELOG_LIMIT = saved_limit
