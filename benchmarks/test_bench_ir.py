"""Million-quad IR scaling: mutation throughput and fingerprint latency.

The blocked-list container (:mod:`repro.ir.blocklist`) replaced the
seed ``Program``'s dense ``qid -> position`` dict, which was rebuilt in
full after *every* mutation — O(n) per edit, quadratic for any
transformation sweep.  The incremental fingerprint replaced a full
re-render of every statement per digest.  This benchmark measures both
against the seed path on HOMPACK-flavoured programs from
:func:`repro.workloads.large_program`:

* **mutation arm** — identical random insert/remove scripts, once with
  the container's own index maintenance, once paying the seed's dense
  reindex (the exact dict comprehension the old ``_reindex`` ran)
  after every mutation;
* **fingerprint arm** — identical random ``replace`` scripts, once
  asking the incremental ``fingerprint()`` after each edit, once the
  full recompute (``_full_fingerprint``).  The two arms' digests must
  agree edit for edit, or the timing is moot.

Results for every size land in ``BENCH_ir.json``; the largest size
must clear :data:`TARGET_MUTATION_SPEEDUP` and
:data:`TARGET_FP_SPEEDUP`.  ``test_million_quad_driver_pass``
additionally generates a fresh 10^6-quad program and runs one full
driver pass (dependence analysis + matching + one application) inside
:data:`MILLION_BUDGET_S`, recording the phase times alongside the
curve under its own ``host`` stamp (commit, time).  Re-measuring the
curve drops any earlier driver record instead of carrying it over.

``test_smoke_ir_equivalence`` is the cheap CI entry point (select with
``-k smoke``): one small size, equivalence of both arms only.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

from bench_schema import host_info, write_bench
from repro.analysis.manager import AnalysisManager
from repro.genesis.driver import DriverOptions, run_optimizer
from repro.ir.program import Program
from repro.ir.quad import Opcode, Quad
from repro.opts.catalog import standard_optimizers
from repro.workloads import bulk_alloc, large_program

SEED = 5

#: Workload sizes (requested quad counts) — one curve, smallest first.
SIZES = (1_000, 10_000, 100_000, 1_000_000)

#: Edit-script lengths per size (the seed arm pays O(n) per edit, so
#: the biggest sizes use shorter scripts to keep the run bounded).
MUTATIONS = {1_000: 400, 10_000: 400, 100_000: 200, 1_000_000: 50}
FP_PROBES = {1_000: 50, 10_000: 50, 100_000: 20, 1_000_000: 4}

#: Required wall-clock ratios at the largest size.
TARGET_MUTATION_SPEEDUP = 10.0
TARGET_FP_SPEEDUP = 20.0

MILLION = 1_000_000
#: Generation plus one full driver pass must fit in this many seconds.
MILLION_BUDGET_S = 1_800.0

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_ir.json"


def _fresh_quad(rng: random.Random) -> Quad:
    from repro.ir.types import Const, Var

    return Quad(
        Opcode.ASSIGN,
        result=Var(f"bm{rng.randint(0, 99)}"),
        a=Const(rng.randint(0, 999)),
    )


def _dense_reindex(program: Program) -> dict[int, int]:
    """The seed container's per-mutation cost: rebuild the complete
    ``qid -> position`` map (what ``Program._reindex`` did before the
    blocked list)."""
    return {quad.qid: position for position, quad in enumerate(program)}


# ----------------------------------------------------------------------
# mutation arm
# ----------------------------------------------------------------------
def _mutation_script(program: Program, ops: int, seed: int):
    """The shared edit script: (anchor qid, replacement quad) pairs."""
    rng = random.Random(seed)
    anchors = rng.choices(program.qids(), k=ops)
    return [(anchor, _fresh_quad(rng)) for anchor in anchors]


def _time_mutations(program: Program, script, dense: bool) -> float:
    start = time.perf_counter()
    for anchor, quad in script:
        inserted = program.insert_after(anchor, quad)
        if dense:
            index = _dense_reindex(program)
            position = index[inserted.qid]
        else:
            position = program.position(inserted.qid)
        assert position >= 0
        program.remove(inserted.qid)
        if dense:
            _dense_reindex(program)
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# fingerprint arm
# ----------------------------------------------------------------------
def _fp_script(program: Program, probes: int, seed: int):
    rng = random.Random(seed)
    targets = rng.sample(program.qids(), probes)
    return [(qid, _fresh_quad(rng)) for qid, _ in zip(targets, range(probes))]


def _time_fingerprints(program: Program, script, full: bool):
    program.fingerprint()  # both arms start from a warm digest
    digests = []
    start = time.perf_counter()
    for qid, quad in script:
        program.replace(qid, quad)
        if full:
            digests.append(program._full_fingerprint())
        else:
            digests.append(program.fingerprint())
    return time.perf_counter() - start, digests


def _measure_size(size: int) -> dict[str, object]:
    base = large_program(seed=SEED, target_quads=size)
    ops = MUTATIONS[size]
    probes = FP_PROBES[size]

    script = _mutation_script(base, ops, seed=SEED + 1)
    seed_prog, new_prog = base.clone(), base.clone()
    seed_mut_s = _time_mutations(seed_prog, script, dense=True)
    new_mut_s = _time_mutations(new_prog, script, dense=False)
    # identical scripts must leave identical programs
    assert seed_prog.fingerprint() == new_prog.fingerprint()

    fp_script = _fp_script(base, probes, seed=SEED + 2)
    seed_prog, new_prog = base.clone(), base.clone()
    seed_fp_s, seed_digests = _time_fingerprints(seed_prog, fp_script, full=True)
    new_fp_s, new_digests = _time_fingerprints(new_prog, fp_script, full=False)
    # the incremental digest must equal the full recompute, edit for edit
    assert seed_digests == new_digests

    return {
        "size": size,
        "quads": len(base),
        "mutations": ops,
        "seed_mutation_s": round(seed_mut_s, 4),
        "blocklist_mutation_s": round(new_mut_s, 4),
        "mutation_speedup": round(seed_mut_s / new_mut_s, 2),
        "mutation_us_per_op": round(new_mut_s / ops * 1e6, 2),
        "fingerprint_probes": probes,
        "full_fingerprint_s": round(seed_fp_s, 4),
        "incremental_fingerprint_s": round(new_fp_s, 4),
        "fingerprint_speedup": round(seed_fp_s / new_fp_s, 2),
    }


def test_mutation_and_fingerprint_speedups():
    """The sizes curve, recorded as BENCH_ir.json."""
    entries = [_measure_size(size) for size in SIZES]
    payload: dict[str, object] = {
        "seed": SEED,
        "target_mutation_speedup_at_largest": TARGET_MUTATION_SPEEDUP,
        "target_fingerprint_speedup_at_largest": TARGET_FP_SPEEDUP,
        "sizes": entries,
    }
    write_bench(RESULTS_PATH, payload)
    largest = entries[-1]
    assert largest["mutation_speedup"] >= TARGET_MUTATION_SPEEDUP, (
        f"mutation speedup {largest['mutation_speedup']}x at size "
        f"{largest['size']} (need {TARGET_MUTATION_SPEEDUP}x); "
        f"see {RESULTS_PATH}"
    )
    assert largest["fingerprint_speedup"] >= TARGET_FP_SPEEDUP, (
        f"fingerprint speedup {largest['fingerprint_speedup']}x at size "
        f"{largest['size']} (need {TARGET_FP_SPEEDUP}x); "
        f"see {RESULTS_PATH}"
    )


def test_million_quad_driver_pass():
    """Generate 10^6 quads and run one full Figure 5 driver pass —
    dependence graph, pattern matching, one application — inside the
    budget.  Phase times are recorded next to the curve."""
    start = time.perf_counter()
    program = large_program(seed=SEED + 3, target_quads=MILLION)
    gen_s = time.perf_counter() - start

    optimizer = standard_optimizers(("DCE",))["DCE"]
    manager = AnalysisManager(program)
    options = DriverOptions(apply_all=False, max_applications=1)
    with bulk_alloc():
        start = time.perf_counter()
        result = run_optimizer(optimizer, program, options, manager=manager)
        driver_s = time.perf_counter() - start

    total_s = gen_s + driver_s
    record = {
        "quads": len(program),
        "generation_s": round(gen_s, 2),
        "driver_pass_s": round(driver_s, 2),
        "total_s": round(total_s, 2),
        "applications": len(result.applications),
        "budget_s": MILLION_BUDGET_S,
        "host": host_info(),
    }
    if RESULTS_PATH.exists():
        payload = json.loads(RESULTS_PATH.read_text())
    else:  # standalone run: a minimal conforming payload
        payload = {
            "host": host_info(),
            "sizes": [{"size": MILLION, "fingerprint_speedup": 1.0}],
        }
    payload["million_driver"] = record
    write_bench(RESULTS_PATH, payload)
    assert total_s <= MILLION_BUDGET_S, (
        f"10^6-quad generation + driver pass took {total_s:.1f}s "
        f"(budget {MILLION_BUDGET_S}s); see {RESULTS_PATH}"
    )


def test_smoke_ir_equivalence():
    """CI smoke: one small size, equivalence of both arms only."""
    base = large_program(seed=SEED, target_quads=2_000)
    script = _mutation_script(base, 40, seed=SEED + 1)
    seed_prog, new_prog = base.clone(), base.clone()
    _time_mutations(seed_prog, script, dense=True)
    _time_mutations(new_prog, script, dense=False)
    assert seed_prog.fingerprint() == new_prog.fingerprint()
    assert seed_prog.fingerprint() == seed_prog._full_fingerprint()

    fp_script = _fp_script(base, 10, seed=SEED + 2)
    seed_prog, new_prog = base.clone(), base.clone()
    _, full_digests = _time_fingerprints(seed_prog, fp_script, full=True)
    _, incremental_digests = _time_fingerprints(
        new_prog, fp_script, full=False
    )
    assert full_digests == incremental_digests
    new_prog._store.check_invariants()
