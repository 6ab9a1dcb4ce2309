"""Experiment E4: the order of application matters.

Paper claims reproduced (on the ORDERING workload): "In one program,
FUS, INX, and LUR were all applicable and heavily interacted with one
another by creating and destroying opportunities ... applying FUS
disabled INX and applying LUR disabled FUS.  Different orderings
produced different optimized programs ... when LUR was applied before
FUS and INX, INX was not disabled ... In one segment of the program INX
disabled FUS, while in another segment INX enabled FUS.  Thus, there is
not a right order of application."

Constant propagation runs first (it enables LUR by making the loop
bounds constant — part of the E3 story), then every permutation of
{FUS, INX, LUR} is applied, each optimization once at its first
application point, mirroring the paper's user-directed application.

The permutation sweep itself rides the phase-ordering search engine
(:mod:`repro.search`, exhaustive strategy): the ordering study is a
depth-3 no-repeat exhaustive search with trajectory recording, so
there is exactly one ordering-search implementation in the repository
and the experiment shares the engine's evaluator/cache machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.experiments.report import render_table
from repro.frontend.lower import parse_program
from repro.genesis.driver import (
    DriverOptions,
    apply_at_point,
    find_application_points,
    run_optimizer,
)
from repro.ir.program import Program
from repro.machine.estimate import estimate_time
from repro.machine.models import MULTIPROCESSOR
from repro.opts.catalog import standard_optimizers
from repro.search import SearchConfig, SearchResult, search_program
from repro.workloads.suite import Workload, workload

TRIO = ("FUS", "INX", "LUR")


@dataclass
class OrderingRun:
    """One permutation's outcome."""

    order: tuple[str, ...]
    applied: dict[str, int] = field(default_factory=dict)
    final_size: int = 0
    loop_count: int = 0
    estimated_cycles: float = 0.0
    fingerprint: str = ""


@dataclass
class OrderingResult:
    """All permutations plus the targeted enable/disable checks."""

    runs: list[OrderingRun] = field(default_factory=list)
    claims: dict[str, bool] = field(default_factory=dict)
    #: the exhaustive search that enumerated the permutations
    search: Optional[SearchResult] = None

    @property
    def distinct_programs(self) -> int:
        return len({run.fingerprint for run in self.runs})

    def table(self) -> str:
        headers = ["order", "FUS", "INX", "LUR", "size", "loops", "est cycles"]
        rows = [
            [
                " -> ".join(run.order),
                run.applied.get("FUS", 0),
                run.applied.get("INX", 0),
                run.applied.get("LUR", 0),
                run.final_size,
                run.loop_count,
                run.estimated_cycles,
            ]
            for run in self.runs
        ]
        return render_table(
            headers,
            rows,
            title=(
                "E4: applying {FUS, INX, LUR} once each, in every order "
                f"(distinct resulting programs: {self.distinct_programs})"
            ),
        )

    def claims_table(self) -> str:
        headers = ["paper claim", "holds"]
        rows = [[claim, ok] for claim, ok in self.claims.items()]
        return render_table(headers, rows, title="E4: interaction claims")


def _count_loops(program: Program) -> int:
    from repro.ir.quad import LOOP_HEADS

    return sum(1 for quad in program if quad.opcode in LOOP_HEADS)


def _prepared(item: Workload) -> Program:
    """The workload after constant propagation (enables LUR)."""
    optimizers = standard_optimizers(("CTP",))
    program = item.load()
    run_optimizer(
        optimizers["CTP"], program, DriverOptions(apply_all=True)
    )
    return program


#: The ordering study as a search configuration: every no-repeat
#: sequence of the trio, breadth-first (= ``itertools.permutations``
#: order), each pass applied once at its first point, full trajectories
#: recorded and convergent branches deliberately *not* pruned — the
#: point of the study is one resulting program per ordering.
def ordering_search_config() -> SearchConfig:
    return SearchConfig(
        opt_names=TRIO,
        strategy="exhaustive",
        depth=len(TRIO),
        budget=64,
        options=DriverOptions(apply_all=False),
        allow_repeats=False,
        record_leaves=True,
        prune=False,
        objective=MULTIPROCESSOR.name,
    )


def run_ordering(
    item: Optional[Workload] = None, client=None
) -> OrderingResult:
    """Run the full ordering study (optionally through a service
    client, so permutations share the fingerprint-keyed result cache
    with any other search riding the same service)."""
    item = item if item is not None else workload("ordering")
    optimizers = standard_optimizers(TRIO)
    base = _prepared(item)
    search = search_program(
        base, ordering_search_config(), client=client, name=item.name
    )
    result = OrderingResult(search=search)

    for leaf in search.leaves:
        program = parse_program(leaf.source)
        result.runs.append(
            OrderingRun(
                order=leaf.sequence,
                applied=dict(zip(leaf.sequence, leaf.applied)),
                final_size=len(program),
                loop_count=_count_loops(program),
                estimated_cycles=estimate_time(
                    program, MULTIPROCESSOR
                ).cycles,
                fingerprint=leaf.fingerprint,
            )
        )

    result.claims = _check_claims(base, optimizers)
    return result


def _points(optimizers, name: str, program: Program):
    return find_application_points(optimizers[name], program.clone())


def _check_claims(base: Program, optimizers) -> dict[str, bool]:
    claims: dict[str, bool] = {}

    fus_before = _points(optimizers, "FUS", base)
    inx_before = _points(optimizers, "INX", base)
    lur_before = _points(optimizers, "LUR", base)
    all_applicable = bool(fus_before) and bool(inx_before) and bool(
        lur_before
    )
    claims["FUS, INX and LUR are all applicable"] = all_applicable

    # FUS disables INX (segment 1: fusing puts statements between the
    # nest's heads, breaking tightness)
    program = base.clone()
    apply_at_point(optimizers["FUS"], program, 0)
    claims["applying FUS disables an INX opportunity"] = len(
        _points(optimizers, "INX", program)
    ) < len(inx_before)

    # LUR disables FUS (unrolling the first loop of the fusable pair)
    program = base.clone()
    apply_at_point(optimizers["LUR"], program, 0)
    claims["applying LUR disables FUS"] = len(
        _points(optimizers, "FUS", program)
    ) < len(fus_before)

    # ... but does not disable INX
    claims["LUR applied first leaves INX applicable"] = len(
        _points(optimizers, "INX", program)
    ) == len(inx_before)

    # INX disables FUS in segment 1 (the fused-candidate loop's control
    # variable changes)
    program = base.clone()
    apply_at_point(optimizers["INX"], program, 0)
    claims["INX disables FUS in one segment"] = len(
        _points(optimizers, "FUS", program)
    ) < len(fus_before)

    # INX *enables* FUS in segment 2 (interchange aligns the loop
    # control variables of the adjacent loops)
    program = base.clone()
    apply_at_point(optimizers["INX"], program, 1)
    fus_after = _points(optimizers, "FUS", program)
    new_pairs = {
        str(point.get("L2")) for point in fus_after
    } - {str(point.get("L2")) for point in fus_before}
    claims["INX enables FUS in another segment"] = bool(new_pairs)

    return claims
