"""Experiment E5: the cost and benefit of applying optimizations.

Paper method reproduced: "The cost of applying an optimization was
estimated using the number of checks to determine preconditions and the
number of operations to apply the code transformation ... These cost
values were validated by running the optimizers and timing their
execution.  We found that the estimated times very closely reflect the
actual times.  The expected benefit ... was computed by estimating the
impact the optimization has on execution time, taking into account code
that was parallelized and code that was eliminated.  Different
architectural characteristics were considered, including vectorization
and multi-processing."

Methodology (per the paper's per-application framing): each
optimization is applied *one point at a time* on a fresh copy of each
workload.  Cost = the instrumented counters of that run (candidate
scans + precondition checks + transformation operations); actual =
wall-clock seconds of the same run; benefit = estimated cycles saved
under each machine model.  For the parallelism-enabling restructurers
(INX, CRC, FUS, BMP) the benefit is measured after a PAR pass on both
versions — that is where interchange earns its keep — with DOALLs
restricted to the level the target machine exploits (outermost for the
multiprocessor, innermost for the vector unit).

Constant propagation runs first on the loop-transformation targets (as
a compiler would) so constant bounds are visible; CTP/CPP/DCE/CFO are
measured on the raw programs where their points live.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.experiments.report import render_table
from repro.analysis.dependence import compute_dependences
from repro.genesis.driver import (
    DriverOptions,
    apply_at_point,
    find_application_points,
    run_optimizer,
)
from repro.genesis.cost import CostCounters
from repro.ir.interp import run_program
from repro.ir.program import Program
from repro.machine.estimate import estimate_time, restrict_parallel
from repro.machine.models import ALL_MODELS, MachineModel
from repro.opts.catalog import standard_optimizers
from repro.workloads.suite import Workload, full_suite

#: loop restructurers whose benefit shows once PAR runs after them
PARALLELISM_ENABLERS = frozenset({"INX", "CRC", "FUS", "BMP"})

#: optimizations measured on CTP-prepared programs (they need the
#: constant loop bounds CTP exposes)
PREPARED_OPTS = frozenset({"LUR", "BMP", "INX", "CRC", "FUS", "PAR"})

DEFAULT_OPTS = (
    "CTP", "CPP", "DCE", "CFO", "INX", "CRC", "BMP", "PAR", "LUR", "FUS",
)


@dataclass
class CostBenefitRow:
    """One optimization's aggregate cost/benefit over the suite."""

    optimization: str
    applications: int = 0
    precondition_checks: int = 0
    action_ops: int = 0
    estimated_cost: int = 0
    measured_seconds: float = 0.0
    #: model name -> estimated cycles saved across the suite
    benefit: dict[str, float] = field(default_factory=dict)

    @property
    def cost_per_application(self) -> float:
        if self.applications == 0:
            return float(self.estimated_cost)
        return self.estimated_cost / self.applications


@dataclass
class CostBenefitResult:
    """The E5 sweep."""

    rows: list[CostBenefitRow] = field(default_factory=list)
    #: per-run (estimated cost, measured seconds) samples
    samples: list[tuple[int, float]] = field(default_factory=list)

    def correlation(self) -> float:
        """Pearson correlation between estimated cost and wall time.

        The paper's validation: "the estimated times very closely
        reflect the actual times".
        """
        if len(self.samples) < 2:
            return 1.0
        xs = [float(cost) for cost, _ in self.samples]
        ys = [seconds for _, seconds in self.samples]
        n = len(xs)
        mean_x = sum(xs) / n
        mean_y = sum(ys) / n
        cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
        var_x = sum((x - mean_x) ** 2 for x in xs)
        var_y = sum((y - mean_y) ** 2 for y in ys)
        if var_x == 0 or var_y == 0:
            return 1.0
        return cov / math.sqrt(var_x * var_y)

    def row(self, optimization: str) -> CostBenefitRow:
        for entry in self.rows:
            if entry.optimization == optimization:
                return entry
        raise KeyError(optimization)

    def table(self) -> str:
        model_names = sorted(
            {name for row in self.rows for name in row.benefit}
        )
        headers = [
            "opt", "apps", "checks", "actions", "cost", "cost/app",
            "time (ms)", *[f"benefit[{m}]" for m in model_names],
        ]
        rows = []
        for entry in self.rows:
            rows.append(
                [
                    entry.optimization,
                    entry.applications,
                    entry.precondition_checks,
                    entry.action_ops,
                    entry.estimated_cost,
                    round(entry.cost_per_application, 1),
                    round(entry.measured_seconds * 1e3, 2),
                    *[
                        round(entry.benefit.get(m, 0.0), 1)
                        for m in model_names
                    ],
                ]
            )
        title = (
            "E5: cost and benefit per optimization "
            f"(cost/time correlation r = {self.correlation():.3f})"
        )
        return render_table(headers, rows, title=title)


def _estimate(program: Program, model: MachineModel) -> float:
    """Estimated cycles under a model's preferred parallel level."""
    if model.processors > 1:
        program = restrict_parallel(program, "outermost")
    elif model.vector_width > 1:
        program = restrict_parallel(program, "innermost")
    return estimate_time(program, model).cycles


def _executed_cycles(
    program: Program, inputs, model: MachineModel
) -> float:
    """Cycles of an actual execution (per-opcode counts x weights).

    Used for the scalar optimizations, whose benefit is "code that was
    eliminated": executed counts see exactly that, without the static
    estimator's symbolic-trip-count approximation.
    """
    counts = run_program(program, inputs=inputs).opcode_counts
    return sum(model.cost_of(op) * n for op, n in counts.items())


def run_costbenefit(
    workloads: Optional[Sequence[Workload]] = None,
    opt_names: Sequence[str] = DEFAULT_OPTS,
    models: Sequence[MachineModel] = ALL_MODELS,
) -> CostBenefitResult:
    """Measure per-application cost and estimate benefit."""
    workloads = list(workloads) if workloads is not None else full_suite()
    optimizers = standard_optimizers(tuple(sorted({*opt_names, "PAR", "CTP"})))
    result = CostBenefitResult()

    raw = [(item, item.load()) for item in workloads]
    prepared = []
    for item, program in raw:
        copy = program.clone()
        run_optimizer(
            optimizers["CTP"], copy, DriverOptions(apply_all=True)
        )
        prepared.append((item, copy))

    for name in opt_names:
        optimizer = optimizers[name]
        row = CostBenefitRow(optimization=name)
        bases = prepared if name in PREPARED_OPTS else raw
        for item, base in bases:
            # a full scan of this program counts toward the cost of
            # using the optimization, applicable or not (this is what
            # makes rarely-applicable FUS expensive per application)
            graph = compute_dependences(base)
            scan_counters = CostCounters()
            point_count = len(
                find_application_points(
                    optimizer, base.clone(), graph=graph,
                    counters=scan_counters,
                )
            )
            row.precondition_checks += scan_counters.precondition_checks()
            row.estimated_cost += scan_counters.total()
            for index in range(point_count):
                # the precomputed graph keeps dependence-analysis time
                # out of the measured application time (qids survive
                # cloning, so the edges stay valid); three repetitions
                # with the minimum taken suppress scheduler noise on
                # these microsecond-scale runs
                elapsed = []
                outcome = None
                working = base
                for _repeat in range(3):
                    working = base.clone()
                    outcome = apply_at_point(
                        optimizer, working, index, graph=graph
                    )
                    elapsed.append(outcome.elapsed_seconds)
                assert outcome is not None
                if not outcome.applications:
                    continue
                best = min(elapsed)
                row.applications += 1
                row.precondition_checks += (
                    outcome.counters.precondition_checks()
                )
                row.action_ops += outcome.counters.action_ops
                row.estimated_cost += outcome.counters.total()
                row.measured_seconds += best
                result.samples.append(
                    (outcome.counters.total(), best)
                )
                self_benefit = _benefit(
                    optimizers, name, base, working, models, item.inputs,
                    static=(name in PREPARED_OPTS),
                )
                for model_name, saved in self_benefit.items():
                    row.benefit[model_name] = (
                        row.benefit.get(model_name, 0.0) + saved
                    )
        result.rows.append(row)
    return result


def _benefit(
    optimizers,
    name: str,
    before: Program,
    after: Program,
    models: Sequence[MachineModel],
    inputs,
    static: bool,
) -> dict[str, float]:
    baseline = before.clone()
    transformed = after.clone()
    if name in PARALLELISM_ENABLERS:
        run_optimizer(
            optimizers["PAR"], baseline, DriverOptions(apply_all=True)
        )
        run_optimizer(
            optimizers["PAR"], transformed, DriverOptions(apply_all=True)
        )
    saved: dict[str, float] = {}
    for model in models:
        if static:
            saved[model.name] = (
                _estimate(baseline, model) - _estimate(transformed, model)
            )
        else:
            saved[model.name] = _executed_cycles(
                baseline, inputs, model
            ) - _executed_cycles(transformed, inputs, model)
    return saved
