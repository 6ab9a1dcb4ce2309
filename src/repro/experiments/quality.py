"""Experiment E1: generated vs hand-coded optimizer quality.

Paper claims reproduced: "Our optimizers found the same application
points and the resulting code was comparable to that produced by the
hand-crafted optimizers.  There were no extraneous statements, and the
optimizations were correctly performed."

Three checks per (program, optimization):

1. **same points** — the generated optimizer's application points equal
   the hand-coded baseline's;
2. **no extraneous statements** — after applying each to exhaustion the
   two programs have the same number of statements;
3. **correctly performed** — both transformed programs produce the
   original program's output on the workload inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.experiments.report import render_table
from repro.genesis.driver import DriverOptions, find_application_points, run_optimizer
from repro.ir.interp import run_program
from repro.opts.catalog import standard_optimizers
from repro.opts.handcoded import handcoded_optimizer
from repro.workloads.suite import Workload, full_suite

#: optimizations compared (all with hand-coded counterparts)
DEFAULT_OPTS = (
    "CTP", "CPP", "DCE", "CFO", "ICM", "INX", "CRC", "BMP", "PAR", "LUR",
    "FUS",
)


@dataclass
class QualityRow:
    """One (program, optimization) comparison."""

    program: str
    optimization: str
    generated_points: int
    handcoded_points: int
    same_points: bool
    generated_size: int
    handcoded_size: int
    generated_correct: bool
    handcoded_correct: bool

    @property
    def comparable_code(self) -> bool:
        return self.generated_size == self.handcoded_size


@dataclass
class QualityResult:
    """The full E1 comparison."""

    rows: list[QualityRow] = field(default_factory=list)

    @property
    def all_points_match(self) -> bool:
        return all(row.same_points for row in self.rows)

    @property
    def all_correct(self) -> bool:
        return all(
            row.generated_correct and row.handcoded_correct
            for row in self.rows
        )

    @property
    def all_comparable(self) -> bool:
        return all(row.comparable_code for row in self.rows)

    def table(self) -> str:
        headers = [
            "program", "opt", "gen pts", "hand pts", "same", "gen size",
            "hand size", "correct",
        ]
        rows = [
            [
                row.program,
                row.optimization,
                row.generated_points,
                row.handcoded_points,
                row.same_points,
                row.generated_size,
                row.handcoded_size,
                row.generated_correct and row.handcoded_correct,
            ]
            for row in self.rows
            if row.generated_points or row.handcoded_points
        ]
        return render_table(
            headers,
            rows,
            title="E1: generated vs hand-coded optimizers "
            "(rows with zero points on both sides omitted)",
            align_left=(0, 1),
        )


def _point_keys(points: list[dict[str, object]]) -> frozenset:
    return frozenset(
        tuple(sorted((k, str(v)) for k, v in point.items()))
        for point in points
    )


def run_quality(
    workloads: Optional[Sequence[Workload]] = None,
    opt_names: Sequence[str] = DEFAULT_OPTS,
) -> QualityResult:
    """Run the full E1 comparison."""
    workloads = list(workloads) if workloads is not None else full_suite()
    optimizers = standard_optimizers(tuple(opt_names))
    result = QualityResult()
    for item in workloads:
        base = item.load()
        reference = run_program(base, inputs=item.inputs).observable()
        for name in opt_names:
            generated = optimizers[name]
            baseline = handcoded_optimizer(name)

            generated_points = find_application_points(
                generated, base.clone()
            )
            handcoded_points = baseline.find_points(base.clone())

            generated_program = base.clone()
            run_optimizer(
                generated, generated_program, DriverOptions(apply_all=True)
            )
            handcoded_program = base.clone()
            baseline.apply_all(handcoded_program)

            generated_out = run_program(
                generated_program, inputs=item.inputs
            ).observable()
            handcoded_out = run_program(
                handcoded_program, inputs=item.inputs
            ).observable()

            result.rows.append(
                QualityRow(
                    program=item.name,
                    optimization=name,
                    generated_points=len(generated_points),
                    handcoded_points=len(handcoded_points),
                    same_points=(
                        _point_keys(generated_points)
                        == _point_keys(handcoded_points)
                    ),
                    generated_size=len(generated_program),
                    handcoded_size=len(handcoded_program),
                    generated_correct=generated_out == reference,
                    handcoded_correct=handcoded_out == reference,
                )
            )
    return result
