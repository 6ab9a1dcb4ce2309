"""Running the whole experimental section in one call.

``run_all_experiments()`` reproduces every Section 4 result and returns
the printable report; this is what ``python -m repro.cli experiments``
and EXPERIMENTS.md are generated from.

The seven experiment components (E1–E6) are independent of one another
— only the final claim collection reads across them — so the study is
embarrassingly parallel.  Passing a
:class:`~repro.service.client.ServiceClient` to
:func:`run_all_experiments` submits each component as an *experiment
job* to the optimization service, fanning the whole study out across
process-pool workers instead of running it serially in-process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.client import ServiceClient

from repro.experiments.applicability import ApplicabilityResult, run_applicability
from repro.experiments.costbenefit import CostBenefitResult, run_costbenefit
from repro.experiments.enabling import EnablingMatrix, run_enabling_matrix
from repro.experiments.ordering import OrderingResult, run_ordering
from repro.experiments.quality import QualityResult, run_quality
from repro.experiments.report import render_table
from repro.experiments.strategies import (
    MembershipResult,
    VariantComparison,
    run_lur_variants,
    run_membership_strategies,
)
from repro.workloads.suite import Workload, full_suite


@dataclass
class ExperimentReport:
    """All experiment results plus rendering."""

    applicability: ApplicabilityResult
    quality: QualityResult
    enabling: EnablingMatrix
    ordering: OrderingResult
    costbenefit: CostBenefitResult
    lur_variants: VariantComparison
    membership: MembershipResult
    claim_summary: dict[str, bool] = field(default_factory=dict)

    def render(self) -> str:
        sections = [
            self.quality.table(),
            self.applicability.table(),
            self.enabling.table(),
            self.ordering.table(),
            self.ordering.claims_table(),
            self.costbenefit.table(),
            self.lur_variants.table(),
            self.membership.table(),
            self._claims_table(),
        ]
        return "\n\n".join(sections)

    def _claims_table(self) -> str:
        rows = [[claim, ok] for claim, ok in self.claim_summary.items()]
        return render_table(
            ["Section 4 claim", "reproduced"], rows,
            title="Summary: paper claims vs this run",
        )

    def all_claims_hold(self) -> bool:
        return all(self.claim_summary.values())


def collect_claims(report: "ExperimentReport") -> dict[str, bool]:
    """Evaluate every Section 4 claim against the results."""
    claims: dict[str, bool] = {}
    claims.update(report.applicability.paper_claims())
    claims["generated optimizers find the hand-coded points"] = (
        report.quality.all_points_match
    )
    claims["generated optimizers produce correct, comparable code"] = (
        report.quality.all_correct and report.quality.all_comparable
    )
    ctp = report.enabling.results.get("CTP")
    if ctp is not None:
        claims["CTP enables DCE, CFO and LUR"] = (
            ctp.enabled_counts.get("DCE", 0) > 0
            and ctp.enabled_counts.get("CFO", 0) > 0
            and ctp.enabled_counts.get("LUR", 0) > 0
        )
        claims["LUR is the most frequently enabled (41/97 in the paper)"] = (
            ctp.enabled_counts.get("LUR", 0)
            == max(ctp.enabled_counts.values())
        )
    cpp = report.enabling.results.get("CPP")
    if cpp is not None:
        claims["CPP creates no further opportunities"] = (
            sum(cpp.enabled_counts.values()) == 0
        )
    claims["different orderings produce different programs"] = (
        report.ordering.distinct_programs > 1
    )
    claims.update(report.ordering.claims)
    claims["estimated cost tracks measured time (r > 0.8)"] = (
        report.costbenefit.correlation() > 0.8
    )
    inx = report.costbenefit.row("INX")
    fus = report.costbenefit.row("FUS")
    claims["INX is inexpensive with large parallel benefit"] = (
        inx.cost_per_application < fus.cost_per_application
        and inx.benefit.get("multiprocessor", 0.0) > 0
    )
    claims["FUS applies rarely and is expensive with little benefit"] = (
        fus.applications <= 1
        and fus.cost_per_application > inx.cost_per_application
        and fus.benefit.get("scalar", 0.0) < inx.benefit.get(
            "multiprocessor", 0.0
        )
    )
    claims["checking LUR's upper limit first is cheaper"] = (
        report.lur_variants.upper_first_cheaper
    )
    claims["neither membership method always wins"] = (
        report.membership.winners_differ
    )
    claims["the strategy heuristic picks the winner case by case"] = (
        report.membership.heuristic_always_optimal
    )
    return claims


#: The independently runnable experiment components, in report order.
#: Each entry maps a stable component name to a builder taking the
#: workload list (``run_ordering`` uses its own fixed workload).
_COMPONENTS: dict[str, object] = {
    "applicability": lambda workloads: run_applicability(workloads),
    "quality": lambda workloads: run_quality(workloads),
    "enabling": lambda workloads: run_enabling_matrix(workloads=workloads),
    "ordering": lambda workloads: run_ordering(),
    "costbenefit": lambda workloads: run_costbenefit(workloads),
    "lur_variants": lambda workloads: run_lur_variants(workloads),
    "membership": lambda workloads: run_membership_strategies(workloads),
}


def run_experiment_component(
    name: str, workload_names: Optional[Sequence[str]] = None
):
    """Run one named experiment component (the service-worker entry).

    ``workload_names`` selects suite programs by name (None: the full
    suite) — names, not objects, because this call crosses a process
    boundary in service mode.
    """
    from repro.workloads.suite import workload

    builder = _COMPONENTS.get(name)
    if builder is None:
        raise KeyError(
            f"unknown experiment component {name!r}; "
            f"known: {sorted(_COMPONENTS)}"
        )
    if workload_names is None:
        workloads = full_suite()
    else:
        workloads = [workload(w) for w in workload_names]
    return builder(workloads)  # type: ignore[operator]


def _suite_names(
    workloads: Optional[Sequence[Workload]],
) -> Optional[list[str]]:
    """Workloads as suite names, or None when they are not pure suite
    members (custom workloads cannot cross a process boundary)."""
    from repro.workloads.programs import SOURCES

    if workloads is None:
        return None
    names = []
    for item in workloads:
        if SOURCES.get(item.name) != item.source:
            return None
        names.append(item.name)
    return names


def run_all_experiments(
    workloads: Optional[Sequence[Workload]] = None,
    client: Optional["ServiceClient"] = None,
) -> ExperimentReport:
    """Run E1–E6 over the suite and check every paper claim.

    With a ``client``, each component is submitted to the optimization
    service as an experiment job and the components run concurrently
    across the service's workers; claims are still collected here,
    since they read across components.  Custom (non-suite) workloads
    fall back to the serial path — they cannot be named across a
    process boundary.
    """
    workloads = list(workloads) if workloads is not None else full_suite()
    names = _suite_names(workloads) if client is not None else None
    if names is not None:
        components = _run_components_via_service(client, names)
    else:
        components = {
            name: builder(workloads)  # type: ignore[operator]
            for name, builder in _COMPONENTS.items()
        }
    report = ExperimentReport(
        applicability=components["applicability"],
        quality=components["quality"],
        enabling=components["enabling"],
        ordering=components["ordering"],
        costbenefit=components["costbenefit"],
        lur_variants=components["lur_variants"],
        membership=components["membership"],
    )
    report.claim_summary = collect_claims(report)
    return report


def _run_components_via_service(
    client: "ServiceClient", workload_names: Optional[list[str]]
) -> dict[str, object]:
    """Fan the seven components out as service experiment jobs."""
    from repro.service.client import run_batch
    from repro.service.job import Job

    jobs = []
    for name in _COMPONENTS:
        job = Job.experiment(name)
        if workload_names is not None:
            job.payload["workloads"] = list(workload_names)
        jobs.append(job)
    components: dict[str, object] = {}
    for name, result in zip(_COMPONENTS, run_batch(client, jobs)):
        if not result.ok:
            detail = str(result.failure) if result.failure else result.status
            raise RuntimeError(
                f"experiment component {name!r} failed in the service: "
                f"{detail}"
            )
        components[name] = result.payload
    return components
