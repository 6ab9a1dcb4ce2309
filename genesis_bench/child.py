"""One benchmark child process: set up one workload, then measure it.

Started by ``run.py`` in a fresh interpreter, one workload at a time;
prints one JSON payload as the last line of its standard output.

Modes:

* ``setup``   — set up, report the set-up time, exit;
* ``measure`` — set up, then run rounds of the deck for ``--seconds``
  and report the end-to-end metrics (no tracing);
* ``trace``   — install the tracer before set-up, then alternate
  untraced and traced rounds and report the per-layer metrics.

Every reported time is calibrated (see ``calibrate.py``): a calibration
sample is taken before each unit and after the last one, and each unit's
time is scaled by the two samples around it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import calibrate

perf = time.perf_counter


@dataclass
class Round:
    """One pass over the deck."""

    outcomes: list
    #: calibration samples: one before each unit, one after the last
    refs: list[float]
    #: raw seconds, calibration samples excluded
    seconds: float
    traced: bool

    def calibrated(self) -> float:
        return self.seconds * calibrate.factor(self.refs)

    def unit_times(self) -> dict[str, float]:
        """Calibrated seconds per unit, each scaled by its neighbours."""
        return {
            outcome.label: outcome.seconds * calibrate.factor(
                self.refs[index:index + 2]
            )
            for index, outcome in enumerate(self.outcomes)
        }


def unit_medians(rounds: list[Round]) -> list[float]:
    """Each unit's median calibrated time across rounds.

    Summing these gives a deck time that a phase of host contention in
    one round moves less than it moves that round's total.
    """
    times: dict[str, list[float]] = defaultdict(list)
    for rnd in rounds:
        for label, seconds in rnd.unit_times().items():
            times[label].append(seconds)
    return [statistics.median(values) for values in times.values()]


def run_round(workload, label: int, tracer=None) -> Round:
    from workloads import timed_run

    sample = (calibrate.sample_each_cpu if workload.parallel
              else calibrate.sample)
    refs: list[float] = []
    outcomes = []
    calibrating = 0.0

    def calibration() -> None:
        nonlocal calibrating
        begun = perf()
        refs.append(sample())
        calibrating += perf() - begun

    start = perf()
    workload.begin_round()
    try:
        for position, unit in enumerate(workload.deck()):
            calibration()
            if tracer is not None:
                tracer.unit = f"{label}:{position}"
            outcomes.append(timed_run(workload, unit))
        calibration()
    finally:
        workload.end_round()
    return Round(outcomes, refs, perf() - start - calibrating,
                 tracer is not None)


def run_rounds(workload, seconds: float, tracer=None):
    """Rounds until the next one would overrun ``seconds``.

    Untraced runs need one round.  Traced runs alternate untraced
    (even) and traced (odd) rounds and need one of each.
    """
    rounds: list[Round] = []
    tables = []  # per traced round: (span table, counters, round)
    durations = []
    started = perf()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
            tracer.recording = True
        begun = perf()
        try:
            rnd = run_round(workload, len(rounds), tracer if traced else None)
        finally:
            if traced:
                tracer.recording = False
                tracer.uninstall()
        durations.append(perf() - begun)
        rounds.append(rnd)
        if traced:
            tables.append((tracer.collect(), _snapshot(tracer), rnd))
        need = 1 if tracer is None else 2
        typical = statistics.median(durations)
        if len(rounds) >= need and perf() - started + typical > seconds:
            return rounds, tables


def signature(outcomes) -> list:
    return [
        (o.label, o.fingerprints, o.in_quads, o.out_quads,
         o.steps_before, o.steps_after)
        for o in outcomes
    ]


def outputs_digest(outcomes) -> str:
    digest = hashlib.sha256()
    for outcome in outcomes:
        for fingerprint in outcome.fingerprints:
            digest.update(fingerprint.encode())
    return digest.hexdigest()


def peak_rss_mb() -> float:
    """Max resident set size of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def end_to_end_metrics(rounds: list[Round]) -> dict[str, tuple[float, str]]:
    """End-to-end metrics of untraced rounds (set-up time is added by
    the parent, which takes the median over several set-ups)."""
    per_unit = unit_medians(rounds)
    first = rounds[0].outcomes
    wall = sum(per_unit)
    return {
        "wall_s": (wall, "s"),
        # a deck has 3-6 units, so no percentile above the median has
        # the ten samples beyond it that would make it worth reporting
        "unit_p50_s": (statistics.median(per_unit), "s"),
        "work_per_s": (sum(o.work for o in first) / wall, "1/s"),
        "code_size_ratio": (
            sum(o.out_quads for o in first) / sum(o.in_quads for o in first),
            "ratio",
        ),
        "run_steps_ratio": (
            sum(o.steps_after for o in first)
            / sum(o.steps_before for o in first),
            "ratio",
        ),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def _snapshot(tracer) -> dict[str, float]:
    """The program's own counters plus the service jobs of one round."""
    values: dict[str, float] = defaultdict(float, tracer.counts)
    for stats in tracer.stats["analysis"]:
        values["analysis.hits"] += sum(stats.hits.values())
        values["analysis.misses"] += sum(stats.misses.values())
        for name in ("full_rebuilds", "incremental_updates",
                     "edges_retained", "edges_recomputed"):
            values[f"analysis.{name}"] += getattr(stats, name)
    for stats in tracer.stats["match"]:
        values["match.candidates_scanned"] += stats.candidates_scanned
        values["match.tail_runs"] += stats.network_tail_runs
        values["match.entries_reused"] += stats.network_entries_reused
    for stats in tracer.stats["service"]:
        values["service.submitted"] += stats.submitted
    for job in tracer.jobs:
        served = job.cached or job.coalesced
        values["service.results"] += 1
        values["service.served"] += served
        values["service.failed"] += not job.ok
        values["service.queue_wait_s"] += job.queued_seconds
        if not served:
            values["search.executions"] += 1
            values["service.exec_s"] += job.elapsed_seconds
    return values


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: busy time of a span name as a share of the traced round
BUSY_SHARES = {
    "analysis.graph.busy_share": "analysis.graph",
    "analysis.deps.busy_share": "analysis.deps",
    "analysis.splice.busy_share": "analysis.splice",
    "analysis.cfg.busy_share": "analysis.cfg",
    "analysis.structure.busy_share": "analysis.structure",
    "txn.begin.busy_share": "txn.begin",
    "ir.clone.busy_share": "ir.clone",
    "ir.fingerprint.busy_share": "ir.fingerprint",
    "match.sweep.busy_share": "match.sweep",
    "act.busy_share": "act",
    "codegen.busy_share": "codegen",
    "frontend.parse.busy_share": "frontend.parse",
    "frontend.unparse.busy_share": "frontend.unparse",
    "oracle.check.busy_share": "oracle.check",
    "service.parent_share": "service.evaluate",
    "search.certify.busy_share": "search.certify",
    "synth.admit.busy_share": "synth.admit",
    "synth.mine.busy_share": "synth.mine",
    "synth.ladder.busy_share": "synth.ladder",
}

#: calls of a span name per traced round
CALLS = {
    "analysis.graph.calls": "analysis.graph",
    "analysis.deps.calls": "analysis.deps",
    "txn.begin.calls": "txn.begin",
    "txn.rollback.calls": "txn.rollback",
    "ir.clone.calls": "ir.clone",
    "ir.fingerprint.calls": "ir.fingerprint",
    "match.sweep.calls": "match.sweep",
    "act.calls": "act",
    "codegen.calls": "codegen",
    "frontend.parse.calls": "frontend.parse",
    "frontend.unparse.calls": "frontend.unparse",
    "oracle.check.calls": "oracle.check",
    "service.jobs": "service.submit",
    "synth.admit.calls": "synth.admit",
}

LAYERS = ("analysis", "txn", "ir", "match", "act", "driver", "codegen",
          "frontend", "oracle", "service", "search", "synth")

#: counters from the program's own stats or from call results
COUNTERS = (
    "analysis.full_rebuilds", "analysis.incremental_updates",
    "analysis.edges_recomputed", "analysis.edges_retained",
    "match.candidates_scanned", "match.tail_runs",
    "driver.applications", "driver.rollbacks", "service.failed",
    "search.evaluations", "search.executions", "search.pruned",
    "synth.screened", "synth.admitted",
)


def layer_metrics(tables, rounds: list[Round], setup: dict[str, float]):
    """Per-layer metrics per traced round, the layer table, and the
    program's own counters the smoke test checks the spans against."""
    from tracer import layer_of

    traced = len(tables)
    spans: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    values: dict[str, float] = defaultdict(float)
    for table, snapshot, _rnd in tables:
        for name, row in table.items():
            for key, value in row.items():
                spans[name][key] += value
        for key, value in snapshot.items():
            values[key] += value
    layer_table = {
        name: {key: value / traced for key, value in row.items()}
        for name, row in sorted(spans.items())
    }
    # shares compare raw times within the same rounds
    total_s = sum(rnd.seconds for _t, _v, rnd in tables)
    round_s = sum(unit_medians([rnd for _t, _v, rnd in tables]))
    untraced_s = sum(unit_medians([rnd for rnd in rounds if not rnd.traced]))

    metrics: dict[str, tuple[float, str]] = {
        "trace.round_s": (round_s, "s"),
        "trace.overhead_frac": (round_s / untraced_s - 1.0, "ratio"),
        "trace.untraced_share": (
            1.0 - _ratio(sum(row["self_s"] for row in spans.values()), total_s),
            "ratio",
        ),
    }
    for phase in ("import", "codegen", "warmup"):
        metrics[f"setup.{phase}_share"] = (
            _ratio(setup[f"{phase}_s"], setup["raw_s"]), "ratio"
        )
    for layer in LAYERS:
        self_s = sum(row["self_s"] for name, row in spans.items()
                     if layer_of(name) == layer)
        metrics[f"{layer}.self_share"] = (_ratio(self_s, total_s), "ratio")
    for metric, name in BUSY_SHARES.items():
        metrics[metric] = (_ratio(spans[name]["busy_s"], total_s), "ratio")
    for metric, name in CALLS.items():
        metrics[metric] = (spans[name]["calls"] / traced, "count")
    for name in COUNTERS:
        metrics[name] = (values[name] / traced, "count")
    lookups = values["analysis.hits"] + values["analysis.misses"]
    reuse = values["match.entries_reused"] + values["match.tail_runs"]
    metrics.update({
        "analysis.hit_frac": (_ratio(values["analysis.hits"], lookups),
                              "ratio"),
        "match.reuse_frac": (_ratio(values["match.entries_reused"], reuse),
                             "ratio"),
        "match.useful_frac": (
            _ratio(values["driver.applications"], spans["match.sweep"]["calls"]),
            "ratio",
        ),
        "service.cache_hit_frac": (
            _ratio(values["service.served"], values["service.results"]),
            "ratio",
        ),
        "service.exec_share": (_ratio(values["service.exec_s"], total_s),
                               "ratio"),
        "service.queue_wait_share": (
            _ratio(values["service.queue_wait_s"], total_s), "ratio"
        ),
        "synth.admit_frac": (
            _ratio(values["synth.admitted"], values["synth.screened"]),
            "ratio",
        ),
    })
    program_counters = {
        "service.submitted": values["service.submitted"] / traced,
        "search.backend_executions":
            values["search.backend_executions"] / traced,
    }
    return metrics, program_counters, layer_table


def summarize(rounds: list[Round], tables, workload, setup) -> dict:
    reference = signature(rounds[0].outcomes)
    failures = [
        message
        for rnd in rounds for outcome in rnd.outcomes
        for message in outcome.failures
    ]
    failed = sum(
        bool(outcome.failures) for rnd in rounds for outcome in rnd.outcomes
    )
    for index, rnd in enumerate(rounds[1:], 1):
        if signature(rnd.outcomes) != reference:
            failures.append(f"round {index} outputs differ from round 0")
    result: dict[str, object] = {
        "rounds": len(rounds),
        "round_raw_s": [rnd.seconds for rnd in rounds],
        "round_s": [rnd.calibrated() for rnd in rounds],
        "round_refs": [rnd.refs for rnd in rounds],
        "attempted": sum(len(rnd.outcomes) for rnd in rounds),
        "failed": failed,
        "failures": failures[:20],
        "correct": not failures,
        "outputs_digest": outputs_digest(rounds[0].outcomes),
        "work_unit": workload.work_unit,
        "units": [
            {"label": outcome.label, "raw_s": outcome.seconds,
             "seconds": seconds}
            for rnd in rounds
            for outcome, seconds in zip(rnd.outcomes,
                                        rnd.unit_times().values())
        ],
    }
    if tables:
        metrics, counters, layer_table = layer_metrics(tables, rounds, setup)
        result["program_counters"] = counters
        result["layers"] = layer_table
    else:
        metrics = end_to_end_metrics([r for r in rounds if not r.traced])
    result["metrics"] = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in metrics.items()
    }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"),
                        required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--t0", type=float, required=True,
                        help="epoch time at which the parent spawned us")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    before = [calibrate.sample(), calibrate.sample()]
    offset = sum(before)  # calibration is not set-up work
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer(keep_events=args.trace_out is not None)
        tracer.install()
        tracer.recording = True
    from workloads import WORKLOADS

    setup = {"import_s": time.time() - args.t0 - offset}
    workload = WORKLOADS[args.workload](args.seed, args.scale)
    try:
        workload.prepare()
        start = perf()
        workload.warm_up()
        setup["warmup_s"] = perf() - start
        setup["raw_s"] = time.time() - args.t0 - offset
        # the second start-up sample ran on a warmed-up loop
        setup_s = setup["raw_s"] * calibrate.factor(
            [before[1], calibrate.sample()]
        )
        payload: dict[str, object] = {"setup_s": setup_s,
                                      "setup_raw_s": setup["raw_s"]}
        if tracer is not None:
            setup_table = tracer.collect()
            setup["codegen_s"] = setup_table.get("codegen", {}).get(
                "busy_s", 0.0
            )
            tracer.recording = False
            tracer.uninstall()
        if args.mode != "setup":
            rounds, tables = run_rounds(workload, args.seconds, tracer)
            payload.update(summarize(rounds, tables, workload, setup))
            if tracer is not None and args.trace_out:
                Path(args.trace_out).write_text(json.dumps(
                    {"traceEvents": tracer.events, "displayTimeUnit": "ms"}
                ))
    finally:
        workload.end_round()
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
