"""GENesis benchmark runner.

Runs each workload in a fresh child process, one at a time, prints
every metric by name with its unit, and ends with one JSON line::

    python3 genesis_bench/run.py --workload scalar-pipeline --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics (set-up time is the median
of several cold set-ups); ``--trace 1`` runs alternating untraced and
traced rounds and reports the per-layer metrics, with ``--trace-out
FILE`` also writing the spans as Chrome trace-event JSON.  Without
``--workload`` every workload runs.  ``--repeat N`` runs N sets with
seeds ``seed … seed+N-1``, alternating workload order, and prints
medians and quartiles; ``--out FILE`` saves the records, and
``--compare A.json B.json`` checks B against A with the bounds in
``BENCHMARK.json``.

Exit status: 0 when every output was correct, 1 when one was wrong or a
metric regressed under ``--compare``, 2 when the benchmark could not
run (for example, no ``src/repro`` beside it).
"""

from __future__ import annotations

import argparse
import compileall
import datetime
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

WORKLOADS = ("scalar-pipeline", "catalog-suite", "search-campaign",
             "infer-campaign")

#: cold set-ups per untraced run besides the measuring child's own
SETUP_PROBES = 2

#: every child of one workload run must be done by then
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def host_info() -> dict[str, object]:
    commit = "unknown"
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "commit": commit,
        "recorded_at": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
    }


def build() -> None:
    """Byte-compile the sources into ``.bench_build`` (skips fresh files)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources at {SRC / 'repro'}")
    sys.pycache_prefix = str(BUILD / "pycache")
    for directory in (SRC, BENCH):
        if not compileall.compile_dir(str(directory), quiet=2):
            raise BenchError(f"could not byte-compile {directory}")


def child_env() -> dict[str, str]:
    # measure the default configuration: the REPRO_*_CHECK shadow modes
    # re-run whole analyses and would swamp every timing
    env = {
        key: value for key, value in os.environ.items()
        if not (key.startswith("REPRO_") and key.endswith("_CHECK"))
    }
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH", "")])
    )
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    return env


def spawn(args: list[str], deadline: float) -> dict:
    """Run one child; return its JSON payload (its last stdout line)."""
    command = [sys.executable, str(BENCH / "child.py"), *args,
               "--t0", repr(time.time())]
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=child_env(),
        cwd=ROOT, start_new_session=True,
    )
    try:
        out, _ = process.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BenchError(f"child timed out: {' '.join(args)}") from None
    finally:
        # the child's forked service workers share its process group
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise BenchError(
            f"child exited {process.returncode}: {' '.join(args)}"
        )
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full", trace_out: str | None = None) -> dict:
    deadline = time.time() + RUN_DEADLINE_S
    common = ["--workload", name, "--seed", str(seed),
              "--seconds", str(seconds), "--scale", scale]
    setups: list[float] = []
    if trace:
        extra = ["--trace-out", trace_out] if trace_out else []
        payload = spawn(common + ["--mode", "trace", *extra], deadline)
    else:
        for _ in range(SETUP_PROBES):
            setups.append(spawn(common + ["--mode", "setup"],
                                deadline)["setup_s"])
        payload = spawn(common + ["--mode", "measure"], deadline)
        setups.append(payload["setup_s"])
        payload["metrics"] = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            **payload["metrics"],
        }
    payload.update(workload=name, seed=seed, seconds=seconds,
                   trace=int(trace), scale=scale, setup_samples=setups,
                   host=host_info())
    return payload


def result_line(record: dict) -> str:
    """The result line: a JSON object with exactly these four keys."""
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    })


def print_record(record: dict) -> None:
    units = len(record["units"]) // record["rounds"]
    print(f"\n{record['workload']}  seed {record['seed']}  "
          f"{record['rounds']} round(s) of {units} unit(s)  "
          f"[work = {record['work_unit']}]")
    if record.get("layers"):
        print(f"  {'span (per traced round)':<22}{'calls':>10}"
              f"{'busy s':>10}{'self s':>10}")
        for name, row in record["layers"].items():
            print(f"  {name:<22}{row['calls']:>10.0f}"
                  f"{row['busy_s']:>10.4f}{row['self_s']:>10.4f}")
    for name, metric in record["metrics"].items():
        print(f"  {name:<30}{metric['value']:>14.6g} {metric['unit']}")
    if record["setup_samples"]:
        print(f"  (setup_s: median of {len(record['setup_samples'])} "
              "cold set-ups)")
    print(f"  outputs_digest {record['outputs_digest']}")
    verdict = "correct" if record["correct"] else "WRONG OUTPUT"
    print(f"  {verdict}: {record['attempted']} unit(s) attempted, "
          f"{record['failed']} failed")
    for failure in record["failures"]:
        print(f"    ! {failure}")


# ----------------------------------------------------------------------
# repeat and compare
# ----------------------------------------------------------------------
def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def by_metric(records: list[dict]) -> dict[tuple[str, str], list[float]]:
    table: dict[tuple[str, str], list[float]] = {}
    for record in records:
        for name, metric in record["metrics"].items():
            table.setdefault((record["workload"], name), []).append(
                metric["value"]
            )
    return table


def print_spread(records: list[dict]) -> None:
    print(f"\n{'workload':<18}{'metric':<30}{'median':>12}{'q1':>12}"
          f"{'q3':>12}{'iqr/med':>9}{'n':>4}")
    for (workload, name), values in by_metric(records).items():
        q1, median, q3 = quartiles(values)
        spread = (q3 - q1) / median if median else 0.0
        print(f"{workload:<18}{name:<30}{median:>12.6g}{q1:>12.6g}"
              f"{q3:>12.6g}{spread:>9.3f}{len(values):>4}")


def compare(base_path: str, change_path: str) -> int:
    """Check the change's medians against the base's, metric by metric.

    A metric whose base spread (quartile distance over median) exceeds
    its bound is reported unresolved unless every change run beats
    every base run.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base = by_metric(json.loads(Path(base_path).read_text())["records"])
    change = by_metric(json.loads(Path(change_path).read_text())["records"])
    regressions = 0
    print(f"{'workload':<18}{'metric':<20}{'base':>12}{'change':>12}"
          f"{'delta':>9}{'bound':>7}  verdict")
    for (workload, name), before in sorted(base.items()):
        if name not in bounds or (workload, name) not in change:
            continue
        after = change[(workload, name)]
        bound = bounds[name]["bound"]
        sign = 1.0 if bounds[name]["better"] == "lower" else -1.0
        q1, median, q3 = quartiles(before)
        new = statistics.median(after)
        worse = sign * (new - median) / median
        if all(sign * (a - b) < 0 for a in after for b in before):
            verdict = "better"
        elif median and (q3 - q1) / median > bound:
            verdict = "unresolved"
        elif worse > bound:
            verdict = "WORSE"
            regressions += 1
        else:
            verdict = "within bound"
        print(f"{workload:<18}{name:<20}{median:>12.6g}{new:>12.6g}"
              f"{-sign * worse:>+9.1%}{bound:>7.0%}  {verdict}")
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="Chrome trace file (--trace 1)")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny decks for the cross-check test")
    parser.add_argument("--repeat", type=int, default=1, metavar="N")
    parser.add_argument("--out", help="write every run record as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    names = [args.workload] if args.workload else list(WORKLOADS)
    records = []
    try:
        build()
        for index in range(args.repeat):
            order = names if index % 2 == 0 else names[::-1]
            for name in order:
                record = run_workload(
                    name, args.seed + index, args.seconds, bool(args.trace),
                    args.scale, args.trace_out,
                )
                records.append(record)
                print_record(record)
                print(result_line(record), flush=True)
    except BenchError as error:
        print(f"genesis_bench: error: {error}", file=sys.stderr)
        return 2
    if args.repeat > 1:
        print_spread(records)
    if args.out:
        Path(args.out).write_text(json.dumps({"records": records}, indent=1))
    return 0 if all(record["correct"] for record in records) else 1


if __name__ == "__main__":
    sys.exit(main())
