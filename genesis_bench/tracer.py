"""Per-layer timing, installed from outside the program under test.

Nothing under ``src/`` knows it is being timed: :class:`Tracer` swaps
each layer's public entry points for timing wrappers and swaps the
originals back afterwards.

* Methods are patched on their class.
* Module functions are patched at every binding site: every loaded
  module whose namespace holds the original function object (for
  example ``parse_program``, which ``repro.workloads.suite``,
  ``repro.search.engine`` and others import by name) gets the wrapper.
  Installing and uninstalling both rescan ``sys.modules``, so modules
  imported in between are covered too.
* ``GeneratedOptimizer.act`` is an instance attribute, so the class
  gets a data descriptor that hands out a timed wrapper of each
  instance's own ``act``.

A wrapper records a span (name, start, end, parent span, unit id) in
memory while :attr:`Tracer.recording` is set and is a plain
pass-through otherwise.  Forked service workers stop recording at
fork: they are measured from the ``JobResult`` objects the parent
collects instead.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

perf = time.perf_counter

#: (span name, module, attribute).  Several attributes may share a
#: span name; nested spans of one name count once towards its busy
#: time.
SPAN_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("analysis.graph", "repro.analysis.manager", "AnalysisManager.graph"),
    ("analysis.deps", "repro.analysis.dependence", "DependenceAnalyzer.analyze"),
    ("analysis.splice", "repro.analysis.graph", "DependenceGraph.spliced"),
    ("analysis.cfg", "repro.analysis.cfg", "build_cfg"),
    ("analysis.structure", "repro.ir.loops", "StructureTable.__init__"),
    ("txn.begin", "repro.genesis.transaction", "ProgramTransaction.begin"),
    ("txn.rollback", "repro.genesis.transaction", "ProgramTransaction.rollback"),
    ("ir.clone", "repro.ir.program", "Program.clone"),
    ("ir.fingerprint", "repro.ir.program", "Program.fingerprint"),
    ("match.sweep", "repro.genesis.matching", "MatchEngine.sweep"),
    ("match.sweep", "repro.genesis.matching", "MatchEngine.network_sweep"),
    ("match.sweep", "repro.genesis.matching", "MatchEngine.sweep_all"),
    ("driver", "repro.genesis.driver", "run_optimizer"),
    ("codegen", "repro.genesis.generator", "generate_optimizer"),
    ("frontend.parse", "repro.frontend.lower", "parse_program"),
    ("frontend.unparse", "repro.frontend.unparse", "unparse_program"),
    ("oracle.check", "repro.verify.oracle", "EquivalenceOracle.check"),
    ("service.submit", "repro.service.client", "ServiceClient.submit"),
    ("service.wait", "repro.service.client", "ServiceClient.wait"),
    ("service.evaluate", "repro.search.space", "ServiceEvaluator.evaluate"),
    ("search.program", "repro.search.engine", "search_program"),
    ("search.certify", "repro.search.engine", "certify"),
    ("synth.infer", "repro.synth.infer", "run_inference"),
    ("synth.admit", "repro.synth.admit", "AdmissionPipeline.evaluate"),
    ("synth.mine", "repro.synth.mine", "mine_pairs"),
    ("synth.mine", "repro.synth.mine", "mine_fuzz_corpus"),
    ("synth.ladder", "repro.synth.generalize", "ladder"),
)

#: constructors whose new instance's ``stats`` object is registered, so
#: the program's own counters can be summed per round (no span)
STATS_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("analysis", "repro.analysis.manager", "AnalysisManager.__init__"),
    ("match", "repro.genesis.matching", "MatchEngine.__init__"),
    ("service", "repro.service.client", "ServiceClient.__init__"),
)

ACT_SPAN = "act"


def layer_of(span_name: str) -> str:
    """``analysis.graph`` -> ``analysis``; ``driver`` -> ``driver``."""
    return span_name.split(".", 1)[0]


class Tracer:
    """Installs the wrappers and keeps one round's spans and counters."""

    def __init__(self, keep_events: bool = False):
        self.recording = False
        #: unit id stamped on every span ("setup", or "<round>:<unit>")
        self.unit = "setup"
        self.keep_events = keep_events
        #: Chrome trace events of every recorded span (keep_events only)
        self.events: list[dict] = []
        self.origin = perf()
        self._wrappers: dict[object, object] = {}  # original -> wrapper
        self._class_patches: list[tuple[type, str, object, object]] = []
        self._act_class = None
        self._installed = False
        self.reset()
        os.register_at_fork(after_in_child=self._stop_in_child)

    # ------------------------------------------------------------------
    # per-round state
    # ------------------------------------------------------------------
    def reset(self) -> None:
        #: [name, start, end, parent index, unit, outermost-of-its-name]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        #: values taken from results of wrapped calls
        self.counts: dict[str, float] = defaultdict(float)
        #: JobResults collected by the ServiceClient.wait wrapper
        self.jobs: list[object] = []
        #: program-owned stats objects created while recording
        self.stats: dict[str, list[object]] = defaultdict(list)

    def _stop_in_child(self) -> None:
        self.recording = False

    # ------------------------------------------------------------------
    # the timing wrapper
    # ------------------------------------------------------------------
    def _timed(self, name: str, fn: Callable, post=None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            spans = tracer.spans
            stack = tracer._stack
            opened = tracer._open
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                      tracer.unit, opened[name] == 0]
            spans.append(record)
            stack.append(index)
            opened[name] += 1
            record[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf()
                opened[name] -= 1
                stack.pop()
            if post is not None:
                post(tracer, args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def _registering(self, kind: str, fn: Callable) -> Callable:
        tracer = self

        def wrapper(instance, *args, **kwargs):
            fn(instance, *args, **kwargs)
            if tracer.recording:
                tracer.stats[kind].append(instance.stats)

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------
    def install(self) -> None:
        if self._installed:
            return
        if not self._wrappers:
            self._build()
        for owner, attr, original, wrapper in self._class_patches:
            setattr(owner, attr, wrapper)
        self._rebind(self._wrappers)
        setattr(self._act_class, "act", _TimedAct(self))
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        for owner, attr, original, wrapper in self._class_patches:
            setattr(owner, attr, original)
        self._rebind({w: o for o, w in self._wrappers.items()})
        delattr(self._act_class, "act")
        self._installed = False

    def _build(self) -> None:
        hooks = _POST_HOOKS
        for name, module_name, attr in SPAN_TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                post = hooks.get((name, attr))
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._timed(name, raw.__func__, post))
                else:
                    wrapped = self._timed(name, raw, post)
                self._class_patches.append((cls, method, raw, wrapped))
            else:
                original = getattr(module, attr)
                self._wrappers[original] = self._timed(
                    name, original, hooks.get((name, attr))
                )
        for kind, module_name, attr in STATS_TARGETS:
            cls_name, method = attr.split(".")
            cls = getattr(importlib.import_module(module_name), cls_name)
            raw = cls.__dict__[method]
            self._class_patches.append(
                (cls, method, raw, self._registering(kind, raw))
            )
        generator = importlib.import_module("repro.genesis.generator")
        self._act_class = generator.GeneratedOptimizer

    @staticmethod
    def _rebind(mapping: dict) -> None:
        """Replace every module-level binding of a key by its value."""
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                try:
                    replacement = mapping.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if replacement is not None:
                    namespace[attr] = replacement

    # ------------------------------------------------------------------
    # one round's summary
    # ------------------------------------------------------------------
    def collect(self) -> dict[str, dict[str, float]]:
        """calls / busy / self seconds per span name for this round.

        Busy time counts only the outermost span of each name, so a
        ``sweep`` nested inside ``network_sweep`` is not counted twice.
        Self time is a span's duration minus its direct children's.
        """
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _unit, _outer in self.spans:
            if parent >= 0:
                children[parent] += end - start
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        for index, (name, start, end, _p, unit, outer) in enumerate(self.spans):
            row = table[name]
            row["calls"] += 1
            if outer:
                row["busy_s"] += end - start
            row["self_s"] += (end - start) - children[index]
        if self.keep_events:
            pid = os.getpid()
            for name, start, end, _parent, unit, _outer in self.spans:
                self.events.append({
                    "name": name,
                    "cat": layer_of(name),
                    "ph": "X",
                    "ts": round((start - self.origin) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "pid": pid,
                    "tid": 0,
                    "args": {"unit": unit},
                })
        return dict(table)


class _TimedAct:
    """Data descriptor standing in for ``GeneratedOptimizer.act``.

    The dataclass ``__init__`` stores ``act`` through ``__set__``; reads
    return a timed wrapper around the instance's own function.  Being a
    data descriptor it also shadows instances created before install.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        return self.tracer._timed(ACT_SPAN, instance.__dict__["act"])

    def __set__(self, instance, value) -> None:
        instance.__dict__["act"] = value


# ----------------------------------------------------------------------
# values read from the results of wrapped calls
# ----------------------------------------------------------------------
def _driver_result(tracer: Tracer, _args, result) -> None:
    tracer.counts["driver.applications"] += result.applied
    tracer.counts["driver.rollbacks"] += result.rollbacks


def _job_result(tracer: Tracer, _args, result) -> None:
    tracer.jobs.append(result)


def _search_result(tracer: Tracer, _args, result) -> None:
    tracer.counts["search.evaluations"] += result.evaluator.evaluations
    tracer.counts["search.pruned"] += result.pruned
    tracer.counts["search.backend_executions"] += result.backend_executions


def _inference_result(tracer: Tracer, _args, result) -> None:
    tracer.counts["synth.screened"] += result.screened
    tracer.counts["synth.admitted"] += len(result.admitted)


_POST_HOOKS: dict[tuple[str, str], Optional[Callable]] = {
    ("driver", "run_optimizer"): _driver_result,
    ("service.wait", "ServiceClient.wait"): _job_result,
    ("search.program", "search_program"): _search_result,
    ("synth.infer", "run_inference"): _inference_result,
}
