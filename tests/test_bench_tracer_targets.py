"""Every name the benchmark's tracer patches exists in the program.

``genesis_bench/tracer.py`` times layers from outside: it looks each
entry of ``SPAN_TARGETS`` and ``STATS_TARGETS`` up by name and swaps it
for a wrapper, and it hands ``GeneratedOptimizer`` a descriptor for
``act``.  A rename under ``src/`` would otherwise surface only when the
benchmark runs.  This test loads the tracer by path (it is not a
package module), reads its tables and constructs no ``Tracer``.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "genesis_bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracer = _load_tracer()

#: (module, attribute) of every patched name, as the tracer spells it
TARGETS = sorted({
    (module, attr)
    for _name, module, attr in _tracer.SPAN_TARGETS + _tracer.STATS_TARGETS
})


@pytest.mark.parametrize(
    "module_name, attr", TARGETS, ids=[f"{m}:{a}" for m, a in TARGETS]
)
def test_target_exists(module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        # the tracer reads the class's own ``__dict__``: an inherited
        # method would not be found there
        assert method in vars(getattr(module, cls_name))
    else:
        assert hasattr(module, attr)


def test_act_is_an_instance_field_of_generated_optimizer():
    generator = importlib.import_module("repro.genesis.generator")
    fields = {field.name for field in dataclasses.fields(
        generator.GeneratedOptimizer
    )}
    assert "act" in fields
