"""Building the standard optimizer set from the specification catalog."""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from repro.genesis.generator import GeneratedOptimizer, generate_optimizer
from repro.genesis.strategy import StrategyPolicy
from repro.opts.extended import EXTENDED_SPECS
from repro.opts.inferred import INFERRED_SPECS
from repro.opts.specs import STANDARD_SPECS, VARIANT_SPECS


def spec_source(name: str) -> str:
    """The GOSpeL source of a catalog optimization, by name.

    The one catalog lookup (standard, extended, inferred and variant
    specs); an unknown name raises ``KeyError`` listing the catalog.
    """
    catalogs = (STANDARD_SPECS, EXTENDED_SPECS, INFERRED_SPECS, VARIANT_SPECS)
    for specs in catalogs:
        if name in specs:
            return specs[name]
    raise KeyError(
        f"unknown optimization {name!r}; catalog has "
        f"{[known for specs in catalogs for known in sorted(specs)]}"
    )


def build_optimizer(
    name: str,
    policy: StrategyPolicy = StrategyPolicy.HEURISTIC,
) -> GeneratedOptimizer:
    """Generate one optimizer from the standard catalog by name."""
    return generate_optimizer(spec_source(name), name=name, policy=policy)


@lru_cache(maxsize=None)
def _cached(name: str, policy: StrategyPolicy) -> GeneratedOptimizer:
    return build_optimizer(name, policy)


def standard_optimizers(
    names: Optional[tuple[str, ...]] = None,
    policy: StrategyPolicy = StrategyPolicy.HEURISTIC,
) -> dict[str, GeneratedOptimizer]:
    """Generate (and cache) catalog optimizers by name.

    ``names`` may be any catalog name (standard, extended, inferred or
    variant, see :func:`spec_source`); by default, every standard
    optimizer.  Each (name, policy) is generated once per process.
    Generated optimizers are stateless between runs — all per-run state
    lives in the :class:`~repro.genesis.library.MatchContext` — so one
    generated instance is safely shared across programs and sessions.
    """
    selected = names if names is not None else tuple(sorted(STANDARD_SPECS))
    return {name: _cached(name, policy) for name in selected}
