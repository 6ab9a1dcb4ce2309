"""Live-variable analysis for scalars.

Used by the hand-coded dead-code-elimination baseline and by tests that
cross-check the GOSpeL flow-dependence formulation of deadness against
classical liveness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.cfg import CFG, build_cfg
from repro.analysis.dataflow import DataflowResult, bits_to_indices, solve_backward
from repro.ir.program import Program


@dataclass
class Liveness:
    """Live-variable solution with the variable numbering used."""

    cfg: CFG
    variables: list[str]
    var_index: dict[str, int]
    result: DataflowResult

    def live_in(self, position: int) -> frozenset[str]:
        """Variables live on entry to the quad at ``position``."""
        bits = self.result.in_bits(position)
        return frozenset(self.variables[i] for i in bits_to_indices(bits))

    def is_live_out(self, position: int, var: str) -> bool:
        index = self.var_index.get(var)
        if index is None:
            return False
        return bool(self.result.out_bits(position) & (1 << index))


def compute_liveness(
    program: Program, cfg: Optional[CFG] = None
) -> Liveness:
    """Run backward may liveness over the scalar variables."""
    if cfg is None:
        cfg = build_cfg(program)

    variables = sorted(program.scalar_names())
    var_index = {name: i for i, name in enumerate(variables)}

    size = len(program)
    gen = [0] * size  # uses
    kill = [0] * size  # defs
    for position, quad in enumerate(program):
        use_bits = 0
        for name in quad.used_scalar_names():
            use_bits |= 1 << var_index[name]
        gen[position] = use_bits
        defined = quad.defined_scalar()
        if defined is not None:
            kill[position] = 1 << var_index[defined]

    result = solve_backward(cfg, gen, kill, may=True)
    return Liveness(cfg=cfg, variables=variables, var_index=var_index,
                    result=result)
