"""Machine-inferred GOSpeL specifications (generated).

Produced by ``repro.synth.infer.emit_module`` from an
admission-certified inference run (``genesis infer
--emit-module``).  Every entry passed all five admission
gates: sema/codegen, dependence legality, corpus coverage,
the differential oracle, and the matcher shadow check.
Regenerate rather than hand-edit.
"""

from __future__ import annotations

INFERRED_SPECS: dict[str, str] = {}

# origin pairgen:sub_self:0; admitted at the equal rung with 5 corpus applications
INFERRED_SPECS["INF_SUB_XX"] = """\
TYPE
  Stmt: Si;
PRECOND
  Code_Pattern
    any Si: (Si.opc == sub AND type(Si.opr_1) == var AND type(Si.opr_2) == var AND type(Si.opr_3) == var AND Si.opr_2 == Si.opr_3);
  Depend
ACTION
  modify(Si.opc, assign);
  modify(Si.opr_2, 0);
  modify(Si.opr_3, none);
"""

# origin pairgen:mul_zero:1; admitted at the pinned rung with 4 corpus applications
INFERRED_SPECS["INF_MUL_X0"] = """\
TYPE
  Stmt: Si;
PRECOND
  Code_Pattern
    any Si: (Si.opc == mul AND type(Si.opr_1) == var AND type(Si.opr_2) == var AND type(Si.opr_3) == const AND Si.opr_3 == 0);
  Depend
ACTION
  modify(Si.opc, assign);
  modify(Si.opr_2, 0);
  modify(Si.opr_3, none);
"""

# origin pairgen:add_left_zero:2; admitted at the pinned rung with 4 corpus applications
INFERRED_SPECS["INF_ADD_0X"] = """\
TYPE
  Stmt: Si;
PRECOND
  Code_Pattern
    any Si: (Si.opc == add AND type(Si.opr_1) == var AND type(Si.opr_2) == const AND type(Si.opr_3) == var AND Si.opr_2 == 0);
  Depend
ACTION
  modify(Si.opc, assign);
  modify(Si.opr_2, Si.opr_3);
  modify(Si.opr_3, none);
"""

# origin pairgen:mul_left_one:3; admitted at the pinned rung with 4 corpus applications
INFERRED_SPECS["INF_MUL_1X"] = """\
TYPE
  Stmt: Si;
PRECOND
  Code_Pattern
    any Si: (Si.opc == mul AND type(Si.opr_1) == var AND type(Si.opr_2) == const AND type(Si.opr_3) == var AND Si.opr_2 == 1);
  Depend
ACTION
  modify(Si.opc, assign);
  modify(Si.opr_2, Si.opr_3);
  modify(Si.opr_3, none);
"""

# origin pairgen:mul_two:4; admitted at the pinned rung with 5 corpus applications
INFERRED_SPECS["INF_MUL_2X"] = """\
TYPE
  Stmt: Si;
PRECOND
  Code_Pattern
    any Si: (Si.opc == mul AND type(Si.opr_1) == var AND type(Si.opr_2) == const AND type(Si.opr_3) == var AND Si.opr_2 == 2);
  Depend
ACTION
  modify(Si.opc, add);
  modify(Si.opr_2, Si.opr_3);
"""

# origin pairgen:pow_zero:5; admitted at the pinned rung with 4 corpus applications
INFERRED_SPECS["INF_POW_X0"] = """\
TYPE
  Stmt: Si;
PRECOND
  Code_Pattern
    any Si: (Si.opc == pow AND type(Si.opr_1) == var AND type(Si.opr_2) == var AND type(Si.opr_3) == const AND Si.opr_3 == 0);
  Depend
ACTION
  modify(Si.opc, assign);
  modify(Si.opr_2, 1);
  modify(Si.opr_3, none);
"""

# origin pairgen:self_copy:6; admitted at the equal rung with 4 corpus applications
INFERRED_SPECS["INF_DEL_ASSIGN_X"] = """\
TYPE
  Stmt: Si;
PRECOND
  Code_Pattern
    any Si: (Si.opc == assign AND type(Si.opr_1) == var AND type(Si.opr_2) == var AND Si.opr_1 == Si.opr_2);
  Depend
ACTION
  delete(Si);
"""

# origin trace:ALG; admitted at the pinned rung with 4 corpus applications
INFERRED_SPECS["INF_SUB_40"] = """\
TYPE
  Stmt: Si;
PRECOND
  Code_Pattern
    any Si: (Si.opc == sub AND type(Si.opr_1) == var AND type(Si.opr_2) == const AND type(Si.opr_3) == const AND Si.opr_2 == 4 AND Si.opr_3 == 0);
  Depend
ACTION
  modify(Si.opc, assign);
  modify(Si.opr_3, none);
"""

# origin trace:ALG; admitted at the pinned rung with 4 corpus applications
INFERRED_SPECS["INF_SUB_X0"] = """\
TYPE
  Stmt: Si;
PRECOND
  Code_Pattern
    any Si: (Si.opc == sub AND type(Si.opr_1) == var AND type(Si.opr_2) == var AND type(Si.opr_3) == const AND Si.opr_3 == 0);
  Depend
ACTION
  modify(Si.opc, assign);
  modify(Si.opr_3, none);
"""
