"""Implementation-strategy selection for Depend clauses.

The paper (Section 4) describes "two straightforward ways" to implement
membership-qualified dependence checking:

1. **members-then-deps** — "determine statements that are members and
   then check for the desired dependence";
2. **deps-then-membership** — "consider the dependences of one
   statement and check the corresponding dependent statements for
   membership".

"We found that the cost of implementing the optimizations using these
approaches varies tremendously and is not consistently better for one
method over the other.  Using heuristics, GENesis was changed to select
the least expensive method on a case by case basis."

This module is that selector.  :func:`choose_strategy` runs once per
clause at generation time; the chosen method changes the shape of the
generated code (experiment E6b compares all three policies).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.gospel.ast import (
    BoolOp,
    Cond,
    DepCond,
    DependClause,
    ElemType,
    Ref,
)
from repro.gospel.sema import ClausePlan


class StrategyPolicy(enum.Enum):
    """Generation-time policy for Depend-clause implementation."""

    HEURISTIC = "heuristic"  # the paper's cost heuristic (default)
    FORCE_MEMBERS = "members"  # always method (1)
    FORCE_DEPS = "deps"  # always method (2) when expressible


@dataclass
class ClauseStrategy:
    """The chosen implementation for one Depend clause.

    ``primary_group`` holds the dependence atoms that drive a
    deps-first implementation: a single atom, or several (an OR over
    dependence kinds with identical endpoints, enumerated as the union
    of their edge sets).
    """

    method: str  # "deps" | "members" | "check"
    primary_group: tuple[DepCond, ...] = ()
    reason: str = ""

    @property
    def primary_dep(self) -> Optional[DepCond]:
        return self.primary_group[0] if self.primary_group else None

    def __str__(self) -> str:
        return f"{self.method} ({self.reason})"


def _and_terms(cond: Optional[Cond]) -> list[Cond]:
    """Flatten the top-level AND chain of a condition."""
    if cond is None:
        return []
    if isinstance(cond, BoolOp) and cond.op == "and":
        terms: list[Cond] = []
        for term in cond.terms:
            terms.extend(_and_terms(term))
        return terms
    return [cond]


def _endpoint_names(dep: DepCond) -> set[str]:
    names = set()
    for value in (dep.src, dep.dst):
        if isinstance(value, Ref):
            names.add(value.base)
    return names


def usable_primary_groups(
    clause: DependClause, plan: ClausePlan
) -> list[tuple[DepCond, ...]]:
    """Dependence atom groups that can drive a deps-first implementation.

    A usable *atom* sits in the clause's top-level AND chain, is not a
    virtual ``fused`` dependence, and its endpoints cover every search
    variable of the clause (so enumerating its edges binds them all).
    A usable *group* is a top-level OR whose terms are all usable atoms
    with identical endpoints — implemented as the union of the terms'
    edge sets (e.g. ``flow_dep(...) OR anti_dep(...) OR out_dep(...)``).
    """
    search = set(plan.search_vars)

    def usable_atom(term: Cond) -> bool:
        if not isinstance(term, DepCond) or term.kind == "fused":
            return False
        endpoints = _endpoint_names(term)
        return not (search and not search <= endpoints)

    groups: list[tuple[DepCond, ...]] = []
    for term in _and_terms(clause.condition):
        if usable_atom(term):
            groups.append((term,))  # type: ignore[arg-type]
            continue
        if isinstance(term, BoolOp) and term.op == "or":
            atoms = term.terms
            if all(usable_atom(atom) for atom in atoms):
                endpoints = {
                    (str(atom.src), str(atom.dst))  # type: ignore[union-attr]
                    for atom in atoms
                }
                if len(endpoints) == 1:
                    groups.append(tuple(atoms))  # type: ignore[arg-type]
    return groups


def _has_bound_endpoint(dep: DepCond, plan: ClausePlan) -> bool:
    search = set(plan.search_vars)
    for value in (dep.src, dep.dst):
        if isinstance(value, Ref) and (
            value.base in plan.bound_before
            or (value.base not in search and value.attrs)
        ):
            return True
        if isinstance(value, Ref) and value.attrs:
            # attribute chains like L1.head resolve to bound loops
            return True
    return False


def choose_strategy(
    clause: DependClause,
    plan: ClausePlan,
    types: dict[str, ElemType],
    policy: StrategyPolicy = StrategyPolicy.HEURISTIC,
) -> ClauseStrategy:
    """Pick the implementation method for one Depend clause.

    The heuristic: drive from the dependence graph (method 2) when a
    usable atom has a bound endpoint (its adjacency list is short) or a
    selective direction vector (few edges match ``<``/``>`` patterns);
    otherwise enumerate members and verify dependences (method 1).
    Clauses that bind a dependence *position* must use method 2 — only
    edge enumeration produces the position.
    """
    if not plan.search_vars and not plan.new_pos_vars:
        return ClauseStrategy(method="check", reason="no free variables")

    groups = usable_primary_groups(clause, plan)
    needs_pos = any(b.pos_name is not None for b in clause.binders)

    if needs_pos:
        if not groups:
            raise ValueError(
                "a position-binding clause needs an enumerable dependence "
                f"condition (clause at line {clause.line})"
            )
        return ClauseStrategy(
            method="deps",
            primary_group=groups[0],
            reason="position capture requires edge enumeration",
        )

    if policy is StrategyPolicy.FORCE_MEMBERS or not groups:
        reason = (
            "forced members-first"
            if policy is StrategyPolicy.FORCE_MEMBERS
            else "no enumerable dependence condition"
        )
        return ClauseStrategy(method="members", reason=reason)

    if policy is StrategyPolicy.FORCE_DEPS:
        return ClauseStrategy(
            method="deps", primary_group=groups[0],
            reason="forced deps-first",
        )

    for group in groups:
        if any(_has_bound_endpoint(atom, plan) for atom in group):
            return ClauseStrategy(
                method="deps",
                primary_group=group,
                reason="dependence has a bound endpoint (short adjacency)",
            )
    # Both endpoints free: enumerating edges scans the whole dependence
    # graph per candidate clause evaluation, while membership domains
    # (loop bodies) are small — the measured winner on the suite.
    return ClauseStrategy(
        method="members",
        reason="no bound endpoint; membership domain is smaller",
    )
