"""Unit tests for the standard driver (paper Figure 5)."""

import pytest

from repro.frontend.lower import parse_program
from repro.genesis.driver import (
    DriverOptions,
    apply_at_point,
    find_application_points,
    run_optimizer,
)
from repro.ir.printer import format_program

SOURCE = """
program t
  integer a, b, c, d
  a = 1
  b = a + 2
  c = a + 3
  d = b + c
  write d
end
"""

#: two definitions of ``x`` reach its use: CTP's ``no`` clause refuses
TWO_DEFS = """
program t
  integer x, y
  x = 1
  if (y > 0) then
    x = 2
  end if
  y = x
  write y
end
"""


@pytest.fixture()
def program():
    return parse_program(SOURCE)


class TestFindPoints:
    def test_points_without_applying(self, optimizers, program):
        before = format_program(program)
        points = find_application_points(optimizers["CTP"], program)
        assert len(points) == 2  # a's two uses
        assert format_program(program) == before

    def test_points_carry_bindings(self, optimizers, program):
        points = find_application_points(optimizers["CTP"], program)
        assert all({"Si", "Sj", "pos"} <= set(p) for p in points)

    def test_limit(self, optimizers, program):
        points = find_application_points(
            optimizers["CTP"], program, limit=1
        )
        assert len(points) == 1


class TestRunOptimizer:
    def test_apply_once(self, optimizers, program):
        result = run_optimizer(optimizers["CTP"], program)
        assert result.applied == 1

    def test_apply_all_reaches_fixpoint(self, optimizers, program):
        result = run_optimizer(
            optimizers["CTP"], program, DriverOptions(apply_all=True)
        )
        assert result.applied == 2
        assert "a + 2" not in format_program(program)
        assert "1 + 2" in format_program(program)

    def test_enabling_chain_within_one_optimizer(self, optimizers):
        # propagating x=1 into y:=x makes y:=1 constant, enabling more CTP
        chain = parse_program(
            """
            program t
              integer x, y, z
              x = 1
              y = x
              z = y
              write z
            end
            """
        )
        result = run_optimizer(
            optimizers["CTP"], chain, DriverOptions(apply_all=True)
        )
        assert result.applied == 3  # y:=x, z:=y, write z all chase the chain

    def test_max_applications_bound(self, optimizers, program):
        result = run_optimizer(
            optimizers["CTP"], program,
            DriverOptions(apply_all=True, max_applications=1),
        )
        assert result.applied == 1

    def test_counters_accumulate(self, optimizers, program):
        result = run_optimizer(
            optimizers["CTP"], program, DriverOptions(apply_all=True)
        )
        assert result.counters.pattern_checks > 0
        assert result.counters.action_ops == result.applied
        assert result.counters.total() > result.counters.action_ops

    def test_stale_graph_mode_still_terminates(self, optimizers, program):
        result = run_optimizer(
            optimizers["CTP"], program,
            DriverOptions(apply_all=True, recompute_dependences=False),
        )
        assert result.applied >= 1

    def test_result_str(self, optimizers, program):
        result = run_optimizer(optimizers["CTP"], program)
        assert "CTP" in str(result)


class TestApplyAtPoint:
    def test_selects_nth_point(self, optimizers, program):
        result = apply_at_point(optimizers["CTP"], program, 1)
        assert result.applied == 1
        text = format_program(program)
        assert "a + 2" in text  # first point untouched
        assert "1 + 3" in text  # second point applied

    @pytest.mark.parametrize("propagated", [False, True])
    @pytest.mark.parametrize(
        "name", ["newton", "jacobian", "tridiag", "ordering"]
    )
    def test_nth_point_is_nth_listed_point(
        self, optimizers, suite_by_name, name, propagated
    ):
        """Point N of ``apply_at_point`` is point N of
        ``find_application_points``, for every standard spec; the
        CTP-propagated programs expose the CFO/DCE/LUR points."""
        program = suite_by_name[name].load()
        if propagated:
            run_optimizer(
                optimizers["CTP"], program, DriverOptions(apply_all=True)
            )
        for opt_name, optimizer in optimizers.items():
            points = find_application_points(optimizer, program)
            for index, point in enumerate(points):
                result = apply_at_point(optimizer, program.clone(), index)
                assert result.applied == 1, (opt_name, index)
                assert result.applications[0].bindings == point, (
                    opt_name, index
                )

    def test_out_of_range_is_noop(self, optimizers, program):
        before = format_program(program)
        result = apply_at_point(optimizers["CTP"], program, 99)
        assert result.applied == 0
        assert format_program(program) == before

    @pytest.mark.parametrize("enforce", [True, False])
    @pytest.mark.parametrize("index", [-1, -2])
    @pytest.mark.parametrize(
        "source", [SOURCE, TWO_DEFS], ids=["SOURCE", "TWO_DEFS"]
    )
    def test_negative_index_is_noop(
        self, optimizers, source, index, enforce
    ):
        """A negative index names no point, with or without points
        (TWO_DEFS has none under enforced restrictions) and under
        override; it never wraps around to the end of the listing."""
        program = parse_program(source)
        before = format_program(program)
        result = apply_at_point(
            optimizers["CTP"], program, index,
            options=DriverOptions(enforce_restrictions=enforce),
        )
        assert not result.applications and not result.failures
        assert format_program(program) == before

    def test_restrictions_come_from_options(self, optimizers):
        enforced = apply_at_point(
            optimizers["CTP"], parse_program(TWO_DEFS), 0,
            options=DriverOptions(),
        )
        assert enforced.applied == 0
        overridden = apply_at_point(
            optimizers["CTP"], parse_program(TWO_DEFS), 0,
            options=DriverOptions(enforce_restrictions=False),
        )
        assert overridden.applied == 1


class TestOverrideRestrictions:
    def test_override_ignores_no_clauses(self, optimizers):
        # two defs reach the use: CTP normally refuses
        program = parse_program(
            """
            program t
              integer x, y
              x = 1
              if (y > 0) then
                x = 2
              end if
              y = x
              write y
            end
            """
        )
        assert find_application_points(optimizers["CTP"], program) == []
        forced = find_application_points(
            optimizers["CTP"], program, enforce_restrictions=False
        )
        assert forced  # the user may override (and take the blame)

    def test_override_application(self, optimizers):
        program = parse_program(TWO_DEFS)
        result = apply_at_point(
            optimizers["CTP"], program, 0,
            options=DriverOptions(enforce_restrictions=False),
        )
        assert result.applied == 1
