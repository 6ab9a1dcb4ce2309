"""Unit tests for the code generator's emitted source (paper Figure 6)."""

import pytest

from repro.genesis.codegen import CodegenError, generate_source
from repro.genesis.strategy import StrategyPolicy
from repro.gospel.parser import parse_spec
from repro.gospel.sema import analyze_spec
from repro.opts.specs import CTP, INX, LUR, STANDARD_SPECS


def emit(source, name="OPT", policy=StrategyPolicy.HEURISTIC):
    return generate_source(analyze_spec(parse_spec(source, name=name)),
                           policy=policy)


class TestStructure:
    def test_four_procedures_and_call_interface(self):
        generated = emit(CTP, name="CTP")
        for procedure in ("set_up_CTP", "match_CTP", "pre_CTP", "act_CTP",
                          "set_up_OPT", "match_OPT", "pre_OPT", "act_OPT"):
            assert f"def {procedure}(ctx):" in generated.source

    def test_set_up_declares_stlp_entries(self):
        generated = emit(CTP, name="CTP")
        assert "ctx.declare('Si', 'Stmt')" in generated.source
        assert "ctx.declare('Sl', 'Stmt')" in generated.source

    def test_match_enumerates_statements(self):
        generated = emit(CTP, name="CTP")
        # the seed scan carries a shape hint derived from the clause
        # format: an engine sweep counts only constant-RHS assignments
        assert "lib.statements(ctx, shape=('assign:const',))" in (
            generated.source
        )
        assert "ctx.bind('Si'" in generated.source

    def test_pattern_checks_use_compare(self):
        generated = emit(CTP, name="CTP")
        assert "lib.compare(ctx, '=='" in generated.source

    def test_pre_binds_position(self):
        generated = emit(CTP, name="CTP")
        assert "PosBinding(_edge.dst_pos, _edge.var)" in generated.source

    def test_pos_unification_filter(self):
        generated = emit(CTP, name="CTP")
        assert "_pb = ctx.get('pos')" in generated.source
        assert "_edge.dst_pos == _pb.pos" in generated.source

    def test_no_clause_guarded_by_restrictions_flag(self):
        generated = emit(CTP, name="CTP")
        assert "ctx.enforce_restrictions" in generated.source

    def test_source_compiles(self):
        generated = emit(CTP, name="CTP")
        compile(generated.source, "<test>", "exec")

    def test_every_catalog_spec_compiles(self):
        for name, source in STANDARD_SPECS.items():
            generated = emit(source, name=name)
            compile(generated.source, "<test>", "exec")

    def test_sanitized_names(self):
        generated = emit(CTP, name="my-opt 1")
        assert "def set_up_my_opt_1(ctx):" in generated.source

    def test_numeric_leading_name(self):
        generated = emit(CTP, name="1CTP")
        assert "def set_up_OPT_1CTP" in generated.source


class TestPairsAndLoops:
    def test_tight_pair_enumeration(self):
        generated = emit(INX, name="INX")
        assert "lib.tight_loop_pairs(ctx)" in generated.source
        assert "ctx.bind('L1', _pair0[0])" in generated.source
        assert "ctx.bind('L2', _pair0[1])" in generated.source

    def test_chained_pair_filters_on_bound_element(self):
        generated = emit(STANDARD_SPECS["CRC"], name="CRC")
        assert "_pair1[0].head != ctx.get_qid('L2')" in generated.source

    def test_anchored_dependence_queries(self):
        generated = emit(INX, name="INX")
        assert "anchor=ctx.get('L2')" in generated.source


class TestStrategies:
    def test_forced_members_uses_domain_loops(self):
        generated = emit(INX, name="INX", policy=StrategyPolicy.FORCE_MEMBERS)
        methods = [s.method for s in generated.strategies]
        assert "members" in methods
        assert "lib.loop_body(ctx, ctx.get_qid('L2'))" in generated.source

    def test_forced_deps_uses_edge_union(self):
        generated = emit(INX, name="INX", policy=StrategyPolicy.FORCE_DEPS)
        assert "lib.dep_candidates(ctx," in generated.source

    def test_strategy_metadata_recorded(self):
        generated = emit(CTP, name="CTP")
        assert len(generated.strategies) == 2
        assert all(s.method == "deps" for s in generated.strategies)


class TestActions:
    def test_delete_compiles(self):
        generated = emit(STANDARD_SPECS["DCE"], name="DCE")
        assert "lib.act_delete(ctx, ctx.get('Si'))" in generated.source

    def test_modify_attr_compiles(self):
        generated = emit(STANDARD_SPECS["PAR"], name="PAR")
        assert "lib.act_modify_attr(ctx," in generated.source
        assert "'doall'" in generated.source

    def test_forall_range_and_block_copy(self):
        generated = emit(LUR, name="LUR")
        assert "lib.range_values(ctx," in generated.source
        assert "lib.act_copy(ctx," in generated.source
        assert "lib.uses_in(ctx," in generated.source

    def test_add_template(self):
        generated = emit(STANDARD_SPECS["BMP"], name="BMP")
        assert "lib.build_stmt(ctx, ctx.fresh_temp(), 'add'" in (
            generated.source
        )
        assert "lib.act_add(ctx," in generated.source

    def test_arithmetic_in_action_values(self):
        generated = emit(STANDARD_SPECS["BMP"], name="BMP")
        assert "lib.arith(ctx, '-'" in generated.source

    def test_where_clause_compiles(self):
        generated = emit(STANDARD_SPECS["BMP"], name="BMP")
        assert "if not (lib.compare(ctx, '!='" in generated.source


class TestErrors:
    def test_all_with_multiple_vars_rejected(self):
        source = """
        TYPE
          Stmt: Si, Sm, Sn;
        PRECOND
          Code_Pattern
            any Si;
          Depend
            all Sm, Sn: flow_dep(Sm, Sn);
        ACTION
          delete(Si);
        """
        with pytest.raises(CodegenError):
            emit(source)

    def test_modify_of_unmodifiable_attribute(self):
        source = """
        TYPE
          Stmt: Si;
        PRECOND
          Code_Pattern
            any Si;
          Depend
        ACTION
          modify(Si.next, Si.opr_2);
        """
        with pytest.raises(CodegenError):
            emit(source)
