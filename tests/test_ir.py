"""Core IR construction, verification, and printing."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgegen import dialects, einsum, fir, interp, ir
from bridgegen.ir import (
    ArrayAttr,
    FloatAttr,
    FunctionType,
    IndexMapAttr,
    IntAttr,
    IrBlock,
    IrError,
    IrModule,
    IrOperation,
    IrRegion,
    StringAttr,
    Successor,
    SymbolAttr,
    create_op,
    print_module,
    verify_module,
)
from conftest import (
    SIGMOID_FIR,
    func_region,
    ill_typed_yield,
    new_func,
    run_pipeline,
    walk_ops,
)


class TestTypes:
    def test_structural_equality(self):
        assert ir.IntType(64) == ir.I64
        assert ir.TensorType(ir.F32, (None, None)) == ir.TensorType(ir.F32, (None, None))
        assert ir.TensorType(ir.F32, (None,)) != ir.TensorType(ir.F64, (None,))

    def test_int_width_restricted(self):
        with pytest.raises(IrError):
            ir.IntType(7)

    def test_rank_matches_dims(self):
        t = ir.TensorType(ir.F32, (2, None, 4))
        assert t.rank == 3

    def test_print_forms(self):
        assert str(ir.F32) == "f32"
        assert str(ir.IntType(1)) == "i1"
        assert str(ir.INDEX) == "index"
        assert str(ir.TensorType(ir.F32, (None, None))) == "tensor<?x?xf32>"
        assert str(ir.MemRefType(ir.F64, (8,))) == "memref<8xf64>"
        assert ir.print_type(FunctionType((ir.F32,), (ir.F32,))) == "(f32) -> f32"
        assert ir.print_type(FunctionType((), (ir.F32, ir.F32))) == "() -> (f32, f32)"


class TestAttributes:
    def test_float_attr_requires_float_type(self):
        with pytest.raises(IrError):
            FloatAttr(1.0, ir.I64)

    def test_index_map_positions_checked(self):
        with pytest.raises(IrError):
            IndexMapAttr(2, (0, 2))

    def test_printing(self):
        assert ir.print_attribute(FloatAttr(1.0, ir.F32)) == "1.0"
        assert ir.print_attribute(FloatAttr(0.5, ir.F64)) == "0.5"
        assert ir.print_attribute(IntAttr(1, ir.IntType(1))) == "true"
        assert ir.print_attribute(IntAttr(-3, ir.I64)) == "-3"
        assert ir.print_attribute(StringAttr("sge")) == '"sge"'
        assert (ir.print_attribute(IndexMapAttr(3, (0, 2)))
                == "affine_map<(d0, d1, d2) -> (d0, d2)>")
        assert (ir.print_attribute(ArrayAttr((StringAttr("parallel"),)))
                == '["parallel"]')

    def test_float_formatting_no_exponent(self):
        assert ir.format_float(1.0, ir.F32) == "1.0"
        assert ir.format_float(1e20, ir.F32) == "100000000000000000000.0"
        assert ir.format_float(0.1, ir.F32) == "0.1"

    def test_non_finite_floats_print_as_hex_bits(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning
            assert ir.format_float(1e39, ir.F32) == "0x7F800000"
            assert ir.format_float(-1e39, ir.F32) == "0xFF800000"
            assert ir.format_float(math.inf, ir.F32) == "0x7F800000"
            assert ir.format_float(-math.inf, ir.F64) == "0xFFF0000000000000"
            assert ir.format_float(math.inf, ir.F64) == "0x7FF0000000000000"
            assert ir.format_float(math.nan, ir.F32) == "0x7FC00000"
            assert ir.format_float(-math.nan, ir.F64) == "0xFFF8000000000000"
            # the largest f32 and values rounding to it stay decimal
            big = float(np.finfo(np.float32).max)
            nearly = big * (1 + 2 ** -30)
            assert ir.format_float(nearly, ir.F32) == ir.format_float(big, ir.F32)
            assert ir.format_float(1e300, ir.F64).endswith(".0")

    def test_float_formatting_matches_numpy_shortest(self):
        # every power of two and its neighbours within 3 ulp, where the
        # rounding interval is lopsided, plus random bit patterns
        rng = np.random.default_rng(7)
        for ftype, dtype, bits, exps in ((ir.F32, np.float32, np.uint32, range(-149, 128)),
                                         (ir.F64, np.float64, np.uint64, range(-1074, 1024))):
            powers = np.ldexp(dtype(1), np.array(exps)).astype(dtype).view(bits)
            near = (powers[:, None].astype(np.int64) + np.arange(-3, 4)).ravel()
            near = near[near >= 0].astype(bits)
            rand = rng.integers(0, np.iinfo(bits).max, 5000, dtype=bits, endpoint=True)
            for v in np.concatenate([near, rand]).view(dtype):
                if not np.isfinite(v):
                    continue
                want = np.format_float_positional(v, unique=True)
                want += "0" if want.endswith(".") else ""
                assert ir.format_float(float(v), ftype) == want, repr(v)

    def test_to_f32_rounds_like_numpy(self):
        values = [0.1, -0.0, 1e-46, 1e-45, 3.4028235e38, 3.4028236e38, 1e39,
                  -1e39, math.inf, 2.0 ** -149 * 1.5]
        with np.errstate(over="ignore"):
            for v in values:
                assert np.float32(ir.to_f32(v)).tobytes() == np.float32(v).tobytes(), v


class TestCreateOp:
    def test_results_allocated(self):
        m = IrModule(dialects.builtin_registry())
        _, block = new_func(m)
        a = create_op(m, "arith.constant", [], [ir.F32],
                      {"value": FloatAttr(1.0, ir.F32)})
        op = create_op(m, "arith.addf", [a.results[0], a.results[0]], [ir.F32])
        assert op.results[0].type == ir.F32 and m.owns(op.results[0])

    def test_terminator_inferred_from_attached_registry(self):
        m = IrModule(registry=dialects.builtin_registry())
        _, block = new_func(m, "f", (ir.F32,), ())
        ret = create_op(m, "func.return", [block.arguments[0]], [])
        assert ret.is_terminator and ret.results == []

    def test_operand_from_other_module_rejected(self):
        # both modules number their values from 0, so ids cannot tell them apart
        m1, m2 = IrModule(dialects.builtin_registry()), IrModule(dialects.builtin_registry())
        _, b1 = new_func(m1, "f", (ir.F32,), (ir.F32,))
        _, b2 = new_func(m2, "g", (ir.F32,), ())
        foreign, own = b1.arguments[0], b2.arguments[0]
        assert foreign.id == own.id
        assert m2.owns(own) and not m2.owns(foreign)
        m2.set_insertion(b2)
        with pytest.raises(IrError):
            create_op(m2, "arith.negf", [foreign], [ir.F32])
        with pytest.raises(IrError):
            dialects.build_op(m2, "arith.negf", [foreign])
        with pytest.raises(IrError):
            create_op(m2, "cf.br", [], [], successors=[(b2, [foreign])])

    def test_append_block_order_and_args(self):
        m = IrModule(dialects.builtin_registry())
        region, _ = new_func(m)
        b1 = m.append_block(region, [ir.I64])
        b2 = m.append_block(region, [])
        assert region.blocks[1] is b1 and region.blocks[2] is b2
        assert [a.type for a in b1.arguments] == [ir.I64]
        assert b2.arguments == []


def build_sigmoid_like(module):
    """Single-block f32 function exercising constants and arithmetic."""
    region, block = new_func(module, "f", (ir.F32,), (ir.F32,))
    cst = create_op(module, "arith.constant", [], [ir.F32],
                    {"value": FloatAttr(1.0, ir.F32)})
    add = create_op(module, "arith.addf",
                    [block.arguments[0], cst.results[0]], [ir.F32])
    create_op(module, "func.return", [add.results[0]], [], is_terminator=True)
    return module


def with_top_level_constant():
    """A module of an empty @f and, at the module's own insertion point, an
    arith.constant: an op that is not a func.func at the top level."""
    m = IrModule(dialects.builtin_registry())
    new_func(m, "f")
    create_op(m, "func.return", [], [], is_terminator=True)
    m.set_insertion(m.body.blocks[0])
    create_op(m, "arith.constant", [], [ir.F32], {"value": FloatAttr(1.0, ir.F32)})
    return m


class TestVerifier:
    def test_ok_module(self):
        m = build_sigmoid_like(IrModule(dialects.builtin_registry()))
        assert verify_module(m).ok

    def test_missing_terminator(self):
        m = IrModule(dialects.builtin_registry())
        _, block = new_func(m, "f", (ir.F32,), ())
        create_op(m, "arith.negf", [block.arguments[0]], [ir.F32])
        report = verify_module(m)
        assert "missing-terminator" in {d.category for d in report.diagnostics}

    def test_misplaced_terminator(self):
        m = IrModule(dialects.builtin_registry())
        _, block = new_func(m)
        create_op(m, "func.return", [], [], is_terminator=True)
        create_op(m, "func.return", [], [], is_terminator=True)
        assert "misplaced-terminator" in {d.category for d in verify_module(m).diagnostics}

    def test_dominance_violation(self):
        m = IrModule(dialects.builtin_registry())
        region, entry = new_func(m, "f", (ir.F32,), ())
        b1 = m.append_block(region, [])
        b2 = m.append_block(region, [])
        # value defined in b1 but used in b2, where b1 does not dominate b2
        m.set_insertion(entry)
        create_op(m, "cf.cond_br", [], [], successors=[(b1, []), (b2, [])])
        m.set_insertion(b1)
        v = create_op(m, "arith.constant", [], [ir.F32],
                      {"value": FloatAttr(2.0, ir.F32)})
        create_op(m, "func.return", [], [], is_terminator=True)
        m.set_insertion(b2)
        create_op(m, "arith.negf", [v.results[0]], [ir.F32])
        create_op(m, "func.return", [], [], is_terminator=True)
        report = verify_module(m)
        assert "dominance" in {d.category for d in report.diagnostics}

    def test_use_before_def_same_block(self):
        m = IrModule(dialects.builtin_registry())
        _, block = new_func(m)
        neg_first = create_op(m, "arith.negf", [], [ir.F32])
        cst = create_op(m, "arith.constant", [], [ir.F32],
                        {"value": FloatAttr(1.0, ir.F32)})
        neg_first.operands.append(cst.results[0])
        create_op(m, "func.return", [], [], is_terminator=True)
        assert "dominance" in {d.category for d in verify_module(m).diagnostics}

    def test_unreachable_predecessor_does_not_break_dominance(self):
        # an edge from a dead block must not shrink the live block's
        # dominator set
        m = IrModule(dialects.builtin_registry())
        region, entry = new_func(m)
        live = m.append_block(region, [])
        dead = m.append_block(region, [])
        m.set_insertion(entry)
        v = create_op(m, "arith.constant", [], [ir.F32],
                      {"value": FloatAttr(1.0, ir.F32)})
        create_op(m, "cf.br", [], [], successors=[(live, [])])
        m.set_insertion(live)
        create_op(m, "arith.negf", [v.results[0]], [ir.F32])
        create_op(m, "func.return", [], [], is_terminator=True)
        m.set_insertion(dead)
        create_op(m, "cf.br", [], [], successors=[(live, [])])
        assert "dominance" not in {d.category for d in verify_module(m).diagnostics}

    def test_bad_successor_wrong_region(self):
        m = IrModule(dialects.builtin_registry())
        _, b_f = new_func(m)
        _, b_g = new_func(m, "g")
        m.set_insertion(b_f)
        create_op(m, "cf.br", [], [], successors=[(b_g, [])])
        m.set_insertion(b_g)
        create_op(m, "func.return", [], [], is_terminator=True)
        assert "bad-successor" in {d.category for d in verify_module(m).diagnostics}

    def test_bad_successor_arg_mismatch(self):
        m = IrModule(dialects.builtin_registry())
        region, entry = new_func(m)
        target = m.append_block(region, [ir.I64])
        m.set_insertion(entry)
        create_op(m, "cf.br", [], [], successors=[(target, [])])
        m.set_insertion(target)
        create_op(m, "func.return", [], [], is_terminator=True)
        assert "bad-successor" in {d.category for d in verify_module(m).diagnostics}

    def test_unknown_op_with_registry(self):
        m = IrModule(registry=dialects.builtin_registry())
        _, block = new_func(m)
        create_op(m, "arith.bogus", [], [])
        create_op(m, "func.return", [], [], is_terminator=True)
        assert "unknown-op" in {d.category for d in verify_module(m).diagnostics}

    def test_arity_mismatch_with_registry(self):
        m = IrModule(registry=dialects.builtin_registry())
        _, block = new_func(m, "f", (ir.F32,), ())
        create_op(m, "arith.addf", [block.arguments[0]], [ir.F32])
        create_op(m, "func.return", [], [], is_terminator=True)
        assert "arity-mismatch" in {d.category for d in verify_module(m).diagnostics}

    @pytest.mark.parametrize("name, flag", [("arith.addf", True), ("func.return", False)])
    def test_terminator_flag_checked_against_spec(self, name, flag):
        # the block's last op, flagged against its spec, either way
        m = IrModule(registry=dialects.builtin_registry())
        _, block = new_func(m, "f", (ir.F64,), (ir.F64,))
        x = block.arguments[0]
        op = create_op(m, name, [x, x][:1 + flag], [ir.F64] * flag, is_terminator=flag)
        found = [(d.category, d.message, d.operation) for d in verify_module(m).diagnostics]
        finding = ("terminator-flag", f"is_terminator {flag} differs from its spec's "
                   f"{not flag}", op)
        assert found == ([finding] if flag else [
            ("missing-terminator", "block does not end with a terminator", None), finding])
        with pytest.raises(interp.InterpError) as info:
            interp.run_function(m, "f", [interp.F64Value(2.5)])
        assert str(info.value) == (f"[terminator-flag] at '{name}' in ^bb{block.id}: "
                                   f"{finding[1]}")

    @pytest.mark.parametrize("dialect_names", [("func", "memref"), None],
                             ids=["bare", "registry"])
    def test_memref_index_count(self, dialect_names):
        # one index per dimension of the memref, in a registry of only the
        # dialects the function uses or in the whole builtin one
        registry = dialects.builtin_registry()
        if dialect_names is not None:
            bare = dialects.DialectRegistry()
            for name in dialect_names:
                dialects.register_dialect(bare, registry.dialects[name])
            registry = bare
        buf_t = ir.MemRefType(ir.F32, (None, None))
        m = IrModule(registry)
        _, block = new_func(m, "f", (buf_t, ir.INDEX), ())
        buf, i = block.arguments
        ok = create_op(m, "memref.load", [buf, i, i], [ir.F32])
        three = create_op(m, "memref.load", [buf, i, i, i], [ir.F32])
        one = create_op(m, "memref.store", [ok.results[0], buf, i], [])
        create_op(m, "func.return", [], [], is_terminator=True)
        assert [(d.category, d.message, d.operation) for d in verify_module(m).diagnostics] == [
            ("index-count", "3 index(es) for a memref of rank 2", three),
            ("index-count", "1 index(es) for a memref of rank 2", one)]

    def test_duplicate_symbols(self):
        m = IrModule(dialects.builtin_registry())
        for _ in range(2):
            _, block = new_func(m)
            create_op(m, "func.return", [], [], is_terminator=True)
        assert "duplicate-symbol" in {d.category for d in verify_module(m).diagnostics}

    def test_return_types_checked_against_function_type(self):
        m = IrModule(dialects.builtin_registry())
        _, block = new_func(m, "f", (ir.F64,), (ir.I64,))
        create_op(m, "func.return", [block.arguments[0]], [], is_terminator=True)
        (d,) = verify_module(m).diagnostics
        assert (d.category, d.op) == ("function-type", "func.return")
        assert "(f64)" in d.message and "(i64)" in d.message

    @pytest.mark.parametrize("arg_type, result_type, bad", [
        (ir.F32, ir.F32, []),
        (ir.F64, ir.F32, ["operand"]),
        (ir.F32, ir.I64, ["result"]),
    ])
    def test_call_types_checked_against_callee(self, arg_type, result_type, bad):
        m = IrModule(dialects.builtin_registry())
        _, g = new_func(m, "g", (ir.F32,), (ir.F32,))
        create_op(m, "func.return", [g.arguments[0]], [], is_terminator=True)
        _, f = new_func(m, "f", (arg_type,), (result_type,))
        call = create_op(m, "func.call", [f.arguments[0]], [result_type],
                         {"callee": SymbolAttr("g")})
        create_op(m, "func.return", [call.results[0]], [], is_terminator=True)
        found = verify_module(m).diagnostics
        assert [d.message.split()[0] for d in found] == bad
        assert all((d.category, d.op) == ("function-type", "func.call") for d in found)

    def test_yield_types_checked_against_output(self, registry):
        (d,) = verify_module(ill_typed_yield(registry)).diagnostics
        assert (d.category, d.op) == ("yield-type", "linalg.yield")
        assert "(f64)" in d.message and "(f32)" in d.message

    def test_nested_region_findings_follow_their_op(self, registry):
        # a finding before the generic, on the generic, in its body, after it
        m = ill_typed_yield(registry)
        entry = func_region(m, "einsum").entry
        assert entry.operations.pop().name == "func.return"
        [generic] = entry.operations
        del generic.attributes["iterator_types"]
        m.set_insertion(entry)
        create_op(m, "arith.bogus", [], [])
        entry.operations.reverse()  # the bogus op first, then the generic
        create_op(m, "func.return", [], [], is_terminator=True)
        body = generic.regions[0].entry
        assert [(d.category, d.op, d.block) for d in verify_module(m).diagnostics] == [
            ("unknown-op", "arith.bogus", entry.id),
            ("missing-attr", "linalg.generic", entry.id),
            ("yield-type", "linalg.yield", body.id),
            ("function-type", "func.return", entry.id)]

    def test_collects_multiple_diagnostics(self):
        m = IrModule(registry=dialects.builtin_registry())
        _, block = new_func(m, "f", (ir.F32,), ())
        create_op(m, "arith.addf", [block.arguments[0]], [ir.F32])
        create_op(m, "arith.bogus", [], [])
        report = verify_module(m)
        assert len(report.diagnostics) >= 3  # arity, unknown, missing terminator
        assert {"arity-mismatch", "unknown-op",
                "missing-terminator"} <= {d.category for d in report.diagnostics}

    def test_top_level_op_that_is_not_a_function(self):
        assert [str(d) for d in verify_module(
            with_top_level_constant()).diagnostics] == [
            "[top-level] at 'arith.constant': arith.constant at the module's top level, "
            "which holds func.func ops only"]


@st.composite
def cfgs(draw):
    """Successor lists of a random CFG over blocks 0..n-1 (0 is the entry).

    Loops, self loops, unreachable blocks and duplicate edges all occur;
    -1 stands for a block outside the region.
    """
    n = draw(st.integers(1, 10))
    return [draw(st.lists(st.integers(-1, n - 1), max_size=4))
            for _ in range(n)]


def region_of(succs):
    region = IrRegion()
    region.blocks = [IrBlock(i) for i in range(len(succs))]
    outside = IrBlock(-1)
    for block, targets in zip(region.blocks, succs):
        edges = [Successor(outside if t < 0 else region.blocks[t], [])
                 for t in targets]
        block.operations.append(
            IrOperation("cf.br", [], [], {}, [], edges, True))
    return region


def reachable_without(succs, removed):
    if removed == 0:
        return set()
    seen, work = {0}, [0]
    while work:
        for t in succs[work.pop()]:
            if t >= 0 and t != removed and t not in seen:
                seen.add(t)
                work.append(t)
    return seen


class TestDominance:
    @settings(max_examples=300, deadline=None)
    @given(cfgs())
    def test_matches_definition(self, succs):
        # a dominates reachable b iff b is unreachable once a is removed
        region = region_of(succs)
        blocks = region.blocks
        dom = ir._dominators(region)
        reachable = reachable_without(succs, removed=None)
        assert {b.id for b in blocks if id(b) in dom} == reachable
        for a in blocks:
            cut = reachable_without(succs, a.id)
            for b in blocks:
                if b.id not in reachable:
                    continue
                outer, inner = dom.get(id(a)), dom[id(b)]
                got = (outer is not None and outer[0] <= inner[0]
                       and inner[1] <= outer[1])
                assert got == (b.id not in cut), (a.id, b.id)

    @settings(max_examples=100, deadline=None)
    @given(cfgs())
    def test_predecessors_distinct_in_first_seen_order(self, succs):
        region = region_of(succs)
        preds = ir._predecessors(region)
        for b in region.blocks:
            want = []
            for p, targets in enumerate(succs):
                if b.id in targets and p not in want:
                    want.append(p)
            assert [p.id for p in preds[id(b)]] == want

    def test_long_chain(self):
        # deep enough to overflow a recursive walk
        n = 5000
        dom = ir._dominators(region_of([[i + 1] for i in range(n - 1)] + [[]]))
        assert len(dom) == n


class TestPrinter:
    def test_empty_module(self):
        assert print_module(IrModule(dialects.builtin_registry())) == "module {\n}\n"

    def test_print_is_stable_and_side_effect_free(self):
        m = build_sigmoid_like(IrModule(dialects.builtin_registry()))
        first = print_module(m)
        second = print_module(m)
        assert first == second
        assert verify_module(m).ok

    def test_entry_label_only_in_multiblock_functions(self):
        m = build_sigmoid_like(IrModule(dialects.builtin_registry()))
        assert "^bb0" not in print_module(m)

        m2 = IrModule(dialects.builtin_registry())
        region, entry = new_func(m2, "g")
        b1 = m2.append_block(region, [])
        m2.set_insertion(entry)
        create_op(m2, "cf.br", [], [], successors=[(b1, [])])
        m2.set_insertion(b1)
        create_op(m2, "func.return", [], [], is_terminator=True)
        text = print_module(m2)
        assert "^bb0:" in text
        assert "^bb1: // pred: ^bb0" in text

    def test_value_numbering_per_symbol(self):
        m = IrModule(dialects.builtin_registry())
        for name in ("f", "g"):
            _, block = new_func(m, name, (ir.F32,), (ir.F32,))
            neg = create_op(m, "arith.negf", [block.arguments[0]], [ir.F32])
            create_op(m, "func.return", [neg.results[0]], [], is_terminator=True)
        text = print_module(m)
        assert text.count("%0 = arith.negf %arg0 : f32") == 2

    def test_constants_named_cst(self):
        m = IrModule(dialects.builtin_registry())
        _, block = new_func(m)
        create_op(m, "arith.constant", [], [ir.F32], {"value": FloatAttr(1.0, ir.F32)})
        create_op(m, "arith.constant", [], [ir.F32], {"value": FloatAttr(2.0, ir.F32)})
        create_op(m, "func.return", [], [], is_terminator=True)
        text = print_module(m)
        assert "%cst = arith.constant 1.0 : f32" in text
        assert "%cst_0 = arith.constant 2.0 : f32" in text

    def test_generic_form_prints_attributes_sorted(self):
        m = IrModule(dialects.builtin_registry())
        _, block = new_func(m, "f", (ir.I64,), ())
        create_op(m, "test.cast", block.arguments, [ir.F32],
                  {"to": ir.TypeAttr(ir.F32), "mode": StringAttr("exact")})
        create_op(m, "func.return", [], [], is_terminator=True)
        assert ('    %0 = "test.cast"(%arg0) {mode = "exact", to = f32} : (i64) -> (f32)\n'
                in print_module(m))

    def test_index_cast(self):
        m = IrModule(dialects.builtin_registry())
        _, block = new_func(m, "f", (ir.I64,), (ir.INDEX,))
        twice = create_op(m, "arith.addi", [block.arguments[0]] * 2, [ir.I64])
        cast = create_op(m, "arith.index_cast", [twice.results[0]], [ir.INDEX])
        create_op(m, "func.return", [cast.results[0]], [], is_terminator=True)
        assert "    %1 = arith.index_cast %0 : i64 to index\n" in print_module(m)

    @pytest.mark.parametrize("name, key, attr, message", [
        ("arith.cmpi", "predicate", IntAttr(1, ir.I64), "arith.cmpi: predicate "
         "IntAttr(value=1, type=IntType(width=64)) is not a StringAttr"),
        ("gpu.thread_id", "dimension", None, "gpu.thread_id: dimension None is not a "
         "StringAttr"),
        ("func.func", "sym_name", StringAttr("f"), "func.func: sym_name StringAttr(text='f') "
         "and function_type TypeAttr(type=FunctionType(inputs=(IntType(width=64), "
         "IntType(width=64)), results=())) must be a symbol and a function type, and its "
         "region must have an entry block"),
        ("func.func", "function_type", ir.TypeAttr(ir.F64), "func.func: sym_name "
         "SymbolAttr(name='f') and function_type TypeAttr(type=Float64Type()) must be a "
         "symbol and a function type, and its region must have an entry block"),
        ("func.func", None, None, "func.func: sym_name SymbolAttr(name='f') and "
         "function_type TypeAttr(type=FunctionType(inputs=(IntType(width=64), "
         "IntType(width=64)), results=())) must be a symbol and a function type, and its "
         "region must have an entry block"),
        ("func.call", "callee", None, "attribute None"),
    ], ids=["predicate", "dimension", "sym_name", "function_type", "no-entry-block",
            "callee"])
    def test_unprintable_op_is_an_ir_error(self, name, key, attr, message):
        # the verifier reports each of these; printing refuses them
        m = IrModule(dialects.builtin_registry())
        region, block = new_func(m, "f", (ir.I64, ir.I64), ())
        create_op(m, "arith.cmpi", block.arguments, [ir.I1], {"predicate": StringAttr("eq")})
        create_op(m, "gpu.thread_id", [], [ir.INDEX], {"dimension": StringAttr("x")})
        create_op(m, "func.call", [], [], {"callee": SymbolAttr("f")})
        create_op(m, "func.return", [], [], is_terminator=True)
        op = next(op for op in [m.lookup_symbol("f")] + block.operations if op.name == name)
        if key is None:
            region.blocks.clear()
        else:
            op.attributes[key] = attr
        with pytest.raises(IrError, match=f"^cannot print {re.escape(message)}$"):
            print_module(m)

    @pytest.mark.parametrize("name, part, has", [
        ("linalg.generic", "regions", "operands: 2, results: 1, successors: 0, regions: 0"),
        ("linalg.generic", "results", "operands: 2, results: 0, successors: 0, regions: 1"),
        ("math.exp", "operands", "operands: 0, results: 1, successors: 0, regions: 0"),
    ], ids=["generic-regions", "generic-results", "exp-operands"])
    def test_op_lacking_a_part_its_form_reads_is_an_ir_error(self, registry, name, part, has):
        # the verifier reports each of these; printing refuses them by name
        if name == "math.exp":
            m = run_pipeline(registry, SIGMOID_FIR, "sigmoid", [fir.F32])
        else:
            m = einsum.build_einsum_function(registry, einsum.parse_einsum("(i)->(i)"))
        getattr(next(op for op in walk_ops(m) if op.name == name), part).clear()
        assert not verify_module(m).ok
        with pytest.raises(IrError) as info:
            print_module(m)
        assert str(info.value) == (f"cannot print {name}: its form reads an operand, result, "
                                   f"successor or region it lacks ({has})")

    def test_top_level_op_that_is_not_a_function(self):
        # printing refuses it by name, where its unnamed result raised a KeyError
        with pytest.raises(IrError) as info:
            print_module(with_top_level_constant())
        assert str(info.value) == ("cannot print arith.constant at the module's top level, "
                                   "which holds func.func ops only")
