"""Reference interpreter: scalar ops, control flow, loop nests, kernels."""

import functools
import gc
import itertools
import math
import operator
import random
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgegen import cli, codegen, dialects, einsum, fir, interp, ir
from bridgegen.interp import (
    F32Value,
    F64Value,
    IndexValue,
    IntValue,
    InterpError,
    LaunchConfig,
    MemRefValue,
    MissingLaunchConfig,
    OutOfBounds,
    StepLimitExceeded,
    run_function,
    run_kernel,
)
from conftest import (
    F32_MEMREF,
    MAX_FIR,
    SIGMOID_FIR,
    TIERS,
    VADD_FIR,
    VADD_TYPES,
    einsum_bruteforce,
    func_region,
    ill_typed_yield,
    new_func,
    run_pipeline,
    tensor_value,
    use_tier,
    walk_ops,
)
import programs as gen


@pytest.fixture
def sigmoid(registry):
    return run_pipeline(registry, SIGMOID_FIR, "sigmoid", [fir.F32])


@pytest.fixture
def max_module(registry):
    return run_pipeline(registry, MAX_FIR, "max", [fir.I64, fir.I64])


@pytest.fixture
def vadd(registry):
    return run_pipeline(registry, VADD_FIR, "vadd", VADD_TYPES)


class TestScalars:
    def test_sigmoid_at_zero_exact(self, sigmoid):
        [out] = run_function(sigmoid, "sigmoid", [F32Value(0.0)])
        assert out.value == 0.5

    def test_sigmoid_at_two(self, sigmoid):
        # independent scalar oracle for 1/(1+e^-2)
        oracle = 1.0 / (1.0 + math.exp(-2.0))
        [out] = run_function(sigmoid, "sigmoid", [F32Value(2.0)])
        assert abs(out.value - oracle) < 1e-6

    def test_f32_arithmetic_is_single_precision(self, sigmoid):
        [out] = run_function(sigmoid, "sigmoid", [F32Value(2.0)])
        expect = np.float32(1.0) / (np.float32(1.0)
                                    + np.exp(np.float32(-np.float32(2.0))))
        assert out.value == float(np.float32(expect))

    def test_max_branches(self, max_module):
        for a, b in [(3, 7), (7, 3), (5, 5), (-2, 4)]:
            [out] = run_function(max_module, "max",
                                 [IntValue(64, a), IntValue(64, b)])
            assert out.value == max(a, b)

    def test_cmpi_truth_table(self, registry):
        import operator
        preds = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
                 "<=": operator.le, ">": operator.gt, ">=": operator.ge}
        for name, py in preds.items():
            text = (f"fn f(_1: i64, _2: i64)\n1:\n"
                    f"  %1 = invoke {name}(_1, _2) :: i1\n  return %1\n")
            module = run_pipeline(registry, text, "f", [fir.I64, fir.I64])
            for a in range(-2, 3):
                for b in range(-2, 3):
                    [out] = run_function(module, "f",
                                         [IntValue(64, a), IntValue(64, b)])
                    assert out.value == int(py(a, b)), (name, a, b)

    def test_int_width_wrapping(self, registry):
        text = "fn f(_1: i64, _2: i64)\n1:\n  %1 = invoke *(_1, _2) :: i64\n  return %1\n"
        module = run_pipeline(registry, text, "f", [fir.I64, fir.I64])
        big = 2 ** 62
        [out] = run_function(module, "f", [IntValue(64, big), IntValue(64, 4)])
        assert out.value == ((big * 4 + 2 ** 63) % 2 ** 64) - 2 ** 63
        # the wrapped product, not the exact one, flows into later ops
        text = ("fn g(_1: i64, _2: i64)\n1:\n  %1 = invoke *(_1, _2) :: i64\n"
                "  %2 = invoke <(%1, 0) :: i1\n  return %2\n")
        module = run_pipeline(registry, text, "g", [fir.I64, fir.I64])
        [out] = run_function(module, "g", [IntValue(64, 2 ** 62), IntValue(64, 3)])
        assert out.value == 1

    def test_input_arity_checked(self, sigmoid):
        with pytest.raises(InterpError, match="takes 1 argument"):
            run_function(sigmoid, "sigmoid", [])

    def test_input_type_checked(self, sigmoid):
        with pytest.raises(InterpError, match="does not match type"):
            run_function(sigmoid, "sigmoid", [F64Value(1.0)])

    def test_unknown_symbol(self, sigmoid):
        with pytest.raises(InterpError, match="no function"):
            run_function(sigmoid, "nope", [])

    def test_determinism(self, max_module):
        runs = [run_function(max_module, "max",
                             [IntValue(64, 3), IntValue(64, 9)])[0].value
                for _ in range(3)]
        assert runs == [9, 9, 9]

    def test_inlined_branchy_callee_end_to_end(self, registry):
        text = """\
fn f(_1: i64, _2: i64)
1:
  %1 = invoke >=(_1, _2) :: i1
  goto #3 ifnot %1
2:
  %2 = invoke g(_1) :: i64
  goto #4
3:
  nothing
4:
  %6 = phi (#2 => %2, #3 => _2) :: i64
  return %6

fn g(_1: i64)
1:
  %1 = invoke +(_1, 1) :: i64
  return %1
"""
        module = run_pipeline(registry, text, "f", [fir.I64, fir.I64])
        for a, b in [(5, 2), (2, 5), (3, 3)]:
            [out] = run_function(module, "f",
                                 [IntValue(64, a), IntValue(64, b)])
            assert out.value == (a + 1 if a >= b else b)

    def test_loop_with_carried_phi_values(self, registry):
        # phi incomings may reference later statements on the back edge
        text = """\
fn sumto(_1: i64)
1:
  goto #2
2:
  %2 = phi (#1 => 0, #3 => %5) :: i64
  %3 = phi (#1 => _1, #3 => %6) :: i64
  %4 = invoke >(%3, 0) :: i1
  goto #4 ifnot %4
3:
  %5 = invoke +(%2, %3) :: i64
  %6 = invoke -(%3, 1) :: i64
  goto #2
4:
  return %2
"""
        module = run_pipeline(registry, text, "sumto", [fir.I64])
        assert ir.verify_module(module).ok
        for n in (0, 1, 5, 10):
            [out] = run_function(module, "sumto", [IntValue(64, n)])
            assert out.value == n * (n + 1) // 2

    def test_index_cast(self, registry):
        from bridgegen.dialects import build_op

        module = ir.IrModule(registry=registry.dialects)
        region = module.new_region()
        build_op(module, "func.func",
                 attributes={"sym_name": ir.SymbolAttr("cast"),
                             "function_type": ir.TypeAttr(
                                 ir.FunctionType((ir.I64,), (ir.INDEX,)))},
                 regions=[region])
        entry = module.append_block(region, [ir.I64])
        module.set_insertion(entry)
        cast = build_op(module, "arith.index_cast",
                        [entry.arguments[0]], result_types=[ir.INDEX])
        build_op(module, "func.return", [cast.results[0]])
        assert ir.verify_module(module).ok
        [out] = run_function(module, "cast", [IntValue(64, 42)])
        assert isinstance(out, IndexValue) and out.value == 42

    def test_func_call(self, registry, sigmoid):
        from bridgegen.dialects import build_op

        module = sigmoid
        region = module.new_region()
        module.set_insertion(module.body.blocks[0])
        build_op(module, "func.func",
                 attributes={"sym_name": ir.SymbolAttr("wrapper"),
                             "function_type": ir.TypeAttr(
                                 ir.FunctionType((ir.F32,), (ir.F32,)))},
                 regions=[region])
        entry = module.append_block(region, [ir.F32])
        module.set_insertion(entry)
        call = build_op(module, "func.call",
                        [entry.arguments[0]],
                        attributes={"callee": ir.SymbolAttr("sigmoid")},
                        result_types=[ir.F32])
        build_op(module, "func.return", [call.results[0]])
        assert ir.verify_module(module).ok
        assert "func.call @sigmoid(%arg0) : (f32) -> f32" in ir.print_module(module)
        [direct] = run_function(module, "sigmoid", [F32Value(2.0)])
        [wrapped] = run_function(module, "wrapper", [F32Value(2.0)])
        assert wrapped.value == direct.value


class TestStepLimit:
    def test_infinite_loop_hits_limit(self, registry):
        text = "fn f(_1: i64)\n1:\n  goto #2\n2:\n  goto #2\n"
        module = run_pipeline(registry, text, "f", [fir.I64])
        with pytest.raises(StepLimitExceeded):
            run_function(module, "f", [IntValue(64, 0)], step_limit=100)

    def test_limit_not_hit_for_short_programs(self, sigmoid):
        run_function(sigmoid, "sigmoid", [F32Value(1.0)], step_limit=10)


class TestGeneric:
    def test_matmul_against_triple_loop(self, registry):
        spec = einsum.parse_einsum("(i,k),(k,j)->(i,j)")
        module = einsum.build_einsum_function(registry, spec)
        rng = np.random.default_rng(11)
        a = rng.random((4, 3)).astype(np.float32)
        b = rng.random((3, 5)).astype(np.float32)
        c = np.zeros((4, 5), dtype=np.float32)
        [out] = run_function(module, "einsum",
                             [tensor_value(a), tensor_value(b), tensor_value(c)])
        oracle = np.zeros((4, 5))
        for i in range(4):
            for j in range(5):
                for k in range(3):
                    oracle[i, j] += float(a[i, k]) * float(b[k, j])
        assert np.allclose(out.data, oracle, rtol=1e-5)

    def test_inconsistent_extents_rejected(self, registry):
        spec = einsum.parse_einsum("(i,k),(k,j)->(i,j)")
        module = einsum.build_einsum_function(registry, spec)
        a = np.zeros((4, 3), dtype=np.float32)
        b = np.zeros((2, 5), dtype=np.float32)  # k mismatch: 3 vs 2
        c = np.zeros((4, 5), dtype=np.float32)
        with pytest.raises(InterpError, match="inconsistent extent"):
            run_function(module, "einsum",
                         [tensor_value(a), tensor_value(b), tensor_value(c)])

    def test_output_accumulates_from_initial(self, registry):
        spec = einsum.parse_einsum("(i,k),(k,j)->(i,j)")
        module = einsum.build_einsum_function(registry, spec)
        a = np.ones((2, 2), dtype=np.float32)
        b = np.ones((2, 2), dtype=np.float32)
        c = np.full((2, 2), 10.0, dtype=np.float32)
        [out] = run_function(module, "einsum",
                             [tensor_value(a), tensor_value(b), tensor_value(c)])
        assert np.allclose(out.data, 12.0)
        assert np.allclose(c, 10.0)  # tensor input untouched


class TestKernels:
    def vadd_buffers(self):
        a = np.arange(1, 9, dtype=np.float32)
        b = np.arange(10, 90, 10, dtype=np.float32)
        c = np.zeros(8, dtype=np.float32)
        return [MemRefValue(ir.F32, (8,), x) for x in (a, b, c)]

    def test_vadd(self, vadd):
        bufs = self.vadd_buffers()
        out = run_kernel(vadd, "vadd", LaunchConfig((2, 1, 1), (4, 1, 1)), bufs)
        assert np.array_equal(out[2].data,
                              np.array([11, 22, 33, 44, 55, 66, 77, 88],
                                       dtype=np.float32))

    def test_excess_threads_out_of_bounds(self, vadd):
        # first excess coordinate is thread 0 of block 2 -> index 8; with one
        # block of 20 threads, thread 8 in the middle of the block's batch
        for grid, block, x in (((3, 1, 1), (4, 1, 1), (0, 2, 4)),
                               ((1, 1, 1), (20, 1, 1), (8, 0, 20))):
            bufs = self.vadd_buffers()
            with pytest.raises(OutOfBounds) as info:
                run_kernel(vadd, "vadd", LaunchConfig(grid, block), bufs)
            assert str(info.value) == (
                "index 8 out of bounds for dimension 0 of extent 8 (thread "
                f"context {{'x': {x}, 'y': (0, 0, 1), 'z': (0, 0, 1)}})")
            # the stores of the threads before it stay visible
            assert np.array_equal(bufs[2].data,
                                  np.array([11, 22, 33, 44, 55, 66, 77, 88],
                                           dtype=np.float32))

    def test_threads_are_visited_lazily(self, vadd):
        # thread 8 of 200000 fails before the launch's coordinates could
        # fill memory
        bufs = self.vadd_buffers()
        tracemalloc.start()
        try:
            with pytest.raises(OutOfBounds) as info:
                run_kernel(vadd, "vadd", LaunchConfig((1, 1, 1), (200000, 1, 1)), bufs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == (
            "index 8 out of bounds for dimension 0 of extent 8 (thread "
            "context {'x': (8, 0, 200000), 'y': (0, 0, 1), 'z': (0, 0, 1)})")
        assert peak < 2 * 2 ** 20

    def test_lanes_decoded_only_for_launches_of_min_lanes(self, vadd, monkeypatch):
        asked, lane_function = [], interp._lane_function
        monkeypatch.setattr(interp, "_lane_function", lambda region, faults=None, *shapes:
                            asked.append(region) or lane_function(region, faults, *shapes))
        outs = []
        for n in (interp.MIN_LANES - 1, interp.MIN_LANES):
            asked.clear()
            bufs = self.vadd_buffers()
            run_kernel(vadd, "vadd", LaunchConfig((1, 1, 1), (n, 1, 1)), bufs)
            assert len(asked) == (n == interp.MIN_LANES)
            outs.append(bufs[2].data[:interp.MIN_LANES - 1])
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], np.arange(11, 11 * interp.MIN_LANES, 11))

    def test_function_with_results_is_not_launched(self, registry):
        text = ("fn k(_1: memref{f32,1})\n1:\n  %1 = invoke thread_idx_x() :: index\n"
                "  %2 = invoke store(1.0, _1, %1) :: Nothing\n  return %1\n")
        module = run_pipeline(registry, text, "k", [F32_MEMREF])
        bufs = [MemRefValue(ir.F32, (8,), np.zeros(8, np.float32))]
        with pytest.raises(InterpError, match="@k cannot be launched: a kernel returns no"):
            run_kernel(module, "k", LaunchConfig((1, 1, 1), (8, 1, 1)), bufs)
        assert not bufs[0].data.any()  # no thread ran

    def test_gpu_op_without_launch(self, vadd):
        bufs = self.vadd_buffers()
        with pytest.raises(MissingLaunchConfig):
            run_function(vadd, "vadd", bufs)

    def test_launch_extents_validated(self):
        with pytest.raises(InterpError, match=">= 1"):
            LaunchConfig((0, 1, 1), (1, 1, 1))
        launch = LaunchConfig([np.int64(2), True, 1], range(4, 7))
        assert launch == LaunchConfig((2, 1, 1), (4, 5, 6)) and hash(launch)

    @pytest.mark.parametrize("grid, block, which", [
        ((2.0, 1, 1), (4, 1, 1), "grid"), ((2, 1, 1), (4, 1), "block"),
        ((2, 1, 1, 1), (4, 1, 1), "grid"), ((2, 1, 1), 4, "block"),
        ((2, 1, 1), ("4", 1, 1), "block")],
        ids=["float", "two-extents", "four-extents", "not-a-tuple", "string"])
    def test_launch_takes_three_integer_extents(self, vadd, grid, block, which):
        with pytest.raises(InterpError, match=f"^launch {which} must be three integer "
                                              "extents, got "):
            run_kernel(vadd, "vadd", LaunchConfig(grid, block), self.vadd_buffers())

    def test_mutations_visible_in_inputs(self, vadd):
        bufs = self.vadd_buffers()
        returned = run_kernel(vadd, "vadd", LaunchConfig((2, 1, 1), (4, 1, 1)),
                              bufs)
        assert returned[2] is bufs[2]
        assert bufs[2].data[0] == 11.0


class TestGenericPropertySuite:
    """generic-op semantics equal brute-force loop-nest evaluation."""

    def test_random_specs(self, registry):
        rng = random.Random(5)
        nrng = np.random.default_rng(5)
        for _ in range(12):
            spec = self.random_spec(rng)
            module = einsum.build_einsum_function(registry, spec)
            extents = {name: rng.randint(1, 4) for name in spec.axes}
            inputs = [
                nrng.random(tuple(extents[n] for n in tup)).astype(np.float32)
                for tup in spec.inputs
            ]
            out = np.zeros(tuple(extents[n] for n in spec.output),
                           dtype=np.float32)
            values = [tensor_value(x) for x in inputs] + [tensor_value(out)]
            [got] = run_function(module, "einsum", values)
            want = einsum_bruteforce(spec, inputs, out)
            assert np.allclose(got.data, want, rtol=1e-5, atol=1e-6), spec

    @staticmethod
    def random_spec(rng):
        letters = ["i", "j", "k", "l"]
        while True:
            n_inputs = rng.randint(1, 3)
            inputs = []
            for _ in range(n_inputs):
                rank = rng.randint(1, 3)
                inputs.append(tuple(rng.sample(letters, rank)))
            used = [n for tup in inputs for n in tup]
            out_rank = rng.randint(0, min(3, len(set(used))))
            output = tuple(rng.sample(sorted(set(used)), out_rank))
            text = ",".join("(" + ",".join(t) + ")" for t in inputs)
            text += "->(" + ",".join(output) + ")"
            try:
                return einsum.parse_einsum(text)
            except einsum.EinsumError:
                continue


# ---------------------------------------------------------------------------
# Semantics pinned down independently of how the interpreter is built


def static_ops(module, symbol):
    """Operations in the body of @symbol, each counted once."""
    region = module.lookup_symbol(symbol).regions[0]
    return sum(len(b.operations) for b in region.blocks)


SUMTO_FIR = """\
fn sumto(_1: i64)
1:
  goto #2
2:
  %2 = phi (#1 => 0, #3 => %5) :: i64
  %3 = phi (#1 => _1, #3 => %6) :: i64
  %4 = invoke >(%3, 0) :: i1
  goto #4 ifnot %4
3:
  %5 = invoke +(%2, %3) :: i64
  %6 = invoke -(%3, 1) :: i64
  goto #2
4:
  return %2
"""


DIAMOND_FIR = """\
fn diamond(_1: i64)
1:
  goto #2
2:
  %2 = phi (#1 => 1, #6 => %8) :: i64
  %3 = phi (#1 => _1, #6 => %9) :: i64
  %4 = invoke >(%3, 0) :: i1
  goto #7 ifnot %4
3:
  %5 = invoke >(%3, 3) :: i1
  goto #5 ifnot %5
4:
  %6 = invoke *(%2, 2) :: i64
  goto #6
5:
  %7 = invoke +(%2, %3) :: i64
  goto #6
6:
  %8 = phi (#4 => %6, #5 => %7) :: i64
  %9 = invoke -(%3, 1) :: i64
  goto #2
7:
  return %2
"""


# ^bb2 is reached by one edge, from the later ^bb3: a back edge, as the
# compiled tier counts them, though the function has no loop
RETREAT_FIR = """\
fn retreat(_1: i64)
1:
  goto #3
2:
  %2 = invoke +(_1, 1) :: i64
  goto #4
3:
  %3 = invoke *(_1, 3) :: i64
  goto #2
4:
  %4 = invoke -(%2, %3) :: i64
  return %4
"""


def loop_program(registry, name, args):
    """(module, entry, input values) of the bench's interp_loops program
    ``name``, or of DIAMOND_FIR or RETREAT_FIR, on raw ``args``."""
    if name in ("diamond", "retreat"):
        text, entry, types = DIAMOND_FIR if name == "diamond" else RETREAT_FIR, name, [fir.I64]
    else:
        [p] = [p for p in gen.loop_programs(random.Random("interp_loops:1")) if p.name == name]
        text, entry, types = p.text, p.entry, [fir.parse_frontend_type(t) for t in p.types]
    module = run_pipeline(registry, text, entry, types)
    ftype = module.lookup_symbol(entry).attributes["function_type"].type
    return module, entry, [interp.value_of_type(t, a) for t, a in zip(ftype.inputs, args)]


def budgets(module, entry, values):
    """The step errors of budgets 1, 2, ... up to the exact one, and the
    exact budget with its result."""
    errors = []
    for limit in itertools.count(1):
        try:
            return errors, limit, run_function(module, entry, values, step_limit=limit)
        except StepLimitExceeded as e:
            errors.append(str(e))


class TestStepBoundary:
    """A budget equal to the exact number of operations executed passes;
    one less raises, before the operation that would exceed it runs."""

    def test_plain_loop(self, registry, monkeypatch, compiled):
        module = run_pipeline(registry, SUMTO_FIR, "sumto", [fir.I64])
        # entry 3 ops, header 2 per test (n + 1 tests), body 3 per trip, exit 1;
        # n back edges, so budgets past HOT of them end in the compiled tier
        hot_edges = interp.HOT
        n = hot_edges + 10
        exact = 3 + 2 * (n + 1) + 3 * n + 1
        # the closures alone; compiling at back edge HOT, each run on fresh
        # code; then compiled from the entry, on the code of the first run
        for hot, fresh in ((math.inf, True), (hot_edges, True), (hot_edges, False)):
            monkeypatch.setattr(interp, "HOT", hot)
            interp.prepare(module)
            [out] = run_function(module, "sumto", [IntValue(64, n)],
                                 step_limit=exact)
            assert out.value == n * (n + 1) // 2
            for limit in range(1, exact):
                if fresh:
                    interp.prepare(module)
                with pytest.raises(StepLimitExceeded,
                                   match=f"^step budget of {limit} operations exceeded$"):
                    run_function(module, "sumto", [IntValue(64, n)], step_limit=limit)
            # on fresh code, each run whose budget reaches back edge HOT, after
            # 3 + 5 * HOT steps, compiles there; else only the first run compiles
            reach = exact - (3 + 5 * hot_edges) + 1
            assert len(compiled) == (0 if hot == math.inf else reach if fresh else 1)
            assert all(compiled)
            compiled.clear()

    @pytest.mark.parametrize("name, args", [("callloop", (0.75, 6)), ("nest", (0.75, 3, 4)),
                                            ("diamond", (6,))])
    def test_forward_chains(self, registry, monkeypatch, compiled, name, args):
        # callloop's inlined helper leaves a chain of cf.br blocks, nest's
        # loops exit forward and diamond joins two arms: compiled, each block
        # reached by one forward edge runs in place, and each path is charged
        # its steps once, at its end
        module, entry, values = loop_program(registry, name, args)
        use_tier(monkeypatch, "closures", module)
        errors, exact, result = budgets(module, entry, values)
        assert errors == [f"step budget of {k} operations exceeded" for k in range(1, exact)]
        assert result == run_function(module, entry, values)
        use_tier(monkeypatch, "compiled", module)
        assert budgets(module, entry, values) == (errors, exact, result)
        assert len(compiled) == 1 and compiled[0]  # once, from the entry

    def test_block_with_call(self, registry, sigmoid):
        from bridgegen.dialects import build_op

        _, entry = new_func(sigmoid, "wrapper", [ir.F32], [ir.F32])
        call = build_op(sigmoid, "func.call",
                        [entry.arguments[0]],
                        attributes={"callee": ir.SymbolAttr("sigmoid")},
                        result_types=[ir.F32])
        build_op(sigmoid, "func.return", [call.results[0]])
        exact = static_ops(sigmoid, "wrapper") + static_ops(sigmoid, "sigmoid")
        assert exact == 8
        run_function(sigmoid, "wrapper", [F32Value(1.0)], step_limit=exact)
        with pytest.raises(StepLimitExceeded):
            run_function(sigmoid, "wrapper", [F32Value(1.0)],
                         step_limit=exact - 1)

    def test_generic_body(self, registry):
        spec = einsum.parse_einsum("(i,k),(k,j)->(i,j)")
        module = einsum.build_einsum_function(registry, spec)
        generic = module.lookup_symbol("einsum").regions[0].blocks[0].operations[0]
        body = len(generic.regions[0].blocks[0].operations)
        points = 2 * 3 * 2
        exact = static_ops(module, "einsum") + points * body
        values = lambda: [tensor_value(np.ones((2, 3))),
                          tensor_value(np.ones((3, 2))),
                          tensor_value(np.zeros((2, 2)))]
        [out] = run_function(module, "einsum", values(), step_limit=exact)
        assert np.array_equal(out.data, np.full((2, 2), 3.0))
        for limit in (exact - 1, exact - 2, 20, 2, 1):  # after, within, before
            with pytest.raises(StepLimitExceeded,
                               match=f"^step budget of {limit} operations exceeded$"):
                run_function(module, "einsum", values(), step_limit=limit)

    def test_raised_at_the_exact_op(self, vadd):
        # vadd: 8 ops before the store, then the store, then return; with 8
        # threads the first thread still stops there
        for launch in (LaunchConfig((1, 1, 1), (1, 1, 1)),
                       LaunchConfig((2, 1, 1), (4, 1, 1))):
            for limit, stored in ((8, 0.0), (9, 11.0)):
                bufs = TestKernels().vadd_buffers()
                with pytest.raises(StepLimitExceeded):
                    run_kernel(vadd, "vadd", launch, bufs, step_limit=limit)
                assert list(bufs[2].data) == [stored] + [0.0] * 7

    def test_ops_after_a_call_run_until_the_budget_ends(self, registry):
        # @k: two constants, a call of @g (one op), a store, a return
        from bridgegen.dialects import build_op

        module = ir.IrModule(registry=registry.dialects)
        _, g = new_func(module, "g", [ir.INDEX], [ir.INDEX])
        build_op(module, "func.return", [g.arguments[0]])
        buf = ir.MemRefType(ir.F32, (None,))
        _, k = new_func(module, "k", [buf], [])
        zero, seven = (
            build_op(module, "arith.constant",
                     attributes={"value": attr}, result_types=[attr.type]).results[0]
            for attr in (ir.IntAttr(0, ir.INDEX), ir.FloatAttr(7.0, ir.F32)))
        call = build_op(module, "func.call", [zero],
                        attributes={"callee": ir.SymbolAttr("g")},
                        result_types=[ir.INDEX])
        build_op(module, "memref.store",
                 [seven, k.arguments[0], call.results[0]])
        build_op(module, "func.return", [])
        assert ir.verify_module(module).ok
        for limit, stored in ((4, 0.0), (5, 7.0)):
            data = np.zeros(1, dtype=np.float32)
            with pytest.raises(StepLimitExceeded):
                run_function(module, "k", [MemRefValue(ir.F32, (1,), data)],
                             step_limit=limit)
            assert data[0] == stored

    def test_kernel_budget_is_per_thread(self, vadd):
        per_thread = static_ops(vadd, "vadd")
        launch = LaunchConfig((2, 1, 1), (4, 1, 1))
        bufs = TestKernels().vadd_buffers()
        run_kernel(vadd, "vadd", launch, bufs, step_limit=per_thread)
        assert bufs[2].data[7] == 88.0
        with pytest.raises(StepLimitExceeded):
            run_kernel(vadd, "vadd", launch, TestKernels().vadd_buffers(),
                       step_limit=per_thread - 1)


class TestCompiledTier:
    """A function runs compiled once it has taken HOT back edges, unless it
    holds more than MAX_COMPILED_OPS ops or an op without a source form;
    either way its results are the closures'."""

    def test_compiles_after_hot_back_edges(self, registry, sigmoid, compiled):
        module = run_pipeline(registry, SUMTO_FIR, "sumto", [fir.I64])
        run_function(sigmoid, "sigmoid", [F32Value(1.0)])  # straight-line
        run_function(module, "sumto", [IntValue(64, interp.HOT - 1)])
        assert compiled == []
        interp.prepare(module)
        [out] = run_function(module, "sumto", [IntValue(64, interp.HOT)])
        assert out.value == interp.HOT * (interp.HOT + 1) // 2
        assert len(compiled) == 1 and compiled[0] is not None

    def test_back_edges_count_across_runs(self, registry, monkeypatch):
        # sumto(n) takes n back edges; ``at`` records the count at each compile
        module = run_pipeline(registry, SUMTO_FIR, "sumto", [fir.I64])
        at, build = [], interp._compile
        monkeypatch.setattr(interp, "_compile", lambda code: at.append(code.backs) or build(code))
        run_function(module, "sumto", [IntValue(64, interp.HOT - 1)])
        assert at == []
        [out] = run_function(module, "sumto", [IntValue(64, 3)])  # compiles at its first
        assert at == [interp.HOT] and out.value == 6
        run_function(module, "sumto", [IntValue(64, interp.HOT + 5)])  # compiled code
        assert at == [interp.HOT]
        interp.prepare(module)  # back edges count from zero again
        [out] = run_function(module, "sumto", [IntValue(64, interp.HOT + 5)])
        assert at == [interp.HOT] * 2 and out.value == sum(range(interp.HOT + 6))

    @pytest.mark.parametrize("name, args, back_edges", [
        ("nest", (0.75, 3, 4), 3 + 3 * 4), ("diamond", (6,), 6), ("retreat", (5,), 1)])
    def test_entered_at_each_back_edge_target(self, registry, monkeypatch, compiled, name,
                                              args, back_edges):
        # HOT k compiles at the k-th back edge and enters the compiled code
        # at its target with the frame's values; the exact budget still passes
        module, entry, values = loop_program(registry, name, args)
        use_tier(monkeypatch, "closures", module)
        _, exact, want = budgets(module, entry, values)
        for hot in range(back_edges + 2):
            monkeypatch.setattr(interp, "HOT", hot)
            for limit in (exact, exact - 1):
                interp.prepare(module)
                if limit < exact:
                    with pytest.raises(StepLimitExceeded):
                        run_function(module, entry, values, step_limit=limit)
                else:
                    assert run_function(module, entry, values, step_limit=limit) == want, hot
        # two runs compile at each HOT but back_edges + 1: the last back edge
        # comes before the last op
        assert len(compiled) == 2 * (back_edges + 1) and all(compiled)

    def test_f64_exp_and_divf_call_no_lambda(self, registry, monkeypatch):
        # compiled, f64 math.exp is float(np.exp(v)) and arith.divf v / w,
        # which calls the closures' function only for a zero divisor
        module, entry, values = loop_program(registry, "rec_f64", (0.75, 20))
        text, _ = interp._source(func_region(module, entry))
        assert re.search(r" = float\(n\d+\(v\d+\)\)\n", text)
        assert re.search(r" = \((v\d+) / (v\d+) if \2 else n\d+\(\1, \2\)\)\n", text)
        for tier in TIERS:
            use_tier(monkeypatch, tier, module)
            calls = []
            sys.setprofile(lambda frame, event, _: event == "call" and calls.append(
                frame.f_code.co_name))
            try:
                run_function(module, entry, values)
            finally:
                sys.setprofile(None)
            assert ("<lambda>" in calls) == (tier == "closures"), tier

    def test_loop_that_calls_stays_on_closures(self, registry, monkeypatch, compiled):
        # sumto adding inc(%3) = %3 + 1: a func.call has no source form, so
        # past HOT back edges the region stays on closures, with their result
        from bridgegen.codegen import IntrinsicSignature, generate, register_intrinsic
        from bridgegen.dialects import build_op

        register_intrinsic(registry, IntrinsicSignature("inc", (fir.I64,)), lambda ctx, args:
                           ctx.build_op("func.call", args[0], result_types=[ir.I64], attributes={
                               "callee": ir.SymbolAttr("inc")}).results)
        text = SUMTO_FIR.replace("  %5 = invoke +(%2, %3) :: i64\n", "  %7 = invoke inc(%3) "
                                 ":: i64\n  %5 = invoke +(%2, %7) :: i64\n")
        module = generate(registry, fir.parse_program(text).functions["sumto"], [fir.I64])
        _, inc = new_func(module, "inc", [ir.I64], [ir.I64])
        one = build_op(module, "arith.constant", result_types=[ir.I64],
                       attributes={"value": ir.IntAttr(1, ir.I64)})
        add = build_op(module, "arith.addi",
                       [inc.arguments[0], one.results[0]])
        build_op(module, "func.return", add.results)
        assert ir.verify_module(module).ok
        n, outs = interp.HOT + 1, []
        for hot in (math.inf, interp.HOT):
            monkeypatch.setattr(interp, "HOT", hot)
            interp.prepare(module)
            [out] = run_function(module, "sumto", [IntValue(64, n)])
            outs.append(out.value)
        assert outs == [n * (n + 1) // 2 + n] * 2
        assert compiled == [None]

    def run_both(self, tmp_path, capsys, monkeypatch, text, *argv):
        """(exit code, stdout, stderr) of ``bridgegen run`` on the closures
        alone, then with compiling."""
        (tmp_path / "f.fir").write_text(text)
        outs = []
        for hot in (math.inf, interp.HOT):
            monkeypatch.setattr(interp, "HOT", hot)
            code = cli.main(["run", str(tmp_path / "f.fir"), "--entry", "sumto", *argv])
            outs.append((code, *capsys.readouterr()))
        assert outs[0] == outs[1] and "error: internal:" not in outs[0][2]
        return outs[0]

    def test_function_of_more_than_3000_blocks(self, tmp_path, capsys, monkeypatch,
                                                compiled):
        tail = "".join(f"{k}:\n  goto #{k + 1}\n" for k in range(4, 3504))
        text = SUMTO_FIR.replace("4:\n  return %2\n", f"{tail}3504:\n  return %2\n")
        n = interp.HOT + 1
        out = self.run_both(tmp_path, capsys, monkeypatch, text,
                            "--types", "i64", "--", str(n))
        assert out == (0, f"{n * (n + 1) // 2}\n", "")
        assert compiled == [None]  # over the op cap

    def test_loop_body_over_the_op_cap(self, tmp_path, capsys, monkeypatch, compiled):
        k = interp.MAX_COMPILED_OPS
        chain = "".join(f"  %{100 + j} = invoke +(%{99 + j if j else 2}, 1) :: i64\n"
                        for j in range(k))
        text = SUMTO_FIR.replace("  %5 = invoke +(%2, %3) :: i64\n",
                                 f"{chain}  %5 = invoke +(%{99 + k}, %3) :: i64\n")
        n = interp.HOT + 1
        out = self.run_both(tmp_path, capsys, monkeypatch, text,
                            "--types", "i64", "--", str(n))
        assert out == (0, f"{n * (n + 1) // 2 + n * k}\n", "")
        assert compiled == [None]

    @pytest.mark.parametrize("tail, argv, want", [
        ("  %7 = invoke twice(%2) :: f64\n  return %7\n", ["--dialect", "twice.spec"],
         (1, "", "error: unsupported operation 'my.twice'\n")),
        ("  %7 = invoke thread_idx_x() :: index\n  %8 = invoke store(%2, _2, %7) :: Nothing\n"
         "  return\n", ["--launch", "1,1,1,1,1,1"],
         (0, f"{interp.HOT + 1}\n[{(interp.HOT + 1) / 2}]\n", "")),
    ], ids=["unsupported", "memref"])
    def test_op_without_source_form_after_a_hot_loop(self, tmp_path, capsys, monkeypatch,
                                                     compiled, tail, argv, want):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "twice.spec").write_text(
            'dialect my\nop twice "Doubles."\n  operand x AnyFloat\n  result res same(0)\n'
            "  bind twice (f64) (f32)\n")
        text = (SUMTO_FIR.replace("sumto(_1: i64)", "sumto(_1: i64, _2: memref{f64,1})")
                .replace("(#1 => 0, #3 => %5) :: i64", "(#1 => 0.0, #3 => %5) :: f64")
                .replace("+(%2, %3) :: i64", "+(%2, 0.5) :: f64")
                .replace("4:\n  return %2\n", f"4:\n{tail}"))
        out = self.run_both(tmp_path, capsys, monkeypatch, text, "--types", "i64,memref{f64,1}",
                            *argv, "--", str(interp.HOT + 1), "[0]:f64")
        assert out == want
        assert compiled == [None]


class TestErrors:
    def test_control_fell_off(self, registry):
        from bridgegen.dialects import build_op

        module = ir.IrModule(registry=registry.dialects)
        _, entry = new_func(module, "f", [ir.I64], [])
        build_op(module, "arith.addi",
                 [entry.arguments[0], entry.arguments[0]])
        with pytest.raises(InterpError,
                           match=rf"^\^bb{entry.id}: control fell off the block$"):
            run_function(module, "f", [IntValue(64, 1)])

    def test_control_fell_off_on_the_compiled_tier(self, registry, monkeypatch, compiled):
        # a block with no terminator is not compiled: the closures fail at its end
        from bridgegen.dialects import build_op

        module = ir.IrModule(registry.dialects)
        _, entry = new_func(module, "f", [ir.I64], [])
        build_op(module, "arith.addi", [entry.arguments[0], entry.arguments[0]])
        use_tier(monkeypatch, "compiled", module)
        with pytest.raises(InterpError,
                           match=rf"^\^bb{entry.id}: control fell off the block$"):
            run_function(module, "f", [IntValue(64, 1)])
        assert compiled == [None]

    def test_no_runtime_value_of_a_type_without_one(self):
        ftype, nested = ir.FunctionType((), ()), ir.TensorType(ir.TensorType(ir.F32, (1,)), (1,))
        with pytest.raises(InterpError) as info:
            interp.value_of_type(ftype, 0)
        assert str(info.value) == f"cannot build a runtime value of type {ftype}"
        with pytest.raises(InterpError) as info:
            interp.value_of_type(nested, [0.0])
        assert str(info.value) == f"no runtime element kind for {nested.elem}"

    def test_unsupported_operation(self, registry):
        module = ir.IrModule(registry=registry.dialects)
        new_func(module)
        ir.create_op(module, "test.mystery", [], [])
        ir.create_op(module, "func.return", [], [], is_terminator=True)
        with pytest.raises(InterpError,
                           match="^unsupported operation 'test.mystery'$"):
            run_function(module, "f", [])

    def test_spec_terminator_without_semantics_fails_when_reached(self, registry):
        from bridgegen.dialects import build_op, load_dialect_spec, register_dialect

        register_dialect(registry.dialects,
                         load_dialect_spec('dialect t\nop halt "Stops."\n  terminator\n'))
        module = ir.IrModule(registry=registry.dialects)
        region, entry = new_func(module, "f", [ir.I1])
        done, stop = module.append_block(region, []), module.append_block(region, [])
        module.set_insertion(entry)
        build_op(module, "cf.cond_br", [entry.arguments[0]],
                 successors=[(done, []), (stop, [])])
        module.set_insertion(done)
        build_op(module, "func.return")
        module.set_insertion(stop)
        assert build_op(module, "t.halt").is_terminator
        assert ir.verify_module(module).ok
        assert run_function(module, "f", [IntValue(1, 1)]) == []
        with pytest.raises(InterpError, match="^unsupported operation 't.halt'$"):
            run_function(module, "f", [IntValue(1, 0)])

    def test_cond_br_on_a_non_i1_value(self, registry):
        module = ir.IrModule(registry=registry.dialects)
        region, entry = new_func(module, "f", [ir.I64])
        done = module.append_block(region, [])
        module.set_insertion(entry)
        ir.create_op(module, "cf.cond_br", [entry.arguments[0]], [],
                     successors=[(done, []), (done, [])])
        module.set_insertion(done)
        ir.create_op(module, "func.return", [], [], is_terminator=True)
        with pytest.raises(InterpError) as info:
            run_function(module, "f", [IntValue(64, 1)])
        assert str(info.value) == ("[type-constraint] at 'cf.cond_br' in ^bb1: operand "
                                   "'condition' (operand 0) violates i1, got i64")

    @pytest.mark.parametrize("hot", [math.inf, 0])
    def test_ill_typed_operand_fails_when_reached(self, registry, monkeypatch,
                                                  compiled, hot):
        monkeypatch.setattr(interp, "HOT", hot)
        module = ir.IrModule(registry=registry.dialects)
        region, entry = new_func(module, "f", [ir.I1, ir.I64])
        done, bad = module.append_block(region, []), module.append_block(region, [])
        module.set_insertion(entry)
        ir.create_op(module, "cf.cond_br", [entry.arguments[0]], [],
                     successors=[(done, []), (bad, [])])
        module.set_insertion(done)
        ir.create_op(module, "func.return", [], [], is_terminator=True)
        module.set_insertion(bad)
        x = entry.arguments[1]
        ir.create_op(module, "arith.addf", [x, x], [ir.I64])
        ir.create_op(module, "func.return", [], [], is_terminator=True)
        assert run_function(module, "f", [IntValue(1, 1), IntValue(64, 2)]) == []
        with pytest.raises(InterpError) as info:
            run_function(module, "f", [IntValue(1, 0), IntValue(64, 2)])
        assert str(info.value) == ("[type-constraint] at 'arith.addf' in ^bb3: operand "
                                   "'lhs' (operand 0) violates AnyFloat, got i64")
        # the op has no source form; the second run keeps the closures
        assert compiled == [None] * (hot == 0)

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("edge, message", [
        ("branch", "[bad-successor] at 'cf.br' in ^bb2: successor ^bb3 expects 1 "
                   "argument(s) of matching type, got 1"),
        ("branch-arity", "[bad-successor] at 'cf.br' in ^bb2: successor ^bb3 expects 1 "
                         "argument(s) of matching type, got 0"),
        ("call", "[function-type] at 'func.call' in ^bb2: result types (f32) differ "
                 "from the function type's (f64)"),
        ("call-arity", "[function-type] at 'func.call' in ^bb2: result types () differ "
                       "from the function type's (f64)"),
        ("return", "[function-type] at 'func.return' in ^bb2: returned types (f64) "
                   "differ from the function type's (f32)"),
    ], ids=["branch", "branch-arity", "call", "call-arity", "return"])
    def test_ill_typed_edge_fails_when_reached(self, registry, monkeypatch, compiled,
                                               tier, edge, message):
        # f(x: f64) -> f32 passes x on as an f32 value; the verifier rejects each
        module = ir.IrModule(registry=registry.dialects)
        _, g = new_func(module, "g", [ir.F64], [ir.F64])
        ir.create_op(module, "func.return", list(g.arguments), [], is_terminator=True)
        region, entry = new_func(module, "f", [ir.F64], [ir.F32])
        x = entry.arguments[0]
        if edge.startswith("branch"):
            block = module.append_block(region, [ir.F32])
            module.set_insertion(entry)
            ir.create_op(module, "cf.br", [], [], is_terminator=True,
                         successors=[(block, [x] if edge == "branch" else [])])
            module.set_insertion(block)
            one = ir.create_op(module, "arith.constant", [], [ir.F32],
                               attributes={"value": ir.FloatAttr(1.0, ir.F32)})
            x = ir.create_op(module, "arith.addf", [block.arguments[0], one.results[0]],
                             [ir.F32]).results[0]
        elif edge.startswith("call"):
            call = ir.create_op(module, "func.call", [x], [ir.F32] if edge == "call" else [],
                                attributes={"callee": ir.SymbolAttr("g")})
            x = call.results[0] if call.results else x
        ir.create_op(module, "func.return", [x], [], is_terminator=True)
        assert not ir.verify_module(module).ok
        use_tier(monkeypatch, tier, module)
        for _ in range(2):
            with pytest.raises(InterpError, match=f"^{re.escape(message)}$"):
                run_function(module, "f", [F64Value(2.0 ** -24 + 2.0 ** -50)])
        assert compiled == [None] * (tier == "compiled")  # the edge has no source form

    @pytest.mark.parametrize("threads", [1, 8])
    @pytest.mark.parametrize("name", ["gpu.thread_id", "gpu.block_id", "gpu.block_dim"])
    def test_unknown_launch_dimension(self, vadd, name, threads):
        next(op for op in walk_ops(vadd) if op.name == name).attributes[
            "dimension"] = ir.StringAttr("w")
        [finding] = ir.verify_module(vadd).diagnostics
        assert str(finding) == (f"[attr-value] at '{name}' in ^bb1: attribute "
                                "'dimension' is 'w', not one of x|y|z")
        with pytest.raises(InterpError, match=f"^{re.escape(str(finding))}$"):
            run_kernel(vadd, "vadd", LaunchConfig((1, 1, 1), (threads, 1, 1)),
                       TestKernels().vadd_buffers())

    @pytest.mark.parametrize("tier", TIERS)
    def test_unknown_cmpi_predicate(self, max_module, monkeypatch, tier):
        next(op for op in walk_ops(max_module) if op.name == "arith.cmpi").attributes[
            "predicate"] = ir.StringAttr("foo")
        [finding] = ir.verify_module(max_module).diagnostics
        assert str(finding) == ("[attr-value] at 'arith.cmpi' in ^bb1: attribute "
                                "'predicate' is 'foo', not one of eq|ne|slt|sle|sgt|sge")
        use_tier(monkeypatch, tier, max_module)
        with pytest.raises(InterpError, match=f"^{re.escape(str(finding))}$"):
            run_function(max_module, "max", [IntValue(64, 1), IntValue(64, 2)])

    @pytest.mark.parametrize("threads", [1, 8])
    @pytest.mark.parametrize("name, change, count", [
        ("memref.load", lambda operands: operands.append(operands[-1]), 2),
        ("memref.store", lambda operands: operands.pop(), 0),
    ], ids=["extra-index", "no-index"])
    def test_memref_index_count(self, vadd, name, change, count, threads):
        change(next(op for op in walk_ops(vadd) if op.name == name).operands)
        [finding] = ir.verify_module(vadd).diagnostics
        assert str(finding) == (f"[index-count] at '{name}' in ^bb1: {count} index(es) "
                                "for a memref of rank 1")
        with pytest.raises(InterpError, match=f"^{re.escape(str(finding))}$"):
            run_kernel(vadd, "vadd", LaunchConfig((1, 1, 1), (threads, 1, 1)),
                       TestKernels().vadd_buffers())

    @pytest.mark.parametrize("threads", [1, 8])
    @pytest.mark.parametrize("name, keep, message", [
        ("memref.store", 1, "expected 2+ operand(s), got 1"),
        ("memref.load", 0, "expected 1+ operand(s), got 0"),
    ], ids=["store", "load"])
    def test_access_without_its_buffer(self, vadd, name, keep, message, threads):
        del next(op for op in walk_ops(vadd) if op.name == name).operands[keep:]
        finding = ir.verify_module(vadd).diagnostics[0]  # the op's first
        assert str(finding) == f"[arity-mismatch] at '{name}' in ^bb1: {message}"
        with pytest.raises(InterpError, match=f"^{re.escape(str(finding))}$"):
            run_kernel(vadd, "vadd", LaunchConfig((1, 1, 1), (threads, 1, 1)),
                       TestKernels().vadd_buffers())

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("threads", [1, 8])
    def test_values_a_spec_does_not_list_fail_when_reached(self, monkeypatch, tier, threads):
        # a registry whose specs list no values verifies these ops; they
        # still fail as an InterpError, not a raw Python error
        registry = dialects.DialectRegistry()
        for spec in dialects.BUILTIN_SPECS:
            dialects.register_dialect(registry, dialects.load_dialect_spec(
                re.sub(r"string\(.*?\)", "string", spec)))
        module = ir.IrModule(registry=registry)
        _, entry = new_func(module, "f", [ir.I64, ir.I64], [ir.I1])
        cmp = ir.create_op(module, "arith.cmpi", entry.arguments, [ir.I1],
                           {"predicate": ir.StringAttr("foo")})
        ir.create_op(module, "func.return", cmp.results, [], is_terminator=True)
        new_func(module, "k")
        ir.create_op(module, "gpu.thread_id", [], [ir.INDEX],
                     {"dimension": ir.StringAttr("w")})
        ir.create_op(module, "func.return", [], [], is_terminator=True)
        assert ir.verify_module(module).ok
        use_tier(monkeypatch, tier, module)
        runs = "{}: attribute '{}' is '{}', not one of {}, the values the interpreter runs"
        cmpi = runs.format("arith.cmpi", "predicate", "foo", "eq|ne|slt|sle|sgt|sge")
        with pytest.raises(InterpError, match=f"^{re.escape(cmpi)}$"):
            run_function(module, "f", [IntValue(64, 1), IntValue(64, 2)])
        dimension = runs.format("gpu.thread_id", "dimension", "w", "x|y|z")
        with pytest.raises(InterpError, match=f"^{re.escape(dimension)}$"):
            run_kernel(module, "k", LaunchConfig((1, 1, 1), (threads, 1, 1)), [])

    def test_indexing_map_of_another_attribute(self, registry, monkeypatch):
        module = einsum.build_einsum_function(registry, einsum.parse_einsum("(i)->(i)"))
        generic = next(op for op in walk_ops(module) if op.name == "linalg.generic")
        generic.attributes["indexing_maps"] = ir.ArrayAttr((ir.IntAttr(0, ir.I64),) * 2)
        [finding] = ir.verify_module(module).diagnostics
        assert str(finding).startswith("[indexing-map] at 'linalg.generic' in ^bb")
        assert str(finding).endswith(": indexing map 0 (IntAttr(value=0, type=IntType("
                                     "width=64))) is not an affine map")
        for tier in TIERS:
            use_tier(monkeypatch, tier, module)
            with pytest.raises(InterpError, match=f"^{re.escape(str(finding))}$"):
                run_function(module, "einsum", [tensor_value(np.ones(8))] * 2)

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("case, message", [
        ("string-map", "indexing map 1 (StringAttr(text='(i)')) is not an affine map"),
        ("rank", "indexing map 0 has 1 target(s) for an operand of rank 2"),
        ("n-axes", "indexing map 1 has 4 axes, map 0 has 3"),
        ("unnamed-axis", "no indexing map names axis d2"),
        ("iterator-types", 'iterator_types must be one "parallel" or "reduction" per '
                           "axis, 3 in all"),
    ], ids=["string-map", "rank", "n-axes", "unnamed-axis", "iterator-types"])
    def test_generic_map_facts_are_verified(self, registry, monkeypatch, tier, case,
                                            message):
        # the maps of (i,k),(k,j)->(i,j), each broken in one way MLIR rejects
        module = einsum.build_einsum_function(registry,
                                              einsum.parse_einsum("(i,k),(k,j)->(i,j)"))
        generic = next(op for op in walk_ops(module) if op.name == "linalg.generic")
        maps = list(generic.attributes["indexing_maps"].elements)
        if case == "string-map":
            maps[1] = ir.StringAttr("(i)")
        elif case == "rank":
            maps[0] = ir.IndexMapAttr(3, (0,))
        elif case == "n-axes":
            maps[1] = ir.IndexMapAttr(4, maps[1].targets)
        elif case == "unnamed-axis":  # (i,k),(k,k)->(i,k): j is no operand's
            maps = [ir.IndexMapAttr(3, tuple(t if t != 2 else 1 for t in m.targets))
                    for m in maps]
        else:
            generic.attributes["iterator_types"] = ir.ArrayAttr((ir.StringAttr("parallel"),))
        generic.attributes["indexing_maps"] = ir.ArrayAttr(tuple(maps))
        entry = func_region(module, "einsum").entry
        text = f"[indexing-map] at 'linalg.generic' in ^bb{entry.id}: {message}"
        assert str(ir.verify_module(module)) == text
        use_tier(monkeypatch, tier, module)
        x = tensor_value(np.ones((4, 4), np.float32))
        with pytest.raises(InterpError) as info:
            run_function(module, "einsum", [x] * 3)
        assert str(info.value) == text

    @pytest.mark.parametrize("points", [3, 8], ids=["points", "lanes"])
    def test_ill_typed_yield_fails_when_reached(self, registry, points):
        # 8 points would run in lanes, but the ill-typed body has no lane form
        module = ill_typed_yield(registry)
        assert not ir.verify_module(module).ok
        with pytest.raises(InterpError) as info:
            run_function(module, "einsum", [tensor_value(np.ones(points))] * 2)
        assert str(info.value) == ("[yield-type] at 'linalg.yield' in ^bb2: yielded types "
                                   "(f64) differ from the output element types (f32)")

    @pytest.mark.parametrize("tier", TIERS)
    def test_decode_failure_is_an_interp_error(self, registry, monkeypatch, compiled, tier):
        # a decoder's own Python error, here int(inf), fails its op when reached
        module = ir.IrModule(registry=registry.dialects)
        new_func(module, "f", [], [ir.I64])
        one = ir.create_op(module, "arith.constant", [], [ir.I64],
                           attributes={"value": ir.IntAttr(1, ir.I64)})
        ir.create_op(module, "func.return", one.results, [], is_terminator=True)
        assert ir.verify_module(module).ok
        monkeypatch.setitem(interp._OPS, "arith.constant",
                            lambda op, at, form=None: int(math.inf))
        use_tier(monkeypatch, tier, module)
        with pytest.raises(InterpError) as info:
            run_function(module, "f", [])
        assert type(info.value) is InterpError
        assert str(info.value) == "arith.constant: cannot convert float infinity to integer"
        assert compiled == [None] * (tier == "compiled")  # the op has no source form

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("value", [ir.IntAttr(3, ir.I64), ir.FloatAttr(3.0, ir.F32),
                                       ir.StringAttr("3")], ids=["i64", "f32", "string"])
    def test_constant_of_another_type_fails_when_reached(self, registry, monkeypatch,
                                                         compiled, tier, value):
        module = ir.IrModule(registry=registry.dialects)
        _, entry = new_func(module, "f", [], [ir.F64])
        three = ir.create_op(module, "arith.constant", [], [ir.F64],
                             attributes={"value": value})
        ir.create_op(module, "func.return", three.results, [], is_terminator=True)
        text = (f"[type-constraint] at 'arith.constant' in ^bb{entry.id}: value {value!r} "
                "is not a constant of the result type f64")
        assert str(ir.verify_module(module)) == text
        use_tier(monkeypatch, tier, module)
        with pytest.raises(InterpError) as info:
            run_function(module, "f", [])
        assert str(info.value) == text
        assert compiled == [None] * (tier == "compiled")  # the op has no source form

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("value", [
        ir.IntAttr(2.5, ir.I64), ir.IntAttr(math.inf, ir.I64), ir.FloatAttr("abc", ir.F64),
        ir.FloatAttr(1, ir.F64), ir.IntAttr(2 ** 64, ir.I64), ir.IntAttr(-2 ** 63 - 1, ir.I64),
        ir.IntAttr(2, ir.IntType(1)), ir.IntAttr(np.int64(3), ir.INDEX),
    ], ids=["fraction", "inf", "string", "int-for-f64", "above-i64", "below-i64", "i1",
            "numpy-int"])
    def test_constant_not_a_value_of_its_type_fails_when_reached(
            self, registry, monkeypatch, compiled, tier, value):
        module = ir.IrModule(registry=registry.dialects)
        _, entry = new_func(module, "f", [], [value.type])
        c = ir.create_op(module, "arith.constant", [], [value.type],
                         attributes={"value": value})
        ir.create_op(module, "func.return", c.results, [], is_terminator=True)
        text = (f"[type-constraint] at 'arith.constant' in ^bb{entry.id}: value {value!r} "
                f"is not a constant of the result type {value.type}")
        assert str(ir.verify_module(module)) == text
        with pytest.raises(ir.IrError, match="^cannot print attribute .*: not a value of its type$"):
            ir.print_module(module)
        use_tier(monkeypatch, tier, module)
        with pytest.raises(InterpError) as info:
            run_function(module, "f", [])
        assert type(info.value) is InterpError and str(info.value) == text
        assert compiled == [None] * (tier == "compiled")  # the op has no source form

    @pytest.mark.parametrize("value, printed, runs_as", [
        (ir.IntAttr(2 ** 64 - 1, ir.I64), "18446744073709551615", -1),
        (ir.IntAttr(-2 ** 63, ir.I64), str(-2 ** 63), -2 ** 63),
        (ir.IntAttr(True, ir.IntType(1)), "true", 1),
        (ir.IntAttr(10 ** 30, ir.INDEX), str(10 ** 30), 10 ** 30),
        (ir.FloatAttr(np.float64(0.5), ir.F64), "0.5", 0.5),
    ], ids=["i64-unsigned", "i64-least", "i1-bool", "huge-index", "numpy-float"])
    def test_constant_at_the_edge_of_its_type(self, registry, value, printed, runs_as):
        module = ir.IrModule(registry=registry.dialects)
        new_func(module, "f", [], [value.type])
        c = ir.create_op(module, "arith.constant", [], [value.type],
                         attributes={"value": value})
        ir.create_op(module, "func.return", c.results, [], is_terminator=True)
        assert ir.verify_module(module).ok
        assert f"arith.constant {printed} : {value.type}" in ir.print_module(module)
        [out] = run_function(module, "f", [])
        assert out.value == runs_as and type(out.value) is type(runs_as)

    @staticmethod
    def guarded(module, fault):
        """@f(c: i1, x: f64) -> f64 returns x when c holds; otherwise it runs
        the block that ``fault(module, x)`` fills."""
        region, entry = new_func(module, "f", [ir.I1, ir.F64], [ir.F64])
        done, bad = module.append_block(region, []), module.append_block(region, [])
        c, x = entry.arguments
        module.set_insertion(entry)
        ir.create_op(module, "cf.cond_br", [c], [], successors=[(done, []), (bad, [])])
        module.set_insertion(done)
        ir.create_op(module, "func.return", [x], [], is_terminator=True)
        module.set_insertion(bad)
        fault(module, x)

    @pytest.mark.parametrize("tier", TIERS)
    def test_use_not_dominated_fails_when_reached(self, registry, monkeypatch, compiled,
                                                  tier):
        def fault(module, x):  # x + y, with y defined after the add
            add = ir.create_op(module, "arith.addf", [x], [ir.F64])
            y = ir.create_op(module, "arith.constant", [], [ir.F64],
                             attributes={"value": ir.FloatAttr(1.0, ir.F64)})
            add.operands.append(y.results[0])
            ir.create_op(module, "func.return", add.results, [], is_terminator=True)

        module = ir.IrModule(registry=registry.dialects)
        self.guarded(module, fault)
        [finding] = ir.verify_module(module).diagnostics
        assert finding.category == "dominance"
        self.check_fails_when_reached(module, monkeypatch, compiled, tier, str(finding))

    @pytest.mark.parametrize("tier", TIERS)
    def test_branch_into_another_function_fails_when_reached(self, registry, monkeypatch,
                                                             compiled, tier):
        module = ir.IrModule(registry=registry.dialects)
        _, other = new_func(module, "g", [], [])
        ir.create_op(module, "func.return", [], [], is_terminator=True)
        self.guarded(module, lambda module, x: ir.create_op(
            module, "cf.br", [], [], successors=[(other, [])]))
        [finding] = ir.verify_module(module).diagnostics
        assert finding.category == "bad-successor"
        self.check_fails_when_reached(module, monkeypatch, compiled, tier, str(finding))

    def test_faulted_function_fails_when_called(self, registry):
        module = ir.IrModule(registry=registry.dialects)
        new_func(module, "f")
        ir.create_op(module, "func.return", [], [], is_terminator=True)
        del module.lookup_symbol("f").attributes["function_type"]
        with pytest.raises(InterpError) as info:
            run_function(module, "f", [])
        assert str(info.value) == ("[missing-attr] at 'func.func': missing required "
                                   "attribute 'function_type'")

    @pytest.mark.parametrize("ftype, inputs, finding", [
        (ir.FunctionType((ir.F64,), (ir.F32,)), [F64Value(2 ** -24 + 2 ** -50)],
         "entry block argument types (f32) differ from the function type's inputs (f64)"),
        (ir.FunctionType((), (ir.F32,)), [],
         "entry block argument types (f32) differ from the function type's inputs ()"),
        (ir.F64, [F64Value(1.0)], "function_type f64 is not a function type"),
    ], ids=["input-type", "input-count", "not-a-function"])
    def test_function_signature_checked(self, registry, ftype, inputs, finding):
        # @f adds f32 1.0 to its f32 entry argument, but is declared as ``ftype``
        module = ir.IrModule(registry=registry.dialects)
        _, entry = new_func(module, "f", (ir.F32,), (ir.F32,))
        one = ir.create_op(module, "arith.constant", [], [ir.F32],
                           {"value": ir.FloatAttr(1.0, ir.F32)})
        total = ir.create_op(module, "arith.addf", [entry.arguments[0], one.results[0]],
                             [ir.F32])
        ir.create_op(module, "func.return", total.results, [], is_terminator=True)
        module.lookup_symbol("f").attributes["function_type"] = ir.TypeAttr(ftype)
        text = f"[function-type] at 'func.func': {finding}"
        assert str(ir.verify_module(module)) == text
        with pytest.raises(InterpError) as info:
            run_function(module, "f", inputs)
        assert str(info.value) == text

    def test_function_without_entry_block(self, registry):
        module = ir.IrModule(registry=registry.dialects)
        region, _ = new_func(module)
        region.blocks.clear()
        text = "[function-type] at 'func.func': function has no entry block"
        assert str(ir.verify_module(module)) == text
        with pytest.raises(InterpError) as info:
            run_function(module, "f", [])
        assert str(info.value) == text

    @pytest.mark.parametrize("points", [3, 8], ids=["points", "lanes"])
    def test_generic_without_body_block(self, registry, points):
        module = einsum.build_einsum_function(registry, einsum.parse_einsum("(i)->(i)"))
        generic = next(op for op in walk_ops(module) if op.name == "linalg.generic")
        generic.regions[0].blocks.clear()
        entry = func_region(module, "einsum").entry
        text = f"[body-type] at 'linalg.generic' in ^bb{entry.id}: generic has no body block"
        assert str(ir.verify_module(module)) == text
        with pytest.raises(InterpError) as info:
            run_function(module, "einsum", [tensor_value(np.ones(points, np.float32))] * 2)
        assert str(info.value) == text

    @pytest.mark.parametrize("maps, operands", [(0, 0), (2, 3), (3, 2)])
    def test_generic_takes_one_map_per_operand(self, registry, maps, operands):
        module = einsum.build_einsum_function(registry, einsum.parse_einsum("(i),(i)->(i)"))
        generic = next(op for op in walk_ops(module) if op.name == "linalg.generic")
        m = generic.attributes["indexing_maps"].elements[0]
        generic.attributes["indexing_maps"] = ir.ArrayAttr((m,) * maps)
        generic.operands = generic.operands[3 - operands:]
        entry = func_region(module, "einsum").entry
        text = (f"[arity-mismatch] at 'linalg.generic' in ^bb{entry.id}: {maps} indexing "
                f"map(s) for {operands} operand(s); one per operand, the output last")
        assert str(ir.verify_module(module)) == text
        x = tensor_value(np.ones(8, np.float32))
        with pytest.raises(InterpError) as info:
            run_function(module, "einsum", [x] * 3)
        assert str(info.value) == text

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("points", [3, 8], ids=["points", "lanes"])
    @pytest.mark.parametrize("retype, got", [
        (False, "f32, f32, f32"), (True, "f64, f32, f32")], ids=["count", "type"])
    def test_generic_body_takes_one_argument_per_operand(self, registry, monkeypatch,
                                                         tier, points, retype, got):
        # the einsum (i),(i)->(i) given a fourth operand and map: its body
        # still takes three arguments, once also the first of another type
        module = einsum.build_einsum_function(registry, einsum.parse_einsum("(i),(i)->(i)"))
        generic = next(op for op in walk_ops(module) if op.name == "linalg.generic")
        maps = generic.attributes["indexing_maps"].elements
        generic.attributes["indexing_maps"] = ir.ArrayAttr(maps[:1] + maps)
        generic.operands.insert(0, generic.operands[0])
        if retype:
            generic.regions[0].entry.arguments[0].type = ir.F64
        entry = func_region(module, "einsum").entry
        text = (f"[body-type] at 'linalg.generic' in ^bb{entry.id}: body block argument "
                f"types ({got}) differ from the operand element types (f32, f32, f32, f32)")
        assert str(ir.verify_module(module).diagnostics[0]) == text
        use_tier(monkeypatch, tier, module)
        x = tensor_value(np.arange(points, dtype=np.float32))
        with pytest.raises(InterpError) as info:
            run_function(module, "einsum", [x] * 3)
        assert str(info.value) == text

    def test_module_without_registry_is_refused(self, registry):
        # a module's dialect registry builds and checks its ops, so it has one
        # from the start; an intrinsic registry is not one
        for given in (None, registry):
            with pytest.raises(ir.IrError) as info:
                ir.IrModule(given)
            assert str(info.value) == f"a module needs a dialect registry, not {given!r}"

    @staticmethod
    def check_fails_when_reached(module, monkeypatch, compiled, tier, finding):
        use_tier(monkeypatch, tier, module)
        for _ in range(2):
            assert run_function(module, "f", [IntValue(1, 1), F64Value(2.0)]) == [
                F64Value(2.0)]
            with pytest.raises(InterpError) as info:
                run_function(module, "f", [IntValue(1, 0), F64Value(2.0)])
            assert str(info.value) == finding
        assert compiled == [None] * (tier == "compiled")  # the op has no source form


# f32/f64 arithmetic agrees with numpy scalars bit for bit

_UNARY = {"arith.negf": np.negative, "math.exp": np.exp}
_BINARY = {"arith.addf": np.add, "arith.subf": np.subtract,
           "arith.mulf": np.multiply, "arith.divf": np.divide}
@functools.cache
def float_module(t):
    """One function per float op of type ``t``, named after the op."""
    from bridgegen.dialects import build_op

    registry = codegen.register_bindings(codegen.IntrinsicRegistry(), "arith", "math")
    module = ir.IrModule(registry=registry.dialects)
    for name in list(_UNARY) + list(_BINARY):
        arity = 1 if name in _UNARY else 2
        _, entry = new_func(module, name, [t] * arity, [t])
        op = build_op(module, name, entry.arguments)
        build_op(module, "func.return", op.results)
    assert ir.verify_module(module).ok
    return module


def special_floats(width):
    tiny = float(np.finfo(np.float32 if width == 32 else np.float64).smallest_subnormal)
    big = float(np.finfo(np.float32 if width == 32 else np.float64).max)
    specials = [0.0, -0.0, tiny, -tiny, big, -big, math.inf, -math.inf,
                math.nan, 1.0, -1.0, 88.7, -103.9, 709.7]
    return st.one_of(st.sampled_from(specials),
                     st.floats(width=width, allow_nan=True,
                               allow_infinity=True))


def same_bits(got, want):
    """The same float64 bits, or NaNs of the same sign."""
    if math.isnan(want):
        return math.isnan(got) and np.signbit(got) == np.signbit(want)
    return np.float64(got).tobytes() == np.float64(want).tobytes()


class TestFloatOpsMatchNumpy:
    """Each float op against numpy's ufunc on both tiers, NaN signs too.
    Except: + and * of two NaNs give either one. numpy's ufuncs, and so
    lanes, give the first; its scalar operators and Python's float closures
    the second; CPython's specialised float ``+`` and ``*`` the first."""

    @settings(max_examples=150, deadline=None)
    @given(a=special_floats(32), b=special_floats(32))
    def test_f32(self, a, b):
        self.check(ir.F32, np.float32, F32Value, a, b)

    @settings(max_examples=150, deadline=None)
    @given(a=special_floats(64), b=special_floats(64))
    def test_f64(self, a, b):
        self.check(ir.F64, np.float64, F64Value, a, b)

    @pytest.mark.parametrize("t", [ir.F32, ir.F64], ids=str)
    def test_nans_of_either_sign(self, compiled, t):
        scalar, box = (np.float32, F32Value) if t == ir.F32 else (np.float64, F64Value)
        for a, b in itertools.product([math.nan, -math.nan, 1.5], repeat=2):
            self.check(t, scalar, box, a, b)
        # on the compiled tier, each function compiles from its entry
        assert len(compiled) == 9 * (len(_UNARY) + len(_BINARY)) and all(compiled)

    @staticmethod
    def check(t, scalar, box, a, b):
        module = float_module(t)
        x, y = scalar(a), scalar(b)
        for tier in TIERS:
            with pytest.MonkeyPatch.context() as mp:
                use_tier(mp, tier, module)
                for name, fn in list(_UNARY.items()) + list(_BINARY.items()):
                    args = (x,) if name in _UNARY else (x, y)
                    with np.errstate(all="ignore"):
                        want = float(fn(*args))
                    [got] = run_function(module, name, [box(float(v)) for v in args])
                    if name in ("arith.addf", "arith.mulf") and np.isnan(args).all():
                        assert math.isnan(got.value) and np.signbit(got.value) in np.signbit(args)
                    else:
                        assert same_bits(got.value, want), (tier, name, args, got.value, want)


class TestMixedPrecisions:
    """A float op whose operand types differ from its result type is
    ill-typed IR: it fails when reached, with the verifier's first finding
    about it, on either tier."""

    @pytest.mark.parametrize("tier", TIERS)
    def test_fails_when_reached(self, registry, monkeypatch, compiled, tier):
        use_tier(monkeypatch, tier)
        module, functions = ir.IrModule(registry=registry.dialects), []
        for name in ("arith.addf", "arith.divf"):
            for result, inputs in ((ir.F32, [ir.F32, ir.F64]), (ir.F32, [ir.F64, ir.F32]),
                                   (ir.F64, [ir.F32, ir.F64]), (ir.F64, [ir.F64, ir.F32])):
                symbol = f"f{len(functions)}"
                _, entry = new_func(module, symbol, inputs, [result])
                op = ir.create_op(module, name, list(entry.arguments), [result])
                ir.create_op(module, "func.return", op.results, [], is_terminator=True)
                functions.append((symbol, op, inputs))
        first = {d.operation: str(d) for d in reversed(ir.verify_module(module).diagnostics)}
        assert first[functions[0][1]] == ("[type-constraint] at 'arith.addf' in ^bb1: operand "
                                          "'rhs' (operand 1) violates same(0), got f64")
        for symbol, op, inputs in functions:
            args = [interp.value_of_type(t, 1.0) for t in inputs]
            for _ in range(2):
                with pytest.raises(InterpError) as info:
                    run_function(module, symbol, args)
                assert str(info.value) == first[op]
        # the op has no source form: each function stays on closures
        assert compiled == [None] * (len(functions) if tier == "compiled" else 0)


class TestBoxing:
    """run_function takes and returns boxed values; an F32Value's value is a
    Python float, whatever the interpreter computes with."""

    def test_returned_directly(self, sigmoid):
        [out] = run_function(sigmoid, "sigmoid", [F32Value(2.0)])
        assert type(out) is F32Value and type(out.value) is float

    def test_returned_through_a_call(self, registry):
        from bridgegen.dialects import build_op

        module = ir.IrModule(registry=registry.dialects)
        _, g = new_func(module, "g", [ir.F32], [ir.F32])
        neg = build_op(module, "arith.negf", [g.arguments[0]])
        build_op(module, "func.return", neg.results)
        _, f = new_func(module, "f", [ir.F32], [ir.F32])
        call = build_op(module, "func.call", [f.arguments[0]],
                        attributes={"callee": ir.SymbolAttr("g")}, result_types=[ir.F32])
        build_op(module, "func.return", call.results)
        assert ir.verify_module(module).ok
        [out] = run_function(module, "f", [F32Value(0.1)])
        assert type(out.value) is float and out.value == -ir.to_f32(0.1)

    def test_kernel_scalar_argument(self, registry, monkeypatch):
        # saxpy thread by thread: alpha is an np.float32 in each thread's frame
        monkeypatch.setattr(interp, "MIN_LANES", math.inf)
        types = [fir.parse_frontend_type(t) for t in gen.KERNEL_TYPES["saxpy"]]
        module = run_pipeline(registry, gen.kernel_text("saxpy"), "saxpy", types)
        x, y = np.linspace(-2, 2, 8, dtype=np.float32), np.full(8, 0.1, np.float32)
        args = [F32Value(0.3), MemRefValue(ir.F32, (8,), x.copy()),
                MemRefValue(ir.F32, (8,), y.copy())]
        returned = run_kernel(module, "saxpy", LaunchConfig((2, 1, 1), (4, 1, 1)), args)
        assert returned[0] is args[0] and type(args[0].value) is float
        assert args[2].data.tobytes() == (np.float32(0.3) * x + y).tobytes()


class TestF32Scalars:
    """f32 scalars are np.float32, so an f32 op is one numpy scalar op: no
    double op rounded through ir.to_f32 on the way."""

    @pytest.fixture
    def recurrence(self, registry):
        [p] = [p for p in gen.loop_programs(random.Random("interp_loops:73"))
               if p.name == "rec_f32"]
        return run_pipeline(registry, p.text, p.entry,
                            [fir.parse_frontend_type(t) for t in p.types])

    def test_compiled_source_binds_no_rounding_or_operator(self, recurrence):
        text, namespace = interp._source(func_region(recurrence, "rec_f32"))
        operators = [f for f in vars(operator).values() if callable(f)]
        assert not [v for v in namespace.values()
                    if v is ir.to_f32 or any(v is f for f in operators)]
        assert re.search(r" = \(v\d+ / v\d+\)\n", text) and re.search(r" = -v\d+\n", text)

    @pytest.mark.parametrize("tier", TIERS)
    def test_to_f32_not_called_per_iteration(self, recurrence, monkeypatch, tier):
        use_tier(monkeypatch, tier)
        calls, to_f32 = [], ir.to_f32
        monkeypatch.setattr(ir, "to_f32", lambda v: calls.append(v) or to_f32(v))
        counts = []
        for trips in (3, 500):
            x, n = F32Value(0.75), IntValue(64, trips)
            calls.clear()
            interp.prepare(recurrence)  # each run decodes its constants
            run_function(recurrence, "rec_f32", [x, n])
            counts.append(len(calls))
        assert counts[0] == counts[1]  # once a run: decoding constants, boxing the result


class TestCallDepth:
    def test_deep_recursion_is_an_interp_error(self, registry):
        from bridgegen.dialects import build_op

        module = ir.IrModule(registry=registry.dialects)
        _, entry = new_func(module, "rec", [ir.I64], [ir.I64])
        call = build_op(module, "func.call",
                        [entry.arguments[0]],
                        attributes={"callee": ir.SymbolAttr("rec")},
                        result_types=[ir.I64])
        build_op(module, "func.return", [call.results[0]])
        assert ir.verify_module(module).ok
        with pytest.raises(InterpError,
                           match=f"nested deeper than {interp.MAX_CALL_DEPTH}"):
            run_function(module, "rec", [IntValue(64, 1)])


class TestExecutable:
    """A module's executable keeps each function's code across runs: each
    form of each region is decoded once, until the module is prepared again."""

    @pytest.fixture
    def decodes(self, monkeypatch):
        """(region, lane form asked) of every _decode or _lane_function call."""
        asked = []
        for name, lanes in (("_decode", False), ("_lane_function", True)):
            monkeypatch.setattr(interp, name, lambda region, faults=None, *shapes, lanes=lanes,
                                decode=getattr(interp, name):
                                asked.append((region, lanes)) or decode(region, faults, *shapes))
        return asked

    def test_each_region_decoded_once(self, registry, sigmoid, decodes):
        from bridgegen.dialects import build_op

        _, entry = new_func(sigmoid, "wrapper", [ir.F32], [ir.F32])
        call = build_op(sigmoid, "func.call", [entry.arguments[0]],
                        attributes={"callee": ir.SymbolAttr("sigmoid")},
                        result_types=[ir.F32])
        build_op(sigmoid, "func.return", [call.results[0]])
        matmul = einsum.build_einsum_function(
            registry, einsum.parse_einsum("(i,k),(k,j)->(i,j)"))
        for _ in range(3):
            [out] = run_function(sigmoid, "wrapper", [F32Value(0.0)])
            assert out.value == 0.5
            [out] = run_function(matmul, "einsum", [tensor_value(np.ones((3, 4))),
                                                    tensor_value(np.ones((4, 3))),
                                                    tensor_value(np.zeros((3, 3)))])
            assert (out.data == 4).all()
        generic = next(op for op in walk_ops(matmul) if op.name == "linalg.generic")
        assert sorted((id(r), lanes) for r, lanes in decodes) == sorted([
            (id(func_region(sigmoid, "wrapper")), False),
            (id(func_region(sigmoid, "sigmoid")), False),
            (id(func_region(matmul, "einsum")), False),
            (id(generic.regions[0]), True)])
        interp.prepare(sigmoid)
        run_function(sigmoid, "wrapper", [F32Value(0.0)])
        assert len(decodes) == 6

    def test_kernel_lane_form_decoded_once(self, registry, vadd, decodes):
        for _ in range(3):
            bufs = TestKernels().vadd_buffers()
            run_kernel(vadd, "vadd", LaunchConfig((2, 1, 1), (4, 1, 1)), bufs)
            assert list(bufs[2].data) == [11.0 * k for k in range(1, 9)]
        assert decodes == [(func_region(vadd, "vadd"), True)]  # no thread ran alone
        ewise = einsum.build_einsum_function(registry, einsum.parse_einsum("(i),(i)->(i)"))
        for _ in range(3):
            [out] = run_function(ewise, "einsum", [tensor_value(np.full(8, 3.0))] * 3)
            assert list(out.data) == [12.0] * 8
        generic = next(op for op in walk_ops(ewise) if op.name == "linalg.generic")
        assert decodes[1:] == [(func_region(ewise, "einsum"), False),
                               (generic.regions[0], True)]  # no point ran alone

    def test_executable_freed_with_its_module(self, registry):
        import weakref

        module = run_pipeline(registry, SUMTO_FIR, "sumto", [fir.I64])
        run_function(module, "sumto", [IntValue(64, 2 * interp.HOT)])
        assert module.executable.funcs["sumto"][1].fast  # decoded and compiled
        exe = weakref.ref(module.executable)
        interp.prepare(module)
        assert exe() is None  # a replaced executable is freed at once
        run_function(module, "sumto", [IntValue(64, 2 * interp.HOT)])
        exe = weakref.ref(module.executable)
        del module
        gc.collect()
        assert exe() is None


@pytest.fixture
def no_collector():
    """The cyclic garbage collector off, with no garbage left before."""
    gc.collect()
    gc.disable()
    yield
    gc.enable()


class TestNoCycles:
    """A run leaves no garbage cycles: the code it builds stays with the
    module's executable, and the rest is freed by reference counting. So
    is a loop-free module, with its executable, once it is dropped."""

    @pytest.mark.parametrize("symbol, text, types, inputs", [
        ("sigmoid", SIGMOID_FIR, [fir.F32], [F32Value(2.0)]),
        ("max", MAX_FIR, [fir.I64, fir.I64], [IntValue(64, 3), IntValue(64, 7)]),
    ], ids=["sigmoid", "max"])
    def test_module_run_and_dropped(self, registry, no_collector, symbol, text, types,
                                    inputs):
        module = run_pipeline(registry, text, symbol, types)
        run_function(module, symbol, inputs)
        del module
        assert gc.collect() == 0

    def test_module_verified_and_dropped(self, registry, no_collector):
        module = run_pipeline(registry, SIGMOID_FIR, "sigmoid", [fir.F32])
        assert ir.verify_module(module).diagnostics == []
        del module
        assert gc.collect() == 0

    @pytest.mark.parametrize("threads", [8, 4], ids=["lanes", "threads"])
    def test_kernel_module_run_and_dropped(self, registry, no_collector, threads):
        module = run_pipeline(registry, VADD_FIR, "vadd", VADD_TYPES)
        bufs = [MemRefValue(ir.F32, (threads,), np.ones(threads, np.float32))
                for _ in range(3)]
        run_kernel(module, "vadd", LaunchConfig((1, 1, 1), (threads, 1, 1)), bufs)
        assert bool(module.executable.funcs["vadd"][1].lanes) == (threads >= interp.MIN_LANES)
        del module
        assert gc.collect() == 0
        assert list(bufs[2].data) == [2.0] * threads

    @pytest.mark.parametrize("points", [8, 3], ids=["lanes", "points"])
    def test_generic_module_run_and_dropped(self, registry, monkeypatch, no_collector,
                                            points):
        plans, lanes = [], []
        plan, run_plan = interp._generic_plan, interp._run_plan
        monkeypatch.setattr(interp, "_generic_plan",
                            lambda *args: plans.append(plan(*args)) or plans[-1])
        monkeypatch.setattr(interp, "_run_plan", lambda *args: lanes.append(run_plan(*args)))
        module = einsum.build_einsum_function(registry, einsum.parse_einsum("(i)->(i)"))
        [out] = run_function(module, "einsum", [tensor_value(np.full(points, 3.0)),
                                                tensor_value(np.zeros(points))])
        # lanes at any size, fewer points than MIN_LANES too
        assert len(plans) == 1 and len(lanes) == 1 and plans[0][3] is not None
        del module
        assert gc.collect() == 0
        assert list(out.data) == [3.0] * points

    def test_loop(self, registry):
        module = run_pipeline(registry, SUMTO_FIR, "sumto", [fir.I64])
        gc.collect()
        for _ in range(2):  # compiled at back edge HOT, then from the entry
            [out] = run_function(module, "sumto", [IntValue(64, 100)])
            assert gc.collect() == 0
            assert out.value == 5050

    @pytest.mark.parametrize("name, args", [("nest", (0.75, 3, 40)), ("diamond", (80,))])
    def test_loop_with_blocks_in_place(self, registry, name, args):
        module, entry, values = loop_program(registry, name, args)
        gc.collect()
        for _ in range(2):  # compiled at back edge HOT, then from the entry
            run_function(module, entry, values)
            assert gc.collect() == 0
        assert module.executable.funcs[entry][1].fast

    def test_kernel(self, vadd):
        bufs = TestKernels().vadd_buffers()
        gc.collect()
        run_kernel(vadd, "vadd", LaunchConfig((2, 1, 1), (4, 1, 1)), bufs)
        assert gc.collect() == 0

    def test_kernel_lanes_across_blocks(self, vadd):
        bufs = [MemRefValue(ir.F32, (64,), np.ones(64, np.float32)) for _ in range(3)]
        gc.collect()
        run_kernel(vadd, "vadd", LaunchConfig((16, 1, 1), (4, 1, 1)), bufs)
        assert gc.collect() == 0
        assert list(bufs[2].data) == [2.0] * 64

    def test_kernel_lanes_falling_back(self, registry):
        # every block stores to slots 0-15: the batch of four blocks collides
        text = ("fn k(_1: memref{f32,1}, _2: memref{f32,1})\n1:\n"
                "  %1 = invoke thread_idx_x() :: index\n"
                "  %2 = invoke load(_2, %1) :: f32\n"
                "  %3 = invoke store(%2, _1, %1) :: Nothing\n  return\n")
        module = run_pipeline(registry, text, "k", [F32_MEMREF] * 2)
        bufs = [MemRefValue(ir.F32, (16,), np.full(16, v, np.float32)) for v in (0, 3)]
        gc.collect()
        run_kernel(module, "k", LaunchConfig((4, 1, 1), (16, 1, 1)), bufs)
        assert gc.collect() == 0
        assert list(bufs[0].data) == [3.0] * 16

    def test_generic(self, registry):
        spec = einsum.parse_einsum("(i,k),(k,j)->(i,j)")
        module = einsum.build_einsum_function(registry, spec)
        values = [tensor_value(np.ones((2, 3))), tensor_value(np.ones((3, 2))),
                  tensor_value(np.zeros((2, 2)))]
        gc.collect()
        run_function(module, "einsum", values)
        assert gc.collect() == 0


def test_readme_states_the_code_constants():
    """Each constant README states with its value has that value in the code."""
    text = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8").split())
    assert set(re.findall(r"`(\w+)` \((\d+)\)", text)) == {
        (name, str(getattr(interp, name)))
        for name in ("LANES", "MIN_LANES", "HOT", "MAX_COMPILED_OPS", "MAX_CALL_DEPTH")}
    assert f"{fir.MAX_DIGITS} digits (`fir.MAX_DIGITS`" in text
    assert f"at most {cli.MAX_INPUT_ELEMENTS} elements (`cli.MAX_INPUT_ELEMENTS`)" in text
    assert f"more than {fir.MAX_TYPE_DEPTH} levels deep (`fir.MAX_TYPE_DEPTH`)" in text
    bounds = re.search(
        r"an f32 when \|v\| ≤ `2\*\*(\d+)` and an f64 when \|v\| ≤ `2\*\*(\d+)`", text)
    assert bounds
    for t, n in zip((fir.F32, fir.F64), map(int, bounds.groups())):
        assert fir.literal_fits(t, fir.IntLit(2 ** n))
        assert not fir.literal_fits(t, fir.IntLit(2 ** n + 1))
    cap = re.search(r"step cap \(default 10\^(\d+)\)", text)
    assert cap and 10 ** int(cap[1]) == interp.DEFAULT_STEP_LIMIT
