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

from bridgegen import cli, einsum, fir, interp, intrinsics, ir
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
    new_func,
    run_pipeline,
    tensor_value,
    use_tier,
    walk_ops,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import programs as gen  # noqa: E402


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
        build_op(registry.dialects, module, "func.func",
                 attributes={"sym_name": ir.SymbolAttr("cast"),
                             "function_type": ir.TypeAttr(
                                 ir.FunctionType((ir.I64,), (ir.INDEX,)))},
                 regions=[region])
        entry = module.append_block(region, [ir.I64])
        module.set_insertion(entry)
        cast = build_op(registry.dialects, module, "arith.index_cast",
                        [entry.arguments[0]], result_types=[ir.INDEX])
        build_op(registry.dialects, module, "func.return", [cast.results[0]])
        assert ir.verify_module(module).ok
        [out] = run_function(module, "cast", [IntValue(64, 42)])
        assert isinstance(out, IndexValue) and out.value == 42

    def test_func_call(self, registry, sigmoid):
        from bridgegen.dialects import build_op

        module = sigmoid
        region = module.new_region()
        module.set_insertion(module.body.blocks[0])
        build_op(registry.dialects, module, "func.func",
                 attributes={"sym_name": ir.SymbolAttr("wrapper"),
                             "function_type": ir.TypeAttr(
                                 ir.FunctionType((ir.F32,), (ir.F32,)))},
                 regions=[region])
        entry = module.append_block(region, [ir.F32])
        module.set_insertion(entry)
        call = build_op(registry.dialects, module, "func.call",
                        [entry.arguments[0]],
                        attributes={"callee": ir.SymbolAttr("sigmoid")},
                        result_types=[ir.F32])
        build_op(registry.dialects, module, "func.return", [call.results[0]])
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
        asked, decode = [], interp._decode
        monkeypatch.setattr(interp, "_decode", lambda region, lanes=False:
                            asked.append(lanes) or decode(region, lanes))
        outs = []
        for n in (interp.MIN_LANES - 1, interp.MIN_LANES):
            asked.clear()
            bufs = self.vadd_buffers()
            run_kernel(vadd, "vadd", LaunchConfig((1, 1, 1), (n, 1, 1)), bufs)
            assert asked.count(True) == (n == interp.MIN_LANES)
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


class TestStepBoundary:
    """A budget equal to the exact number of operations executed passes;
    one less raises, before the operation that would exceed it runs."""

    def test_plain_loop(self, registry, monkeypatch):
        module = run_pipeline(registry, SUMTO_FIR, "sumto", [fir.I64])
        # entry 3 ops, header 2 per test (n + 1 tests), body 3 per trip, exit 1;
        # n back edges, so budgets past HOT of them end in the compiled tier
        n = interp.HOT + 10
        exact = 3 + 2 * (n + 1) + 3 * n + 1
        for hot in (math.inf, interp.HOT):  # the closures alone, then compiling
            monkeypatch.setattr(interp, "HOT", hot)
            [out] = run_function(module, "sumto", [IntValue(64, n)],
                                 step_limit=exact)
            assert out.value == n * (n + 1) // 2
            for limit in range(1, exact):
                with pytest.raises(StepLimitExceeded,
                                   match=f"^step budget of {limit} operations exceeded$"):
                    run_function(module, "sumto", [IntValue(64, n)], step_limit=limit)

    def test_block_with_call(self, registry, sigmoid):
        from bridgegen.dialects import build_op

        _, entry = new_func(sigmoid, "wrapper", [ir.F32], [ir.F32])
        call = build_op(registry.dialects, sigmoid, "func.call",
                        [entry.arguments[0]],
                        attributes={"callee": ir.SymbolAttr("sigmoid")},
                        result_types=[ir.F32])
        build_op(registry.dialects, sigmoid, "func.return", [call.results[0]])
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
        build_op(registry.dialects, module, "func.return", [g.arguments[0]])
        buf = ir.MemRefType(ir.F32, (None,))
        _, k = new_func(module, "k", [buf], [])
        zero, seven = (
            build_op(registry.dialects, module, "arith.constant",
                     attributes={"value": attr}, result_types=[attr.type]).results[0]
            for attr in (ir.IntAttr(0, ir.INDEX), ir.FloatAttr(7.0, ir.F32)))
        call = build_op(registry.dialects, module, "func.call", [zero],
                        attributes={"callee": ir.SymbolAttr("g")},
                        result_types=[ir.INDEX])
        build_op(registry.dialects, module, "memref.store",
                 [seven, k.arguments[0], call.results[0]])
        build_op(registry.dialects, module, "func.return", [])
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
        [out] = run_function(module, "sumto", [IntValue(64, interp.HOT)])
        assert out.value == interp.HOT * (interp.HOT + 1) // 2
        assert len(compiled) == 1 and compiled[0] is not None

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
        build_op(registry.dialects, module, "arith.addi",
                 [entry.arguments[0], entry.arguments[0]])
        with pytest.raises(InterpError,
                           match=rf"^\^bb{entry.id}: control fell off the block$"):
            run_function(module, "f", [IntValue(64, 1)])

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
        build_op(registry.dialects, module, "cf.cond_br", [entry.arguments[0]],
                 successors=[(done, []), (stop, [])])
        module.set_insertion(done)
        build_op(registry.dialects, module, "func.return")
        module.set_insertion(stop)
        assert build_op(registry.dialects, module, "t.halt").is_terminator
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
        with pytest.raises(InterpError,
                           match="^cf.cond_br condition is not an i1 value$"):
            run_function(module, "f", [IntValue(64, 1)])

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
        with pytest.raises(InterpError, match="^arith.addf: expected a float "
                                              "operand, got one of type i64$"):
            run_function(module, "f", [IntValue(1, 0), IntValue(64, 2)])
        assert compiled == [None] * (hot == 0) * 2  # the op has no source form

    @pytest.mark.parametrize("threads", [1, 8])
    @pytest.mark.parametrize("name", ["gpu.thread_id", "gpu.block_id", "gpu.block_dim"])
    def test_unknown_launch_dimension(self, vadd, name, threads):
        next(op for op in walk_ops(vadd) if op.name == name).attributes[
            "dimension"] = ir.StringAttr("w")
        assert ir.verify_module(vadd).ok
        with pytest.raises(InterpError, match=f"^{name}: unknown dimension 'w'$"):
            run_kernel(vadd, "vadd", LaunchConfig((1, 1, 1), (threads, 1, 1)),
                       TestKernels().vadd_buffers())

    def test_indexing_map_of_another_attribute(self, registry):
        module = einsum.build_einsum_function(registry, einsum.parse_einsum("(i)->(i)"))
        generic = next(op for op in walk_ops(module) if op.name == "linalg.generic")
        generic.attributes["indexing_maps"] = ir.ArrayAttr((ir.IntAttr(0, ir.I64),) * 2)
        assert ir.verify_module(module).ok
        with pytest.raises(InterpError, match=r"^linalg.generic: indexing map IntAttr\("
                                              r".*\) is not an affine map$"):
            run_function(module, "einsum", [tensor_value(np.ones(3))] * 2)


# f32/f64 arithmetic agrees with numpy scalars bit for bit

_UNARY = {"arith.negf": np.negative, "math.exp": np.exp}
_BINARY = {"arith.addf": np.add, "arith.subf": np.subtract,
           "arith.mulf": np.multiply, "arith.divf": np.divide}
@functools.cache
def float_module(t):
    """One function per float op of type ``t``, named after the op."""
    from bridgegen.dialects import build_op

    registry = intrinsics.default_registry()
    module = ir.IrModule(registry=registry.dialects)
    for name in list(_UNARY) + list(_BINARY):
        arity = 1 if name in _UNARY else 2
        _, entry = new_func(module, name, [t] * arity, [t])
        op = build_op(registry.dialects, module, name, entry.arguments)
        build_op(registry.dialects, module, "func.return", op.results)
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
                use_tier(mp, tier)
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
    """Unverified IR: a float op whose operand types differ from its result
    type does one double op on its operands, rounded once to the result."""

    # 1 + 2**-24 + 2**-50 rounds up to 1 + 2**-23 once; rounding 2**-24 +
    # 2**-50 to f32 first would make it a tie, which rounds down to 1
    PAIRS = [(1.0, 2.0 ** -24 + 2.0 ** -50), (1.0, 3.0000001), (-2.5, 0.0), (0.1, -0.0)]

    @pytest.mark.parametrize("tier", TIERS)
    def test_double_op_rounded_once(self, registry, monkeypatch, compiled, tier):
        use_tier(monkeypatch, tier)
        module, functions = ir.IrModule(registry=registry.dialects), []
        for name, fn in (("arith.addf", np.add), ("arith.divf", np.divide)):
            for result, inputs in ((ir.F32, [ir.F32, ir.F64]), (ir.F32, [ir.F64, ir.F32]),
                                   (ir.F64, [ir.F32, ir.F64]), (ir.F64, [ir.F64, ir.F32])):
                symbol = f"f{len(functions)}"
                _, entry = new_func(module, symbol, inputs, [result])
                op = ir.create_op(module, name, list(entry.arguments), [result])
                ir.create_op(module, "func.return", op.results, [], is_terminator=True)
                functions.append((symbol, fn, result, inputs))
        for symbol, fn, result, inputs in functions:
            for a, b in self.PAIRS:
                args = [interp.value_of_type(t, v) for t, v in zip(inputs, (a, b))]
                with np.errstate(all="ignore"):
                    want = float(fn(*(np.float64(v.value) for v in args)))
                if result == ir.F32:
                    want = ir.to_f32(want)
                [got] = run_function(module, symbol, args)
                assert type(got.value) is float and same_bits(got.value, want), (
                    symbol, a, b, got, want)
        a, b = self.PAIRS[0]
        assert np.float32(a) + np.float32(b) != ir.to_f32(a + b)  # the pair tells
        runs = len(functions) * len(self.PAIRS)
        assert len(compiled) == (runs if tier == "compiled" else 0) and all(compiled)


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
        neg = build_op(registry.dialects, module, "arith.negf", [g.arguments[0]])
        build_op(registry.dialects, module, "func.return", neg.results)
        _, f = new_func(module, "f", [ir.F32], [ir.F32])
        call = build_op(registry.dialects, module, "func.call", [f.arguments[0]],
                        attributes={"callee": ir.SymbolAttr("g")}, result_types=[ir.F32])
        build_op(registry.dialects, module, "func.return", call.results)
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
            run_function(recurrence, "rec_f32", [x, n])
            counts.append(len(calls))
        assert counts[0] == counts[1]  # once a run: decoding constants, boxing the result


class TestCallDepth:
    def test_deep_recursion_is_an_interp_error(self, registry):
        from bridgegen.dialects import build_op

        module = ir.IrModule(registry=registry.dialects)
        _, entry = new_func(module, "rec", [ir.I64], [ir.I64])
        call = build_op(registry.dialects, module, "func.call",
                        [entry.arguments[0]],
                        attributes={"callee": ir.SymbolAttr("rec")},
                        result_types=[ir.I64])
        build_op(registry.dialects, module, "func.return", [call.results[0]])
        assert ir.verify_module(module).ok
        with pytest.raises(InterpError,
                           match=f"nested deeper than {interp.MAX_CALL_DEPTH}"):
            run_function(module, "rec", [IntValue(64, 1)])


class TestNoCycles:
    """A run frees its decoded code by reference counting alone."""

    def test_loop(self, registry):
        module = run_pipeline(registry, SUMTO_FIR, "sumto", [fir.I64])
        gc.collect()
        [out] = run_function(module, "sumto", [IntValue(64, 100)])
        assert gc.collect() == 0
        assert out.value == 5050

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
    assert f"more than {fir.MAX_TYPE_DEPTH} levels deep (`fir.MAX_TYPE_DEPTH`)" in text
    bounds = re.search(
        r"an f32 when \|v\| ≤ `2\*\*(\d+)` and an f64 when \|v\| ≤ `2\*\*(\d+)`", text)
    assert bounds
    for t, n in zip((fir.F32, fir.F64), map(int, bounds.groups())):
        assert fir.literal_fits(t, fir.IntLit(2 ** n))
        assert not fir.literal_fits(t, fir.IntLit(2 ** n + 1))
    cap = re.search(r"step cap \(default 10\^(\d+)\)", text)
    assert cap and 10 ** int(cap[1]) == interp.DEFAULT_STEP_LIMIT
