"""Lane execution of linalg.generic bodies and straight-line kernels.

The lane results are checked bit for bit against the bench's independent
numpy reference (``bench/reference.py``), and every fallback against the
values the point-by-point and thread-by-thread paths give.
"""

import itertools
import math
import operator
import random
import re

import numpy as np
import pytest

from bridgegen import einsum, fir, interp, ir
from bridgegen.codegen import BuilderContext, generate_region
from bridgegen.interp import (
    F32Value,
    IndexValue,
    LaunchConfig,
    MemRefValue,
    OutOfBounds,
    TensorValue,
    run_function,
    run_kernel,
)
from conftest import F32_MEMREF, func_region, new_func, run_pipeline, tensor_value
import programs as gen
import reference as ref

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")  # nan, inf

SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan], dtype=np.float32)


def f32_data(rng, shape):
    """Values in [-2, 2) with ±0.0, ±inf and nan spread through them."""
    data = rng.uniform(-2.0, 2.0, shape).astype(np.float32)
    flat, k = data.reshape(-1), min(data.size, 3 * len(SPECIALS))
    flat[rng.choice(flat.size, k, replace=False)] = np.resize(SPECIALS, k)
    return data


@pytest.fixture
def sequential_calls(monkeypatch):
    """Counts the point-by-point and thread-by-thread region runs."""
    calls, run = [], interp._exec

    def counted(code, args, r):
        calls.append(code)
        return run(code, args, r)
    monkeypatch.setattr(interp, "_exec", counted)
    return calls


@pytest.fixture
def sequential_decodes(monkeypatch):
    """Counts the regions decoded for running point by point or thread by
    thread."""
    regions, decode = [], interp._decode

    def counted(region, faults=None):
        regions.append(region)
        return decode(region, faults)
    monkeypatch.setattr(interp, "_decode", counted)
    return regions


def no_lanes(monkeypatch):
    """Make every lane batch fall back, as a lane form could not run."""
    def fall_back(*args):
        raise interp._Sequential
    monkeypatch.setattr(interp, "_exec_lanes", fall_back)


def kernel(registry, name):
    types = [fir.parse_frontend_type(t) for t in gen.KERNEL_TYPES[name]]
    return run_pipeline(registry, gen.kernel_text(name), name, types)


def kernel_args(rng, name, grid, block):
    """Arguments of a bench kernel, shaped as bench/run.py shapes them."""
    n = grid * block
    if name == "vadd":
        return [f32_data(rng, n) for _ in range(3)]
    if name == "saxpy":
        return [np.float32(rng.uniform(-2, 2)), f32_data(rng, n), f32_data(rng, n)]
    return [f32_data(rng, block), f32_data(rng, n)]


def values(args):
    """Runtime values of ``args``: f32 scalars and buffers; runtime values stay."""
    return [a if isinstance(a, interp.RuntimeValue) else F32Value(float(a))
            if np.ndim(a) == 0 else MemRefValue(ir.F32, a.shape, a.copy()) for a in args]


class TestAgainstReference:
    @pytest.mark.parametrize("name", list(gen.EINSUMS))
    def test_einsum(self, registry, sequential_calls, sequential_decodes, name):
        spec, extents = gen.EINSUMS[name]
        inputs, output, _ = ref.einsum_axes(spec)
        rng = np.random.default_rng(len(name))
        arrays = [f32_data(rng, tuple(extents[a] for a in tup))
                  for tup in inputs + [output]]
        module = einsum.build_einsum_function(registry, einsum.parse_einsum(spec))
        [out] = run_function(module, "einsum", [tensor_value(a) for a in arrays])
        assert ref.same(out.data, ref.einsum_reference(spec, arrays[:-1], arrays[-1]))
        assert len(sequential_calls) == 1  # the function body; the generic ran in lanes
        assert len(sequential_decodes) == 1  # so its point-by-point body is not decoded

    @pytest.mark.parametrize("name", list(gen.KERNELS))
    def test_kernel(self, registry, sequential_calls, sequential_decodes, name):
        grid, block = gen.KERNELS[name]
        args = kernel_args(np.random.default_rng(7), name, grid, block)
        vals = values(args)
        run_kernel(kernel(registry, name), name,
                   LaunchConfig((grid, 1, 1), (block, 1, 1)), vals)
        want = ref.kernel_reference(name, grid, block, args)
        for v, w in zip(vals, want):
            if isinstance(v, MemRefValue):
                assert ref.same(v.data, w)
        assert sequential_calls == [] and sequential_decodes == []

    def test_exp_lanes_equal_scalar_exp(self, registry, sequential_calls):
        text = ("fn expk(_1: memref{f32,1}, _2: memref{f32,1})\n1:\n"
                "  %1 = invoke thread_idx_x() :: index\n"
                "  %2 = invoke load(_1, %1) :: f32\n"
                "  %3 = invoke exp(%2) :: f32\n"
                "  %4 = invoke store(%3, _2, %1) :: Nothing\n  return\n")
        module = run_pipeline(registry, text, "expk", [F32_MEMREF] * 2)
        x = np.concatenate([SPECIALS, np.float32([88.7, 89.0, -103.0, -104.0, 1e-8]),
                            np.random.default_rng(3).uniform(-100, 100, 500)
                            .astype(np.float32)])
        bufs = values([x, np.zeros_like(x)])
        run_kernel(module, "expk", LaunchConfig((1, 1, 1), (x.size, 1, 1)), bufs)
        assert ref.same(bufs[1].data,
                        np.array([np.exp(np.float32(v)) for v in x], np.float32))
        assert sequential_calls == []


ACCUMULATE_FIR = """\
fn acc(_1: memref{f32,1}, _2: memref{f32,1})
1:
  %1 = invoke block_idx_x() :: index
  %2 = invoke block_dim_x() :: index
  %3 = invoke *(%1, %2) :: index
  %4 = invoke thread_idx_x() :: index
  %5 = invoke +(%3, %4) :: index
  %6 = invoke load(_1, %1) :: f32
  %7 = invoke load(_2, %5) :: f32
  %8 = invoke +(%6, %7) :: f32
  %9 = invoke store(%8, _1, %1) :: Nothing
  return
"""

STORE_THEN_OOB_FIR = """\
fn k(_1: memref{f32,1}, _2: memref{f32,1})
1:
  %1 = invoke thread_idx_x() :: index
  %2 = invoke load(_1, %1) :: f32
  %3 = invoke store(%2, _2, %1) :: Nothing
  %4 = invoke +(%1, %1) :: index
  %5 = invoke load(_1, %4) :: f32
  return
"""


class TestKernelFallbacks:
    def test_colliding_lanes_replay_in_launch_order(self, registry):
        # every thread of a block adds into the block's slot: the lanes collide
        module = run_pipeline(registry, ACCUMULATE_FIR, "acc", [F32_MEMREF] * 2)
        src = f32_data(np.random.default_rng(5), 3 * 40)
        bufs = values([np.zeros(3, np.float32), src])
        run_kernel(module, "acc", LaunchConfig((3, 1, 1), (40, 1, 1)), bufs)
        want = np.zeros(3, np.float32)
        for t in range(120):
            want[t // 40] = np.float32(want[t // 40] + src[t])
        assert ref.same(bufs[0].data, want)

    def test_out_of_bounds_after_stores_undoes_the_batch(self, registry):
        module = run_pipeline(registry, STORE_THEN_OOB_FIR, "k", [F32_MEMREF] * 2)
        bufs = values([np.arange(1, 33, dtype=np.float32), np.zeros(32, np.float32)])
        with pytest.raises(OutOfBounds) as info:
            run_kernel(module, "k", LaunchConfig((1, 1, 1), (20, 1, 1)), bufs)
        # thread 16 stores and then loads index 32
        assert str(info.value) == (
            "index 32 out of bounds for dimension 0 of extent 32 (thread "
            "context {'x': (16, 0, 20), 'y': (0, 0, 1), 'z': (0, 0, 1)})")
        want = np.zeros(32, np.float32)
        want[:17] = np.arange(1, 18, dtype=np.float32)
        assert np.array_equal(bufs[1].data, want)

    def test_index_overflow_falls_back(self, registry, sequential_calls):
        text = ("fn k(_1: memref{f32,1})\n1:\n"
                "  %1 = invoke thread_idx_x() :: index\n"
                "  %2 = invoke *(%1, 4611686018427387904) :: index\n"
                "  %3 = invoke *(%2, 4) :: index\n"
                "  %4 = invoke load(_1, %3) :: f32\n  return\n")
        module = run_pipeline(registry, text, "k", [F32_MEMREF])
        with pytest.raises(OutOfBounds, match="^index 18446744073709551616 out of"):
            run_kernel(module, "k", LaunchConfig((1, 1, 1), (16, 1, 1)),
                       values([np.zeros(8, np.float32)]))
        assert len(sequential_calls) == 2  # threads 0 and 1, after the fallback

    def test_index_argument_beyond_int64(self, registry):
        # an index argument beyond int64 keeps the kernel on the scalar path
        text = ("fn k(_1: memref{f32,1}, _2: index)\n1:\n"
                "  %1 = invoke thread_idx_x() :: index\n"
                "  %2 = invoke +(%1, _2) :: index\n"
                "  %3 = invoke load(_1, %2) :: f32\n  return\n")
        module = run_pipeline(registry, text, "k", [F32_MEMREF, fir.INDEX])
        for offset, first in ((2, 8), (2 ** 64, 2 ** 64)):
            with pytest.raises(OutOfBounds, match=f"^index {first} out of bounds"):
                run_kernel(module, "k", LaunchConfig((1, 1, 1), (16, 1, 1)),
                           [values([np.zeros(8, np.float32)])[0], IndexValue(offset)])

    def test_launch_beyond_int64(self, registry):
        bufs = values([np.ones(8, np.float32)] * 3)
        with pytest.raises(OutOfBounds) as info:
            run_kernel(kernel(registry, "vadd"), "vadd",
                       LaunchConfig((1, 1, 1), (2 ** 64, 1, 1)), bufs)
        assert f"(thread context {{'x': (8, 0, {2 ** 64}), " in str(info.value)

    def test_lanes_stored_through_a_uniform_index_fall_back(self, registry, monkeypatch,
                                                            batches):
        # out[0] = in[g] in every thread: the store writes lanes through one
        # index, so the lane function falls back at once, the batch replays
        # thread by thread and out[0] ends as the last thread's value
        texts = lane_texts(monkeypatch)
        module = gid_kernel(registry, "  %6 = invoke load(_1, %5) :: f32\n"
                                      "  %7 = invoke store(%6, _2, 0) :: Nothing\n")
        args = [np.arange(64, dtype=np.float32), np.zeros(64, np.float32)]
        config = LaunchConfig((2, 1, 1), (32, 1, 1))
        got = launch(module, "k", config, args)
        assert batches == [(64, False)] and got[1] is None
        assert "raise Sequential" in [line.strip() for line in texts[0].splitlines()]
        assert got[0][1][0] == 63.0 and not got[0][1][1:].any()
        no_lanes(monkeypatch)
        assert same_launch(got, launch(module, "k", config, args))

    def test_buffers_sharing_memory(self, registry, sequential_calls):
        # two views of one array: lane 1 reads what lane 0 writes
        text = ("fn k(_1: memref{f32,1}, _2: memref{f32,1})\n1:\n"
                "  %1 = invoke thread_idx_x() :: index\n"
                "  %2 = invoke load(_1, %1) :: f32\n"
                "  %3 = invoke +(%2, 1.0) :: f32\n"
                "  %4 = invoke store(%3, _2, %1) :: Nothing\n  return\n")
        module = run_pipeline(registry, text, "k", [F32_MEMREF] * 2)
        data = np.zeros(17, np.float32)
        run_kernel(module, "k", LaunchConfig((1, 1, 1), (16, 1, 1)),
                   [MemRefValue(ir.F32, (16,), data[:16]),
                    MemRefValue(ir.F32, (16,), data[1:])])
        assert list(data) == list(range(17))
        assert len(sequential_calls) == 16

    @pytest.mark.parametrize("end", [None, "cf.br"], ids=["no-terminator", "self-branch"])
    def test_block_without_a_return_runs_thread_by_thread(self, registry, sequential_calls,
                                                          end):
        # lanes take one block ended by a return: a block with no terminator
        # fails at its end, and one that branches to itself runs out of steps
        from bridgegen.dialects import build_op

        module = ir.IrModule(registry.dialects)
        _, entry = new_func(module, "k", [ir.MemRefType(ir.F32, (None,))])
        build_op(module, "gpu.thread_id", attributes={"dimension": ir.StringAttr("x")})
        if end:
            build_op(module, end, successors=[(entry, entry.arguments)])
        assert ir.verify_module(module).ok == bool(end)
        assert interp._lane_function(func_region(module, "k"), None, ((64, 1, 1), 1, 1)) is None
        error = (f"step budget of {interp.MIN_LANES * 10} operations exceeded" if end
                 else f"^bb{entry.id}: control fell off the block")
        with pytest.raises(interp.InterpError) as info:
            run_kernel(module, "k", LaunchConfig((1, 1, 1), (64, 1, 1)),
                       values([np.zeros(64, np.float32)]), interp.MIN_LANES * 10)
        assert str(info.value) == error and len(sequential_calls) == 1

    def test_small_blocks_run_thread_by_thread(self, registry, sequential_calls):
        # fewer than MIN_LANES threads in the launch: numpy's per-call cost
        # would outweigh the lanes
        n = interp.MIN_LANES - 1
        bufs = values([np.ones(n, np.float32)] * 3)
        run_kernel(kernel(registry, "vadd"), "vadd",
                   LaunchConfig((n, 1, 1), (1, 1, 1)), bufs)
        assert list(bufs[2].data) == [2.0] * n
        assert len(sequential_calls) == n


MULTI_DIM_FIR = """\
fn md(_1: memref{f32,1}, _2: memref{f32,1})
1:
  %1 = invoke block_idx_x() :: index
  %2 = invoke block_idx_y() :: index
  %3 = invoke block_idx_z() :: index
  %4 = invoke thread_idx_x() :: index
  %5 = invoke thread_idx_y() :: index
  %6 = invoke thread_idx_z() :: index
  %7 = invoke block_dim_x() :: index
  %8 = invoke block_dim_y() :: index
  %9 = invoke block_dim_z() :: index
  %10 = invoke *(%1, 2) :: index
  %11 = invoke +(%10, %2) :: index
  %12 = invoke *(%11, 2) :: index
  %13 = invoke +(%12, %3) :: index
  %14 = invoke *(%13, %7) :: index
  %15 = invoke +(%14, %4) :: index
  %16 = invoke *(%15, %8) :: index
  %17 = invoke +(%16, %5) :: index
  %18 = invoke *(%17, %9) :: index
  %19 = invoke +(%18, %6) :: index
  %20 = invoke *(%4, %8) :: index
  %21 = invoke +(%20, %5) :: index
  %22 = invoke *(%21, %9) :: index
  %23 = invoke +(%22, %6) :: index
  %24 = invoke *(%23, 12) :: index
  %25 = invoke +(%24, %13) :: index
  %26 = invoke load(_1, %25) :: f32
  %27 = invoke store(%26, _2, %19) :: Nothing
  return
"""

OOB_IN_THIRD_BLOCK_FIR = """\
fn k(_1: memref{f32,1}, _2: memref{f32,1})
1:
  %1 = invoke block_idx_x() :: index
  %2 = invoke block_dim_x() :: index
  %3 = invoke *(%1, %2) :: index
  %4 = invoke thread_idx_x() :: index
  %5 = invoke +(%3, %4) :: index
  %6 = invoke load(_1, %5) :: f32
  %7 = invoke store(%6, _2, %5) :: Nothing
  %8 = invoke *(%3, 2) :: index
  %9 = invoke load(_1, %8) :: f32
  return
"""


@pytest.fixture
def waves(monkeypatch):
    """The lanes of each wave, as a list per batch that computes its waves:
    from the flat indices of its stored buffers (_waves), or as its block
    runs, a prefix of the list of slices its lane function binds, where
    each stored buffer is reached through thread_id x plus an offset or the
    thread number plus one."""
    made, split, function = [], interp._waves, interp._function

    class Runs(list):
        def __getitem__(self, key):
            steps = list.__getitem__(self, key)
            made.append([p.stop - p.start for p in steps])
            return steps

    def counted(*buffers):
        steps = split(*buffers)
        made.append([len(range(*p.indices(len(buffers[0][0])))) for p in steps])
        return steps

    def built(text, namespace):
        for name, value in namespace.items():
            if isinstance(value, list) and value and all(isinstance(p, slice) for p in value):
                namespace[name] = Runs(value)
        return function(text, namespace)
    monkeypatch.setitem(interp._LANE_NAMES, "waves", counted)
    monkeypatch.setattr(interp, "_function", built)
    return made


@pytest.fixture
def batches(monkeypatch):
    """(lanes, whether it ran in lanes) of each lockstep batch of a kernel."""
    made, lockstep = [], interp._lockstep

    def counted(code, args, lanes):
        made.append((lanes.ends[1] - lanes.ends[0] + 1, lockstep(code, args, lanes)))
        return made[-1][1]
    monkeypatch.setattr(interp, "_lockstep", counted)
    return made


def launch(module, name, config, args, step_limit=interp.DEFAULT_STEP_LIMIT):
    """The buffers after a launch on copies of ``args``, and the text of the
    error it raised or None."""
    bufs, error = values(args), None
    try:
        run_kernel(module, name, config, bufs, step_limit)
    except interp.InterpError as e:
        error = f"{type(e).__name__}: {e}"
    return [b.data for b in bufs if isinstance(b, MemRefValue)], error


def same_launch(got, want):
    return got[1] == want[1] and all(ref.same(g, w) for g, w in zip(got[0], want[0]))


class TestAcrossBlocks:
    """A lockstep batch takes as many whole grid blocks, in launch order,
    as fit in LANES threads."""

    def test_multi_dimensional_launch(self, registry, monkeypatch, sequential_calls,
                                      batches):
        # out[g] = in[t * 12 + b] for thread t of block b, g = b * 6 + t
        module = run_pipeline(registry, MULTI_DIM_FIR, "md", [F32_MEMREF] * 2)
        args = [f32_data(np.random.default_rng(17), 72), np.zeros(72, np.float32)]
        config = LaunchConfig((3, 2, 2), (2, 3, 1))
        got = launch(module, "md", config, args)
        assert sequential_calls == [] and batches == [(72, True)]
        assert got[1] is None and ref.same(got[0][1], args[0].reshape(6, 12).T.reshape(-1))
        no_lanes(monkeypatch)
        assert same_launch(got, launch(module, "md", config, args))

    @pytest.mark.parametrize("grid, block", [(64, 1), (8, 4), (2, 4)])
    def test_small_blocks_run_in_lanes(self, registry, monkeypatch, sequential_calls,
                                       batches, grid, block):
        rng, n = np.random.default_rng(grid), grid * block
        args = [f32_data(rng, n), f32_data(rng, n), np.zeros(n, np.float32)]
        module, config = kernel(registry, "vadd"), LaunchConfig((grid, 1, 1), (block, 1, 1))
        got = launch(module, "vadd", config, args)
        assert sequential_calls == [] and batches == [(n, True)]
        assert ref.same(got[0][2], args[0] + args[1])
        no_lanes(monkeypatch)
        assert same_launch(got, launch(module, "vadd", config, args))

    def test_collide_runs_in_waves(self, registry, monkeypatch, sequential_calls,
                                   batches, waves):
        # the blocks store to the same slots: each batch of 16 blocks runs
        # as 16 waves, one a block, in which thread_idx_x rises
        grid, block = gen.KERNELS["collide"]
        args = kernel_args(np.random.default_rng(19), "collide", grid, block)
        module, config = kernel(registry, "collide"), LaunchConfig((grid, 1, 1),
                                                                   (block, 1, 1))
        got = launch(module, "collide", config, args)
        assert sequential_calls == []
        assert batches == [(interp.LANES, True)] * (grid * block // interp.LANES)
        assert waves == [[block] * (interp.LANES // block)] * len(batches)
        no_lanes(monkeypatch)
        assert same_launch(got, launch(module, "collide", config, args))

    def test_out_of_bounds_in_third_block(self, registry, monkeypatch,
                                          sequential_calls, batches):
        # thread 0 of block 2 loads index 64 of 64, after its store; block 3
        # loads index 96 in every thread
        module = run_pipeline(registry, OOB_IN_THIRD_BLOCK_FIR, "k", [F32_MEMREF] * 2)
        args = [np.arange(1, 65, dtype=np.float32), np.zeros(64, np.float32)]
        config = LaunchConfig((4, 1, 1), (16, 1, 1))
        got = launch(module, "k", config, args)
        assert got[1] == (
            "OutOfBounds: index 64 out of bounds for dimension 0 of extent 64 "
            "(thread context {'x': (0, 2, 16), 'y': (0, 0, 1), 'z': (0, 0, 1)})")
        assert list(np.flatnonzero(got[0][1])) == list(range(33))
        # the batch of all four blocks falls back, so threads 0-32 replay
        assert batches == [(64, False)]
        assert len(sequential_calls) == 33
        no_lanes(monkeypatch)
        assert same_launch(got, launch(module, "k", config, args))


def generic_module(registry, body_text, elems):
    """@g applying the FIR function ``body`` elementwise over 1-D tensors of
    ``elems``, the last of them the output."""
    from bridgegen.dialects import build_op

    module = ir.IrModule(registry=registry.dialects)
    region = module.new_region()
    types = [ir.TensorType(e, (None,)) for e in elems]
    build_op(module, "func.func",
             attributes={"sym_name": ir.SymbolAttr("g"),
                         "function_type": ir.TypeAttr(
                             ir.FunctionType(tuple(types), (types[-1],)))},
             regions=[region])
    entry = module.append_block(region, types)
    ctx = BuilderContext(module=module, registry=registry, region=region,
                         entry_block=entry)
    ctx.set_block(entry)
    body = fir.insert_bool_conversions(fir.parse_program(body_text).functions["body"])
    body_region = generate_region(ctx, body, "linalg.yield")
    m = ir.IndexMapAttr(1, (0,))
    generic = ctx.build_op("linalg.generic", list(entry.arguments),
                           attributes={"indexing_maps": ir.ArrayAttr((m,) * len(elems)),
                                       "iterator_types": ir.ArrayAttr(
                                           (ir.StringAttr("parallel"),))},
                           regions=[body_region], result_types=[types[-1]])
    ctx.build_op("func.return", [generic.results[0]])
    assert ir.verify_module(module).ok
    return module


class TestGenericFallbacks:
    def test_index_overflow_falls_back(self, registry, sequential_calls):
        # 2**62 * 4 is positive as an index; int64 lanes would wrap it to 0
        text = ("fn body(_1: index, _2: index, _3: i1)\n1:\n"
                "  %1 = invoke *(_1, _2) :: index\n"
                "  %2 = invoke >(%1, 0) :: i1\n  return %2\n")
        module = generic_module(registry, text, [ir.INDEX, ir.INDEX, ir.I1])
        a, b = np.array([2 ** 62] + [3] * 15), np.array([4] + [5] * 15)
        [out] = run_function(module, "g", [TensorValue(e, (16,), x) for e, x in (
            (ir.INDEX, a), (ir.INDEX, b), (ir.I1, np.zeros(16, np.int64)))])
        assert list(out.data) == [1] * 16
        assert len(sequential_calls) == 1 + 16


class TestSameAsPointByPoint:
    """With every batch made to fall back, results and errors are the same."""

    @pytest.mark.parametrize("name", list(gen.KERNELS))
    def test_kernels(self, registry, monkeypatch, name):
        grid, block = gen.KERNELS[name]
        module = kernel(registry, name)
        args = kernel_args(np.random.default_rng(11), name, grid, block)
        got = values(args)
        run_kernel(module, name, LaunchConfig((grid, 1, 1), (block, 1, 1)), got)
        no_lanes(monkeypatch)
        want = values(args)
        run_kernel(module, name, LaunchConfig((grid, 1, 1), (block, 1, 1)), want)
        for g, w in zip(got, want):
            assert ref.same(*(v.data if isinstance(v, MemRefValue) else v.value
                              for v in (g, w)))

    @pytest.mark.parametrize("spec", [s for s, _ in gen.EINSUMS.values()]
                             + ["(i)->()", "(i,j)->(j,i)", "(i),(j)->(i,j)"])
    def test_einsums(self, registry, monkeypatch, sequential_calls, spec):
        parsed = einsum.parse_einsum(spec)
        rng = np.random.default_rng(13)
        base = 17 if len(parsed.output) == 1 else 5
        extent = {a: base + k for k, a in enumerate(parsed.axes)}
        arrays = [f32_data(rng, tuple(extent[a] for a in tup))
                  for tup in parsed.inputs + (parsed.output,)]
        module = einsum.build_einsum_function(registry, parsed)
        [got] = run_function(module, "einsum", [tensor_value(a) for a in arrays])
        # the function's body only: the generic takes lanes, even "(i)->()"'s one
        assert len(sequential_calls) == 1
        no_lanes(monkeypatch)
        [want] = run_function(module, "einsum", [tensor_value(a) for a in arrays])
        assert ref.same(got.data, want.data)

    @pytest.mark.parametrize("width", [1, 8, 32, 64])
    def test_narrow_integers_wrap(self, registry, monkeypatch, sequential_calls, width):
        # out[i] += x[i, j] * y[j] in i<width> arithmetic, on data beyond that width
        from bridgegen.dialects import build_op

        i = ir.IntType(width)
        t, t2 = ir.TensorType(i, (None,)), ir.TensorType(i, (None, None))
        module = ir.IrModule(registry.dialects)
        region = module.new_region()
        build_op(module, "func.func",
                 attributes={"sym_name": ir.SymbolAttr("g"), "function_type":
                             ir.TypeAttr(ir.FunctionType((t2, t, t), (t,)))},
                 regions=[region])
        entry = module.append_block(region, [t2, t, t])
        body = module.new_region()
        module.set_insertion(module.append_block(body, [i, i, i]))
        x, y, z = body.blocks[0].arguments
        product = build_op(module, "arith.muli", [x, y], result_types=[i])
        total = build_op(module, "arith.addi", [product.results[0], z],
                         result_types=[i])
        build_op(module, "linalg.yield", [total.results[0]])
        module.set_insertion(entry)
        m = ir.IndexMapAttr(2, (0,))
        generic = build_op(module, "linalg.generic", list(entry.arguments),
                           attributes={"indexing_maps": ir.ArrayAttr(
                               (ir.IndexMapAttr(2, (0, 1)), ir.IndexMapAttr(2, (1,)), m)),
                               "iterator_types": ir.ArrayAttr(
                                   (ir.StringAttr("parallel"), ir.StringAttr("reduction")))},
                           regions=[body], result_types=[t])
        build_op(module, "func.return", [generic.results[0]])
        rng = np.random.default_rng(width)
        edge = [2 ** 31 - 1, -2 ** 31, 2 ** 62, -1, 3]
        arrays = [np.array(edge * 16, np.int64).reshape(16, 5),
                  rng.integers(-2 ** 40, 2 ** 40, 5), np.array([2 ** 33, -7] * 8)]
        run = lambda: run_function(module, "g", [TensorValue(i, a.shape, a.copy())
                                                 for a in arrays])[0].data
        got = run()
        # at i64, 2**62 * y leaves int64: the generic runs point by point
        assert len(sequential_calls) == (1 + 16 * 5 if width == 64 else 1)
        no_lanes(monkeypatch)
        assert np.array_equal(got, run())


BENCH_EXTENTS = ((64, 1, 1), 1, 1)  # the block extents, grid y and grid z of a bench launch
TWO_D_EXTENTS = ((8, 2, 1), 1, 1)


class TestConflictRule:
    """A batch runs in waves, in each of which every stored buffer is
    touched at one element per lane: the same flat index at every access,
    strictly rising across the wave, or across the batch strictly falling.
    A batch whose accesses differ, or whose waves average fewer than
    MIN_LANES lanes, falls back, its stores undone, and replays thread by
    thread."""

    @pytest.mark.parametrize("name", list(gen.KERNELS))
    def test_no_bench_batch_falls_back(self, registry, batches, name):
        grid, block = gen.KERNELS[name]
        module, args = kernel(registry, name), kernel_args(np.random.default_rng(23), name,
                                                           grid, block)
        for _ in range(2):  # two launches of one module
            batches.clear()
            run_kernel(module, name, LaunchConfig((grid, 1, 1), (block, 1, 1)), values(args))
            assert batches == [(interp.LANES, True)] * (grid * block // interp.LANES)

    @pytest.mark.parametrize("name", list(gen.KERNELS))
    def test_each_bounds_test_once(self, registry, monkeypatch, name):
        # a buffer loaded and stored through one index is tested once: the
        # same test text reads the same slots, so its first copy serves both
        texts = lane_texts(monkeypatch)
        module = kernel(registry, name)
        for extents in (BENCH_EXTENTS, TWO_D_EXTENTS):
            assert interp._lane_function(func_region(module, name), None, extents)
            tests = [line.strip() for line in texts.pop().splitlines()
                     if "raise Sequential" in line]
            assert tests and len(tests) == len(set(tests)), tests

    @pytest.mark.parametrize("name", list(gen.KERNELS))
    def test_rule_is_one_line_per_stored_buffer(self, registry, monkeypatch, name):
        # Under a 2-D block no index is whole or a block run, so one hoisted
        # line computes the waves, with one group of flat indices per stored
        # buffer, and each store records its undo. Under the bench's 1-D
        # launches every stored buffer is reached through a slice, so no
        # line computes waves: vadd and saxpy, which store through g, run as
        # one wave with no loop, and collide, which stores through thread_id
        # x, loops over the batch's block runs; each stored buffer records
        # its undo once, hoisted. Either way each wave runs exactly the
        # carried lines (loads from a stored buffer, stores, ops on carried
        # values), in a loop after one line that reads the hoisted lanes of
        # the wave.
        texts = lane_texts(monkeypatch)
        module = kernel(registry, name)
        ops = func_region(module, name).entry.operations
        stored = {op.operands[1] for op in ops if op.name == "memref.store"}
        for extents in (TWO_D_EXTENTS, BENCH_EXTENTS):
            sliced = extents == BENCH_EXTENTS
            assert interp._lane_function(func_region(module, name), None, extents)
            carried, lines_of = set(), []  # the carried values; each carried op's line count
            for op in ops[:-1]:
                store = op.name == "memref.store"
                if store or set(op.operands) & carried or (
                        op.name == "memref.load" and op.operands[0] in stored):
                    carried.update(op.results)
                    lines_of.append(2 if store and not sliced else 1)  # and its undo record
            lines = texts.pop().splitlines()
            waves = [line for line in lines if "waves(" in line]
            undo = [line for line in lines if "touched.append" in line]
            loop = next((k for k, line in enumerate(lines) if line.startswith("    for ")), None)
            if sliced:
                assert waves == [] and len(undo) == len(stored)
                assert all(not line.startswith(" " * 8) for line in undo)  # hoisted
                assert (loop is None) == (name != "collide")
            else:
                assert waves == [lines[loop - 2]]
                assert lines[loop - 2].count("), ") == len(stored)
            if loop is None:  # one wave: the carried lines end the function
                body = lines[-1 - sum(lines_of):-1]
                assert all(not line.startswith(("    if ", "    touched")) for line in body)
            else:
                assert lines[loop + 1].endswith("[p], ")  # the wave's hoisted lanes
                body = lines[loop + 2:-1]
                assert all(line.startswith(" " * 8) for line in body)
            assert len(body) == sum(lines_of)
            assert sum("touched.append" in line for line in body) == lines_of.count(2)
            assert lines[-1].startswith("    return")

    @pytest.mark.parametrize("text", [
        # out[n - 1 - g] = in[g]: one lane an element, but falling
        "  %6 = invoke -(63, %5) :: index\n"
        "  %7 = invoke load(_1, %5) :: f32\n"
        "  %8 = invoke store(%7, _2, %6) :: Nothing\n",
        # in[g] += out[g], loaded through a second value equal to g
        "  %6 = invoke +(%4, %3) :: index\n"
        "  %7 = invoke load(_1, %6) :: f32\n"
        "  %8 = invoke load(_2, %5) :: f32\n"
        "  %9 = invoke +(%7, %8) :: f32\n"
        "  %10 = invoke store(%9, _1, %5) :: Nothing\n",
    ], ids=["reversed", "second-index"])
    def test_injective_stores_stay_in_lanes(self, registry, monkeypatch, batches,
                                            sequential_calls, text):
        fir_text = ("fn k(_1: memref{f32,1}, _2: memref{f32,1})\n1:\n" + gen._GID
                    + text + "  return\n")
        module = run_pipeline(registry, fir_text, "k", [F32_MEMREF] * 2)
        rng = np.random.default_rng(29)
        args = [f32_data(rng, 64), f32_data(rng, 64)]
        config = LaunchConfig((4, 1, 1), (16, 1, 1))
        got = launch(module, "k", config, args)
        assert batches == [(64, True)] and sequential_calls == []
        no_lanes(monkeypatch)
        assert same_launch(got, launch(module, "k", config, args))

    @pytest.mark.parametrize("text, want", [
        # A[g + 1] = A[g] + 1: each thread reads the element the one before stored
        ("  %6 = invoke load(_1, %5) :: f32\n"
         "  %7 = invoke +(%6, 1.0) :: f32\n"
         "  %8 = invoke +(%5, 1) :: index\n"
         "  %9 = invoke store(%7, _1, %8) :: Nothing\n",
         lambda a, b: (np.arange(65, dtype=np.float32) + a[0], b)),
        # B[g * 0] = A[g]: every thread stores to B[0], the last one wins
        ("  %6 = invoke load(_1, %5) :: f32\n"
         "  %7 = invoke *(%5, 0) :: index\n"
         "  %8 = invoke store(%6, _2, %7) :: Nothing\n",
         lambda a, b: (a, np.concatenate([a[63:64], b[1:]]))),
    ], ids=["shifted-stencil", "equal-indices"])
    def test_shared_elements_fall_back(self, registry, monkeypatch, batches,
                                       sequential_calls, text, want):
        fir_text = ("fn k(_1: memref{f32,1}, _2: memref{f32,1})\n1:\n" + gen._GID
                    + text + "  return\n")
        module = run_pipeline(registry, fir_text, "k", [F32_MEMREF] * 2)
        rng = np.random.default_rng(73)
        args = [rng.uniform(0, 8, 65).astype(np.float32), f32_data(rng, 64)]
        config = LaunchConfig((4, 1, 1), (16, 1, 1))
        got = launch(module, "k", config, args)
        assert batches == [(64, False)] and len(sequential_calls) == 64
        assert got[1] is None
        assert all(ref.same(g, w) for g, w in zip(got[0], want(*args)))
        no_lanes(monkeypatch)
        assert same_launch(got, launch(module, "k", config, args))

    def test_two_dimensional_store(self, registry, monkeypatch, batches,
                                   sequential_calls):
        # out[block, thread] = in[thread]: the flat index block * 16 + thread rises
        from bridgegen.dialects import build_op

        t1, t2 = ir.MemRefType(ir.F32, (None,)), ir.MemRefType(ir.F32, (None, None))
        module = ir.IrModule(registry.dialects)
        region = module.new_region()
        build_op(module, "func.func",
                 attributes={"sym_name": ir.SymbolAttr("k"), "function_type":
                             ir.TypeAttr(ir.FunctionType((t1, t2), ()))},
                 regions=[region])
        entry = module.append_block(region, [t1, t2])
        module.set_insertion(entry)
        src, out = entry.arguments
        thread, blk = (build_op(module, name, attributes={
            "dimension": ir.StringAttr("x")}, result_types=[ir.INDEX]).results[0]
            for name in ("gpu.thread_id", "gpu.block_id"))
        x = build_op(module, "memref.load", [src, thread], result_types=[ir.F32])
        build_op(module, "memref.store", [x.results[0], out, blk, thread])
        build_op(module, "func.return", [])
        assert ir.verify_module(module).ok
        args = [f32_data(np.random.default_rng(31), 16), np.zeros((4, 16), np.float32)]
        config = LaunchConfig((4, 1, 1), (16, 1, 1))
        got = launch(module, "k", config, args)
        assert batches == [(64, True)] and sequential_calls == []
        assert ref.same(got[0][1], np.tile(args[0], (4, 1)))
        no_lanes(monkeypatch)
        assert same_launch(got, launch(module, "k", config, args))

    def test_three_dimensional_store(self, registry, monkeypatch, batches,
                                     sequential_calls):
        # out[block x, thread y, thread z] = in[thread z] over blocks of 1x4x4
        # threads: the flat index is the thread's number in launch order
        def build(op, args):
            src, out = args
            b = op("gpu.block_id", [], ir.INDEX, dimension="x")
            y = op("gpu.thread_id", [], ir.INDEX, dimension="y")
            z = op("gpu.thread_id", [], ir.INDEX, dimension="z")
            op("memref.store", [op("memref.load", [src, z], ir.F32), out, b, y, z])
        module = ir_kernel(registry, [F32_BUF, ir.MemRefType(ir.F32, (None,) * 3)], build)
        args = [f32_data(np.random.default_rng(79), 4), np.zeros((4, 4, 4), np.float32)]
        config = LaunchConfig((4, 1, 1), (1, 4, 4))
        got = launch(module, "k", config, args)
        assert batches == [(64, True)] and sequential_calls == []
        assert ref.same(got[0][1], np.broadcast_to(args[0], (4, 4, 4)))
        no_lanes(monkeypatch)
        assert same_launch(got, launch(module, "k", config, args))

    def test_conservative_span_falls_back(self, registry, monkeypatch, batches,
                                          sequential_calls):
        # g - thread is each block's first thread number, never below 0, but
        # its corners reach -15, so the batch replays thread by thread
        fir_text = ("fn k(_1: memref{f32,1}, _2: memref{f32,1})\n1:\n" + gen._GID
                    + "  %6 = invoke -(%5, %4) :: index\n"
                      "  %7 = invoke load(_1, %6) :: f32\n"
                      "  %8 = invoke store(%7, _2, %5) :: Nothing\n  return\n")
        module = run_pipeline(registry, fir_text, "k", [F32_MEMREF] * 2)
        args = [f32_data(np.random.default_rng(37), 64), np.zeros(64, np.float32)]
        config = LaunchConfig((4, 1, 1), (16, 1, 1))
        got = launch(module, "k", config, args)
        assert batches == [(64, False)] and len(sequential_calls) == 64
        assert got[1] is None and ref.same(got[0][1], np.repeat(args[0][::16], 16))
        no_lanes(monkeypatch)
        assert same_launch(got, launch(module, "k", config, args))


class TestBatchSpans:
    """A batch's spans of its launch coordinates are exact, so its bounds
    test falls back exactly when a thread goes out of bounds."""

    def test_coordinate_spans_are_exact(self):
        for extents in itertools.product(range(1, 4), repeat=3):
            total = math.prod(extents)
            for a, b in itertools.combinations_with_replacement(range(total), 2):
                coords = interp._unravel(np.arange(a, b + 1), extents)
                assert list(interp._unravel_spans(a, b, extents)) == [
                    (int(c.min()), int(c.max())) for c in coords]

    def test_batches_inside_one_block(self, registry, monkeypatch, batches):
        # one block of 2 * LANES + 8 threads on buffers 4 elements short:
        # only the last batch, threads 2048-2055, passes the end
        n = 2 * interp.LANES + 8
        rng = np.random.default_rng(53)
        args = [f32_data(rng, n - 4), f32_data(rng, n - 4), np.zeros(n - 4, np.float32)]
        config = LaunchConfig((1, 1, 1), (n, 1, 1))
        got = launch(kernel(registry, "vadd"), "vadd", config, args)
        assert batches == [(interp.LANES, True)] * 2 + [(8, False)]
        assert got[1].startswith(f"OutOfBounds: index {n - 4} out of bounds")
        assert ref.same(got[0][2], args[0] + args[1])
        no_lanes(monkeypatch)
        assert same_launch(got, launch(kernel(registry, "vadd"), "vadd", config, args))


def strided_cases():
    """(einsum spec, extent of each index, operand arrays' layouts): a layout
    is "c" for a contiguous array, "t" for a transposed one, "s" for a slice
    with steps and "r" for a reversed one."""
    return [
        (einsum.EinsumSpec((("i", "i"), ("i", "j")), ("j",), ("j", "i")), "ccc"),
        (einsum.EinsumSpec((("i", "i"),), ("i",), ("i",)), "cc"),
        (einsum.EinsumSpec((("i",),), ("i", "i"), ("i",)), "cc"),
        (einsum.parse_einsum("(i,j),(j,k)->(k,i)"), "ccc"),
        (einsum.parse_einsum("(k),(i,k)->(i)"), "ccc"),
        (einsum.parse_einsum("(i,k),(k,j)->(i,j)"), "tsr"),
        (einsum.parse_einsum("(b,i,k),(b,k,j)->(b,i,j)"), "rtc"),
    ]


def laid_out(rng, shape, layout):
    """f32 data of ``shape`` in ``layout`` (see strided_cases)."""
    if layout == "t":
        return f32_data(rng, shape[::-1]).T
    if layout == "s":
        return f32_data(rng, tuple(2 * e + 1 for e in shape))[(slice(1, None, 2),) * len(shape)]
    data = f32_data(rng, shape)
    return data[::-1] if layout == "r" else data


class TestStridedGenerics:
    """Operands are read through strided views over the iteration space:
    repeated axes, transposed and broadcast maps and non-contiguous arrays
    give the point-by-point values, bit for bit."""

    @pytest.mark.parametrize("spec, layouts", strided_cases(),
                             ids=["diagonal-input", "diagonal-only", "diagonal-output",
                                  "transposed-output", "broadcast-input", "views-2d",
                                  "views-3d"])
    def test_same_as_point_by_point(self, registry, monkeypatch, sequential_calls,
                                    spec, layouts):
        extent = {a: 7 + k for k, a in enumerate(spec.axes)}
        rng = np.random.default_rng(41)
        arrays = [laid_out(rng, tuple(extent[a] for a in tup), layout)
                  for tup, layout in zip(spec.inputs + (spec.output,), layouts)]
        module = einsum.build_einsum_function(registry, spec)
        tensors = lambda: [TensorValue(ir.F32, a.shape, a) for a in arrays]  # noqa: E731
        [got] = run_function(module, "einsum", tensors())
        assert len(sequential_calls) == 1  # the function body; the generic ran in lanes
        no_lanes(monkeypatch)
        [want] = run_function(module, "einsum", tensors())
        assert ref.same(got.data, want.data)
        if spec.output == ("i", "i"):  # only the diagonal is written
            off = ~np.eye(extent["i"], dtype=bool)
            assert ref.same(got.data[off], arrays[-1][off])

    def test_reduction_axis_of_extent_zero(self, registry, monkeypatch):
        module = einsum.build_einsum_function(registry, einsum.parse_einsum("(i,k)->(i)"))
        out = f32_data(np.random.default_rng(43), 9)
        args = lambda: [tensor_value(np.zeros((9, 0), np.float32)), tensor_value(out)]  # noqa
        [got] = run_function(module, "einsum", args())
        assert ref.same(got.data, out)
        no_lanes(monkeypatch)
        assert ref.same(got.data, run_function(module, "einsum", args())[0].data)

    @pytest.mark.parametrize("big", [False, True], ids=["in-range", "wraps"])
    def test_i64_body_on_transposed_data(self, registry, monkeypatch, sequential_calls,
                                         big):
        # out[i] += x[i, j] * y[j] in i64 over x stored transposed; at 2**62
        # the products leave int64 and the generic runs point by point
        from bridgegen.dialects import build_op

        i64 = ir.I64
        t, t2 = ir.TensorType(i64, (None,)), ir.TensorType(i64, (None, None))
        module = ir.IrModule(registry.dialects)
        region = module.new_region()
        build_op(module, "func.func",
                 attributes={"sym_name": ir.SymbolAttr("g"), "function_type":
                             ir.TypeAttr(ir.FunctionType((t2, t, t), (t,)))},
                 regions=[region])
        entry = module.append_block(region, [t2, t, t])
        body = module.new_region()
        module.set_insertion(module.append_block(body, [i64] * 3))
        x, y, z = body.blocks[0].arguments
        product = build_op(module, "arith.muli", [x, y], result_types=[i64])
        total = build_op(module, "arith.addi", [product.results[0], z],
                         result_types=[i64])
        build_op(module, "linalg.yield", [total.results[0]])
        module.set_insertion(entry)
        generic = build_op(module, "linalg.generic", list(entry.arguments),
                           attributes={"indexing_maps": ir.ArrayAttr(
                               (ir.IndexMapAttr(2, (0, 1)), ir.IndexMapAttr(2, (1,)),
                                ir.IndexMapAttr(2, (0,)))),
                               "iterator_types": ir.ArrayAttr(
                                   (ir.StringAttr("parallel"), ir.StringAttr("reduction")))},
                           regions=[body], result_types=[t])
        build_op(module, "func.return", [generic.results[0]])
        rng = np.random.default_rng(47)
        top = 2 ** 62 if big else 2 ** 20
        arrays = [rng.integers(-top, top, (5, 16)).T, rng.integers(-top, top, 5)[::-1],
                  rng.integers(-top, top, 16)]
        run = lambda: run_function(module, "g", [TensorValue(i64, a.shape, a)  # noqa: E731
                                                 for a in arrays])[0].data
        got = run()
        assert len(sequential_calls) == (1 + 16 * 5 if big else 1)
        no_lanes(monkeypatch)
        assert np.array_equal(got, run())


def ir_kernel(registry, types, build):
    """@k taking arguments of ``types`` and returning nothing, its ops built
    by ``build(op, arguments)``: ``op(name, operands, result type or None,
    **string attributes)`` builds one op and returns its result."""
    from bridgegen.dialects import build_op

    module = ir.IrModule(registry.dialects)
    region = module.new_region()
    build_op(module, "func.func",
             attributes={"sym_name": ir.SymbolAttr("k"), "function_type":
                         ir.TypeAttr(ir.FunctionType(tuple(types), ()))},
             regions=[region])
    entry = module.append_block(region, list(types))
    module.set_insertion(entry)

    def op(name, operands, result=None, **attributes):
        built = build_op(module, name, operands,
                         attributes={k: ir.StringAttr(v) for k, v in attributes.items()},
                         result_types=result and [result])
        return built.results[0] if result else None
    build(op, entry.arguments)
    op("func.return", [])
    assert ir.verify_module(module).ok
    return module


F32_BUF, I64_BUF = ir.MemRefType(ir.F32, (None,)), ir.MemRefType(ir.I64, (None,))


class TestLaneFunction:
    """The lane function of each op no bench kernel uses gives, bit for bit,
    the values and errors of running point by point or thread by thread."""

    def test_lane_function_binds_values_and_pastes_no_number(self, registry):
        # x * 2.5 / -0.0 at x[g + 7]: the constants reach the lane function
        # through its namespace, and its code holds no number but positions
        text = ("fn k(_1: memref{f64,1}, _2: memref{f64,1})\n1:\n" + gen._GID
                + "  %6 = invoke +(%5, 7) :: index\n"
                  "  %7 = invoke load(_1, %6) :: f64\n"
                  "  %8 = invoke *(%7, 2.5) :: f64\n"
                  "  %9 = invoke /(%8, -0.0) :: f64\n"
                  "  %10 = invoke store(%9, _2, %5) :: Nothing\n  return\n")
        memref = fir.parse_frontend_type("memref{f64,1}")
        module = run_pipeline(registry, text, "k", [memref] * 2)
        lanes = interp._lane_function(func_region(module, "k"), None, ((16, 1, 1), 1, 1))
        assert lanes.steps == len(func_region(module, "k").entry.operations)  # 3 constants
        bound = list(lanes.__globals__.values())
        assert 2.5 in bound and 7 in bound and any(
            v == 0 and math.copysign(1, v) < 0 for v in bound if isinstance(v, float))
        operators = [f for f in vars(operator).values() if callable(f)]
        assert not [v for v in bound if any(v is f for f in operators)]
        assert "compiled" not in lanes.__globals__  # so the two form no cycle
        numbers = {c for c in lanes.__code__.co_consts if isinstance(c, (int, float))}
        assert numbers <= {0, 1}  # a test against 0, a slice's end past its last
        x = np.arange(80, dtype=np.float64)
        bufs = [MemRefValue(ir.F64, (80,), x.copy()), MemRefValue(ir.F64, (64,), np.zeros(64))]
        run_kernel(module, "k", LaunchConfig((4, 1, 1), (16, 1, 1)), bufs)
        with np.errstate(all="ignore"):
            assert bufs[1].data.tobytes() == (x[7:71] * 2.5 / -0.0).tobytes()

    @pytest.mark.parametrize("extents", [((4, 2, 3), 3, 2), ((60, 1, 1), 1, 1)])
    def test_each_object_is_bound_once(self, registry, extents):
        # geo reads every launch coordinate and block extent, and A[2 * t] =
        # A[2 * t] + B[g] loads and stores through one stride 2
        stride = gid_kernel(registry, "  %6 = invoke *(%4, 2) :: index\n"
                                      "  %7 = invoke load(_1, %6) :: f32\n"
                                      "  %8 = invoke load(_2, %5) :: f32\n"
                                      "  %9 = invoke +(%7, %8) :: f32\n"
                                      "  %10 = invoke store(%9, _1, %6) :: Nothing\n")
        named = {}
        for module, name in ((geometry_kernel(registry), "geo"), (stride, "k")):
            lanes = interp._lane_function(func_region(module, name), None, extents)
            named[name] = [v for k, v in lanes.__globals__.items() if k != "__builtins__"]
            assert len({id(v) for v in named[name]}) == len(named[name])
        assert sum(v is interp._unravel_spans for v in named["geo"]) == 1
        assert sum(type(v) is int and v == 2 for v in named["k"]) == 1

    @pytest.mark.parametrize("extents", [((4, 2, 3), 3, 2), ((60, 1, 1), 1, 1)])
    def test_each_coordinate_kind_is_unravelled_once(self, registry, monkeypatch, extents):
        # geo reads thread_id and block_id on all three axes: one line
        # unravels the block numbers, and one the spans of each kind
        texts = lane_texts(monkeypatch)
        lanes = interp._lane_function(func_region(geometry_kernel(registry), "geo"), None,
                                      extents)
        [text], bound = texts, lanes.__globals__
        name = {id(v): k for k, v in bound.items()}
        calls = [len(re.findall(rf"\b{name[id(f)]}\(", text))
                 for f in (interp._unravel, interp._unravel_spans)]
        assert calls == [1, 2]
        (_, gy, gz), values = extents, list(bound.values())
        assert sum(type(v) is tuple and v == (2, gy, gz) for v in values) == 1
        assert sum(isinstance(v, np.ndarray) for v in values) == 4  # 3 thread axes, 1 block


    def test_f64_division_by_signed_zero_negation_and_exp(self, registry, monkeypatch,
                                                           sequential_calls):
        # out[g] = exp(-(x[g] / y[g])) + x[g] / -0.0, over ±0.0, ±inf and nan
        text = ("fn k(_1: memref{f64,1}, _2: memref{f64,1}, _3: memref{f64,1})\n1:\n"
                + gen._GID
                + "  %6 = invoke load(_1, %5) :: f64\n"
                  "  %7 = invoke load(_2, %5) :: f64\n"
                  "  %8 = invoke /(%6, %7) :: f64\n"
                  "  %9 = invoke -(%8) :: f64\n"
                  "  %10 = invoke exp(%9) :: f64\n"
                  "  %11 = invoke /(%6, -0.0) :: f64\n"
                  "  %12 = invoke +(%10, %11) :: f64\n"
                  "  %13 = invoke store(%12, _3, %5) :: Nothing\n  return\n")
        memref = fir.parse_frontend_type("memref{f64,1}")
        module = run_pipeline(registry, text, "k", [memref] * 3)
        rng = np.random.default_rng(59)
        x, y = (f32_data(rng, 64).astype(np.float64) for _ in range(2))
        y[::3] = np.copysign(0.0, rng.uniform(-1, 1, 22))
        args = [MemRefValue(ir.F64, (64,), a) for a in (x, y, np.zeros(64))]
        config = LaunchConfig((4, 1, 1), (16, 1, 1))
        got = launch(module, "k", config, args)
        assert sequential_calls == [] and got[1] is None
        with np.errstate(all="ignore"):
            assert ref.same(got[0][2], np.exp(-(x / y)) + x / -0.0)
        no_lanes(monkeypatch)
        assert same_launch(got, launch(module, "k", config, args))

    @pytest.mark.parametrize("width", [64, 32])
    @pytest.mark.parametrize("offset", [0, 3, -5], ids=["in-bounds", "below", "above"])
    def test_index_through_cast_and_subi(self, registry, monkeypatch, sequential_calls,
                                         width, offset):
        # dst[g] = src[index(i<width>(g) - offset)] for 32 threads of 2 blocks:
        # offset 3 loads index -3 at thread 0, offset -5 index 32 at thread 27
        i = ir.IntType(width)

        def build(op, args):
            src, dst, off = args
            t = op("gpu.thread_id", [], ir.INDEX, dimension="x")
            b = op("gpu.block_id", [], ir.INDEX, dimension="x")
            n = op("gpu.block_dim", [], ir.INDEX, dimension="x")
            g = op("arith.addi", [op("arith.muli", [b, n], ir.INDEX), t], ir.INDEX)
            j = op("arith.subi", [op("arith.index_cast", [g], i), off], i)
            x = op("memref.load", [src, op("arith.index_cast", [j], ir.INDEX)], ir.F32)
            op("memref.store", [x, dst, g])
        module = ir_kernel(registry, [F32_BUF, F32_BUF, i], build)
        rng = np.random.default_rng(61)
        args = [f32_data(rng, 32), np.zeros(32, np.float32), interp.IntValue(width, offset)]
        config = LaunchConfig((2, 1, 1), (16, 1, 1))
        got = launch(module, "k", config, args)
        assert (got[1] is None) == (offset == 0)
        if offset == 0:
            assert sequential_calls == [] and ref.same(got[0][1], args[0])
        no_lanes(monkeypatch)
        assert same_launch(got, launch(module, "k", config, args))

    @pytest.mark.parametrize("big", [False, True], ids=["in-range", "wraps"])
    def test_generic_body_with_an_i64_constant(self, registry, monkeypatch,
                                               sequential_calls, big):
        # out[i] = x[i] * 3 - 2**62: at x near 2**62 the product leaves int64,
        # so the generic runs point by point, wrapping as i64 does
        text = ("fn body(_1: i64, _2: i64)\n1:\n"
                "  %1 = invoke *(_1, 3) :: i64\n"
                "  %2 = invoke -(%1, 4611686018427387904) :: i64\n  return %2\n")
        module = generic_module(registry, text, [ir.I64, ir.I64])
        top = 2 ** 62 if big else 2 ** 40
        x = np.random.default_rng(67).integers(-top, top, 16)
        run = lambda: run_function(module, "g", [  # noqa: E731
            TensorValue(ir.I64, (16,), x), TensorValue(ir.I64, (16,), np.zeros(16, np.int64))])
        [got] = run()
        assert len(sequential_calls) == (1 + 16 if big else 1)
        assert list(got.data) == [(int(v) * 3 - 2 ** 62 + 2 ** 63) % 2 ** 64 - 2 ** 63
                                  for v in x]
        no_lanes(monkeypatch)
        assert np.array_equal(got.data, run()[0].data)

    @pytest.mark.parametrize("case", ["in-range", "negative", "wraps"])
    def test_loaded_index_of_unknown_span(self, registry, monkeypatch, sequential_calls,
                                          batches, case):
        # dst[t] = src[n * n + n] for n = idx[t], an i64 of unknown span: a
        # negative n makes the corners reach below 0, so the batch falls
        # back; n = 2**32 wraps n * n to 0 and loads index 2**32
        def build(op, args):
            idx, src, dst = args
            t = op("gpu.thread_id", [], ir.INDEX, dimension="x")
            n = op("memref.load", [idx, t], ir.I64)
            m = op("arith.addi", [op("arith.muli", [n, n], ir.I64), n], ir.I64)
            x = op("memref.load", [src, op("arith.index_cast", [m], ir.INDEX)], ir.F32)
            op("memref.store", [x, dst, t])
        module = ir_kernel(registry, [I64_BUF, F32_BUF, F32_BUF], build)
        rng = np.random.default_rng(71)
        n = rng.integers(0, 3, 16)
        n[5] = {"in-range": 2, "negative": -3, "wraps": 2 ** 32}[case]
        args = [MemRefValue(ir.I64, (16,), n), f32_data(rng, 16), np.zeros(16, np.float32)]
        config = LaunchConfig((1, 1, 1), (16, 1, 1))
        got = launch(module, "k", config, args)
        assert batches == [(16, case == "in-range")]
        if case == "wraps":
            assert got[1].startswith(f"OutOfBounds: index {2 ** 32} out of bounds")
        else:
            assert got[1] is None and ref.same(got[0][2], args[1][n * n + n])
        no_lanes(monkeypatch)
        assert same_launch(got, launch(module, "k", config, args))


def ir_generic(registry, elem, maps, build):
    """@g returning one linalg.generic over tensors of ``elem``, one operand
    per map of ``maps`` (the iteration axes of each dimension, the output's
    last); an axis is parallel when the output's map has it. ``build(op,
    arguments)`` builds the body with ``op(name, operands, result type,
    **attributes)`` and returns the value yielded."""
    from bridgegen.dialects import build_op

    n = 1 + max(a for m in maps for a in m)
    types = [ir.TensorType(elem, (None,) * len(m)) for m in maps]
    module = ir.IrModule(registry.dialects)
    region = module.new_region()
    build_op(module, "func.func",
             attributes={"sym_name": ir.SymbolAttr("g"), "function_type":
                         ir.TypeAttr(ir.FunctionType(tuple(types), (types[-1],)))},
             regions=[region])
    entry = module.append_block(region, types)
    body = module.new_region()
    module.set_insertion(module.append_block(body, [elem] * len(maps)))

    def op(name, operands, result, **attributes):
        return build_op(module, name, operands, attributes=attributes,
                        result_types=[result]).results[0]
    build_op(module, "linalg.yield", [build(op, body.blocks[0].arguments)])
    module.set_insertion(entry)
    generic = build_op(module, "linalg.generic", list(entry.arguments),
                       attributes={"indexing_maps": ir.ArrayAttr(
                           tuple(ir.IndexMapAttr(n, m) for m in maps)),
                           "iterator_types": ir.ArrayAttr(tuple(
                               ir.StringAttr("parallel" if a in maps[-1] else "reduction")
                               for a in range(n)))},
                       regions=[body], result_types=[types[-1]])
    build_op(module, "func.return", [generic.results[0]])
    assert ir.verify_module(module).ok
    return module


def with_negative_nans(data):
    """``data`` with -nan in every fifth element."""
    data.reshape(-1)[::5] = -np.float32(np.nan)
    return data


class TestSteps:
    """A lane function runs its hoisted ops once a call and its carried ops
    once a step: a point of a generic's loop axes, or a wave of a kernel
    batch. Each case gives the results, errors and partial stores of
    running point by point or thread by thread, bit for bit."""

    @pytest.mark.parametrize("spec, layouts", [
        ("(i,j,k)->(i)", "cc"), ("(i,j,k)->(i)", "tr"), ("(k,i),(k,j)->(i,j)", "ccc"),
        ("(k,i),(k,j)->(i,j)", "tsc"), ("(i,k),(k)->(i)", "tcc"), ("(k),(i,k)->(i)", "ccc"),
        ("(j,k),(i)->(i)", "ccc"),
    ], ids=["multi-axis", "multi-axis-views", "outer", "outer-views", "transposed",
            "broadcast", "broadcast-loop"])
    def test_generic(self, registry, monkeypatch, sequential_calls, spec, layouts):
        parsed = einsum.parse_einsum(spec)
        extent = {a: 5 + 2 * k for k, a in enumerate(parsed.axes)}
        rng = np.random.default_rng(83)
        arrays = [with_negative_nans(laid_out(rng, tuple(extent[a] for a in tup), layout))
                  for tup, layout in zip(parsed.inputs + (parsed.output,), layouts)]
        module = einsum.build_einsum_function(registry, parsed)
        tensors = lambda: [TensorValue(ir.F32, a.shape, a) for a in arrays]  # noqa: E731
        [got] = run_function(module, "einsum", tensors())
        assert len(sequential_calls) == 1  # the function body; the generic ran in lanes
        no_lanes(monkeypatch)
        assert ref.same(got.data, run_function(module, "einsum", tensors())[0].data)

    @pytest.mark.parametrize("lanes, rows, k, steps", [
        (interp.LANES, 7, 2 * interp.LANES + 3, [interp.LANES, interp.LANES, 3]),
        (8, 16, 5, [4, 1]),
    ], ids=["loop-points", "elements"])
    def test_boxes_bound_each_call(self, registry, monkeypatch, sequential_calls,
                                   lanes, rows, k, steps):
        # a call takes at most LANES loop points, and at most LANES**2
        # elements of each hoisted value
        monkeypatch.setattr(interp, "LANES", lanes)
        module = einsum.build_einsum_function(registry, einsum.parse_einsum("(i,k),(k)->(i)"))
        rng = np.random.default_rng(89)
        arrays = [f32_data(rng, (rows, k)), f32_data(rng, k), f32_data(rng, rows)]
        calls, run_lanes = [], interp._exec_lanes
        monkeypatch.setattr(interp, "_exec_lanes", lambda code, args, lanes: (
            calls.append((len(lanes.steps), args[0].shape)) or run_lanes(code, args, lanes)))
        [got] = run_function(module, "einsum", [tensor_value(a) for a in arrays])
        assert calls == [(n, (n, rows)) for n in steps] and len(sequential_calls) == 1
        no_lanes(monkeypatch)
        want = run_function(module, "einsum", [tensor_value(a) for a in arrays])[0]
        assert ref.same(got.data, want.data)

    @pytest.mark.parametrize("shape", [(), (0, 3), (3, 4, 5), (2, 9, 4), (30,), (1, 40)])
    @pytest.mark.parametrize("most", [1, 7, 36])
    def test_boxes_cover_the_loop_in_order(self, shape, most):
        index = np.arange(math.prod(shape)).reshape(shape)
        seen = []
        for key, points in interp._boxes(list(shape), most):
            assert 1 <= len(points) <= most
            seen += [int(index[key][p]) for p in points]
        assert seen == list(range(index.size))

    def test_constant_value_in_the_carried_part(self, registry, monkeypatch,
                                                sequential_calls):
        # out[i] = out[i] * (0.5 * 3.0) + x[i, k]: the factor is one value,
        # hoisted and used as it is in each step
        def build(op, args):
            x, acc = args
            half, three = (op("arith.constant", [], ir.F32, value=ir.FloatAttr(v, ir.F32))
                           for v in (0.5, 3.0))
            factor = op("arith.mulf", [half, three], ir.F32)
            return op("arith.addf", [op("arith.mulf", [acc, factor], ir.F32), x], ir.F32)
        module = ir_generic(registry, ir.F32, [(0, 1), (0,)], build)
        rng = np.random.default_rng(97)
        arrays = [f32_data(rng, (9, 11)), f32_data(rng, 9)]
        [got] = run_function(module, "g", [tensor_value(a) for a in arrays])
        assert len(sequential_calls) == 1
        no_lanes(monkeypatch)
        assert ref.same(got.data, run_function(module, "g", [tensor_value(a)
                                                             for a in arrays])[0].data)

    @pytest.mark.parametrize("big", [False, True], ids=["in-range", "leaves-int64"])
    def test_i64_hoisted_multiply(self, registry, monkeypatch, sequential_calls, big):
        # out[i] += x[i, k] * 3 in i64: at x near 2**62 in a later loop point
        # the hoisted product leaves int64, so the generic runs point by point
        def build(op, args):
            x, acc = args
            three = op("arith.constant", [], ir.I64, value=ir.IntAttr(3, ir.I64))
            return op("arith.addi", [op("arith.muli", [x, three], ir.I64), acc], ir.I64)
        module = ir_generic(registry, ir.I64, [(0, 1), (0,)], build)
        x = np.random.default_rng(101).integers(-2 ** 40, 2 ** 40, (8, 6))
        if big:
            x[5, 2] = 2 ** 62
        run = lambda: run_function(module, "g", [  # noqa: E731
            TensorValue(ir.I64, x.shape, x), TensorValue(ir.I64, (8,), np.arange(8))])[0].data
        got = run()
        assert len(sequential_calls) == (1 + 8 * 6 if big else 1)
        assert list(got) == [(int(sum(r)) * 3 + i + 2 ** 63) % 2 ** 64 - 2 ** 63
                             for i, r in enumerate(x.tolist())]
        no_lanes(monkeypatch)
        assert np.array_equal(got, run())

    def test_reversed_store_is_one_falling_wave(self, registry, monkeypatch, batches,
                                                waves, sequential_calls):
        fir_text = ("fn k(_1: memref{f32,1}, _2: memref{f32,1})\n1:\n" + gen._GID
                    + "  %6 = invoke -(63, %5) :: index\n"
                      "  %7 = invoke load(_2, %6) :: f32\n"
                      "  %8 = invoke load(_1, %5) :: f32\n"
                      "  %9 = invoke +(%7, %8) :: f32\n"
                      "  %10 = invoke store(%9, _2, %6) :: Nothing\n  return\n")
        module = run_pipeline(registry, fir_text, "k", [F32_MEMREF] * 2)
        rng = np.random.default_rng(103)
        args = [f32_data(rng, 64), f32_data(rng, 64)]
        config = LaunchConfig((4, 1, 1), (16, 1, 1))
        got = launch(module, "k", config, args)
        assert batches == [(64, True)] and waves == [[64]] and sequential_calls == []
        no_lanes(monkeypatch)
        assert same_launch(got, launch(module, "k", config, args))

    @pytest.mark.parametrize("m, lanes", [(8, True), (4, False), (1, False)])
    def test_waves_average_at_least_min_lanes(self, registry, monkeypatch, batches, waves,
                                              sequential_calls, m, lanes):
        # out[thread] = in[g] over blocks of m threads: each block is a
        # rising run that overwrites the last; waves of fewer than
        # MIN_LANES lanes on average replay thread by thread
        fir_text = ("fn k(_1: memref{f32,1}, _2: memref{f32,1})\n1:\n" + gen._GID
                    + "  %6 = invoke load(_1, %5) :: f32\n"
                      "  %7 = invoke store(%6, _2, %4) :: Nothing\n  return\n")
        module = run_pipeline(registry, fir_text, "k", [F32_MEMREF] * 2)
        args = [f32_data(np.random.default_rng(107), 64), np.zeros(8, np.float32)]
        config = LaunchConfig((64 // m, 1, 1), (m, 1, 1))
        got = launch(module, "k", config, args)
        assert batches == [(64, lanes)] and len(sequential_calls) == 64 * (not lanes)
        assert waves == ([[m] * (64 // m)] if lanes else [])
        assert ref.same(got[0][1][:m], args[0][-m:])
        no_lanes(monkeypatch)
        assert same_launch(got, launch(module, "k", config, args))

    def test_stored_buffer_loaded_at_another_index(self, registry, monkeypatch, batches,
                                                   sequential_calls):
        # A[g] = A[g] + A[thread]: a load of A at another index than the store's
        fir_text = ("fn k(_1: memref{f32,1})\n1:\n" + gen._GID
                    + "  %6 = invoke load(_1, %5) :: f32\n"
                      "  %7 = invoke load(_1, %4) :: f32\n"
                      "  %8 = invoke +(%6, %7) :: f32\n"
                      "  %9 = invoke store(%8, _1, %5) :: Nothing\n  return\n")
        module = run_pipeline(registry, fir_text, "k", [F32_MEMREF])
        args = [f32_data(np.random.default_rng(109), 64)]
        config = LaunchConfig((4, 1, 1), (16, 1, 1))
        got = launch(module, "k", config, args)
        assert batches == [(64, False)] and len(sequential_calls) == 64
        no_lanes(monkeypatch)
        assert same_launch(got, launch(module, "k", config, args))

    def test_out_of_bounds_carried_load_in_third_wave(self, registry, monkeypatch,
                                                      batches, sequential_calls):
        # A[thread + block] = A[thread + block] * 2 + B[g]: each block is a
        # wave, and thread 15 of block 2 loads A[17] of 17
        fir_text = ("fn k(_1: memref{f32,1}, _2: memref{f32,1})\n1:\n" + gen._GID
                    + "  %6 = invoke +(%4, %1) :: index\n"
                      "  %7 = invoke load(_1, %6) :: f32\n"
                      "  %8 = invoke *(%7, 2.0) :: f32\n"
                      "  %9 = invoke load(_2, %5) :: f32\n"
                      "  %10 = invoke +(%8, %9) :: f32\n"
                      "  %11 = invoke store(%10, _1, %6) :: Nothing\n  return\n")
        module = run_pipeline(registry, fir_text, "k", [F32_MEMREF] * 2)
        rng = np.random.default_rng(113)
        args = [f32_data(rng, 17), f32_data(rng, 64)]
        config = LaunchConfig((4, 1, 1), (16, 1, 1))
        got = launch(module, "k", config, args)
        assert got[1] == (
            "OutOfBounds: index 17 out of bounds for dimension 0 of extent 17 "
            "(thread context {'x': (15, 2, 16), 'y': (0, 0, 1), 'z': (0, 0, 1)})")
        assert batches == [(64, False)] and len(sequential_calls) == 48
        no_lanes(monkeypatch)
        assert same_launch(got, launch(module, "k", config, args))

    @pytest.mark.parametrize("short", [0, 1])
    def test_budget_of_one_thread(self, registry, monkeypatch, batches, short):
        # each thread has the whole budget: one op short of a thread's
        # steps, the launch runs thread by thread and stops at thread 0's
        # return, after its store
        module = kernel(registry, "collide")
        steps = len(func_region(module, "collide").entry.operations)
        args = kernel_args(np.random.default_rng(127), "collide", 4, 16)
        config = LaunchConfig((4, 1, 1), (16, 1, 1))
        run = lambda: launch(module, "collide", config, args, steps - short)  # noqa: E731
        got = run()
        assert batches == [(64, True)] * (not short)
        assert got[1].startswith("StepLimitExceeded") if short else got[1] is None
        no_lanes(monkeypatch)
        assert same_launch(got, run())

    @pytest.mark.parametrize("order", ["identity", "reversed", "repeated"])
    def test_carried_index_runs_as_one_step(self, registry, monkeypatch, batches, waves,
                                            order):
        # n = A[t]; A[t] = n * n; B[n] = C[t]: B's index is loaded from the
        # stored A, so the batch is one step, which falls back at its end
        # unless B's index strictly rises or strictly falls
        def build(op, args):
            a, b, c = args
            t = op("gpu.thread_id", [], ir.INDEX, dimension="x")
            n = op("memref.load", [a, t], ir.I64)
            op("memref.store", [op("arith.muli", [n, n], ir.I64), a, t])
            op("memref.store", [op("memref.load", [c, t], ir.F32), b,
                                op("arith.index_cast", [n], ir.INDEX)])
        module = ir_kernel(registry, [I64_BUF, F32_BUF, F32_BUF], build)
        texts, function = [], interp._function
        monkeypatch.setattr(interp, "_function", lambda text, namespace: (
            texts.append(text) or function(text, namespace)))
        a = {"identity": np.arange(16), "reversed": np.arange(16)[::-1].copy(),
             "repeated": np.arange(16) // 2}[order]
        rng = np.random.default_rng(131)
        args = [MemRefValue(ir.I64, (16,), a.copy()), np.zeros(16, np.float32), f32_data(rng, 16)]
        config = LaunchConfig((1, 1, 1), (16, 1, 1))
        got = launch(module, "k", config, args)
        [text] = texts
        assert "for p in" not in text and text.splitlines()[-2].strip().startswith(
            "if len(waves(")
        assert batches == [(16, order != "repeated")]
        assert waves == [[16]] * (order != "repeated")
        no_lanes(monkeypatch)
        args[0] = MemRefValue(ir.I64, (16,), a.copy())
        assert same_launch(got, launch(module, "k", config, args))


class TestBuffers:
    """Buffers lanes cannot track run thread by thread, and a buffer that
    cannot be written is rejected before the launch."""

    def test_overlapping_elements_run_thread_by_thread(self, registry, monkeypatch,
                                                       batches, sequential_calls):
        # collide on one element viewed 8 times: thread by thread it
        # doubles and adds 8 times, 1 -> 503
        def args():
            one = np.lib.stride_tricks.as_strided(np.ones(1, np.float32), (8,), (0,),
                                                  writeable=True)
            return [MemRefValue(ir.F32, (8,), one), MemRefValue(ir.F32, (8,), np.arange(
                8, dtype=np.float32))]
        module, config = kernel(registry, "collide"), LaunchConfig((1, 1, 1), (8, 1, 1))
        got = launch(module, "collide", config, args())
        assert batches == [] and len(sequential_calls) == 8
        assert got[1] is None and list(got[0][0]) == [503.0] * 8
        no_lanes(monkeypatch)
        assert same_launch(got, launch(module, "collide", config, args()))

    @pytest.mark.parametrize("shape, strides, overlapping", [
        ((8,), (4,), False), ((8,), (-4,), False), ((8,), (0,), True), ((8,), (2,), True),
        ((3, 4), (16, 4), False), ((3, 4), (4, 12), False), ((3, 4), (8, 4), True),
        ((1, 8), (0, 4), False), ((8, 1), (4, 0), False), ((0, 8), (0, 4), False),
        ((2, 3, 4), (4, 32, 8), False), ((2, 3, 4), (4, 24, 8), True),
    ])
    def test_overlap_test(self, shape, strides, overlapping):
        base = np.zeros(64, np.float32)
        view = np.lib.stride_tricks.as_strided(base[32:], shape, strides)
        assert interp._overlapping(view) == overlapping
        flat = np.arange(base.size)[32:]  # the element offsets
        offsets = np.lib.stride_tricks.as_strided(flat, shape, [s * 2 for s in strides])
        if not overlapping:  # a conservative test: no false "disjoint"
            assert len(set(offsets.reshape(-1).tolist())) == offsets.size

    @pytest.mark.parametrize("threads", [8, 2], ids=["lanes", "threads"])
    def test_read_only_buffer_is_rejected(self, registry, threads):
        bufs = values([np.ones(threads, np.float32)] * 2) + [
            MemRefValue(ir.F32, (threads,), np.broadcast_to(np.float32(0), (threads,)))]
        with pytest.raises(interp.InterpError, match=(
                r"^@vadd argument 2: a memref's data must be writeable, not read-only$")):
            run_kernel(kernel(registry, "vadd"), "vadd",
                       LaunchConfig((1, 1, 1), (threads, 1, 1)), bufs)
        assert list(bufs[2].data) == [0.0] * threads


GEOMETRY_FIR = """\
fn geo(_1: memref{f32,1}, _2: memref{f32,1}, _3: index, _4: index)
1:
  %1 = invoke block_idx_x() :: index
  %2 = invoke block_idx_y() :: index
  %3 = invoke block_idx_z() :: index
  %4 = invoke thread_idx_x() :: index
  %5 = invoke thread_idx_y() :: index
  %6 = invoke thread_idx_z() :: index
  %7 = invoke block_dim_x() :: index
  %8 = invoke block_dim_y() :: index
  %9 = invoke block_dim_z() :: index
  %10 = invoke *(%1, _3) :: index
  %11 = invoke +(%10, %2) :: index
  %12 = invoke *(%11, _4) :: index
  %13 = invoke +(%12, %3) :: index
  %14 = invoke *(%7, %8) :: index
  %15 = invoke *(%14, %9) :: index
  %16 = invoke *(%13, %15) :: index
  %17 = invoke *(%4, %8) :: index
  %18 = invoke +(%17, %5) :: index
  %19 = invoke *(%18, %9) :: index
  %20 = invoke +(%19, %6) :: index
  %21 = invoke +(%16, %20) :: index
  %22 = invoke *(%6, %8) :: index
  %23 = invoke +(%22, %5) :: index
  %24 = invoke *(%23, %7) :: index
  %25 = invoke +(%24, %4) :: index
  %26 = invoke +(%16, %25) :: index
  %27 = invoke load(_1, %26) :: f32
  %28 = invoke store(%27, _2, %21) :: Nothing
  return
"""


def geometry_kernel(registry):
    """@geo(in, out, grid y, grid z): thread g, thread (x, y, z) of block b,
    stores to out[g] the element of ``in`` at b * n + (z * by + y) * bx + x,
    for n threads a block of extents (bx, by, bz): it reads every launch
    coordinate and block extent."""
    return run_pipeline(registry, GEOMETRY_FIR, "geo", [F32_MEMREF] * 2 + [fir.INDEX] * 2)


def geometry_args(rng, config):
    """Arguments of @geo for ``config``, and the output it must store."""
    n = math.prod(config.grid + config.block)
    data, (_, gy, gz), (bx, by, bz) = f32_data(rng, n), config.grid, config.block
    want = data.reshape(-1, bz, by, bx).transpose(0, 3, 2, 1).reshape(-1)
    return [data, np.zeros(n, np.float32), IndexValue(gy), IndexValue(gz)], want


@pytest.fixture
def lane_functions(monkeypatch):
    """The launch extents of each kernel lane function built."""
    made, build = [], interp._lane_function

    def counted(region, faults=None, extents=None):
        made.append(extents)
        return build(region, faults, extents)
    monkeypatch.setattr(interp, "_lane_function", counted)
    return made


def tables(module, symbol):
    """The arrays bound in the namespace of each lane function kept by
    @symbol's code: the tables of its launch coordinates."""
    return [a for lanes in module.executable.funcs[symbol][1].lanes.values()
            for a in lanes.__globals__.values() if isinstance(a, np.ndarray)]


class TestKeptGeometry:
    """A kernel batch is whole blocks, or at most LANES threads of one
    block, so its lane function, kept per launch extents and dropped by
    prepare, reads the batch's launch from its ends and from read-only
    tables of at most max(LANES, threads a block) elements bound when it
    is built. Each launch gives what the same launch gives thread by
    thread."""

    @pytest.mark.parametrize("grid, block", [
        ((2, 3, 2), (4, 2, 3)),  # one batch of 288 threads
        ((4, 3, 2), (3, 5, 7)),  # 105 a block: batches of 9 blocks, the last of 6
        ((1, 2, 1), (16, 8, 9)),  # 1152 a block: batches of 1,024 and 128 in each block
        ((3, 2, 2), (8, 4, 4)),  # 128 a block, which divides LANES; a last partial batch
    ])
    def test_three_dimensional_launch(self, registry, monkeypatch, sequential_calls,
                                      batches, grid, block):
        config, module = LaunchConfig(grid, block), geometry_kernel(registry)
        args, want = geometry_args(np.random.default_rng(29), config)
        got = launch(module, "geo", config, args)
        assert sequential_calls == [] and batches and all(ran for _, ran in batches)
        assert got[1] is None and ref.same(got[0][1], want)
        no_lanes(monkeypatch)
        assert same_launch(got, launch(module, "geo", config, args))

    @pytest.mark.parametrize("grid, block, sizes", [
        ((64, 1, 1), (60, 1, 1), [1020] * 3 + [780]),
        ((4, 3, 2), (3, 5, 7), [945, 945, 630]),
        ((8, 1, 1), (513, 1, 1), [513] * 8),
        ((2, 1, 1), (1152, 1, 1), [1024, 128] * 2),
    ], ids=["64x60", "3-D", "8x513", "2x1152"])
    @pytest.mark.parametrize("name", ["vadd", "collide"])
    def test_batches_are_whole_blocks(self, registry, monkeypatch, name, grid, block, sizes):
        ends, lockstep = [], interp._lockstep
        monkeypatch.setattr(interp, "_lockstep", lambda code, args, lanes: (
            ends.append(lanes.ends) or lockstep(code, args, lanes)))
        config, n = LaunchConfig(grid, block), math.prod(block)
        module = kernel(registry, name)
        args = kernel_args(np.random.default_rng(197), name, math.prod(grid), n)
        got = launch(module, name, config, args)
        assert got[1] is None and [last - first + 1 for first, last, _, _ in ends] == sizes
        assert [e[0] for e in ends] == list(itertools.accumulate([0] + sizes[:-1]))
        for first, last, low, high in ends:  # whole blocks, or one block's threads
            assert (low, high) == (first % n, last % n)
            assert first // n == last // n if n > interp.LANES else (low, high) == (0, n - 1)
        no_lanes(monkeypatch)
        assert same_launch(got, launch(module, name, config, args))

    def test_kept_reused_replaced_and_made_again(self, registry, monkeypatch,
                                                 lane_functions):
        # shapes A, A, B, A on one module: one lane function each, kept
        a, b = LaunchConfig((4, 1, 1), (interp.LANES, 1, 1)), LaunchConfig((2, 2, 1), (8, 4, 4))
        module, rng, got, made = geometry_kernel(registry), np.random.default_rng(31), [], []
        for config in (a, a, b, a):
            args, want = geometry_args(rng, config)
            got.append((config, args, launch(module, "geo", config, args)))
            assert got[-1][2][1] is None and ref.same(got[-1][2][0][1], want)
            made.append(dict(module.executable.funcs["geo"][1].lanes))
        extents = [(config.block, *config.grid[1:]) for config in (a, b)]
        assert lane_functions == extents and list(made[-1]) == extents
        assert made[0][extents[0]] is made[3][extents[0]] and made[2][extents[1]]
        no_lanes(monkeypatch)
        for config, args, result in got:
            assert same_launch(result, launch(module, "geo", config, args))

    def test_launch_after_prepare(self, registry, monkeypatch, lane_functions):
        config, module = LaunchConfig((8, 1, 1), (256, 1, 1)), geometry_kernel(registry)
        args, want = geometry_args(np.random.default_rng(37), config)
        first = launch(module, "geo", config, args)
        interp.prepare(module)
        assert module.executable.funcs == {}  # the code, and its lane functions, are dropped
        again = launch(module, "geo", config, args)
        assert lane_functions == [((256, 1, 1), 1, 1)] * 2
        assert ref.same(again[0][1], want) and same_launch(again, first)
        no_lanes(monkeypatch)
        assert same_launch(again, launch(module, "geo", config, args))

    def test_kept_lanes_are_read_only(self, registry):
        config, module = LaunchConfig((2, 2, 2), (4, 4, 8)), geometry_kernel(registry)
        launch(module, "geo", config, geometry_args(np.random.default_rng(41), config)[0])
        arrays = tables(module, "geo")
        assert arrays
        for lane in arrays:
            with pytest.raises(ValueError, match="read-only"):
                lane[0] = 1

    def test_kept_lanes_are_bounded(self, registry, monkeypatch, batches, lane_functions):
        # three launches of a shape build one lane function, whose four
        # tables (a thread number on each axis, and the block numbers) hold
        # at most max(LANES, block) elements each; vadd, which reads no
        # coordinate lanes, binds none
        rng, got = np.random.default_rng(43), []
        for grid, block in ((64, 60), (64, 64), (2, 1500)):
            config, module, vadd = (LaunchConfig((grid, 1, 1), (block, 1, 1)),
                                    geometry_kernel(registry), kernel(registry, "vadd"))
            for _ in range(3):
                args, want = geometry_args(rng, config)
                result = launch(module, "geo", config, args)
                assert result[1] is None and ref.same(result[0][1], want)
                vadd_args = kernel_args(rng, "vadd", grid, block)
                assert launch(vadd, "vadd", config, vadd_args)[1] is None
            got.append((module, config, args, result))
            assert lane_functions == [((block, 1, 1), 1, 1)] * 2
            lane_functions.clear()
            arrays = tables(module, "geo")
            assert len(arrays) == 4 and tables(vadd, "vadd") == []
            assert all(a.dtype == np.int64 and a.size <= max(interp.LANES, block)
                       for a in arrays)
        assert batches and all(ran for _, ran in batches)
        no_lanes(monkeypatch)
        for module, config, args, result in got:
            assert same_launch(result, launch(module, "geo", config, args))


@pytest.fixture
def plans(monkeypatch):
    """(layout key, plan) of each generic plan asked for; the plan is None
    while it is made, and stays None when making it raised."""
    made, make = [], interp._generic_plan

    def counted(key, *args):
        made.append((key, None))
        made[-1] = (key, make(key, *args))
        return made[-1][1]
    monkeypatch.setattr(interp, "_generic_plan", counted)
    return made


def einsum_run(module, arrays):
    return run_function(module, "einsum", [TensorValue(ir.F32, a.shape, a) for a in arrays])[0]


class TestKeptPlan:
    """A generic's code keeps the plan of its last operand layout: the
    extents, step charge, views and boxes that depend only on the (shape,
    strides) of each operand. A call of another layout makes a plan again,
    an inconsistent one raises on every call, and prepare drops it. Each
    call gives what the same call gives point by point."""

    MATMUL = einsum.parse_einsum("(i,k),(k,j)->(i,j)")

    def matmul(self, registry, rng):
        arrays = [f32_data(rng, (6, 7)), f32_data(rng, (7, 8)), f32_data(rng, (6, 8))]
        return einsum.build_einsum_function(registry, self.MATMUL), arrays

    def test_one_plan_for_one_layout(self, registry, monkeypatch, sequential_calls, plans):
        module, arrays = self.matmul(registry, np.random.default_rng(53))
        got = [einsum_run(module, arrays) for _ in range(100)]
        assert len(plans) == 1 and plans[0][1][3] is not None
        assert len(sequential_calls) == 100  # the function body; the generic ran in lanes
        want = ref.einsum_reference("(i,k),(k,j)->(i,j)", arrays[:-1], arrays[-1])
        assert all(ref.same(g.data, want) for g in got)
        no_lanes(monkeypatch)
        assert ref.same(got[-1].data, einsum_run(module, arrays).data)

    @pytest.mark.parametrize("which, layout, again", [
        (0, lambda rng: f32_data(rng, (7, 6)).T, True),
        (0, lambda rng: f32_data(rng, (6, 14))[:, ::2], True),
        (1, lambda rng: np.broadcast_to(f32_data(rng, 8), (7, 8)), True),
        (2, lambda rng: f32_data(rng, (8, 6)).T, True),
        (0, lambda rng: read_only(f32_data(rng, (6, 7))), False),
    ], ids=["transposed", "sliced", "broadcast", "transposed-output", "read-only"])
    def test_another_layout(self, registry, monkeypatch, sequential_calls, plans, which,
                            layout, again):
        # a read-only operand of the kept layout reads through the kept plan
        rng = np.random.default_rng(59)
        module, arrays = self.matmul(registry, rng)
        other = list(arrays)
        other[which] = layout(rng)
        got = [einsum_run(module, arrays), einsum_run(module, other)]
        assert len(plans) == 1 + again and len(sequential_calls) == 2  # lanes
        assert (plans[-1][0] != plans[0][0]) == again
        no_lanes(monkeypatch)
        assert all(ref.same(g.data, einsum_run(module, a).data)
                   for g, a in zip(got, (arrays, other)))

    def test_inconsistent_extents_raise_on_each_call(self, registry, plans):
        module = einsum.build_einsum_function(registry, self.MATMUL)
        rng = np.random.default_rng(61)
        arrays = [f32_data(rng, (6, 7)), f32_data(rng, (5, 8)), f32_data(rng, (6, 8))]
        errors = []
        for _ in range(2):
            with pytest.raises(interp.InterpError) as info:
                einsum_run(module, arrays)
            errors.append(str(info.value))
        assert errors == ["linalg.generic: inconsistent extent for axis d2: 7 vs 5"] * 2
        assert [plan for _, plan in plans] == [None, None]  # none kept: each call asks

    def test_prepare_drops_the_plan(self, registry, monkeypatch, plans):
        module, arrays = self.matmul(registry, np.random.default_rng(67))
        first = einsum_run(module, arrays)
        interp.prepare(module)
        assert module.executable.funcs == {}  # the code, and its plan, are dropped
        again = einsum_run(module, arrays)
        assert len(plans) == 2 and plans[0][0] == plans[1][0] and plans[0][1] is not plans[1][1]
        assert ref.same(first.data, again.data)
        no_lanes(monkeypatch)
        assert ref.same(again.data, einsum_run(module, arrays).data)

    def test_boxes_wait_for_a_run_in_lanes(self, registry, plans):
        # a call over the step budget runs point by point and makes no boxes;
        # the first run in lanes makes them once for the kept plan
        module, arrays = self.matmul(registry, np.random.default_rng(73))
        with pytest.raises(interp.StepLimitExceeded):
            run_function(module, "einsum", [TensorValue(ir.F32, a.shape, a) for a in arrays],
                         step_limit=100)
        [(_, (_, _, _, (_, boxes)))] = plans
        assert boxes.cache_info().currsize == 0
        got = [einsum_run(module, arrays) for _ in range(2)]
        assert len(plans) == 1 and boxes.cache_info() == (1, 1, None, 1)  # made once
        want = ref.einsum_reference("(i,k),(k,j)->(i,j)", arrays[:-1], arrays[-1])
        assert all(ref.same(g.data, want) for g in got)

    def test_kept_points_are_bounded(self, registry, plans):
        # a loop of 16 * LANES points keeps one points list of LANES points
        spec, k = "(i,k)->(i)", 16 * interp.LANES
        rng = np.random.default_rng(71)
        arrays = [f32_data(rng, (interp.MIN_LANES, k)), f32_data(rng, interp.MIN_LANES)]
        module = einsum.build_einsum_function(registry, einsum.parse_einsum(spec))
        got = einsum_run(module, arrays)
        [(_, (_, _, _, (_, boxes)))] = plans
        boxes = boxes()
        lists = {id(points): points for _, points in boxes}.values()
        assert len(boxes) == 16 and sum(map(len, lists)) <= interp.LANES
        assert ref.same(got.data, ref.einsum_reference(spec, arrays[:-1], arrays[-1]))


def read_only(data):
    data.flags.writeable = False
    return data


def lane_texts(monkeypatch):
    """The text of each lane function built."""
    texts, function = [], interp._function
    monkeypatch.setattr(interp, "_function", lambda text, namespace: (
        texts.append(text) or function(text, namespace)))
    return texts


def gid_kernel(registry, body, types=("memref{f32,1}",) * 2):
    """@k over the FIR ``types`` whose FIR ``body`` follows bench/programs.py's
    global thread id: %3 = block_idx_x * block_dim_x, %4 = thread_idx_x,
    %5 = %3 + %4."""
    params = ", ".join(f"_{k}: {t}" for k, t in enumerate(types, 1))
    return run_pipeline(registry, f"fn k({params})\n1:\n" + gen._GID + body + "  return\n",
                        "k", [fir.parse_frontend_type(t) for t in types])


class TestConsecutive:
    """An index that is c + s * g, for g the launch-order thread number, or
    c + s * u, for u a thread's number in its block (thread_id x in a 1-D
    block), with c uniform and s >= 1, loads and stores through slices, and
    its waves are the whole batch or its block runs. Each launch gives, bit
    for bit, the buffers, error and partial stores of running thread by
    thread."""

    @pytest.mark.parametrize("body, error", [
        ("  %6 = invoke +(%5, 3) :: index\n"
         "  %7 = invoke load(_1, %6) :: f32\n"
         "  %8 = invoke store(%7, _2, %5) :: Nothing\n", "index 2048 out of bounds"),
        ("  %6 = invoke +(%5, 3) :: index\n"
         "  %7 = invoke load(_1, %5) :: f32\n"
         "  %8 = invoke store(%7, _2, %6) :: Nothing\n", "index 2048 out of bounds"),
    ], ids=["load", "store"])
    def test_offset_past_the_end_falls_back(self, registry, monkeypatch, batches, body,
                                            error):
        # g + 3 over 2,048 threads and buffers of 2,048: the second batch
        # reaches 2,050, so it replays and thread 2,045 fails after its stores
        module = gid_kernel(registry, body)
        rng = np.random.default_rng(139)
        args = [f32_data(rng, 2048), np.zeros(2048, np.float32)]
        config = LaunchConfig((8, 1, 1), (256, 1, 1))
        got = launch(module, "k", config, args)
        assert batches == [(1024, True), (1024, False)]
        assert got[1].startswith(f"OutOfBounds: {error}")
        assert "'x': (253, 7, 256)" in got[1]
        no_lanes(monkeypatch)
        assert same_launch(got, launch(module, "k", config, args))

    def test_negative_start_falls_back(self, registry, monkeypatch, batches):
        # out[g] = in[g - 1]: the first batch's span starts at -1, so it
        # replays and thread 0 fails before any store
        module = gid_kernel(registry, "  %6 = invoke -(%5, 1) :: index\n"
                                      "  %7 = invoke load(_1, %6) :: f32\n"
                                      "  %8 = invoke store(%7, _2, %5) :: Nothing\n")
        args = [f32_data(np.random.default_rng(149), 2048), np.zeros(2048, np.float32)]
        config = LaunchConfig((8, 1, 1), (256, 1, 1))
        got = launch(module, "k", config, args)
        assert batches == [(1024, False)] and got[1].startswith("OutOfBounds: index -1 ")
        assert not got[0][1].any()
        no_lanes(monkeypatch)
        assert same_launch(got, launch(module, "k", config, args))

    def outlived(self, registry, monkeypatch, batches, reader):
        """x = A[g]; A[g] = x * 2; then ``reader``, which stores x or a value
        of it to B: the launch, its text and A's old values."""
        texts = lane_texts(monkeypatch)
        module = gid_kernel(registry, "  %6 = invoke load(_1, %5) :: f32\n"
                                      "  %7 = invoke *(%6, 2.0) :: f32\n"
                                      "  %8 = invoke store(%7, _1, %5) :: Nothing\n" + reader)
        args = [f32_data(np.random.default_rng(151), 2048), np.zeros(2048, np.float32)]
        config = LaunchConfig((16, 1, 1), (128, 1, 1))
        got = launch(module, "k", config, args)
        assert batches == [(1024, True)] * 2 and got[1] is None
        assert ref.same(got[0][0], args[0] * np.float32(2))
        [text] = texts  # the load copies its slice
        assert any(line.endswith("= d1[first:last + 1].copy()") for line in text.splitlines())
        no_lanes(monkeypatch)
        assert same_launch(got, launch(module, "k", config, args))
        return got, args[0]

    def test_loaded_value_outlives_its_store(self, registry, monkeypatch, batches):
        # B[g] = x: B gets A's old values, not a view of the elements the
        # store overwrote
        got, old = self.outlived(registry, monkeypatch, batches,
                                 "  %9 = invoke store(%6, _2, %5) :: Nothing\n")
        assert ref.same(got[0][1], old)

    def test_loaded_value_read_after_its_store(self, registry, monkeypatch, batches):
        # B[g] = x + 1, the add after A's store: it reads A's old values
        got, old = self.outlived(registry, monkeypatch, batches,
                                 "  %9 = invoke +(%6, 1.0) :: f32\n"
                                 "  %10 = invoke store(%9, _2, %5) :: Nothing\n")
        assert ref.same(got[0][1], old + np.float32(1))

    def test_loads_read_before_the_store_copy_nothing(self, registry, monkeypatch, batches):
        # collide reads its loaded slice only before the store to its
        # buffer, so only the batch's undo record copies
        texts = lane_texts(monkeypatch)
        grid, block = gen.KERNELS["collide"]
        module, config = kernel(registry, "collide"), LaunchConfig((grid, 1, 1), (block, 1, 1))
        args = kernel_args(np.random.default_rng(153), "collide", grid, block)
        got = launch(module, "collide", config, args)
        assert batches == [(1024, True)] * 4 and got[1] is None
        [text] = texts
        [copy] = [line for line in text.splitlines() if ".copy()" in line]
        assert copy.strip().startswith("touched.append(")
        assert ref.same(got[0][0], ref.kernel_reference("collide", grid, block, args)[0])
        no_lanes(monkeypatch)
        assert same_launch(got, launch(module, "collide", config, args))

    @pytest.mark.parametrize("name", ["vadd", "collide"])
    def test_partial_batch_from_mid_block(self, registry, monkeypatch, batches, waves, name):
        # 2 blocks of 1,500: each block is a batch of 1,024 threads, then
        # one of 476 that starts at the block's thread 1,024; each batch is
        # one wave, collide's too, as it holds one block run
        grid, block = 2, 1500
        module, args = kernel(registry, name), kernel_args(np.random.default_rng(157), name,
                                                          grid, block)
        config = LaunchConfig((grid, 1, 1), (block, 1, 1))
        got = launch(module, name, config, args)
        assert batches == [(1024, True), (476, True)] * 2 and got[1] is None
        assert waves == []
        assert all(ref.same(g, w) for g, w in zip(
            got[0], ref.kernel_reference(name, grid, block, args)[-len(got[0]):]))
        no_lanes(monkeypatch)
        assert same_launch(got, launch(module, name, config, args))

    @pytest.mark.parametrize("grid, block", [
        ((4, 1, 1), (8, 2, 1)), ((2, 1, 1), (4, 4, 4)), ((2, 2, 1), (64, 1, 1)),
    ], ids=["2-D", "3-D", "2-D-grid"])
    @pytest.mark.parametrize("name", ["vadd", "collide"])
    def test_launch_shapes(self, registry, monkeypatch, name, grid, block):
        # under a block that extends in y or z, neither g nor thread_id x
        # is whole or a block run: every access gathers or scatters; under
        # a grid that extends in y, thread_id x is a block run, so collide's
        # waves are its block runs, and g, which repeats across the grid's
        # y, gathers and scatters
        texts = lane_texts(monkeypatch)
        module, config = kernel(registry, name), LaunchConfig(grid, block)
        n = math.prod(grid + block)
        args = kernel_args(np.random.default_rng(163), name, n // 64, 64)
        got = launch(module, name, config, args)
        assert list(module.executable.funcs[name][1].lanes) == [(block, *grid[1:])]
        [text] = texts
        runs = grid[1] > 1 and name == "collide"
        slices = re.findall(r"d\d+\[(?!\()", text)  # a subscript that is not a gather's
        assert "[(v" in text and bool(slices) == runs and ("waves(" in text) == (not runs)
        assert ("[:(last - first) // " in text) == runs  # a prefix of the block runs
        no_lanes(monkeypatch)
        assert same_launch(got, launch(module, name, config, args))

    def test_two_thread_blocks_fall_back(self, registry, monkeypatch, batches, waves):
        # collide over blocks of 2 threads: its block runs average 2 lanes,
        # fewer than MIN_LANES, so each batch replays thread by thread
        module, config = kernel(registry, "collide"), LaunchConfig((512, 1, 1), (2, 1, 1))
        args = kernel_args(np.random.default_rng(167), "collide", 512, 2)
        got = launch(module, "collide", config, args)
        assert batches == [(1024, False)] and waves == [] and got[1] is None
        assert ref.same(got[0][0], ref.kernel_reference("collide", 512, 2, args)[0])
        no_lanes(monkeypatch)
        assert same_launch(got, launch(module, "collide", config, args))

    @pytest.mark.parametrize("a, error", [(5, None), (2 ** 63 - 1, "OutOfBounds: index -")],
                             ids=["in-range", "wraps"])
    def test_i64_cast_that_wraps(self, registry, monkeypatch, batches, a, error):
        # dst[index(i64(g + a)) - a] = src[g]: g + a is an index value, so
        # for a = 2**63 - 1 its i64 cast wraps and the store index leaves
        # the buffer; the span of g + a leaves int64, so the batch falls
        # back and fails as thread by thread does
        def build(op, args):
            src, dst, off = args
            t = op("gpu.thread_id", [], ir.INDEX, dimension="x")
            b = op("gpu.block_id", [], ir.INDEX, dimension="x")
            n = op("gpu.block_dim", [], ir.INDEX, dimension="x")
            g = op("arith.addi", [op("arith.muli", [b, n], ir.INDEX), t], ir.INDEX)
            w = op("arith.index_cast", [op("arith.addi", [g, off], ir.INDEX)], ir.I64)
            j = op("arith.subi", [op("arith.index_cast", [w], ir.INDEX), off], ir.INDEX)
            op("memref.store", [op("memref.load", [src, g], ir.F32), dst, j])
        module = ir_kernel(registry, [F32_BUF, F32_BUF, ir.INDEX], build)
        args = [f32_data(np.random.default_rng(197), 256), np.zeros(256, np.float32),
                IndexValue(a)]
        config = LaunchConfig((4, 1, 1), (64, 1, 1))
        got = launch(module, "k", config, args)
        assert batches == [(256, error is None)] and str(got[1]).startswith(str(error))
        no_lanes(monkeypatch)
        assert same_launch(got, launch(module, "k", config, args))

    @pytest.mark.parametrize("width", [32, 64])
    def test_cast_of_the_thread_number(self, registry, monkeypatch, width):
        # dst[index(i<width>(g))] = src[g]: an i32 cast wraps, so its index
        # has no shape and the store scatters; an i64 cast keeps g's
        i = ir.IntType(width)

        def build(op, args):
            src, dst = args
            t = op("gpu.thread_id", [], ir.INDEX, dimension="x")
            b = op("gpu.block_id", [], ir.INDEX, dimension="x")
            n = op("gpu.block_dim", [], ir.INDEX, dimension="x")
            g = op("arith.addi", [op("arith.muli", [n, b], ir.INDEX), t], ir.INDEX)
            j = op("arith.index_cast", [op("arith.index_cast", [g], i)], ir.INDEX)
            op("memref.store", [op("memref.load", [src, g], ir.F32), dst, j])
        module = ir_kernel(registry, [F32_BUF, F32_BUF], build)
        texts = lane_texts(monkeypatch)
        args = [f32_data(np.random.default_rng(173), 256), np.zeros(256, np.float32)]
        config = LaunchConfig((4, 1, 1), (64, 1, 1))
        got = launch(module, "k", config, args)
        [text] = texts
        assert ("waves(" in text) == ("[(v" in text) == (width == 32)
        assert got[1] is None and ref.same(got[0][1], args[0])
        no_lanes(monkeypatch)
        assert same_launch(got, launch(module, "k", config, args))

    def test_thread_number_as_a_value(self, registry, monkeypatch, batches):
        # out[g] = g * block_dim_x + in[g]: g's lanes are made, for the multiply
        def build(op, args):
            src, dst = args
            t = op("gpu.thread_id", [], ir.INDEX, dimension="x")
            b = op("gpu.block_id", [], ir.INDEX, dimension="x")
            n = op("gpu.block_dim", [], ir.INDEX, dimension="x")
            g = op("arith.addi", [t, op("arith.muli", [b, n], ir.INDEX)], ir.INDEX)
            x = op("arith.index_cast", [op("arith.muli", [g, n], ir.INDEX)], ir.I64)
            op("memref.store", [op("arith.addi", [x, op("memref.load", [src, g], ir.I64)],
                                   ir.I64), dst, g])
        module = ir_kernel(registry, [I64_BUF, I64_BUF], build)
        texts = lane_texts(monkeypatch)
        src = np.random.default_rng(179).integers(-2 ** 40, 2 ** 40, 2048)
        args = [MemRefValue(ir.I64, (2048,), src), MemRefValue(ir.I64, (2048,),
                                                                np.zeros(2048, np.int64))]
        config = LaunchConfig((32, 1, 1), (64, 1, 1))
        got = launch(module, "k", config, args)
        assert batches == [(1024, True)] * 2 and got[1] is None
        assert list(got[0][1]) == [64 * g + int(s) for g, s in enumerate(src)]
        [text] = texts
        assert "[(v" not in text and "waves(" not in text
        no_lanes(monkeypatch)
        args[1] = MemRefValue(ir.I64, (2048,), np.zeros(2048, np.int64))
        assert same_launch(got, launch(module, "k", config, args))

    @pytest.mark.parametrize("second, lanes", [(5, True), (6, False)])
    def test_offsets_compared_at_run_time(self, registry, monkeypatch, batches, second,
                                          lanes):
        # A[g + _3] = A[g + _4] * 2: two offsets of one stored buffer that
        # no constant gives; equal, the batch runs in lanes, else it replays
        module = gid_kernel(registry, "  %6 = invoke +(%5, _2) :: index\n"
                                      "  %7 = invoke +(%5, _3) :: index\n"
                                      "  %8 = invoke load(_1, %7) :: f32\n"
                                      "  %9 = invoke *(%8, 2.0) :: f32\n"
                                      "  %10 = invoke store(%9, _1, %6) :: Nothing\n",
                            ("memref{f32,1}", "index", "index"))
        args = [f32_data(np.random.default_rng(181), 80), IndexValue(5), IndexValue(second)]
        config = LaunchConfig((4, 1, 1), (16, 1, 1))
        got = launch(module, "k", config, args)
        assert batches == [(64, lanes)] and got[1] is None
        no_lanes(monkeypatch)
        assert same_launch(got, launch(module, "k", config, args))

    @pytest.mark.parametrize("threads", [8, 2], ids=["lanes", "threads"])
    def test_value_of_another_function(self, registry, monkeypatch, threads):
        # a kernel that stores a constant of @other fails with the
        # verifier's finding, in lanes as thread by thread
        from bridgegen.dialects import build_op

        module = ir.IrModule(registry=registry.dialects)
        new_func(module, "other")
        one = build_op(module, "arith.constant", result_types=[ir.F32],
                       attributes={"value": ir.FloatAttr(1.0, ir.F32)}).results[0]
        build_op(module, "func.return", [])
        _, entry = new_func(module, "k", [F32_BUF])
        t = build_op(module, "gpu.thread_id", result_types=[ir.INDEX],
                     attributes={"dimension": ir.StringAttr("x")}).results[0]
        ir.create_op(module, "memref.store", [one, entry.arguments[0], t], [])
        build_op(module, "func.return", [])
        got = launch(module, "k", LaunchConfig((1, 1, 1), (threads, 1, 1)),
                     [np.zeros(threads, np.float32)])
        assert got[1] == ("InterpError: [dominance] at 'memref.store' in ^bb2: use of %0 "
                          "is not dominated by its definition")
        no_lanes(monkeypatch)
        assert same_launch(got, launch(module, "k", LaunchConfig((1, 1, 1), (threads, 1, 1)),
                                       [np.zeros(threads, np.float32)]))

    @pytest.mark.parametrize("body, store, steps", [
        ("  %6 = invoke *(%5, 2) :: index\n"
         "  %7 = invoke load(_1, %5) :: f32\n"
         "  %8 = invoke store(%7, _2, %6) :: Nothing\n", "d2[l11:h11 + 1:n", []),
        ("  %6 = invoke +(%5, _4) :: index\n"
         "  %7 = invoke load(_1, %6) :: f32\n"
         "  %8 = invoke store(%7, _2, %5) :: Nothing\n", "d2[first:last + 1] =", []),
        ("  %6 = invoke *(%4, 2) :: index\n"
         "  %7 = invoke load(_1, %6) :: f32\n"
         "  %8 = invoke load(_2, %5) :: f32\n"
         "  %9 = invoke +(%7, %8) :: f32\n"
         "  %10 = invoke store(%9, _1, %6) :: Nothing\n", "d1[l11:h11 + 1:n", [[64] * 4]),
    ], ids=["store-2g", "load-g-plus-argument", "thread-x-times-2"])
    def test_affine_indices_take_slices(self, registry, monkeypatch, batches, waves, body,
                                        store, steps):
        # out[2 * g] = in[g], out[g] = in[g + _4] and A[2 * t] = A[2 * t] +
        # B[g] over 4 blocks of 64: slices of stride 2 and of an offset
        # known at run time, one wave a batch, or one a block run
        texts = lane_texts(monkeypatch)
        module = gid_kernel(registry, body, ("memref{f32,1}",) * 3 + ("index",))
        rng = np.random.default_rng(193)
        args = [f32_data(rng, 512), f32_data(rng, 512), f32_data(rng, 4), IndexValue(3)]
        config = LaunchConfig((4, 1, 1), (64, 1, 1))
        got = launch(module, "k", config, args)
        assert batches == [(256, True)] and got[1] is None and waves == steps
        [text] = texts
        assert "[(v" not in text and "waves(" not in text
        assert any(line.strip().startswith(store) for line in text.splitlines()), text
        no_lanes(monkeypatch)
        assert same_launch(got, launch(module, "k", config, args))

    def test_one_lane_function_for_any_grid_x(self, registry, monkeypatch):
        texts = lane_texts(monkeypatch)
        module = kernel(registry, "vadd")
        for blocks in (3, 64, 100):
            got = launch(module, "vadd", LaunchConfig((blocks, 1, 1), (64, 1, 1)),
                         kernel_args(np.random.default_rng(blocks), "vadd", blocks, 64))
            assert got[1] is None
        assert len(texts) == 1 and list(module.executable.funcs["vadd"][1].lanes) == [
            BENCH_EXTENTS]

    @pytest.mark.parametrize("name", list(gen.KERNELS))
    def test_bench_kernels_neither_gather_nor_scatter(self, registry, monkeypatch, name):
        texts = lane_texts(monkeypatch)
        grid, block = gen.KERNELS[name]
        run_kernel(kernel(registry, name), name, LaunchConfig((grid, 1, 1), (block, 1, 1)),
                   values(kernel_args(np.random.default_rng(191), name, grid, block)))
        [text] = texts
        assert "waves(" not in text and "[(v" not in text
        subscripts = set(re.findall(r"(d\d+)\[([^\]]+)\]", text))
        assert len(subscripts) == len({d for d, _ in subscripts})  # one slice text a buffer
        assert ("for p in steps:" in text) == (name == "collide")  # over its block runs


def literal(text):
    return text.lstrip("-").isdigit()


COORDINATES = [f"{k}_{axis}" for k in ("thread_idx", "block_idx", "block_dim")
               for axis in "xyz"]


def random_kernel(rng):
    """The FIR body of a seeded straight-line kernel over buffers _1, _2 and
    _3 and index _4, after bench/programs.py's global thread id (%4 thread
    x, %5 g): loads, f32 + - * /, and stores through indices made of launch
    coordinates, _4, literals and + - *. The indices lean towards the
    shapes lanes treat apart: 2 * g, g + c, thread x + c, the thread's
    number in its block, uniform indices and stores that collide; half the
    accesses reuse an index, and some update an element, or its neighbour,
    and then store its old value."""
    lines = []

    def emit(text):
        lines.append(f"  %{len(lines) + 6} = invoke {text}\n")
        return f"%{len(lines) + 5}"

    def uniform():
        which = rng.choice(["literal", "literal", "_4", "block_dim_x"])
        return (str(rng.randint(-1, 4)) if which == "literal" else which if which == "_4"
                else emit("block_dim_x() :: index"))

    def index(depth=0):
        shape = rng.choices(["g", "2g", "g+c", "t+c", "u", "uniform", "coordinate", "expr"],
                            [2, 3, 3, 3, 2, 1, 1, 2 - depth])[0]
        if shape == "g":
            return "%5"
        if shape == "u":  # the thread's number in its block: (x * dim y + y) * dim z + z
            u = "%4"
            for axis in "yz":
                u = emit(f"*({u}, {emit(f'block_dim_{axis}() :: index')}) :: index")
                u = emit(f"+({u}, {emit(f'thread_idx_{axis}() :: index')}) :: index")
            return u
        if shape == "2g":
            return emit(rng.choice(["*(%5, 2) :: index", "+(%5, %5) :: index"]))
        if shape in ("g+c", "t+c"):
            base = "%5" if shape == "g+c" else "%4"
            return emit(f"+({base}, {uniform()}) :: index" if rng.random() < 0.8
                        else f"-({base}, {rng.randint(-1, 1)}) :: index")
        if shape == "uniform":
            return uniform()
        if shape == "coordinate":
            return emit(f"{rng.choice(COORDINATES)}() :: index")
        a, b = sorted([index(depth + 1), index(depth + 1)], key=literal)  # literal last
        return emit(f"{rng.choice('+-*')}({'_4' if literal(a) else a}, {b}) :: index")

    def reused():  # an index an access already took, half the time
        if not indices or rng.random() < 0.5:
            indices.append(index())
        return rng.choice(indices)

    values, indices = [], []
    for _ in range(rng.randint(1, 6)):
        kind = rng.choices(["load", "arith", "store", "update"], [3, 2, 2, 1])[0]
        if kind == "update":  # x = A[i]; A[i or j] = x * 2; B[k] = x
            buffer = rng.choice("_1 _2 _3".split())
            values.append(emit(f"load({buffer}, {reused()}) :: f32"))
            emit(f"store({emit(f'*({values[-1]}, 2.0) :: f32')}, {buffer}, {reused()}) :: Nothing")
            emit(f"store({values[-1]}, {rng.choice('_1 _2 _3'.split())}, {reused()}) :: Nothing")
        elif kind == "load" or not values:
            values.append(emit(f"load({rng.choice('_1 _2 _3 _3'.split())}, {reused()}) :: f32"))
        elif kind == "arith":
            other = rng.choice(values + ["2.0", "-0.5"])
            values.append(emit(f"{rng.choice('+-*/')}({rng.choice(values)}, {other}) :: f32"))
        else:
            emit(f"store({values[-1]}, {rng.choice('_1 _2 _3 _3 _3'.split())}, "
                 f"{reused()}) :: Nothing")
    if not any("store(" in line for line in lines):
        emit(f"store({values[-1]}, _3, {reused()}) :: Nothing")
    return "".join(lines)


class TestRandomKernels:
    """Gate K: seeded random straight-line kernels over partial batches,
    blocks that do not divide LANES, single blocks of more than LANES
    threads and 2-D and 3-D launches. In lanes each gives the buffers,
    error and partial stores of running thread by thread, bit for bit (any
    NaN equal to any NaN)."""

    @staticmethod
    def check(registry, rng, kernels, config):
        """Run ``kernels`` random kernels, each on the launch ``config(rng)``,
        in lanes and thread by thread."""
        for _ in range(kernels):
            body = random_kernel(rng)
            module = gid_kernel(registry, body, ("memref{f32,1}",) * 3 + ("index",))
            launch_config = config(rng)
            n = math.prod(launch_config.grid + launch_config.block)
            data = np.random.default_rng(rng.getrandbits(32))
            args = [f32_data(data, rng.choice([1, 2, 3, 3]) * n + rng.choice([0, 3]))
                    for _ in range(3)] + [IndexValue(rng.randint(-1, 4))]
            got = launch(module, "k", launch_config, args)
            with pytest.MonkeyPatch.context() as patch:
                no_lanes(patch)
                assert same_launch(got, launch(module, "k", launch_config, args)), (
                    body, launch_config)

    @pytest.mark.parametrize("seed", range(4))
    def test_lanes_same_as_thread_by_thread(self, registry, batches, seed):
        def config(rng):
            gy, by, bz = [1] * 3 if rng.random() < 0.5 else [rng.randint(1, 2) for _ in "yyz"]
            return LaunchConfig((rng.randint(1, 16), gy, 1), (rng.randint(1, 300), by, bz))
        self.check(registry, random.Random(seed), 24, config)
        assert any(lanes for _, lanes in batches)

    @pytest.mark.parametrize("seed", range(4, 9))
    def test_blocks_that_do_not_divide_lanes(self, registry, batches, seed):
        # blocks of 60 to 513 threads on more blocks than one batch of
        # whole blocks holds, so the last batch is partial, and one or two
        # blocks of LANES + 1 to 1,500 threads, each cut inside the block
        def config(rng):
            n = rng.choice([60, 96, 105, 192, 300, 513, rng.randint(interp.LANES + 1, 1500)])
            whole = max(1, interp.LANES // n)
            grid = rng.randint(1, 2) if n > interp.LANES else whole + rng.randint(1, whole)
            return LaunchConfig((grid, 1, 1), (n, 1, 1))
        self.check(registry, random.Random(seed), 12, config)
        assert any(lanes for _, lanes in batches)
