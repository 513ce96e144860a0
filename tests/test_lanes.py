"""Lane execution of linalg.generic bodies and straight-line kernels.

The lane results are checked bit for bit against the bench's independent
numpy reference (``bench/reference.py``), and every fallback against the
values the point-by-point and thread-by-thread paths give.
"""

import sys
from pathlib import Path

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
from conftest import F32_MEMREF, run_pipeline, tensor_value

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import programs as gen  # noqa: E402
import reference as ref  # noqa: E402

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

    def counted(region, lanes=False):
        if not lanes:
            regions.append(region)
        return decode(region, lanes)
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
    return [F32Value(float(a)) if np.ndim(a) == 0
            else MemRefValue(ir.F32, a.shape, a.copy()) for a in args]


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
def batches(monkeypatch):
    """(lanes, whether it ran in lanes) of each lockstep batch of a kernel."""
    made, lockstep = [], interp._lockstep

    def counted(code, args, lanes, owners):
        made.append((len(lanes.ctx["x"][0]), lockstep(code, args, lanes, owners)))
        return made[-1][1]
    monkeypatch.setattr(interp, "_lockstep", counted)
    return made


def launch(module, name, config, args):
    """The buffers after a launch on copies of ``args``, and the text of the
    error it raised or None."""
    bufs, error = values(args), None
    try:
        run_kernel(module, name, config, bufs)
    except interp.InterpError as e:
        error = f"{type(e).__name__}: {e}"
    return [b.data for b in bufs], error


def same_launch(got, want):
    return got[1] == want[1] and all(ref.same(g, w) for g, w in zip(got[0], want[0]))


class TestAcrossBlocks:
    """A lockstep batch takes up to LANES threads in launch order, whatever
    grid blocks they belong to."""

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

    def test_collide_replays_its_first_batch_by_block(self, registry, monkeypatch,
                                                       sequential_calls, batches):
        # the blocks store to the same slots: the first batch of 16 blocks
        # collides, and from then on each block is one batch
        grid, block = gen.KERNELS["collide"]
        args = kernel_args(np.random.default_rng(19), "collide", grid, block)
        module, config = kernel(registry, "collide"), LaunchConfig((grid, 1, 1),
                                                                   (block, 1, 1))
        got = launch(module, "collide", config, args)
        assert sequential_calls == []
        assert batches == [(interp.LANES, False)] + [(block, True)] * grid
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
        # the batch of all four blocks falls back, then block by block
        assert batches == [(64, False), (16, True), (16, True), (16, False)]
        assert len(sequential_calls) == 1  # the thread that raises
        no_lanes(monkeypatch)
        assert same_launch(got, launch(module, "k", config, args))


def generic_module(registry, body_text, elems):
    """@g applying the FIR function ``body`` elementwise over 1-D tensors of
    ``elems``, the last of them the output."""
    from bridgegen.dialects import build_op

    module = ir.IrModule(registry=registry.dialects)
    region = module.new_region()
    types = [ir.TensorType(e, (None,)) for e in elems]
    build_op(registry.dialects, module, "func.func",
             attributes={"sym_name": ir.SymbolAttr("g"),
                         "function_type": ir.TypeAttr(
                             ir.FunctionType(tuple(types), (types[-1],)))},
             regions=[region])
    entry = module.append_block(region, types)
    ctx = BuilderContext(module=module, registry=registry, region=region,
                         entry_block=entry)
    ctx.set_block(entry)
    body = fir.insert_bool_conversions(fir.parse_program(body_text).functions["body"])
    body_region = generate_region(ctx, body,
                                  lambda c, vals: c.build_op("linalg.yield", vals))
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
        base = 17 if len(parsed.output) == 1 else 5  # at least MIN_LANES lanes
        extent = {a: base + k for k, a in enumerate(parsed.axes)}
        arrays = [f32_data(rng, tuple(extent[a] for a in tup))
                  for tup in parsed.inputs + (parsed.output,)]
        module = einsum.build_einsum_function(registry, parsed)
        [got] = run_function(module, "einsum", [tensor_value(a) for a in arrays])
        # one output element is one lane: too few, so the points run one by one
        assert len(sequential_calls) == (1 + 5 if spec == "(i)->()" else 1)
        no_lanes(monkeypatch)
        [want] = run_function(module, "einsum", [tensor_value(a) for a in arrays])
        assert ref.same(got.data, want.data)

    @pytest.mark.parametrize("width", [1, 8, 32, 64])
    def test_narrow_integers_wrap(self, registry, monkeypatch, sequential_calls, width):
        # out[i] += x[i, j] * y[j] in i<width> arithmetic, on data beyond that width
        from bridgegen.dialects import build_op

        i, dialects = ir.IntType(width), registry.dialects
        t, t2 = ir.TensorType(i, (None,)), ir.TensorType(i, (None, None))
        module = ir.IrModule(registry=dialects)
        region = module.new_region()
        build_op(dialects, module, "func.func",
                 attributes={"sym_name": ir.SymbolAttr("g"), "function_type":
                             ir.TypeAttr(ir.FunctionType((t2, t, t), (t,)))},
                 regions=[region])
        entry = module.append_block(region, [t2, t, t])
        body = module.new_region()
        module.set_insertion(module.append_block(body, [i, i, i]))
        x, y, z = body.blocks[0].arguments
        product = build_op(dialects, module, "arith.muli", [x, y], result_types=[i])
        total = build_op(dialects, module, "arith.addi", [product.results[0], z],
                         result_types=[i])
        build_op(dialects, module, "linalg.yield", [total.results[0]])
        module.set_insertion(entry)
        m = ir.IndexMapAttr(2, (0,))
        generic = build_op(dialects, module, "linalg.generic", list(entry.arguments),
                           attributes={"indexing_maps": ir.ArrayAttr(
                               (ir.IndexMapAttr(2, (0, 1)), ir.IndexMapAttr(2, (1,)), m)),
                               "iterator_types": ir.ArrayAttr(
                                   (ir.StringAttr("parallel"), ir.StringAttr("reduction")))},
                           regions=[body], result_types=[t])
        build_op(dialects, module, "func.return", [generic.results[0]])
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
