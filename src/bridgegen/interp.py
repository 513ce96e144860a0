"""Reference evaluator for generated IR.

Executes scalar and control-flow operations with IEEE-754 semantics at the
declared precision, runs linalg.generic over its iteration space, and
simulates a GPU thread grid for kernels built on the gpu dialect. Used as
the numeric oracle for translations.

A run decodes each region it runs once, when it first runs: ``_OPS`` maps
each op name to a decoder that turns the op into a closure over a frame
list with one slot per SSA value. A value, scalar or lane, has its SSA
type's element kind: f32 values are numpy float32 scalars or arrays, so
each f32 op is one correctly rounded numpy op; f64 values are Python
floats or float64 arrays, and integers Python ints or int64 arrays.
Scalars are boxed only at function boundaries. Ill-typed or unknown ops
fail when reached, an operand of the wrong kind naming its declared type;
a float op whose operand types differ from its result's does one double op
rounded once. Each op is one step: a block is charged on entry when it
fits the budget, otherwise (and when it holds a call or generic) op by op,
so StepLimitExceeded comes just before the first op past the limit.

Compiled tier: once a region has taken HOT back edges (jumps to a block at
or before the current one) in a run, it runs as one generated Python
function, entered at a block boundary with the frame's values. Each slot is
a local ``v<slot>``, each block's ops are straight-line statements, and a
balanced tree of ``if b < k`` tests finds the next block. The same decoder,
asked for the op's source form, gives its text: an operator is written
infix, and other functions, constants and helpers are passed through the
function's namespace, never pasted into the text. compile() results are
kept by text. A region of more than MAX_COMPILED_OPS ops, or with an op
without a source form (memref, gpu, func.call, linalg.generic, ill-typed
and unknown ops), stays on closures. Blocks are charged on entry as above;
a block that does not fit the budget raises the step error: its ops change
only locals and cannot fail, so running them op by op would end the same
way. HOT is about where compiling pays with a cached compile(): on
a 2-vCPU machine under Python 3.11, building the function takes 0.06-0.13
ms and saves 1.5-3.8 us an iteration on the bench's loops, so it pays after
30-45 back edges (about 70 on the two-level nest). MAX_COMPILED_OPS bounds
compile()'s transient memory, about 15 KiB an op, to 0.7 MiB.

Lanes: the same decoder, asked for the op's lane form, gives a closure that
runs the op once over numpy arrays, one lane per point or thread, or None.
A one-block region whose ops all have a lane form runs that way. A
linalg.generic takes one lane per point of its parallel axes, those of the
output map; the other axes are looped in lexicographic order, so each
output element accumulates in the sequential order. A kernel numbers its
threads in launch order and runs them in batches of at most LANES
consecutive threads, which may span grid blocks; loads gather and stores
scatter. A batch is charged its steps up front, so it takes lanes only when
they fit the budget (for a kernel, one thread's steps). A batch falls back,
with its stores undone, to running point by point or thread by thread,
which raises the same errors after the same stores, when an index is out of
bounds or of the wrong rank, an integer result could leave int64 (index
values are unbounded), an element kind differs from its buffer's or
output's, or two lanes touch one buffer element and one of them stores to
it. A kernel batch that spans grid blocks falls back to batches of one
block each, and every later batch of the launch keeps to one block. Kernels
whose buffers share memory, or whose arguments or coordinates leave int64,
run thread by thread throughout. So do generics and batches of fewer than
MIN_LANES lanes, for which numpy's cost per call outweighs the lanes.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import ir

__all__ = [
    "InterpError",
    "StepLimitExceeded",
    "MissingLaunchConfig",
    "OutOfBounds",
    "RuntimeValue",
    "F32Value",
    "F64Value",
    "IntValue",
    "IndexValue",
    "TensorValue",
    "MemRefValue",
    "LaunchConfig",
    "DEFAULT_STEP_LIMIT",
    "MAX_CALL_DEPTH",
    "value_of_type",
    "run_function",
    "run_kernel",
]

DEFAULT_STEP_LIMIT = 10 ** 7
MAX_CALL_DEPTH = 200  # nested func.calls; each takes three Python frames
LANES = 1024  # the most consecutive threads that run as one batch
MIN_LANES = 6  # fewer points or threads run faster one by one than as lanes
HOT = 50  # back edges after which a function runs compiled
MAX_COMPILED_OPS = 48  # the most ops a compiled function holds
COMPILED_CACHE = 64  # compiled regions kept, by source text


class InterpError(Exception):
    pass


class StepLimitExceeded(InterpError):
    pass


class MissingLaunchConfig(InterpError):
    pass


class OutOfBounds(InterpError):
    pass


# ---------------------------------------------------------------------------
# Runtime values


class RuntimeValue:
    pass


@dataclass
class F32Value(RuntimeValue):
    value: float

    def __post_init__(self):
        self.value = ir.to_f32(float(self.value))


@dataclass
class F64Value(RuntimeValue):
    value: float


def _wrap_int(value, width: int):
    """``value`` wrapped to a ``width``-bit integer: a Python int, or int64
    lanes of a width below 64."""
    if width == 1:  # boolean: no sign bit
        return value & 1
    half = 1 << (width - 1)
    return ((value + half) % (half << 1)) - half


@dataclass
class IntValue(RuntimeValue):
    width: int
    value: int

    def __post_init__(self):
        self.value = _wrap_int(int(self.value), self.width)


@dataclass
class IndexValue(RuntimeValue):
    value: int


@dataclass
class _ArrayValue(RuntimeValue):
    elem: ir.IrType
    dims: tuple
    data: np.ndarray  # row-major, shape == dims

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=_np_dtype(self.elem)).reshape(self.dims)


class TensorValue(_ArrayValue):
    """An immutable tensor."""


class MemRefValue(_ArrayValue):
    """A buffer; memref.store writes ``data`` in place."""


@dataclass(frozen=True)
class LaunchConfig:
    grid: tuple  # block counts (gx, gy, gz)
    block: tuple  # threads per block (bx, by, bz)

    def __post_init__(self):
        if any(e < 1 for e in self.grid + self.block):
            raise InterpError("launch extents must all be >= 1")


_KINDS = {  # IR type class -> (runtime value class, numpy element kind)
    ir.Float32Type: (F32Value, np.float32),
    ir.Float64Type: (F64Value, np.float64),
    ir.IntType: (IntValue, np.int64),
    ir.IndexType: (IndexValue, np.int64),
    ir.TensorType: (TensorValue, None),
    ir.MemRefType: (MemRefValue, None),
}


def _np_dtype(t: ir.IrType):
    kind = _KINDS.get(t.__class__, (None, None))[1]
    if kind is None:
        raise InterpError(f"no runtime element kind for {t}")
    return kind


def value_of_type(t: ir.IrType, raw) -> RuntimeValue:
    """Wrap a plain Python value as a RuntimeValue of IR type ``t``."""
    if t.__class__ not in _KINDS:
        raise InterpError(f"cannot build a runtime value of type {t}")
    kind, elem = _KINDS[t.__class__]
    if elem is None:
        arr = np.asarray(raw, dtype=_np_dtype(t.elem))
        return kind(t.elem, arr.shape, arr)
    if kind is IntValue:
        return IntValue(t.width, int(raw))
    return kind(int(raw) if kind is IndexValue else float(raw))


def _check_compatible(t: ir.IrType, v: RuntimeValue, where: str):
    kind, elem = _KINDS.get(t.__class__, (None, None))
    ok = kind is not None and isinstance(v, kind) and (
        v.width == t.width if kind is IntValue
        else elem is not None  # a scalar
        or v.data.ndim == t.rank and _np_dtype(t.elem) == v.data.dtype)
    if not ok:
        raise InterpError(f"{where}: value {v!r} does not match type {t}")


# ---------------------------------------------------------------------------
# Decoding: each op becomes ``op(frame, run)`` returning its result's value;
# terminators return the next block's position or the list of values returned


_FLOAT = (ir.Float32Type, ir.Float64Type)
_INT = (ir.IntType, ir.IndexType)
_CMP = {"eq": operator.eq, "ne": operator.ne, "slt": operator.lt,
        "sle": operator.le, "sgt": operator.gt, "sge": operator.ge}


_LANES = "lanes"  # the form asking a decoder for its op's lane form


class _Sequential(Exception):
    """Raised by a lane op whose batch must run point by point or thread by
    thread instead."""


def _fail(error):
    raise error


def _unbox(v: RuntimeValue):
    """The frame value of ``v``: np.float32 for f32, the plain value for
    other scalars, ``v`` itself for arrays."""
    if isinstance(v, _ArrayValue):
        return v
    return np.float32(v.value) if isinstance(v, F32Value) else v.value


def _box(t: ir.IrType, raw) -> RuntimeValue:
    return raw if isinstance(raw, RuntimeValue) else value_of_type(t, raw)


def _kind(op, at, kinds, first=0):
    """Slots of the operands from ``first`` on; one not declared of
    ``kinds`` makes the op fail when reached, naming its declared type."""
    for v in op.operands[first:]:
        if not isinstance(v.type, kinds):
            what = "a float" if kinds is _FLOAT else "an integer"
            raise InterpError(f"{op.name}: expected {what} operand, got one of type {v.type}")
    return [at[v] for v in op.operands[first:]]


def _wrapped(t: ir.IrType, read, form=None):
    """``read`` with its raw result wrapped to the width of integer type ``t``.
    With a source ``form``, ``read`` and the result are source text."""
    if not isinstance(t, ir.IntType):
        return read
    w, half = t.width, 1 << t.width - 1
    lo, hi = (0, 2) if w == 1 else (-half, half)
    if form:  # the op's own local holds the raw value while it is tested
        v, bind = form.target, form.bind
        return (f"{v} if {bind(lo)} <= ({v} := {read}) < {bind(hi)} "
                f"else {bind(_wrap_int)}({v}, {bind(w)})")
    return lambda f, run: v if lo <= (v := read(f, run)) < hi else _wrap_int(v, w)


def _lane_wrap(t: ir.IrType):
    """_wrap_int for int64 lanes of type ``t``, which hold i64 values as they are."""
    if not isinstance(t, ir.IntType) or t.width == 64:
        return lambda x: x
    return lambda x: _wrap_int(x, t.width)


def _span(x):
    """The least and greatest value of int64 lanes, as Python ints."""
    return (int(x.min()), int(x.max())) if x.__class__ is np.ndarray else (int(x),) * 2


def _lane_op(op, fn, *slots):
    """The lane form of an op that applies ``fn`` to the values in ``slots``.
    A lane value is a numpy array or scalar of its SSA type's element kind:
    floats of the result's precision, or int64 wrapped to the result's width.
    Index values are unbounded, so an int op whose operands could take a
    result out of int64 falls back."""
    t = op.results[0].type
    if isinstance(t, _FLOAT):
        if any(v.type != t for v in op.operands):
            return None  # mixed precisions: the scalar op rounds a double once
        return lambda f, lanes: fn(*[f[s] for s in slots])
    wrap = _lane_wrap(t)

    def lane(f, lanes):
        xs = [f[s] for s in slots]  # add, sub and mul take their extremes at corners
        for corner in itertools.product(*map(_span, xs)):
            if not -1 << 63 <= fn(*corner) < 1 << 63:
                raise _Sequential
        return wrap(fn(*xs))
    return lane


_INFIX = {operator.add: "+", operator.sub: "-", operator.mul: "*", operator.truediv: "/",
          operator.neg: "-", operator.pos: "+", operator.eq: "==", operator.ne: "!=",
          operator.lt: "<", operator.le: "<=", operator.gt: ">", operator.ge: ">="}


def _apply_text(form, fn, *args):
    """Source text applying ``fn`` to the ``args`` texts: infix for an operator."""
    sym = _INFIX.get(fn)
    if sym is None:
        return f"{form.bind(fn)}({', '.join(args)})"
    return f"({args[0]} {sym} {args[1]})" if args[1:] else f"{sym}{args[0]}"


def _scalar_fn(op, fn, lane_fn):
    """The function an op applies to scalars: ``lane_fn`` to f32 values,
    which are np.float32, and ``fn`` to f64 and integer values, which are
    Python floats and ints. A float op whose operand types differ from its
    result's (unverified IR) does one double op on float() of each operand,
    rounded once; numpy would round an f64 operand of an f32 op first."""
    t = op.results[0].type
    if not isinstance(t, _FLOAT) or all(v.type == t for v in op.operands):
        return lane_fn if isinstance(t, ir.Float32Type) else fn
    kind = np.float32 if isinstance(t, ir.Float32Type) else float
    return lambda *xs: kind(fn(*map(float, xs)))


def _binary(kinds, fn, lane_fn=None):
    def decode(op, at, form=None):
        a, b = _kind(op, at, kinds)
        if form is _LANES:
            return _lane_op(op, lane_fn or fn, a, b)
        t, g = op.results[0].type, _scalar_fn(op, fn, lane_fn or fn)
        if form:
            return _wrapped(t, _apply_text(form, g, f"v{a}", f"v{b}"), form)
        return _wrapped(t, lambda f, run: g(f[a], f[b]))
    return decode


def _unary(kinds, fn, lane_fn=None):
    def decode(op, at, form=None):
        [a] = _kind(op, at, kinds)
        if form is _LANES:
            return _lane_op(op, lane_fn or fn, a)
        t, g = op.results[0].type, _scalar_fn(op, fn, lane_fn or fn)
        if form:
            return _wrapped(t, _apply_text(form, g, f"v{a}"), form)
        return _wrapped(t, lambda f, run: g(f[a]))
    return decode


def _constant(op, at, form=None):
    attr, t = op.attributes["value"], op.results[0].type
    if not isinstance(attr, (ir.FloatAttr, ir.IntAttr)):
        raise InterpError(f"unsupported constant attribute {attr!r}")
    value = _unbox(value_of_type(t, attr.value))
    if form is _LANES:
        value = _np_dtype(t)(value)  # OverflowError: no int64 lane form
    elif form:
        return form.bind(value)
    return lambda f, run: value


def _cmpi(op, at, form=None):
    pred = op.attributes["predicate"].text
    if pred not in _CMP:
        raise InterpError(f"unknown cmpi predicate '{pred}'")
    (a, b), cmp = _kind(op, at, _INT), _CMP[pred]
    if form is _LANES:
        return lambda f, lanes: cmp(f[a], f[b]).astype(np.int64)
    if form:
        return f"1 if {_apply_text(form, cmp, f'v{a}', f'v{b}')} else 0"
    return lambda f, run: 1 if cmp(f[a], f[b]) else 0


def _launch_coordinate(k):
    def decode(op, at, form=None):
        dim = op.attributes["dimension"].text
        if dim not in ("x", "y", "z"):
            raise InterpError(f"{op.name}: unknown dimension '{dim}'")
        if form is _LANES:
            return lambda f, lanes: (lanes.ctx or _fail(_Sequential()))[dim][k]
        if form:
            return None
        text = f"{op.name} executed without a launch configuration"
        return lambda f, run: (run.ctx if run.ctx is not None
                               else _fail(MissingLaunchConfig(text)))[dim][k]
    return decode


def _memref(op, at, form=None):
    """memref.load, or memref.store (its buffer is operand 1)."""
    which = int(op.name == "memref.store")
    if not isinstance(op.operands[which].type, ir.MemRefType):
        raise InterpError(f"{op.name} target is not a memref value")
    b, idx = at[op.operands[which]], _kind(op, at, _INT, which + 1)
    if form is _LANES:
        return _lane_memref(op, at, b, idx)
    if form:
        return None

    def index(f, run):
        i, shape = tuple([f[s] for s in idx]), f[b].data.shape
        for d, (n, extent) in enumerate(zip(i, shape)):
            if not 0 <= n < extent:
                where = "" if run.ctx is None else f" (thread context {run.ctx})"
                raise OutOfBounds(f"index {n} out of bounds for dimension {d} "
                                  f"of extent {extent}{where}")
        if len(i) != len(shape):
            raise OutOfBounds(f"rank mismatch: {len(i)} indices for rank {len(shape)}")
        return i
    if which:
        v = at[op.operands[0]]
        return lambda f, run: f[b].data.__setitem__(index(f, run), f[v])
    t = op.results[0].type
    if isinstance(t, ir.Float32Type):  # an np.float32
        return lambda f, run: f[b].data[index(f, run)]
    return _wrapped(t, lambda f, run: f[b].data.item(index(f, run)))


def _lane_memref(op, at, b, idx):
    """The lane form of memref.load and memref.store: a gather, or a scatter
    that keeps the old values. Both record the access for the batch's
    conflict check. An index out of bounds, a rank mismatch or an element
    kind other than the buffer's falls back, so that the replay raises or
    converts as the scalar op does."""
    store, v = op.name == "memref.store", at[op.operands[0]]
    t = op.operands[0].type if store else op.results[0].type
    want, wrap = np.dtype(_np_dtype(t)), _lane_wrap(t)

    def access(f, lanes):
        buf, i = f[b], tuple([f[s] for s in idx])
        if (buf.__class__ is not MemRefValue or len(i) != buf.data.ndim
                or buf.data.dtype != want
                or any(n.view(np.uint64).max() >= e for n, e in zip(i, buf.data.shape))
                or store and np.ndim(f[v]) > max(map(np.ndim, i), default=0)):
            raise _Sequential  # the last: every lane stores its value to one element
        data = buf.data
        lanes.touched.append((data, i, data[i] if store else None))
        if not store:
            return wrap(data[i])
        data[i] = f[v]
    return access


def _branch(op, at, form=None):
    if form is _LANES:
        return None
    if op.operands and op.operands[0].type != ir.I1:
        raise InterpError("cf.cond_br condition is not an i1 value")
    c = at[op.operands[0]] if op.operands else None
    edges = []  # (target, source slots, target's argument slots as a slice)
    for succ in op.successors:
        src = tuple(at[v] for v in succ.args)[:len(succ.block.arguments)]
        first = at[succ.block.arguments[0]] if src else 0
        edges.append((at[succ.block], src, first, first + len(src)))
    if form:  # lines; block arguments are assigned in parallel
        arms = [[f"{_locals(range(lo, hi))}= {_locals(src)}"] * bool(src) + [f"b = {target}"]
                for target, src, lo, hi in edges]
        return arms[0] if c is None else [
            f"if v{c}:", *_indent(arms[0]), "else:", *_indent(arms[1])]

    def branch(f, run):
        target, src, lo, hi = edges[0] if c is None or f[c] else edges[1]
        f[lo:hi] = [f[s] for s in src]
        return target
    return branch


def _return(op, at, form=None):
    src = [at[v] for v in op.operands]
    if form is None or form is _LANES:
        return lambda f, run: [f[s] for s in src]
    return [f"return [{_locals(src)}]"]


def _call(op, at, form=None):
    if form:
        return None
    callee, dst = op.attributes["callee"].name, [at[v] for v in op.results]
    src = [(v.type, at[v]) for v in op.operands]

    def call(f, run):
        for d, v in zip(dst, run.call(callee, [_box(t, f[s]) for t, s in src])):
            f[d] = v
        return f[dst[0]] if len(dst) == 1 else None
    return call


def _generic(op, at, form=None):
    if form:
        return None
    maps, body = list(op.attributes["indexing_maps"].elements), _Code(op.regions[0])
    if bad := [m for m in maps if not isinstance(m, ir.IndexMapAttr)]:
        raise InterpError(f"linalg.generic: indexing map {bad[0]!r} is not an affine map")
    src, lane_body = [at[v] for v in op.operands], _decode(op.regions[0], lanes=True)
    arg_types = lane_body and [a.type for a in op.regions[0].blocks[0].arguments]

    def generic(f, run):
        operands = [f[s] for s in src]
        if len(maps) != len(operands):
            raise InterpError("linalg.generic: one indexing map per operand required")
        n_axes = maps[0].n_axes if maps else 0
        extents = {}
        for which, (m, v) in enumerate(zip(maps, operands)):
            if not isinstance(v, TensorValue):
                raise InterpError("linalg.generic operands must be tensor values")
            if m.n_axes != n_axes or len(m.targets) != v.data.ndim:
                raise InterpError(
                    f"linalg.generic: map/operand rank mismatch on operand {which}")
            for axis, extent in zip(m.targets, v.data.shape):
                if extents.setdefault(axis, extent) != extent:
                    raise InterpError(
                        f"linalg.generic: inconsistent extent for axis d{axis}: "
                        f"{extents[axis]} vs {extent}")
        missing = [a for a in range(n_axes) if a not in extents]
        if missing:
            raise InterpError(
                f"linalg.generic: no operand constrains axis d{missing[0]}")

        out = operands[-1]
        result = np.array(out.data, copy=True)
        steps = lane_body and math.prod(extents.values()) * lane_body[1][0][1]
        if (steps and run.steps + steps <= run.limit
                and [v.elem for v in operands] == arg_types
                and math.prod(extents[a] for a in set(maps[-1].targets)) >= MIN_LANES):
            try:
                _generic_lanes(lane_body, maps, operands, extents, result)
                run.steps += steps
                return TensorValue(out.elem, result.shape, result)
            except _Sequential:
                pass  # ``result`` is still the output's copy
        wheres = [operator.itemgetter(*m.targets) if m.targets else (lambda p: ())
                  for m in maps]  # an operand's element index at a point
        arrays = [v.data for v in operands[:-1]] + [result]
        reads = [_wrapped(v.elem, lambda p, run, read=(  # f32: an np.float32
                     a.__getitem__ if isinstance(v.elem, ir.Float32Type) else a.item),
                     where=w: read(where(p))) for v, a, w in zip(operands, arrays, wheres)]
        for point in itertools.product(*(range(extents[a]) for a in range(n_axes))):
            yielded = _exec(body, [read(point, run) for read in reads], run)
            if len(yielded) != 1:
                raise InterpError("linalg.generic body must yield one value")
            result[wheres[-1](point)] = yielded[0]
        return TensorValue(out.elem, result.shape, result)
    return generic


def _generic_lanes(code, maps, operands, extents, result):
    """Run a generic's body over numpy lanes into ``result``: one lane per
    point of the parallel axes, those of the output map, so no two lanes
    write one element. The other axes are looped in lexicographic order, so
    each element accumulates in the sequential order. Raises _Sequential,
    with ``result`` untouched, when the body has to run point by point."""
    par = sorted(set(maps[-1].targets))
    shape = [extents[a] for a in par]
    lane = dict(zip(par, np.unravel_index(np.arange(math.prod(shape)), shape)))
    loop = [a for a in sorted(extents) if a not in lane]
    reads = []  # (data, flat element at loop point 0, stride of each loop axis, wrap)
    for m, v in zip(maps, operands):
        at, strides, stride = 0, dict.fromkeys(loop, 0), 1
        for axis, extent in reversed(list(zip(m.targets, v.data.shape))):
            if axis in lane:
                at = at + lane[axis] * stride
            else:
                strides[axis] += stride
            stride *= extent
        reads.append((v.data, at, [strides[a] for a in loop], _lane_wrap(v.elem)))
    *reads, (_, out_at, _, wrap_out) = reads
    acc, lanes = wrap_out(result.take(out_at)), _Lanes(None)
    for point in itertools.product(*(range(extents[a]) for a in loop)):
        yielded = _exec_lanes(code, [
            wrap(data.take(at + sum(map(operator.mul, point, strides))))
            for data, at, strides, wrap in reads] + [acc], lanes)
        if len(yielded) != 1 or yielded[0].dtype != result.dtype:
            raise _Sequential
        acc = wrap_out(yielded[0])
    result.put(out_at, acc)


_OPS = {  # operation name -> decoder(op, at); ``at`` maps values to slots
    "arith.constant": _constant,
    "arith.addf": _binary(_FLOAT, operator.add),
    "arith.subf": _binary(_FLOAT, operator.sub),
    "arith.mulf": _binary(_FLOAT, operator.mul),
    "arith.divf": _binary(_FLOAT, lambda x, y:  # by ±0: numpy's inf or nan
                          x / y if y else float(np.float64(x) / np.float64(y)),
                          operator.truediv),
    "arith.negf": _unary(_FLOAT, operator.neg),
    "math.exp": _unary(_FLOAT, lambda x: float(np.exp(x)), np.exp),
    "arith.addi": _binary(_INT, operator.add),
    "arith.subi": _binary(_INT, operator.sub),
    "arith.muli": _binary(_INT, operator.mul),
    "arith.cmpi": _cmpi,
    "arith.index_cast": _unary(_INT, operator.pos),
    "gpu.thread_id": _launch_coordinate(0),
    "gpu.block_id": _launch_coordinate(1),
    "gpu.block_dim": _launch_coordinate(2),
    "memref.load": _memref,
    "memref.store": _memref,
    "cf.br": _branch,
    "cf.cond_br": _branch,
    "func.return": _return,
    "linalg.yield": _return,
    "func.call": _call,
    "linalg.generic": _generic,
}


def _decode_op(op: ir.IrOperation, at, form=None):
    """The op's closure, or in ``form`` its lane form or source text, or None."""
    try:
        if op.name not in _OPS:
            raise InterpError(f"unsupported operation '{op.name}'")
        return _OPS[op.name](op, at, form)
    except (InterpError, LookupError, AttributeError, TypeError, ValueError,
            ArithmeticError) as e:  # a malformed op fails when reached
        kind, args = type(e), e.args
        return None if form else lambda f, run: _fail(kind(*args))


def _slots(region: ir.IrRegion):
    """(frame size, slot of each value and position of each block). The
    arguments of a block take consecutive slots; slot 0 takes the value of
    ops without one result."""
    at = {None: 0}
    for block in region.blocks:
        for v in block.arguments + [r for op in block.operations for r in op.results]:
            at[v] = len(at)
    size = len(at)
    at.update((block, position) for position, block in enumerate(region.blocks))
    return size, at


def _decode(region: ir.IrRegion, lanes=False):
    """(frame size, blocks): each block is (argument slots, steps to charge
    on entry or inf, [(result slot, op)], terminator or None, id). Ops after
    a terminator never run and are dropped. With ``lanes``, the lane form
    of a one-block region whose ops all have one, else None."""
    if lanes and len(region.blocks) != 1:
        return None
    size, at = _slots(region)
    form, blocks = _LANES if lanes else None, []
    for block in region.blocks:
        ops, term, nested = [], None, False
        for op in block.operations:
            nested = nested or op.name in ("func.call", "linalg.generic")
            code = _decode_op(op, at, form)
            if code is None:
                return None
            if op.is_terminator:
                term = code
                break
            ops.append((at[op.results[0]] if len(op.results) == 1 else 0, code))
        if lanes and term is None:
            return None
        steps = math.inf if nested else len(ops) + (term is not None)
        blocks.append((tuple(at[v] for v in block.arguments), steps, tuple(ops), term,
                       block.id))
    return size, blocks


# ---------------------------------------------------------------------------
# Compiled tier: a hot region becomes one Python function


class _Source:
    """The source form of a region's ops. ``target`` is the local that takes
    the op's value; ``bind`` names an object in the namespace the function
    runs in, so no value from the module is pasted into its text."""

    __slots__ = ("namespace", "target")

    def __init__(self):
        self.namespace, self.target = {}, None

    def bind(self, obj) -> str:
        name = f"n{len(self.namespace)}"
        self.namespace[name] = obj
        return name


def _locals(slots):
    return "".join(f"v{s}, " for s in slots)


def _indent(lines):
    return ["    " + line for line in lines]


def _tree(leaves, lo: int, hi: int):
    """The lines that run ``leaves[b]`` for ``lo <= b < hi``."""
    if hi - lo == 1:
        return leaves[lo]
    mid = (lo + hi) // 2
    return [f"if b < {mid}:", *_indent(_tree(leaves, lo, mid)),
            "else:", *_indent(_tree(leaves, mid, hi))]


def _source(region: ir.IrRegion):
    """(text, namespace) of ``compiled(f, b, run)``, which runs ``region``
    from block position ``b`` with the values of frame ``f``, or None when an
    op has no source form or a block no terminator. Each slot is a local
    ``v<slot>``; a balanced tree of ``if b < k`` tests finds the block, so
    a jump costs O(log blocks). A block is charged on entry, as in _exec;
    one that does not fit the budget raises StepLimitExceeded, as running
    it op by op would: its ops change only locals and cannot fail."""
    size, at = _slots(region)
    form, leaves = _Source(), []
    for block in region.blocks:
        lines = []
        for op in block.operations:
            form.target = f"v{at[op.results[0]] if len(op.results) == 1 else 0}"
            text = _decode_op(op, at, form)
            if text is None or isinstance(text, str) == op.is_terminator:
                return None  # a terminator's form is lines, another op's a value
            if op.is_terminator:
                break
            lines.append(f"{form.target} = {text}")
        else:
            return None
        n = len(lines) + 1
        leaves.append([f"if steps + {n} > run.limit:", "    run.exceeded()", f"steps += {n}",
                       *lines, *text])
    frame = _locals(range(size))
    source = "\n".join([
        "def compiled(f, b, run):", f"    {frame}= f", "    steps = run.steps",
        "    try:", "        while True:",
        *["            " + line for line in _tree(leaves, 0, len(leaves))],
        "    finally:", "        run.steps = steps", ""])
    return source, form.namespace


@functools.lru_cache(maxsize=COMPILED_CACHE)
def _code_object(text: str):
    """compile() of a region's source, kept by its text: runs decode afresh
    and IR is mutable, so no op identity could key it."""
    return compile(text, "<compiled region>", "exec")


def _compile(region: ir.IrRegion):
    """The compiled function of ``region``, or None when it holds more than
    MAX_COMPILED_OPS ops or one without a source form."""
    if sum(len(block.operations) for block in region.blocks) > MAX_COMPILED_OPS:
        return None
    built = _source(region)
    if built is None:
        return None
    text, namespace = built
    exec(_code_object(text), namespace)
    return namespace.pop("compiled")  # so the function and namespace form no cycle


# ---------------------------------------------------------------------------
# Execution


class _Code:
    """A region's sequential code: decoded when it first runs, and compiled
    (``fast``) once it has taken HOT back edges; ``fast`` is False when the
    region has no compiled form."""

    __slots__ = ("region", "decoded", "backs", "fast")

    def __init__(self, region: ir.IrRegion):
        self.region, self.decoded, self.backs, self.fast = region, None, 0, None


class _Run:
    """One run: the step budget, thread context and functions' code.
    Code never refers back to the run, so a run leaves no cycles."""

    __slots__ = ("module", "limit", "steps", "ctx", "depth", "funcs")

    def __init__(self, module: ir.IrModule, limit: int):
        self.module, self.limit, self.ctx = module, limit, None
        self.steps = self.depth = 0
        self.funcs = {}  # symbol -> (function type, code)

    def tick(self):
        self.steps += 1
        if self.steps > self.limit:
            self.exceeded()

    def exceeded(self):
        raise StepLimitExceeded(f"step budget of {self.limit} operations exceeded")

    def function(self, symbol: str, inputs: list) -> _Code:
        """The code of @symbol, checked against boxed ``inputs``."""
        if symbol not in self.funcs:
            func = self.module.lookup_symbol(symbol)
            if func is None or func.name != "func.func":
                raise InterpError(f"no function @{symbol} in the module")
            self.funcs[symbol] = (func.attributes["function_type"].type,
                                  _Code(func.regions[0]))
        ftype, code = self.funcs[symbol]
        if len(inputs) != len(ftype.inputs):
            raise InterpError(f"@{symbol} takes {len(ftype.inputs)} "
                              f"argument(s), got {len(inputs)}")
        for i, (t, v) in enumerate(zip(ftype.inputs, inputs)):
            _check_compatible(t, v, f"@{symbol} argument {i}")
        return code

    def call(self, symbol: str, inputs: list) -> list:
        """Run @symbol on the boxed ``inputs``; returns the raw results."""
        code = self.function(symbol, inputs)
        self.depth += 1
        if self.depth > MAX_CALL_DEPTH:
            raise InterpError(f"@{symbol}: calls nested deeper than {MAX_CALL_DEPTH}")
        results = _exec(code, [_unbox(v) for v in inputs], self)
        self.depth -= 1
        return results


class _Lanes:
    """One lockstep batch: its launch coordinates (None in a generic body)
    and its buffer accesses (buffer, index, old values of a store or None)."""

    __slots__ = ("ctx", "touched")

    def __init__(self, ctx):
        self.ctx, self.touched = ctx, []


def _exec(code: _Code, args, run: _Run) -> list:
    """Run a region on raw ``args``; returns the raw values returned."""
    if code.decoded is None:
        code.decoded = _decode(code.region)
    size, blocks = code.decoded
    f = [None] * size
    for s, v in zip(blocks[0][0], args):
        f[s] = v
    pos, hot = 0, code.backs >= HOT
    while True:
        if hot:  # at a block boundary, with every value in ``f``
            hot = False
            if code.fast is None:
                code.fast = _compile(code.region) or False
            if code.fast:
                return code.fast(f, pos, run)
        _, n, ops, term, bid = blocks[pos]
        if run.steps + n > run.limit:
            for r, op in ops:
                run.tick()
                f[r] = op(f, run)
            if term is not None:
                run.tick()
        else:
            run.steps += n
            for r, op in ops:
                f[r] = op(f, run)
        if term is None:
            raise InterpError(f"^bb{bid}: control fell off the block")
        nxt = term(f, run)
        if nxt.__class__ is not int:
            return nxt
        if nxt <= pos and code.fast is not False:  # a back edge
            code.backs += 1
            hot = code.backs >= HOT
        pos = nxt


def _exec_lanes(code, args, lanes: _Lanes) -> list:
    """Run the lane form of a one-block region on ``args``; returns the lane
    values returned."""
    size, [(slots, _, ops, term, _)] = code
    f = [None] * size
    for s, v in zip(slots, args):
        f[s] = v
    for r, op in ops:
        f[r] = op(f, lanes)
    return term(f, lanes)


def run_function(module: ir.IrModule, symbol: str, inputs,
                 step_limit: int = DEFAULT_STEP_LIMIT):
    """Execute @symbol on ``inputs``; returns the list of result values."""
    run = _Run(module, step_limit)
    with np.errstate(all="ignore"):  # IEEE-754: inf/nan flow silently
        results = run.call(symbol, list(inputs))
    return [_box(t, v) for t, v in zip(run.funcs[symbol][0].results, results)]


def _lockstep(code, args, lanes: _Lanes, owners) -> bool:
    """Run one batch of a kernel in lockstep. False, with the batch's stores
    undone, when it has to run thread by thread: a lane op fell back, or two
    lanes touch one element and at least one of them stores to it."""
    try:
        _exec_lanes(code, args, lanes)
        if not _collide(lanes, owners):
            return True
    except _Sequential:
        pass
    for data, i, old in reversed(lanes.touched):
        if old is not None:
            data[i] = old
    return False


def _collide(lanes: _Lanes, owners) -> bool:
    """Whether two lanes touch one element of a stored buffer and one of
    them stores to it. ``owners`` maps each stored buffer to an array of the
    lane storing each element, -1 where none does."""
    stored = {id(data) for data, _, old in lanes.touched if old is not None}
    ids, marks = np.arange(len(lanes.ctx["x"][0])), []
    for data, i, old in lanes.touched:
        if id(data) in stored:
            if id(data) not in owners:
                owners[id(data)] = np.full(data.size, -1)
            flat = i[0] if i else 0
            for n, extent in zip(i[1:], data.shape[1:]):
                flat = flat * extent + n
            marks.append((owners[id(data)], flat if np.ndim(flat) else
                          np.full(ids.shape, flat), old))
    for owner, flat, old in marks:
        if old is not None:
            owner[flat] = ids
    clash = any((((o := owner[flat]) != ids) & (o >= 0)).any() for owner, flat, _ in marks)
    for owner, flat, old in marks:
        if old is not None:
            owner[flat] = -1
    return clash


def run_kernel(module: ir.IrModule, symbol: str, launch: LaunchConfig, inputs,
               step_limit: int = DEFAULT_STEP_LIMIT):
    """Run @symbol once per (block, thread) coordinate; returns ``inputs``.

    A kernel returns nothing: @symbol's type may have no results. Threads
    run in launch order, lexicographically over (block x,y,z, thread
    x,y,z), so thread ``g`` is thread ``g % T`` of block ``g // T`` for
    ``T`` threads a block. Buffer mutations through memref.store are
    visible in the returned inputs. Each thread has the whole step budget.
    A kernel with a lane form runs in lockstep batches of at most LANES
    consecutive threads, which may span grid blocks. Once a batch that
    spans blocks falls back, it and every later batch end at block
    boundaries.
    """
    run, inputs = _Run(module, step_limit), list(inputs)
    body = run.function(symbol, inputs)  # decoded if a thread runs on its own
    if run.funcs[symbol][0].results:
        raise InterpError(f"@{symbol} cannot be launched: a kernel returns no values")
    args = [_unbox(v) for v in inputs]
    total = math.prod(launch.grid + launch.block)
    code = total >= MIN_LANES and _decode(body.region, lanes=True)  # no batch is smaller
    try:
        lane_args = [v if isinstance(v, _ArrayValue) else _np_dtype(t)(v)
                     for t, v in zip(run.funcs[symbol][0].inputs, args)]
    except OverflowError:  # an index outside int64
        code = None
    bufs = [v.data for v in inputs if isinstance(v, MemRefValue)]
    if (not code or code[1][0][1] > step_limit or total >> 63
            or any(np.may_share_memory(*p) for p in itertools.combinations(bufs, 2))):
        code = None  # a thread's budget, coordinates or buffers lanes cannot track
    n, (bx, by, bz) = math.prod(launch.block), launch.block
    dims, owners, coords = code and tuple(map(np.int64, launch.block)), {}, (None,)
    hi = 0  # the batch [lo, hi) of thread numbers
    per_block, b = False, None  # b: the block of the last thread run on its own
    with np.errstate(all="ignore"):
        while hi < total:
            lo, hi = hi, min(hi + LANES, (hi // n + 1) * n if per_block else total)
            if code and hi - lo >= MIN_LANES:
                first, last = lo // n, (hi - 1) // n  # the batch's first and last block
                if coords[0] != (lo % n, hi - lo):  # the same at each offset in a block
                    t = np.arange(lo % n, lo % n + hi - lo)
                    coords = (lo % n, hi - lo), _unravel(t % n, launch.block), t // n
                blk = (map(np.int64, _unravel(first, launch.grid)) if first == last
                       else _unravel(coords[2] + first, launch.grid))
                ctx = dict(zip("xyz", zip(coords[1], blk, dims)))
                if _lockstep(code, lane_args, _Lanes(ctx), owners):
                    continue
                if first != last:  # rerun this batch, and run the rest, block by block
                    per_block, hi = True, lo
                    continue
            for g in range(lo, hi):
                run.steps = 0
                x, y, z = _unravel(g % n, launch.block)
                if g // n != b:
                    b, (blkx, blky, blkz) = g // n, _unravel(g // n, launch.grid)
                run.ctx = {"x": (x, blkx, bx), "y": (y, blky, by), "z": (z, blkz, bz)}
                _exec(body, args, run)
    return inputs


def _unravel(index, extents):
    """The (x, y, z) coordinates of the ``index``-th of ``extents`` in launch
    order, z fastest: of an int, or of int64 lanes."""
    _, y, z = extents
    return index // (y * z), index // z % y, index % z
