"""Reference evaluator for generated IR.

Executes scalar and control-flow operations with IEEE-754 semantics at the
declared precision, runs linalg.generic as its full iteration-space loop
nest, and simulates a GPU thread grid for kernels built on the gpu
dialect. Used as the numeric oracle for translations.

A run decodes each function it reaches once: ``_OPS`` maps each op name to
a decoder that turns the op into a closure over a frame list with one slot
per SSA value. Frames hold plain floats and ints for scalars, boxed only at
function boundaries; ill-typed or unknown ops fail when reached. Each op is
one step: a block is charged on entry when it fits the budget, otherwise
(and when it holds a call or generic) op by op, so StepLimitExceeded comes
just before the first op past the limit.
"""

from __future__ import annotations

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


def _wrap_int(value: int, width: int) -> int:
    if width == 1:  # boolean: no sign bit
        return int(value) & 1
    half = 1 << (width - 1)
    return ((int(value) + half) % (half << 1)) - half


@dataclass
class IntValue(RuntimeValue):
    width: int
    value: int

    def __post_init__(self):
        self.value = _wrap_int(self.value, self.width)


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


def _np_dtype(t: ir.IrType):
    if isinstance(t, ir.Float32Type):
        return np.float32
    if isinstance(t, ir.Float64Type):
        return np.float64
    if isinstance(t, (ir.IntType, ir.IndexType)):
        return np.int64
    raise InterpError(f"no runtime element kind for {t}")


def value_of_type(t: ir.IrType, raw) -> RuntimeValue:
    """Wrap a plain Python value as a RuntimeValue of IR type ``t``."""
    if isinstance(t, ir.Float32Type):
        return F32Value(float(raw))
    if isinstance(t, ir.Float64Type):
        return F64Value(float(raw))
    if isinstance(t, ir.IntType):
        return IntValue(t.width, int(raw))
    if isinstance(t, ir.IndexType):
        return IndexValue(int(raw))
    if isinstance(t, (ir.TensorType, ir.MemRefType)):
        arr = np.asarray(raw, dtype=_np_dtype(t.elem))
        kind = TensorValue if isinstance(t, ir.TensorType) else MemRefValue
        return kind(t.elem, arr.shape, arr)
    raise InterpError(f"cannot build a runtime value of type {t}")


def _check_compatible(t: ir.IrType, v: RuntimeValue, where: str):
    ok = (
        (isinstance(t, ir.Float32Type) and isinstance(v, F32Value))
        or (isinstance(t, ir.Float64Type) and isinstance(v, F64Value))
        or (isinstance(t, ir.IntType) and isinstance(v, IntValue)
            and v.width == t.width)
        or (isinstance(t, ir.IndexType) and isinstance(v, IndexValue))
        or (((isinstance(t, ir.TensorType) and isinstance(v, TensorValue))
             or (isinstance(t, ir.MemRefType) and isinstance(v, MemRefValue)))
            and v.data.ndim == t.rank and _np_dtype(t.elem) == v.data.dtype)
    )
    if not ok:
        raise InterpError(f"{where}: value {v!r} does not match type {t}")


# ---------------------------------------------------------------------------
# Decoding: each op becomes ``op(frame, run)`` returning its result's value;
# terminators return the next block's position or the list of values returned


_FLOAT = (ir.Float32Type, ir.Float64Type)
_INT = (ir.IntType, ir.IndexType)
_CMP = {"eq": operator.eq, "ne": operator.ne, "slt": operator.lt,
        "sle": operator.le, "sgt": operator.gt, "sge": operator.ge}


class _Defer(Exception):
    """Raised by a decoder with the closure that fails in the op's place."""


def _fail(error):
    raise error


def _unbox(v: RuntimeValue):
    return v if isinstance(v, _ArrayValue) else v.value


def _box(t: ir.IrType, raw) -> RuntimeValue:
    return raw if isinstance(raw, RuntimeValue) else value_of_type(t, raw)


def _kind(op, at, kinds, first=0):
    """Slots of the operands from ``first`` on; one not declared of
    ``kinds`` fails at run time, naming its value."""
    for v in op.operands[first:]:
        if not isinstance(v.type, kinds):
            what, s, t = "a float" if kinds is _FLOAT else "an integer", at[v], v.type
            raise _Defer(lambda f, run: _fail(InterpError(
                f"expected {what} value, got {_box(t, f[s])!r}")))
    return [at[v] for v in op.operands[first:]]


def _wrapped(t: ir.IrType, read):
    """``read`` with its raw result wrapped to the width of integer type ``t``."""
    if not isinstance(t, ir.IntType):
        return read
    w, half = t.width, 1 << t.width - 1
    lo, hi = (0, 2) if w == 1 else (-half, half)
    return lambda f, run: v if lo <= (v := read(f, run)) < hi else _wrap_int(v, w)


def _binary(kinds, fn):
    def decode(op, at):
        a, b = _kind(op, at, kinds)
        if isinstance(op.results[0].type, ir.Float32Type):
            # computed in double, rounded once: exact, since 53 >= 2 * 24 + 2
            return lambda f, run: ir.to_f32(fn(f[a], f[b]))
        return _wrapped(op.results[0].type, lambda f, run: fn(f[a], f[b]))
    return decode


def _unary(kinds, fn):
    def decode(op, at):
        [a] = _kind(op, at, kinds)
        return _wrapped(op.results[0].type, lambda f, run: fn(f[a]))
    return decode


def _constant(op, at):
    attr = op.attributes["value"]
    if not isinstance(attr, (ir.FloatAttr, ir.IntAttr)):
        raise InterpError(f"unsupported constant attribute {attr!r}")
    value = _unbox(value_of_type(op.results[0].type, attr.value))
    return lambda f, run: value


def _exp(op, at):
    [a] = _kind(op, at, _FLOAT)
    scalar = np.float32 if isinstance(op.results[0].type, ir.Float32Type) else np.float64
    return lambda f, run: float(np.exp(scalar(f[a])))


def _cmpi(op, at):
    pred = op.attributes["predicate"].text
    if pred not in _CMP:
        raise InterpError(f"unknown cmpi predicate '{pred}'")
    (a, b), cmp = _kind(op, at, _INT), _CMP[pred]
    return lambda f, run: 1 if cmp(f[a], f[b]) else 0


def _launch_coordinate(k):
    def decode(op, at):
        dim = op.attributes["dimension"].text
        text = f"{op.name} executed without a launch configuration"
        return lambda f, run: (run.ctx if run.ctx is not None
                               else _fail(MissingLaunchConfig(text)))[dim][k]
    return decode


def _memref(op, at):
    """memref.load, or memref.store (its buffer is operand 1)."""
    which = int(op.name == "memref.store")
    if not isinstance(op.operands[which].type, ir.MemRefType):
        raise InterpError(f"{op.name} target is not a memref value")
    b, idx = at[op.operands[which]], _kind(op, at, _INT, which + 1)

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
    return _wrapped(op.results[0].type, lambda f, run: f[b].data.item(index(f, run)))


def _branch(op, at):
    if op.operands and op.operands[0].type != ir.I1:
        raise InterpError("cf.cond_br condition is not an i1 value")
    c = at[op.operands[0]] if op.operands else None
    edges = []  # (target, source slots, target's argument slots as a slice)
    for succ in op.successors:
        src = tuple(at[v] for v in succ.args)[:len(succ.block.arguments)]
        first = at[succ.block.arguments[0]] if src else 0
        edges.append((at[succ.block], src, first, first + len(src)))

    def branch(f, run):
        target, src, lo, hi = edges[0] if c is None or f[c] else edges[1]
        f[lo:hi] = [f[s] for s in src]
        return target
    return branch


def _return(op, at):
    src = [at[v] for v in op.operands]
    return lambda f, run: [f[s] for s in src]


def _call(op, at):
    callee, dst = op.attributes["callee"].name, [at[v] for v in op.results]
    src = [(v.type, at[v]) for v in op.operands]

    def call(f, run):
        for d, v in zip(dst, run.call(callee, [_box(t, f[s]) for t, s in src])):
            f[d] = v
        return f[dst[0]] if len(dst) == 1 else None
    return call


def _generic(op, at):
    maps, body = list(op.attributes["indexing_maps"].elements), _decode(op.regions[0])
    src = [at[v] for v in op.operands]

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
        wheres = [operator.itemgetter(*m.targets) if m.targets else (lambda p: ())
                  for m in maps]  # an operand's element index at a point
        arrays = [v.data for v in operands[:-1]] + [result]
        reads = [_wrapped(v.elem, lambda p, run, item=a.item, where=w: item(where(p)))
                 for v, a, w in zip(operands, arrays, wheres)]
        for point in itertools.product(*(range(extents[a]) for a in range(n_axes))):
            yielded = _exec(body, [read(point, run) for read in reads], run)
            if len(yielded) != 1:
                raise InterpError("linalg.generic body must yield one value")
            result[wheres[-1](point)] = yielded[0]
        return TensorValue(out.elem, result.shape, result)
    return generic


_OPS = {  # operation name -> decoder(op, at); ``at`` maps values to slots
    "arith.constant": _constant,
    "arith.addf": _binary(_FLOAT, operator.add),
    "arith.subf": _binary(_FLOAT, operator.sub),
    "arith.mulf": _binary(_FLOAT, operator.mul),
    "arith.divf": _binary(_FLOAT, lambda x, y:  # by ±0: numpy's inf or nan
                          x / y if y else float(np.float64(x) / np.float64(y))),
    "arith.negf": _unary(_FLOAT, operator.neg),
    "math.exp": _exp,
    "arith.addi": _binary(_INT, operator.add),
    "arith.subi": _binary(_INT, operator.sub),
    "arith.muli": _binary(_INT, operator.mul),
    "arith.cmpi": _cmpi,
    "arith.index_cast": _unary(_INT, int),
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


def _decode_op(op: ir.IrOperation, at):
    try:
        if op.name not in _OPS:
            raise InterpError(f"unsupported operation '{op.name}'")
        return _OPS[op.name](op, at)
    except _Defer as e:
        return e.args[0]
    except (InterpError, LookupError, AttributeError, TypeError, ValueError,
            ArithmeticError) as e:  # a malformed op fails when reached
        kind, args = type(e), e.args
        return lambda f, run: _fail(kind(*args))


def _decode(region: ir.IrRegion):
    """(frame size, blocks): each block is (argument slots, steps to charge
    on entry or inf, [(result slot, op)], terminator or None, id). Slot 0
    takes the value of ops without one result; ops after a terminator never
    run and are dropped."""
    at = {None: 0}  # the arguments of a block take consecutive slots
    for block in region.blocks:
        for v in block.arguments + [r for op in block.operations for r in op.results]:
            at[v] = len(at)
    size = len(at)
    at.update((block, position) for position, block in enumerate(region.blocks))
    blocks = []
    for block in region.blocks:
        ops, term, nested = [], None, False
        for op in block.operations:
            nested = nested or op.name in ("func.call", "linalg.generic")
            if op.is_terminator:
                term = _decode_op(op, at)
                break
            ops.append((at[op.results[0]] if len(op.results) == 1 else 0,
                        _decode_op(op, at)))
        steps = math.inf if nested else len(ops) + (term is not None)
        blocks.append((tuple(at[v] for v in block.arguments), steps, tuple(ops), term,
                       block.id))
    return size, blocks


# ---------------------------------------------------------------------------
# Execution


class _Run:
    """One run: the step budget, thread context and decoded functions.
    Decoded code never refers back to the run, so a run leaves no cycles."""

    __slots__ = ("module", "limit", "steps", "ctx", "depth", "funcs")

    def __init__(self, module: ir.IrModule, limit: int):
        self.module, self.limit, self.ctx = module, limit, None
        self.steps = self.depth = 0
        self.funcs = {}  # symbol -> (function type, decoded body)

    def tick(self):
        self.steps += 1
        if self.steps > self.limit:
            raise StepLimitExceeded(
                f"step budget of {self.limit} operations exceeded")

    def function(self, symbol: str, inputs: list):
        """The decoded body of @symbol, checked against boxed ``inputs``."""
        if symbol not in self.funcs:
            func = self.module.lookup_symbol(symbol)
            if func is None or func.name != "func.func":
                raise InterpError(f"no function @{symbol} in the module")
            self.funcs[symbol] = (func.attributes["function_type"].type,
                                  _decode(func.regions[0]))
        ftype, body = self.funcs[symbol]
        if len(inputs) != len(ftype.inputs):
            raise InterpError(f"@{symbol} takes {len(ftype.inputs)} "
                              f"argument(s), got {len(inputs)}")
        for i, (t, v) in enumerate(zip(ftype.inputs, inputs)):
            _check_compatible(t, v, f"@{symbol} argument {i}")
        return body

    def call(self, symbol: str, inputs: list) -> list:
        """Run @symbol on the boxed ``inputs``; returns the raw results."""
        body = self.function(symbol, inputs)
        self.depth += 1
        if self.depth > MAX_CALL_DEPTH:
            raise InterpError(f"@{symbol}: calls nested deeper than {MAX_CALL_DEPTH}")
        results = _exec(body, [_unbox(v) for v in inputs], self)
        self.depth -= 1
        return results


def _exec(code, args, run: _Run) -> list:
    """Run a decoded region on raw ``args``; returns the raw values returned."""
    size, blocks = code
    f = [None] * size
    slots, n, ops, term, bid = blocks[0]
    for s, v in zip(slots, args):
        f[s] = v
    while True:
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
        slots, n, ops, term, bid = blocks[nxt]


def run_function(module: ir.IrModule, symbol: str, inputs,
                 step_limit: int = DEFAULT_STEP_LIMIT):
    """Execute @symbol on ``inputs``; returns the list of result values."""
    run = _Run(module, step_limit)
    with np.errstate(all="ignore"):  # IEEE-754: inf/nan flow silently
        results = run.call(symbol, list(inputs))
    return [_box(t, v) for t, v in zip(run.funcs[symbol][0].results, results)]


def run_kernel(module: ir.IrModule, symbol: str, launch: LaunchConfig, inputs,
               step_limit: int = DEFAULT_STEP_LIMIT, reverse: bool = False):
    """Run @symbol once per (block, thread) coordinate; returns ``inputs``.

    Coordinates are visited in lexicographic order over
    (block x,y,z, thread x,y,z); ``reverse`` visits them backwards.
    Buffer mutations through memref.store are visible in the returned
    inputs. Each thread has the whole step budget.
    """
    coords = list(itertools.product(*map(range, launch.grid + launch.block)))
    run, inputs = _Run(module, step_limit), list(inputs)
    body = run.function(symbol, inputs)
    args = [_unbox(v) for v in inputs]
    bx, by, bz = launch.block
    with np.errstate(all="ignore"):
        for blkx, blky, blkz, tx, ty, tz in coords[::-1] if reverse else coords:
            run.steps = 0
            run.ctx = {"x": (tx, blkx, bx), "y": (ty, blky, by), "z": (tz, blkz, bz)}
            _exec(body, args, run)
    return inputs
