"""Reference evaluator for generated IR.

Executes scalar and control-flow operations with IEEE-754 semantics at the
declared precision, runs linalg.generic over its iteration space, and
simulates a GPU thread grid for kernels built on the gpu dialect. Used as
the numeric oracle for translations.

run_function and run_kernel run a module on its executable, which
``prepare(module)`` makes and keeps on the module, and which they make on
the module's first run. Each function's code is decoded when it first runs
and kept for every later run, so a module must not change once prepared:
prepare it again after editing it. An executable does not refer to its
module, which each run is handed, so it is freed with the module. ``_OPS``
maps each op name to a decoder that turns the op into a closure over a
frame list with one slot per SSA value. A value, scalar or lane, has its
SSA type's element kind: f32 values are numpy float32 scalars or arrays,
so f32 + - * / and negation are each one correctly rounded numpy op and
f32 exp is numpy's float32 exp; f64 values are Python floats or float64
arrays, and integers Python ints or int64 arrays.
Scalars are boxed only where run_function and run_kernel take and give
them; a func.call passes raw values. The verifier is the interpreter's only
type rule: ``prepare`` verifies the module once, and an op the verifier
faults fails when reached, with its first finding's text. Unknown ops fail
when reached too. The interpreter checks only run-time facts: shapes,
extents and bounds, the launch configuration, the step budget and the
call depth. Every failure at run time is an InterpError.

Each op is one step: a block is charged on entry when it fits the budget,
otherwise (and when it holds a call or generic) op by op, so
StepLimitExceeded comes just before the first op past the limit. The
budget and the call depth are per run.

Compiled tier: once a region has taken HOT back edges (jumps to a block at
or before the current one), counted across the runs of its executable, it
runs as one generated Python function, entered at a block boundary with
the frame's values; a function that loops a little on every call thus
compiles after a few calls. Each slot is a local ``v<slot>``; a block
reached by one edge, a forward one, runs in place at that edge, and a
balanced tree of ``if b < k`` tests finds each other block. The same
decoder, asked for the op's source form, gives its text: an operator is
written infix, f64 exp and divf inline, and other functions, constants and
helpers are passed through the function's namespace, never pasted into the
text. A region of more than MAX_COMPILED_OPS ops, or with an op without a
source form (memref, gpu, func.call, linalg.generic, faulted and unknown
ops), stays on closures. Each path from a block of the tree to its next
jump or return is charged its steps at its end, raising the step error
there if they do not fit: its ops change only locals and cannot fail, so
running them op by op would end the same way. HOT is about where compiling
pays: on a 2-vCPU machine under Python 3.11, building the function,
compile() included, takes 0.3-0.5 ms on the bench's loops and saves
1.8-3.6 us an iteration, so it pays within one run after 110-270 back
edges, and sooner over calls; an executable builds it once.
MAX_COMPILED_OPS bounds compile()'s transient memory, about 15 KiB an op,
to 0.7 MiB.

Lanes: the same decoder, asked for the op's lane form, gives the lines that
run the op once over numpy arrays, one lane per point or thread. A region
of one block whose ops all have one runs as one generated function, built
once an executable (a kernel's on its first launch of at least MIN_LANES
threads), with no op cap: compile() holds about 4 KiB a float op and 10 KiB
an int op. The function runs its hoisted ops, those that do not depend on
carried state, once over all lanes and steps, then loops over the steps
running only its carried ops. Each slot is a local, as is each span an
int64 or bounds test reads: known when the code is generated for launch
coordinates (from the batch's ends), constants and i64 or index results
(exactly from an affine form, see _affine, else by the corners of their
operands' spans), else reduced from the lanes once a call, or for a carried
value once a step. A linalg.generic takes one lane per point of its
parallel axes, those of the output map, reading each operand as one strided
view. Its carried state is the accumulator, and its steps are the points of
the other axes in lexicographic order, so each output element accumulates
in the sequential order; a call takes a box of at most LANES of them. Its
code keeps the plan of its last operand layout (see _generic_plan), so a
call of the same layout makes only its views; prepare drops the plan with
the rest of the code. A kernel numbers its threads in launch order, block x
slowest and thread z fastest, and runs them in batches of whole blocks:
LANES // n blocks of n threads, or at most LANES threads of one block when
n is more. Its code keeps a lane function for each launch shape that its
affine analysis reads (see _affine), which reads a batch's launch from its
ends alone (see _lane_coordinate); prepare drops them with the rest of the
code. Its carried state is the contents of the buffers it stores to, and
its steps are the batch's waves, in each of which a lane touches its own
element of each stored buffer. A 1-D access through c + s·g, for g the
thread number, or c + s·u, for u a thread's number in its block, with c
uniform and s >= 1, is a slice of stride s, and the batch's waves are the
whole batch or its block runs, the lanes of each of its blocks, when every
stored buffer is reached through such slices (see _affine); other loads
gather, stores scatter, and the waves are the maximal strictly rising runs
of each stored buffer's flat index, or the whole batch where that index
strictly falls. So CUDA's 2-D idiom x + y * block_dim_x, whose stride in
launch order is block_dim_x, gathers: it would take a 2-D view. A batch
is charged its steps up front, so it takes lanes only when they fit the
budget (for a kernel, one thread's steps). A batch falls back, with its
stores undone, to running point by point or thread by thread, which raises
the same errors after the same stores, when an index's span leaves its
bounds, an integer result could leave int64 (index values are unbounded),
a stored buffer is accessed through two flat indices or offsets that
differ, or its waves average fewer than MIN_LANES lanes. Kernels whose
buffers share memory or hold elements that may overlap, or whose arguments
or coordinates leave int64, run thread by thread throughout. So do batches
of fewer than MIN_LANES threads, for which numpy's cost per call outweighs
the lanes; a generic takes lanes whatever its number of points.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator

import numpy as np

from . import ir
from ._record import Frozen, Record, setfield

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
    "Executable",
    "prepare",
    "run_function",
    "run_kernel",
]

DEFAULT_STEP_LIMIT = 10 ** 7
MAX_CALL_DEPTH = 200  # nested func.calls; each takes three Python frames
LANES = 1024  # the most consecutive threads that run as one batch
MIN_LANES = 5  # fewer threads run faster one by one than as lanes
HOT = 50  # back edges after which a function runs compiled
MAX_COMPILED_OPS = 48  # the most ops a compiled function holds


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


class RuntimeValue(Record):
    __slots__ = ()


class F32Value(RuntimeValue):
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = ir.to_f32(float(value))


class F64Value(RuntimeValue):
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = value


def _wrap_int(value, width: int):
    """``value`` wrapped to a ``width``-bit integer: a Python int, or int64
    lanes of a width below 64."""
    if width == 1:  # boolean: no sign bit
        return value & 1
    half = 1 << (width - 1)
    return ((value + half) % (half << 1)) - half


class IntValue(RuntimeValue):
    __slots__ = ("width", "value")

    def __init__(self, width: int, value: int):
        self.width = width
        self.value = _wrap_int(int(value), width)


class IndexValue(RuntimeValue):
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value


class _ArrayValue(RuntimeValue):
    __slots__ = ("elem", "dims", "data")

    def __init__(self, elem: ir.IrType, dims: tuple, data):
        self.elem = elem
        self.dims = dims
        # row-major, shape == dims
        self.data = np.asarray(data, dtype=_np_dtype(elem)).reshape(dims)

    def __eq__(self, other):  # of one class, elem and dims, and data of the same bytes
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.elem, self.dims, self.data.tobytes()) == (
            other.elem, other.dims, other.data.tobytes())


class TensorValue(_ArrayValue):
    """An immutable tensor."""

    __slots__ = ()


class MemRefValue(_ArrayValue):
    """A buffer; memref.store writes ``data`` in place."""

    __slots__ = ()


def _extents(name, given):
    """``given`` as a launch's three extents, each a plain int >= 1."""
    try:
        extents = tuple(map(operator.index, given))
    except TypeError:
        extents = ()
    if len(extents) != 3:
        raise InterpError(f"launch {name} must be three integer extents, got {given!r}")
    if min(extents) < 1:
        raise InterpError("launch extents must all be >= 1")
    return extents


class LaunchConfig(Frozen):
    __slots__ = ("grid", "block")

    def __init__(self, grid: tuple, block: tuple):
        setfield(self, "grid", _extents("grid", grid))  # block counts (gx, gy, gz)
        setfield(self, "block", _extents("block", block))  # threads per block (bx, by, bz)


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
    if kind is MemRefValue and not v.data.flags.writeable:
        raise InterpError(f"{where}: a memref's data must be writeable, not read-only")


# ---------------------------------------------------------------------------
# Decoding: each op becomes ``op(frame, run)`` returning its result's value;
# terminators return the next block's position or the list of values returned


_FLOAT = (ir.Float32Type, ir.Float64Type)
_AXES = {"x": 0, "y": 1, "z": 2}  # a launch dimension's position in a thread context
_CMP = {"eq": operator.eq, "ne": operator.ne, "slt": operator.lt,
        "sle": operator.le, "sgt": operator.gt, "sge": operator.ge}


_FAULTS = "faults"  # the key in ``at`` of the executable's ops with a verifier finding


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


def _lane_wrap(t: ir.IrType, form, text: str) -> str:
    """The text of lanes ``text`` wrapped to the width of integer type ``t``
    in lane ``form``; int64 lanes hold i64 values as they are."""
    if isinstance(t, ir.IntType) and t.width != 64:
        return f"{form.bind(_wrap_int)}({text}, {form.bind(t.width)})"
    return text


def _lane_op(op, fn, form, r, *slots):
    """The lane lines of an op that applies ``fn`` to the values in ``slots``
    into slot ``r``. An int op's result lies between its values at the
    corners of its operands' spans: it falls back if they could leave int64
    (index values are unbounded), else an i64 or index result's span is known."""
    t, value = op.results[0].type, _apply_text(form, fn, *[f"v{s}" for s in slots])
    if isinstance(t, _FLOAT):
        return [f"{form.target} = {value}"]
    lines = []
    corners = itertools.product(*[form.span(s, lines) for s in slots])
    lines += [f"l{r}, h{r} = fits({', '.join(_apply_text(form, fn, *c) for c in corners)})",
              f"{form.target} = {_lane_wrap(t, form, value)}"]
    if t.__class__ is ir.IndexType or t.width == 64:
        form.spans[r] = (f"l{r}", f"h{r}")
    return lines


_INFIX = {operator.add: "+", operator.sub: "-", operator.mul: "*", operator.truediv: "/",
          operator.neg: "-", operator.pos: "+", operator.eq: "==", operator.ne: "!=",
          operator.lt: "<", operator.le: "<=", operator.gt: ">", operator.ge: ">="}


def _apply_text(form, fn, *args):
    """Source text applying ``fn`` to the ``args`` texts: infix for an operator."""
    sym = _INFIX.get(fn)
    if sym is None:
        return f"{form.bind(fn)}({', '.join(args)})"
    return f"({args[0]} {sym} {args[1]})" if args[1:] else f"{sym}{args[0]}"


def _arith(fn, lane_fn=None, f64=None):
    """The decoder of a unary or binary op that applies ``lane_fn`` to lanes
    and to f32 scalars, which are np.float32, and ``fn`` to f64 and integer
    scalars, which are Python floats and ints; ``lane_fn`` defaults to ``fn``.
    ``f64`` is the source text of ``fn`` on f64 scalars, if it has one: a
    format of the operands' texts and the names of ``fn`` and ``lane_fn``."""
    lane_fn = lane_fn or fn

    def decode(op, at, form=None):
        slots, t = [at[v] for v in op.operands], op.results[0].type
        if form and form.lanes:
            return _lane_op(op, lane_fn, form, at[op.results[0]], *slots)
        g = lane_fn if isinstance(t, ir.Float32Type) else fn
        if form and f64 and isinstance(t, ir.Float64Type):
            return f64.format(*[f"v{s}" for s in slots], **{
                k: form.bind(h) for k, h in (("fn", fn), ("lane", lane_fn)) if f"{{{k}}}" in f64})
        if form:
            return _wrapped(t, _apply_text(form, g, *[f"v{s}" for s in slots]), form)
        if len(slots) == 1:
            [a] = slots
            return _wrapped(t, lambda f, run: g(f[a]))
        a, b = slots
        return _wrapped(t, lambda f, run: g(f[a], f[b]))
    return decode


def _constant(op, at, form=None):
    t = op.results[0].type
    value = _unbox(value_of_type(t, op.attributes["value"].value))
    if form and form.lanes:
        lane = _np_dtype(t)(value)  # OverflowError: no int64 lane form
        if isinstance(value, int):
            form.spans[at[op.results[0]]] = (form.bind(value),)
        return [f"{form.target} = {form.bind(lane)}"]
    if form:
        return form.bind(value)
    return lambda f, run: value


def _listed(op, name, table):
    """The entry of ``table`` for ``op``'s string attribute ``name``."""
    text = op.attributes[name].text
    if text not in table:
        raise InterpError(f"{op.name}: attribute '{name}' is '{text}', not one of "
                          f"{'|'.join(table)}, the values the interpreter runs")
    return table[text]


def _cmpi(op, at, form=None):
    (a, b), cmp = [at[v] for v in op.operands], _listed(op, "predicate", _CMP)
    if form and form.lanes:
        return [f"{form.target} = {_apply_text(form, cmp, f'v{a}', f'v{b}')}"
                f".astype({form.bind(np.int64)})"]
    if form:
        return f"1 if {_apply_text(form, cmp, f'v{a}', f'v{b}')} else 0"
    return lambda f, run: 1 if cmp(f[a], f[b]) else 0


def _launch_coordinate(k):
    def decode(op, at, form=None):
        axis = _listed(op, "dimension", _AXES)
        if form and form.lanes:  # a generic's body has no launch, so no lane form
            return form.extents and _lane_coordinate(form, k, axis, at[op.results[0]])
        if form:
            return None
        text = f"{op.name} executed without a launch configuration"
        return lambda f, run: (run.ctx if run.ctx is not None
                               else _fail(MissingLaunchConfig(text)))[axis][k]
    return decode


def _lane_coordinate(form, k, axis: int, r: int):
    """The lane lines of launch coordinate ``k`` (0: thread_id, 1: block_id,
    2: block_dim) on ``axis`` into slot ``r``, for launches of
    ``form.extents`` (see _lane_function). A block_dim is a constant. The
    lanes come from a slice of a read-only table of at most max(LANES, n)
    elements, for n threads a block, bound here: a thread_id's from the
    thread numbers on its axis in their block, the block_ids' from the
    block numbers less the batch's first, unravelled once in a grid of
    (2, gy, gz), whose x extent is not read. The first op of a kind emits
    that and the kind's spans, from the batch's ends."""
    block, gy, gz = form.extents
    if k == 2:
        form.spans[r] = (form.bind(block[axis]),)
        return [f"{form.target} = {form.bind(np.int64(block[axis]))}"]
    n, c, lines = math.prod(block), f"c{k}", []  # c0x, c1x: thread_id, block_id x's lanes
    lanes = np.arange(n * max(1, LANES // n))  # from the first thread of a batch's first block
    form.spans[r] = (f"l{c}{axis}", f"h{c}{axis}")
    if c not in form.once:
        form.once.add(c)
        a, b, extents = ("low", "high", form.bind(block)) if k == 0 else (
            f"first // {form.bind(n)}", f"last // {form.bind(n)}", form.bind((2, gy, gz)))
        lines.append(f"{', '.join(f'(l{c}{x}, h{c}{x})' for x in range(3))} = "
                     f"{form.bind(_unravel_spans)}({a}, {b}, {extents})")
        if k == 1:
            lines.append(f"{c}0, {c}1, {c}2 = "
                         f"{form.bind(_unravel)}({_rows(form, lanes // n)} + {a}, {extents})")
    rows = _rows(form, _unravel(lanes % n, block)[axis]) if k == 0 else f"{c}{axis}"
    return lines + [f"{form.target} = {rows}"]


def _rows(form, table) -> str:
    """The text of the batch's rows of ``table``, bound read-only."""
    table.flags.writeable = False
    return f"{form.bind(table)}[low:low + last - first + 1]"


def _memref(op, at, form=None):
    """memref.load, or memref.store (its buffer is operand 1)."""
    which = int(op.name == "memref.store")
    b, idx = at[op.operands[which]], [at[v] for v in op.operands[which + 1:]]
    if form:
        return _lane_memref(op, form, b, idx, at[op.operands[0]]) if form.lanes else None

    def index(f, run):
        i, shape = tuple([f[s] for s in idx]), f[b].data.shape
        for d, (n, extent) in enumerate(zip(i, shape)):
            if not 0 <= n < extent:
                where = "" if run.ctx is None else f" (thread context {dict(zip(_AXES, run.ctx))})"
                raise OutOfBounds(f"index {n} out of bounds for dimension {d} "
                                  f"of extent {extent}{where}")
        return i
    if which:
        v = at[op.operands[0]]
        return lambda f, run: f[b].data.__setitem__(index(f, run), f[v])
    t = op.results[0].type
    if isinstance(t, ir.Float32Type):  # an np.float32
        return lambda f, run: f[b].data[index(f, run)]
    return _wrapped(t, lambda f, run: f[b].data.item(index(f, run)))


def _lane_memref(op, form, b, idx, v):
    """The lane lines of memref.load and memref.store (of slot ``v``) on the
    buffer in slot ``b``, with data ``d<b>`` and shape ``x<b>``: a gather, or
    a scatter that records the old values for the undo. The text of its
    flat index goes into ``form.accesses`` for the test that each lane owns
    the elements it touches (see _waves). An access in ``form.sliced`` reads
    or writes a slice of its index's exact span instead, and copies what it
    loads from a stored buffer when an op reads the loaded value after that
    buffer's next store; the first such access of a stored buffer records
    the undo of the batch's whole span, once, and each later one falls back
    unless its span starts where the first's does. An index out of bounds by
    its span, or lanes stored through scalar indices fall back, so that the
    replay raises as the scalar op does. The bounds test of an index of
    hoisted values is hoisted; a test already emitted (``form.once``)
    reads the same slots, so it is not emitted again."""
    store, lines = op.name == "memref.store", []
    if store and v in form.arrays and not form.arrays.intersection(idx):
        return ["raise Sequential"]
    tests = [f"{s[0]} < 0 or {s[-1]} >= x{b}[{k}]"
             for k, s in enumerate([form.span(s, lines) for s in idx])]
    carried = bool(form.carried.intersection(idx))
    test = f"if {' or '.join(tests)}: raise Sequential"
    if tests and test not in form.once:
        form.once.add(test)
        (lines if carried else form.hoisted).append(test)
    if op in form.sliced:  # (stride, a whole form in each block run, stored, copies)
        (lo, hi), (s, each, stored, copy) = form.spans[idx[0]], form.sliced[op]
        stride = form.bind(s) if s > 1 else None
        step, times = (f":{stride}", f"{stride} * ") if stride else ("", "")
        whole = f"{lo}:{hi} + 1{step}"
        i = f"{lo} + {times}p.start:{lo} + {times}p.stop{step}" if each else whole
        if stored and b not in form.undo:  # the batch's one undo record of b
            form.undo[b] = lo
            form.hoisted.append(f"touched.append((d{b}, slice({lo}, {hi} + 1, {stride}), "
                                f"d{b}[{whole}].copy()))")
        elif stored and form.undo[b] != lo:  # another offset: equal, or fall back
            form.hoisted.append(f"if {form.undo[b]} != {lo}: raise Sequential")
        read = f"d{b}[{i}]" + ".copy()" * copy
    else:
        flat = f"v{idx[0]}" if idx else "0"  # row-major over the shape x<b>
        for k, s in enumerate(idx[1:], 1):
            flat = f"({flat} * x{b}[{k}] + v{s})"
        form.accesses.setdefault(b, {})[flat] = carried  # flat index text -> whether carried
        i = f"({_locals(idx)})"
        lines += [f"touched.append((d{b}, {i}, d{b}[{i}]))"] * store
        read = f"d{b}[{i}]"
    if store:
        return lines + [f"d{b}[{i}] = v{v}"]
    return lines + [f"{form.target} = {_lane_wrap(op.results[0].type, form, read)}"]


def _branch(op, at, form=None):
    if form and form.lanes:
        return None
    c = at[op.operands[0]] if op.operands else None
    edges = []  # (target, source slots, target's argument slots as a slice)
    for succ in op.successors:
        src = tuple(at[v] for v in succ.args)
        first = at[succ.block.arguments[0]] if src else 0
        edges.append((at[succ.block], src, first, first + len(src)))
    if form:  # arms; block arguments are assigned in parallel
        return [(f"v{c}" if c is not None and k == 0 else None,
                 [f"{_locals(range(lo, hi))}= {_locals(src)}"] * bool(src), target)
                for k, (target, src, lo, hi) in enumerate(edges)]

    def branch(f, run):
        target, src, lo, hi = edges[0] if c is None or f[c] else edges[1]
        f[lo:hi] = [f[s] for s in src]
        return target
    return branch


def _return(op, at, form=None):
    src = [at[v] for v in op.operands]
    if form is None:
        return lambda f, run: [f[s] for s in src]
    return [(None, [f"return [{_locals(src)}]"], None)]


def _call(op, at, form=None):
    if form:
        return None
    callee, dst = op.attributes["callee"].name, [at[v] for v in op.results]
    src = [at[v] for v in op.operands]

    def call(f, run):
        for d, v in zip(dst, run.call(callee, [f[s] for s in src])):
            f[d] = v
        return f[dst[0]] if len(dst) == 1 else None
    return call


def _generic(op, at, form=None):
    if form:
        return None
    maps = list(op.attributes["indexing_maps"].elements)
    body = _Code(op.regions[0], at[_FAULTS])
    src, lane_body = [at[v] for v in op.operands], _lane_function(op.regions[0], body.faults)
    wheres = [operator.itemgetter(*m.targets) if m.targets else (lambda p: ())
              for m in maps]  # an operand's element index at a point

    def generic(f, run):
        operands = [f[s] for s in src]
        out = operands[-1]
        result = np.array(out.data, copy=True)
        arrays = [v.data for v in operands[:-1]] + [result]
        key = tuple([(a.shape, a.strides) for a in arrays])
        if body.plan is None or body.plan[0] != key:
            body.plan = _generic_plan(key, maps, arrays, lane_body)
        _, extents, steps, lanes = body.plan
        if lanes and run.steps + steps <= run.limit:
            try:
                _run_plan(lane_body, lanes, arrays)
                run.steps += steps
                return TensorValue(out.elem, result.shape, result)
            except _Sequential:
                pass  # ``result`` is still the output's copy
        reads = [_wrapped(v.elem, lambda p, run, read=(  # f32: an np.float32
                     a.__getitem__ if isinstance(v.elem, ir.Float32Type) else a.item),
                     where=w: read(where(p))) for v, a, w in zip(operands, arrays, wheres)]
        for point in itertools.product(*(range(extents[a]) for a in sorted(extents))):
            [yielded] = _exec(body, [read(point, run) for read in reads], run)
            result[wheres[-1](point)] = yielded
        return TensorValue(out.elem, result.shape, result)
    return generic


def _generic_plan(key, maps, arrays, code):
    """The plan of a generic of ``maps`` on ``arrays`` (its inputs, then the
    output's copy), which a generic's _Code keeps for its next call on
    arrays of the same layout ``key``, the (shape, strides) of each: (key,
    the extent of each axis, the steps a run in lanes charges, the lane plan
    or None). InterpError when two extents of one axis differ, so that no
    plan is kept for such a layout and each call raises.

    The lane plan, for a body with lane function ``code``, whatever the
    number of points, is (the shape, strides and contiguity of each array's
    view, the boxes, made on the plan's first run in lanes): one lane per
    point of the output map's axes, so no two lanes write one element.
    Each input's view is over the loop axes, then the parallel ones (stride
    0 on an axis its map lacks), and the output's over the parallel ones. A
    call of the body takes a box of loop points (see _boxes) and steps
    through them in lexicographic order, so each element accumulates in the
    sequential order."""
    extents = {}
    for m, (shape, _) in zip(maps, key):
        for axis, extent in zip(m.targets, shape):
            if extents.setdefault(axis, extent) != extent:
                raise InterpError(
                    f"linalg.generic: inconsistent extent for axis d{axis}: "
                    f"{extents[axis]} vs {extent}")
    par = sorted(set(maps[-1].targets))
    steps, lanes = code and math.prod(extents.values()) * code.steps, math.prod(
        extents[a] for a in par)
    if not steps:
        return key, extents, steps, None
    loop = [a for a in sorted(extents) if a not in par]

    def view(a, m, axes):
        strides = dict.fromkeys(axes, 0)
        for axis, stride in zip(m.targets, a.strides):
            strides[axis] += stride
        return tuple(extents[x] for x in axes), tuple(strides.values()), a.flags.forc
    views = [view(a, m, loop + par) for m, a in zip(maps, arrays[:-1])]
    views.append(view(arrays[-1], maps[-1], par))
    most = max(1, min(LANES, LANES * LANES // lanes))  # loop points a call
    boxes = functools.cache(functools.partial(_boxes, [extents[a] for a in loop], most))
    return key, extents, steps, (views, boxes)


def _run_plan(code, plan, arrays):
    """Run a generic's body, lane function ``code``, over the lane plan
    ``plan`` (see _generic_plan) of ``arrays`` into the last, the output's
    copy. A contiguous array's view is made over its buffer, others through
    as_strided. Raises _Sequential, the output's copy untouched, when the
    body has to run point by point. The body wraps its narrow integer
    arguments itself."""
    views, boxes = plan
    reads = [np.ndarray(shape, a.dtype, a, 0, strides) if whole else
             np.lib.stride_tricks.as_strided(a, shape, strides)
             for a, (shape, strides, whole) in zip(arrays, views)]
    out = acc = reads.pop()
    for key, points in boxes():
        [acc] = _exec_lanes(code, [r[key] for r in reads] + [acc], _Lanes(points))
    out[...] = acc


def _boxes(shape, most: int):
    """[(key, points)] of each box of at most ``most`` points of the loop
    space ``shape``, in lexicographic order: ``key`` indexes the box in an
    array whose leading axes are the loop's, and ``points`` indexes each of
    its points in the box, in order. Boxes of one size share their points
    list, so the lists hold at most 2 * ``most`` points."""
    if not shape:
        return [((), [()])]
    if 0 in shape:
        return []
    rest = math.prod(shape[1:])
    if rest > most:  # one box per index of the first axis, or more
        inner = _boxes(shape[1:], most)
        return [((k, *key), points) for k in range(shape[0]) for key, points in inner]
    boxes, size, points = [], most // rest, {}  # box size -> its points
    for lo in range(0, shape[0], size):
        n = min(size, shape[0] - lo)
        if n not in points:
            points[n] = list(itertools.product(range(n), *map(range, shape[1:])))
        boxes.append(((slice(lo, lo + n),), points[n]))
    return boxes


_OPS = {  # operation name -> decoder(op, at); ``at`` maps values to slots
    "arith.constant": _constant,
    "arith.addf": _arith(operator.add),
    "arith.subf": _arith(operator.sub),
    "arith.mulf": _arith(operator.mul),
    "arith.divf": _arith(lambda x, y:  # by ±0: numpy's inf or nan
                         x / y if y else float(np.float64(x) / np.float64(y)),
                         operator.truediv, "({0} / {1} if {1} else {fn}({0}, {1}))"),
    "arith.negf": _arith(operator.neg),
    "math.exp": _arith(lambda x: float(np.exp(x)), np.exp, "float({lane}({0}))"),
    "arith.addi": _arith(operator.add),
    "arith.subi": _arith(operator.sub),
    "arith.muli": _arith(operator.mul),
    "arith.cmpi": _cmpi,
    "arith.index_cast": _arith(operator.pos),
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
    """The op's closure, or in ``form`` its source text or lines, or None.
    An unknown op, an op with a verifier finding (whose text the error takes)
    or one its decoder rejects has no form and raises InterpError when reached."""
    try:
        if op.name not in _OPS:
            raise InterpError(f"unsupported operation '{op.name}'")
        if op in at[_FAULTS]:
            raise InterpError(str(at[_FAULTS][op]))
        return _OPS[op.name](op, at, form)
    except InterpError as e:
        text = str(e)
    except (LookupError, AttributeError, TypeError, ValueError, ArithmeticError) as e:
        text = f"{op.name}: {e}"
    return None if form else lambda f, run: _fail(InterpError(text))


def _slots(region: ir.IrRegion, faults=None):
    """(frame size, slot of each value and position of each block, and
    ``faults`` at _FAULTS). The arguments of a block take consecutive slots;
    slot 0 takes the value of ops without one result."""
    at = {None: 0}
    for block in region.blocks:
        for v in block.arguments + [r for op in block.operations for r in op.results]:
            at[v] = len(at)
    size = len(at)
    at.update((block, position) for position, block in enumerate(region.blocks))
    at[_FAULTS] = faults or {}
    return size, at


def _decode(region: ir.IrRegion, faults=None):
    """(frame size, blocks): each block is (argument slots, steps to charge
    on entry or inf, [(result slot, op)], terminator or None, id). Ops after
    a terminator never run and are dropped. ``faults`` maps each op with a
    verifier finding to its first finding; None: none."""
    size, at = _slots(region, faults)
    blocks = []
    for block in region.blocks:
        ops, term, nested = [], None, False
        for op in block.operations:
            nested = nested or op.name in ("func.call", "linalg.generic")
            code = _decode_op(op, at)
            if op.is_terminator:
                term = code
                break
            ops.append((at[op.results[0]] if len(op.results) == 1 else 0, code))
        steps = math.inf if nested else len(ops) + (term is not None)
        blocks.append((tuple(at[v] for v in block.arguments), steps, tuple(ops), term,
                       block.id))
    return size, blocks


# ---------------------------------------------------------------------------
# Compiled tier: a hot region becomes one Python function


class _Source:
    """The source form of a region's ops, or with ``lanes`` their lane form,
    in which each op's text is lines. ``target`` is the local that takes the
    op's value; ``bind`` names an object in the namespace the function runs
    in, so no value from the module is pasted into its text, and ``bound``
    maps the id of each object bound to its one name. ``spans`` maps
    slots of a known span to the texts of its ends, or of its one value;
    ``accesses`` maps the slot of each buffer accessed to the texts of the
    flat indices it is accessed through, each to whether it is carried.
    ``carried`` holds the slots of carried values, ``arrays`` those whose
    values are lanes rather than one value, ``hoisted`` the lines that run
    once a call, before the steps (see _lane_function), and ``once`` the
    keys of lines emitted once: bounds tests, and the kinds of launch
    coordinate (see _lane_coordinate). A kernel's lane form has its launch
    ``extents`` (see _lane_function), its affine analysis (see _affine)
    fills ``sliced``, and ``undo`` maps each stored buffer accessed through
    a slice to the start of its first span."""

    __slots__ = ("namespace", "bound", "target", "lanes", "spans", "accesses", "carried",
                 "arrays", "hoisted", "once", "extents", "sliced", "undo")

    def __init__(self, lanes=False, extents=None):
        self.namespace, self.bound = dict(_LANE_NAMES) if lanes else {}, {}
        self.target = None
        self.lanes, self.spans, self.accesses = lanes, {}, {}
        self.carried, self.arrays, self.hoisted, self.once = set(), set(), [], set()
        self.extents, self.sliced, self.undo = extents, {}, {}

    def bind(self, obj) -> str:
        name = self.bound.get(id(obj))  # the namespace keeps obj, and so its id
        if name is None:
            name = self.bound[id(obj)] = f"n{len(self.namespace)}"
            self.namespace[name] = obj
        return name

    def span(self, s: int, lines: list):
        """The span texts of slot ``s``: known, or reduced from its lanes,
        by a line appended to ``lines`` for a carried value, else to the
        hoisted lines."""
        if s not in self.spans:
            (lines if s in self.carried else self.hoisted).append(f"l{s}, h{s} = span(v{s})")
            self.spans[s] = (f"l{s}", f"h{s}")
        return self.spans[s]


def _span(x):
    """The (least, greatest) of int64 lanes ``x``: an array or one scalar."""
    return (int(x.min()), int(x.max())) if x.__class__ is np.ndarray else (int(x),) * 2


def _fits(*ends):
    """The (least, greatest) of ``ends``; _Sequential if they leave int64."""
    lo, hi = min(ends), max(ends)
    if lo < -1 << 63 or hi >= 1 << 63:
        raise _Sequential
    return lo, hi


def _waves(*buffers):
    """The waves of a kernel batch: slices of its lanes, in order, in each of
    which every stored buffer is touched at one element per lane. Each of
    ``buffers`` holds the flat index lanes of one stored buffer's accesses,
    which must all be equal arrays. A buffer's index cuts the batch where it
    does not strictly rise, unless it strictly falls throughout. _Sequential
    when an index differs, or when the waves average fewer than MIN_LANES
    lanes."""
    cuts = None
    for flat, *others in buffers:
        if flat.__class__ is not np.ndarray or not all(
                np.array_equal(o, flat) for o in others):
            raise _Sequential
        ahead, behind = flat[1:], flat[:-1]
        cut = ahead <= behind
        if cut.any() and not (ahead < behind).all():
            cuts = cut if cuts is None else cuts | cut
    ends = [] if cuts is None else (np.flatnonzero(cuts) + 1).tolist()
    if flat.size < MIN_LANES * (len(ends) + 1):
        raise _Sequential
    return [slice(a, b) for a, b in zip([0, *ends], [*ends, flat.size])]


_LANE_NAMES = {"Sequential": _Sequential, "span": _span, "fits": _fits,
               "waves": _waves}  # what every lane function may use


def _texts(texts):
    return "".join(f"{t}, " for t in texts)


def _locals(slots):
    return _texts(f"v{s}" for s in slots)


def _indent(lines):
    return ["    " + line for line in lines]


def _tree(leaves, lo: int, hi: int):
    """The lines that run the leaf of block position ``b``: ``leaves`` are
    (position, lines) by position, of which those from ``lo`` to ``hi``."""
    if hi - lo == 1:
        return leaves[lo][1]
    mid = (lo + hi) // 2
    return [f"if b < {leaves[mid][0]}:", *_indent(_tree(leaves, lo, mid)),
            "else:", *_indent(_tree(leaves, mid, hi))]


def _path(blocks, inplace, p: int, n: int):
    """The lines that run block ``p``, on a path charged ``n`` steps before
    it, and each block ``inplace`` at the arm that reaches it. An arm that
    leaves the path charges its steps, then jumps or returns. The recursion
    is as deep as the path is long, which MAX_COMPILED_OPS bounds."""
    body, arms = blocks[p]
    n, lines = n + len(body) + 1, list(body)
    for test, assign, t in arms:
        arm = assign + _path(blocks, inplace, t, n) if t in inplace else [
            f"steps += {n}", "if steps > limit: run.exceeded()", *assign,
            *[f"b = {t}", "continue"] * (t is not None)]
        lines += [f"if {test}:", *_indent(arm)] if test else arm
    return lines


def _source(region: ir.IrRegion, faults=None):
    """(text, namespace) of ``compiled(f, b, run)``, which runs ``region``
    from block position ``b`` with the values of frame ``f``, or None when an
    op has no source form or a block no terminator. Each slot is a local
    ``v<slot>``. A block that is the target of one edge, a forward one, runs
    in place at that edge, so each op's text appears once; a balanced tree
    of ``if b < k`` tests finds each other block (block 0, the targets of
    back edges and joins) in O(log blocks). Each path from a block of the
    tree is charged its steps at its end, which raises StepLimitExceeded as
    running it op by op would: its ops change only locals and cannot fail.
    ``faults`` are as in _decode."""
    size, at = _slots(region, faults)
    form, blocks = _Source(), []
    for block in region.blocks:
        lines = []
        for op in block.operations:
            form.target = f"v{at[op.results[0]] if len(op.results) == 1 else 0}"
            text = _decode_op(op, at, form)
            if text is None or isinstance(text, str) == op.is_terminator:
                return None  # a terminator's form is arms, another op's a value
            if op.is_terminator:
                break
            lines.append(f"{form.target} = {text}")
        else:
            return None
        blocks.append((lines, text))  # arms (test or None, lines, target or None)
    edges = [(p, t) for p, (_, arms) in enumerate(blocks) for _, _, t in arms if t is not None]
    ins = collections.Counter(t for _, t in edges)
    inplace = {t for p, t in edges if t > p and ins[t] == 1}
    leaves = [(p, _path(blocks, inplace, p, 0)) for p in range(len(blocks)) if p not in inplace]
    frame = _locals(range(size))
    source = "\n".join([
        "def compiled(f, b, run):", f"    {frame}= f", "    steps, limit = run.steps, run.limit",
        "    try:", "        while True:",
        *["            " + line for line in _tree(leaves, 0, len(leaves))],
        "    finally:", "        run.steps = steps", ""])
    return source, form.namespace


def _compile(code: _Code):
    """The compiled function of ``code``'s region, or None when it holds
    more than MAX_COMPILED_OPS ops or one without a source form."""
    if sum(len(block.operations) for block in code.region.blocks) > MAX_COMPILED_OPS:
        return None
    built = _source(code.region, code.faults)
    return built and _function(*built)


def _function(text: str, namespace: dict):
    """The function ``compiled`` that ``text`` defines in ``namespace``."""
    exec(compile(text, "<compiled region>", "exec"), namespace)
    return namespace.pop("compiled")  # so the function and namespace form no cycle


def _operands(op, at):
    """(the slots of ``op``'s operands, the slot of its result or 0); a value
    of another region, which the verifier faults, takes slot 0."""
    return [at.get(v, 0) for v in op.operands], at[op.results[0]] if len(op.results) == 1 else 0


def _lane_function(region: ir.IrRegion, faults=None, extents=None):
    """``compiled(args, batch)``, which runs the one block of ``region`` over
    lane values ``args`` (wrapping narrow integers) for the _Lanes ``batch``
    and returns the lane values returned; its ``steps`` are one point's or
    thread's. None when the region has more blocks or an op has no lane
    form. Slot s is the local ``v<s>``, of span ``l<s>``, ``h<s>``.

    The function runs its hoisted ops once over all lanes and steps, then
    loops ``for p in steps:`` over its carried ops, reading a hoisted array
    as ``m<s>[p]`` and a hoisted scalar as it is. The carried state of a
    generic's body is its accumulator, the last argument, and its steps are
    ``batch.steps``. A kernel's is the contents of each buffer it stores to:
    its carried ops are the loads from such a buffer, the stores and each op
    that uses a carried value, and its steps are the batch's waves, which
    one hoisted line computes from the flat indices of the stored buffers
    (see _waves). When such an index is carried, the kernel runs as one
    step, and a line before the return falls back unless the batch is one
    wave.

    A kernel's function is built for launches of ``extents`` (see
    _affine), and reads a batch's launch from ``batch.ends``: ``first,
    last, low, high`` (see _lane_coordinate). When its waves are the whole
    batch it has no loop, and when they are its block runs, a batch of
    whole blocks of n threads, its steps are a prefix of a bound list of
    the slices of n lanes, in each of which a thread's number in its block
    runs from ``low`` to ``high``."""
    if len(region.blocks) != 1:
        return None
    _, at = _slots(region, faults)
    form, [block] = _Source(True, extents), region.blocks
    ends = [k for k, op in enumerate(block.operations) if op.is_terminator]
    if not ends:
        return None
    ops, term = block.operations[:ends[0]], block.operations[ends[0]]
    args, generic = [at[a] for a in block.arguments], term.name == "linalg.yield"
    if generic:
        form.carried.add(args[-1])
        form.arrays.update(args)
    stored = {at[v] for op in ops if op.name == "memref.store" for v in op.operands[1:2]}
    for op in [*ops, term]:
        slots, r = _operands(op, at)
        if op is term or form.carried.intersection(slots) or op.name == "memref.store" or (
                op.name == "memref.load" and stored.intersection(slots[:1])):
            form.carried.add(r)
        if form.arrays.intersection(slots) or op.name in ("gpu.thread_id", "gpu.block_id"):
            form.arrays.add(r)
    skip, exact, runs = _affine(form, ops, at, stored, extents)
    lines, carried, reads = form.hoisted, [], set()  # reads: hoisted arrays the steps read
    lines += [f"[{_locals(args)}] = args", "touched = batch.touched",
              *["first, last, low, high = batch.ends"] * bool(extents)]
    for a in block.arguments:
        v = f"v{at[a]}"
        if isinstance(a.type, ir.MemRefType):
            lines.append(f"d{at[a]}, x{at[a]} = {v}.data, {v}.data.shape")
        elif (wrapped := _lane_wrap(a.type, form, v)) != v:
            lines.append(f"{v} = {wrapped}")
    for op in [*ops, term]:
        slots, r = _operands(op, at)
        form.target = f"v{r}"
        if r in form.carried:
            reads.update(s for s in (slots[:-1] if op in form.sliced else slots)
                         if s in form.arrays and s not in form.carried)
        if r not in skip:
            text = _decode_op(op, at, form)
            if text is None:
                return None
            if op is not term:
                (carried if r in form.carried else lines).extend(text)
        if r in exact:  # after its lanes' corner span, if any
            _exact_span(form, r, *exact[r])
    [(_, ret, _)] = text  # a return: one arm, its line
    buffers = [flats for b, flats in form.accesses.items() if b in stored]
    waves = f"waves({''.join(f'({_texts(flats)}), ' for flats in buffers)})"
    if generic and slots != args[-1:]:  # the accumulator takes the value yielded
        carried.append(f"v{args[-1]} = v{slots[0]}")
    if not (generic or runs) and (not buffers or any(
            c for flats in buffers for c in flats.values())):
        lines += carried + [f"if len({waves}) > 1: raise Sequential"] * bool(buffers)  # one step
    elif carried:
        if runs:  # a batch of whole blocks of n threads: a prefix of their block runs
            n = math.prod(extents[0])
            waves = (f"{form.bind([slice(a * n, a * n + n) for a in range(LANES // n)])}"
                     f"[:(last - first) // {form.bind(n)} + 1]")
        reads = sorted(reads)
        held, read = _locals(reads), _texts(f"m{s}[p]" for s in reads)
        lines += [f"steps = {waves}"] * (not generic) + [
            f"{_texts(f'm{s}' for s in reads)}= {held}"] * bool(reads) + [
            f"for p in {'batch.steps' if generic else 'steps'}:",
            *_indent([f"{held}= {read}"] * bool(reads) + carried)]
    lanes = _function("\n".join(["def compiled(args, batch):", *_indent(lines + ret), ""]),
                      form.namespace)
    lanes.steps = len(ops) + 1
    return lanes


def _affine(form, ops, at, stored, extents):
    """The affine analysis of a kernel's ``ops`` for launches of ``extents``
    (None: none), given ``form``'s carried values and lanes. Each i64 or
    index value not carried gets, where it can, a form c + Σ a_k·x_k (see
    _form); a uniform value without one is its own term. With W_k a launch
    coordinate's weight in the launch-order thread number (see _unravel), a
    form is whole, of stride s >= 1, when a_k = s·W_k on each coordinate of
    extent more than 1, block x's counted as more whatever it is, so that
    any grid x extent shares the function: c + s·g over the batch's thread
    numbers g, ``first`` to ``last``. It is a block run form when its block
    coefficients are 0 instead, in a block of at least MIN_LANES threads:
    c + s·u over its threads' numbers in their block, ``low`` to ``high``,
    which every block of a batch spans. An i64 value keeps only such a
    form, as its lanes could wrap where a form does not. A 1-D access
    through such an index takes a slice (see _lane_memref): a whole load
    from a buffer no op stores to, and every access of the stored buffers
    when each is reached through one kind and stride alone, one wave a
    batch, or one a block run when some are block run forms and a block
    holds at most LANES threads; a load from a stored buffer is copied when
    an op reads it after that buffer's next store. Returns (the values with
    a form, other than their own term, whose lanes no op reads, which make
    no lines; each whole or block run value's (form, span names, stride);
    whether the waves are the block runs)."""
    if extents is None:
        return set(), {}, False
    block, gy, gz = extents
    names, sizes = ("bx", "by", "bz", "tx", "ty", "tz"), (2, gy, gz, *block)
    whole = {k: math.prod(sizes[i + 1:]) for i, k in enumerate(names) if sizes[i] > 1}
    kinds = [(("first", "last"), whole)]
    if math.prod(block) >= MIN_LANES:  # else the block runs are too short for lanes
        kinds.append((("low", "high"), {k: w * (k[0] == "t") for k, w in whole.items()}))
    forms, exact, accesses = {}, {}, {}
    loaded, stores, copies = {}, collections.Counter(), set()
    for op in ops:
        slots, r = _operands(op, at)
        if op in at[_FAULTS]:  # no form, and no lane form: it fails when reached
            continue
        for s in slots:  # a loaded value read after a store to its buffer
            if s in loaded and stores[loaded[s][1]] > loaded[s][2]:
                copies.add(loaded[s][0])
        if op.name == "memref.store":
            stores[slots[1]] += 1
        elif op.name == "memref.load":  # its value -> (op, buffer, stores of it so far)
            loaded[r] = (op, slots[0], stores[slots[0]])
        if op.name in ("memref.load", "memref.store"):
            which = int(op.name == "memref.store")
            idx = slots[which + 1:]
            accesses.setdefault(slots[which], []).append(
                (op, exact[idx[0]][1:] if len(idx) == 1 and idx[0] in exact else None))
        elif r not in form.carried and len(op.results) == 1 and (
                op.results[0].type in (ir.INDEX, ir.I64)):
            f = _form(op, [forms.get(s, None if s in form.arrays or s in form.carried
                                     else {s: 1}) for s in slots], block)
            f = {r: 1} if f is None and r not in form.arrays else f
            for ends, weights in (kinds if f else ()):  # the first kind f has, if any
                s = next((f.get(k, 0) // w for k, w in weights.items() if w), 0)
                if s >= 1 and all(f.get(k, 0) == s * w for k, w in weights.items()):
                    exact[r] = (f, ends, s)
                    break
            if r in exact or f is not None and (
                    op.results[0].type == ir.INDEX or r not in form.arrays):
                forms[r] = f
    shapes = [{k for _, k in found} for b, found in accesses.items() if b in stored]
    scatter = any(len(k) > 1 or None in k for k in shapes)
    runs = math.prod(block) <= LANES and not scatter and any(
        u == ("low", "high") for [(u, _)] in shapes)
    for b, found in accesses.items():
        for op, k in found:
            if k and (not scatter if b in stored else k[0] == ("first", "last")):
                form.sliced[op] = (k[1], b in stored and runs and k[0] == ("first", "last"),
                                   b in stored, op in copies)
    live = set()  # the slots whose lanes an op that makes lines reads
    for op in reversed(ops):
        slots, r = _operands(op, at)
        if r in live or forms.get(r, {r: 1}) == {r: 1}:
            live.update(slots[:-1] if op in form.sliced else slots)  # not a slice's index
    return {r for r, f in forms.items() if r not in live and f != {r: 1}}, exact, runs


def _form(op, terms, block):
    """The form c + Σ a_k·x_k of ``op``'s result, its operands' being
    ``terms`` (None: none), in a block of extents ``block``: a dict from each
    term (None for the constant, a uniform value's slot, or a launch
    coordinate, tx to bz) to its integer coefficient. A constant's or
    block_dim's is its value, a thread_id's or block_id's its coordinate, an
    addi's or subi's the sum or difference of its operands', a muli's by a
    constant the other scaled, and an index_cast's its operand's; else None."""
    dim = getattr(op.attributes.get("dimension"), "text", None)
    value = getattr(op.attributes.get("value"), "value", None)
    if op.name == "arith.constant" and isinstance(value, int):
        return {None: value}
    if op.name == "gpu.block_dim" and dim in _AXES:
        return {None: block[_AXES[dim]]}
    if op.name in ("gpu.thread_id", "gpu.block_id") and dim in _AXES:
        return {("t" if op.name == "gpu.thread_id" else "b") + dim: 1}
    if not terms or None in terms:
        return None
    a, b = terms[0], terms[-1]
    if op.name == "arith.index_cast":
        return a
    if op.name in ("arith.addi", "arith.subi"):
        sign = 1 if op.name == "arith.addi" else -1
        return {k: a.get(k, 0) + sign * b.get(k, 0) for k in {**a, **b}}
    if op.name == "arith.muli" and set(b) <= {None}:
        a, b = b, a  # the constant first
    if op.name == "arith.muli" and set(a) <= {None}:
        return {k: a.get(None, 0) * c for k, c in b.items()}
    return None


def _exact_span(form, r, f, ends, s):
    """Set the span of slot ``r``, of whole or block run form ``f`` = c +
    s·g or c + s·u (see _affine), to its exact ends: ``ends``, g's or u's,
    when ``f`` is g or u, else those of a hoisted line that falls back when
    they leave int64."""
    c = [form.bind(m) if k is None else f"{form.bind(m)} * {form.span(k, form.hoisted)[0]}"
         for k, m in f.items() if not isinstance(k, str)]
    if c or s > 1:
        stride = form.bind(s)
        lo, hi = (" + ".join([*c, f"{stride} * {e}"]) for e in ends)
        form.hoisted.append(f"l{r}, h{r} = fits({lo}, {hi})")
        ends = f"l{r}", f"h{r}"
    form.spans[r] = ends


# ---------------------------------------------------------------------------
# Execution


class _Code:
    """A region's code, each form built when it is first needed and kept by
    the executable: its closures (``decoded``), its kernel lane functions
    (``lanes``, one for each launch extents that _affine reads, see
    _lane_function, decoded on the first such launch of at least MIN_LANES
    threads) and its compiled function (``fast``, built once the region has
    taken HOT back edges, ``backs``, counted across runs), and a generic
    body's plan of its last operand layout (``plan``, see _generic_plan).
    ``fast`` and a function of ``lanes`` are False when the region has no
    such form.
    ``faults`` are the executable's, as in _decode."""

    __slots__ = ("region", "faults", "decoded", "lanes", "backs", "fast", "plan")

    def __init__(self, region: ir.IrRegion, faults):
        self.region, self.faults = region, faults
        self.decoded = self.fast = self.plan = None
        self.lanes, self.backs = {}, 0


class Executable:
    """A module's code: the type and code of each function, made when the
    function first runs and kept for every later run, and its ``faults``. Made
    by ``prepare`` and kept on the module, which it does not refer back to, so
    it is freed with the module; the module must not change while it is in use."""

    __slots__ = ("funcs", "faults", "__weakref__")

    def __init__(self, faults):
        self.funcs = {}  # symbol -> (function type, code)
        self.faults = faults  # op -> its first verifier finding; empty for valid IR

    def function(self, module: ir.IrModule, symbol: str):
        """(function type, code) of @symbol of ``module``, this executable's."""
        if symbol not in self.funcs:
            func = module.lookup_symbol(symbol)
            if func is None or func.name != "func.func":
                raise InterpError(f"no function @{symbol} in the module")
            if func in self.faults:
                raise InterpError(str(self.faults[func]))
            ftype = func.attributes["function_type"].type
            self.funcs[symbol] = ftype, _Code(func.regions[0], self.faults)
        return self.funcs[symbol]


def prepare(module: ir.IrModule) -> Executable:
    """A fresh executable of ``module``, kept on it for run_function and
    run_kernel, which prepare a module on its first run. It verifies the
    module once, against the module's dialect registry, since the verifier
    is the interpreter's only type rule: an op the verifier faults fails
    when reached, with its first finding's text. Preparing again drops the
    code of earlier runs: the way to run a module after editing it, or to
    count HOT back edges from zero."""
    faults = {}
    for d in ir.verify_module(module).diagnostics:
        if d.operation is not None:
            faults.setdefault(d.operation, d)
    module.executable = Executable(faults)
    return module.executable


class _Run:
    """One run of a module on its executable: its step budget, thread
    context and call depth. Code never refers back to the run, so a run
    leaves no cycles."""

    __slots__ = ("module", "exe", "limit", "steps", "ctx", "depth")

    def __init__(self, module: ir.IrModule, limit: int):
        self.module, self.exe = module, module.executable or prepare(module)
        self.limit, self.ctx, self.steps, self.depth = limit, None, 0, 0

    def tick(self):
        self.steps += 1
        if self.steps > self.limit:
            self.exceeded()

    def exceeded(self):
        raise StepLimitExceeded(f"step budget of {self.limit} operations exceeded")

    def function(self, symbol: str, inputs: list):
        """(function type, code) of @symbol, checked against boxed ``inputs``."""
        ftype, code = self.exe.function(self.module, symbol)
        if len(inputs) != len(ftype.inputs):
            raise InterpError(f"@{symbol} takes {len(ftype.inputs)} "
                              f"argument(s), got {len(inputs)}")
        for i, (t, v) in enumerate(zip(ftype.inputs, inputs)):
            _check_compatible(t, v, f"@{symbol} argument {i}")
        return ftype, code

    def call(self, symbol: str, args: list) -> list:
        """Run @symbol on raw ``args``; returns the raw results."""
        _, code = self.exe.function(self.module, symbol)
        self.depth += 1
        if self.depth > MAX_CALL_DEPTH:
            raise InterpError(f"@{symbol}: calls nested deeper than {MAX_CALL_DEPTH}")
        results = _exec(code, args, self)
        self.depth -= 1
        return results


class _Lanes:
    """One lockstep batch: its stores (buffer, index, old values), a
    generic body's steps (the loop points of its box) and a kernel batch's
    ends: its first and last thread numbers, and the least and greatest
    number of a thread in its block, which every block of the batch spans."""

    __slots__ = ("touched", "steps", "ends")

    def __init__(self, steps=None, ends=None):
        self.touched, self.steps, self.ends = [], steps, ends


def _exec(code: _Code, args, run: _Run) -> list:
    """Run a region on raw ``args``; returns the raw values returned."""
    if code.decoded is None:
        code.decoded = _decode(code.region, faults=code.faults)
    size, blocks = code.decoded
    f = [None] * size
    for s, v in zip(blocks[0][0], args):
        f[s] = v
    pos, hot = 0, code.backs >= HOT
    while True:
        if hot:  # at a block boundary, with every value in ``f``
            hot = False
            if code.fast is None:
                code.fast = _compile(code) or False
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
    """Run lane function ``code`` on ``args``; returns the lane values returned."""
    return code(args, lanes)


def run_function(module: ir.IrModule, symbol: str, inputs,
                 step_limit: int = DEFAULT_STEP_LIMIT):
    """Execute @symbol on ``inputs``; returns the list of result values.
    Runs on the module's executable (see ``prepare``)."""
    run, inputs = _Run(module, step_limit), list(inputs)
    ftype, _ = run.function(symbol, inputs)
    with np.errstate(all="ignore"):  # IEEE-754: inf/nan flow silently
        results = run.call(symbol, [_unbox(v) for v in inputs])
    return [v if isinstance(v, RuntimeValue) else value_of_type(t, v)
            for t, v in zip(ftype.results, results)]


def _lockstep(code, args, lanes: _Lanes) -> bool:
    """Run one batch of a kernel in lockstep. False, with the batch's stores
    undone, when it has to run thread by thread: a lane op fell back."""
    try:
        _exec_lanes(code, args, lanes)
        return True
    except _Sequential:
        for data, i, old in reversed(lanes.touched):
            data[i] = old
        return False


def run_kernel(module: ir.IrModule, symbol: str, launch: LaunchConfig, inputs,
               step_limit: int = DEFAULT_STEP_LIMIT):
    """Run @symbol once per (block, thread) coordinate; returns ``inputs``.

    A kernel returns nothing: @symbol's type may have no results. Threads
    run in launch order, lexicographically over (block x,y,z, thread
    x,y,z), so thread ``g`` is thread ``g % T`` of block ``g // T`` for
    ``T`` threads a block. Buffer mutations through memref.store are
    visible in the returned inputs. Each thread has the whole step budget.
    A kernel with a lane form runs in lockstep batches of whole blocks,
    LANES // T of them, or of at most LANES threads of one block when T is
    more, each batch in waves, on the lane function built for the launch's
    block extents and its grid's in y and z (see _lane_function); a batch
    that falls back runs thread by thread. Runs on the module's executable
    (see ``prepare``).
    """
    run, inputs = _Run(module, step_limit), list(inputs)
    ftype, body = run.function(symbol, inputs)
    if ftype.results:
        raise InterpError(f"@{symbol} cannot be launched: a kernel returns no values")
    args = [_unbox(v) for v in inputs]
    (_, gy, gz), (bx, by, bz) = launch.grid, launch.block
    total = math.prod(launch.grid + launch.block)
    extents = (launch.block, gy, gz)
    if total >= MIN_LANES and extents not in body.lanes:  # no batch is smaller
        body.lanes[extents] = _lane_function(body.region, body.faults, extents) or False
    code = total >= MIN_LANES and body.lanes[extents]
    try:
        lane_args = [v if isinstance(v, _ArrayValue) else _np_dtype(t)(v)
                     for t, v in zip(ftype.inputs, args)]
    except OverflowError:  # an index outside int64
        code = None
    bufs = [v.data for v in inputs if isinstance(v, MemRefValue)]
    if (not code or code.steps > step_limit or total >> 63 or any(map(_overlapping, bufs))
            or any(np.may_share_memory(*p) for p in itertools.combinations(bufs, 2))):
        code = None  # a thread's budget, coordinates or buffers lanes cannot track
    n = bx * by * bz
    hi, b = 0, None  # the batch [lo, hi) of thread numbers; b: the last thread's block
    with np.errstate(all="ignore"):
        while hi < total:
            lo, hi = hi, hi + LANES
            if hi // n > lo // n:  # whole blocks, or at most LANES threads of one block
                hi -= hi % n
            hi = min(hi, total)
            if code and hi - lo >= MIN_LANES and _lockstep(
                    code, lane_args, _Lanes(ends=(lo, hi - 1, lo % n, (hi - 1) % n))):
                continue
            for g in range(lo, hi):
                run.steps = 0
                x, y, z = _unravel(g % n, launch.block)
                if g // n != b:
                    b, (blkx, blky, blkz) = g // n, _unravel(g // n, launch.grid)
                run.ctx = (x, blkx, bx), (y, blky, by), (z, blkz, bz)
                _exec(body, args, run)
    return inputs


def _overlapping(data) -> bool:
    """Whether two elements of array ``data`` may share memory: with its
    axes of extent 1 dropped and the rest sorted by |stride|, they may
    unless the least |stride| is at least the itemsize and each is at least
    the one before times its extent."""
    if data.flags.forc:  # contiguous
        return False
    least = data.itemsize
    for stride, extent in sorted((abs(s), e) for s, e in zip(data.strides, data.shape) if e > 1):
        if stride < least:
            return True
        least = stride * extent
    return False


def _unravel(index, extents):
    """The (x, y, z) coordinates of the ``index``-th of ``extents`` in launch
    order, z fastest: of an int, or of int64 lanes. A dimension of extent 1
    is ``index * 0``, and x is ``index`` when y * z is 1."""
    x, y, z = extents
    zero = index * 0
    return (zero if x == 1 else index if y * z == 1 else index // (y * z),
            zero if y == 1 else index // z % y, zero if z == 1 else index % z)


def _unravel_spans(a, b, extents):
    """The (least, greatest) of each (x, y, z) coordinate of the indices
    ``a`` to ``b`` of ``extents`` in launch order: y takes all its values
    when the indices cross a multiple of y * z, and z of z."""
    _, y, z = extents
    return ((a // (y * z), b // (y * z)),
            (a // z % y, b // z % y) if a // (y * z) == b // (y * z) else (0, y - 1),
            (a % z, b % z) if a // z == b // z else (0, z - 1))
