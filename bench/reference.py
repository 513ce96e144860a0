"""Independent reference semantics for every output the benchmark checks.

Nothing here imports bridgegen. The FIR evaluator parses the source text
itself and runs the program before inlining, calling helpers directly:

* f32 values are held as Python floats rounded to float32 after every
  operation; f64 values are Python floats; i64 values wrap at 64 bits.
* A literal takes the type of the operation's typed operand (int and
  float literals promote to f32/f64; an f32 literal is rounded to f32),
  and a phi literal takes the phi's type.
* ``exp`` is numpy's exp at the declared width. That is the platform's
  single/double precision exp: numpy's float32 exp is not correctly
  rounded, and ``math.exp`` differs from numpy's in the last bit on some
  f64 inputs, so the reference pins the same library function.
* Results compare bit for bit, except that any NaN equals any NaN.

The evaluator also counts block visits; :func:`dynamic_ops` turns them
into the number of IR operations the interpreter executes.
"""

from __future__ import annotations

import itertools
import math
import re
import struct
from collections import Counter

import numpy as np

_FN_RE = re.compile(r"fn\s+(\S+)\s*\((.*)\)\s*$")
_BLOCK_RE = re.compile(r"(\d+):\s*$")
_INVOKE_RE = re.compile(r"%(\d+)\s*=\s*invoke\s+([^\s(]+)\((.*)\)\s*::\s*(\S+)\s*$")
_PHI_RE = re.compile(r"%(\d+)\s*=\s*phi\s*\((.*)\)\s*::\s*(\S+)\s*$")
_GOTO_IFNOT_RE = re.compile(r"goto\s+#(\d+)\s+ifnot\s+(\S+)\s*$")
_GOTO_RE = re.compile(r"goto\s+#(\d+)\s*$")
_RETURN_RE = re.compile(r"return(?:\s+(\S+))?\s*$")

_CMP = {
    "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b, "!=": lambda a, b: a != b,
}
_I64 = 1 << 64
STEP_LIMIT = 10 ** 7


class RefError(Exception):
    """The reference cannot evaluate the program (a generator defect)."""


def round_f32(x: float) -> float:
    """Nearest float32 of ``x`` (round to nearest even), as a float."""
    if x != x or x in (math.inf, -math.inf):
        return x
    try:
        return struct.unpack("<f", struct.pack("<f", x))[0]
    except OverflowError:  # beyond the largest float32: rounds to inf
        return math.copysign(math.inf, x)


def _wrap64(v: int) -> int:
    return ((v + (1 << 63)) % _I64) - (1 << 63)


def _div(a: float, b: float) -> float:
    if b == 0.0:
        if a == 0.0 or a != a:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)
    return a / b


def _exp(x: float, ftype: str) -> float:
    with np.errstate(all="ignore"):
        if ftype == "f32":
            return float(np.exp(np.float32(x)))
        return float(np.exp(np.float64(x)))


def _float_op(op, args, ftype):
    if op == "exp":
        return _exp(args[0], ftype)
    if op == "-" and len(args) == 1:
        return -args[0]
    a, b = args
    if op == "+":
        r = a + b
    elif op == "-":
        r = a - b
    elif op == "*":
        r = a * b
    elif op == "/":
        r = _div(a, b)
    else:
        raise RefError(f"no float operation '{op}'")
    return round_f32(r) if ftype == "f32" else r


def _int_op(op, args):
    a, b = args
    if op == "+":
        return _wrap64(a + b)
    if op == "-":
        return _wrap64(a - b)
    if op == "*":
        return _wrap64(a * b)
    raise RefError(f"no i64 operation '{op}'")


def convert_literal(text: str, ftype: str):
    """A literal's value as an operand of type ``ftype``."""
    if ftype == "i64":
        if not re.fullmatch(r"-?\d+", text):
            raise RefError(f"literal {text} is not an integer")
        return _wrap64(int(text))
    value = float(text)
    return round_f32(value) if ftype == "f32" else value


# ---------------------------------------------------------------------------
# Parsing


class Function:
    def __init__(self, name, params):
        self.name = name
        self.params = params   # type strings
        self.blocks = []       # lists of statement tuples


def parse(text: str):
    """Function name -> Function. Statements are tuples:
    ("invoke", dest, target, args, type), ("phi", dest, {pred: arg}, type),
    ("goto", target), ("ifnot", cond, target), ("return", arg|None),
    ("nothing",). Operands stay as their source tokens."""
    functions = {}
    fn = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _FN_RE.match(line)
        if m:
            params = [p.split(":", 1)[1].strip()
                      for p in _split_params(m.group(2))]
            fn = functions[m.group(1)] = Function(m.group(1), params)
            continue
        if _BLOCK_RE.match(line):
            fn.blocks.append([])
            continue
        block = fn.blocks[-1]
        m = _INVOKE_RE.match(line)
        if m:
            args = [a.strip() for a in m.group(3).split(",") if a.strip()]
            block.append(("invoke", "%" + m.group(1), m.group(2), args, m.group(4)))
            continue
        m = _PHI_RE.match(line)
        if m:
            incomings = {}
            for part in m.group(2).split(","):
                pred, arg = part.split("=>")
                incomings[int(pred.strip().lstrip("#"))] = arg.strip()
            block.append(("phi", "%" + m.group(1), incomings, m.group(3)))
            continue
        m = _GOTO_IFNOT_RE.match(line)
        if m:
            block.append(("ifnot", m.group(2), int(m.group(1))))
            continue
        m = _GOTO_RE.match(line)
        if m:
            block.append(("goto", int(m.group(1))))
            continue
        m = _RETURN_RE.match(line)
        if m:
            block.append(("return", m.group(1)))
            continue
        if line == "nothing":
            block.append(("nothing",))
            continue
        raise RefError(f"cannot parse '{line}'")
    return functions


def _split_params(text):
    out, depth, cur = [], 0, ""
    for ch in text:
        depth += ch == "{"
        depth -= ch == "}"
        if ch == "," and depth == 0:
            out.append(cur)
            cur = ""
        else:
            cur += ch
    if cur.strip():
        out.append(cur)
    return out


# ---------------------------------------------------------------------------
# Evaluation


class Evaluator:
    """Runs functions of one parsed program; ``visits`` counts
    (function, block) entries over every call made through it."""

    def __init__(self, functions):
        self.functions = functions
        self.visits = Counter()
        self.steps = 0

    def call(self, name, args):
        fn = self.functions[name]
        env = {f"_{k}": v for k, v in enumerate(args, start=1)}
        types = {f"_{k}": t for k, t in enumerate(fn.params, start=1)}
        for block in fn.blocks:
            for st in block:
                if st[0] in ("invoke", "phi"):
                    types[st[1]] = st[-1]

        def operand(token, ftype):
            if token in env:
                return env[token]
            return convert_literal(token, ftype)

        n_blocks = len(fn.blocks)
        b, pred = 1, None
        while True:
            self.visits[(name, b)] += 1
            block = fn.blocks[b - 1]
            # phis read the environment as it was on the incoming edge
            phis = [(st[1], operand(st[2][pred], st[3]))
                    for st in block if st[0] == "phi"]
            env.update(phis)
            nxt = b + 1
            for st in block:
                self.steps += 1
                if self.steps > STEP_LIMIT:
                    raise RefError("step limit exceeded")
                kind = st[0]
                if kind == "invoke":
                    env[st[1]] = self._invoke(st, types, operand)
                elif kind == "goto":
                    nxt = st[1]
                    break
                elif kind == "ifnot":
                    if not env[st[1]]:
                        nxt = st[2]
                    break
                elif kind == "return":
                    return None if st[1] is None else env[st[1]]
            if nxt > n_blocks:
                raise RefError(f"{name}: control falls off block {b}")
            b, pred = nxt, b

    def _invoke(self, st, types, operand):
        _, dest, target, args, rtype = st
        if target in self.functions:
            return self.call(target, [operand(a, None) for a in args])
        typed = [types[a] for a in args if a in types]
        if not typed:
            raise RefError(f"{dest}: no typed operand")
        ftype = typed[0]
        values = [operand(a, ftype) for a in args]
        if target in _CMP:
            if rtype != "i1":
                raise RefError(f"{dest}: comparison must yield i1")
            return _CMP[target](*values)
        if rtype != ftype:
            raise RefError(f"{dest}: {target} on {ftype} declared {rtype}")
        if ftype in ("f32", "f64"):
            return _float_op(target, values, ftype)
        if ftype == "i64":
            return _int_op(target, values)
        raise RefError(f"{dest}: no reference for {target} on {ftype}")


def run(functions, entry, args, visits: Counter = None):
    """Evaluate ``entry`` on ``args``; adds block visits to ``visits``."""
    ev = Evaluator(functions)
    out = ev.call(entry, list(args))
    if visits is not None:
        visits.update(ev.visits)
    return out


# ---------------------------------------------------------------------------
# Dynamic operation count


def block_ops(fn: Function, b: int) -> int:
    """IR operations that block ``b`` of ``fn`` lowers to.

    Every intrinsic call builds one operation; a helper call becomes the
    branch into the inlined body and a helper's return the branch out of
    it; phis become block arguments; an i1 branch condition needs no
    conversion; a block without a terminator gains a branch.
    """
    n = 0
    terminated = False
    for st in fn.blocks[b - 1]:
        if st[0] in ("invoke", "goto", "ifnot", "return"):
            n += 1
        terminated = terminated or st[0] in ("goto", "ifnot", "return")
    return n if terminated else n + 1


def dynamic_ops(functions, visits: Counter, calls: int, constants: int) -> int:
    """IR operations executed: block visits times block sizes, plus the
    entry block's constants once per call."""
    total = sum(count * block_ops(functions[fn], b)
                for (fn, b), count in visits.items())
    return total + calls * constants


# ---------------------------------------------------------------------------
# Comparison


def same(a, b) -> bool:
    """Bit-for-bit equality, with any NaN equal to any NaN."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape or a.dtype != b.dtype:
            return False
        if a.dtype.kind != "f":
            return bool(np.array_equal(a, b))
        bits = {4: np.uint32, 8: np.uint64}[a.dtype.itemsize]
        nan = np.isnan(a) & np.isnan(b)
        return bool(np.all((a.view(bits) == b.view(bits)) | nan))
    if isinstance(a, float) or isinstance(b, float):
        if not (isinstance(a, float) and isinstance(b, float)):
            return False
        if a != a or b != b:
            return a != a and b != b
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


# ---------------------------------------------------------------------------
# Einsum and kernels (numpy)


def einsum_axes(spec: str):
    """Input index tuples, output tuple and the loop order over axes: the
    output indices, then the other input indices in first-use order."""
    lhs, rhs = spec.split("->")
    inputs = [tuple(t.split(",")) for t in re.findall(r"\(([^()]*)\)", lhs)]
    output = tuple(re.findall(r"\(([^()]*)\)", rhs)[0].split(","))
    axes = list(output)
    for tup in inputs:
        axes += [i for i in tup if i not in axes]
    return inputs, output, axes


def einsum_reference(spec: str, operands, out_init):
    """float32 result of the einsum body over the iteration space.

    The body multiplies the input elements left to right and adds the
    output element; a lone input with no reduction is copied. Each output
    element accumulates its reduction points in loop order, so the loop
    below runs the reduction axes in that order and the output axes as
    numpy lanes, rounding every operation to float32.
    """
    inputs, output, axes = einsum_axes(spec)
    extents = {}
    for arr, tup in zip(list(operands) + [out_init], inputs + [output]):
        extents.update(zip(tup, arr.shape))
    reduction = [a for a in axes if a not in output]
    out = np.array(out_init, dtype=np.float32, copy=True)
    if len(inputs) == 1 and not reduction:
        return np.array(operands[0], dtype=np.float32, copy=True)
    lanes = {a: np.arange(extents[a]).reshape(
        [-1 if k == p else 1 for k in range(len(output))])
        for p, a in enumerate(output)}
    for point in itertools.product(*(range(extents[a]) for a in reduction)):
        at = dict(zip(reduction, point))
        values = [arr[tuple(lanes[i] if i in lanes else at[i] for i in tup)]
                  for arr, tup in zip(operands, inputs)]
        acc = values[0]
        for v in values[1:]:
            acc = (acc * v).astype(np.float32)
        out = (np.broadcast_to(acc, out.shape) + out).astype(np.float32)
    return out


def einsum_points(spec: str, shapes) -> int:
    inputs, output, axes = einsum_axes(spec)
    extents = {}
    for shape, tup in zip(shapes, inputs + [output]):
        extents.update(zip(tup, shape))
    return math.prod(extents[a] for a in axes)


def kernel_reference(name: str, grid: int, block: int, args, literal=2.0):
    """Buffers after a 1-D launch of ``grid`` blocks of ``block`` threads.

    Threads run in launch order: block by block, thread by thread. Within
    one block no two threads touch the same slot, so each block is one
    numpy step; ``collide`` then sees every earlier block's stores.
    """
    n = grid * block
    if name == "vadd":
        a, b, c = (np.array(x, dtype=np.float32) for x in args)
        c[:n] = a[:n] + b[:n]
        return [a, b, c]
    if name == "saxpy":
        alpha, x, y = np.float32(args[0]), np.array(args[1], np.float32), \
            np.array(args[2], np.float32)
        y[:n] = (alpha * x[:n]).astype(np.float32) + y[:n]
        return [float(alpha), x, y]
    if name == "collide":
        buf, src = (np.array(x, dtype=np.float32) for x in args)
        t = np.arange(block)
        lit = np.float32(literal)
        for blk in range(grid):
            buf[t] = (buf[t] * lit).astype(np.float32) + src[blk * block + t]
        return [buf, src]
    raise KeyError(name)
