"""Seeded FIR program and input generators for the benchmark workloads.

Everything here is plain Python on text: bridgegen only ever sees the FIR
text and the runtime values produced here. The same (workload, seed) pair
gives byte-identical programs and identical inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from reference import round_f32

INF = math.inf
NAN = math.nan

# Literal pools. Every generated program draws its literals from these, so
# signed zeros and out-of-range values (which parse to +-inf) reach the
# compiler. FIR has no NaN literal; NaN enters through the runtime inputs.
FLOAT_LITERALS = ("0.0", "-0.0", "1.0", "-1.0", "0.5", "2.0", "0.1", "-2.5",
                  "1e-3", "3.0", "1e400", "-1e400", "1e39")
SMALL_INTS = (0, 1, -1, 2, 3, 7, -5, 10, 100, 2 ** 24, -(2 ** 24))
I64_INTS = SMALL_INTS + (2 ** 40, -(2 ** 62), 2 ** 63 - 1)
SPECIAL_FLOATS = (0.0, -0.0, INF, -INF, NAN)
CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")


@dataclass
class Program:
    """One compile unit: FIR text, its entry and argument types, and the
    runtime inputs the differential check runs it on."""

    name: str
    text: str
    entry: str
    types: tuple          # FIR type strings of the entry parameters
    inputs: list = field(default_factory=list)   # list of argument tuples
    family: str = ""
    loop_iters: list = field(default_factory=list)  # per input
    launch: tuple = ()    # (grid blocks, threads per block) for kernels


# ---------------------------------------------------------------------------
# Building FIR functions


class _Fn:
    """Accumulates numbered blocks of statement records for one function."""

    def __init__(self, name, params):
        self.name = name
        self.params = params
        self.blocks = [[]]
        self.next_id = 1

    @property
    def here(self) -> int:
        return len(self.blocks)

    def new_block(self) -> int:
        self.blocks.append([])
        return len(self.blocks)

    def fresh(self) -> int:
        self.next_id += 1
        return self.next_id - 1

    def invoke(self, target, args, rtype) -> str:
        i = self.fresh()
        self.blocks[-1].append(["invoke", i, target, list(args), rtype])
        return f"%{i}"

    def phi(self, incomings, rtype):
        """Append a phi; incomings may be patched later (loop back edges)."""
        i = self.fresh()
        rec = ["phi", i, list(incomings), rtype]
        self.blocks[-1].append(rec)
        return f"%{i}", rec

    def stmt(self, *rec):
        self.blocks[-1].append(list(rec))

    def text(self) -> str:
        params = ", ".join(f"_{k}: {t}" for k, t in enumerate(self.params, 1))
        out = [f"fn {self.name}({params})"]
        for b, block in enumerate(self.blocks, start=1):
            out.append(f"{b}:")
            for rec in block:
                out.append("  " + _stmt_text(rec))
        return "\n".join(out) + "\n"

    def n_statements(self) -> int:
        return sum(len(b) for b in self.blocks)


def _stmt_text(rec) -> str:
    kind = rec[0]
    if kind == "invoke":
        _, i, target, args, rtype = rec
        return f"%{i} = invoke {target}({', '.join(map(str, args))}) :: {rtype}"
    if kind == "phi":
        _, i, incomings, rtype = rec
        inc = ", ".join(f"#{p} => {a}" for p, a in incomings)
        return f"%{i} = phi ({inc}) :: {rtype}"
    if kind == "goto":
        return f"goto #{rec[1]}"
    if kind == "ifnot":
        return f"goto #{rec[2]} ifnot {rec[1]}"
    if kind == "return":
        return "return" if rec[1] is None else f"return {rec[1]}"
    if kind == "nothing":
        return "nothing"
    raise ValueError(rec)


class _Scope:
    """Values visible at the current point: the main-type lane and i64."""

    def __init__(self, main, ints):
        self.main = list(main)
        self.ints = list(ints)

    def child(self):
        return _Scope(self.main, self.ints)


# ---------------------------------------------------------------------------
# compile_many: small random programs


class _RandomProgram:
    def __init__(self, rng: random.Random, ftype: str):
        self.rng = rng
        self.ftype = ftype

    def literal(self):
        rng = self.rng
        if self.ftype == "i64":
            return str(rng.choice(I64_INTS))
        if rng.random() < 0.5:
            return rng.choice(FLOAT_LITERALS)
        return str(rng.choice(SMALL_INTS))

    def pick(self, values):
        rng = self.rng
        if len(values) > 1 and rng.random() < 0.7:
            return values[-1 - rng.randrange(min(3, len(values)))]
        return rng.choice(values)

    def arith(self, fn: _Fn, scope: _Scope, count: int, calls=()):
        """``count`` arithmetic statements (and the given call sites)."""
        rng = self.rng
        slots = ["arith"] * count + list(calls)
        rng.shuffle(slots)
        for slot in slots:
            if slot != "arith":
                args = [self.pick(scope.main), self.pick(scope.main),
                        self.pick(scope.ints)]
                scope.main.append(fn.invoke(slot, args, self.ftype))
                continue
            if rng.random() < 0.2:
                op = rng.choice("+-*")
                a, b = self.pick(scope.ints), self.pick(scope.ints)
                if rng.random() < 0.4:
                    lit = str(rng.choice(I64_INTS))
                    a, b = (lit, b) if rng.random() < 0.5 else (a, lit)
                scope.ints.append(fn.invoke(op, [a, b], "i64"))
                continue
            if self.ftype != "i64" and rng.random() < 0.2:
                op = rng.choice(("-", "exp"))
                scope.main.append(fn.invoke(op, [self.pick(scope.main)],
                                            self.ftype))
                continue
            ops = "+-*" if self.ftype == "i64" else "+-*/"
            op = rng.choice(ops)
            a, b = self.pick(scope.main), self.pick(scope.main)
            if rng.random() < 0.4:
                lit = self.literal()
                a, b = (lit, b) if rng.random() < 0.5 else (a, lit)
            scope.main.append(fn.invoke(op, [a, b], self.ftype))

    def condition(self, fn: _Fn, scope: _Scope) -> str:
        a = self.pick(scope.ints)
        b = (str(self.rng.randint(-3, 5)) if self.rng.random() < 0.6
             else self.pick(scope.ints))
        return fn.invoke(self.rng.choice(CMP_OPS), [a, b], "i1")

    def phi_incoming(self, value):
        if self.rng.random() < 0.15:
            return self.literal()
        return value

    # -- constructs; each leaves the function positioned in a fresh block

    def diamond(self, fn, scope, counts, calls):
        c = self.condition(fn, scope)
        head = fn.here
        fn.stmt("ifnot", c, head + 2)
        fn.new_block()
        then = scope.child()
        self.arith(fn, then, counts[0], calls[0])
        fn.stmt("goto", head + 3)
        fn.new_block()
        other = scope.child()
        self.arith(fn, other, counts[1], calls[1])
        fn.new_block()
        v, _ = fn.phi([(head + 1, self.phi_incoming(then.main[-1])),
                       (head + 2, self.phi_incoming(other.main[-1]))],
                      self.ftype)
        scope.main.append(v)
        if self.rng.random() < 0.5:
            k, _ = fn.phi([(head + 1, then.ints[-1]),
                           (head + 2, other.ints[-1])], "i64")
            scope.ints.append(k)

    def triangle(self, fn, scope, counts, calls):
        c = self.condition(fn, scope)
        head = fn.here
        before = scope.main[-1]
        fn.stmt("ifnot", c, head + 2)
        fn.new_block()
        then = scope.child()
        self.arith(fn, then, counts[0], calls[0])
        fn.new_block()
        v, _ = fn.phi([(head, self.phi_incoming(before)),
                       (head + 1, then.main[-1])], self.ftype)
        scope.main.append(v)

    def loop(self, fn, scope, count, calls, trips):
        def body(acc, i):
            inner = scope.child()
            inner.main.append(acc)
            inner.ints.append(i)
            self.arith(fn, inner, count, calls)
            if inner.main[-1] == acc:  # the accumulator must change each trip
                inner.main.append(fn.invoke("+", [acc, self.literal()], self.ftype))
            return inner.main[-1]

        scope.main.append(_counted_loop(fn, scope.main[-1], str(trips),
                                        self.ftype, body))


def _helper(rng: random.Random, name: str, ftype: str) -> _Fn:
    """Helper with parameters (T, T, i64): straight-line or two returns."""
    gen = _RandomProgram(rng, ftype)
    fn = _Fn(name, [ftype, ftype, "i64"])
    scope = _Scope(["_1", "_2"], ["_3"])
    gen.arith(fn, scope, rng.randint(1, 4))
    if rng.random() < 0.5:
        c = gen.condition(fn, scope)
        fn.stmt("ifnot", c, fn.here + 2)
        fn.new_block()
        then = scope.child()
        gen.arith(fn, then, rng.randint(1, 3))
        fn.stmt("return", then.main[-1])
        fn.new_block()
        gen.arith(fn, scope, rng.randint(1, 3))
    fn.stmt("return", scope.main[-1])
    return fn


def many_programs(rng: random.Random, count: int):
    """``count`` random programs of 5-60 statements each."""
    out = []
    while len(out) < count:
        p = random_program(rng, f"p{len(out)}")
        if 5 <= statement_count(p.text) <= 60:
            out.append(p)
    return out


def statement_count(text: str) -> int:
    """FIR statements in ``text``: every line that is not a header."""
    return sum(1 for line in text.splitlines()
               if line.strip() and not line.startswith("fn ")
               and not line.rstrip().endswith(":"))


def random_program(rng: random.Random, name: str) -> Program:
    """A program with 1-8 blocks in its entry function and 0-3 helpers
    inlined at 1-4 call sites each."""
    ftype = rng.choice(("f32", "f64", "i64"))
    gen = _RandomProgram(rng, ftype)
    helpers = [_helper(rng, f"h{k}", ftype) for k in range(rng.randint(0, 3))]
    sites = [h.name for h in helpers for _ in range(rng.randint(1, 4))]
    rng.shuffle(sites)

    max_blocks = rng.randint(1, 8)
    constructs = []
    blocks = 1
    while True:
        options = [c for c, cost in (("diamond", 3), ("triangle", 2), ("loop", 3))
                   if blocks + cost <= max_blocks]
        if not options or rng.random() < 0.25:
            break
        kind = rng.choice(options)
        constructs.append(kind)
        blocks += {"diamond": 3, "triangle": 2, "loop": 3}[kind]

    # arithmetic slots: entry segment, two per construct, tail after each
    n_slots = 1 + 2 * len(constructs)
    target = (rng.randint(5, 60) - sum(h.n_statements() for h in helpers)
              - len(sites) - 6 * len(constructs) - 1)
    per_slot = max(1, target // n_slots)
    counts = [rng.randint(max(1, per_slot // 2), max(1, per_slot * 3 // 2))
              for _ in range(n_slots)]
    site_slots = [[] for _ in range(n_slots)]
    for s in sites:
        site_slots[rng.randrange(n_slots)].append(s)

    fn = _Fn("main", [ftype, ftype, "i64"])
    scope = _Scope(["_1", "_2"], ["_3"])
    gen.arith(fn, scope, counts[0], site_slots[0])
    trips = []
    for k, kind in enumerate(constructs):
        inner = counts[1 + 2 * k:1 + 2 * k + 2]
        inner_calls = site_slots[1 + 2 * k:1 + 2 * k + 2]
        if kind == "diamond":
            gen.diamond(fn, scope, [max(1, inner[0] // 2), max(1, inner[0] - inner[0] // 2)],
                        [inner_calls[0], []])
        elif kind == "triangle":
            gen.triangle(fn, scope, [inner[0]], [inner_calls[0]])
        else:
            t = rng.randint(2, 10)
            trips.append(t)
            gen.loop(fn, scope, max(1, inner[0]), inner_calls[0], t)
        gen.arith(fn, scope, inner[1], inner_calls[1])
    fn.stmt("return", scope.main[-1])

    text = fn.text() + "".join(h.text() for h in helpers)
    inputs = [_random_args(rng, ftype) for _ in range(2)]
    return Program(name, text, "main", (ftype, ftype, "i64"), inputs,
                   loop_iters=[sum(trips)] * len(inputs))


def _random_float(rng: random.Random, ftype: str) -> float:
    if rng.random() < 0.25:
        return rng.choice(SPECIAL_FLOATS)
    x = rng.uniform(-3.0, 3.0)
    return round_f32(x) if ftype == "f32" else x


def _random_args(rng: random.Random, ftype: str):
    if ftype == "i64":
        main = [rng.choice(I64_INTS) if rng.random() < 0.3 else rng.randint(-9, 9)
                for _ in range(2)]
    else:
        main = [_random_float(rng, ftype) for _ in range(2)]
    return (main[0], main[1], rng.randint(-3, 5))


# ---------------------------------------------------------------------------
# compile_large: three scaled families


def chain_program(rng: random.Random, n: int) -> Program:
    """Straight-line f64 chain of ``n`` binary ops over a few repeated literals."""
    pool = rng.sample(FLOAT_LITERALS, 5) + [str(v) for v in rng.sample(SMALL_INTS, 3)]
    fn = _Fn("chain", ["f64", "f64"])
    prev = "_1"
    for _ in range(n):
        other = rng.choice(pool) if rng.random() < 0.8 else "_2"
        a, b = (prev, other) if rng.random() < 0.7 else (other, prev)
        prev = fn.invoke(rng.choice("+-*/"), [a, b], "f64")
    fn.stmt("return", prev)
    return Program(f"chain{n}", fn.text(), "chain", ("f64", "f64"),
                   [(_random_float(rng, "f64"), _random_float(rng, "f64"))],
                   family="chain")


def diamond_program(rng: random.Random, n_diamonds: int) -> Program:
    """A chain of if/else diamonds joined by phis: 1 + 3 * n blocks. The
    seed picks operations and literals only, so the shape is fixed."""
    fn = _Fn("diamond", ["f64", "f64", "i64"])
    x = fn.invoke("+", ["_1", rng.choice(FLOAT_LITERALS)], "f64")
    for _ in range(n_diamonds):
        c = fn.invoke(rng.choice(CMP_OPS), ["_3", str(rng.randint(-3, 5))], "i1")
        head = fn.here
        fn.stmt("ifnot", c, head + 2)
        fn.new_block()
        a = fn.invoke(rng.choice("+-*/"), [x, rng.choice(FLOAT_LITERALS)], "f64")
        fn.stmt("goto", head + 3)
        fn.new_block()
        b = fn.invoke(rng.choice("+-*/"), [x, "_2"], "f64")
        fn.new_block()
        x, _ = fn.phi([(head + 1, a), (head + 2, b)], "f64")
    fn.stmt("return", x)
    return Program(f"diamond{fn.here}", fn.text(), "diamond",
                   ("f64", "f64", "i64"), [_random_args(rng, "f64")],
                   family="diamond")


def fanout_program(rng: random.Random, sites: int) -> Program:
    """One straight-line helper inlined at ``sites`` call sites."""
    helper = _Fn("h", ["f64", "f64"])
    prev = "_1"
    for _ in range(5):
        prev = helper.invoke(rng.choice("+-*"),
                             [prev, rng.choice(FLOAT_LITERALS + ("_2",))], "f64")
    helper.stmt("return", prev)
    fn = _Fn("fanout", ["f64", "f64"])
    prev = "_1"
    for _ in range(sites):
        prev = fn.invoke("h", [prev, "_2"], "f64")
        prev = fn.invoke(rng.choice("+*"), [prev, rng.choice(FLOAT_LITERALS)], "f64")
    fn.stmt("return", prev)
    return Program(f"fanout{sites}", fn.text() + helper.text(), "fanout",
                   ("f64", "f64"),
                   [(_random_float(rng, "f64"), _random_float(rng, "f64"))],
                   family="fanout")


# ---------------------------------------------------------------------------
# interp_loops: loop programs run under the interpreter


def _counted_loop(fn: _Fn, init, bound, ftype, body):
    """``for i in range(bound): acc = body(acc, i)`` starting at ``init``;
    returns the accumulator phi. Leaves the function in the exit block."""
    pre = fn.here
    fn.new_block()
    header = fn.here
    acc, acc_rec = fn.phi([(pre, init)], ftype)
    i, i_rec = fn.phi([(pre, "0")], "i64")
    c = fn.invoke("<", [i, bound], "i1")
    fn.stmt("ifnot", c, None)
    exit_rec = fn.blocks[-1][-1]
    fn.new_block()
    new_acc = body(acc, i)
    step = fn.invoke("+", [i, "1"], "i64")
    fn.stmt("goto", header)
    acc_rec[2].append((fn.here, new_acc))
    i_rec[2].append((fn.here, step))
    fn.new_block()
    exit_rec[2] = fn.here
    return acc


def sumto() -> _Fn:
    fn = _Fn("sumto", ["i64"])
    fn.stmt("nothing")
    pre = fn.here
    fn.new_block()
    s, s_rec = fn.phi([(pre, "0")], "i64")
    i, i_rec = fn.phi([(pre, "1")], "i64")
    c = fn.invoke("<=", [i, "_1"], "i1")
    fn.stmt("ifnot", c, fn.here + 2)
    fn.new_block()
    s2 = fn.invoke("+", [s, i], "i64")
    i2 = fn.invoke("+", [i, "1"], "i64")
    fn.stmt("goto", fn.here - 1)
    s_rec[2].append((fn.here, s2))
    i_rec[2].append((fn.here, i2))
    fn.new_block()
    fn.stmt("return", s)
    return fn


def _recurrence(rng, ftype) -> _Fn:
    """x <- x / (a + exp(-(x * b))) + c, ``_2`` times."""
    a = rng.choice(("1.0", "2.0", "0.5", "3"))
    b = rng.choice(("0.5", "1.0", "0.1", "2"))
    c = rng.choice(("0.1", "0.5", "1.0", "-2.5", "-0.0", "0.0"))
    fn = _Fn(f"rec_{ftype}", [ftype, "i64"])
    fn.stmt("nothing")

    def body(x, i):
        t = fn.invoke("*", [x, b], ftype)
        t = fn.invoke("-", [t], ftype)
        t = fn.invoke("exp", [t], ftype)
        t = fn.invoke("+", [t, a], ftype)
        t = fn.invoke("/", [x, t], ftype)
        return fn.invoke("+", [t, c], ftype)

    fn.stmt("return", _counted_loop(fn, "_1", "_2", ftype, body))
    return fn


def _nest(rng) -> _Fn:
    """Two-level loop nest over ``_2`` x ``_3`` trips."""
    a = rng.choice(("0.5", "0.25", "-0.5", "1.0"))
    c = rng.choice(("1.0", "0.1", "-0.0", "3"))
    fn = _Fn("nest", ["f64", "i64", "i64"])
    fn.stmt("nothing")

    def inner(x, j):
        t = fn.invoke("*", [x, a], "f64")
        return fn.invoke("+", [t, c], "f64")

    def outer(x, i):
        fn.stmt("nothing")
        y = _counted_loop(fn, x, "_3", "f64", inner)
        return fn.invoke("-", [y, "_1"], "f64")

    fn.stmt("return", _counted_loop(fn, "_1", "_2", "f64", outer))
    return fn


def _callloop(rng):
    """A loop whose body is a helper call, inlined by the compiler."""
    a = rng.choice(("0.5", "0.9", "-0.5", "1.0"))
    helper = _Fn("step", ["f64", "f64"])
    t = helper.invoke("*", ["_1", a], "f64")
    u = helper.invoke("-", ["_2"], "f64")
    u = helper.invoke("exp", [u], "f64")
    helper.stmt("return", helper.invoke("+", [t, u], "f64"))
    fn = _Fn("callloop", ["f64", "i64"])
    fn.stmt("nothing")

    def body(x, i):
        y = fn.invoke("step", [x, "_1"], "f64")
        return fn.invoke("*", [y, "0.5"], "f64")

    fn.stmt("return", _counted_loop(fn, "_1", "_2", "f64", body))
    return fn, helper


# Trip counts per call. Four calls per program and pass; about 5.7e4 loop
# iterations per pass, which the interpreter runs in about a second.
SUMTO_N = 5000
REC_N = 2500
NEST_N, NEST_M = 30, 60
CALLLOOP_N = 2500
LOOP_CALLS = 4


def loop_programs(rng: random.Random):
    """The interp_loops programs with their inputs and iteration counts."""
    out = []
    fn = sumto()
    out.append(Program("sumto", fn.text(), "sumto", ("i64",),
                       [(SUMTO_N,)] * LOOP_CALLS, loop_iters=[SUMTO_N] * LOOP_CALLS))
    for ftype in ("f64", "f32"):
        fn = _recurrence(rng, ftype)
        inputs = [(_random_float(rng, ftype), REC_N) for _ in range(LOOP_CALLS)]
        out.append(Program(fn.name, fn.text(), fn.name, (ftype, "i64"), inputs,
                           loop_iters=[REC_N] * LOOP_CALLS))
    fn = _nest(rng)
    inputs = [(_random_float(rng, "f64"), NEST_N, NEST_M) for _ in range(LOOP_CALLS)]
    out.append(Program("nest", fn.text(), "nest", ("f64", "i64", "i64"), inputs,
                       loop_iters=[NEST_N + NEST_N * NEST_M] * LOOP_CALLS))
    fn, helper = _callloop(rng)
    inputs = [(_random_float(rng, "f64"), CALLLOOP_N) for _ in range(LOOP_CALLS)]
    out.append(Program("callloop", fn.text() + helper.text(), "callloop",
                       ("f64", "i64"), inputs, loop_iters=[CALLLOOP_N] * LOOP_CALLS))
    return out


# ---------------------------------------------------------------------------
# interp_kernels: einsum specs and GPU kernels


# name -> (einsum spec, extent of each index)
EINSUMS = {
    "matmul": ("(i,k),(k,j)->(i,j)", {"i": 24, "k": 24, "j": 24}),
    "ewise": ("(i,j),(i,j)->(i,j)", {"i": 96, "j": 96}),
    "rowsum": ("(i,j)->(i)", {"i": 96, "j": 96}),
    "bmm": ("(b,i,k),(b,k,j)->(b,i,j)", {"b": 4, "i": 12, "k": 12, "j": 12}),
}

# name -> (grid blocks, threads per block); every launch is 1-D
KERNELS = {"vadd": (64, 64), "saxpy": (32, 128), "collide": (64, 64)}

_GID = ("  %1 = invoke block_idx_x() :: index\n"
        "  %2 = invoke block_dim_x() :: index\n"
        "  %3 = invoke *(%1, %2) :: index\n"
        "  %4 = invoke thread_idx_x() :: index\n"
        "  %5 = invoke +(%3, %4) :: index\n")


def kernel_text(name: str, literal: str = "2.0") -> str:
    """FIR for one kernel. ``collide`` stores to ``thread_idx_x`` in every
    block, so the blocks overwrite each other and the last one in launch
    order wins; each thread also reads the slot it overwrites."""
    if name == "vadd":
        return ("fn vadd(_1: memref{f32,1}, _2: memref{f32,1}, _3: memref{f32,1})\n1:\n"
                + _GID
                + "  %6 = invoke load(_1, %5) :: f32\n"
                  "  %7 = invoke load(_2, %5) :: f32\n"
                  "  %8 = invoke +(%6, %7) :: f32\n"
                  "  %9 = invoke store(%8, _3, %5) :: Nothing\n"
                  "  return\n")
    if name == "saxpy":
        return ("fn saxpy(_1: f32, _2: memref{f32,1}, _3: memref{f32,1})\n1:\n"
                + _GID
                + "  %6 = invoke load(_2, %5) :: f32\n"
                  "  %7 = invoke load(_3, %5) :: f32\n"
                  "  %8 = invoke *(_1, %6) :: f32\n"
                  "  %9 = invoke +(%8, %7) :: f32\n"
                  "  %10 = invoke store(%9, _3, %5) :: Nothing\n"
                  "  return\n")
    if name == "collide":
        return ("fn collide(_1: memref{f32,1}, _2: memref{f32,1})\n1:\n"
                + _GID
                + "  %6 = invoke load(_1, %4) :: f32\n"
                  f"  %7 = invoke *(%6, {literal}) :: f32\n"
                  "  %8 = invoke load(_2, %5) :: f32\n"
                  "  %9 = invoke +(%7, %8) :: f32\n"
                  "  %10 = invoke store(%9, _1, %4) :: Nothing\n"
                  "  return\n")
    raise KeyError(name)


KERNEL_TYPES = {
    "vadd": ("memref{f32,1}",) * 3,
    "saxpy": ("f32", "memref{f32,1}", "memref{f32,1}"),
    "collide": ("memref{f32,1}",) * 2,
}


def f32_array(rng: random.Random, n: int):
    """``n`` float32 values, mostly in [-2, 2) with a few specials."""
    import numpy as np

    gen = np.random.default_rng(rng.getrandbits(64))
    data = gen.uniform(-2.0, 2.0, n).astype(np.float32)
    special = gen.random(n) < 0.002
    data[special] = gen.choice(np.array(SPECIAL_FLOATS, dtype=np.float32),
                               int(special.sum()))
    return data
