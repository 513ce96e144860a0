"""Typed SSA frontend IR ("FIR"): the source language of the translator.

A FIR function is a sequence of 1-based numbered basic blocks holding
invoke/phi/goto/gotoifnot/return statements over SSA ids (``%n``),
parameters (``_k``), and literals. ``goto #k ifnot c`` falls through to
the lexically next block when the condition holds.

This module provides the text parser, a validation pass, forced call
inlining, and the bool-conversion insertion pass that runs before
translation. Frontend types and statement arguments are immutable values
(``_record.Frozen``); statements, functions and programs are records
(``_record.Record``), equal when their fields are.
"""

from __future__ import annotations

import math
import re

from ._record import Frozen, Record, setfield

__all__ = [
    "FrontendType",
    "Concrete",
    "Abstract",
    "AnyFrontend",
    "ANY",
    "F32",
    "F64",
    "I64",
    "I1",
    "INDEX",
    "BOOL",
    "NOTHING",
    "ABSTRACT_FLOAT",
    "INTEGER",
    "tensor_of",
    "complex_of",
    "subtype",
    "MAX_DIGITS",
    "MAX_TYPE_DEPTH",
    "overlong_number",
    "parse_frontend_type",
    "FirArg",
    "SsaRef",
    "ParamRef",
    "IntLit",
    "FloatLit",
    "BoolLit",
    "Invoke",
    "Phi",
    "Goto",
    "GotoIfNot",
    "Return",
    "Nothing",
    "FirFunction",
    "FirProgram",
    "FirError",
    "BOOL_CONVERSION",
    "parse_program",
    "print_fir",
    "validate_fir",
    "arg_typer",
    "block_edges",
    "predecessors",
    "reachable_blocks",
    "inline_calls",
    "insert_bool_conversions",
]


class FirError(Exception):
    """Parse or transform failure in frontend IR."""


BOOL_CONVERSION = "bool_conversion_intrinsic"


# ---------------------------------------------------------------------------
# Frontend types


class FrontendType(Frozen):
    __slots__ = ()

    def __str__(self) -> str:
        return frontend_type_text(self)


class Concrete(FrontendType):
    __slots__ = ("name", "params")

    def __init__(self, name: str, params: tuple = ()):
        setfield(self, "name", name)
        setfield(self, "params", params)


class Abstract(FrontendType):
    __slots__ = ("name",)

    def __init__(self, name: str):
        setfield(self, "name", name)


class AnyFrontend(FrontendType):
    __slots__ = ()


ANY = AnyFrontend()
F32 = Concrete("f32")
F64 = Concrete("f64")
I64 = Concrete("i64")
I1 = Concrete("i1")
INDEX = Concrete("index")
BOOL = Concrete("Bool")
NOTHING = Concrete("Nothing")
ABSTRACT_FLOAT = Abstract("AbstractFloat")
INTEGER = Abstract("Integer")


def tensor_of(elem: FrontendType, rank: int) -> Concrete:
    return Concrete("tensor", (elem, rank))


def complex_of(elem: FrontendType) -> Concrete:
    return Concrete("Complex", (elem,))


# Abstract parent of each concrete type; anything absent sits under Any.
_PARENT = {
    "f32": ABSTRACT_FLOAT,
    "f64": ABSTRACT_FLOAT,
    "i64": INTEGER,
    "i1": INTEGER,
    "index": INTEGER,
    "Bool": INTEGER,
}


def subtype(a: FrontendType, b: FrontendType) -> bool:
    """Partial order with Any on top; concrete types are minimal. ``a`` is
    walked up the lattice: an abstract type's parent is Any."""
    while a is not b and a != b:
        if isinstance(a, AnyFrontend):
            return False
        a = _PARENT.get(a.name, ANY) if isinstance(a, Concrete) else ANY
    return True


def admits(t: FrontendType, arg, natural: FrontendType) -> bool:
    """Whether argument ``arg`` of type ``natural`` may stand for a value of
    type ``t``: an argument of a subtype, or a literal that fits ``t``, or
    its natural type where ``t`` is abstract."""
    if arg.__class__ not in _NATURAL:
        return subtype(natural, t)
    if not isinstance(t, Concrete):
        return subtype(natural, t) and literal_fits(natural, arg)
    return literal_fits(t, arg)


def literal_fits(t: FrontendType, literal) -> bool:
    """Whether the literal is a value of type ``t``: the literal rule of
    dispatch, inlining, validation and constant materialization (see
    ``_INTEGERS``)."""
    if not isinstance(t, Concrete):
        return False
    if literal.__class__ is FloatLit:
        return t.name in ("f32", "f64")
    bounds = _INTEGERS.get(t.name)
    return (bounds is not None and (literal.__class__ is IntLit or t.name in ("i1", "Bool"))
            and bounds[0] <= literal.value <= bounds[1])


# The literal table: the integers each type holds (f32 and f64 exactly, i64
# wrapping to its bits) are the integer literals it takes; true and false
# are the values 1 and 0 of i1 and Bool only; a float literal is an f32 or
# f64 value only.
_INTEGERS = {"f32": (-2 ** 24, 2 ** 24), "f64": (-2 ** 53, 2 ** 53),
             "i64": (-2 ** 63, 2 ** 64 - 1), "index": (-math.inf, math.inf),
             "i1": (0, 1), "Bool": (0, 1)}


def frontend_type_text(t: FrontendType) -> str:
    if isinstance(t, AnyFrontend):
        return "Any"
    if isinstance(t, Abstract):
        return t.name
    if t.name in ("tensor", "memref"):
        elem, rank = t.params
        return f"{t.name}{{{frontend_type_text(elem)},{rank}}}"
    if t.name == "Complex":
        return f"Complex{{{frontend_type_text(t.params[0])}}}"
    return t.name


_SCALARS = {
    "f32": F32, "f64": F64, "i64": I64, "i1": I1, "index": INDEX,
    "Bool": BOOL, "Nothing": NOTHING,
}


# int() reads a digit string this long whatever the interpreter's limit is
# set to (sys.int_info.str_digits_check_threshold)
MAX_DIGITS = 640
_LONG_NUMBER_RE = re.compile(r"\d{%d,}" % (MAX_DIGITS + 1))
MAX_TYPE_DEPTH = 8  # each Complex level doubles the flattened IR type


def overlong_number(text: str):
    """``(line, why)`` for the first digit run in ``text`` longer than
    MAX_DIGITS, which int() may refuse; otherwise None."""
    m = _LONG_NUMBER_RE.search(text)
    return m and (len((text[:m.start()] + "x").splitlines()),
                  f"number of {len(m.group())} digits exceeds the limit of {MAX_DIGITS}")


def parse_frontend_type(text: str) -> FrontendType:
    """The type ``text`` names; it may nest at most MAX_TYPE_DEPTH levels."""
    text = text.strip()
    if text in _SCALARS:
        return _SCALARS[text]
    if text.count("{") > MAX_TYPE_DEPTH:
        raise FirError(f"frontend type nests deeper than {MAX_TYPE_DEPTH} levels")
    if bad := overlong_number(text):
        raise FirError(bad[1])
    m = re.fullmatch(r"(tensor|memref)\{(.+),\s*(\d+)\}", text)
    if m:
        return Concrete(m.group(1), (parse_frontend_type(m.group(2)), int(m.group(3))))
    m = re.fullmatch(r"Complex\{(.+)\}", text)
    if m:
        return complex_of(parse_frontend_type(m.group(1)))
    raise FirError(f"unknown frontend type '{text}'")


# ---------------------------------------------------------------------------
# Statements


class FirArg(Frozen):
    __slots__ = ()


class SsaRef(FirArg):
    __slots__ = ("id",)

    def __init__(self, id: int):
        setfield(self, "id", id)

    def __str__(self):
        return f"%{self.id}"


class ParamRef(FirArg):
    __slots__ = ("index",)

    def __init__(self, index: int):
        setfield(self, "index", index)  # 1-based

    def __str__(self):
        return f"_{self.index}"


class IntLit(FirArg):
    __slots__ = ("value",)

    def __init__(self, value: int):
        setfield(self, "value", value)

    def __str__(self):
        return str(self.value)


class FloatLit(FirArg):
    __slots__ = ("value",)

    def __init__(self, value: float):
        setfield(self, "value", value)

    def __str__(self):
        return repr(self.value)


class BoolLit(FirArg):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        setfield(self, "value", value)

    def __str__(self):
        return "true" if self.value else "false"


class Statement(Record):
    """A FIR statement. Passes never mutate one: they share the statements
    they keep and build new ones through :meth:`mapped`."""

    __slots__ = ()

    def reads(self):
        """The arguments the statement reads, in order."""
        return ()

    def mapped(self, f):
        """The statement with each argument it reads replaced by ``f(arg)``."""
        return self


class Invoke(Statement):
    __slots__ = ("id", "target", "args", "result_type")

    def __init__(self, id: int, target: str, args: list, result_type: FrontendType):
        self.id = id
        self.target = target
        self.args = args
        self.result_type = result_type

    def reads(self):
        return self.args

    def mapped(self, f):
        return Invoke(self.id, self.target, [f(a) for a in self.args],
                      self.result_type)


class Phi(Statement):
    __slots__ = ("id", "incomings", "result_type")

    def __init__(self, id: int, incomings: list, result_type: FrontendType):
        self.id = id
        self.incomings = incomings  # (pred block number, FirArg)
        self.result_type = result_type

    def reads(self):
        return [a for _, a in self.incomings]

    def mapped(self, f):
        return Phi(self.id, [(p, f(a)) for p, a in self.incomings],
                   self.result_type)


class Goto(Statement):
    __slots__ = ("target",)

    def __init__(self, target: int):
        self.target = target


class GotoIfNot(Statement):
    __slots__ = ("cond", "target")

    def __init__(self, cond: FirArg, target: int):
        self.cond = cond
        self.target = target

    def reads(self):
        return [self.cond]

    def mapped(self, f):
        return GotoIfNot(f(self.cond), self.target)


class Return(Statement):
    __slots__ = ("value",)

    def __init__(self, value: FirArg | None):
        self.value = value

    def reads(self):
        return () if self.value is None else [self.value]

    def mapped(self, f):
        return Return(None if self.value is None else f(self.value))


class Nothing(Statement):
    __slots__ = ()


TERMINATORS = (Goto, GotoIfNot, Return)


class FirFunction(Record):
    __slots__ = ("name", "param_types", "blocks")

    def __init__(self, name: str, param_types: list, blocks: list):
        self.name = name
        self.param_types = param_types
        self.blocks = blocks  # list of statement lists; index 0 is block #1

    def n_blocks(self) -> int:
        return len(self.blocks)

    def statements(self):
        for bi, block in enumerate(self.blocks, start=1):
            for st in block:
                yield bi, st


class FirProgram(Record):
    __slots__ = ("functions",)

    def __init__(self, functions: dict | None = None):
        self.functions = {} if functions is None else functions


# ---------------------------------------------------------------------------
# Parsing

_FN_RE = re.compile(r"fn\s+(\S+)\s*\((.*)\)\s*$")
_BLOCK_RE = re.compile(r"(\d+):\s*$")
_INVOKE_RE = re.compile(r"%(\d+)\s*=\s*invoke\s+([^\s(]+)\((.*)\)\s*::\s*(\S+)\s*$")
_PHI_RE = re.compile(r"%(\d+)\s*=\s*phi\s*\((.*)\)\s*::\s*(\S+)\s*$")
_INCOMING_RE = re.compile(r"#(\d+)\s*=>\s*(\S+)")
_GOTO_IFNOT_RE = re.compile(r"goto\s+#(\d+)\s+ifnot\s+(\S+)\s*$")
_GOTO_RE = re.compile(r"goto\s+#(\d+)\s*$")
_RETURN_RE = re.compile(r"return(?:\s+(\S+))?\s*$")


_REF_RE = re.compile(r"([%_])(\d+)")


def _parse_arg(text: str, line: int) -> FirArg:
    text = text.strip()
    m = _REF_RE.fullmatch(text)
    if m:
        return (SsaRef if m.group(1) == "%" else ParamRef)(int(m.group(2)))
    if text == "true":
        return BoolLit(True)
    if text == "false":
        return BoolLit(False)
    if re.fullmatch(r"-?\d+", text):
        return IntLit(int(text))
    if re.fullmatch(
            r"-?\d*\.\d+(e[+-]?\d+)?|-?\d+\.\d*(e[+-]?\d+)?|-?\d+e[+-]?\d+",
            text):
        return FloatLit(float(text))
    raise FirError(f"line {line}: cannot parse argument '{text}'")


def split_commas(text: str) -> list:
    """Split on commas outside braces (for type lists like memref{f32,1})."""
    out, depth, cur = [], 0, []
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail or out:
        out.append(tail)
    return out


def parse_program(text: str) -> FirProgram:
    """Parse FIR text. It only parses, and rejects a function name given
    twice: what the references name is :func:`validate_fir`'s to check."""
    if bad := overlong_number(text):
        raise FirError("line %d: %s" % bad)
    program = FirProgram()
    fn = None
    block = None

    def frontend_type(text):
        try:
            return parse_frontend_type(text)
        except FirError as e:
            raise FirError(f"line {lineno}: {e}") from None

    def close():
        nonlocal fn, block
        if fn is None:
            return
        if fn.name in program.functions:
            raise FirError(f"duplicate function '{fn.name}'")
        program.functions[fn.name] = fn
        fn = None
        block = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _FN_RE.match(line)
        if m:
            close()
            params = []
            params_text = m.group(2).strip()
            if params_text:
                for i, part in enumerate(split_commas(params_text), start=1):
                    pm = re.fullmatch(r"\s*_(\d+)\s*:\s*(\S+)\s*", part)
                    if not pm or int(pm.group(1)) != i:
                        raise FirError(
                            f"line {lineno}: expected parameter '_{i}: <type>'")
                    params.append(frontend_type(pm.group(2)))
            fn = FirFunction(m.group(1), params, [])
            continue
        if fn is None:
            raise FirError(f"line {lineno}: statement outside a function")
        m = _BLOCK_RE.match(line)
        if m:
            number = int(m.group(1))
            if number != len(fn.blocks) + 1:
                raise FirError(
                    f"line {lineno}: expected block {len(fn.blocks) + 1}, "
                    f"got {number}")
            block = []
            fn.blocks.append(block)
            continue
        if block is None:
            raise FirError(f"line {lineno}: statement before first block header")
        m = _INVOKE_RE.match(line)
        if m:
            args = [_parse_arg(a, lineno) for a in split_commas(m.group(3))]
            block.append(Invoke(int(m.group(1)), m.group(2), args,
                                frontend_type(m.group(4))))
            continue
        m = _PHI_RE.match(line)
        if m:
            incomings = []
            for part in split_commas(m.group(2)):
                im = _INCOMING_RE.fullmatch(part)
                if not im:
                    raise FirError(f"line {lineno}: bad phi incoming '{part}'")
                incomings.append((int(im.group(1)), _parse_arg(im.group(2), lineno)))
            block.append(Phi(int(m.group(1)), incomings,
                             frontend_type(m.group(3))))
            continue
        m = _GOTO_IFNOT_RE.match(line)
        if m:
            block.append(GotoIfNot(_parse_arg(m.group(2), lineno),
                                   int(m.group(1))))
            continue
        m = _GOTO_RE.match(line)
        if m:
            block.append(Goto(int(m.group(1))))
            continue
        m = _RETURN_RE.match(line)
        if m:
            value = _parse_arg(m.group(1), lineno) if m.group(1) else None
            block.append(Return(value))
            continue
        if line == "nothing":
            block.append(Nothing())
            continue
        raise FirError(f"line {lineno}: cannot parse statement '{line}'")
    close()
    return program


# ---------------------------------------------------------------------------
# Printing (debug serializer; parse_program round-trips it)


def _stmt_text(st) -> str:
    if isinstance(st, Invoke):
        args = ", ".join(str(a) for a in st.args)
        return f"%{st.id} = invoke {st.target}({args}) :: {st.result_type}"
    if isinstance(st, Phi):
        inc = ", ".join(f"#{p} => {a}" for p, a in st.incomings)
        return f"%{st.id} = phi ({inc}) :: {st.result_type}"
    if isinstance(st, Goto):
        return f"goto #{st.target}"
    if isinstance(st, GotoIfNot):
        return f"goto #{st.target} ifnot {st.cond}"
    if isinstance(st, Return):
        return "return" if st.value is None else f"return {st.value}"
    if isinstance(st, Nothing):
        return "nothing"
    raise FirError(f"cannot print statement {st!r}")


def print_fir(fn: FirFunction) -> str:
    params = ", ".join(f"_{i}: {t}" for i, t in enumerate(fn.param_types, start=1))
    out = [f"fn {fn.name}({params})"]
    for bi, block in enumerate(fn.blocks, start=1):
        out.append(f"{bi}:")
        for st in block:
            out.append(f"  {_stmt_text(st)}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Queries


def block_edges(fn: FirFunction):
    """CFG edges (from, to) over 1-based block numbers, fallthrough included."""
    edges = set()
    n = fn.n_blocks()
    for bi, block in enumerate(fn.blocks, start=1):
        last = block[-1] if block else None
        if isinstance(last, (Goto, GotoIfNot)):
            edges.add((bi, last.target))
        if bi < n and not isinstance(last, (Goto, Return)):
            edges.add((bi, bi + 1))
    return edges


def predecessors(fn: FirFunction):
    preds = {b: [] for b in range(1, fn.n_blocks() + 1)}
    for src, dst in sorted(block_edges(fn)):
        preds[dst].append(src)
    return preds


def reachable_blocks(fn: FirFunction):
    edges = block_edges(fn)
    succ = {}
    for a, b in edges:
        succ.setdefault(a, set()).add(b)
    seen = {1}
    work = [1]
    while work:
        b = work.pop()
        for s in succ.get(b, ()):
            if s not in seen:
                seen.add(s)
                work.append(s)
    return seen


_NATURAL = {IntLit: I64, FloatLit: F64, BoolLit: BOOL}  # a literal's natural type


def _retyped(arg, t: FrontendType) -> bool:
    """Whether ``arg`` is a literal that keeps the concrete type ``t`` only
    as a phi of that type: its natural type is another."""
    natural = _NATURAL.get(arg.__class__)
    return natural is not None and isinstance(t, Concrete) and natural != t


def arg_typer(fn: FirFunction):
    """The frontend type of each argument of ``fn`` (literals get their
    natural type), over one table of its SSA result types built here; a
    pass builds it once per function."""
    types = {st.id: st.result_type for _, st in fn.statements()
             if isinstance(st, (Invoke, Phi))}

    def type_of(arg: FirArg) -> FrontendType:
        if isinstance(arg, SsaRef):
            return types[arg.id]
        if isinstance(arg, ParamRef):
            return fn.param_types[arg.index - 1]
        if arg.__class__ in _NATURAL:
            return _NATURAL[arg.__class__]
        raise FirError(f"no type for argument {arg!r}")

    return type_of


# ---------------------------------------------------------------------------
# Validation


def validate_fir(fn: FirFunction):
    """Check the function's invariants; returns all violations as strings.

    References first: no blocks, an SSA id defined twice, and a reference to
    an undefined SSA id, parameter or block are reported alone, so that the
    structural rules see only resolved references.
    Phis: none in block 1, where a caller enters; every incoming from a
    predecessor, and in a reachable block one from each reachable
    predecessor; each literal incoming a value of the phi's type.
    """
    if not fn.blocks:
        return ["function has no blocks"]
    n, defined, violations = fn.n_blocks(), set(), []
    for bi, st in fn.statements():
        if isinstance(st, (Invoke, Phi)):
            if st.id in defined:
                violations.append(f"block {bi}: duplicate SSA id %{st.id}")
            defined.add(st.id)
    seen, early = set(), []  # an SSA use must follow its definition, bar a phi's
    for bi, st in fn.statements():
        for a in st.reads():
            if a.__class__ is SsaRef:
                if a.id not in defined:
                    violations.append(f"block {bi}: reference to undefined SSA id %{a.id}")
                elif a.id not in seen and not isinstance(st, Phi):
                    early.append(f"block {bi}: %{a.id} used before its definition")
            elif a.__class__ is ParamRef and not 1 <= a.index <= len(fn.param_types):
                violations.append(f"block {bi}: reference to undefined parameter _{a.index}")
        if isinstance(st, Phi):
            violations += [f"block {bi}: reference to undefined block #{p}"
                           for p, _ in st.incomings if not 1 <= p <= n]
        elif isinstance(st, (Goto, GotoIfNot)) and not 1 <= st.target <= n:
            violations.append(f"block {bi}: reference to undefined block #{st.target}")
        if isinstance(st, (Invoke, Phi)):
            seen.add(st.id)
    if violations:
        return violations
    preds, reach = predecessors(fn), reachable_blocks(fn)

    for bi, block in enumerate(fn.blocks, start=1):
        for st in block[:-1]:
            if isinstance(st, TERMINATORS):
                violations.append(
                    f"block {bi}: terminator before the end of the block")
        last = block[-1] if block else None
        if bi == n and not isinstance(last, (Goto, Return)):
            violations.append(
                f"block {bi}: last block falls off the end of the function")
        head = True
        for st in block:
            if isinstance(st, Phi):
                where = f"block {bi}: phi %{st.id}"
                if not head:
                    violations.append(f"{where} not at the start of the block")
                if bi == 1:
                    violations.append(f"{where} in the entry block")
                covered = {p for p, _ in st.incomings}
                violations += [f"{where} references non-predecessor #{p}"
                               for p in covered if p not in preds[bi]]
                if bi in reach:
                    violations += [f"{where} has no incoming from predecessor #{p}"
                                   for p in preds[bi] if p in reach and p not in covered]
                violations += [f"{where}: literal {a} is not a value of {st.result_type}"
                               for _, a in st.incomings if a.__class__ in _NATURAL
                               and not literal_fits(st.result_type, a)]
            else:
                head = False
    return violations + early


# ---------------------------------------------------------------------------
# Inlining


def _call_targets(fn: FirFunction, program: FirProgram, is_intrinsic, returns):
    """The program functions ``fn`` calls. A call's arguments must be
    admitted by the callee's parameters, and its declared type must admit
    every (value, type) that ``returns(callee)`` lists."""
    out = set()
    type_of = arg_typer(fn)
    for _, st in fn.statements():
        if isinstance(st, Invoke) and st.target != BOOL_CONVERSION:
            if is_intrinsic(st.target, tuple(type_of(a) for a in st.args)):
                continue
            callee = program.functions.get(st.target)
            if callee is None:
                raise FirError(
                    f"{fn.name}: call target '{st.target}' is neither an "
                    f"intrinsic nor defined in the program")
            if len(st.args) != len(callee.param_types):
                raise FirError(
                    f"{fn.name}: {_stmt_text(st)}: '{st.target}' takes "
                    f"{len(callee.param_types)} parameter(s), the call passes "
                    f"{len(st.args)}")
            for i, (a, t) in enumerate(zip(st.args, callee.param_types), start=1):
                if not admits(t, a, type_of(a)):
                    raise FirError(
                        f"{fn.name}: {_stmt_text(st)}: argument {i} is "
                        f"{type_of(a)}, '{st.target}' takes {t}")
            for value, t in returns(st.target):
                if not admits(st.result_type, value, t):
                    raise FirError(
                        f"{fn.name}: {_stmt_text(st)}: '{st.target}' returns "
                        f"{t}, the call declares {st.result_type}")
            out.add(st.target)
    return out


def _returns(fn: FirFunction):
    """(value, type) of each return that ``fn``'s entry can reach."""
    type_of, reach = arg_typer(fn), reachable_blocks(fn)
    return [(st.value, NOTHING if st.value is None else type_of(st.value))
            for bi, block in enumerate(fn.blocks, start=1) if bi in reach
            for st in block if isinstance(st, Return)]


def _max_id(fn: FirFunction) -> int:
    ids = [st.id for _, st in fn.statements() if isinstance(st, (Invoke, Phi))]
    return max(ids, default=0)


def _substitute(fn: FirFunction, mapping):
    """Replace SSA references by other arguments in ``fn``'s block lists."""

    def sub(a):
        return mapping.get(a.id, a) if isinstance(a, SsaRef) else a

    for block in fn.blocks:
        block[:] = [st.mapped(sub) for st in block]


def _spliced_blocks(callee: FirFunction):
    """The callee's blocks, with None for each one its entry cannot reach."""
    reach = reachable_blocks(callee)
    blocks = [block if bi in reach else None
              for bi, block in enumerate(callee.blocks, start=1)]
    if not any(block and isinstance(block[-1], Return) for block in blocks):
        raise FirError(f"cannot inline '{callee.name}': no reachable return")
    return blocks


def _resolve_chains(subst):
    """Follow substitution chains such as %5 -> %3 -> %9 to their ends."""
    done = {}
    for start in subst:
        path = {}  # ordered, with O(1) membership; a cycle ends the walk
        a = SsaRef(start)
        while (isinstance(a, SsaRef) and a.id in subst and a.id not in done
               and a.id not in path):
            path[a.id] = None
            a = subst[a.id]
        if isinstance(a, SsaRef) and a.id in done:
            a = done[a.id]
        for i in path:
            done[i] = a
    return done


def inline_calls(program: FirProgram, entry: str, is_intrinsic) -> FirFunction:
    """Fully inline every program-defined call in ``entry``.

    ``is_intrinsic(name, arg_types)`` marks calls that must be left alone.
    Recursion (direct or mutual) is reported as a call-graph cycle.

    The result is built top-down in one walk. A block with m call sites
    becomes its head piece, then per site the callee's reachable blocks,
    themselves inlined, and a continuation piece. The last piece keeps
    the block's terminator, so gotos into the block target its head piece
    and phis naming it as predecessor name its last piece. A callee with
    several returns gets a phi at the head of the continuation; a single
    return's value replaces the call result. A literal keeps the type of
    the parameter it is passed for, or of the call it is returned to, as a
    phi of that type: at the head of the callee's entry, taking itself on
    the callee's back edges, or at the head of the continuation. Every
    function's inlined block count is known before the walk (callees
    first), so each block gets its final number when it is copied; result
    substitutions are applied once at the end. The cycle check and the
    walk use explicit stacks, so call depth is not limited by the Python
    stack. The time is linear in the size of the functions reachable from
    the entry plus the size of the result.
    """
    if entry not in program.functions:
        raise FirError(f"no function named '{entry}'")

    targets, returns = {}, {}

    def returned(name):
        if name not in returns:
            returns[name] = _returns(program.functions[name])
        return returns[name]

    def sorted_targets(name):
        if name not in targets:
            targets[name] = _call_targets(program.functions[name], program,
                                          is_intrinsic, returned)
        return sorted(targets[name])

    # Cycle check restricted to functions reachable from the entry; a
    # function is done once all its callees are.
    state = {entry: "active"}
    path = [entry]
    pending = [iter(sorted_targets(entry))]
    order = []
    while pending:
        t = next(pending[-1], None)
        if t is None:
            pending.pop()
            name = path.pop()
            state[name] = "done"
            order.append(name)
        elif state.get(t) == "active":
            cycle = path[path.index(t):] + [t]
            raise FirError("recursive call cycle: " + " -> ".join(cycle))
        elif t not in state:
            state[t] = "active"
            path.append(t)
            pending.append(iter(sorted_targets(t)))

    # The entry keeps its unreachable blocks; callees are spliced without.
    bodies = {name: _spliced_blocks(program.functions[name])
              for name in order[:-1]}
    bodies[entry] = program.functions[entry].blocks
    # Per function: the offset of each block's head and last piece within
    # the inlined body (None for a dropped block), and its block count.
    layout = {}
    for name in order:
        heads, lasts, n = [], [], 0
        for block in bodies[name]:
            if block is None:
                heads.append(None)
                lasts.append(None)
                continue
            heads.append(n)
            for st in block:
                if isinstance(st, Invoke) and st.target in targets[name]:
                    n += layout[st.target][2] + 1
            lasts.append(n)
            n += 1
        layout[name] = (heads, lasts, n)

    out = []
    subst = {}
    fresh = _max_id(program.functions[entry]) + 1

    def expand(name, call_args):
        """Append one inlined copy of ``name`` to ``out``; yields each
        call site's (callee, arguments) and is sent back its returns.
        Returns the copy's (block, value) returns. The entry (no
        ``call_args``) keeps its SSA ids, parameters and returns."""
        nonlocal fresh
        base = len(out) + 1
        heads, lasts, size = layout[name]
        ids = {}  # callee SSA id -> fresh reference; empty for the entry
        if call_args is not None:
            for block in bodies[name]:
                for st in block or ():
                    if isinstance(st, (Invoke, Phi)):
                        ids[st.id] = SsaRef(fresh)
                        fresh += 1

        def new_id(old):
            return old if call_args is None else ids[old].id

        def arg(a):
            if isinstance(a, SsaRef):
                return ids.get(a.id, a)
            if isinstance(a, ParamRef) and call_args is not None:
                return call_args[a.index - 1]
            return a

        head = []  # the entry's phis of literal arguments, from the caller's piece
        callee = program.functions[name]
        for i, t in enumerate(callee.param_types if call_args is not None else ()):
            if _retyped(call_args[i], t):
                back = [base + lasts[p - 1] for p in predecessors(callee)[1]
                        if lasts[p - 1] is not None]
                head.append(Phi(fresh, [(base - 1, call_args[i])]
                                + [(p, SsaRef(fresh)) for p in back], t))
                call_args[i] = SsaRef(fresh)
                fresh += 1

        returns = []
        for block in bodies[name]:
            if block is None:
                continue
            piece, head = head, []
            for st in block:
                if isinstance(st, Invoke) and st.target in targets[name]:
                    piece.append(Goto(len(out) + 2))
                    out.append(piece)
                    inner = yield st.target, [arg(a) for a in st.args]
                    piece = []
                    if len(inner) == 1 and not _retyped(inner[0][1], st.result_type):
                        subst[new_id(st.id)] = inner[0][1]
                    else:
                        piece.append(Phi(new_id(st.id), inner, st.result_type))
                elif isinstance(st, Invoke):
                    piece.append(Invoke(new_id(st.id), st.target,
                                        [arg(a) for a in st.args], st.result_type))
                elif isinstance(st, Phi):
                    piece.append(Phi(new_id(st.id),
                                     [(base + lasts[p - 1], arg(a))
                                      for p, a in st.incomings
                                      if lasts[p - 1] is not None],
                                     st.result_type))
                elif isinstance(st, Goto):
                    piece.append(Goto(base + heads[st.target - 1]))
                elif isinstance(st, GotoIfNot):
                    piece.append(GotoIfNot(arg(st.cond),
                                           base + heads[st.target - 1]))
                elif isinstance(st, Return):
                    value = None if st.value is None else arg(st.value)
                    if call_args is not None and st is block[-1]:
                        returns.append((len(out) + 1, value))
                        piece.append(Goto(base + size))
                    else:
                        piece.append(Return(value))
                else:
                    piece.append(Nothing())
            out.append(piece)
        return returns

    stack = [expand(entry, None)]
    sent = None
    while stack:
        try:
            callee, args = stack[-1].send(sent)
        except StopIteration as done:
            stack.pop()
            sent = done.value
        else:
            stack.append(expand(callee, args))
            sent = None

    fn = program.functions[entry]
    result = FirFunction(fn.name, list(fn.param_types), out)
    if subst:
        _substitute(result, _resolve_chains(subst))
    return result


# ---------------------------------------------------------------------------
# Bool conversion insertion


def insert_bool_conversions(fn: FirFunction) -> FirFunction:
    """Route each branch condition that is neither a literal nor of type
    Bool or i1 through a call of ``BOOL_CONVERSION``, an intrinsic name
    that dispatches like any other; codegen makes a literal a Bool constant.

    Returns a new function with new block lists; ``fn`` is untouched, and
    every statement but the converted branches is shared with it.
    """
    type_of = arg_typer(fn)
    fresh = _max_id(fn) + 1
    blocks = []
    for block in fn.blocks:
        new = []
        for st in block:
            if (isinstance(st, GotoIfNot) and st.cond.__class__ not in _NATURAL
                    and type_of(st.cond) not in (BOOL, I1)):
                new.append(Invoke(fresh, BOOL_CONVERSION, [st.cond], BOOL))
                st = GotoIfNot(SsaRef(fresh), st.target)
                fresh += 1
            new.append(st)
        blocks.append(new)
    return FirFunction(fn.name, list(fn.param_types), blocks)
