"""In-memory MLIR-style IR: types, attributes, operations, blocks, regions.

Modules are built through :func:`create_op` / :meth:`IrModule.append_block`,
checked with :func:`verify_module`, and rendered with :func:`print_module`.
Printing is one-way; there is no parser for the textual form.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

__all__ = [
    "IrType",
    "Float32Type",
    "Float64Type",
    "IntType",
    "IndexType",
    "TensorType",
    "MemRefType",
    "FunctionType",
    "F32",
    "F64",
    "I1",
    "I64",
    "INDEX",
    "DYN",
    "IrAttribute",
    "FloatAttr",
    "IntAttr",
    "StringAttr",
    "ArrayAttr",
    "IndexMapAttr",
    "SymbolAttr",
    "TypeAttr",
    "OpResult",
    "BlockArgument",
    "IrValue",
    "Successor",
    "IrOperation",
    "IrBlock",
    "IrRegion",
    "IrModule",
    "IrError",
    "create_op",
    "result",
    "Diagnostic",
    "VerifyReport",
    "verify_module",
    "print_module",
    "format_float",
    "to_f32",
]


class IrError(Exception):
    """Raised on malformed IR construction (not on verification findings)."""


# ---------------------------------------------------------------------------
# Types


class IrType:
    """Base class for IR types; equality is structural."""

    def __str__(self) -> str:
        return print_type(self)


@dataclass(frozen=True)
class Float32Type(IrType):
    pass


@dataclass(frozen=True)
class Float64Type(IrType):
    pass


@dataclass(frozen=True)
class IntType(IrType):
    width: int

    def __post_init__(self):
        if self.width not in (1, 8, 16, 32, 64):
            raise IrError(f"unsupported integer width {self.width}")


@dataclass(frozen=True)
class IndexType(IrType):
    pass


# A dynamic extent in a tensor/memref shape.
DYN = None


@dataclass(frozen=True)
class _ShapedType(IrType):
    """A tensor or memref type; ``dims`` holds DYN for a dynamic extent."""

    elem: IrType
    dims: tuple

    @property
    def rank(self) -> int:
        return len(self.dims)


class TensorType(_ShapedType):
    pass


class MemRefType(_ShapedType):
    pass


@dataclass(frozen=True)
class FunctionType(IrType):
    inputs: tuple
    results: tuple


F32 = Float32Type()
F64 = Float64Type()
I1 = IntType(1)
I64 = IntType(64)
INDEX = IndexType()


def is_float(t: IrType) -> bool:
    return isinstance(t, (Float32Type, Float64Type))


def is_integer(t: IrType) -> bool:
    return isinstance(t, (IntType, IndexType))


def is_scalar(t: IrType) -> bool:
    return is_float(t) or is_integer(t)


# ---------------------------------------------------------------------------
# Attributes


class IrAttribute:
    pass


@dataclass(frozen=True)
class FloatAttr(IrAttribute):
    value: float
    type: IrType

    def __post_init__(self):
        if not is_float(self.type):
            raise IrError("FloatAttr type must be a float scalar type")


@dataclass(frozen=True)
class IntAttr(IrAttribute):
    value: int
    type: IrType

    def __post_init__(self):
        if not is_integer(self.type):
            raise IrError("IntAttr type must be an integer or index type")


@dataclass(frozen=True)
class StringAttr(IrAttribute):
    text: str


@dataclass(frozen=True)
class ArrayAttr(IrAttribute):
    elements: tuple


@dataclass(frozen=True)
class IndexMapAttr(IrAttribute):
    """Indexing map for one structured-op operand.

    ``targets[d]`` is the iteration-space axis read by operand dimension d.
    """

    n_axes: int
    targets: tuple

    def __post_init__(self):
        for t in self.targets:
            if not 0 <= t < self.n_axes:
                raise IrError(f"axis position {t} out of range for {self.n_axes} axes")


@dataclass(frozen=True)
class SymbolAttr(IrAttribute):
    name: str


@dataclass(frozen=True)
class TypeAttr(IrAttribute):
    type: IrType


# ---------------------------------------------------------------------------
# Values, operations, blocks, regions


# A value's origin. The generated __eq__ and __hash__ compare ``op`` and
# ``block`` by identity, as IrOperation and IrBlock do.
@dataclass(frozen=True)
class OpResult:
    op: "IrOperation"
    index: int


@dataclass(frozen=True)
class BlockArgument:
    block: "IrBlock"
    index: int


class IrValue:
    """An SSA value: the result of an operation or a block argument."""

    __slots__ = ("id", "type", "origin", "owner")

    def __init__(self, id: int, type: IrType, origin, owner: "IrModule"):
        self.id = id
        self.type = type
        self.origin = origin
        self.owner = owner

    def __repr__(self):
        return f"<IrValue %{self.id}: {self.type}>"


@dataclass
class Successor:
    block: "IrBlock"
    args: list


class IrOperation:
    """A single IR instruction; may own regions and successor edges."""

    __slots__ = (
        "name",
        "operands",
        "results",
        "attributes",
        "regions",
        "successors",
        "is_terminator",
    )

    def __init__(self, name, operands, results, attributes, regions, successors,
                 is_terminator):
        self.name = name
        self.operands = operands
        self.results = results
        self.attributes = attributes
        self.regions = regions
        self.successors = successors
        self.is_terminator = is_terminator

    def __repr__(self):
        return f"<IrOperation {self.name}>"


class IrBlock:
    __slots__ = ("id", "arguments", "operations")

    def __init__(self, id: int):
        self.id = id
        self.arguments = []
        self.operations = []

    def __repr__(self):
        return f"<IrBlock ^{self.id}>"


class IrRegion:
    __slots__ = ("blocks",)

    def __init__(self):
        self.blocks = []

    @property
    def entry(self) -> "IrBlock":
        return self.blocks[0]


class IrModule:
    """Top-level container: one region holding one block of symbol ops.

    Carries the value/block id allocators and the builder insertion point.
    A module is mutated single-threaded; once verified and no longer
    mutated it is safe to read concurrently.
    """

    def __init__(self, registry=None):
        self.body = IrRegion()
        self.body.blocks.append(IrBlock(0))
        self.registry = registry
        self._next_value = 0
        self._next_block = 1
        self.insertion_block = self.body.blocks[0]

    # -- allocation ---------------------------------------------------

    def new_value(self, type: IrType, origin) -> IrValue:
        v = IrValue(self._next_value, type, origin, self)
        self._next_value += 1
        return v

    def owns(self, value: IrValue) -> bool:
        return value.owner is self

    def new_region(self) -> IrRegion:
        return IrRegion()

    def append_block(self, region: IrRegion, arg_types) -> IrBlock:
        """Append a fresh block with arguments of ``arg_types`` to ``region``."""
        block = IrBlock(self._next_block)
        self._next_block += 1
        for i, t in enumerate(arg_types):
            block.arguments.append(self.new_value(t, BlockArgument(block, i)))
        region.blocks.append(block)
        return block

    # -- insertion point ----------------------------------------------

    def set_insertion(self, block: IrBlock):
        self.insertion_block = block

    def symbol_ops(self):
        return self.body.blocks[0].operations

    def lookup_symbol(self, name: str):
        for op in self.symbol_ops():
            sym = op.attributes.get("sym_name")
            if isinstance(sym, SymbolAttr) and sym.name == name:
                return op
        return None


def create_op(module: IrModule, name: str, operands, result_types,
              attributes=None, regions=None, successors=None,
              is_terminator=None) -> IrOperation:
    """Allocate an operation and append it at the module's insertion point.

    Result values are freshly allocated; ``successors`` is a list of
    ``(block, passed_values)`` pairs. When ``is_terminator`` is not given
    it is inferred from the successors, or from the op's registered
    definition if the module has a registry attached.
    """
    operands = list(operands)
    for v in operands:
        if not module.owns(v):
            raise IrError(f"operand {v!r} does not belong to this module")
    succs = [Successor(b, list(args)) for b, args in (successors or [])]
    for s in succs:
        for v in s.args:
            if not module.owns(v):
                raise IrError(f"successor arg {v!r} does not belong to this module")
    if is_terminator is None:
        is_terminator = bool(succs)
        if not is_terminator and module.registry is not None:
            defn = module.registry.lookup(name)
            if defn is not None:
                is_terminator = defn.is_terminator
    op = IrOperation(
        name,
        operands,
        [],
        dict(attributes or {}),
        list(regions or []),
        succs,
        is_terminator,
    )
    for i, t in enumerate(result_types):
        op.results.append(module.new_value(t, OpResult(op, i)))
    module.insertion_block.operations.append(op)
    return op


def result(op: IrOperation, index: int = 0) -> IrValue:
    """The result value of ``op`` at ``index`` (default first)."""
    if not 0 <= index < len(op.results):
        raise IrError(
            f"{op.name} has {len(op.results)} results, no result {index}"
        )
    return op.results[index]


# ---------------------------------------------------------------------------
# Verification


@dataclass
class Diagnostic:
    category: str
    message: str
    op: str = ""
    block: int = -1

    def __str__(self):
        where = f" in ^bb{self.block}" if self.block >= 0 else ""
        at = f" at '{self.op}'" if self.op else ""
        return f"[{self.category}]{at}{where}: {self.message}"


@dataclass
class VerifyReport:
    diagnostics: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def categories(self):
        return {d.category for d in self.diagnostics}

    def __str__(self):
        if self.ok:
            return "ok"
        return "\n".join(str(d) for d in self.diagnostics)


def _predecessors(region: IrRegion):
    """Distinct predecessors of each block, in first-seen order."""
    preds = {id(b): {} for b in region.blocks}
    for b in region.blocks:
        for op in b.operations:
            for s in op.successors:
                seen = preds.get(id(s.block))
                if seen is not None:
                    seen[id(b)] = b
    return {k: list(v.values()) for k, v in preds.items()}


def _dominators(region: IrRegion):
    """Dominator tree of the reachable block CFG, as nesting intervals.

    Immediate dominators come from the Cooper-Harvey-Kennedy algorithm
    ("A Simple, Fast Dominance Algorithm", 2001) over an iterative
    postorder of the blocks reachable from the entry. Edges from
    unreachable blocks are ignored; they carry no executions and must not
    shrink a reachable block's dominators. Returns ``{id(block): (pre,
    post)}`` for every reachable block, numbered by a walk of the
    dominator tree, so ``a`` dominates ``b`` iff ``a``'s interval contains
    ``b``'s: an O(1) query. Each pass of the fixpoint visits every edge
    once, with one walk up the tree built so far per extra predecessor,
    and the passes number at most d + 3, where d is the loop
    connectedness of the CFG (the loop-nesting depth, for the structured
    CFGs the translator emits); on those CFGs the walks are short, so the
    time is linear in blocks and edges.
    """
    blocks = region.blocks
    if not blocks:
        return {}
    here = {id(b) for b in blocks}

    def successors(b):
        return [s.block for op in b.operations for s in op.successors
                if id(s.block) in here]

    # Iterative depth-first postorder from the entry.
    order = []
    po = {}
    seen = {id(blocks[0])}
    stack = [(blocks[0], iter(successors(blocks[0])))]
    while stack:
        b, succs = stack[-1]
        for s in succs:
            if id(s) not in seen:
                seen.add(id(s))
                stack.append((s, iter(successors(s))))
                break
        else:
            stack.pop()
            po[id(b)] = len(order)
            order.append(b)

    preds = [[] for _ in order]
    for b in order:
        for s in successors(b):
            preds[po[id(s)]].append(po[id(b)])
    entry = len(order) - 1
    idom = [None] * len(order)
    idom[entry] = entry
    changed = True
    while changed:
        changed = False
        for i in range(entry - 1, -1, -1):  # reverse postorder
            new = None
            for p in preds[i]:
                if idom[p] is None:
                    continue
                if new is None:
                    new = p
                    continue
                a = p
                while a != new:
                    while a < new:
                        a = idom[a]
                    while new < a:
                        new = idom[new]
            if idom[i] != new:
                idom[i] = new
                changed = True

    children = [[] for _ in order]
    for i in range(entry):
        children[idom[i]].append(i)
    interval = [None] * len(order)
    clock = 0
    stack = [(entry, False)]
    while stack:
        i, closing = stack.pop()
        if closing:
            interval[i] = (interval[i], clock)
        else:
            interval[i] = clock
            stack.append((i, True))
            stack.extend((c, False) for c in children[i])
        clock += 1
    return {id(b): interval[po[id(b)]] for b in order}


def verify_module(module: IrModule) -> VerifyReport:
    """Structurally check every region of ``module``; collects all findings.

    When the module carries a dialect registry (``module.registry``), each
    op is additionally checked against its registered definition.
    """
    registry = module.registry
    report = VerifyReport()

    def flag(category, message, op_name, block=-1):
        report.diagnostics.append(Diagnostic(category, message, op_name, block))

    functions = {}  # symbol -> its FunctionType, or None
    for op in module.symbol_ops():
        sym = op.attributes.get("sym_name")
        if isinstance(sym, SymbolAttr):
            if sym.name in functions:
                flag("duplicate-symbol", f"symbol @{sym.name} redefined", op.name)
            functions[sym.name] = _function_type(op)

    def typed_against(o, returns):
        """(what, values, declared types) of a func.return against its
        function's type and of a func.call against its callee's, as MLIR's
        func dialect checks them."""
        if o.name == "func.return" and returns is not None:
            return [("returned", o.operands, returns.results)]
        callee = o.attributes.get("callee") if o.name == "func.call" else None
        ftype = functions.get(callee.name) if isinstance(callee, SymbolAttr) else None
        return [] if ftype is None else [("operand", o.operands, ftype.inputs),
                                         ("result", o.results, ftype.results)]

    def check_region(region: IrRegion, returns=None):
        in_region = {id(b) for b in region.blocks}
        dom = _dominators(region)  # reachable blocks only

        # Where each value is defined: block plus position (-1 = block arg).
        defs = {}
        for bi, b in enumerate(region.blocks):
            for a in b.arguments:
                defs[a] = (b, -1)
            for oi, o in enumerate(b.operations):
                for r in o.results:
                    defs[r] = (b, oi)

        def dominates_use(value, use_block, use_pos):
            if value not in defs:
                return False  # defined outside this region
            def_block, def_pos = defs[value]
            if def_block is use_block:
                return def_pos < use_pos
            outer = dom.get(id(def_block))
            inner = dom[id(use_block)]
            return (outer is not None and outer[0] <= inner[0]
                    and inner[1] <= outer[1])

        for b in region.blocks:
            ops = b.operations
            if not ops or not ops[-1].is_terminator:
                flag("missing-terminator", "block does not end with a terminator",
                     ops[-1].name if ops else "", b.id)
            for o in ops[:-1]:
                if o.is_terminator:
                    flag("misplaced-terminator", "terminator before end of block",
                         o.name, b.id)

            for pos, o in enumerate(ops):
                for i, r in enumerate(o.results):
                    org = r.origin
                    if not (isinstance(org, OpResult) and org.op is o and org.index == i):
                        flag("result-origin", f"result {i} origin does not point back",
                             o.name, b.id)
                uses = list(o.operands)
                for s in o.successors:
                    uses.extend(s.args)
                if id(b) in dom:
                    for v in uses:
                        if not dominates_use(v, b, pos):
                            flag("dominance", f"use of %{v.id} is not dominated by its "
                                 "definition", o.name, b.id)
                for s in o.successors:
                    if id(s.block) not in in_region:
                        flag("bad-successor", "successor block is not in the same region",
                             o.name, b.id)
                        continue
                    want = [a.type for a in s.block.arguments]
                    got = [v.type for v in s.args]
                    if want != got:
                        flag("bad-successor", f"successor ^bb{s.block.id} expects "
                             f"{len(want)} argument(s) of matching type, got {len(got)}",
                             o.name, b.id)
                for what, values, want in typed_against(o, returns):
                    got = tuple(v.type for v in values)
                    if got != tuple(want):
                        flag("function-type", f"{what} types ({', '.join(map(str, got))}) "
                             f"differ from the function type's ({', '.join(map(str, want))})",
                             o.name, b.id)
                if registry is not None:
                    for d in registry.validate_op(o):
                        d.block = b.id
                        report.diagnostics.append(d)
                for r in o.regions:
                    check_region(r)

    for op in module.symbol_ops():
        if registry is not None:
            for d in registry.validate_op(op):
                report.diagnostics.append(d)
        for r in op.regions:
            check_region(r, _function_type(op))
    return report


def _function_type(op: IrOperation):
    """The FunctionType of a symbol op's ``function_type``, or None."""
    ftype = getattr(op.attributes.get("function_type"), "type", None)
    return ftype if isinstance(ftype, FunctionType) else None


# ---------------------------------------------------------------------------
# Printing


_F32 = struct.Struct("<f")


def to_f32(value: float) -> float:
    """``value`` rounded to the nearest f32, as numpy's cast rounds it but
    without its overflow warning."""
    try:
        return _F32.unpack(_F32.pack(value))[0]
    except OverflowError:  # rounds beyond the largest finite f32
        return math.copysign(math.inf, value)


def format_float(value: float, type: IrType) -> str:
    """Shortest decimal that round-trips at the type's precision.

    Always positional (no exponent) with at least one fractional digit.
    Infinities and NaNs print as MLIR hex literals of their bits at the
    type's width (``0x7F800000`` is f32 inf).
    """
    f32 = isinstance(type, Float32Type)
    if f32:
        value = to_f32(value)
    if not math.isfinite(value):
        bits = int.from_bytes(struct.pack("<f" if f32 else "<d", value), "little")
        return f"0x{bits:0{8 if f32 else 16}X}"
    sign = "-" if math.copysign(1.0, value) < 0 else ""
    text = _shortest_f32(abs(value)) if f32 else repr(abs(value))
    # the value is int(digits) * 10**exp; print it with the point in place
    mantissa, _, exp = text.partition("e")
    whole, _, frac = mantissa.partition(".")
    digits, exp = whole + frac, int(exp or 0) - len(frac)
    point = len(digits) + exp  # digits before the decimal point
    if point <= 0:
        return f"{sign}0.{'0' * -point}{digits}"
    if exp >= 0:
        return f"{sign}{digits}{'0' * exp}.0"
    return f"{sign}{digits[:point]}.{digits[point:]}"


def _shortest_f32(value: float) -> str:
    """The shortest decimal that rounds to the f32 ``value`` >= 0: the first
    correctly rounded ``p``-digit form that reads back.

    Just above a power of two the f32 values are twice as far apart as just
    below it, so there the decimal one step away from zero may read back
    when the nearest one, below the value, does not.
    """
    power_of_two = math.frexp(value)[0] == 0.5
    for p in range(8):
        text = f"{value:.{p}e}"
        if to_f32(float(text)) == value:
            return text
        if power_of_two:
            mantissa, _, exp = text.partition("e")
            text = f"{int(mantissa.replace('.', '')) + 1}e{int(exp) - p}"
            if to_f32(float(text)) == value:
                return text
    return f"{value:.8e}"  # nine digits always read back


def print_type(t: IrType) -> str:
    if isinstance(t, Float32Type):
        return "f32"
    if isinstance(t, Float64Type):
        return "f64"
    if isinstance(t, IntType):
        return f"i{t.width}"
    if isinstance(t, IndexType):
        return "index"
    if isinstance(t, (TensorType, MemRefType)):
        dims = "".join(("?" if d is DYN else str(d)) + "x" for d in t.dims)
        kind = "tensor" if isinstance(t, TensorType) else "memref"
        return f"{kind}<{dims}{print_type(t.elem)}>"
    if isinstance(t, FunctionType):
        ins = ", ".join(print_type(x) for x in t.inputs)
        if len(t.results) == 1:
            outs = print_type(t.results[0])
        else:
            outs = "(" + ", ".join(print_type(x) for x in t.results) + ")"
        return f"({ins}) -> {outs}"
    raise IrError(f"cannot print type {t!r}")


def print_attribute(a: IrAttribute) -> str:
    if isinstance(a, FloatAttr):
        return format_float(a.value, a.type)
    if isinstance(a, IntAttr):
        if isinstance(a.type, IntType) and a.type.width == 1:
            return "true" if a.value else "false"
        return str(a.value)
    if isinstance(a, StringAttr):
        return f'"{a.text}"'
    if isinstance(a, ArrayAttr):
        return "[" + ", ".join(print_attribute(e) for e in a.elements) + "]"
    if isinstance(a, IndexMapAttr):
        axes = ", ".join(f"d{i}" for i in range(a.n_axes))
        tgts = ", ".join(f"d{i}" for i in a.targets)
        return f"affine_map<({axes}) -> ({tgts})>"
    if isinstance(a, SymbolAttr):
        return f"@{a.name}"
    if isinstance(a, TypeAttr):
        return print_type(a.type)
    raise IrError(f"cannot print attribute {a!r}")


class _Printer:
    """Prints one func.func symbol with MLIR-style local value numbering."""

    def __init__(self):
        self.names = {}
        self.next_num = 0
        self.next_cst = 0

    def name_of(self, v: IrValue) -> str:
        return self.names[v]

    def assign_entry_args(self, block: IrBlock):
        for i, a in enumerate(block.arguments):
            self.names[a] = f"%arg{i}"

    def assign_block_args(self, block: IrBlock):
        for a in block.arguments:
            self.names[a] = f"%{self.next_num}"
            self.next_num += 1

    def assign_results(self, op: IrOperation):
        if op.name == "arith.constant" and len(op.results) == 1:
            name = "%cst" if self.next_cst == 0 else f"%cst_{self.next_cst - 1}"
            self.next_cst += 1
            self.names[op.results[0]] = name
            return
        for r in op.results:
            self.names[r] = f"%{self.next_num}"
            self.next_num += 1

    # -- formatting helpers -------------------------------------------

    def succ(self, s: Successor, label) -> str:
        base = f"^bb{label[id(s.block)]}"
        if not s.args:
            return base
        args = ", ".join(self.name_of(v) for v in s.args)
        types = ", ".join(print_type(v.type) for v in s.args)
        return f"{base}({args} : {types})"

    def op_line(self, op: IrOperation, label) -> str:
        n = self.name_of
        name = op.name
        ops_ = op.operands
        if name == "arith.constant":
            value = op.attributes["value"]
            return (f"{n(op.results[0])} = arith.constant "
                    f"{print_attribute(value)} : {print_type(op.results[0].type)}")
        if name in ("arith.negf", "math.exp"):
            return (f"{n(op.results[0])} = {name} {n(ops_[0])} : "
                    f"{print_type(op.results[0].type)}")
        if name in ("arith.addf", "arith.subf", "arith.mulf", "arith.divf",
                    "arith.addi", "arith.subi", "arith.muli"):
            return (f"{n(op.results[0])} = {name} {n(ops_[0])}, {n(ops_[1])} : "
                    f"{print_type(op.results[0].type)}")
        if name == "arith.cmpi":
            pred = op.attributes["predicate"]
            assert isinstance(pred, StringAttr)
            return (f"{n(op.results[0])} = arith.cmpi {pred.text}, "
                    f"{n(ops_[0])}, {n(ops_[1])} : {print_type(ops_[0].type)}")
        if name == "arith.index_cast":
            return (f"{n(op.results[0])} = arith.index_cast {n(ops_[0])} : "
                    f"{print_type(ops_[0].type)} to {print_type(op.results[0].type)}")
        if name == "cf.br":
            return f"cf.br {self.succ(op.successors[0], label)}"
        if name == "cf.cond_br":
            t = self.succ(op.successors[0], label)
            f = self.succ(op.successors[1], label)
            return f"cf.cond_br {n(ops_[0])}, {t}, {f}"
        if name == "func.return":
            if not ops_:
                return "return"
            args = ", ".join(n(v) for v in ops_)
            types = ", ".join(print_type(v.type) for v in ops_)
            return f"return {args} : {types}"
        if name == "func.call":
            callee = op.attributes["callee"]
            args = ", ".join(n(v) for v in ops_)
            ftype = FunctionType(tuple(v.type for v in ops_),
                                 tuple(r.type for r in op.results))
            lhs = ""
            if op.results:
                lhs = ", ".join(n(r) for r in op.results) + " = "
            return f"{lhs}func.call {print_attribute(callee)}({args}) : {print_type(ftype)}"
        if name in ("gpu.thread_id", "gpu.block_id", "gpu.block_dim"):
            dim = op.attributes["dimension"]
            assert isinstance(dim, StringAttr)
            return f"{n(op.results[0])} = {name} {dim.text}"
        if name == "memref.load":
            idx = ", ".join(n(v) for v in ops_[1:])
            return (f"{n(op.results[0])} = memref.load {n(ops_[0])}[{idx}] : "
                    f"{print_type(ops_[0].type)}")
        if name == "memref.store":
            idx = ", ".join(n(v) for v in ops_[2:])
            return (f"memref.store {n(ops_[0])}, {n(ops_[1])}[{idx}] : "
                    f"{print_type(ops_[1].type)}")
        if name == "linalg.yield":
            args = ", ".join(n(v) for v in ops_)
            types = ", ".join(print_type(v.type) for v in ops_)
            return f"linalg.yield {args} : {types}"
        # generic fallback form
        args = ", ".join(n(v) for v in ops_)
        ins = ", ".join(print_type(v.type) for v in ops_)
        outs = ", ".join(print_type(r.type) for r in op.results)
        attrs = ""
        if op.attributes:
            items = ", ".join(f"{k} = {print_attribute(v)}"
                              for k, v in sorted(op.attributes.items()))
            attrs = f" {{{items}}}"
        lhs = ""
        if op.results:
            lhs = ", ".join(n(r) for r in op.results) + " = "
        return f'{lhs}"{name}"({args}){attrs} : ({ins}) -> ({outs})'

    def linalg_generic(self, op: IrOperation, label, indent: str, lines: list):
        n = self.name_of
        maps = print_attribute(op.attributes["indexing_maps"])
        iters = print_attribute(op.attributes["iterator_types"])
        inputs, output = op.operands[:-1], op.operands[-1]
        ins_args = ", ".join(n(v) for v in inputs)
        ins_types = ", ".join(print_type(v.type) for v in inputs)
        out_t = print_type(output.type)
        head = (f"{n(op.results[0])} = linalg.generic "
                f"{{indexing_maps = {maps}, iterator_types = {iters}}} "
                f"ins({ins_args} : {ins_types}) outs({n(output)} : {out_t}) {{")
        lines.append(indent + head)
        self.region(op.regions[0], indent + "  ", lines, entry_label=True)
        res_t = print_type(op.results[0].type)
        lines.append(indent + f"}} -> {res_t}")

    def block_label(self, block: IrBlock, label, preds, with_args: bool) -> str:
        base = f"^bb{label[id(block)]}"
        if with_args and block.arguments:
            args = ", ".join(f"{self.name_of(a)}: {print_type(a.type)}"
                             for a in block.arguments)
            base += f"({args})"
        base += ":"
        ps = preds.get(id(block), [])
        if len(ps) == 1:
            base += f" // pred: ^bb{label[id(ps[0])]}"
        elif len(ps) > 1:
            names = ", ".join(f"^bb{label[id(p)]}" for p in ps)
            base += f" // {len(ps)} preds: {names}"
        return base

    def region(self, region: IrRegion, indent: str, lines: list,
               entry_label: bool):
        label = {id(b): i for i, b in enumerate(region.blocks)}
        preds = _predecessors(region)
        show_entry = entry_label or len(region.blocks) > 1
        for bi, block in enumerate(region.blocks):
            if bi > 0 or entry_label:
                self.assign_block_args(block)
            if bi > 0 or show_entry:
                # entry args live in the signature unless explicitly labeled
                lines.append(indent + self.block_label(
                    block, label, preds, with_args=(bi > 0 or entry_label)))
            for op in block.operations:
                self.assign_results(op)
                if op.name == "linalg.generic":
                    self.linalg_generic(op, label, indent + "  ", lines)
                else:
                    lines.append(indent + "  " + self.op_line(op, label))


def _print_func(op: IrOperation, indent: str, lines: list):
    p = _Printer()
    sym = op.attributes["sym_name"]
    ftype_attr = op.attributes["function_type"]
    assert isinstance(sym, SymbolAttr) and isinstance(ftype_attr, TypeAttr)
    ftype = ftype_attr.type
    assert isinstance(ftype, FunctionType)
    region = op.regions[0]
    p.assign_entry_args(region.entry)
    args = ", ".join(f"{p.name_of(a)}: {print_type(a.type)}"
                     for a in region.entry.arguments)
    if not ftype.results:
        ret = ""
    elif len(ftype.results) == 1:
        ret = f" -> {print_type(ftype.results[0])}"
    else:
        ret = " -> (" + ", ".join(print_type(t) for t in ftype.results) + ")"
    lines.append(f"{indent}func.func @{sym.name}({args}){ret} {{")
    p.region(region, indent, lines, entry_label=False)
    lines.append(indent + "}")


def print_module(module: IrModule) -> str:
    """Deterministic textual form of ``module`` (ends with a newline)."""
    lines = ["module {"]
    for op in module.symbol_ops():
        if op.name == "func.func":
            _print_func(op, "  ", lines)
        else:
            p = _Printer()
            lines.append("  " + p.op_line(op, {}))
    lines.append("}")
    return "\n".join(lines) + "\n"
