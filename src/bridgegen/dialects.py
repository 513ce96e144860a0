"""Declarative dialect definitions and typed, verified operation builders.

Dialects are described in a small line-oriented text format (see
:func:`load_dialect_spec`), registered into a :class:`DialectRegistry`, and
used through :func:`build_op`, which resolves result types from the
declared constraints. Each op rule is stated once, in ``_check``: the
builder raises its first finding and :meth:`DialectRegistry.validate_op`
(which the verifier calls) reports them all, so whatever builds verifies.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import fir, ir
from .ir import (
    Diagnostic,
    IrModule,
    IrOperation,
    IrType,
    F32,
    F64,
    I1,
    I64,
    INDEX,
)

__all__ = [
    "Constraint",
    "OperandSpec",
    "AttrSpec",
    "OpDefinition",
    "DialectDefinition",
    "DialectRegistry",
    "DialectSpecError",
    "BuildError",
    "load_dialect_spec",
    "serialize_dialect",
    "register_dialect",
    "build_op",
    "builtin_registry",
]


class DialectSpecError(Exception):
    """Malformed dialect spec text; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class BuildError(Exception):
    """Raised by build_op when the requested operation is invalid."""


# ---------------------------------------------------------------------------
# Type constraints

_EXACT = {"f32": F32, "f64": F64, "i1": I1, "i64": I64, "index": INDEX}
_KINDS = {
    "AnyFloat": ir.is_float,
    "AnyInteger": ir.is_integer,
    "AnyTensor": lambda t: isinstance(t, ir.TensorType),
    "AnyMemRef": lambda t: isinstance(t, ir.MemRefType),
    "Any": lambda t: True,
}


@dataclass(frozen=True)
class Constraint:
    """One spec type constraint, written as in the spec format.

    ``name`` is an exact type of ``_EXACT``, a kind of ``_KINDS``, or
    ``same``/``elem`` of the operand at ``index``: that operand's type, or
    the element type of that tensor/memref operand.
    """

    name: str
    index: int = -1

    def __str__(self):
        return self.name if self.index < 0 else f"{self.name}({self.index})"

    def resolve(self, operand_types):
        """The unique type satisfying this constraint, or None."""
        if self.index < 0:
            return _EXACT.get(self.name)
        if self.index >= len(operand_types):
            return None
        t = operand_types[self.index]
        if self.name == "same":
            return t
        return t.elem if isinstance(t, (ir.TensorType, ir.MemRefType)) else None

    def admits(self, t: IrType, operand_types) -> bool:
        kind = _KINDS.get(self.name)
        if kind is not None:
            return kind(t)
        return t == self.resolve(operand_types)


def parse_constraint(text: str) -> Constraint:
    if text in _EXACT or text in _KINDS:
        return Constraint(text)
    m = re.fullmatch(r"(same|elem)\((\d+)\)", text)
    if m:
        return Constraint(m.group(1), int(m.group(2)))
    raise ValueError(f"unknown type constraint '{text}'")


# ---------------------------------------------------------------------------
# Definitions


@dataclass(frozen=True)
class OperandSpec:
    name: str
    constraint: Constraint
    variadic: bool = False


_ATTR_KINDS = {  # spec attribute kind -> the attribute class it admits
    "float": ir.FloatAttr,
    "int": ir.IntAttr,
    "string": ir.StringAttr,
    "array": ir.ArrayAttr,
    "symbol": ir.SymbolAttr,
    "type": ir.TypeAttr,
    "any": object,
}


@dataclass(frozen=True)
class AttrSpec:
    name: str
    kind: str
    required: bool = False


@dataclass(frozen=True)
class OpDefinition:
    name: str  # qualified, e.g. "arith.addf"
    doc: str
    operands: tuple = ()
    results: tuple = ()
    attrs: tuple = ()
    regions: int = 0
    is_terminator: bool = False
    successors: object = 0  # int or "variadic"
    # per bind line: (FIR name, parameter type tuples, (attr, text) pairs)
    binds: tuple = ()


@dataclass
class DialectDefinition:
    name: str
    ops: dict = field(default_factory=dict)  # short name -> OpDefinition


class DialectRegistry:
    """Immutable-after-setup map from dialect name to its definition."""

    def __init__(self):
        self.dialects = {}

    def lookup(self, qualified_name: str):
        dialect, _, short = qualified_name.partition(".")
        d = self.dialects.get(dialect)
        if d is None:
            return None
        return d.ops.get(short)

    def validate_op(self, op: IrOperation):
        """Diagnostics for one operation against its registered definition."""
        defn = self.lookup(op.name)
        if defn is None:
            return [Diagnostic("unknown-op", f"'{op.name}' is not registered", op.name)]
        findings = _check(defn, [v.type for v in op.operands],
                          [v.type for v in op.results], op.attributes,
                          len(op.regions), len(op.successors))
        return [Diagnostic(category, message, op.name) for category, message in findings]


def _check(defn: OpDefinition, operand_types, result_types, attributes,
           n_regions: int, n_successors: int):
    """``(category, message)`` findings of one op against ``defn``.

    The single statement of the op rules: :meth:`DialectRegistry.validate_op`
    reports every finding, :func:`build_op` raises the first. They come in
    the order operands, results, attributes, regions, successors;
    ``result_types`` None skips the results.
    """
    findings = []
    for what, specs, types in (("operand", defn.operands, operand_types),
                               ("result", defn.results, result_types)):
        if types is None:
            continue
        # the spec loader keeps a variadic operand or result last
        variadic = bool(specs) and specs[-1].variadic
        fixed = len(specs) - variadic
        if len(types) < fixed or (not variadic and len(types) != fixed):
            findings.append((
                "arity-mismatch",
                f"expected {fixed}{'+' if variadic else ''} {what}(s), got {len(types)}"))
            continue
        for i, t in enumerate(types):
            spec = specs[i] if i < fixed else specs[-1]
            if not spec.constraint.admits(t, operand_types):
                findings.append((
                    "type-constraint",
                    f"{what} '{spec.name}' ({what} {i}) violates {spec.constraint}, "
                    f"got {ir.print_type(t)}"))
    for a in defn.attrs:
        if a.name not in attributes:
            if a.required:
                findings.append(("missing-attr", f"missing required attribute '{a.name}'"))
        elif not isinstance(attributes[a.name], _ATTR_KINDS[a.kind]):
            findings.append(("type-constraint",
                             f"attribute '{a.name}' is not of kind {a.kind}"))
    if n_regions != defn.regions:
        findings.append(("region-count",
                         f"expected {defn.regions} region(s), got {n_regions}"))
    if defn.successors != "variadic" and n_successors != defn.successors:
        findings.append(("bad-successor",
                         f"expected {defn.successors} successor(s), got {n_successors}"))
    if n_successors and not defn.is_terminator:
        findings.append(("bad-successor", "non-terminator op has successors"))
    return findings


# ---------------------------------------------------------------------------
# Spec format


def load_dialect_spec(text: str) -> DialectDefinition:
    """Parse the line-oriented dialect spec format.

    Format::

        dialect <name>
        op <short-name> "docstring"
          operand <name> [variadic] <constraint>
          result <name> [variadic] <constraint>
          attr <name> <kind> [required]
          regions <n>
          terminator [successors <n|variadic>]
          bind <fir-name> (<fir types>)... [<attr>=<string>...]

    Full-line comments start with ``#``. Constraints: ``f32 | f64 | i1 |
    i64 | index | AnyFloat | AnyInteger | AnyTensor | AnyMemRef | Any |
    same(<k>) | elem(<k>)``. A ``bind`` line lets a FIR call with those
    argument types build the op (see :func:`codegen.register_bindings`);
    each ``<attr>`` must be a ``string`` attribute of the op.
    """
    if bad := fir.overlong_number(text):
        raise DialectSpecError(*bad)
    dialect = None
    pending = None  # accumulating op fields until the next header

    def finish():
        nonlocal pending
        if pending is None:
            return
        name, lineno = pending["name"], pending["line"]
        operands, results = pending["operands"], pending["results"]
        for what, specs in (("operand", operands), ("result", results)):
            for i, s in enumerate(specs):
                if s.variadic and i != len(specs) - 1:
                    raise DialectSpecError(
                        lineno, f"variadic {what} '{s.name}' must come last")
                c = s.constraint
                if c.name == "same":
                    limit = i if what == "operand" else len(operands)
                    if c.index >= limit:
                        raise DialectSpecError(
                            lineno,
                            f"same({c.index}) on {what} '{s.name}' does not "
                            f"reference a lower-indexed operand")
                if c.name == "elem" and c.index >= len(operands):
                    raise DialectSpecError(
                        lineno, f"elem({c.index}) on {what} '{s.name}' is dangling")
        if pending["successors"] != 0 and not pending["terminator"]:
            raise DialectSpecError(lineno, "successors require 'terminator'")
        strings = {a.name for a in pending["attrs"] if a.kind == "string"}
        for bind_line, (_, _, attrs) in pending["binds"]:
            for key, _ in attrs:
                if key not in strings:
                    raise DialectSpecError(
                        bind_line, f"'{key}' is not a string attribute of op '{name}'")
        if name in dialect.ops:
            raise DialectSpecError(lineno, f"duplicate op name '{name}'")
        dialect.ops[name] = OpDefinition(
            name=f"{dialect.name}.{name}",
            doc=pending["doc"],
            operands=tuple(operands),
            results=tuple(results),
            attrs=tuple(pending["attrs"]),
            regions=pending["regions"],
            is_terminator=pending["terminator"],
            successors=pending["successors"],
            binds=tuple(b for _, b in pending["binds"]),
        )
        pending = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        words = line.split()
        head = words[0]
        if head == "dialect":
            if dialect is not None:
                raise DialectSpecError(lineno, "only one dialect per spec")
            if len(words) != 2:
                raise DialectSpecError(lineno, "expected 'dialect <name>'")
            dialect = DialectDefinition(words[1])
            continue
        if head == "op":
            if dialect is None:
                raise DialectSpecError(lineno, "'op' before 'dialect' header")
            finish()
            m = re.fullmatch(r'op\s+(\S+)\s+"(.*)"', line)
            if not m:
                raise DialectSpecError(lineno, "expected 'op <name> \"docstring\"'")
            pending = {"name": m.group(1), "doc": m.group(2), "line": lineno,
                       "operands": [], "results": [], "attrs": [],
                       "regions": 0, "terminator": False, "successors": 0,
                       "binds": []}
            continue
        if pending is None:
            raise DialectSpecError(lineno, f"'{head}' outside an op")
        if head in ("operand", "result"):
            rest = words[1:]
            if len(rest) == 3 and rest[1] == "variadic":
                name, c_text, variadic = rest[0], rest[2], True
            elif len(rest) == 2:
                name, c_text, variadic = rest[0], rest[1], False
            else:
                raise DialectSpecError(
                    lineno, f"expected '{head} <name> [variadic] <constraint>'")
            try:
                c = parse_constraint(c_text)
            except ValueError as e:
                raise DialectSpecError(lineno, str(e)) from None
            pending[head + "s"].append(OperandSpec(name, c, variadic))
        elif head == "attr":
            rest = words[1:]
            required = False
            if rest and rest[-1] == "required":
                required = True
                rest = rest[:-1]
            if len(rest) != 2 or rest[1] not in _ATTR_KINDS:
                raise DialectSpecError(
                    lineno, "expected 'attr <name> <kind> [required]'")
            pending["attrs"].append(AttrSpec(rest[0], rest[1], required))
        elif head == "regions":
            if len(words) != 2 or not (words[1].isascii() and words[1].isdigit()):
                raise DialectSpecError(lineno, "expected 'regions <n>'")
            pending["regions"] = int(words[1])
        elif head == "terminator":
            succ = 0
            if len(words) == 3 and words[1] == "successors":
                if words[2] == "variadic":
                    succ = "variadic"
                elif words[2].isascii() and words[2].isdigit():
                    succ = int(words[2])
                else:
                    raise DialectSpecError(
                        lineno, "expected 'successors <n|variadic>'")
            elif len(words) != 1:
                raise DialectSpecError(
                    lineno, "expected 'terminator [successors <n|variadic>]'")
            pending["terminator"] = True
            pending["successors"] = succ
        elif head == "bind":
            m = re.fullmatch(r"bind\s+([^\s(]+)\s*((?:\([^()]*\)\s*)+)((?:\s*\w+=[^\s=]+)*)",
                             line)
            if not m:
                raise DialectSpecError(
                    lineno, "expected 'bind <fir-name> (<fir types>)... "
                            "[<attr>=<string>...]'")
            try:
                signatures = tuple(
                    tuple(fir.parse_frontend_type(t) for t in fir.split_commas(params))
                    for params in re.findall(r"\(([^()]*)\)", m.group(2)))
            except fir.FirError as e:
                raise DialectSpecError(lineno, str(e)) from None
            attrs = tuple(tuple(w.split("=")) for w in m.group(3).split())
            if len({key for key, _ in attrs}) != len(attrs):
                raise DialectSpecError(lineno, "attribute given twice")
            pending["binds"].append((lineno, (m.group(1), signatures, attrs)))
        else:
            raise DialectSpecError(lineno, f"unknown directive '{head}'")
    if dialect is None:
        raise DialectSpecError(0, "missing 'dialect' header")
    finish()
    return dialect


def serialize_dialect(defn: DialectDefinition) -> str:
    """Render a definition back into the dialect text format.

    load_dialect_spec(serialize_dialect(d)) reproduces d exactly.
    """
    out = [f"dialect {defn.name}"]
    for short, op in defn.ops.items():
        out.append("")
        out.append(f'op {short} "{op.doc}"')
        for s in op.operands:
            v = "variadic " if s.variadic else ""
            out.append(f"  operand {s.name} {v}{s.constraint}")
        for s in op.results:
            v = "variadic " if s.variadic else ""
            out.append(f"  result {s.name} {v}{s.constraint}")
        for a in op.attrs:
            req = " required" if a.required else ""
            out.append(f"  attr {a.name} {a.kind}{req}")
        if op.regions:
            out.append(f"  regions {op.regions}")
        if op.is_terminator:
            if op.successors == 0:
                out.append("  terminator")
            else:
                out.append(f"  terminator successors {op.successors}")
        for fir_name, signatures, attrs in op.binds:
            sigs = " ".join(f"({', '.join(map(str, params))})" for params in signatures)
            out.append(f"  bind {fir_name} {sigs}" + "".join(f" {k}={v}" for k, v in attrs))
    return "\n".join(out) + "\n"


def register_dialect(registry: DialectRegistry, defn: DialectDefinition) -> DialectRegistry:
    if defn.name in registry.dialects:
        raise BuildError(f"dialect '{defn.name}' already registered")
    registry.dialects[defn.name] = defn
    return registry


# ---------------------------------------------------------------------------
# Building


def build_op(registry: DialectRegistry, module: IrModule, qualified_name: str,
             operands=(), attributes=None, regions=None, successors=None,
             result_types=None) -> IrOperation:
    """Build a verified operation at the module's insertion point.

    Result types are resolved from the declared constraints where they
    determine a unique type, otherwise ``result_types`` must be supplied.
    The op is then checked by the same rules as
    :meth:`DialectRegistry.validate_op`, and the first finding raises
    :class:`BuildError`.
    """
    defn = registry.lookup(qualified_name)
    if defn is None:
        raise BuildError(f"unknown operation '{qualified_name}'")
    operands = list(operands)
    attributes = dict(attributes or {})
    operand_types = [v.type for v in operands]
    not_inferred = None
    if result_types is None:
        result_types, not_inferred = _infer_results(defn, operand_types, attributes)
    else:
        result_types = list(result_types)
    findings = _check(defn, operand_types, result_types, attributes,
                      len(regions or ()), len(successors or ()))
    if findings or not_inferred:
        raise BuildError(f"{qualified_name}: "
                         f"{findings[0][1] if findings else not_inferred}")
    return ir.create_op(module, qualified_name, operands, result_types,
                        attributes, regions, successors,
                        is_terminator=defn.is_terminator)


def _infer_results(defn: OpDefinition, operand_types, attributes):
    """``(result types, None)``, or ``(None, why not)`` when a result's type
    is not determined by the constraints or a ``value`` attribute."""
    types = []
    for s in defn.results:
        if s.variadic:
            return None, "variadic results; pass result_types"
        t = s.constraint.resolve(operand_types)
        if t is None and "value" in attributes:
            t = getattr(attributes["value"], "type", None)
        if t is None:
            return None, f"cannot infer type of result '{s.name}'; pass result_types"
        types.append(t)
    return types, None


# ---------------------------------------------------------------------------
# Builtin dialect subsets

ARITH_SPEC = """\
# Basic integer and floating point arithmetic.
dialect arith

op constant "Materializes a compile-time constant given by the 'value' attribute."
  attr value any required
  result res Any

op addf "Floating point addition."
  operand lhs AnyFloat
  operand rhs same(0)
  result res same(0)
  bind + (f32, f32) (f64, f64)

op subf "Floating point subtraction."
  operand lhs AnyFloat
  operand rhs same(0)
  result res same(0)
  bind - (f32, f32) (f64, f64)

op mulf "Floating point multiplication."
  operand lhs AnyFloat
  operand rhs same(0)
  result res same(0)
  bind * (f32, f32) (f64, f64)

op divf "Floating point division."
  operand lhs AnyFloat
  operand rhs same(0)
  result res same(0)
  bind / (f32, f32) (f64, f64)

op negf "Floating point negation."
  operand value AnyFloat
  result res same(0)
  bind - (f32) (f64)

op addi "Integer addition (also defined on index)."
  operand lhs AnyInteger
  operand rhs same(0)
  result res same(0)
  bind + (i64, i64) (index, index)

op subi "Integer subtraction (also defined on index)."
  operand lhs AnyInteger
  operand rhs same(0)
  result res same(0)
  bind - (i64, i64) (index, index)

op muli "Integer multiplication (also defined on index)."
  operand lhs AnyInteger
  operand rhs same(0)
  result res same(0)
  bind * (i64, i64) (index, index)

op cmpi "Integer comparison; 'predicate' is one of eq|ne|slt|sle|sgt|sge."
  operand lhs AnyInteger
  operand rhs same(0)
  attr predicate string required
  result res i1
  bind == (i64, i64) (index, index) predicate=eq
  bind != (i64, i64) (index, index) predicate=ne
  bind < (i64, i64) (index, index) predicate=slt
  bind <= (i64, i64) (index, index) predicate=sle
  bind > (i64, i64) (index, index) predicate=sgt
  bind >= (i64, i64) (index, index) predicate=sge

op index_cast "Cast between index and a fixed-width integer type."
  operand in AnyInteger
  result res AnyInteger
"""

MATH_SPEC = """\
# Transcendental math functions.
dialect math

op exp "Natural exponential."
  operand value AnyFloat
  result res same(0)
  bind exp (f32) (f64)
"""

CF_SPEC = """\
# Unstructured control flow between blocks of one region.
dialect cf

op br "Unconditional branch; block arguments travel on the successor edge."
  terminator successors 1

op cond_br "Two-way branch on an i1 condition (true successor first)."
  operand condition i1
  terminator successors 2
"""

FUNC_SPEC = """\
# Function definition, return, and direct calls.
dialect func

op func "Function definition; the body region's entry arguments are the parameters."
  attr sym_name symbol required
  attr function_type type required
  regions 1

op return "Function terminator returning the operand values to the caller."
  operand operands variadic Any
  terminator

op call "Direct call of a func.func symbol in the same module."
  operand operands variadic Any
  attr callee symbol required
  result results variadic Any
"""

LINALG_SPEC = """\
# Structured linear-algebra operations on tensors.
dialect linalg

op generic "Generic structured op; indexing maps and iterator types drive the loop nest around the body region."
  operand operands variadic AnyTensor
  attr indexing_maps array required
  attr iterator_types array required
  regions 1
  result results variadic AnyTensor

op yield "Yields per-element results from a structured-op body."
  operand values variadic Any
  terminator
"""

GPU_SPEC = """\
# Thread-indexing queries for GPU-style kernels.
dialect gpu

op thread_id "Index of the executing thread within its block along dimension x|y|z."
  attr dimension string required
  result res index
  bind thread_idx_x () dimension=x
  bind thread_idx_y () dimension=y
  bind thread_idx_z () dimension=z

op block_id "Index of the executing thread's block along dimension x|y|z."
  attr dimension string required
  result res index
  bind block_idx_x () dimension=x
  bind block_idx_y () dimension=y
  bind block_idx_z () dimension=z

op block_dim "Number of threads per block along dimension x|y|z."
  attr dimension string required
  result res index
  bind block_dim_x () dimension=x
  bind block_dim_y () dimension=y
  bind block_dim_z () dimension=z
"""

MEMREF_SPEC = """\
# Loads and stores against memref buffers.
dialect memref

op load "Reads one element at the given indices."
  operand memref AnyMemRef
  operand indices variadic index
  result res elem(0)
  bind load (memref{f32,1}, index) (memref{f64,1}, index)

op store "Writes 'value' at the given indices."
  operand value elem(1)
  operand memref AnyMemRef
  operand indices variadic index
  bind store (f32, memref{f32,1}, index) (f64, memref{f64,1}, index)
"""

BUILTIN_SPECS = (ARITH_SPEC, MATH_SPEC, CF_SPEC, FUNC_SPEC, LINALG_SPEC,
                 GPU_SPEC, MEMREF_SPEC)


_BUILTIN_DEFINITIONS = tuple(map(load_dialect_spec, BUILTIN_SPECS))


def builtin_registry() -> DialectRegistry:
    """A new registry preloaded with the builtin dialect subsets, parsed
    once per process: registries share these definitions, which nothing
    mutates, and a dialect registered later goes into one registry alone."""
    registry = DialectRegistry()
    for defn in _BUILTIN_DEFINITIONS:
        register_dialect(registry, defn)
    return registry
