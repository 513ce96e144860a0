"""Translation engine: frontend SSA statements to dialect operations.

Intrinsic functions are the bridge: each is a builder callback registered
under a (name, parameter types) signature, selected by multiple dispatch
over all argument types: ``resolve_method`` and the literal-promotion
retry filter the applicable methods by their own rule and share one
search for the unique most specific one. The engine walks a validated, fully inlined
frontend function statement by statement, mirrors its CFG one block per
source block, and turns phi nodes into block arguments whose values are
passed by the predecessor branches.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from . import dialects as dl
from . import fir
from . import ir

__all__ = [
    "CodegenError",
    "NoMethodError",
    "AmbiguousMethodError",
    "CompileError",
    "IntrinsicSignature",
    "IntrinsicRegistry",
    "BuilderContext",
    "register_intrinsic",
    "register_bindings",
    "emit",
    "resolve_method",
    "map_type",
    "materialize_constant",
    "generate",
    "generate_region",
    "compile_program",
]


class CodegenError(Exception):
    pass


class NoMethodError(CodegenError):
    pass


class AmbiguousMethodError(CodegenError):
    pass


class CompileError(CodegenError):
    """``fir.validate_fir`` rejected the program, with one ``"<fn>:
    <violation>"`` line each in ``violations``, or ``ir.verify_module``
    rejected the generated module (``violations`` is empty)."""

    def __init__(self, message: str, violations=()):
        super().__init__(message)
        self.violations = violations


@dataclass(frozen=True)
class IntrinsicSignature:
    name: str
    param_types: tuple

    def __str__(self):
        params = ", ".join(str(t) for t in self.param_types)
        return f"{self.name}({params})"


def _pointwise_le(a: IntrinsicSignature, b: IntrinsicSignature) -> bool:
    return all(fir.subtype(x, y) for x, y in zip(a.param_types, b.param_types))


class IntrinsicRegistry:
    """Dispatch table from intrinsic signatures to operation builders.

    Also owns the frontend-to-IR type mapping, the control-flow hooks
    invoked for goto/gotoifnot/return statements, and per-type bool
    conversion builders. Call dispatches are memoised per registry (see
    ``_resolve_call``); :func:`register_intrinsic` clears that cache, so
    methods may be added at any time between translations.
    """

    def __init__(self, dialect_registry=None):
        self.dialects = dialect_registry or dl.builtin_registry()
        self.methods = {}  # name -> list[(IntrinsicSignature, builder)]
        self.dispatch_cache = {}  # see _resolve_call
        self.scalar_types = {
            fir.F32: ir.F32,
            fir.F64: ir.F64,
            fir.I64: ir.I64,
            fir.I1: ir.I1,
            fir.INDEX: ir.INDEX,
            fir.BOOL: ir.I1,
        }
        self.bool_conversions = {}  # condition FrontendType -> builder
        self.generate_goto = _default_goto
        self.generate_gotoifnot = _default_gotoifnot
        self.generate_return = _default_return

    def has_name(self, name: str) -> bool:
        return name in self.methods

    def signatures(self, name: str):
        return [sig for sig, _ in self.methods.get(name, [])]


def register_intrinsic(registry: IntrinsicRegistry, signature: IntrinsicSignature,
                       builder) -> IntrinsicRegistry:
    """Make ``builder`` resolvable under ``signature``.

    The builder receives ``(ctx, args)`` where ``args`` holds one value
    sequence per frontend argument (structured types arrive unpacked), and
    returns the result value sequence.
    """
    entries = registry.methods.setdefault(signature.name, [])
    for sig, _ in entries:
        if sig == signature:
            raise CodegenError(f"duplicate intrinsic signature {signature}")
    entries.append((signature, builder))
    registry.dispatch_cache.clear()
    return registry


def emit(op_name: str, **attributes):
    """Builder for an intrinsic that is one ``op_name`` op with
    ``attributes``, taking the arguments' values in order as its operands
    and returning the op's results."""

    def build(ctx, args):
        operands = [v for values in args for v in values]
        return list(ctx.build_op(op_name, operands, attributes).results)

    return build


def register_bindings(registry: IntrinsicRegistry, *dialect_names) -> IntrinsicRegistry:
    """Register every ``bind`` line of the named dialects' ops: each
    signature resolves to ``emit(op, **attrs)``."""
    for dialect in dialect_names:
        for op in registry.dialects.dialects[dialect].ops.values():
            for fir_name, signatures, attrs in op.binds:
                build = emit(op.name, **{k: ir.StringAttr(v) for k, v in attrs})
                for params in signatures:
                    register_intrinsic(registry, IntrinsicSignature(fir_name, params), build)
    return registry


def resolve_method(registry: IntrinsicRegistry, name: str, arg_types):
    """Most specific applicable builder for ``name`` over ``arg_types``.

    Applicability is pointwise subtyping; specificity is the pointwise
    order. A unique minimum must exist, otherwise the call is ambiguous.
    """
    arg_types = tuple(arg_types)
    probe = IntrinsicSignature(name, arg_types)
    return _most_specific(probe, "", [
        (sig, builder)
        for sig, builder in registry.methods.get(name, [])
        if len(sig.param_types) == len(arg_types) and _pointwise_le(probe, sig)
    ])


def _most_specific(probe: IntrinsicSignature, how: str, applicable):
    """The unique pointwise-minimal ``(signature, builder)`` of the methods
    applicable to ``probe``; ``how`` names the applicability rule in errors."""
    if not applicable:
        raise NoMethodError(f"no method matching {probe}{how}")
    best = applicable[0]
    for cand in applicable[1:]:
        if _pointwise_le(cand[0], best[0]):
            best = cand
    for cand in applicable:
        if not _pointwise_le(best[0], cand[0]):
            tied = ", ".join(str(s) for s, _ in applicable
                             if not _pointwise_le(best[0], s) or s == best[0])
            raise AmbiguousMethodError(
                f"ambiguous call {probe}{how}; candidates: {tied}")
    return best


def map_type(registry: IntrinsicRegistry, frontend_type) -> list:
    """Flatten a concrete frontend type into its IR type sequence.

    Scalars map through the registry table; tensors/memrefs become ranked
    types with dynamic extents; structured types (Complex) concatenate
    their components in field order; Nothing is empty.
    """
    t = frontend_type
    if not isinstance(t, fir.Concrete):
        raise CodegenError(f"cannot map non-concrete type {t}")
    if t in registry.scalar_types:
        return [registry.scalar_types[t]]
    if t.name == "Nothing":
        return []
    if t.name in ("tensor", "memref"):
        elem, rank = t.params
        elems = map_type(registry, elem)
        if len(elems) != 1:
            raise CodegenError(f"{t}: element type must map to one IR type")
        cls = ir.TensorType if t.name == "tensor" else ir.MemRefType
        return [cls(elems[0], (ir.DYN,) * rank)]
    if t.name == "Complex":
        inner = map_type(registry, t.params[0])
        return inner + inner
    raise CodegenError(f"no IR mapping for frontend type {t}")


# ---------------------------------------------------------------------------
# Builder context


@dataclass
class BuilderContext:
    """Per-translation bookkeeping; never shared across threads."""

    module: ir.IrModule
    registry: IntrinsicRegistry
    region: ir.IrRegion
    entry_block: ir.IrBlock = None  # the region's first block
    block: ir.IrBlock = None
    block_map: dict = field(default_factory=dict)   # FIR block number -> IrBlock
    values: dict = field(default_factory=dict)      # FIR SSA id / param -> [IrValue]
    constants: dict = field(default_factory=dict)   # (value, IrType) -> IrValue
    n_constants: int = 0
    # FIR block -> [(phi, start, count, {pred: arg})], one per head phi
    phi_slots: dict = field(default_factory=dict)
    return_hook: object = None

    @property
    def dialects(self):
        return self.registry.dialects

    def set_block(self, block: ir.IrBlock):
        self.block = block
        self.module.set_insertion(block)

    def build_op(self, name, operands=(), attributes=None, regions=None,
                 successors=None, result_types=None) -> ir.IrOperation:
        self.module.set_insertion(self.block)
        return dl.build_op(self.dialects, self.module, name, operands,
                           attributes, regions, successors, result_types)


def _default_goto(ctx: BuilderContext, target, args):
    ctx.build_op("cf.br", successors=[(target, args)])


def _default_gotoifnot(ctx: BuilderContext, cond, true_block, true_args,
                       false_block, false_args):
    ctx.build_op("cf.cond_br", [cond],
                 successors=[(true_block, true_args), (false_block, false_args)])


def _default_return(ctx: BuilderContext, values):
    ctx.build_op("func.return", values)


def materialize_constant(ctx: BuilderContext, literal, target_type) -> ir.IrValue:
    """One deduplicated arith.constant in the entry block per (value, type)
    for the FIR literal as a value of ``target_type``, which must hold it
    (``fir.literal_fits``).

    Float values are told apart by their bits at the type's width, not by
    ``==``.
    """
    if not fir.literal_fits(target_type, literal):
        raise CodegenError(f"literal {literal} is not a value of {target_type}")
    t = map_type(ctx.registry, target_type)[0]
    if isinstance(t, (ir.Float32Type, ir.Float64Type)):
        attr = ir.FloatAttr(float(literal.value), t)
        # by bit pattern at the declared width: 0.0 and -0.0 stay apart,
        # equal NaNs and literals that round to one f32 merge
        key = struct.pack("<d", ir.to_f32(attr.value)
                          if isinstance(t, ir.Float32Type) else attr.value), t
    else:
        attr = ir.IntAttr(int(literal.value), t)
        key = attr.value, t
    cached = ctx.constants.get(key)
    if cached is not None:
        return cached
    op = ctx.build_op("arith.constant", attributes={"value": attr})
    # constants lead the entry block, in order of first use
    ctx.entry_block.operations.insert(ctx.n_constants, ctx.block.operations.pop())
    ctx.n_constants += 1
    v = op.results[0]
    ctx.constants[key] = v
    return v


# ---------------------------------------------------------------------------
# Statement translation


def _is_literal(arg) -> bool:
    return not isinstance(arg, (fir.SsaRef, fir.ParamRef))


def _resolve_call(registry: IntrinsicRegistry, name: str, args, natural_types):
    """Dispatch with literal promotion: natural types first, then retry
    admitting literal arguments wherever they promote to the parameter type.

    Both steps ask ``fir.admits`` and are memoised in
    ``registry.dispatch_cache``. A natural-type result is keyed on the name
    and types alone, and holds when each literal is a value of its natural
    type (``2**64`` is not an i64); a promoted one is keyed on each literal
    argument's value too, because promotion depends on it (``3`` promotes
    to f32, ``2**25`` does not).
    """
    cache = registry.dispatch_cache
    key = (name, tuple(natural_types))
    if key not in cache:
        try:
            cache[key] = resolve_method(registry, name, key[1])
        except NoMethodError:
            cache[key] = None  # only literal promotion can match
    if cache[key] is not None and all(map(fir.admits, key[1], args, key[1])):
        return cache[key]  # each literal is a value of its natural type
    probe = IntrinsicSignature(name, key[1])
    if not any(_is_literal(a) for a in args):
        raise NoMethodError(f"no method matching {probe}")
    key += (tuple(a.value if _is_literal(a) else None for a in args),)
    if key not in cache:
        literals = ", ".join(str(a) for a in args if _is_literal(a))
        cache[key] = _most_specific(probe, f" (with literal promotion of {literals})", [
            (sig, builder)
            for sig, builder in registry.methods.get(name, [])
            if len(sig.param_types) == len(args) and all(
                fir.admits(param, arg, natural)
                for arg, natural, param in zip(args, key[1], sig.param_types))
        ])
    return cache[key]


class _Translator:
    def __init__(self, ctx: BuilderContext, type_of):
        self.ctx = ctx
        self.type_of = type_of  # fir.arg_typer of the translated function

    def arg_values(self, arg, literal_type=None):
        """IR values for an SSA value, a parameter or a literal, which is
        materialized."""
        ctx = self.ctx
        if isinstance(arg, fir.SsaRef):
            return list(ctx.values[("ssa", arg.id)])
        if isinstance(arg, fir.ParamRef):
            return list(ctx.values[("param", arg.index)])
        t = literal_type
        if t is None or not isinstance(t, fir.Concrete):
            t = self.type_of(arg)
        return [materialize_constant(ctx, arg, t)]

    def phi_edge_args(self, target: int, pred: int):
        """Values a branch from ``pred`` must pass for ``target``'s phis."""
        return [v for phi, _, _, incoming in self.ctx.phi_slots.get(target, ())
                for v in self.arg_values(incoming[pred], phi.result_type)]

    def translate_invoke(self, st: fir.Invoke, block_number: int):
        ctx = self.ctx
        if st.target == fir.BOOL_CONVERSION:
            if len(st.args) != 1:
                raise CodegenError(
                    f"%{st.id}: {fir.BOOL_CONVERSION} takes one argument")
            arg = st.args[0]
            cond_type = self.type_of(arg)
            conv = ctx.registry.bool_conversions.get(cond_type)
            if conv is not None:
                values = conv(ctx, self.arg_values(arg))
            else:
                values = self.arg_values(arg, fir.BOOL if _is_literal(arg) else None)
                if [v.type for v in values] != [ir.I1]:
                    raise CodegenError(
                        f"%{st.id}: no bool conversion registered for "
                        f"condition type {cond_type}")
            ctx.values[("ssa", st.id)] = list(values)
            return
        natural = [self.type_of(a) for a in st.args]
        try:
            sig, builder = _resolve_call(ctx.registry, st.target, st.args, natural)
        except (NoMethodError, AmbiguousMethodError) as e:
            raise type(e)(f"%{st.id} in block {block_number}: {e}") from None
        arg_values = [
            self.arg_values(a, sig.param_types[i] if _is_literal(a) else None)
            for i, a in enumerate(st.args)
        ]
        results = builder(ctx, arg_values)
        ctx.values[("ssa", st.id)] = list(results or [])

    def translate_block(self, number: int, statements):
        ctx = self.ctx
        ctx.set_block(ctx.block_map[number])

        slots = ctx.phi_slots.get(number, ())  # the i-th is statement i's
        terminated = False
        for i, st in enumerate(statements):
            if isinstance(st, fir.Invoke):
                self.translate_invoke(st, number)
            elif isinstance(st, fir.Phi):
                _, start, count, _ = slots[i]
                block = ctx.block_map[number]
                ctx.values[("ssa", st.id)] = block.arguments[start:start + count]
            elif isinstance(st, fir.Nothing):
                continue
            elif isinstance(st, fir.Goto):
                target = ctx.block_map[st.target]
                args = self.phi_edge_args(st.target, number)
                ctx.registry.generate_goto(ctx, target, args)
                terminated = True
            elif isinstance(st, fir.GotoIfNot):
                cond_values = self.arg_values(st.cond)
                if [v.type for v in cond_values] != [ir.I1]:
                    t = self.type_of(st.cond)
                    raise CodegenError(
                        f"block {number}: branch condition of type {t} did not "
                        f"lower to i1; missing bool conversion")
                # fall-through-on-true: the lexically next block, which the
                # fallthrough edge itself keeps reachable
                true_number = number + 1
                ctx.registry.generate_gotoifnot(
                    ctx,
                    cond_values[0],
                    ctx.block_map[true_number],
                    self.phi_edge_args(true_number, number),
                    ctx.block_map[st.target],
                    self.phi_edge_args(st.target, number),
                )
                terminated = True
            elif isinstance(st, fir.Return):
                values = [] if st.value is None else self.arg_values(st.value)
                hook = ctx.return_hook or ctx.registry.generate_return
                hook(ctx, values)
                terminated = True
        if not terminated:
            target = number + 1
            ctx.registry.generate_goto(ctx, ctx.block_map[target],
                                       self.phi_edge_args(target, number))


def _return_type(fn: fir.FirFunction, type_of):
    kinds = [fir.NOTHING if st.value is None else type_of(st.value)
             for _, st in fn.statements() if isinstance(st, fir.Return)]
    if not kinds:
        return fir.NOTHING
    first = kinds[0]
    for k in kinds[1:]:
        if k != first:
            raise CodegenError(
                f"inconsistent return types: {first} vs {k}")
    return first


def _prepare_blocks(ctx: BuilderContext, fn: fir.FirFunction, entry_types):
    """Pre-create one block per reachable source block, with one argument
    group per phi at the block head."""
    if fir.predecessors(fn)[1]:
        raise CodegenError("the entry block may not be a branch target")
    for number in sorted(fir.reachable_blocks(fn)):
        if number == 1:
            block = ctx.module.append_block(ctx.region, entry_types)
        else:
            arg_types = []
            slots = []
            for st in fn.blocks[number - 1]:
                if not isinstance(st, fir.Phi):
                    break
                ts = map_type(ctx.registry, st.result_type)
                slots.append((st, len(arg_types), len(ts), dict(st.incomings)))
                arg_types.extend(ts)
            block = ctx.module.append_block(ctx.region, arg_types)
            ctx.phi_slots[number] = slots
        ctx.block_map[number] = block
    ctx.entry_block = ctx.block_map[1]


def _translate_into(ctx: BuilderContext, fn: fir.FirFunction, type_of):
    """Translate ``fn`` into ``ctx.region``; the entry block's arguments
    are ``fn``'s parameters, each flattened by :func:`map_type`."""
    groups = [map_type(ctx.registry, t) for t in fn.param_types]
    _prepare_blocks(ctx, fn, [t for ts in groups for t in ts])
    start = 0
    for i, ts in enumerate(groups, start=1):
        ctx.values[("param", i)] = ctx.entry_block.arguments[start:start + len(ts)]
        start += len(ts)
    translator = _Translator(ctx, type_of)
    for number in sorted(ctx.block_map):
        translator.translate_block(number, fn.blocks[number - 1])


def generate(registry: IntrinsicRegistry, fn: fir.FirFunction, arg_types) -> ir.IrModule:
    """Translate ``fn`` into a module holding one func.func symbol.

    The function must be validated (``fir.validate_fir`` finds nothing;
    its structure is not checked again here), fully inlined, and
    bool-converted; ``arg_types`` must be its declared parameter types.
    """
    if list(arg_types) != list(fn.param_types):
        raise CodegenError(
            f"argument types {[str(t) for t in arg_types]} do not match the "
            f"declared parameter types of '{fn.name}'")
    type_of = fir.arg_typer(fn)
    result_types = map_type(registry, _return_type(fn, type_of))
    module = ir.IrModule(registry=registry.dialects)
    ctx = BuilderContext(module=module, registry=registry, region=module.new_region())
    _translate_into(ctx, fn, type_of)
    ftype = ir.FunctionType(tuple(v.type for v in ctx.entry_block.arguments),
                            tuple(result_types))
    module.set_insertion(module.body.blocks[0])
    dl.build_op(registry.dialects, module, "func.func",
                attributes={
                    "sym_name": ir.SymbolAttr(fn.name),
                    "function_type": ir.TypeAttr(ftype),
                },
                regions=[ctx.region])
    return module


def compile_program(registry: IntrinsicRegistry, program: fir.FirProgram, entry: str,
                    arg_types) -> ir.IrModule:
    """The verified module of ``program``'s function ``entry``: validate
    every function, inline calls into ``entry`` (``registry``'s names stay
    intrinsic calls), bool-convert, generate and verify. Raises CompileError
    when validation or verification fails; the phases' FirError,
    CodegenError and BuildError pass through."""
    violations = [f"{name}: {v}" for name, fn in program.functions.items()
                  for v in fir.validate_fir(fn)]
    if violations:
        raise CompileError("\n".join(violations), violations)
    inlined = fir.inline_calls(program, entry, lambda name, types: registry.has_name(name))
    module = generate(registry, fir.insert_bool_conversions(inlined), arg_types)
    report = ir.verify_module(module)
    if not report.ok:
        raise CompileError(f"generated module failed verification:\n{report}")
    return module


def generate_region(ctx: BuilderContext, fn: fir.FirFunction, return_hook) -> ir.IrRegion:
    """Translate ``fn`` into a fresh region of ``ctx``'s module, with
    ``ctx``'s registry; the region's entry block takes ``fn``'s parameters.

    Return statements run ``return_hook`` (e.g. a linalg.yield builder)
    instead of emitting func.return. Used by intrinsics that wrap nested
    code in a region-carrying operation.
    """
    region = ctx.module.new_region()
    sub = BuilderContext(module=ctx.module, registry=ctx.registry, region=region,
                         return_hook=return_hook)
    _translate_into(sub, fn, fir.arg_typer(fn))
    ctx.module.set_insertion(ctx.block)
    return region
