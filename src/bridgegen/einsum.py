"""Einsum expressions lowered to linalg.generic operations.

An einsum spec like ``(i,k),(k,j)->(i,j)`` is parsed into index tuples,
indexing maps and iterator types are derived (an axis is parallel exactly
when its index appears in the output), and the structured op's body region
is produced by nested translation of a synthesized multiply-accumulate
function.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import codegen, dialects, fir, ir

__all__ = [
    "EinsumError",
    "EinsumSpec",
    "parse_einsum",
    "derive_maps",
    "build_generic",
    "build_einsum_function",
]


class EinsumError(Exception):
    pass


@dataclass(frozen=True)
class EinsumSpec:
    inputs: tuple   # tuple of index-name tuples
    output: tuple   # index-name tuple
    axes: tuple     # iteration-space axis order (distinct index names)

    def axis_of(self, index: str) -> int:
        return self.axes.index(index)


_TUPLE_RE = re.compile(r"\(([^()]*)\)")
_LHS_RE = re.compile(r"\s*\([^()]*\)(?:\s*,\s*\([^()]*\))*\s*")
_RHS_RE = re.compile(r"\s*\([^()]*\)\s*")


def _parse_tuple(text: str, what: str):
    names = [n.strip() for n in text.split(",") if n.strip()]
    for n in names:
        if not re.fullmatch(r"[A-Za-z_]\w*", n):
            raise EinsumError(f"bad index name '{n}' in {what}")
    if len(set(names)) != len(names):
        raise EinsumError(
            f"repeated index within one {what} tuple (diagonals unsupported)")
    return tuple(names)


def parse_einsum(text: str) -> EinsumSpec:
    """Parse ``(i,k),(k,j)->(i,j)`` style einsum text.

    The axis order is the output indices in appearance order followed by
    the remaining input-only indices in first-appearance order.
    """
    if "->" not in text:
        raise EinsumError("einsum spec needs '->'")
    lhs, rhs = text.split("->", 1)
    if not _LHS_RE.fullmatch(lhs) or not _RHS_RE.fullmatch(rhs):
        raise EinsumError(f"cannot parse einsum spec '{text}'")
    in_tuples = _TUPLE_RE.findall(lhs)
    out_tuples = _TUPLE_RE.findall(rhs)
    inputs = tuple(_parse_tuple(t, "input") for t in in_tuples)
    output = _parse_tuple(out_tuples[0], "output")

    seen_inputs = []
    for tup in inputs:
        for n in tup:
            if n not in seen_inputs:
                seen_inputs.append(n)
    for n in output:
        if n not in seen_inputs:
            raise EinsumError(f"output index '{n}' does not appear in any input")
    axes = list(output) + [n for n in seen_inputs if n not in output]
    return EinsumSpec(inputs, output, tuple(axes))


def derive_maps(spec: EinsumSpec):
    """Indexing maps (inputs then output) and per-axis iterator types."""
    n = len(spec.axes)
    maps = [
        ir.IndexMapAttr(n, tuple(spec.axis_of(i) for i in tup))
        for tup in spec.inputs + (spec.output,)
    ]
    iterators = ["parallel" if a in spec.output else "reduction"
                 for a in spec.axes]
    return maps, iterators


_FRONTEND_ELEMS = {ir.F32: fir.F32, ir.F64: fir.F64}


def _body_function(spec: EinsumSpec, elem: fir.FrontendType) -> fir.FirFunction:
    """Per-point body: product of the input elements accumulated onto the
    output element; a lone all-parallel input is passed through directly."""
    n = len(spec.inputs)
    params = [elem] * (n + 1)
    all_parallel = all(i in spec.output for i in spec.axes)
    if n == 1 and all_parallel:
        body = [fir.Return(fir.ParamRef(1))]
        return fir.FirFunction("einsum_body", params, [body])
    stmts = []
    nxt = 1
    acc = fir.ParamRef(1)
    for k in range(2, n + 1):
        stmts.append(fir.Invoke(nxt, "*", [acc, fir.ParamRef(k)], elem))
        acc = fir.SsaRef(nxt)
        nxt += 1
    stmts.append(fir.Invoke(nxt, "+", [acc, fir.ParamRef(n + 1)], elem))
    stmts.append(fir.Return(fir.SsaRef(nxt)))
    return fir.FirFunction("einsum_body", params, [stmts])


def build_generic(ctx: codegen.BuilderContext, spec: EinsumSpec,
                  operands) -> ir.IrOperation:
    """Emit one linalg.generic at ``ctx``'s insertion block, its body
    translated with ``ctx``'s registry; ``operands`` are input tensors then
    output."""
    if len(operands) != len(spec.inputs) + 1:
        raise EinsumError(
            f"expected {len(spec.inputs)} input(s) plus one output operand, "
            f"got {len(operands)}")
    elem = None
    for v, tup in zip(operands, spec.inputs + (spec.output,)):
        t = v.type
        if not isinstance(t, ir.TensorType):
            raise EinsumError(f"operand {v!r} is not a tensor")
        if t.rank != len(tup):
            raise EinsumError(
                f"operand rank {t.rank} does not match index tuple {tup}")
        if not ir.is_float(t.elem):
            raise EinsumError(f"element type {t.elem} is not a float type")
        if elem is None:
            elem = t.elem
        elif t.elem != elem:
            raise EinsumError("operands must share one element type")

    maps, iterators = derive_maps(spec)
    body = _body_function(spec, _FRONTEND_ELEMS[elem])

    def yield_hook(body_ctx, values):
        body_ctx.build_op("linalg.yield", values)

    region = codegen.generate_region(ctx, body, yield_hook)
    return ctx.build_op(
        "linalg.generic",
        operands,
        attributes={
            "indexing_maps": ir.ArrayAttr(tuple(maps)),
            "iterator_types": ir.ArrayAttr(
                tuple(ir.StringAttr(s) for s in iterators)),
        },
        regions=[region],
        result_types=[operands[-1].type],
    )


def build_einsum_function(registry, spec: EinsumSpec) -> ir.IrModule:
    """Wrapper module: a function @einsum taking the f32 operand tensors
    (inputs then output) and returning the generic op's result tensor."""
    module = ir.IrModule(registry=registry.dialects)
    tensor_types = [codegen.map_type(registry, fir.tensor_of(fir.F32, len(tup)))[0]
                    for tup in spec.inputs + (spec.output,)]
    result_t = tensor_types[-1]
    region = module.new_region()
    dialects.build_op(registry.dialects, module, "func.func",
                      attributes={
                          "sym_name": ir.SymbolAttr("einsum"),
                          "function_type": ir.TypeAttr(
                              ir.FunctionType(tuple(tensor_types), (result_t,))),
                      },
                      regions=[region])
    entry = module.append_block(region, tensor_types)
    ctx = codegen.BuilderContext(module=module, registry=registry,
                                 region=region, entry_block=entry)
    ctx.set_block(entry)
    op = build_generic(ctx, spec, list(entry.arguments))
    ctx.build_op("func.return", [op.results[0]])
    return module
