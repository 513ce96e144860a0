"""Einsum expressions lowered to linalg.generic operations.

An einsum spec like ``(i,k),(k,j)->(i,j)`` is parsed into index tuples,
indexing maps and iterator types are derived (an axis is parallel exactly
when its index appears in the output), and the structured op's body region
is produced by nested translation of a synthesized multiply-accumulate
function.
"""

from __future__ import annotations

import re

from . import codegen, dialects, fir, ir
from ._record import Frozen, setfield

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


class EinsumSpec(Frozen):
    __slots__ = ("inputs", "output", "axes")

    def __init__(self, inputs: tuple, output: tuple, axes: tuple):
        setfield(self, "inputs", inputs)   # tuple of index-name tuples
        setfield(self, "output", output)   # index-name tuple
        setfield(self, "axes", axes)       # iteration-space axis order (distinct index names)

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

    seen_inputs = list(dict.fromkeys(n for tup in inputs for n in tup))  # in first-seen order
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
    output. Their element types pick the body's; ``build_op`` checks the
    generic's own facts, their count, kinds and ranks."""
    elem = None
    for v in operands:
        t = getattr(v.type, "elem", v.type)
        if not ir.is_float(t):
            raise EinsumError(f"element type {t} is not a float type")
        if elem is None:
            elem = t
        elif t != elem:
            raise EinsumError("operands must share one element type")

    maps, iterators = derive_maps(spec)
    # with no operands build_op refuses the generic, whatever its body
    body = _body_function(spec, _FRONTEND_ELEMS.get(elem, fir.F32))
    region = codegen.generate_region(ctx, body, "linalg.yield")
    return ctx.build_op(
        "linalg.generic",
        operands,
        attributes={
            "indexing_maps": ir.ArrayAttr(tuple(maps)),
            "iterator_types": ir.ArrayAttr(
                tuple(ir.StringAttr(s) for s in iterators)),
        },
        regions=[region],
        result_types=[v.type for v in operands[-1:]],
    )


def build_einsum_function(registry, spec: EinsumSpec) -> ir.IrModule:
    """Wrapper module: a function @einsum taking the f32 operand tensors
    (inputs then output) and returning the generic op's result tensor."""
    module = ir.IrModule(registry=registry.dialects)
    tensor_types = [codegen.map_type(registry, fir.tensor_of(fir.F32, len(tup)))[0]
                    for tup in spec.inputs + (spec.output,)]
    result_t = tensor_types[-1]
    region = module.new_region()
    dialects.build_op(module, "func.func",
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
