"""Standard intrinsic function definitions for the builtin dialects.

Scalar arithmetic, comparison, and math intrinsics over the frontend
number types. Each registration binds one (name, parameter types)
signature to a builder that emits the corresponding dialect operation.
"""

from __future__ import annotations

from . import fir
from .codegen import IntrinsicRegistry, IntrinsicSignature, emit, register_intrinsic
from .ir import StringAttr

__all__ = ["register_scalar_intrinsics", "default_registry"]

_FLOAT_BINARY = {
    "+": "arith.addf",
    "-": "arith.subf",
    "*": "arith.mulf",
    "/": "arith.divf",
}

_INT_BINARY = {
    "+": "arith.addi",
    "-": "arith.subi",
    "*": "arith.muli",
}

_COMPARISONS = {
    "==": "eq",
    "!=": "ne",
    "<": "slt",
    "<=": "sle",
    ">": "sgt",
    ">=": "sge",
}


def register_scalar_intrinsics(registry: IntrinsicRegistry) -> IntrinsicRegistry:
    """Float/integer arithmetic, comparisons, and exp for f32/f64/i64."""
    for t in (fir.F32, fir.F64):
        for name, op in _FLOAT_BINARY.items():
            register_intrinsic(registry, IntrinsicSignature(name, (t, t)),
                               emit(op))
        register_intrinsic(registry, IntrinsicSignature("-", (t,)),
                           emit("arith.negf"))
        register_intrinsic(registry, IntrinsicSignature("exp", (t,)),
                           emit("math.exp"))
    for t in (fir.I64, fir.INDEX):
        for name, op in _INT_BINARY.items():
            register_intrinsic(registry, IntrinsicSignature(name, (t, t)),
                               emit(op))
        for name, predicate in _COMPARISONS.items():
            register_intrinsic(registry, IntrinsicSignature(name, (t, t)),
                               emit("arith.cmpi", predicate=StringAttr(predicate)))
    return registry


def default_registry() -> IntrinsicRegistry:
    """Registry with the builtin dialects and the scalar intrinsics."""
    return register_scalar_intrinsics(IntrinsicRegistry())
