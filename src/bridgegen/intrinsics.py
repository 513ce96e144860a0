"""The scalar intrinsics: float and integer arithmetic, integer
comparisons and exp over f32/f64/i64/index, as declared by the ``bind``
lines of the builtin ``arith`` and ``math`` dialect specs."""

from __future__ import annotations

from .codegen import IntrinsicRegistry, register_bindings

__all__ = ["default_registry"]


def default_registry() -> IntrinsicRegistry:
    """Registry with the builtin dialects and the scalar intrinsics."""
    return register_bindings(IntrinsicRegistry(), "arith", "math")
