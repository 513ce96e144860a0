"""GPU kernel intrinsics: ``thread_idx_x`` etc. (0-based index queries on
the gpu dialect) and rank-1 ``load``/``store`` on memref, as declared by
the ``bind`` lines of the builtin ``gpu`` and ``memref`` dialect specs,
so a straight-line kernel translates without any cf operations. It remains
only for ``bench/pipeline.py`` until ROADMAP item 1: other callers use
``codegen.register_bindings``."""

from __future__ import annotations

from .codegen import IntrinsicRegistry, register_bindings

__all__ = ["register_gpu_intrinsics"]


def register_gpu_intrinsics(registry: IntrinsicRegistry) -> IntrinsicRegistry:
    """Add the thread-indexing and buffer-access intrinsics to ``registry``."""
    return register_bindings(registry, "gpu", "memref")
