"""GPU kernel intrinsics: thread indexing and rank-1 buffer access.

Maps frontend thread-index queries onto gpu dialect operations (0-based,
as the gpu dialect defines them) and load/store onto memref operations,
so a straight-line kernel translates without any cf operations.
"""

from __future__ import annotations

from enum import Enum

from . import fir
from .codegen import IntrinsicRegistry, IntrinsicSignature, emit, register_intrinsic
from .intrinsics import _INT_BINARY
from .ir import StringAttr

__all__ = ["GpuDimension", "register_gpu_intrinsics"]


class GpuDimension(Enum):
    x = "x"
    y = "y"
    z = "z"


_ID_OPS = {
    "thread_idx": "gpu.thread_id",
    "block_idx": "gpu.block_id",
    "block_dim": "gpu.block_dim",
}


def register_gpu_intrinsics(registry: IntrinsicRegistry) -> IntrinsicRegistry:
    """Thread/block indexing, rank-1 load/store, and index arithmetic.

    Indexing intrinsics are named ``thread_idx_x`` etc. and return a
    0-based index.
    """
    for base, op_name in _ID_OPS.items():
        for dim in GpuDimension:
            register_intrinsic(
                registry,
                IntrinsicSignature(f"{base}_{dim.value}", ()),
                emit(op_name, dimension=StringAttr(dim.value)),
            )
    for elem in (fir.F32, fir.F64):
        buf = fir.memref_of(elem, 1)
        register_intrinsic(
            registry,
            IntrinsicSignature("load", (buf, fir.INDEX)),
            emit("memref.load"),
        )
        register_intrinsic(
            registry,
            IntrinsicSignature("store", (elem, buf, fir.INDEX)),
            emit("memref.store"),
        )
    # index arithmetic rides on the scalar registrations when present;
    # fill it in for registries built without them
    for name, op in _INT_BINARY.items():
        sig = IntrinsicSignature(name, (fir.INDEX, fir.INDEX))
        if sig not in registry.signatures(name):
            register_intrinsic(registry, sig, emit(op))
    return registry
