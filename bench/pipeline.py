"""bridgegen's public compile steps, one layer call at a time.

``compile_fir`` runs the steps of ``bridgegen gen`` (parse, validate,
inline, bool-convert, generate, verify, print) with the same
``is_intrinsic`` predicate as the CLI. Every layer call goes through
``call(name, fn, *args)``: :func:`tracing.direct` when untraced,
:meth:`tracing.Tracer.call` when traced.
"""

from __future__ import annotations

from bridgegen import codegen, einsum, fir, intrinsics, ir
from bridgegen.gpu import register_gpu_intrinsics

from tracing import direct


class CompileFailure(Exception):
    """Validation or verification rejected the program."""


def build_registry(call=direct):
    registry = call("intrinsics.default_registry", intrinsics.default_registry)
    call("gpu.register_gpu_intrinsics", register_gpu_intrinsics, registry)
    return registry


def compile_fir(registry, text, entry, types, call=direct):
    """Returns (parsed program, inlined function, module, printed text)."""
    arg_types = [fir.parse_frontend_type(t) for t in types]

    def is_intrinsic(name, arg_types):
        return registry.has_name(name) or name == fir.BOOL_CONVERSION

    program = call("fir.parse_program", fir.parse_program, text)
    violations = call("fir.validate_fir", fir.validate_fir, program.functions[entry])
    if violations:
        raise CompileFailure("; ".join(violations))
    inlined = call("fir.inline_calls", fir.inline_calls, program, entry, is_intrinsic)
    converted = call("fir.insert_bool_conversions", fir.insert_bool_conversions,
                     inlined)
    module = call("codegen.generate", codegen.generate, registry, converted,
                  arg_types)
    report = call("ir.verify_module", ir.verify_module, module)
    if not report.ok:
        raise CompileFailure(str(report))
    printed = call("ir.print_module", ir.print_module, module)
    return program, inlined, module, printed


def compile_einsum(registry, spec, call=direct):
    """The steps of ``bridgegen einsum``: returns (module, printed text)."""
    parsed = einsum.parse_einsum(spec)
    module = call("einsum.build_einsum_function", einsum.build_einsum_function,
                  registry, parsed)
    report = call("ir.verify_module", ir.verify_module, module)
    if not report.ok:
        raise CompileFailure(str(report))
    return module, call("ir.print_module", ir.print_module, module)
