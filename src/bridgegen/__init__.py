"""Desk-scale multi-dialect IR framework and frontend-SSA translation engine."""

from .codegen import (
    AmbiguousMethodError,
    BuilderContext,
    CodegenError,
    CompileError,
    IntrinsicRegistry,
    IntrinsicSignature,
    NoMethodError,
    compile_program,
    generate,
    generate_region,
    map_type,
    materialize_constant,
    register_bindings,
    register_intrinsic,
    resolve_method,
)
from .dialects import (
    BuildError,
    DialectRegistry,
    DialectSpecError,
    build_op,
    builtin_registry,
    load_dialect_spec,
    register_dialect,
    serialize_dialect,
)
from .fir import (
    FirError,
    FirFunction,
    FirProgram,
    inline_calls,
    insert_bool_conversions,
    parse_program,
    print_fir,
    validate_fir,
)
from .ir import (
    IrBlock,
    IrError,
    IrModule,
    IrOperation,
    IrRegion,
    IrValue,
    create_op,
    print_module,
    verify_module,
)

__version__ = "0.1.0"
