"""Command-line driver: parse frontend IR, translate, verify, print, run.

Subcommands:

* ``gen``   : parse the input, run ``codegen.compile_program`` (validate,
  inline, bool-convert, generate, verify) and print the module.
* ``run``   : generate and then interpret; ``--launch`` switches to the
  simulated thread-grid kernel launcher.
* ``einsum``: build and print a module wrapping one linalg.generic for
  an einsum spec.

Diagnostics go to stderr, IR and results to stdout. Exit codes: 0 on
success, 1 on pipeline or interpreter failure, 2 on usage errors. Any
other exception is a defect; it is reported as one ``error: internal:``
line with exit code 1 rather than a traceback.

Only ``run`` loads the interpreter and numpy; ``gen`` and ``einsum`` do
not. Only ``einsum`` loads the einsum lowering.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

from . import codegen, dialects, fir, ir

__all__ = ["main", "build_parser"]

STEP_LIMIT_ENV = "BRIDGEGEN_STEP_LIMIT"
MAX_INPUT_ELEMENTS = 2 ** 20  # the most elements a buffer literal spells


class CliError(Exception):
    """Pipeline failure reported on stderr with exit code 1."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bridgegen",
        description="Translate typed frontend SSA IR into dialect operations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", help="frontend IR file")
        p.add_argument("--entry", required=True, help="entry function symbol")
        p.add_argument("--types", required=True,
                       help="comma-separated argument types, e.g. f32 or i64,i64")
        p.add_argument("--dialect", action="append", default=[],
                       metavar="PATH", help="extra dialect spec file (repeatable)")

    gen = sub.add_parser("gen", help="translate and print the module")
    common(gen)
    gen.add_argument("--out", help="write the printed module here instead of stdout")

    run = sub.add_parser("run", help="translate and interpret")
    common(run)
    run.add_argument("--launch", metavar="GX,GY,GZ,BX,BY,BZ",
                     help="thread-grid launch configuration for GPU kernels")
    run.add_argument("inputs", nargs="*",
                     help="runtime inputs, e.g. 2.0 or [1,2,3]:f32")

    es = sub.add_parser("einsum", help="print a module for an einsum spec")
    es.add_argument("spec", help="einsum spec, e.g. '(i,k),(k,j)->(i,j)'")
    es.add_argument("--shapes", help="comma-separated operand shapes, e.g. 4x3,3x5,4x5")
    es.add_argument("--out", help="write the printed module here instead of stdout")
    return parser


def _parse_types(text: str):
    parts = [p for p in fir.split_commas(text) if p]
    try:
        return [fir.parse_frontend_type(p) for p in parts]
    except fir.FirError as e:
        raise CliError(f"--types: {e}") from None


def _build_registry(extra_dialect_paths):
    registry = codegen.register_bindings(codegen.IntrinsicRegistry(),
                                         "arith", "math", "gpu", "memref")
    for path in extra_dialect_paths:
        try:
            with open(path, encoding="utf-8") as f:
                text = f.read()
        except OSError as e:
            raise CliError(f"cannot read dialect spec {path}: {e}") from None
        try:
            defn = dialects.load_dialect_spec(text)
            dialects.register_dialect(registry.dialects, defn)
            codegen.register_bindings(registry, defn.name)
        except (dialects.DialectSpecError, dialects.BuildError,
                codegen.CodegenError) as e:
            raise CliError(f"{path}: {e}") from None
    return registry


def _pipeline(parser, args):
    """Read and parse the input, check the entry and ``--types``, and run
    ``codegen.compile_program``."""
    registry = _build_registry(args.dialect)
    try:
        with open(args.input, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise CliError(f"cannot read {args.input}: {e}") from None
    try:
        program = fir.parse_program(text)
    except fir.FirError as e:
        raise CliError(f"{args.input}: {e}") from None
    if args.entry not in program.functions:
        raise CliError(f"{args.input}: no function named '{args.entry}'")
    arg_types = _parse_types(args.types)
    n_params = len(program.functions[args.entry].param_types)
    if len(arg_types) != n_params:
        parser.error(f"--types lists {len(arg_types)} type(s) but '{args.entry}' "
                     f"takes {n_params}")
    try:
        return codegen.compile_program(registry, program, args.entry, arg_types)
    except codegen.CompileError as e:  # validation lines name the file
        raise CliError("\n".join(f"{args.input}: {v}" for v in e.violations)
                       or str(e)) from None
    except (fir.FirError, codegen.CodegenError, dialects.BuildError) as e:
        raise CliError(str(e)) from None


def _emit(text: str, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as f:
                f.write(text)
        except OSError as e:
            raise CliError(f"cannot write {out_path}: {e}") from None
    else:
        sys.stdout.write(text)


def cmd_gen(parser, args) -> int:
    module = _pipeline(parser, args)
    _emit(ir.print_module(module), args.out)
    return 0


_RANGE_RE = re.compile(
    r"(-?\d+(?:\.\d+)?)\.\.(-?\d+(?:\.\d+)?)(?:\.\.(-?\d+(?:\.\d+)?))?")
_REPEAT_RE = re.compile(r"(-?\d+(?:\.\d+)?)\s*[x×]\s*(\d+)")


def _elements(n, body: str):
    """``n``, the element count of buffer literal ``body``, checked against
    MAX_INPUT_ELEMENTS before any element is built."""
    if not n < MAX_INPUT_ELEMENTS + 1:  # floor(n) <= the cap; also NaN, inf
        raise CliError(f"'[{body}]' spells more than {MAX_INPUT_ELEMENTS} elements")
    return n


def _parse_array_body(body: str, number):
    """The elements ``body`` spells, each read by ``number`` (int or float);
    raises ValueError on one it refuses. A range ``lo..hi..step`` takes
    ``lo + k * step`` up to its inclusive end, which a float range may pass
    by a rounding error, 1e-9 of a step."""
    body = body.strip()
    m = _RANGE_RE.fullmatch(body)
    if m:
        lo, hi, step = number(m.group(1)), number(m.group(2)), number(m.group(3) or "1")
        if step == 0:
            raise ValueError("zero range step")
        n = (hi - lo) // step + 1 if number is int else (hi - lo) / step + 1 + 1e-9
        return [lo + k * step for k in range(math.floor(_elements(n, body)))]
    m = _REPEAT_RE.fullmatch(body)
    if m:
        return [number(m.group(1))] * _elements(int(m.group(2)), body)
    if not body:
        return []
    _elements(body.count(",") + 1, body)
    return [number(p) for p in body.split(",")]


def parse_runtime_input(text: str, expected: ir.IrType) -> interp.RuntimeValue:
    """Parse one CLI input literal against the expected IR type.

    Scalars: ``2.0``, ``3``, ``true`` (i1 only). Buffers: ``[1,2,3]:f32``,
    ``[1..8]:f32`` (inclusive range), ``[0x8]:f32`` (value x count), of at
    most MAX_INPUT_ELEMENTS elements. An integer scalar or buffer element
    (i1, i64, index) takes integer literals only; an integer scalar one of
    its type by ``fir.literal_fits``, as a FIR literal.
    """
    from . import interp
    text = text.strip()
    if bad := fir.overlong_number(text):
        raise CliError(f"input: {bad[1]}")
    m = re.fullmatch(r"\[(.*)\]\s*:\s*(f32|f64|i64|index)", text)
    if m:
        if not isinstance(expected, (ir.TensorType, ir.MemRefType)):
            raise CliError(f"'{text}' is a buffer but {expected} was expected")
        if m.group(2) != ir.print_type(expected.elem):
            raise CliError(
                f"'{text}' has element type {m.group(2)}, expected {expected.elem}")
        number = int if m.group(2) in ("i64", "index") else float
        try:
            return interp.value_of_type(expected, _parse_array_body(m.group(1), number))
        except ValueError:
            raise CliError(f"cannot parse buffer literal '{text}'") from None
        except OverflowError:
            raise CliError(f"an element of '{text}' does not fit in int64") from None
    if isinstance(expected, (ir.TensorType, ir.MemRefType)):
        raise CliError(f"expected a buffer literal like [1,2,3]:f32, got '{text}'")
    if text in ("true", "false"):
        if expected != ir.I1:
            raise CliError(f"input literal {text} is not a value of {expected}")
        return interp.value_of_type(expected, 1 if text == "true" else 0)
    integral = isinstance(expected, (ir.IntType, ir.IndexType))
    try:
        raw = float(text) if not integral and ("." in text or "e" in text) else int(text)
    except ValueError:
        raise CliError(f"{expected} input '{text}' is not an integer literal" if integral
                       else f"cannot parse input literal '{text}'") from None
    if integral and not fir.literal_fits(fir.parse_frontend_type(str(expected)),
                                         fir.IntLit(raw)):
        raise CliError(f"input literal {text} is not a value of {expected}")
    return interp.value_of_type(expected, raw)


def format_runtime_value(v: interp.RuntimeValue) -> str:
    """f32 values as numpy prints them, f64 as Python does, integers in
    decimal; a buffer as the list of its elements in row-major order."""
    import numpy as np
    from . import interp

    def scalar(x):
        if isinstance(x, np.float32):
            return str(x)
        return repr(float(x)) if isinstance(x, float) else str(int(x))
    if isinstance(v, (interp.TensorValue, interp.MemRefValue)):
        return f"[{', '.join(map(scalar, v.data.reshape(-1)))}]"
    return scalar(np.float32(v.value) if isinstance(v, interp.F32Value) else v.value)


def _parse_launch(text: str) -> interp.LaunchConfig:
    from . import interp
    parts = text.split(",")
    if len(parts) != 6 or not all(re.fullmatch(r"[+-]?[0-9]+", p.strip()) for p in parts):
        raise CliError("--launch expects six integers: gx,gy,gz,bx,by,bz")
    if bad := fir.overlong_number(text):
        raise CliError(f"--launch: {bad[1]}")
    nums = [int(p) for p in parts]
    return interp.LaunchConfig(tuple(nums[:3]), tuple(nums[3:]))


def cmd_run(parser, args) -> int:
    from . import interp
    module = _pipeline(parser, args)
    func = module.lookup_symbol(args.entry)
    ftype = func.attributes["function_type"].type
    if len(args.inputs) != len(ftype.inputs):
        parser.error(
            f"'{args.entry}' takes {len(ftype.inputs)} input(s), "
            f"got {len(args.inputs)}")
    values = [parse_runtime_input(t, e) for t, e in zip(args.inputs, ftype.inputs)]

    step_limit = interp.DEFAULT_STEP_LIMIT
    env = os.environ.get(STEP_LIMIT_ENV)
    if env:
        try:
            step_limit = int(env)
        except ValueError:
            raise CliError(f"{STEP_LIMIT_ENV} must be an integer, got '{env}'")

    try:
        if args.launch:
            launch = _parse_launch(args.launch)
            outputs = interp.run_kernel(module, args.entry, launch, values,
                                        step_limit=step_limit)
        else:
            outputs = interp.run_function(module, args.entry, values,
                                          step_limit=step_limit)
    except interp.MissingLaunchConfig:
        raise CliError("missing launch config: this kernel uses gpu operations; "
                       "pass --launch gx,gy,gz,bx,by,bz") from None
    except interp.InterpError as e:
        raise CliError(str(e)) from None
    for v in outputs:
        sys.stdout.write(format_runtime_value(v) + "\n")
    return 0


def cmd_einsum(parser, args) -> int:
    from . import einsum

    try:
        spec = einsum.parse_einsum(args.spec)
    except einsum.EinsumError as e:
        raise CliError(str(e)) from None
    if args.shapes:
        _check_shapes(spec, args.shapes)
    module = einsum.build_einsum_function(_build_registry([]), spec)
    report = ir.verify_module(module)
    if not report.ok:
        raise CliError(f"generated module failed verification:\n{report}")
    _emit(ir.print_module(module), args.out)
    return 0


def _check_shapes(spec: einsum.EinsumSpec, text: str):
    if bad := fir.overlong_number(text):
        raise CliError(f"--shapes: {bad[1]}")
    shapes = []
    for part in text.split(","):
        dims = part.strip().split("x")
        if not all(d.isascii() and d.isdigit() for d in dims):
            raise CliError(f"bad shape '{part.strip()}'")
        shapes.append(tuple(int(d) for d in dims))
    tuples = spec.inputs + (spec.output,)
    if len(shapes) != len(tuples):
        raise CliError(
            f"{len(tuples)} operand shape(s) expected, got {len(shapes)}")
    extent = {}
    for shape, tup in zip(shapes, tuples):
        if len(shape) != len(tup):
            raise CliError(f"shape {'x'.join(map(str, shape))} has rank {len(shape)}; "
                           f"index tuple ({','.join(tup)}) needs {len(tup)}")
        for d, name in zip(shape, tup):
            if name in extent and extent[name] != d:
                raise CliError(
                    f"index '{name}' has inconsistent extents "
                    f"{extent[name]} and {d}")
            extent[name] = d


def main(argv=None) -> int:
    parser = build_parser()
    handlers = {"gen": cmd_gen, "run": cmd_run, "einsum": cmd_einsum}
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse mishandles "--" ahead of a subparser's nargs="*" positional;
    # everything after it is runtime input
    extra = []
    if "--" in argv:
        split = argv.index("--")
        extra = argv[split + 1:]
        argv = argv[:split]
    try:
        args = parser.parse_args(argv)
        if extra:
            if args.command != "run":
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
            args.inputs = list(args.inputs) + extra
        return handlers[args.command](parser, args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # argparse usage errors carry code 2
        return e.code if isinstance(e.code, int) else 2
    except Exception as e:  # a defect, but still one line and exit 1
        print(f"error: internal: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
