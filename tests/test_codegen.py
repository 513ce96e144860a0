"""Dispatch resolution, type mapping, and the translation engine."""

import math
import random
import re

import pytest

from bridgegen import codegen, fir, interp, ir
from bridgegen.codegen import (
    AmbiguousMethodError,
    BuilderContext,
    CodegenError,
    CompileError,
    IntrinsicRegistry,
    IntrinsicSignature,
    NoMethodError,
    generate,
    generate_region,
    map_type,
    materialize_constant,
    register_bindings,
    register_intrinsic,
    resolve_method,
)
from bridgegen.dialects import BuildError
from conftest import (
    MAX_FIR,
    MAX_GOLDEN,
    SIGMOID_FIR,
    SIGMOID_GOLDEN,
    find_golden,
    generated_cfg,
    oracle_resolve,
    random_fir_function,
    reachable_fir_edges,
    run_pipeline,
    walk_ops,
)


def dummy_builder(ctx, args):
    return []


class TestDispatch:
    def test_concrete_beats_abstract(self):
        reg = IntrinsicRegistry()
        s1 = IntrinsicSignature("+", (fir.F32, fir.F32))
        s2 = IntrinsicSignature("+", (fir.ABSTRACT_FLOAT, fir.ABSTRACT_FLOAT))
        register_intrinsic(reg, s1, "concrete")
        register_intrinsic(reg, s2, "abstract")
        sig, builder = resolve_method(reg, "+", (fir.F32, fir.F32))
        assert sig == s1 and builder == "concrete"
        sig, builder = resolve_method(reg, "+", (fir.F64, fir.F64))
        assert sig == s2

    def test_no_method(self):
        reg = IntrinsicRegistry()
        register_intrinsic(reg, IntrinsicSignature("+", (fir.F32, fir.F32)),
                           dummy_builder)
        with pytest.raises(NoMethodError, match=r"\+\(f32, f64\)"):
            resolve_method(reg, "+", (fir.F32, fir.F64))

    def test_ambiguous_lists_tied_signatures(self):
        reg = IntrinsicRegistry()
        register_intrinsic(
            reg, IntrinsicSignature("+", (fir.F32, fir.ABSTRACT_FLOAT)), "a")
        register_intrinsic(
            reg, IntrinsicSignature("+", (fir.ABSTRACT_FLOAT, fir.F32)), "b")
        with pytest.raises(AmbiguousMethodError) as info:
            resolve_method(reg, "+", (fir.F32, fir.F32))
        message = str(info.value)
        assert "+(f32, AbstractFloat)" in message
        assert "+(AbstractFloat, f32)" in message

    def test_ambiguity_broken_by_more_specific_method(self):
        reg = IntrinsicRegistry()
        register_intrinsic(
            reg, IntrinsicSignature("+", (fir.F32, fir.ABSTRACT_FLOAT)), "a")
        register_intrinsic(
            reg, IntrinsicSignature("+", (fir.ABSTRACT_FLOAT, fir.F32)), "b")
        register_intrinsic(
            reg, IntrinsicSignature("+", (fir.F32, fir.F32)), "c")
        _, builder = resolve_method(reg, "+", (fir.F32, fir.F32))
        assert builder == "c"

    def test_duplicate_signature_rejected(self):
        reg = IntrinsicRegistry()
        sig = IntrinsicSignature("+", (fir.F32, fir.F32))
        register_intrinsic(reg, sig, dummy_builder)
        with pytest.raises(CodegenError, match="duplicate"):
            register_intrinsic(reg, IntrinsicSignature("+", (fir.F32, fir.F32)),
                               dummy_builder)

    def test_abstract_and_concrete_coexist(self):
        reg = IntrinsicRegistry()
        register_intrinsic(reg, IntrinsicSignature("+", (fir.F32, fir.F32)),
                           dummy_builder)
        register_intrinsic(
            reg,
            IntrinsicSignature("+", (fir.ABSTRACT_FLOAT, fir.ABSTRACT_FLOAT)),
            dummy_builder)
        assert len(reg.methods["+"]) == 2

    def test_matches_bruteforce_oracle(self):
        lattice = [fir.F32, fir.F64, fir.I64, fir.ABSTRACT_FLOAT, fir.INTEGER,
                   fir.ANY]
        concrete = [fir.F32, fir.F64, fir.I64]
        rng = random.Random(7)
        for _ in range(500):
            reg = IntrinsicRegistry()
            arity = rng.randint(1, 3)
            sigs = set()
            while len(sigs) < rng.randint(1, 6):
                sigs.add(tuple(rng.choice(lattice) for _ in range(arity)))
            for params in sigs:
                register_intrinsic(reg, IntrinsicSignature("f", params),
                                   dummy_builder)
            args = tuple(rng.choice(concrete) for _ in range(arity))
            expect_kind, expect_sig = oracle_resolve([sig for sig, _ in reg.methods["f"]], args)
            try:
                got_sig, _ = resolve_method(reg, "f", args)
                got = ("ok", got_sig)
            except NoMethodError:
                got = ("nomethod", None)
            except AmbiguousMethodError:
                got = ("ambiguous", None)
            assert got == (expect_kind, expect_sig), (sigs, args)


def unary_builder(op_name):
    def build(ctx, args):
        return list(ctx.build_op(op_name, [args[0][0]]).results)

    return build


INT_PAIRS = ("(i64, i64)", "(index, index)")
FLOAT_PAIRS = ("(f32, f32)", "(f64, f64)")
SCALAR_SIGNATURES = {
    **{op: FLOAT_PAIRS + INT_PAIRS for op in ("+", "*")},
    "-": FLOAT_PAIRS + INT_PAIRS + ("(f32)", "(f64)"),
    "/": FLOAT_PAIRS,
    **{op: INT_PAIRS for op in ("==", "!=", "<", "<=", ">", ">=")},
    "exp": ("(f32)", "(f64)"),
}
GPU_SIGNATURES = {
    **{f"{base}_{dim}": ("()",) for base in ("thread_idx", "block_idx", "block_dim")
       for dim in "xyz"},
    "load": ("(memref{f32,1}, index)", "(memref{f64,1}, index)"),
    "store": ("(f32, memref{f32,1}, index)", "(f64, memref{f64,1}, index)"),
}


def signature_sets(registry):
    return {name: {str(sig) for sig, _ in methods}
            for name, methods in registry.methods.items()}


def test_builtin_signature_sets():
    """Every builtin intrinsic name and the set of its signatures, pinned."""
    want = {name: {name + params for params in sigs}
            for name, sigs in SCALAR_SIGNATURES.items()}
    registry = register_bindings(IntrinsicRegistry(), "arith", "math")
    assert signature_sets(registry) == want
    register_bindings(registry, "gpu", "memref")
    want.update({name: {name + params for params in sigs}
                 for name, sigs in GPU_SIGNATURES.items()})
    assert signature_sets(registry) == want
    assert IntrinsicRegistry().methods == {}


class TestDispatchCache:
    def test_registering_a_more_specific_method_takes_effect(self):
        reg = IntrinsicRegistry()
        register_intrinsic(reg, IntrinsicSignature("g", (fir.ABSTRACT_FLOAT,)),
                           unary_builder("arith.negf"))
        fn = fir.parse_program(
            "fn f(_1: f32)\n1:\n  %1 = invoke g(_1) :: f32\n  return %1\n"
        ).functions["f"]
        first = ir.print_module(generate(reg, fn, [fir.F32]))
        assert "arith.negf" in first and "math.exp" not in first
        register_intrinsic(reg, IntrinsicSignature("g", (fir.F32,)),
                           unary_builder("math.exp"))
        second = ir.print_module(generate(reg, fn, [fir.F32]))
        assert "math.exp" in second and "arith.negf" not in second

    def test_literal_promotion_depends_on_the_literal_value(self):
        # same name and natural types (i64); only 3 fits f32 exactly
        reg = IntrinsicRegistry()
        register_intrinsic(reg, IntrinsicSignature("g", (fir.F32,)),
                           unary_builder("arith.negf"))

        def call_with(literal):
            text = (f"fn f()\n1:\n  %1 = invoke g({literal}) :: f32\n"
                    "  return %1\n")
            return generate(reg, fir.parse_program(text).functions["f"], [])

        assert "arith.constant 3.0 : f32" in ir.print_module(call_with(3))
        with pytest.raises(NoMethodError,
                           match=r"g\(i64\) \(with literal promotion of 33554432\)"):
            call_with(2 ** 25)

    def test_literal_for_an_abstract_parameter_keeps_its_natural_type(self):
        # promotion admits 1.5, an f64, for AbstractFloat, but not 3, an i64
        reg = IntrinsicRegistry()
        register_intrinsic(reg, IntrinsicSignature("g", (fir.ABSTRACT_FLOAT, fir.F32)),
                           lambda ctx, args: list(args[0]))

        def call_with(literal):
            text = f"fn f()\n1:\n  %1 = invoke g({literal}, 2) :: f64\n  return %1\n"
            return generate(reg, fir.parse_program(text).functions["f"], [])

        printed = ir.print_module(call_with(1.5))
        assert "arith.constant 1.5 : f64" in printed and "arith.constant 2.0 : f32" in printed
        with pytest.raises(NoMethodError, match=re.escape(
                "no method matching g(i64, i64) (with literal promotion of 3, 2)")):
            call_with(3)


class TestMapType:
    def test_scalars(self, registry):
        assert map_type(registry, fir.F32) == [ir.F32]
        assert map_type(registry, fir.F64) == [ir.F64]
        assert map_type(registry, fir.I1) == [ir.IntType(1)]
        assert map_type(registry, fir.BOOL) == [ir.IntType(1)]
        assert map_type(registry, fir.INDEX) == [ir.INDEX]

    def test_complex_unpacks(self, registry):
        assert map_type(registry, fir.complex_of(fir.F32)) == [ir.F32, ir.F32]
        assert map_type(registry, fir.complex_of(fir.complex_of(fir.F32))) == [ir.F32] * 4

    def test_tensor_dynamic_dims(self, registry):
        [t] = map_type(registry, fir.tensor_of(fir.F32, 2))
        assert t == ir.TensorType(ir.F32, (None, None))

    def test_nothing_is_empty(self, registry):
        assert map_type(registry, fir.NOTHING) == []

    def test_abstract_rejected(self, registry):
        with pytest.raises(CodegenError):
            map_type(registry, fir.ABSTRACT_FLOAT)

    def test_element_of_one_ir_type(self, registry):
        for elem in (fir.complex_of(fir.F32), fir.NOTHING):
            t = fir.tensor_of(elem, 1)
            with pytest.raises(CodegenError, match=re.escape(
                    f"{t}: element type must map to one IR type")):
                map_type(registry, t)

    def test_concrete_type_without_a_mapping(self, registry):
        with pytest.raises(CodegenError, match="^no IR mapping for frontend type f16$"):
            map_type(registry, fir.Concrete("f16"))


def scalar_ctx(registry):
    module = ir.IrModule(registry=registry.dialects)
    region = module.new_region()
    ir.create_op(module, "func.func", [], [],
                 attributes={"sym_name": ir.SymbolAttr("f"),
                             "function_type": ir.TypeAttr(ir.FunctionType((), ()))},
                 regions=[region])
    entry = module.append_block(region, [])
    ctx = BuilderContext(module=module, registry=registry, region=region,
                         entry_block=entry)
    ctx.set_block(entry)
    return ctx


class TestMaterialize:
    def test_dedup_promoted_int_and_float(self, registry):
        ctx = scalar_ctx(registry)
        a = materialize_constant(ctx, fir.IntLit(1), fir.F32)
        b = materialize_constant(ctx, fir.FloatLit(1.0), fir.F32)
        assert a is b
        assert sum(op.name == "arith.constant"
                   for op in ctx.entry_block.operations) == 1

    def test_int_constant(self, registry):
        ctx = scalar_ctx(registry)
        v = materialize_constant(ctx, fir.IntLit(1), fir.I64)
        assert v.type == ir.I64
        op = ctx.entry_block.operations[0]
        assert op.attributes["value"] == ir.IntAttr(1, ir.I64)

    def test_keyed_by_type(self, registry):
        ctx = scalar_ctx(registry)
        a = materialize_constant(ctx, fir.FloatLit(0.5), fir.F64)
        b = materialize_constant(ctx, fir.FloatLit(0.5), fir.F32)
        assert a is not b
        assert a.type == ir.F64 and b.type == ir.F32

    def test_unrepresentable_literal(self, registry):
        ctx = scalar_ctx(registry)
        with pytest.raises(CodegenError, match="literal 16777217 is not a value of f32"):
            materialize_constant(ctx, fir.IntLit(2 ** 24 + 1), fir.F32)
        # boundary value is fine
        materialize_constant(ctx, fir.IntLit(2 ** 24), fir.F32)

    def test_signed_zeros_kept_apart_and_nans_merged(self, registry):
        ctx = scalar_ctx(registry)
        assert (materialize_constant(ctx, fir.FloatLit(0.0), fir.F64)
                is not materialize_constant(ctx, fir.FloatLit(-0.0), fir.F64))
        assert (materialize_constant(ctx, fir.FloatLit(float("nan")), fir.F64)
                is materialize_constant(ctx, fir.FloatLit(float("nan")), fir.F64))

    def test_f32_literals_deduplicated_at_f32(self, registry):
        # keyed on the literal's double, these four made four constants
        text = """\
fn f(_1: f32)
1:
  %1 = invoke +(_1, 1e39) :: f32
  %2 = invoke +(%1, 1e40) :: f32
  %3 = invoke +(%2, 0.1) :: f32
  %4 = invoke +(%3, 0.10000000149011612) :: f32
  return %4
"""
        module = run_pipeline(registry, text, "f", [fir.F32])
        constants = [ir.print_attribute(op.attributes["value"])
                     for op in walk_ops(module) if op.name == "arith.constant"]
        assert constants == ["0x7F800000", "0.1"]
        ctx = scalar_ctx(registry)
        assert (materialize_constant(ctx, fir.FloatLit(0.1), fir.F64)
                is not materialize_constant(ctx, fir.FloatLit(0.10000000149011612),
                                         fir.F64))

    def test_negative_zero_literal_survives_generation(self, registry):
        # 0.0 and -0.0 used to share one constant, so -0.0 + -0.0 gave 0.0
        text = """\
fn f(_1: f64, _2: f64)
1:
  %1 = invoke +(_1, 0.0) :: f64
  %2 = invoke +(_2, -0.0) :: f64
  return %2
"""
        module = run_pipeline(registry, text, "f", [fir.F64, fir.F64])
        constants = [op for op in walk_ops(module) if op.name == "arith.constant"]
        assert len(constants) == 2
        (out,) = interp.run_function(module, "f", [
            interp.value_of_type(ir.F64, 1.0), interp.value_of_type(ir.F64, -0.0)])
        assert out.value == 0.0 and math.copysign(1.0, out.value) == -1.0

    def test_constants_inserted_before_other_entry_ops(self, registry):
        ctx = scalar_ctx(registry)
        ctx.build_op("gpu.thread_id",
                     attributes={"dimension": ir.StringAttr("x")})
        materialize_constant(ctx, fir.IntLit(3), fir.I64)
        names = [op.name for op in ctx.entry_block.operations]
        assert names == ["arith.constant", "gpu.thread_id"]


LITERAL_TEXTS = ["0", "1", "-1", str(2 ** 24), str(2 ** 24 + 1), str(2 ** 53 + 1),
                 str(2 ** 63), str(2 ** 64), str(-2 ** 63 - 1), "1.0", "3.5", "1e400",
                 "true", "false"]
INTEGERS = LITERAL_TEXTS[:9]
ADMITTED = {  # type -> the literals of LITERAL_TEXTS it admits
    "f32": INTEGERS[:4] + ["1.0", "3.5", "1e400"],
    "f64": INTEGERS[:5] + ["1.0", "3.5", "1e400"],
    "i64": INTEGERS[:7],
    "i1": ["0", "1", "true", "false"],
    "Bool": ["0", "1", "true", "false"],
    "index": INTEGERS,
}


@pytest.mark.parametrize("type_text", list(ADMITTED))
@pytest.mark.parametrize("literal_text", LITERAL_TEXTS)
def test_one_literal_rule(registry, literal_text, type_text):
    """Dispatch promotion, a phi incoming through compile_program and
    materialize_constant each take a literal at a type exactly when
    fir.literal_fits does."""
    t = fir.parse_frontend_type(type_text)
    fn = fir.parse_program(f"fn f()\n1:\n  return {literal_text}\n").functions["f"]
    literal = fn.blocks[0][0].value
    probe = IntrinsicRegistry()
    register_intrinsic(probe, IntrinsicSignature("probe", (t,)), dummy_builder)
    phi = (f"fn f(_1: Bool, _2: {t})\n1:\n  goto #3 ifnot _1\n2:\n  goto #3\n"
           f"3:\n  %1 = phi (#1 => _2, #2 => {literal_text}) :: {t}\n  return %1\n")
    attempts = [
        lambda: codegen._resolve_call(probe, "probe", [literal],
                                      [fir.arg_typer(fn)(literal)]),
        lambda: run_pipeline(registry, phi, "f", [fir.BOOL, t]),
        lambda: materialize_constant(scalar_ctx(registry), literal, t),
    ]
    answers = []
    for attempt in attempts:
        try:
            attempt()
            answers.append(True)
        except CodegenError:
            answers.append(False)
    fits = fir.literal_fits(t, literal)
    assert fits == (literal_text in ADMITTED[type_text])
    assert answers == [fits] * 3


class TestGenerate:
    def test_sigmoid_golden(self, registry):
        module = run_pipeline(registry, SIGMOID_FIR, "sigmoid", [fir.F32])
        text = ir.print_module(module)
        assert find_golden(text, SIGMOID_GOLDEN), text
        assert text.count("arith.constant") == 1
        assert ir.verify_module(module).ok

    def test_max_golden(self, registry):
        module = run_pipeline(registry, MAX_FIR, "max", [fir.I64, fir.I64])
        text = ir.print_module(module)
        assert find_golden(text, MAX_GOLDEN), text
        region = module.lookup_symbol("max").regions[0]
        assert len(region.blocks) == 4
        assert [a.type for a in region.blocks[3].arguments] == [ir.I64]
        assert ir.verify_module(module).ok

    def test_constant_count_equals_distinct_promoted_pairs(self, registry):
        text = """\
fn lits(_1: f32, _2: i64)
1:
  %1 = invoke +(_1, 1) :: f32
  %2 = invoke +(%1, 1.0) :: f32
  %3 = invoke +(_2, 1) :: i64
  %4 = invoke +(%2, 2.5) :: f32
  %5 = invoke +(%3, 1) :: i64
  return %4
"""
        module = run_pipeline(registry, text, "lits", [fir.F32, fir.I64])
        constants = [op for op in walk_ops(module)
                     if op.name == "arith.constant"]
        # (1.0, f32) shared by three uses, (1, i64) by two, (2.5, f32) once
        assert len(constants) == 3
        pairs = {(op.attributes["value"].value, op.results[0].type)
                 for op in constants}
        assert pairs == {(1.0, ir.F32), (1, ir.I64), (2.5, ir.F32)}

    def test_translation_is_deterministic(self, registry):
        one = ir.print_module(run_pipeline(registry, MAX_FIR, "max",
                                           [fir.I64, fir.I64]))
        two = ir.print_module(run_pipeline(registry, MAX_FIR, "max",
                                           [fir.I64, fir.I64]))
        assert one == two

    def test_structured_identity_unpacks(self, registry):
        text = "fn cident(_1: Complex{f32})\n1:\n  return _1\n"
        module = run_pipeline(registry, text, "cident",
                              [fir.complex_of(fir.F32)])
        func = module.lookup_symbol("cident")
        ftype = func.attributes["function_type"].type
        assert ftype.inputs == (ir.F32, ir.F32)
        assert ftype.results == (ir.F32, ir.F32)
        entry = func.regions[0].blocks[0]
        ret = entry.operations[-1]
        assert ret.name == "func.return"
        assert ret.operands == list(entry.arguments)

    def test_structured_phi_unpacks_to_two_block_args(self, registry):
        text = """\
fn cpick(_1: Complex{f32}, _2: Complex{f32}, _3: i64)
1:
  %1 = invoke ==(_3, 0) :: i1
  goto #3 ifnot %1
2:
  goto #4
3:
  nothing
4:
  %6 = phi (#2 => _1, #3 => _2) :: Complex{f32}
  return %6
"""
        ctype = fir.complex_of(fir.F32)
        module = run_pipeline(registry, text, "cpick", [ctype, ctype, fir.I64])
        assert ir.verify_module(module).ok
        region = module.lookup_symbol("cpick").regions[0]
        join = region.blocks[3]
        assert [a.type for a in join.arguments] == [ir.F32, ir.F32]
        entry_args = region.blocks[0].arguments
        br_true = region.blocks[1].operations[-1]
        br_false = region.blocks[2].operations[-1]
        assert br_true.successors[0].args == entry_args[0:2]
        assert br_false.successors[0].args == entry_args[2:4]

    def test_arg_types_must_match_declaration(self, registry):
        program = fir.parse_program(SIGMOID_FIR)
        with pytest.raises(CodegenError, match="do not match"):
            generate(registry, program.functions["sigmoid"], [fir.F64])

    def test_no_method_names_offending_statement(self, registry):
        text = "fn f(_1: f32, _2: f64)\n1:\n  %1 = invoke +(_1, _2) :: f32\n  return %1\n"
        program = fir.parse_program(text)
        with pytest.raises(NoMethodError, match="%1 in block 1"):
            generate(registry, program.functions["f"], [fir.F32, fir.F64])

    def test_missing_bool_conversion(self, registry):
        # the conversion is an ordinary call: no method for f32, no i1
        text = ("fn f(_1: f32)\n1:\n  %1 = invoke bool_conversion_intrinsic(_1) :: Bool\n"
                "  goto #3 ifnot %1\n2:\n  return 1.0\n3:\n  return 2.0\n")
        program = fir.parse_program(text)
        with pytest.raises(NoMethodError,
                           match=r"^%1 in block 1: no method matching "
                                 r"bool_conversion_intrinsic\(f32\)$"):
            generate(registry, program.functions["f"], [fir.F32])

    @staticmethod
    def compare_constants(ctx, args):
        # a conversion may emit ops; this one compares two constants
        zero = materialize_constant(ctx, fir.IntLit(0), fir.I64)
        op = ctx.build_op("arith.cmpi", [zero, zero],
                          attributes={"predicate": ir.StringAttr("eq")})
        return list(op.results)

    def test_custom_bool_conversion_entry(self, registry):
        register_intrinsic(registry, IntrinsicSignature(fir.BOOL_CONVERSION, (fir.F32,)),
                           self.compare_constants)
        text = ("fn f(_1: f32)\n1:\n  goto #3 ifnot _1\n"
                "2:\n  return 1.0\n3:\n  return 2.0\n")
        program = fir.parse_program(text)
        fn = fir.insert_bool_conversions(program.functions["f"])
        module = generate(registry, fn, [fir.F32])
        assert ir.verify_module(module).ok
        assert any(op.name == "arith.cmpi" for op in walk_ops(module))

    def test_abstract_bool_conversion_covers_each_float(self, registry):
        # one AbstractFloat method converts f32 and f64 conditions alike,
        # by subtyping, where an exact-type table needs one entry each
        register_intrinsic(registry,
                           IntrinsicSignature(fir.BOOL_CONVERSION, (fir.ABSTRACT_FLOAT,)),
                           self.compare_constants)
        for t in (fir.F32, fir.F64):
            text = (f"fn f(_1: {t})\n1:\n  goto #3 ifnot _1\n"
                    "2:\n  return 1\n3:\n  return 2\n")
            fn = fir.insert_bool_conversions(fir.parse_program(text).functions["f"])
            module = generate(registry, fn, [t])
            assert ir.verify_module(module).ok
            names = [op.name for op in walk_ops(module)]
            assert names.count("arith.cmpi") == 1 and "cf.cond_br" in names

    @pytest.mark.parametrize("t, converted", [(fir.I64, False), (fir.F64, True)],
                             ids=["unconverted", "conversion-returns-f64"])
    def test_condition_that_is_not_i1_is_refused(self, registry, t, converted):
        # generate on an unconverted function: cf.cond_br's spec; or with a
        # conversion method that returns its f64 argument: the invoke's
        # check of its builder's result types, which comes first
        register_intrinsic(registry, IntrinsicSignature(fir.BOOL_CONVERSION, (fir.F64,)),
                           lambda ctx, args: args[0])
        text = (f"fn f(_1: {t})\n1:\n  goto #3 ifnot _1\n"
                "2:\n  return 1\n3:\n  return 2\n")
        fn = fir.parse_program(text).functions["f"]
        if converted:
            fn = fir.insert_bool_conversions(fn)
        with pytest.raises(CodegenError if converted else BuildError) as info:
            generate(registry, fn, [t])
        assert str(info.value) == (
            f"%1 in block 1: {fir.BOOL_CONVERSION} returned (f64), not its declared type "
            "Bool (i1)" if converted else
            "cf.cond_br: operand 'condition' (operand 0) violates i1, got i64")

    @pytest.mark.parametrize("declared, want", [
        ("i64", "(f64), not its declared type i64 (i64)"),
        ("Nothing", "(f64), not its declared type Nothing ()"),
        ("f64", None),
    ])
    def test_builder_results_match_the_declared_type(self, registry, declared, want):
        # a method whose builder returns its f64 argument, whatever the
        # invoke declares
        register_intrinsic(registry, IntrinsicSignature("same", (fir.F64,)),
                           lambda ctx, args: args[0])
        text = f"fn f(_1: f64)\n1:\n  %1 = invoke same(_1) :: {declared}\n  return _1\n"
        fn = fir.parse_program(text).functions["f"]
        if want is None:
            assert ir.verify_module(generate(registry, fn, [fir.F64])).ok
            return
        with pytest.raises(CodegenError) as info:
            generate(registry, fn, [fir.F64])
        assert str(info.value) == f"%1 in block 1: same returned {want}"

    def test_unreachable_blocks_dropped(self, registry):
        text = ("fn f(_1: i64)\n1:\n  goto #3\n"
                "2:\n  %1 = invoke +(_1, _1) :: i64\n  return %1\n"
                "3:\n  return _1\n")
        program = fir.parse_program(text)
        module = generate(registry, program.functions["f"], [fir.I64])
        region = module.lookup_symbol("f").regions[0]
        assert len(region.blocks) == 2
        assert ir.verify_module(module).ok

    def test_function_typed_by_its_first_reachable_return(self, registry):
        # block 2's i64 return types the function; the verifier refuses
        # block 3's f64 return
        text = ("fn f(_1: f64, _2: Bool)\n1:\n  goto #3 ifnot _2\n"
                "2:\n  return 1\n3:\n  return _1\n")
        with pytest.raises(CompileError) as info:
            run_pipeline(registry, text, "f", [fir.F64, fir.BOOL])
        assert str(info.value) == (
            "generated module failed verification:\n[function-type] at 'func.return' "
            "in ^bb3: returned types (f64) differ from the function type's (i64)")

    def test_branch_to_entry_rejected(self, registry):
        text = "fn f(_1: i64)\n1:\n  goto #1\n"
        program = fir.parse_program(text)
        with pytest.raises(CodegenError, match="entry block"):
            generate(registry, program.functions["f"], [fir.I64])

    def test_intrinsic_opacity(self, registry):
        # all emitted ops come from builders; none carry frontend names
        module = run_pipeline(registry, SIGMOID_FIR, "sigmoid", [fir.F32])
        for op in walk_ops(module):
            assert "." in op.name

    def test_every_generated_module_verifies_and_prints_stably(self, registry):
        rng = random.Random(3)
        for _ in range(25):
            fn = random_fir_function(rng)
            module = run_pipeline(registry, fir.print_fir(fn), fn.name,
                                  [fir.I64, fir.I64])
            assert ir.verify_module(module).ok
            once = ir.print_module(module)
            assert once == ir.print_module(module)
            assert ir.verify_module(module).ok  # printing has no side effects


def many_returns(n):
    """FIR whose ``n`` return blocks each return an SSA value, reached
    through a chain of conditional branches."""
    lines = ["fn f(_1: Bool, _2: f64)", "1:", "  %1 = invoke +(_2, 1.0) :: f64"]
    for k in range(1, n):
        lines += [f"  goto #{2 * k + 1} ifnot _1", f"{2 * k}:", f"  return %{k}",
                  f"{2 * k + 1}:", f"  %{k + 1} = invoke +(%{k}, 1.0) :: f64"]
    return "\n".join(lines + [f"  return %{n}", ""])


def test_generate_visits_grow_with_size_not_returns(registry, monkeypatch):
    """One result-type table per function: the statements ``generate``
    visits grow with the function, not with returns times statements."""
    real = fir.FirFunction.statements
    visits = [0]

    def counted(fn):
        for item in real(fn):
            visits[0] += 1
            yield item

    monkeypatch.setattr(fir.FirFunction, "statements", counted)
    ratios = []
    for n in (50, 200):
        fn = fir.parse_program(many_returns(n)).functions["f"]
        visits[0] = 0
        module = generate(registry, fn, [fir.BOOL, fir.F64])
        assert ir.verify_module(module).ok
        ratios.append((visits[0], sum(len(b) for b in fn.blocks)))
    (v1, s1), (v2, s2) = ratios
    assert v2 / v1 <= 1.1 * s2 / s1, ratios


def join_block(n_phis, n_preds):
    """FIR whose last block joins ``n_preds`` predecessors with ``n_phis``
    phis."""
    lines = ["fn f(_1: i64)", "1:", "  %1 = invoke <(_1, 0) :: i1"]
    for b in range(1, n_preds):
        lines += [f"  goto #{n_preds + 1} ifnot %1", f"{b + 1}:"]
    incoming = ", ".join(f"#{b} => _1" for b in range(1, n_preds + 1))
    lines += ["  nothing", f"{n_preds + 1}:"]
    lines += [f"  %{k} = phi ({incoming}) :: i64" for k in range(2, n_phis + 2)]
    return "\n".join(lines + [f"  return %{n_phis + 1}", ""])


class _Counted(list):
    """A list that counts the items read from it."""

    reads = 0

    def __iter__(self):
        for item in list.__iter__(self):
            _Counted.reads += 1
            yield item

    def __getitem__(self, i):
        _Counted.reads += 1
        return list.__getitem__(self, i)


def test_join_block_work_grows_with_phis_times_preds(registry, monkeypatch):
    """Each phi takes its block-argument slot by position and builds its
    incoming map once: the phi slots and incomings ``generate`` reads grow
    as phis times predecessors, not as phis squared or predecessors
    squared."""
    real = codegen._prepare_blocks

    def counted(ctx, *args):
        real(ctx, *args)
        for number, slots in ctx.phi_slots.items():
            ctx.phi_slots[number] = _Counted(slots)

    monkeypatch.setattr(codegen, "_prepare_blocks", counted)

    def reads(n_phis, n_preds):
        fn = fir.parse_program(join_block(n_phis, n_preds)).functions["f"]
        for st in fn.blocks[-1]:
            if isinstance(st, fir.Phi):
                st.incomings = _Counted(st.incomings)
        _Counted.reads = 0
        module = generate(registry, fn, [fir.I64])
        assert ir.verify_module(module).ok
        return _Counted.reads

    assert reads(400, 2) <= 4.4 * reads(100, 2)
    assert reads(100, 8) <= 4.4 * reads(100, 2)


def test_compile_program_errors(registry, monkeypatch):
    """Validation and verification failures are one CompileError each."""
    text = "fn f(_1: i64)\n1:\n  %1 = invoke +(_1, %1) :: i64\n  return %1\n"
    with pytest.raises(codegen.CompileError, match="^f: block 1: %1 used before") as info:
        run_pipeline(registry, text, "f", [fir.I64])
    assert info.value.violations == ["f: block 1: %1 used before its definition"]
    report = ir.VerifyReport([ir.Diagnostic("dominance", "bad")])
    monkeypatch.setattr(ir, "verify_module", lambda module: report)
    with pytest.raises(codegen.CompileError) as info:
        run_pipeline(registry, SIGMOID_FIR, "sigmoid", [fir.F32])
    assert (str(info.value), info.value.violations) == (
        "generated module failed verification:\n[dominance]: bad", ())


def test_compile_program_of_an_unknown_entry(registry):
    program = fir.parse_program(SIGMOID_FIR)
    with pytest.raises(fir.FirError, match="^no function named 'nope'$"):
        codegen.compile_program(registry, program, "nope", [fir.F32])


class TestGenerateRegion:
    def test_mul_add_body(self, registry):
        ctx = scalar_ctx(registry)
        text = ("fn body(_1: f32, _2: f32, _3: f32)\n1:\n"
                "  %1 = invoke *(_1, _2) :: f32\n"
                "  %2 = invoke +(%1, _3) :: f32\n"
                "  return %2\n")
        fn = fir.parse_program(text).functions["body"]

        region = generate_region(ctx, fn, "linalg.yield")
        names = [op.name for op in region.blocks[0].operations]
        assert names == ["arith.mulf", "arith.addf", "linalg.yield"]
        assert [a.type for a in region.blocks[0].arguments] == [ir.F32] * 3

    def test_passthrough_body(self, registry):
        ctx = scalar_ctx(registry)
        fn = fir.parse_program("fn body(_1: f32)\n1:\n  return _1\n").functions["body"]

        region = generate_region(ctx, fn, "linalg.yield")
        assert [op.name for op in region.blocks[0].operations] == ["linalg.yield"]

    def test_branchy_generic_body_prints_and_runs(self, registry):
        # elementwise max via a multi-block body nested in linalg.generic
        import numpy as np

        from bridgegen import interp
        from bridgegen.dialects import build_op

        module = ir.IrModule(registry=registry.dialects)
        region = module.new_region()
        t = ir.TensorType(ir.I64, (None,))
        build_op(module, "func.func",
                 attributes={"sym_name": ir.SymbolAttr("elemmax"),
                             "function_type": ir.TypeAttr(
                                 ir.FunctionType((t, t), (t,)))},
                 regions=[region])
        entry = module.append_block(region, [t, t])
        ctx = BuilderContext(module=module, registry=registry, region=region,
                             entry_block=entry)
        ctx.set_block(entry)

        body_text = """\
fn body(_1: i64, _2: i64)
1:
  %1 = invoke >(_1, _2) :: i1
  goto #3 ifnot %1
2:
  goto #4
3:
  nothing
4:
  %6 = phi (#2 => _1, #3 => _2) :: i64
  return %6
"""
        body = fir.insert_bool_conversions(
            fir.parse_program(body_text).functions["body"])

        body_region = generate_region(ctx, body, "linalg.yield")
        m = ir.IndexMapAttr(1, (0,))
        op = ctx.build_op(
            "linalg.generic", list(entry.arguments),
            attributes={"indexing_maps": ir.ArrayAttr((m, m)),
                        "iterator_types": ir.ArrayAttr((ir.StringAttr("parallel"),))},
            regions=[body_region], result_types=[t])
        ctx.build_op("func.return", [op.results[0]])

        assert ir.verify_module(module).ok
        text = ir.print_module(module)
        assert "cf.cond_br" in text and "linalg.yield" in text
        a = np.array([5, 1, 9, 3], dtype=np.int64)
        b = np.array([2, 8, 4, 3], dtype=np.int64)
        [out] = interp.run_function(
            module, "elemmax",
            [interp.TensorValue(ir.I64, (4,), a),
             interp.TensorValue(ir.I64, (4,), b)])
        assert list(out.data) == [5, 8, 9, 3]

    def test_branching_body_matches_block_count(self, registry):
        ctx = scalar_ctx(registry)
        text = ("fn body(_1: i64, _2: i64)\n1:\n"
                "  %1 = invoke >=(_1, _2) :: i1\n"
                "  goto #3 ifnot %1\n"
                "2:\n  goto #4\n3:\n  nothing\n4:\n"
                "  %6 = phi (#2 => _1, #3 => _2) :: i64\n  return %6\n")
        fn = fir.insert_bool_conversions(fir.parse_program(text).functions["body"])

        region = generate_region(ctx, fn, "linalg.yield")
        assert len(region.blocks) == len(fir.reachable_blocks(fn))


class TestCfgProperties:
    N_FUNCTIONS = 120

    def test_cfg_isomorphism_and_phi_conversion(self, registry):
        rng = random.Random(42)
        for i in range(self.N_FUNCTIONS):
            fn = random_fir_function(rng, name=f"f{i}")
            assert fir.validate_fir(fn) == []
            program = fir.FirProgram({fn.name: fn})
            converted = fir.insert_bool_conversions(fn)
            module = generate(registry, converted, [fir.I64, fir.I64])
            assert ir.verify_module(module).ok, ir.print_module(module)

            # block count and edge set match the reachable source CFG
            back, got_edges = generated_cfg(module, converted, fn.name)
            assert got_edges == reachable_fir_edges(converted)

            self.check_phi_conversion(registry, module, converted, fn.name)

    def check_phi_conversion(self, registry, module, fn, symbol):
        """Each phi has a block argument and every predecessor passes the
        right translated incoming value."""
        region = module.lookup_symbol(symbol).regions[0]
        numbers = sorted(fir.reachable_blocks(fn))
        blocks = dict(zip(numbers, region.blocks))
        entry_args = region.blocks[0].arguments
        defining = {r: op for b in region.blocks for op in b.operations for r in op.results}
        reachable = set(numbers)

        for number in numbers[1:]:
            phis = [st for st in fn.blocks[number - 1]
                    if isinstance(st, fir.Phi)]
            target = blocks[number]
            assert len(target.arguments) == len(phis)
            for slot, phi in enumerate(phis):
                for pred, arg in phi.incomings:
                    if pred not in reachable:
                        continue
                    terminator = blocks[pred].operations[-1]
                    passed = [s.args[slot] for s in terminator.successors
                              if s.block is target]
                    assert passed, f"pred {pred} passes nothing to {number}"
                    for value in passed:
                        if isinstance(arg, fir.ParamRef):
                            assert value is entry_args[arg.index - 1]
                        elif isinstance(arg, fir.IntLit):
                            op = defining[value]
                            assert op.name == "arith.constant"
                            assert op.attributes["value"].value == arg.value


def readme_examples():
    """The README's Python examples, in order: ``fma``, then a bool
    conversion."""
    import pathlib
    import re

    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    return re.findall(r"```python\n(.*?)```", readme, re.S)


def test_readme_fma_example():
    """The README's Python example registers ``fma``; a FIR call of it on
    f32 builds arith.mulf then arith.addf and runs to the f32 ``a*b + c``."""
    import numpy as np

    [example, _] = readme_examples()
    scope = {}
    exec(example, scope)
    text = ("fn f(_1: f32, _2: f32, _3: f32)\n1:\n"
            "  %1 = invoke fma(_1, _2, _3) :: f32\n  return %1\n")
    module = codegen.compile_program(scope["registry"], fir.parse_program(text), "f",
                                     [fir.F32] * 3)
    [fn] = module.symbol_ops()
    assert [op.name for op in fn.regions[0].blocks[0].operations] == [
        "arith.mulf", "arith.addf", "func.return"]
    a, b, c = np.float32(1.1), np.float32(3.3), np.float32(-0.7)
    [out] = interp.run_function(module, "f", [interp.F32Value(float(x)) for x in (a, b, c)])
    assert out.value == float(a * b + c)


def test_readme_bool_conversion_example():
    """The README's conversion method makes an i64 branch condition an
    ``arith.cmpi ne`` against 0: the branch is taken on a nonzero value."""
    [_, example] = readme_examples()
    scope = {}
    exec(example, scope)
    text = ("fn f(_1: i64)\n1:\n  goto #3 ifnot _1\n"
            "2:\n  return 1\n3:\n  return 2\n")
    module = codegen.compile_program(scope["registry"], fir.parse_program(text), "f",
                                     [fir.I64])
    [fn] = module.symbol_ops()
    [cmp] = [op for op in walk_ops(module) if op.name == "arith.cmpi"]
    assert cmp.attributes["predicate"] == ir.StringAttr("ne")
    assert fn.regions[0].blocks[0].operations[-1].name == "cf.cond_br"
    for x, want in ((5, 1), (-1, 1), (0, 2)):
        [out] = interp.run_function(module, "f", [interp.IntValue(64, x)])
        assert out.value == want
