"""Dialect spec loading, registration, and the typed builders."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgegen import fir, ir
from bridgegen.dialects import (
    ARITH_SPEC,
    BUILTIN_SPECS,
    BuildError,
    DialectRegistry,
    DialectSpecError,
    build_op,
    builtin_registry,
    load_dialect_spec,
    register_dialect,
    serialize_dialect,
)
from bridgegen.ir import FloatAttr, IrModule, StringAttr, create_op
from conftest import new_func


def value(module, t=ir.F32, raw=1.0):
    if ir.is_float(t):
        attr = FloatAttr(raw, t)
    else:
        attr = ir.IntAttr(int(raw), t)
    op = create_op(module, "arith.constant", [], [t], {"value": attr})
    return op.results[0]


BUILTIN_OPS = sorted(defn.name for d in builtin_registry().dialects.values()
                     for defn in d.ops.values())
TYPES = [ir.F32, ir.F64, ir.I1, ir.I64, ir.INDEX,
         ir.TensorType(ir.F32, (None,)), ir.MemRefType(ir.F64, (None,))]
ATTRS = [FloatAttr(1.0, ir.F64), ir.IntAttr(1, ir.I64), StringAttr("x"),
         ir.ArrayAttr(()), ir.SymbolAttr("f"), ir.TypeAttr(ir.F32)]


SAMPLE = """\
# one binary op
dialect demo

op addf "Adds two floats."
  operand lhs AnyFloat
  operand rhs same(0)
  result res same(0)
"""


LISTED = """\
dialect demo

op cmp "Compares two integers by 'how'."
  operand lhs AnyInteger
  operand rhs same(0)
  attr how string(lt|ge) required
  result res i1
  bind less (i64, i64) how=lt
"""


class TestLoader:
    def test_listed_string_values_round_trip(self):
        once = load_dialect_spec(LISTED)
        assert once.ops["cmp"].attrs[0].values == ("lt", "ge")
        text = serialize_dialect(once)
        assert "  attr how string(lt|ge) required\n" in text
        assert load_dialect_spec(text).ops == once.ops

    def test_bind_value_outside_the_list(self):
        with pytest.raises(DialectSpecError, match=re.escape(
                "line 8: 'gt' is not a value of attribute 'how' of op 'cmp'")) as info:
            load_dialect_spec(LISTED.replace("how=lt", "how=gt"))
        assert info.value.line == 8

    @pytest.mark.parametrize("kind", ["string()", "string(lt|)", "int(1|2)", "string(a b)"])
    def test_malformed_value_list(self, kind):
        with pytest.raises(DialectSpecError, match="line 6: expected 'attr"):
            load_dialect_spec(LISTED.replace("string(lt|ge)", kind))

    def test_round_trip_fixpoint(self):
        once = load_dialect_spec(SAMPLE)
        twice = load_dialect_spec(serialize_dialect(once))
        assert once.ops == twice.ops
        assert once.name == twice.name

    def test_definition_shape(self):
        defn = load_dialect_spec(SAMPLE)
        op = defn.ops["addf"]
        assert len(op.operands) == 2
        assert len(op.results) == 1
        assert op.doc == "Adds two floats."

    def test_empty_dialect(self):
        defn = load_dialect_spec("dialect nothing\n")
        assert defn.ops == {}

    def test_duplicate_op_name(self):
        text = SAMPLE + '\nop addf "Again."\n'
        with pytest.raises(DialectSpecError, match="duplicate op name"):
            load_dialect_spec(text)

    def test_dangling_same_reference(self):
        text = 'dialect demo\nop bad "x"\n  operand a same(0)\n'
        with pytest.raises(DialectSpecError, match="lower-indexed"):
            load_dialect_spec(text)

    def test_parse_error_carries_line_number(self):
        text = "dialect demo\nop broken docstring-missing-quotes\n"
        with pytest.raises(DialectSpecError) as info:
            load_dialect_spec(text)
        assert info.value.line == 2

    def test_docstring_preserved_verbatim(self):
        text = 'dialect d\nop o "  spaced   out docstring "\n'
        assert load_dialect_spec(text).ops["o"].doc == "  spaced   out docstring "

    def test_variadic_must_be_last(self):
        text = ('dialect d\nop o "x"\n  operand a variadic Any\n'
                '  operand b i64\n')
        with pytest.raises(DialectSpecError, match="must come last"):
            load_dialect_spec(text)

    def test_builtin_specs_fixpoint(self):
        for spec in BUILTIN_SPECS:
            once = load_dialect_spec(spec)
            twice = load_dialect_spec(serialize_dialect(once))
            assert once.ops == twice.ops, once.name
        assert load_dialect_spec(ARITH_SPEC).ops["cmpi"].binds[2] == (
            "<", ((fir.I64, fir.I64), (fir.INDEX, fir.INDEX)), (("predicate", "slt"),))

    @pytest.mark.parametrize("line, message", [
        ("bind twice", "expected 'bind"),
        ("bind twice f64", "expected 'bind"),
        ("bind twice (f64) scale", "expected 'bind"),
        ("bind twice (f65)", "unknown frontend type 'f65'"),
        ("bind twice (f64,)", "unknown frontend type ''"),
        ("bind twice (f64) tag=a tag=b", "attribute given twice"),
        ("bind twice (f64) kind=a", "'kind' is not a string attribute of op 'twice'"),
        ("bind twice (f64) scale=a", "'scale' is not a string attribute of op 'twice'"),
    ])
    def test_bad_bind_line_carries_line_number(self, line, message):
        text = ('dialect d\nop twice "x"\n  operand a AnyFloat\n  ' + line +
                '\n  attr tag string\n  attr scale float\n  result res same(0)\n')
        with pytest.raises(DialectSpecError, match=re.escape(message)) as info:
            load_dialect_spec(text)
        assert info.value.line == 4


    @pytest.mark.parametrize("text, line, message", [
        ('dialect d\nop o "x"\n  operand a f65\n', 3, "unknown type constraint 'f65'"),
        ('dialect d\nop o "x"\n  operand a elem(1)\n', 2,
         "elem(1) on operand 'a' is dangling"),
        ("dialect d\ndialect e\n", 2, "only one dialect per spec"),
        ("dialect\n", 1, "expected 'dialect <name>'"),
        ("dialect d d\n", 1, "expected 'dialect <name>'"),
        ("dialect d\n  operand a Any\n", 2, "'operand' outside an op"),
        ('dialect d\nop o "x"\n  operand a\n', 3,
         "expected 'operand <name> [variadic] <constraint>'"),
        ('dialect d\nop o "x"\n  result r variadic Any x\n', 3,
         "expected 'result <name> [variadic] <constraint>'"),
        ('dialect d\nop o "x"\n  terminator 2\n', 3,
         "expected 'terminator [successors <n|variadic>]'"),
        ('dialect d\nop o "x"\n  frobnicate\n', 3, "unknown directive 'frobnicate'"),
        ("# no header\n", 0, "missing 'dialect' header"),
    ], ids=["unknown-constraint", "dangling-elem", "two-dialects", "dialect-no-name",
            "dialect-two-names", "outside-op", "operand-shape", "result-shape",
            "terminator-shape", "unknown-directive", "no-header"])
    def test_malformed_spec_message_and_line(self, text, line, message):
        with pytest.raises(DialectSpecError) as info:
            load_dialect_spec(text)
        assert (str(info.value), info.value.line) == (f"line {line}: {message}", line)

    def test_variadic_successors_round_trip(self):
        text = 'dialect d\nop jump "x"\n  operand conds variadic i1\n' \
               "  terminator successors variadic\n"
        once = load_dialect_spec(text)
        op = once.ops["jump"]
        assert op.is_terminator and op.successors == "variadic"
        printed = serialize_dialect(once)
        assert "  terminator successors variadic\n" in printed
        assert load_dialect_spec(printed).ops == once.ops


class TestRegistry:
    def test_register_then_build(self):
        registry = register_dialect(DialectRegistry(), load_dialect_spec(SAMPLE))
        m = IrModule(registry)
        new_func(m)
        a, b = value(m), value(m, raw=2.0)
        op = build_op(m, "demo.addf", [a, b])
        assert op.results[0].type == ir.F32

    def test_register_twice_fails(self):
        registry = register_dialect(DialectRegistry(), load_dialect_spec(SAMPLE))
        with pytest.raises(BuildError, match="already registered"):
            register_dialect(registry, load_dialect_spec(SAMPLE))

    def test_unknown_op(self):
        m = IrModule(DialectRegistry())
        new_func(m)
        with pytest.raises(BuildError, match="unknown operation"):
            build_op(m, "demo.addf", [])


class TestBuildOp:
    def test_result_type_resolved_from_operand(self):
        registry = builtin_registry()
        m = IrModule(registry)
        new_func(m)
        a, b = value(m, ir.F64, 1.0), value(m, ir.F64, 2.0)
        op = build_op(m, "arith.addf", [a, b])
        assert op.results[0].type == ir.F64

    def test_type_constraint_violation_names_operand(self):
        registry = builtin_registry()
        m = IrModule(registry)
        new_func(m)
        a, b = value(m, ir.I64, 1), value(m, ir.I64, 2)
        with pytest.raises(BuildError, match="operand 'lhs'"):
            build_op(m, "arith.addf", [a, b])

    def test_same_operand_mismatch(self):
        registry = builtin_registry()
        m = IrModule(registry)
        new_func(m)
        a, b = value(m, ir.F32), value(m, ir.F64)
        with pytest.raises(BuildError, match="same\\(0\\)"):
            build_op(m, "arith.addf", [a, b])

    def test_arity_mismatch(self):
        registry = builtin_registry()
        m = IrModule(registry)
        new_func(m)
        with pytest.raises(BuildError, match="expected 2 operand"):
            build_op(m, "arith.addf", [value(m)])

    def test_missing_required_attribute(self):
        registry = builtin_registry()
        m = IrModule(registry)
        new_func(m)
        a, b = value(m, ir.I64, 1), value(m, ir.I64, 2)
        with pytest.raises(BuildError, match="missing required attribute"):
            build_op(m, "arith.cmpi", [a, b])

    @pytest.mark.parametrize("kind, attr", [("int", ir.IntAttr(2.5, ir.I64)),
                                            ("int", ir.IntAttr(2, ir.IntType(1))),
                                            ("float", FloatAttr("abc", ir.F64))])
    def test_attribute_not_a_value_of_its_type(self, kind, attr):
        spec = (f'dialect demo\nop tag "Tags a value."\n  operand x AnyFloat\n'
                f"  attr n {kind} required\n  result res same(0)\n")
        registry = register_dialect(DialectRegistry(), load_dialect_spec(spec))
        m = IrModule(registry)
        new_func(m)
        with pytest.raises(BuildError, match=f"attribute 'n' is not of kind {kind}"):
            build_op(m, "demo.tag", [value(m)], attributes={"n": attr})

    @pytest.mark.parametrize("name, attr, values", [
        ("arith.cmpi", "predicate", "eq|ne|slt|sle|sgt|sge"),
        ("gpu.thread_id", "dimension", "x|y|z"),
        ("gpu.block_id", "dimension", "x|y|z"),
        ("gpu.block_dim", "dimension", "x|y|z"),
    ])
    def test_string_attribute_outside_its_values(self, name, attr, values):
        # build_op raises the finding that the verifier reports
        registry = builtin_registry()
        m = IrModule(registry=registry)
        new_func(m)
        operands = [value(m, ir.I64, 1), value(m, ir.I64, 2)] * (name == "arith.cmpi")
        message = f"attribute '{attr}' is 'foo', not one of {values}"
        with pytest.raises(BuildError, match=f"^{re.escape(f'{name}: {message}')}$"):
            build_op(m, name, operands, {attr: StringAttr("foo")})
        op = create_op(m, name, operands, [ir.I1 if operands else ir.INDEX],
                       {attr: StringAttr("foo")})
        assert [(d.category, d.message, d.operation) for d in ir.verify_module(m).diagnostics
                if d.category != "missing-terminator"] == [("attr-value", message, op)]

    @pytest.mark.parametrize("name, operands, attributes, result_types", [
        ("memref.load", [0, 1, 1], {}, [ir.F32]),
        ("arith.constant", [], {"value": ir.IntAttr(2 ** 70, ir.I64)}, [ir.I64]),
        ("arith.constant", [], {"value": ir.IntAttr(1, ir.I64)}, [ir.F32]),
        ("linalg.generic", [2, 2], {
            "indexing_maps": ir.ArrayAttr((ir.IndexMapAttr(1, (0,)),)),
            "iterator_types": ir.ArrayAttr((StringAttr("parallel"),))},
         [ir.TensorType(ir.F32, (None,))]),
    ], ids=["index-count", "above-i64", "i64-for-f32", "one-map-two-operands"])
    def test_op_local_rules_refuse_at_build(self, name, operands, attributes,
                                            result_types):
        # build_op raises the verifier's finding about the same op
        registry = builtin_registry()
        m = IrModule(registry=registry)
        _, entry = new_func(m, "f", (ir.MemRefType(ir.F32, (None,)), ir.INDEX,
                                     ir.TensorType(ir.F32, (None,))))
        operands = [entry.arguments[k] for k in operands]
        regions = [m.new_region()] if name == "linalg.generic" else []
        with pytest.raises(BuildError) as info:
            build_op(m, name, operands, attributes, regions,
                     result_types=result_types)
        op = create_op(m, name, operands, result_types, attributes, regions)
        [finding] = [d for d in ir.verify_module(m).diagnostics if d.operation is op]
        assert str(info.value) == f"{name}: {finding.message}"

    def test_cond_br_successors(self):
        registry = builtin_registry()
        m = IrModule(registry)
        region = m.new_region()
        create_op(m, "func.func", [], [],
                  attributes={"sym_name": ir.SymbolAttr("f"),
                              "function_type": ir.TypeAttr(ir.FunctionType((), ()))},
                  regions=[region])
        entry = m.append_block(region, [])
        bb1 = m.append_block(region, [])
        bb2 = m.append_block(region, [])
        m.set_insertion(entry)
        cond = value(m, ir.IntType(1), 1)
        op = build_op(m, "cf.cond_br", [cond],
                      successors=[(bb1, []), (bb2, [])])
        assert op.is_terminator and len(op.successors) == 2

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_build_time_validation_as_strict_as_verifier(self, data):
        # build_op accepts exactly what registry.op_findings passes, and its error is
        # the first finding; with inferred results, what it builds verifies
        registry = builtin_registry()
        defn = registry.lookup(data.draw(st.sampled_from(BUILTIN_OPS)))

        def count(declared, most):  # the declared count half of the time
            return data.draw(st.one_of(st.just(declared), st.integers(0, most)))

        pool = list(TYPES)

        def types(declared):  # earlier picks come again, to meet same(k)
            out = []
            for _ in range(count(len(declared), 4)):
                t = data.draw(st.sampled_from(pool))
                out.append(t)
                pool.extend([t] * 8)
            return out

        m = IrModule(registry)
        _, block = new_func(m)
        operands = [create_op(m, "test.value", [], [t]).results[0]
                    for t in types(defn.operands)]
        infer = data.draw(st.booleans())
        result_types = None if infer else types(defn.results)
        attributes = {a: data.draw(st.sampled_from(ATTRS))
                      for a in [a.name for a in defn.attrs] + ["other"]
                      if data.draw(st.sampled_from([True, True, False]))}
        regions = [m.new_region() for _ in range(count(defn.regions, 2))]
        n_successors = 2 if defn.successors == "variadic" else defn.successors
        successors = [(block, []) for _ in range(count(n_successors, 3))]
        m.set_insertion(block)
        try:
            op = build_op(m, defn.name, operands, attributes, regions,
                          successors, result_types)
        except BuildError as e:
            if infer:
                return
            op = create_op(m, defn.name, operands, result_types, attributes,
                           regions, successors)
            findings = registry.op_findings(op)
            assert findings and str(e) == f"{defn.name}: {findings[0][1]}"
        else:
            assert registry.op_findings(op) == []

    def test_docstring_retrievable(self):
        registry = builtin_registry()
        assert "addition" in registry.lookup("arith.addf").doc.lower()

    def test_elem_constraint_on_store(self):
        registry = builtin_registry()
        m = IrModule(registry)
        new_func(m)
        v = value(m, ir.F32)
        buf_t = ir.MemRefType(ir.F64, (None,))
        buf = create_op(m, "dummy.buffer", [], [buf_t]).results[0]
        idx = value(m, ir.INDEX, 0)
        with pytest.raises(BuildError, match="elem\\(1\\)"):
            build_op(m, "memref.store", [v, buf, idx])


class TestBuiltinRegistry:
    @pytest.mark.parametrize("name,n_operands,n_results", [
        ("arith.constant", 0, 1),
        ("arith.addf", 2, 1),
        ("arith.negf", 1, 1),
        ("arith.cmpi", 2, 1),
        ("arith.index_cast", 1, 1),
        ("math.exp", 1, 1),
        ("cf.br", 0, 0),
        ("cf.cond_br", 1, 0),
        ("func.func", 0, 0),
        ("gpu.thread_id", 0, 1),
        ("gpu.block_id", 0, 1),
        ("gpu.block_dim", 0, 1),
        ("memref.load", 1, 1),
        ("memref.store", 2, 0),
    ])
    def test_expected_surface(self, name, n_operands, n_results):
        registry = builtin_registry()
        defn = registry.lookup(name)
        assert defn is not None
        fixed_ops = [s for s in defn.operands if not s.variadic]
        fixed_res = [s for s in defn.results if not s.variadic]
        assert len(fixed_ops) == n_operands
        assert len(fixed_res) == n_results

    def test_math_exp_unary_float(self):
        registry = builtin_registry()
        m = IrModule(registry)
        new_func(m)
        op = build_op(m, "math.exp", [value(m)])
        assert op.results[0].type == ir.F32

    def test_gpu_thread_id_produces_index(self):
        registry = builtin_registry()
        m = IrModule(registry)
        new_func(m)
        op = build_op(m, "gpu.thread_id",
                      attributes={"dimension": StringAttr("x")})
        assert op.results[0].type == ir.INDEX

    def test_cmpi_shape(self):
        registry = builtin_registry()
        m = IrModule(registry)
        new_func(m)
        a, b = value(m, ir.I64, 1), value(m, ir.I64, 2)
        op = build_op(m, "arith.cmpi", [a, b],
                      attributes={"predicate": StringAttr("sge")})
        assert op.results[0].type == ir.IntType(1)


def test_builtin_definitions_are_parsed_once_and_shared():
    from bridgegen.codegen import IntrinsicRegistry

    a, b = IntrinsicRegistry().dialects, IntrinsicRegistry().dialects
    assert a is not b and list(a.dialects) == list(b.dialects)
    assert all(a.dialects[name] is b.dialects[name] for name in a.dialects)
    register_dialect(a, load_dialect_spec('dialect extra\nop x "X."\n'))
    assert a.lookup("extra.x") is not None and "extra" not in b.dialects
