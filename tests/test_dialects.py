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
from bridgegen.ir import FloatAttr, IrModule, StringAttr, create_op, result
from conftest import new_func


def value(module, t=ir.F32, raw=1.0):
    if ir.is_float(t):
        attr = FloatAttr(raw, t)
    else:
        attr = ir.IntAttr(int(raw), t)
    op = create_op(module, "arith.constant", [], [t], {"value": attr})
    return result(op)


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


class TestLoader:
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


class TestRegistry:
    def test_register_then_build(self):
        registry = register_dialect(DialectRegistry(), load_dialect_spec(SAMPLE))
        m = IrModule()
        new_func(m)
        a, b = value(m), value(m, raw=2.0)
        op = build_op(registry, m, "demo.addf", [a, b])
        assert result(op).type == ir.F32

    def test_register_twice_fails(self):
        registry = register_dialect(DialectRegistry(), load_dialect_spec(SAMPLE))
        with pytest.raises(BuildError, match="already registered"):
            register_dialect(registry, load_dialect_spec(SAMPLE))

    def test_unknown_op(self):
        m = IrModule()
        new_func(m)
        with pytest.raises(BuildError, match="unknown operation"):
            build_op(DialectRegistry(), m, "demo.addf", [])


class TestBuildOp:
    def test_result_type_resolved_from_operand(self):
        registry = builtin_registry()
        m = IrModule()
        new_func(m)
        a, b = value(m, ir.F64, 1.0), value(m, ir.F64, 2.0)
        op = build_op(registry, m, "arith.addf", [a, b])
        assert result(op).type == ir.F64

    def test_type_constraint_violation_names_operand(self):
        registry = builtin_registry()
        m = IrModule()
        new_func(m)
        a, b = value(m, ir.I64, 1), value(m, ir.I64, 2)
        with pytest.raises(BuildError, match="operand 'lhs'"):
            build_op(registry, m, "arith.addf", [a, b])

    def test_same_operand_mismatch(self):
        registry = builtin_registry()
        m = IrModule()
        new_func(m)
        a, b = value(m, ir.F32), value(m, ir.F64)
        with pytest.raises(BuildError, match="same\\(0\\)"):
            build_op(registry, m, "arith.addf", [a, b])

    def test_arity_mismatch(self):
        registry = builtin_registry()
        m = IrModule()
        new_func(m)
        with pytest.raises(BuildError, match="expected 2 operand"):
            build_op(registry, m, "arith.addf", [value(m)])

    def test_missing_required_attribute(self):
        registry = builtin_registry()
        m = IrModule()
        new_func(m)
        a, b = value(m, ir.I64, 1), value(m, ir.I64, 2)
        with pytest.raises(BuildError, match="missing required attribute"):
            build_op(registry, m, "arith.cmpi", [a, b])

    def test_cond_br_successors(self):
        registry = builtin_registry()
        m = IrModule()
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
        op = build_op(registry, m, "cf.cond_br", [cond],
                      successors=[(bb1, []), (bb2, [])])
        assert op.is_terminator and len(op.successors) == 2

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_build_time_validation_as_strict_as_verifier(self, data):
        # build_op accepts exactly what validate_op passes, and its error is
        # the first diagnostic; with inferred results, what it builds verifies
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

        m = IrModule()
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
            op = build_op(registry, m, defn.name, operands, attributes, regions,
                          successors, result_types)
        except BuildError as e:
            if infer:
                return
            op = create_op(m, defn.name, operands, result_types, attributes,
                           regions, successors)
            diagnostics = registry.validate_op(op)
            assert diagnostics and str(e) == f"{defn.name}: {diagnostics[0].message}"
        else:
            assert registry.validate_op(op) == []

    def test_docstring_retrievable(self):
        registry = builtin_registry()
        assert "addition" in registry.lookup("arith.addf").doc.lower()

    def test_elem_constraint_on_store(self):
        registry = builtin_registry()
        m = IrModule()
        new_func(m)
        v = value(m, ir.F32)
        buf_t = ir.MemRefType(ir.F64, (None,))
        buf = create_op(m, "dummy.buffer", [], [buf_t]).results[0]
        idx = value(m, ir.INDEX, 0)
        with pytest.raises(BuildError, match="elem\\(1\\)"):
            build_op(registry, m, "memref.store", [v, buf, idx])


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
        m = IrModule()
        new_func(m)
        op = build_op(registry, m, "math.exp", [value(m)])
        assert result(op).type == ir.F32

    def test_gpu_thread_id_produces_index(self):
        registry = builtin_registry()
        m = IrModule()
        new_func(m)
        op = build_op(registry, m, "gpu.thread_id",
                      attributes={"dimension": StringAttr("x")})
        assert result(op).type == ir.INDEX

    def test_cmpi_shape(self):
        registry = builtin_registry()
        m = IrModule()
        new_func(m)
        a, b = value(m, ir.I64, 1), value(m, ir.I64, 2)
        op = build_op(registry, m, "arith.cmpi", [a, b],
                      attributes={"predicate": StringAttr("sge")})
        assert result(op).type == ir.IntType(1)


def test_builtin_definitions_are_parsed_once_and_shared():
    from bridgegen.codegen import IntrinsicRegistry

    a, b = IntrinsicRegistry().dialects, IntrinsicRegistry().dialects
    assert a is not b and list(a.dialects) == list(b.dialects)
    assert all(a.dialects[name] is b.dialects[name] for name in a.dialects)
    register_dialect(a, load_dialect_spec('dialect extra\nop x "X."\n'))
    assert a.lookup("extra.x") is not None and "extra" not in b.dialects
