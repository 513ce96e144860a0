"""The contract of the value classes: repr, equality, hash, immutability
and copying, as diagnostics, dict keys and passes rely on them."""

import copy
import pickle

import numpy as np
import pytest

from bridgegen import codegen, dialects, einsum, fir, interp, ir

SOURCE = """\
fn f(_1: f64, _2: i64)
1:
  %1 = invoke +(_1, 1.5) :: f64
  goto #3 ifnot true
2:
  goto #3
3:
  %3 = phi (#1 => %1, #2 => _1) :: f64
  return %3
"""


def _diagnostic():
    module = ir.IrModule(dialects.builtin_registry())
    op = ir.create_op(module, "test.op", [], [])
    return ir.Diagnostic("operand", "bad operand", "test.op", 2, operation=op)


REPRS = [
    (ir.IntType(64), "IntType(width=64)"),
    (ir.F32, "Float32Type()"),
    (ir.TensorType(ir.F32, (None,)), "TensorType(elem=Float32Type(), dims=(None,))"),
    (ir.MemRefType(ir.I64, (2, 3)), "MemRefType(elem=IntType(width=64), dims=(2, 3))"),
    (ir.FunctionType((ir.INDEX,), ()), "FunctionType(inputs=(IndexType(),), results=())"),
    (ir.FloatAttr(0.5, ir.F64), "FloatAttr(value=0.5, type=Float64Type())"),
    (ir.IndexMapAttr(2, (1, 0)), "IndexMapAttr(n_axes=2, targets=(1, 0))"),
    (ir.ArrayAttr((ir.StringAttr("x"),)), "ArrayAttr(elements=(StringAttr(text='x'),))"),
    (fir.SsaRef(3), "SsaRef(id=3)"),
    (fir.F64, "Concrete(name='f64', params=())"),
    (fir.Invoke(1, "+", [fir.ParamRef(1), fir.FloatLit(1.5)], fir.F64),
     "Invoke(id=1, target='+', args=[ParamRef(index=1), FloatLit(value=1.5)], "
     "result_type=Concrete(name='f64', params=()))"),
    (fir.Nothing(), "Nothing()"),
    (fir.Return(None), "Return(value=None)"),
    (_diagnostic(), "Diagnostic(category='operand', message='bad operand', op='test.op', "
                    "block=2)"),
    (ir.VerifyReport(), "VerifyReport(diagnostics=[])"),
    (dialects.Constraint("same", 0), "Constraint(name='same', index=0)"),
    (dialects.OperandSpec("lhs", dialects.Constraint("AnyFloat")),
     "OperandSpec(name='lhs', constraint=Constraint(name='AnyFloat', index=-1), "
     "variadic=False)"),
    (codegen.IntrinsicSignature("+", (fir.F64,)),
     "IntrinsicSignature(name='+', param_types=(Concrete(name='f64', params=()),))"),
    (einsum.EinsumSpec((("i",),), ("i",), ("i",)),
     "EinsumSpec(inputs=(('i',),), output=('i',), axes=('i',))"),
    (interp.IntValue(8, 300), "IntValue(width=8, value=44)"),
    (interp.F32Value(0.1), "F32Value(value=0.10000000149011612)"),
    (interp.LaunchConfig((2, 1, 1), (64, 1, 1)),
     "LaunchConfig(grid=(2, 1, 1), block=(64, 1, 1))"),
    (interp.TensorValue(ir.F64, (2,), [1.0, 2.0]),
     "TensorValue(elem=Float64Type(), dims=(2,), data=array([1., 2.]))"),
]


@pytest.mark.parametrize("value, text", REPRS, ids=[t.split("(")[0] for _, t in REPRS])
def test_repr(value, text):
    assert repr(value) == text


FROZEN = [  # (value, an equal value built apart, its field tuple)
    (ir.IntType(64), ir.IntType(64), (64,)),
    (ir.F32, ir.Float32Type(), ()),
    (ir.TensorType(ir.F32, (None, 2)), ir.TensorType(ir.F32, (None, 2)), (ir.F32, (None, 2))),
    (ir.FloatAttr(0.5, ir.F64), ir.FloatAttr(0.5, ir.F64), (0.5, ir.F64)),
    (ir.IntAttr(3, ir.INDEX), ir.IntAttr(3, ir.INDEX), (3, ir.INDEX)),
    (ir.TypeAttr(ir.I1), ir.TypeAttr(ir.I1), (ir.I1,)),
    (fir.SsaRef(3), fir.SsaRef(3), (3,)),
    (fir.Concrete("memref", (fir.F32, 1)), fir.Concrete("memref", (fir.F32, 1)),
     ("memref", (fir.F32, 1))),
    (fir.ANY, fir.AnyFrontend(), ()),
    (dialects.Constraint("elem", 1), dialects.Constraint("elem", 1), ("elem", 1)),
    (codegen.IntrinsicSignature("f", (fir.I64,)), codegen.IntrinsicSignature("f", (fir.I64,)),
     ("f", (fir.I64,))),
    (einsum.EinsumSpec((("i",),), (), ("i",)), einsum.EinsumSpec((("i",),), (), ("i",)),
     ((("i",),), (), ("i",))),
    (interp.LaunchConfig((1, 1, 1), (8, 1, 1)), interp.LaunchConfig([1, 1, 1], (8, 1, 1)),
     ((1, 1, 1), (8, 1, 1))),
]


@pytest.mark.parametrize("value, same, key", FROZEN, ids=[repr(v) for v, _, _ in FROZEN])
class TestFrozen:
    def test_equal_values_compare_and_hash_equal(self, value, same, key):
        assert value == same and not value != same and value is not same
        assert hash(value) == hash(same) == hash(key)

    def test_copies_are_equal(self, value, same, key):
        assert copy.copy(value) == value and copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value
        assert copy.copy(value) is value and copy.deepcopy(value) is value  # immutable


@pytest.mark.parametrize("value, name", [
    (ir.IntType(64), "width"), (ir.TensorType(ir.F32, (2,)), "dims"),
    (ir.FloatAttr(0.5, ir.F64), "value"), (fir.SsaRef(3), "id"),
    (fir.F64, "params"), (interp.LaunchConfig((1, 1, 1), (1, 1, 1)), "grid"),
], ids=lambda v: v if isinstance(v, str) else type(v).__name__)
def test_field_assignment_and_deletion_raise(value, name):
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) == before


def test_equality_is_per_class():
    assert ir.TensorType(ir.F32, (2,)) != ir.MemRefType(ir.F32, (2,))
    assert ir.IntType(64) != ir.INDEX and ir.F32 != ir.F64
    assert fir.SsaRef(1) != fir.ParamRef(1) and fir.IntLit(1) != fir.BoolLit(True)
    assert ir.IntType(64) != (64,) and ir.IntType(64).__eq__((64,)) is NotImplemented
    assert fir.Goto(2) == fir.Goto(2) and fir.Goto(2) != fir.Goto(3)
    assert len({ir.IntType(64), ir.I64, ir.IntType(32), ir.F32, ir.Float32Type()}) == 3


def test_equality_compares_field_tuples():
    # a tuple compares an element with itself by identity, so one NaN
    # object equals itself as a field, whatever the Python version
    nan = float("nan")
    assert ir.FloatAttr(nan, ir.F64) == ir.FloatAttr(nan, ir.F64)
    assert ir.FloatAttr(nan, ir.F64) != ir.FloatAttr(float("nan"), ir.F64)
    assert fir.FloatLit(nan) == fir.FloatLit(nan) and interp.F64Value(nan) == interp.F64Value(nan)


def test_array_values_compare_their_bytes():
    # of one class, element type and dims, with data of the same bytes
    t = interp.TensorValue(ir.F64, (2,), [1.0, 2.0])
    assert t == interp.TensorValue(ir.F64, (2,), [1.0, 2.0]) and not t != t
    assert t != interp.TensorValue(ir.F64, (2,), [1.0, 3.0])
    assert t != interp.MemRefValue(ir.F64, (2,), [1.0, 2.0])
    assert t != interp.TensorValue(ir.F32, (2,), [1.0, 2.0])
    assert t != interp.TensorValue(ir.F64, (1, 2), [1.0, 2.0])
    nan = np.frombuffer(np.uint64(0x7FF8000000000001).tobytes(), np.float64)
    assert interp.TensorValue(ir.F64, (1,), nan) == interp.TensorValue(ir.F64, (1,), nan.copy())
    assert interp.TensorValue(ir.F64, (1,), nan) != interp.TensorValue(ir.F64, (1,), [np.nan])
    assert interp.MemRefValue(ir.F32, (1,), [-0.0]) != interp.MemRefValue(ir.F32, (1,), [0.0])
    strided = interp.MemRefValue(ir.I64, (2, 2), np.arange(4).reshape(2, 2).T)
    assert strided == interp.MemRefValue(ir.I64, (2, 2), [0, 2, 1, 3])
    with pytest.raises(TypeError):
        hash(t)


def test_diagnostic_compares_without_its_operation():
    found = _diagnostic()
    assert found == ir.Diagnostic("operand", "bad operand", "test.op", 2)
    assert found != ir.Diagnostic("operand", "bad operand", "test.op", 3)


@pytest.mark.parametrize("value", [
    fir.Invoke(1, "f", [], fir.F64), fir.Goto(1), fir.Nothing(), fir.FirProgram(),
    ir.VerifyReport(), _diagnostic(), interp.F64Value(1.0),
    ir.Successor(ir.IrBlock(1), []), dialects.DialectDefinition("d"),
], ids=lambda v: type(v).__name__)
def test_mutable_classes_are_unhashable(value):
    with pytest.raises(TypeError):
        hash(value)


def test_deepcopy_of_a_parsed_function():
    fn = fir.parse_program(SOURCE).functions["f"]
    copied = copy.deepcopy(fn)
    assert copied == fn and copied is not fn
    assert copied.blocks is not fn.blocks and copied.blocks[0][0] is not fn.blocks[0][0]
    copied.blocks[0][0].args.append(fir.IntLit(1))
    assert copied != fn and len(fn.blocks[0][0].args) == 2
    assert pickle.loads(pickle.dumps(fn)) == fn


def test_construction_checks():
    with pytest.raises(ir.IrError, match="unsupported integer width 7"):
        ir.IntType(7)
    with pytest.raises(ir.IrError, match="FloatAttr type"):
        ir.FloatAttr(1.0, ir.I64)
    with pytest.raises(ir.IrError, match="IntAttr type"):
        ir.IntAttr(1, ir.F64)
    with pytest.raises(ir.IrError, match="axis position 2 out of range"):
        ir.IndexMapAttr(2, (0, 2))
    with pytest.raises(interp.InterpError, match="three integer extents"):
        interp.LaunchConfig((1, 1), (1, 1, 1))
    assert interp.LaunchConfig(grid=(np.int64(2), 1, 1), block=[3, 1, 1]).grid == (2, 1, 1)
    assert interp.IntValue(1, 3).value == 1 and interp.IntValue(64, 2 ** 63).value == -2 ** 63
    assert interp.F32Value(1e-46).value == 0.0
    assert interp.MemRefValue(ir.F32, (2, 2), [1, 2, 3, 4]).data.dtype == np.float32
    assert fir.Concrete("f64").params == () and ir.Diagnostic("c", "m").block == -1
