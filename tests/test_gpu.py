"""GPU intrinsics and kernel translation."""

import pytest

from bridgegen import codegen, fir, ir
from bridgegen.codegen import CodegenError, NoMethodError
from conftest import VADD_FIR, VADD_TYPES, run_pipeline, walk_ops


class TestRegistration:
    def test_all_dimensions_registered(self, registry):
        for base in ("thread_idx", "block_idx", "block_dim"):
            for dim in "xyz":
                assert registry.has_name(f"{base}_{dim}")

    def test_double_registration_rejected(self, registry):
        with pytest.raises(CodegenError, match="duplicate"):
            codegen.register_bindings(registry, "gpu", "memref")

    def test_thread_idx_builds_thread_id_op(self, registry):
        text = "fn f()\n1:\n  %1 = invoke thread_idx_x() :: index\n  return\n"
        module = run_pipeline(registry, text, "f", [])
        ops = [op for op in walk_ops(module) if op.name == "gpu.thread_id"]
        assert len(ops) == 1
        assert ops[0].attributes["dimension"] == ir.StringAttr("x")
        assert ops[0].results[0].type == ir.INDEX


class TestVaddKernel:
    def test_expected_operations(self, registry):
        module = run_pipeline(registry, VADD_FIR, "vadd", VADD_TYPES)
        names = [op.name for op in walk_ops(module) if op.name != "func.func"]
        assert names.count("memref.load") == 2
        for expected in ("gpu.block_id", "gpu.block_dim", "gpu.thread_id",
                         "arith.muli", "arith.addi", "arith.addf",
                         "memref.store", "func.return"):
            assert expected in names, expected

    def test_single_block_no_cf(self, registry):
        module = run_pipeline(registry, VADD_FIR, "vadd", VADD_TYPES)
        region = module.lookup_symbol("vadd").regions[0]
        assert len(region.blocks) == 1
        assert not any(op.name.startswith("cf.") for op in walk_ops(module))

    def test_id_ops_carry_dimension_attribute(self, registry):
        module = run_pipeline(registry, VADD_FIR, "vadd", VADD_TYPES)
        for op in walk_ops(module):
            if op.name.startswith("gpu."):
                dim = op.attributes["dimension"]
                assert isinstance(dim, ir.StringAttr)
                assert dim.text in ("x", "y", "z")

    def test_store_element_type_mismatch(self, registry):
        text = """\
fn bad(_1: memref{f64,1})
1:
  %1 = invoke thread_idx_x() :: index
  %2 = invoke load(_1, %1) :: f64
  %3 = invoke store(%2, _1, %1) :: Nothing
  return
"""
        # retarget the store intrinsic at a float32 value: dispatch rejects
        program = fir.parse_program(text.replace(":: f64", ":: f32"))
        with pytest.raises((NoMethodError, CodegenError)):
            codegen.generate(registry, program.functions["bad"],
                             [fir.parse_frontend_type("memref{f64,1}")])

    def test_verifies(self, registry):
        module = run_pipeline(registry, VADD_FIR, "vadd", VADD_TYPES)
        assert ir.verify_module(module).ok
