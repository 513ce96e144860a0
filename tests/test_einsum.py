"""Einsum parsing, map derivation, and generic-op construction."""

import numpy as np
import pytest

from bridgegen import einsum, interp, ir
from bridgegen.einsum import (
    EinsumError,
    build_einsum_function,
    derive_maps,
    parse_einsum,
)
from conftest import einsum_bruteforce, tensor_value, walk_ops


class TestParse:
    def test_matmul(self):
        spec = parse_einsum("(i,k),(k,j)->(i,j)")
        assert spec.inputs == (("i", "k"), ("k", "j"))
        assert spec.output == ("i", "j")
        assert spec.axes == ("i", "j", "k")

    def test_copy(self):
        spec = parse_einsum("(i)->(i)")
        assert spec.inputs == (("i",),)
        assert spec.axes == ("i",)

    def test_output_only_index_rejected(self):
        with pytest.raises(EinsumError, match="does not appear in any input"):
            parse_einsum("(i,j)->(k)")

    def test_repeated_index_rejected(self):
        with pytest.raises(EinsumError, match="repeated index"):
            parse_einsum("(i,i)->(i)")

    def test_whitespace_tolerated(self):
        spec = parse_einsum("( i , k ), ( k , j ) -> ( i , j )")
        assert spec.axes == ("i", "j", "k")

    def test_empty_output(self):
        spec = parse_einsum("(i,j)->()")
        assert spec.output == ()
        assert spec.axes == ("i", "j")

    def test_garbage_rejected(self):
        for bad in ("i,k->i", "(i,k)(k,j)->(i,j)", "(i,k)->", "->(i)"):
            with pytest.raises(EinsumError):
                parse_einsum(bad)


class TestDeriveMaps:
    def test_matmul_maps_and_iterators(self):
        spec = parse_einsum("(i,k),(k,j)->(i,j)")
        maps, iterators = derive_maps(spec)
        assert [m.targets for m in maps] == [(0, 2), (2, 1), (0, 1)]
        assert iterators == ["parallel", "parallel", "reduction"]

    def test_copy_maps(self):
        spec = parse_einsum("(i)->(i)")
        maps, iterators = derive_maps(spec)
        assert [m.targets for m in maps] == [(0,), (0,)]
        assert iterators == ["parallel"]

    def test_full_reduction(self):
        spec = parse_einsum("(i,j)->()")
        maps, iterators = derive_maps(spec)
        assert maps[-1].targets == ()
        assert iterators == ["reduction", "reduction"]

    def test_parallel_iff_in_output(self):
        for text in ["(i,k),(k,j)->(i,j)", "(i)->(i)", "(i,j)->(j)",
                     "(a,b),(b,c),(c,d)->(a,d)"]:
            spec = parse_einsum(text)
            _, iterators = derive_maps(spec)
            for axis, kind in zip(spec.axes, iterators):
                assert (kind == "parallel") == (axis in spec.output)

    def test_one_map_per_operand_plus_output(self):
        spec = parse_einsum("(i,j),(j,k),(k,l)->(i,l)")
        maps, _ = derive_maps(spec)
        assert len(maps) == len(spec.inputs) + 1


class TestBuildGeneric:
    def test_matmul_structure(self, registry):
        spec = parse_einsum("(i,k),(k,j)->(i,j)")
        module = build_einsum_function(registry, spec)
        assert ir.verify_module(module).ok
        generic = next(op for op in walk_ops(module)
                       if op.name == "linalg.generic")
        assert len(generic.attributes["indexing_maps"].elements) == 3
        body_names = [op.name for op in generic.regions[0].blocks[0].operations]
        assert body_names == ["arith.mulf", "arith.addf", "linalg.yield"]

    def test_copy_yields_directly(self, registry):
        spec = parse_einsum("(i)->(i)")
        module = build_einsum_function(registry, spec)
        generic = next(op for op in walk_ops(module)
                       if op.name == "linalg.generic")
        body = generic.regions[0].blocks[0]
        assert [op.name for op in body.operations] == ["linalg.yield"]
        assert body.operations[0].operands == [body.arguments[0]]

    def test_triple_contraction_iterators(self, registry):
        spec = parse_einsum("(i,j),(j,k),(k,l)->(i,l)")
        _, iterators = derive_maps(spec)
        assert iterators == ["parallel", "parallel", "reduction", "reduction"]
        module = build_einsum_function(registry, spec)
        rng = np.random.default_rng(2)
        a = rng.random((2, 3)).astype(np.float32)
        b = rng.random((3, 2)).astype(np.float32)
        c = rng.random((2, 4)).astype(np.float32)
        out = np.zeros((2, 4), dtype=np.float32)
        [got] = interp.run_function(
            module, "einsum",
            [tensor_value(a), tensor_value(b), tensor_value(c),
             tensor_value(out)])
        want = einsum_bruteforce(spec, [a, b, c], out)
        assert np.allclose(got.data, want, rtol=1e-5)

    def test_rank_mismatch(self, registry):
        spec = parse_einsum("(i,k),(k,j)->(i,j)")
        module = ir.IrModule(registry=registry.dialects)
        from bridgegen import codegen
        from bridgegen.dialects import build_op

        region = module.new_region()
        build_op(registry.dialects, module, "func.func",
                 attributes={"sym_name": ir.SymbolAttr("f"),
                             "function_type": ir.TypeAttr(ir.FunctionType((), ()))},
                 regions=[region])
        t1 = ir.TensorType(ir.F32, (None,))  # rank 1, needs rank 2
        entry = module.append_block(region, [t1, t1, t1])
        ctx = codegen.BuilderContext(module=module, registry=registry,
                                     region=region, entry_block=entry)
        ctx.set_block(entry)
        with pytest.raises(EinsumError, match="rank"):
            einsum.build_generic(ctx, spec, list(entry.arguments))

    def test_mixed_element_types_rejected(self, registry):
        spec = parse_einsum("(i),(i)->(i)")
        module = ir.IrModule(registry=registry.dialects)
        from bridgegen import codegen
        from bridgegen.dialects import build_op

        region = module.new_region()
        build_op(registry.dialects, module, "func.func",
                 attributes={"sym_name": ir.SymbolAttr("f"),
                             "function_type": ir.TypeAttr(ir.FunctionType((), ()))},
                 regions=[region])
        entry = module.append_block(region, [
            ir.TensorType(ir.F32, (None,)),
            ir.TensorType(ir.F64, (None,)),
            ir.TensorType(ir.F32, (None,)),
        ])
        ctx = codegen.BuilderContext(module=module, registry=registry,
                                     region=region, entry_block=entry)
        ctx.set_block(entry)
        with pytest.raises(EinsumError, match="element type"):
            einsum.build_generic(ctx, spec, list(entry.arguments))

    def test_printed_form_carries_maps_and_iterators(self, registry):
        spec = parse_einsum("(i,k),(k,j)->(i,j)")
        text = ir.print_module(build_einsum_function(registry, spec))
        assert "affine_map<(d0, d1, d2) -> (d0, d2)>" in text
        assert '"parallel", "parallel", "reduction"' in text
        assert "ins(%arg0, %arg1" in text and "outs(%arg2" in text

    def test_chained_generics_share_numbering_and_run(self, registry):
        from bridgegen import codegen
        from bridgegen.dialects import build_op

        spec = parse_einsum("(i,k),(k,j)->(i,j)")
        module = ir.IrModule(registry=registry.dialects)
        t = ir.TensorType(ir.F32, (None, None))
        region = module.new_region()
        build_op(registry.dialects, module, "func.func",
                 attributes={"sym_name": ir.SymbolAttr("twice"),
                             "function_type": ir.TypeAttr(
                                 ir.FunctionType((t,) * 3, (t,)))},
                 regions=[region])
        entry = module.append_block(region, [t] * 3)
        ctx = codegen.BuilderContext(module=module, registry=registry,
                                     region=region, entry_block=entry)
        ctx.set_block(entry)
        g1 = einsum.build_generic(ctx, spec, list(entry.arguments))
        g2 = einsum.build_generic(
            ctx, spec,
            [g1.results[0], entry.arguments[1], entry.arguments[2]])
        ctx.build_op("func.return", [g2.results[0]])
        assert ir.verify_module(module).ok
        text = ir.print_module(module)
        assert "%0 = linalg.generic" in text and "%6 = linalg.generic" in text

        rng = np.random.default_rng(4)
        a = rng.random((3, 3)).astype(np.float32)
        b = rng.random((3, 3)).astype(np.float32)
        zero = np.zeros((3, 3), dtype=np.float32)
        [out] = interp.run_function(
            module, "twice",
            [tensor_value(a), tensor_value(b), tensor_value(zero)])
        assert np.allclose(out.data, (a @ b) @ b, rtol=1e-4)

    def test_matmul_module_golden(self, registry):
        spec = parse_einsum("(i,k),(k,j)->(i,j)")
        got = ir.print_module(build_einsum_function(registry, spec))
        want = """\
module {
  func.func @einsum(%arg0: tensor<?x?xf32>, %arg1: tensor<?x?xf32>, %arg2: tensor<?x?xf32>) -> tensor<?x?xf32> {
    %0 = linalg.generic {indexing_maps = [affine_map<(d0, d1, d2) -> (d0, d2)>, affine_map<(d0, d1, d2) -> (d2, d1)>, affine_map<(d0, d1, d2) -> (d0, d1)>], iterator_types = ["parallel", "parallel", "reduction"]} ins(%arg0, %arg1 : tensor<?x?xf32>, tensor<?x?xf32>) outs(%arg2 : tensor<?x?xf32>) {
      ^bb0(%1: f32, %2: f32, %3: f32):
        %4 = arith.mulf %1, %2 : f32
        %5 = arith.addf %4, %3 : f32
        linalg.yield %5 : f32
    } -> tensor<?x?xf32>
    return %0 : tensor<?x?xf32>
  }
}
"""
        assert got == want
