"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import random
import time

import numpy as np
import pytest

from bridgegen import cli, codegen, dialects, einsum, fir, interp, ir
from bridgegen.dialects import load_dialect_spec, serialize_dialect
from conftest import (
    MAX_FIR,
    MAX_GOLDEN,
    SIGMOID_FIR,
    SIGMOID_GOLDEN,
    VADD_FIR,
    VADD_TYPES,
    einsum_bruteforce,
    find_golden,
    generated_cfg,
    new_func,
    oracle_resolve,
    random_fir_function,
    reachable_fir_edges,
    run_pipeline,
    tensor_value,
    walk_ops,
)


def report(number, description, ok=True):
    print(f"criterion {number:>2} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok


class TestCriterion1:
    def test_golden_sigmoid(self, registry):
        start = time.monotonic()
        module = run_pipeline(registry, SIGMOID_FIR, "sigmoid", [fir.F32])
        text = ir.print_module(module)
        elapsed = time.monotonic() - start
        ok = (find_golden(text, SIGMOID_GOLDEN)
              and text.count("%cst") >= 2  # one definition, shared uses
              and text.count("arith.constant") == 1
              and elapsed < 1.0)
        report(1, f"sigmoid prints the golden text in {elapsed:.3f}s", ok)


class TestCriterion2:
    def test_golden_max(self, registry):
        start = time.monotonic()
        module = run_pipeline(registry, MAX_FIR, "max", [fir.I64, fir.I64])
        text = ir.print_module(module)
        elapsed = time.monotonic() - start
        region = module.lookup_symbol("max").regions[0]
        ok = (find_golden(text, MAX_GOLDEN)
              and len(region.blocks) == 4
              and "arith.cmpi sge" in text
              and "cf.cond_br %0, ^bb1, ^bb2" in text
              and "^bb3(%1: i64)" in text
              and elapsed < 1.0)
        report(2, f"max prints the golden 4-block text in {elapsed:.3f}s", ok)


def _random_suite(registry, n):
    rng = random.Random(42)
    cases = []
    for i in range(n):
        fn = random_fir_function(rng, name=f"f{i}")
        converted = fir.insert_bool_conversions(fn)
        module = codegen.generate(registry, converted, [fir.I64, fir.I64])
        cases.append((converted, module))
    return cases


@pytest.fixture(scope="module")
def suite():
    return _random_suite(
        codegen.register_bindings(codegen.IntrinsicRegistry(), "arith", "math"), 120)


class TestCriterion3And4:
    def test_cfg_isomorphism(self, suite):
        for fn, module in suite:
            _, got = generated_cfg(module, fn, fn.name)
            assert got == reachable_fir_edges(fn), fn.name
            region = module.lookup_symbol(fn.name).regions[0]
            assert len(region.blocks) == len(fir.reachable_blocks(fn))
        report(3, f"CFG block count and edge set match on {len(suite)} "
                  f"random functions")

    def test_phi_conversion(self, suite):
        checked = 0
        for fn, module in suite:
            checked += self._check(module, fn)
        assert checked > 50  # the suite must actually contain phis
        report(4, f"phi/block-argument correspondence holds for {checked} "
                  f"phis across the random suite")

    @staticmethod
    def _check(module, fn):
        region = module.lookup_symbol(fn.name).regions[0]
        numbers = sorted(fir.reachable_blocks(fn))
        blocks = dict(zip(numbers, region.blocks))
        entry_args = region.blocks[0].arguments
        defining = {r: op for b in region.blocks for op in b.operations for r in op.results}
        count = 0
        for number in numbers[1:]:
            phis = [st for st in fn.blocks[number - 1] if isinstance(st, fir.Phi)]
            target = blocks[number]
            assert len(target.arguments) == len(phis)
            for slot, phi in enumerate(phis):
                count += 1
                for pred, arg in phi.incomings:
                    if pred not in blocks:
                        continue
                    term = blocks[pred].operations[-1]
                    passed = [s.args[slot] for s in term.successors
                              if s.block is target]
                    assert passed
                    for v in passed:
                        if isinstance(arg, fir.ParamRef):
                            assert v is entry_args[arg.index - 1]
                        else:
                            op = defining[v]
                            assert op.name == "arith.constant"
                            assert op.attributes["value"].value == arg.value
        return count


class TestCriterion5:
    def test_dispatch_oracle(self):
        lattice = [fir.F32, fir.F64, fir.I64, fir.ABSTRACT_FLOAT, fir.INTEGER,
                   fir.ANY]
        concrete = [fir.F32, fir.F64, fir.I64]
        rng = random.Random(2024)
        agreements = 0
        outcomes = {"ok": 0, "nomethod": 0, "ambiguous": 0}
        for _ in range(500):
            reg = codegen.IntrinsicRegistry()
            arity = rng.randint(1, 3)
            params = set()
            while len(params) < rng.randint(1, 6):
                params.add(tuple(rng.choice(lattice) for _ in range(arity)))
            for p in params:
                codegen.register_intrinsic(
                    reg, codegen.IntrinsicSignature("f", p), lambda c, a: [])
            args = tuple(rng.choice(concrete) for _ in range(arity))
            want = oracle_resolve([sig for sig, _ in reg.methods["f"]], args)
            try:
                sig, _ = codegen.resolve_method(reg, "f", args)
                got = ("ok", sig)
            except codegen.NoMethodError:
                got = ("nomethod", None)
            except codegen.AmbiguousMethodError:
                got = ("ambiguous", None)
            assert got == want, (params, args)
            agreements += 1
            outcomes[got[0]] += 1
        assert outcomes["nomethod"] > 0 and outcomes["ambiguous"] > 0
        report(5, f"resolve_method agrees with the brute-force oracle on "
                  f"{agreements} random registries {outcomes}")


FLOAT_CHAIN = """\
fn f(_1: f32)
1:
  %1 = invoke g(_1) :: f32
  %2 = invoke +(%1, 1) :: f32
  return %2

fn g(_1: f32)
1:
  %1 = invoke h(_1) :: f32
  %2 = invoke *(%1, 2.0) :: f32
  return %2

fn h(_1: f32)
1:
  %1 = invoke *(_1, _1) :: f32
  %2 = invoke -(%1) :: f32
  %3 = invoke exp(%2) :: f32
  return %3
"""

FLOAT_FLAT = """\
fn f_flat(_1: f32)
1:
  %1 = invoke *(_1, _1) :: f32
  %2 = invoke -(%1) :: f32
  %3 = invoke exp(%2) :: f32
  %4 = invoke *(%3, 2.0) :: f32
  %5 = invoke +(%4, 1) :: f32
  return %5
"""

INT_CHAIN = """\
fn fi(_1: i64, _2: i64)
1:
  %1 = invoke gi(_1, _2) :: i64
  %2 = invoke +(%1, 3) :: i64
  return %2

fn gi(_1: i64, _2: i64)
1:
  %1 = invoke hi(_1, _2) :: i64
  %2 = invoke *(%1, _2) :: i64
  return %2

fn hi(_1: i64, _2: i64)
1:
  %1 = invoke *(_1, _1) :: i64
  %2 = invoke -(%1, _2) :: i64
  return %2
"""

INT_FLAT = """\
fn fi_flat(_1: i64, _2: i64)
1:
  %1 = invoke *(_1, _1) :: i64
  %2 = invoke -(%1, _2) :: i64
  %3 = invoke *(%2, _2) :: i64
  %4 = invoke +(%3, 3) :: i64
  return %4
"""


class TestCriterion6:
    def test_inlining_end_to_end(self, registry):
        def is_intrinsic(name, types):
            return registry.has_name(name)

        # no program-defined targets survive
        program = fir.parse_program(FLOAT_CHAIN)
        inlined = fir.inline_calls(program, "f", is_intrinsic)
        leftover = [st for _, st in inlined.statements()
                    if isinstance(st, fir.Invoke)
                    and st.target in program.functions]
        assert leftover == []

        chain_mod = codegen.generate(registry, inlined, [fir.F32])
        flat_mod = run_pipeline(registry, FLOAT_FLAT, "f_flat", [fir.F32])
        worst = 0.0
        for x in (-1.5, -0.25, 0.0, 0.5, 2.0):
            [a] = interp.run_function(chain_mod, "f", [interp.F32Value(x)])
            [b] = interp.run_function(flat_mod, "f_flat", [interp.F32Value(x)])
            rel = abs(a.value - b.value) / max(abs(b.value), 1e-30)
            worst = max(worst, rel)
            assert rel <= 1e-6

        program_i = fir.parse_program(INT_CHAIN)
        inlined_i = fir.inline_calls(program_i, "fi", is_intrinsic)
        chain_i = codegen.generate(registry, inlined_i, [fir.I64, fir.I64])
        flat_i = run_pipeline(registry, INT_FLAT, "fi_flat", [fir.I64, fir.I64])
        for a, b in [(3, 7), (-5, 11), (0, 0), (123456, -789)]:
            [x] = interp.run_function(chain_i, "fi",
                                      [interp.IntValue(64, a),
                                       interp.IntValue(64, b)])
            [y] = interp.run_function(flat_i, "fi_flat",
                                      [interp.IntValue(64, a),
                                       interp.IntValue(64, b)])
            assert x.value == y.value  # bit-equal

        report(6, f"3-deep call chains match hand-flattened functions "
                  f"(f32 worst rel err {worst:.2e}, ints bit-equal)")


class TestCriterion7:
    def test_semantic_sigmoid(self, registry):
        module = run_pipeline(registry, SIGMOID_FIR, "sigmoid", [fir.F32])
        oracle = 1.0 / (1.0 + math.exp(-2.0))  # 0.8807970779778823
        assert abs(oracle - 0.8807970779778823) < 1e-15
        [at2] = interp.run_function(module, "sigmoid", [interp.F32Value(2.0)])
        [at0] = interp.run_function(module, "sigmoid", [interp.F32Value(0.0)])
        ok = abs(at2.value - 0.8807970779778823) < 1e-6 and at0.value == 0.5
        report(7, f"sigmoid(2.0)={at2.value!r} within 1e-6, "
                  f"sigmoid(0.0)={at0.value!r} exactly", ok)


class TestCriterion8:
    def test_einsum_oracle(self, registry):
        start = time.monotonic()
        rng = random.Random(88)
        nrng = np.random.default_rng(88)

        # anchored matmul case: 4x3 @ 3x5
        spec = einsum.parse_einsum("(i,k),(k,j)->(i,j)")
        module = einsum.build_einsum_function(registry, spec)
        a = nrng.random((4, 3)).astype(np.float32)
        b = nrng.random((3, 5)).astype(np.float32)
        c = np.zeros((4, 5), dtype=np.float32)
        [got] = interp.run_function(
            module, "einsum", [tensor_value(a), tensor_value(b), tensor_value(c)])
        want = einsum_bruteforce(spec, [a, b], c)
        assert np.allclose(got.data, want, rtol=1e-5)

        checked = 1
        while checked < 21:
            spec = self.random_spec(rng)
            module = einsum.build_einsum_function(registry, spec)
            extents = {name: rng.randint(1, 5) for name in spec.axes}
            inputs = [nrng.random(tuple(extents[n] for n in tup)).astype(np.float32)
                      for tup in spec.inputs]
            out = np.zeros(tuple(extents[n] for n in spec.output), dtype=np.float32)
            values = [tensor_value(x) for x in inputs] + [tensor_value(out)]
            [got] = interp.run_function(module, "einsum", values)
            want = einsum_bruteforce(spec, inputs, out)
            assert np.allclose(got.data, want, rtol=1e-5, atol=1e-6), spec
            checked += 1
        elapsed = time.monotonic() - start
        ok = elapsed < 10.0
        report(8, f"{checked} einsum specs match the loop-nest oracle "
                  f"in {elapsed:.2f}s", ok)

    @staticmethod
    def random_spec(rng):
        letters = ["i", "j", "k", "l"]
        while True:
            inputs = []
            for _ in range(rng.randint(1, 3)):
                inputs.append(tuple(rng.sample(letters, rng.randint(1, 3))))
            used = sorted({n for tup in inputs for n in tup})
            output = tuple(rng.sample(used, rng.randint(0, min(3, len(used)))))
            text = ",".join("(" + ",".join(t) + ")" for t in inputs)
            text += "->(" + ",".join(output) + ")"
            try:
                return einsum.parse_einsum(text)
            except einsum.EinsumError:
                continue


class TestCriterion9:
    def test_gpu_kernel(self, registry):
        module = run_pipeline(registry, VADD_FIR, "vadd", VADD_TYPES)

        a = np.arange(1, 9, dtype=np.float32)
        b = np.arange(10, 90, 10, dtype=np.float32)
        c = np.zeros(8, dtype=np.float32)
        bufs = [interp.MemRefValue(ir.F32, (8,), x) for x in (a, b, c)]
        interp.run_kernel(module, "vadd", interp.LaunchConfig((2, 1, 1), (4, 1, 1)), bufs)
        expect = np.array([11, 22, 33, 44, 55, 66, 77, 88], dtype=np.float32)
        assert np.array_equal(bufs[2].data, expect)
        report(9, "vadd grid(2,1,1) x block(4,1,1) on length-8 buffers is the "
                  "exact elementwise sum")


def _terminate(module):
    ir.create_op(module, "func.return", [], [], is_terminator=True)


def _cst(module, t=ir.F32, raw=1.0):
    attr = ir.FloatAttr(raw, t) if ir.is_float(t) else ir.IntAttr(int(raw), t)
    return ir.create_op(module, "arith.constant", [], [t], {"value": attr}).results[0]


def malformed_modules():
    """(description, expected diagnostic category, module) triples."""
    registry = dialects.builtin_registry()
    cases = []

    def module():
        return ir.IrModule(registry=registry)

    m = module()
    new_func(m)
    v = _cst(m)
    ir.create_op(m, "arith.negf", [v], [ir.F32])
    cases.append(("block ends in arith.negf", "missing-terminator", m))

    m = module()
    new_func(m)  # empty block
    cases.append(("empty block", "missing-terminator", m))

    m = module()
    new_func(m)
    _terminate(m)
    _cst(m)
    _terminate(m)
    cases.append(("terminator mid-block", "misplaced-terminator", m))

    m = module()
    region, entry = new_func(m)
    b1 = m.append_block(region, [])
    b2 = m.append_block(region, [])
    ir.create_op(m, "cf.cond_br", [_cst(m, ir.IntType(1), 1)], [],
                 successors=[(b1, []), (b2, [])])
    m.set_insertion(b1)
    v = _cst(m, ir.F32, 2.0)
    _terminate(m)
    m.set_insertion(b2)
    ir.create_op(m, "arith.negf", [v], [ir.F32])
    _terminate(m)
    cases.append(("use in non-dominated block", "dominance", m))

    m = module()
    new_func(m)
    use_first = ir.create_op(m, "arith.negf", [], [ir.F32])
    use_first.operands.append(_cst(m))
    _terminate(m)
    cases.append(("use before def in one block", "dominance", m))

    m = module()
    new_func(m)
    ir.create_op(m, "arith.addf", [_cst(m)], [ir.F32])
    _terminate(m)
    cases.append(("addf with one operand", "arity-mismatch", m))

    m = module()
    new_func(m)
    ir.create_op(m, "arith.negf", [_cst(m), _cst(m, raw=2.0)], [ir.F32])
    _terminate(m)
    cases.append(("negf with two operands", "arity-mismatch", m))

    m = module()
    new_func(m)
    ir.create_op(m, "arith.bogus", [], [])
    _terminate(m)
    cases.append(("op missing from arith", "unknown-op", m))

    m = module()
    new_func(m)
    ir.create_op(m, "nosuch.op", [], [])
    _terminate(m)
    cases.append(("op of unregistered dialect", "unknown-op", m))

    m = module()
    region, entry = new_func(m)
    target = m.append_block(region, [ir.I64])
    m.set_insertion(entry)
    ir.create_op(m, "cf.br", [], [], successors=[(target, [])])
    m.set_insertion(target)
    _terminate(m)
    cases.append(("branch passes no value to ^bb1(i64)", "bad-successor", m))

    m = module()
    _, b_f = new_func(m, "f")
    _, b_g = new_func(m, "g")
    m.set_insertion(b_g)
    _terminate(m)
    m.set_insertion(b_f)
    ir.create_op(m, "cf.br", [], [], successors=[(b_g, [])])
    cases.append(("branch into another region", "bad-successor", m))

    m = module()
    new_func(m)
    a, b = _cst(m, ir.I64, 1), _cst(m, ir.I64, 2)
    ir.create_op(m, "arith.addf", [a, b], [ir.I64])
    _terminate(m)
    cases.append(("addf on i64 operands", "type-constraint", m))

    m = module()
    new_func(m)
    a, b = _cst(m, ir.I64, 1), _cst(m, ir.I64, 2)
    ir.create_op(m, "arith.cmpi", [a, b], [ir.IntType(1)])
    _terminate(m)
    cases.append(("cmpi without predicate", "missing-attr", m))

    return cases


class TestCriterion10:
    def test_verifier_and_cli_exit(self, registry, tmp_path, capsys,
                                   monkeypatch):
        source = tmp_path / "any.fir"
        source.write_text(SIGMOID_FIR)
        cases = malformed_modules()
        assert len(cases) >= 10
        for description, category, module in cases:
            result = ir.verify_module(module)
            assert not result.ok, description
            assert category in {d.category for d in result.diagnostics}, (
                description, str(result))

            # the CLI refuses to print an unverifiable module: exit 1,
            # diagnostics on stderr, nothing on stdout
            monkeypatch.setattr(codegen, "generate",
                                lambda *a, _m=module, **k: _m)
            code = cli.main(["gen", str(source), "--entry", "sigmoid",
                             "--types", "f32"])
            out = capsys.readouterr()
            assert code == 1, description
            assert out.out == "", description
            assert category in out.err, description
        monkeypatch.undo()
        report(10, f"{len(cases)} malformed modules produce the expected "
                   f"diagnostic categories and nonzero CLI exits")


class TestCriterion11:
    def test_loader_fixpoint_and_coverage(self, registry):
        once = load_dialect_spec(dialects.ARITH_SPEC)
        twice = load_dialect_spec(serialize_dialect(once))
        assert once.name == twice.name and once.ops == twice.ops

        golden_modules = [
            run_pipeline(registry, SIGMOID_FIR, "sigmoid", [fir.F32]),
            run_pipeline(registry, MAX_FIR, "max", [fir.I64, fir.I64]),
            einsum.build_einsum_function(
                registry, einsum.parse_einsum("(i,k),(k,j)->(i,j)")),
            run_pipeline(registry, VADD_FIR, "vadd", VADD_TYPES),
        ]
        names = set()
        for module in golden_modules:
            for op in walk_ops(module):
                names.add(op.name)
        missing = [n for n in sorted(names)
                   if registry.dialects.lookup(n) is None]
        assert missing == []
        report(11, f"arith spec is a load/serialize fixpoint; builtin registry "
                   f"covers all {len(names)} golden op names")
