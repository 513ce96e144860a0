"""Frontend IR parsing, validation, inlining, and bool conversion."""

import copy

import pytest

from bridgegen import codegen, fir, interp, ir
from bridgegen.fir import (
    BOOL_CONVERSION,
    FirError,
    GotoIfNot,
    Invoke,
    ParamRef,
    Phi,
    Return,
    SsaRef,
    inline_calls,
    insert_bool_conversions,
    parse_program,
    print_fir,
    validate_fir,
)
from conftest import MAX_FIR, SIGMOID_FIR, normalize, run_pipeline


def always_intrinsic(name, types):
    return True


def intrinsics_by_name(*names):
    return lambda name, types: name in names


def inlined_text(text, entry="f"):
    """The normalized inlined entry, printed."""
    out = inline_calls(parse_program(text), entry,
                       intrinsics_by_name("+", "*", "<"))
    assert validate_fir(out) == []
    return print_fir(normalize(out))


def run_i64(registry, text, *inputs, entry="f"):
    module = run_pipeline(registry, text, entry, [fir.I64] * len(inputs))
    values = [interp.value_of_type(ir.I64, x) for x in inputs]
    (result,) = interp.run_function(module, entry, values)
    return result.value


INC = """\
fn inc(_1: i64)
1:
  %1 = invoke +(_1, 1) :: i64
  return %1
"""


class TestTypes:
    def test_parse_forms(self):
        assert fir.parse_frontend_type("f32") == fir.F32
        assert fir.parse_frontend_type("Bool") == fir.BOOL
        assert fir.parse_frontend_type("tensor{f32,2}") == fir.tensor_of(fir.F32, 2)
        assert fir.parse_frontend_type("memref{f64, 1}") == fir.Concrete("memref", (fir.F64, 1))
        assert fir.parse_frontend_type("Complex{f32}") == fir.complex_of(fir.F32)
        with pytest.raises(FirError):
            fir.parse_frontend_type("quaternion")

    def test_subtype_lattice(self):
        assert fir.subtype(fir.F32, fir.F32)
        assert fir.subtype(fir.F32, fir.ABSTRACT_FLOAT)
        assert fir.subtype(fir.F32, fir.ANY)
        assert fir.subtype(fir.I64, fir.INTEGER)
        assert not fir.subtype(fir.F32, fir.INTEGER)
        assert not fir.subtype(fir.ABSTRACT_FLOAT, fir.F32)
        assert fir.subtype(fir.ABSTRACT_FLOAT, fir.ANY)
        assert not fir.subtype(fir.ANY, fir.ABSTRACT_FLOAT)

    def test_concrete_types_are_minimal(self):
        for t in (fir.F32, fir.F64, fir.I64, fir.I1, fir.INDEX, fir.BOOL):
            for other in (fir.F32, fir.F64, fir.I64, fir.I1):
                if t != other:
                    assert not fir.subtype(t, other)


class TestParser:
    def test_max_structure(self):
        program = parse_program(MAX_FIR)
        fn = program.functions["max"]
        assert fn.param_types == [fir.I64, fir.I64]
        assert fn.n_blocks() == 4
        assert isinstance(fn.blocks[0][-1], GotoIfNot)
        phi = fn.blocks[3][0]
        assert isinstance(phi, Phi)
        assert phi.incomings == [(2, ParamRef(1)), (3, ParamRef(2))]

    def test_single_block_return(self):
        program = parse_program("fn id(_1: f32)\n1:\n  return _1\n")
        fn = program.functions["id"]
        assert fn.n_blocks() == 1
        assert fn.blocks[0] == [Return(ParamRef(1))]

    def test_goto_undefined_block(self):
        with pytest.raises(FirError, match="undefined block"):
            parse_program("fn f(_1: i64)\n1:\n  goto #9\n2:\n  return _1\n")

    def test_undefined_ssa_reference(self):
        with pytest.raises(FirError, match="undefined SSA id"):
            parse_program("fn f(_1: i64)\n1:\n  return %4\n")

    def test_syntax_error_carries_line(self):
        with pytest.raises(FirError, match="line 3"):
            parse_program("fn f(_1: i64)\n1:\n  %1 = what\n")

    @pytest.mark.parametrize("args", ["_1%2, _1", "%x", "%", "_", "_1,", "_1,,_1"])
    def test_malformed_argument_names_line(self, args):
        text = f"fn f(_1: f64)\n1:\n  %1 = invoke +({args}) :: f64\n  return %1\n"
        with pytest.raises(FirError, match="line 3: cannot parse argument"):
            parse_program(text)

    def test_bare_return(self):
        program = parse_program("fn f()\n1:\n  return\n")
        assert program.functions["f"].blocks[0] == [Return(None)]

    def test_round_trip(self):
        program = parse_program(MAX_FIR)
        fn = program.functions["max"]
        again = parse_program(print_fir(fn)).functions["max"]
        assert normalize(again) == normalize(fn)

    def test_round_trip_sigmoid(self):
        fn = parse_program(SIGMOID_FIR).functions["sigmoid"]
        again = parse_program(print_fir(fn)).functions["sigmoid"]
        assert normalize(again) == normalize(fn)

    def test_round_trip_exponent_literals(self):
        text = ("fn f(_1: f64)\n1:\n"
                "  %1 = invoke +(_1, 1.5e+20) :: f64\n"
                "  %2 = invoke +(%1, 2e-7) :: f64\n"
                "  return %2\n")
        fn = parse_program(text).functions["f"]
        again = parse_program(print_fir(fn)).functions["f"]
        assert normalize(again) == normalize(fn)
        lits = [a for _, st in fn.statements() if isinstance(st, Invoke)
                for a in st.args if isinstance(a, fir.FloatLit)]
        assert [a.value for a in lits] == [1.5e20, 2e-7]


class TestValidate:
    def test_max_is_clean(self):
        fn = parse_program(MAX_FIR).functions["max"]
        assert validate_fir(fn) == []

    def test_phi_mid_block(self):
        fn = parse_program(MAX_FIR).functions["max"]
        block = fn.blocks[3]
        block[0], block_phi = Invoke(9, "+", [ParamRef(1), ParamRef(2)], fir.I64), block[0]
        block.insert(1, block_phi)
        problems = validate_fir(fn)
        assert any("not at the start" in p for p in problems)

    def test_use_before_definition(self):
        text = "fn f(_1: i64)\n1:\n  %2 = invoke +(%1, _1) :: i64\n  %1 = invoke +(_1, _1) :: i64\n  return %2\n"
        fn = parse_program(text).functions["f"]
        assert any("before its definition" in p for p in validate_fir(fn))

    def test_terminator_mid_block(self):
        text = "fn f(_1: i64)\n1:\n  return _1\n  nothing\n"
        fn = parse_program(text).functions["f"]
        assert any("terminator before the end" in p for p in validate_fir(fn))

    def test_last_block_must_not_fall_off(self):
        text = "fn f(_1: i64)\n1:\n  nothing\n"
        fn = parse_program(text).functions["f"]
        assert any("falls off" in p for p in validate_fir(fn))

    def test_phi_non_predecessor(self):
        text = ("fn f(_1: i64)\n1:\n  goto #2\n"
                "2:\n  %1 = phi (#1 => _1, #2 => _1) :: i64\n  return %1\n")
        fn = parse_program(text).functions["f"]
        assert any("non-predecessor" in p for p in validate_fir(fn))

    def test_incomings_needed_from_reachable_predecessors_only(self):
        # block 4 is unreachable: block 3 needs no incoming from it, and its
        # own phi needs none at all
        text = ("fn f(_1: i64)\n1:\n  goto #3\n2:\n  goto #4\n"
                "3:\n  %1 = phi (#1 => _1) :: i64\n  return %1\n"
                "4:\n  %2 = phi () :: i64\n  goto #3\n")
        assert validate_fir(parse_program(text).functions["f"]) == []


CHAIN = """\
fn f(_1: f32)
1:
  %1 = invoke g(_1) :: f32
  %2 = invoke +(%1, 1.5) :: f32
  return %2

fn g(_1: f32)
1:
  %1 = invoke h(_1) :: f32
  %2 = invoke *(%1, 2.0) :: f32
  return %2

fn h(_1: f32)
1:
  %1 = invoke *(_1, _1) :: f32
  return %1
"""


class TestInlining:
    def test_chain_fully_inlined(self):
        program = parse_program(CHAIN)
        out = inline_calls(program, "f", intrinsics_by_name("+", "*"))
        for _, st in out.statements():
            if isinstance(st, Invoke):
                assert st.target in ("+", "*")
        assert validate_fir(out) == []

    def test_intrinsic_only_function_is_fixed_point(self):
        program = parse_program(SIGMOID_FIR)
        out = inline_calls(program, "sigmoid", always_intrinsic)
        assert normalize(out) == normalize(program.functions["sigmoid"])

    def test_idempotent(self):
        program = parse_program(CHAIN)
        pred = intrinsics_by_name("+", "*")
        once = inline_calls(program, "f", pred)
        again = inline_calls(fir.FirProgram({"f": once}), "f", pred)
        assert normalize(again) == normalize(once)

    def test_direct_recursion_reported(self):
        text = "fn f(_1: i64)\n1:\n  %1 = invoke f(_1) :: i64\n  return %1\n"
        with pytest.raises(FirError, match="recursive call cycle: f -> f"):
            inline_calls(parse_program(text), "f", intrinsics_by_name())

    def test_mutual_recursion_reported(self):
        text = ("fn f(_1: i64)\n1:\n  %1 = invoke g(_1) :: i64\n  return %1\n"
                "fn g(_1: i64)\n1:\n  %1 = invoke f(_1) :: i64\n  return %1\n")
        with pytest.raises(FirError, match="recursive call cycle"):
            inline_calls(parse_program(text), "f", intrinsics_by_name())

    def test_unresolvable_target(self):
        text = "fn f(_1: i64)\n1:\n  %1 = invoke mystery(_1) :: i64\n  return %1\n"
        with pytest.raises(FirError, match="neither an intrinsic nor defined"):
            inline_calls(parse_program(text), "f", intrinsics_by_name())

    @pytest.mark.parametrize("args", ["_1", "_1, _1, _1"])
    def test_call_arity_checked(self, args):
        text = (f"fn f(_1: f64)\n1:\n  %1 = invoke g({args}) :: f64\n  return %1\n"
                "fn g(_1: f64, _2: f64)\n1:\n  %1 = invoke +(_1, _2) :: f64\n"
                "  return %1\n")
        n = args.count("_")
        with pytest.raises(FirError, match=(
                rf"f: %1 = invoke g\({args}\) :: f64: 'g' takes 2 "
                rf"parameter\(s\), the call passes {n}")):
            inline_calls(parse_program(text), "f", intrinsics_by_name("+"))

    def test_multi_return_callee_gets_continuation_phi(self):
        text = """\
fn f(_1: i64)
1:
  %1 = invoke pick(_1) :: i64
  %2 = invoke +(%1, 1) :: i64
  return %2

fn pick(_1: i64)
1:
  %1 = invoke >=(_1, _1) :: i1
  goto #3 ifnot %1
2:
  return 7
3:
  return 8
"""
        program = parse_program(text)
        out = inline_calls(program, "f", intrinsics_by_name("+", ">="))
        assert validate_fir(out) == []
        phis = [st for _, st in out.statements() if isinstance(st, Phi)]
        assert len(phis) == 1
        assert sorted(a.value for _, a in phis[0].incomings) == [7, 8]

    def test_multi_block_callee_preserves_branches(self):
        text = """\
fn outer(_1: i64, _2: i64)
1:
  %1 = invoke pick(_1, _2) :: i64
  return %1

fn pick(_1: i64, _2: i64)
1:
  %1 = invoke >=(_1, _2) :: i1
  goto #3 ifnot %1
2:
  goto #4
3:
  nothing
4:
  %6 = phi (#2 => _1, #3 => _2) :: i64
  return %6
"""
        program = parse_program(text)
        out = inline_calls(program, "outer", intrinsics_by_name(">="))
        assert validate_fir(out) == []
        kinds = [type(st).__name__ for _, st in out.statements()]
        assert "GotoIfNot" in kinds and "Phi" in kinds

    def test_phi_predecessor_retargeted_to_continuation(self):
        # a phi naming the call's block as predecessor must follow the
        # moved terminator into the continuation block
        text = """\
fn f(_1: i64, _2: i64)
1:
  %1 = invoke >=(_1, _2) :: i1
  goto #3 ifnot %1
2:
  %2 = invoke g(_1) :: i64
  goto #4
3:
  nothing
4:
  %6 = phi (#2 => %2, #3 => _2) :: i64
  return %6

fn g(_1: i64)
1:
  %1 = invoke +(_1, 1) :: i64
  return %1
"""
        program = parse_program(text)
        out = inline_calls(program, "f", intrinsics_by_name("+", ">="))
        assert validate_fir(out) == []
        phi = next(st for _, st in out.statements() if isinstance(st, Phi))
        preds = fir.predecessors(out)
        phi_block = next(bi for bi, st in out.statements() if st is phi)
        assert sorted(p for p, _ in phi.incomings) == sorted(preds[phi_block])

    def test_call_in_middle_of_block_splits_it(self):
        text = """\
fn f(_1: f32)
1:
  %1 = invoke *(_1, _1) :: f32
  %2 = invoke g(%1) :: f32
  %3 = invoke +(%2, %1) :: f32
  return %3

fn g(_1: f32)
1:
  %1 = invoke +(_1, 1.0) :: f32
  return %1
"""
        program = parse_program(text)
        out = inline_calls(program, "f", intrinsics_by_name("+", "*"))
        assert validate_fir(out) == []
        assert out.n_blocks() == 3  # head, continuation, spliced callee

    def test_same_callee_twice_in_one_block(self, registry):
        text = """\
fn f(_1: i64, _2: i64)
1:
  %1 = invoke sq(_1) :: i64
  %2 = invoke sq(_2) :: i64
  %3 = invoke +(%1, %2) :: i64
  return %3

fn sq(_1: i64)
1:
  %1 = invoke *(_1, _1) :: i64
  return %1
"""
        assert inlined_text(text) == """\
fn f(_1: i64, _2: i64)
1:
  goto #2
2:
  %1 = invoke *(_1, _1) :: i64
  goto #3
3:
  goto #4
4:
  %2 = invoke *(_2, _2) :: i64
  goto #5
5:
  %3 = invoke +(%1, %2) :: i64
  return %3
"""
        assert run_i64(registry, text, 3, 4) == 25

    def test_call_result_is_next_call_argument(self, registry):
        text = """\
fn f(_1: i64)
1:
  %1 = invoke inc(_1) :: i64
  %2 = invoke inc(%1) :: i64
  return %2

""" + INC
        assert inlined_text(text) == """\
fn f(_1: i64)
1:
  goto #2
2:
  %1 = invoke +(_1, 1) :: i64
  goto #3
3:
  goto #4
4:
  %2 = invoke +(%1, 1) :: i64
  goto #5
5:
  return %2
"""
        assert run_i64(registry, text, 5) == 7

    def test_callee_returning_its_parameter(self, registry):
        # %3 -> %2 -> %1: the substitutions chain through both sites
        text = """\
fn f(_1: i64)
1:
  %1 = invoke +(_1, 1) :: i64
  %2 = invoke id(%1) :: i64
  %3 = invoke id(%2) :: i64
  %4 = invoke *(%3, %2) :: i64
  return %4

fn id(_1: i64)
1:
  return _1
"""
        assert inlined_text(text) == """\
fn f(_1: i64)
1:
  %1 = invoke +(_1, 1) :: i64
  goto #2
2:
  goto #3
3:
  goto #4
4:
  goto #5
5:
  %2 = invoke *(%1, %1) :: i64
  return %2
"""
        assert run_i64(registry, text, 4) == 25

    def test_two_callees_interleaved_in_one_block(self, registry):
        # pieces follow statement order, not callee-name order
        text = """\
fn f(_1: i64)
1:
  %1 = invoke inc(_1) :: i64
  %2 = invoke dbl(%1) :: i64
  %3 = invoke inc(%2) :: i64
  %4 = invoke dbl(%3) :: i64
  return %4

fn dbl(_1: i64)
1:
  %1 = invoke *(_1, 2) :: i64
  return %1

""" + INC
        assert inlined_text(text) == """\
fn f(_1: i64)
1:
  goto #2
2:
  %1 = invoke +(_1, 1) :: i64
  goto #3
3:
  goto #4
4:
  %2 = invoke *(%1, 2) :: i64
  goto #5
5:
  goto #6
6:
  %3 = invoke +(%2, 1) :: i64
  goto #7
7:
  goto #8
8:
  %4 = invoke *(%3, 2) :: i64
  goto #9
9:
  return %4
"""
        assert run_i64(registry, text, 1) == 10

    def test_loop_carried_phi_names_call_result(self, registry):
        # the back edge now leaves the call block's last piece (#5)
        text = """\
fn f(_1: i64)
1:
  goto #2
2:
  %1 = phi (#1 => 0, #3 => %3) :: i64
  %2 = invoke <(%1, _1) :: i1
  goto #4 ifnot %2
3:
  %3 = invoke inc(%1) :: i64
  goto #2
4:
  return %1

""" + INC
        assert inlined_text(text) == """\
fn f(_1: i64)
1:
  goto #2
2:
  %1 = phi (#1 => 0, #5 => %3) :: i64
  %2 = invoke <(%1, _1) :: i1
  goto #6 ifnot %2
3:
  goto #4
4:
  %3 = invoke +(%1, 1) :: i64
  goto #5
5:
  goto #2
6:
  return %1
"""
        assert run_i64(registry, text, 5) == 5
        assert run_i64(registry, text, 0) == 0


class TestBoolConversion:
    def test_i1_condition_converted(self):
        fn = parse_program(MAX_FIR).functions["max"]
        out = insert_bool_conversions(fn)
        convs = [st for _, st in out.statements()
                 if isinstance(st, Invoke) and st.target == BOOL_CONVERSION]
        assert len(convs) == 1
        assert convs[0].result_type == fir.BOOL
        branch = out.blocks[0][-1]
        assert isinstance(branch, GotoIfNot)
        assert branch.cond == SsaRef(convs[0].id)

    def test_bool_condition_untouched(self):
        text = ("fn f(_1: Bool)\n1:\n  goto #2 ifnot _1\n2:\n  return 1\n")
        fn = parse_program(text).functions["f"]
        out = insert_bool_conversions(fn)
        assert normalize(out) == normalize(fn)

    def test_one_conversion_per_branch_site(self):
        text = """\
fn f(_1: i64, _2: i64)
1:
  %1 = invoke >=(_1, _2) :: i1
  goto #3 ifnot %1
2:
  goto #3 ifnot %1
3:
  return _1
"""
        fn = parse_program(text).functions["f"]
        out = insert_bool_conversions(fn)
        convs = [st for _, st in out.statements()
                 if isinstance(st, Invoke) and st.target == BOOL_CONVERSION]
        non_bool_branches = [st for _, st in fn.statements()
                             if isinstance(st, GotoIfNot)
                             and fir.arg_typer(fn)(st.cond) != fir.BOOL]
        assert len(convs) == len(non_bool_branches) == 2

    def test_block_count_preserved_and_only_insertions(self):
        fn = parse_program(MAX_FIR).functions["max"]
        out = insert_bool_conversions(fn)
        assert out.n_blocks() == fn.n_blocks()
        originals = [st for _, st in fn.statements()]
        kept = [st for _, st in out.statements()
                if not (isinstance(st, Invoke) and st.target == BOOL_CONVERSION)]
        assert len(kept) == len(originals)
        for old, new in zip(originals, kept):
            if isinstance(old, GotoIfNot):
                assert isinstance(new, GotoIfNot) and new.target == old.target
            else:
                assert new == old


SHARED = """\
fn main(_1: i64, _2: i64)
1:
  %1 = invoke helper(_1, _2) :: i64
  %2 = invoke <(%1, _2) :: i1
  goto #3 ifnot %2
2:
  %3 = invoke helper(%1, 1) :: i64
  return %3
3:
  return %1
fn helper(_1: i64, _2: i64)
1:
  goto #2
2:
  %1 = phi (#1 => _1, #3 => %3) :: i64
  %2 = invoke <(%1, _2) :: i1
  goto #4 ifnot %2
3:
  %3 = invoke +(%1, 1) :: i64
  goto #2
4:
  return %1
"""


def test_pipeline_leaves_parsed_functions_unchanged(registry):
    """Passes share the statements they do not rewrite, so none may
    change a statement: inlining, bool conversion and generation leave
    every parsed function's text and statement objects as they were."""
    program = parse_program(SHARED)
    before = {name: (print_fir(fn), [list(b) for b in fn.blocks],
                     copy.deepcopy(fn.blocks))
              for name, fn in program.functions.items()}

    def is_intrinsic(name, types):
        return registry.has_name(name)

    types = [fir.I64, fir.I64]
    inlined = inline_calls(program, "main", is_intrinsic)
    codegen.generate(registry, insert_bool_conversions(inlined), types)
    for fn in program.functions.values():
        converted = insert_bool_conversions(fn)
        assert any(a is b for a, b in zip(converted.blocks[0], fn.blocks[0]))
    codegen.generate(registry, insert_bool_conversions(program.functions["helper"]),
                     types)
    for name, fn in program.functions.items():
        text, objects, copies = before[name]
        assert print_fir(fn) == text
        assert len(fn.blocks) == len(objects)
        for block, old in zip(fn.blocks, objects):
            assert len(block) == len(old)
            assert all(a is b for a, b in zip(block, old))
        assert fn.blocks == copies
