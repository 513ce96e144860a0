"""CLI subcommands, exit codes, and stream separation."""

import os
import random
import re
import subprocess
import sys

import pytest

import bridgegen
from bridgegen import cli, ir
from bridgegen.fir import print_fir
from conftest import (
    MAX_GOLDEN,
    SIGMOID_FIR,
    MAX_FIR,
    SIGMOID_GOLDEN,
    VADD_FIR,
    find_golden,
    random_fir_function,
)

VADD_TYPES_FLAG = "memref{f32,1},memref{f32,1},memref{f32,1}"


@pytest.fixture
def sigmoid_path(tmp_path):
    p = tmp_path / "sigmoid.fir"
    p.write_text(SIGMOID_FIR)
    return str(p)


@pytest.fixture
def max_path(tmp_path):
    p = tmp_path / "max.fir"
    p.write_text(MAX_FIR)
    return str(p)


@pytest.fixture
def vadd_path(tmp_path):
    p = tmp_path / "vadd.fir"
    p.write_text(VADD_FIR)
    return str(p)


OVERFLOW_FIR = "fn f(_1: f32)\n1:\n  %1 = invoke +(_1, 1e39) :: f32\n  return %1\n"


def run_cli(*args):
    """Run ``python -m bridgegen`` in a fresh process, where warnings print."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bridgegen.__file__)))
    return subprocess.run([sys.executable, "-m", "bridgegen", *args],
                          capture_output=True, text=True, env=env, timeout=120)


# What start-up must not load: the value classes are written out rather than
# generated by dataclasses (which imports inspect), only `bridgegen run`
# needs numpy and the interpreter, and only `bridgegen einsum` the einsum
# lowering.
UNLOADED = ("dataclasses", "inspect", "numpy", "bridgegen.einsum", "bridgegen.interp")


def test_import_leaves_numpy_unloaded(sigmoid_path):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bridgegen.__file__)))
    loaded = f"[m for m in {UNLOADED!r} if m in sys.modules]"
    code = f"import sys, bridgegen, bridgegen.cli; print({loaded})"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0 and done.stdout.strip() == "[]", done.stderr
    # `gen` compiles and prints without them
    code = ("import sys; from bridgegen import cli; "
            f"code = cli.main(['gen', {sigmoid_path!r}, '--entry', 'sigmoid', "
            f"'--types', 'f32']); print(code, {loaded})")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []", done.stdout


class TestGen:
    def test_sigmoid_to_stdout(self, sigmoid_path, capsys):
        code = cli.main(["gen", sigmoid_path, "--entry", "sigmoid",
                         "--types", "f32"])
        out = capsys.readouterr()
        assert code == 0
        assert find_golden(out.out, SIGMOID_GOLDEN)
        assert out.err == ""

    def test_max_to_stdout(self, max_path, capsys):
        code = cli.main(["gen", max_path, "--entry", "max",
                         "--types", "i64,i64"])
        out = capsys.readouterr()
        assert code == 0
        assert find_golden(out.out, MAX_GOLDEN)

    def test_out_file(self, sigmoid_path, tmp_path, capsys):
        target = tmp_path / "out.mlir"
        code = cli.main(["gen", sigmoid_path, "--entry", "sigmoid",
                         "--types", "f32", "--out", str(target)])
        assert code == 0
        assert find_golden(target.read_text(), SIGMOID_GOLDEN)
        assert capsys.readouterr().out == ""

    def test_unwritable_out_path(self, sigmoid_path, tmp_path, capsys):
        code = cli.main(["gen", sigmoid_path, "--entry", "sigmoid",
                         "--types", "f32", "--out", str(tmp_path / "no" / "x")])
        out = capsys.readouterr()
        assert code == 1
        assert "cannot write" in out.err

    def test_wrong_arity_is_usage_error(self, max_path, capsys):
        code = cli.main(["gen", max_path, "--entry", "max", "--types", "i64"])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert "--types" in out.err

    def test_missing_entry_fails(self, sigmoid_path, capsys):
        code = cli.main(["gen", sigmoid_path, "--entry", "nope",
                         "--types", "f32"])
        assert code == 1
        assert "no function named" in capsys.readouterr().err

    def test_parse_error_exit_1(self, tmp_path, capsys):
        p = tmp_path / "bad.fir"
        p.write_text("fn broken(\n")
        code = cli.main(["gen", str(p), "--entry", "broken", "--types", "f32"])
        assert code == 1
        assert capsys.readouterr().err != ""

    def test_dispatch_error_exit_1(self, tmp_path, capsys):
        p = tmp_path / "f.fir"
        p.write_text("fn f(_1: f32)\n1:\n  %1 = invoke mystery(_1) :: f32\n  return %1\n")
        code = cli.main(["gen", str(p), "--entry", "f", "--types", "f32"])
        assert code == 1
        assert "mystery" in capsys.readouterr().err

    def test_call_arity_mismatch_exit_1(self, tmp_path, capsys):
        p = tmp_path / "arity.fir"
        p.write_text("fn f(_1: f64)\n1:\n  %1 = invoke g(_1) :: f64\n  return %1\n"
                     "fn g(_1: f64, _2: f64)\n1:\n  %1 = invoke +(_1, _2) :: f64\n"
                     "  return %1\n")
        code = cli.main(["gen", str(p), "--entry", "f", "--types", "f64"])
        out = capsys.readouterr()
        assert code == 1 and out.out == ""
        assert out.err == ("error: f: %1 = invoke g(_1) :: f64: 'g' takes 2 "
                           "parameter(s), the call passes 1\n")

    def test_every_function_validated(self, tmp_path, capsys):
        p = tmp_path / "callee.fir"
        p.write_text("fn f(_1: f64)\n1:\n  %1 = invoke g(_1) :: f64\n  return %1\n"
                     "fn g(_1: f64)\n1:\n  %1 = invoke +(_1, %1) :: f64\n"
                     "  return %1\n")
        for command in (["gen"], ["run"]):
            args = [*command, str(p), "--entry", "f", "--types", "f64"]
            code = cli.main(args + (["--", "1.0"] if command == ["run"] else []))
            out = capsys.readouterr()
            assert code == 1 and out.out == ""
            assert out.err == (f"error: {p}: g: block 1: %1 used before its "
                               "definition\n")

    def test_deep_call_chain(self, tmp_path, capsys):
        # f0 -> f1 -> ... -> f1500, deeper than Python's recursion limit
        depth = 1500
        text = "".join(
            f"fn f{i}(_1: i64)\n1:\n  %1 = invoke f{i + 1}(_1) :: i64\n"
            "  return %1\n" for i in range(depth))
        text += f"fn f{depth}(_1: i64)\n1:\n  %1 = invoke +(_1, 1) :: i64\n  return %1\n"
        p = tmp_path / "deep.fir"
        p.write_text(text)
        args = [str(p), "--entry", "f0", "--types", "i64"]
        assert cli.main(["gen", *args]) == 0
        out = capsys.readouterr()
        assert "func.func @f0(%arg0: i64) -> i64" in out.out and out.err == ""
        assert cli.main(["run", *args, "--", "41"]) == 0
        assert capsys.readouterr().out == "42\n"

    def test_unexpected_exception_is_one_internal_error_line(
            self, sigmoid_path, capsys, monkeypatch):
        def broken(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli.fir, "inline_calls", broken)
        code = cli.main(["gen", sigmoid_path, "--entry", "sigmoid",
                         "--types", "f32"])
        out = capsys.readouterr()
        assert code == 1
        assert out.err == "error: internal: RuntimeError: boom\n"
        assert out.out == ""

    def test_infinite_constant_prints_hex_without_warning(self, tmp_path):
        p = tmp_path / "overflow.fir"
        p.write_text(OVERFLOW_FIR)
        done = run_cli("gen", str(p), "--entry", "f", "--types", "f32")
        assert (done.returncode, done.stderr) == (0, "")
        assert "arith.constant 0x7F800000 : f32" in done.stdout

    def test_diagnostics_on_stderr_ir_on_stdout(self, sigmoid_path, capsys):
        assert cli.main(["gen", sigmoid_path, "--entry", "sigmoid",
                         "--types", "f32"]) == 0
        out = capsys.readouterr()
        assert "func.func" in out.out and out.err == ""

    def test_missing_file(self, capsys):
        code = cli.main(["gen", "/nonexistent.fir", "--entry", "f",
                         "--types", "f32"])
        assert code == 1

    def test_extra_dialect_flag(self, sigmoid_path, tmp_path):
        spec = tmp_path / "extra.spec"
        spec.write_text('dialect extra\nop nop "Does nothing."\n')
        assert cli.main(["gen", sigmoid_path, "--entry", "sigmoid",
                         "--types", "f32", "--dialect", str(spec)]) == 0

    def test_bad_dialect_file(self, sigmoid_path, tmp_path, capsys):
        spec = tmp_path / "extra.spec"
        spec.write_text("op before dialect header\n")
        code = cli.main(["gen", sigmoid_path, "--entry", "sigmoid",
                         "--types", "f32", "--dialect", str(spec)])
        assert code == 1

    def test_unreadable_dialect_file(self, sigmoid_path, tmp_path, capsys):
        missing = tmp_path / "missing.spec"
        code = cli.main(["gen", sigmoid_path, "--entry", "sigmoid",
                         "--types", "f32", "--dialect", str(missing)])
        assert code == 1
        assert capsys.readouterr().err == (f"error: cannot read dialect spec {missing}: "
                                           f"[Errno 2] No such file or directory: "
                                           f"'{missing}'\n")

    def test_duplicate_dialect_rejected(self, sigmoid_path, tmp_path, capsys):
        spec = tmp_path / "arith2.spec"
        spec.write_text('dialect arith\nop other "Clash."\n')
        code = cli.main(["gen", sigmoid_path, "--entry", "sigmoid",
                         "--types", "f32", "--dialect", str(spec)])
        assert code == 1
        assert "already registered" in capsys.readouterr().err


TWICE_SPEC = """\
dialect my
op twice "Doubles a float."
  operand x AnyFloat
  result res same(0)
  bind twice (f32) (f64)
"""


class TestBoundDialect:
    """An op bound by a ``--dialect`` spec is callable from FIR."""

    @pytest.fixture
    def paths(self, tmp_path):
        spec = tmp_path / "my.spec"
        spec.write_text(TWICE_SPEC)
        fir_path = tmp_path / "twice.fir"
        fir_path.write_text("fn f(_1: f64)\n1:\n  %1 = invoke twice(_1) :: f64\n"
                            "  return %1\n")
        return ["--entry", "f", "--types", "f64", "--dialect", str(spec)], str(fir_path)

    def test_gen_prints_bound_op(self, paths, capsys):
        flags, fir_path = paths
        assert cli.main(["gen", fir_path, *flags]) == 0
        assert '= "my.twice"(%arg0) : (f64) -> (f64)' in capsys.readouterr().out

    def test_gen_prints_attributes_in_the_generic_form(self, tmp_path, capsys):
        # a bound op's attributes, from its bind line, print sorted by name
        spec = tmp_path / "scale.spec"
        spec.write_text('dialect my\nop scale "Scales a float."\n  operand x AnyFloat\n'
                        "  attr mode string required\n  attr base string\n"
                        "  result res same(0)\n  bind scale (f64) mode=fast base=two\n")
        fir_path = tmp_path / "scale.fir"
        fir_path.write_text("fn f(_1: f64)\n1:\n  %1 = invoke scale(_1) :: f64\n"
                            "  return %1\n")
        assert cli.main(["gen", str(fir_path), "--entry", "f", "--types", "f64",
                         "--dialect", str(spec)]) == 0
        assert ('%0 = "my.scale"(%arg0) {base = "two", mode = "fast"} : (f64) -> (f64)'
                in capsys.readouterr().out)

    def test_run_has_no_semantics(self, paths, capsys):
        flags, fir_path = paths
        assert cli.main(["run", fir_path, *flags, "--", "2.0"]) == 1
        assert "unsupported operation 'my.twice'" in capsys.readouterr().err

    def test_duplicate_signature_names_spec(self, paths, tmp_path, capsys):
        flags, fir_path = paths
        spec = tmp_path / "dup.spec"
        spec.write_text('dialect dup\nop plus "Adds."\n  operand x AnyFloat\n'
                        '  operand y same(0)\n  result res same(0)\n  bind + (f64, f64)\n')
        code = cli.main(["gen", fir_path, *flags, "--dialect", str(spec)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: {spec}: duplicate intrinsic signature +(f64, f64)" in err

    def test_bad_bind_line_names_spec_and_line(self, paths, tmp_path, capsys):
        flags, fir_path = paths
        spec = tmp_path / "bad.spec"
        spec.write_text(TWICE_SPEC.replace("my", "bad").replace("(f64)", "(f65)"))
        code = cli.main(["gen", fir_path, *flags, "--dialect", str(spec)])
        assert code == 1
        assert f"error: {spec}: line 5: unknown frontend type 'f65'" in capsys.readouterr().err


class TestRun:
    def test_sigmoid_scalar(self, sigmoid_path, capsys):
        code = cli.main(["run", sigmoid_path, "--entry", "sigmoid",
                         "--types", "f32", "--", "2.0"])
        out = capsys.readouterr()
        assert code == 0
        assert out.out.startswith("0.880797")

    def test_vadd_kernel(self, vadd_path, capsys):
        code = cli.main([
            "run", vadd_path, "--entry", "vadd", "--types", VADD_TYPES_FLAG,
            "--launch", "2,1,1,4,1,1", "--",
            "[1,2,3,4,5,6,7,8]:f32",
            "[10,20,30,40,50,60,70,80]:f32",
            "[0x8]:f32",
        ])
        out = capsys.readouterr()
        assert code == 0
        assert out.out.splitlines()[-1] == \
            "[11.0, 22.0, 33.0, 44.0, 55.0, 66.0, 77.0, 88.0]"

    @pytest.mark.parametrize("text, types, inputs, ir_text, out", [
        ("fn f(_1: Complex{f32})\n1:\n  return _1\n", "Complex{f32}", ["1.5", "2.5"],
         "func.func @f(%arg0: f32, %arg1: f32) -> (f32, f32) {\n"
         "    return %arg0, %arg1 : f32, f32", "1.5\n2.5\n"),
        ("fn f(_1: f64)\n1:\n  goto #3\n2:\n  return 1\n3:\n  return _1\n", "f64",
         ["2.5"], "func.func @f(%arg0: f64) -> f64 {", "2.5\n"),
    ], ids=["complex-result", "dead-return-of-another-type"])
    def test_results_typed_by_the_reachable_return(self, tmp_path, capsys, text, types,
                                                   inputs, ir_text, out):
        (tmp_path / "f.fir").write_text(text)
        argv = [str(tmp_path / "f.fir"), "--entry", "f", "--types", types]
        assert cli.main(["gen", *argv]) == 0
        assert ir_text in capsys.readouterr().out
        assert cli.main(["run", *argv, "--", *inputs]) == 0
        assert capsys.readouterr() == (out, "")

    def test_missing_launch_for_gpu_kernel(self, vadd_path, capsys):
        code = cli.main([
            "run", vadd_path, "--entry", "vadd", "--types", VADD_TYPES_FLAG,
            "--", "[1x8]:f32", "[2x8]:f32", "[0x8]:f32",
        ])
        out = capsys.readouterr()
        assert code == 1
        assert "missing launch config" in out.err

    def test_launch_needed_only_when_a_gpu_op_runs(self, tmp_path, capsys):
        p = tmp_path / "k.fir"
        p.write_text("fn k(_1: i64)\n1:\n  %1 = invoke <(_1, 0) :: Bool\n"
                     "  goto #3 ifnot %1\n2:\n  %2 = invoke thread_idx_x() :: index\n"
                     "  return _1\n3:\n  return _1\n")
        argv = ["run", str(p), "--entry", "k", "--types", "i64", "--"]
        assert cli.main(argv + ["5"]) == 0  # the gpu op's block is not taken
        assert capsys.readouterr().out == "5\n"
        assert cli.main(argv + ["-1"]) == 1
        assert "missing launch config" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, inputs, out, err", [
        ("max", ["3", "7"], "7\n", ""),
        ("max", ["3", "7.9"], "", "i64 input '7.9' is not an integer literal"),
        ("max", ["3", "1e400"], "", "i64 input '1e400' is not an integer literal"),
        ("buf", ["[1..4]:i64"], "[1, 2, 3, 4]\n", ""),
        ("buf", ["[7.9, 2]:i64"], "", "cannot parse buffer literal '[7.9, 2]:i64'"),
        ("buf", ["[1e30]:i64"], "", "cannot parse buffer literal '[1e30]:i64'"),
        ("buf", ["[99999999999999999999]:i64"], "",
         "an element of '[99999999999999999999]:i64' does not fit in int64"),
    ])
    def test_integer_inputs_take_integer_literals(self, tmp_path, capsys, entry, inputs,
                                                  out, err):
        p = tmp_path / "ints.fir"
        p.write_text(MAX_FIR + "fn buf(_1: memref{i64,1})\n1:\n  return _1\n")
        types = "i64,i64" if entry == "max" else "memref{i64,1}"
        code = cli.main(["run", str(p), "--entry", entry, "--types", types, "--", *inputs])
        got = capsys.readouterr()
        assert (code, got.out, got.err) == (1 if err else 0, out,
                                            err and f"error: {err}\n")

    @pytest.mark.parametrize("entry, types, inputs, out, err", [
        ("fbuf", "memref{f32,1}", ["[0..5..3]:f32"], "[0.0, 3.0]\n", ""),
        ("fbuf", "memref{f32,1}", ["[5..0..-3]:f32"], "[5.0, 2.0]\n", ""),
        ("fbuf", "memref{f32,1}", ["[0..0.3..0.1]:f32"], "[0.0, 0.1, 0.2, 0.3]\n", ""),
        ("flag", "i1", ["true"], "1\n", ""),
        ("flag", "i1", ["false"], "0\n", ""),
        ("max", "i64,i64", ["true", "0"], "", "input literal true is not a value of i64"),
        ("sigmoid", "f32", ["false"], "", "input literal false is not a value of f32"),
        ("fbuf", "memref{f32,1}", ["[0x1000000000000]:f32"], "",
         "'[0x1000000000000]' spells more than 1048576 elements"),
        ("fbuf", "memref{f32,1}", ["[0..1048576]:f32"], "",
         "'[0..1048576]' spells more than 1048576 elements"),
        ("fbuf", "memref{f32,1}", ["[0..1e400]:f32"], "", "cannot parse buffer literal "
                                                          "'[0..1e400]:f32'"),
        ("fbuf", "memref{f32,1}", ["[1,2]:f64"], "",
         "'[1,2]:f64' has element type f64, expected f32"),
        # an integer scalar is a value of its type as a FIR literal is
        ("flag", "i1", ["1"], "1\n", ""),
        ("flag", "i1", ["5"], "", "input literal 5 is not a value of i1"),
        ("flag", "i1", ["-1"], "", "input literal -1 is not a value of i1"),
        ("max", "i64,i64", ["-9223372036854775809", "0"], "",
         "input literal -9223372036854775809 is not a value of i64"),
        ("max", "i64,i64", ["18446744073709551616", "0"], "",
         "input literal 18446744073709551616 is not a value of i64"),
        ("max", "i64,i64", ["-9223372036854775808", "18446744073709551615"], "-1\n", ""),
        ("idx", "index", ["-99999999999999999999999"], "-99999999999999999999999\n", ""),
        ("fbuf", "memref{f32,1}", ["[]:f32"], "[]\n", ""),
        ("fbuf", "memref{f32,1}", ["2.0"], "",
         "expected a buffer literal like [1,2,3]:f32, got '2.0'"),
        ("sigmoid", "f32", ["1" * 5001], "", "input: number of 5001 digits exceeds the limit "
         "of 640"),
    ], ids=["float-range-end", "float-range-down", "float-range-rounded", "true-i1",
            "false-i1", "true-i64", "false-f32", "repeat-cap", "range-cap", "range-exponent",
            "element-type", "one-i1", "five-i1", "minus-one-i1", "below-i64", "above-i64",
            "i64-bits", "index-unbounded", "empty-buffer", "scalar-for-buffer",
            "overlong-input"])
    def test_runtime_literals(self, tmp_path, capsys, entry, types, inputs, out, err):
        p = tmp_path / "lits.fir"
        p.write_text(MAX_FIR + SIGMOID_FIR + "fn fbuf(_1: memref{f32,1})\n1:\n  return _1\n"
                     "fn flag(_1: i1)\n1:\n  return _1\n"
                     "fn idx(_1: index)\n1:\n  return _1\n")
        code = cli.main(["run", str(p), "--entry", entry, "--types", types, "--", *inputs])
        got = capsys.readouterr()
        assert (code, got.out, got.err) == (1 if err else 0, out,
                                            err and f"error: {err}\n")

    def test_buffer_cap_at_its_bound(self, tmp_path, capsys):
        p = tmp_path / "fbuf.fir"
        p.write_text("fn fbuf(_1: memref{i64,1})\n1:\n  return _1\n")
        n = cli.MAX_INPUT_ELEMENTS
        v = cli.parse_runtime_input(f"[1..{n}]:i64", ir.MemRefType(ir.I64, 1))
        assert v.data.shape == (n,) and v.data[-1] == n
        code = cli.main(["run", str(p), "--entry", "fbuf", "--types", "memref{i64,1}",
                         "--", f"[7x{n + 1}]:i64"])
        assert (code, capsys.readouterr().err) == (
            1, f"error: '[7x{n + 1}]' spells more than {n} elements\n")

    def test_launch_of_a_function_with_results(self, sigmoid_path, capsys):
        code = cli.main(["run", sigmoid_path, "--entry", "sigmoid", "--types", "f32",
                         "--launch", "1,1,1,2,1,1", "--", "2.0"])
        out = capsys.readouterr()
        assert (code, out.out, out.err) == (
            1, "", "error: @sigmoid cannot be launched: a kernel returns no values\n")

    def test_out_of_bounds_exit_1(self, vadd_path, capsys):
        code = cli.main([
            "run", vadd_path, "--entry", "vadd", "--types", VADD_TYPES_FLAG,
            "--launch", "4,1,1,4,1,1", "--",
            "[1x8]:f32", "[2x8]:f32", "[0x8]:f32",
        ])
        out = capsys.readouterr()
        assert code == 1
        assert "out of bounds" in out.err

    def test_overflow_prints_no_warning(self, tmp_path):
        p = tmp_path / "overflow.fir"
        p.write_text(OVERFLOW_FIR)
        done = run_cli("run", str(p), "--entry", "f", "--types", "f32", "--", "2.0")
        assert (done.returncode, done.stderr, done.stdout) == (0, "", "inf\n")

    def test_wrong_input_count(self, sigmoid_path, capsys):
        code = cli.main(["run", sigmoid_path, "--entry", "sigmoid",
                         "--types", "f32", "--", "1.0", "2.0"])
        assert code == 2

    def test_step_limit_env(self, tmp_path, capsys, monkeypatch):
        p = tmp_path / "loop.fir"
        p.write_text("fn loop(_1: i64)\n1:\n  goto #2\n2:\n  goto #2\n")
        monkeypatch.setenv(cli.STEP_LIMIT_ENV, "50")
        code = cli.main(["run", str(p), "--entry", "loop",
                         "--types", "i64", "--", "1"])
        out = capsys.readouterr()
        assert code == 1
        assert "step budget" in out.err

    def test_step_limit_env_must_be_an_integer(self, sigmoid_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.STEP_LIMIT_ENV, "lots")
        code = cli.main(["run", sigmoid_path, "--entry", "sigmoid", "--types", "f32",
                         "--", "2.0"])
        assert (code, capsys.readouterr().err) == (
            1, f"error: {cli.STEP_LIMIT_ENV} must be an integer, got 'lots'\n")

    def test_range_and_repeat_sugar(self, vadd_path, capsys):
        code = cli.main([
            "run", vadd_path, "--entry", "vadd", "--types", VADD_TYPES_FLAG,
            "--launch", "2,1,1,4,1,1", "--",
            "[1..8]:f32", "[10..80..10]:f32", "[0x8]:f32",
        ])
        out = capsys.readouterr()
        assert code == 0
        assert out.out.splitlines()[-1] == \
            "[11.0, 22.0, 33.0, 44.0, 55.0, 66.0, 77.0, 88.0]"


class TestLiteralThroughInlining:
    """A literal passed for a parameter, or returned to a call, takes the
    declared type there, not its natural one."""

    @pytest.mark.parametrize("types, call, callee, constant, output", [
        ("f64", "g(2) :: f64", "g(_1: f64)\n1:\n  return _1\n",
         "arith.constant 2.0 : f64", "2.0"),
        ("f64", "g(2) :: f64", "g(_1: f64)\n1:\n  %1 = invoke +(_1, 1.0) :: f64\n"
         "  return %1\n", "arith.constant 2.0 : f64", "3.0"),
        ("f64", "g(_1) :: f64", "g(_1: f64)\n1:\n  return 1\n",
         "arith.constant 1.0 : f64", "1.0"),
        ("f32", "g(2.5) :: f32", "g(_1: f32)\n1:\n  return _1\n",
         "arith.constant 2.5 : f32", "2.5"),
        ("i64", "g(2, _1) :: f64", "g(_1: f64, _2: i64)\n1:\n"
         "  %1 = invoke >=(_2, 0) :: i1\n  goto #1 ifnot %1\n2:\n"
         "  %2 = invoke +(_1, 1.0) :: f64\n  return %2\n",
         "arith.constant 2.0 : f64", "3.0"),
    ], ids=["argument-returned", "argument-added", "returned", "f32-argument",
            "entry-loop-header"])
    def test_gen_and_run(self, tmp_path, capsys, types, call, callee, constant, output):
        p = tmp_path / "f.fir"
        p.write_text(f"fn f(_1: {types})\n1:\n  %1 = invoke {call}\n  return %1\n\n"
                     f"fn {callee}")
        flags = [str(p), "--entry", "f", "--types", types]
        assert cli.main(["gen", *flags]) == 0
        printed = capsys.readouterr().out
        result = call.split(":: ")[1]
        assert f"func.func @f(%arg0: {types}) -> {result} {{" in printed
        assert constant in printed
        assert cli.main(["run", *flags, "--", "3"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == output


class TestEinsum:
    def test_matmul(self, capsys):
        code = cli.main(["einsum", "(i,k),(k,j)->(i,j)"])
        out = capsys.readouterr()
        assert code == 0
        assert out.out.count("affine_map") == 3
        assert out.out.count("linalg.generic") == 1

    def test_copy(self, capsys):
        code = cli.main(["einsum", "(i)->(i)"])
        out = capsys.readouterr()
        assert code == 0
        assert "linalg.generic" in out.out

    def test_bad_spec_exit_1(self, capsys):
        code = cli.main(["einsum", "(i,j)->(k)"])
        out = capsys.readouterr()
        assert code == 1
        assert out.out == ""
        assert "k" in out.err

    @pytest.mark.parametrize("spec, flags, err", [
        ("(i,1)->(i)", [], "bad index name '1' in input"),
        ("(i,j)", [], "einsum spec needs '->'"),
        ("(i,k),(k,j)->(i,j)", ["--shapes", "4x3,3x5"], "3 operand shape(s) expected, got 2"),
    ], ids=["index-name", "no-arrow", "shape-count"])
    def test_bad_spec_or_shapes(self, capsys, spec, flags, err):
        code = cli.main(["einsum", spec, *flags])
        got = capsys.readouterr()
        assert (code, got.out, got.err) == (1, "", f"error: {err}\n")

    def test_shapes_checked(self, capsys):
        assert cli.main(["einsum", "(i,k),(k,j)->(i,j)",
                         "--shapes", "4x3,3x5,4x5"]) == 0
        capsys.readouterr()
        code = cli.main(["einsum", "(i,k),(k,j)->(i,j)",
                         "--shapes", "4x3,2x5,4x5"])
        out = capsys.readouterr()
        assert code == 1
        assert "inconsistent extents" in out.err
        assert cli.main(["einsum", "(i,k),(k,j)->(i,j)", "--shapes", "4x3x2,3x5,4x5"]) == 1
        assert capsys.readouterr().err == (
            "error: shape 4x3x2 has rank 3; index tuple (i,k) needs 2\n")


LONG = "1" * 5000  # past int()'s default limit of 4300 digits
PHI_OF_LITERAL = ("fn f(_1: i64)\n1:\n  %1 = invoke <(_1, 0) :: Bool\n"
                  "  goto #3 ifnot %1\n2:\n  goto #3\n"
                  "3:\n  %2 = phi (#2 => {literal}, #1 => 0) :: {type}\n  return %2\n")
PLUS_ONE = "fn f(_1: i64)\n1:\n  %1 = invoke +(_1, 1) :: i64\n  return %1\n"
WIDE = "Complex{" * 18 + "f64" + "}" * 18


class TestDiagnostics:
    """Inputs that reach no other test get a diagnostic and exit 1."""

    def gen(self, tmp_path, text, types="i64"):
        p = tmp_path / "f.fir"
        p.write_text(text)
        return cli.main(["gen", str(p), "--entry", "f", "--types", types])

    @pytest.mark.parametrize("text, line", [
        (PLUS_ONE.replace("(_1, 1)", f"(_1, {LONG})"), 3),  # integer literal
        (PLUS_ONE.replace("\n1:", f"\n{LONG}:"), 2),  # block header
        (PLUS_ONE.replace("return %1", f"return %{LONG}"), 4),
        (PLUS_ONE.replace("(_1, 1)", f"(_{LONG}, 1)"), 3),
        (f"fn f(_1: i64)\n1:\n  goto #{LONG}\n2:\n  return _1\n", 3),
    ], ids=["literal", "block", "ssa", "param", "goto"])
    def test_overlong_number_in_fir(self, tmp_path, capsys, text, line):
        code = self.gen(tmp_path, text)
        err = capsys.readouterr().err
        assert code == 1 and "error: internal:" not in err
        assert f"line {line}: number of 5000 digits exceeds the limit" in err

    @pytest.mark.parametrize("argv, where", [
        (["gen", "--dialect", "spec"], "spec: line 3: "),
        (["run", "--launch", f"1,1,1,{LONG},1,1", "--", "1"], "--launch: "),
        (["gen", "--types", f"tensor{{f32,{LONG}}}"], "--types: "),
    ], ids=["regions", "launch", "types"])
    def test_overlong_number_in_spec_or_flag(self, tmp_path, capsys, monkeypatch,
                                             argv, where):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "spec").write_text(f'dialect x\nop y "Y."\n  regions {LONG}\n')
        (tmp_path / "f.fir").write_text(PLUS_ONE)
        code = cli.main([argv[0], "f.fir", "--entry", "f", "--types", "i64", *argv[1:]])
        err = capsys.readouterr().err
        assert code in (1, 2) and "error: internal:" not in err
        assert f"{where}number of 5000 digits exceeds the limit" in err

    def test_overlong_einsum_shape(self, capsys):
        code = cli.main(["einsum", "(i)->(i)", "--shapes", f"{LONG},3"])
        err = capsys.readouterr().err
        assert code == 1 and "error: internal:" not in err
        assert "--shapes: number of 5000 digits exceeds the limit" in err

    @pytest.mark.parametrize("argv, spec, message", [
        (["run", "--launch", "1,1,1,1,1,\u00b2", "--", "1"], "",
         "--launch expects six integers: gx,gy,gz,bx,by,bz"),
        (["run", "--launch", "1,1,1,-1,1,1", "--", "1"], "",
         "launch extents must all be >= 1"),
        (["gen", "--dialect", "spec"], "  regions \u00b2\n",
         "spec: line 3: expected 'regions <n>'"),
        (["gen", "--dialect", "spec"], "  terminator successors \u00b2\n",
         "spec: line 3: expected 'successors <n|variadic>'"),
    ], ids=["launch", "negative-launch", "regions", "successors"])
    def test_non_ascii_or_negative_count(self, tmp_path, capsys, monkeypatch,
                                         argv, spec, message):
        # str.isdigit() takes '\u00b2', which int() refuses
        monkeypatch.chdir(tmp_path)
        (tmp_path / "spec").write_text(f'dialect x\nop y "Y."\n{spec}')
        (tmp_path / "f.fir").write_text(PLUS_ONE)
        code = cli.main([argv[0], "f.fir", "--entry", "f", "--types", "i64", *argv[1:]])
        err = capsys.readouterr().err
        assert code == 1 and "error: internal:" not in err
        assert message in err

    def test_zero_range_step(self, vadd_path, capsys):
        code = cli.main(["run", vadd_path, "--entry", "vadd", "--types", VADD_TYPES_FLAG,
                         "--launch", "1,1,1,1,1,1", "--", "[1..8..0]:f32", "[1]:f32",
                         "[0]:f32"])
        err = "error: cannot parse buffer literal '[1..8..0]:f32'\n"
        assert (code, capsys.readouterr().err) == (1, err)

    def test_non_ascii_einsum_shape(self, capsys):
        code = cli.main(["einsum", "(i,j),(j)->(i)", "--shapes", "\u00b2x3,\u00b2,4"])
        err = capsys.readouterr().err
        assert code == 1 and "error: internal:" not in err
        assert "bad shape '\u00b2x3'" in err

    @pytest.mark.parametrize("text, types", [
        # 2000 levels once recursed past Python's stack limit
        (PLUS_ONE.replace(":: i64", ":: " + "Complex{" * 2000 + "i64" + "}" * 2000),
         "i64"),
        # 18 levels of Complex flatten to 2**18 IR values per parameter
        ("fn f(_1: " + WIDE + ")\n1:\n  return _1\n", WIDE),
    ], ids=["deep", "wide"])
    def test_type_nested_too_deep(self, tmp_path, capsys, text, types):
        code = self.gen(tmp_path, text, types)
        err = capsys.readouterr().err
        assert code == 1 and "error: internal:" not in err
        assert "frontend type nests deeper than" in err

    @pytest.mark.parametrize("text, message", [
        ("fn f(_1: i64, _2: f65)\n1:\n  return _1\n",
         "line 1: unknown frontend type 'f65'"),
        (PLUS_ONE.replace(":: i64", ":: f65"), "line 3: unknown frontend type 'f65'"),
        ("fn f(_1: i64)\n1:\n  goto #2\n2:\n  %1 = phi (#1 => _1) :: f65\n"
         "  return %1\n", "line 5: unknown frontend type 'f65'"),
        ("fn f(_1: i64)\n1:\n  return _1\n\nfn g(_1: " + WIDE + ")\n1:\n  return _1\n",
         "line 5: frontend type nests deeper than 8 levels"),
    ], ids=["parameter", "invoke", "phi", "nesting"])
    def test_bad_frontend_type_names_its_line(self, tmp_path, capsys, text, message):
        code = self.gen(tmp_path, text)
        err = capsys.readouterr().err
        assert code == 1 and "error: internal:" not in err
        assert f"error: {tmp_path / 'f.fir'}: {message}\n" in err

    @pytest.mark.parametrize("call, callee, message", [
        ("g(_1) :: i64", "fn g(_1: i64)\n1:\n  %1 = invoke +(_1, 1) :: i64\n  return %1\n",
         "argument 1 is f64, 'g' takes i64"),
        ("g(_1) :: i64", "fn g(_1: f64)\n1:\n  return _1\n",
         "'g' returns f64, the call declares i64"),
        ("g(2) :: f64", "fn g(_1: f64)\n1:\n  return _1\n", None),
        ("g(_1) :: f64", "fn g(_1: f64)\n1:\n  return 3\n", None),
    ], ids=["argument", "declared", "literal-argument", "literal-return"])
    def test_call_types_checked(self, tmp_path, capsys, call, callee, message):
        text = (f"fn f(_1: f64)\n1:\n  %1 = invoke {call}\n"
                f"  %2 = invoke +(%1, _1) :: f64\n  return %2\n{callee}")
        code = self.gen(tmp_path, text, "f64")
        out = capsys.readouterr()
        if message is None:  # a literal promotes as dispatch promotes it
            assert code == 0 and "-> f64" in out.out
        else:
            assert code == 1 and out.out == ""
            assert out.err == f"error: f: %1 = invoke {call}: {message}\n"

    @pytest.mark.parametrize("text, message", [
        ("fn f(_1: i64)\n1:\n  %1 = invoke <(_1, 0) :: Bool\n  goto #3 ifnot %1\n"
         "2:\n  goto #3\n3:\n  %2 = phi (#2 => _1) :: i64\n  return %2\n",
         "f: block 3: phi %2 has no incoming from predecessor #1"),
        ("fn f(_1: i64)\n1:\n  %1 = phi () :: i64\n  return _1\n",
         "f: block 1: phi %1 in the entry block"),
        ("fn f(_1: i64)\n1:\n  %1 = invoke g(_1) :: i64\n  return %1\n"
         "fn g(_1: i64)\n1:\n  %2 = phi (#2 => _1) :: i64\n"
         "  %3 = invoke <(%2, 10) :: Bool\n  goto #3 ifnot %3\n2:\n  goto #1\n"
         "3:\n  return %2\n",
         "g: block 1: phi %2 in the entry block"),
        (PHI_OF_LITERAL.format(literal="true", type="i64"),
         "f: block 3: phi %2: literal true is not a value of i64"),
        (PHI_OF_LITERAL.format(literal="3.0", type="i64"),
         "f: block 3: phi %2: literal 3.0 is not a value of i64"),
        (PHI_OF_LITERAL.format(literal="true", type="index"),
         "f: block 3: phi %2: literal true is not a value of index"),
        ("fn f(_1: i64)\n1:\n  goto #2 ifnot %4\n2:\n  return _1\n",
         "f: block 1: reference to undefined SSA id %4"),
        ("fn f(_1: i64)\n1:\n  return _1\nfn g()\n", "g: function has no blocks"),
    ], ids=["phi-missing-incoming", "entry-phi", "callee-entry-phi", "true-as-i64",
            "float-as-i64", "true-as-index", "undefined-ssa-id", "no-blocks"])
    def test_validation_rejects(self, tmp_path, capsys, text, message):
        # phi structure is validate_fir's, in the numbering of the file
        code = self.gen(tmp_path, text)
        out = capsys.readouterr()
        assert (code, out.out, out.err) == (1, "", f"error: {tmp_path / 'f.fir'}: {message}\n")

    @pytest.mark.parametrize("text, types, message", [
        ("fn f(_1: i64)\n1:\n  %1 = invoke bool_conversion_intrinsic(_1, _1) :: Bool\n"
         "  return _1\n", "i64",
         "%1 in block 1: no method matching bool_conversion_intrinsic(i64, i64)"),
        ("fn f(_1: f64)\n1:\n  goto #3 ifnot _1\n2:\n  return _1\n3:\n  return _1\n",
         "f64", "%1 in block 1: no method matching bool_conversion_intrinsic(f64)"),
        ("fn f(_1: i64)\n1:\n  goto #3 ifnot 1.0\n2:\n  return 1\n3:\n  return 2\n",
         "i64", "literal 1.0 is not a value of Bool"),
        ("fn f(_1: i64)\n1:\n  goto #3 ifnot -1\n2:\n  return 1\n3:\n  return 2\n",
         "i64", "literal -1 is not a value of Bool"),
        ("fn f(_1: i64)\n1:\n  goto #1\n", "i64",
         "the entry block may not be a branch target"),
    ], ids=["two-argument-conversion", "f64-condition", "float-condition",
            "negative-condition", "goto-entry"])
    def test_codegen_rejects(self, tmp_path, capsys, text, types, message):
        code = self.gen(tmp_path, text, types)
        out = capsys.readouterr()
        assert (code, out.out, out.err) == (1, "", f"error: {message}\n")


class TestUsage:
    def test_no_command(self, capsys):
        assert cli.main([]) == 2

    def test_unknown_command(self, capsys):
        assert cli.main(["transmogrify"]) == 2

    def test_missing_required_flag(self, sigmoid_path, capsys):
        assert cli.main(["gen", sigmoid_path, "--types", "f32"]) == 2

    def test_inputs_are_for_run_alone(self, sigmoid_path, capsys):
        # what follows "--" is runtime input, which gen does not take
        assert cli.main(["gen", sigmoid_path, "--entry", "sigmoid", "--types", "f32",
                         "--", "2.0", "3.0"]) == 2
        assert capsys.readouterr().err.endswith(
            "bridgegen: error: unrecognized arguments: 2.0 3.0\n")


DEMO_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "demos")
FUZZ_RUN_ARGS = {  # entry -> (--types, run arguments)
    "sigmoid": ("f32", ["--", "2.0"]),
    "max": ("i64,i64", ["--", "3", "7"]),
    "vadd": (VADD_TYPES_FLAG, ["--launch", "2,1,1,4,1,1", "--", "[1..8]:f32",
                               "[10..80..10]:f32", "[0x8]:f32"]),
    "f": ("i64,i64", ["--", "3", "7"]),
}


def token_mutants(sources, count, rng):
    """``count`` (entry, text) mutants of ``sources``: each replaces,
    deletes or duplicates one token, replacements drawn from all tokens."""
    tokenized = [(entry, re.findall(r"\s+|\w+|[^\w\s]", text))
                 for entry, text in sources]
    pool = sorted({t for _, toks in tokenized for t in toks if not t.isspace()})
    out = []
    for _ in range(count):
        entry, toks = rng.choice(tokenized)
        toks = list(toks)
        i = rng.choice([k for k, t in enumerate(toks) if not t.isspace()])
        kind = rng.randrange(3)
        if kind == 0:
            toks[i] = rng.choice(pool)
        elif kind == 1:
            del toks[i]
        else:
            toks.insert(i, toks[i])
        out.append((entry, "".join(toks)))
    return out


# runtime inputs that Gate B swaps in, one per mutant: kinds and sizes that
# do not match, values at and past the integer limits, bad buffer literals
RUNTIME_INPUTS = ["7.9", "1e400", "-1", "true", "9223372036854775808", "-0.0", "nan",
                  "3", "2.0", "[7.9]:f32", "[7.9, 2]:i64", "[1e30]:i64",
                  "[99999999999999999999]:i64", "[1..8]:i64", "[1..8]:index", "[]:f32",
                  "[1..8..0]:f32", "[0x2]:f64", "[1..3]:f32", "[0x1000000000000]:f32",
                  "[0..1000000000000]:i64"]


def test_token_mutants_never_fail_internally(tmp_path, capsys, monkeypatch):
    """Gate: seeded token mutants of the demos and of random conftest
    programs get exit 0, 1 or 2 from ``gen`` and ``run``, never a defect;
    so does each ``run`` with one runtime input swapped for one of
    RUNTIME_INPUTS."""
    sources = []
    for name in ("sigmoid", "max", "vadd"):
        with open(os.path.join(DEMO_DIR, f"{name}.fir"), encoding="utf-8") as f:
            sources.append((name, f.read()))
    rng = random.Random(11)
    sources += [("f", print_fir(random_fir_function(rng))) for _ in range(3)]
    monkeypatch.setenv(cli.STEP_LIMIT_ENV, "200")
    path = tmp_path / "mutant.fir"
    inputs_rng = random.Random(13)
    for entry, text in token_mutants(sources, 500, rng):
        path.write_text(text)
        types, run_args = FUZZ_RUN_ARGS[entry]
        swapped = list(run_args)
        swapped[inputs_rng.randrange(run_args.index("--") + 1, len(run_args))] = (
            inputs_rng.choice(RUNTIME_INPUTS))
        run = ["run", str(path), "--entry", entry, "--types", types]
        for argv in (["gen", str(path), "--entry", entry, "--types", types],
                     run + run_args, run + swapped):
            code = cli.main(argv)
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (argv, text)
            assert "error: internal:" not in err, (err, text)
