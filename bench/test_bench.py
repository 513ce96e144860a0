"""Tests of the benchmark itself. Run from the repository root with
``python3 -m pytest bench``."""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from collections import Counter
from time import perf_counter

import numpy as np
import pytest

import programs as gen
import reference as ref
import run as bench
import tracing

bench.load_bridgegen()

from bridgegen import interp  # noqa: E402

ROOT = bench.ROOT


def _feed(h, value):
    """Hash ``value`` whole: numpy's repr elides the middle of long arrays."""
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype}{value.shape}".encode())
        h.update(value.tobytes())
    elif isinstance(value, (list, tuple)):
        h.update(b"(")
        for v in value:
            _feed(h, v)
        h.update(b")")
    else:
        h.update(repr(value).encode())


def digest(workload, seed):
    progs = bench.make_programs(workload, seed)
    h = hashlib.sha256()
    for p in progs:
        h.update(p.text.encode())
        _feed(h, p.inputs)
    if workload == "interp_kernels":
        _feed(h, bench.make_einsums(seed))
    return h.hexdigest()


def new_run(trace=0):
    return bench.Run(trace)


# ---------------------------------------------------------------------------
# Seeded generation


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_same_seed_gives_identical_programs(workload):
    assert digest(workload, 7) == digest(workload, 7)
    code = (f"import sys; sys.path.insert(0, {str(bench.BENCH)!r}); "
            f"import test_bench; print(test_bench.digest({workload!r}, 7))")
    env = dict(os.environ, PYTHONHASHSEED="12345")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, cwd=ROOT, check=True)
    assert done.stdout.strip() == digest(workload, 7)


def test_other_seed_gives_other_programs():
    assert digest("compile_many", 1) != digest("compile_many", 2)


def test_compile_many_programs_have_the_stated_shape():
    progs = [p for p in bench.make_programs("compile_many", 1) if p.family != "demo"]
    assert len(progs) == bench.MANY_PROGRAMS
    assert all(5 <= gen.statement_count(p.text) <= 60 for p in progs)
    for p in progs:
        functions = ref.parse(p.text)
        assert 1 <= len(functions["main"].blocks) <= 8
        assert len(functions) <= 4
    text = "".join(p.text for p in progs)
    for literal in ("-0.0", "0.0", "1e400", "-1e400"):
        assert f" {literal})" in text or f"({literal}," in text


# ---------------------------------------------------------------------------
# Reference known answers


def demo(name):
    return ref.parse((ROOT / "demos" / f"{name}.fir").read_text())


@pytest.mark.parametrize("x", [2.0, -0.0, 0.5, -100.0, 100.0, math.inf, math.nan])
def test_reference_sigmoid_matches_float32_formula(x):
    x32 = np.float32(x)
    with np.errstate(all="ignore"):
        want = float(np.float32(1) / (np.exp(-x32) + np.float32(1)))
    assert ref.same(ref.run(demo("sigmoid"), "sigmoid", [float(x32)]), want)


@pytest.mark.parametrize("a,b", [(3, 7), (7, 3), (-5, -5), (2 ** 62, -(2 ** 62))])
def test_reference_max(a, b):
    assert ref.run(demo("max"), "max", [a, b]) == max(a, b)


def test_reference_vadd():
    a = np.arange(1, 9, dtype=np.float32)
    b = np.arange(10, 81, 10, dtype=np.float32)
    out = ref.kernel_reference("vadd", 2, 4, [a, b, np.zeros(8, np.float32)])
    assert out[2].tolist() == [11.0, 22.0, 33.0, 44.0, 55.0, 66.0, 77.0, 88.0]


@pytest.mark.parametrize("n", [0, 1, 10, 5000])
def test_reference_sum_to_closed_form(n):
    fns = ref.parse(gen.sumto().text())
    visits = Counter()
    assert ref.run(fns, "sumto", [n], visits) == n * (n + 1) // 2
    assert visits[("sumto", 3)] == n


def test_reference_float_semantics():
    assert ref.same(ref.convert_literal("-0.0", "f32"), -0.0)
    assert not ref.same(0.0, -0.0)
    assert ref.same(math.nan, -math.nan)
    assert ref.convert_literal("1e39", "f32") == math.inf
    assert ref.convert_literal("1e39", "f64") == 1e39
    assert ref.convert_literal("0.1", "f32") == float(np.float32(0.1))
    fns = ref.parse("fn f(_1: f32)\n1:\n  %1 = invoke /(_1, -0.0) :: f32\n  return %1\n")
    assert ref.run(fns, "f", [1.0]) == -math.inf


def test_einsum_reference_matches_scalar_loop():
    rng = np.random.default_rng(0)
    for spec, shapes in [("(i,k),(k,j)->(i,j)", [(3, 4), (4, 2), (3, 2)]),
                         ("(i,j)->(i)", [(3, 5), (3,)]),
                         ("(b,i,k),(b,k,j)->(b,i,j)", [(2, 2, 3), (2, 3, 2), (2, 2, 2)])]:
        arrays = [rng.uniform(-2, 2, s).astype(np.float32) for s in shapes]
        inputs, output, axes = ref.einsum_axes(spec)
        extents = {}
        for a, tup in zip(arrays, inputs + [output]):
            extents.update(zip(tup, a.shape))
        want = arrays[-1].copy()
        for point in np.ndindex(*(extents[a] for a in axes)):
            at = dict(zip(axes, point))
            acc = arrays[0][tuple(at[i] for i in inputs[0])]
            for arr, tup in zip(arrays[1:-1], inputs[1:]):
                acc = np.float32(acc * arr[tuple(at[i] for i in tup)])
            o = tuple(at[i] for i in output)
            want[o] = np.float32(acc + want[o])
        assert ref.same(ref.einsum_reference(spec, arrays[:-1], arrays[-1]), want)


def test_collide_reference_is_last_writer_in_launch_order():
    buf = np.zeros(4, np.float32)
    src = np.arange(12, dtype=np.float32)
    want = buf.copy()
    for blk in range(3):
        for t in range(4):
            want[t] = np.float32(want[t] * np.float32(2.0)) + src[blk * 4 + t]
    assert ref.same(ref.kernel_reference("collide", 3, 4, [buf, src])[0], want)


# ---------------------------------------------------------------------------
# Failure accounting


def sumto_program(n):
    return gen.Program("sumto", gen.sumto().text(), "sumto", ("i64",), [(n,)],
                       loop_iters=[n])


def test_planted_wrong_output_is_counted_as_failed():
    run = new_run()
    modules, _ = bench.interp_setup(run, [sumto_program(10)], [])
    calls = bench.interp_calls(run, [sumto_program(10)], [], modules)
    bench.interp_workload(run, calls, 0)
    assert (run.attempted, run.failed) == (1, 0)
    *head, want, ops = calls[0]
    assert want == 55
    planted = [(*head, 56, ops)]
    bench.interp_workload(run, planted, 0)
    assert (run.attempted, run.failed) == (2, 1)
    assert run.failures == {"sumto: output differs from reference": 1}


def test_each_call_counts_once_over_many_passes():
    """Counts depend on the seed only, not on how many passes fit."""
    run = new_run()
    modules, _ = bench.interp_setup(run, [sumto_program(10)], [])
    *head, want, ops = bench.interp_calls(run, [sumto_program(10)], [], modules)[0]
    walls = bench.interp_workload(run, [(*head, 56, ops)], 0.05)["walls"]
    assert len(walls[False]) > 1
    assert (run.attempted, run.failed) == (1, 1)


def test_dynamic_ops_equal_interpreter_steps():
    """The block-visit op count is exact: the interpreter's step budget
    is met at that count and exceeded one below it."""
    run = new_run()
    progs = bench.make_programs("compile_many", 5)[:60] + [sumto_program(25)]
    for p in progs:
        if p.launch:
            continue
        _, _, module, _ = run.pipeline.compile_fir(run.registry, p.text, p.entry,
                                                   p.types)
        fns = ref.parse(p.text)
        for args in p.inputs:
            visits = Counter()
            ref.run(fns, p.entry, args, visits)
            ops = ref.dynamic_ops(fns, visits, 1,
                                  bench.entry_constants(module, p.entry))
            vals = run.values(p.types, args)
            interp.run_function(module, p.entry, vals, step_limit=ops)
            with pytest.raises(interp.StepLimitExceeded):
                interp.run_function(module, p.entry, vals, step_limit=ops - 1)


# ---------------------------------------------------------------------------
# Tracing


def test_self_times_sum_to_traced_wall_time():
    run = new_run(trace=1)
    p = bench.make_programs("compile_many", 1)[0]
    tracer = tracing.Tracer()
    start = perf_counter()
    tracer.call("bench.compile", run.pipeline.compile_fir, run.registry, p.text,
                p.entry, p.types, tracer.call)
    wall = perf_counter() - start
    names = [s[0] for s in tracer.spans]
    assert names == ["bench.compile"] + list(bench.PHASES)
    assert all(s[3] == (0 if i else -1) for i, s in enumerate(tracer.spans))
    total = sum(tracer.self_times())
    assert 0 <= wall - total < 2e-4 + 0.01 * wall


def test_failures_are_counted_in_the_innermost_span():
    tracer = tracing.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.call("bench.compile", tracer.call, "fir.parse_program", boom)
    assert tracer.failures() == {"fir.parse_program": 1}


def test_scaling_exponent_fit():
    assert tracing.scaling_exponent([1, 2, 4], [3, 12, 48]) == pytest.approx(2)
    assert tracing.scaling_exponent([100, 200, 400], [1, 2, 4]) == pytest.approx(1)


# ---------------------------------------------------------------------------
# Exact counters


COUNT_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run as bench
bench.load_bridgegen()
run = bench.Run(0)
out = {}
for workload in ("compile_many", "compile_large"):
    progs = bench.make_programs(workload, 3)
    progs = progs[:150] + progs[-3:] if workload == "compile_many" else progs[:2]
    total = bench.Counter()
    for p in progs:
        program, inlined, module, printed = run.pipeline.compile_fir(
            run.registry, p.text, p.entry, p.types)
        total.update(bench.fir_counts(program, inlined))
        total.update(bench.module_counts(module, printed))
    out[workload] = bench.finish_counts(total)
print(json.dumps(out))
"""


def test_counters_repeat_exactly_across_processes():
    results = []
    for hashseed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", COUNT_SCRIPT, str(bench.BENCH)],
            capture_output=True, text=True, cwd=ROOT, check=True,
            env=dict(os.environ, PYTHONHASHSEED=hashseed))
        results.append(json.loads(done.stdout))
    assert results[0] == results[1]
    assert set(results[0]["compile_many"]) == set(bench.COUNTERS)
    assert results[0]["compile_many"]["fir.stmts_in"] > 0


def test_statement_count_is_what_the_parser_reads():
    """compile_stmts_per_s counts statements from the text; the parser must
    see the same number."""
    run = new_run()
    for p in bench.make_programs("compile_many", 4)[:100]:
        program, inlined, _, _ = run.pipeline.compile_fir(run.registry, p.text,
                                                          p.entry, p.types)
        assert bench.fir_counts(program, inlined)["fir.stmts_in"] == \
            gen.statement_count(p.text)


# ---------------------------------------------------------------------------
# The command itself


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(bench.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "compile_many", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180)
    assert done.returncode != 0
    assert "correct" not in done.stdout
