#!/usr/bin/env python3
"""bridgegen benchmark: four seeded workloads driven through public calls.

Usage (from the repository root)::

    python3 bench/run.py --workload compile_many --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --seed 1        # all four workloads, one process each

Workloads (closed loop: one caller, one process, no threads):

* ``compile_many``: 2000 small random programs plus the three demos,
  compiled parse->print, and the ``gen``/``run`` CLI on the demos.
* ``compile_large``: the ``chain``, ``diamond`` and ``fanout`` families at
  three sizes each.
* ``interp_loops``: loop programs under ``interp.run_function``.
* ``interp_kernels``: einsum ``linalg.generic`` modules under
  ``interp.run_function`` and GPU kernels under ``interp.run_kernel``.

Every output is checked against ``reference.py``, which shares no code
with bridgegen. A program or run fails when it raises, when validation or
verification rejects it, or when its output differs from the reference;
``failed`` counts those, and ``fail_ratio`` is failed / attempted, so a
compiler defect shows as failures. Each program, CLI command and timed
call counts once however many passes the run makes, so that one seed
gives the same ``attempted`` and ``failed`` on every run. ``correct`` is false only when an
output could not be checked: the reference could not evaluate it, or the
reference missed a known answer.

Timed calls repeat pass after pass until they add up to ``--seconds``
(at least one full pass); checks, set-up probes and counting are not
timed. ``--trace 0`` reports the end-to-end metrics. ``--trace 1``
makes every call untraced and traced in turn and reports per-layer
metrics from spans recorded around every layer call; a layer's time is its self time
in one pass plus its self time in the run's set-up and checks. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Spans and a report are written
to ``.bench_out/``.

End-to-end metrics:

* ``setup_s``: set-up time on a machine running at nominal speed. Each
  of 11 samples, spread over the run after one untimed warm-up, times a
  set-up in a fresh process and then a fixed reference set-up in another
  (see ``setup_probe.py``); ``setup_s`` is ``REFERENCE_NOMINAL_S`` times
  the median of the 11 ratios. Both are mostly process start and
  imports, so the machine's drift over minutes moves both alike and
  cancels in the ratio; raw set-up times moved by up to 45% between
  runs minutes apart. The table row's note gives the raw median.
* ``work_per_s``: FIR statements compiled per second (compile workloads),
  loop iterations per second (interp_loops), or ``linalg.generic`` points
  plus simulated threads per second (interp_kernels), on a machine running
  at the nominal speed of ``calibration.py``: each timed call is scaled by
  the calibration time measured around it, and the work of one pass is
  divided by the sum of each call's median scaled time over passes. The
  table rows above the JSON are as measured, and ``speed`` is the
  machine's speed against nominal during the run.
* ``peak_rss_mb``: peak resident set of the process running the workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import programs as gen
import reference as ref
from calibration import NOMINAL_S, calibrate
from tracing import Tracer, direct, scaling_exponent

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("compile_many", "compile_large", "interp_loops", "interp_kernels")
PHASES = ("fir.parse_program", "fir.validate_fir", "fir.inline_calls",
          "fir.insert_bool_conversions", "codegen.generate", "ir.verify_module",
          "ir.print_module")
FAMILIES = ("chain", "diamond", "fanout")
MODULES = ("fir", "codegen", "ir", "einsum", "interp", "intrinsics", "gpu", "cli")
COUNTERS = ("fir.stmts_in", "fir.stmts_inlined", "codegen.ops_out",
            "codegen.constants", "codegen.const_dedup_ratio", "codegen.block_args",
            "ir.print_bytes")

MANY_PROGRAMS = 2000
# Half the sizes first sketched for this family, so that a pass takes a
# few seconds while the quadratic phases still dominate.
LARGE_SIZES = {"chain": (500, 1000, 2000), "diamond": (83, 167, 333),
               "fanout": (50, 100, 200)}
SETUP_REPEATS = 11
REFERENCE_NOMINAL_S = 0.1  # reference set-up seconds at nominal speed
CALIBRATE_EVERY_S = 0.1   # timed seconds between two calibrations
CLI_ROUNDS = 2
IMPORT_REPEATS = 3
DEMOS = {  # name -> (types, runtime inputs for the differential check)
    "sigmoid": (("f32",), [(2.0,), (-0.0,), (math.nan,), (-100.0,)]),
    "max": (("i64", "i64"), [(3, 7), (7, 3), (-5, -5)]),
    "vadd": (("memref{f32,1}",) * 3, []),
}
DEMO_LAUNCH = (2, 4)
CLI_RUN_ARGS = {
    "sigmoid": ["--", "2.0"],
    "max": ["--", "3", "7"],
    "vadd": ["--launch", "2,1,1,4,1,1", "--", "[1..8]:f32", "[10..80..10]:f32",
             "[0x8]:f32"],
}


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_bridgegen():
    """Import bridgegen from this checkout's ``src`` and nowhere else."""
    if not (SRC / "bridgegen" / "__init__.py").is_file():
        fail(f"no bridgegen sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bridgegen

    if Path(bridgegen.__file__).resolve().parent != SRC / "bridgegen":
        fail(f"imported bridgegen from {bridgegen.__file__}, not {SRC}")


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q / 100 * len(ordered)) - 1))]


def robust_rate(units, times):
    """Work per second, taking each call's median time over the passes,
    so that a burst of load on the machine during one pass is left out."""
    return sum(units) / sum(median(t) for t in times)


# ---------------------------------------------------------------------------
# Counting (never timed)


def walk_ops(module):
    def walk(region):
        for block in region.blocks:
            for op in block.operations:
                yield op
                for r in op.regions:
                    yield from walk(r)

    for op in module.symbol_ops():
        yield op
        for r in op.regions:
            yield from walk(r)


def block_args(module):
    """Block arguments outside entry blocks: the phis turned into them."""
    def walk(region):
        n = sum(len(b.arguments) for b in region.blocks[1:])
        for block in region.blocks:
            for op in block.operations:
                n += sum(walk(r) for r in op.regions)
        return n

    return sum(walk(r) for op in module.symbol_ops() for r in op.regions)


def fir_counts(program, inlined):
    from bridgegen import fir

    literal = (fir.IntLit, fir.FloatLit, fir.BoolLit)
    literals = 0
    for _, st in inlined.statements():
        if isinstance(st, fir.Invoke):
            args = st.args
        elif isinstance(st, fir.Phi):
            args = [a for _, a in st.incomings]
        elif isinstance(st, fir.GotoIfNot):
            args = [st.cond]
        elif isinstance(st, fir.Return):
            args = [st.value]
        else:
            args = []
        literals += sum(isinstance(a, literal) for a in args)
    return {
        "fir.stmts_in": sum(len(list(f.statements()))
                            for f in program.functions.values()),
        "fir.stmts_inlined": len(list(inlined.statements())),
        "literals": literals,
    }


def module_counts(module, printed):
    ops = list(walk_ops(module))
    return {
        "codegen.ops_out": len(ops),
        "codegen.constants": sum(op.name == "arith.constant" for op in ops),
        "codegen.block_args": block_args(module),
        "ir.print_bytes": len(printed.encode()),
    }


def finish_counts(total):
    out = {k: total.get(k, 0) for k in COUNTERS}
    out["codegen.const_dedup_ratio"] = (
        total["codegen.constants"] / total["literals"] if total.get("literals") else 0.0)
    return out


def entry_constants(module, symbol):
    entry = module.lookup_symbol(symbol).regions[0].blocks[0]
    return sum(op.name == "arith.constant" for op in entry.operations)


def region_ops(region):
    return sum(len(b.operations) for b in region.blocks)


# ---------------------------------------------------------------------------
# Workload inputs


def make_programs(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "compile_many":
        progs = gen.many_programs(rng, MANY_PROGRAMS)
        for name, (types, inputs) in DEMOS.items():
            path = ROOT / "demos" / f"{name}.fir"
            if not path.is_file():
                fail(f"missing demo {path}")
            p = gen.Program(name, path.read_text(encoding="utf-8"), name, types,
                            list(inputs), family="demo")
            if name == "vadd":
                n = DEMO_LAUNCH[0] * DEMO_LAUNCH[1]
                p.inputs = [tuple(gen.f32_array(rng, n) for _ in range(3))]
                p.launch = DEMO_LAUNCH
            progs.append(p)
        return progs
    if workload == "compile_large":
        makers = {"chain": gen.chain_program, "diamond": gen.diamond_program,
                  "fanout": gen.fanout_program}
        return [makers[f](rng, n) for f in FAMILIES for n in LARGE_SIZES[f]]
    if workload == "interp_loops":
        return gen.loop_programs(rng)
    kernels = []
    for name, (grid, block) in gen.KERNELS.items():
        n = grid * block
        if name == "vadd":
            args = tuple(gen.f32_array(rng, n) for _ in range(3))
        elif name == "saxpy":
            args = (gen.round_f32(rng.uniform(-2, 2)), gen.f32_array(rng, n),
                    gen.f32_array(rng, n))
        else:
            args = (gen.f32_array(rng, block), gen.f32_array(rng, n))
        kernels.append(gen.Program(name, gen.kernel_text(name), name,
                                   gen.KERNEL_TYPES[name], [args], family="kernel",
                                   launch=(grid, block)))
    return kernels


def make_einsums(seed):
    """(name, spec, operand arrays with the output last) for each einsum."""
    rng = random.Random(f"interp_kernels:einsum:{seed}")
    out = []
    for name, (spec, extents) in gen.EINSUMS.items():
        inputs, output, _ = ref.einsum_axes(spec)
        arrays = []
        for tup in inputs + [output]:
            shape = tuple(extents[i] for i in tup)
            arrays.append(gen.f32_array(rng, math.prod(shape)).reshape(shape))
        out.append((name, spec, arrays))
    return out


# ---------------------------------------------------------------------------
# Fresh processes: set-up, CLI, import


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


REFERENCE_PAYLOAD = json.dumps({"reference": True})


def setup_once(payload):
    """Seconds of one set-up in a fresh process, or of the reference
    set-up when ``payload`` is ``REFERENCE_PAYLOAD``."""
    done = subprocess.run([sys.executable, str(BENCH / "setup_probe.py")],
                          input=payload, capture_output=True, text=True,
                          cwd=ROOT, env=child_env(), timeout=120)
    if done.returncode != 0:
        fail(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def measure_cli(run, demos):
    """Fresh ``gen`` and ``run`` processes on the demos; returns their wall
    times. Each output is checked: ``gen`` must print what the in-process
    pipeline prints, ``run`` what the reference computes."""
    a = np.arange(1, 9, dtype=np.float32)
    b = np.arange(10, 81, 10, dtype=np.float32)
    vadd = ref.kernel_reference("vadd", 2, 4, [a, b, np.zeros(8, np.float32)])[2]
    expected_run = {
        "sigmoid": str(np.float32(ref.run(ref.parse(demos["sigmoid"].text),
                                          "sigmoid", [2.0]))),
        "max": str(ref.run(ref.parse(demos["max"].text), "max", [3, 7])),
        "vadd": "[" + ", ".join(str(v) for v in vadd) + "]",
    }
    times = {"gen": [], "run": []}
    for _ in range(CLI_ROUNDS):
        for name, p in demos.items():
            for cmd in ("gen", "run"):
                argv = [sys.executable, "-m", "bridgegen", cmd,
                        str(ROOT / "demos" / f"{name}.fir"), "--entry", name,
                        "--types", ",".join(p.types)]
                if cmd == "run":
                    argv += CLI_RUN_ARGS[name]
                start = perf_counter()
                done = subprocess.run(argv, capture_output=True, text=True,
                                      cwd=ROOT, env=child_env(), timeout=120)
                times[cmd].append(perf_counter() - start)
                if cmd == "gen":
                    ok = done.stdout == p.printed
                else:
                    ok = done.stdout.strip().splitlines()[-1:] == [expected_run[name]]
                run.attempted += 1
                if done.returncode != 0 or not ok:
                    run.failed += 1
                    run.failures[f"cli {cmd} {name}: wrong output"] += 1
    return times


def measure_import():
    """Median time of ``import bridgegen.cli`` in a fresh process."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import bridgegen.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", code, str(SRC)],
                              capture_output=True, text=True, cwd=ROOT,
                              timeout=120)
        if done.returncode != 0:
            fail(f"import probe failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.strip()))
    return median(samples)


# ---------------------------------------------------------------------------
# One workload run


class Run:
    """State of one workload run: tracers, failures, set-up probes."""

    def __init__(self, trace, setup_payload=None):
        import pipeline
        from bridgegen import interp
        from bridgegen.codegen import map_type
        from bridgegen.fir import parse_frontend_type

        self.pipeline, self.interp = pipeline, interp
        self.traced = bool(trace)
        # set-up and checks happen once per run; passes repeat
        self.once = Tracer() if self.traced else None
        self.passes = Tracer() if self.traced else None
        self.once_call = self.once.call if self.traced else direct
        self.attempted = 0
        self.failed = 0
        self.failures = Counter()      # reason -> count
        self.unchecked = []            # outputs the reference could not check
        self.defects = []
        self.rows = []                 # (name, value, unit, note)
        self.setup_payload = setup_payload
        self.setup_samples = []
        if setup_payload is not None:
            self.probe_pair()   # warm-up: file caches, .pyc files
        self.cal = []                  # calibration seconds, in run order
        self.registry = pipeline.build_registry(self.once_call)
        self.ir_type = lambda t: map_type(self.registry, parse_frontend_type(t))[0]

    def row(self, name, value, unit, note=""):
        self.rows.append((name, value, unit, note))

    def count(self, label, reason):
        """One attempted program or call, failed for ``reason`` if given."""
        self.attempted += 1
        if reason:
            self.failed += 1
            self.failures[f"{label}: {reason}"] += 1

    def values(self, types, args):
        """Runtime values; buffers are copied, since kernels write them."""
        return [self.interp.value_of_type(
            self.ir_type(t), a.copy() if isinstance(a, np.ndarray) else a)
            for t, a in zip(types, args)]

    def probe_setup(self, timed, seconds):
        """Run the set-up probes evenly over the timed seconds."""
        while (self.setup_payload is not None
               and len(self.setup_samples) < SETUP_REPEATS
               and timed >= len(self.setup_samples) * seconds / SETUP_REPEATS):
            self.setup_samples.append(self.probe_pair())

    def probe_pair(self):
        """(set-up seconds, reference set-up seconds), back to back."""
        return setup_once(self.setup_payload), setup_once(REFERENCE_PAYLOAD)

    def speed(self, i):
        """NOMINAL_S over the calibration time around calibration ``i``."""
        return NOMINAL_S / median(self.cal[max(0, i - 2):i + 3])

    def normalized(self, samples):
        """Timed seconds (dt, next calibration index) scaled to the nominal
        machine speed."""
        return [[dt * self.speed(i) for dt, i in ts] for ts in samples]

    def timed_passes(self, n, seconds, step):
        """Call ``step(k, call)`` for k = 0..n-1, pass after pass; ``step``
        returns the seconds it timed. Untraced runs stop once at least one
        pass is done and the timed seconds reach ``seconds``. Traced runs
        make each call twice in a row, untraced and traced, in alternating
        order so that neither gains from a warm cache, and stop at the end
        of a pass. Returns the timed seconds per pass, untraced and traced."""
        walls = {False: [], True: []}
        timed = since_cal = 0.0
        self.cal.append(calibrate())
        while True:
            wall = {False: 0.0, True: 0.0}
            for k in range(n):
                order = (False, True) if (k + len(walls[False])) % 2 else (True, False)
                for traced in (order if self.traced else (False,)):
                    if traced:
                        self.passes.trace_id = k
                    dt = step(k, self.passes.call if traced else direct)
                    wall[traced] += dt
                    timed += dt
                    since_cal += dt
                    if since_cal >= CALIBRATE_EVERY_S:
                        self.cal.append(calibrate())
                        since_cal = 0.0
                    self.probe_setup(timed, seconds)
                if not self.traced and walls[False] and timed >= seconds:
                    break
            walls[False].append(wall[False])
            if self.traced:
                walls[True].append(wall[True])
            if timed >= seconds:
                self.cal.append(calibrate())
                self.probe_setup(math.inf, seconds)
                return walls


def timed_call(call, name, fn, *args):
    """(result or None, failure reason or None, seconds)."""
    start = perf_counter()
    try:
        out = call(name, fn, *args)
    except Exception as e:  # the failure is counted, the run goes on
        return None, f"{type(e).__name__}: {str(e)[:120]}", perf_counter() - start
    return out, None, perf_counter() - start


def same_output(kind, want, got):
    if kind == "kernel":
        return all(ref.same(w, g.data) for w, g in zip(want, got)
                   if isinstance(w, np.ndarray))
    if kind == "generic":
        return ref.same(want, got[0].data)
    return ref.same(want, got[0].value)


def check_program(run, p, module):
    """Run the compiled ``p`` on its inputs under the interpreter and
    compare with the reference. Returns (failure reason or None, dynamic
    IR operations executed)."""
    interp = run.interp
    if p.launch:
        grid, block = p.launch
        launch = interp.LaunchConfig((grid, 1, 1), (block, 1, 1))
        for args in p.inputs:
            want = ref.kernel_reference(p.name, grid, block, args)
            got = run.once_call("interp.run_kernel", interp.run_kernel, module,
                                p.entry, launch, run.values(p.types, args))
            if not same_output("kernel", want, got):
                return "output differs from reference", 0
        return None, 0
    functions = ref.parse(p.text)
    n_const = entry_constants(module, p.entry)
    ops = 0
    for args in p.inputs:
        visits = Counter()
        try:
            want = ref.run(functions, p.entry, args, visits)
        except ref.RefError as e:
            run.unchecked.append(f"{p.name}: {e}")
            return f"reference failed: {e}", ops
        ops += ref.dynamic_ops(functions, visits, 1, n_const)
        got = run.once_call("interp.run_function", interp.run_function, module,
                            p.entry, run.values(p.types, args))
        if not same_output("loop", want, got):
            return "output differs from reference", ops
    return None, ops


# ---------------------------------------------------------------------------
# Compile workloads


def compile_workload(run, progs, seconds):
    """Time parse->print of every program; check each program's output on
    its first compile and compare its counters on every later one. A
    program fails if its check fails or any of its compiles raises."""
    samples = [[] for _ in progs]     # untraced seconds of each compile
    status = {}                       # k -> first failure reason or None
    counts = {}                       # k -> counters of the first compile
    ops = [0]

    def step(k, call):
        p = progs[k]
        out, reason, dt = timed_call(call, "bench.compile", run.pipeline.compile_fir,
                                     run.registry, p.text, p.entry, p.types, call)
        if call is direct:
            samples[k].append((dt, len(run.cal)))
        if out is not None:
            c = fir_counts(out[0], out[1])
            c.update(module_counts(out[2], out[3]))
            if k not in counts:
                counts[k] = c
                reason, n_ops = check_program(run, p, out[2])
                ops[0] += n_ops
            elif c != counts[k]:
                run.defects.append(f"determinism defect: {p.name} counters "
                                   f"changed between compiles: {counts[k]} vs {c}")
        if status.get(k) is None:
            status[k] = reason
        return dt

    walls = run.timed_passes(len(progs), seconds, step)
    for k, p in enumerate(progs):
        run.count(p.family or "compile", status[k])
    total = Counter()
    for c in counts.values():
        total.update(c)
    stmts = [gen.statement_count(p.text) for p in progs]
    raw = [[dt for dt, _ in ts] for ts in samples]
    ms = [t * 1e3 for ts in raw for t in ts]
    run.work = robust_rate(stmts, run.normalized(samples))
    run.row("compile_stmts_per_s", robust_rate(stmts, raw), "stmt/s",
            f"{sum(stmts)} statements, {len(walls[False])} passes")
    run.row("compile_ms_p50", median(ms), "ms", f"n={len(ms)}")
    if len(ms) >= 1000:
        run.row("compile_ms_p99", percentile(ms, 99), "ms", f"n={len(ms)}")
    return {"walls": walls, "counts": finish_counts(total), "ops": ops[0]}


def scaling_exponents(run, progs):
    """Fitted exponent of each phase's self time against each family's
    input statement count, from the median over traced passes."""
    per_program = defaultdict(list)   # (k, phase) -> self seconds per pass
    for span, t in zip(run.passes.spans, run.passes.self_times()):
        per_program[(span[4], span[0])].append(t)
    out = {}
    for phase in PHASES:
        for fam in FAMILIES:
            members = [k for k, p in enumerate(progs) if p.family == fam]
            xs = [gen.statement_count(progs[k].text) for k in members]
            ys = [median(per_program[(k, phase)]) for k in members]
            out[f"{phase}.exp.{fam}"] = (scaling_exponent(xs, ys), "1")
    return out


# ---------------------------------------------------------------------------
# Interpreter workloads


def interp_setup(run, progs, einsums):
    """Compile the workload's programs and einsum modules; returns the
    modules and their counters."""
    modules = {}
    counts = Counter()
    for p in progs:
        program, inlined, module, printed = run.pipeline.compile_fir(
            run.registry, p.text, p.entry, p.types, run.once_call)
        modules[p.name] = module
        counts.update(fir_counts(program, inlined))
        counts.update(module_counts(module, printed))
    for name, spec, _ in einsums:
        module, printed = run.pipeline.compile_einsum(run.registry, spec, run.once_call)
        modules[name] = module
        counts.update(module_counts(module, printed))
    return modules, finish_counts(counts)


def interp_calls(run, progs, einsums, modules):
    """The timed calls of one pass, as tuples (label, kind, work units,
    layer function, function of the runtime values, make the runtime values,
    expected output, dynamic IR operations)."""
    interp = run.interp
    calls = []
    for p in progs:
        module = modules[p.name]
        if p.launch:
            grid, block = p.launch
            launch = interp.LaunchConfig((grid, 1, 1), (block, 1, 1))
            func_ops = region_ops(module.lookup_symbol(p.entry).regions[0])
            for args in p.inputs:
                calls.append((p.name, "kernel", grid * block, interp.run_kernel,
                              lambda vals, m=module, e=p.entry, l=launch: (m, e, l, vals),
                              lambda p=p, args=args: run.values(p.types, args),
                              ref.kernel_reference(p.name, grid, block, args),
                              grid * block * func_ops))
            continue
        functions = ref.parse(p.text)
        n_const = entry_constants(module, p.entry)
        for args, iters in zip(p.inputs, p.loop_iters):
            visits = Counter()
            want = ref.run(functions, p.entry, args, visits)
            vals = run.values(p.types, args)
            calls.append((p.name, "loop", iters, interp.run_function,
                          lambda vals, m=module, e=p.entry: (m, e, vals),
                          lambda vals=vals: vals, want,
                          ref.dynamic_ops(functions, visits, 1, n_const)))
    tensor = run.ir_type("tensor{f32,1}")
    for name, spec, arrays in einsums:
        module = modules[name]
        points = ref.einsum_points(spec, [a.shape for a in arrays])
        generic = module.lookup_symbol("einsum").regions[0].blocks[0].operations[0]
        calls.append((name, "generic", points, interp.run_function,
                      lambda vals, m=module: (m, "einsum", vals),
                      lambda arrays=arrays: [interp.TensorValue(tensor.elem, a.shape, a)
                                             for a in arrays],
                      ref.einsum_reference(spec, arrays[:-1], arrays[-1]),
                      2 + points * region_ops(generic.regions[0])))
    return calls


def interp_workload(run, calls, seconds):
    """Time every call pass after pass, checking its output each time; a
    call fails if any of its runs raises or differs from the reference."""
    times = [[] for _ in calls]        # untraced seconds of each call
    status = {}                        # k -> first failure reason or None

    def step(k, call):
        label, kind, _, fn, bind, make, want, _ = calls[k]
        args = bind(make())
        name = f"interp.{fn.__name__}"
        got, reason, dt = timed_call(call, "bench.run", call, name, fn, *args)
        if call is direct:
            times[k].append((dt, len(run.cal)))
        if reason is None and not same_output(kind, want, got):
            reason = "output differs from reference"
        if status.get(k) is None:
            status[k] = reason
        return dt

    walls = run.timed_passes(len(calls), seconds, step)
    for k, c in enumerate(calls):
        run.count(c[0], status[k])
    run.work = robust_rate([c[2] for c in calls], run.normalized(times))
    times = [[dt for dt, _ in ts] for ts in times]
    names = {"loop": ("loop_iters_per_s", "iter/s"),
             "generic": ("generic_points_per_s", "point/s"),
             "kernel": ("kernel_threads_per_s", "thread/s")}
    for kind, (name, unit) in names.items():
        picked = [k for k, c in enumerate(calls) if c[1] == kind]
        if picked:
            run.row(name, robust_rate([calls[k][2] for k in picked],
                                      [times[k] for k in picked]),
                    unit, f"{len(walls[False])} passes")
    return {"walls": walls, "ops": sum(c[7] for c in calls)}


def per_unit_times(run, calls, passes):
    """Microseconds per generic point or kernel thread, per label, in the
    traced passes."""
    seconds = Counter()
    for span, t in zip(run.passes.spans, run.passes.self_times()):
        if span[0].startswith("interp."):
            seconds[calls[span[4]][0]] += t
    units = Counter()
    for label, kind, n, *_ in calls:
        if kind != "loop":
            units[label] += n
    return {label: seconds[label] / passes / n * 1e6 for label, n in units.items()}


# ---------------------------------------------------------------------------
# Per-layer metrics


def per_layer(run, res, extra):
    """Every per-layer metric; 0 where the workload makes no such calls."""
    n_traced = max(1, len(res["walls"][True]))
    totals = defaultdict(float, run.once.totals())
    for name, t in run.passes.totals().items():
        totals[name] += t / n_traced
    layer = {f"{phase}.s": (totals[phase], "s") for phase in PHASES}
    for phase in PHASES:
        for fam in FAMILIES:
            layer[f"{phase}.exp.{fam}"] = extra.get(f"{phase}.exp.{fam}", (0.0, "1"))
    for k, v in res["counts"].items():
        layer[k] = (v, {"codegen.const_dedup_ratio": "ratio",
                        "ir.print_bytes": "B"}.get(k, "count"))
    for name in ("intrinsics.default_registry", "gpu.register_gpu_intrinsics"):
        layer[f"{name}.s"] = (totals[name], "s")
    layer["cli.import.s"] = (extra["cli.import.s"], "s")
    for name in ("einsum.build_einsum_function", "interp.run_function",
                 "interp.run_kernel"):
        layer[f"{name}.s"] = (totals[name], "s")
    interp_s = totals["interp.run_function"] + totals["interp.run_kernel"]
    layer["interp.ops_per_s"] = (res["ops"] / interp_s if interp_s else 0.0, "1/s")
    per_unit = extra.get("per_unit", {})
    for spec in gen.EINSUMS:
        layer[f"interp.us_per_point.{spec}"] = (per_unit.get(spec, 0.0), "us")
    for kernel in gen.KERNELS:
        layer[f"interp.us_per_thread.{kernel}"] = (per_unit.get(kernel, 0.0), "us")
    fails = Counter()
    for tracer in (run.once, run.passes):
        for name, n in tracer.failures().items():
            fails[name.split(".")[0]] += n
    for module in MODULES:
        layer[f"{module}.fail"] = (fails[module], "count")
    walls = res["walls"]
    overhead = median([t - u for t, u in zip(walls[True], walls[False])])
    layer["trace.overhead_s"] = (overhead, "s")
    layer["trace.overhead_ratio"] = (overhead / median(walls[False]), "ratio")
    return layer


# ---------------------------------------------------------------------------
# Entry points


def run_one(args):
    np.seterr(all="ignore")
    workload = args.workload
    progs = make_programs(workload, args.seed)
    einsums = make_einsums(args.seed) if workload == "interp_kernels" else []
    interp_workload_ = workload.startswith("interp")
    payload = None
    if not args.trace:
        payload = json.dumps({
            "src": str(SRC), "interp": interp_workload_,
            "programs": ([[p.text, p.entry, list(p.types)] for p in progs]
                         if interp_workload_ else []),
            "einsums": [spec for _, spec, _ in einsums],
        })
    run = Run(args.trace, payload)
    extra = {}
    if args.trace:
        extra["cli.import.s"] = measure_import()

    # a known answer the reference must reproduce before it checks anything
    n = 1000
    if ref.run(ref.parse(gen.sumto().text()), "sumto", [n]) != n * (n + 1) // 2:
        run.unchecked.append("reference sum-to differs from n(n+1)/2")

    if workload.startswith("compile"):
        res = compile_workload(run, progs, args.seconds)
        if args.trace and workload == "compile_large":
            extra.update(scaling_exponents(run, progs))
        if not args.trace and workload == "compile_many":
            demos = {p.name: p for p in progs if p.family == "demo"}
            for p in demos.values():
                p.printed = run.pipeline.compile_fir(run.registry, p.text, p.entry,
                                                     p.types)[3]
            times = measure_cli(run, demos)
            for cmd in ("gen", "run"):
                run.row(f"cli_{cmd}_ms_p50", median(times[cmd]) * 1e3, "ms",
                        f"n={len(times[cmd])}")
    else:
        modules, counts = interp_setup(run, progs, einsums)
        calls = interp_calls(run, progs, einsums, modules)
        res = interp_workload(run, calls, args.seconds)
        res["counts"] = counts
        if args.trace:
            extra["per_unit"] = per_unit_times(run, calls, len(res["walls"][True]))

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s = REFERENCE_NOMINAL_S * median([s / r for s, r in run.setup_samples])
    if not args.trace:
        raw = median([s for s, _ in run.setup_samples])
        run.rows.insert(0, ("setup_s", setup_s, "s",
                            f"{len(run.setup_samples)} samples, raw median {raw:.4g} s"))
        run.row("speed", median([NOMINAL_S / c for c in run.cal]), "1",
                f"machine speed against nominal, {len(run.cal)} calibrations")
    run.row("fail_ratio", run.failed / max(1, run.attempted), "ratio",
            f"{run.failed}/{run.attempted}")
    run.row("peak_rss_mb", peak_rss_mb, "MiB")

    print(f"workload {workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  passes {len(res['walls'][False])}")
    for name, value, unit, note in run.rows:
        print(f"  {name:<28} {value:>14.6g} {unit:<9} {note}")
    if args.trace:
        metrics = per_layer(run, res, extra)
        for name, (value, unit) in metrics.items():
            print(f"  {name:<44} {value:>14.6g} {unit}")
        run.once.write(OUT / f"spans_{workload}_setup.json")
        run.passes.write(OUT / f"spans_{workload}_passes.json")
    else:
        metrics = {"setup_s": (setup_s, "s"),
                   "work_per_s": (run.work, "1/s"),
                   "peak_rss_mb": (peak_rss_mb, "MiB")}
    for reason, count in run.failures.most_common():
        print(f"  failed {count}x: {reason}")
    for line in run.unchecked + run.defects:
        print(f"  {line}")
    with open(OUT / f"report_{workload}_trace{args.trace}.json", "w",
              encoding="utf-8") as f:
        json.dump({"workload": workload, "seed": args.seed, "rows": run.rows,
                   "metrics": metrics, "failures": dict(run.failures),
                   "unchecked": run.unchecked, "defects": run.defects}, f, indent=1)
    print(json.dumps({
        "correct": not run.unchecked,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in its own process, then one summary row per workload."""
    summary = []
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        with open(OUT / f"report_{workload}_trace{args.trace}.json",
                  encoding="utf-8") as f:
            rows = json.load(f)["rows"]
        summary.append((workload, result, rows))
    print("\nsummary, one row per workload")
    for workload, result, rows in summary:
        cells = [f"{name}={value:.6g} {unit}" for name, value, unit, _ in rows]
        print(f"{workload:<15} correct={result['correct']}  " + "  ".join(cells))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description="bridgegen benchmark")
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_bridgegen()
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
