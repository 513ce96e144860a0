"""Shared fixtures: golden sources, pipeline helpers, and test oracles."""

from __future__ import annotations

import copy
import itertools
import math

import numpy as np
import pytest

from bridgegen import codegen, fir, interp, ir

# ---------------------------------------------------------------------------
# Golden frontend sources and expected output lines

SIGMOID_FIR = """\
fn sigmoid(_1: f32)
1:
  %1 = invoke -(_1) :: f32
  %2 = invoke exp(%1) :: f32
  %3 = invoke +(%2, 1) :: f32
  %4 = invoke /(1, %3) :: f32
  return %4
"""

# 1/(1+exp(-x)) printed as a single func.func symbol
SIGMOID_GOLDEN = [
    "func.func @sigmoid(%arg0: f32) -> f32 {",
    "%cst = arith.constant 1.0 : f32",
    "%0 = arith.negf %arg0 : f32",
    "%1 = math.exp %0 : f32",
    "%2 = arith.addf %1, %cst : f32",
    "%3 = arith.divf %cst, %2 : f32",
    "return %3 : f32",
    "}",
]

MAX_FIR = """\
fn max(_1: i64, _2: i64)
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

MAX_GOLDEN = [
    "^bb0:",
    "%0 = arith.cmpi sge, %arg0, %arg1 : i64",
    "cf.cond_br %0, ^bb1, ^bb2",
    "^bb1: // pred: ^bb0",
    "cf.br ^bb3(%arg0 : i64)",
    "^bb2: // pred: ^bb0",
    "cf.br ^bb3(%arg1 : i64)",
    "^bb3(%1: i64): // 2 preds: ^bb1, ^bb2",
    "return %1 : i64",
]

VADD_FIR = """\
fn vadd(_1: memref{f32,1}, _2: memref{f32,1}, _3: memref{f32,1})
1:
  %1 = invoke block_idx_x() :: index
  %2 = invoke block_dim_x() :: index
  %3 = invoke *(%1, %2) :: index
  %4 = invoke thread_idx_x() :: index
  %5 = invoke +(%3, %4) :: index
  %6 = invoke load(_1, %5) :: f32
  %7 = invoke load(_2, %5) :: f32
  %8 = invoke +(%6, %7) :: f32
  %9 = invoke store(%8, _3, %5) :: Nothing
  return
"""

F32_MEMREF = fir.parse_frontend_type("memref{f32,1}")
VADD_TYPES = [F32_MEMREF] * 3


@pytest.fixture
def registry():
    return codegen.register_bindings(codegen.IntrinsicRegistry(),
                                     "arith", "math", "gpu", "memref")


@pytest.fixture
def compiled(monkeypatch):
    """What each attempt to compile a region for the interpreter's compiled
    tier gave: a function, or None where the region stays on closures."""
    made, build = [], interp._compile
    monkeypatch.setattr(interp, "_compile",
                        lambda region: made.append(build(region)) or made[-1])
    return made


TIERS = ("closures", "compiled")


def use_tier(monkeypatch, tier):
    """Run every function on the interpreter's closures, or compiled from
    its entry: ``HOT`` 0 and the op cap lifted."""
    if tier == "closures":
        monkeypatch.setattr(interp, "HOT", math.inf)
    else:
        monkeypatch.setattr(interp, "HOT", 0)
        monkeypatch.setattr(interp, "MAX_COMPILED_OPS", 10 ** 9)


# ---------------------------------------------------------------------------
# Helpers


def stripped_lines(text: str):
    return [line.strip() for line in text.splitlines() if line.strip()]


def find_golden(printed: str, golden):
    """True when the golden lines appear consecutively, ignoring indentation."""
    lines = stripped_lines(printed)
    want = [g.strip() for g in golden]
    for i in range(len(lines) - len(want) + 1):
        if lines[i:i + len(want)] == want:
            return True
    return False


def run_pipeline(registry, text, entry, arg_types):
    """``bridgegen gen``'s phases on FIR ``text``: ``codegen.compile_program``."""
    return codegen.compile_program(registry, fir.parse_program(text), entry, arg_types)


def normalize(fn):
    """A copy of ``fn`` with its SSA ids renumbered densely in statement
    order (blocks stay fixed), for structural comparison."""
    out = copy.deepcopy(fn)
    mapping = {}
    for _, st in out.statements():
        if isinstance(st, (fir.Invoke, fir.Phi)):
            mapping[st.id] = len(mapping) + 1
    fir._substitute(out, {old: fir.SsaRef(new) for old, new in mapping.items()})
    for _, st in out.statements():
        if isinstance(st, (fir.Invoke, fir.Phi)):
            st.id = mapping[st.id]
    return out


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


def new_func(module, name="f", inputs=(), results=()):
    """Append an empty func.func @name to ``module``; returns its region and
    entry block, the new insertion point."""
    region = module.new_region()
    module.set_insertion(module.body.blocks[0])
    ir.create_op(module, "func.func", [], [], attributes={
        "sym_name": ir.SymbolAttr(name),
        "function_type": ir.TypeAttr(ir.FunctionType(tuple(inputs), tuple(results)))},
        regions=[region])
    entry = module.append_block(region, list(inputs))
    module.set_insertion(entry)
    return region, entry


def func_region(module, symbol):
    return module.lookup_symbol(symbol).regions[0]


# ---------------------------------------------------------------------------
# Random well-formed frontend functions (two i64 parameters)


def random_fir_function(rng, max_blocks=8, name="f"):
    n = rng.randint(2, max_blocks)
    next_id = [1]

    def fresh():
        next_id[0] += 1
        return next_id[0] - 1

    blocks = []
    for b in range(1, n + 1):
        stmts = []
        for _ in range(rng.randint(0, 2)):
            op = rng.choice(["+", "*", "-"])
            args = [rng.choice([fir.ParamRef(1), fir.ParamRef(2),
                                fir.IntLit(rng.randint(0, 9))])
                    for _ in range(2)]
            stmts.append(fir.Invoke(fresh(), op, args, fir.I64))
        choices = ["return", "goto"]
        if b < n:
            choices += ["fall", "ifnot"]
        kind = rng.choice(choices)
        if kind == "return":
            stmts.append(fir.Return(rng.choice([fir.ParamRef(1),
                                                fir.ParamRef(2)])))
        elif kind == "goto":
            stmts.append(fir.Goto(rng.randint(2, n)))
        elif kind == "ifnot":
            cmp = fir.Invoke(fresh(), rng.choice([">=", "<", "=="]),
                             [fir.ParamRef(1), fir.ParamRef(2)], fir.I1)
            stmts.append(cmp)
            stmts.append(fir.GotoIfNot(fir.SsaRef(cmp.id), rng.randint(2, n)))
        # "fall": implicit fallthrough
        blocks.append(stmts)

    fn = fir.FirFunction(name, [fir.I64, fir.I64], blocks)

    # Phis: one incoming per direct predecessor, params or literals.
    preds = fir.predecessors(fn)
    for b in range(2, n + 1):
        if preds[b] and rng.random() < 0.6:
            for _ in range(rng.randint(1, 2)):
                incomings = [
                    (p, rng.choice([fir.ParamRef(1), fir.ParamRef(2),
                                    fir.IntLit(rng.randint(0, 9))]))
                    for p in preds[b]
                ]
                fn.blocks[b - 1].insert(0, fir.Phi(fresh(), incomings, fir.I64))
    return fn


def reachable_fir_edges(fn):
    reachable = fir.reachable_blocks(fn)
    return {(a, b) for a, b in fir.block_edges(fn) if a in reachable}


def generated_cfg(module, fn, symbol):
    """Block-number mapping and edge set of the generated function."""
    region = func_region(module, symbol)
    numbers = sorted(fir.reachable_blocks(fn))
    assert len(region.blocks) == len(numbers)
    back = {id(block): number for block, number in zip(region.blocks, numbers)}
    edges = set()
    for block in region.blocks:
        for op in block.operations:
            for s in op.successors:
                edges.add((back[id(block)], back[id(s.block)]))
    return back, edges


# ---------------------------------------------------------------------------
# Oracles


def oracle_resolve(signatures, arg_types):
    """Brute-force dispatch: applicable set, then unique minimal element.

    Returns ("ok", sig) | ("nomethod", None) | ("ambiguous", None).
    """
    arg_types = tuple(arg_types)

    def le(a, b):
        return all(fir.subtype(x, y) for x, y in zip(a.param_types, b.param_types))

    applicable = [
        s for s in signatures
        if len(s.param_types) == len(arg_types)
        and all(fir.subtype(a, p) for a, p in zip(arg_types, s.param_types))
    ]
    if not applicable:
        return ("nomethod", None)
    minimal = [s for s in applicable
               if not any(o != s and le(o, s) for o in applicable)]
    if len(minimal) == 1:
        return ("ok", minimal[0])
    return ("ambiguous", None)


def einsum_bruteforce(spec, inputs, out_init):
    """Nested-loop einsum: out[...] += prod(inputs[...]) over all points."""
    out = np.array(out_init, dtype=np.float64, copy=True)
    extents = {}
    arrays = list(inputs) + [out]
    tuples = list(spec.inputs) + [spec.output]
    for arr, tup in zip(arrays, tuples):
        assert arr.ndim == len(tup)
        for extent, name in zip(arr.shape, tup):
            assert extents.setdefault(name, extent) == extent
    for point in itertools.product(*(range(extents[a]) for a in spec.axes)):
        env = dict(zip(spec.axes, point))
        prod = 1.0
        for arr, tup in zip(inputs, spec.inputs):
            prod *= float(arr[tuple(env[n] for n in tup)])
        out[tuple(env[n] for n in spec.output)] += prod
    return out


def tensor_value(arr):
    arr = np.asarray(arr, dtype=np.float32)
    return interp.TensorValue(ir.F32, arr.shape, arr)
