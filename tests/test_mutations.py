"""IR mutation gate: the verifier is the interpreter's only type rule.

Each module of a corpus (random FIR functions, the bench's einsums and
kernels) gets one seeded mutation that makes it ill-typed or ill-formed:

- ``operand-type``: an operand replaced by a constant of another type;
- ``later-operand``: an operand replaced by a value defined at or after its use;
- ``drop-arg``: a successor argument dropped;
- ``result-type``: a result given another type;
- ``foreign-branch``: a branch into a block of another region;
- ``attr-value``: a ``predicate`` or ``dimension`` set outside the values
  its spec lists;
- ``index-count``: a memref access given one index too many or too few;
- ``terminator-flag``: a block's terminator dropped and the op before it
  flagged as one.

The mutated module runs on the inputs of the original, on both interpreter
tiers, and the kernels and einsums in lanes. Every run must end as the
original's does, if no faulted op is reached, or else raise an InterpError
whose text is the verifier's first finding about some op: no other
exception, and no interpreter message of its own for a typing fault.
"""

import random

import numpy as np
import pytest

from bridgegen import einsum, fir, interp, ir
from bridgegen.interp import F32Value, IntValue, LaunchConfig, MemRefValue, TensorValue
from conftest import TIERS, random_fir_function, run_pipeline, use_tier, walk_ops
import programs as gen

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")  # nan, inf

RANDOM_MODULES = 200
SEEDS_PER_KIND = 4  # mutations of each kind on each einsum and kernel
STEP_LIMIT = 2000  # random FIR functions may loop forever
EXTENT = 7  # of each einsum axis
THREADS = 8  # of each kernel launch, one block: lanes apply


def _regions(module):
    """Every region of ``module``, nested ones included."""
    return [r for op in walk_ops(module) for r in op.regions]


def _constant(module, region, t):
    """A fresh ``arith.constant`` of type ``t`` at the start of the entry
    block of ``region``, which dominates every block of it."""
    attr = ir.FloatAttr(1.0, t) if ir.is_float(t) else ir.IntAttr(1, t)
    module.set_insertion(region.blocks[0])
    op = ir.create_op(module, "arith.constant", [], [t], {"value": attr})
    region.blocks[0].operations.insert(0, region.blocks[0].operations.pop())
    return op.results[0]


def _other_type(t):
    return ir.I64 if ir.is_float(t) else ir.F64


def _sites(module, kind):
    """The places where mutation ``kind`` applies: (region, block, position,
    index) of an operand, successor or result."""
    sites = []
    for region in _regions(module):
        for block in region.blocks:
            for pos, op in enumerate(block.operations):
                if kind in ("operand-type", "later-operand"):
                    sites += [(region, block, pos, k) for k in range(len(op.operands))]
                elif kind == "drop-arg":
                    sites += [(region, block, pos, k) for k, s in enumerate(op.successors)
                              if s.args]
                elif kind == "foreign-branch":
                    sites += [(region, block, pos, k) for k in range(len(op.successors))]
                elif kind == "attr-value":
                    sites += [(region, block, pos, k) for k in ("predicate", "dimension")
                              if k in op.attributes]
                elif kind == "index-count":
                    sites += [(region, block, pos, 0)] * op.name.startswith("memref.")
                elif kind == "terminator-flag":
                    sites += [(region, block, pos, 0)] * (pos == len(block.operations) - 2)
                elif op.results:  # result-type
                    sites += [(region, block, pos, 0)]
    return sites


KINDS = ("operand-type", "later-operand", "drop-arg", "result-type", "foreign-branch",
         "attr-value", "index-count", "terminator-flag")


def mutate(module, rng, kind):
    """Apply one mutation of ``kind`` at a site ``rng`` picks; False when
    ``kind`` applies nowhere in ``module``."""
    sites = _sites(module, kind)
    if kind == "later-operand":  # the same type, so that only dominance faults
        sites = [s for s in sites if _later(s)]
    if not sites:
        return False
    region, block, pos, k = rng.choice(sites)
    op = block.operations[pos]
    if kind == "operand-type":
        op.operands[k] = _constant(module, region, _other_type(op.operands[k].type))
    elif kind == "later-operand":
        op.operands[k] = rng.choice(_later((region, block, pos, k)))
    elif kind == "drop-arg":
        op.successors[k].args.pop()
    elif kind == "result-type":
        op.results[0].type = _other_type(op.results[0].type)
    elif kind == "attr-value":
        op.attributes[k] = ir.StringAttr("w")  # no predicate, and no launch dimension
    elif kind == "index-count":
        if rng.random() < 0.5:
            op.operands.append(op.operands[-1])  # the last index again
        else:
            op.operands.pop()
    elif kind == "terminator-flag":
        block.operations.pop()
        op.is_terminator = True
    else:
        target = op.successors[k].block
        foreign = module.append_block(module.new_region(), [a.type for a in target.arguments])
        op.successors[k].block = foreign
    return True


def _later(site):
    """Values of the operand's type defined at or after its use in the block."""
    _, block, pos, k = site
    t = block.operations[pos].operands[k].type
    return [r for op in block.operations[pos:] for r in op.results if r.type == t]


def corpus(registry):
    """(name, build, run) of each module: ``build()`` makes the module and
    ``run(module)`` runs it on fixed inputs, returning its buffers or results."""
    rng = random.Random("mutations")
    out = []
    for i in range(RANDOM_MODULES):
        text = fir.print_fir(random_fir_function(rng))
        args = [[IntValue(64, rng.randint(-9, 9)) for _ in range(2)] for _ in range(2)]
        out.append((f"random{i}", lambda text=text: run_pipeline(
            registry, text, "f", [fir.I64, fir.I64]),
            lambda m, args=args: [interp.run_function(m, "f", a, STEP_LIMIT) for a in args]))
    for name, (spec, _) in gen.EINSUMS.items():
        parsed = einsum.parse_einsum(spec)
        arrays = [np.arange(EXTENT ** len(t), dtype=np.float32).reshape((EXTENT,) * len(t))
                  for t in parsed.inputs + (parsed.output,)]
        out.append((name, lambda parsed=parsed: einsum.build_einsum_function(registry, parsed),
                    lambda m, arrays=arrays: interp.run_function(
                        m, "einsum", [TensorValue(ir.F32, a.shape, a) for a in arrays])))
    for name in gen.KERNELS:
        types = [fir.parse_frontend_type(t) for t in gen.KERNEL_TYPES[name]]
        out.append((name, lambda name=name, types=types: run_pipeline(
            registry, gen.kernel_text(name), name, types),
            lambda m, name=name, types=types: _launch(m, name, types)))
    return out


def _launch(module, name, types):
    args = [F32Value(0.5) if t == fir.F32 else MemRefValue(
        ir.F32, (THREADS,), np.linspace(-1, 1, THREADS)) for t in types]
    interp.run_kernel(module, name, LaunchConfig((1, 1, 1), (THREADS, 1, 1)), args)
    return args


def outcome(run, module):
    """What running ``module`` gives: its values' bits, or its error."""
    try:
        values = run(module)
    except Exception as e:  # noqa: BLE001 -- the gate checks every exception
        return (type(e), str(e))
    return repr([_bits(v) for v in (values if isinstance(values, list) else [values])])


def _bits(v):
    if isinstance(v, list):
        return [_bits(x) for x in v]
    if isinstance(v, interp._ArrayValue):
        return (type(v).__name__, v.data.dtype.str, v.data.shape, v.data.tobytes())
    return (type(v).__name__, np.float64(v.value).tobytes() if isinstance(v.value, float)
            else v.value)


def mutants(registry, rng):
    """(name, kind, build, run, mutated module): one mutation of each random
    module, of the first kind in a random order that applies to it, and
    SEEDS_PER_KIND of each kind that applies to each einsum and kernel."""
    out = []
    for name, build, run in corpus(registry):
        random_module = name.startswith("random")
        kinds = rng.sample(KINDS, len(KINDS)) if random_module else KINDS * SEEDS_PER_KIND
        for kind in kinds:
            module = build()
            if mutate(module, rng, kind):
                out.append((name, kind, build, run, module))
                if random_module:
                    break
    return out


@pytest.mark.parametrize("tier", TIERS)
def test_faults_fail_with_the_verifier_finding(registry, monkeypatch, tier):
    cases, reached = mutants(registry, random.Random("mutations")), 0
    for name, kind, build, run, module in cases:
        original = build()
        use_tier(monkeypatch, tier, original, module)
        firsts = {}  # op -> text of its first finding
        for d in ir.verify_module(module).diagnostics:
            if d.operation is not None:
                firsts.setdefault(d.operation, str(d))
        assert firsts, (name, kind)
        got, want = outcome(run, module), outcome(run, original)
        for end in (got, want):  # values, or an InterpError
            assert type(end) is str or issubclass(end[0], interp.InterpError), (name, kind, end)
        if got != want:  # a faulted op was reached
            reached += 1
            assert type(got) is tuple and got[1] in firsts.values(), (name, kind, got, firsts)
    # the gate has teeth: most faulted ops are reached
    assert reached >= 0.9 * len(cases), (reached, len(cases))
