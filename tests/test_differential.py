"""Gate A: differential testing of the whole translation.

Seeded random programs from the benchmark's generator (``bench/programs.py``)
go through gen and the interpreter, and every result must equal the
benchmark's independent FIR evaluator (``bench/reference.py``) bit for bit,
any NaN equal to any NaN. Each program runs on both interpreter tiers: the
closures, and the compiled functions, forced for every function from its
entry by setting ``HOT`` to 0 and lifting the op cap; each tier starts
from freshly prepared modules.
"""

import hashlib
import random
import re
from collections import Counter

import pytest

from bridgegen import codegen, einsum, fir, interp, ir
from conftest import TIERS, run_pipeline, use_tier
import programs as gen
import reference as ref

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")  # nan, inf

SEEDS = (1, 73)  # of the compile_many corpus; the loop programs take the last
PROGRAMS_PER_SEED = 150  # the first ones of the bench's compile_many corpus
# sha256 of the printed IR of both corpora, the bench kernels and the bench
# einsums (test_printed_ir_is_pinned): a change that alters printed IR on
# purpose updates it and says why
PRINTED_IR_SHA256 = "7cd2a25970b54d08c57148ea50cab74c79f5ab1ee309ca080513050899666b92"


@pytest.fixture(scope="module")
def corpora():
    """name -> [(program, module, [(inputs, reference result)])]."""
    registry = codegen.register_bindings(codegen.IntrinsicRegistry(),
                                         "arith", "math", "gpu", "memref")
    many = [p for seed in SEEDS for p in gen.many_programs(
        random.Random(f"compile_many:{seed}"), PROGRAMS_PER_SEED)]
    loops = gen.loop_programs(random.Random(f"interp_loops:{SEEDS[-1]}"))
    out = {}
    for name, progs in (("many", many), ("loops", loops)):
        out[name] = []
        for p in progs:
            module = run_pipeline(registry, p.text, p.entry,
                                  [fir.parse_frontend_type(t) for t in p.types])
            ftype = module.lookup_symbol(p.entry).attributes["function_type"].type
            functions = ref.parse(p.text)
            out[name].append((p, module, [
                ([interp.value_of_type(t, a) for t, a in zip(ftype.inputs, args)],
                 ref.run(functions, p.entry, args)) for args in p.inputs]))
    return out


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("corpus", ["many", "loops"])
def test_interpreter_equals_reference(corpora, monkeypatch, compiled, corpus, tier):
    use_tier(monkeypatch, tier, *[module for _, module, _ in corpora[corpus]])
    for p, module, runs in corpora[corpus]:
        for values, want in runs:
            [got] = interp.run_function(module, p.entry, values)
            assert ref.same(want, got.value), (p.name, p.text, values, want, got)
    # every op of these corpora has a source form, and calls are inlined: the
    # first run of each program compiles its one function, the later ones reuse it
    n_programs = len(corpora[corpus])
    assert len(compiled) == (n_programs if tier == "compiled" else 0) and all(compiled)


@pytest.mark.parametrize("corpus", ["many", "loops"])
def test_each_op_appears_once(corpora, monkeypatch, corpus):
    """Compiled, each op's source text appears once in its function, and
    the dispatch tree's leaves are block 0 and each block that is not the
    single forward target of one edge; every other block runs in place at
    its edge."""
    texts, decode = [], interp._decode_op  # (op, its local, its source form)
    monkeypatch.setattr(interp, "_decode_op", lambda op, at, form: texts.append(
        (op, form.target, decode(op, at, form))) or texts[-1][2])
    in_place = 0
    for p, module, _ in corpora[corpus]:
        [func] = module.symbol_ops()
        region, texts[:] = func.regions[0], []
        text, _ = interp._source(region)
        want = Counter()
        for op, target, form in texts:
            if not op.is_terminator:
                want[f"{target} = {form}"] += 1
            for test, lines, _ in form if op.is_terminator else ():
                want.update([f"if {test}:"] * bool(test) + [line.strip() for line in lines])
        got = Counter(line.strip() for line in text.splitlines())
        assert {line: got[line] for line in want} == want, (p.name, text)
        at = {block: k for k, block in enumerate(region.blocks)}
        edges = [(k, at[s.block]) for k, block in enumerate(region.blocks)
                 for s in next(op for op in block.operations if op.is_terminator).successors]
        ins = Counter(t for _, t in edges)
        leaves = set(at.values()) - {t for s, t in edges if t > s and ins[t] == 1}
        tests = [int(k) for k in re.findall(r"^ *if b < (\d+):$", text, re.M)]
        assert sorted(tests + [0]) == sorted(leaves), (p.name, text)
        in_place += len(at) - len(leaves)
    assert in_place  # the rule applies in every corpus


def test_printed_ir_is_pinned(corpora, registry):
    modules = [module for corpus in ("many", "loops") for _, module, _ in corpora[corpus]]
    modules += [run_pipeline(registry, gen.kernel_text(name), name,
                             [fir.parse_frontend_type(t) for t in gen.KERNEL_TYPES[name]])
                for name in gen.KERNELS]
    modules += [einsum.build_einsum_function(registry, einsum.parse_einsum(spec))
                for spec, _ in gen.EINSUMS.values()]
    digest = hashlib.sha256()
    for module in modules:
        digest.update(ir.print_module(module).encode())
    assert digest.hexdigest() == PRINTED_IR_SHA256
