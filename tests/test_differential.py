"""Gate A: differential testing of the whole translation.

Seeded random programs from the benchmark's generator (``bench/programs.py``)
go through gen and the interpreter, and every result must equal the
benchmark's independent FIR evaluator (``bench/reference.py``) bit for bit,
any NaN equal to any NaN. Each program runs on both interpreter tiers: the
closures, and the compiled functions, forced for every function from its
entry by setting ``HOT`` to 0 and lifting the op cap.
"""

import random
import sys
from pathlib import Path

import pytest

from bridgegen import fir, interp, intrinsics
from bridgegen.gpu import register_gpu_intrinsics
from conftest import TIERS, run_pipeline, use_tier

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import programs as gen  # noqa: E402
import reference as ref  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")  # nan, inf

SEEDS = (1, 73)  # of the compile_many corpus; the loop programs take the last
PROGRAMS_PER_SEED = 150  # the first ones of the bench's compile_many corpus


@pytest.fixture(scope="module")
def corpora():
    """name -> [(program, module, [(inputs, reference result)])]."""
    registry = intrinsics.default_registry()
    register_gpu_intrinsics(registry)
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
    use_tier(monkeypatch, tier)
    for p, module, runs in corpora[corpus]:
        for values, want in runs:
            [got] = interp.run_function(module, p.entry, values)
            assert ref.same(want, got.value), (p.name, p.text, values, want, got)
    # every op of these corpora has a source form: each run compiles its function
    n_runs = sum(len(runs) for _, _, runs in corpora[corpus])
    assert len(compiled) == (n_runs if tier == "compiled" else 0) and all(compiled)
