"""One timed set-up in a fresh process; prints the seconds it took.

Reads a JSON payload on stdin before the clock starts, so input
generation and the interpreter's own start-up are not timed. The set-up
is: import bridgegen, build the default registry with the GPU intrinsics
and, for the interpreter workloads, import the interpreter and compile
the workload's programs and einsum modules.

With the payload ``{"reference": true}`` it times the reference set-up
instead, which imports nothing from bridgegen: import numpy and a fixed
set of standard modules, then run the calibration task. Its time follows
the machine's speed, not bridgegen's code.
"""

import json
import sys
from time import perf_counter

payload = json.load(sys.stdin)
start = perf_counter()
if payload.get("reference"):
    import argparse, ast, dataclasses, fractions, inspect, statistics, typing  # noqa: E401,F401

    import numpy  # noqa: F401
    from calibration import calibrate

    calibrate(30000)
else:
    sys.path.insert(0, payload["src"])
    import bridgegen  # noqa: F401

    if payload["interp"]:
        import bridgegen.interp  # noqa: F401
    import pipeline

    registry = pipeline.build_registry()
    for text, entry, types in payload["programs"]:
        pipeline.compile_fir(registry, text, entry, types)
    for spec in payload["einsums"]:
        pipeline.compile_einsum(registry, spec)
print(perf_counter() - start)
