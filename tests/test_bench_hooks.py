"""The names `benchmarks/run.py --trace 1` patches exist in the package.

The traced benchmark wraps public functions by `getattr` on their owners,
so a rename in the package would only surface as a crash of a traced run.
"""

import importlib.util
import sys
from pathlib import Path

from lisa_srl.numerics import Tape

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


def _bench_module():
    sys.path.insert(0, str(BENCH))  # run.py imports its sibling spans.py
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look themselves up
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


def test_every_traced_function_exists_and_is_callable():
    run = _bench_module()
    targets = run.span_targets()
    assert targets
    for owner, attr, name in targets:
        assert callable(getattr(owner, attr, None)), (owner, attr, name)


def test_every_counted_tape_op_exists_and_is_callable():
    names = _bench_module().tape_op_names()
    assert names == [
        "add", "attention", "bilinear", "conv_block", "cross_entropy", "gather_add",
        "matmul", "scalar_mix",
    ]
    for name in names:
        assert callable(getattr(Tape, name, None)), name
