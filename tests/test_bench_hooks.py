"""The benchmark's own calls work against the package.

The traced benchmark wraps public functions by `getattr` on their owners,
and every run trains and decodes through `benchmarks/run.py`'s helpers, so
a rename or a changed signature in the package would otherwise surface only
as a crashed run or as failed benchmark operations.
"""

import importlib.util
import sys
from pathlib import Path

from lisa_srl.checkpoint import load_checkpoint
from lisa_srl.corpus import read_conll, read_heads_file
from lisa_srl.numerics import Tape
from lisa_srl.pipeline import GenSynthParams, gen_synth, train

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
        "attention", "bilinear", "conv_block", "cross_entropy", "gather_add", "matmul",
        "scalar_mix",
    ]
    for name in names:
        assert callable(getattr(Tape, name, None)), name


def test_a_tiny_benchmark_run_trains_and_decodes_without_problems(tmp_path):
    run = _bench_module()
    gen_synth(GenSynthParams(out_dir=str(tmp_path), n_train=100, n_dev=6, n_test=6,
                             seed=1, dim=8, heads_error_rate=run.HEADS_ERROR_RATE))
    lines = []
    train(run.train_config(tmp_path, 1, 8, tmp_path / "bench.ckpt"), lines.append)
    assert run.epoch_line_problem(lines, 8) is None
    loaded = load_checkpoint(tmp_path / "bench.ckpt")
    heads = read_heads_file(tmp_path / "test.heads")
    frames = 0
    for i, sent in enumerate(read_conll(tmp_path / "test.conll")):
        for source in run.SOURCES:
            pred = run.decode_call(loaded, sent, source, heads[i])
            assert run.prediction_problem(source, sent, heads[i], pred) is None
            frames += len(pred.frames)
    assert frames  # the role decoder ran
