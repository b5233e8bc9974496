"""Seeded runs pinned byte for byte.

One small seed-3 corpus (60 / 20 / 40 sentences, width 16, `.heads` at
error rate 0.15, `.ctxl` stacks), three 5-epoch trainings at lr 0.2
(static `lisa` on the gold source with `gold_mix` 0.25, static `sa`,
contextual `lisa`) and a `predict` on `test` and `test-shifted` under
every parse source each model takes. The SHA-256 digests of each model's
`epoch=` lines, of its best-dev checkpoint and of the 18 prediction files
must equal the table in `pinned_runs.json`. At lr 0.2 every model decodes frames (dev F1 0.33 to
0.54 after epoch 5) and the 18 prediction files are pairwise different, so
the table sees role decoding under every source.

Float bits can depend on numpy's version, its BLAS and the CPU features
both dispatch on, so the table stores the fingerprint of the environment
that wrote it. When the fingerprint matches, every digest is compared
("exact" mode). Otherwise the `epoch=` values are compared to a relative
tolerance of LOG_RTOL and the prediction files exactly ("tolerance" mode).
The test reports which mode ran.

A change that means to alter what a seeded run computes rewrites the table
with

    PYTHONPATH=src python3 tests/test_pinned_runs.py
"""

import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from lisa_srl.config import SOURCES, build_run_config
from lisa_srl.pipeline import GenSynthParams, gen_synth, predict, train

TABLE = Path(__file__).with_name("pinned_runs.json")
LOG_RTOL = 1e-6
SPLITS = ("test", "test-shifted")
# name -> the training settings of each pinned model
MODELS = {
    "lisa": {"parse_source": "gold", "gold_mix": "0.25"},
    "sa": {"variant": "sa"},
    "lisa-ctx": {"embedding": "contextual"},
}


def fingerprint() -> dict:
    """numpy's version, its BLAS and the CPU features it has enabled."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.25 prints its config only
        blas = "unknown"
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return {
        "numpy": np.__version__,
        "blas": blas,
        "cpu_features": sorted(k for k, on in __cpu_features__.items() if on),
    }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pinned_runs(work: Path) -> tuple[dict[str, str], dict[str, list[str]]]:
    """Run everything the table pins under `work`; returns the digests by
    name and each model's `epoch=` lines."""
    data = work / "data"
    gen_synth(GenSynthParams(out_dir=str(data), n_train=60, n_dev=20, n_test=40, seed=3,
                             dim=16, heads_error_rate=0.15, with_contextual=True))
    digests, logs = {}, {}
    for name, settings in MODELS.items():
        ckpt = work / f"{name}.ckpt"
        config = build_run_config({
            "epochs": "5", "lr": "0.2", "seed": "3", "checkpoint_out": str(ckpt),
            "train_path": str(data / "train.conll"), "dev_path": str(data / "dev.conll"),
            "train_ctxl_path": str(data / "train.ctxl"),
            "dev_ctxl_path": str(data / "dev.ctxl"),
            "pretrained_path": str(data / "pretrained.vec"),
            **settings,
        })
        logs[name] = train(config).log_lines
        digests[f"{name}.log"] = _sha256("\n".join(logs[name]).encode())
        digests[f"{name}.ckpt"] = _sha256(ckpt.read_bytes())
        sources = SOURCES if config.variant == "lisa" else ("self",)
        for split in SPLITS:
            for source in sources:
                out = work / f"{name}.{split}.{source}.conll"
                predict(build_run_config({
                    "checkpoint_in": str(ckpt), "parse_source": source,
                    "test_path": str(data / f"{split}.conll"),
                    "test_heads_path": str(data / f"{split}.heads"),
                    "test_ctxl_path": str(data / f"{split}.ctxl"),
                    "predictions_path": str(out),
                }))
                digests[out.name] = _sha256(out.read_bytes())
    return digests, logs


def _log_values(lines: list[str]) -> list[tuple[str, float]]:
    return [(key, float(value)) for line in lines
            for key, _, value in (field.partition("=") for field in line.split())]


def test_seeded_runs_match_the_pinned_table(tmp_path, acceptance_report):
    table = json.loads(TABLE.read_text())
    digests, logs = pinned_runs(tmp_path)
    assert sorted(digests) == sorted(table["digests"])
    exact = table["fingerprint"] == fingerprint()
    acceptance_report(
        f"pinned runs: {'exact' if exact else 'tolerance'} mode"
        f" over {len(digests)} digests ({', '.join(MODELS)})"
    )
    if exact:
        assert digests == table["digests"]
        return
    for name in MODELS:
        have, want = _log_values(logs[name]), _log_values(table["logs"][name])
        assert [k for k, _ in have] == [k for k, _ in want], name
        for (key, a), (_, b) in zip(have, want):
            assert math.isclose(a, b, rel_tol=LOG_RTOL), (name, key, a, b)
    predictions = {k: v for k, v in table["digests"].items() if k.endswith(".conll")}
    assert {k: digests[k] for k in predictions} == predictions


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        digests, logs = pinned_runs(Path(work))
    TABLE.write_text(json.dumps(
        {"fingerprint": fingerprint(), "logs": logs, "digests": digests}, indent=1
    ) + "\n")
    print(f"wrote {len(digests)} digests to {TABLE}", file=sys.stderr)
