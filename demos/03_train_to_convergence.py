"""Train a small model end to end and keep the best-dev checkpoint.

Training is plain SGD with global gradient-norm clipping over a multi-task
loss (roles + parse + POS/predicate), fully deterministic under the seed:
the same config always produces the same log lines and checkpoint bytes.
The checkpoint on disk is the epoch with the best dev F1, not the last one,
and reloading it reproduces that dev score exactly.

Run: python demos/03_train_to_convergence.py
"""

import tempfile
import time
from pathlib import Path

from lisa_srl import GenSynthParams, build_run_config, gen_synth, load_checkpoint, train
from lisa_srl.evaluation import srl_prf
from lisa_srl.pipeline import _predict_corpus, load_split


def run(work: Path) -> None:
    gen_synth(GenSynthParams(out_dir=str(work), n_train=150, n_dev=30,
                             n_test=20, seed=11, dim=64))
    config = build_run_config({
        "train_path": str(work / "train.conll"),
        "dev_path": str(work / "dev.conll"),
        "pretrained_path": str(work / "pretrained.vec"),
        "checkpoint_out": str(work / "model.ckpt"),
        "epochs": "60",
        "early_stop_f1": "0.9",
        "seed": "0",
    })
    print("training the syntax-informed variant on 150 sentences,")
    print("early-stopping once dev F1 reaches 0.9:\n")
    start = time.perf_counter()
    result = train(config, emit=print)
    elapsed = time.perf_counter() - start
    print(f"\nstopped after epoch {len(result.log_lines)} "
          f"({elapsed:.1f}s); best dev F1 {result.best_dev_f1:.4f} "
          f"at epoch {result.best_epoch}.")

    loaded = load_checkpoint(config.checkpoint_out)
    dev = load_split(config, "dev")
    predictions = _predict_corpus(loaded.model, dev, loaded.transitions,
                                  config.source())
    f1 = srl_prf(dev.corpus, predictions)[2]
    print(f"reloaded checkpoint scores dev F1 {f1:.4f}, matching the "
          f"best-epoch log line: {f1 == result.best_dev_f1}.")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="lisa-demo03-") as tmp:
        run(Path(tmp))


if __name__ == "__main__":
    main()
