"""Swap static word vectors for frozen contextual layer stacks.

In contextual mode the encoder's input is a learned softmax-weighted mix of
L frozen per-token layer stacks (read from a .ctxl sidecar, standing in for
a pretrained language model's hidden layers), scaled by a learned gamma.
Only the L mix logits and gamma train on the embedding side; the stacks
themselves never move. This script watches the mix shift away from uniform
as training decides which layers matter.

Run: python demos/06_contextual_layers.py
"""

import tempfile
from pathlib import Path

import numpy as np

from lisa_srl import GenSynthParams, build_run_config, gen_synth, train
from lisa_srl.embed import ScalarMix, read_contextual


def run(work: Path) -> None:
    gen_synth(GenSynthParams(out_dir=str(work), n_train=150, n_dev=30,
                             n_test=20, seed=23, dim=64, with_contextual=True))
    store = read_contextual(work / "train.ctxl")
    stack = store.layers["0"]
    print(f"train.ctxl holds {len(store.layers)} frozen stacks; sentence 0 "
          f"is [L, T, d] = {stack.shape}. Layer 0 carries word identity, "
          "upper layers blend neighbors.")

    config = build_run_config({
        "embedding": "contextual",
        "train_path": str(work / "train.conll"),
        "dev_path": str(work / "dev.conll"),
        "train_ctxl_path": str(work / "train.ctxl"),
        "dev_ctxl_path": str(work / "dev.ctxl"),
        "epochs": "60",
        "seed": "0",
    })

    mix0 = ScalarMix.build(store.n_layers)  # the mix has one weight per layer
    print(f"\nbefore training: coefficients {mix0.coefficients().round(4).tolist()} "
          f"(uniform), gamma {float(mix0.gamma.data):.4f}")

    result = train(config)
    mix = result.model.mix
    coeffs = mix.coefficients()
    print(f"after 60 epochs:  coefficients {coeffs.round(4).tolist()}, "
          f"gamma {float(mix.gamma.data):.4f}")
    print(f"coefficients still sum to 1: {np.isclose(coeffs.sum(), 1.0)}")
    print(f"\nbest dev F1 {result.best_dev_f1:.4f}. The mix shifted most of "
          "its weight onto layer 0,")
    print("the word-identity layer, which is where this task's signal lives.")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="lisa-demo06-") as tmp:
        run(Path(tmp))


if __name__ == "__main__":
    main()
