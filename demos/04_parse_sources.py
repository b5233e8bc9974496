"""One trained checkpoint, four ways to supply the parse at decode time.

Train once with the model attending to its own parse head, then decode the
same test split four ways: the model's soft self-parse, the self-parse
hardened to one-hot, a deliberately noisy external parser, and the gold
trees. Role F1 tracks parse quality because the corpus ties roles to the
tree, and no weights change between rows, only the attention the role
scorer gets to consume.

Run: python demos/04_parse_sources.py
"""

import tempfile
from pathlib import Path

from lisa_srl import GenSynthParams, build_run_config, gen_synth, predict, train
from lisa_srl.corpus import read_conll
from lisa_srl.evaluation import corpus_uas, srl_prf


def run(work: Path) -> None:
    gen_synth(GenSynthParams(out_dir=str(work), n_train=150, n_dev=30,
                             n_test=40, seed=11, dim=64,
                             heads_error_rate=0.3))
    base = {
        "train_path": str(work / "train.conll"),
        "dev_path": str(work / "dev.conll"),
        "test_path": str(work / "test.conll"),
        "pretrained_path": str(work / "pretrained.vec"),
        "checkpoint_out": str(work / "model.ckpt"),
        "epochs": "40",
        "seed": "0",
    }
    print("training once with parse_source=self (40 epochs) ...")
    result = train(build_run_config(base))
    print(f"best dev F1 {result.best_dev_f1:.4f} at epoch {result.best_epoch}\n")

    gold = read_conll(work / "test.conll")
    rows = []
    sources = [
        ("self (soft)", {"parse_source": "self"}),
        ("self, hardened", {"parse_source": "self", "harden_self_parse": "true"}),
        ("external, 30% wrong", {"parse_source": "external",
                                 "test_heads_path": str(work / "test.heads")}),
        ("gold", {"parse_source": "gold"}),
    ]
    for name, extra in sources:
        config = build_run_config(base | extra | {
            "checkpoint_in": str(work / "model.ckpt"),
            "predictions_path": str(work / "pred.conll"),
        })
        predicted = predict(config)
        f1 = srl_prf(gold, predicted)[2]
        uas = corpus_uas(gold, predicted)
        rows.append((name, f1, uas))

    print(f"{'parse source':<22} {'role F1':>8} {'UAS':>8}")
    for name, f1, uas in rows:
        print(f"{name:<22} {f1:>8.4f} {uas:>8.4f}")

    print("\nsame checkpoint throughout; gold injection gives UAS 1 by")
    print("construction, and the noisy external parse drags role F1 down")
    print("with it.")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="lisa-demo04-") as tmp:
        run(Path(tmp))


if __name__ == "__main__":
    main()
