"""What the evaluator measures and how it reports it.

Role scoring is span-based: a predicted argument counts only if its label,
start and end all match a gold span exactly, and precision/recall/F1 come
from those span counts. The report adds predicate identification, unlabeled
attachment score for the parse, per-length-bucket F1, and a counter of BIO
sequences that had to be repaired before spans could be read at all. The
whole report also lands in a CSV for downstream tooling.

Run: python demos/05_evaluation_reports.py
"""

import tempfile
from pathlib import Path

from lisa_srl import (
    GenSynthParams,
    bio_to_spans,
    build_run_config,
    gen_synth,
    predict,
    train,
)
from lisa_srl.corpus import read_conll
from lisa_srl.pipeline import evaluate


def run(work: Path) -> None:
    gen_synth(GenSynthParams(out_dir=str(work), n_train=100, n_dev=20,
                             n_test=40, seed=19, dim=64))
    base = {
        "train_path": str(work / "train.conll"),
        "dev_path": str(work / "dev.conll"),
        "test_path": str(work / "test.conll"),
        "pretrained_path": str(work / "pretrained.vec"),
        "checkpoint_out": str(work / "model.ckpt"),
        "epochs": "12",
        "seed": "0",
    }
    print("training briefly (12 epochs) so the predictions contain errors ...")
    train(build_run_config(base))
    predict(build_run_config(base | {
        "checkpoint_in": str(work / "model.ckpt"),
        "predictions_path": str(work / "pred.conll"),
    }))

    gold = read_conll(work / "test.conll")
    frame = next(iter(gold[0].frames.values()))
    print("\nspans are read off BIO tags; a span matches only if label,")
    print("start and end all agree. First gold frame:")
    print("  tags :", " ".join(frame))
    print("  spans:", [(s.label, s.start, s.end) for s in bio_to_spans(frame)])

    report, lines = evaluate(build_run_config(base | {
        "predictions_path": str(work / "pred.conll"),
        "metrics_path": str(work / "metrics.csv"),
    }))
    print("\nevaluation summary lines (fixed format, one metric per line):")
    for line in lines:
        print("  " + line)

    print("\nmetrics.csv as written:")
    for row in (work / "metrics.csv").read_text().splitlines():
        print("  " + row)

    # break one BIO sequence in the prediction file: the first B- tag of the
    # first frame column becomes a stray I-, which the reader must repair
    pred_path = work / "pred.conll"
    blocks = pred_path.read_text().split("\n\n")
    out_lines = []
    flipped = False
    for line in blocks[0].splitlines():
        cols = line.split("\t")
        if not flipped and len(cols) > 4 and cols[4].startswith("B-"):
            cols[4] = "I-" + cols[4][2:]
            flipped = True
        out_lines.append("\t".join(cols))
    blocks[0] = "\n".join(out_lines)
    pred_path.write_text("\n\n".join(blocks))

    report2, lines2 = evaluate(build_run_config(base | {
        "predictions_path": str(pred_path),
    }))
    print("\nafter corrupting one tag to a stray I- in the prediction file:")
    print(f"  bio_repairs went {report.bio_repairs} -> {report2.bio_repairs}; "
          "scoring proceeds on the repaired sequence instead of crashing.")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="lisa-demo05-") as tmp:
        run(Path(tmp))


if __name__ == "__main__":
    main()
