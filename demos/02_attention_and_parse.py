"""One attention head doubles as a dependency parser, and can be overridden.

The encoder dedicates a single head in one layer to syntax: its attention
row for token t is trained to peak at t's dependency head. At run time that
head can consume three sources: the model's own soft attention (self), a
one-hot matrix built from an external parser's output, or the gold tree.
Injection happens inside the forward pass and touches no parameters, which
this script shows on a completely untrained model: the gold source already
yields perfect attachment because the injected rows ARE the parse.

Run: python demos/02_attention_and_parse.py
"""

import numpy as np

from lisa_srl import (
    GrammarParams,
    LisaModel,
    ParseSource,
    RunConfig,
    Tape,
    extract_parse,
    gen_synthetic,
    pretrained_vectors,
)
from lisa_srl.corpus import build_joint_pos_pred_space, build_role_space, vocabulary


def attention_rows(model, sentence, source, external=None):
    tape = Tape()
    fw = model.forward(tape, sentence, source=source, external_heads=external)
    return fw.trace.consumed_parse_attention(model.config)


def main() -> None:
    corpus = gen_synthetic(50, seed=3)
    model = LisaModel.build(
        RunConfig(seed=0),
        build_joint_pos_pred_space(corpus),
        build_role_space(corpus),
        vocabulary(corpus),
        dict(pretrained_vectors(GrammarParams(), 64, 0)),  # sets the width
    )
    sent = corpus[0]
    print("sentence:", " ".join(sent.tokens))
    print("gold heads:", list(sent.heads))

    soft = attention_rows(model, sent, ParseSource.SELF)
    print("\nself source, untrained: the parse head's attention row for each")
    print("token is a softmax over all positions. Row for token 0:")
    print(" ", np.array2string(soft[0], precision=3, suppress_small=True))
    print(f"  row sums: {soft.sum(axis=1).round(12).tolist()}")
    print(f"  argmax per row (predicted heads): {extract_parse(soft)}")

    gold = attention_rows(model, sent, ParseSource.GOLD)
    print("\ngold source, same untrained parameters: every row is one-hot")
    print("at the gold head, so the extracted parse is exact.")
    print("  row for token 0:", gold[0].tolist())
    assert extract_parse(gold) == list(sent.heads)
    print(f"  extracted heads == gold heads: {extract_parse(gold) == list(sent.heads)}")

    exact = 0
    for s in corpus:
        if extract_parse(attention_rows(model, s, ParseSource.GOLD)) == list(s.heads):
            exact += 1
    print(f"  perfect attachment on {exact}/{len(corpus)} sentences, no training.")

    # external injection reproduces whatever the upstream parser said,
    # including its mistakes
    wrong = list(sent.heads)
    wrong[0] = (wrong[0] + 1) % len(sent)
    ext = attention_rows(model, sent, ParseSource.EXTERNAL, external=wrong)
    assert extract_parse(ext) == wrong
    print("\nexternal source: injected heads come back verbatim, mistakes and")
    print(f"all. Injected {wrong}, extracted {extract_parse(ext)}.")

    print("\nall three sources ran through one parameter set; swapping the")
    print("source is a decode-time decision, not a different model.")


if __name__ == "__main__":
    main()
