"""Generate a synthetic corpus and walk through everything it contains.

The generator writes four CoNLL splits (train/dev/test plus a shifted-domain
test set over disjoint vocabulary), pretrained word vectors, and optional
sidecars: noisy external parses and random contextual layers. Role labels
are derived from the dependency tree by a fixed path rule, so the gold parse
fully determines the roles; this script re-derives them to prove it.

The files stay in a fresh directory under the system temp directory,
which is printed so they can be inspected afterwards; delete it when done.

Run: python demos/01_generate_corpus.py
"""

import tempfile
from pathlib import Path

from lisa_srl import (
    GenSynthParams,
    gen_synth,
    read_conll,
    read_heads_file,
    roles_from_tree,
)


def show_sentence(sent) -> None:
    print(f"  {'idx':>3}  {'token':<10} {'pos':<4} head")
    for t, (word, pos, head) in enumerate(zip(sent.tokens, sent.pos, sent.heads)):
        arrow = "root" if head == t else f"-> {head} ({sent.tokens[head]})"
        pred = "  [predicate]" if t in sent.frames else ""
        print(f"  {t:>3}  {word:<10} {pos:<4} {arrow}{pred}")
    for pred, tags in sorted(sent.frames.items()):
        print(f"  frame for predicate {pred} ({sent.tokens[pred]}):")
        print(f"    {' '.join(tags)}")


def main() -> None:
    work = Path(tempfile.mkdtemp(prefix="lisa-demo01-"))
    written = gen_synth(GenSynthParams(
        out_dir=str(work), n_train=30, n_dev=10, n_test=10, seed=7, dim=16,
        heads_error_rate=0.2, with_contextual=True,
    ))
    print(f"wrote {len(written)} files under {work}:")
    for path in written:
        print(f"  {Path(path).name}")

    corpus = read_conll(work / "train.conll")
    print(f"\ntrain split: {len(corpus)} sentences")
    print("\nfirst sentence:")
    show_sentence(corpus[0])

    print("\nraw CoNLL block for that sentence (tab-separated columns:")
    print("word, pos, head index with root as self-loop, predicate flag,")
    print("then one BIO column per predicate frame):")
    block = (work / "train.conll").read_text().split("\n\n")[0]
    for line in block.splitlines():
        print("  " + line.replace("\t", "  "))

    # the path->role map makes roles a pure function of the tree
    for sent in corpus:
        derived = roles_from_tree(sent.pos, sent.heads)
        assert derived == sent.frames
    print("\nroles re-derived from the trees match every stored frame.")

    shifted = read_conll(work / "test-shifted.conll")
    content = lambda c: {w for s in c for w in s.tokens if w[0] in ("n", "v")}
    shared = content(corpus) & content(shifted)
    print(f"\nshifted test split: {len(shared)} content words shared with "
          f"train (nouns and verbs are disjoint; function words carry over), "
          f"mean length {sum(map(len, shifted)) / len(shifted):.1f} tokens "
          f"vs {sum(map(len, corpus)) / len(corpus):.1f} in train.")

    noisy = read_heads_file(work / "train.heads")
    wrong = sum(
        h != g for sent, hs in zip(corpus, noisy) for h, g in zip(hs, sent.heads)
    )
    total = sum(len(s) for s in corpus)
    print(f"\nexternal-parse sidecar train.heads: {wrong}/{total} tokens "
          f"({wrong / total:.0%}) rewired away from gold, simulating an "
          "imperfect upstream parser.")

    first_vec = (work / "pretrained.vec").read_text().splitlines()[0].split()
    print(f"\npretrained.vec: word + {len(first_vec) - 1} floats per line, "
          f"first entry {first_vec[0]!r}.")


if __name__ == "__main__":
    main()
