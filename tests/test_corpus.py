"""Corpus IO, BIO coding, label spaces, transitions and the generator.

Oracles: hand-built tiny files, hand-counted bigram tables, a recursive
tree-walk role checker written independently of the library's path->role
implementation, and hypothesis round-trip properties.
"""

import hashlib
import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lisa_srl.corpus import (
    OUTSIDE,
    AnnotatedSentence,
    CorpusFormatError,
    EncodingError,
    LabelSpace,
    RoleSpan,
    bio_to_spans,
    build_joint_pos_pred_space,
    build_role_space,
    estimate_transitions,
    is_valid_bio,
    read_conll,
    read_conll_counted,
    read_heads_file,
    repair_bio,
    spans_to_bio,
    valid_successor,
    write_conll,
    write_heads_file,
)
from lisa_srl.errors import ConfigError, EstimationError
from lisa_srl.synth import (
    AMBIGUOUS,
    NOUN_CUED,
    VERB_CUED,
    full_vocabulary,
    gen_splits,
    gen_synthetic,
    pretrained_vectors,
    roles_from_tree,
)

# ---------------------------------------------------------------------------
# BIO coding


def test_spans_to_bio_basic():
    assert spans_to_bio([RoleSpan(0, 1, "A0")], 3) == ("B-A0", "I-A0", "O")


def test_spans_to_bio_empty():
    assert spans_to_bio([], 2) == ("O", "O")


def test_spans_to_bio_rejects_overlap():
    with pytest.raises(EncodingError):
        spans_to_bio([RoleSpan(0, 2, "A0"), RoleSpan(2, 3, "A1")], 5)


def test_spans_to_bio_rejects_out_of_range():
    with pytest.raises(EncodingError):
        spans_to_bio([RoleSpan(1, 3, "A0")], 3)


def test_role_span_rejects_inverted():
    with pytest.raises(EncodingError):
        RoleSpan(3, 1, "A0")


def test_bio_to_spans_well_formed():
    tags = ("B-A0", "I-A0", "O", "B-A1", "B-A1")
    spans, repairs = bio_to_spans(tags), repair_bio(tags)[1]
    assert repairs == 0
    assert spans == [RoleSpan(0, 1, "A0"), RoleSpan(3, 3, "A1"), RoleSpan(4, 4, "A1")]


def test_bio_repair_counts_bare_continuations():
    tags = ("I-A0", "I-A0", "O", "I-A1")
    spans, repairs = bio_to_spans(tags), repair_bio(tags)[1]
    assert spans == [RoleSpan(0, 1, "A0"), RoleSpan(3, 3, "A1")]
    assert repairs == 2
    fixed, n = repair_bio(tags)
    assert fixed == ("B-A0", "I-A0", "O", "B-A1")
    assert n == 2


def test_bio_repair_label_switch_mid_span():
    tags = ("B-A0", "I-A1")
    spans, repairs = bio_to_spans(tags), repair_bio(tags)[1]
    assert spans == [RoleSpan(0, 0, "A0"), RoleSpan(1, 1, "A1")]
    assert repairs == 1


def test_malformed_tag_rejected():
    with pytest.raises(CorpusFormatError):
        bio_to_spans(("B-A0", "X-A0"))
    with pytest.raises(CorpusFormatError):
        bio_to_spans(("B-",))


def test_is_valid_bio():
    assert is_valid_bio(("B-A0", "I-A0", "O"))
    assert not is_valid_bio(("O", "I-A0"))
    assert not is_valid_bio(("B-A0", "I-A1"))
    assert is_valid_bio(("B-A0", "B-A0"))


# SHA-256 of repr((bio_to_spans(t), repair_bio(t))) over the sweep below: it pins
# every span and repair, so a rewrite of either must keep all of its outputs
BIO_SWEEP_DIGEST = "7098e0b42a80c5221fac40413de7f87c0199d53f3b9b518cef92dffaecac6cb2"


def test_every_short_sequence_follows_the_one_bio_rule():
    digest, count = hashlib.sha256(), 0
    for length in range(7):
        for tags in itertools.product(("O", "B-A0", "I-A0", "B-A1", "I-A1"), repeat=length):
            spans, (fixed, repairs) = bio_to_spans(tags), repair_bio(tags)
            valid = all(map(valid_successor, (OUTSIDE, *tags), tags))
            assert is_valid_bio(tags) == valid == (repairs == 0)
            assert spans_to_bio(spans, length) == fixed
            digest.update(repr((spans, (fixed, repairs))).encode())
            count += 1
    assert count == 19_531
    assert digest.hexdigest() == BIO_SWEEP_DIGEST


@pytest.mark.parametrize("bad", ["", "B-", "I-", "X-A0"])
def test_malformed_tag_raises_from_every_bio_reader(bad):
    for decode in (bio_to_spans, repair_bio, is_valid_bio):
        for tags in ((bad,), ("B-A0", bad)):
            with pytest.raises(CorpusFormatError, match="malformed BIO tag"):
                decode(tags)


@st.composite
def span_sets(draw):
    length = draw(st.integers(1, 12))
    spans = []
    t = 0
    while t < length:
        if draw(st.booleans()):
            end = draw(st.integers(t, length - 1))
            spans.append(RoleSpan(t, end, draw(st.sampled_from(["A0", "A1", "AM-LOC"]))))
            t = end + 1
        else:
            t += 1
    return length, spans


@settings(max_examples=120, deadline=None)
@given(span_sets())
def test_spans_bio_round_trip(case):
    length, spans = case
    tags = spans_to_bio(spans, length)
    assert is_valid_bio(tags)
    back, repairs = bio_to_spans(tags), repair_bio(tags)[1]
    assert repairs == 0
    assert back == spans


# ---------------------------------------------------------------------------
# File IO


def test_read_one_token_file(tmp_path):
    p = tmp_path / "one.conll"
    p.write_text("dog\tNN\t0\t-\tO\n")
    sents = read_conll(p)
    assert len(sents) == 1
    s = sents[0]
    assert len(s) == 1 and s.heads == (0,) and s.predicate_indices == []
    assert s.frames == {}


def test_read_frame_column(tmp_path):
    p = tmp_path / "s.conll"
    p.write_text(
        "d0\tDT\t1\t-\tO\n"
        "n001\tNN\t2\t-\tB-A0\n"
        "v01\tVB\t2\tY\tO\n"
        "\n"
    )
    (s,) = read_conll(p)
    assert s.predicate_indices == [2]
    assert s.frames[2] == ("O", "B-A0", "O")


def test_read_rejects_ragged(tmp_path):
    p = tmp_path / "bad.conll"
    p.write_text("a\tNN\t0\t-\tO\nb\tNN\t0\t-\n")
    with pytest.raises(CorpusFormatError, match="line 2"):
        read_conll(p)


def test_read_rejects_bad_head(tmp_path):
    p = tmp_path / "bad.conll"
    p.write_text("a\tNN\tx\t-\tO\n")
    with pytest.raises(CorpusFormatError, match="line 1"):
        read_conll(p)
    p.write_text("a\tNN\t5\t-\tO\n")
    with pytest.raises(CorpusFormatError, match="line 1"):
        read_conll(p)


def test_read_rejects_bad_marker(tmp_path):
    p = tmp_path / "bad.conll"
    p.write_text("a\tNN\t0\tQ\tO\n")
    with pytest.raises(CorpusFormatError, match="marker"):
        read_conll(p)


def test_read_rejects_missing_frame_column(tmp_path):
    p = tmp_path / "bad.conll"
    p.write_text("a\tVB\t0\tY\n")
    with pytest.raises(CorpusFormatError, match="predicates"):
        read_conll(p)


def test_read_rejects_ill_formed_bio_strict_repairs_lenient(tmp_path):
    p = tmp_path / "bad.conll"
    p.write_text("a\tVB\t0\tY\tI-A0\n")
    with pytest.raises(CorpusFormatError, match="ill-formed"):
        read_conll(p)
    sents, repairs = read_conll_counted(p, repair=True)
    assert repairs == 1
    assert sents[0].frames[0] == ("B-A0",)


@pytest.mark.parametrize("before", ["B-A0", "I-A0", "O"])
@pytest.mark.parametrize(
    "prefix, line", [("", 2), ("z\tNN\t0\t-\n\n", 4)], ids=["first", "second"]
)
def test_read_names_the_line_of_a_malformed_bio_tag(tmp_path, before, prefix, line):
    # a bare I-A0 above the malformed tag is not the fault reported
    p = tmp_path / "bad.conll"
    p.write_text(f"{prefix}a\tVB\t0\tY\t{before}\nb\tNN\t0\t-\tX-A0\n")
    for repair in (False, True):
        with pytest.raises(CorpusFormatError) as err:
            read_conll(p, repair=repair)
        assert str(err.value) == f"{p}: line {line}: malformed BIO tag 'X-A0'"


def test_read_rejects_multiple_roots_strict_only(tmp_path):
    p = tmp_path / "bad.conll"
    p.write_text("a\tNN\t0\t-\nb\tNN\t1\t-\n")
    with pytest.raises(CorpusFormatError, match="root"):
        read_conll(p)
    sents = read_conll(p, repair=True)
    assert len(sents) == 1


def test_read_rejects_a_cycle_of_heads_strict_only(tmp_path):
    # one self-loop root at 2, and tokens 0 and 1 each other's heads
    p = tmp_path / "bad.conll"
    p.write_text("a\tNN\t1\t-\nb\tVB\t0\t-\nc\tDT\t2\t-\n\n"
                 "d\tNN\t0\t-\n")
    with pytest.raises(CorpusFormatError) as err:
        read_conll(p)
    assert str(err.value) == f"{p}: line 1: heads form a cycle through token 0 ('a')"
    assert [s.heads for s in read_conll(p, repair=True)] == [(1, 0, 2), (0,)]
    # a cycle longer than two, past the root, in a later sentence
    p.write_text("a\tNN\t0\t-\n\nb\tNN\t0\t-\nc\tNN\t2\t-\nd\tNN\t3\t-\n"
                 "e\tNN\t1\t-\n")
    with pytest.raises(CorpusFormatError,
                       match=f"^{re.escape(str(p))}: line 3: .* through token 1 \\('c'\\)$"):
        read_conll(p)
    # the root count is checked first: no root means a cycle, two roots none
    for heads in ("1 0", "1 0 2 3"):
        p.write_text("".join(f"w\tNN\t{h}\t-\n" for h in heads.split()))
        with pytest.raises(CorpusFormatError, match="expected one self-loop root"):
            read_conll(p)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda t: st.lists(st.integers(0, t - 1), min_size=t,
                                                     max_size=t)))
def test_read_accepts_exactly_the_trees(tmp_path_factory, heads):
    p = tmp_path_factory.getbasetemp() / "heads.conll"
    p.write_text("".join(f"w{t}\tNN\t{h}\t-\n" for t, h in enumerate(heads)))
    n, roots = len(heads), [t for t, h in enumerate(heads) if h == t]

    def climb(t, steps):
        for _ in range(steps):
            t = heads[t]
        return t

    if len(roots) == 1 and all(climb(t, n) == roots[0] for t in range(n)):
        assert read_conll(p)[0].heads == tuple(heads)
        return
    with pytest.raises(CorpusFormatError) as err:
        read_conll(p)
    if len(roots) != 1:
        assert str(err.value) == f"{p}: line 1: expected one self-loop root, found {len(roots)}"
    else:  # the named token is on a cycle: its chain comes back to it
        t = int(str(err.value).split("through token ")[1].split()[0])
        assert str(err.value) == f"{p}: line 1: heads form a cycle through token {t} ('w{t}')"
        assert any(climb(t, k) == t for k in range(1, n + 1))


def test_roles_reject_a_cycle_of_heads():
    # each walk is bounded by the sentence length, so neither call spins
    for pos, heads in [(("NN", "VB", "DT"), (1, 0, 2)), (("NN", "VB"), (1, 0))]:
        with pytest.raises(EncodingError, match="heads form a cycle under token 0"):
            roles_from_tree(pos, heads)


def test_read_rejects_nonempty_extra_column(tmp_path):
    p = tmp_path / "bad.conll"
    p.write_text("a\tNN\t0\t-\tB-A0\n")
    with pytest.raises(CorpusFormatError, match="no matching predicate"):
        read_conll(p)


@pytest.mark.parametrize(
    "text, message",
    [
        # a bad head index or marker: the upper line's fault is reported
        ("a\tNN\t0\tQ\tO\nb\tNN\tx\t-\tO\n",
         "line 1: predicate marker must be Y or -, got 'Q'"),
        ("a\tNN\t7\t-\tO\nb\tNN\t0\tQ\tO\n", "line 1: head index 7 outside [0, 2)"),
        ("a\tNN\t0\tY\tO\nb\tNN\t-1\t-\tO\n", "line 2: head index -1 outside [0, 2)"),
        # on one line, the head index is checked before the marker
        ("a\tNN\tx\tQ\tO\n", "line 1: bad head index 'x'"),
        # a ragged row outranks a bad head index or marker above it
        ("a\tNN\t0\tQ\tO\nb\tNN\t0\t-\n", "line 2: ragged columns (4 vs 5)"),
        ("a\tNN\tx\t-\tO\nb\tNN\t0\t-\n", "line 2: ragged columns (4 vs 5)"),
        # a sentence is checked before the lines of the next one are
        ("a\tNN\tx\t-\tO\n\nb\tNN\n", "line 1: bad head index 'x'"),
        ("a\tNN\t0\t-\tO\n\nb\tNN\t1\t-\tO\nc\tNN\t1\tN\tO\nd\tNN\t9\t-\tO\n",
         "line 4: predicate marker must be Y or -, got 'N'"),
        # a cycle of heads is checked after every other fault
        ("a\tNN\t1\tQ\tO\nb\tNN\t0\t-\tO\nc\tNN\t2\t-\tO\n",
         "line 1: predicate marker must be Y or -, got 'Q'"),
    ],
)
def test_read_with_two_faults_names_one_line_in_check_order(tmp_path, text, message):
    p = tmp_path / "bad.conll"
    p.write_text(text)
    for repair in (False, True):
        with pytest.raises(CorpusFormatError) as err:
            read_conll(p, repair=repair)
        assert str(err.value) == f"{p}: {message}"


def test_round_trip_on_synthetic_corpus(tmp_path):
    corpus = gen_synthetic(60, 3)
    path = tmp_path / "c.conll"
    write_conll(path, corpus)
    assert read_conll(path) == corpus


@pytest.mark.parametrize("key", [-1, 3, 7, "2", 2.0, True, None])
def test_a_frame_key_outside_the_token_indices_is_one_format_error(key):
    # the last token stands where -1 wraps to, and 3 is T
    with pytest.raises(CorpusFormatError, match=r"frame key .* is not a token index in \[0, 3\)"):
        AnnotatedSentence(("d0", "n000", "v00"), ("DT", "NN", "VB"), (1, 2, 2),
                          {key: ("B-A0", "I-A0", "O")})


def test_written_marker_column_holds_y_exactly_at_the_frame_keys(tmp_path):
    path = tmp_path / "c.conll"
    for corpus in (gen_synthetic(60, 5), gen_synthetic(60, 6, shifted=True)):
        write_conll(path, corpus)
        blocks = path.read_text(encoding="utf-8").split("\n\n")[:-1]
        assert len(blocks) == len(corpus)
        for sent, block in zip(corpus, blocks):
            marks = [line.split("\t")[3] for line in block.splitlines()]
            assert [t for t, m in enumerate(marks) if m == "Y"] == sorted(sent.frames)
            assert set(marks) <= {"Y", "-"}


def test_heads_file_round_trip(tmp_path):
    heads = [[0, 0, 1], [1, 1]]
    path = tmp_path / "h.heads"
    write_heads_file(path, heads)
    assert read_heads_file(path) == heads


# ---------------------------------------------------------------------------
# Label spaces


def test_label_space_bijection():
    ls = LabelSpace(["O", "B-A0", "I-A0"])
    assert len(ls) == 3 and ls.of("B-A0") == 1 and ls.name(2) == "I-A0"
    with pytest.raises(CorpusFormatError):
        LabelSpace(["O", "O"])


def _sent(tokens, pos, heads, frames=None):
    return AnnotatedSentence(tuple(tokens), tuple(pos), tuple(heads), frames or {})


def test_joint_space_hand_example():
    s = _sent(
        ["the", "dog", "ran"],
        ["DT", "NN", "VBD"],
        [1, 2, 2],
        {2: ("O", "B-A0", "O")},
    )
    space = build_joint_pos_pred_space([s])
    assert space.labels == ("DT", "NN", "VBD", "VBD:predicate")


def test_joint_space_no_predicates():
    s = _sent(["a", "b"], ["DT", "NN"], [1, 1])
    assert build_joint_pos_pred_space([s]).labels == ("DT", "NN")


def test_joint_space_matches_independent_scan():
    corpus = gen_synthetic(80, 11)
    space = build_joint_pos_pred_space(corpus)
    pairs = set()
    for s in corpus:
        for t, tag in enumerate(s.pos):
            pairs.add((tag, t in s.frames))
    expected = len({t for t, _ in pairs}) + sum(1 for _, ip in pairs if ip)
    assert len(space) == expected
    for tag, is_pred in pairs:
        assert (tag + ":predicate" if is_pred else tag) in space


def test_role_space_outside_first():
    corpus = gen_synthetic(40, 5)
    space = build_role_space(corpus)
    assert space.name(0) == "O"
    assert list(space.labels[1:]) == sorted(space.labels[1:])


# ---------------------------------------------------------------------------
# Transitions


def _one_frame_corpus():
    s = _sent(["a", "b"], ["NN", "NN"], [1, 1], {1: ("B-A0", "I-A0")})
    return [s]


def test_transitions_hand_counts():
    # single observed sequence [B-A0, I-A0] over space [O, B-A0, I-A0]:
    # row B-A0 has 3 valid successors, one observed bigram -> (1+1)/(1+3)
    space = LabelSpace(["O", "B-A0", "I-A0"])
    table = estimate_transitions(_one_frame_corpus(), space)
    b, i, o = space.of("B-A0"), space.of("I-A0"), space.of("O")
    assert math.isclose(math.exp(table.matrix[b, i]), 0.5)
    assert math.isclose(math.exp(table.matrix[b, o]), 0.25)
    assert math.isclose(math.exp(table.matrix[b, b]), 0.25)
    assert table.matrix[o, i] == -np.inf
    assert math.isclose(math.exp(table.start[b]), 2.0 / 3.0)
    assert math.isclose(math.exp(table.start[o]), 1.0 / 3.0)
    assert table.start[i] == -np.inf
    assert math.isclose(math.exp(table.end[i]), 0.5)
    assert math.isclose(math.exp(table.end[o]), 0.25)


def test_transitions_empty_corpus_rejected():
    s = _sent(["a"], ["NN"], [0])
    with pytest.raises(EstimationError):
        estimate_transitions([s], LabelSpace(["O"]))


def test_transitions_invariants_on_synthetic():
    corpus = gen_synthetic(120, 9)
    space = build_role_space(corpus)
    table = estimate_transitions(corpus, space)
    n = len(space)
    assert table.matrix.shape == (n, n)
    for i, prev in enumerate(space):
        assert abs(np.exp(table.matrix[i]).sum() - 1.0) <= 1e-9
        for j, nxt in enumerate(space):
            if not valid_successor(prev, nxt):
                assert table.matrix[i, j] == -np.inf
    assert abs(np.exp(table.start[np.isfinite(table.start)]).sum() - 1.0) <= 1e-9
    assert abs(np.exp(table.end).sum() - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# Generator


def oracle_frames(sent):
    """Recursive tree walk applying the documented path->role map."""
    children = {i: [] for i in range(len(sent))}
    for t, h in enumerate(sent.heads):
        if t != h:
            children[h].append(t)

    def tokens_under(n):
        out = [n]
        for c in children[n]:
            out.extend(tokens_under(c))
        return sorted(out)

    frames = {}
    for p in sent.predicate_indices:
        tags = ["O"] * len(sent)
        left_nn = [c for c in sorted(children[p]) if c < p and sent.pos[c] == "NN"]
        assert len(left_nn) <= 1
        rank_right = 0
        for c in sorted(children[p]):
            tag = sent.pos[c]
            if tag == "NN" and c < p:
                label = "A0"
            elif tag == "NN":
                rank_right += 1
                label = "A1" if rank_right == 1 else "A2"
            elif tag == "MD":
                label = "AM-MOD"
            elif tag == "IN":
                label = "AM-TMP" if c < p else "AM-LOC"
            else:
                continue
            ys = tokens_under(c)
            assert ys == list(range(ys[0], ys[-1] + 1))
            tags[ys[0]] = "B-" + label
            for t in ys[1:]:
                tags[t] = "I-" + label
        frames[p] = tuple(tags)
    return frames


def test_generator_deterministic():
    assert gen_synthetic(50, 21) == gen_synthetic(50, 21)
    assert gen_synthetic(10, 21) != gen_synthetic(10, 22)


def test_generator_rejects_an_empty_corpus():
    with pytest.raises(ConfigError, match="need n >= 1"):
        gen_synthetic(0, 21)


def test_generator_sentences_well_formed():
    for s in gen_synthetic(150, 13) + gen_synthetic(60, 14, shifted=True):
        assert sum(h == i for i, h in enumerate(s.heads)) == 1  # exactly one self-loop
        assert all(0 <= h < len(s) for h in s.heads)
        assert set(s.frames) == set(s.predicate_indices)
        for tags in s.frames.values():
            assert is_valid_bio(tags)
        assert s.predicate_indices == [t for t, p in enumerate(s.pos) if p == "VB"]


def test_generator_roles_match_tree_walk_oracle():
    for s in gen_synthetic(200, 17) + gen_synthetic(80, 18, shifted=True):
        assert s.frames == oracle_frames(s)


def test_roles_reject_an_argument_with_a_non_contiguous_yield():
    # the A0 noun at 0 governs the determiner at 3, across the verb and object
    pos, heads = ("NN", "VB", "NN", "DT"), (1, 1, 1, 0)
    with pytest.raises(EncodingError, match="non-contiguous yield under token 0"):
        roles_from_tree(pos, heads)


def test_generator_ambiguous_preps_attach_both_ways():
    verb_site, noun_site = 0, 0
    for s in gen_synthetic(1200, 23):
        for t, w in enumerate(s.tokens):
            if w.startswith("p") and int(w[1:]) in AMBIGUOUS:
                head = s.heads[t]
                if s.pos[head] == "VB":
                    verb_site += 1
                elif s.pos[head] == "NN":
                    noun_site += 1
    assert verb_site > 20 and noun_site > 20


def test_generator_cued_preps_attach_one_way():
    for s in gen_synthetic(400, 29):
        for t, w in enumerate(s.tokens):
            if not w.startswith("p"):
                continue
            idx, head_pos = int(w[1:]), s.pos[s.heads[t]]
            if idx in VERB_CUED:
                assert head_pos == "VB"
            elif idx in NOUN_CUED:
                assert head_pos == "NN"


def test_shifted_split_disjoint_content_vocab_and_longer():
    splits = gen_splits(60, 20, 20, 31)
    content = lambda corpus: {
        w for s in corpus for w in s.tokens if w[0] in ("n", "v")
    }
    in_domain = content(splits["train"]) | content(splits["dev"]) | content(splits["test"])
    assert in_domain.isdisjoint(content(splits["test-shifted"]))
    mean = lambda corpus: sum(len(s) for s in corpus) / len(corpus)
    assert mean(splits["test-shifted"]) > mean(splits["test"])


def test_pretrained_vectors_cover_vocab_and_cluster():
    vecs = pretrained_vectors(16, 3)
    words = [w for w, _ in vecs]
    assert words == full_vocabulary()
    table = dict(vecs)
    # same-class words sit nearer their own class than another class
    nn = np.mean([table[f"n{i:03d}"] for i in range(100)], axis=0)
    vb = np.mean([table[f"v{i:02d}"] for i in range(30)], axis=0)
    for i in range(0, 100, 7):
        v = table[f"n{i:03d}"]
        assert np.linalg.norm(v - nn) < np.linalg.norm(v - vb)
    again = pretrained_vectors(16, 3)
    for (w1, v1), (w2, v2) in zip(vecs, again):
        assert w1 == w2 and np.array_equal(v1, v2)
