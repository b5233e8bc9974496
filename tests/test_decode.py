"""Viterbi decoding vs the exhaustive oracle, plus structural guarantees."""

import numpy as np
import pytest

from lisa_srl.corpus import (
    OUTSIDE,
    AnnotatedSentence,
    LabelSpace,
    TransitionTable,
    build_role_space,
    estimate_transitions,
    valid_successor,
)
from lisa_srl.decode import (
    BRUTE_FORCE_LIMIT,
    brute_force_decode,
    sequence_score,
    viterbi_decode,
)
from lisa_srl.errors import ContractError, DecodeError, OracleSizeError
from lisa_srl.synth import gen_synthetic

SPACE = LabelSpace(["O", "B-A0", "I-A0", "B-A1", "I-A1"])


def _transitions(seed=0):
    """A transition table estimated from a tiny synthetic frame corpus."""
    rng = np.random.default_rng(seed)
    frames = {}
    sentences = []
    for _ in range(12):
        t_len = int(rng.integers(1, 6))
        tags = []
        prev = None
        for t in range(t_len):
            options = [
                s for s in SPACE
                if (valid_successor(OUTSIDE, s) if prev is None else valid_successor(prev, s))
            ]
            prev = options[int(rng.integers(0, len(options)))]
            tags.append(prev)
        sentences.append(
            AnnotatedSentence(
                tuple(f"w{t}" for t in range(t_len)),
                tuple("NN" for _ in range(t_len)),
                tuple(0 for _ in range(t_len)),
                {0: tuple(tags)},
            )
        )
    return estimate_transitions(sentences, SPACE)


def test_problem_validation():
    table = _transitions()
    for emissions in (np.zeros((2, 3)), np.full((2, 5), np.nan), np.zeros((0, 5))):
        with pytest.raises(ContractError):
            brute_force_decode(emissions, table)
        with pytest.raises(ContractError):
            sequence_score(emissions, table, [0, 0])
        with pytest.raises(ContractError):
            viterbi_decode(emissions[None], table)


def test_single_token_never_starts_inside():
    table = _transitions()
    emissions = np.zeros((1, 5))
    emissions[0, SPACE.of("I-A0")] = 50.0
    seq = viterbi_decode(emissions[None], table)[0]
    assert SPACE.name(seq[0]) != "I-A0"
    assert seq == brute_force_decode(emissions, table)


def test_uniform_everything_decodes_all_outside():
    # uniform emissions and uniform-over-valid transitions: the tie rule
    # picks the lexicographically smallest sequence, which is all-O
    labels = SPACE
    n = len(labels)
    matrix = np.full((n, n), -np.inf)
    for i, prev in enumerate(labels):
        valid = [j for j, nxt in enumerate(labels) if valid_successor(prev, nxt)]
        matrix[i, valid] = np.log(1.0 / len(valid))
    starts = np.array([valid_successor(OUTSIDE, s) for s in labels])
    start = np.where(starts, np.log(1.0 / starts.sum()), -np.inf)
    end = np.full(n, np.log(1.0 / n))
    table = TransitionTable(labels, matrix, start, end)
    # uniform transition rows are not what estimation produces, but they
    # are structurally valid for decoding purposes
    seq = viterbi_decode(np.zeros((1, 4, n)), table)[0]
    assert [SPACE.name(i) for i in seq] == ["O", "O", "O", "O"]


def test_never_emits_invalid_transitions():
    table = _transitions(3)
    rng = np.random.default_rng(4)
    for _ in range(200):
        t_len = int(rng.integers(1, 7))
        emissions = rng.normal(0, 3, size=(t_len, 5))
        seq = [SPACE.name(i) for i in viterbi_decode(emissions[None], table)[0]]
        assert valid_successor(OUTSIDE, seq[0])
        for prev, nxt in zip(seq, seq[1:]):
            assert valid_successor(prev, nxt)


def test_matches_brute_force_on_random_instances():
    table = _transitions(5)
    rng = np.random.default_rng(6)
    for _ in range(300):
        t_len = int(rng.integers(1, 7))
        emissions = rng.normal(0, 2, size=(t_len, 5))
        assert viterbi_decode(emissions[None], table)[0] == brute_force_decode(emissions, table)


def test_matches_brute_force_on_tie_heavy_grid():
    # emissions on a coarse 0.5 grid manufacture many exact ties
    table = _transitions(7)
    rng = np.random.default_rng(8)
    for _ in range(300):
        t_len = int(rng.integers(1, 6))
        emissions = 0.5 * rng.integers(-2, 3, size=(t_len, 5)).astype(float)
        assert viterbi_decode(emissions[None], table)[0] == brute_force_decode(emissions, table)


def test_matches_brute_force_when_whole_rows_are_unreachable():
    # extra -inf entries in start, end and transitions make whole rows of
    # trans + best[t + 1] -inf, where every entry ties at -inf
    base = _transitions(15)
    rng = np.random.default_rng(16)
    dead_rows = decoded = 0
    for _ in range(300):
        table = TransitionTable(
            SPACE,
            np.where(rng.random((5, 5)) < 0.4, -np.inf, base.matrix),
            np.where(rng.random(5) < 0.3, -np.inf, base.start),
            np.where(rng.random(5) < 0.3, -np.inf, base.end),
        )
        t_len = int(rng.integers(2, 6))
        emissions = rng.normal(0, 2, size=(t_len, 5))
        dead_rows += np.isneginf(table.matrix + table.end).all(axis=1).any()
        try:
            expected = brute_force_decode(emissions, table)
        except DecodeError:
            with pytest.raises(DecodeError):
                viterbi_decode(emissions[None], table)
            continue
        assert viterbi_decode(emissions[None], table)[0] == expected
        decoded += 1
    assert dead_rows >= 100 and decoded >= 100


@pytest.mark.parametrize("n_frames", [1, 2, 3])
def test_frame_stack_matches_brute_force_per_frame(n_frames):
    # one recursion over F frames gives each frame's oracle sequence, on a
    # tie-heavy grid with extra -inf entries in start, end and transitions
    base = _transitions(17)
    rng = np.random.default_rng(18 + n_frames)
    decoded = refused = 0
    for t_len in range(1, 6):
        for _ in range(40):
            dead = rng.random() < 0.5
            table = TransitionTable(
                SPACE,
                np.where(dead & (rng.random((5, 5)) < 0.4), -np.inf, base.matrix),
                np.where(dead & (rng.random(5) < 0.3), -np.inf, base.start),
                np.where(dead & (rng.random(5) < 0.3), -np.inf, base.end),
            )
            stack = 0.5 * rng.integers(-2, 3, size=(n_frames, t_len, 5)).astype(float)
            try:
                expected = [brute_force_decode(e, table) for e in stack]
            except DecodeError:
                with pytest.raises(DecodeError):
                    viterbi_decode(stack, table)
                refused += 1
                continue
            assert viterbi_decode(stack, table) == expected
            assert [viterbi_decode(e[None], table)[0] for e in stack] == expected
            decoded += 1
    assert decoded >= 100 and refused >= 5


def test_frame_stack_validation_and_per_frame_oracles():
    table = _transitions()
    for shape in [(0, 3, 5), (2, 0, 5), (2, 3, 4), (1, 1, 2, 5), (3, 5)]:
        with pytest.raises(ContractError):
            viterbi_decode(np.zeros(shape), table)
    stack = np.zeros((2, 3, 5))
    with pytest.raises(ContractError):
        brute_force_decode(stack, table)
    with pytest.raises(ContractError):
        sequence_score(stack, table, [0, 0, 0])


def test_sequence_score_needs_one_tag_per_token():
    with pytest.raises(ContractError, match=r"^sequence length 2 != 3$"):
        sequence_score(np.zeros((3, 5)), _transitions(), [0, 0])


def test_frames_of_other_sentences_stacked_decode_to_their_own_tags():
    # a corpus decode may stack every frame of one length into one call; a
    # loud companion frame widens the stack's near-tie tolerance, so the
    # frames with gaps of 1e-10 go to the greedy rebuild there and not alone
    corpus = gen_synthetic(80, 4)
    table = estimate_transitions(corpus, build_role_space(corpus))
    rng = np.random.default_rng(16)
    n_labels = len(table.labels)
    for t_len in (1, 2, 5, 9):
        frames = [rng.normal(scale=s, size=(t_len, n_labels)) for s in (0.5, 4.0) for _ in range(6)]
        frames = [f - np.log(np.exp(f).sum(axis=1, keepdims=True)) for f in frames]
        frames += [np.round(f) for f in frames[:6]]  # exact ties
        for i, row in enumerate(table.matrix):  # from tag i, tag j next scores 1e-10 * j
            gaps = np.where(np.isfinite(row), 1e-10 * np.arange(n_labels) - row - table.end, 0.0)
            frames.append(np.vstack([frames[i % 12][:-1], gaps]))
        alone = [viterbi_decode(f[None], table)[0] for f in frames]
        assert viterbi_decode(np.stack(frames), table) == alone
        loud = -1e6 * rng.random((1, t_len, n_labels))
        assert viterbi_decode(np.concatenate([np.stack(frames), loud]), table)[:-1] == alone


def test_constant_shift_invariance():
    table = _transitions(9)
    rng = np.random.default_rng(10)
    for _ in range(50):
        emissions = rng.normal(size=(5, 5))
        base = viterbi_decode(emissions[None], table)[0]
        shifted = viterbi_decode(emissions[None] + 7.25, table)[0]
        assert base == shifted


def test_brute_force_size_cap():
    table = _transitions()
    t_len = 9  # 5^9 ~ 1.95e6 sequences
    assert 5 ** t_len > BRUTE_FORCE_LIMIT
    with pytest.raises(OracleSizeError):
        brute_force_decode(np.zeros((t_len, 5)), table)


def test_brute_force_beats_random_valid_sequences():
    table = _transitions(11)
    rng = np.random.default_rng(12)
    emissions = rng.normal(size=(5, 5))
    best = brute_force_decode(emissions, table)
    best_score = sequence_score(emissions, table, best)
    for _ in range(100):
        seq = []
        prev = None
        for _t in range(5):
            options = [
                j for j, s in enumerate(SPACE)
                if (valid_successor(OUTSIDE, s) if prev is None else valid_successor(prev, s))
            ]
            choice = int(rng.choice(options))
            seq.append(choice)
            prev = SPACE.name(choice)
        assert best_score >= sequence_score(emissions, table, seq)


def test_viterbi_optimal_score_matches_brute_force_score():
    table = _transitions(13)
    rng = np.random.default_rng(14)
    for _ in range(50):
        emissions = rng.normal(size=(4, 5))
        v = sequence_score(emissions, table, viterbi_decode(emissions[None], table)[0])
        b = sequence_score(emissions, table, brute_force_decode(emissions, table))
        assert v == b
