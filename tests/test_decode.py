"""Viterbi decoding vs the exhaustive oracle, plus structural guarantees."""

import numpy as np
import pytest

from lisa_srl.corpus import (
    AnnotatedSentence,
    LabelSpace,
    TransitionTable,
    estimate_transitions,
    valid_start,
    valid_successor,
)
from lisa_srl.decode import (
    BRUTE_FORCE_LIMIT,
    DecodeProblem,
    brute_force_decode,
    sequence_score,
    viterbi_decode,
)
from lisa_srl.errors import ContractError, DecodeError, OracleSizeError

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
                if (valid_start(s) if prev is None else valid_successor(prev, s))
            ]
            prev = options[int(rng.integers(0, len(options)))]
            tags.append(prev)
        sentences.append(
            AnnotatedSentence(
                tuple(f"w{t}" for t in range(t_len)),
                tuple("NN" for _ in range(t_len)),
                tuple(0 for _ in range(t_len)),
                tuple(t == 0 for t in range(t_len)),
                {0: tuple(tags)},
            )
        )
    return estimate_transitions(sentences, SPACE)


def test_problem_validation():
    table = _transitions()
    with pytest.raises(ContractError):
        DecodeProblem(np.zeros((2, 3)), table)
    with pytest.raises(ContractError):
        DecodeProblem(np.full((2, 5), np.nan), table)
    with pytest.raises(ContractError):
        DecodeProblem(np.zeros((0, 5)), table)


def test_single_token_never_starts_inside():
    table = _transitions()
    emissions = np.zeros((1, 5))
    emissions[0, SPACE.of("I-A0")] = 50.0
    seq = viterbi_decode(DecodeProblem(emissions, table))
    assert SPACE.name(seq[0]) != "I-A0"
    assert seq == brute_force_decode(DecodeProblem(emissions, table))


def test_uniform_everything_decodes_all_outside():
    # uniform emissions and uniform-over-valid transitions: the tie rule
    # picks the lexicographically smallest sequence, which is all-O
    labels = SPACE
    n = len(labels)
    matrix = np.full((n, n), -np.inf)
    for i, prev in enumerate(labels):
        valid = [j for j, nxt in enumerate(labels) if valid_successor(prev, nxt)]
        matrix[i, valid] = np.log(1.0 / len(valid))
    starts = np.array([valid_start(s) for s in labels])
    start = np.where(starts, np.log(1.0 / starts.sum()), -np.inf)
    end = np.full(n, np.log(1.0 / n))
    table = TransitionTable(labels, matrix, start, end)
    # uniform transition rows are not what estimation produces, but they
    # are structurally valid for decoding purposes
    seq = viterbi_decode(DecodeProblem(np.zeros((4, n)), table))
    assert [SPACE.name(i) for i in seq] == ["O", "O", "O", "O"]


def test_never_emits_invalid_transitions():
    table = _transitions(3)
    rng = np.random.default_rng(4)
    for _ in range(200):
        t_len = int(rng.integers(1, 7))
        emissions = rng.normal(0, 3, size=(t_len, 5))
        seq = [SPACE.name(i) for i in viterbi_decode(DecodeProblem(emissions, table))]
        assert valid_start(seq[0])
        for prev, nxt in zip(seq, seq[1:]):
            assert valid_successor(prev, nxt)


def test_matches_brute_force_on_random_instances():
    table = _transitions(5)
    rng = np.random.default_rng(6)
    for _ in range(300):
        t_len = int(rng.integers(1, 7))
        emissions = rng.normal(0, 2, size=(t_len, 5))
        problem = DecodeProblem(emissions, table)
        assert viterbi_decode(problem) == brute_force_decode(problem)


def test_matches_brute_force_on_tie_heavy_grid():
    # emissions on a coarse 0.5 grid manufacture many exact ties
    table = _transitions(7)
    rng = np.random.default_rng(8)
    for _ in range(300):
        t_len = int(rng.integers(1, 6))
        emissions = 0.5 * rng.integers(-2, 3, size=(t_len, 5)).astype(float)
        problem = DecodeProblem(emissions, table)
        assert viterbi_decode(problem) == brute_force_decode(problem)


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
        problem = DecodeProblem(rng.normal(0, 2, size=(t_len, 5)), table)
        dead_rows += np.isneginf(table.matrix + table.end).all(axis=1).any()
        try:
            expected = brute_force_decode(problem)
        except DecodeError:
            with pytest.raises(DecodeError):
                viterbi_decode(problem)
            continue
        assert viterbi_decode(problem) == expected
        decoded += 1
    assert dead_rows >= 100 and decoded >= 100


def test_constant_shift_invariance():
    table = _transitions(9)
    rng = np.random.default_rng(10)
    for _ in range(50):
        emissions = rng.normal(size=(5, 5))
        base = viterbi_decode(DecodeProblem(emissions, table))
        shifted = viterbi_decode(DecodeProblem(emissions + 7.25, table))
        assert base == shifted


def test_brute_force_size_cap():
    table = _transitions()
    t_len = 9  # 5^9 ~ 1.95e6 sequences
    assert 5 ** t_len > BRUTE_FORCE_LIMIT
    with pytest.raises(OracleSizeError):
        brute_force_decode(DecodeProblem(np.zeros((t_len, 5)), table))


def test_brute_force_beats_random_valid_sequences():
    table = _transitions(11)
    rng = np.random.default_rng(12)
    emissions = rng.normal(size=(5, 5))
    problem = DecodeProblem(emissions, table)
    best = brute_force_decode(problem)
    best_score = sequence_score(problem, best)
    for _ in range(100):
        seq = []
        prev = None
        for _t in range(5):
            options = [
                j for j, s in enumerate(SPACE)
                if (valid_start(s) if prev is None else valid_successor(prev, s))
            ]
            choice = int(rng.choice(options))
            seq.append(choice)
            prev = SPACE.name(choice)
        assert best_score >= sequence_score(problem, seq)


def test_viterbi_optimal_score_matches_brute_force_score():
    table = _transitions(13)
    rng = np.random.default_rng(14)
    for _ in range(50):
        emissions = rng.normal(size=(4, 5))
        problem = DecodeProblem(emissions, table)
        v = sequence_score(problem, viterbi_decode(problem))
        b = sequence_score(problem, brute_force_decode(problem))
        assert v == b
