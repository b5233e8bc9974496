"""BIO-constrained Viterbi decoding plus an exhaustive oracle decoder.

Both decoders score a tag sequence y as

    start[y_0] + (emissions[0, y_0] + (trans[y_0, y_1] + (emissions[1, y_1]
        + ... + (emissions[T-1, y_{T-1}] + end[y_{T-1}]))))

with the shown right-to-left association. Sharing the association order
matters: equal-scoring paths produce bitwise-identical floats in both
decoders, so the lexicographic tie rule resolves identically and the two
are sequence-exact equivalents, not merely score-equal ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .corpus import TransitionTable
from .errors import ContractError, DecodeError, OracleSizeError

BRUTE_FORCE_LIMIT = 10**6


@dataclass
class DecodeProblem:
    """Per-token label log-scores to be decoded under a transition table."""

    emissions: np.ndarray  # [T, L]
    transitions: TransitionTable

    def __post_init__(self) -> None:
        self.emissions = np.asarray(self.emissions, dtype=np.float64)
        n_labels = len(self.transitions.labels)
        if self.emissions.ndim != 2 or self.emissions.shape[1] != n_labels:
            raise ContractError(
                f"emissions {self.emissions.shape} vs {n_labels} labels"
            )
        if self.emissions.shape[0] < 1:
            raise ContractError("need at least one token")
        if not np.all(np.isfinite(self.emissions)):
            raise ContractError("emissions must be finite")


def viterbi_decode(problem: DecodeProblem) -> list[int]:
    """Best valid tag sequence; ties break to the lexicographically smallest.

    The table is filled backwards (best achievable suffix score per tag),
    recording as backpointer back[t, i] the lowest-index next tag j that
    maximizes trans[i, j] + best[t + 1, j]. Following the backpointers from
    the lowest-index best first tag then gives exactly the smallest optimal
    sequence in lexicographic order.
    """
    e = problem.emissions
    trans = problem.transitions.matrix
    t_len, n_labels = e.shape
    rows = np.arange(n_labels)
    best = np.empty((t_len, n_labels))
    back = np.empty((t_len - 1, n_labels), dtype=np.intp)
    best[t_len - 1] = e[t_len - 1] + problem.transitions.end
    for t in range(t_len - 2, -1, -1):
        cont = trans + best[t + 1][None, :]
        arg = cont.argmax(axis=1)
        back[t] = arg
        best[t] = e[t] + cont[rows, arg]
    first = problem.transitions.start + best[0]
    tag = int(first.argmax())
    if first[tag] == -np.inf:
        raise DecodeError("no valid tag sequence has finite score")
    seq = [tag]
    for row in back.tolist():
        tag = row[tag]
        seq.append(tag)
    return seq


def brute_force_decode(problem: DecodeProblem) -> list[int]:
    """Exhaustive reference decoder with the same scoring and tie rules.

    Enumerates all L^T sequences in lexicographic order and keeps the
    first one attaining the maximum score, mirroring viterbi_decode's
    association order term for term.
    """
    e = problem.emissions
    trans = problem.transitions.matrix
    t_len, n_labels = e.shape
    if n_labels ** t_len > BRUTE_FORCE_LIMIT:
        raise OracleSizeError(
            f"{n_labels}^{t_len} sequences exceed the {BRUTE_FORCE_LIMIT} cap"
        )
    seqs = np.array(
        list(itertools.product(range(n_labels), repeat=t_len)), dtype=np.intp
    )
    acc = e[t_len - 1, seqs[:, t_len - 1]] + problem.transitions.end[seqs[:, t_len - 1]]
    for t in range(t_len - 2, -1, -1):
        acc = e[t, seqs[:, t]] + (trans[seqs[:, t], seqs[:, t + 1]] + acc)
    scores = problem.transitions.start[seqs[:, 0]] + acc
    if np.max(scores) == -np.inf:
        raise DecodeError("no valid tag sequence has finite score")
    return [int(y) for y in seqs[int(np.argmax(scores))]]


def sequence_score(problem: DecodeProblem, seq) -> float:
    """Score of one sequence under the shared association order."""
    e = problem.emissions
    t_len = e.shape[0]
    if len(seq) != t_len:
        raise ContractError(f"sequence length {len(seq)} != {t_len}")
    acc = e[t_len - 1, seq[t_len - 1]] + problem.transitions.end[seq[t_len - 1]]
    for t in range(t_len - 2, -1, -1):
        acc = e[t, seq[t]] + (problem.transitions.matrix[seq[t], seq[t + 1]] + acc)
    return float(problem.transitions.start[seq[0]] + acc)
