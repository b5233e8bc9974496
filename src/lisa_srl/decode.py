"""BIO-constrained Viterbi decoding plus an exhaustive oracle decoder.

Both decoders score a tag sequence y as

    start[y_0] + (emissions[0, y_0] + (trans[y_0, y_1] + (emissions[1, y_1]
        + ... + (emissions[T-1, y_{T-1}] + end[y_{T-1}]))))

with the shown right-to-left association, and both return the
lexicographically smallest sequence of maximal score. Sharing the
association order makes equal paths bitwise-equal floats, so the two are
sequence-exact equivalents, not merely score-equal ones. `viterbi_decode`
also decodes the F frames of one sentence as one [F, T, L] stack; the
oracle and `sequence_score` take one [T, L] frame.
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
    """Label log-scores to be decoded under a transition table: one frame
    [T, L], or a stack of F frames of one sentence [F, T, L]."""

    emissions: np.ndarray
    transitions: TransitionTable

    def __post_init__(self) -> None:
        self.emissions = np.asarray(self.emissions, dtype=np.float64)
        n_labels = len(self.transitions.labels)
        if self.emissions.ndim not in (2, 3) or self.emissions.shape[-1] != n_labels:
            raise ContractError(f"emissions {self.emissions.shape} vs {n_labels} labels")
        if 0 in self.emissions.shape[:-1]:
            raise ContractError("need at least one frame of at least one token")
        if not np.all(np.isfinite(self.emissions)):
            raise ContractError("emissions must be finite")

    def frame(self) -> np.ndarray:
        if self.emissions.ndim != 2:
            raise ContractError(f"one [T, L] frame expected, got {self.emissions.shape}")
        return self.emissions


def viterbi_decode(problem: DecodeProblem):
    """Best valid tag sequence per frame: a list of tags for a [T, L]
    problem, one such list per frame for an [F, T, L] stack.

    All frames run one backward recursion: best[t, f, i] is the best suffix
    score from tag i, and back[t, f, i] the lowest-index next tag j that
    maximizes cont[t, f, i, j] = trans[i, j] + best[t + 1, f, j]. Following
    the backpointers from each frame's lowest-index best first tag gives
    its smallest optimal sequence, unless rounding while adding the prefix
    lets a smaller next tag with a slightly lower cont tie the total. A frame
    where a smaller tag comes that close anywhere is rebuilt greedily: at
    each step, the smallest tag whose best total under the prefix is the
    maximum.
    """
    e = problem.emissions if problem.emissions.ndim == 3 else problem.emissions[None]
    trans, start = problem.transitions.matrix, problem.transitions.start
    n_frames, t_len, n_labels = e.shape
    best = np.empty((t_len, n_frames, n_labels))
    cont = np.empty((t_len - 1, n_frames, n_labels, n_labels))
    back = np.empty((t_len - 1, n_frames, n_labels), dtype=np.intp)
    top = np.empty((t_len - 1, n_frames, n_labels))
    # take() at the argmax plus each row's flat offset reads the max itself
    rows = np.arange(0, n_frames * n_labels * n_labels, n_labels).reshape(n_frames, -1)
    next_best, e_t = best[:, :, None, :], e.swapaxes(0, 1)
    np.add(e_t[t_len - 1], problem.transitions.end, out=best[t_len - 1])
    for t in range(t_len - 2, -1, -1):
        step, arg = cont[t], back[t]
        np.add(trans, next_best[t + 1], out=step)
        step.argmax(axis=2, out=arg)
        np.add(e_t[t], step.take(arg + rows, out=top[t]), out=best[t])
    first = start + best[0]
    # a partial sum of any path is at most `reach` in size, so each of the
    # 2T additions of a prefix rounds by at most eps * reach
    reach = (t_len + 1) * (np.abs(e).max() + problem.transitions.magnitude)
    tol = 4 * (t_len + 1) * 2.0**-52 * reach
    near = (cont >= (top - tol)[..., None]).argmax(axis=3) < back
    near = near.any(axis=(0, 2)).tolist() if near.any() else [False] * n_frames
    seqs = []
    frames = zip(first.argmax(axis=1).tolist(), back.swapaxes(0, 1).tolist())
    for f, (tag, steps) in enumerate(frames):
        total = first[f, tag]
        if total == -np.inf:
            raise DecodeError("no valid tag sequence has finite score")
        seq = [tag]
        for t, row in enumerate(steps):
            tag = row[tag]
            if near[f]:
                acc = e[f, t, seq[t]] + cont[t, f, seq[t]]
                for s in range(t - 1, -1, -1):
                    acc = e[f, s, seq[s]] + (trans[seq[s], seq[s + 1]] + acc)
                tag = int(np.argmax(start[seq[0]] + acc == total))
            seq.append(tag)
        seqs.append(seq)
    return seqs if problem.emissions.ndim == 3 else seqs[0]


def brute_force_decode(problem: DecodeProblem) -> list[int]:
    """Exhaustive reference decoder with the same scoring and tie rules.

    Enumerates all L^T sequences in lexicographic order and keeps the
    first one attaining the maximum score, mirroring viterbi_decode's
    association order term for term.
    """
    e = problem.frame()
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
    e = problem.frame()
    t_len = e.shape[0]
    if len(seq) != t_len:
        raise ContractError(f"sequence length {len(seq)} != {t_len}")
    acc = e[t_len - 1, seq[t_len - 1]] + problem.transitions.end[seq[t_len - 1]]
    for t in range(t_len - 2, -1, -1):
        acc = e[t, seq[t]] + (problem.transitions.matrix[seq[t], seq[t + 1]] + acc)
    return float(problem.transitions.start[seq[0]] + acc)
