"""Annotated sentences, BIO span coding, label spaces and tag transitions.

File format (one token per line, blank line between sentences):

    word <TAB> pos <TAB> head <TAB> predicate-marker <TAB> bio_1 ... bio_k

Heads are 0-based token indices within the sentence; the root points at
itself. The predicate marker is "Y" or "-". There is one BIO column per
predicate, ordered by predicate position. Extra columns that are entirely
"O" are tolerated on input and dropped. Columns may be separated by any
whitespace; the writer emits tabs, one string per sentence.

The reader transposes a sentence's rows once and converts and checks whole
columns. Sentences are checked in file order. Within one, a ragged row is
reported first, then the first line with a bad head index or predicate
marker (on one line, the head index first), then the BIO columns (in
each, a malformed tag before the BIO rule), then, unless repairing, a
root count other than one and last a cycle of heads: gold heads must
form a tree. Any error a reader raises begins with its path.

One rule, `valid_successor`, says that I-X may only follow B-X or I-X, with
OUTSIDE before the first tag. Spans, repairs and the transition table are
built on it; the reader's `is_valid_bio` is its fast form.
"""

from __future__ import annotations

import functools
import io
import itertools
import struct
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CorpusFormatError, EncodingError, EstimationError, LisaError

OUTSIDE = "O"
PREDICATE_SUFFIX = ":predicate"


@dataclass(frozen=True)
class RoleSpan:
    """A labeled argument span; start and end are inclusive token indices."""

    start: int
    end: int
    label: str

    def __post_init__(self) -> None:
        if self.start > self.end or self.start < 0:
            raise EncodingError(f"bad span bounds ({self.start}, {self.end})")


@dataclass(frozen=True)
class AnnotatedSentence:
    """One sentence with POS tags, dependency heads and frames.

    All parallel sequences have length T. `heads[t]` is the parent of token
    t, with the root marked by a self-loop. `frames` maps each predicate's
    token index to that predicate's BIO role sequence over all T tokens, so
    its keys are the sentence's predicates.
    """

    tokens: tuple[str, ...]
    pos: tuple[str, ...]
    heads: tuple[int, ...]
    frames: dict[int, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        t = len(self.tokens)
        if not (len(self.pos) == len(self.heads) == t):
            raise CorpusFormatError("parallel sequences differ in length")
        for h in self.heads:
            if not 0 <= h < t:
                raise CorpusFormatError(f"head index {h} outside [0, {t})")
        for k, tags in self.frames.items():
            if type(k) is not int or not 0 <= k < t:
                raise CorpusFormatError(f"frame key {k!r} is not a token index in [0, {t})")
            if len(tags) != t:
                raise CorpusFormatError(f"frame at {k} has length {len(tags)} != {t}")

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def predicate_indices(self) -> list[int]:
        return sorted(self.frames)


class LabelSpace:
    """Bijective label-string <-> dense-index map with contiguous indices."""

    def __init__(self, labels: Iterable[str]) -> None:
        self.labels: tuple[str, ...] = tuple(labels)
        self.index: dict[str, int] = {s: i for i, s in enumerate(self.labels)}
        if len(self.index) != len(self.labels):
            raise CorpusFormatError("duplicate labels in label space")

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __eq__(self, other) -> bool:
        return isinstance(other, LabelSpace) and self.labels == other.labels

    def of(self, label: str) -> int:
        return self.index[label]

    def name(self, idx: int) -> str:
        return self.labels[idx]


# ---------------------------------------------------------------------------
# BIO coding


def _split_tag(tag: str) -> tuple[str, str]:
    if tag == OUTSIDE:
        return OUTSIDE, ""
    if len(tag) > 2 and tag[1] == "-" and tag[0] in "BI":
        return tag[0], tag[2:]
    raise CorpusFormatError(f"malformed BIO tag {tag!r}")


def valid_successor(prev: str, tag: str) -> bool:
    """The BIO rule: I-X may only follow B-X or I-X. OUTSIDE stands before
    the first tag, so no sequence starts with I-X."""
    prefix, label = _split_tag(tag)
    return prefix != "I" or _split_tag(prev)[1] == label


def is_valid_bio(tags: Sequence[str]) -> bool:
    """The fast form of `all(map(valid_successor, (OUTSIDE, *tags), tags))`."""
    prev_label = None
    for tag in tags:
        if tag == OUTSIDE:
            prev_label = None
            continue
        prefix, label = _split_tag(tag)
        if prefix == "I" and label != prev_label:
            return False
        prev_label = label
    return True


def spans_to_bio(spans: Sequence[RoleSpan], length: int) -> tuple[str, ...]:
    """Encode non-overlapping spans as a BIO sequence of the given length."""
    tags = [OUTSIDE] * length
    for span in spans:
        if span.end >= length:
            raise EncodingError(f"span {span} exceeds sentence length {length}")
        for t in range(span.start, span.end + 1):
            if tags[t] != OUTSIDE:
                raise EncodingError(f"overlapping spans at token {t}")
            tags[t] = ("B-" if t == span.start else "I-") + span.label
    return tuple(tags)


def bio_to_spans(tags: Sequence[str]) -> list[RoleSpan]:
    """Decode BIO tags to spans. A span opens at each B-X and at each I-X
    that is not a valid successor, which is read as B-X: evaluation consumes
    arbitrary model output, so repair beats rejection."""
    spans: list[list] = []  # [start, end, label]
    for i, (prev, tag) in enumerate(zip((OUTSIDE, *tags), tags)):
        prefix, label = _split_tag(tag)
        if prefix == "I" and valid_successor(prev, tag):
            spans[-1][1] = i
        elif prefix != OUTSIDE:
            spans.append([i, i, label])
    return [RoleSpan(*span) for span in spans]


def repair_bio(tags: Sequence[str]) -> tuple[tuple[str, ...], int]:
    """Rewrite each I-X that is not a valid successor as B-X; returns the
    tags and how many were rewritten."""
    bare = [not valid_successor(prev, tag) for prev, tag in zip((OUTSIDE, *tags), tags)]
    return tuple("B" + tag[1:] if b else tag for tag, b in zip(tags, bare)), sum(bare)


# ---------------------------------------------------------------------------
# Corpus files

PRED_MARK = "Y"
NO_PRED_MARK = "-"
MARKS = frozenset((PRED_MARK, NO_PRED_MARK))


def names_its_file(read):
    """Prefix `<path>: ` to any LisaError of `read`, whose first argument is a path."""

    @functools.wraps(read)
    def reader(path, *args, **kwargs):
        try:
            return read(path, *args, **kwargs)
        except LisaError as err:
            raise type(err)(f"{path}: {err}") from None

    return reader


def text_lines(path) -> Iterator[tuple[int, str]]:
    """Numbered lines, from 1, of a UTF-8 text file; bytes not UTF-8 are a format error."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as err:
        line = blob.count(b"\n", 0, err.start) + 1
        raise CorpusFormatError(f"line {line}: not UTF-8") from None
    return enumerate(io.StringIO(text, newline=None), 1)


def read_conll(path, *, repair: bool = False) -> list[AnnotatedSentence]:
    sentences, _ = read_conll_counted(path, repair=repair)
    return sentences


@names_its_file
def read_conll_counted(
    path, *, repair: bool = False
) -> tuple[list[AnnotatedSentence], int]:
    """Read a corpus file; with repair=True, ill-formed BIO columns are
    repaired (I-X -> B-X) instead of rejected and the repair count returned.
    """
    sentences: list[AnnotatedSentence] = []
    total_repairs = 0
    rows: list[list[str]] = []  # the current sentence's lines, split
    # a blank line ends each sentence, and so does the end of the file
    for lineno, raw in itertools.chain(text_lines(path), [(0, "")]):
        cols = raw.split()
        if cols:
            if len(cols) < 4:
                raise CorpusFormatError(f"line {lineno}: expected >= 4 columns")
            if not rows:
                first_line = lineno
            rows.append(cols)
        elif rows:
            sent, repairs = _sentence_from_rows(first_line, rows, repair)
            sentences.append(sent)
            total_repairs += repairs
            rows = []
    return sentences, total_repairs


def _sentence_from_rows(
    first_line: int, rows: list[list[str]], repair: bool
) -> tuple[AnnotatedSentence, int]:
    """One sentence from the split lines from `first_line` on, and its BIO
    repair count; faults are reported as the module docstring describes."""
    width, t = len(rows[0]), len(rows)
    if len(set(map(len, rows))) > 1:
        i = next(i for i, cols in enumerate(rows) if len(cols) != width)
        raise CorpusFormatError(
            f"line {first_line + i}: ragged columns ({len(rows[i])} vs {width})"
        )
    tokens, pos, head_col, marks, *bio = zip(*rows)
    try:
        heads = tuple(map(int, head_col))
        ok = MARKS.issuperset(marks) and 0 <= min(heads) and max(heads) < t
    except ValueError:
        ok = False
    if not ok:  # name the first line with a bad head index or marker
        for lineno, head, mark in zip(range(first_line, first_line + t), head_col, marks):
            try:
                h = int(head)
            except ValueError:
                raise CorpusFormatError(f"line {lineno}: bad head index {head!r}")
            if not 0 <= h < t:
                raise CorpusFormatError(f"line {lineno}: head index {h} outside [0, {t})")
            if mark not in MARKS:
                raise CorpusFormatError(
                    f"line {lineno}: predicate marker must be Y or -, got {mark!r}"
                )
    pred_idx = [i for i, m in enumerate(marks) if m == PRED_MARK]
    if len(bio) < len(pred_idx):
        raise CorpusFormatError(
            f"line {first_line}: {len(pred_idx)} predicates but only {len(bio)} BIO columns"
        )
    repairs = 0
    frames: dict[int, tuple[str, ...]] = {}
    for k, (pidx, col) in enumerate(zip(pred_idx, bio)):
        try:
            if is_valid_bio(col):
                frames[pidx] = col
                continue
        except CorpusFormatError:  # a malformed tag, whose line is found below
            pass
        for lineno, tag in enumerate(col, first_line):
            try:
                _split_tag(tag)
            except CorpusFormatError as err:
                raise CorpusFormatError(f"line {lineno}: {err}") from None
        if not repair:
            raise CorpusFormatError(f"line {first_line}: ill-formed BIO in frame column {k}")
        frames[pidx], n = repair_bio(col)
        repairs += n
    # extra columns are tolerated only when entirely O
    for k in range(len(pred_idx), len(bio)):
        if set(bio[k]) != {OUTSIDE}:
            raise CorpusFormatError(
                f"line {first_line}: BIO column {k} has no matching predicate"
            )
    fault = None if repair else _tree_fault(tokens, heads)
    if fault:
        raise CorpusFormatError(f"line {first_line}: {fault}")
    return AnnotatedSentence(tokens, pos, heads, frames), repairs


def _tree_fault(tokens, heads) -> str | None:
    """Why `heads` are not a tree, or None: a root count other than one,
    else a cycle, named by a token on it. One pass: the walk up from each
    token stops at the root or at a token an earlier walk has marked."""
    walk_of = [-1 if h == t else None for t, h in enumerate(heads)]  # -1: a root
    if walk_of.count(-1) != 1:
        return f"expected one self-loop root, found {walk_of.count(-1)}"
    for start in range(len(heads)):
        t = start
        while walk_of[t] is None:
            walk_of[t] = start
            t = heads[t]
        if walk_of[t] == start:  # back on this walk's own path
            return f"heads form a cycle through token {t} ({tokens[t]!r})"
    return None


def write_conll(path, sentences: Iterable[AnnotatedSentence]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sent in sentences:
            marks = [PRED_MARK if t in sent.frames else NO_PRED_MARK for t in range(len(sent))]
            columns = [sent.tokens, sent.pos, map(str, sent.heads), marks]
            columns.extend(sent.frames[p] for p in sent.predicate_indices)
            # one line per token, then the blank line that ends the sentence
            fh.write("\n".join([*map("\t".join, zip(*columns)), ""]) + "\n")


@names_its_file
def read_heads_file(path) -> list[list[int]]:
    """External parses: one sentence per line, space-separated head indices."""
    out: list[list[int]] = []
    for lineno, raw in text_lines(path):
        line = raw.strip()
        if not line:
            continue
        try:
            out.append([int(x) for x in line.split()])
        except ValueError:
            raise CorpusFormatError(f"line {lineno}: bad head index")
    return out


def write_heads_file(path, heads: Iterable[Sequence[int]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for hs in heads:
            fh.write(" ".join(str(h) for h in hs) + "\n")


# ---------------------------------------------------------------------------
# Binary files


class BlobReader:
    """Bounds-checked little-endian reads over the bytes of a binary file:
    a short read or non-UTF-8 text raises CorpusFormatError naming the field.
    """

    def __init__(self, blob: bytes, kind: str) -> None:
        self.blob, self.kind, self.offset = blob, kind, 0

    @property
    def remaining(self) -> int:
        return len(self.blob) - self.offset

    def _advance(self, n: int, what: str) -> int:
        """Claim the next n bytes; returns where they start."""
        if n > self.remaining:
            raise CorpusFormatError(
                f"truncated {self.kind}: {what} needs {n} bytes at offset"
                f" {self.offset}, {self.remaining} left"
            )
        self.offset += n
        return self.offset - n

    def take(self, n: int, what: str) -> bytes:
        return self.blob[self._advance(n, what) : self.offset]

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack_from(fmt, self.blob, self._advance(struct.calcsize(fmt), what))

    def text(self, n: int, what: str) -> str:
        try:
            return self.take(n, what).decode("utf-8")
        except UnicodeDecodeError:
            raise CorpusFormatError(f"{self.kind}: {what} is not UTF-8") from None

    def floats(self, dtype: str, count: int, what: str) -> np.ndarray:
        """`count` values of `dtype`, widened to float64."""
        start = self._advance(count * np.dtype(dtype).itemsize, what)
        return np.frombuffer(self.blob, dtype, count, start).astype(np.float64)


# ---------------------------------------------------------------------------
# Label spaces


def build_role_space(corpus: Sequence[AnnotatedSentence]) -> LabelSpace:
    """All BIO tags observed in frames; O is always present at index 0."""
    seen = set()
    for sent in corpus:
        for tags in sent.frames.values():
            seen.update(tags)
    seen.discard(OUTSIDE)
    return LabelSpace([OUTSIDE] + sorted(seen))


def build_joint_pos_pred_space(corpus: Sequence[AnnotatedSentence]) -> LabelSpace:
    """POS tags plus a TAG:predicate twin for each tag seen on a predicate."""
    plain = set()
    composed = set()
    for sent in corpus:
        for t, tag in enumerate(sent.pos):
            plain.add(tag)
            if t in sent.frames:
                composed.add(tag + PREDICATE_SUFFIX)
    return LabelSpace(sorted(plain) + sorted(composed))


# ---------------------------------------------------------------------------
# Transition table


@dataclass
class TransitionTable:
    """Log-prob bigram model over BIO tags with structural -inf entries.

    `matrix[i, j]` is log P(next=j | prev=i); structurally invalid moves are
    -inf regardless of counts, and each row's valid entries sum to 1 after
    exponentiation. `start` and `end` are log-prob vectors over which tag
    opens and closes a sequence.
    """

    labels: LabelSpace
    matrix: np.ndarray
    start: np.ndarray
    end: np.ndarray

    @functools.cached_property
    def magnitude(self) -> float:  # the largest finite |log-prob|
        values = np.concatenate([self.matrix.ravel(), self.start, self.end])
        return float(np.abs(values[np.isfinite(values)]).max(initial=0.0))


def allowed_moves(role_space: LabelSpace) -> np.ndarray:
    """The BIO rule as an [L + 1, L] mask: row 0 tells which tags may open a
    sequence (OUTSIDE stands before the first), row i + 1 which may follow
    tag i. A malformed tag raises."""
    tags = role_space.labels
    allowed = [valid_successor(prev, tag) for prev in (OUTSIDE, *tags) for tag in tags]
    return np.array(allowed, dtype=bool).reshape(len(tags) + 1, len(tags))


def estimate_transitions(
    corpus: Sequence[AnnotatedSentence], role_space: LabelSpace
) -> TransitionTable:
    """Relative-frequency bigrams with add-one smoothing over valid moves.

    Smoothing keeps unseen-but-structurally-valid transitions reachable at
    decode time; invalid transitions stay -inf no matter what the counts say.
    """
    n = len(role_space)
    bigram = np.zeros((n, n))
    start_count = np.zeros(n)
    end_count = np.zeros(n)
    n_frames = 0
    for sent in corpus:
        for tags in sent.frames.values():
            n_frames += 1
            idx = [role_space.of(t) for t in tags]
            start_count[idx[0]] += 1
            end_count[idx[-1]] += 1
            for a, b in zip(idx, idx[1:]):
                bigram[a, b] += 1
    if n_frames == 0:
        raise EstimationError("no frames in corpus; cannot estimate transitions")

    # row 0 opens a sequence, row i + 1 follows tag i, as in `allowed_moves`;
    # the counts are whole numbers, so each row's masked total is exact
    allowed = allowed_moves(role_space)
    smoothed = np.vstack([start_count, bigram]) + 1.0
    totals = np.where(allowed, smoothed, 0.0).sum(axis=1, keepdims=True)
    table = np.where(allowed, np.log(smoothed / totals), -np.inf)
    start, matrix = table[0], table[1:]

    # any tag may end a sequence
    end = np.log((end_count + 1.0) / (end_count.sum() + n))
    return TransitionTable(role_space, matrix, start, end)


# ---------------------------------------------------------------------------
# Vocabulary


def vocabulary(corpus: Sequence[AnnotatedSentence]) -> list[str]:
    return sorted({w for sent in corpus for w in sent.tokens})
