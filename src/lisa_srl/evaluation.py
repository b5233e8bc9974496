"""Metrics over predicted corpora.

Span-level SRL precision/recall/F1 under predicted predicates, token-level
predicate detection, unlabeled attachment score for dependency heads, and
F1 bucketed by sentence length. A predicted argument span earns credit only
on an exact match: same predicate token, same start, same end, same label.
Precision is defined as 0 when there are no predictions, so downstream code
never divides by zero.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

from .corpus import AnnotatedSentence, bio_to_spans
from .errors import AlignmentError, ConfigError

FLOAT_FORMAT = "%.17g"
DEFAULT_EDGES = (0, 10, 20, 30, 40)


@dataclass(frozen=True)
class Counts:
    """True positives, false positives and false negatives."""

    tp: int = 0
    fp: int = 0
    fn: int = 0

    def __add__(self, other: "Counts") -> "Counts":
        return Counts(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)

    def prf(self) -> tuple[float, float, float]:
        p = self.tp / (self.tp + self.fp) if self.tp + self.fp > 0 else 0.0
        r = self.tp / (self.tp + self.fn) if self.tp + self.fn > 0 else 0.0
        f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
        return p, r, f1


@dataclass(frozen=True)
class BucketMetrics:
    """SRL metrics restricted to sentences whose length falls in (lo, hi]."""

    lo: int
    hi: float
    counts: Counts
    f1: float
    support: int

    @property
    def empty(self) -> bool:
        return self.support == 0

    def label(self) -> str:
        hi = "inf" if self.hi == float("inf") else str(int(self.hi))
        return f"len_{self.lo + 1}_{hi}"


@dataclass(frozen=True)
class MetricsReport:
    srl: tuple[float, float, float]
    predicate: tuple[float, float, float]
    uas: float
    buckets: list[BucketMetrics]
    bio_repairs: int = 0


def _check_aligned(gold: Sequence[AnnotatedSentence],
                   predicted: Sequence[AnnotatedSentence]) -> None:
    if len(gold) != len(predicted):
        raise AlignmentError(
            f"gold has {len(gold)} sentences, predictions have {len(predicted)}"
        )
    for i, (g, p) in enumerate(zip(gold, predicted)):
        if g.tokens != p.tokens:
            raise AlignmentError(f"sentence {i}: token mismatch between gold and prediction")


def frame_spans(sentence: AnnotatedSentence) -> set[tuple[int, int, int, str]]:
    """All (predicate index, start, end, label) argument spans of a sentence."""
    out = set()
    for pred, tags in sentence.frames.items():
        for span in bio_to_spans(tags):
            out.add((pred, span.start, span.end, span.label))
    return out


def _set_counts(gold: Sequence[AnnotatedSentence],
                predicted: Sequence[AnnotatedSentence], items) -> Counts:
    """Counts of the `items(sentence)` sets, matched sentence by sentence."""
    _check_aligned(gold, predicted)
    total = Counts()
    for g, p in zip(gold, predicted):
        gs, ps = items(g), items(p)
        total += Counts(len(gs & ps), len(ps - gs), len(gs - ps))
    return total


def srl_counts(gold: Sequence[AnnotatedSentence],
               predicted: Sequence[AnnotatedSentence]) -> Counts:
    return _set_counts(gold, predicted, frame_spans)


def srl_prf(gold: Sequence[AnnotatedSentence],
            predicted: Sequence[AnnotatedSentence]) -> tuple[float, float, float]:
    """Span-exact SRL P/R/F1; spurious predicates count as false positives."""
    return srl_counts(gold, predicted).prf()


def predicate_prf(gold: Sequence[AnnotatedSentence],
                  predicted: Sequence[AnnotatedSentence]) -> tuple[float, float, float]:
    """Token-level predicate detection P/R/F1."""
    return _set_counts(gold, predicted, lambda s: set(s.predicate_indices)).prf()


def uas(gold_heads: Sequence[int], predicted_heads: Sequence[int]) -> float:
    """Fraction of tokens whose predicted head matches gold (root = self-loop)."""
    if len(gold_heads) != len(predicted_heads):
        raise AlignmentError(
            f"{len(gold_heads)} gold heads vs {len(predicted_heads)} predicted"
        )
    if len(gold_heads) == 0:
        raise AlignmentError("uas over an empty sequence")
    hits = sum(int(g == p) for g, p in zip(gold_heads, predicted_heads))
    return hits / len(gold_heads)


def corpus_uas(gold: Sequence[AnnotatedSentence],
               predicted: Sequence[AnnotatedSentence]) -> float:
    """Token-micro UAS across a corpus; punctuation tokens are included."""
    _check_aligned(gold, predicted)
    flat_g = [h for s in gold for h in s.heads]
    flat_p = [h for s in predicted for h in s.heads]
    return uas(flat_g, flat_p)


def bucket_by_length(
    gold: Sequence[AnnotatedSentence],
    predicted: Sequence[AnnotatedSentence],
    edges: Sequence[int] = DEFAULT_EDGES,
) -> list[BucketMetrics]:
    """SRL F1 restricted to sentence-length ranges (edges[i], edges[i+1]].

    The final bucket is open-ended. Buckets with no gold sentences report
    F1 = 0 with support 0 and are marked empty.
    """
    if list(edges) != sorted(set(edges)) or not edges:
        raise ConfigError(f"bucket edges must be ascending and distinct: {edges}")
    _check_aligned(gold, predicted)
    bounds = [(edges[i], float(edges[i + 1]) if i + 1 < len(edges) else float("inf"))
              for i in range(len(edges))]
    out = []
    for lo, hi in bounds:
        members = [i for i, g in enumerate(gold) if lo < len(g) <= hi]
        counts = srl_counts([gold[i] for i in members], [predicted[i] for i in members])
        _, _, f1 = counts.prf()
        out.append(BucketMetrics(lo, hi, counts, f1, len(members)))
    return out


def evaluate_corpus(
    gold: Sequence[AnnotatedSentence],
    predicted: Sequence[AnnotatedSentence],
    edges: Sequence[int] = DEFAULT_EDGES,
    bio_repairs: int = 0,
) -> MetricsReport:
    """Assemble the full metrics report for a predicted corpus."""
    return MetricsReport(
        srl=srl_prf(gold, predicted),
        predicate=predicate_prf(gold, predicted),
        uas=corpus_uas(gold, predicted),
        buckets=bucket_by_length(gold, predicted, edges),
        bio_repairs=bio_repairs,
    )


def export_metrics(report: MetricsReport, path) -> None:
    """Write the report as CSV, one row per metric or length bucket.

    The UAS row repeats the accuracy in all three metric columns: with
    exactly one predicted and one gold head per token, precision, recall
    and F1 all equal the attachment accuracy.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "precision", "recall", "f1", "support"])
        p, r, f1 = report.srl
        writer.writerow(["srl", FLOAT_FORMAT % p, FLOAT_FORMAT % r,
                         FLOAT_FORMAT % f1, ""])
        p, r, f1 = report.predicate
        writer.writerow(["predicate", FLOAT_FORMAT % p, FLOAT_FORMAT % r,
                         FLOAT_FORMAT % f1, ""])
        u = FLOAT_FORMAT % report.uas
        writer.writerow(["uas", u, u, u, ""])
        for b in report.buckets:
            bp, br, bf = b.counts.prf()
            writer.writerow([f"srl_{b.label()}", FLOAT_FORMAT % bp,
                             FLOAT_FORMAT % br, FLOAT_FORMAT % bf, str(b.support)])
        writer.writerow(["bio_repairs", "", "", "", str(report.bio_repairs)])
