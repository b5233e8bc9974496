"""Seeded synthetic corpus whose role labels are a function of the parse.

The grammar emits projective dependency trees over a closed vocabulary,
stated once in `VOCABULARY`: a table from each POS tag to its words in
index order (determiners d0-d3, nouns n000-n099, verbs v00-v29,
prepositions p0-p5, the conjunction c0 and modals m0-m1). A word's tag,
`full_vocabulary()` and every draw read that table. Role spans are then
*derived* from the tree by a fixed path->role map, so gold syntax strictly
determines the semantic roles:

    NN child left of its VB head   -> A0 over the noun's subtree
    first NN child right of VB     -> A1 over the subtree
    second NN child right of VB    -> A2 over the subtree
    MD child of VB                 -> AM-MOD (single token)
    IN child left of VB            -> AM-TMP over the subtree
    IN child right of VB           -> AM-LOC over the subtree
    any other token                -> O

Every argument's span is its subtree's yield, read from one head ->
children map built once per tree; a yield that is not contiguous, or a
walk that meets a cycle of heads, is an EncodingError.

Prepositional phrases after an object attach either to the verb (the PP is
an AM-LOC argument) or to the object noun (the PP merely extends the A1
span). Which happens is cued by the preposition: p0-p1 (VERB_CUED) always
attach to the verb, p2-p3 (NOUN_CUED) to the noun, and p4-p5 (AMBIGUOUS)
alternate attachment sites across the corpus, so each corpus is exactly
balanced between the two readings. That last group is irreducibly
ambiguous for any model that sees only the token sequence (either
attachment is equally represented and nothing in the sentence signals
which applies), while a model given the gold parse resolves it exactly.

Two constant `Domain` records fix the splits. IN_DOMAIN (train, dev and
test) draws nouns n000-n069 and verbs v00-v19 and joins at most 2 clauses;
SHIFTED (test-shifted) draws only the nouns n070-n099 and verbs v20-v29
that training never sees, attaches more PPs and chains up to 3 clauses.
"""

from __future__ import annotations

import zlib
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .corpus import AnnotatedSentence, EncodingError, RoleSpan, spans_to_bio
from .errors import ConfigError

# each POS tag's words in index order; the tags are in pretrained_vectors'
# centroid order
VOCABULARY = {
    "CC": ("c0",),
    "DT": tuple(f"d{i}" for i in range(4)),
    "IN": tuple(f"p{i}" for i in range(6)),
    "MD": tuple(f"m{i}" for i in range(2)),
    "NN": tuple(f"n{i:03d}" for i in range(100)),
    "VB": tuple(f"v{i:02d}" for i in range(30)),
}
POS_OF_WORD = {word: tag for tag, words in VOCABULARY.items() for word in words}
P_TRANSITIVE = 0.45
P_DITRANSITIVE = 0.15
P_INTRANSITIVE_PP = 0.5
P_MODAL = 0.2
# preposition index ranges by attachment cue
VERB_CUED, NOUN_CUED, AMBIGUOUS = range(0, 2), range(2, 4), range(4, 6)
VERB_CUED_WORDS = tuple(VOCABULARY["IN"][i] for i in VERB_CUED)


@dataclass(frozen=True)
class Domain:
    """The content words a split draws from and how its sentences grow."""

    nouns: tuple[str, ...]
    verbs: tuple[str, ...]
    p_object_pp: float
    p_front_pp: float
    p_extra_clause: float
    max_clauses: int


IN_DOMAIN = Domain(VOCABULARY["NN"][:70], VOCABULARY["VB"][:20], 0.6, 0.15, 0.15, 2)
SHIFTED = Domain(VOCABULARY["NN"][70:], VOCABULARY["VB"][20:], 0.7, 0.3, 0.6, 3)


def full_vocabulary() -> list[str]:
    """Every word either domain can emit, in sorted order."""
    return sorted(POS_OF_WORD)


# ---------------------------------------------------------------------------
# Path -> role map


def subtree_span(children, root: int, n_tokens: int) -> tuple[int, int]:
    """Inclusive yield bounds of a node under the head -> children map of an
    n_tokens-token sentence; the yield must be contiguous, and a walk of
    more than n_tokens nodes has met a cycle."""
    nodes = []
    stack = [root]
    while stack:
        n = stack.pop()
        nodes.append(n)
        if len(nodes) > n_tokens:
            raise EncodingError(f"heads form a cycle under token {root}")
        stack.extend(children[n])
    lo, hi = min(nodes), max(nodes)
    if len(nodes) != hi - lo + 1:
        raise EncodingError(f"non-contiguous yield under token {root}")
    return lo, hi


def roles_from_tree(pos, heads) -> dict[int, tuple[str, ...]]:
    """Apply the fixed path->role map to every predicate of a tree; the
    predicates are the VB tokens, since the map is stated on VB heads."""
    t_len = len(pos)
    children = defaultdict(list)
    for t, h in enumerate(heads):
        if t != h:
            children[h].append(t)
    frames: dict[int, tuple[str, ...]] = {}
    for p in range(t_len):
        if pos[p] != "VB":
            continue
        spans: list[RoleSpan] = []
        kids = children[p]  # ascending: built in token order
        left_nn = [c for c in kids if c < p and pos[c] == "NN"]
        if left_nn:
            spans.append(RoleSpan(*subtree_span(children, left_nn[-1], t_len), "A0"))
        right_nn = [c for c in kids if c > p and pos[c] == "NN"]
        for label, c in zip(("A1", "A2"), right_nn):
            spans.append(RoleSpan(*subtree_span(children, c, t_len), label))
        for c in kids:
            if pos[c] == "MD":
                spans.append(RoleSpan(c, c, "AM-MOD"))
            elif pos[c] == "IN":
                label = "AM-TMP" if c < p else "AM-LOC"
                spans.append(RoleSpan(*subtree_span(children, c, t_len), label))
        frames[p] = spans_to_bio(spans, t_len)
    return frames


# ---------------------------------------------------------------------------
# Generation


class _Draw:
    """A word sampler bound to one rng and domain, plus the alternation
    state for ambiguous-preposition attachment."""

    def __init__(self, rng, domain: Domain):
        self.rng, self.domain = rng, domain
        self.amb_flips = 0

    def pick(self, words: tuple[str, ...]) -> str:
        """A uniform draw from `words`."""
        return words[self.rng.integers(len(words))]

    def ambiguous_attaches_to_verb(self) -> bool:
        """Alternates, so every corpus is balanced between the readings."""
        self.amb_flips += 1
        return self.amb_flips % 2 == 1


def _clause(draw: _Draw):
    """One clause as (words, pos, heads-local); the verb is a self-loop."""
    rng, domain, pick = draw.rng, draw.domain, draw.pick
    words: list[str] = []
    pos: list[str] = []
    heads: list[int] = []

    def put(w: str, h: int) -> int:
        words.append(w)
        pos.append(POS_OF_WORD[w])
        heads.append(h)
        return len(words) - 1

    def noun_phrase(head: int) -> int:
        """A determiner and a noun under `head`; returns the noun."""
        det = put(pick(VOCABULARY["DT"]), -1)
        noun = put(pick(domain.nouns), head)
        heads[det] = noun
        return noun

    subj = noun_phrase(-1)
    modal = put(pick(VOCABULARY["MD"]), -1) if rng.random() < P_MODAL else None
    verb = put(pick(domain.verbs), -1)
    heads[verb] = verb
    heads[subj] = verb
    if modal is not None:
        heads[modal] = verb

    kind = rng.random()
    if kind < P_TRANSITIVE + P_DITRANSITIVE:
        obj = noun_phrase(verb)
        if kind < P_TRANSITIVE:
            if rng.random() < domain.p_object_pp:
                prep = pick(VOCABULARY["IN"])
                i = VOCABULARY["IN"].index(prep)
                if i in VERB_CUED:
                    site = verb
                elif i in NOUN_CUED:
                    site = obj
                else:
                    site = verb if draw.ambiguous_attaches_to_verb() else obj
                noun_phrase(put(prep, site))
        else:
            noun_phrase(verb)
    elif rng.random() < P_INTRANSITIVE_PP:
        noun_phrase(put(pick(VERB_CUED_WORDS), verb))
    return words, pos, heads, verb


def _sentence(draw: _Draw) -> AnnotatedSentence:
    rng, domain, pick = draw.rng, draw.domain, draw.pick
    want_front = rng.random() < domain.p_front_pp
    words, pos, heads, main_verb = _clause(draw)
    while pos.count("VB") < domain.max_clauses and rng.random() < domain.p_extra_clause:
        base = len(words) + 1
        cw, cp, ch, cv = _clause(draw)
        words.append(VOCABULARY["CC"][0])
        pos.append("CC")
        heads.append(main_verb)
        words.extend(cw)
        pos.extend(cp)
        heads.extend(base + h for h in ch)
        heads[base + cv] = main_verb

    if want_front:
        fw = [pick(VERB_CUED_WORDS), pick(VOCABULARY["DT"]), pick(domain.nouns)]
        heads = [main_verb + 3, 2, 0] + [h + 3 for h in heads]
        words = fw + words
        pos = ["IN", "DT", "NN"] + pos

    return AnnotatedSentence(tuple(words), tuple(pos), tuple(heads), roles_from_tree(pos, heads))


def gen_synthetic(n: int, seed: int, *, shifted: bool = False) -> list[AnnotatedSentence]:
    """Generate n sentences; byte-identical output for identical arguments."""
    if n < 1:
        raise ConfigError(f"need n >= 1, got {n}")
    draw = _Draw(np.random.default_rng(seed), SHIFTED if shifted else IN_DOMAIN)
    return [_sentence(draw) for _ in range(n)]


def gen_splits(
    n_train: int, n_dev: int, n_test: int, seed: int
) -> dict[str, list[AnnotatedSentence]]:
    """Standard split set: in-domain train/dev/test plus a shifted test."""
    return {
        "train": gen_synthetic(n_train, seed),
        "dev": gen_synthetic(n_dev, seed + 1),
        "test": gen_synthetic(n_test, seed + 2),
        "test-shifted": gen_synthetic(n_test, seed + 3, shifted=True),
    }


# ---------------------------------------------------------------------------
# Pretrained word vectors for the synthetic vocabulary


def pretrained_vectors(dim: int, seed: int) -> list[tuple[str, np.ndarray]]:
    """POS-clustered vectors covering the full (both-domain) vocabulary.

    Each word's vector is its POS-class centroid plus word-specific noise
    seeded from the word string itself, so vectors do not depend on
    vocabulary iteration order and shifted-split words stay classifiable.
    """
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(dim)
    centroids = {tag: rng.normal(0.0, scale, dim) for tag in VOCABULARY}
    out = []
    for word in full_vocabulary():
        wrng = np.random.default_rng([seed, zlib.crc32(word.encode("utf-8"))])
        vec = centroids[POS_OF_WORD[word]] + wrng.normal(0.0, 0.5 * scale, dim)
        out.append((word, vec))
    return out
