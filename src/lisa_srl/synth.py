"""Seeded synthetic corpus whose role labels are a function of the parse.

The grammar emits projective dependency trees over a closed vocabulary of
determiners, nouns, verbs, prepositions, one conjunction and modals. Role
spans are then *derived* from the tree by a fixed path->role map, so gold
syntax strictly determines the semantic roles:

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
span). Which happens is cued by the preposition: the first third of the
preposition inventory always attaches to the verb, the middle third to the
noun, and the last third alternates attachment sites across the corpus, so
each corpus is exactly balanced between the two readings. That last group
is irreducibly ambiguous for any model that sees only the token sequence
(either attachment is equally represented and nothing in the sentence
signals which applies), while a model given the gold parse resolves it
exactly.

A shifted split draws nouns and verbs from a reserved vocabulary region
unseen in training and allows longer clause chains.
"""

from __future__ import annotations

import zlib
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .corpus import AnnotatedSentence, EncodingError, RoleSpan, spans_to_bio
from .errors import ConfigError

POS_OF_PREFIX = {"d": "DT", "n": "NN", "v": "VB", "p": "IN", "c": "CC", "m": "MD"}


def pos_of_word(word: str) -> str:
    return POS_OF_PREFIX[word[0]]


@dataclass(frozen=True)
class GrammarParams:
    """Vocabulary sizes and production probabilities for the generator."""

    n_nouns: int = 100
    n_verbs: int = 30
    n_dets: int = 4
    n_preps: int = 6
    n_modals: int = 2
    # content words at or past these indices appear only in the shifted split
    shifted_noun_start: int = 70
    shifted_verb_start: int = 20
    p_transitive: float = 0.45
    p_ditransitive: float = 0.15
    p_object_pp: float = 0.6
    p_intransitive_pp: float = 0.5
    p_front_pp: float = 0.15
    p_modal: float = 0.2
    p_extra_clause: float = 0.15
    max_clauses: int = 2
    shifted_p_object_pp: float = 0.7
    shifted_p_front_pp: float = 0.3
    shifted_p_extra_clause: float = 0.6
    shifted_max_clauses: int = 3

    def prep_groups(self) -> tuple[range, range, range]:
        """(verb-cued, noun-cued, ambiguous) preposition index ranges."""
        k = self.n_preps // 3
        return range(0, k), range(k, 2 * k), range(2 * k, self.n_preps)


def full_vocabulary(grammar: GrammarParams) -> list[str]:
    """Every word either domain can emit, in sorted order."""
    words = (
        [f"d{i}" for i in range(grammar.n_dets)]
        + [f"n{i:03d}" for i in range(grammar.n_nouns)]
        + [f"v{i:02d}" for i in range(grammar.n_verbs)]
        + [f"p{i}" for i in range(grammar.n_preps)]
        + ["c0"]
        + [f"m{i}" for i in range(grammar.n_modals)]
    )
    return sorted(words)


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


def roles_from_tree(pos, heads, predicates) -> dict[int, tuple[str, ...]]:
    """Apply the fixed path->role map to every predicate of a tree."""
    t_len = len(pos)
    children = defaultdict(list)
    for t, h in enumerate(heads):
        if t != h:
            children[h].append(t)
    frames: dict[int, tuple[str, ...]] = {}
    for p in range(t_len):
        if not predicates[p]:
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


def _pick(rng: np.random.Generator, prefix: str, lo: int, hi: int, width: int) -> str:
    return f"{prefix}{int(rng.integers(lo, hi)):0{width}d}"


class _Draw:
    """Word samplers bound to one rng, grammar and domain, plus the
    alternation state for ambiguous-preposition attachment."""

    def __init__(self, rng, grammar: GrammarParams, shifted: bool):
        self.rng, self.g = rng, grammar
        self.amb_flips = 0
        if shifted:
            self.noun_range = (grammar.shifted_noun_start, grammar.n_nouns)
            self.verb_range = (grammar.shifted_verb_start, grammar.n_verbs)
        else:
            self.noun_range = (0, grammar.shifted_noun_start)
            self.verb_range = (0, grammar.shifted_verb_start)

    def det(self) -> str:
        return _pick(self.rng, "d", 0, self.g.n_dets, 1)

    def noun(self) -> str:
        return _pick(self.rng, "n", *self.noun_range, 3)

    def verb(self) -> str:
        return _pick(self.rng, "v", *self.verb_range, 2)

    def modal(self) -> str:
        return _pick(self.rng, "m", 0, self.g.n_modals, 1)

    def prep(self, indices: range) -> tuple[str, int]:
        i = int(self.rng.integers(indices.start, indices.stop))
        return f"p{i}", i

    def ambiguous_attaches_to_verb(self) -> bool:
        """Alternates, so every corpus is balanced between the readings."""
        self.amb_flips += 1
        return self.amb_flips % 2 == 1


def _clause(draw: _Draw, p_object_pp: float):
    """One clause as (words, pos, heads-local); the verb is a self-loop."""
    g, rng = draw.g, draw.rng
    words: list[str] = []
    pos: list[str] = []
    heads: list[int] = []

    def put(w: str, h: int) -> int:
        words.append(w)
        pos.append(pos_of_word(w))
        heads.append(h)
        return len(words) - 1

    det = put(draw.det(), -1)
    subj = put(draw.noun(), -1)
    heads[det] = subj
    modal = put(draw.modal(), -1) if rng.random() < g.p_modal else None
    verb = put(draw.verb(), -1)
    heads[verb] = verb
    heads[subj] = verb
    if modal is not None:
        heads[modal] = verb

    verb_cued, noun_cued, ambiguous = g.prep_groups()
    kind = rng.random()
    if kind < g.p_transitive + g.p_ditransitive:
        od = put(draw.det(), -1)
        on = put(draw.noun(), verb)
        heads[od] = on
        if kind < g.p_transitive:
            if rng.random() < p_object_pp:
                word, i = draw.prep(range(0, g.n_preps))
                if i in verb_cued:
                    site = verb
                elif i in noun_cued:
                    site = on
                else:
                    site = verb if draw.ambiguous_attaches_to_verb() else on
                prep = put(word, site)
                pd = put(draw.det(), -1)
                pn = put(draw.noun(), prep)
                heads[pd] = pn
        else:
            od2 = put(draw.det(), -1)
            on2 = put(draw.noun(), verb)
            heads[od2] = on2
    elif rng.random() < g.p_intransitive_pp:
        word, _ = draw.prep(verb_cued)
        prep = put(word, verb)
        pd = put(draw.det(), -1)
        pn = put(draw.noun(), prep)
        heads[pd] = pn
    return words, pos, heads, verb


def _sentence(draw: _Draw, shifted: bool) -> AnnotatedSentence:
    g, rng = draw.g, draw.rng
    p_object_pp = g.shifted_p_object_pp if shifted else g.p_object_pp
    p_front_pp = g.shifted_p_front_pp if shifted else g.p_front_pp
    p_extra = g.shifted_p_extra_clause if shifted else g.p_extra_clause
    max_clauses = g.shifted_max_clauses if shifted else g.max_clauses

    want_front = rng.random() < p_front_pp
    words, pos, heads, main_verb = _clause(draw, p_object_pp)
    while (
        len([p for p in pos if p == "VB"]) < max_clauses and rng.random() < p_extra
    ):
        base = len(words) + 1
        cw, cp, ch, cv = _clause(draw, p_object_pp)
        words.append("c0")
        pos.append("CC")
        heads.append(main_verb)
        words.extend(cw)
        pos.extend(cp)
        heads.extend(base + h for h in ch)
        heads[base + cv] = main_verb

    if want_front:
        word, _ = draw.prep(g.prep_groups()[0])
        fw = [word, draw.det(), draw.noun()]
        heads = [main_verb + 3, 2, 0] + [h + 3 for h in heads]
        words = fw + words
        pos = [pos_of_word(w) for w in fw] + pos

    predicates = tuple(p == "VB" for p in pos)
    frames = roles_from_tree(pos, heads, predicates)
    return AnnotatedSentence(tuple(words), tuple(pos), tuple(heads), predicates, frames)


def gen_synthetic(
    n: int,
    seed: int,
    grammar: GrammarParams = GrammarParams(),
    *,
    shifted: bool = False,
) -> list[AnnotatedSentence]:
    """Generate n sentences; byte-identical output for identical arguments."""
    if n < 1:
        raise ConfigError(f"need n >= 1, got {n}")
    draw = _Draw(np.random.default_rng(seed), grammar, shifted)
    return [_sentence(draw, shifted) for _ in range(n)]


def gen_splits(
    n_train: int,
    n_dev: int,
    n_test: int,
    seed: int,
    grammar: GrammarParams = GrammarParams(),
) -> dict[str, list[AnnotatedSentence]]:
    """Standard split set: in-domain train/dev/test plus a shifted test."""
    return {
        "train": gen_synthetic(n_train, seed, grammar),
        "dev": gen_synthetic(n_dev, seed + 1, grammar),
        "test": gen_synthetic(n_test, seed + 2, grammar),
        "test-shifted": gen_synthetic(n_test, seed + 3, grammar, shifted=True),
    }


# ---------------------------------------------------------------------------
# Pretrained word vectors for the synthetic vocabulary


def pretrained_vectors(
    grammar: GrammarParams, dim: int, seed: int
) -> list[tuple[str, np.ndarray]]:
    """POS-clustered vectors covering the full (both-domain) vocabulary.

    Each word's vector is its POS-class centroid plus word-specific noise
    seeded from the word string itself, so vectors do not depend on
    vocabulary iteration order and shifted-split words stay classifiable.
    """
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(dim)
    centroids = {
        tag: rng.normal(0.0, scale, dim)
        for tag in ("CC", "DT", "IN", "MD", "NN", "VB")
    }
    out = []
    for word in full_vocabulary(grammar):
        wrng = np.random.default_rng([seed, zlib.crc32(word.encode("utf-8"))])
        vec = centroids[pos_of_word(word)] + wrng.normal(0.0, 0.5 * scale, dim)
        out.append((word, vec))
    return out
