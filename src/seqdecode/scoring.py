"""Sequence-level similarity metrics.

A metric scores token sequences against an anchor, each with a value in
[0, 1]; its one function scores a batch of equal-length candidates held as
one integer array. Metrics are tagged ``privileged`` when they need a
reference output (BLEU and the reference-anchored embedding score); the
source-anchored variants and the toy diagnostics need only the source.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterator

import numpy as np

from .mdp import ConfigurationError, ContractViolation, Sequence, check_integer, clamp01


def _clamp01(scores: np.ndarray) -> np.ndarray:
    """:func:`clamp01` of every entry."""
    return np.where(scores < 0.0, 0.0, np.where(scores > 1.0, 1.0, scores))


def _by_length(candidates: list[Sequence]) -> Iterator[tuple[np.ndarray, list[Sequence]]]:
    """Group ``candidates`` by length: per length, ascending, the candidates'
    indices and the candidates."""
    lengths = np.fromiter(map(len, candidates), dtype=np.intp, count=len(candidates))
    # Not np.unique: its first call imports numpy.ma, about 1 MB.
    for length in sorted(set(lengths.tolist())):
        ks = np.flatnonzero(lengths == length)
        yield ks, list(map(candidates.__getitem__, ks.tolist()))


_BOOL_TYPES = {bool, np.bool_}


@dataclass(frozen=True)
class Metric:
    """Scoring contract: ``fn(anchor, candidates)`` scores the ``(n, L)`` integer
    array ``candidates``, one equal-length candidate per row, and returns ``n``
    scores. :class:`Metric` clamps each to [0, 1].

    For privileged metrics the anchor is a reference output; for unprivileged
    metrics it is the source sentence.

    ``metric(anchor, candidate)`` scores one candidate as a batch of one.
    ``score_batch(anchor, candidates)`` scores many against one anchor and
    returns one float per candidate, bitwise equal to scoring each alone. The
    candidates are a list of token sequences, which it groups by length and
    hands to ``fn`` as one array per length, or one ``(n, L)`` integer array.
    A candidate array that is not 2-D integer is a ``ContractViolation`` naming
    the metric, and so is a candidate, or a list of them, whose tokens make no
    such array (a float, a string or a bool token, or nested tokens). numpy
    upcasts a bool beside an integer, so a candidate, or a list of them, is
    refused if it holds any bool token. A non-finite score is a
    ``ContractViolation`` naming the metric and the candidate, and so is an
    ``fn`` result of the wrong length, naming both counts.
    """

    name: str
    privileged: bool
    fn: Callable[[Sequence, np.ndarray], list[float]] = field(repr=False)

    def __call__(self, anchor: Sequence, candidate: Sequence) -> float:
        candidate = tuple(candidate)
        self._refuse_bools(candidate)
        scores = self.fn(tuple(anchor), self._token_array([candidate]))
        if len(scores) != 1:
            self._miscounted(len(scores), 1)
        score = scores[0]
        if not math.isfinite(score):
            self._refuse(score, candidate)
        return clamp01(score)

    def score_batch(self, anchor: Sequence, candidates: list[Sequence] | np.ndarray) -> list[float]:
        anchor = tuple(anchor)
        if isinstance(candidates, np.ndarray):
            self._check_array(candidates)
            groups = [(slice(None), candidates)]
        else:
            self._refuse_bools(chain.from_iterable(candidates))
            groups = ((ks, self._token_array(group)) for ks, group in _by_length(candidates))
        raw = np.empty(len(candidates))
        for ks, group in groups:
            scores = self.fn(anchor, group)
            if len(scores) != len(group):
                self._miscounted(len(scores), len(group))
            raw[ks] = scores
        finite = np.isfinite(raw)
        if not finite.all():
            k = int(np.argmin(finite))
            self._refuse(float(raw[k]), tuple(int(t) for t in candidates[k]))
        return _clamp01(raw).tolist()

    def _check_array(self, candidates: np.ndarray) -> None:
        if candidates.ndim != 2 or candidates.dtype.kind not in "iu":
            self._refuse_tokens(f"{candidates.ndim}-D {candidates.dtype}")

    def _refuse_bools(self, tokens) -> None:
        """Refuse any bool among ``tokens``: numpy would upcast it beside an integer."""
        if _BOOL_TYPES.intersection(map(type, tokens)):
            self._refuse_tokens("a bool token")

    def _refuse_tokens(self, got: str) -> None:
        raise ContractViolation(
            f"metric {self.name!r} needs a 2-D integer candidate array, got {got}"
        )

    def _token_array(self, candidates: list[Sequence]) -> np.ndarray:
        """Equal-length candidates as one ``(n, L)`` ``intp`` array. Their tokens must make
        a 2-D integer array, as an array argument must: a float or a string token, tokens
        that are all bool, and nested tokens, also beside flat ones, are refused, not
        truncated. Candidates with no token make an empty ``intp`` array."""
        if not len(candidates[0]):
            return np.empty((len(candidates), 0), dtype=np.intp)
        try:
            tokens = np.array(candidates)
        except ValueError:  # an inhomogeneous shape: nested tokens beside flat ones
            self._refuse_tokens("tokens of mixed shapes")
        self._check_array(tokens)
        return tokens.astype(np.intp, copy=False)

    def _refuse(self, score, candidate: Sequence) -> None:
        raise ContractViolation(f"metric {self.name!r} scored candidate {candidate} as {score}")

    def _miscounted(self, returned: int, batch: int) -> None:
        raise ContractViolation(
            f"metric {self.name!r} returned {returned} scores for a batch of {batch}"
        )


# --------------------------------------------------------------------------- BLEU


def _ngram_counts(tokens: Sequence, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(
    candidates: list[Sequence],
    references: list[Sequence],
    max_n: int = 4,
) -> float:
    """Corpus BLEU: geometric mean of clipped n-gram precisions times brevity penalty.

    No smoothing is applied; a zero precision at any order zeroes the score,
    which is why callers should prefer corpus-level over per-sentence use.
    """
    if max_n < 1:
        raise ConfigurationError("max_n must be >= 1")
    if len(candidates) != len(references):
        raise ValueError("candidate and reference corpora differ in length")
    if not candidates:
        raise ValueError("empty corpus")

    cand_total = sum(len(c) for c in candidates)
    ref_total = sum(len(r) for r in references)
    if cand_total == 0:
        return 0.0

    log_precisions = []
    for n in range(1, max_n + 1):
        matched = 0
        total = 0
        for cand, ref in zip(candidates, references):
            counts = _ngram_counts(cand, n)
            ref_counts = _ngram_counts(ref, n)
            matched += sum(min(k, ref_counts[g]) for g, k in counts.items())
            total += sum(counts.values())
        if matched == 0 or total == 0:
            return 0.0
        log_precisions.append(math.log(matched / total))

    brevity = math.exp(min(0.0, 1.0 - ref_total / cand_total))
    return clamp01(brevity * math.exp(sum(log_precisions) / max_n))


def bleu_metric(max_n: int = 4) -> Metric:
    check_integer("max_n", max_n)
    if max_n < 1:
        raise ConfigurationError("max_n must be >= 1")
    return Metric(
        name=f"bleu{max_n}",
        privileged=True,
        fn=lambda anchor, cands: [bleu([row], [anchor], max_n=max_n) for row in cands.tolist()],
    )


# ------------------------------------------------------- embedding-based score


class SeededUnitEmbeddings:
    """Deterministic per-token unit vectors, derived independently per token."""

    def __init__(self, dim: int = 8, seed: int = 0):
        check_integer("dim", dim, 1)
        check_integer("embedding seed", seed)
        if seed < 0:
            raise ConfigurationError(f"embedding seed must be >= 0, got {seed}")
        self.dim = dim
        self.seed = seed
        self._cache: dict[int, np.ndarray] = {}

    def vector(self, token: int) -> np.ndarray:
        vec = self._cache.get(token)
        if vec is None:
            rng = np.random.default_rng([self.seed, token])
            raw = rng.standard_normal(self.dim)
            vec = raw / np.linalg.norm(raw)
            self._cache[token] = vec
        return vec


# Candidates per block are capped so the (N, L, M) similarity tensor stays this small.
SCORE_BLOCK_ELEMENTS = 1 << 16


def _greedy_alignment_totals(sims: np.ndarray) -> np.ndarray:
    """Sum of greedily matched similarities for each ``(L, M)`` matrix of ``sims``.

    Each round takes every matrix's largest unmatched entry (the first
    one in row-major order on ties) and masks its row and column.
    """
    n, rows, cols = sims.shape
    work = sims.reshape(n, rows * cols).copy()
    grid = work.reshape(n, rows, cols)
    batch = np.arange(n)
    total = np.zeros(n)
    for _ in range(min(rows, cols)):
        i, j = np.divmod(work.argmax(axis=1), cols)
        total += sims[batch, i, j]
        grid[batch, i, :] = -np.inf
        grid[batch, :, j] = -np.inf
    return total


def bert_style_scores(candidates: np.ndarray, anchor: Sequence, embedder) -> list[float]:
    """Greedy one-to-one token alignment by cosine similarity, for the ``(n, L)``
    integer array ``candidates`` of equal-length candidates, one per row.

    Per candidate: repeatedly match the globally most similar unmatched
    (candidate, anchor) token pair, average the matched similarities, rescale
    from [-1, 1] to [0, 1], and damp by min(len)/max(len) so degenerate
    lengths cannot win. Empty inputs score 0 by convention. A negative token
    id is a ``ValueError`` naming it.

    The ids that occur are marked in one array over ``0..max id``, only they
    are embedded, and the candidate rows index the unit embeddings through it,
    with no scan of the batch for distinct tokens. A block's similarities are one
    stacked ``(N, L, d) @ (d, M)`` product per candidate shape, so every
    candidate's ``(L, M)`` slice is the same matrix product a lone candidate
    of that length would get. Candidates that hold the same token multiset
    still get their own slices, not one shared alignment: in the stacked
    product a token's similarity can differ in its last bit with its row
    position and the candidate's length.
    """
    n, length = candidates.shape
    if not anchor or not length:
        return [0.0] * n
    anchor_tokens = np.array(anchor, dtype=np.intp)
    lowest = min(int(anchor_tokens.min()), int(candidates.min(initial=0)))
    if lowest < 0:
        raise ValueError(f"negative token id {lowest}")
    highest = max(int(anchor_tokens.max()), int(candidates.max(initial=0)))
    seen = np.zeros(highest + 1, dtype=bool)
    seen[anchor_tokens] = True
    seen[candidates] = True
    row_of = np.cumsum(seen) - 1  # row_of[t] is token id t's row among the ids seen
    vecs = np.stack([embedder.vector(t) for t in np.flatnonzero(seen).tolist()])
    unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    anch_t = unit[row_of[anchor_tokens]].T
    n_pairs = min(length, len(anchor))
    length_penalty = n_pairs / max(length, len(anchor))
    block = max(1, SCORE_BLOCK_ELEMENTS // (length * len(anchor)))
    scores = np.empty(n)
    for start in range(0, n, block):
        sims = unit[row_of[candidates[start : start + block]]] @ anch_t
        mean_sim = _greedy_alignment_totals(sims) / n_pairs
        scores[start : start + block] = (mean_sim + 1.0) / 2.0 * length_penalty
    return _clamp01(scores).tolist()


def bert_style_metric(embedder) -> Metric:
    """Reference-anchored variant (privileged)."""
    return Metric(
        name="bertscore",
        privileged=True,
        fn=lambda anchor, cands: bert_style_scores(cands, anchor, embedder),
    )


def multilingual_bert_style_metric(embedder) -> Metric:
    """Source-anchored variant (unprivileged): score candidates against the source."""
    return Metric(
        name="mlbertscore",
        privileged=False,
        fn=lambda anchor, cands: bert_style_scores(cands, anchor, embedder),
    )


# ------------------------------------------------------------------ toy metrics


def occupancy_metric(target: int, horizon: int) -> Metric:
    """Fraction of the horizon filled with the target token, clamped to 1."""
    check_integer("horizon", horizon)
    if horizon < 1:
        raise ConfigurationError("horizon must be >= 1")
    return Metric(
        name=f"occupancy({target},{horizon})",
        privileged=False,
        fn=lambda _anchor, cands: [row.count(target) / horizon for row in cands.tolist()],
    )


def coverage_metric() -> Metric:
    """Fraction of the source's distinct tokens appearing in the candidate."""

    def coverage(source: Sequence, candidates: np.ndarray) -> list[float]:
        distinct = set(source)
        if not distinct:
            raise ConfigurationError("source must be non-empty")
        return [len(distinct & set(row)) / len(distinct) for row in candidates.tolist()]

    return Metric(name="coverage", privileged=False, fn=coverage)
