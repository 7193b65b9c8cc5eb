"""Sequence-level similarity metrics.

A metric is a callable on token tuples returning a value in [0, 1]. Metrics
are tagged ``privileged`` when they need a reference output (BLEU and the
reference-anchored embedding score); the source-anchored variants and the toy
diagnostics need only the source.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterator

import numpy as np

from .mdp import ConfigurationError, ContractViolation, Sequence, clamp01

ScoreFn = Callable[[Sequence, Sequence], float]
BatchScoreFn = Callable[[Sequence, np.ndarray], list[float]]


def _clamp01(scores: np.ndarray) -> np.ndarray:
    """:func:`clamp01` of every entry."""
    return np.where(scores < 0.0, 0.0, np.where(scores > 1.0, 1.0, scores))


def _by_length(candidates: list[Sequence]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Group ``candidates`` by length: per length, ascending, the candidates'
    indices and their tokens as one ``(n, L)`` integer array."""
    lengths = np.fromiter(map(len, candidates), dtype=np.intp, count=len(candidates))
    for length in np.unique(lengths).tolist():
        ks = np.flatnonzero(lengths == length)
        tokens = chain.from_iterable(map(candidates.__getitem__, ks.tolist()))
        group = np.fromiter(tokens, dtype=np.intp, count=len(ks) * length)
        yield ks, group.reshape(len(ks), length)


@dataclass(frozen=True)
class Metric:
    """Scoring contract: ``fn(anchor, candidate) -> [0, 1]``.

    For privileged metrics the anchor is a reference output; for unprivileged
    metrics it is the source sentence.

    ``score_batch(anchor, candidates)`` scores many candidates against one
    anchor and returns one float per candidate, bitwise equal to calling the
    metric on each in turn. The candidates are a list of token sequences or
    one ``(n, L)`` integer array of equal-length candidates, one per row.
    ``batch_fn``, when given, computes the scores of one ``(n, L)`` array in
    one call and must return ``n`` of them; ``score_batch`` groups a list by
    length and calls it once per length. Without ``batch_fn``, ``score_batch``
    calls ``fn`` on each candidate as a tuple. A non-finite score is a
    ``ContractViolation`` naming the metric and the candidate, and so is a
    ``batch_fn`` result of the wrong length, naming both counts.
    """

    name: str
    privileged: bool
    fn: ScoreFn = field(repr=False)
    batch_fn: BatchScoreFn | None = field(default=None, repr=False)

    def __call__(self, anchor: Sequence, candidate: Sequence) -> float:
        candidate = tuple(candidate)
        score = self.fn(tuple(anchor), candidate)
        if not math.isfinite(score):
            self._refuse(score, candidate)
        return clamp01(score)

    def score_batch(self, anchor: Sequence, candidates: list[Sequence] | np.ndarray) -> list[float]:
        anchor = tuple(anchor)
        is_array = isinstance(candidates, np.ndarray)
        if is_array and (candidates.ndim != 2 or candidates.dtype.kind not in "iu"):
            raise ContractViolation(
                f"metric {self.name!r} needs a 2-D integer candidate array, got "
                f"{candidates.ndim}-D {candidates.dtype}"
            )
        if self.batch_fn is None:
            rows = candidates.tolist() if is_array else candidates
            raw = np.array([self.fn(anchor, tuple(c)) for c in rows], dtype=float)
        else:
            raw = np.empty(len(candidates))
            for ks, group in [(slice(None), candidates)] if is_array else _by_length(candidates):
                scores = self.batch_fn(anchor, group)
                if len(scores) != len(group):
                    raise ContractViolation(
                        f"metric {self.name!r} returned {len(scores)} scores for a batch "
                        f"of {len(group)}"
                    )
                raw[ks] = scores
        finite = np.isfinite(raw)
        if not finite.all():
            k = int(np.argmin(finite))
            self._refuse(float(raw[k]), tuple(int(t) for t in candidates[k]))
        return _clamp01(raw).tolist()

    def _refuse(self, score, candidate: Sequence) -> None:
        raise ContractViolation(f"metric {self.name!r} scored candidate {candidate} as {score}")


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
    if max_n < 1:
        raise ConfigurationError("max_n must be >= 1")
    return Metric(
        name=f"bleu{max_n}",
        privileged=True,
        fn=lambda anchor, cand: bleu([cand], [anchor], max_n=max_n),
    )


# ------------------------------------------------------- embedding-based score


class SeededUnitEmbeddings:
    """Deterministic per-token unit vectors, derived independently per token."""

    def __init__(self, dim: int = 8, seed: int = 0):
        if dim < 1:
            raise ConfigurationError("dim must be positive")
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


def bert_style_score(candidate: Sequence, anchor: Sequence, embedder) -> float:
    """:func:`bert_style_scores` of one candidate."""
    return bert_style_scores(np.array(candidate, dtype=np.intp).reshape(1, -1), anchor, embedder)[0]


def bert_style_metric(embedder, name: str = "bertscore") -> Metric:
    """Reference-anchored variant (privileged)."""
    return Metric(
        name=name,
        privileged=True,
        fn=lambda anchor, cand: bert_style_score(cand, anchor, embedder),
        batch_fn=lambda anchor, cands: bert_style_scores(cands, anchor, embedder),
    )


def multilingual_bert_style_metric(embedder, name: str = "mlbertscore") -> Metric:
    """Source-anchored variant (unprivileged): score candidates against the source."""
    return Metric(
        name=name,
        privileged=False,
        fn=lambda anchor, cand: bert_style_score(cand, anchor, embedder),
        batch_fn=lambda anchor, cands: bert_style_scores(cands, anchor, embedder),
    )


# ------------------------------------------------------------------ toy metrics


def toy_occupancy(candidate: Sequence, target: int, horizon: int) -> float:
    """Fraction of the horizon filled with the target token."""
    if horizon < 1:
        raise ConfigurationError("horizon must be >= 1")
    return clamp01(sum(1 for t in candidate if t == target) / horizon)


def occupancy_metric(target: int, horizon: int) -> Metric:
    if horizon < 1:
        raise ConfigurationError("horizon must be >= 1")
    return Metric(
        name=f"occupancy({target},{horizon})",
        privileged=False,
        fn=lambda _anchor, cand: toy_occupancy(cand, target, horizon),
    )


def toy_coverage(candidate: Sequence, source: Sequence) -> float:
    """Fraction of the source's distinct tokens appearing in the candidate."""
    source_set = set(source)
    if not source_set:
        raise ConfigurationError("source must be non-empty")
    return clamp01(len(source_set & set(candidate)) / len(source_set))


def coverage_metric() -> Metric:
    return Metric(
        name="coverage",
        privileged=False,
        fn=lambda anchor, cand: toy_coverage(cand, anchor),
    )
