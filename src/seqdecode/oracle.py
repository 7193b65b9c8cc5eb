"""Exact ground truth at desk scale.

Everything here walks the full space of terminated sequences, so a hard guard
refuses instances where the vocabulary and horizon would make that explosive.
Reads priors directly off the model tables and never touches the budget
ledger: these are verification tools, not decoders. The enumeration walks
level by level, reading each level's priors in one ``model.priors`` call, and
the metric argmax scores it with one batch call, which handles each length
bucket at once.
"""

from __future__ import annotations

import math
from operator import itemgetter

import numpy as np

from .mdp import ContractViolation, DecodeState, Sequence, reward_anchor, step
from .models import PolicyValueModel
from .scoring import Metric

ENUMERATION_GUARD = 1_000_000


class GuardExceeded(ValueError):
    """The instance is too large for exhaustive search."""


def _check_guard(model: PolicyValueModel, max_len: int) -> None:
    bound = model.vocab_size**max_len
    if bound > ENUMERATION_GUARD:
        raise GuardExceeded(
            f"V^max_len = {model.vocab_size}^{max_len} = {bound} exceeds the "
            f"enumeration guard of {ENUMERATION_GUARD}"
        )


def _root(model: PolicyValueModel, source: Sequence, max_len: int | None) -> DecodeState:
    horizon = model.max_len if max_len is None else max_len
    if horizon < 0:
        raise ValueError("max_len must be >= 0")
    return DecodeState(source, (), horizon + 1, model.eos_id)


def enumerate_sequences(
    model: PolicyValueModel,
    source: Sequence = (),
    max_len: int | None = None,
) -> list[tuple[Sequence, float]]:
    """All terminated sequences with exact log-likelihoods, in lexicographic token order.

    No terminated sequence is a prefix of another, so this is also the
    depth-first order. Under the forced-EOS convention the returned
    probabilities sum to 1.
    """
    horizon = model.max_len if max_len is None else max_len
    _check_guard(model, horizon)
    root = _root(model, source, max_len)
    out: list[tuple[Sequence, float]] = []
    level: list[tuple[DecodeState, float]] = [(root, 0.0)]
    while level:
        next_level = []
        priors = model.priors([state for state, _ in level])
        rows, tokens = np.nonzero(priors > 0.0)  # row-major: each prefix's children in token order
        for i, a, p in zip(rows.tolist(), tokens.tolist(), priors[rows, tokens].tolist()):
            state, log_likelihood = level[i]
            child_ll = log_likelihood + math.log(p)
            if a == root.eos_id or len(state.prefix) + 1 == root.max_len:
                out.append((state.prefix + (a,), child_ll))
            else:
                next_level.append((step(state, a), child_ll))
        level = next_level
    out.sort(key=itemgetter(0))
    return out


def exact_argmax_likelihood(
    model: PolicyValueModel,
    source: Sequence = (),
    max_len: int | None = None,
):
    """Global likelihood argmax via depth-first branch-and-bound.

    Prefixes whose log-likelihood already fails to beat the incumbent are
    pruned; this is sound because appending tokens can only lower it.
    """
    from .decoders import Candidate

    horizon = model.max_len if max_len is None else max_len
    _check_guard(model, horizon)
    best: list = [None, -math.inf]  # (state, log_likelihood)

    def walk(state: DecodeState, log_likelihood: float) -> None:
        if best[0] is not None and log_likelihood <= best[1]:
            return  # no descendant can beat (or first-claim a tie with) the incumbent
        if state.terminal:
            best[0] = state
            best[1] = log_likelihood
            return
        prior = model.prior(state)
        for a in range(model.vocab_size):
            if prior[a] <= 0.0:
                continue
            child_ll = log_likelihood + math.log(prior[a])
            if child_ll > log_likelihood + 1e-12:
                raise ContractViolation("likelihood must be non-increasing")
            walk(step(state, a), child_ll)

    walk(_root(model, source, max_len), 0.0)
    return Candidate(sequence=best[0].prefix, log_likelihood=best[1], state=best[0])


def exact_argmax_metric(
    model: PolicyValueModel,
    source: Sequence,
    metric: Metric,
    reference: Sequence | None = None,
    max_len: int | None = None,
):
    """Metric argmax over every terminated sequence.

    Each sequence's content is scored against the instance's reward anchor,
    all in one ``metric.score_batch`` call. Ties prefer higher likelihood, then
    the lexicographically smaller token sequence.
    """
    from .decoders import Candidate

    anchor = reward_anchor(metric, source, reference)
    sequences = enumerate_sequences(model, source, max_len)
    eos = model.eos_id
    scores = metric.score_batch(anchor, [p[:-1] if p[-1] == eos else p for p, _ in sequences])
    # max() keeps the first of equal keys, and the enumeration is in token order.
    best = max(range(len(sequences)), key=lambda i: (scores[i], sequences[i][1]))
    prefix, log_likelihood = sequences[best]
    state = DecodeState(source, prefix, len(prefix), eos, reference)
    return Candidate(sequence=prefix, log_likelihood=log_likelihood, score=scores[best], state=state)
