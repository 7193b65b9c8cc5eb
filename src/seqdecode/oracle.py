"""Exact ground truth at desk scale.

Everything here walks the full space of terminated sequences below a root
state, built by ``model.initial_state`` as for every decoder, so a hard guard
refuses instances where the vocabulary and the root's remaining horizon would
make that explosive. Reads priors directly off the model tables and never
touches the budget ledger: these are verification tools, not decoders. The
enumeration walks level by level, reading each level's priors in one
``model.priors`` call, and the metric argmax scores it with one batch call,
which handles each length bucket at once.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import itemgetter

import numpy as np

from .mdp import (
    Candidate,
    ConfigurationError,
    ContractViolation,
    DecodeState,
    Sequence,
    reward_anchor,
    step,
)
from .models import PolicyValueModel
from .scoring import Metric

ENUMERATION_GUARD = 1_000_000


class GuardExceeded(ConfigurationError):
    """The instance is too large for exhaustive search."""


def _check_root(model: PolicyValueModel, root: DecodeState) -> None:
    if root.terminal:
        raise ContractViolation("the oracles need a non-terminal root state")
    horizon = root.max_len - 1 - len(root.prefix)
    bound = model.vocab_size**horizon
    if bound > ENUMERATION_GUARD:
        raise GuardExceeded(
            f"V^max_len = {model.vocab_size}^{horizon} = {bound} exceeds the "
            f"enumeration guard of {ENUMERATION_GUARD}"
        )


def enumerate_sequences(
    model: PolicyValueModel, root: DecodeState
) -> list[tuple[Sequence, float]]:
    """All terminated sequences below ``root`` with exact log-likelihoods, in
    lexicographic token order.

    No terminated sequence is a prefix of another, so this is also the
    depth-first order. Under the forced-EOS convention the returned
    probabilities sum to 1.
    """
    _check_root(model, root)
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


def exact_argmax_likelihood(model: PolicyValueModel, root: DecodeState) -> Candidate:
    """Global likelihood argmax below ``root`` via depth-first branch-and-bound.

    Prefixes whose log-likelihood already fails to beat the incumbent are
    pruned; this is sound because appending tokens can only lower it.
    """
    _check_root(model, root)
    best: list = [None, -math.inf]  # (state, log_likelihood)

    def walk(state: DecodeState, log_likelihood: float) -> None:
        if best[0] is not None and log_likelihood <= best[1]:
            return  # no descendant can beat (or first-claim a tie with) the incumbent
        if state.terminal:
            best[0] = state
            best[1] = log_likelihood
            return
        prior = model.priors([state])[0]
        for a in range(model.vocab_size):
            if prior[a] <= 0.0:
                continue
            child_ll = log_likelihood + math.log(prior[a])
            if child_ll > log_likelihood + 1e-12:
                raise ContractViolation("likelihood must be non-increasing")
            walk(step(state, a), child_ll)

    walk(root, 0.0)
    return Candidate(best[0], best[1])


def exact_argmax_metric(model: PolicyValueModel, root: DecodeState, metric: Metric) -> Candidate:
    """Metric argmax over every terminated sequence below ``root``.

    Each sequence's content is scored against the root's reward anchor, all
    in one ``metric.score_batch`` call. Ties prefer higher likelihood, then
    the lexicographically smaller token sequence. The winner's state is
    stepped from ``root``, so it is the state a decoder reaches for that output.
    """
    anchor = reward_anchor(metric, root)
    sequences = enumerate_sequences(model, root)
    eos = model.eos_id
    scores = metric.score_batch(anchor, [p[:-1] if p[-1] == eos else p for p, _ in sequences])
    # max() keeps the first of equal keys, and the enumeration is in token order.
    best = max(range(len(sequences)), key=lambda i: (scores[i], sequences[i][1]))
    prefix, log_likelihood = sequences[best]
    state = reduce(step, prefix[len(root.prefix):], root)
    return Candidate(state, log_likelihood, score=scores[best])
