"""Exact ground truth at desk scale.

Everything here walks the full space of terminated sequences below a root
state, built by ``model.initial_state`` as for every decoder, so a hard guard
refuses instances where the vocabulary and the root's remaining horizon would
make that explosive. Reads priors directly off the model tables and never
touches the budget ledger: these are verification tools, not decoders. One
walker goes level by level, reading each level's priors in one
``model.priors`` call and handing on the level's terminated children. The
enumeration sorts them all into one list; the metric argmax scores each level
in one batch call as it comes and keeps only the best so far.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import itemgetter
from typing import Iterator

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


def _levels(
    model: PolicyValueModel, root: DecodeState
) -> Iterator[tuple[list[DecodeState], list[int], np.ndarray]]:
    """Walk the tree below ``root`` breadth-first, reading each level's priors in
    one ``model.priors`` call.

    Yields, per level, its terminated children as parallel parent states,
    appended tokens and exact log-likelihoods, in token order; every child of
    one level has the same length. A level with no terminated child yields
    empty lists.
    """
    _check_root(model, root)
    eos = root.eos_id
    level, log_likelihoods = [root], np.zeros(1)
    while level:
        priors = model.priors(level)
        rows, tokens = np.nonzero(priors > 0.0)  # row-major: each prefix's children in token order
        child_lls = log_likelihoods[rows] + np.array(
            list(map(math.log, priors[rows, tokens].tolist()))
        )
        # A level's prefixes share one length; at the cap every child ends.
        ended = (tokens == eos) | (len(level[0].prefix) + 1 == root.max_len)
        live = ~ended
        yield (
            [level[i] for i in rows[ended].tolist()],
            tokens[ended].tolist(),
            child_lls[ended],
        )
        level = list(map(step, [level[i] for i in rows[live].tolist()], tokens[live].tolist()))
        log_likelihoods = child_lls[live]


def enumerate_sequences(
    model: PolicyValueModel, root: DecodeState
) -> list[tuple[Sequence, float]]:
    """All terminated sequences below ``root`` with exact log-likelihoods, in
    lexicographic token order.

    No terminated sequence is a prefix of another, so this is also the
    depth-first order. Under the forced-EOS convention the returned
    probabilities sum to 1.
    """
    out: list[tuple[Sequence, float]] = []
    for parents, tokens, log_likelihoods in _levels(model, root):
        out.extend(
            (parent.prefix + (a,), ll)
            for parent, a, ll in zip(parents, tokens, log_likelihoods.tolist())
        )
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

    Each level's outputs are scored against the root's reward anchor in one
    ``metric.score_batch`` call, as the walk reaches them. Ties prefer higher
    likelihood, then the lexicographically smaller token sequence. The
    winner's state is stepped from ``root``, so it is the state a decoder
    reaches for that output.
    """
    anchor = reward_anchor(metric, root)
    eos = model.eos_id
    best: tuple[tuple[float, float], Sequence] | None = None  # ((score, log-likelihood), sequence)
    for parents, tokens, log_likelihoods in _levels(model, root):
        if not parents:
            continue
        # An EOS child's content is its parent's prefix; a child cut off by the cap keeps its token.
        contents = [p.prefix if a == eos else p.prefix + (a,) for p, a in zip(parents, tokens)]
        scores = np.array(metric.score_batch(anchor, contents))
        top = np.flatnonzero(scores == scores.max())
        # argmax keeps the first of equal log-likelihoods: a level is in token order.
        i = top[np.argmax(log_likelihoods[top])]
        key = (float(scores[i]), float(log_likelihoods[i]))
        sequence = parents[i].prefix + (tokens[i],)
        if best is None or key > best[0] or (key == best[0] and sequence < best[1]):
            best = (key, sequence)
    (score, log_likelihood), sequence = best
    state = reduce(step, sequence[len(root.prefix):], root)
    return Candidate(state, log_likelihood, score=score)
