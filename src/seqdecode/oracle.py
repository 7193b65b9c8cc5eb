"""Exact ground truth at desk scale.

Everything here walks the full space of terminated sequences below a root
state, built by ``model.initial_state`` as for every decoder, so a hard guard
refuses instances where the vocabulary and the root's remaining horizon would
make that explosive. Reads priors directly off the model tables and never
touches the budget ledger: these are verification tools, not decoders. One
walker goes level by level, reading each level's priors in one
``model.priors`` call and handing on the level's terminated outputs as output
prefixes, final tokens and log-likelihoods. Under the base forced-EOS rule of
``PolicyValueModel.priors`` the level one token short of the cap is never
built: its outputs are its parents' live children with EOS appended, at their
own log-likelihood. The enumeration sorts all outputs into one list. Both
argmaxes keep only the best so far: the metric argmax scores each level in one
batch call as it comes; the likelihood argmax scores all alike and prunes
prefixes below the best so far.
"""

from __future__ import annotations

import math
from dataclasses import replace
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
            f"V^horizon = {model.vocab_size}^{horizon} = {bound} exceeds the "
            f"enumeration guard of {ENUMERATION_GUARD}"
        )


def _levels(
    model: PolicyValueModel, root: DecodeState, floor=lambda: -math.inf
) -> Iterator[tuple[list[Sequence], list[int], np.ndarray]]:
    """Walk the tree below ``root`` breadth-first, reading each level's priors in
    one ``model.priors`` call.

    Yields, per level, its terminated outputs as parallel output prefixes
    (each output without its final token), final tokens and exact
    log-likelihoods, in token order; every output of one level has the same
    length. A level with no terminated output yields empty lists. After each
    yield, a live child less likely than ``floor()`` is dropped; an equally
    likely one is kept. A child likelier than its prefix is a
    ``ContractViolation``.

    A provider that keeps the base ``PolicyValueModel.priors`` forces EOS one
    token short of the root's cap, at probability 1. Its live children of that
    length are not stepped: the last level yields them with EOS appended, at
    their own log-likelihood, and the walk ends. A provider that overrides
    ``priors`` has that level read like any other.
    """
    _check_root(model, root)
    eos = root.eos_id
    forced = type(model).priors is PolicyValueModel.priors
    level, log_likelihoods = [root], np.zeros(1)
    while level:
        priors = model.priors(level)
        rows, tokens = np.nonzero(priors > 0.0)  # row-major: each prefix's children in token order
        steps = np.array(list(map(math.log, priors[rows, tokens].tolist())))
        if (steps > 1e-12).any():
            raise ContractViolation("likelihood must be non-increasing")
        child_lls = log_likelihoods[rows] + steps
        # A level's prefixes share one length; at the cap every child ends.
        length = len(level[0].prefix) + 1
        ended = (tokens == eos) | (length == root.max_len)
        yield (
            [level[i].prefix for i in rows[ended].tolist()],
            tokens[ended].tolist(),
            child_lls[ended],
        )
        live = ~ended & (child_lls >= floor())
        parents = [level[i] for i in rows[live].tolist()]
        tokens, log_likelihoods = tokens[live].tolist(), child_lls[live]
        if forced and length + 1 == root.max_len:
            # Every live child is one token short of the cap: its prior is one-hot on EOS.
            outputs = [p.prefix + (a,) for p, a in zip(parents, tokens)]
            yield outputs, [eos] * len(outputs), log_likelihoods  # log 1 = 0
            return
        level = list(map(step, parents, tokens))


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
    for prefixes, tokens, log_likelihoods in _levels(model, root):
        out.extend(
            (prefix + (a,), ll) for prefix, a, ll in zip(prefixes, tokens, log_likelihoods.tolist())
        )
    out.sort(key=itemgetter(0))
    return out


def _argmax(model: PolicyValueModel, root: DecodeState, score_level, prune: bool) -> Candidate:
    """The terminated sequence below ``root`` with the best (score, log-likelihood) key.

    ``score_level(prefixes, tokens)`` scores one level's outputs as an array. The
    first best key in token order wins a level; an equal key across levels goes
    to the smaller sequence. ``prune`` (sound for a constant score only) drops
    prefixes less likely than the best output so far. The winner's state is
    stepped from ``root``, so it is the state a decoder reaches for that output.
    """
    best: tuple[tuple[float, float], Sequence] | None = None  # ((score, log-likelihood), sequence)

    def floor() -> float:
        return best[0][1] if prune and best else -math.inf

    for prefixes, tokens, log_likelihoods in _levels(model, root, floor):
        if not prefixes:
            continue
        scores = score_level(prefixes, tokens)
        top = np.flatnonzero(scores == scores.max())
        # argmax keeps the first of equal log-likelihoods: a level is in token order.
        i = top[np.argmax(log_likelihoods[top])]
        key = (float(scores[i]), float(log_likelihoods[i]))
        sequence = prefixes[i] + (tokens[i],)
        if best is None or key > best[0] or (key == best[0] and sequence < best[1]):
            best = (key, sequence)
    (score, log_likelihood), sequence = best
    state = reduce(step, sequence[len(root.prefix):], root)
    return Candidate(state, log_likelihood, score=score)


def exact_argmax_likelihood(model: PolicyValueModel, root: DecodeState) -> Candidate:
    """Global likelihood argmax below ``root``: the level walk, pruned below the best
    output so far, since appending tokens can only lower a likelihood. Equal
    likelihoods break to the lexicographically smaller sequence."""
    best = _argmax(model, root, lambda prefixes, _tokens: np.zeros(len(prefixes)), prune=True)
    return replace(best, score=None)


def exact_argmax_metric(model: PolicyValueModel, root: DecodeState, metric: Metric) -> Candidate:
    """Metric argmax over every terminated sequence below ``root``.

    Each level's outputs are scored against the root's reward anchor in one
    ``metric.score_batch`` call, as the walk reaches them. Ties prefer higher
    likelihood, then the lexicographically smaller token sequence.
    """
    anchor = reward_anchor(metric, root)
    eos = model.eos_id

    def score_level(prefixes: list[Sequence], tokens: list[int]) -> np.ndarray:
        # An EOS-ended output's content is its prefix; an output cut off by the cap keeps its token.
        contents = [p if a == eos else p + (a,) for p, a in zip(prefixes, tokens)]
        return np.array(metric.score_batch(anchor, contents))

    return _argmax(model, root, score_level, prune=False)
