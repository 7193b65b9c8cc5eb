"""Exact ground truth at desk scale.

Everything here walks the full space of terminated sequences below a root
state, built by ``model.initial_state`` as for every decoder, so a hard guard
refuses instances where the vocabulary and the root's remaining horizon would
make that explosive. Reads priors directly off the model tables and never
touches the budget ledger: these are verification tools, not decoders. One
walker goes level by level on arrays of output prefixes: it reads each
level's priors in one ``model.prefix_priors`` call on the level's prefix
array. The seeded table serves it off its own rows, building a state only
for a context it has not drawn yet; the default builds each row's state.
Every provider forces EOS one token short of the cap, so every output ends
with EOS, and the walker hands on a level's terminated outputs as one token
array of their prefixes plus an array of log-likelihoods. The level one
token short of the cap is never read, so no ``prefix_priors`` call asks for
a forced row: its outputs are its parents' live children with EOS appended,
at their own log-likelihood. The enumeration sorts all outputs into
one list of tuples. Both argmaxes keep only the best so far: the metric
argmax scores each level as it comes, one batch call per level; the
likelihood argmax scores all alike and prunes prefixes below the best so far.
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
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Walk the tree below ``root`` breadth-first on arrays of output prefixes,
    reading each level's priors in one ``model.prefix_priors`` call.

    Yields, per level, its terminated outputs as an ``(n, L)`` integer array of
    output prefixes (each output without its closing EOS, one row per
    output), and an array of their ``n`` exact log-likelihoods, in token
    order; every output of one level has the same length. A level with no
    terminated output yields ``n = 0``. After each yield, a live child
    less likely than ``floor()`` is dropped; an equally likely one is kept. A
    child likelier than its prefix is a ``ContractViolation``.

    No state is stepped: a level is its ``(n, L)`` prefix array, and the next
    level's array stacks each live child's parent row and token. Every
    provider forces EOS one token short of the root's cap, at probability 1,
    so every output ends with EOS. A level of that length is not read: it
    yields its prefix rows, each closed by EOS at its own log-likelihood, and
    the walk ends.
    """
    _check_root(model, root)
    eos = root.eos_id
    log_likelihoods = np.zeros(1)
    prefixes = np.array(root.prefix, dtype=np.intp).reshape(1, len(root.prefix))
    while len(prefixes):
        if prefixes.shape[1] == root.max_len - 1:
            # A level's prefixes share one length: one token short of the cap, every
            # prior is one-hot on EOS.
            yield prefixes, log_likelihoods  # log 1 = 0
            return
        priors = model.prefix_priors(root, prefixes)
        rows, tokens = np.nonzero(priors > 0.0)  # row-major: each prefix's children in token order
        steps = np.fromiter(map(math.log, priors[rows, tokens].tolist()), float, count=len(rows))
        if (steps > 1e-12).any():
            raise ContractViolation("likelihood must be non-increasing")
        child_lls = log_likelihoods[rows] + steps
        ended = tokens == eos
        yield prefixes[rows[ended]], child_lls[ended]
        live = ~ended & (child_lls >= floor())
        prefixes = np.column_stack((prefixes[rows[live]], tokens[live]))
        log_likelihoods = child_lls[live]


def enumerate_sequences(
    model: PolicyValueModel, root: DecodeState
) -> list[tuple[Sequence, float]]:
    """All terminated sequences below ``root`` with exact log-likelihoods, in
    lexicographic token order.

    No terminated sequence is a prefix of another, so this is also the
    depth-first order. Since every provider forces EOS, the returned
    probabilities sum to 1.
    """
    out: list[tuple[Sequence, float]] = []
    for prefixes, log_likelihoods in _levels(model, root):
        outputs = np.column_stack((prefixes, np.full(len(prefixes), root.eos_id))).tolist()
        out.extend(zip(map(tuple, outputs), log_likelihoods.tolist()))
    out.sort(key=itemgetter(0))
    return out


def _argmax(model: PolicyValueModel, root: DecodeState, score_level, prune: bool) -> Candidate:
    """The terminated sequence below ``root`` with the best (score, log-likelihood) key.

    ``score_level(prefixes)`` scores one level's outputs, given by their prefix
    rows as the walker yields them, as an array. The first best key in token order wins a
    level; an equal key across levels goes to the smaller sequence. ``prune``
    (sound for a constant score only) drops prefixes less likely than the best
    output so far. Only the winner becomes a tuple, and its state is stepped
    from ``root``, so it is the state a decoder reaches for that output.
    """
    best: tuple[tuple[float, float], Sequence] | None = None  # ((score, log-likelihood), sequence)

    def floor() -> float:
        return best[0][1] if prune and best else -math.inf

    for prefixes, log_likelihoods in _levels(model, root, floor):
        if not len(prefixes):
            continue
        scores = score_level(prefixes)
        top = np.flatnonzero(scores == scores.max())
        # argmax keeps the first of equal log-likelihoods: a level is in token order.
        i = top[np.argmax(log_likelihoods[top])]
        key = (float(scores[i]), float(log_likelihoods[i]))
        sequence = tuple(prefixes[i].tolist() + [root.eos_id])
        if best is None or key > best[0] or (key == best[0] and sequence < best[1]):
            best = (key, sequence)
    (score, log_likelihood), sequence = best
    state = reduce(step, sequence[len(root.prefix):], root)
    return Candidate(state, log_likelihood, score=score)


def exact_argmax_likelihood(model: PolicyValueModel, root: DecodeState) -> Candidate:
    """Global likelihood argmax below ``root``: the level walk, pruned below the best
    output so far, since appending tokens can only lower a likelihood. Equal
    likelihoods break to the lexicographically smaller sequence."""
    best = _argmax(model, root, lambda prefixes: np.zeros(len(prefixes)), prune=True)
    return replace(best, score=None)


def exact_argmax_metric(model: PolicyValueModel, root: DecodeState, metric: Metric) -> Candidate:
    """Metric argmax over every terminated sequence below ``root``.

    Each level's outputs are scored against the root's reward anchor as the
    walk reaches them, in one ``metric.score_batch`` call per level, handed
    the level's ``(n, L)`` array of prefix rows: every output ends with EOS,
    so its content is its prefix row. Ties prefer higher likelihood, then the
    lexicographically smaller token sequence.
    """
    anchor = reward_anchor(metric, root)
    return _argmax(
        model, root, lambda prefixes: np.array(metric.score_batch(anchor, prefixes)), prune=False
    )
