"""Exact ground truth at desk scale.

Everything here walks the full space of terminated sequences, so a hard guard
refuses instances where the vocabulary and horizon would make that explosive.
Reads priors directly off the model tables and never touches the budget
ledger: these are verification tools, not decoders.
"""

from __future__ import annotations

import math

from .mdp import ContractViolation, DecodeState, Sequence, step
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
    return DecodeState(tuple(source), (), horizon + 1, model.eos_id)


def enumerate_sequences(
    model: PolicyValueModel,
    source: Sequence = (),
    max_len: int | None = None,
) -> list[tuple[Sequence, float]]:
    """All terminated sequences with exact log-likelihoods, in DFS token order.

    Under the forced-EOS convention the returned probabilities sum to 1.
    """
    horizon = model.max_len if max_len is None else max_len
    _check_guard(model, horizon)
    out: list[tuple[Sequence, float]] = []

    def walk(state: DecodeState, log_likelihood: float) -> None:
        if state.terminal:
            out.append((state.prefix, log_likelihood))
            return
        prior = model.prior(state)
        for a in range(model.vocab_size):
            if prior[a] <= 0.0:
                continue
            walk(step(state, a), log_likelihood + math.log(prior[a]))

    walk(_root(model, source, max_len), 0.0)
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

    Ties prefer higher likelihood, then the lexicographically smaller token
    sequence.
    """
    from .decoders import Candidate
    from .mdp import terminal_reward

    best: Candidate | None = None
    best_key: tuple[float, float] | None = None
    for prefix, log_likelihood in enumerate_sequences(model, source, max_len):
        state = DecodeState(tuple(source), prefix, len(prefix), model.eos_id)
        score = terminal_reward(state, metric, reference)
        key = (score, log_likelihood)
        if (
            best_key is None
            or key > best_key
            or (key == best_key and prefix < best.sequence)
        ):
            best = Candidate(sequence=prefix, log_likelihood=log_likelihood, score=score, state=state)
            best_key = key
    return best
