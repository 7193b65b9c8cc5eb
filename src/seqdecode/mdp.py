"""Deterministic token-level decoding MDP.

States are (source, output prefix) pairs over an integer vocabulary, plus the
instance's reference when it has one. Appending a token is the only action; a
state is terminal once the prefix ends with the EOS token or hits the hard
length cap. Reward exists only at terminal states and is delegated to a
metric, which scores against the state's own reference or source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from .scoring import Metric

Sequence = tuple[int, ...]


class ContractViolation(RuntimeError):
    """An operation was called outside its stated preconditions."""


class ConfigurationError(ValueError):
    """Incompatible configuration, e.g. a reference-based metric without a reference."""


def clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else float(x)


def validate_sequence(tokens: Sequence, eos_id: int) -> None:
    """Ids lie in ``[0, eos_id]``, and EOS appears at most once, as the final token."""
    for i, t in enumerate(tokens):
        if t >= eos_id:
            if t > eos_id:
                raise ValueError(f"token id {t} is outside the vocabulary (EOS is {eos_id})")
            if i != len(tokens) - 1:
                raise ValueError("EOS may only appear as the final token")
        elif t < 0:
            raise ValueError(f"negative token id {t}")


@dataclass(frozen=True)
class DecodeState:
    """One MDP state: a source sentence plus a partial output.

    ``max_len`` caps ``len(prefix)`` *including* the closing EOS token, so a
    model with content horizon ``h`` produces states with ``max_len = h + 1``.
    ``reference`` is the instance's reference (a tuple, or None), carried
    unchanged by :func:`step`; only :func:`terminal_reward` scores against it.
    Its ids are checked once where a dataset enters (``harness.check_token_ids``),
    not on every step.
    """

    source: Sequence
    prefix: Sequence
    max_len: int
    eos_id: int
    reference: Sequence | None = None

    def __post_init__(self) -> None:
        if self.max_len < 1:
            raise ValueError("max_len must be positive")
        if len(self.prefix) > self.max_len:
            raise ValueError("prefix longer than max_len")
        validate_sequence(self.source, self.eos_id)
        validate_sequence(self.prefix, self.eos_id)

    @property
    def terminal(self) -> bool:
        ends_with_eos = len(self.prefix) > 0 and self.prefix[-1] == self.eos_id
        return ends_with_eos or len(self.prefix) == self.max_len

    @property
    def content(self) -> Sequence:
        """The prefix without its closing EOS; this is what metrics score."""
        if self.prefix and self.prefix[-1] == self.eos_id:
            return self.prefix[:-1]
        return self.prefix


def step(state: DecodeState, action: int) -> DecodeState:
    """Append one token. Stepping a terminal state is a caller bug."""
    if state.terminal:
        raise ContractViolation("step() called on a terminal state")
    return replace(state, prefix=state.prefix + (action,))


def complete(
    states: list[DecodeState], policy: Callable[[list[int], list[DecodeState]], tuple]
) -> tuple[list[DecodeState], list[float]]:
    """Commit tokens to every unfinished state, in lockstep rounds, until all are terminal.

    Each round makes one ``policy(indices, live_states)`` call for the
    elements still live; it returns their priors (one row each) and the token
    chosen for each. An element's log-likelihood is the sum of
    ``log(prior[token])`` over the tokens committed to it. Terminal inputs come
    back unchanged, at log-likelihood 0, and never reach the policy.
    """
    final = list(states)
    log_likelihoods = [0.0] * len(final)
    live = [i for i, s in enumerate(final) if not s.terminal]
    while live:
        priors, tokens = policy(live, [final[i] for i in live])
        for i, prior, token in zip(live, priors, tokens):
            token = int(token)
            log_likelihoods[i] += math.log(prior[token])
            final[i] = step(final[i], token)
        live = [i for i in live if not final[i].terminal]
    return final, log_likelihoods


def terminal_reward(state: DecodeState, metric: "Metric") -> float:
    """Score a finished output.

    Reference-based (privileged) metrics compare against ``state.reference``;
    source-only (unprivileged) metrics compare against ``state.source``.
    The closing EOS is excluded from the scored text, and the result is
    clamped to [0, 1].
    """
    if not state.terminal:
        raise ContractViolation("terminal_reward() called on a non-terminal state")
    if metric.privileged:
        if state.reference is None:
            raise ConfigurationError(f"metric {metric.name!r} requires a reference")
        anchor = state.reference
    else:
        anchor = state.source
    return clamp01(metric(anchor, state.content))
