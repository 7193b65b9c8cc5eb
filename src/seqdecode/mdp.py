"""Deterministic token-level decoding MDP.

States are (source, output prefix) pairs over an integer vocabulary, plus the
instance's reference when it has one. Appending a token is the only action; a
state is terminal once the prefix ends with the EOS token or hits the hard
length cap. Reward exists only at terminal states and is delegated to a
metric, which scores against the state's own reference or source
(:func:`reward_anchor`). Decoders and the exact oracles alike start from a
root built by ``PolicyValueModel.initial_state``. Decoders reach every other
state by :func:`step`; the oracles walk arrays of output prefixes below the
root and step only the state of the output they return. So a state's cap and
reference are its instance's. Each output they return is a
:class:`Candidate`: a terminal state and its log-likelihood.

A state is validated once, when it is built, and ``DecodeState(...)`` and
:func:`step` are its only builders. A non-terminal prefix holds no EOS, so
:func:`step` checks only the token it appends and derives the child's
``terminal`` flag from that token.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    from .scoring import Metric

Sequence = tuple[int, ...]


class ContractViolation(RuntimeError):
    """An operation was called outside its stated preconditions."""


class ConfigurationError(ValueError):
    """Incompatible configuration, e.g. a reference-based metric without a reference."""


def is_integer(value) -> bool:
    """A Python or numpy integer; a bool is not one, nor is a float of integral value."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_integer(name: str, value, least: int | None = None) -> None:
    """A ``ConfigurationError`` naming ``name`` unless ``value`` is an integer, and one
    >= ``least`` when that is given."""
    if not is_integer(value) or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ConfigurationError(f"{name} must be an integer{bound}, not {value!r}")


def check_real(
    name: str, value, least: float, most: float | None = None, *, strict: bool = False
) -> None:
    """A ``ConfigurationError`` naming ``name`` unless ``value`` is a finite real number (a
    bool is not one) >= ``least``, or > ``least`` when ``strict``, and <= ``most`` when that
    is given."""
    # The exact-type test spares the common case the slower abstract-class check.
    real = type(value) in (float, int) or (
        isinstance(value, numbers.Real) and not isinstance(value, bool)
    )
    above = real and math.isfinite(value) and (value > least if strict else value >= least)
    if not (above and (most is None or value <= most)):
        bound = f"in [{least}, {most}]" if most is not None else f"{'>' if strict else '>='} {least}"
        raise ConfigurationError(f"{name} must be a finite number {bound}, not {value!r}")


def clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else float(x)


def _check_token(t: int, eos_id: int) -> None:
    if t > eos_id:
        raise ValueError(f"token id {t} is outside the vocabulary (EOS is {eos_id})")
    if t < 0:
        raise ValueError(f"negative token id {t}")


def validate_sequence(tokens: Sequence, eos_id: int) -> None:
    """Ids lie in ``[0, eos_id]``, and EOS appears at most once, as the final token."""
    for i, t in enumerate(tokens):
        if t >= eos_id or t < 0:
            _check_token(t, eos_id)
            if i != len(tokens) - 1:
                raise ValueError("EOS may only appear as the final token")


@dataclass(frozen=True, slots=True)
class DecodeState:
    """One MDP state: a source sentence plus a partial output.

    ``max_len`` caps ``len(prefix)`` *including* the closing EOS token, so a
    model with content horizon ``h`` produces states with ``max_len = h + 1``.
    ``reference`` is the instance's reference (a tuple, or None), carried
    unchanged by :func:`step`; only the reward scores against it (see
    :func:`reward_anchor`). Its ids are checked once where a dataset enters
    (``harness.check_token_ids``), not on every step. ``source``, ``prefix`` and
    ``reference`` are stored as tuples whatever sequence type they are built from.
    ``terminal`` is computed when the state is built; it takes no part in
    equality or hashing. The class has slots, so each of the many states a
    search holds at once stays small.
    """

    source: Sequence
    prefix: Sequence
    max_len: int
    eos_id: int
    reference: Sequence | None = None
    terminal: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Stored as tuples (tuple() returns a tuple itself); step() bypasses this method.
        object.__setattr__(self, "source", tuple(self.source))
        object.__setattr__(self, "prefix", tuple(self.prefix))
        if self.reference is not None:
            object.__setattr__(self, "reference", tuple(self.reference))
        if self.max_len < 1:
            raise ValueError("max_len must be positive")
        if len(self.prefix) > self.max_len:
            raise ValueError("prefix longer than max_len")
        validate_sequence(self.source, self.eos_id)
        validate_sequence(self.prefix, self.eos_id)
        ends_with_eos = len(self.prefix) > 0 and self.prefix[-1] == self.eos_id
        object.__setattr__(self, "terminal", ends_with_eos or len(self.prefix) == self.max_len)

    @property
    def content(self) -> Sequence:
        """The prefix without its closing EOS; this is what metrics score."""
        if self.prefix and self.prefix[-1] == self.eos_id:
            return self.prefix[:-1]
        return self.prefix


# The slot descriptors set a field directly; the frozen class's own __setattr__ refuses.
_set_source = DecodeState.source.__set__
_set_prefix = DecodeState.prefix.__set__
_set_max_len = DecodeState.max_len.__set__
_set_eos_id = DecodeState.eos_id.__set__
_set_reference = DecodeState.reference.__set__
_set_terminal = DecodeState.terminal.__set__
_new_state = DecodeState.__new__


def step(state: DecodeState, action: int) -> DecodeState:
    """Append one token. Stepping a terminal state is a caller bug.

    ``state`` was validated when it was built and, being live, holds no EOS
    and is shorter than its cap, so only ``action`` needs checking; the child
    is built without re-running ``DecodeState.__post_init__``.
    """
    if state.terminal:
        raise ContractViolation("step() called on a terminal state")
    eos_id = state.eos_id
    if action >= eos_id or action < 0:
        _check_token(action, eos_id)
    prefix = state.prefix + (action,)
    max_len = state.max_len
    child = _new_state(DecodeState)
    _set_source(child, state.source)
    _set_prefix(child, prefix)
    _set_max_len(child, max_len)
    _set_eos_id(child, eos_id)
    _set_reference(child, state.reference)
    _set_terminal(child, action == eos_id or len(prefix) == max_len)
    return child


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
        for i, prior, token in zip(live, np.asarray(priors).tolist(), np.asarray(tokens).tolist()):
            log_likelihoods[i] += math.log(prior[token])
            final[i] = step(final[i], token)
        live = [i for i in live if not final[i].terminal]
    return final, log_likelihoods


@dataclass(frozen=True)
class Candidate:
    """A finished output: its final state and its exact log-likelihood under the model.

    ``evaluations`` is the model evaluations charged for this output alone, set by a
    decoder that tallies them per batch element.
    """

    state: DecodeState
    log_likelihood: float
    score: float | None = None
    value: float | None = None
    evaluations: int | None = None

    @property
    def sequence(self) -> Sequence:
        """The output tokens, the final state's prefix."""
        return self.state.prefix


def reward_anchor(metric: "Metric", state: DecodeState) -> Sequence:
    """What ``metric`` scores an output of ``state``'s instance against.

    Reference-based (privileged) metrics compare against the state's
    reference, which must exist; source-only (unprivileged) metrics compare
    against its source. A closing EOS is dropped, as :attr:`DecodeState.content`
    drops the output's.
    """
    if metric.privileged and state.reference is None:
        raise ConfigurationError(f"metric {metric.name!r} requires a reference")
    anchor = state.reference if metric.privileged else state.source
    return anchor[:-1] if anchor and anchor[-1] == state.eos_id else anchor


def terminal_reward(state: DecodeState, metric: "Metric") -> float:
    """Score a finished output against :func:`reward_anchor` of its state.

    The closing EOS is excluded from the scored text; the metric returns a
    value in [0, 1].
    """
    if not state.terminal:
        raise ContractViolation("terminal_reward() called on a non-terminal state")
    return metric(reward_anchor(metric, state), state.content)
