"""Policy/value providers and inference-budget accounting.

All decoders consume the same provider contract: batched ``evaluate_root`` /
``evaluate_step`` calls returning a prior over the vocabulary and a scalar
value estimate per state, with every call charged to a :class:`BudgetLedger`.
The concrete providers here are small deterministic tabular models that stand
in for trained networks, so every downstream number can be checked by hand or
by exhaustive enumeration.

Two conventions make the sequence distribution proper and the search loops
total:

* forced EOS — one step before the length cap the prior becomes a one-hot on
  EOS, so every trajectory terminates with EOS and probabilities sum to 1;
* absorbing terminals — evaluating any action from a terminal state returns
  the same state, the same value, a one-hot EOS prior and ``terminal=True``,
  so lockstep batched loops can keep running past finished elements.

Charged greedy completion (rollouts, greedy decoding) is :func:`.mdp.complete`
under :func:`greedy_policy`; the value head's own walk is uncharged forward pass.

A model holds no per-instance data: an instance's reference enters decoding
once, through :meth:`PolicyValueModel.initial_state`, and rides in every state
stepped from it, so the value head and rollouts score each state against its
own reference.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .mdp import (
    ConfigurationError,
    ContractViolation,
    DecodeState,
    Sequence,
    clamp01,
    complete,
    step,
    terminal_reward,
)
from .scoring import Metric


class BudgetLedger:
    """Counts model forward calls and emitted output tokens.

    Both counters are monotone; ``per_token()`` is the fair-comparison
    statistic (model evaluations per emitted token).
    """

    def __init__(self) -> None:
        self.evaluations = 0
        self.tokens_decoded = 0

    def charge_evaluations(self, n: int) -> None:
        if n < 0:
            raise ValueError("cannot uncharge evaluations")
        self.evaluations += n

    def charge_tokens(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("cannot uncharge tokens")
        self.tokens_decoded += n

    def per_token(self) -> float:
        if self.tokens_decoded == 0:
            return 0.0
        return self.evaluations / self.tokens_decoded

    def snapshot(self) -> tuple[int, int]:
        return (self.evaluations, self.tokens_decoded)


@dataclass(frozen=True)
class ModelState:
    """Incremental-evaluation handle; advancing it matches stepping the state."""

    state: DecodeState


def apply_temperature(prior: np.ndarray, tau: float) -> np.ndarray:
    """Renormalized tempered distribution ``p^(1/tau) / sum``, row by row.

    ``prior`` is one distribution ``(V,)`` or a batch ``(B, V)``; each row
    needs a positive entry. ``tau`` must be strictly positive; callers wanting
    the greedy limit should take an argmax instead of passing tau -> 0.
    """
    if tau <= 0:
        raise ConfigurationError("temperature must be > 0")
    p = np.asarray(prior, dtype=float)
    if p.ndim not in (1, 2) or p.size == 0:
        raise ValueError("prior must be a non-empty vector or batch of vectors")
    if tau == 1.0:
        return p.copy()
    pos = p > 0
    if not pos.any(axis=-1).all():
        raise ValueError("every prior row needs a positive entry")
    # Divide by the row max first so p == 1 stays exactly 1 (one-hot fixed point).
    row_max = p.max(axis=-1, keepdims=True)
    scaled = np.where(pos, np.exp(np.log(np.where(pos, p, row_max) / row_max) / tau), 0.0)
    return scaled / scaled.sum(axis=-1, keepdims=True)


class PolicyValueModel:
    """Base provider: vocabulary bookkeeping, forced EOS, absorbing terminals.

    Subclasses supply ``_table_prior(state)``. The value head is the score of
    a greedy completion under ``value_metric`` (0.0 when no metric is set),
    against the state's own reference, and is cached per (source, reference,
    prefix); it is part of the forward pass and costs nothing beyond the
    evaluation that produced it.
    """

    def __init__(
        self,
        vocab_size: int,
        max_len: int,
        value_metric: Metric | None = None,
        ledger: BudgetLedger | None = None,
    ):
        if vocab_size < 2:
            raise ConfigurationError("vocab_size must be >= 2 (one content token plus EOS)")
        if max_len < 1:
            raise ConfigurationError("max_len must be >= 1")
        self.vocab_size = vocab_size
        self.max_len = max_len  # content horizon, excludes the closing EOS
        self.eos_id = vocab_size - 1
        self.ledger = ledger if ledger is not None else BudgetLedger()
        self._value_metric = value_metric
        self._value_cache: dict[tuple[Sequence, Sequence | None, Sequence], float] = {}

    # ----------------------------------------------------------- state access

    def initial_state(
        self, source: Sequence = (), reference: Sequence | None = None
    ) -> DecodeState:
        """The empty-prefix state of one instance; the only way a reference enters decoding."""
        return DecodeState(
            source=tuple(source),
            prefix=(),
            max_len=self.max_len + 1,
            eos_id=self.eos_id,
            reference=tuple(reference) if reference is not None else None,
        )

    def _table_prior(self, state: DecodeState) -> np.ndarray:
        raise NotImplementedError

    def prior(self, state: DecodeState) -> np.ndarray:
        """Next-token distribution; does not touch the ledger."""
        if state.terminal or len(state.prefix) == state.max_len - 1:
            one_hot = np.zeros(self.vocab_size)
            one_hot[self.eos_id] = 1.0
            return one_hot
        return self._table_prior(state)

    def value(self, state: DecodeState) -> float:
        """Value head output for one state (memoized; the head is deterministic)."""
        key = (state.source, state.reference, state.prefix)
        cached = self._value_cache.get(key)
        if cached is None:
            cached = self._value(state)
            if not math.isfinite(cached):
                raise ContractViolation(f"value head returned {cached} for state {state}")
            self._value_cache[key] = cached
        return cached

    def _value(self, state: DecodeState) -> float:
        """Default head: greedy-completion score under the configured metric."""
        if self._value_metric is None:
            return 0.0
        s = state
        while not s.terminal:
            s = step(s, int(np.argmax(self.prior(s))))
        return terminal_reward(s, self._value_metric)

    # ------------------------------------------------------- batched interface

    def evaluate_root(
        self, states: list[DecodeState]
    ) -> tuple[np.ndarray, np.ndarray, list[ModelState]]:
        """Evaluate a batch of states from scratch; charges one call per state."""
        if not states:
            raise ValueError("empty batch")
        priors = np.stack([self.prior(s) for s in states])
        values = np.array([self.value(s) for s in states])
        self.ledger.charge_evaluations(len(states))
        return priors, values, [ModelState(s) for s in states]

    def evaluate_step(
        self, model_states: list[ModelState], actions: list[int]
    ) -> tuple[np.ndarray, np.ndarray, list[ModelState], np.ndarray]:
        """Advance each handle by one action and evaluate the result.

        Terminal handles absorb: the action is ignored and the same state is
        returned, terminal and unchanged in value.
        """
        if len(model_states) != len(actions):
            raise ValueError("one action required per model state")
        next_states = []
        for ms, a in zip(model_states, actions):
            if ms.state.terminal:
                next_states.append(ms.state)
            else:
                next_states.append(step(ms.state, int(a)))
        priors = np.stack([self.prior(s) for s in next_states])
        values = np.array([self.value(s) for s in next_states])
        terminal = np.array([s.terminal for s in next_states])
        self.ledger.charge_evaluations(len(next_states))
        return priors, values, [ModelState(s) for s in next_states], terminal


class SeededTabularModel(PolicyValueModel):
    """Reproducible random model whose prior depends on the last few tokens.

    Each context (the last ``context_order`` prefix tokens) gets a strictly
    positive prior drawn from a Dirichlet keyed by (seed, context), so priors
    are identical across calls and independent of evaluation order.
    """

    def __init__(
        self,
        seed: int,
        vocab_size: int,
        max_len: int,
        context_order: int = 0,
        value_metric: Metric | None = None,
    ):
        super().__init__(vocab_size, max_len, value_metric)
        if context_order < 0:
            raise ConfigurationError("context_order must be >= 0")
        self.seed = seed
        self.context_order = context_order
        self._priors: dict[Sequence, np.ndarray] = {}

    def _table_prior(self, state: DecodeState) -> np.ndarray:
        context = state.prefix[-self.context_order :] if self.context_order > 0 else ()
        cached = self._priors.get(context)
        if cached is None:
            rng = np.random.default_rng([self.seed, *context])
            cached = rng.dirichlet(np.ones(self.vocab_size))
            self._priors[context] = cached
        return cached.copy()


class FixedPriorModel(PolicyValueModel):
    """Context-free model emitting the same prior at every non-forced state."""

    def __init__(
        self, prior: Sequence | np.ndarray, max_len: int, value_metric: Metric | None = None
    ):
        p = np.asarray(prior, dtype=float)
        if p.ndim != 1:
            raise ValueError("prior must be a vector")
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("prior must be a probability vector")
        super().__init__(len(p), max_len, value_metric)
        self._prior = p

    def _table_prior(self, state: DecodeState) -> np.ndarray:
        return self._prior.copy()


class TransformedValueModel(PolicyValueModel):
    """Wraps a provider, mapping its value head through ``transform(value, state)``.

    Shares the inner model's ledger, so wrapped evaluations are charged once.
    """

    def __init__(self, inner: PolicyValueModel, transform):
        super().__init__(inner.vocab_size, inner.max_len, value_metric=None, ledger=inner.ledger)
        self._inner = inner
        self._transform = transform

    def _table_prior(self, state: DecodeState) -> np.ndarray:
        return self._inner._table_prior(state)

    def _value(self, state: DecodeState) -> float:
        return float(self._transform(self._inner.value(state), state))


class NoisyValueModel(TransformedValueModel):
    """Emulates an imperfect value network: seeded per-state noise, clamped to [0, 1]."""

    def __init__(self, inner: PolicyValueModel, amplitude: float, seed: int = 0):
        if amplitude < 0:
            raise ConfigurationError("amplitude must be >= 0")

        def perturb(value: float, state: DecodeState) -> float:
            payload = repr((seed, state.source, state.prefix)).encode()
            digest = hashlib.blake2b(payload, digest_size=8).digest()
            unit = int.from_bytes(digest, "big") / 2.0**64
            return clamp01(value + amplitude * (2.0 * unit - 1.0))

        super().__init__(inner, perturb)
        self.amplitude = amplitude


def affine_value_model(inner: PolicyValueModel, scale: float, shift: float) -> TransformedValueModel:
    """Value head replaced by ``scale * v + shift`` (selection should not care)."""
    return TransformedValueModel(inner, lambda v, _state: scale * v + shift)


def make_seeded_model(
    seed: int,
    vocab_size: int,
    max_len: int,
    context_order: int = 0,
    value_metric: Metric | None = None,
    value_noise: float = 0.0,
) -> PolicyValueModel:
    """Build a seeded tabular provider, with a noisy value head unless ``value_noise`` is 0."""
    model: PolicyValueModel = SeededTabularModel(
        seed, vocab_size, max_len, context_order, value_metric
    )
    if value_noise != 0.0:
        model = NoisyValueModel(model, value_noise, seed)
    return model


# ------------------------------------------------------------------- rollouts


def greedy_policy(model: PolicyValueModel):
    """``complete`` policy: argmax of one charged ``evaluate_root``, ties to the lowest id."""

    def policy(_indices: list[int], states: list[DecodeState]):
        priors, _, _ = model.evaluate_root(states)
        return priors, np.argmax(priors, axis=1)

    return policy


def rollout_value(model: PolicyValueModel, states: list[DecodeState], metric: Metric) -> np.ndarray:
    """Greedy-complete each prefix, in lockstep, and return its terminal reward.

    Unlike the value head, this is an explicit search-time procedure: every
    greedy step is a real model call and is charged to the ledger. A terminal
    state is scored directly at zero cost. Each state is scored against its
    own reference.
    """
    final, _ = complete(states, greedy_policy(model))
    return np.array([terminal_reward(s, metric) for s in final])


def model_value_fn(model: PolicyValueModel):
    """Batch value oracle backed by the model's value head (one call per state)."""

    def fn(states: list[DecodeState]) -> np.ndarray:
        _, values, _ = model.evaluate_root(list(states))
        return values

    return fn


def rollout_value_fn(model: PolicyValueModel, metric: Metric):
    """Batch value oracle backed by greedy rollouts (charged per rollout step)."""

    def fn(states: list[DecodeState]) -> np.ndarray:
        return rollout_value(model, list(states), metric)

    return fn
