"""Policy/value providers and inference-budget accounting.

All decoders consume the same provider contract: batched ``evaluate_root`` /
``evaluate_step`` calls returning a prior over the vocabulary and a scalar
value estimate per state, and the policy-only ``evaluate_policy``, which
returns the priors alone and never runs the value head; every call is charged
to a :class:`BudgetLedger`, one evaluation per state. MCTS uses the first
two; greedy, beam and sampling decoders, and the expansion of value-guided
beam search, use the third; :func:`model_value_fn` reads the value head alone
and charges one evaluation per state as well.
The concrete providers here are small deterministic tabular models that stand
in for trained networks, so every downstream number can be checked by hand or
by exhaustive enumeration.

Forced EOS makes the sequence distribution proper: one step before the
length cap the prior becomes a one-hot on EOS, so every trajectory terminates
with EOS and probabilities sum to 1. A terminal state's prior is that one-hot
as well, so a finished row of a lockstep batch can be read like a live one.

Priors are served a batch at a time by :meth:`PolicyValueModel.priors`, the
one home of forced EOS, and every provider keeps that rule: a provider
supplies its table, never ``priors`` itself (the contract is stated on
:class:`PolicyValueModel`). Two users rely on it: the exact oracles close each
prefix one token short of the cap with EOS, at probability 1, without reading
its prior; and :func:`.mcts.decode_mcts` puts such a prefix in its round's
arena at simulation count 0, an element settled before its first simulation:
its pick is its root's slot 0, the top of that one-hot prior, and its skipped
simulations are charged on the ledger as a settled element's are. The oracles
read every other level's priors off its array of output prefixes, in one
:meth:`PolicyValueModel.prefix_priors` call, which returns ``priors`` of
those prefixes' states bit for bit. It is the one array hook: by default it
builds the rows' states and reads their table; the seeded table gathers its
rows by each row's context instead, and a wrapped provider asks the model it
wraps. A handle (:class:`ModelState`) carries its value, and
``evaluate_step`` steps live handles only: a charge that computes nothing,
such as a search's stop at a terminal state, goes straight to the ledger.

A :class:`ModelSpec` holds everything that builds a provider, and its
``build`` is the one construction rule; :func:`make_seeded_model` is its
seeded-table shorthand.

Every greedy completion is walked by :func:`.mdp.complete` under
:func:`greedy_policy`, the one argmax rule (ties to the lowest id), over the
charged ``evaluate_policy`` for greedy decoding and the uncharged ``priors``
for the per-provider memo, :meth:`PolicyValueModel.greedy_rewards`. The memo
stores each final state under every prefix its walk passed, and a final
state's terminal reward is computed once per metric. It is the only store of
values: the value head and :func:`rollout_value` both read it, and a wrapped
provider (:class:`TransformedValueModel`) shares the memo of the model it
wraps. The value head's walk is part of the forward pass and costs nothing; a
rollout charges one evaluation per greedy step from the state it was asked
for, whether or not the walk is recomputed.

A model holds no per-instance data: an instance's reference enters decoding
once, through :meth:`PolicyValueModel.initial_state`, and rides in every state
stepped from it, so the value head and rollouts score each state against its
own reference.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .mdp import (
    ConfigurationError,
    ContractViolation,
    DecodeState,
    Sequence,
    check_integer,
    check_real,
    clamp01,
    complete,
    step,
    terminal_reward,
)
from .scoring import Metric

StateKey = tuple[Sequence, Sequence | None, Sequence]  # (source, reference, prefix)


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
    """Incremental-evaluation handle: a state and the value head's output for it.

    Advancing a live handle matches stepping the state; a terminal handle
    cannot be advanced.
    """

    state: DecodeState
    value: float


def _checked_prior(row, state: DecodeState, vocab_size: int) -> np.ndarray:
    """``row`` as a float vector of length V, finite, non-negative and summing
    to 1 within 1e-9; otherwise ``ContractViolation`` naming ``state``."""
    p = np.asarray(row, dtype=float)
    if p.shape != (vocab_size,):
        problem = f"has shape {p.shape}, expected ({vocab_size},)"
    elif not np.isfinite(p).all():
        problem = "has a non-finite entry"
    elif (p < 0).any():
        problem = "has a negative entry"
    elif abs(p.sum() - 1.0) > 1e-9:
        problem = f"sums to {float(p.sum())!r}, not 1"
    else:
        return p
    raise ContractViolation(f"prior {p.tolist()} for state {state} {problem}")


def apply_temperature(prior: np.ndarray, tau: float) -> np.ndarray:
    """Renormalized tempered distribution ``p^(1/tau) / sum``, row by row.

    ``prior`` is one distribution ``(V,)`` or a batch ``(B, V)``; each row
    needs a positive entry. ``tau`` must be finite and strictly positive;
    callers wanting the greedy limit should take an argmax instead of passing
    tau -> 0.
    """
    check_real("temperature", tau, 0, strict=True)
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


def top_actions(priors: np.ndarray, k: int) -> np.ndarray:
    """Each row's top-``k`` token ids ``(n, k)``: descending prior, ties to the lower id."""
    return (-priors).argsort(axis=1, kind="stable")[:, :k]


class PolicyValueModel:
    """Base provider: vocabulary bookkeeping, forced EOS, the budget ledger.

    Subclasses supply the prior of non-forced states: ``_table_priors(states)``
    for a batch, or ``_table_prior(state)`` for one state, which the default
    ``_table_priors`` stacks and checks. :meth:`priors` is not a hook: every
    provider serves forced EOS through it, and no subclass overrides it.
    :meth:`prefix_priors` is the one array hook, for prefixes short of the
    forced length: this class's builds the rows' states and reads
    ``_table_priors``, and a class may gather the rows off its own table
    instead. A class that overrides ``_table_priors`` and inherits a
    ``prefix_priors`` other than this class's also overrides
    ``prefix_priors``, so a gather never reads a table its class does not
    serve.

    The value head (:meth:`values`) is the score of the memoized greedy
    completion (:meth:`greedy_rewards`) under ``value_metric`` (0.0 when no
    metric is set), against the state's own reference; it is part of the
    forward pass and costs nothing beyond the evaluation that produced it.
    """

    def __init__(
        self,
        vocab_size: int,
        max_len: int,
        value_metric: Metric | None = None,
        ledger: BudgetLedger | None = None,
    ):
        check_integer("vocab_size", vocab_size, 2)  # one content token plus EOS
        check_integer("max_len", max_len, 1)
        self.vocab_size = vocab_size
        self.max_len = max_len  # content horizon, excludes the closing EOS
        self.eos_id = vocab_size - 1
        self.ledger = ledger if ledger is not None else BudgetLedger()
        self._value_metric = value_metric
        self._completions: dict[StateKey, DecodeState] = {}  # greedy completion memo
        self._rewards: dict[Metric, dict[StateKey, float]] = {}  # per metric, per final state

    # ----------------------------------------------------------- state access

    def initial_state(
        self, source: Sequence = (), reference: Sequence | None = None
    ) -> DecodeState:
        """The empty-prefix state of one instance; the only way a reference enters decoding."""
        return DecodeState(source, (), self.max_len + 1, self.eos_id, reference)

    def _table_prior(self, state: DecodeState) -> np.ndarray:
        raise NotImplementedError

    def _table_priors(self, states: list[DecodeState]) -> np.ndarray:
        """A new ``(n, V)`` array of table rows for non-forced states.

        This default stacks ``_table_prior`` rows and checks each one.
        """
        return np.stack([_checked_prior(self._table_prior(s), s, self.vocab_size) for s in states])

    def priors(self, states: list[DecodeState]) -> np.ndarray:
        """Next-token distributions ``(n, V)``; does not touch the ledger.

        Forced EOS: a terminal state, and a state one token short of its cap,
        gets a one-hot on EOS. Every other row comes from ``_table_priors``.
        """
        free = [i for i, s in enumerate(states) if not s.terminal and len(s.prefix) < s.max_len - 1]
        if len(free) == len(states):
            return self._table_priors(states)
        out = np.zeros((len(states), self.vocab_size))  # a forced or terminal row: EOS
        out[:, self.eos_id] = 1.0
        if free:
            out[free] = self._table_priors([states[i] for i in free])
        return out

    def prefix_priors(self, root: DecodeState, prefixes: np.ndarray) -> np.ndarray:
        """``priors`` of the states below ``root`` whose prefixes are the rows of
        ``prefixes``, bit for bit; does not touch the ledger.

        ``prefixes`` is an ``(n, L)`` integer array of live output prefixes of
        one length short of the forced one (``L < root.max_len - 1``, ids below
        EOS), ``root.prefix`` included, one per row, as the oracles' level walk
        holds them; so every row is a table row. This default builds each
        row's state, checked, and reads ``_table_priors``.
        """
        return self._table_priors([replace(root, prefix=row) for row in prefixes.tolist()])

    def values(self, states: list[DecodeState]) -> np.ndarray:
        """Value head outputs ``(n,)``, read through the greedy-completion memo; a
        non-finite output is a ``ContractViolation`` naming its state."""
        values = self._head(states)
        for s, v in zip(states, values):
            if not math.isfinite(v):
                raise ContractViolation(f"value head returned {v} for state {s}")
        return np.array(values, dtype=float)

    def clear_value_cache(self) -> None:
        """Forget every memoized greedy completion and reward; a value asked for again is
        recomputed, identically."""
        self._completions.clear()
        self._rewards.clear()

    def _head(self, states: list[DecodeState]) -> list[float]:
        """Greedy-completion score of each state under the value metric, or 0.0 without one."""
        if self._value_metric is None:
            return [0.0] * len(states)
        return self.greedy_rewards(states, self._value_metric)[1]

    def greedy_rewards(
        self, states: list[DecodeState], metric: Metric
    ) -> tuple[list[DecodeState], list[float]]:
        """Each state's greedy completion and that final state's ``terminal_reward``.

        A terminal state is its own completion. Every other state is looked up
        once in the memo, keyed per (source, reference, prefix); the misses are
        walked together by :func:`.mdp.complete` under :func:`greedy_policy`
        over ``priors``, and each final state is stored under every prefix its
        walk passed. Rewards are memoized per (metric, final state). Does not
        touch the ledger.
        """
        memo = self._completions
        finals = [s if s.terminal else memo.get((s.source, s.reference, s.prefix)) for s in states]
        misses = [i for i, f in enumerate(finals) if f is None]
        walked, _ = complete([states[i] for i in misses], greedy_policy(self.priors))
        for i, f in zip(misses, walked):
            finals[i] = f
            for n in range(len(states[i].prefix), len(f.prefix)):
                memo[f.source, f.reference, f.prefix[:n]] = f

        scores = self._rewards.setdefault(metric, {})
        rewards = []
        for f in finals:
            key = (f.source, f.reference, f.prefix)
            reward = scores.get(key)
            if reward is None:
                reward = scores[key] = terminal_reward(f, metric)
            rewards.append(reward)
        return finals, rewards

    # ------------------------------------------------------- batched interface

    def evaluate_root(
        self, states: list[DecodeState]
    ) -> tuple[np.ndarray, np.ndarray, list[ModelState]]:
        """Evaluate a batch of states from scratch; charges one call per state."""
        if not states:
            raise ValueError("empty batch")
        priors = self.priors(states)
        values = self.values(states)
        self.ledger.charge_evaluations(len(states))
        return priors, values, [ModelState(s, v) for s, v in zip(states, values.tolist())]

    def evaluate_policy(self, states: list[DecodeState]) -> np.ndarray:
        """Priors ``(n, V)`` of a batch of states, without the value head; charges one
        call per state, as ``evaluate_root`` does."""
        if not states:
            raise ValueError("empty batch")
        priors = self.priors(states)
        self.ledger.charge_evaluations(len(states))
        return priors

    def evaluate_step(
        self, model_states: list[ModelState], actions: list[int]
    ) -> tuple[np.ndarray, np.ndarray, list[ModelState], np.ndarray]:
        """Advance each live handle by one action and evaluate the result; charges one
        call per handle.

        A terminal handle cannot be advanced: :func:`.mdp.step` refuses it with a
        ``ContractViolation`` before anything is evaluated or charged.
        """
        if len(model_states) != len(actions):
            raise ValueError("one action required per model state")
        if not model_states:
            raise ValueError("empty batch")
        states = [step(ms.state, int(a)) for ms, a in zip(model_states, actions)]
        priors = self.priors(states)
        values = self.values(states)
        self.ledger.charge_evaluations(len(states))
        handles = [ModelState(s, v) for s, v in zip(states, values.tolist())]
        return priors, values, handles, np.array([s.terminal for s in states])


class SeededTabularModel(PolicyValueModel):
    """Reproducible random model whose prior depends on the last few tokens.

    Each context (the last ``context_order`` prefix tokens) gets a strictly
    positive prior drawn from a Dirichlet keyed by (seed, context), so priors
    are identical across calls and independent of evaluation order. A row is
    drawn and checked on first use, into one table indexed by context id, and
    a batch's rows are one gather from it.
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
        check_integer("context_order", context_order, 0)
        check_integer("model seed", seed)
        if seed < 0:
            raise ConfigurationError(f"model seed must be >= 0, got {seed}")
        self.seed = seed
        self.context_order = context_order
        self._context_ids: dict[Sequence, int] = {}
        self._table = np.empty((8, vocab_size))  # row i is the prior of context id i

    def _table_priors(self, states: list[DecodeState]) -> np.ndarray:
        k = self.context_order
        ids = []
        for s in states:
            context = s.prefix[-k:] if k > 0 else ()
            i = self._context_ids.get(context)
            if i is None:
                i = self._add_row(context, s)
            ids.append(i)
        return self._table.take(ids, axis=0)

    def prefix_priors(self, root: DecodeState, prefixes: np.ndarray) -> np.ndarray:
        """One gather from the table, with one lookup per distinct context of the rows; a
        state is built, checked, only for a context the table misses."""
        length = prefixes.shape[1]
        contexts = prefixes[:, length - min(self.context_order, length) :]  # a short row is its own
        key = np.zeros(len(prefixes), dtype=np.intp)  # each row's context rank, one to start
        first = key[:1]  # the first row of each rank
        for column in contexts.T:  # refine by one column at a time, so a key stays below n * V
            _, first, key = np.unique(
                key * self.vocab_size + column, return_index=True, return_inverse=True
            )
        ids = []
        for row in first.tolist():
            context = tuple(contexts[row].tolist())
            i = self._context_ids.get(context)
            if i is None:
                i = self._add_row(context, replace(root, prefix=prefixes[row].tolist()))
            ids.append(i)
        return self._table.take(np.array(ids, dtype=np.intp)[key], axis=0)

    def _add_row(self, context: Sequence, state: DecodeState) -> int:
        rng = np.random.default_rng([self.seed, *context])
        row = _checked_prior(rng.dirichlet(np.ones(self.vocab_size)), state, self.vocab_size)
        i = len(self._context_ids)
        if i == len(self._table):
            self._table = np.concatenate([self._table, np.empty_like(self._table)])
        self._table[i] = row
        self._context_ids[context] = i
        return i


class FixedPriorModel(PolicyValueModel):
    """Context-free model emitting the same prior at every non-forced state."""

    def __init__(
        self, prior: Sequence | np.ndarray, max_len: int, value_metric: Metric | None = None
    ):
        p = np.asarray(prior, dtype=float)
        if p.ndim != 1:
            raise ValueError("prior must be a vector")
        if not (np.all(p >= 0) and abs(p.sum() - 1.0) <= 1e-9):  # NaN fails both tests
            raise ValueError("prior must be a probability vector")
        super().__init__(len(p), max_len, value_metric)
        self._prior = p

    def _table_priors(self, states: list[DecodeState]) -> np.ndarray:
        return np.tile(self._prior, (len(states), 1))


class TransformedValueModel(PolicyValueModel):
    """Wraps a provider, mapping its value head through ``transform(value, state)``.

    Shares the inner model's ledger, so wrapped evaluations are charged once, and its
    greedy-completion memo, so both walk, score and clear the same completions.
    """

    def __init__(self, inner: PolicyValueModel, transform):
        super().__init__(inner.vocab_size, inner.max_len, value_metric=None, ledger=inner.ledger)
        self._completions = inner._completions
        self._rewards = inner._rewards
        self._inner = inner
        self._transform = transform

    def _table_priors(self, states: list[DecodeState]) -> np.ndarray:
        return self._inner._table_priors(states)

    def prefix_priors(self, root: DecodeState, prefixes: np.ndarray) -> np.ndarray:
        return self._inner.prefix_priors(root, prefixes)

    def _head(self, states: list[DecodeState]) -> list[float]:
        inner = self._inner.values(states).tolist()
        return [float(self._transform(v, s)) for v, s in zip(inner, states)]


class NoisyValueModel(TransformedValueModel):
    """Emulates an imperfect value network: seeded per-state noise, clamped to [0, 1]."""

    def __init__(self, inner: PolicyValueModel, amplitude: float, seed: int = 0):
        check_real("amplitude", amplitude, 0)
        check_integer("model seed", seed)

        def perturb(value: float, state: DecodeState) -> float:
            payload = repr((seed, state.source, state.prefix)).encode()
            digest = hashlib.blake2b(payload, digest_size=8).digest()
            unit = int.from_bytes(digest, "big") / 2.0**64
            return clamp01(value + amplitude * (2.0 * unit - 1.0))

        super().__init__(inner, perturb)
        self.amplitude = amplitude


@dataclass(frozen=True)
class ModelSpec:
    """Everything that builds a provider; :meth:`build` is the one construction rule."""

    seed: int = 0
    vocab_size: int = 3
    max_len: int = 3
    context_order: int = 0
    value_noise: float = 0.0
    # When set, overrides the seeded table with one fixed prior (fixture models).
    prior: tuple[float, ...] | None = None

    def build(self, value_metric: Metric | None = None) -> PolicyValueModel:
        """A fresh provider with its own ledger; any nonzero ``value_noise`` wraps it.

        The provider constructors hold every rule a spec must meet, so building
        one is also how a spec is checked before anything is decoded.
        """
        check_real("value_noise", self.value_noise, 0)
        if self.prior is not None:
            model: PolicyValueModel = FixedPriorModel(self.prior, self.max_len, value_metric)
        else:
            model = SeededTabularModel(
                self.seed, self.vocab_size, self.max_len, self.context_order, value_metric
            )
        if self.value_noise != 0.0:
            model = NoisyValueModel(model, self.value_noise, self.seed)
        return model


def make_seeded_model(
    seed: int,
    vocab_size: int,
    max_len: int,
    context_order: int = 0,
    value_metric: Metric | None = None,
    value_noise: float = 0.0,
) -> PolicyValueModel:
    """Build a seeded tabular provider, with a noisy value head unless ``value_noise`` is 0."""
    return ModelSpec(seed, vocab_size, max_len, context_order, value_noise).build(value_metric)


# ------------------------------------------------------------------- rollouts


def greedy_policy(priors_fn):
    """``complete`` policy: the argmax of one ``priors_fn(states)`` call, ties to the lowest
    id; ``priors_fn`` is a model's charged ``evaluate_policy`` or its uncharged ``priors``."""

    def policy(_indices: list[int], states: list[DecodeState]):
        priors = priors_fn(states)
        return priors, priors.argmax(axis=1)

    return policy


def rollout_value(
    model: PolicyValueModel, states: list[DecodeState], metric: Metric
) -> tuple[np.ndarray, np.ndarray]:
    """The terminal reward of each state's greedy completion, read from the model's memo,
    and each state's charge: ``(n,)`` floats and ``(n,)`` integers.

    Unlike the value head, this is an explicit search-time procedure: every
    greedy step from a state is a model call and is charged to the ledger,
    ``len(final.prefix) - len(state.prefix)`` evaluations per state, whether
    or not the memo already holds the walk; a terminal state costs nothing.
    Each state is scored against its own reference.
    """
    finals, rewards = model.greedy_rewards(states, metric)
    charges = [len(f.prefix) - len(s.prefix) for f, s in zip(finals, states)]
    model.ledger.charge_evaluations(sum(charges))
    return np.array(rewards), np.array(charges, dtype=np.int64)


def model_value_fn(model: PolicyValueModel):
    """Batch value oracle backed by the model's value head; charges one evaluation per
    state, as ``evaluate_root`` does, without computing the priors it would return."""

    def fn(states: list[DecodeState]) -> np.ndarray:
        states = list(states)
        if not states:
            raise ValueError("empty batch")
        values = model.values(states)
        model.ledger.charge_evaluations(len(states))
        return values

    return fn


def rollout_value_fn(model: PolicyValueModel, metric: Metric):
    """Batch value oracle backed by greedy rollouts (charged per rollout step)."""

    def fn(states: list[DecodeState]) -> np.ndarray:
        return rollout_value(model, list(states), metric)[0]

    return fn
