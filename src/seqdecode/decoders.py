"""Non-tree decoders: greedy, beam search, value-guided beam search, sampling.

All decoders return :class:`Candidate` objects whose ``log_likelihood`` is the
sum of per-step log-probabilities under the raw (untempered) model. Finished
hypotheses keep competing in beam pools under the same ranking score; they are
never expanded further.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .mdp import (
    ConfigurationError,
    ContractViolation,
    DecodeState,
    Sequence,
    complete,
    step,
    terminal_reward,
)
from .models import PolicyValueModel, apply_temperature, greedy_policy
from .scoring import Metric


@dataclass(frozen=True)
class BeamConfig:
    k: int = 4
    theta: float = 0.0  # length-normalization exponent

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigurationError("beam size must be >= 1")
        if not (math.isfinite(self.theta) and self.theta >= 0):
            raise ConfigurationError("theta must be finite and >= 0")


@dataclass(frozen=True)
class VgbsConfig:
    k: int = 4
    alpha: float = 0.5  # weight on length-averaged log-likelihood

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigurationError("beam size must be >= 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigurationError("alpha must lie in [0, 1]")


@dataclass(frozen=True)
class Candidate:
    """A finished output with its exact log-likelihood under the model."""

    sequence: Sequence
    log_likelihood: float
    score: float | None = None
    value: float | None = None
    state: DecodeState | None = None


def length_normalizer(t: int, theta: float) -> float:
    """Beam-score discount ``(6 / (t + 5)) ** theta`` for a candidate of length t >= 1."""
    return (6.0 / (t + 5.0)) ** theta


# -------------------------------------------------------------------- greedy


def greedy_decode(model: PolicyValueModel, state: DecodeState) -> Candidate:
    """Follow the argmax token until terminal; ties go to the lowest token id."""
    if state.terminal:
        raise ContractViolation("greedy_decode() needs a non-terminal state")
    (s,), (log_likelihood,) = complete([state], greedy_policy(model))
    model.ledger.charge_tokens(len(s.prefix) - len(state.prefix))
    return Candidate(sequence=s.prefix, log_likelihood=log_likelihood, state=s)


# --------------------------------------------------------------- beam search


@dataclass(frozen=True)
class _Hypothesis:
    state: DecodeState
    log_likelihood: float


def _proposals(prior: np.ndarray, width: int) -> list[int]:
    """Top-``width`` actions by prior; ties resolved to lower ids."""
    order = np.argsort(-prior, kind="stable")
    return [int(a) for a in order[:width]]


def beam_search(model: PolicyValueModel, state: DecodeState, cfg: BeamConfig) -> Candidate:
    """Beam search ranked by length-normalized log-likelihood.

    Each live prefix proposes its top-k continuations; the pool of finished
    hypotheses plus live expansions is ranked by
    ``(6/(t+5))^theta * log pi`` (t counts emitted tokens including EOS) and
    the best k survive. Returns the best finished hypothesis.
    """
    if state.terminal:
        raise ContractViolation("beam_search() needs a non-terminal state")
    beam = [_Hypothesis(state, 0.0)]
    width = min(cfg.k, model.vocab_size)

    def rank(h: _Hypothesis) -> float:
        return length_normalizer(len(h.state.prefix), cfg.theta) * h.log_likelihood

    for _ in range(state.max_len - len(state.prefix)):
        if all(h.state.terminal for h in beam):
            break
        finished = [h for h in beam if h.state.terminal]
        live = [h for h in beam if not h.state.terminal]
        priors, _, _ = model.evaluate_root([h.state for h in live])

        pool = list(finished)
        for h, prior in zip(live, priors):
            for a in _proposals(prior, width):
                if prior[a] <= 0.0:
                    continue
                pool.append(_Hypothesis(step(h.state, a), h.log_likelihood + math.log(prior[a])))
        pool.sort(key=rank, reverse=True)  # stable: earlier pool entries win ties
        beam = pool[: cfg.k]
        model.ledger.charge_tokens(1)

    best = max((h for h in beam if h.state.terminal), key=rank)
    return Candidate(best.state.prefix, best.log_likelihood, score=rank(best), state=best.state)


# -------------------------------------------------- value-guided beam search


@dataclass(frozen=True)
class _Row:
    state: DecodeState
    log_likelihood: float
    value: float
    padding: bool  # padding rows keep the batch rectangular but never rank


def vgbs_score(log_likelihood: float, length: int, value: float, alpha: float) -> float:
    """Ranking rule: ``(alpha / t) * log pi + (1 - alpha) * v``."""
    return (alpha / length) * log_likelihood + (1.0 - alpha) * value


def value_guided_beam_search(
    model: PolicyValueModel,
    value_fn,
    state: DecodeState,
    cfg: VgbsConfig,
) -> Candidate:
    """Beam search whose ranking mixes log-likelihood with a value estimate.

    Runs in lockstep with exactly k rows: the root is replicated (duplicates
    masked out of the ranking) and finished rows absorb in place, exactly as a
    batched implementation would. Every step therefore performs k policy
    evaluations plus k*k value queries on the proposed children, which is the
    advertised cost of this decoder.
    """
    if state.terminal:
        raise ContractViolation("value_guided_beam_search() needs a non-terminal state")
    if cfg.k > model.vocab_size:
        raise ValueError("beam size must not exceed the vocabulary size")

    k = cfg.k
    rows = [_Row(state, 0.0, 0.0, padding=(i > 0)) for i in range(k)]

    for _ in range(state.max_len - len(state.prefix) + 1):
        if all(r.state.terminal for r in rows if not r.padding):
            break
        priors, _, _ = model.evaluate_root([r.state for r in rows])

        children: list[_Row] = []
        ranking: list[float] = []
        for row, prior in zip(rows, priors):
            for a in _proposals(prior, k):
                # A terminal row absorbs; its prior is one-hot EOS, so log_add is 0 or -inf.
                child_state = row.state if row.state.terminal else step(row.state, a)
                log_add = math.log(prior[a]) if prior[a] > 0 else -math.inf
                children.append(
                    _Row(child_state, row.log_likelihood + log_add, 0.0, padding=row.padding)
                )
                ranking.append(-math.inf if (row.padding or log_add == -math.inf) else 0.0)

        values = value_fn([c.state for c in children])
        for i, child in enumerate(children):
            if ranking[i] == -math.inf:
                continue
            ranking[i] = vgbs_score(
                child.log_likelihood, len(child.state.prefix), float(values[i]), cfg.alpha
            )

        order = sorted(range(len(children)), key=lambda i: -ranking[i])  # stable on ties
        kept = [
            replace(children[i], value=float(values[i]))
            for i in order
            if ranking[i] > -math.inf
        ][:k]
        rows = kept + [replace(kept[0], padding=True) for _ in range(k - len(kept))]
        model.ledger.charge_tokens(1)

    def score(r: _Row) -> float:
        return vgbs_score(r.log_likelihood, len(r.state.prefix), r.value, cfg.alpha)

    best = max((r for r in rows if not r.padding and r.state.terminal), key=score)
    return Candidate(
        best.state.prefix, best.log_likelihood, score=score(best), value=best.value, state=best.state
    )


# ------------------------------------------------------------------ sampling


def sample_sequences(
    model: PolicyValueModel,
    state: DecodeState,
    n: int,
    tau: float = 1.0,
    seed: int = 0,
) -> list[Candidate]:
    """Draw ``n`` ancestral samples from the tempered policy.

    Candidate i uses its own RNG stream derived from (seed, i), so the pool
    for (seed, n) is a strict prefix of the pool for (seed, n') when n' > n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if state.terminal:
        raise ContractViolation("sample_sequences() needs a non-terminal state")
    rngs = [np.random.default_rng([seed, i]) for i in range(n)]

    def policy(indices: list[int], states: list[DecodeState]):
        priors, _, _ = model.evaluate_root(states)
        probs = apply_temperature(priors, tau)
        draws = [rngs[i].choice(model.vocab_size, p=p / p.sum()) for i, p in zip(indices, probs)]
        return priors, draws

    finals, log_likelihoods = complete([state] * n, policy)
    return [
        Candidate(sequence=s.prefix, log_likelihood=ll, state=s)
        for s, ll in zip(finals, log_likelihoods)
    ]


# ----------------------------------------------------------------- reranking


def _final_states(candidates: list[Candidate]) -> list[DecodeState]:
    if not candidates:
        raise ValueError("empty candidate pool")
    if any(c.state is None for c in candidates):
        raise ValueError("candidates must carry their final decode state")
    return [c.state for c in candidates]


def _pick(candidates: list[Candidate], keys: list[float]) -> tuple[int, Candidate]:
    best = 0
    for i in range(1, len(candidates)):
        # Ties: higher log-likelihood, then earliest pool position.
        if (keys[i], candidates[i].log_likelihood) > (keys[best], candidates[best].log_likelihood):
            best = i
    return best, candidates[best]


def rerank_by_score(candidates: list[Candidate], metric: Metric) -> Candidate:
    """Return the candidate whose final state has the best ``terminal_reward``."""
    keys = [terminal_reward(s, metric) for s in _final_states(candidates)]
    i, winner = _pick(candidates, keys)
    return replace(winner, score=keys[i])


def rerank_by_value(candidates: list[Candidate], value_fn) -> Candidate:
    """Return the candidate with the best value estimate at its final state."""
    keys = [float(v) for v in value_fn(_final_states(candidates))]
    i, winner = _pick(candidates, keys)
    return replace(winner, value=keys[i])
