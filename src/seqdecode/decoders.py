"""Non-tree decoders: greedy, beam search, value-guided beam search, sampling.

All decoders return :class:`.mdp.Candidate` objects whose ``log_likelihood`` is
the sum of per-step log-probabilities under the raw (untempered) model. Finished
hypotheses keep competing in beam pools under the same ranking score; they are
never expanded further.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import itemgetter

import numpy as np

from .mdp import (
    Candidate,
    ContractViolation,
    DecodeState,
    check_integer,
    check_real,
    complete,
    reward_anchor,
    step,
)
from .models import PolicyValueModel, apply_temperature, greedy_policy, top_actions
from .scoring import Metric


@dataclass(frozen=True)
class BeamConfig:
    k: int = 4
    theta: float = 0.0  # length-normalization exponent

    def __post_init__(self) -> None:
        check_integer("beam size k", self.k, 1)
        check_real("theta", self.theta, 0)


@dataclass(frozen=True)
class VgbsConfig:
    k: int = 4
    alpha: float = 0.5  # weight on length-averaged log-likelihood

    def __post_init__(self) -> None:
        check_integer("beam size k", self.k, 1)
        check_real("alpha", self.alpha, 0, 1)


def length_normalizer(t: int, theta: float) -> float:
    """Beam-score discount ``(6 / (t + 5)) ** theta`` for a candidate of length t >= 1."""
    return (6.0 / (t + 5.0)) ** theta


# -------------------------------------------------------------------- greedy


def greedy_decode(model: PolicyValueModel, state: DecodeState) -> Candidate:
    """Follow the argmax token until terminal; ties go to the lowest token id."""
    if state.terminal:
        raise ContractViolation("greedy_decode() needs a non-terminal state")
    (s,), (log_likelihood,) = complete([state], greedy_policy(model.evaluate_policy))
    model.ledger.charge_tokens(len(s.prefix) - len(state.prefix))
    return Candidate(s, log_likelihood)


# --------------------------------------------------------------- beam search


def beam_search(model: PolicyValueModel, state: DecodeState, cfg: BeamConfig) -> Candidate:
    """Beam search ranked by length-normalized log-likelihood.

    Each live prefix proposes its top-k continuations; the pool of finished
    hypotheses plus live expansions is ranked by
    ``(6/(t+5))^theta * log pi`` (t counts emitted tokens including EOS) and
    the best k survive. A proposed continuation is held as its parent and token
    until it survives, so only the k survivors are stepped. Returns the best
    finished hypothesis.
    """
    if state.terminal:
        raise ContractViolation("beam_search() needs a non-terminal state")
    beam = [(0.0, state, 0.0)]  # (rank, state, log_likelihood) hypotheses
    width = min(cfg.k, model.vocab_size)

    for _ in range(state.max_len - len(state.prefix)):
        live = [h for h in beam if not h[1].terminal]
        if not live:
            break
        # (rank, parent, action, log_likelihood); a finished hypothesis has no action.
        pool = [(key, s, None, ll) for key, s, ll in beam if s.terminal]
        priors = model.evaluate_policy([s for _, s, _ in live])
        for (_, s, log_likelihood), prior, top in zip(live, priors, top_actions(priors, width)):
            normalizer = length_normalizer(len(s.prefix) + 1, cfg.theta)
            for a in top.tolist():
                if prior[a] > 0.0:
                    ll = log_likelihood + math.log(prior[a])
                    pool.append((normalizer * ll, s, a, ll))
        pool.sort(key=itemgetter(0), reverse=True)  # stable: earlier pool entries win ties
        beam = [(key, s if a is None else step(s, a), ll) for key, s, a, ll in pool[: cfg.k]]
        model.ledger.charge_tokens(1)

    best = max((h for h in beam if h[1].terminal), key=itemgetter(0))
    return Candidate(best[1], best[2], score=best[0])


# -------------------------------------------------- value-guided beam search


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

    Runs in lockstep on a batch of exactly k rows, as a batched implementation
    would: the ranked rows, padded with copies of the best one, whose children
    are evaluated but never ranked. Finished rows absorb in place. Every step
    therefore performs k policy evaluations plus k*k value queries on the
    proposed children, which is the advertised cost of this decoder.
    """
    if state.terminal:
        raise ContractViolation("value_guided_beam_search() needs a non-terminal state")
    if cfg.k > model.vocab_size:
        raise ValueError("beam size must not exceed the vocabulary size")

    k = cfg.k
    rows = [(state, 0.0, 0.0)]  # ranked (state, log_likelihood, value), best first

    for _ in range(state.max_len - len(state.prefix) + 1):
        if all(s.terminal for s, _, _ in rows):
            break
        batch = rows + [rows[0]] * (k - len(rows))
        priors = model.evaluate_policy([s for s, _, _ in batch])

        children: list[tuple[DecodeState, float]] = []
        for (s, log_likelihood, _), prior, top in zip(batch, priors, top_actions(priors, k)):
            for a in top.tolist():
                # A terminal row absorbs; its prior is one-hot EOS, so log_add is 0 or -inf.
                log_add = math.log(prior[a]) if prior[a] > 0 else -math.inf
                children.append((s if s.terminal else step(s, a), log_likelihood + log_add))

        values = value_fn([s for s, _ in children])
        ranked = sorted(  # stable on ties
            (i for i in range(len(rows) * k) if children[i][1] > -math.inf),
            key=lambda i: -vgbs_score(
                children[i][1], len(children[i][0].prefix), float(values[i]), cfg.alpha
            ),
        )
        rows = [(*children[i], float(values[i])) for i in ranked[:k]]
        model.ledger.charge_tokens(1)

    def score(row: tuple[DecodeState, float, float]) -> float:
        return vgbs_score(row[1], len(row[0].prefix), row[2], cfg.alpha)

    best = max((r for r in rows if r[0].terminal), key=score)
    return Candidate(best[0], best[1], score=score(best), value=best[2])


# ------------------------------------------------------------------ sampling


def inverse_cdf_draws(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Row j's token: the first whose normalized cdf exceeds ``uniforms[j]``.

    With ``uniforms[j] = rng.random()`` this is ``rng.choice(V, p=row / row.sum())``,
    whose rule (cumsum, divide by the last entry, ``searchsorted(side="right")``)
    it applies to the whole ``(n, V)`` batch at once.
    """
    cdf = (probs / probs.sum(axis=1, keepdims=True)).cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return (cdf <= uniforms[:, None]).sum(axis=1)


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
    Each round draws one uniform per live sample and maps the batch through
    :func:`inverse_cdf_draws`, so every token equals the sample's own
    ``Generator.choice(V, p=tempered_row / tempered_row.sum())``.
    """
    check_integer("pool size n", n, 1)
    check_real("temperature", tau, 0, strict=True)
    if state.terminal:
        raise ContractViolation("sample_sequences() needs a non-terminal state")
    # The stream of np.random.default_rng([seed, i]), built without default_rng's dispatch.
    rngs = [np.random.Generator(np.random.PCG64([seed, i])) for i in range(n)]

    def policy(indices: list[int], states: list[DecodeState]):
        priors = model.evaluate_policy(states)
        uniforms = np.array([rngs[i].random() for i in indices])
        return priors, inverse_cdf_draws(apply_temperature(priors, tau), uniforms)

    finals, log_likelihoods = complete([state] * n, policy)
    return [Candidate(s, ll) for s, ll in zip(finals, log_likelihoods)]


# ----------------------------------------------------------------- reranking


def _final_states(candidates: list[Candidate]) -> list[DecodeState]:
    if not candidates:
        raise ValueError("empty candidate pool")
    return [c.state for c in candidates]


def _pick(candidates: list[Candidate], keys: list[float]) -> tuple[int, Candidate]:
    # Ties: higher log-likelihood, then earliest pool position (max keeps the first).
    best = max(range(len(candidates)), key=lambda i: (keys[i], candidates[i].log_likelihood))
    return best, candidates[best]


def rerank_by_score(candidates: list[Candidate], metric: Metric) -> Candidate:
    """Return the candidate whose final state has the best ``terminal_reward``.

    The pool is scored in one ``metric.score_batch`` call, bitwise equal to
    ``terminal_reward`` per candidate, so every candidate must share one
    reward anchor (the pool of one instance does).
    """
    states = _final_states(candidates)
    if not all(s.terminal for s in states):
        raise ContractViolation("rerank_by_score() needs terminal candidates")
    anchors = {reward_anchor(metric, s) for s in states}
    if len(anchors) > 1:
        raise ValueError(
            f"rerank pool mixes {len(anchors)} reward anchors under {metric.name!r}; "
            "a pool must come from one instance"
        )
    keys = metric.score_batch(anchors.pop(), [s.content for s in states])
    i, winner = _pick(candidates, keys)
    return replace(winner, score=keys[i])


def rerank_by_value(candidates: list[Candidate], value_fn) -> Candidate:
    """Return the candidate with the best value estimate at its final state."""
    keys = [float(v) for v in value_fn(_final_states(candidates))]
    i, winner = _pick(candidates, keys)
    return replace(winner, value=keys[i])
