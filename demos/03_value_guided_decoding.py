"""Value-guided beam search and sampling + reranking.

VGBS ranks beam candidates by (alpha/t) * log-likelihood + (1 - alpha) * value
instead of likelihood alone. The value here is a greedy-rollout estimate of
the occupancy metric. Every step evaluates the policy on k rows and the value
on all k*k proposed children, so a step costs exactly k + k^2 model calls,
which the budget ledger records.
"""

from seqdecode import (
    FixedPriorModel,
    VgbsConfig,
    occupancy_metric,
    rerank_by_score,
    rollout_value_fn,
    sample_sequences,
    value_guided_beam_search,
)

PRIOR = (0.5, 0.3, 0.2)
METRIC = occupancy_metric(target=0, horizon=3)


def fresh_model():
    return FixedPriorModel(PRIOR, max_len=3)


def main() -> None:
    print("value-guided beam search, alpha sweep (k=2, rollout value):")
    for alpha in (1.0, 0.7, 0.5, 0.2, 0.0):
        model = fresh_model()
        value_fn = rollout_value_fn(model, METRIC)
        out = value_guided_beam_search(
            model, value_fn, model.initial_state(()), VgbsConfig(k=2, alpha=alpha)
        )
        print(f"  alpha={alpha:3.1f} -> {out.sequence}  mixed score {out.score:+.4f}")
    print("alpha=1 is length-averaged likelihood; alpha=0 follows the value alone.")

    model = fresh_model()
    value_fn = rollout_value_fn(model, METRIC)
    value_guided_beam_search(model, value_fn, model.initial_state(()), VgbsConfig(k=2, alpha=0.5))
    evaluations, tokens = model.ledger.snapshot()
    print(f"\nVGBS budget: {evaluations} evaluations for {tokens} emitted tokens "
          f"= {evaluations / tokens:.0f} per token (k + k^2 = 6 at k=2; "
          f"rollout steps included)")

    print("\nsampling + reranking (score-based, unprivileged metric):")
    for n in (1, 4, 16):
        model = fresh_model()
        pool = sample_sequences(model, model.initial_state(()), n=n, tau=1.0, seed=7)
        winner = rerank_by_score(pool, METRIC)
        print(f"  n={n:2d} -> best metric score {winner.score:.3f}  winner {winner.sequence}")
    print("Pools are nested by seed, so the winner's score never drops as n grows.")


if __name__ == "__main__":
    main()
