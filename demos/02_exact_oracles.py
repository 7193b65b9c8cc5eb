"""Exact desk-scale oracles: enumeration, pruned level walk, metric argmax.

At toy sizes the whole space of terminated sequences can be walked, which
gives exact ground truth to test every decoder against. Because EOS is forced
one step before the length cap, the terminated-sequence probabilities form a
proper distribution (they sum to 1). Like every decoder, each oracle starts
from the root state ``model.initial_state(source, reference)`` builds.
"""

import math

from seqdecode import (
    FixedPriorModel,
    coverage_metric,
    enumerate_sequences,
    exact_argmax_likelihood,
    exact_argmax_metric,
    occupancy_metric,
)


def main() -> None:
    model = FixedPriorModel((0.5, 0.3, 0.2), max_len=2)

    print("all terminated sequences at content horizon 2:")
    total = 0.0
    root = model.initial_state(source=())
    for sequence, log_likelihood in enumerate_sequences(model, root):
        p = math.exp(log_likelihood)
        total += p
        print(f"  {str(sequence):15s} probability {p:.3f}")
    print(f"  sum = {total:.9f}")

    best = exact_argmax_likelihood(model, root)
    print(f"\nlikelihood argmax (pruned level walk): {best.sequence} "
          f"with probability {math.exp(best.log_likelihood):.3f}")
    print("Pruning is sound because appending tokens never increases likelihood.")

    horizon3 = FixedPriorModel((0.5, 0.3, 0.2), max_len=3)
    occupancy = occupancy_metric(target=0, horizon=3)
    by_occupancy = exact_argmax_metric(horizon3, horizon3.initial_state(()), occupancy)
    print(f"\noccupancy argmax : {by_occupancy.sequence} scores {by_occupancy.score:.3f}")

    coverage = coverage_metric()
    by_coverage = exact_argmax_metric(horizon3, horizon3.initial_state((0, 1)), coverage)
    print(f"coverage argmax  : {by_coverage.sequence} scores {by_coverage.score:.3f} "
          f"(most likely sequence containing both source tokens)")
    print("\nThe likelihood argmax and the metric argmax disagree: that gap is")
    print("exactly what value- and score-guided decoders try to close.")


if __name__ == "__main__":
    main()
