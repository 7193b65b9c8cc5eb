"""Anatomy of the batched MCTS: arena arrays, variants, tree export.

One search builds a tree for a single output position. The arena keeps every
statistic in flat (batch, node) and (batch, node, sparse-action) arrays so a
whole batch advances in lockstep, plus one node-ordered list of the provider's
state handles (``node_states[node][b]``). An arena searches once; the next
search needs a fresh one. A plain recursive twin implementation exists purely
to cross-check the arena arithmetic, and the search tree can be exported as
DOT for inspection.
"""

from pathlib import Path

import numpy as np

from seqdecode import (
    ArenaSearch,
    FixedPriorModel,
    RecursiveSearch,
    SearchConfig,
    decode_mcts,
    export_tree,
    occupancy_metric,
)

PRIOR = (0.5, 0.3, 0.2)
METRIC = occupancy_metric(target=0, horizon=3)


def fresh_model():
    return FixedPriorModel(PRIOR, max_len=3, value_metric=METRIC)


def main() -> None:
    cfg = SearchConfig(num_simulations=8, num_sparse_actions=3, c_puct=1.0,
                       backup="max", root_selection="max_value", value_source="rollout")
    model = fresh_model()
    arena = ArenaSearch(model, batch_size=1, cfg=cfg, metric=METRIC)
    result = arena.run([model.initial_state(())])

    print("after 8 simulations:")
    print(f"  allocated nodes          : {arena.allocated_nodes()} (root + one per simulation)")
    print(f"  root visit counts (dense): {result.dense_visit_counts[0]}")
    values = np.where(result.dense_visit_counts[0] > 0, result.dense_root_values[0], np.nan)
    print(f"  root child values        : {np.array2string(values, precision=3)}")
    print(f"  adaptive value range     : [{arena.adaptive_min[0]:.3f}, {arena.adaptive_max[0]:.3f}]")
    terminal = sum(handles[0].state.terminal for handles in arena.node_states)
    print(f"  terminal nodes           : {terminal} (children of a terminal node repeat its state)")

    dot_path = Path("mcts_tree.dot")
    export_tree(arena, dot_path)
    print(f"  tree exported to {dot_path} ({len(dot_path.read_text().splitlines())} DOT lines)")

    reference = RecursiveSearch(fresh_model(), cfg, metric=METRIC)
    reference.begin(fresh_model().initial_state(()))
    for _ in range(cfg.num_simulations):
        reference.step_simulation()
    agree = np.array_equal(arena.visit_counts[0], reference.visit_counts()) and np.allclose(
        arena.values[0], reference.node_values(), atol=1e-12
    )
    print(f"  recursive twin agrees    : {agree}")

    print("\nfull decodes under different backup/selection variants:")
    variants = [
        ("average", "visit_count", "model"),
        ("max", "max_value", "model"),
        ("max", "max_value", "rollout"),
    ]
    for backup, selection, source in variants:
        variant_cfg = SearchConfig(num_simulations=16, num_sparse_actions=3, c_puct=1.0,
                                   backup=backup, root_selection=selection, value_source=source)
        model = fresh_model()
        out = decode_mcts(model, [model.initial_state(())], variant_cfg, metric=METRIC)[0]
        per_token = model.ledger.per_token()
        print(f"  backup={backup:7s} select={selection:11s} value={source:7s} "
              f"-> {out.sequence}  ({per_token:.1f} evals/token)")


if __name__ == "__main__":
    main()
