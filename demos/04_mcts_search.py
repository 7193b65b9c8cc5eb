"""Anatomy of the batched MCTS: arena arrays, variants, tree export.

One search builds a tree for a single output position. The arena keeps every
statistic in flat (batch, node) and (batch, node, sparse-action) arrays so a
whole batch advances in lockstep, the provider's state handles among them
(``node_states[b, node]``). A descent that stops at a terminal node makes no
node: it backs up the node's own value, adding one visit, so an element's
node count (``node_counts[b]``) is its root plus one per simulation that
stopped at a live node. An arena is built from its root states and searches
once; the next search needs a fresh one. An edge's visit
count and value are read off its child node, so each is stored once, and the
search's pick is read off the root's sparse row (``root_actions``). The
search tree can be exported as DOT for inspection. The arena arithmetic is
cross-checked against a plain recursive twin after every simulation in the
test suite (``tests/twin.py``, acceptance criterion 4).
"""

from pathlib import Path

import numpy as np

from seqdecode import (
    ArenaSearch,
    FixedPriorModel,
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
    arena = ArenaSearch(model, [model.initial_state(())], cfg, METRIC)
    arena.run()

    print("after 8 simulations:")
    print(f"  node counts              : {arena.node_counts} (root + one per live stop)")
    visits = arena.children_visits[0, 0]
    print(f"  root sparse tokens       : {arena.topk_mapping[0, 0]} (top-A tempered prior first)")
    print(f"  root child visit counts  : {visits}")
    values = np.where(visits > 0, arena.children_values[0, 0], np.nan)
    print(f"  root child values        : {np.array2string(values, precision=3)}")
    print(f"  root pick                : token {arena.root_actions()[0]} ({cfg.root_selection})")
    print(f"  adaptive value range     : [{arena.adaptive_min[0]:.3f}, {arena.adaptive_max[0]:.3f}]")
    terminal = np.flatnonzero(arena.terminal[0]).tolist()
    visits = arena.visit_counts[0, terminal].tolist()
    print(f"  terminal nodes           : {terminal}, visits {visits} (no children; one visit "
          "when made, one per stop)")

    dot_path = Path("mcts_tree.dot")
    export_tree(arena, dot_path)
    print(f"  tree exported to {dot_path} ({len(dot_path.read_text().splitlines())} DOT lines)")

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
