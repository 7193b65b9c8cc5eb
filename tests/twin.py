"""A plain recursive MCTS twin of :class:`seqdecode.mcts.ArenaSearch`.

``RecursiveSearch`` is a deliberately plain tree of node records for one
root state. It mirrors the arena operation by operation (same selection
formula, same backup arithmetic, same sparse-action ordering), so the two
must agree exactly after every simulation. The tests run it beside the arena
as a differential oracle; it is not part of the library.

``arena_decode`` is the plain twin of :func:`seqdecode.decode_mcts`: one arena
over every live root at every position, with no position decided in advance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from seqdecode import (
    ArenaSearch,
    Candidate,
    ContractViolation,
    DecodeState,
    Metric,
    ModelState,
    PolicyValueModel,
    SearchConfig,
    apply_temperature,
    complete,
    rollout_value,
    step,
)


def _sparse_topk(prior_row: np.ndarray, num_sparse: int) -> np.ndarray:
    # Deterministic top-A: by descending prior, ties to the lower token id.
    return np.argsort(-prior_row, kind="stable")[:num_sparse]


@dataclass
class _RefNode:
    prior: np.ndarray  # tempered, truncated, unrenormalized
    mapping: np.ndarray  # sparse slot -> vocabulary id
    value: float
    visits: int
    decode_state: DecodeState
    model_state: object
    parent: "_RefNode | None" = None
    action_from_parent: int = -1
    children: dict[int, "_RefNode"] = field(default_factory=dict)
    child_values: np.ndarray | None = None
    child_visits: np.ndarray | None = None


class RecursiveSearch:
    """Plain single-instance MCTS with explicit node records.

    Mirrors :class:`ArenaSearch` operation by operation (same selection
    formula, same backup arithmetic, same sparse-action ordering) so the two
    implementations must agree exactly after every simulation.
    """

    def __init__(self, model: PolicyValueModel, cfg: SearchConfig, metric: Metric | None = None):
        if cfg.num_sparse_actions > model.vocab_size:
            raise ValueError("num_sparse_actions must not exceed the vocabulary size")
        if cfg.value_source == "rollout" and metric is None:
            raise ValueError("rollout value source needs a metric")
        self.model = model
        self.cfg = cfg
        self.metric = metric
        self.nodes: list[_RefNode] = []
        self.adaptive_min = 0.0
        self.adaptive_max = 0.0

    def begin(self, root_state: DecodeState) -> None:
        if root_state.terminal:
            raise ContractViolation("search roots must be non-terminal")
        self.nodes = []
        priors, values, model_states = self.model.evaluate_root([root_state])
        value = float(values[0])
        if self.cfg.value_source == "rollout":
            value = self._rollout(root_state)
        self.adaptive_min = value
        self.adaptive_max = value + 1e-6
        self._make_node(priors[0], value, model_states[0], root_state)

    def _rollout(self, state: DecodeState) -> float:
        return float(rollout_value(self.model, [state], self.metric)[0][0])

    def _make_node(
        self, prior: np.ndarray, value: float, model_state: object, decode_state: DecodeState
    ) -> _RefNode:
        tempered = apply_temperature(prior, self.cfg.tau)
        top = _sparse_topk(tempered, self.cfg.num_sparse_actions)
        node = _RefNode(
            prior=tempered[top],
            mapping=top,
            value=value,
            visits=1,
            decode_state=decode_state,
            model_state=model_state,
            child_values=np.zeros(self.cfg.num_sparse_actions),
            child_visits=np.zeros(self.cfg.num_sparse_actions, dtype=np.int64),
        )
        self.nodes.append(node)
        return node

    def _select_action(self, node: _RefNode) -> int:
        policy_score = (
            math.sqrt(node.visits) * self.cfg.c_puct * node.prior / (node.child_visits + 1)
        )
        span = self.adaptive_max - self.adaptive_min
        value_score = np.where(
            node.child_visits > 0,
            (node.child_values - self.adaptive_min) / span,
            0.0,
        )
        return int(np.argmax(value_score + policy_score))

    def step_simulation(self) -> None:
        """One descent, expansion and backup. Below a live node the provider steps the
        node's handle once and the child is made; a terminal node makes no child and calls
        no provider: it backs up its handle's value, and the ledger is charged one
        evaluation for the stop."""
        node = self.nodes[0]
        while True:
            action = self._select_action(node)
            child = node.children.get(action)
            if child is None:
                break
            node = child

        leaf = None
        if node.decode_state.terminal:
            leaf_value = node.model_state.value
            self.model.ledger.charge_evaluations(1)
        else:
            dense_action = int(node.mapping[action])
            priors, values, next_model_states, _ = self.model.evaluate_step(
                [node.model_state], [dense_action]
            )
            state = step(node.decode_state, dense_action)
            leaf_value, model_state = float(values[0]), next_model_states[0]
            if self.cfg.value_source == "rollout":
                # The handle carries the rollout value, as the arena's does.
                leaf_value = self._rollout(state)
                model_state = ModelState(state, leaf_value)
            leaf = self._make_node(priors[0], leaf_value, model_state, state)
            leaf.parent = node
            leaf.action_from_parent = action
            node.children[action] = leaf
            self.adaptive_min = min(self.adaptive_min, leaf_value)
            self.adaptive_max = max(self.adaptive_max, leaf_value)

        # Backward pass: push the leaf value into the node the descent stopped at and
        # every ancestor.
        child = leaf
        while node is not None:
            if self.cfg.backup == "average":
                node.value = (node.value * node.visits + leaf_value) / (node.visits + 1)
            else:
                node.value = max(node.value, leaf_value)
            node.visits += 1
            if child is not None:
                node.child_values[child.action_from_parent] = child.value
                node.child_visits[child.action_from_parent] += 1
            child, node = node, node.parent

    def visit_counts(self) -> np.ndarray:
        return np.array([n.visits for n in self.nodes], dtype=np.int64)

    def node_values(self) -> np.ndarray:
        return np.array([n.value for n in self.nodes])


def arena_decode(
    model: PolicyValueModel,
    states: list[DecodeState],
    cfg: SearchConfig,
    metric: Metric | None,
    simulation_counts: list[int],
) -> list[Candidate]:
    """Reference ``decode_mcts``: each ``complete`` round runs one arena over every live
    root, one token short of its cap or not, and commits its selected root actions.
    Element b's ``evaluations`` sums what the arenas charge it, and the ledger is charged
    the emitted tokens."""
    counts = np.array(simulation_counts)
    evaluations = np.zeros(len(states), dtype=np.int64)

    def search(indices: list[int], live: list[DecodeState]):
        arena = ArenaSearch(model, live, cfg, metric, counts[indices])
        arena.run()
        evaluations[indices] += arena.evaluations
        return arena.root_priors, arena.root_actions()

    finals, log_likelihoods = complete(states, search)
    model.ledger.charge_tokens(sum(len(f.prefix) - len(s.prefix) for f, s in zip(finals, states)))
    return [
        Candidate(s, ll, evaluations=e)
        for s, ll, e in zip(finals, log_likelihoods, evaluations.tolist())
    ]
