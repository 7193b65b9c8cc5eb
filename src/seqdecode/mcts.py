"""Batched Monte-Carlo tree search over flat arena arrays.

One search builds a tree per batch element for a single output position.
Storage is indexed by (batch, node) and (batch, node, sparse action): node i
is the i-th node expanded for that element, node 0 is the root, and only the
top-A prior actions of each node are kept, with ``topk_mapping`` translating
sparse slots back to vocabulary ids. Alongside the arrays, ``node_states``
holds the provider's ``ModelState`` handles in node order, so each expansion
is stepped once, by the provider, and the node count is the list's length.
A simulation records its descent as a ``(depth, batch)`` path; an element that
stops early repeats its last node, and the backup masks those padding rows.
An arena runs one search; build a fresh one for the next. Rollout values
are batched greedy completions (:func:`.models.rollout_value`), each scored
against its root state's own reference, so a search holds no per-element
data beyond its root states; :func:`decode_mcts` is one arena per round as an
:func:`.mdp.complete` policy.

Selection uses the prior-weighted UCT rule with the node's own visit count
under the square root, and rescales exploitation values into [0, 1] via the
online min/max of all values seen in the tree. Unvisited children are
detected by a zero visit count and pinned to the rescaled minimum, which
keeps every decision invariant under affine maps of the value function.
No statistic changes during a descent, so a simulation scores every node
once (:meth:`ArenaSearch.uct_scores`) and each level is a lookup in that table.

:class:`RecursiveSearch` is a deliberately plain tree-of-records twin used
for differential testing of the arena arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .mdp import ConfigurationError, ContractViolation, DecodeState, complete, step
from .models import ModelState, PolicyValueModel, apply_temperature, rollout_value
from .scoring import Metric

BACKUP_RULES = ("average", "max")
ROOT_SELECTIONS = ("visit_count", "max_value")
VALUE_SOURCES = ("model", "rollout")


@dataclass(frozen=True)
class SearchConfig:
    num_simulations: int = 16
    num_sparse_actions: int = 4
    c_puct: float = 1.0
    tau: float = 1.0  # prior temperature, applied once at node creation
    backup: str = "average"
    root_selection: str = "visit_count"
    value_source: str = "model"

    def __post_init__(self) -> None:
        if self.num_simulations < 0:
            raise ConfigurationError("num_simulations must be >= 0")
        if self.num_sparse_actions < 1:
            raise ConfigurationError("num_sparse_actions must be >= 1")
        if self.c_puct <= 0:
            raise ConfigurationError("c_puct must be > 0")
        if self.tau <= 0:
            raise ConfigurationError("tau must be > 0")
        if self.backup not in BACKUP_RULES:
            raise ConfigurationError(f"backup must be one of {BACKUP_RULES}")
        if self.root_selection not in ROOT_SELECTIONS:
            raise ConfigurationError(f"root_selection must be one of {ROOT_SELECTIONS}")
        if self.value_source not in VALUE_SOURCES:
            raise ConfigurationError(f"value_source must be one of {VALUE_SOURCES}")


@dataclass
class SearchResult:
    """Root statistics of a finished search, scattered back to dense actions."""

    dense_visit_counts: np.ndarray  # (B, V) int
    dense_root_values: np.ndarray  # (B, V) float, valid where counts > 0
    root_priors: np.ndarray  # (B, V) raw (untempered) root priors
    tempered_root_priors: np.ndarray  # (B, V)


def _sparse_topk(prior_row: np.ndarray, num_sparse: int) -> np.ndarray:
    # Deterministic top-A: by descending prior, ties to the lower token id.
    return np.argsort(-prior_row, kind="stable")[:num_sparse]


class ArenaSearch:
    """Flat-array MCTS for a batch of root states (one tree per element)."""

    def __init__(
        self,
        model: PolicyValueModel,
        batch_size: int,
        cfg: SearchConfig,
        metric: Metric | None = None,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if cfg.num_sparse_actions > model.vocab_size:
            raise ValueError("num_sparse_actions must not exceed the vocabulary size")
        if cfg.value_source == "rollout" and metric is None:
            raise ValueError("rollout value source needs a metric")
        self.model = model
        self.cfg = cfg
        self.metric = metric

        b, n, a = batch_size, cfg.num_simulations + 1, cfg.num_sparse_actions
        self.batch_size = b
        self.num_actions = model.vocab_size
        self.num_sparse_actions = a

        self.visit_counts = np.zeros((b, n), dtype=np.int64)
        self.values = np.zeros((b, n), dtype=np.float64)
        self.parents = np.full((b, n), -1, dtype=np.int64)
        self.action_from_parents = np.full((b, n), -1, dtype=np.int64)

        self.topk_mapping = np.full((b, n, a), -1, dtype=np.int64)
        self.children_index = np.full((b, n, a), -1, dtype=np.int64)
        self.children_prior = np.zeros((b, n, a), dtype=np.float64)
        self.children_values = np.zeros((b, n, a), dtype=np.float64)
        self.children_visits = np.zeros((b, n, a), dtype=np.int64)

        self.adaptive_min = np.zeros(b, dtype=np.float64)
        self.adaptive_max = np.zeros(b, dtype=np.float64)

        self.node_states: list[list[ModelState]] = []  # node_states[node][b]
        self._batch_range = np.arange(b)
        self._root_priors: np.ndarray | None = None
        self._tempered_root: np.ndarray | None = None

    # -------------------------------------------------------------- lifecycle

    def begin(self, root_states: list[DecodeState]) -> None:
        """Evaluate the roots and install them as node 0 (once per arena)."""
        if self.node_states:
            raise ContractViolation("begin() called twice; build a fresh arena per search")
        if len(root_states) != self.batch_size:
            raise ValueError("batch size mismatch")
        for s in root_states:
            if s.terminal:
                raise ContractViolation("search roots must be non-terminal")

        priors, values, handles = self.model.evaluate_root(root_states)
        if self.cfg.value_source == "rollout":
            values = rollout_value(self.model, root_states, self.metric)
        self._root_priors = priors
        tempered = apply_temperature(priors, self.cfg.tau)
        self._tempered_root = tempered

        self.adaptive_min = values.astype(np.float64).copy()
        self.adaptive_max = values.astype(np.float64) + 1e-6

        self._create_node(tempered, values, handles)

    def run(self, root_states: list[DecodeState]) -> SearchResult:
        """Full search: root evaluation plus ``num_simulations`` simulations."""
        self.begin(root_states)
        for _ in range(self.cfg.num_simulations):
            self.step_simulation()
        return self.result()

    def step_simulation(self) -> None:
        """One simulate / expand / backward round for every batch element."""
        if self.allocated_nodes() > self.cfg.num_simulations:
            raise ContractViolation("simulation budget exhausted")
        path, actions = self.simulate()
        leaf = self.expand(path[-1], actions)
        self.backward(path, leaf)

    def result(self) -> SearchResult:
        dense_counts = np.zeros((self.batch_size, self.num_actions), dtype=np.int64)
        dense_values = np.zeros((self.batch_size, self.num_actions), dtype=np.float64)
        mapping = self.topk_mapping[:, 0, :]
        dense_counts[self._batch_range[:, None], mapping] = self.children_visits[:, 0, :]
        dense_values[self._batch_range[:, None], mapping] = self.children_values[:, 0, :]
        return SearchResult(
            dense_visit_counts=dense_counts,
            dense_root_values=dense_values,
            root_priors=self._root_priors.copy(),
            tempered_root_priors=self._tempered_root.copy(),
        )

    # -------------------------------------------------------------- internals

    def uct_scores(self, m: int | None = None) -> np.ndarray:
        """Value score + policy score of every sparse action of the first ``m`` nodes, (B, m, A)."""
        child_visits = self.children_visits[:, :m]
        policy_score = (
            np.sqrt(self.visit_counts[:, :m])[..., None]
            * self.cfg.c_puct
            * self.children_prior[:, :m]
            / (child_visits + 1)
        )
        span = (self.adaptive_max - self.adaptive_min)[:, None, None]
        # Unvisited children sit at the rescaled minimum; their stored value
        # (zero-filled) must never leak into the score.
        value_score = np.where(
            child_visits > 0,
            (self.children_values[:, :m] - self.adaptive_min[:, None, None]) / span,
            0.0,
        )
        return value_score + policy_score

    def uct_select_action(
        self, node_indices: np.ndarray, scores: np.ndarray | None = None
    ) -> np.ndarray:
        """Per element, the sparse action maximizing value score + policy score.

        ``scores`` is a :meth:`uct_scores` table; without one, the scores are computed
        from the current statistics.
        """
        if scores is None:
            scores = self.uct_scores()
        return np.argmax(scores[self._batch_range, node_indices], axis=1)

    def simulate(self) -> tuple[np.ndarray, np.ndarray]:
        """Descend in lockstep until every element sits on an unexplored edge.

        Returns the ``(D, B)`` path, root first, and the actions chosen at ``path[-1]``. Each
        row moves an element to a new node or, once it has stopped, repeats its last node
        (padding), so ``D`` is at most the node count. No statistic changes during a descent,
        so the UCT table is computed once and each level is a gather and an argmax.
        """
        scores = self.uct_scores(self.allocated_nodes())
        path = np.zeros((self.allocated_nodes(), self.batch_size), dtype=np.int64)
        node_indices, depth = path[0], 0
        while True:
            actions = self.uct_select_action(node_indices, scores)
            next_nodes = self.children_index[self._batch_range, node_indices, actions]
            is_unexplored = next_nodes == -1
            if is_unexplored.all():
                return path[: depth + 1], actions
            depth += 1
            node_indices = path[depth] = np.where(is_unexplored, node_indices, next_nodes)

    def expand(self, node_indices: np.ndarray, sparse_actions: np.ndarray) -> int:
        """Evaluate the selected edges and wire the resulting nodes into the tree.

        The provider steps each parent handle (terminal handles absorb); the
        new node gets the same index in every element's tree, which is returned.
        """
        parent_states = [self.node_states[n][b] for b, n in enumerate(node_indices)]
        dense_actions = self.topk_mapping[self._batch_range, node_indices, sparse_actions]

        priors, values, child_states, _ = self.model.evaluate_step(
            parent_states, dense_actions.tolist()
        )
        if self.cfg.value_source == "rollout":
            values = rollout_value(self.model, [ms.state for ms in child_states], self.metric)

        node = self._create_node(apply_temperature(priors, self.cfg.tau), values, child_states)

        self.adaptive_min = np.minimum(self.adaptive_min, values)
        self.adaptive_max = np.maximum(self.adaptive_max, values)

        self.children_index[self._batch_range, node_indices, sparse_actions] = node
        self.parents[:, node] = node_indices
        self.action_from_parents[:, node] = sparse_actions
        return node

    def _create_node(
        self, tempered_priors: np.ndarray, values: np.ndarray, handles: list[ModelState]
    ) -> int:
        node = len(self.node_states)
        # Row-wise top-A by descending prior, ties to the lower token id.
        top = np.argsort(-tempered_priors, axis=1, kind="stable")[:, : self.num_sparse_actions]
        self.topk_mapping[:, node, :] = top
        # Truncated priors are stored as-is, without renormalization.
        self.children_prior[:, node, :] = tempered_priors[self._batch_range[:, None], top]
        self.values[:, node] = values
        self.visit_counts[:, node] = 1
        self.node_states.append(handles)
        return node

    def backward(self, path: np.ndarray, leaf: int) -> None:
        """Propagate the leaf's value to every ancestor on :meth:`simulate`'s path.

        ``leaf`` is the node expanded below ``path[-1]``. Padding rows (a node repeating the
        one above it, or a leaf equal to it) are masked; each (element, ancestor) pair then
        occurs once, so fancy-indexed updates apply level-by-level float operations at any depth.
        """
        chain = np.vstack([path, np.broadcast_to(leaf, path.shape[1:])])
        rows, b = np.nonzero(chain[1:] != chain[:-1])
        nodes, children = chain[rows, b], chain[rows + 1, b]
        leaf_values = self.values[b, leaf]
        values, visits = self.values[b, nodes], self.visit_counts[b, nodes]
        if self.cfg.backup == "average":
            self.values[b, nodes] = (values * visits + leaf_values) / (visits + 1)
        else:
            self.values[b, nodes] = np.maximum(values, leaf_values)
        self.visit_counts[b, nodes] += 1

        actions = self.action_from_parents[b, children]
        self.children_values[b, nodes, actions] = self.values[b, children]
        self.children_visits[b, nodes, actions] += 1

    # ------------------------------------------------------------- inspection

    def allocated_nodes(self) -> int:
        return len(self.node_states)

    def node_token(self, b: int, node_index: int) -> int | None:
        """Vocabulary id of the edge into a node, or None for the root."""
        parent = int(self.parents[b, node_index])
        if parent < 0:
            return None
        sparse = int(self.action_from_parents[b, node_index])
        return int(self.topk_mapping[b, parent, sparse])


def select_root_action(
    dense_counts: np.ndarray,
    dense_values: np.ndarray,
    mode: str,
    fallback_priors: np.ndarray | None = None,
) -> np.ndarray:
    """Pick one vocabulary action per element from root statistics.

    ``visit_count`` takes the most visited child, ``max_value`` the visited
    child with the best aggregated value; ties go to the lower token id. With
    no visited child (a zero-simulation search) the argmax of the tempered
    root prior is used instead.
    """
    if mode not in ROOT_SELECTIONS:
        raise ValueError(f"unknown root selection {mode!r}")
    visited = dense_counts > 0
    if mode == "visit_count":
        actions = np.argmax(dense_counts, axis=1)
    else:
        actions = np.argmax(np.where(visited, dense_values, -np.inf), axis=1)
    unvisited = ~visited.any(axis=1)
    if unvisited.any():
        if fallback_priors is None:
            raise ValueError("no visited root child and no fallback prior")
        actions = np.where(unvisited, np.argmax(fallback_priors, axis=1), actions)
    return actions.astype(np.int64)


def decode_mcts(
    model: PolicyValueModel,
    states: list[DecodeState],
    cfg: SearchConfig,
    metric: Metric | None = None,
):
    """Decode a batch by running one search per output position.

    The search is the ``complete`` policy: each round builds one arena over
    the live elements and commits each one's selected root action, scored by
    its raw root prior. Finished elements are held fixed while the rest
    continue; each element is charged one root evaluation plus one evaluation
    per simulation for every emitted token (plus rollout costs in rollout mode).
    """
    from .decoders import Candidate  # local import to avoid a module cycle

    if not states:
        raise ValueError("empty batch")

    def search(_indices: list[int], live: list[DecodeState]):
        arena = ArenaSearch(model, len(live), cfg, metric)
        result = arena.run(live)
        actions = select_root_action(
            result.dense_visit_counts,
            result.dense_root_values,
            cfg.root_selection,
            fallback_priors=result.tempered_root_priors,
        )
        return result.root_priors, actions

    finals, log_likelihoods = complete(states, search)
    model.ledger.charge_tokens(sum(len(f.prefix) - len(s.prefix) for f, s in zip(finals, states)))
    return [
        Candidate(sequence=s.prefix, log_likelihood=ll, state=s)
        for s, ll in zip(finals, log_likelihoods)
    ]


# --------------------------------------------------------- reference twin


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
        return float(rollout_value(self.model, [state], self.metric)[0])

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
        node = self.nodes[0]
        while True:
            action = self._select_action(node)
            child = node.children.get(action)
            if child is None:
                break
            node = child

        dense_action = int(node.mapping[action])
        priors, values, next_model_states, _ = self.model.evaluate_step(
            [node.model_state], [dense_action]
        )
        if node.decode_state.terminal:
            child_state = node.decode_state
        else:
            child_state = step(node.decode_state, dense_action)
        value = float(values[0])
        if self.cfg.value_source == "rollout":
            value = self._rollout(child_state)

        leaf = self._make_node(priors[0], value, next_model_states[0], child_state)
        leaf.parent = node
        leaf.action_from_parent = action
        node.children[action] = leaf

        self.adaptive_min = min(self.adaptive_min, value)
        self.adaptive_max = max(self.adaptive_max, value)

        # Backward pass: push the leaf value to every ancestor.
        leaf_value = leaf.value
        child = leaf
        while child.parent is not None:
            parent = child.parent
            if self.cfg.backup == "average":
                parent.value = (parent.value * parent.visits + leaf_value) / (parent.visits + 1)
            else:
                parent.value = max(parent.value, leaf_value)
            parent.visits += 1
            parent.child_values[child.action_from_parent] = child.value
            parent.child_visits[child.action_from_parent] += 1
            child = parent

    def visit_counts(self) -> np.ndarray:
        return np.array([n.visits for n in self.nodes], dtype=np.int64)

    def node_values(self) -> np.ndarray:
        return np.array([n.value for n in self.nodes])
