"""Batched Monte-Carlo tree search over flat arena arrays.

One search builds a tree per batch element for a single output position.
Storage is indexed by (batch, node) and (batch, node, sparse action): node i
is the i-th node element b made, node 0 is the root, and only the top-A prior
actions of each node are kept, with ``topk_mapping`` translating sparse slots
back to vocabulary ids. ``node_states[b, node]`` holds the provider's
``ModelState`` handle of each node, so each expansion below a live node is
stepped once, by the provider, and ``node_counts[b]`` is element b's node count.
Each array is a view of storage that holds one spare node per element, after
its last, which is never written; the search gathers and scatters whole rows
through the storage raveled, where (element, node) is row
``element * (N + 1) + node``.
Each root has its own simulation count (by default ``num_simulations``), and
the arrays are sized by the largest. Element b is active while fewer than its
count S_b simulations are done: each simulation descends, expands and charges
only the active elements, read off the counts, so b's tree is exactly the tree
a search of b alone at S_b simulations builds.
The arena tallies what it charges each element (``ArenaSearch.evaluations``).
A simulation records its descent as a ``(depth, active)`` path; an element that
stops early repeats its last node, and the backup masks those padding rows.
A descent stops at a node whose selected slot is unexpanded. At a live node
that slot's child is made and its value backed up. A terminal node has no
child, as EOS ends the episode: a descent that stops there makes no node and
calls no provider. Its handle's value is backed up into the terminal node and
every ancestor (as in MCTS-Solver), and the stop is charged on the ledger as
one evaluation. An element therefore makes one node per simulation that stops
at a live node, and elements make nodes at their own rates. A charge that
computes nothing goes straight to the ledger: the provider only ever steps a
live handle.
An edge's visit count and value are its child's, read through ``children_index``,
and a node's incoming edge is the one ``children_index`` entry that holds it.
An arena is built from its roots and runs one search. Rollout values
are batched greedy completions (:func:`.models.rollout_value`), each scored
against its root state's own reference, so a search holds no per-element
data beyond its root states and simulation counts; :func:`decode_mcts` is one
arena per round as an :func:`.mdp.complete` policy, over every live root, which
commits each root's pick (:meth:`ArenaSearch.root_actions`), read off the root's
sparse row, and scores it by the root's raw prior (``ArenaSearch.root_priors``).
An element whose pick is settled retires (:meth:`ArenaSearch.retire`): its
count falls to the simulations done, and each simulation it skips is charged
as one evaluation, on the ledger and in its tally, without a provider call,
so ``ArenaSearch.evaluations`` is each element's whole charge. A root one
token short of its cap is decided: every provider forces EOS there, so it
can only pick EOS, and :func:`decode_mcts` retires it at simulation 0.
Under ``visit_count`` root selection with model values, where the pick reads
visit counts alone and a simulation costs one evaluation, :func:`decode_mcts`
also retires an element once its pick is settled: each simulation adds one
visit to one root child, so a pick that leads every rival by at least the
simulations left (:meth:`ArenaSearch.pick_margins`) cannot change.

Selection uses the prior-weighted UCT rule with the node's own visit count
under the square root, and rescales exploitation values into [0, 1] via the
online min/max of all values seen in the tree. Unvisited children are
detected by a zero visit count and pinned to the rescaled minimum, which
keeps every decision invariant under affine maps of the value function.
The search reads a node's UCT scores only through their argmax, so the arena
keeps that alone, ``ArenaSearch.best_slot`` (ties go to the lower slot), and
rescores a node only where its statistics change: :meth:`ArenaSearch.backward`
rescores the nodes on the path it updates, and :meth:`ArenaSearch.expand` an
element's nodes when its adaptive range moves. Every rescore also writes the
nodes' entries of a descent table, ``ArenaSearch.next_node``: the child at the
best slot, or the node itself where that slot is unexpanded, as it always is at
a terminal node. A new node is not rescored: at one visit its scores are its
priors times ``c_puct``, which descend from slot 0, and it has no child, so its
best slot is 0 and it points at itself, as every entry starts. No statistic
changes during a descent, so each level is one gather from the descent table,
an element that has stopped points at itself, and the actions at the stop are
one read of the best slots.

The tests check the arena against a plain recursive twin (``tests/twin.py``)
after every simulation.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .mdp import (
    Candidate,
    ConfigurationError,
    ContractViolation,
    DecodeState,
    check_integer,
    check_real,
    complete,
    is_integer,
)
from .models import (
    ModelState,
    PolicyValueModel,
    apply_temperature,
    rollout_value,
    top_actions,
)
from .scoring import Metric

BACKUP_RULES = ("average", "max")
ROOT_SELECTIONS = ("visit_count", "max_value")
VALUE_SOURCES = ("model", "rollout")


@dataclass(frozen=True)
class SearchConfig:
    num_simulations: int = 16  # per root, unless the search is given per-root counts
    num_sparse_actions: int = 4
    c_puct: float = 1.0
    tau: float = 1.0  # prior temperature, applied once at node creation
    backup: str = "average"
    root_selection: str = "visit_count"
    value_source: str = "model"

    def __post_init__(self) -> None:
        check_integer("num_simulations", self.num_simulations, 0)
        check_integer("num_sparse_actions", self.num_sparse_actions, 1)
        check_real("c_puct", self.c_puct, 0, strict=True)
        check_real("tau", self.tau, 0, strict=True)
        if self.backup not in BACKUP_RULES:
            raise ConfigurationError(f"backup must be one of {BACKUP_RULES}")
        if self.root_selection not in ROOT_SELECTIONS:
            raise ConfigurationError(f"root_selection must be one of {ROOT_SELECTIONS}")
        if self.value_source not in VALUE_SOURCES:
            raise ConfigurationError(f"value_source must be one of {VALUE_SOURCES}")


def checked_simulation_counts(
    counts: Iterable[int] | None, batch_size: int, cfg: SearchConfig
) -> np.ndarray:
    """One simulation count per root, ``(B,)``: ``cfg.num_simulations`` each when ``counts``
    is None. A count list of the wrong length, or one holding a non-integer (a bool or a
    float among them) or a negative count, is a ``ValueError``."""
    if counts is None:
        return np.full(batch_size, cfg.num_simulations, dtype=np.int64)
    counts = list(counts)
    if len(counts) != batch_size:
        raise ValueError(f"{len(counts)} simulation counts for {batch_size} roots")
    for b, count in enumerate(counts):
        if not is_integer(count) or count < 0:
            raise ValueError(
                f"element {b}: simulation count {count!r} is not a non-negative integer"
            )
    return np.array(counts, dtype=np.int64)


class ArenaSearch:
    """Flat-array MCTS for a batch of root states (one tree per element)."""

    def __init__(
        self,
        model: PolicyValueModel,
        root_states: list[DecodeState],
        cfg: SearchConfig,
        metric: Metric | None = None,
        simulation_counts: Iterable[int] | None = None,
    ):
        """Evaluate the roots and install them as node 0.

        ``simulation_counts`` holds one simulation count per root; by default every
        root gets ``cfg.num_simulations``. An empty batch, bad simulation counts, more
        sparse actions than tokens, a rollout value source without a metric and a
        terminal root are refused before anything is evaluated.
        """
        if not root_states:
            raise ValueError("empty batch")
        counts = checked_simulation_counts(simulation_counts, len(root_states), cfg)
        if cfg.num_sparse_actions > model.vocab_size:
            raise ValueError("num_sparse_actions must not exceed the vocabulary size")
        if cfg.value_source == "rollout" and metric is None:
            raise ValueError("rollout value source needs a metric")
        if any(s.terminal for s in root_states):
            raise ContractViolation("search roots must be non-terminal")
        self.model = model
        self.cfg = cfg
        self.metric = metric

        self.simulation_counts = counts

        b, n, a = len(root_states), int(counts.max()) + 1, cfg.num_sparse_actions
        self.batch_size = b
        self.num_actions = model.vocab_size
        self.num_sparse_actions = a

        # Each (B, N) and (B, N, A) array below is a view of storage with a spare, never
        # written node after each element's last; the search reaches rows through the storage
        # raveled, at element * (N + 1) + node. _row0 holds each element's node-0 row, so an
        # unexpanded slot's -1 reads the spare row before it (see _child_statistics).
        self._stride = n + 1
        self._batch_range = np.arange(b)
        self._row0 = self._batch_range * self._stride

        self.visit_counts, self._row_visits = self._node_array(0, np.int64)
        self.values, self._row_values = self._node_array(0.0, np.float64)
        self.terminal, self._row_terminal = self._node_array(False, bool)
        self.node_states, self._row_states = self._node_array(None, object)  # the handles

        self.topk_mapping, self._row_topk = self._node_array(-1, np.int64, a)
        self.children_index, self._row_children = self._node_array(-1, np.int64, a)
        self.children_prior, self._row_priors = self._node_array(0.0, np.float64, a)
        # The argmax slot of every node's UCT scores, and the descent table written with it
        # (see _rescore): the node a descent moves to from each node. A new node's best slot
        # is 0 and it has no child, so every entry starts there and at the node itself.
        self.best_slot, self._row_best = self._node_array(0, np.int64)
        self.next_node, self._row_next = self._node_array(0, np.int64)
        self.next_node[:] = np.arange(n)

        # Each element's nodes: its root and one per simulation that stopped at a live node.
        self.node_counts = np.zeros(b, dtype=np.int64)
        self.simulations_done = 0
        self._active, self._active_row0 = self._batch_range, self._row0

        # Each element's charges past its root and the simulations it ran: rollout steps and
        # skipped simulations.
        self._charges = np.zeros(b, dtype=np.int64)
        priors, values, handles = model.evaluate_root(root_states)
        if cfg.value_source == "rollout":
            values, self._charges = rollout_value(model, root_states, metric)
        self.root_priors = priors  # (B, V) raw, untempered: what decode_mcts scores tokens by
        self.adaptive_min = values.astype(np.float64).copy()
        self.adaptive_max = values.astype(np.float64) + 1e-6
        self._create_nodes(self._batch_range, priors, values, handles, False)

    # -------------------------------------------------------------- lifecycle

    def run(self) -> None:
        """Full search: each root's simulation count."""
        while self.simulations_done < self.simulation_counts.max():
            self.step_simulation()

    def step_simulation(self) -> None:
        """One simulate / expand / backward round for the active elements: those whose
        simulation count exceeds the simulations done."""
        active = np.flatnonzero(self.simulation_counts > self.simulations_done)
        if not active.size:
            raise ContractViolation("simulation budget exhausted")
        self._active, self._active_row0 = active, self._row0[active]
        path, actions = self.simulate()
        self.backward(path, self.expand(path[-1], actions))
        self.simulations_done += 1

    def retire(self, elements: np.ndarray) -> None:
        """Lower the simulation counts of ``elements``, distinct element ids, to the
        simulations done, so they retire before the next simulation, and charge each
        simulation they skip: one evaluation, on the ledger and in :attr:`evaluations`,
        with no provider call. A count already reached stays. Once every element has
        retired, the search is finished."""
        counts = self.simulation_counts
        skipped = np.maximum(counts[elements] - self.simulations_done, 0)
        counts[elements] -= skipped
        self._charges[elements] += skipped
        self.model.ledger.charge_evaluations(int(skipped.sum()))

    def root_actions(self) -> np.ndarray:
        """(B,) vocabulary id each element commits, read off its root's sparse row: under
        ``visit_count`` the most visited child, under ``max_value`` the visited child of best
        value, ties going to the lower token id. With no visited child it is slot 0, the
        top tempered prior."""
        slots, _, tokens = self._root_pick(self._row0, self.cfg.root_selection)
        return tokens[self._batch_range, slots]

    def pick_margins(self, elements: np.ndarray) -> np.ndarray:
        """How far the visit-count pick of each of ``elements`` leads the root's other sparse
        actions: ``c* - max(c_x + [token_x < token*])``, where ``*`` is the most visited root
        child, ties going to the lower token id as in :meth:`root_actions`; ``c*`` with no
        other action."""
        pick, visits, tokens = self._root_pick(self._row0[elements], "visit_count")
        rows = np.arange(len(elements))
        lead = visits[rows, pick]
        rivals = visits + (tokens < tokens[rows, pick][:, None])
        rivals[rows, pick] = 0
        return lead - rivals.max(axis=1)

    def _root_pick(
        self, row0: np.ndarray, selection: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The picked slot of the roots at node-0 rows ``row0`` under root ``selection``, with
        the roots' child visit counts and sparse tokens, ``(n, A)`` each. Of the children with
        the best key, the visit count or, among visited children, the value, the pick is the
        lowest token; with no visited child it is slot 0."""
        visits, values = self._child_statistics(row0, row0)
        tokens = self._row_topk[row0]
        visited = visits > 0
        if selection == "visit_count":
            # Most visits, then the lowest token, as one key; an unvisited child keys 0,
            # below every visited one, so with none visited the first maximum is slot 0.
            key = np.where(visited, visits * self.num_actions - tokens, 0)
            return key.argmax(axis=1), visits, tokens
        key = np.where(visited, values, -np.inf)
        best = key == key.max(axis=1, keepdims=True)
        pick = np.where(best, tokens, self.num_actions).argmin(axis=1)
        return np.where(visited.any(axis=1), pick, 0), visits, tokens

    # -------------------------------------------------------------- internals

    def _node_array(self, fill, dtype, *tail: int) -> tuple[np.ndarray, np.ndarray]:
        """A ``(B, N, *tail)`` array filled with ``fill`` and its storage's raveled rows."""
        storage = np.full((self.batch_size, self._stride, *tail), fill, dtype=dtype)
        return storage[:, :-1], storage.reshape(-1, *tail)

    def _child_statistics(
        self, row0: np.ndarray, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Visit counts and values of the children of each node row, with the shape of
        ``rows`` plus ``(A,)``; ``row0`` is the node-0 row of each row's element. An
        unexpanded slot's -1 gathers the spare row before ``row0`` and reads 0 and 0.0."""
        child_rows = row0[..., None] + self._row_children.take(rows, axis=0)
        return self._row_visits[child_rows], self._row_values[child_rows]

    def _row_uct_scores(
        self, elements: np.ndarray, row0: np.ndarray, rows: np.ndarray, visits: np.ndarray
    ) -> np.ndarray:
        """Value score + policy score of the sparse actions of node rows ``rows`` of
        ``elements``, whose node-0 rows are ``row0`` and whose visit counts are ``visits``.
        The index arrays broadcast; the result has their shape plus ``(A,)``."""
        child_visits, child_values = self._child_statistics(row0, rows)
        policy_score = (
            np.sqrt(visits)[..., None]
            * self.cfg.c_puct
            * self._row_priors.take(rows, axis=0)
            / (child_visits + 1)
        )
        low = self.adaptive_min[elements][..., None]
        span = (self.adaptive_max - self.adaptive_min)[elements][..., None]
        # Unvisited children sit at the rescaled minimum.
        value_score = np.where(child_visits > 0, (child_values - low) / span, 0.0)
        return value_score + policy_score

    def uct_select_action(self, node_indices: np.ndarray) -> np.ndarray:
        """Per active element, the sparse action maximizing value score + policy score,
        read off ``best_slot``; ties go to the lower slot."""
        return self._row_best[self._active_row0 + node_indices]

    def simulate(self) -> tuple[np.ndarray, np.ndarray]:
        """Descend in lockstep until every active element sits on an unexplored edge.

        Returns the ``(D, b)`` path over the ``b`` active elements, root first, and the
        actions chosen at ``path[-1]``. Each row moves an element to a new node or, once it
        has stopped, repeats its last node (padding), so ``D`` is at most the node count. A
        terminal node has no child, so a descent that reaches one stops there. The descent
        table is current, and a stopped element points at itself, so each level is one
        gather and one compare, the stop's actions are one :meth:`uct_select_action` read,
        and the descent costs what its path does, not the tree size.
        """
        path = np.zeros((self.node_counts.max(), len(self._active)), dtype=np.int64)
        row0, node_indices, depth = self._active_row0, path[0], 0
        while True:
            next_nodes = self._row_next[row0 + node_indices]
            if not np.count_nonzero(next_nodes != node_indices):  # every element points at itself
                return path[: depth + 1], self.uct_select_action(node_indices)
            depth += 1
            node_indices = path[depth] = next_nodes

    def expand(self, node_indices: np.ndarray, sparse_actions: np.ndarray) -> np.ndarray:
        """Evaluate the selected edges of the active elements, wire the nodes they make into
        the tree, and return the value each element backs up.

        Below a live node the provider steps the node's handle once: the selected slot's
        child is made, each element's next node, and its value is backed up. A terminal
        node makes no node and calls no provider: EOS ended the episode, so the node backs
        up its handle's value, and the ledger is charged one evaluation for the stop. In
        rollout mode only the new nodes are rolled out, and each new handle carries its
        rollout value, so a terminal node's handle holds that value. When a new node's value
        moves an element's adaptive range, the element's rows are rescored; a terminal
        node's value cannot, since the range took it in when the node was made.
        """
        parent_rows = self._active_row0 + node_indices
        stopped = self._row_terminal[parent_rows]
        values = np.empty(len(parent_rows))
        if stopped.any():
            stops = self._row_states[parent_rows[stopped]].tolist()
            values[stopped] = [h.value for h in stops]
            self.model.ledger.charge_evaluations(len(stops))
        live = np.flatnonzero(~stopped)
        if not live.size:
            return values
        elements, parent_rows, actions = self._active[live], parent_rows[live], sparse_actions[live]
        priors, new_values, handles, terminal = self.model.evaluate_step(
            self._row_states[parent_rows].tolist(), self._row_topk[parent_rows, actions].tolist()
        )
        if self.cfg.value_source == "rollout":
            new_values, charges = rollout_value(self.model, [h.state for h in handles], self.metric)
            self._charges[elements] += charges
            handles = [ModelState(h.state, v) for h, v in zip(handles, new_values.tolist())]
        values[live] = new_values
        nodes = self._create_nodes(elements, priors, new_values, handles, terminal)
        self._row_children[parent_rows, actions] = nodes

        low, high = self.adaptive_min[elements], self.adaptive_max[elements]
        out = (new_values < low) | (new_values > high)
        moved = elements[out]
        if moved.size:
            self.adaptive_min[moved] = np.minimum(low, new_values)[out]
            self.adaptive_max[moved] = np.maximum(high, new_values)[out]
            # Rows past an element's last node score 0 everywhere: they rescore to what they
            # hold, slot 0 and no child.
            moved_row0 = moved[:, None] * self._stride
            moved_rows = moved_row0 + np.arange(self.node_counts[moved].max())
            self._rescore(moved[:, None], moved_row0, moved_rows, self._row_visits[moved_rows])
        return values

    def _create_nodes(
        self,
        elements: np.ndarray,
        priors: np.ndarray,
        values: np.ndarray,
        handles: list[ModelState],
        terminal: np.ndarray | bool,
    ) -> np.ndarray:
        """Install the next node of each of ``elements``, one visit each, from the provider's
        raw ``priors``, ``values``, ``handles`` and ``terminal`` flags; return the nodes. A new
        row's best slot is 0, the top tempered prior, and with no child its descent entry is
        the node itself: both as they start."""
        nodes = self.node_counts[elements]
        self.node_counts[elements] += 1
        rows = self._row0[elements] + nodes
        tempered = apply_temperature(priors, self.cfg.tau)
        top = top_actions(tempered, self.num_sparse_actions)
        # Truncated priors are stored as-is, without renormalization.
        kept = tempered[np.arange(len(top))[:, None], top]
        self._row_topk[rows], self._row_priors[rows] = top, kept
        self._row_values[rows] = values
        self._row_visits[rows] = 1
        self._row_terminal[rows] = terminal
        self._row_states[rows] = handles
        return nodes

    def _rescore(
        self, elements: np.ndarray, row0: np.ndarray, rows: np.ndarray, visits: np.ndarray
    ) -> None:
        """Score the node rows ``rows`` of ``elements``, whose node-0 rows are ``row0`` and
        whose visit counts are ``visits`` (see :meth:`_row_uct_scores`), and write their best
        slots, the argmax slots (ties go to the lower slot), and their descent table entries:
        the child at the best slot, or the row's own node where that slot is unexpanded."""
        best = self._row_uct_scores(elements, row0, rows, visits).argmax(axis=-1)
        self._row_best[rows] = best
        children = self._row_children[rows, best]
        self._row_next[rows] = np.where(children < 0, rows - row0, children)

    def backward(self, path: np.ndarray, leaf_values: np.ndarray) -> None:
        """Back each active element's leaf value into every node on :meth:`simulate`'s path,
        and rescore the path's nodes.

        The path ends at the node the descent stopped at: the parent of the node
        :meth:`expand` made, or a terminal node, which takes its own value once more. A path
        entry that the next row repeats (padding) is masked, so each (element, node) pair
        occurs once and fancy-indexed updates apply level-by-level float operations at any
        depth. The path's rows, their node-0 rows and their new visit counts are gathered
        once, for the update, and the rescore scores those rows from them in one pass.
        """
        active_row0 = self._active_row0
        moved = np.ones(path.shape, dtype=bool)
        moved[:-1] = path[:-1] != path[1:]
        moved = moved.ravel().nonzero()[0]  # raveled: depth * b + active index
        path_i, path_nodes = moved % len(active_row0), path.ravel()[moved]
        row0 = active_row0[path_i]
        rows = row0 + path_nodes
        values, visits = self._row_values[rows], self._row_visits[rows]
        self._row_values[rows] = self._backup(values, visits, leaf_values[path_i])
        self._row_visits[rows] = visits = visits + 1
        self._rescore(self._active[path_i], row0, rows, visits)

    def _backup(
        self, values: np.ndarray, visits: np.ndarray, leaf_values: np.ndarray
    ) -> np.ndarray:
        """The values of nodes holding ``values`` after ``visits`` visits, once the leaf values
        are backed into them."""
        if self.cfg.backup == "average":
            return (values * visits + leaf_values) / (visits + 1)
        return np.maximum(values, leaf_values)

    # ------------------------------------------------------------- statistics

    @property
    def children_values(self) -> np.ndarray:
        """(B, N, A) value of each node's child at each sparse action; a fresh array."""
        row0 = self._row0[:, None]
        return self._child_statistics(row0, row0 + np.arange(self.values.shape[1]))[1]

    @property
    def children_visits(self) -> np.ndarray:
        """(B, N, A) visit count of each node's child at each sparse action; a fresh array."""
        row0 = self._row0[:, None]
        return self._child_statistics(row0, row0 + np.arange(self.values.shape[1]))[0]

    @property
    def evaluations(self) -> np.ndarray:
        """(B,) evaluations charged for each element so far: its root, one per simulation
        it ran or skipped (:meth:`retire`), and the steps of its rollouts. They sum to what
        the search has charged the ledger."""
        return 1 + np.minimum(self.simulation_counts, self.simulations_done) + self._charges


def _search_until_settled(arena: ArenaSearch) -> None:
    """Run a search, retiring each element once its pick is settled, where that is known:
    under ``visit_count`` root selection with model values. Other settings run every
    simulation.

    Each simulation adds one visit to one root child, so an element whose pick leads by
    :meth:`ArenaSearch.pick_margins` at least its R simulations left keeps that pick.
    The lead is at most the d simulations done, so no element settles before half its
    count; the deficit R - margin falls by at most 2 per simulation, so an unsettled
    element is checked again after ``ceil(deficit / 2)`` more. The search runs until
    the largest count still standing is reached.
    """
    cfg = arena.cfg
    settles = cfg.root_selection == "visit_count" and cfg.value_source == "model"
    counts = arena.simulation_counts.copy()
    most = int(counts.max())
    check_at = np.where(settles & (counts > 1), (counts + 1) // 2, most)
    next_check = int(check_at.min())
    while (done := arena.simulations_done) < most:
        if done == next_check:
            due = np.flatnonzero(check_at == done)
            deficit = counts[due] - done - arena.pick_margins(due)
            settled = deficit <= 0
            if settled.any():
                arena.retire(due[settled])
                most = int(arena.simulation_counts.max())
                if done == most:
                    break
            again = done + (deficit + 1) // 2
            check_at[due] = np.where(~settled & (again < counts[due]), again, most)
            next_check = int(check_at.min())
        arena.step_simulation()


def decode_mcts(
    model: PolicyValueModel,
    states: list[DecodeState],
    cfg: SearchConfig,
    metric: Metric | None = None,
    simulation_counts: Iterable[int] | None = None,
) -> list[Candidate]:
    """Decode a batch by running one search per output position.

    The search is the ``complete`` policy: each round builds one arena over
    the live elements and commits each one's selected root action, scored by
    its raw root prior. Element b runs ``simulation_counts[b]`` simulations
    per position (``cfg.num_simulations`` by default), so the elements of one
    call may decode one root at several budgets. Finished elements are held
    fixed while the rest continue; element b is charged ``S_b + 1``
    evaluations for every token it emits (plus its rollout steps in rollout
    mode), and its candidate's ``evaluations`` is that charge.

    Each round builds its arena at the live roots' own counts. A live root
    one token short of its cap is decided: every provider forces EOS there, so
    its tempered prior is one-hot EOS and every search there picks EOS, at raw
    prior 1. It is an element settled before its first simulation, and it
    retires at simulation 0 (:meth:`ArenaSearch.retire`), where
    :meth:`ArenaSearch.root_actions` picks slot 0, the top of that prior, which
    is EOS. With ``visit_count`` root selection and ``model`` values, an
    element also retires once its pick is settled; other settings run every
    simulation of an undecided root (:func:`_search_until_settled` drives
    every search). ``retire`` charges each skipped simulation, so each
    element's round adds ``ArenaSearch.evaluations``. Outputs,
    ``evaluations`` and the ledger are those of the full search.
    """
    if not states:
        raise ValueError("empty batch")
    counts = checked_simulation_counts(simulation_counts, len(states), cfg)
    evaluations = np.zeros(len(states), dtype=np.int64)

    def search(indices: list[int], live: list[DecodeState]):
        arena = ArenaSearch(model, live, cfg, metric, counts[indices])
        decided = np.flatnonzero([len(s.prefix) == s.max_len - 1 for s in live])
        if decided.size:
            arena.retire(decided)
        _search_until_settled(arena)
        evaluations[indices] += arena.evaluations
        return arena.root_priors, arena.root_actions()

    finals, log_likelihoods = complete(states, search)
    model.ledger.charge_tokens(sum(len(f.prefix) - len(s.prefix) for f, s in zip(finals, states)))
    return [
        Candidate(s, ll, evaluations=e)
        for s, ll, e in zip(finals, log_likelihoods, evaluations.tolist())
    ]
