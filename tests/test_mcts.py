from __future__ import annotations

import math
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from seqdecode import (
    ArenaSearch,
    BeamConfig,
    ConfigurationError,
    ContractViolation,
    FixedPriorModel,
    Metric,
    NoisyValueModel,
    PolicyValueModel,
    SearchConfig,
    SeededTabularModel,
    VgbsConfig,
    apply_temperature,
    bleu_metric,
    coverage_metric,
    decode_mcts,
    exact_argmax_metric,
    greedy_decode,
    step,
    top_actions,
)
from seqdecode import mcts
from seqdecode.mcts import BACKUP_RULES, ROOT_SELECTIONS, VALUE_SOURCES

from conftest import A, B, EOS, count_calls, make_m0
from twin import RecursiveSearch, arena_decode


def fresh_arena(model, batch=1, **cfg_kwargs):
    """An arena over ``batch`` copies of the empty-source root."""
    defaults = dict(num_simulations=4, num_sparse_actions=2, c_puct=1.0)
    defaults.update(cfg_kwargs)
    return ArenaSearch(model, [model.initial_state(())] * batch, SearchConfig(**defaults))


def incoming_edges(arena, b):
    """Each of element b's nodes but the root mapped to its incoming edge, the one
    ``(parent, slot)`` entry of ``children_index`` that holds it. Asserts that each such
    node is held exactly once, and that nothing else is held."""
    n = int(arena.node_counts[b])
    held = np.argwhere(arena.children_index[b, :n] >= 0).tolist()
    edges = {int(arena.children_index[b, p, s]): (p, s) for p, s in held}
    assert len(edges) == len(held) and sorted(edges) == list(range(1, n)), b
    return edges


def node_tokens(arena, b):
    """Vocabulary id of the edge into each of element b's nodes after the root, in node order."""
    edges = incoming_edges(arena, b)
    return [int(arena.topk_mapping[b, p, s]) for p, s in (edges[i] for i in sorted(edges))]


def node_depth(arena, b, node):
    edges, depth = incoming_edges(arena, b), 0
    while node != 0:
        node = edges[node][0]
        depth += 1
    return depth


def per_row_scores(arena, node_indices):
    """UCT scores of one node per element, computed row by row from the arena's statistics
    (the formula whose argmax ``best_slot`` keeps)."""
    rows = np.arange(arena.batch_size)
    prior = arena.children_prior[rows, node_indices, :]
    child_values = arena.children_values[rows, node_indices, :]
    child_visits = arena.children_visits[rows, node_indices, :]
    node_visits = arena.visit_counts[rows, node_indices]
    policy_score = np.sqrt(node_visits)[:, None] * arena.cfg.c_puct * prior / (child_visits + 1)
    span = (arena.adaptive_max - arena.adaptive_min)[:, None]
    value_score = np.where(
        child_visits > 0, (child_values - arena.adaptive_min[:, None]) / span, 0.0
    )
    return value_score + policy_score


def rescore_all(arena, num_nodes=None):
    """Rescore the first ``num_nodes`` nodes (every node by default) of every element of a
    hand-filled arena, as the search rescores the nodes whose statistics it changes."""
    num_nodes = arena.best_slot.shape[1] if num_nodes is None else num_nodes
    elements = np.arange(arena.batch_size)[:, None]
    row0 = elements * (arena.best_slot.shape[1] + 1)
    rows = row0 + np.arange(num_nodes)
    arena._rescore(elements, row0, rows, arena.visit_counts[:, :num_nodes])


def level_by_level_descent(arena):
    """Reference descent: rescore the current node of every element at each level, and stop
    an element on an unexplored edge or at the first terminal node, read from its state."""
    rows = np.arange(arena.batch_size)
    nodes = np.zeros(arena.batch_size, dtype=np.int64)
    path = [nodes]
    while True:
        actions = np.argmax(per_row_scores(arena, nodes), axis=1)
        next_nodes = arena.children_index[rows, nodes, actions]
        states = [arena.node_states[b, n].state for b, n in enumerate(nodes)]
        stopped = (next_nodes == -1) | np.array([s.terminal for s in states])
        if stopped.all():
            return np.array(path), actions
        nodes = np.where(stopped, nodes, next_nodes)
        path.append(nodes)


def random_statistics(rng, arena):
    """Hand-fill an arena's statistics: tie-prone priors and values drawn from a few random
    floats, and many unexpanded slots, whose -1 gathers the last node's random statistics."""
    shape, b = arena.children_prior.shape, arena.batch_size
    children = rng.integers(0, shape[1], size=shape)
    arena.children_prior[:] = rng.choice(np.append(rng.random(3), 0.25), size=shape)
    arena.children_index[:] = np.where(rng.random(shape) < 0.4, -1, children)
    arena.values[:] = rng.choice(np.append(rng.normal(size=4), 99.0), size=shape[:2])
    arena.visit_counts[:] = rng.integers(1, 8, size=shape[:2])
    arena.adaptive_min[:] = rng.normal(size=b)
    arena.adaptive_max[:] = arena.adaptive_min + rng.choice([1e-6, rng.random(), 3.0], size=b)


def dense_root(arena):
    """Each root's child visit counts and values scattered to dense ``(B, V)`` arrays by token
    id, 0 where a token has no sparse slot or its child is unexpanded."""
    rows, mapping = np.arange(arena.batch_size)[:, None], arena.topk_mapping[:, 0]
    counts = np.zeros((arena.batch_size, arena.num_actions), dtype=np.int64)
    values = np.zeros((arena.batch_size, arena.num_actions))
    counts[rows, mapping] = arena.children_visits[:, 0]
    values[rows, mapping] = arena.children_values[:, 0]
    return counts, values


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(num_simulations=-1)
        with pytest.raises(ValueError):
            SearchConfig(c_puct=0.0)
        with pytest.raises(ValueError):
            SearchConfig(backup="median")
        with pytest.raises(ValueError):
            SearchConfig(root_selection="best")
        with pytest.raises(ValueError):
            SearchConfig(value_source="oracle")

    @pytest.mark.parametrize(
        "config, field, least",
        [
            (SearchConfig, "num_simulations", 0),
            (SearchConfig, "num_sparse_actions", 1),
            (BeamConfig, "k", 1),
            (VgbsConfig, "k", 1),
        ],
    )
    def test_integer_fields_reject_floats_and_bools(self, config, field, least):
        for value in (least + 1.7, float(least + 1), True, False, "2", None):
            with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
                config(**{field: value})
        with pytest.raises(ConfigurationError, match=f"{field} must be an integer >= {least}"):
            config(**{field: least - 1})
        for value in (least, least + 2, np.int64(least + 1), np.int32(least)):
            assert getattr(config(**{field: value}), field) == value


class TestResetTree:
    def test_fresh_arena_has_unexplored_children(self, m0):
        # A fresh arena holds its root alone.
        arena = fresh_arena(m0)
        assert arena.node_counts.tolist() == [1]
        assert (arena.children_index == -1).all()
        assert (arena.topk_mapping[:, 1:] == -1).all()

    def test_roots_are_checked_before_any_evaluation(self, occupancy_a3):
        model = make_m0(value_metric=occupancy_a3)
        cfg = SearchConfig(num_simulations=2, num_sparse_actions=2)
        with pytest.raises(ValueError, match="empty batch"):
            ArenaSearch(model, [], cfg)
        terminal = step(model.initial_state(()), EOS)
        with pytest.raises(ContractViolation):
            ArenaSearch(model, [model.initial_state(()), terminal], cfg)
        assert model.ledger.snapshot() == (0, 0)


class TestUctSelection:
    def _manual_arena(self, m0):
        # Hand-filled root: priors [0.6, 0.4], one child (node 1, value 0.9, one visit),
        # adaptive range [0.5, 1.0], root visited twice.
        arena = fresh_arena(m0, num_sparse_actions=2, c_puct=1.0)
        arena.children_prior[0, 0] = [0.6, 0.4]
        arena.children_index[0, 0] = [1, -1]
        arena.values[0, 1], arena.visit_counts[0, 1] = 0.9, 1
        arena.visit_counts[0, 0] = 2
        arena.adaptive_min[0] = 0.5
        arena.adaptive_max[0] = 1.0
        return arena

    def test_hand_computed_scores(self, m0):
        arena = self._manual_arena(m0)
        prior = arena.children_prior[0, 0]
        policy = math.sqrt(2) * 1.0 * prior / (arena.children_visits[0, 0] + 1)
        assert policy[0] == pytest.approx(math.sqrt(2) * 0.6 / 2, abs=1e-12)
        assert policy[1] == pytest.approx(math.sqrt(2) * 0.4, abs=1e-12)
        value = (0.9 - 0.5) / (1.0 - 0.5)
        assert value == pytest.approx(0.8)
        rescore_all(arena)
        actions = arena.uct_select_action(np.array([0]))
        assert actions[0] == 0  # 0.8 + 0.424 beats 0 + 0.566

    def test_unvisited_children_follow_prior(self, m0):
        arena = fresh_arena(m0, num_sparse_actions=3)
        arena.children_prior[0, 0] = [0.2, 0.5, 0.3]
        arena.visit_counts[0, 0] = 1
        arena.adaptive_min[0], arena.adaptive_max[0] = 0.3, 0.3 + 1e-6
        rescore_all(arena)
        assert arena.uct_select_action(np.array([0]))[0] == 1

    def test_unvisited_value_never_read(self, m0):
        # An unexpanded slot's -1 gathers the last node, whose statistics must not leak
        # through the mask.
        arena = fresh_arena(m0, num_sparse_actions=2)
        arena.children_prior[0, 0] = [0.5, 0.5]
        arena.values[0, -1], arena.visit_counts[0, -1] = 99.0, 1
        arena.visit_counts[0, 0] = 1
        arena.adaptive_min[0], arena.adaptive_max[0] = 0.0, 1.0
        rescore_all(arena)
        assert arena.uct_select_action(np.array([0]))[0] == 0  # tie on priors -> low index

    def test_single_sparse_action(self, m0):
        arena = fresh_arena(m0, num_sparse_actions=1)
        arena.children_prior[0, 0] = [1.0]
        arena.visit_counts[0, 0] = 1
        arena.adaptive_min[0], arena.adaptive_max[0] = 0.0, 1.0
        rescore_all(arena)
        assert arena.uct_select_action(np.array([0]))[0] == 0

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("num_sparse", [1, 3])
    def test_score_table_matches_per_row_formula(self, batch, num_sparse):
        # Every entry of the full table and of the pairwise rows is bit-identical to the
        # per-row formula, and so is every choice made from the table, however the arena
        # was filled.
        model = SeededTabularModel(0, vocab_size=4, max_len=3)
        rng = np.random.default_rng(batch * 10 + num_sparse)
        for trial in range(40):
            arena = fresh_arena(
                model,
                batch=batch,
                num_simulations=int(rng.integers(0, 6)),
                num_sparse_actions=num_sparse,
                c_puct=float(rng.choice([0.5, 1.0, 3.0])),
            )
            random_statistics(rng, arena)
            num_nodes = arena.visit_counts.shape[1]
            m = int(rng.integers(1, num_nodes + 1))
            rows = np.arange(batch)
            table = arena.uct_scores(rows[:, None], np.arange(m))
            assert table.shape == (batch, m, num_sparse)
            for node in range(m):
                nodes = np.full(batch, node)
                assert np.array_equal(table[:, node], per_row_scores(arena, nodes)), trial
            nodes = rng.integers(0, m, size=batch)
            expected_scores = per_row_scores(arena, nodes)
            assert np.array_equal(arena.uct_scores(rows, nodes), expected_scores), trial
            rescore_all(arena, m)
            expected = np.argmax(expected_scores, axis=1)
            assert np.array_equal(arena.uct_select_action(nodes), expected), trial


class TestExpandAndBackward:
    def test_truncated_priors_stay_unrenormalized(self, m0, occupancy_a3):
        arena = fresh_arena(make_m0(value_metric=occupancy_a3), num_sparse_actions=2)
        assert np.array_equal(arena.topk_mapping[0, 0], [A, B])
        assert np.allclose(arena.children_prior[0, 0], [0.5, 0.3])

    def test_new_node_contract(self, m0, occupancy_a3):
        arena = fresh_arena(make_m0(value_metric=occupancy_a3), num_simulations=1)
        arena.step_simulation()
        assert arena.visit_counts[0, 1] == 1
        assert arena.values[0, 1] == arena.model.values([arena.node_states[0, 1].state])[0]
        assert incoming_edges(arena, 0)[1][0] == 0
        assert node_depth(arena, 0, 1) == 1

    def _two_element_arena(self, m0, backup):
        # Element 0 stopped at the root (its second path row is padding) and
        # expands node 2 under sparse action 1; element 1 descended 0 -> 1 and
        # expands node 2 under node 1's sparse action 1.
        arena = fresh_arena(m0, batch=2, num_simulations=2, backup=backup)
        arena.children_index[:, 0, 0] = 1
        arena.children_index[[0, 1], [0, 1], 1] = 2
        arena.values[0, :3], arena.visit_counts[0, :3] = [0.5, 0.9, 0.8], [2, 1, 1]
        arena.values[1, :3], arena.visit_counts[1, :3] = [0.2, 0.4, 1.0], [3, 1, 1]
        # backward rescores the path, which divides by the adaptive span; a search's is never 0.
        arena.adaptive_min[:], arena.adaptive_max[:] = 0.0, 1.0
        arena.backward(np.array([[0, 0], [0, 1]]), arena.values[:, 2].copy())
        return arena

    def test_average_backup_arithmetic(self, m0):
        arena = self._two_element_arena(m0, "average")
        assert arena.values[0, 0] == pytest.approx(0.6, abs=1e-12)  # (0.5 * 2 + 0.8) / 3
        assert arena.values[1, 1] == pytest.approx(0.7, abs=1e-12)  # (0.4 * 1 + 1.0) / 2
        assert arena.values[1, 0] == pytest.approx(0.4, abs=1e-12)  # (0.2 * 3 + 1.0) / 4
        assert arena.visit_counts[:, :3].tolist() == [[3, 1, 1], [4, 2, 1]]
        assert arena.values[0, 1] == 0.9  # the padding row leaves node 1 alone
        assert arena.children_values[0, 0].tolist() == [0.9, 0.8]
        assert arena.children_visits[0, 0].tolist() == [1, 1]
        assert arena.children_values[1, 0, 0] == arena.values[1, 1]
        assert arena.children_values[1, 1, 1] == 1.0
        assert arena.children_visits[1, :2].tolist() == [[2, 0], [0, 1]]
        assert (arena.children_visits[0, 1:] == 0).all()

    def test_max_backup_arithmetic(self, m0):
        arena = self._two_element_arena(m0, "max")
        assert arena.values[0, :3].tolist() == [0.8, 0.9, 0.8]
        assert arena.values[1, :3].tolist() == [1.0, 1.0, 1.0]
        assert arena.visit_counts[:, :3].tolist() == [[3, 1, 1], [4, 2, 1]]
        assert arena.children_values[1, 0, 0] == 1.0

    def test_a_root_stop_backs_up_into_the_root(self, m0):
        # A path holding only the root is no padding: the leaf value goes into the root.
        arena = fresh_arena(m0)
        arena.values[0, 0] = 0.4
        arena.visit_counts[0, 0] = 1
        arena.adaptive_min[0], arena.adaptive_max[0] = 0.0, 1.0
        arena.backward(np.zeros((1, 1), dtype=np.int64), np.array([0.8]))
        assert arena.values[0, 0] == pytest.approx(0.6, abs=1e-12)  # (0.4 * 1 + 0.8) / 2
        assert arena.visit_counts[0, 0] == 2
        assert (arena.children_visits == 0).all()

    def test_a_terminal_stop_makes_no_node(self, occupancy_a3, monkeypatch):
        # EOS-dominated prior: the first expansion lands on a terminal node and later
        # simulations stop there. Each backs up the node's handle value and is charged one
        # evaluation on the ledger, without a provider call; no node is made.
        model = FixedPriorModel([0.05, 0.05, 0.9], 3, value_metric=occupancy_a3)
        arena = fresh_arena(model, num_simulations=3, num_sparse_actions=3, c_puct=0.1)
        steps = count_calls(monkeypatch, PolicyValueModel, "evaluate_step")
        arena.run()
        assert [len(handles) for _, handles, _ in steps] == [1]
        assert arena.node_counts.tolist() == [2]
        assert arena.topk_mapping[0, 0, 0] == EOS and arena.children_index[0, 0, 0] == 1
        assert arena.terminal[0, :2].tolist() == [False, True]
        assert arena.node_states[0, 1].state == step(model.initial_state(()), EOS)
        assert (arena.children_index[0, 1] == -1).all()
        assert arena.visit_counts[0, :2].tolist() == [4, 3]
        assert arena.values[0, 1] == arena.node_states[0, 1].value
        assert model.ledger.evaluations == 4


class TestSimulate:
    def test_fresh_tree_stops_at_a_root_edge(self, occupancy_a3):
        model = make_m0(value_metric=occupancy_a3)
        arena = fresh_arena(model, num_simulations=2, num_sparse_actions=3)
        path, actions = arena.simulate()
        assert path.tolist() == [[0]]
        assert 0 <= actions[0] < 3

    def test_descends_into_dominating_child(self, occupancy_a3):
        # After enough simulations the high-value branch must hold depth >= 2 nodes.
        model = make_m0(value_metric=occupancy_a3)
        arena = fresh_arena(
            model, num_simulations=8, num_sparse_actions=3, c_puct=0.5, backup="max"
        )
        arena.run()
        depths = [node_depth(arena, 0, i) for i in range(arena.node_counts[0])]
        assert max(depths) >= 2

    @pytest.mark.parametrize("backup", BACKUP_RULES)
    @pytest.mark.parametrize("value_source", VALUE_SOURCES)
    def test_matches_level_by_level_descent(self, backup, value_source):
        # The table is kept across simulations; the path and actions must equal a descent
        # that rescores each level, after any number of simulations.
        metric = coverage_metric()
        rng = np.random.default_rng(len(backup) + len(value_source))
        for seed in range(4):
            model = SeededTabularModel(seed, 5, 3, context_order=1, value_metric=metric)
            cfg = SearchConfig(
                num_simulations=int(rng.integers(1, 20)),
                num_sparse_actions=int(rng.integers(1, 4)),
                c_puct=float(rng.choice([0.5, 1.0, 2.0])),
                backup=backup,
                value_source=value_source,
            )
            roots = [
                model.initial_state((0, 1)),
                step(model.initial_state((2,)), 1),
                model.initial_state((3,)),
            ]
            arena = ArenaSearch(model, roots, cfg, metric=metric)
            for sim in range(int(rng.integers(0, cfg.num_simulations)) + 1):
                path, actions = arena.simulate()
                ref_path, ref_actions = level_by_level_descent(arena)
                assert np.array_equal(path, ref_path), (seed, sim)
                assert np.array_equal(actions, ref_actions), (seed, sim)
                arena.step_simulation()


def check_terminal_nodes(arena):
    """Assert the node invariants of every element's tree, from node states and the edges of
    ``children_index``: each node but the root is held by exactly one ``(parent, slot)``
    entry, of a live parent made before it, and holds its parent's state stepped by the
    slot's token; ``terminal`` flags the terminal nodes, and a terminal node has no child and
    points the descent at itself. Past an element's last node no handle is held."""
    for b in range(arena.batch_size):
        n = int(arena.node_counts[b])
        states = [arena.node_states[b, i].state for i in range(n)]
        assert arena.terminal[b, :n].tolist() == [s.terminal for s in states], b
        assert not arena.terminal[b, n:].any() and all(h is None for h in arena.node_states[b, n:])
        for i, (parent, slot) in incoming_edges(arena, b).items():
            assert parent < i and not states[parent].terminal, (b, i)
            token = int(arena.topk_mapping[b, parent, slot])
            assert states[i] == step(states[parent], token), (b, i)
            if states[i].terminal:
                assert (arena.children_index[b, i] == -1).all(), (b, i)
                assert arena.next_node[b, i] == i, (b, i)


class TestTerminalNodes:
    PROVIDERS = {
        "seeded-order-0": lambda metric: SeededTabularModel(3, 5, 3, 0, value_metric=metric),
        "seeded-order-1": lambda metric: SeededTabularModel(3, 5, 3, 1, value_metric=metric),
        "eos-heavy": lambda metric: FixedPriorModel(
            [0.05, 0.05, 0.05, 0.05, 0.8], 3, value_metric=metric
        ),
    }

    @staticmethod
    def _roots(model):
        return [
            model.initial_state((0, 1)),
            step(model.initial_state((2,)), 1),
            step(step(model.initial_state((3,)), 0), 2),
        ]

    @pytest.mark.parametrize("provider", PROVIDERS)
    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("num_sparse_actions", [1, 3])
    def test_terminal_flags_agree_with_node_states(self, provider, tau, num_sparse_actions):
        metric = coverage_metric()
        model = self.PROVIDERS[provider](metric)
        cfg = SearchConfig(num_simulations=30, num_sparse_actions=num_sparse_actions, tau=tau)
        arena = ArenaSearch(model, self._roots(model), cfg, metric=metric)
        arena.run()
        assert arena.terminal.any()
        check_terminal_nodes(arena)

    @pytest.mark.parametrize("provider", PROVIDERS)
    @pytest.mark.parametrize("backup", BACKUP_RULES)
    @pytest.mark.parametrize("value_source", VALUE_SOURCES)
    @pytest.mark.parametrize("root_selection", ROOT_SELECTIONS)
    def test_reading_statistics_mid_search_changes_nothing(
        self, provider, backup, value_source, root_selection
    ):
        # One arena has every public statistic read after every simulation, its lockstep
        # twin only at the end: looking changes no result.
        metric = coverage_metric()
        cfg = SearchConfig(
            num_simulations=30,
            num_sparse_actions=3,
            backup=backup,
            value_source=value_source,
            root_selection=root_selection,
        )
        arenas = []
        for _ in range(2):
            model = self.PROVIDERS[provider](metric)
            arenas.append(ArenaSearch(model, self._roots(model), cfg, metric=metric))
        read, unread = arenas
        elements = np.arange(3)
        for sim in range(cfg.num_simulations):
            for arena in arenas:
                arena.step_simulation()
            read.children_values, read.children_visits, read.evaluations
            read.root_actions(), read.pick_margins(elements)
            read.uct_scores(elements[:, None], np.arange(read.node_counts.max()))
        assert read.model.ledger.snapshot() == unread.model.ledger.snapshot()
        assert np.array_equal(read.root_actions(), unread.root_actions())
        assert np.array_equal(read.node_counts, unread.node_counts)
        for name in (*ARENA_ARRAYS, "next_node", "node_states"):
            assert np.array_equal(getattr(read, name), getattr(unread, name)), name

    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("c_puct", [0.3, 1.0, 2.5])
    @pytest.mark.parametrize("vocab, num_sparse_actions", [(2, 1), (3, 3), (5, 2), (5, 5)])
    def test_terminal_nodes_hold_the_eos_row(self, tau, c_puct, vocab, num_sparse_actions):
        # A terminal node's prior is one-hot EOS: every terminal node of a search holds the
        # mapping and priors made from it, and its best slot is 0, the EOS edge.
        model = SeededTabularModel(1, vocab, 2, context_order=1)
        cfg = SearchConfig(
            num_simulations=20, num_sparse_actions=num_sparse_actions, c_puct=c_puct, tau=tau
        )
        arena = ArenaSearch(model, [model.initial_state((0,))], cfg)
        arena.run()
        eos = np.zeros((1, vocab))
        eos[0, model.eos_id] = 1.0
        tempered = apply_temperature(eos, tau)
        top = top_actions(tempered, num_sparse_actions)
        terminal_nodes = np.flatnonzero(arena.terminal[0])
        assert terminal_nodes.size and terminal_stops(arena)[0] > 0
        assert top[0, 0] == model.eos_id
        for n in terminal_nodes.tolist():
            assert arena.topk_mapping[0, n].tobytes() == top[0].tobytes(), n
            assert arena.children_prior[0, n].tobytes() == tempered[0, top[0]].tobytes(), n
            assert arena.best_slot[0, n] == 0, n

    def test_hand_checked_conservation(self, occupancy_a3):
        # V=3 with EOS at prior 0.7, two elements in one arena at counts 3 and 7. Element 0
        # (root "") makes its EOS child, then stops there twice. Element 1 (root "A") makes
        # its EOS child and stops there twice; then A's policy score 2 * 0.2 beats EOS's
        # 2 * 0.7 / 4, so it makes "AA", which is one token short of the cap and makes its
        # forced EOS child, and stops there twice.
        model = FixedPriorModel([0.2, 0.1, 0.7], 3, value_metric=occupancy_a3)
        roots = [model.initial_state(()), step(model.initial_state(()), A)]
        cfg = SearchConfig(num_simulations=1, num_sparse_actions=3)
        arena = ArenaSearch(model, roots, cfg, simulation_counts=[3, 7])
        stops, expand = [[], []], arena.expand

        def recording_expand(nodes, actions):  # the node each active descent stopped at
            for b, node in zip(arena._active.tolist(), nodes.tolist()):
                stops[b].append(node)
            return expand(nodes, actions)

        arena.expand = recording_expand
        arena.run()
        assert stops == [[0, 1, 1], [0, 1, 1, 0, 2, 3, 3]]
        # One node per simulation that stopped at a live node, besides the root.
        assert arena.node_counts.tolist() == [2, 4]
        for b in range(2):
            live = sum(not arena.terminal[b, node] for node in stops[b])
            assert arena.node_counts[b] == 1 + live, b
        assert arena.terminal[0, :2].tolist() == [False, True]
        assert arena.terminal[1, :4].tolist() == [False, True, False, True]
        assert node_tokens(arena, 1) == [EOS, A, EOS]
        # The root takes every simulation; a terminal node has no child, and takes one visit
        # when made and one per descent that stopped at it.
        assert arena.visit_counts[:, 0].tolist() == [4, 8]
        assert arena.visit_counts[1, :4].tolist() == [8, 3, 4, 3]
        for b, node in np.argwhere(arena.terminal).tolist():
            assert (arena.children_index[b, node] == -1).all(), (b, node)
            assert arena.visit_counts[b, node] - 1 == stops[b].count(node), (b, node)
        # Occupancy of A: "A<EOS>" is worth 1/3, "AA" and "AA<EOS>" 2/3, so the root of
        # element 1 averages 1/3 four times and 2/3 four times.
        assert arena.values[1, 0] == pytest.approx(0.5, abs=1e-12)
        assert arena.evaluations.tolist() == [4, 8]
        assert model.ledger.evaluations == 12


def check_best_slots(arena):
    """Assert the best-slot invariant: every node's best slot is the argmax of the per-row
    formula, ties going to the lower slot, and every terminal node picks slot 0, its EOS
    edge. Assert the descent table's: every node's next node is the child at its best slot,
    or the node itself where that slot is unexpanded."""
    elements = np.arange(arena.batch_size)
    for node in range(arena.node_counts.max()):
        nodes = np.full(arena.batch_size, node)
        # Read best_slot, not uct_select_action, which reads only the active elements.
        picks = arena.best_slot[:, node]
        assert np.array_equal(picks, per_row_scores(arena, nodes).argmax(axis=1)), node
        assert (picks[arena.terminal[:, node]] == 0).all(), node
        child = arena.children_index[elements, node, picks]
        assert np.array_equal(arena.next_node[:, node], np.where(child >= 0, child, node)), node


class TestBestSlots:
    @staticmethod
    def _checked_search(batch, cfg):
        """Run a search, checking the best slots after the roots and after every simulation;
        return the simulations after which some element's adaptive range moved."""
        metric = coverage_metric()
        model = SeededTabularModel(3, 5, 3, 1, value_metric=metric)
        roots = [
            model.initial_state((0, 1)),
            step(model.initial_state((2,)), 1),
            step(step(model.initial_state((3,)), 0), 2),
        ][:batch]
        arena = ArenaSearch(model, roots, cfg, metric=metric)
        check_best_slots(arena)
        moves = []
        for sim in range(cfg.num_simulations):
            low, high = arena.adaptive_min.copy(), arena.adaptive_max.copy()
            arena.step_simulation()
            check_best_slots(arena)
            if ((low != arena.adaptive_min) | (high != arena.adaptive_max)).any():
                moves.append(sim)
        assert arena.terminal.any()
        return moves

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("backup", BACKUP_RULES)
    @pytest.mark.parametrize("value_source", VALUE_SOURCES)
    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("num_sparse_actions", [1, 3])
    def test_best_slots_match_the_formula_after_every_simulation(
        self, batch, backup, value_source, tau, num_sparse_actions
    ):
        cfg = SearchConfig(
            num_simulations=30,
            num_sparse_actions=num_sparse_actions,
            tau=tau,
            backup=backup,
            value_source=value_source,
        )
        self._checked_search(batch, cfg)

    def test_late_adaptive_moves_rescore_the_element(self):
        # A value outside an element's adaptive range after simulation 10 rescales every
        # visited child of that element, far from the path being backed up.
        cfg = SearchConfig(num_simulations=30, num_sparse_actions=3, tau=0.5)
        assert max(self._checked_search(3, cfg)) > 10

    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("c_puct", [0.3, 1.0, 2.5])
    @pytest.mark.parametrize("backup", BACKUP_RULES)
    def test_tied_priors_pick_the_lower_slot(self, tau, c_puct, backup):
        # Equal priors tie every fresh row: a node's best slot is 0 when it is made, and
        # every rescore breaks the ties that remain to the lower slot.
        metric = coverage_metric()
        model = FixedPriorModel([0.25] * 4, 3, value_metric=metric)
        roots = [model.initial_state((0, 1)), step(model.initial_state((2,)), 1)]
        cfg = SearchConfig(
            num_simulations=30, num_sparse_actions=3, c_puct=c_puct, tau=tau, backup=backup
        )
        arena = ArenaSearch(model, roots, cfg, metric=metric)
        assert arena.best_slot[:, 0].tolist() == [0, 0]
        check_best_slots(arena)
        made = 0
        for _ in range(cfg.num_simulations):
            counts = arena.node_counts.copy()
            arena.step_simulation()
            for b, n in enumerate(counts.tolist()):
                for node in range(n, arena.node_counts[b]):
                    nodes = np.full(arena.batch_size, node)
                    assert arena.best_slot[b, node] == 0, (b, node)
                    assert per_row_scores(arena, nodes)[b].argmax() == 0, (b, node)
                    made += 1
            check_best_slots(arena)
        assert made >= 10 and arena.terminal.any()


class TestRolloutReuse:
    def test_terminal_nodes_give_back_their_rollout_value(self):
        # An EOS-heavy prior sends most simulations to terminal nodes. Only new nodes are
        # rolled out; a terminal node's handle gives back the rollout value it was made with.
        calls = []

        def counted(anchor, candidates):
            calls.extend(map(tuple, candidates.tolist()))
            return coverage_metric().fn(anchor, candidates)

        metric = Metric("counted-coverage", privileged=False, fn=counted)
        cfg = SearchConfig(num_simulations=40, num_sparse_actions=3, value_source="rollout")

        def model():  # no value metric: the value head never calls the metric
            return FixedPriorModel([0.05, 0.05, 0.05, 0.05, 0.8], 3)

        arena_model = model()
        roots = [arena_model.initial_state((0, 1)), step(arena_model.initial_state((2,)), 1)]
        arena = ArenaSearch(arena_model, roots, cfg, metric=metric)
        twins = []
        for root in roots:
            twin = RecursiveSearch(model(), cfg, metric=coverage_metric())
            twin.begin(root)
            twins.append(twin)
        created = {(b, 0): v for b, v in enumerate(arena.values[:, 0].tolist())}
        for sim in range(cfg.num_simulations):
            counts = arena.node_counts.copy()
            arena.step_simulation()
            for b, twin in enumerate(twins):
                # A new node is off the path it was made below, so it holds its own value.
                for n in range(counts[b], arena.node_counts[b]):
                    created[b, n] = arena.values[b, n]
                twin.step_simulation()
                for name, expected in twin_arrays(twin).items():
                    got = getattr(arena, name)[b, : arena.node_counts[b]]
                    assert np.array_equal(got, expected), (name, b, sim)

        nodes = int(arena.node_counts.sum())
        assert len(calls) <= nodes < len(roots) * (1 + cfg.num_simulations)
        stops = 0
        for b, n in np.argwhere(arena.terminal).tolist():
            assert arena.node_states[b, n].value == created[b, n], (b, n)
            stops += arena.visit_counts[b, n] - 1
        assert stops > len(roots) * cfg.num_simulations // 2


class TestSearchInvariants:
    def test_zero_simulations_yield_zero_counts(self, occupancy_a3):
        model = make_m0(value_metric=occupancy_a3)
        arena = fresh_arena(model, num_simulations=0)
        arena.run()
        assert arena.children_visits[:, 0].sum() == 0
        assert arena.root_actions().tolist() == arena.topk_mapping[:, 0, 0].tolist()

    def test_simulation_count_reaches_root(self, occupancy_a3):
        model = make_m0(value_metric=occupancy_a3)
        arena = fresh_arena(model, num_simulations=3, num_sparse_actions=3)
        arena.run()
        assert arena.children_visits[0, 0].sum() == 3

    def test_node_and_visit_conservation(self, occupancy_a3):
        for seed in range(5):
            model = SeededTabularModel(
                seed, vocab_size=3, max_len=3, context_order=1, value_metric=occupancy_a3
            )
            sims = 12
            arena = fresh_arena(model, num_simulations=sims, num_sparse_actions=3, c_puct=2.0)
            arena.run()
            # Each simulation makes a node or stops at a terminal node, which takes a visit.
            n = arena.node_counts[0]
            assert n + terminal_stops(arena)[0] == sims + 1
            assert all(p < i for i, (p, _) in incoming_edges(arena, 0).items())
            for i in range(1, n):
                if not arena.terminal[0, i]:
                    assert arena.visit_counts[0, i] == 1 + arena.children_visits[0, i].sum()
            assert arena.children_visits[0, 0].sum() == sims

    def test_rollout_max_backup_favours_the_target_branch(self, occupancy_a3):
        model = make_m0()
        cfg = SearchConfig(
            num_simulations=16,
            num_sparse_actions=3,
            backup="max",
            root_selection="max_value",
            value_source="rollout",
        )
        arena = ArenaSearch(model, [model.initial_state(())], cfg, metric=occupancy_a3)
        arena.run()
        visited = arena.children_visits[0, 0] > 0
        values = np.where(visited, arena.children_values[0, 0], -np.inf)
        assert arena.topk_mapping[0, 0, np.argmax(values)] == A
        assert arena.root_actions().tolist() == [A]

    def test_max_backup_values_monotone(self, occupancy_a3):
        model = make_m0(value_metric=occupancy_a3)
        arena = fresh_arena(model, num_simulations=10, num_sparse_actions=3, backup="max")
        previous = arena.values[0].copy()
        for _ in range(10):
            arena.step_simulation()
            current = arena.values[0]
            assert (current >= previous - 1e-15).all()
            previous = current.copy()


@st.composite
def batched_twin_cases(draw):
    """A seed, vocabulary, 2-4 roots with prefix lengths 0, 1, 2, 0, and a search config."""
    vocab = draw(st.integers(3, 5))
    content = st.integers(0, vocab - 2)
    roots = [
        (
            tuple(draw(st.lists(content, min_size=1, max_size=3))),
            tuple(draw(st.lists(content, min_size=b % 3, max_size=b % 3))),
        )
        for b in range(draw(st.integers(2, 4)))
    ]
    cfg = SearchConfig(
        num_simulations=draw(st.integers(1, 12)),
        num_sparse_actions=draw(st.integers(1, vocab)),
        c_puct=draw(st.sampled_from([0.5, 1.0, 2.0])),
        tau=draw(st.sampled_from([0.8, 1.0])),
        backup=draw(st.sampled_from(BACKUP_RULES)),
        value_source=draw(st.sampled_from(VALUE_SOURCES)),
    )
    return draw(st.integers(0, 2**16)), vocab, roots, cfg


def terminal_stops(arena):
    """(B,) descents that stopped at a terminal node: each terminal node's visits past the one
    it was made with."""
    return np.where(arena.terminal, arena.visit_counts - 1, 0).sum(axis=1)


def twin_arrays(ref):
    """The twin's nodes as arena-layout arrays, in node order."""
    index = {id(node): i for i, node in enumerate(ref.nodes)}
    slots = range(ref.cfg.num_sparse_actions)
    return {
        "visit_counts": np.array([n.visits for n in ref.nodes]),
        "values": np.array([n.value for n in ref.nodes]),
        "children_index": np.array(
            [[index[id(n.children[a])] if a in n.children else -1 for a in slots]
             for n in ref.nodes]
        ),
        "children_prior": np.stack([n.prior for n in ref.nodes]),
        "children_values": np.stack([n.child_values for n in ref.nodes]),
        "children_visits": np.stack([n.child_visits for n in ref.nodes]),
    }


class TestDifferential:
    def _compare(self, seed, batch, cfg, metric=None, sources=None):
        model_a = SeededTabularModel(
            seed, vocab_size=4, max_len=3, context_order=1, value_metric=metric
        )
        model_r = SeededTabularModel(
            seed, vocab_size=4, max_len=3, context_order=1, value_metric=metric
        )
        sources = sources or [()] * batch
        roots = [model_a.initial_state(s) for s in sources]
        arena = ArenaSearch(model_a, roots, cfg, metric=metric)
        refs = []
        for s in sources:
            ref = RecursiveSearch(model_r, cfg, metric=metric)
            ref.begin(model_r.initial_state(s))
            refs.append(ref)
        for sim in range(cfg.num_simulations):
            arena.step_simulation()
            for b, ref in enumerate(refs):
                ref.step_simulation()
                n = arena.node_counts[b]
                assert n == len(ref.nodes), (seed, sim)
                assert np.array_equal(arena.visit_counts[b, :n], ref.visit_counts()), (seed, sim)
                assert np.allclose(arena.values[b, :n], ref.node_values(), atol=1e-9), (seed, sim)

    def test_single_element_average(self, occupancy_a3):
        cfg = SearchConfig(num_simulations=10, num_sparse_actions=3, c_puct=1.5, backup="average")
        self._compare(0, 1, cfg, metric=occupancy_a3)

    def test_single_element_max(self, occupancy_a3):
        cfg = SearchConfig(num_simulations=10, num_sparse_actions=3, c_puct=0.5, backup="max")
        self._compare(1, 1, cfg, metric=occupancy_a3)

    def test_batched_lockstep_masking(self, occupancy_a3):
        cfg = SearchConfig(num_simulations=8, num_sparse_actions=2, c_puct=2.0, backup="average")
        self._compare(2, 3, cfg, metric=occupancy_a3, sources=[(), (0,), (1, 0)])

    @settings(max_examples=60, deadline=None)
    @given(batched_twin_cases())
    def test_batched_arena_matches_twins_after_every_simulation(self, case):
        # Mixed prefix lengths give mixed terminal depths, so descents stop at
        # different depths and paths carry padding rows.
        seed, vocab, roots, cfg = case
        metric = coverage_metric()

        def model():
            return SeededTabularModel(seed, vocab, 3, context_order=1, value_metric=metric)

        arena_model = model()
        states = [arena_model.initial_state(src) for src, _ in roots]
        for b, (_, prefix) in enumerate(roots):
            for token in prefix:
                states[b] = step(states[b], token)
        arena = ArenaSearch(arena_model, states, cfg, metric=metric)
        twins = []
        for state in states:
            twin = RecursiveSearch(model(), cfg, metric=metric)
            twin.begin(state)
            twins.append(twin)
        for sim in range(cfg.num_simulations):
            arena.step_simulation()
            for b, twin in enumerate(twins):
                twin.step_simulation()
                for name, expected in twin_arrays(twin).items():
                    got = getattr(arena, name)[b, : arena.node_counts[b]]
                    assert np.array_equal(got, expected), (name, b, sim)

    @pytest.mark.parametrize("backup", BACKUP_RULES)
    @pytest.mark.parametrize(
        "value_source, noise_seed",  # rollout values never read the value head
        [("model", None), ("rollout", None), *(("model", seed) for seed in range(5))],
    )
    def test_repeated_terminal_stops_match_the_twin(
        self, occupancy_a3, backup, value_source, noise_seed
    ):
        # An EOS-dominated prior sends most simulations to terminal nodes, many times to each.
        # Each descent stops within the horizon, and the arena must match the twin. Noisy
        # values are not dyadic, so (v * k + v) / (k + 1) need not give back v: a terminal
        # node that backed up anything but its handle's own value would show here.
        max_len = 3

        def model():
            inner = FixedPriorModel([0.05, 0.05, 0.9], max_len, value_metric=occupancy_a3)
            return inner if noise_seed is None else NoisyValueModel(inner, 0.3, noise_seed)

        cfg = SearchConfig(
            num_simulations=48, num_sparse_actions=3, backup=backup, value_source=value_source
        )
        arena_model = model()
        roots = [arena_model.initial_state(()), step(arena_model.initial_state(()), A)]
        arena = ArenaSearch(arena_model, roots, cfg, metric=occupancy_a3)
        twins = []
        for root in roots:
            twin = RecursiveSearch(model(), cfg, metric=occupancy_a3)
            twin.begin(root)
            twins.append(twin)
        for sim in range(cfg.num_simulations):
            path, _ = arena.simulate()
            assert len(path) <= max_len + 2, sim
            arena.step_simulation()
            for b, twin in enumerate(twins):
                twin.step_simulation()
                for name, expected in twin_arrays(twin).items():
                    got = getattr(arena, name)[b, : arena.node_counts[b]]
                    assert np.array_equal(got, expected), (name, b, sim)
        assert (arena.visit_counts[arena.terminal] - 1).max() >= 10
        assert terminal_stops(arena).sum() > len(roots) * cfg.num_simulations // 2

    def test_rollout_value_source(self):
        metric = coverage_metric()
        cfg = SearchConfig(
            num_simulations=8, num_sparse_actions=3, c_puct=1.0, backup="max", value_source="rollout"
        )
        self._compare(3, 2, cfg, metric=metric, sources=[(0, 1), (1, 2)])


# Every per-(element, node) array of the arena, with the fill of a row no node has used.
ARENA_ARRAYS = {
    "visit_counts": 0,
    "values": 0.0,
    "topk_mapping": -1,
    "children_index": -1,
    "children_prior": 0.0,
    "children_values": 0.0,
    "children_visits": 0,
    "best_slot": 0,
    "terminal": False,
}


def counted_roots(provider, distinct):
    """A model factory and four roots for a per-root count arena: one root repeated, or four
    roots with distinct sources and prefix lengths."""
    metric = coverage_metric()
    if provider == "eos_heavy":  # most descents stop at terminal nodes

        def model():
            return FixedPriorModel([0.1, 0.1, 0.1, 0.7], 3, value_metric=metric)

    else:

        def model():
            return SeededTabularModel(3, 5, 3, context_order=1, value_metric=metric)

    probe = model()
    if not distinct:
        return model, metric, [probe.initial_state((0, 1))] * 4
    return model, metric, [
        probe.initial_state((0, 1)),
        step(probe.initial_state((1,)), 0),
        probe.initial_state((2, 0, 1)),
        step(step(probe.initial_state((0,)), 1), 2),
    ]


class TestPerRootCounts:
    COUNTS = (1, 4, 9, 16)

    @pytest.mark.parametrize("distinct", [False, True], ids=["repeated", "distinct"])
    @pytest.mark.parametrize("provider", ["seeded", "eos_heavy"])
    @pytest.mark.parametrize("backup", BACKUP_RULES)
    @pytest.mark.parametrize("value_source", VALUE_SOURCES)
    def test_elements_match_solo_arenas_and_twins_after_every_simulation(
        self, distinct, provider, backup, value_source
    ):
        model, metric, roots = counted_roots(provider, distinct)
        counts = self.COUNTS
        arena_model = model()
        arena = ArenaSearch(
            arena_model,
            roots,
            SearchConfig(num_simulations=3, num_sparse_actions=3, backup=backup,
                         value_source=value_source),
            metric=metric,
            simulation_counts=counts,
        )  # fmt: skip
        solos, twins = [], []
        for root, count in zip(roots, counts):
            cfg = replace(arena.cfg, num_simulations=count)
            solos.append(ArenaSearch(model(), [root], cfg, metric=metric))
            twins.append(RecursiveSearch(model(), cfg, metric=metric))
            twins[-1].begin(root)
        for sim in range(max(counts)):
            arena.step_simulation()
            for b, count in enumerate(counts):
                if sim < count:
                    solos[b].step_simulation()
                    twins[b].step_simulation()
                n = arena.node_counts[b]
                assert n == solos[b].node_counts[0], (b, sim)
                for name, fill in ARENA_ARRAYS.items():
                    got, solo = getattr(arena, name)[b], getattr(solos[b], name)[0]
                    assert np.array_equal(got[:n], solo[:n]), (name, b, sim)
                    assert (got[n:] == fill).all(), (name, b, sim)
                for name, expected in twin_arrays(twins[b]).items():
                    assert np.array_equal(getattr(arena, name)[b, :n], expected), (name, b, sim)
                assert arena.adaptive_min[b] == solos[b].adaptive_min[0], (b, sim)
                assert arena.adaptive_max[b] == solos[b].adaptive_max[0], (b, sim)
                assert np.array_equal(arena.node_states[b, :n], solos[b].node_states[0, :n])
                assert all(h is None for h in arena.node_states[b, n:]), (b, sim)
                assert arena.root_actions()[b] == solos[b].root_actions()[0], (b, sim)

        for b, solo in enumerate(solos):
            assert np.array_equal(arena.root_priors[b], solo.root_priors[0]), b
        charges = [solo.model.ledger.evaluations for solo in solos]
        assert arena.evaluations.tolist() == charges
        assert arena_model.ledger.evaluations == sum(charges)

    @pytest.mark.parametrize("distinct", [False, True], ids=["repeated", "distinct"])
    @pytest.mark.parametrize("value_source", VALUE_SOURCES)
    def test_decode_equals_one_decode_per_count(self, distinct, value_source):
        # Elements finish at different positions, so later rounds search a subset of them.
        model, metric, roots = counted_roots("seeded", distinct)
        cfg = SearchConfig(num_simulations=1, num_sparse_actions=3, value_source=value_source)
        batched_model = model()
        batched = decode_mcts(batched_model, roots, cfg, metric, simulation_counts=self.COUNTS)
        for b, (root, count) in enumerate(zip(roots, self.COUNTS)):
            solo_model = model()
            (solo,) = decode_mcts(solo_model, [root], replace(cfg, num_simulations=count), metric)
            assert batched[b] == solo, b
            assert solo.evaluations == solo_model.ledger.evaluations, b
        assert sum(c.evaluations for c in batched) == batched_model.ledger.evaluations
        tokens = [len(c.sequence) - len(r.prefix) for c, r in zip(batched, roots)]
        assert batched_model.ledger.tokens_decoded == sum(tokens)
        if value_source == "model":
            assert [c.evaluations for c in batched] == [
                t * (count + 1) for t, count in zip(tokens, self.COUNTS)
            ]

    def test_zero_count_retires_before_the_first_simulation(self, occupancy_a3):
        model = make_m0(value_metric=occupancy_a3)
        cfg = SearchConfig(num_simulations=5, num_sparse_actions=3)
        arena = ArenaSearch(model, [model.initial_state(())] * 2, cfg, simulation_counts=[0, 2])
        arena.run()
        assert arena.simulations_done == 2 and arena.node_counts.tolist() == [1, 3]
        assert arena.children_visits[:, 0].sum(axis=1).tolist() == [0, 2]
        assert arena.root_actions()[0] == arena.topk_mapping[0, 0, 0]
        assert arena.evaluations.tolist() == [1, 3] and model.ledger.evaluations == 4
        with pytest.raises(ContractViolation, match="simulation budget exhausted"):
            arena.step_simulation()

    def test_retire_only_lowers_a_count(self, occupancy_a3):
        # Retiring an element that has already retired keeps its count: raising it to the
        # simulations done would tally simulations it never ran, off the ledger.
        model = make_m0(value_metric=occupancy_a3)
        cfg = SearchConfig(num_simulations=5, num_sparse_actions=3)
        arena = ArenaSearch(model, [model.initial_state(())] * 2, cfg, simulation_counts=[1, 5])
        for _ in range(3):
            arena.step_simulation()
        arena.retire(np.array([0]))
        assert arena.simulation_counts.tolist() == [1, 5]
        assert arena.evaluations.tolist() == [2, 4]
        assert model.ledger.evaluations == 6
        arena.retire(np.array([0, 1]))
        assert arena.simulation_counts.tolist() == [1, 3]
        assert arena.evaluations.tolist() == [2, 4]
        with pytest.raises(ContractViolation, match="simulation budget exhausted"):
            arena.step_simulation()
        assert model.ledger.evaluations == 6

    def test_uniform_counts_equal_the_default(self, occupancy_a3):
        cfg = SearchConfig(num_simulations=6, num_sparse_actions=3, backup="max")
        arenas = []
        for counts in (None, [6, 6, 6]):
            model = make_m0(value_metric=occupancy_a3)
            roots = [model.initial_state(()), step(model.initial_state(()), A)] + [
                model.initial_state(())
            ]
            arenas.append(ArenaSearch(model, roots, cfg, simulation_counts=counts))
            arenas[-1].run()
        for name in ARENA_ARRAYS:
            assert np.array_equal(getattr(arenas[0], name), getattr(arenas[1], name)), name
        assert arenas[0].evaluations.tolist() == arenas[1].evaluations.tolist() == [7, 7, 7]

    @pytest.mark.parametrize(
        "counts, message",
        [
            ([3], "1 simulation counts for 2 roots"),
            ([3, 4, 5], "3 simulation counts for 2 roots"),
            ([3, -1], "element 1: simulation count -1"),
            ([2.0, 3], "element 0: simulation count 2.0"),
            ([True, 2], "element 0: simulation count True"),
            ([2, False], "element 1: simulation count False"),
            ([2, np.bool_(True)], "element 1: simulation count "),
        ],
    )
    def test_bad_counts_rejected_before_any_evaluation(self, occupancy_a3, counts, message):
        model = make_m0(value_metric=occupancy_a3)
        cfg = SearchConfig(num_simulations=2, num_sparse_actions=2)
        roots = [model.initial_state(())] * 2
        with pytest.raises(ValueError, match=message):
            ArenaSearch(model, roots, cfg, simulation_counts=counts)
        with pytest.raises(ValueError, match=message):
            decode_mcts(model, roots, cfg, simulation_counts=counts)
        assert model.ledger.snapshot() == (0, 0)


class TestTerminalStopRounds:
    """Rounds where every active descent stops at a terminal node make no node, so they
    compute no node row and test no adaptive range; they must leave what the twin leaves."""

    @pytest.mark.parametrize("counts", [(30,), (30, 7, 18)], ids=["one", "retiring"])
    @pytest.mark.parametrize("backup", BACKUP_RULES)
    @pytest.mark.parametrize("value_source", VALUE_SOURCES)
    def test_mostly_terminal_stop_searches_match_the_twin(
        self, counts, backup, value_source, monkeypatch
    ):
        # V=3 at content horizon 1: each tree has five live-parent edges, so most rounds
        # stop at terminal nodes only, and with per-root counts the elements retire at different rounds.
        metric = coverage_metric()

        def model():
            return SeededTabularModel(7, 3, 1, context_order=1, value_metric=metric)

        probe = model()
        roots = [probe.initial_state(src) for src in [(0, 1), (1,), (1, 0, 1)][: len(counts)]]
        cfg = SearchConfig(
            num_simulations=1, num_sparse_actions=3, backup=backup, value_source=value_source
        )
        rows_made = count_calls(monkeypatch, mcts, "top_actions")
        arena = ArenaSearch(model(), roots, cfg, metric=metric, simulation_counts=counts)
        assert len(rows_made) == 1  # the roots' rows
        twins = []
        for root, count in zip(roots, counts):
            twins.append(RecursiveSearch(model(), replace(cfg, num_simulations=count), metric))
            twins[-1].begin(root)
        stops_only = 0
        for sim in range(max(counts)):
            active = [b for b, count in enumerate(counts) if sim < count]
            made = arena.node_counts.sum()
            arena.step_simulation()
            stops_only += bool(arena.node_counts.sum() == made)
            assert len(rows_made) == 1 + sim + 1 - stops_only, sim
            check_best_slots(arena)
            for b in active:
                twins[b].step_simulation()
                for name, expected in twin_arrays(twins[b]).items():
                    got = getattr(arena, name)[b, : arena.node_counts[b]]
                    assert np.array_equal(got, expected), (name, b, sim)
        assert stops_only >= 20


@st.composite
def searched_root_cases(draw):
    """A seed, vocabulary, 1-4 roots as (source, prefix) pairs, prefixes up to one token
    short of the cap of 3, a search config with ``tau`` off 1, and per-root simulation counts
    from 0 to 12."""
    vocab = draw(st.integers(2, 5))
    content = st.lists(st.integers(0, vocab - 2), min_size=1, max_size=3)
    prefix = st.lists(st.integers(0, vocab - 2), max_size=2)
    roots = draw(st.lists(st.tuples(content, prefix), min_size=1, max_size=4))
    cfg = SearchConfig(
        num_sparse_actions=draw(st.integers(1, vocab)),
        c_puct=draw(st.sampled_from([0.5, 1.0, 2.0])),
        tau=draw(st.sampled_from([0.5, 0.8, 2.0])),
        backup=draw(st.sampled_from(BACKUP_RULES)),
        root_selection=draw(st.sampled_from(ROOT_SELECTIONS)),
        value_source=draw(st.sampled_from(VALUE_SOURCES)),
    )
    counts = draw(st.lists(st.integers(0, 12), min_size=len(roots), max_size=len(roots)))
    return draw(st.integers(0, 2**16)), vocab, roots, cfg, counts


class TestRootSelection:
    @staticmethod
    def _loop_reference(dense_counts, dense_values, mode, fallback_priors=None):
        actions = np.zeros(dense_counts.shape[0], dtype=np.int64)
        for b in range(dense_counts.shape[0]):
            visited = dense_counts[b] > 0
            if not visited.any():
                if fallback_priors is None:
                    raise ValueError("no visited root child and no fallback prior")
                actions[b] = int(np.argmax(fallback_priors[b]))
            elif mode == "visit_count":
                actions[b] = int(np.argmax(dense_counts[b]))
            else:
                actions[b] = int(np.argmax(np.where(visited, dense_values[b], -np.inf)))
        return actions

    @staticmethod
    def _filled(mode, mapping, visits, values=None, vocab=3):
        """An arena over a uniform prior whose root rows are hand-filled: sparse tokens
        ``mapping`` and, at each slot, a child with these visits and values, unexpanded where
        it has none."""
        mapping, visits = np.atleast_2d(mapping), np.atleast_2d(visits)
        batch, a = mapping.shape
        model = FixedPriorModel(np.full(vocab, 1 / vocab), 3)
        cfg = SearchConfig(num_simulations=a, num_sparse_actions=a, root_selection=mode)
        arena = ArenaSearch(model, [model.initial_state(())] * batch, cfg)
        arena.topk_mapping[:, 0] = mapping
        arena.children_index[:, 0] = np.where(visits > 0, np.arange(1, a + 1), -1)
        arena.visit_counts[:, 1:] = visits
        arena.values[:, 1:] = 0.0 if values is None else values
        return arena

    # Sparse slots hold the tokens out of token order: EOS, then A, then B.
    MAPPING = [EOS, A, B]

    def test_visit_count_mode(self):
        assert self._filled("visit_count", self.MAPPING, [3, 5, 0]).root_actions().tolist() == [A]

    def test_max_value_mode_excludes_unvisited(self):
        # The unexpanded slot reads value 0.0, above every visited child's.
        arena = self._filled("max_value", self.MAPPING, [1, 2, 0], [-0.9, -0.2, 0.0])
        assert arena.root_actions().tolist() == [A]

    @pytest.mark.parametrize("mode", ROOT_SELECTIONS)
    def test_tie_breaks_to_lowest_id(self, mode):
        # EOS at slot 0 and A at slot 1 tie in visits and value; the lower token wins.
        arena = self._filled(mode, self.MAPPING, [4, 4, 2], [0.5, 0.5, 0.1])
        assert arena.root_actions().tolist() == [A]

    @pytest.mark.parametrize("mode", ROOT_SELECTIONS)
    def test_no_visited_child_picks_slot_0(self, mode):
        # Slot 0 holds the top tempered prior, whatever its token id.
        assert self._filled(mode, self.MAPPING, [0, 0, 0]).root_actions().tolist() == [EOS]

    def test_matches_per_row_loop_on_hand_filled_rows(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            batch, vocab = rng.integers(1, 6), rng.integers(2, 6)
            a = int(rng.integers(1, vocab + 1))
            mapping = np.stack([rng.permutation(vocab)[:a] for _ in range(batch)])
            # Small integer ranges force ties in counts and values.
            visits = rng.integers(0, 3, size=(batch, a)) * (rng.random((batch, 1)) < 0.7)
            values = rng.integers(-2, 3, size=(batch, a)) / 2.0
            slot0 = np.zeros((batch, vocab))
            slot0[np.arange(batch), mapping[:, 0]] = 1.0
            for mode in ROOT_SELECTIONS:
                arena = self._filled(mode, mapping, visits, values, vocab)
                counts, dense_values = dense_root(arena)
                want = self._loop_reference(counts, dense_values, mode, slot0)
                assert np.array_equal(arena.root_actions(), want)

    def test_zero_simulation_fallback(self):
        model = FixedPriorModel([0.3, 0.5, 0.2], 3)
        cfg = SearchConfig(num_simulations=0, num_sparse_actions=3, tau=2.0)
        assert ArenaSearch(model, [model.initial_state(())], cfg).root_actions().tolist() == [1]

    @settings(max_examples=60, deadline=None)
    @given(searched_root_cases())
    def test_matches_per_row_loop_on_searched_arenas(self, case):
        seed, vocab, sources, cfg, counts = case
        metric = coverage_metric()
        model = SeededTabularModel(seed, vocab, 3, context_order=1, value_metric=metric)
        roots = [reduce(step, prefix, model.initial_state(tuple(src))) for src, prefix in sources]
        arena = ArenaSearch(model, roots, cfg, metric=metric, simulation_counts=counts)
        arena.run()
        counts, values = dense_root(arena)
        tempered = apply_temperature(arena.root_priors, cfg.tau)
        want = self._loop_reference(counts, values, cfg.root_selection, tempered)
        got = arena.root_actions()
        assert got.dtype == np.int64 and np.array_equal(got, want)


class TestDecodeMcts:
    def test_single_sparse_action_tracks_greedy(self):
        for seed in range(5):
            model = SeededTabularModel(seed, vocab_size=4, max_len=3, context_order=1)
            twin = SeededTabularModel(seed, vocab_size=4, max_len=3, context_order=1)
            cfg = SearchConfig(num_simulations=4, num_sparse_actions=1)
            out = decode_mcts(model, [model.initial_state(())], cfg)
            assert out[0].sequence == greedy_decode(twin, twin.initial_state(())).sequence

    def test_reaches_metric_oracle_on_m0(self, occupancy_a3):
        model = make_m0(value_metric=occupancy_a3)
        cfg = SearchConfig(
            num_simulations=16,
            num_sparse_actions=3,
            backup="max",
            root_selection="max_value",
            value_source="rollout",
        )
        out = decode_mcts(model, [model.initial_state(())], cfg, metric=occupancy_a3)
        oracle = exact_argmax_metric(make_m0(), make_m0().initial_state(()), occupancy_a3)
        assert out[0].sequence == oracle.sequence == (A, A, A, EOS)

    def test_batch_elements_are_independent_and_deterministic(self, occupancy_a3):
        cfg = SearchConfig(num_simulations=6, num_sparse_actions=3)
        model = make_m0(value_metric=occupancy_a3)
        s = model.initial_state(())
        out = decode_mcts(model, [s, s], cfg, metric=occupancy_a3)
        assert out[0].sequence == out[1].sequence
        again = decode_mcts(make_m0(value_metric=occupancy_a3), [s, s], cfg, metric=occupancy_a3)
        assert [c.sequence for c in again] == [c.sequence for c in out]

        # Batched decoding equals one-at-a-time decoding, also for distinct
        # roots that finish at different output positions.
        metric = coverage_metric()
        for seed in range(4):
            for value_source in ("model", "rollout"):
                for backup in ("average", "max"):
                    cfg = SearchConfig(
                        num_simulations=6,
                        num_sparse_actions=3,
                        backup=backup,
                        value_source=value_source,
                    )

                    def model():
                        return SeededTabularModel(
                            seed, vocab_size=4, max_len=3, context_order=1, value_metric=metric
                        )

                    batched_model = model()
                    roots = [
                        batched_model.initial_state((0, 1)),
                        step(batched_model.initial_state((1,)), 0),
                        step(step(batched_model.initial_state((2, 0, 1)), 1), 2),
                    ]
                    batched = decode_mcts(batched_model, roots, cfg, metric=metric)
                    singles, evaluations, tokens = [], 0, 0
                    for root in roots:
                        single_model = model()
                        singles += decode_mcts(single_model, [root], cfg, metric=metric)
                        evaluations += single_model.ledger.evaluations
                        tokens += single_model.ledger.tokens_decoded
                    case = (seed, value_source, backup)
                    assert [(c.sequence, c.log_likelihood) for c in batched] == [
                        (c.sequence, c.log_likelihood) for c in singles
                    ], case
                    assert batched_model.ledger.snapshot() == (evaluations, tokens), case

    @pytest.mark.parametrize("value_source", VALUE_SOURCES)
    def test_references_ride_in_the_root_states(self, value_source):
        # Three roots with distinct references, two of them sharing a source: one
        # batched call equals one-at-a-time decoding, because the value head and
        # the rollouts score each state against its own reference.
        metric = bleu_metric(2)
        cfg = SearchConfig(num_simulations=6, num_sparse_actions=3, value_source=value_source)
        steered = False
        for seed in range(4):

            def model():
                return SeededTabularModel(
                    seed, vocab_size=4, max_len=3, context_order=1, value_metric=metric
                )

            batched_model = model()
            roots = [
                batched_model.initial_state((0, 1), reference=(0, 1)),
                batched_model.initial_state((0, 1), reference=(2, 2, 1)),
                batched_model.initial_state((1,), reference=(1, 0)),
            ]
            batched = decode_mcts(batched_model, roots, cfg, metric=metric)
            singles, evaluations, tokens = [], 0, 0
            for root in roots:
                single_model = model()
                singles += decode_mcts(single_model, [root], cfg, metric=metric)
                evaluations += single_model.ledger.evaluations
                tokens += single_model.ledger.tokens_decoded
            assert [(c.sequence, c.log_likelihood) for c in batched] == [
                (c.sequence, c.log_likelihood) for c in singles
            ], seed
            assert batched_model.ledger.snapshot() == (evaluations, tokens), seed
            steered |= batched[0].sequence != batched[1].sequence
        assert steered  # the reference, not just the source, decides some search

    def test_budget_per_token_is_simulations_plus_one(self, occupancy_a3):
        sims = 5
        model = make_m0(value_metric=occupancy_a3)
        cfg = SearchConfig(num_simulations=sims, num_sparse_actions=3)
        out = decode_mcts(model, [model.initial_state(())], cfg)
        evaluations, tokens = model.ledger.snapshot()
        assert tokens == len(out[0].sequence)
        assert evaluations == tokens * (sims + 1)

    def test_ragged_batch_holds_finished_elements(self, occupancy_a3):
        # A one-token horizon next to a three-token horizon in the same batch.
        short = FixedPriorModel([0.2, 0.2, 0.6], 3, value_metric=occupancy_a3)
        cfg = SearchConfig(num_simulations=4, num_sparse_actions=3)
        states = [
            short.initial_state(()),
            short.initial_state((0,)),
        ]
        out = decode_mcts(short, states, cfg, metric=occupancy_a3)
        for c in out:
            assert c.state.terminal
            assert c.sequence[-1] == EOS or len(c.sequence) == short.max_len + 1


@st.composite
def decided_cases(draw):
    """A seeded provider, 1-4 live roots at drawn prefix lengths (one token short of the
    cap among them), per-root simulation counts with 0 among them and counts at which
    visit-count picks settle, and a search config."""
    vocab = draw(st.integers(2, 5))
    horizon = draw(st.integers(1, 3))
    content = st.integers(0, vocab - 2)
    batch = draw(st.integers(1, 4))
    roots = [
        (tuple(draw(st.lists(content, min_size=1, max_size=3))),
         tuple(draw(st.lists(content, max_size=horizon))))
        for _ in range(batch)
    ]  # fmt: skip
    counts = draw(st.lists(st.integers(0, 40), min_size=batch, max_size=batch))
    cfg = SearchConfig(
        num_sparse_actions=draw(st.integers(1, vocab)),
        c_puct=draw(st.sampled_from([0.5, 1.0, 2.0])),
        tau=draw(st.sampled_from([0.7, 1.0])),
        backup=draw(st.sampled_from(BACKUP_RULES)),
        root_selection=draw(st.sampled_from(ROOT_SELECTIONS)),
        value_source=draw(st.sampled_from(VALUE_SOURCES)),
    )
    return draw(st.integers(0, 2**16)), vocab, horizon, roots, counts, cfg


class TestDecidedPositions:
    """A live root one token short of its cap is decided: ``decode_mcts`` puts it in the
    round's arena at simulation count 0, commits EOS there and charges what its full search
    would. Under visit-count selection with model values, an element whose pick is settled
    retires from its arena and is charged what its full search would be."""

    @settings(max_examples=60, deadline=None)
    @given(decided_cases())
    # The element at count 10 settles after 6 simulations; the one at 8 never does.
    @example((6, 3, 2, [((0,), ()), ((1,), ())], [10, 8], SearchConfig(num_sparse_actions=3)))
    def test_outputs_and_charges_match_an_arena_at_every_position(self, case):
        seed, vocab, horizon, roots, counts, cfg = case
        metric = coverage_metric()
        runs = []
        for decode in (decode_mcts, arena_decode):
            model = SeededTabularModel(seed, vocab, horizon, context_order=1, value_metric=metric)
            states = [reduce(step, p, model.initial_state(s)) for s, p in roots]
            out = decode(model, states, cfg, metric, simulation_counts=counts)
            runs.append((
                [(c.sequence, c.log_likelihood.hex(), c.evaluations) for c in out],
                model.ledger.snapshot(),
            ))  # fmt: skip
        assert runs[0] == runs[1]

    def test_decided_roots_run_no_simulation_and_keep_the_arena_refusals(self, monkeypatch):
        built = count_calls(monkeypatch, mcts, "ArenaSearch")
        steps = count_calls(monkeypatch, ArenaSearch, "step_simulation")
        metric = coverage_metric()
        model = SeededTabularModel(0, 4, 2, context_order=1, value_metric=metric)
        roots = [reduce(step, p, model.initial_state((0, 1))) for p in [(0, 2), (2, 2), (1, 0)]]
        counts = [0, 1, 5]
        refusals = [
            (ValueError, "num_sparse_actions", SearchConfig(num_sparse_actions=5), metric, counts),
            (ValueError, "needs a metric", SearchConfig(value_source="rollout"), None, counts),
            (ValueError, "simulation count", SearchConfig(), metric, [1, -1, 2]),
        ]
        for error, match, cfg, m, c in refusals:
            with pytest.raises(error, match=match):
                decode_mcts(model, roots, cfg, metric=m, simulation_counts=c)
        with pytest.raises(ContractViolation, match="non-terminal"):
            ArenaSearch(model, [step(roots[0], model.eos_id)], SearchConfig())
        assert model.ledger.snapshot() == (0, 0)

        built.clear()
        cfg = SearchConfig(num_sparse_actions=2, value_source="rollout")
        out = decode_mcts(model, roots, cfg, metric=metric, simulation_counts=counts)
        # Every root is decided: one round, one arena over all three, and no simulation.
        assert len(built) == 1
        assert steps == []
        assert [c.sequence for c in out] == [r.prefix + (model.eos_id,) for r in roots]
        assert [c.log_likelihood for c in out] == [0.0] * 3
        # Each root, its simulations and its one EOS rollout step.
        assert [c.evaluations for c in out] == [1 + s + 1 for s in counts]
        assert model.ledger.snapshot() == (sum(c.evaluations for c in out), 3)


class TestSettlement:
    """Under ``visit_count`` selection with model values, ``decode_mcts`` retires an element
    once no rival root child can catch its pick in the simulations left."""

    @pytest.mark.parametrize("num_sparse_actions, settled_at", [(3, 6), (1, 5)])
    def test_hand_checked_settlement(
        self, monkeypatch, occupancy_a3, num_sparse_actions, settled_at
    ):
        # m0 below the root (A, A) at S = 10. No pick settles before half its count, so the
        # first check is after 5 simulations, where A, B and EOS hold 4, 1 and 0 visits:
        # A leads by 4 - 1 = 3 of the 5 left, a deficit of 2, so the next check comes
        # ceil(2 / 2) = 1 simulation later, at 5, 1 and 0 visits: a lead of 4, the 4 left.
        # With one sparse action A has no rival and settles at the first check.
        steps = count_calls(monkeypatch, ArenaSearch, "step_simulation")
        retired = count_calls(monkeypatch, ArenaSearch, "retire")
        model = make_m0(value_metric=occupancy_a3)
        cfg = SearchConfig(num_simulations=10, num_sparse_actions=num_sparse_actions)
        out = decode_mcts(model, [step(step(model.initial_state(()), A), A)], cfg)
        assert len(steps) == settled_at
        assert [arena.simulation_counts.tolist() for arena, _ in retired] == [[settled_at]]
        # The second position is one token short of the cap: decided, at count 0 in its arena.
        assert out[0].sequence == (A, A, A, EOS)
        assert out[0].evaluations == 2 * (10 + 1)
        assert model.ledger.snapshot() == (2 * (10 + 1), 2)

    def test_a_search_runs_on_after_its_largest_count_settles(self, monkeypatch):
        metric = coverage_metric()

        def run(decode):
            model = SeededTabularModel(6, 3, 2, context_order=1, value_metric=metric)
            roots = [model.initial_state((0,)), model.initial_state((1,))]
            out = decode(model, roots, SearchConfig(num_sparse_actions=3), metric, [10, 8])
            return (
                [(c.sequence, c.log_likelihood.hex(), c.evaluations) for c in out],
                model.ledger.snapshot(),
            )

        reference = run(arena_decode)
        steps = count_calls(monkeypatch, ArenaSearch, "step_simulation")
        retired = count_calls(monkeypatch, ArenaSearch, "retire")
        assert run(decode_mcts) == reference
        # Two roots at counts 10 and 8: the first arena retires the 10 after 6 simulations
        # and still runs the 8 to its end; at the second position neither settles.
        assert [(arena.simulation_counts.tolist(), e.tolist()) for arena, e in retired] == [
            ([6, 8], [0])
        ]
        arenas = list(dict.fromkeys(arena for arena, in steps))
        assert [sum(a is arena for a, in steps) for arena in arenas] == [8, 10]
        assert [e for _, _, e in reference[0]] == [3 * (10 + 1), 3 * (8 + 1)]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**16), st.integers(2, 5), st.integers(1, 5), st.integers(1, 12))
    def test_margin_is_the_most_visits_a_rival_can_take_without_changing_the_pick(
        self, seed, vocab, num_sparse_actions, sims
    ):
        model = SeededTabularModel(seed, vocab, 3, context_order=1, value_metric=coverage_metric())
        roots = [model.initial_state((t,)) for t in range(vocab - 1)]
        cfg = SearchConfig(num_simulations=sims, num_sparse_actions=min(num_sparse_actions, vocab))
        arena = ArenaSearch(model, roots, cfg)
        arena.run()
        margins = arena.pick_margins(np.arange(len(roots)))
        dense_counts, _ = dense_root(arena)
        pick_of = TestRootSelection._loop_reference
        for b, margin in enumerate(margins.tolist()):
            counts = dense_counts[b : b + 1]
            pick = arena.root_actions()[b]
            assert pick_of(counts, counts, "visit_count")[0] == pick
            rivals = [x for x in arena.topk_mapping[b, 0].tolist() if x != pick]

            def keeps_pick(visits: int) -> bool:
                # Every rival given ``visits`` more visits still loses to the pick.
                for x in rivals:
                    more = counts.copy()
                    more[0, x] += visits
                    if pick_of(more, more, "visit_count")[0] != pick:
                        return False
                return True

            assert keeps_pick(margin)
            assert not rivals or not keeps_pick(margin + 1)
            assert rivals or margin == counts.max()

    @pytest.mark.parametrize(
        "root_selection, value_source",
        [("max_value", "model"), ("visit_count", "rollout"), ("max_value", "rollout")],
    )
    def test_other_settings_run_every_simulation(
        self, monkeypatch, occupancy_a3, root_selection, value_source
    ):
        # The search that settles after 6 of its 10 simulations above.
        steps = count_calls(monkeypatch, ArenaSearch, "step_simulation")
        retired = count_calls(monkeypatch, ArenaSearch, "retire")
        model = make_m0(value_metric=occupancy_a3)
        cfg = SearchConfig(
            num_simulations=10,
            num_sparse_actions=3,
            root_selection=root_selection,
            value_source=value_source,
        )
        decode_mcts(model, [step(step(model.initial_state(()), A), A)], cfg, occupancy_a3)
        assert len(steps) == 10
        assert retired == []


def rollout_closed_form(arena, horizon):
    """Evaluations an arena charges in rollout mode when every greedy completion runs to the
    cap: one per node and one per descent that stopped at a terminal node, so a terminal
    node's visits, plus ``horizon + 1 - len(prefix)`` greedy steps per live node."""
    return sum(
        int(arena.visit_counts[b, n]) if ms.state.terminal
        else 1 + horizon + 1 - len(ms.state.prefix)
        for (b, n), ms in np.ndenumerate(arena.node_states)
        if ms is not None
    )  # fmt: skip


class TestRolloutLedger:
    # m0's argmax is a content token, so every greedy completion runs to the horizon.
    def test_arena_run_matches_closed_form(self, occupancy_a3):
        for sims, num_sparse, backup in ((0, 3, "average"), (5, 2, "max"), (16, 3, "average")):
            model = make_m0(value_metric=occupancy_a3)
            cfg = SearchConfig(
                num_simulations=sims,
                num_sparse_actions=num_sparse,
                backup=backup,
                value_source="rollout",
            )
            roots = [model.initial_state(()), step(model.initial_state(()), B)]
            arena = ArenaSearch(model, roots, cfg, metric=occupancy_a3)
            arena.run()
            assert (arena.node_counts + terminal_stops(arena) == sims + 1).all()
            expected = rollout_closed_form(arena, model.max_len)
            assert model.ledger.evaluations == expected, (sims, num_sparse, backup)

    def test_decode_mcts_sums_the_closed_form_over_positions(self, occupancy_a3, monkeypatch):
        import seqdecode.mcts as mcts_module

        arenas = []

        class RecordingArena(ArenaSearch):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                arenas.append(self)

        monkeypatch.setattr(mcts_module, "ArenaSearch", RecordingArena)
        model = make_m0(value_metric=occupancy_a3)
        cfg = SearchConfig(num_simulations=6, num_sparse_actions=3, value_source="rollout")
        states = [model.initial_state(()), model.initial_state((A,))]
        out = decode_mcts(model, states, cfg, metric=occupancy_a3)
        assert len(arenas) >= 2
        # An output that reaches the cap passed one decided position, one token short of
        # it, which its arena holds at count 0: the closed form counts its root and its one
        # EOS rollout step, and its S skipped simulations are replayed.
        decided = sum(len(c.sequence) == c.state.max_len for c in out)
        assert decided >= 1
        expected = sum(rollout_closed_form(arena, model.max_len) for arena in arenas)
        assert model.ledger.evaluations == expected + decided * cfg.num_simulations
