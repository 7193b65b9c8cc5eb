from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqdecode import (
    ArenaSearch,
    ContractViolation,
    FixedPriorModel,
    RecursiveSearch,
    SearchConfig,
    SeededTabularModel,
    bleu_metric,
    coverage_metric,
    decode_mcts,
    exact_argmax_metric,
    greedy_decode,
    select_root_action,
    step,
)
from seqdecode.mcts import BACKUP_RULES, VALUE_SOURCES

from conftest import A, B, EOS, make_m0


def fresh_arena(model, batch=1, **cfg_kwargs):
    defaults = dict(num_simulations=4, num_sparse_actions=2, c_puct=1.0)
    defaults.update(cfg_kwargs)
    return ArenaSearch(model, batch, SearchConfig(**defaults))


def node_depth(arena, b, node):
    depth = 0
    while node != 0:
        node = int(arena.parents[b, node])
        depth += 1
    return depth


def per_row_scores(arena, node_indices):
    """UCT scores of one node per element, computed row by row from the arena's statistics
    (the formula ``uct_select_action`` evaluated at every level before the score table)."""
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


def level_by_level_descent(arena):
    """Reference descent: rescore the current node of every element at each level."""
    rows = np.arange(arena.batch_size)
    nodes = np.zeros(arena.batch_size, dtype=np.int64)
    path = [nodes]
    while True:
        actions = np.argmax(per_row_scores(arena, nodes), axis=1)
        next_nodes = arena.children_index[rows, nodes, actions]
        if (next_nodes == -1).all():
            return np.array(path), actions
        nodes = np.where(next_nodes == -1, nodes, next_nodes)
        path.append(nodes)


def random_statistics(rng, arena):
    """Hand-fill an arena's statistics: tie-prone priors and values drawn from a few random
    floats, many zero visit counts, and stale values behind them."""
    shape, b = arena.children_prior.shape, arena.batch_size
    arena.children_prior[:] = rng.choice(np.append(rng.random(3), 0.25), size=shape)
    arena.children_visits[:] = rng.choice([0, 0, 1, 2, 5], size=shape)
    arena.children_values[:] = rng.choice(np.append(rng.normal(size=4), 99.0), size=shape)
    arena.visit_counts[:] = rng.integers(1, 8, size=arena.visit_counts.shape)
    arena.adaptive_min[:] = rng.normal(size=b)
    arena.adaptive_max[:] = arena.adaptive_min + rng.choice([1e-6, rng.random(), 3.0], size=b)


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


class TestResetTree:
    def test_fresh_arena_has_unexplored_children(self, m0):
        arena = fresh_arena(m0)
        assert (arena.children_index == -1).all()
        assert (arena.topk_mapping == -1).all()

    def test_second_begin_raises(self, occupancy_a3):
        # An arena searches once; a new search needs a fresh arena.
        model = make_m0(value_metric=occupancy_a3)
        arena = fresh_arena(model, num_simulations=4)
        arena.run([model.initial_state(())])
        with pytest.raises(ContractViolation):
            arena.begin([model.initial_state(())])
        assert arena.allocated_nodes() == 5


class TestUctSelection:
    def _manual_arena(self, m0):
        # Hand-filled root: priors [0.6, 0.4], child visits [1, 0], child value 0.9,
        # adaptive range [0.5, 1.0], root visited twice.
        arena = fresh_arena(m0, num_sparse_actions=2, c_puct=1.0)
        arena.children_prior[0, 0] = [0.6, 0.4]
        arena.children_visits[0, 0] = [1, 0]
        arena.children_values[0, 0] = [0.9, 0.0]
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
        actions = arena.uct_select_action(np.array([0]))
        assert actions[0] == 0  # 0.8 + 0.424 beats 0 + 0.566

    def test_unvisited_children_follow_prior(self, m0):
        arena = fresh_arena(m0, num_sparse_actions=3)
        arena.children_prior[0, 0] = [0.2, 0.5, 0.3]
        arena.visit_counts[0, 0] = 1
        arena.adaptive_min[0], arena.adaptive_max[0] = 0.3, 0.3 + 1e-6
        assert arena.uct_select_action(np.array([0]))[0] == 1

    def test_unvisited_value_never_read(self, m0):
        # A stored (stale) child value must not leak through the visit mask.
        arena = fresh_arena(m0, num_sparse_actions=2)
        arena.children_prior[0, 0] = [0.5, 0.5]
        arena.children_values[0, 0] = [0.0, 99.0]
        arena.children_visits[0, 0] = [0, 0]
        arena.visit_counts[0, 0] = 1
        arena.adaptive_min[0], arena.adaptive_max[0] = 0.0, 1.0
        assert arena.uct_select_action(np.array([0]))[0] == 0  # tie on priors -> low index

    def test_single_sparse_action(self, m0):
        arena = fresh_arena(m0, num_sparse_actions=1)
        arena.children_prior[0, 0] = [1.0]
        arena.visit_counts[0, 0] = 1
        arena.adaptive_min[0], arena.adaptive_max[0] = 0.0, 1.0
        assert arena.uct_select_action(np.array([0]))[0] == 0

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("num_sparse", [1, 3])
    def test_score_table_matches_per_row_formula(self, batch, num_sparse):
        # Every entry of the table is bit-identical to the per-row formula, and so is every
        # choice, with or without a table, however the arena was filled.
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
            table = arena.uct_scores(m)
            assert table.shape == (batch, m, num_sparse)
            for node in range(m):
                nodes = np.full(batch, node)
                assert np.array_equal(table[:, node], per_row_scores(arena, nodes)), trial
            nodes = rng.integers(0, m, size=batch)
            expected = np.argmax(per_row_scores(arena, nodes), axis=1)
            assert np.array_equal(arena.uct_select_action(nodes, table), expected), trial
            assert np.array_equal(arena.uct_select_action(nodes), expected), trial


class TestExpandAndBackward:
    def test_truncated_priors_stay_unrenormalized(self, m0, occupancy_a3):
        arena = fresh_arena(make_m0(value_metric=occupancy_a3), num_sparse_actions=2)
        arena.begin([arena.model.initial_state(())])
        assert np.array_equal(arena.topk_mapping[0, 0], [A, B])
        assert np.allclose(arena.children_prior[0, 0], [0.5, 0.3])

    def test_new_node_contract(self, m0, occupancy_a3):
        arena = fresh_arena(make_m0(value_metric=occupancy_a3), num_simulations=1)
        arena.begin([arena.model.initial_state(())])
        arena.step_simulation()
        assert arena.visit_counts[0, 1] == 1
        assert arena.values[0, 1] == arena.model.value(arena.node_states[1][0].state)
        assert arena.parents[0, 1] == 0
        assert node_depth(arena, 0, 1) == 1

    def _two_element_arena(self, m0, backup):
        # Element 0 stopped at the root (its second path row is padding) and
        # expands node 2 under sparse action 1; element 1 descended 0 -> 1 and
        # expands node 2 under node 1's sparse action 1.
        arena = fresh_arena(m0, batch=2, num_simulations=2, backup=backup)
        arena.parents[:, 1], arena.action_from_parents[:, 1] = 0, 0
        arena.parents[:, 2], arena.action_from_parents[:, 2] = [0, 1], 1
        arena.values[0, :3], arena.visit_counts[0, :3] = [0.5, 0.9, 0.8], [2, 1, 1]
        arena.values[1, :3], arena.visit_counts[1, :3] = [0.2, 0.4, 1.0], [3, 1, 1]
        arena.backward(np.array([[0, 0], [0, 1]]), 2)
        return arena

    def test_average_backup_arithmetic(self, m0):
        arena = self._two_element_arena(m0, "average")
        assert arena.values[0, 0] == pytest.approx(0.6, abs=1e-12)  # (0.5 * 2 + 0.8) / 3
        assert arena.values[1, 1] == pytest.approx(0.7, abs=1e-12)  # (0.4 * 1 + 1.0) / 2
        assert arena.values[1, 0] == pytest.approx(0.4, abs=1e-12)  # (0.2 * 3 + 1.0) / 4
        assert arena.visit_counts[:, :3].tolist() == [[3, 1, 1], [4, 2, 1]]
        assert arena.values[0, 1] == 0.9  # the padding row leaves node 1 alone
        assert arena.children_values[0, 0].tolist() == [0.0, 0.8]
        assert arena.children_visits[0, 0].tolist() == [0, 1]
        assert arena.children_values[1, 0, 0] == arena.values[1, 1]
        assert arena.children_values[1, 1, 1] == 1.0
        assert arena.children_visits[1, :2].tolist() == [[1, 0], [0, 1]]
        assert (arena.children_visits[0, 1:] == 0).all()

    def test_max_backup_arithmetic(self, m0):
        arena = self._two_element_arena(m0, "max")
        assert arena.values[0, :3].tolist() == [0.8, 0.9, 0.8]
        assert arena.values[1, :3].tolist() == [1.0, 1.0, 1.0]
        assert arena.visit_counts[:, :3].tolist() == [[3, 1, 1], [4, 2, 1]]
        assert arena.children_values[1, 0, 0] == 1.0

    def test_root_leaf_is_masked(self, m0):
        # A path holding only the root, with the root as leaf, changes nothing.
        arena = fresh_arena(m0)
        arena.values[0, 0] = 0.4
        arena.visit_counts[0, 0] = 1
        arena.backward(np.zeros((1, 1), dtype=np.int64), 0)
        assert arena.values[0, 0] == 0.4
        assert arena.visit_counts[0, 0] == 1
        assert (arena.children_visits == 0).all()

    def test_expansion_past_terminal_is_absorbing(self, occupancy_a3):
        # EOS-dominated prior: the first expansion lands on a terminal node and
        # later simulations expand absorbing children below it.
        model = FixedPriorModel([0.05, 0.05, 0.9], 3, value_metric=occupancy_a3)
        arena = fresh_arena(model, num_simulations=3, num_sparse_actions=3, c_puct=0.1)
        arena.run([model.initial_state(())])
        states = [arena.node_states[i][0].state for i in range(4)]
        terminal_nodes = [i for i in range(4) if states[i].terminal]
        assert terminal_nodes, "expected at least one terminal expansion"
        first = terminal_nodes[0]
        children = [i for i in range(4) if arena.parents[0, i] == first]
        if children:
            child = children[0]
            assert states[child].terminal
            assert states[child] == states[first]


class TestSimulate:
    def test_fresh_tree_stops_at_a_root_edge(self, occupancy_a3):
        model = make_m0(value_metric=occupancy_a3)
        arena = fresh_arena(model, num_simulations=2, num_sparse_actions=3)
        arena.begin([model.initial_state(())])
        path, actions = arena.simulate()
        assert path.tolist() == [[0]]
        assert 0 <= actions[0] < 3

    def test_descends_into_dominating_child(self, occupancy_a3):
        # After enough simulations the high-value branch must hold depth >= 2 nodes.
        model = make_m0(value_metric=occupancy_a3)
        arena = fresh_arena(
            model, num_simulations=8, num_sparse_actions=3, c_puct=0.5, backup="max"
        )
        arena.run([model.initial_state(())])
        depths = [node_depth(arena, 0, i) for i in range(arena.allocated_nodes())]
        assert max(depths) >= 2

    @pytest.mark.parametrize("backup", BACKUP_RULES)
    @pytest.mark.parametrize("value_source", VALUE_SOURCES)
    def test_matches_level_by_level_descent(self, backup, value_source):
        # The table is scored once per descent; the path and actions must equal a descent
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
            arena = ArenaSearch(model, len(roots), cfg, metric=metric)
            arena.begin(roots)
            for sim in range(int(rng.integers(0, cfg.num_simulations)) + 1):
                path, actions = arena.simulate()
                ref_path, ref_actions = level_by_level_descent(arena)
                assert np.array_equal(path, ref_path), (seed, sim)
                assert np.array_equal(actions, ref_actions), (seed, sim)
                arena.step_simulation()


class TestSearchInvariants:
    def test_zero_simulations_yield_zero_counts(self, occupancy_a3):
        model = make_m0(value_metric=occupancy_a3)
        arena = fresh_arena(model, num_simulations=0)
        result = arena.run([model.initial_state(())])
        assert result.dense_visit_counts.sum() == 0

    def test_simulation_count_reaches_root(self, occupancy_a3):
        model = make_m0(value_metric=occupancy_a3)
        arena = fresh_arena(model, num_simulations=3, num_sparse_actions=3)
        result = arena.run([model.initial_state(())])
        assert result.dense_visit_counts[0].sum() == 3

    def test_node_and_visit_conservation(self, occupancy_a3):
        for seed in range(5):
            model = SeededTabularModel(
                seed, vocab_size=3, max_len=3, context_order=1, value_metric=occupancy_a3
            )
            sims = 12
            arena = fresh_arena(model, num_simulations=sims, num_sparse_actions=3, c_puct=2.0)
            arena.run([model.initial_state(())])
            assert arena.allocated_nodes() == sims + 1
            for i in range(1, sims + 1):
                assert arena.parents[0, i] < i
                expanded = (arena.children_index[0, i] >= 0).any()
                if expanded:
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
        arena = ArenaSearch(model, 1, cfg, metric=occupancy_a3)
        result = arena.run([model.initial_state(())])
        visited = result.dense_visit_counts[0] > 0
        values = np.where(visited, result.dense_root_values[0], -np.inf)
        assert int(np.argmax(values)) == A

    def test_max_backup_values_monotone(self, occupancy_a3):
        model = make_m0(value_metric=occupancy_a3)
        arena = fresh_arena(model, num_simulations=10, num_sparse_actions=3, backup="max")
        arena.begin([model.initial_state(())])
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
        arena = ArenaSearch(model_a, batch, cfg, metric=metric)
        arena.begin([model_a.initial_state(s) for s in sources])
        refs = []
        for s in sources:
            ref = RecursiveSearch(model_r, cfg, metric=metric)
            ref.begin(model_r.initial_state(s))
            refs.append(ref)
        for sim in range(cfg.num_simulations):
            arena.step_simulation()
            for b, ref in enumerate(refs):
                ref.step_simulation()
                n = sim + 2
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
        arena = ArenaSearch(arena_model, len(roots), cfg, metric=metric)
        arena.begin(states)
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
                    got = getattr(arena, name)[b, : sim + 2]
                    assert np.array_equal(got, expected), (name, b, sim)

    def test_rollout_value_source(self):
        metric = coverage_metric()
        cfg = SearchConfig(
            num_simulations=8, num_sparse_actions=3, c_puct=1.0, backup="max", value_source="rollout"
        )
        self._compare(3, 2, cfg, metric=metric, sources=[(0, 1), (1, 2)])


class TestRootSelection:
    def test_visit_count_mode(self):
        counts = np.array([[5, 3, 0]])
        values = np.zeros((1, 3))
        assert select_root_action(counts, values, "visit_count")[0] == 0

    def test_max_value_mode_excludes_unvisited(self):
        counts = np.array([[1, 2, 0]])
        values = np.array([[0.2, 0.9, 5.0]])
        assert select_root_action(counts, values, "max_value")[0] == 1

    def test_tie_breaks_to_lowest_id(self):
        counts = np.array([[4, 4, 0]])
        values = np.zeros((1, 3))
        assert select_root_action(counts, values, "visit_count")[0] == 0

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

    def test_matches_per_row_loop_on_random_batches(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            batch, vocab = rng.integers(1, 6), rng.integers(2, 6)
            # Small integer ranges force ties in counts, values and priors.
            counts = rng.integers(0, 3, size=(batch, vocab)) * (rng.random((batch, 1)) < 0.7)
            values = rng.integers(-2, 3, size=(batch, vocab)) / 2.0
            priors = rng.integers(1, 4, size=(batch, vocab)) / 10.0
            for mode in ("visit_count", "max_value"):
                want = self._loop_reference(counts, values, mode, priors)
                got = select_root_action(counts, values, mode, fallback_priors=priors)
                assert got.dtype == np.int64 and np.array_equal(got, want)
                if (counts == 0).all(axis=1).any():
                    with pytest.raises(ValueError):
                        select_root_action(counts, values, mode)
                else:
                    assert np.array_equal(select_root_action(counts, values, mode), want)

    def test_zero_simulation_fallback(self):
        counts = np.zeros((1, 3), dtype=int)
        values = np.zeros((1, 3))
        prior = np.array([[0.3, 0.5, 0.2]])
        assert select_root_action(counts, values, "visit_count", fallback_priors=prior)[0] == 1


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
        oracle = exact_argmax_metric(make_m0(), (), occupancy_a3)
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


def rollout_closed_form(arena, horizon):
    """Evaluations an arena charges in rollout mode when every greedy completion runs to the
    cap: one per node, plus ``horizon + 1 - len(prefix)`` greedy steps per live node."""
    return sum(
        1 + (0 if ms.state.terminal else horizon + 1 - len(ms.state.prefix))
        for handles in arena.node_states
        for ms in handles
    )


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
            arena = ArenaSearch(model, 2, cfg, metric=occupancy_a3)
            arena.run([model.initial_state(()), step(model.initial_state(()), B)])
            assert arena.allocated_nodes() == sims + 1
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
        decode_mcts(model, states, cfg, metric=occupancy_a3)
        assert len(arenas) >= 2
        expected = sum(rollout_closed_form(arena, model.max_len) for arena in arenas)
        assert model.ledger.evaluations == expected
