from __future__ import annotations

import importlib.util
import math
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import seqdecode.cli  # noqa: F401  (the bench tracer wraps cli.main)
from seqdecode import (
    ArenaSearch,
    ConfigurationError,
    ContractViolation,
    FixedPriorModel,
    Metric,
    ModelState,
    NoisyValueModel,
    PolicyValueModel,
    SearchConfig,
    SeededTabularModel,
    TransformedValueModel,
    apply_temperature,
    bleu_metric,
    complete,
    coverage_metric,
    decode_mcts,
    greedy_decode,
    greedy_policy,
    make_seeded_model,
    model_value_fn,
    rollout_value,
    step,
    terminal_reward,
    top_actions,
)

from conftest import A, B, EOS, affine_value_model, count_calls, make_m0


class TestPriors:
    def test_m0_root(self, m0):
        priors, values, handles = m0.evaluate_root([m0.initial_state(())])
        assert np.allclose(priors[0], [0.5, 0.3, 0.2])
        assert handles[0].state.prefix == ()

    def test_identical_batch_entries_match(self, m0):
        s = m0.initial_state((A,))
        priors, values, _ = m0.evaluate_root([s, s, s])
        assert np.array_equal(priors[0], priors[1])
        assert np.array_equal(priors[1], priors[2])
        assert values[0] == values[1] == values[2]

    def test_evaluate_policy_is_evaluate_root_without_the_value_head(self, occupancy_a3):
        model = make_seeded_model(2, 4, 3, context_order=1, value_metric=occupancy_a3)
        root = model.initial_state((0, 1))
        states = [root, step(root, 1), step(step(root, 1), 3), step(root, 0)]
        priors = model.evaluate_policy(states)
        assert model.ledger.snapshot() == (4, 0)
        assert model._completions == {} and model._rewards == {}
        assert np.array_equal(priors, model.evaluate_root(states)[0])
        assert np.array_equal(priors, model.priors(states))

    def test_model_value_fn_is_evaluate_root_without_the_priors(self, monkeypatch, occupancy_a3):
        # With the memo warm, the value function reads no prior at all, and it charges
        # one evaluation per state, as evaluate_root does.
        model = make_seeded_model(2, 4, 3, context_order=1, value_metric=occupancy_a3)
        root = model.initial_state((0, 1))
        states = [root, step(root, 1), step(step(root, 1), 3), step(root, 0)]
        want = model.evaluate_root(states)[1]
        reads = count_calls(monkeypatch, model, "priors")
        before = model.ledger.evaluations
        assert np.array_equal(model_value_fn(model)(states), want)
        assert reads == []
        assert model.ledger.evaluations - before == len(states)

    def test_forced_eos_one_step_before_cap(self, m0):
        s = m0.initial_state(())
        for _ in range(m0.max_len):  # content horizon reached
            s = step(s, A)
        prior = m0.priors([s])[0]
        assert prior[EOS] == 1.0 and prior.sum() == 1.0

    def test_top_actions_match_a_stable_per_row_sort(self):
        priors = np.array([[0.2, 0.5, 0.3, 0.0], [0.25, 0.25, 0.25, 0.25], [0.0, 0.0, 0.0, 1.0]])
        assert top_actions(priors, 3).tolist() == [[1, 2, 0], [0, 1, 2], [3, 0, 1]]
        for k in (1, 4):
            per_row = [np.argsort(-p, kind="stable")[:k].tolist() for p in priors]
            assert top_actions(priors, k).tolist() == per_row

    def test_seeded_model_is_reproducible(self):
        kwargs = dict(seed=7, vocab_size=3, max_len=3, context_order=1)
        a, b = SeededTabularModel(**kwargs), SeededTabularModel(**kwargs)
        s = a.initial_state(())
        for prefix in [(), (0,), (1,), (0, 1)]:
            sa = s if not prefix else type(s)(s.source, prefix, s.max_len, s.eos_id)
            assert np.array_equal(a.priors([sa])[0], b.priors([sa])[0])

    def test_context_order_zero_ignores_prefix(self):
        m = SeededTabularModel(seed=3, vocab_size=4, max_len=4, context_order=0)
        root = m.initial_state(())
        assert np.array_equal(m.priors([root])[0], m.priors([step(step(root, 0), 1)])[0])

    def test_context_order_one_sees_last_token(self):
        m = SeededTabularModel(seed=3, vocab_size=4, max_len=4, context_order=1)
        root = m.initial_state(())
        assert not np.array_equal(m.priors([step(root, 0)])[0], m.priors([step(root, 1)])[0])

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_priors_normalized(self, seed):
        m = SeededTabularModel(seed=seed, vocab_size=5, max_len=3, context_order=2)
        s = m.initial_state(())
        rng = np.random.default_rng(seed)
        while not s.terminal:
            prior = m.priors([s])[0]
            assert abs(prior.sum() - 1.0) < 1e-9
            assert (prior >= 0).all()
            s = step(s, int(rng.integers(0, 5)))


class TestPolicyValueOutput:
    def test_single_state_convenience(self, occupancy_a3):
        m = make_m0(value_metric=occupancy_a3)
        priors, values, _ = m.evaluate_root([m.initial_state(())])
        assert np.allclose(priors[0], [0.5, 0.3, 0.2])
        assert values[0] == 1.0
        assert m.ledger.evaluations == 1


class RowPrior(PolicyValueModel):
    """Defines only ``_table_prior``: ``row`` at every non-empty prefix, m0's prior at the root."""

    def __init__(self, row):
        super().__init__(vocab_size=3, max_len=3)
        self.row = row

    def _table_prior(self, state):
        return np.array(self.row) if state.prefix else np.array([0.5, 0.3, 0.2])


BAD_ROWS = {
    "nan": ([np.nan, 0.5, 0.5], "non-finite"),
    "negative": ([-0.1, 0.6, 0.5], "negative entry"),
    "length": ([0.5, 0.5], r"shape \(2,\), expected \(3,\)"),
    "sum": ([0.5, 0.3, 0.3], "sums to 1.1"),
}


class TestPriorRowChecks:
    @pytest.mark.parametrize("kind", sorted(BAD_ROWS))
    def test_bad_row_rejected_by_evaluate_root(self, kind):
        row, problem = BAD_ROWS[kind]
        m = RowPrior(row)
        state = step(m.initial_state(()), A)
        with pytest.raises(ContractViolation, match=rf"state .*prefix=\(0,\).* {problem}"):
            m.evaluate_root([m.initial_state(()), state])
        assert m.ledger.evaluations == 0

    @pytest.mark.parametrize("kind", sorted(BAD_ROWS))
    def test_bad_row_rejected_by_evaluate_step(self, kind):
        row, problem = BAD_ROWS[kind]
        m = RowPrior(row)
        _, _, handles = m.evaluate_root([m.initial_state(())])
        with pytest.raises(ContractViolation, match=rf"state .*prefix=\(1,\).* {problem}"):
            m.evaluate_step(handles, [B])
        assert m.ledger.evaluations == 1

    def test_forced_rows_never_reach_the_table(self):
        # Terminal and forced-depth states take the one-hot without reading the bad row.
        m = RowPrior([np.nan, 0.5, 0.5])
        root = m.initial_state(())
        forced = step(step(step(root, A), A), B)
        priors, _, _ = m.evaluate_root([forced, step(step(root, A), EOS)])
        assert priors.tolist() == [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]
        # Live handles stepped to a forced-depth child, a child at the cap and an EOS child.
        parent = ModelState(step(step(root, A), B), 0.0)
        handles = [parent, ModelState(forced, 0.0), parent]
        priors, _, _, terminal = m.evaluate_step(handles, [A, A, EOS])
        assert priors.tolist() == [[0.0, 0.0, 1.0]] * 3
        assert terminal.tolist() == [False, True, True]

    def test_fixed_prior_rejects_nan_at_construction(self):
        with pytest.raises(ValueError, match="probability vector"):
            FixedPriorModel([np.nan, 0.5, 0.5], max_len=3)


def loop_prior(model, s):
    """The forced-EOS rule applied to one state, with the table row read alone."""
    if s.terminal or len(s.prefix) == s.max_len - 1:
        one_hot = np.zeros(model.vocab_size)
        one_hot[model.eos_id] = 1.0
        return one_hot
    return model._table_priors([s])[0]


def loop_value(model, s):
    """Reference twin of the value head: one state's greedy walk, a token at a
    time, scored against its reference, then mapped by any value transform."""
    if isinstance(model, TransformedValueModel):
        return float(model._transform(loop_value(model._inner, s), s))
    if model._value_metric is None:
        return 0.0
    while not s.terminal:
        s = step(s, int(np.argmax(loop_prior(model, s))))
    return terminal_reward(s, model._value_metric)


def loop_evaluate_step(model, states, actions):
    """Reference twin of ``evaluate_step``: the per-handle loop that steps every
    live state and reads its prior and value one at a time."""
    next_states = [step(s, int(a)) for s, a in zip(states, actions)]
    priors = np.stack([loop_prior(model, s) for s in next_states])
    values = np.array([loop_value(model, s) for s in next_states])
    terminal = np.array([s.terminal for s in next_states])
    return priors, values, next_states, terminal


class PowerPrior(PolicyValueModel):
    """Defines only ``_table_prior``: a prior that sharpens with the prefix length."""

    def _table_prior(self, state):
        row = np.arange(1.0, self.vocab_size + 1) ** (len(state.prefix) + 1)
        return row / row.sum()


V4 = 4  # EOS is 3
PROVIDERS = {
    "seeded0": lambda seed, metric: SeededTabularModel(seed, V4, 3, 0, metric),
    "seeded1": lambda seed, metric: SeededTabularModel(seed, V4, 3, 1, metric),
    "seeded2": lambda seed, metric: SeededTabularModel(seed, V4, 3, 2, metric),
    "fixed_zero": lambda seed, metric: FixedPriorModel([0.45, 0.0, 0.3, 0.25], 3, metric),
    "noisy": lambda seed, metric: NoisyValueModel(
        SeededTabularModel(seed, V4, 3, 1, metric), amplitude=0.3, seed=seed
    ),
    "affine": lambda seed, metric: affine_value_model(
        SeededTabularModel(seed, V4, 3, 1, metric), 0.5, 0.25
    ),
    "table_prior_only": lambda seed, metric: PowerPrior(V4, 3, metric),
}


class TestMaskedStep:
    @given(
        st.sampled_from(sorted(PROVIDERS)),
        st.integers(0, 1_000),
        st.lists(
            st.tuples(st.lists(st.integers(0, V4 - 1), max_size=4), st.integers(0, V4 - 1)),
            min_size=1,
            max_size=12,
        ),
    )
    @example("seeded1", 0, [([0, 0, 0], 1), ([0], 3), ([], 0)])  # children at the cap, EOS, live
    @settings(max_examples=80, deadline=None)
    def test_masked_step_equals_the_per_handle_loop(self, kind, seed, rows):
        metric = coverage_metric()
        model, twin = PROVIDERS[kind](seed, metric), PROVIDERS[kind](seed, metric)
        states, actions = [], []
        for tokens, action in rows:
            s = model.initial_state((0, 1))
            for t in tokens:  # up to the forced depth: live and forced-depth states
                child = step(s, t)
                if child.terminal:
                    break
                s = child
            states.append(s)
            actions.append(action)
        _, _, handles = model.evaluate_root(states)
        before = model.ledger.evaluations

        priors, values, next_handles, terminal = model.evaluate_step(handles, actions)
        want_priors, want_values, want_states, want_terminal = loop_evaluate_step(
            twin, states, actions
        )
        assert model.ledger.evaluations - before == len(states)
        assert np.array_equal(priors, want_priors)
        assert values.tolist() == want_values.tolist()
        assert [h.state for h in next_handles] == want_states
        assert [h.value for h in next_handles] == want_values.tolist()
        assert terminal.tolist() == want_terminal.tolist()
        for batch in (states, want_states):
            one_by_one = np.stack([twin.priors([s])[0] for s in batch])
            assert np.array_equal(model.priors(batch), one_by_one)


class TestBatchedValues:
    @given(
        st.sampled_from(sorted(PROVIDERS)),
        st.integers(0, 1_000),
        st.lists(
            st.tuples(
                st.lists(st.integers(0, V4 - 1), max_size=4),
                st.sampled_from([(0,), (1, 2), (0, 0, 1), (2, 2, 2, 2)]),
            ),
            max_size=10,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_batch_equals_the_scalar_walk(self, kind, seed, rows):
        metric = bleu_metric(2)  # privileged: each state is scored against its own reference
        model, twin = PROVIDERS[kind](seed, metric), PROVIDERS[kind](seed, metric)
        states = []
        for tokens, reference in rows:
            s = model.initial_state((0, 1), reference)
            for t in tokens:  # up to the cap: terminal, forced-depth and live states
                if not s.terminal:
                    s = step(s, t)
            states.append(s)
        root = model.initial_state((0, 1), (1, 2))
        states += [step(root, V4 - 1), root, *states[:3], root]  # a terminal, duplicates

        values = model.values(states)
        assert values.dtype == float and values.shape == (len(states),)
        assert values.tolist() == [loop_value(twin, s) for s in states]
        assert model.values(states[::-1]).tolist() == values.tolist()[::-1]  # memo hits
        assert model.values([]).shape == (0,)
        assert model.ledger.snapshot() == (0, 0)


def load_bench_tracer():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTracerBoundary:
    """``bench/tracer.py`` patches ``evaluate_root``/``evaluate_step`` on
    ``PolicyValueModel`` and reads ``ms.state.terminal`` off the handles."""

    def test_only_the_base_class_defines_the_batched_interface(self):
        import seqdecode.models as models

        providers = [
            c for c in vars(models).values()
            if isinstance(c, type) and issubclass(c, models.PolicyValueModel)
        ]  # fmt: skip
        assert len(providers) == 5
        for cls in providers:
            for name in ("evaluate_root", "evaluate_policy", "evaluate_step"):
                assert (name in vars(cls)) == (cls is models.PolicyValueModel), (cls, name)
        assert "state" in {f.name for f in fields(ModelState)}

    def test_traced_search_counts_every_charged_handle(self, monkeypatch):
        # Every charge is a handle the provider answered or a direct charge on the ledger: a
        # terminal stop (a terminal node's visits past the one it was made with) or a skipped
        # simulation (an element's count past its arena's), read as each search ends.
        tracer_module = load_bench_tracer()
        retired = count_calls(monkeypatch, ArenaSearch, "retire")
        cfg = SearchConfig(num_simulations=8, num_sparse_actions=2)
        reads = []  # (terminal stops, skipped simulations, decided roots) of each search
        root_actions = ArenaSearch.root_actions

        def read_at_end(arena):
            roots = [h.state for h in arena.node_states[:, 0]]
            reads.append((
                int(np.where(arena.terminal, arena.visit_counts - 1, 0).sum()),
                int((cfg.num_simulations - arena.simulation_counts).sum()),
                sum(len(s.prefix) == s.max_len - 1 for s in roots),
            ))  # fmt: skip
            return root_actions(arena)

        monkeypatch.setattr(ArenaSearch, "root_actions", read_at_end)

        def run():
            reads.clear()
            m = SeededTabularModel(0, 4, 3, context_order=1, value_metric=coverage_metric())
            out = decode_mcts(m, [m.initial_state((0, 1)), m.initial_state((1, 2))], cfg)
            assert type(m.ledger.evaluations) is int
            return [c.sequence for c in out], m.ledger.snapshot()

        untraced = run()
        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            traced = run()
        finally:
            tracer.uninstall()
        assert traced == untraced
        # Both direct-charge sites ran: terminal stops, and the skipped simulations of a
        # settled element and of a decided root.
        stops, skipped, decided = np.sum(reads, axis=0).tolist()
        assert any(len(elements) for _, elements in retired)
        assert stops > 0 and decided > 0
        counts = tracer.counts
        charged = counts["models.evaluate_root.states"] + counts["models.evaluate_step.states"]
        assert charged + stops + skipped == untraced[1][0]
        assert counts["models.evaluate_step.terminal"] == 0


class TestTerminalHandles:
    @pytest.mark.parametrize(
        "rows",
        [[([3], 0), ([0, 3], 2), ([0, 0, 0, 0], 1)], [([], 0), ([3], 1), ([0, 3], 2)]],
        ids=["all_terminal", "mixed"],
    )
    def test_a_terminal_handle_is_refused(self, rows):
        # A batch holding a terminal handle is refused before any prior or value is read and
        # before anything is charged, even after its live handles step.
        class UnreadModel(SeededTabularModel):
            def _table_priors(self, states):
                raise AssertionError("priors read")

            def _head(self, states):
                raise AssertionError("value head called")

        model = UnreadModel(0, V4, 3, 1)
        handles, actions = [], []
        for tokens, action in rows:
            s = model.initial_state((0, 1))
            for t in tokens:
                s = step(s, t)
            handles.append(ModelState(s, 0.5))
            actions.append(action)
        with pytest.raises(ContractViolation, match="terminal state"):
            model.evaluate_step(handles, actions)
        assert model.ledger.snapshot() == (0, 0)

    def test_eos_action_sets_terminal_flag(self, m0):
        _, _, handles = m0.evaluate_root([m0.initial_state(())])
        _, _, _, flags = m0.evaluate_step(handles, [EOS])
        assert flags[0]


class TestIncrementalEquivalence:
    @given(st.integers(0, 500), st.lists(st.integers(0, 3), min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_step_path_matches_from_scratch(self, seed, actions):
        m = SeededTabularModel(seed=seed, vocab_size=5, max_len=5, context_order=2)
        state = m.initial_state((0, 1))
        _, _, handles = m.evaluate_root([state])
        for a in actions:
            priors_inc, values_inc, handles, _ = m.evaluate_step(handles, [a])
            if not state.terminal:
                state = step(state, a)
            priors_scratch, values_scratch, _ = m.evaluate_root([state])
            assert np.array_equal(priors_inc, priors_scratch)
            assert values_inc[0] == values_scratch[0]


class TestTemperature:
    def test_identity_at_one(self):
        p = np.array([0.5, 0.3, 0.2])
        assert np.array_equal(apply_temperature(p, 1.0), p)

    def test_half_squares_and_renormalizes(self):
        out = apply_temperature(np.array([0.5, 0.3, 0.2]), 0.5)
        assert np.allclose(out, [0.6579, 0.2368, 0.1053], atol=1e-3)
        expected = np.array([0.25, 0.09, 0.04]) / 0.38
        assert np.allclose(out, expected, atol=1e-12)

    def test_one_hot_fixed_point(self):
        one_hot = np.array([0.0, 1.0, 0.0])
        for tau in (0.25, 1.0, 4.0):
            assert np.array_equal(apply_temperature(one_hot, tau), one_hot)

    def test_non_positive_tau_rejected(self):
        with pytest.raises(ValueError):
            apply_temperature(np.array([0.5, 0.5]), 0.0)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    def test_non_finite_tau_is_a_configuration_error(self, tau):
        with pytest.raises(ConfigurationError, match="finite"):
            apply_temperature(np.array([0.5, 0.5]), tau)

    def test_batch_equals_rows(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            batch = rng.dirichlet(np.ones(6), size=5)
            batch[0, rng.integers(0, 6, size=2)] = 0.0  # zero entries
            batch[1] = np.eye(6)[trial % 6]  # a one-hot row
            for tau in (0.05, 0.5, 0.8, 1.0, 1.25, 4.0):
                rows = np.stack([apply_temperature(p, tau) for p in batch])
                assert np.array_equal(apply_temperature(batch, tau), rows)

    def test_row_without_mass_rejected(self):
        with pytest.raises(ValueError):
            apply_temperature(np.array([[0.5, 0.5], [0.0, 0.0]]), 0.5)

    @given(st.floats(0.2, 5.0), st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_output_is_distribution(self, tau, seed):
        p = np.random.default_rng(seed).dirichlet(np.ones(4))
        out = apply_temperature(p, tau)
        assert abs(out.sum() - 1.0) < 1e-9
        assert (out >= 0).all()


class TestLedger:
    def test_greedy_costs_one_evaluation_per_token(self, m0):
        candidate = greedy_decode(m0, m0.initial_state(()))
        evaluations, tokens = m0.ledger.snapshot()
        assert evaluations == len(candidate.sequence) == tokens == 4

    def test_batch_charges_batch_size(self, m0):
        s = m0.initial_state(())
        m0.evaluate_root([s, s, s])
        assert m0.ledger.evaluations == 3

    def test_negative_charge_rejected(self, m0):
        with pytest.raises(ValueError):
            m0.ledger.charge_evaluations(-1)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: SeededTabularModel(0, vocab_size=3, max_len=3),
            make_m0,
            lambda: RowPrior([0.5, 0.3, 0.2]),
            lambda: NoisyValueModel(make_m0(), 0.2),
        ],
        ids=["seeded", "fixed", "row_prior", "noisy"],
    )
    def test_empty_batches_raise_before_charging(self, build):
        model = build()
        for evaluate in (
            lambda: model.evaluate_root([]),
            lambda: model.evaluate_policy([]),
            lambda: model.evaluate_step([], []),
        ):
            with pytest.raises(ValueError, match="empty batch"):
                evaluate()
        assert model.ledger.snapshot() == (0, 0)


class TestRolloutValue:
    def test_terminal_state_returns_reward(self, occupancy_a3):
        m = make_m0()
        terminal = step(step(m.initial_state(()), A), EOS)
        values, charges = rollout_value(m, [terminal], occupancy_a3)
        assert values.tolist() == [terminal_reward(terminal, occupancy_a3)]
        assert charges.tolist() == [0]
        assert m.ledger.evaluations == 0  # nothing to roll out

    def test_greedy_completion_from_a(self, occupancy_a3):
        m = make_m0()
        values, _ = rollout_value(m, [step(m.initial_state(()), A)], occupancy_a3)
        assert values.tolist() == [1.0]

    def test_greedy_completion_from_b(self, occupancy_a3):
        m = make_m0()
        values, _ = rollout_value(m, [step(m.initial_state(()), B)], occupancy_a3)
        assert values.tolist() == [pytest.approx(2 / 3)]

    def test_rollout_charges_ledger(self, occupancy_a3):
        m = make_m0()
        root = m.initial_state(())
        states = [step(root, B), step(root, A), step(step(root, A), EOS)]
        _, charges = rollout_value(m, states, occupancy_a3)
        # [B] and [A] each take three greedy steps to the forced EOS; the
        # terminal [A, EOS] takes none.
        assert charges.tolist() == [3, 3, 0]
        assert m.ledger.evaluations == 6

    def test_batch_equals_one_at_a_time(self):
        metric = bleu_metric(2)
        for seed in range(6):
            rng = np.random.default_rng(seed)
            states = []
            for i in range(7):
                m = SeededTabularModel(seed, vocab_size=5, max_len=4, context_order=1)
                s = m.initial_state(tuple(int(t) for t in rng.integers(0, 4, size=2)))
                for _ in range(int(rng.integers(0, 4))):
                    if not s.terminal:
                        s = step(s, int(rng.integers(0, 5)))  # token 4 is EOS
                reference = tuple(int(t) for t in rng.integers(0, 4, size=i % 3 + 1))
                states.append(replace(s, reference=reference))
            assert any(s.terminal for s in states) and not all(s.terminal for s in states)

            batched_model = SeededTabularModel(seed, vocab_size=5, max_len=4, context_order=1)
            batched, _ = rollout_value(batched_model, states, metric)
            single_model = SeededTabularModel(seed, vocab_size=5, max_len=4, context_order=1)
            singles = [rollout_value(single_model, [s], metric)[0][0] for s in states]
            assert batched.tolist() == singles
            assert batched_model.ledger.snapshot() == single_model.ledger.snapshot()


def greedy_walk(model, state):
    """``state`` and every state its greedy completion passes, read step by step off ``priors``."""
    walk = [state]
    while not walk[-1].terminal:
        walk.append(step(walk[-1], int(np.argmax(model.priors([walk[-1]])[0]))))
    return walk


def counted_metric(inner):
    """``inner`` under another name, recording every scored candidate."""
    calls = []

    def fn(anchor, candidates):
        calls.extend(map(tuple, candidates.tolist()))
        return inner.fn(anchor, candidates)

    return Metric(f"counted-{inner.name}", inner.privileged, fn=fn), calls


class TestGreedyMemo:
    @staticmethod
    def _build(noisy: bool, value_metric=None):
        model = SeededTabularModel(3, 5, 5, context_order=1, value_metric=value_metric)
        return NoisyValueModel(model, 0.3, seed=1) if noisy else model

    @pytest.mark.parametrize("noisy", [False, True], ids=["tabular", "noisy"])
    def test_rollout_memo_matches_the_walk(self, noisy):
        # A batch of terminal states, repeated states and states on one another's greedy
        # walks: a cold and a warm call each return the rewards of complete() under
        # greedy_policy on a fresh model, and add the ledger delta that walk adds.
        metric = bleu_metric(2)
        walker = self._build(noisy)
        first = walker.initial_state((0, 1), reference=(0, 2, 1))
        second = walker.initial_state((2,), reference=(3, 3))
        walk = greedy_walk(walker, first)
        assert len(walk) >= 4
        terminal = step(step(second, 1), walker.eos_id)
        stepped = step(second, 0)
        states = [walk[2], first, terminal, walk[1], second, stepped, first, walk[-1], walk[2]]

        fresh = self._build(noisy, value_metric=metric)
        finals, _ = complete(states, greedy_policy(fresh.evaluate_policy))
        want = [terminal_reward(f, metric) for f in finals]
        want_evaluations = fresh.ledger.evaluations
        assert want_evaluations > 0

        model = self._build(noisy, value_metric=metric)
        for call in ("cold", "warm"):
            before = model.ledger.snapshot()
            assert rollout_value(model, states, metric)[0].tolist() == want, call
            assert model.ledger.evaluations - before[0] == want_evaluations, call
            assert model.ledger.tokens_decoded == before[1], call

        # Each state's charge is its own walk's length, and the charges sum to the delta.
        before = model.ledger.evaluations
        values, charges = rollout_value(model, states, metric)
        assert values.tolist() == want
        assert charges.tolist() == [len(f.prefix) - len(s.prefix) for f, s in zip(finals, states)]
        assert model.ledger.evaluations - before == sum(charges) == want_evaluations

    def test_value_head_memo_serves_walk_states_in_any_order(self, monkeypatch):
        # Each state of two greedy walks gets the value a fresh model gives it, whether its
        # walk's later states are asked for before or after it; the metric scores each
        # final state once, and again after the cache is cleared.
        metric, calls = counted_metric(bleu_metric(2))
        walker = self._build(False)
        roots = [
            walker.initial_state((0, 1), reference=(0, 2, 1)),
            walker.initial_state((2,), reference=(3, 3)),
        ]
        walks = [greedy_walk(walker, root) for root in roots]
        assert min(len(w) for w in walks) >= 4
        states = [s for w in walks for s in w]
        want = [float(self._build(False, metric).values([s])[0]) for s in states]

        # Once any state's walk is done, every state on that walk is served without a
        # priors call; the reverse order meets a memoized state partway through a walk.
        rest_of_walk = {id(s): w[i:] for w in walks for i, s in enumerate(w)}
        for order in (states, states[::-1]):
            model = self._build(False, metric)
            reads = count_calls(monkeypatch, model, "priors")
            calls.clear()
            got, walked = {}, set()
            for s in order:
                before = len(reads)
                got[id(s)] = float(model.values([s])[0])
                if id(s) in walked:
                    assert len(reads) == before
                walked.update(id(t) for t in rest_of_walk[id(s)])
            assert [got[id(s)] for s in states] == want
            assert len(calls) == len(walks)  # one terminal reward per final state
            model.clear_value_cache()
            assert model.values(states).tolist() == want
            assert len(calls) == 2 * len(walks)

    def test_wrapper_and_inner_model_share_one_memo(self):
        # A rollout through a noisy wrapper fills the memo the inner value head reads, so
        # the metric scores each final state once; one clear on the wrapper empties both.
        metric, calls = counted_metric(bleu_metric(2))
        inner = self._build(False, metric)
        noisy = NoisyValueModel(inner, 0.3, seed=1)
        assert {"greedy_rewards", "clear_value_cache"}.isdisjoint(vars(TransformedValueModel))
        roots = [
            inner.initial_state((0, 1), reference=(0, 2, 1)),
            inner.initial_state((2,), reference=(3, 3)),
        ]
        states = [s for root in roots for s in greedy_walk(inner, root)]
        want = self._build(False, bleu_metric(2)).values(states).tolist()

        assert rollout_value(noisy, states, metric)[0].tolist() == want
        assert inner.values(states).tolist() == want
        assert len(calls) == len(roots)  # one terminal reward per final state
        noisy.clear_value_cache()
        for model in (noisy, inner):
            assert not model._completions and not model._rewards
        assert inner.values(states).tolist() == want
        assert len(calls) == 2 * len(roots)

    def test_non_finite_reward_names_the_metric_cold_and_warm(self):
        # The metric refuses a non-finite score itself, so none reaches the reward memo:
        # a cold walk, one that meets the completion memo and a completion hit all raise.
        nan = Metric("nan", privileged=False, fn=lambda _anchor, cands: [math.nan] * len(cands))
        model = self._build(False, nan)
        walk = greedy_walk(model, model.initial_state((0, 1)))
        refusal = re.escape(f"metric 'nan' scored candidate {walk[-1].content} as nan")
        for s in (walk[2], walk[0], walk[1]):
            with pytest.raises(ContractViolation, match=refusal):
                model.values([s])
        assert not any(model._rewards.values())


class TestValueHeads:
    def test_value_head_is_greedy_completion_score(self, occupancy_a3):
        m = make_m0(value_metric=occupancy_a3)
        assert m.values([m.initial_state(())])[0] == 1.0
        assert m.values([step(m.initial_state(()), B)])[0] == pytest.approx(2 / 3)

    def test_value_head_uses_source_for_unprivileged(self):
        m = SeededTabularModel(
            seed=0, vocab_size=3, max_len=3, context_order=0, value_metric=coverage_metric()
        )
        v = m.values([m.initial_state((0, 1))])[0]
        assert 0.0 <= v <= 1.0

    @pytest.mark.parametrize("scale, shift", [(np.nan, 0.0), (1.0, np.inf), (1.0, -np.inf)])
    def test_non_finite_value_head_rejected(self, occupancy_a3, scale, shift):
        model = affine_value_model(make_m0(value_metric=occupancy_a3), scale, shift)
        cfg = SearchConfig(num_simulations=2, num_sparse_actions=2)
        with pytest.raises(ContractViolation, match=r"value head returned .*prefix=\(\)"):
            decode_mcts(model, [model.initial_state(())], cfg)

    def test_value_cache_is_keyed_on_the_reference(self):
        # Same source and prefix, different references: each state gets the
        # BLEU-1 score of its own greedy completion, (A, A, A).
        m = make_m0(value_metric=bleu_metric(1))
        hit = m.initial_state((), reference=(A, A, A))
        miss = m.initial_state((), reference=(B, B))
        _, values, _ = m.evaluate_root([hit, miss, hit])
        assert values.tolist() == [1.0, 0.0, 1.0]
        assert m.values([miss])[0] == 0.0

    def test_metricless_value_head_is_zero(self, m0):
        assert m0.values([m0.initial_state(())])[0] == 0.0

    def test_noisy_wrapper_is_deterministic_and_clamped(self, occupancy_a3):
        base = make_m0(value_metric=occupancy_a3)
        noisy = NoisyValueModel(make_m0(value_metric=occupancy_a3), amplitude=0.4, seed=5)
        again = NoisyValueModel(make_m0(value_metric=occupancy_a3), amplitude=0.4, seed=5)
        s = step(base.initial_state(()), B)
        assert noisy.values([s])[0] == again.values([s])[0]
        assert 0.0 <= noisy.values([s])[0] <= 1.0
        assert noisy.values([s])[0] != base.values([s])[0]

    def test_noise_shares_inner_ledger(self, occupancy_a3):
        inner = make_m0(value_metric=occupancy_a3)
        noisy = NoisyValueModel(inner, amplitude=0.1, seed=1)
        noisy.evaluate_root([noisy.initial_state(())])
        assert inner.ledger.evaluations == 1
        assert noisy.ledger is inner.ledger

    def test_affine_wrapper(self, occupancy_a3):
        inner = make_m0(value_metric=occupancy_a3)
        wrapped = affine_value_model(inner, 0.5, 0.25)
        s = step(inner.initial_state(()), B)
        assert wrapped.values([s])[0] == pytest.approx(0.5 * inner.values([s])[0] + 0.25)


class TestSeededFactory:
    def test_plain_factory_matches_tabular_model(self):
        made = make_seeded_model(seed=4, vocab_size=4, max_len=3, context_order=1)
        direct = SeededTabularModel(seed=4, vocab_size=4, max_len=3, context_order=1)
        s = made.initial_state(())
        assert np.array_equal(made.priors([s])[0], direct.priors([s])[0])

    def test_noise_amplitude_wraps_the_model(self, occupancy_a3):
        noisy = make_seeded_model(
            seed=4, vocab_size=3, max_len=3, context_order=0,
            value_metric=occupancy_a3, value_noise=0.2,
        )
        assert isinstance(noisy, NoisyValueModel)
        clean = make_seeded_model(
            seed=4, vocab_size=3, max_len=3, context_order=0, value_metric=occupancy_a3
        )
        s = clean.initial_state(())
        assert noisy.values([s])[0] != clean.values([s])[0]
        assert np.array_equal(noisy.priors([s])[0], clean.priors([s])[0])

    def test_negative_noise_rejected_and_zero_noise_unwrapped(self):
        with pytest.raises(ConfigurationError, match="^value_noise must be a finite number >= 0"):
            make_seeded_model(seed=4, vocab_size=3, max_len=3, value_noise=-0.1)
        with pytest.raises(ConfigurationError, match="^amplitude must be a finite number >= 0"):
            NoisyValueModel(SeededTabularModel(4, 3, 3), -0.1)
        plain = make_seeded_model(seed=4, vocab_size=3, max_len=3, value_noise=0.0)
        assert type(plain) is SeededTabularModel
