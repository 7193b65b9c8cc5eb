from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqdecode import (
    ConfigurationError,
    ContractViolation,
    NoisyValueModel,
    SearchConfig,
    SeededTabularModel,
    affine_value_model,
    apply_temperature,
    bleu_metric,
    coverage_metric,
    decode_mcts,
    greedy_decode,
    make_seeded_model,
    rollout_value,
    step,
    terminal_reward,
)

from conftest import A, B, EOS, make_m0


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

    def test_forced_eos_one_step_before_cap(self, m0):
        s = m0.initial_state(())
        for _ in range(m0.max_len):  # content horizon reached
            s = step(s, A)
        prior = m0.prior(s)
        assert prior[EOS] == 1.0 and prior.sum() == 1.0

    def test_seeded_model_is_reproducible(self):
        kwargs = dict(seed=7, vocab_size=3, max_len=3, context_order=1)
        a, b = SeededTabularModel(**kwargs), SeededTabularModel(**kwargs)
        s = a.initial_state(())
        for prefix in [(), (0,), (1,), (0, 1)]:
            sa = s if not prefix else type(s)(s.source, prefix, s.max_len, s.eos_id)
            assert np.array_equal(a.prior(sa), b.prior(sa))

    def test_context_order_zero_ignores_prefix(self):
        m = SeededTabularModel(seed=3, vocab_size=4, max_len=4, context_order=0)
        root = m.initial_state(())
        assert np.array_equal(m.prior(root), m.prior(step(step(root, 0), 1)))

    def test_context_order_one_sees_last_token(self):
        m = SeededTabularModel(seed=3, vocab_size=4, max_len=4, context_order=1)
        root = m.initial_state(())
        assert not np.array_equal(m.prior(step(root, 0)), m.prior(step(root, 1)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_priors_normalized(self, seed):
        m = SeededTabularModel(seed=seed, vocab_size=5, max_len=3, context_order=2)
        s = m.initial_state(())
        rng = np.random.default_rng(seed)
        while not s.terminal:
            prior = m.prior(s)
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


class TestAbsorption:
    def test_step_past_terminal_is_absorbing(self, m0):
        terminal = step(m0.initial_state(()), EOS)
        _, _, handles = m0.evaluate_root([terminal])
        priors, values, next_handles, flags = m0.evaluate_step(handles, [A])
        assert next_handles[0].state == terminal
        assert flags[0]
        assert priors[0][EOS] == 1.0
        assert values[0] == m0.value(terminal)

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


class TestRolloutValue:
    def test_terminal_state_returns_reward(self, occupancy_a3):
        m = make_m0()
        terminal = step(step(m.initial_state(()), A), EOS)
        values = rollout_value(m, [terminal], occupancy_a3)
        assert values.tolist() == [terminal_reward(terminal, occupancy_a3)]
        assert m.ledger.evaluations == 0  # nothing to roll out

    def test_greedy_completion_from_a(self, occupancy_a3):
        m = make_m0()
        assert rollout_value(m, [step(m.initial_state(()), A)], occupancy_a3)[0] == 1.0

    def test_greedy_completion_from_b(self, occupancy_a3):
        m = make_m0()
        value = rollout_value(m, [step(m.initial_state(()), B)], occupancy_a3)[0]
        assert value == pytest.approx(2 / 3)

    def test_rollout_charges_ledger(self, occupancy_a3):
        m = make_m0()
        root = m.initial_state(())
        rollout_value(m, [step(root, B), step(root, A), step(step(root, A), EOS)], occupancy_a3)
        # [B] and [A] each take three greedy steps to the forced EOS; the
        # terminal [A, EOS] takes none.
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
            batched = rollout_value(batched_model, states, metric)
            single_model = SeededTabularModel(seed, vocab_size=5, max_len=4, context_order=1)
            singles = [rollout_value(single_model, [s], metric)[0] for s in states]
            assert batched.tolist() == singles
            assert batched_model.ledger.snapshot() == single_model.ledger.snapshot()


class TestValueHeads:
    def test_value_head_is_greedy_completion_score(self, occupancy_a3):
        m = make_m0(value_metric=occupancy_a3)
        assert m.value(m.initial_state(())) == 1.0
        assert m.value(step(m.initial_state(()), B)) == pytest.approx(2 / 3)

    def test_value_head_uses_source_for_unprivileged(self):
        m = SeededTabularModel(
            seed=0, vocab_size=3, max_len=3, context_order=0, value_metric=coverage_metric()
        )
        v = m.value(m.initial_state((0, 1)))
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
        assert m.value(miss) == 0.0

    def test_metricless_value_head_is_zero(self, m0):
        assert m0.value(m0.initial_state(())) == 0.0

    def test_noisy_wrapper_is_deterministic_and_clamped(self, occupancy_a3):
        base = make_m0(value_metric=occupancy_a3)
        noisy = NoisyValueModel(make_m0(value_metric=occupancy_a3), amplitude=0.4, seed=5)
        again = NoisyValueModel(make_m0(value_metric=occupancy_a3), amplitude=0.4, seed=5)
        s = step(base.initial_state(()), B)
        assert noisy.value(s) == again.value(s)
        assert 0.0 <= noisy.value(s) <= 1.0
        assert noisy.value(s) != base.value(s)

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
        assert wrapped.value(s) == pytest.approx(0.5 * inner.value(s) + 0.25)


class TestSeededFactory:
    def test_plain_factory_matches_tabular_model(self):
        made = make_seeded_model(seed=4, vocab_size=4, max_len=3, context_order=1)
        direct = SeededTabularModel(seed=4, vocab_size=4, max_len=3, context_order=1)
        s = made.initial_state(())
        assert np.array_equal(made.prior(s), direct.prior(s))

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
        assert noisy.value(s) != clean.value(s)
        assert np.array_equal(noisy.prior(s), clean.prior(s))

    def test_negative_noise_rejected_and_zero_noise_unwrapped(self):
        with pytest.raises(ConfigurationError, match="amplitude"):
            make_seeded_model(seed=4, vocab_size=3, max_len=3, value_noise=-0.1)
        plain = make_seeded_model(seed=4, vocab_size=3, max_len=3, value_noise=0.0)
        assert type(plain) is SeededTabularModel
