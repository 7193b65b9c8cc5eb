from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from seqdecode import (
    ConfigurationError,
    ContractViolation,
    DecodeState,
    bleu_metric,
    complete,
    step,
    terminal_reward,
)

from conftest import A, B, EOS


def state(prefix=(), source=(A, B), max_len=4):
    return DecodeState(source=source, prefix=tuple(prefix), max_len=max_len, eos_id=EOS)


class TestComplete:
    PRIOR = np.array([0.5, 0.3, 0.2])

    def _recording_policy(self, tokens_by_round):
        calls = []

        def policy(indices, states):
            calls.append((list(indices), list(states)))
            tokens = tokens_by_round[len(calls) - 1]
            return np.tile(self.PRIOR, (len(states), 1)), [tokens[i] for i in indices]

        return policy, calls

    def test_terminal_inputs_cost_no_policy_call(self):
        finished = [step(state(()), EOS), state((A, B, A, EOS))]
        policy, calls = self._recording_policy([])
        final, log_likelihoods = complete(finished, policy)
        assert final == finished and log_likelihoods == [0.0, 0.0]
        assert calls == []

    def test_live_set_shrinks_round_by_round(self):
        inputs = [state(()), step(state(()), EOS), state((A, A)), state(())]
        rounds = [
            {0: A, 2: A, 3: EOS},  # element 3 finishes with EOS
            {0: B, 2: A},  # element 2 reaches max_len
            {0: EOS},
        ]
        policy, calls = self._recording_policy(rounds)
        final, log_likelihoods = complete(inputs, policy)
        assert [indices for indices, _ in calls] == [[0, 2, 3], [0, 2], [0]]
        assert calls[1][1] == [state((A,)), state((A, A, A))]
        assert [s.prefix for s in final] == [(A, B, EOS), (EOS,), (A, A, A, A), (EOS,)]
        log = [math.log(p) for p in self.PRIOR]
        assert log_likelihoods == [log[A] + log[B] + log[EOS], 0.0, log[A] + log[A], log[EOS]]


class TestStep:
    def test_appends_token(self):
        s = step(state(()), A)
        assert s.prefix == (A,)
        assert not s.terminal
        assert s.source == (A, B)

    def test_length_cap_terminates(self):
        s = step(state((A, A), max_len=3), A)
        assert s.prefix == (A, A, A)
        assert s.terminal

    def test_eos_terminates(self):
        s = step(state((A,)), EOS)
        assert s.prefix == (A, EOS)
        assert s.terminal

    def test_terminal_state_rejected(self):
        with pytest.raises(ContractViolation):
            step(state((A, EOS)), A)

    def test_pure(self):
        s = state((A,))
        assert step(s, B) == step(s, B)
        assert s.prefix == (A,)  # input untouched


class TestDecodeStateInvariants:
    def test_interior_eos_rejected(self):
        with pytest.raises(ValueError):
            state((EOS, A))

    def test_out_of_vocabulary_ids_rejected(self):
        with pytest.raises(ValueError, match="token id 3 is outside the vocabulary"):
            state((A, 3))
        with pytest.raises(ValueError, match="token id 4 is outside the vocabulary"):
            state((), source=(4, A))
        with pytest.raises(ValueError, match="token id 3 is outside the vocabulary"):
            step(state((A,)), 3)
        with pytest.raises(ValueError, match="negative token id"):
            state((A, -1))

    def test_overlong_prefix_rejected(self):
        with pytest.raises(ValueError):
            state((A, A, A), max_len=2)

    def test_content_strips_final_eos(self):
        assert state((A, B, EOS)).content == (A, B)
        assert state((A, B)).content == (A, B)
        assert state((EOS,)).content == ()

    @given(st.lists(st.sampled_from([A, B]), max_size=6), st.integers(1, 7))
    def test_every_trajectory_terminates_within_cap(self, actions, max_len):
        s = state((), max_len=max_len)
        for a in actions + [A] * max_len:
            if s.terminal:
                break
            s = step(s, a)
        assert s.terminal
        assert len(s.prefix) <= max_len


class TestTerminalReward:
    def test_occupancy_full(self, occupancy_a3):
        s = state((A, A, A, EOS), max_len=4)
        assert terminal_reward(s, occupancy_a3) == 1.0

    def test_bleu_identical_sentences(self):
        ref = (A, B, A, B)
        s = DecodeState(source=(A, B), prefix=ref + (EOS,), max_len=5, eos_id=EOS, reference=ref)
        assert terminal_reward(s, bleu_metric(max_n=2)) == 1.0

    def test_empty_output_scores_zero(self, occupancy_a3):
        assert terminal_reward(state((EOS,)), occupancy_a3) == 0.0

    def test_partial_occupancy(self, occupancy_a3):
        assert terminal_reward(state((B, A, EOS)), occupancy_a3) == pytest.approx(1 / 3)

    def test_non_terminal_rejected(self, occupancy_a3):
        with pytest.raises(ContractViolation):
            terminal_reward(state((A,)), occupancy_a3)

    def test_privileged_without_reference_rejected(self):
        with pytest.raises(ConfigurationError):
            terminal_reward(state((A, EOS)), bleu_metric())
