from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from seqdecode import (
    Candidate,
    ConfigurationError,
    ContractViolation,
    DecodeState,
    SeededTabularModel,
    bleu_metric,
    complete,
    step,
    coverage_metric,
    terminal_reward,
)
from seqdecode.mdp import reward_anchor

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


class TestCandidate:
    def test_sequence_is_the_final_state_prefix(self):
        final = step(step(state(()), A), EOS)
        c = Candidate(final, -1.5)
        assert c.sequence == (A, EOS) and c.state is final
        assert (c.score, c.value) == (None, None)
        with pytest.raises(AttributeError):
            c.sequence = (B, EOS)


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

    def test_bad_token_ids_rejected_with_the_validation_messages(self):
        s = state((A,), source=(A, B))
        with pytest.raises(ValueError, match=r"^token id 3 is outside the vocabulary \(EOS is 2\)$"):
            step(s, 3)
        with pytest.raises(ValueError, match=r"^negative token id -1$"):
            step(s, -1)
        with pytest.raises(ContractViolation, match="terminal state"):
            step(step(s, EOS), -1)  # the terminal check comes first

    @given(
        st.lists(st.sampled_from([A, B]), max_size=4),
        st.sampled_from([A, B, EOS]),
        st.integers(1, 6),
        st.one_of(st.none(), st.lists(st.sampled_from([A, B]), max_size=3)),
    )
    def test_step_equals_building_the_child(self, prefix, action, max_len, reference):
        s = DecodeState((A, B), prefix[: max_len - 1], max_len, EOS, reference)
        child = step(s, action)
        built = DecodeState(s.source, s.prefix + (action,), s.max_len, s.eos_id, s.reference)
        assert child == built and hash(child) == hash(built)
        assert child.terminal == built.terminal == (action == EOS or len(built.prefix) == max_len)
        assert child == replace(s, prefix=s.prefix + (action,))
        assert replace(child, prefix=s.prefix).terminal == s.terminal


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

    def test_sequences_are_stored_as_tuples(self):
        s = DecodeState([A], [B], 4, EOS, reference=[A, B])
        assert (s.source, s.prefix, s.reference) == ((A,), (B,), (A, B))
        assert all(type(seq) is tuple for seq in (s.source, s.prefix, s.reference))
        assert s == DecodeState((A,), (B,), 4, EOS, reference=(A, B))

    def test_list_reference_reaches_the_value_head(self):
        model = SeededTabularModel(0, vocab_size=4, max_len=3, value_metric=bleu_metric(max_n=1))
        built = DecodeState((), (), 4, 3, reference=[0, 1])
        assert model.values([built])[0] == model.values([model.initial_state((), (0, 1))])[0]

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

    def test_anchor_drops_a_closing_eos_like_the_output(self):
        s = DecodeState(
            source=(A, B, EOS), prefix=(B, A, EOS), max_len=4, eos_id=EOS, reference=(B, A, EOS)
        )
        assert reward_anchor(coverage_metric(), s) == (A, B)
        assert reward_anchor(bleu_metric(max_n=1), s) == (B, A)
        assert terminal_reward(s, coverage_metric()) == 1.0
        assert terminal_reward(s, bleu_metric(max_n=1)) == 1.0
        plain = DecodeState(source=(A, B), prefix=(), max_len=4, eos_id=EOS, reference=(B, A))
        assert reward_anchor(coverage_metric(), plain) == (A, B)
        assert reward_anchor(bleu_metric(max_n=1), plain) == (B, A)

    def test_privileged_without_reference_rejected(self):
        with pytest.raises(ConfigurationError):
            terminal_reward(state((A, EOS)), bleu_metric())
