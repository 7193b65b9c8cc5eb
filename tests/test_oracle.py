from __future__ import annotations

import math
import re
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqdecode import (
    ConfigurationError,
    ContractViolation,
    DecodeState,
    FixedPriorModel,
    GuardExceeded,
    Metric,
    NoisyValueModel,
    PolicyValueModel,
    SeededTabularModel,
    SeededUnitEmbeddings,
    bert_style_metric,
    bleu_metric,
    coverage_metric,
    enumerate_sequences,
    exact_argmax_likelihood,
    exact_argmax_metric,
    greedy_decode,
    multilingual_bert_style_metric,
    occupancy_metric,
    step,
    terminal_reward,
)
from seqdecode import oracle

from conftest import A, B, EOS, count_calls, make_m0


def horizon_root(model, horizon, source=()):
    """``model``'s root for ``source`` with content horizon ``horizon`` instead of the model's."""
    return replace(model.initial_state(source), max_len=horizon + 1)


def terminal_states(model, root):
    """Every terminated state below ``root``, with its log-likelihood, in depth-first
    order: the walk steps every child with ``step``."""
    out = []

    def walk(state, log_likelihood):
        if state.terminal:
            out.append((state, log_likelihood))
            return
        prior = model.priors([state])[0]
        for a in range(model.vocab_size):
            if prior[a] <= 0.0:
                continue
            walk(step(state, a), log_likelihood + math.log(prior[a]))

    walk(root, 0.0)
    return out


def recursive_enumeration(model, root):
    """Reference twin of ``enumerate_sequences``: terminated sequences in visit order."""
    return [(state.prefix, ll) for state, ll in terminal_states(model, root)]


def scalar_argmax_metric(model, root, metric):
    """Reference twin of ``exact_argmax_metric``: one ``terminal_reward`` per sequence,
    keeping the first best (score, log-likelihood) in depth-first order."""
    best, best_key = None, None
    for state, log_likelihood in terminal_states(model, root):
        key = (terminal_reward(state, metric), log_likelihood)
        if best_key is None or key > best_key:
            best, best_key = state.prefix, key
    return best, best_key


def float_bits(values):
    return [float(v).hex() for v in values]


class ReversedTable(SeededTabularModel):
    """A seeded table with its own ``_table_priors``, each row reversed. The seeded
    gather reads the base table's rows, so, as the provider contract asks, the class
    also sets its own ``prefix_priors``: the default one, which builds the rows' states."""

    def _table_priors(self, states):
        return super()._table_priors(states)[:, ::-1]

    prefix_priors = PolicyValueModel.prefix_priors


@st.composite
def seeded_oracle_cases(draw):
    """A seeded model, a root below it and a metric drawn from the five the CLI offers."""
    vocab_size = draw(st.integers(2, 5))
    content = st.integers(0, vocab_size - 2)
    model = SeededTabularModel(
        draw(st.integers(0, 2**16)), vocab_size, max_len=4, context_order=draw(st.integers(0, 2))
    )
    source = tuple(draw(st.lists(content, min_size=1, max_size=4)))
    reference = tuple(draw(st.lists(content, max_size=4)))
    horizon = draw(st.integers(0, 4))
    embeddings = SeededUnitEmbeddings(dim=8, seed=draw(st.integers(0, 3)))
    metric = draw(
        st.sampled_from(
            [
                bleu_metric(draw(st.integers(1, 2))),
                bert_style_metric(embeddings),
                multilingual_bert_style_metric(embeddings),
                coverage_metric(),
                occupancy_metric(draw(content), max(1, horizon)),
            ]
        )
    )
    root = replace(model.initial_state(source, reference), max_len=horizon + 1)
    return model, root, metric


@st.composite
def likelihood_cases(draw):
    """A model and a root below it: a seeded table, a fixed prior with zero-probability
    tokens, or a uniform prior that gives EOS nothing before the cap."""
    vocab_size = draw(st.integers(2, 5))
    horizon = draw(st.integers(0, 4))
    kind = draw(st.sampled_from(["seeded", "zeros", "eos_free"]))
    if kind == "seeded":
        model = SeededTabularModel(
            draw(st.integers(0, 2**16)), vocab_size, 4, context_order=draw(st.integers(0, 2))
        )
    elif kind == "zeros":
        weights = np.array(
            draw(st.lists(st.integers(0, 3), min_size=vocab_size, max_size=vocab_size))
        )
        if weights.sum() == 0:
            weights[-1] = 1
        model = FixedPriorModel(weights / weights.sum(), 4)
    else:
        model = FixedPriorModel([1 / (vocab_size - 1)] * (vocab_size - 1) + [0.0], 4)
    return model, horizon_root(model, horizon)


# Every oracle, as a function of (model, root).
ORACLES = [
    enumerate_sequences,
    exact_argmax_likelihood,
    lambda model, root: exact_argmax_metric(model, root, coverage_metric()),
]


M0_TABLE_MAX2 = {
    (EOS,): 0.2,
    (A, EOS): 0.1,
    (B, EOS): 0.06,
    (A, A, EOS): 0.25,
    (A, B, EOS): 0.15,
    (B, A, EOS): 0.15,
    (B, B, EOS): 0.09,
}


class TestEnumeration:
    def test_zero_horizon_gives_only_empty_output(self, m0):
        seqs = enumerate_sequences(m0, horizon_root(m0, 0))
        assert seqs == [((EOS,), 0.0)]

    def test_m0_table_at_horizon_two(self, m0):
        seqs = dict(enumerate_sequences(m0, horizon_root(m0, 2)))
        assert set(seqs) == set(M0_TABLE_MAX2)
        for seq, prob in M0_TABLE_MAX2.items():
            assert math.exp(seqs[seq]) == pytest.approx(prob, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        for seed in range(10):
            model = SeededTabularModel(seed, vocab_size=3, max_len=4, context_order=1)
            seqs = enumerate_sequences(model, model.initial_state(()))
            total = sum(math.exp(ll) for _, ll in seqs)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_guard_refusal_names_bound(self, m0):
        big = SeededTabularModel(0, vocab_size=10, max_len=10, context_order=0)
        with pytest.raises(GuardExceeded, match="10\\^10"):
            enumerate_sequences(big, big.initial_state(()))

    @pytest.mark.parametrize("max_len", [0, 1, 3, 4])
    def test_matches_the_recursive_walk_on_seeded_models(self, max_len):
        for seed in range(12):
            vocab_size, context_order = 2 + seed % 3, seed % 3
            model = SeededTabularModel(seed, vocab_size, max_len=4, context_order=context_order)
            source = tuple(range(vocab_size - 1))
            # Exact equality: the same prefixes in the same order, the same floats.
            root = horizon_root(model, max_len, source)
            assert enumerate_sequences(model, root) == recursive_enumeration(model, root)

    def test_matches_the_recursive_walk_with_zero_probability_tokens(self):
        for prior in ([0.5, 0.0, 0.3, 0.2], [0.0, 0.6, 0.0, 0.4], [0.0, 0.0, 0.0, 1.0]):
            model = FixedPriorModel(prior, max_len=4)
            root = model.initial_state(())
            seqs = enumerate_sequences(model, root)
            assert seqs == recursive_enumeration(model, root)
            assert all(prior[t] > 0.0 for seq, _ in seqs for t in seq[:-1])

    def test_one_priors_read_per_level(self, monkeypatch):
        model = SeededTabularModel(0, vocab_size=3, max_len=3, context_order=1)
        twin = SeededTabularModel(0, vocab_size=3, max_len=3, context_order=1)
        expected = recursive_enumeration(twin, twin.initial_state(()))
        reads = count_calls(monkeypatch, model, "prefix_priors")
        states_read = count_calls(monkeypatch, PolicyValueModel, "priors")
        assert enumerate_sequences(model, model.initial_state(())) == expected
        # live prefixes per level; the forced-EOS level is not read
        assert [prefixes.shape for _root, prefixes in reads] == [(1, 0), (2, 1), (4, 2)]
        assert states_read == []  # the table rows are gathered off the prefix arrays

    @pytest.mark.parametrize(
        "model, built",
        [
            # levels gathered off the arrays of a filled table: no state is built
            (SeededTabularModel(0, 3, 3, context_order=1), 0),
            (NoisyValueModel(SeededTabularModel(0, 3, 3, context_order=1), 0.2, 0), 0),
            # the default gather builds each read level's 1 + 2 + 4 states, and no more
            (FixedPriorModel([0.5, 0.3, 0.2], 3), 7),
            (ReversedTable(0, 3, 3, context_order=1), 7),
        ],
        ids=["seeded", "noisy", "fixed", "reversed"],
    )
    def test_no_state_of_the_forced_length_is_built(self, monkeypatch, model, built):
        root = model.initial_state(())
        expected = recursive_enumeration(model, root)  # fills a seeded table
        stepped = count_calls(monkeypatch, oracle, "step")
        checked = count_calls(monkeypatch, DecodeState, "__post_init__")
        reads = count_calls(monkeypatch, model, "prefix_priors")
        priors_reads = count_calls(monkeypatch, PolicyValueModel, "priors")
        assert enumerate_sequences(model, root) == expected
        # levels of 1, 2 and 4 prefixes, with no priors call; the 8 one token short of
        # the cap are not read, and the default path builds the read levels' states checked
        assert [len(prefixes) for _root, prefixes in reads] == [1, 2, 4]
        assert (len(stepped), len(priors_reads)) == (0, 0)
        assert len(checked) == built
        assert all(len(state.prefix) < root.max_len - 1 for (state,) in checked)

    def test_the_token_one_short_of_the_cap_is_eos_at_probability_one(self):
        # (0, 0, EOS) is 0.5 * 0.5 * 1: the forced EOS is free, not drawn at 0.2.
        model = FixedPriorModel([0.5, 0.3, 0.2], 2)
        root = model.initial_state(())
        walked = enumerate_sequences(model, root)
        assert walked == recursive_enumeration(model, root)
        assert dict(walked)[(0, 0, EOS)] == math.log(0.5) + math.log(0.5)
        assert sum(math.exp(ll) for _seq, ll in walked) == pytest.approx(1.0, abs=1e-12)

    def test_all_sequences_end_with_eos(self, m0):
        for seq, _ in enumerate_sequences(m0, m0.initial_state(())):
            assert seq[-1] == EOS


class TestArgmaxLikelihood:
    def test_m0_mode_is_the_empty_sequence(self, m0):
        best = exact_argmax_likelihood(m0, m0.initial_state(()))
        assert best.sequence == (EOS,)
        assert math.exp(best.log_likelihood) == pytest.approx(0.2, abs=1e-12)

    def test_deterministic_model_returns_its_trajectory(self):
        model = FixedPriorModel([1.0, 0.0, 0.0], max_len=2)
        best = exact_argmax_likelihood(model, model.initial_state(()))
        assert best.sequence == (A, A, EOS)
        assert best.log_likelihood == 0.0

    def test_matches_enumeration_argmax_on_seeded_models(self):
        for seed in range(50):
            model = SeededTabularModel(seed, vocab_size=3, max_len=4, context_order=1)
            twin = SeededTabularModel(seed, vocab_size=3, max_len=4, context_order=1)
            best = exact_argmax_likelihood(model, model.initial_state(()))
            brute = max(enumerate_sequences(twin, twin.initial_state(())), key=lambda item: item[1])
            assert best.log_likelihood == pytest.approx(brute[1], abs=1e-12)
            assert best.sequence == brute[0]

    def test_guard_refusal(self):
        big = SeededTabularModel(0, vocab_size=32, max_len=8, context_order=0)
        with pytest.raises(GuardExceeded):
            exact_argmax_likelihood(big, big.initial_state(()))

    def test_increasing_likelihood_is_a_contract_violation(self):
        # A table entry above 1 makes a child likelier than its prefix; the
        # check must survive ``python -O``, so it cannot be an assert.
        class Improper(PolicyValueModel):
            def _table_prior(self, state):
                return np.array([2.0, 0.5])

        with pytest.raises(ContractViolation):
            improper = Improper(vocab_size=2, max_len=1)
            exact_argmax_likelihood(improper, improper.initial_state(()))

    @pytest.mark.parametrize("oracle", ORACLES)
    def test_every_oracle_refuses_a_prior_above_one(self, oracle):
        # These rows skip the per-row check, so only the walk sees that the child A
        # is likelier than the root.
        class Unchecked(PolicyValueModel):
            def _table_priors(self, states):
                return np.tile([1.5, 0.5], (len(states), 1))

        improper = Unchecked(vocab_size=2, max_len=2)
        with pytest.raises(ContractViolation, match="non-increasing"):
            oracle(improper, improper.initial_state(()))

    def test_equal_likelihoods_across_lengths_break_to_the_smaller_sequence(self):
        # (EOS,) ends first, at log 0.5; (A, EOS) ties it a level later, since the
        # forced EOS is free, so an equally likely prefix must stay in the walk.
        model = FixedPriorModel([0.5, 0.5], max_len=1)
        best = exact_argmax_likelihood(model, model.initial_state(()))
        assert best.sequence == (A, model.eos_id)
        assert best.log_likelihood == math.log(0.5)
        assert best.score is None

    def test_equal_keys_keep_the_smaller_sequence_of_an_earlier_level(self):
        # (A, EOS) ends a level before (B, B, EOS), at the same log 0.5, and is the
        # smaller: both argmaxes keep it.
        class PrefixPrior(PolicyValueModel):
            table = {(): [0.5, 0.5, 0.0], (A,): [0.0, 0.0, 1.0], (B,): [0.0, 1.0, 0.0]}

            def _table_prior(self, state):
                return self.table[state.prefix]

        model = PrefixPrior(vocab_size=3, max_len=2)
        root = model.initial_state(())
        constant = Metric(name="constant", privileged=False, fn=lambda a, cs: [0.5] * len(cs))
        for best in (
            exact_argmax_likelihood(model, root),
            exact_argmax_metric(model, root, constant),
        ):
            assert best.sequence == (A, EOS)
            assert best.log_likelihood == math.log(0.5)

    @settings(max_examples=60, deadline=None)
    @given(case=likelihood_cases())
    def test_matches_the_enumeration_argmax_bit_for_bit(self, case):
        model, root = case
        with pytest.MonkeyPatch.context() as mp:
            reads = count_calls(mp, model, "prefix_priors")
            best = exact_argmax_likelihood(model, root)
            walked = enumerate_sequences(model, root)
        enumeration = recursive_enumeration(model, root)
        assert walked == enumeration
        # The walk never asks prefix_priors for a row of the forced length.
        assert all(prefixes.shape[1] < root.max_len - 1 for _root, prefixes in reads)
        # max keeps the first maximum, and the enumeration is in lexicographic order.
        sequence, log_likelihood = max(enumeration, key=lambda item: item[1])
        assert best.sequence == sequence
        assert float_bits([best.log_likelihood]) == float_bits([log_likelihood])
        assert best.state == reduce(step, sequence, root)

    @pytest.mark.parametrize(
        "model, batches",
        [
            # (EOS,) ends at 0.2: A (0.5) and B (0.3) stay live, then only AA (0.25)
            (make_m0(), [1, 2, 1]),
            # EOS is impossible before the cap, so nothing is pruned; the forced level is not read
            (FixedPriorModel([0.5, 0.5, 0.0], max_len=2), [1, 2]),
        ],
    )
    def test_one_priors_read_per_walked_level(self, monkeypatch, model, batches):
        # A spy on the instance's priors would override them; the walk reads prefix_priors.
        reads = count_calls(monkeypatch, model, "prefix_priors")
        exact_argmax_likelihood(model, model.initial_state(()))
        assert [len(prefixes) for _root, prefixes in reads] == batches


class TestArgmaxMetric:
    def test_occupancy_oracle_fills_the_horizon(self, m0, occupancy_a3):
        best = exact_argmax_metric(m0, m0.initial_state(()), occupancy_a3)
        assert best.sequence == (A, A, A, EOS)
        assert best.score == 1.0

    def test_constant_metric_ties_break_to_likelihood(self, m0):
        constant = Metric(name="constant", privileged=False, fn=lambda a, cs: [0.5] * len(cs))
        root = m0.initial_state(())
        best = exact_argmax_metric(m0, root, constant)
        assert best.sequence == exact_argmax_likelihood(m0, root).sequence

    def test_equal_keys_break_to_the_smaller_sequence(self):
        # Content tokens A and B are equally likely, so AB, BA and BB tie on
        # likelihood and on the score; B alone is less likely.
        model = FixedPriorModel([0.4, 0.4, 0.2], max_len=2)
        has_b = Metric(
            name="has_b", privileged=False, fn=lambda a, cs: [float(B in c) for c in cs.tolist()]
        )
        best = exact_argmax_metric(model, model.initial_state(()), has_b)
        assert best.sequence == (A, B, EOS)
        assert best.score == 1.0
        assert best.log_likelihood == 2 * math.log(0.4)

    @settings(max_examples=40, deadline=None)
    @given(case=seeded_oracle_cases())
    def test_matches_scalar_scoring_on_seeded_models(self, case):
        model, root, metric = case
        best = exact_argmax_metric(model, root, metric)
        expected, (score, log_likelihood) = scalar_argmax_metric(model, root, metric)
        # Exact equality: the same sequence and the same floats, bit for bit.
        assert best.sequence == expected
        assert float_bits([best.score, best.log_likelihood]) == float_bits([score, log_likelihood])
        assert best.state == reduce(step, best.sequence, root)
        assert enumerate_sequences(model, root) == recursive_enumeration(model, root)

    def test_equal_keys_across_lengths_break_to_the_smaller_sequence(self):
        # (A, EOS) and (EOS,) tie on the score and on the log-likelihood, log 0.5: the
        # forced EOS is free. They are scored in different levels; the smaller wins.
        model = FixedPriorModel([0.5, 0.5], max_len=1)
        constant = Metric(name="constant", privileged=False, fn=lambda a, cs: [0.5] * len(cs))
        best = exact_argmax_metric(model, model.initial_state(()), constant)
        assert best.sequence == (A, model.eos_id)
        assert best.log_likelihood == math.log(0.5)

    def test_outputs_that_reach_the_cap_end_with_a_free_eos(self):
        # No output is cut off at the cap: (A, EOS) and (B, EOS) tie at log 0.45, the
        # forced EOS costing nothing, and the smaller one wins.
        model = FixedPriorModel([0.45, 0.45, 0.1], max_len=1)
        root = model.initial_state((A, B))
        best = exact_argmax_metric(model, root, coverage_metric())
        assert (best.sequence, best.log_likelihood) == ((A, EOS), math.log(0.45))
        assert (best.sequence, (best.score, best.log_likelihood)) == scalar_argmax_metric(
            model, root, coverage_metric()
        )
        assert enumerate_sequences(model, root) == recursive_enumeration(model, root)

    @pytest.mark.parametrize(
        "model, batches",
        [
            # live prefixes per level are [1, 2, 4, 8]; each has one EOS child, the last only that
            (SeededTabularModel(0, vocab_size=3, max_len=3, context_order=1), [1, 2, 4, 8]),
            # EOS is impossible before the cap, so only the forced level has terminated children
            (FixedPriorModel([0.5, 0.5, 0.0], max_len=2), [4]),
        ],
    )
    def test_one_score_batch_per_level_with_a_terminated_child(self, monkeypatch, model, batches):
        seen = []
        counted = Metric(
            name="counted",
            privileged=False,
            fn=lambda a, cs: seen.append(cs) or [len(c) / 4 for c in cs],
        )
        monkeypatch.setattr(oracle, "enumerate_sequences", lambda *args: pytest.fail("enumerated"))
        root = model.initial_state(())
        best = exact_argmax_metric(model, root, counted)
        assert [len(cs) for cs in seen] == batches
        # Each call gets one (n, L) integer array: a level's contents share one length.
        assert all(type(cs) is np.ndarray and cs.ndim == 2 and cs.dtype.kind == "i" for cs in seen)
        assert (best.sequence, (best.score, best.log_likelihood)) == scalar_argmax_metric(
            model, root, counted
        )

    def test_non_finite_score_is_a_contract_violation(self):
        # NaN never compares greater, so an unchecked NaN at (A, A) would keep the
        # lead it takes, although (B,) scores 1.0.
        def fn(anchor, candidates):
            return [math.nan if c == [A, A] else float(c == [B]) for c in candidates.tolist()]

        model = FixedPriorModel([0.4, 0.4, 0.2], max_len=2)
        nan_at_aa = Metric(name="nan_at_aa", privileged=False, fn=fn)
        refusal = re.escape("metric 'nan_at_aa' scored candidate (0, 0) as nan")
        with pytest.raises(ContractViolation, match=refusal):
            exact_argmax_metric(model, model.initial_state(()), nan_at_aa)

    @pytest.mark.parametrize(
        "fn, returned",
        [
            (lambda a, cs: [len(c) / 4 for c in cs][1:], 3),  # drops its first score
            (lambda a, cs: [len(c) / 4 for c in cs] + [0.0], 5),  # appends one
        ],
        ids=["short", "long"],
    )
    def test_a_batch_result_of_the_wrong_length_is_a_contract_violation(self, fn, returned):
        # EOS is impossible before the cap, so the one scored level is the forced one, of 4.
        model = FixedPriorModel([0.5, 0.5, 0.0], max_len=2)
        miscounted = Metric("miscounted", False, fn=fn)
        refusal = re.escape(f"metric 'miscounted' returned {returned} scores for a batch of 4")
        with pytest.raises(ContractViolation, match=refusal):
            exact_argmax_metric(model, model.initial_state(()), miscounted)

    def test_missing_reference_raises_before_any_scoring(self, m0):
        calls = []
        needs_reference = Metric(
            name="needs_reference",
            privileged=True,
            fn=lambda a, cs: calls.extend(cs) or [0.0] * len(cs),
        )
        with pytest.raises(ConfigurationError, match="needs_reference"):
            exact_argmax_metric(m0, m0.initial_state((A,)), needs_reference)
        assert calls == []

    def test_coverage_of_an_eos_ended_source_reaches_one(self, m0):
        # The source's closing EOS is not a token to cover: outputs never show theirs.
        ended = exact_argmax_metric(m0, m0.initial_state((A, B, EOS)), coverage_metric())
        plain = exact_argmax_metric(m0, m0.initial_state((A, B)), coverage_metric())
        assert ended.score == plain.score == 1.0
        assert ended.sequence == plain.sequence

    def test_coverage_oracle_contains_both_source_tokens(self, m0):
        best = exact_argmax_metric(m0, m0.initial_state((A, B)), coverage_metric())
        assert best.score == 1.0
        assert {A, B} <= set(best.sequence)
        # The most likely full-coverage outputs are the three 0.075 permutations
        # of AAB (forced EOS is free); ties prefer the lexicographically smaller.
        assert math.exp(best.log_likelihood) == pytest.approx(0.075, abs=1e-12)
        assert best.sequence == (A, A, B, EOS)


class TestRootState:
    """The oracles start from the root ``model.initial_state`` builds, as every decoder does."""

    def test_likelihood_argmax_state_carries_the_reference(self, m0):
        root = m0.initial_state((A,), reference=(A, B))
        best = exact_argmax_likelihood(m0, root)
        assert best.state.reference == (A, B)
        assert best.state.max_len == root.max_len
        assert terminal_reward(best.state, bleu_metric(1)) == 0.0  # empty output, scored

    def test_metric_argmax_state_is_stepped_from_the_root(self, m0):
        metric = bleu_metric(1)
        root = m0.initial_state((A,), reference=[A, B])
        best = exact_argmax_metric(m0, root, metric)
        assert best.state == reduce(step, best.sequence, root)
        assert best.state.max_len == root.max_len
        assert best.state.reference == (A, B)
        assert terminal_reward(best.state, metric) == best.score

    def test_metric_argmax_state_equals_the_decoders(self, m0, occupancy_a3):
        root = m0.initial_state(())
        best = exact_argmax_metric(m0, root, occupancy_a3)
        assert best.state == greedy_decode(m0, root).state

    @pytest.mark.parametrize("oracle", ORACLES)
    def test_terminal_root_is_a_contract_violation(self, m0, oracle):
        root = m0.initial_state(())
        for terminal in (step(root, EOS), reduce(step, (A, A, A, A), root)):  # EOS, cap
            assert terminal.terminal
            with pytest.raises(ContractViolation, match="non-terminal"):
                oracle(m0, terminal)

    def test_a_stepped_root_enumerates_its_subtree(self):
        model = SeededTabularModel(3, vocab_size=3, max_len=4, context_order=1)
        root = step(model.initial_state((0, 1)), A)
        seqs = enumerate_sequences(model, root)
        assert seqs == recursive_enumeration(model, root)
        assert all(seq[0] == A for seq, _ in seqs)
        assert sum(math.exp(ll) for _, ll in seqs) == pytest.approx(1.0, abs=1e-9)
        best = exact_argmax_metric(model, root, coverage_metric())
        assert best.state == reduce(step, best.sequence[1:], root)

    def test_guard_counts_the_remaining_horizon(self):
        model = SeededTabularModel(0, vocab_size=11, max_len=7, context_order=0)
        with pytest.raises(GuardExceeded, match="11\\^6"):
            enumerate_sequences(model, step(model.initial_state(()), A))

    @pytest.mark.parametrize("oracle", ORACLES)
    def test_guard_message_names_the_remaining_horizon(self, oracle):
        # The cap leaves 7 content tokens; the root's prefix uses one of them.
        model = SeededTabularModel(0, vocab_size=11, max_len=7, context_order=0)
        root = step(model.initial_state((A,)), A)
        refusal = "V^horizon = 11^6 = 1771561 exceeds the enumeration guard of 1000000"
        with pytest.raises(GuardExceeded, match=re.escape(refusal)):
            oracle(model, root)


# Provider kinds by whether prefix_priors gathers table rows off the array, building a
# state only for a table miss, or builds every row's state.
GATHERED = {
    "seeded": True,
    "fixed": False,  # its tiled prior needs no gather of its own
    "noisy": True,
    "reversed": False,
    "noisy_reversed": False,  # the wrapper asks its table, which builds the states
}


@st.composite
def prefix_cases(draw):
    """A provider factory, a stepped root (often with a non-empty prefix) and an ``(n, L)``
    array of live prefixes below it, of one length short of the forced one (one token
    short of the cap), as the level walk asks; rows are often shorter than the context
    order."""
    vocab_size = draw(st.integers(2, 6))
    horizon = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**16))
    order = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(sorted(GATHERED)))
    weights = np.array(draw(st.lists(st.integers(0, 3), min_size=vocab_size, max_size=vocab_size)))
    weights[-1] += weights.sum() == 0

    def build():
        if kind == "fixed":
            return FixedPriorModel(weights / weights.sum(), horizon)
        cls = ReversedTable if kind.endswith("reversed") else SeededTabularModel
        table = cls(seed, vocab_size, horizon, order)
        return NoisyValueModel(table, 0.2, seed) if kind.startswith("noisy") else table

    content = st.integers(0, vocab_size - 2)
    source = tuple(draw(st.lists(content, min_size=1, max_size=3)))
    root_prefix = draw(st.lists(content, max_size=horizon - 1))
    root = reduce(step, root_prefix, build().initial_state(source, source[::-1]))
    extra = draw(st.integers(0, horizon - 1 - len(root_prefix)))
    rows = draw(st.lists(st.lists(content, min_size=extra, max_size=extra), min_size=1, max_size=8))
    prefixes = np.array([root_prefix + row for row in rows], dtype=np.intp)
    return kind, build, root, prefixes.reshape(len(rows), len(root_prefix) + extra)


class TestPrefixPriors:
    @settings(max_examples=150, deadline=None)
    @given(case=prefix_cases())
    def test_bitwise_equal_to_the_priors_of_the_stepped_states(self, case):
        kind, build, root, prefixes = case
        states = [reduce(step, row[len(root.prefix) :], root) for row in prefixes.tolist()]
        expected = build().priors(states)
        model = build()
        with pytest.MonkeyPatch.context() as mp:
            reads = count_calls(mp, PolicyValueModel, "priors")
            built = count_calls(mp, DecodeState, "__post_init__")
            table = getattr(model, "_inner", model)
            new_rows = count_calls(mp, table, "_add_row") if kind != "fixed" else []
            cold = model.prefix_priors(root, prefixes)
            warm = model.prefix_priors(root, prefixes)
        for got in (cold, warm):
            assert (got.shape, got.dtype) == (expected.shape, expected.dtype)
            assert got.tobytes() == expected.tobytes()
        assert reads == []  # prefix_priors reads the table rows without priors
        # Every state built below the root is built checked, one per row or per table miss.
        assert len(built) == (len(new_rows) if GATHERED[kind] else 2 * len(prefixes))
        # A table miss draws its row against the state of a row holding that context.
        for context, state in new_rows:
            assert state in states and state.prefix[len(state.prefix) - len(context) :] == context

    @pytest.mark.parametrize("context_order", [0, 1, 2])
    def test_a_subclass_with_its_own_table_is_walked_through_its_states(
        self, monkeypatch, context_order
    ):
        model = ReversedTable(5, vocab_size=3, max_len=3, context_order=context_order)
        root = model.initial_state((0, 1))
        expected = recursive_enumeration(model, root)
        reads = count_calls(monkeypatch, model, "_table_priors")
        assert enumerate_sequences(model, root) == expected
        assert [len(states) for (states,) in reads] == [1, 2, 4]
        # The seeded gather would serve the unreversed rows of the same prefixes.
        prefixes = np.array([[0], [1]], dtype=np.intp)
        unreversed = SeededTabularModel.prefix_priors(model, root, prefixes)
        assert np.array_equal(model.prefix_priors(root, prefixes), unreversed[:, ::-1])

    def test_long_contexts_are_grouped_by_rows(self):
        # 8^22 = 2^66 contexts: more than an int64 code per context could number.
        model = SeededTabularModel(1, vocab_size=8, max_len=24, context_order=22)
        rng = np.random.default_rng(0)
        root = reduce(step, rng.integers(0, 7, size=21).tolist(), model.initial_state((0,)))
        assert enumerate_sequences(model, root) == recursive_enumeration(model, root)
        rows = rng.integers(0, 7, size=(40, 2))
        rows[20:] = rows[:20]  # repeated contexts share one lookup
        prefixes = np.column_stack((np.tile(root.prefix, (40, 1)), rows))
        states = [reduce(step, row, root) for row in rows.tolist()]
        twin = SeededTabularModel(1, vocab_size=8, max_len=24, context_order=22)
        expected = twin.priors(states)
        assert model.prefix_priors(root, prefixes).tobytes() == expected.tobytes()
