from __future__ import annotations

import math

import numpy as np
import pytest

from seqdecode import (
    BeamConfig,
    Candidate,
    ConfigurationError,
    FixedPriorModel,
    SeededTabularModel,
    SeededUnitEmbeddings,
    VgbsConfig,
    apply_temperature,
    beam_search,
    bert_style_metric,
    bleu_metric,
    complete,
    coverage_metric,
    greedy_decode,
    make_seeded_model,
    model_value_fn,
    rerank_by_score,
    rerank_by_value,
    rollout_value_fn,
    sample_sequences,
    step,
    terminal_reward,
    value_guided_beam_search,
)
from seqdecode import decoders
from seqdecode.decoders import inverse_cdf_draws, vgbs_score

from conftest import A, B, EOS, M0_MAX_LEN, M0_PRIOR, count_calls, make_m0


class TestGreedy:
    def test_m0_decodes_all_a(self, m0):
        c = greedy_decode(m0, m0.initial_state(()))
        assert c.sequence == (A, A, A, EOS)
        assert c.log_likelihood == pytest.approx(3 * math.log(0.5), abs=1e-12)

    def test_eos_heavy_model_emits_empty(self):
        m = FixedPriorModel([0.1, 0.1, 0.8], max_len=3)
        c = greedy_decode(m, m.initial_state(()))
        assert c.sequence == (EOS,)
        assert c.state.content == ()


class TestBeamSearch:
    def test_unnormalized_beam_prefers_empty_output(self, m0):
        c = beam_search(m0, m0.initial_state(()), BeamConfig(k=8, theta=0.0))
        assert c.sequence == (EOS,)
        assert math.exp(c.log_likelihood) == pytest.approx(0.2, abs=1e-9)

    def test_length_normalization_recovers_content(self, m0):
        c = beam_search(m0, m0.initial_state(()), BeamConfig(k=8, theta=1.0))
        assert c.sequence == (A, A, A, EOS)
        assert c.score == pytest.approx((6 / 9) * 3 * math.log(0.5), abs=1e-9)

    def test_beam_of_one_equals_greedy(self):
        for seed in range(10):
            m_beam = SeededTabularModel(seed, vocab_size=3, max_len=4, context_order=1)
            m_greedy = SeededTabularModel(seed, vocab_size=3, max_len=4, context_order=1)
            b = beam_search(m_beam, m_beam.initial_state(()), BeamConfig(k=1, theta=0.0))
            g = greedy_decode(m_greedy, m_greedy.initial_state(()))
            assert b.sequence == g.sequence
            assert b.log_likelihood == pytest.approx(g.log_likelihood, abs=1e-12)

    def test_width_charged_per_step(self, m0):
        beam_search(m0, m0.initial_state(()), BeamConfig(k=2, theta=1.0))
        evaluations, tokens = m0.ledger.snapshot()
        assert tokens == 4  # one charge per emitted position
        assert evaluations <= 2 * tokens

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_only_the_kept_hypotheses_are_stepped(self, monkeypatch, k):
        model = SeededTabularModel(3, vocab_size=6, max_len=4, context_order=1)
        twin = SeededTabularModel(3, vocab_size=6, max_len=4, context_order=1)
        expected = beam_search(twin, twin.initial_state((0, 1)), BeamConfig(k=k, theta=0.6))
        events = []  # one "level" per policy call, one "step" per state stepped
        real_step = decoders.step
        monkeypatch.setattr(decoders, "step", lambda s, a: events.append("step") or real_step(s, a))
        real_policy = model.evaluate_policy
        monkeypatch.setattr(
            model, "evaluate_policy", lambda states: events.append("level") or real_policy(states)
        )
        got = beam_search(model, model.initial_state((0, 1)), BeamConfig(k=k, theta=0.6))
        assert got == expected
        assert model.ledger.snapshot() == twin.ledger.snapshot()
        steps = [level.count("step") for level in " ".join(events).split("level")[1:]]
        assert max(steps) == k  # at most k per level, and a full level steps k


def reference_length_averaged_beam(model, state, k):
    """Independent oracle for VGBS at alpha=1: beam ranked by log-lik / length.

    Plain list-of-hypotheses implementation: live prefixes propose their top-k
    continuations, finished ones persist, top k survive by the averaged score.
    """
    beam = [(state, 0.0)]
    while not all(s.terminal for s, _ in beam):
        pool = [(s, ll) for s, ll in beam if s.terminal]
        for s, ll in beam:
            if s.terminal:
                continue
            prior = model.priors([s])[0]
            order = np.argsort(-prior, kind="stable")[: min(k, model.vocab_size)]
            for a in order:
                if prior[a] > 0:
                    pool.append((step(s, int(a)), ll + math.log(prior[a])))
        pool.sort(key=lambda item: item[1] / len(item[0].prefix), reverse=True)
        beam = pool[:k]
    return max(beam, key=lambda item: item[1] / len(item[0].prefix))


class TestVgbs:
    def test_m0_with_rollout_value(self, m0, occupancy_a3):
        value_fn = rollout_value_fn(m0, occupancy_a3)
        c = value_guided_beam_search(m0, value_fn, m0.initial_state(()), VgbsConfig(k=2, alpha=0.5))
        assert c.sequence == (A, A, A, EOS)

    def test_step_one_score_formula(self, m0, occupancy_a3):
        # First-position scores under the mixing rule: appending A beats EOS.
        value_fn = rollout_value_fn(make_m0(), occupancy_a3)
        root = m0.initial_state(())
        score_a = vgbs_score(math.log(0.5), 1, float(value_fn([step(root, A)])[0]), 0.5)
        score_eos = vgbs_score(math.log(0.2), 1, float(value_fn([step(root, EOS)])[0]), 0.5)
        assert score_a == pytest.approx(0.153426, abs=1e-5)
        assert score_eos == pytest.approx(-0.804719, abs=1e-5)
        assert score_a > score_eos

    def test_alpha_one_matches_length_averaged_beam(self, occupancy_a3):
        for seed in range(8):
            m = SeededTabularModel(seed, vocab_size=4, max_len=4, context_order=1)
            oracle_model = SeededTabularModel(seed, vocab_size=4, max_len=4, context_order=1)
            c = value_guided_beam_search(
                m, model_value_fn(m), m.initial_state(()), VgbsConfig(k=3, alpha=1.0)
            )
            ref_state, ref_ll = reference_length_averaged_beam(
                oracle_model, oracle_model.initial_state(()), 3
            )
            assert c.sequence == ref_state.prefix
            assert c.log_likelihood == pytest.approx(ref_ll, abs=1e-12)

    def test_alpha_zero_ranks_by_value_alone(self, occupancy_a3):
        m = make_m0(value_metric=occupancy_a3)
        c = value_guided_beam_search(
            m, model_value_fn(m), m.initial_state(()), VgbsConfig(k=2, alpha=0.0)
        )
        assert c.state.content == (A, A, A)
        assert c.value == 1.0

    def test_budget_is_exactly_k_plus_k_squared(self, occupancy_a3):
        for k in (1, 2, 3):
            m = make_m0(value_metric=occupancy_a3)
            value_fn = model_value_fn(m)
            value_guided_beam_search(m, value_fn, m.initial_state(()), VgbsConfig(k=k, alpha=0.5))
            evaluations, tokens = m.ledger.snapshot()
            assert evaluations == tokens * (k + k * k)

    def test_width_above_vocabulary_rejected(self, m0):
        with pytest.raises(ValueError):
            value_guided_beam_search(
                m0, model_value_fn(m0), m0.initial_state(()), VgbsConfig(k=4, alpha=0.5)
            )


class TestDeterminism:
    def test_decoders_repeat_bitwise(self, occupancy_a3):
        def run_all():
            m = SeededTabularModel(9, vocab_size=4, max_len=4, context_order=1,
                                   value_metric=occupancy_a3)
            s = m.initial_state((0, 1))
            return (
                greedy_decode(m, s),
                beam_search(m, s, BeamConfig(k=3, theta=0.6)),
                value_guided_beam_search(m, model_value_fn(m), s, VgbsConfig(k=3, alpha=0.7)),
            )

        first, second = run_all(), run_all()
        for a, b in zip(first, second):
            assert a.sequence == b.sequence
            assert a.log_likelihood == b.log_likelihood
            assert a.score == b.score


# (decoder, V, k, alpha or theta, value source) -> (sequence, repr of log-likelihood,
# score and value, ledger snapshot). Recorded, not derived: they pin the ranking, the
# padding rows and the tie order, which decides the alpha=0 VGBS rows at V=5, k >= 2.
BEAM_GOLDEN = {
    ('vgbs', 3, 1, 0.0, 'model'):
        ((0, 0, 0, 0, 2), '-2.7047171004467594', '0.5', '0.5', (10, 5)),
    ('vgbs', 3, 1, 0.0, 'rollout'):
        ((0, 0, 0, 0, 2), '-2.7047171004467594', '0.5', '0.5', (15, 5)),
    ('vgbs', 3, 1, 0.5, 'model'):
        ((0, 0, 0, 0, 2), '-2.7047171004467594', '-0.02047171004467596', '0.5', (10, 5)),
    ('vgbs', 3, 1, 0.5, 'rollout'):
        ((0, 0, 0, 0, 2), '-2.7047171004467594', '-0.02047171004467596', '0.5', (15, 5)),
    ('vgbs', 3, 1, 1.0, 'model'):
        ((0, 0, 0, 0, 2), '-2.7047171004467594', '-0.5409434200893519', '0.5', (10, 5)),
    ('vgbs', 3, 1, 1.0, 'rollout'):
        ((0, 0, 0, 0, 2), '-2.7047171004467594', '-0.5409434200893519', '0.5', (15, 5)),
    ('vgbs', 3, 2, 0.0, 'model'):
        ((0, 0, 0, 0, 2), '-2.7047171004467594', '0.5', '0.5', (30, 5)),
    ('vgbs', 3, 2, 0.0, 'rollout'):
        ((0, 0, 0, 0, 2), '-2.7047171004467594', '0.5', '0.5', (24, 5)),
    ('vgbs', 3, 2, 0.5, 'model'):
        ((0, 0, 0, 0, 2), '-2.7047171004467594', '-0.02047171004467596', '0.5', (30, 5)),
    ('vgbs', 3, 2, 0.5, 'rollout'):
        ((0, 0, 0, 0, 2), '-2.7047171004467594', '-0.02047171004467596', '0.5', (24, 5)),
    ('vgbs', 3, 2, 1.0, 'model'):
        ((0, 0, 0, 0, 2), '-2.7047171004467594', '-0.5409434200893519', '0.5', (30, 5)),
    ('vgbs', 3, 2, 1.0, 'rollout'):
        ((0, 0, 0, 0, 2), '-2.7047171004467594', '-0.5409434200893519', '0.5', (24, 5)),
    ('vgbs', 3, 3, 0.0, 'model'):
        ((1, 0, 0, 0, 2), '-4.528981270718317', '1.0', '1.0', (60, 5)),
    ('vgbs', 3, 3, 0.0, 'rollout'):
        ((1, 0, 0, 0, 2), '-4.528981270718317', '1.0', '1.0', (67, 5)),
    ('vgbs', 3, 3, 0.5, 'model'):
        ((0, 0, 0, 1, 2), '-4.881523566884159', '0.01184764331158411', '1.0', (60, 5)),
    ('vgbs', 3, 3, 0.5, 'rollout'):
        ((0, 0, 0, 1, 2), '-4.881523566884159', '0.01184764331158411', '1.0', (61, 5)),
    ('vgbs', 3, 3, 1.0, 'model'):
        ((0, 0, 0, 0, 2), '-2.7047171004467594', '-0.5409434200893519', '0.5', (60, 5)),
    ('vgbs', 3, 3, 1.0, 'rollout'):
        ((0, 0, 0, 0, 2), '-2.7047171004467594', '-0.5409434200893519', '0.5', (57, 5)),
    ('beam', 3, 1, 0.0, None):
        ((0, 0, 0, 0, 2), '-2.7047171004467594', '-2.7047171004467594', 'None', (5, 5)),
    ('beam', 3, 1, 0.6, None):
        ((0, 0, 0, 0, 2), '-2.7047171004467594', '-1.9907310809490986', 'None', (5, 5)),
    ('beam', 3, 3, 0.0, None):
        ((2,), '-0.8352367109891332', '-0.8352367109891332', 'None', (6, 5)),
    ('beam', 3, 3, 0.6, None):
        ((2,), '-0.8352367109891332', '-0.8352367109891332', 'None', (6, 5)),
    ('beam', 3, 8, 0.0, None):
        ((2,), '-0.8352367109891332', '-0.8352367109891332', 'None', (14, 5)),
    ('beam', 3, 8, 0.6, None):
        ((2,), '-0.8352367109891332', '-0.8352367109891332', 'None', (14, 5)),
    ('vgbs', 5, 1, 0.0, 'model'):
        ((0, 0, 0, 0, 4), '-3.245548432056805',
         '0.3333333333333333', '0.3333333333333333', (10, 5)),
    ('vgbs', 5, 1, 0.0, 'rollout'):
        ((0, 0, 0, 0, 4), '-3.245548432056805',
         '0.3333333333333333', '0.3333333333333333', (15, 5)),
    ('vgbs', 5, 1, 0.5, 'model'):
        ((0, 0, 0, 0, 4), '-3.245548432056805',
         '-0.15788817653901385', '0.3333333333333333', (10, 5)),
    ('vgbs', 5, 1, 0.5, 'rollout'):
        ((0, 0, 0, 0, 4), '-3.245548432056805',
         '-0.15788817653901385', '0.3333333333333333', (15, 5)),
    ('vgbs', 5, 1, 1.0, 'model'):
        ((0, 0, 0, 0, 4), '-3.245548432056805',
         '-0.649109686411361', '0.3333333333333333', (10, 5)),
    ('vgbs', 5, 1, 1.0, 'rollout'):
        ((0, 0, 0, 0, 4), '-3.245548432056805',
         '-0.649109686411361', '0.3333333333333333', (15, 5)),
    ('vgbs', 5, 2, 0.0, 'model'):
        ((2, 1, 0, 0, 4), '-3.8763134753140065',
         '0.6666666666666666', '0.6666666666666666', (30, 5)),
    ('vgbs', 5, 2, 0.0, 'rollout'):
        ((2, 1, 0, 0, 4), '-3.8763134753140065',
         '0.6666666666666666', '0.6666666666666666', (38, 5)),
    ('vgbs', 5, 2, 0.5, 'model'):
        ((0, 2, 1, 0, 4), '-3.8763134753140065',
         '-0.054298014198067346', '0.6666666666666666', (30, 5)),
    ('vgbs', 5, 2, 0.5, 'rollout'):
        ((0, 2, 1, 0, 4), '-3.8763134753140065',
         '-0.054298014198067346', '0.6666666666666666', (36, 5)),
    ('vgbs', 5, 2, 1.0, 'model'):
        ((0, 0, 0, 0, 4), '-3.245548432056805',
         '-0.649109686411361', '0.3333333333333333', (30, 5)),
    ('vgbs', 5, 2, 1.0, 'rollout'):
        ((0, 0, 0, 0, 4), '-3.245548432056805',
         '-0.649109686411361', '0.3333333333333333', (35, 5)),
    ('vgbs', 5, 3, 0.0, 'model'):
        ((2, 1, 0, 0, 4), '-3.8763134753140065',
         '0.6666666666666666', '0.6666666666666666', (60, 5)),
    ('vgbs', 5, 3, 0.0, 'rollout'):
        ((2, 1, 0, 0, 4), '-3.8763134753140065',
         '0.6666666666666666', '0.6666666666666666', (57, 5)),
    ('vgbs', 5, 3, 0.5, 'model'):
        ((2, 1, 0, 0, 4), '-3.8763134753140065',
         '-0.054298014198067346', '0.6666666666666666', (60, 5)),
    ('vgbs', 5, 3, 0.5, 'rollout'):
        ((2, 1, 0, 0, 4), '-3.8763134753140065',
         '-0.054298014198067346', '0.6666666666666666', (57, 5)),
    ('vgbs', 5, 3, 1.0, 'model'):
        ((0, 0, 0, 0, 4), '-3.245548432056805',
         '-0.649109686411361', '0.3333333333333333', (60, 5)),
    ('vgbs', 5, 3, 1.0, 'rollout'):
        ((0, 0, 0, 0, 4), '-3.245548432056805',
         '-0.649109686411361', '0.3333333333333333', (51, 5)),
    ('beam', 5, 1, 0.0, None):
        ((0, 0, 0, 0, 4), '-3.245548432056805', '-3.245548432056805', 'None', (5, 5)),
    ('beam', 5, 1, 0.6, None):
        ((0, 0, 0, 0, 4), '-3.245548432056805', '-2.3887947975608537', 'None', (5, 5)),
    ('beam', 5, 3, 0.0, None):
        ((2, 4), '-1.9942093103433707', '-1.9942093103433707', 'None', (9, 5)),
    ('beam', 5, 3, 0.6, None):
        ((2, 4), '-1.9942093103433707', '-1.8180367829861328', 'None', (9, 5)),
    ('beam', 5, 8, 0.0, None):
        ((2, 4), '-1.9942093103433707', '-1.9942093103433707', 'None', (17, 5)),
    ('beam', 5, 8, 0.6, None):
        ((2, 4), '-1.9942093103433707', '-1.8180367829861328', 'None', (17, 5)),
}


@pytest.mark.parametrize("case", list(BEAM_GOLDEN), ids=str)
def test_beam_decoders_match_their_golden_outputs(case):
    name, vocab_size, k, knob, value_source = case
    metric = coverage_metric()
    model = make_seeded_model(4, vocab_size, 4, context_order=1, value_metric=metric)
    root = model.initial_state({3: (0, 1), 5: (1, 3, 0)}[vocab_size])
    if name == "beam":
        c = beam_search(model, root, BeamConfig(k=k, theta=knob))
    else:
        if value_source == "model":
            value_fn = model_value_fn(model)
        else:
            value_fn = rollout_value_fn(model, metric)
        c = value_guided_beam_search(model, value_fn, root, VgbsConfig(k=k, alpha=knob))
    got = (c.sequence, repr(c.log_likelihood), repr(c.score), repr(c.value))
    assert got + (model.ledger.snapshot(),) == BEAM_GOLDEN[case]


class TestSampling:
    def test_same_seed_same_pool(self, m0):
        a = sample_sequences(m0, m0.initial_state(()), n=8, tau=1.0, seed=7)
        b = sample_sequences(make_m0(), make_m0().initial_state(()), n=8, tau=1.0, seed=7)
        assert [c.sequence for c in a] == [c.sequence for c in b]

    def test_pools_are_nested(self, m0):
        small = sample_sequences(m0, m0.initial_state(()), n=4, seed=3)
        large = sample_sequences(make_m0(), make_m0().initial_state(()), n=16, seed=3)
        assert [c.sequence for c in small] == [c.sequence for c in large[:4]]

    def test_log_likelihoods_recomputable_from_table(self, m0):
        for c in sample_sequences(m0, m0.initial_state(()), n=16, seed=7):
            assert c.sequence[-1] == EOS
            expected = 0.0
            for position, token in enumerate(c.sequence):
                if position == m0.max_len:
                    break  # forced EOS contributes log 1
                expected += math.log([0.5, 0.3, 0.2][token])
            assert c.log_likelihood == pytest.approx(expected, abs=1e-12)

    def test_temperature_changes_draws(self, m0):
        hot = sample_sequences(m0, m0.initial_state(()), n=32, tau=2.0, seed=1)
        cold = sample_sequences(make_m0(), make_m0().initial_state(()), n=32, tau=0.3, seed=1)
        # Cold sampling concentrates on the argmax trajectory.
        cold_matches = sum(c.sequence == (A, A, A, EOS) for c in cold)
        hot_matches = sum(c.sequence == (A, A, A, EOS) for c in hot)
        assert cold_matches > hot_matches


    @pytest.mark.parametrize("n", [2.5, 2.0, True, False, 0, -1, None, "4"])
    def test_pool_size_must_be_an_integer(self, m0, n):
        with pytest.raises(ConfigurationError, match="pool size n"):
            sample_sequences(m0, m0.initial_state(()), n=n)
        assert m0.ledger.snapshot() == (0, 0)

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf, True, None, "1"])
    def test_temperature_is_refused_before_anything_is_evaluated(self, m0, tau):
        with pytest.raises(ConfigurationError, match="temperature"):
            sample_sequences(m0, m0.initial_state(()), n=5, tau=tau)
        assert m0.ledger.snapshot() == (0, 0)

    def test_numpy_integer_pool_size_accepted(self, m0):
        pool = sample_sequences(m0, m0.initial_state(()), n=np.int64(3), seed=5)
        want = sample_sequences(make_m0(), make_m0().initial_state(()), n=3, seed=5)
        assert [c.sequence for c in pool] == [c.sequence for c in want]

    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
    def test_pool_matches_per_sample_choice(self, tau):
        """Every round, each live sample's token is its own stream's ``choice``
        over its tempered row, forced EOS rounds included."""
        for seed in range(4):
            model = SeededTabularModel(seed, vocab_size=5, max_len=4, context_order=2)
            root = model.initial_state((1, 2))
            rngs = [np.random.default_rng([seed, i]) for i in range(6)]

            def choice_policy(indices, states):
                priors = model.priors(states)
                probs = apply_temperature(priors, tau)
                draws = [rngs[i].choice(5, p=p / p.sum()) for i, p in zip(indices, probs)]
                return priors, draws

            finals, log_likelihoods = complete([root] * 6, choice_policy)
            pool = sample_sequences(model, root, n=6, tau=tau, seed=seed)
            assert [c.state for c in pool] == finals
            assert [c.log_likelihood for c in pool] == log_likelihoods


def draw_rule_rows() -> list[tuple[int, float, np.ndarray]]:
    """(seed, tau, tempered rows): per block, 50 dense rows, 50 with zero entries,
    25 one-hot on EOS and 25 one-hot on a random token."""
    blocks = []
    for seed, (tau, vocab_size) in enumerate(
        (tau, v) for tau in (0.3, 0.5, 1.0, 2.0, 5.0) for v in (2, 3, 8, 17)
    ):
        rng = np.random.default_rng([1234, seed])
        rows = rng.dirichlet(np.ones(vocab_size), size=150)
        rows[50:100] *= rng.random((50, vocab_size)) < 0.5  # zero entries
        rows[np.arange(50, 100), rng.integers(vocab_size, size=50)] += 1e-3  # one stays positive
        rows[100:150] = 0.0
        rows[100:125, -1] = 1.0  # one-hot EOS
        rows[np.arange(125, 150), rng.integers(vocab_size, size=25)] = 1.0  # one-hot anywhere
        rows /= rows.sum(axis=1, keepdims=True)
        blocks.append((seed, tau, apply_temperature(rows, tau)))
    return blocks


def test_draw_rule_is_numpy_generator_choice():
    """``inverse_cdf_draws`` fed one ``random()`` per row equals ``choice`` on that
    row's own stream; pools, reports and golden digests all rest on it."""
    checked = mismatched = 0
    first = None
    for seed, tau, probs in draw_rule_rows():
        vocab_size = probs.shape[1]
        uniforms = np.array([np.random.default_rng([seed, i]).random() for i in range(len(probs))])
        got = inverse_cdf_draws(probs, uniforms)
        for i, p in enumerate(probs):
            want = np.random.default_rng([seed, i]).choice(vocab_size, p=p / p.sum())
            checked += 1
            if got[i] != want:
                mismatched += 1
                first = first or (seed, tau, i, p.tolist(), int(got[i]), int(want))
    assert checked >= 3000
    assert mismatched == 0, (
        f"the batched draw rule no longer matches numpy.random.Generator.choice "
        f"(numpy {np.__version__}) on {mismatched} of {checked} rows; first "
        f"(seed, tau, row, p, batched, choice) = {first}"
    )


class UniformsGenerator(np.random.Generator):
    """A generator whose ``random()`` returns a given uniform, so ``choice`` can be
    asked about a uniform that sits on a cdf step."""

    def __init__(self, uniform: float):
        super().__init__(np.random.PCG64(0))
        self.uniform = uniform

    def random(self, size=None, dtype=np.float64, out=None):
        return self.uniform


def test_draw_rule_is_numpy_generator_choice_on_cdf_steps():
    """Uniforms equal to a cdf entry, just below one, 0 and the largest double
    below 1: ties go right past zero-probability tokens, and the cdf ends at 1."""
    checked = mismatched = 0
    first = None
    for seed, tau, probs in draw_rule_rows():
        vocab_size = probs.shape[1]
        for p in probs[::5]:
            steps = np.cumsum(p / p.sum())
            steps /= steps[-1]
            uniforms = np.unique(
                np.concatenate([steps, np.nextafter(steps, 0.0), [0.0, np.nextafter(1.0, 0.0)]])
            )
            uniforms = uniforms[uniforms < 1.0]
            got = inverse_cdf_draws(np.tile(p, (len(uniforms), 1)), uniforms)
            for u, token in zip(uniforms.tolist(), got.tolist()):
                want = UniformsGenerator(u).choice(vocab_size, p=p / p.sum())
                checked += 1
                if token != want:
                    mismatched += 1
                    first = first or (seed, tau, p.tolist(), u, token, int(want))
    assert checked >= 3000
    assert mismatched == 0, (
        f"the batched draw rule no longer matches numpy.random.Generator.choice "
        f"(numpy {np.__version__}) at {mismatched} of {checked} cdf steps; first "
        f"(seed, tau, p, uniform, batched, choice) = {first}"
    )


class HeadlessM0(FixedPriorModel):
    """``m0`` whose value head fails if anything reads it."""

    def __init__(self, value_metric=None):
        super().__init__(M0_PRIOR, M0_MAX_LEN, value_metric)

    def _head(self, states):
        raise AssertionError("value head read")


class TestPolicyOnlyCalls:
    """Greedy, beam, sampling and VGBS's expansion read priors only: they call
    ``evaluate_policy``, never ``evaluate_root``, and leave the value memo empty."""

    @staticmethod
    def decode_all(model):
        root = model.initial_state(())
        return [
            greedy_decode(model, root),
            beam_search(model, root, BeamConfig(k=2, theta=1.0)),
            *sample_sequences(model, root, n=8, tau=0.5, seed=3),
        ]

    def test_memo_stays_empty_and_evaluate_root_is_never_called(self, monkeypatch, occupancy_a3):
        from seqdecode.models import PolicyValueModel

        roots = count_calls(monkeypatch, PolicyValueModel, "evaluate_root")
        model = make_m0(value_metric=occupancy_a3)
        self.decode_all(model)
        assert roots == []
        assert model._completions == {} and model._rewards == {}

    def test_a_raising_value_head_still_decodes(self, occupancy_a3):
        plain = make_m0(value_metric=occupancy_a3)
        headless = HeadlessM0(value_metric=occupancy_a3)
        assert self.decode_all(headless) == self.decode_all(plain)
        assert headless.ledger.snapshot() == plain.ledger.snapshot()

    def test_greedy_charges_one_evaluation_per_token(self):
        for seed in range(5):
            model = SeededTabularModel(seed, vocab_size=4, max_len=5, context_order=1)
            c = greedy_decode(model, model.initial_state(()))
            assert model.ledger.snapshot() == (len(c.sequence), len(c.sequence))

    def test_vgbs_reads_values_only_through_its_value_fn(self, occupancy_a3):
        for k in (1, 2, 3):
            plain = make_m0(value_metric=occupancy_a3)
            want = value_guided_beam_search(
                plain, model_value_fn(plain), plain.initial_state(()), VgbsConfig(k=k)
            )
            headless = HeadlessM0(value_metric=occupancy_a3)
            twin = make_m0(value_metric=occupancy_a3)
            queried = []

            def value_fn(states):
                queried.append(len(states))
                headless.ledger.charge_evaluations(len(states))
                return model_value_fn(twin)(states)

            root = headless.initial_state(())
            got = value_guided_beam_search(headless, value_fn, root, VgbsConfig(k=k))
            assert got == want
            evaluations, tokens = headless.ledger.snapshot()
            assert queried == [k * k] * tokens
            assert evaluations == tokens * (k + k * k)
            assert headless.ledger.snapshot() == plain.ledger.snapshot()
            assert headless._completions == {} and headless._rewards == {}


class TestRerank:
    def _pool(self, m0, n=16, seed=7):
        return sample_sequences(m0, m0.initial_state(()), n=n, seed=seed)

    def test_single_candidate_wins(self, m0, occupancy_a3):
        pool = self._pool(m0, n=1)
        assert rerank_by_score(pool, occupancy_a3).sequence == pool[0].sequence

    def test_score_rerank_prefers_high_metric(self, m0, occupancy_a3):
        empty = greedy_decode(FixedPriorModel([0.1, 0.1, 0.8], 3), FixedPriorModel([0.1, 0.1, 0.8], 3).initial_state(()))
        full = greedy_decode(make_m0(), make_m0().initial_state(()))
        winner = rerank_by_score([empty, full], occupancy_a3)
        assert winner.sequence == (A, A, A, EOS)
        assert winner.score == 1.0

    def test_ties_break_by_likelihood_then_order(self, occupancy_a3):
        m = make_m0()
        root = m.initial_state(())
        low = Candidate(step(step(root, B), EOS), math.log(0.3) + math.log(0.2))
        high = Candidate(step(step(root, A), EOS), math.log(0.5) + math.log(0.2))
        # Both score 0 under occupancy of token A over horizon 3... high likelihood wins.
        winner = rerank_by_score([low, high], occupancy_a3)
        assert winner.sequence == (A, EOS)
        twin = Candidate(low.state, low.log_likelihood)
        assert rerank_by_score([low, twin], occupancy_a3).sequence == low.sequence

    def test_empty_pool_rejected(self, occupancy_a3):
        with pytest.raises(ValueError):
            rerank_by_score([], occupancy_a3)

    @pytest.mark.parametrize(
        "metric",
        [coverage_metric(), bleu_metric(2), bert_style_metric(SeededUnitEmbeddings(4, 1))],
        ids=lambda m: m.name,
    )
    def test_pool_score_is_the_terminal_reward_of_the_best(self, metric):
        # One score_batch call over the pool picks what per-candidate terminal_reward picks,
        # with the same score, bit for bit.
        for seed in range(4):
            model = make_seeded_model(seed, 6, 4, context_order=1)
            root = model.initial_state((0, 1, 2), reference=(2, 1, 3))
            pool = sample_sequences(model, root, n=12, seed=seed)
            keys = [terminal_reward(c.state, metric) for c in pool]
            best = max(range(len(pool)), key=lambda i: (keys[i], pool[i].log_likelihood, -i))
            winner = rerank_by_score(pool, metric)
            assert winner.state == pool[best].state and winner.score == keys[best], seed

    def test_pool_with_two_reward_anchors_rejected(self, m0):
        pool = [greedy_decode(m0, m0.initial_state(source)) for source in [(A,), (B,)]]
        with pytest.raises(ValueError, match="2 reward anchors"):
            rerank_by_score(pool, coverage_metric())

    def test_value_rerank_with_rollout_matches_score_rerank(self, occupancy_a3):
        m = make_m0()
        pool = self._pool(m, n=16, seed=11)
        by_score = rerank_by_score(pool, occupancy_a3)
        by_value = rerank_by_value(pool, rollout_value_fn(make_m0(), occupancy_a3))
        assert by_value.value == by_score.score
        assert by_value.sequence == by_score.sequence
