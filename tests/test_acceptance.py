"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Expected values come from hand derivations on the fixture model and
from the exact oracles; tolerances are stated inline and are part of the
contract.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from seqdecode import (
    BeamConfig,
    NoisyValueModel,
    SearchConfig,
    SeededTabularModel,
    beam_search,
    bleu,
    coverage_metric,
    decode_mcts,
    enumerate_sequences,
    exact_argmax_likelihood,
    exact_argmax_metric,
    greedy_decode,
    length_normalizer,
    model_value_fn,
    occupancy_metric,
    rerank_by_score,
    rerank_by_value,
    rollout_value_fn,
    sample_sequences,
    terminal_reward,
    value_guided_beam_search,
)
from seqdecode.decoders import VgbsConfig
from seqdecode.mcts import ArenaSearch

from conftest import A, B, EOS, affine_value_model, make_m0
from twin import RecursiveSearch


def _pass(criterion: int, message: str) -> None:
    print(f"\n[PASS] criterion {criterion:02d}: {message}")


def seeded_source(seed: int, vocab: int, max_tokens: int = 3) -> tuple[int, ...]:
    rng = np.random.default_rng(20_000 + seed)
    return tuple(rng.integers(0, vocab - 1, size=int(rng.integers(1, max_tokens + 1))))


def test_criterion_01_beam_of_one_equals_greedy():
    matches = 0
    for seed in range(100):
        beam_model = SeededTabularModel(seed, vocab_size=3, max_len=4, context_order=1)
        greedy_model = SeededTabularModel(seed, vocab_size=3, max_len=4, context_order=1)
        b = beam_search(beam_model, beam_model.initial_state(()), BeamConfig(k=1, theta=0.0))
        g = greedy_decode(greedy_model, greedy_model.initial_state(()))
        assert b.sequence == g.sequence, f"seed {seed}"
        matches += 1
    assert matches == 100
    _pass(1, "beam(k=1, theta=0) equals greedy on 100/100 seeded models")


def test_criterion_02_beam_optimality_at_saturation():
    cases = 0
    for seed in range(50):
        vocab = 3 + seed % 2  # V in {3, 4}
        horizon = 2 + seed % 4  # max_len in {2..5}
        model = SeededTabularModel(seed, vocab_size=vocab, max_len=horizon, context_order=1)
        twin = SeededTabularModel(seed, vocab_size=vocab, max_len=horizon, context_order=1)
        n_terminated = len(enumerate_sequences(twin, twin.initial_state(())))
        found = beam_search(model, model.initial_state(()), BeamConfig(k=n_terminated, theta=0.0))
        exact = exact_argmax_likelihood(twin, twin.initial_state(()))
        assert found.sequence == exact.sequence, f"seed {seed}"
        assert found.log_likelihood == pytest.approx(exact.log_likelihood, abs=1e-12)
        cases += 1
    assert cases == 50
    _pass(2, "saturated beam equals exact likelihood argmax on 50/50 seeded models")


def test_criterion_03_empty_mode_and_length_normalization():
    m0 = make_m0()
    enumerated = enumerate_sequences(make_m0(), make_m0().initial_state(()))

    plain = beam_search(m0, m0.initial_state(()), BeamConfig(k=8, theta=0.0))
    assert plain.sequence == (EOS,)
    assert abs(math.exp(plain.log_likelihood) - 0.2) <= 1e-9
    best_plain = max(ll for _, ll in enumerated)
    assert abs(plain.log_likelihood - best_plain) <= 1e-9

    normalized = beam_search(make_m0(), make_m0().initial_state(()), BeamConfig(k=8, theta=1.0))
    assert normalized.sequence == (A, A, A, EOS)
    expected = (6 / 9) * 3 * math.log(0.5)
    assert abs(normalized.score - expected) <= 1e-9
    best_norm = max(length_normalizer(len(seq), 1.0) * ll for seq, ll in enumerated)
    assert abs(normalized.score - best_norm) <= 1e-9
    _pass(3, "unnormalized beam prefers the empty output (0.2); theta=1 recovers "
             "the content sequence at score -1.386, both matching enumeration")


def test_criterion_04_arena_matches_recursive_reference():
    metrics = (occupancy_metric(0, 3), coverage_metric())
    pairs = 0
    for i in range(50):
        seed = 300 + i
        vocab = 3 + i % 3
        cfg = SearchConfig(
            num_simulations=10,
            num_sparse_actions=min(2 + i % 3, vocab),
            c_puct=(0.5, 1.0, 2.0, 4.0)[i % 4],
            tau=(0.8, 1.0, 1.25)[i % 3],
            backup=("average", "max")[i % 2],
            root_selection=("visit_count", "max_value")[(i // 2) % 2],
            value_source=("model", "rollout")[(i // 4) % 2],
        )
        metric = metrics[i % 2]
        source = seeded_source(seed, vocab)
        arena_model = SeededTabularModel(seed, vocab, 3, context_order=1, value_metric=metric)
        ref_model = SeededTabularModel(seed, vocab, 3, context_order=1, value_metric=metric)
        arena = ArenaSearch(arena_model, [arena_model.initial_state(source)], cfg, metric=metric)
        reference = RecursiveSearch(ref_model, cfg, metric=metric)
        reference.begin(ref_model.initial_state(source))
        for sim in range(cfg.num_simulations):
            arena.step_simulation()
            reference.step_simulation()
            n = arena.node_counts[0]
            assert n == len(reference.nodes), (i, sim)
            assert np.array_equal(arena.visit_counts[0, :n], reference.visit_counts()), (i, sim)
            assert np.allclose(arena.values[0, :n], reference.node_values(), atol=1e-9), (i, sim)
        pairs += 1
    assert pairs == 50
    _pass(4, "arena and recursive searches agree after every simulation on 50/50 "
             "configs spanning both backup and both selection rules")


def test_criterion_05_mcts_reaches_the_metric_oracle():
    cfg = SearchConfig(
        num_simulations=64,
        num_sparse_actions=3,
        c_puct=2.0,
        backup="max",
        root_selection="max_value",
        value_source="rollout",
    )
    hits = 0
    for seed in range(20):
        source = seeded_source(seed, 3)
        for metric in (occupancy_metric(0, 3), coverage_metric()):
            model = SeededTabularModel(seed, vocab_size=3, max_len=3, context_order=1)
            out = decode_mcts(model, [model.initial_state(source)], cfg, metric=metric)[0]
            achieved = terminal_reward(out.state, metric)
            twin = SeededTabularModel(seed, 3, 3, context_order=1)
            oracle = exact_argmax_metric(twin, twin.initial_state(source), metric)
            assert achieved == oracle.score, (seed, metric.name)
        hits += 1
    assert hits == 20
    _pass(5, "rollout-valued MCTS (max backup, max-value selection, 64 simulations) "
             "attains the exact metric optimum on 20/20 instances under two metrics")


def test_criterion_06_affine_value_invariance():
    checked = 0
    for i in range(20):
        seed = i
        source = seeded_source(70 + i, 4)
        metric = occupancy_metric(0, 4) if i % 2 == 0 else coverage_metric()
        backup, selection = ("average", "visit_count") if i < 10 else ("max", "max_value")
        cfg = SearchConfig(
            num_simulations=24,
            num_sparse_actions=3,
            c_puct=1.0 + i % 3,
            tau=(0.8, 1.0, 1.2)[i % 3],
            backup=backup,
            root_selection=selection,
            value_source="model",
        )
        plain = SeededTabularModel(seed, 4, 4, context_order=1, value_metric=metric)
        scaled = affine_value_model(
            SeededTabularModel(seed, 4, 4, context_order=1, value_metric=metric), 0.37, 0.11
        )
        out_plain = decode_mcts(plain, [plain.initial_state(source)], cfg, metric=metric)[0]
        out_scaled = decode_mcts(scaled, [scaled.initial_state(source)], cfg, metric=metric)[0]
        assert out_plain.sequence == out_scaled.sequence, i
        checked += 1
    assert checked == 20
    _pass(6, "v and 0.37*v + 0.11 select identical actions at every step in 20/20 searches")


def test_criterion_07_reranking_is_monotone_in_pool_size():
    checked = 0
    for i in range(50):
        source = seeded_source(40 + i, 3)
        metric = occupancy_metric(0, 3) if i % 2 == 0 else coverage_metric()
        scores = []
        for n in (1, 4, 16, 64):
            model = SeededTabularModel(i, vocab_size=3, max_len=3, context_order=1)
            pool = sample_sequences(model, model.initial_state(source), n=n, tau=1.0, seed=i)
            scores.append(rerank_by_score(pool, metric).score)
        assert all(b >= a for a, b in zip(scores, scores[1:])), (i, scores)
        checked += 1
    assert checked == 50
    _pass(7, "nested-pool reranked score is non-decreasing in n on 50/50 instances")


def test_criterion_08_value_reranking_matches_score_reranking_at_terminals():
    checked = 0
    for i in range(50):
        source = seeded_source(160 + i, 3)
        metric = occupancy_metric(0, 3) if i % 2 == 0 else coverage_metric()
        model = SeededTabularModel(i, vocab_size=3, max_len=3, context_order=1)
        pool = sample_sequences(model, model.initial_state(source), n=16, tau=1.0, seed=i)
        by_score = rerank_by_score(pool, metric)
        value_fn = rollout_value_fn(SeededTabularModel(i, 3, 3, context_order=1), metric)
        by_value = rerank_by_value(pool, value_fn)
        assert by_value.value == by_score.score, i
        checked += 1
    assert checked == 50
    _pass(8, "value reranking with rollout values picks the score-reranked optimum "
             "on 50/50 instances (rollout at a terminal is the terminal reward)")


def brute_force_bleu(candidates, references, max_n):
    """Independent oracle: positional n-gram scan with explicit clipping."""
    total_cand = sum(len(c) for c in candidates)
    total_ref = sum(len(r) for r in references)
    if total_cand == 0:
        return 0.0
    log_terms = []
    for n in range(1, max_n + 1):
        clipped, total = 0, 0
        for cand, ref in zip(candidates, references):
            grams = [tuple(cand[j : j + n]) for j in range(len(cand) - n + 1)]
            ref_grams = [tuple(ref[j : j + n]) for j in range(len(ref) - n + 1)]
            total += len(grams)
            for gram in sorted(set(grams)):
                clipped += min(grams.count(gram), ref_grams.count(gram))
        if clipped == 0 or total == 0:
            return 0.0
        log_terms.append(math.log(clipped / total))
    penalty = math.exp(min(0.0, 1.0 - total_ref / total_cand))
    return penalty * math.exp(sum(log_terms) / max_n)


BLEU_CASES = [
    # (candidates, references, max_n)
    ([(0, 1, 2)], [(0, 1, 2)], 3),  # identical corpus
    ([(0,) * 7], [(0, 1, 2, 3, 0, 4)], 1),  # clipped unigrams: 2/7
    ([()], [(0, 1)], 4),  # empty candidate
    ([(5, 6)], [(0, 1)], 1),  # disjoint vocabularies
    ([(0, 1)], [(0, 1, 2, 3)], 2),  # brevity penalty bites
    ([(0, 1, 2, 3)], [(0, 1)], 2),  # long candidate, no penalty
    ([(0, 1, 0, 1)], [(0, 1)], 2),  # repeated bigram clipping
    ([(0, 0, 0)], [(0, 0)], 2),
    ([(0, 1, 2), (3, 4)], [(0, 1, 2), (3, 4)], 2),  # multi-sentence identical
    ([(0, 1), (2, 3)], [(1, 0), (2, 3)], 1),
    ([(0, 1), (2, 3)], [(1, 0), (2, 3)], 2),
    ([(0, 1, 2, 0, 1)], [(0, 1, 2)], 3),
    ([(1,)], [(1,)], 1),
    ([(1, 1, 1, 1)], [(1, 2, 1, 2)], 1),  # clipping to reference count 2
    ([(0, 1, 2)], [(2, 1, 0)], 2),  # unigrams match, bigrams do not
    ([(0, 1, 2, 3, 4)], [(0, 1, 9, 3, 4)], 2),
    ([(0,), (1,), (2,)], [(0,), (1,), (9,)], 1),  # corpus pooling
    ([(0, 1), (0, 1)], [(0, 1), (2, 3)], 2),  # per-pair clipping, not global
    ([(7, 8, 9, 7, 8, 9)], [(7, 8, 9)], 3),
    ([(0, 0, 1, 1)], [(0, 1, 0, 1)], 2),
]


def test_criterion_09_bleu_matches_independent_counter():
    for idx, (cands, refs, max_n) in enumerate(BLEU_CASES):
        expected = brute_force_bleu(cands, refs, max_n)
        assert bleu(list(cands), list(refs), max_n=max_n) == pytest.approx(
            expected, abs=1e-9
        ), idx
    assert bleu([(0, 1, 2)], [(0, 1, 2)], max_n=3) == 1.0
    assert bleu([(0,) * 7], [(0, 1, 2, 3, 0, 4)], max_n=1) == pytest.approx(2 / 7, abs=1e-9)
    _pass(9, f"BLEU agrees with the brute-force counter on {len(BLEU_CASES)}/20 corpus cases")


def test_criterion_10_budget_accounting_closed_forms():
    runs = 0
    occupancy = occupancy_metric(0, 4)
    for seed in range(7):  # greedy: exactly one evaluation per emitted token
        model = SeededTabularModel(seed, vocab_size=4, max_len=4, context_order=1)
        candidate = greedy_decode(model, model.initial_state(()))
        evaluations, tokens = model.ledger.snapshot()
        assert tokens == len(candidate.sequence)
        assert evaluations == tokens * 1
        runs += 1
    for seed, k in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 2), (5, 3), (6, 4)):
        model = SeededTabularModel(seed, vocab_size=5, max_len=4, context_order=1,
                                   value_metric=occupancy)
        value_guided_beam_search(
            model, model_value_fn(model), model.initial_state(()), VgbsConfig(k=k, alpha=0.5)
        )
        evaluations, tokens = model.ledger.snapshot()
        assert evaluations == tokens * (k + k * k), (seed, k)
        runs += 1
    for seed, sims in ((0, 2), (1, 5), (2, 8), (3, 13), (4, 3), (5, 21)):
        model = SeededTabularModel(seed, vocab_size=4, max_len=4, context_order=1,
                                   value_metric=occupancy)
        cfg = SearchConfig(num_simulations=sims, num_sparse_actions=3, value_source="model")
        decode_mcts(model, [model.initial_state(())], cfg)
        evaluations, tokens = model.ledger.snapshot()
        assert evaluations == tokens * (sims + 1), (seed, sims)
        runs += 1
    assert runs == 20
    _pass(10, "ledger per emitted token is exactly 1 (greedy), k + k^2 (VGBS) and "
              "S + 1 (MCTS, model value) across 20 runs")


def _scaling_sources(vocab: int, count: int = 100) -> list[tuple[int, ...]]:
    rng = np.random.default_rng(999)
    sources: list[tuple[int, ...]] = []
    seen = set()
    while len(sources) < count:
        s = tuple(rng.integers(0, vocab - 1, size=int(rng.integers(1, 5))))
        if s not in seen:
            seen.add(s)
            sources.append(s)
    return sources


def test_criterion_11_budget_scaling_trends():
    metric = coverage_metric()
    sources = _scaling_sources(vocab=4)
    budgets = (1, 10, 25, 50)

    def assert_nearly_monotone(means, label):
        inversions = [max(0.0, a - b) for a, b in zip(means, means[1:])]
        violating = [d for d in inversions if d > 0]
        assert len(violating) <= 1, (label, means)
        assert all(d <= 0.005 for d in violating), (label, means)

    mcts_means = []
    for budget in budgets:
        model = SeededTabularModel(11, vocab_size=4, max_len=4, context_order=1)
        cfg = SearchConfig(num_simulations=budget, num_sparse_actions=4, c_puct=2.0,
                           backup="max", root_selection="max_value", value_source="rollout")
        outs = decode_mcts(model, [model.initial_state(s) for s in sources], cfg, metric=metric)
        mcts_means.append(float(np.mean([terminal_reward(c.state, metric) for c in outs])))
    assert_nearly_monotone(mcts_means, "mcts")

    sr_means = []
    for budget in budgets:
        scores = []
        for i, source in enumerate(sources):
            model = SeededTabularModel(11, vocab_size=4, max_len=4, context_order=1)
            pool = sample_sequences(model, model.initial_state(source), n=budget, tau=1.0, seed=i)
            scores.append(rerank_by_score(pool, metric).score)
        sr_means.append(float(np.mean(scores)))
    assert_nearly_monotone(sr_means, "sample+rerank")

    noisy_means = {}
    for budget in budgets + (300,):
        model = NoisyValueModel(
            SeededTabularModel(11, vocab_size=4, max_len=4, context_order=1, value_metric=metric),
            amplitude=0.3,
            seed=5,
        )
        cfg = SearchConfig(num_simulations=budget, num_sparse_actions=4, c_puct=2.0,
                           backup="average", root_selection="visit_count", value_source="model")
        outs = decode_mcts(model, [model.initial_state(s) for s in sources], cfg, metric=metric)
        noisy_means[budget] = float(np.mean([terminal_reward(c.state, metric) for c in outs]))
    best_earlier = max(noisy_means[b] for b in budgets)
    assert noisy_means[300] <= best_earlier + 1e-12, noisy_means
    _pass(11, f"means rise with budget (MCTS {mcts_means}, S+R {sr_means}); with a "
              f"0.3-amplitude noisy value the budget-300 mean {noisy_means[300]:.4f} "
              f"never beats the earlier best {best_earlier:.4f}")


def test_criterion_12_enumeration_is_a_proper_distribution():
    for seed in range(50):
        vocab = 3 + seed % 3
        model = SeededTabularModel(seed, vocab_size=vocab, max_len=3, context_order=1)
        total = sum(math.exp(ll) for _, ll in enumerate_sequences(model, model.initial_state(())))
        assert abs(total - 1.0) <= 1e-9, seed

    table = {
        (EOS,): 0.2,
        (A, EOS): 0.1,
        (B, EOS): 0.06,
        (A, A, EOS): 0.25,
        (A, B, EOS): 0.15,
        (B, A, EOS): 0.15,
        (B, B, EOS): 0.09,
    }
    horizon2 = replace(make_m0().initial_state(()), max_len=3)
    enumerated = dict(enumerate_sequences(make_m0(), horizon2))
    assert set(enumerated) == set(table)
    for seq, prob in table.items():
        assert math.exp(enumerated[seq]) == pytest.approx(prob, abs=1e-12)
    _pass(12, "terminated-sequence probabilities sum to 1 on 50/50 models; the "
              "fixture's 7-sequence table matches exactly")
