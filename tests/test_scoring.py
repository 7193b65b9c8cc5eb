from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from seqdecode import (
    ConfigurationError,
    ContractViolation,
    Metric,
    MetricSpec,
    SeededUnitEmbeddings,
    bert_style_metric,
    bleu,
    coverage_metric,
    occupancy_metric,
)
from seqdecode import scoring
from seqdecode.harness import METRICS
from seqdecode.mdp import clamp01

THE, CAT, IS, ON, MAT = 0, 1, 2, 3, 4
REFERENCE = (THE, CAT, IS, ON, THE, MAT)  # "the cat is on the mat"


class TableEmbeddings:
    """Embeddings from an explicit (token -> vector) table."""

    def __init__(self, table: dict[int, np.ndarray]):
        self._table = {t: np.asarray(v, dtype=float) for t, v in table.items()}

    def vector(self, token: int) -> np.ndarray:
        return self._table[token]


def brute_force_precision(candidate, reference, n):
    """Independent clipped-count oracle: scan positions, no Counter machinery."""
    cand_ngrams = [tuple(candidate[i : i + n]) for i in range(len(candidate) - n + 1)]
    ref_ngrams = [tuple(reference[i : i + n]) for i in range(len(reference) - n + 1)]
    if not cand_ngrams:
        return 0.0
    matched = 0
    for gram in set(cand_ngrams):
        matched += min(cand_ngrams.count(gram), ref_ngrams.count(gram))
    return matched / len(cand_ngrams)


class TestBleu:
    def test_identical_corpora(self):
        corpus = [(THE, CAT), (IS, ON, THE, MAT)]
        assert bleu(corpus, corpus, max_n=2) == 1.0

    def test_clipped_unigram_counts(self):
        # Seven repetitions of a token the reference holds twice: precision 2/7,
        # and the candidate is longer than the reference so no brevity penalty.
        assert bleu([(THE,) * 7], [REFERENCE], max_n=1) == pytest.approx(2 / 7, abs=1e-12)

    def test_empty_candidate(self):
        assert bleu([()], [REFERENCE]) == 0.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            bleu([], [])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            bleu([(THE,)], [])

    def test_corpus_order_invariance(self):
        cands = [(THE, CAT), (ON, MAT), (IS, IS, THE)]
        refs = [(THE, CAT, IS), (ON, THE, MAT), (IS, THE)]
        forward = bleu(cands, refs, max_n=2)
        shuffled = bleu(cands[::-1], refs[::-1], max_n=2)
        assert forward == pytest.approx(shuffled, abs=1e-15)

    def test_brevity_penalty_applies_to_short_candidates(self):
        # Candidate half as long as the reference with perfect precision.
        score = bleu([(THE, CAT, IS)], [(THE, CAT, IS, ON, THE, MAT)], max_n=1)
        assert score == pytest.approx(np.exp(1 - 6 / 3), abs=1e-12)

    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            cand = tuple(rng.integers(0, 4, size=rng.integers(1, 8)))
            ref = tuple(rng.integers(0, 4, size=rng.integers(1, 8)))
            for max_n in (1, 2, 3):
                precisions = [brute_force_precision(cand, ref, n) for n in range(1, max_n + 1)]
                if any(p == 0 for p in precisions):
                    expected = 0.0
                else:
                    bp = np.exp(min(0.0, 1.0 - len(ref) / len(cand)))
                    expected = bp * np.exp(np.mean(np.log(precisions)))
                assert bleu([cand], [ref], max_n=max_n) == pytest.approx(expected, abs=1e-9)


def bert_style_score(candidate, anchor, embedder):
    """One candidate's score under ``bert_style_metric(embedder)``, a batch of one."""
    return bert_style_metric(embedder)(anchor, candidate)


class TestBertStyleScore:
    def test_identical_sequences_score_one(self):
        emb = SeededUnitEmbeddings(dim=6, seed=3)
        assert bert_style_score((1, 2, 3), (1, 2, 3), emb) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pair_scores_half(self):
        emb = TableEmbeddings({0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])})
        assert bert_style_score((0,), (1,), emb) == pytest.approx(0.5, abs=1e-12)

    def test_only_the_ids_present_are_embedded(self):
        # A table that knows only the ids in play scores like a full one, however
        # large an id is, and is asked for each such id once per call.
        big = 10**6
        emb = TableEmbeddings({0: np.array([1.0, 0.0]), 5: np.array([0.0, 1.0]), big: [1.0, 1.0]})
        asked = []
        vector = emb.vector
        emb.vector = lambda t: asked.append(t) or vector(t)
        assert bert_style_score((5,), (0,), emb) == pytest.approx(0.5, abs=1e-12)
        scores = bert_style_metric(emb).score_batch((0, big), np.array([[5, 0], [5, 5]]))
        r = 2**-0.5  # similarity of the id `big` to each of the others
        assert scores == pytest.approx([(3 + r) / 4, (2 + r) / 4], abs=1e-12)
        assert asked == [0, 5, 0, 5, big]

    def test_order_insensitive_perfect_match(self):
        emb = TableEmbeddings({0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])})
        assert bert_style_score((0, 1), (1, 0), emb) == pytest.approx(1.0, abs=1e-12)

    def test_empty_inputs_score_zero(self):
        emb = SeededUnitEmbeddings()
        assert bert_style_score((), (1,), emb) == 0.0
        assert bert_style_score((1,), (), emb) == 0.0

    def test_length_mismatch_penalized(self):
        emb = TableEmbeddings({0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])})
        # One perfect aligned pair out of a length-3 candidate.
        assert bert_style_score((0, 0, 0), (0,), emb) == pytest.approx(1 / 3, abs=1e-12)

    def test_symmetry_for_equal_lengths(self):
        emb = SeededUnitEmbeddings(dim=4, seed=9)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = tuple(rng.integers(0, 6, size=3))
            y = tuple(rng.integers(0, 6, size=3))
            assert bert_style_score(x, y, emb) == pytest.approx(
                bert_style_score(y, x, emb), abs=1e-12
            )

    @given(
        st.lists(st.integers(0, 9), max_size=5),
        st.lists(st.integers(0, 9), max_size=5),
    )
    def test_range(self, x, y):
        emb = SeededUnitEmbeddings(dim=3, seed=0)
        assert 0.0 <= bert_style_score(tuple(x), tuple(y), emb) <= 1.0

    @pytest.mark.parametrize(
        "candidate, anchor, bad", [((0, -1), (1, 2), -1), ((0, 1), (-3, 2, -2), -3)]
    )
    def test_a_negative_token_id_is_refused_by_name(self, candidate, anchor, bad):
        # Indexing the embedding table with it would silently read the last row.
        emb = SeededUnitEmbeddings()
        metric = bert_style_metric(emb)
        for score in (
            lambda: metric(anchor, candidate),
            lambda: metric.score_batch(anchor, np.array([candidate])),
        ):
            with pytest.raises(ValueError, match=f"negative token id {bad}"):
                score()

    def test_provider_determinism(self):
        a = SeededUnitEmbeddings(dim=5, seed=11)
        b = SeededUnitEmbeddings(dim=5, seed=11)
        for token in range(6):
            assert np.array_equal(a.vector(token), b.vector(token))


TOKENS = st.lists(st.integers(0, 3), max_size=6)


def float_bits(values):
    return [float.hex(v) for v in values]


def length_groups(candidates):
    """The candidates grouped by length: per length, their indices and one
    ``(n, L)`` integer array."""
    indices = {}
    for k, candidate in enumerate(candidates):
        indices.setdefault(len(candidate), []).append(k)
    return [
        (ks, np.array([candidates[k] for k in ks], dtype=np.intp).reshape(len(ks), length))
        for length, ks in indices.items()
    ]


def loop_bert_style_score(candidate, anchor, embedder):
    """Reference twin of the batched alignment: one candidate, one matched pair at a time."""
    if not candidate or not anchor:
        return 0.0
    cand_vecs = np.stack([embedder.vector(t) for t in candidate])
    anch_vecs = np.stack([embedder.vector(t) for t in anchor])
    cand_vecs = cand_vecs / np.linalg.norm(cand_vecs, axis=1, keepdims=True)
    anch_vecs = anch_vecs / np.linalg.norm(anch_vecs, axis=1, keepdims=True)
    sims = cand_vecs @ anch_vecs.T
    n_pairs = min(len(candidate), len(anchor))
    work = sims.copy()
    total = 0.0
    for _ in range(n_pairs):
        i, j = divmod(int(np.argmax(work)), work.shape[1])
        total += sims[i, j]
        work[i, :] = -np.inf
        work[:, j] = -np.inf
    length_penalty = n_pairs / max(len(candidate), len(anchor))
    return clamp01((total / n_pairs + 1.0) / 2.0 * length_penalty)


def toy_occupancy(candidate, target, horizon):
    """Reference twin of ``occupancy_metric``: the fraction of the horizon filled
    with the target token, one candidate at a time."""
    return clamp01(sum(1 for t in candidate if t == target) / horizon)


def toy_coverage(candidate, source):
    """Reference twin of ``coverage_metric``: the fraction of the source's distinct
    tokens appearing in one candidate."""
    source_set = set(source)
    if not source_set:
        raise ConfigurationError("source must be non-empty")
    return clamp01(len(source_set & set(candidate)) / len(source_set))


def metric_and_twin(spec):
    """The metric ``spec`` builds and its scalar twin ``twin(anchor, candidate)``."""
    embedder = SeededUnitEmbeddings(spec.embedding_dim, spec.embedding_seed)
    twin = {
        "occupancy": lambda a, c: toy_occupancy(c, spec.target, spec.horizon),
        "coverage": lambda a, c: toy_coverage(c, a),
        "bleu": lambda a, c: bleu([c], [a], max_n=spec.max_n),
        "bertscore": lambda a, c: loop_bert_style_score(c, a, embedder),
        "mlbertscore": lambda a, c: loop_bert_style_score(c, a, embedder),
    }[spec.name]
    return spec.build(), twin


# Every metric a run can build, BLEU at two orders, plus one whose table repeats a
# direction (tied similarities), each with its scalar twin.
TWINNED = {
    "bertscore": metric_and_twin(MetricSpec(name="bertscore")),
    "mlbertscore": metric_and_twin(MetricSpec(name="mlbertscore")),
    "coverage": metric_and_twin(MetricSpec(name="coverage")),
    "occupancy": metric_and_twin(MetricSpec(name="occupancy")),
    "bleu2": metric_and_twin(MetricSpec(name="bleu", max_n=2)),
    "bleu4": metric_and_twin(MetricSpec(name="bleu", max_n=4)),
}
TIED = TableEmbeddings({0: [1.0, 0.0], 1: [0.0, 2.0], 2: [3.0, 0.0], 3: [-1.0, 1.0]})
TWINNED["bertscore_table"] = (
    bert_style_metric(TIED),
    lambda a, c: loop_bert_style_score(c, a, TIED),
)


class TestScoreBatch:
    @pytest.mark.parametrize("name", sorted(TWINNED))
    @given(anchor=TOKENS, candidates=st.lists(TOKENS, max_size=30), block=st.sampled_from([1, 7]))
    def test_bitwise_equal_to_the_scalar_twin(self, name, anchor, candidates, block):
        metric, twin = TWINNED[name]
        if name == "coverage" and not anchor:
            # Coverage has no empty-source score; the metric refuses it as its twin does.
            for score in (
                lambda: twin(anchor, ()),
                lambda: metric(anchor, ()),
                lambda: metric.score_batch(anchor, [()]),
            ):
                with pytest.raises(ConfigurationError, match="source must be non-empty"):
                    score()
            return
        expected = [twin(anchor, tuple(c)) for c in candidates]
        for cap in (block, scoring.SCORE_BLOCK_ELEMENTS):
            # A small block cap splits every length group into many blocks.
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(scoring, "SCORE_BLOCK_ELEMENTS", cap)
                scores = metric.score_batch(anchor, candidates)
                arrays = [
                    (ks, metric.score_batch(anchor, group))
                    for ks, group in length_groups(candidates)
                ]
            assert all(type(s) is float for s in scores)
            assert float_bits(scores) == float_bits(expected)
            for ks, group_scores in arrays:
                assert all(type(s) is float for s in group_scores)
                assert float_bits(group_scores) == float_bits([expected[k] for k in ks])

    @pytest.mark.parametrize("dim", [1, 3, 8])
    @given(anchor=TOKENS, candidates=st.lists(TOKENS, max_size=30))
    def test_alignment_bitwise_equal_to_the_loop(self, dim, anchor, candidates):
        emb = SeededUnitEmbeddings(dim=dim, seed=dim)
        for ks, group in length_groups(candidates):
            expected = [loop_bert_style_score(candidates[k], anchor, emb) for k in ks]
            assert float_bits(scoring.bert_style_scores(group, anchor, emb)) == float_bits(expected)

    @pytest.mark.parametrize("name", METRICS)
    @given(anchor=st.lists(st.integers(0, 3), min_size=1, max_size=6), candidate=TOKENS)
    def test_a_call_is_a_batch_of_one(self, name, anchor, candidate):
        metric = MetricSpec(name=name).build()
        for c in (candidate, ()):
            score = metric(anchor, c)
            assert type(score) is float
            assert float_bits([score]) == float_bits(metric.score_batch(anchor, [c]))

    def test_more_candidates_than_one_block(self):
        metric, _ = TWINNED["bertscore"]
        rng = np.random.default_rng(4)
        anchor = tuple(rng.integers(0, 6, size=6).tolist())
        per_block = scoring.SCORE_BLOCK_ELEMENTS // (6 * 6)
        candidates = [tuple(row) for row in rng.integers(0, 6, size=(per_block + 50, 6)).tolist()]
        candidates += [(), (1,), (2, 2)]
        expected = [metric(anchor, c) for c in candidates]
        assert float_bits(metric.score_batch(anchor, candidates)) == float_bits(expected)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_a_non_finite_score_is_refused_by_name(self, bad):
        def fn(anchor, candidates):
            return [bad if row == [2, 1] else 0.5 for row in candidates.tolist()]

        metric = Metric("flaky", False, fn=fn)
        refusal = re.escape(f"metric 'flaky' scored candidate (2, 1) as {bad}")
        with pytest.raises(ContractViolation, match=refusal):
            metric([0], [2, 1])
        with pytest.raises(ContractViolation, match=refusal):
            metric.score_batch([0], [[1], [2, 1], [2, 1]])
        assert metric.score_batch([0], [[1], [2]]) == [0.5, 0.5]

    @pytest.mark.parametrize(
        "fn, extra",
        [
            (lambda a, cs: [len(c) / 4 for c in cs][1:], -1),  # drops its first score
            (lambda a, cs: [len(c) / 4 for c in cs] + [0.0], 1),  # appends one
        ],
        ids=["short", "long"],
    )
    def test_a_batch_result_of_the_wrong_length_is_refused(self, fn, extra):
        metric = Metric("miscounted", False, fn=fn)

        def refusal(n):
            return re.escape(f"metric 'miscounted' returned {n + extra} scores for a batch of {n}")

        with pytest.raises(ContractViolation, match=refusal(1)):
            metric([0], [1])
        for candidates in ([[1], [2], [0]], np.array([[1], [2], [0]])):
            with pytest.raises(ContractViolation, match=refusal(3)):
                metric.score_batch([0], candidates)

    @pytest.mark.parametrize(
        "candidates",
        [
            np.array([1, 2]),
            np.array([[0.5]]),
            np.zeros((1, 1, 1), int),
            # Lists whose first candidate's tokens make no integer array: refused, not
            # truncated, beside integer candidates of the same and of other lengths.
            [(1.5,)],
            [("3",), (1,)],
            [(True,), (1, 2)],
            [(0, 2.0), (1, 2)],
            [((1, 2),)],
            # Beside an integer candidate of the same length: numpy would upcast the bool
            # and fail on the nested tokens by shape.
            [(True,), (1,)],
            [((1, 2),), (1,)],
            # A bool beside an integer in one candidate: numpy would upcast the bool.
            [(True, 1)],
        ],
    )
    def test_an_array_that_is_not_2d_integer_is_refused(self, candidates):
        metric = Metric("plain", False, fn=lambda a, cs: [0.5] * len(cs))
        refusal = "'plain' needs a 2-D integer candidate array"
        with pytest.raises(ContractViolation, match=refusal):
            metric.score_batch([0], candidates)
        if isinstance(candidates, list):
            with pytest.raises(ContractViolation, match=refusal):
                metric([0], candidates[0])
            with pytest.raises(ContractViolation, match=refusal.replace("plain", "coverage")):
                coverage_metric()((1, 2, 3), candidates[0])
        assert metric.score_batch([0], [(), (1,)]) == [metric([0], ()), metric([0], (1,))]

    def test_a_list_reaches_the_batch_function_as_one_array_per_length(self):
        seen = []
        metric = Metric("echo", False, fn=lambda a, cs: seen.append(cs) or [len(c) / 4 for c in cs])
        assert metric.score_batch([0], [(1, 2), (), [3], (4, 5)]) == [0.5, 0.0, 0.25, 0.5]
        assert metric([0], (6, 7)) == 0.5  # a call is one (1, L) array
        assert [cs.tolist() for cs in seen] == [[[]], [[3]], [[1, 2], [4, 5]], [[6, 7]]]
        assert all(cs.dtype.kind == "i" for cs in seen)

    def test_a_metric_is_a_name_a_flag_and_one_function(self):
        assert [f.name for f in dataclasses.fields(Metric)] == ["name", "privileged", "fn"]
        assert all(type(MetricSpec(name=name).build()) is Metric for name in METRICS)


class TestToyMetrics:
    def test_occupancy(self):
        occ = occupancy_metric(0, 3)
        assert occ((), (0, 0, 0)) == 1.0
        assert occ((), ()) == 0.0
        assert occ((), (1, 0)) == pytest.approx(1 / 3)
        assert occ((), (0,) * 9) == 1.0  # clamped

    def test_coverage(self):
        cov = coverage_metric()
        assert cov((0, 1), (0, 1, 5)) == 1.0
        assert cov((0, 1), (4, 5)) == 0.0
        assert cov((0, 1), (0, 0, 0)) == 0.5
        with pytest.raises(ValueError):
            cov((), (0,))

    def test_metric_wrappers_clamp_and_tag(self):
        occ = occupancy_metric(0, 2)
        cov = coverage_metric()
        assert not occ.privileged and not cov.privileged
        assert occ((9, 9), (0, 0, 0, 0)) == 1.0
        assert cov((0, 1), (1,)) == 0.5

    @given(st.lists(st.integers(0, 4), max_size=8))
    def test_occupancy_range(self, tokens):
        assert 0.0 <= occupancy_metric(0, 3)((), tokens) <= 1.0
