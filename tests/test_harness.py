from __future__ import annotations

import json
from dataclasses import replace

import pytest

from seqdecode import (
    AlgorithmSpec,
    ArenaSearch,
    ConfigurationError,
    Instance,
    MetricSpec,
    ModelSpec,
    PolicyValueModel,
    Report,
    RunConfig,
    SearchConfig,
    emit_report,
    export_tree,
    format_table,
    load_dataset,
    run_experiment,
    save_dataset,
    stable_cell_seed,
    vgbs_width_for_budget,
)
from seqdecode import harness
from seqdecode.harness import ALGORITHMS

from conftest import M0_PRIOR, A, count_calls

M0_SPEC = ModelSpec(prior=M0_PRIOR, max_len=3, vocab_size=3)
OCC = MetricSpec(name="occupancy", target=A, horizon=3)


def m0_dataset(n=4):
    return [Instance(id=f"inst-{i}", source=(0, 1)) for i in range(n)]


class TestLoadDataset:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_dataset(path) == []

    def test_instance_without_reference(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "1", "source": [0, 1]}\n', encoding="utf-8")
        (inst,) = load_dataset(path)
        assert inst == Instance(id="1", source=(0, 1), reference=None)

    def test_instance_with_reference(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "1", "source": [0], "reference": [0, 1]}\n', encoding="utf-8")
        assert load_dataset(path)[0].reference == (0, 1)

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "data.jsonl"
        bad_lines = (
            "not json",
            '{"id": "b", "source": [1.7, true]}',  # a float and a boolean are not token ids
            '{"id": "b", "source": ["3"]}',
            '{"id": "b", "source": [-1]}',
            '{"id": "b", "source": "12"}',
            '{"id": "b", "source": [0], "reference": [true]}',
            '{"id": "b", "source": [0], "reference": [2.0]}',
            '["x"]',  # valid JSON, but not an object
            "5",
            "null",
            '"s"',
            '{"id": null, "source": [0]}',  # an id is a JSON string or integer
            '{"id": true, "source": [0]}',
            '{"id": [1], "source": [0]}',
            '{"id": 1.5, "source": [0]}',
        )
        for bad in bad_lines:
            path.write_text('{"id": "1", "source": [0]}\n' + bad + "\n", encoding="utf-8")
            with pytest.raises(ValueError, match="malformed dataset line 2"):
                load_dataset(path)

    def test_integer_id_becomes_its_decimal_string(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": 7, "source": [0]}\n', encoding="utf-8")
        assert load_dataset(path)[0].id == "7"

    def test_missing_field_is_malformed(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "1"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            load_dataset(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "1", "source": [0]}\n{"id": "1", "source": [1]}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="duplicate"):
            load_dataset(path)

    def test_save_and_load_roundtrip(self, tmp_path):
        instances = [Instance("a", (0, 1), (1, 0)), Instance("b", (1,), None)]
        path = tmp_path / "data.jsonl"
        save_dataset(instances, path)
        assert load_dataset(path) == instances


class TestRunExperiment:
    def test_empty_dataset_gives_empty_report(self):
        report = run_experiment(RunConfig(model=M0_SPEC, metric=OCC), [])
        assert report.cells == [] and report.aggregates == {}

    def test_m0_greedy_vs_beam(self):
        cfg = RunConfig(
            model=M0_SPEC,
            metric=OCC,
            algorithms=(AlgorithmSpec("greedy"), AlgorithmSpec("beam", theta=1.0)),
            budgets=(8,),
        )
        report = run_experiment(cfg, m0_dataset(4))
        assert report.aggregates[("greedy", 8)]["mean_score"] == 1.0
        assert report.aggregates[("beam", 8)]["mean_score"] == 1.0
        assert report.aggregates[("greedy", 8)]["mean_evaluations_per_token"] == 1.0

    def test_repeated_algorithm_name_rejected_before_the_model(self, monkeypatch):
        # Differently configured specs of one algorithm would share cell seeds and a row key.
        builds = count_calls(monkeypatch, ModelSpec, "build")
        cfg = RunConfig(
            model=M0_SPEC,
            metric=OCC,
            algorithms=(AlgorithmSpec("mcts", c_puct=0.1), AlgorithmSpec("mcts", c_puct=5.0)),
            budgets=(4,),
        )
        with pytest.raises(ConfigurationError, match="algorithm 'mcts' is given twice"):
            run_experiment(cfg, m0_dataset(2))
        assert builds == []

    def test_vgbs_accounting_closed_form(self):
        budget = 10  # smallest k with k + k^2 >= 10 is 3
        assert vgbs_width_for_budget(budget) == 3
        cfg = RunConfig(
            model=ModelSpec(prior=(0.4, 0.25, 0.15, 0.1, 0.1), max_len=3),
            metric=MetricSpec(name="occupancy", target=0, horizon=3),
            algorithms=(AlgorithmSpec("vgbs", alpha=0.5),),
            budgets=(budget,),
        )
        report = run_experiment(cfg, m0_dataset(2))
        for cell in report.cells:
            assert cell.evaluations == cell.tokens * (3 + 9)

    def test_mcts_accounting_closed_form(self):
        cfg = RunConfig(
            model=M0_SPEC,
            metric=OCC,
            algorithms=(AlgorithmSpec("mcts", num_sparse_actions=3),),
            budgets=(6, 1, 3),
        )
        report = run_experiment(cfg, m0_dataset(2))
        assert [c.budget for c in report.cells] == [6, 1, 3] * 2
        for cell in report.cells:
            assert cell.evaluations == cell.tokens * (cell.budget + 1)

    def test_reports_are_deterministic(self, tmp_path):
        cfg = RunConfig(
            model=M0_SPEC,
            metric=OCC,
            algorithms=(AlgorithmSpec("sample_rerank"), AlgorithmSpec("greedy")),
            budgets=(4, 8),
            seed=3,
        )
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        emit_report(run_experiment(cfg, m0_dataset(3)), a)
        emit_report(run_experiment(cfg, m0_dataset(3)), b)
        assert a.read_bytes() == b.read_bytes()

    def test_aggregates_are_arithmetic_means(self):
        cfg = RunConfig(
            model=M0_SPEC,
            metric=OCC,
            algorithms=(AlgorithmSpec("sample_rerank"),),
            budgets=(4,),
        )
        report = run_experiment(cfg, m0_dataset(5))
        cells = [c for c in report.cells if c.budget == 4]
        mean = sum(c.score for c in cells) / len(cells)
        assert abs(report.aggregates[("sample_rerank", 4)]["mean_score"] - mean) < 1e-9

    def test_cells_ordered_by_instance_id(self):
        dataset = [Instance("b", (0,)), Instance("a", (0,)), Instance("c", (0,))]
        report = run_experiment(RunConfig(model=M0_SPEC, metric=OCC), dataset)
        assert [c.instance_id for c in report.cells] == ["a", "b", "c"]

    def test_score_rerank_with_privileged_metric_rejected(self):
        cfg = RunConfig(
            model=M0_SPEC,
            metric=MetricSpec(name="bleu"),
            algorithms=(AlgorithmSpec("sample_rerank"),),
        )
        dataset = [Instance("a", (0,), reference=(0, 0))]
        with pytest.raises(ConfigurationError):
            run_experiment(cfg, dataset)

    def test_rollout_mcts_with_privileged_metric_rejected(self):
        cfg = RunConfig(
            model=M0_SPEC,
            metric=MetricSpec(name="bleu"),
            algorithms=(AlgorithmSpec("mcts", value_source="rollout"),),
        )
        dataset = [Instance("a", (0,), reference=(0, 0))]
        with pytest.raises(ConfigurationError):
            run_experiment(cfg, dataset)

    def test_vgbs_width_above_vocabulary_rejected_before_any_decode(self, monkeypatch):
        decoded = count_calls(monkeypatch, PolicyValueModel, "initial_state")
        # A fixed prior sets the vocabulary (3 here), whatever vocab_size says.
        for model in (ModelSpec(vocab_size=3), ModelSpec(prior=M0_PRIOR, vocab_size=8)):
            cfg = RunConfig(
                model=model,
                metric=OCC,
                algorithms=(AlgorithmSpec("greedy"), AlgorithmSpec("vgbs")),
                budgets=(1, 50),  # budget 50 implies width 7 > 3
            )
            with pytest.raises(ConfigurationError, match="beam width 7 > vocabulary size 3"):
                run_experiment(cfg, m0_dataset(2))
        assert decoded == []

    @pytest.mark.parametrize(
        "algorithms, option",
        [
            (("greedy", "beam", "mcts"), {"c_puct": 0.0}),
            (("greedy", "vgbs"), {"alpha": 2.0}),
            (("greedy", "sample_rerank"), {"tau": 0.0}),
            (("vgbs",), {"value_source": "rolout"}),
            # A bool or a non-number is not a real setting, though True == 1.0.
            (("greedy", "beam"), {"theta": "1"}),
            (("greedy", "beam"), {"theta": True}),
            (("greedy", "mcts"), {"c_puct": True}),
            (("greedy", "mcts"), {"tau": True}),
            (("greedy", "sample_rerank"), {"tau": True}),
            (("greedy", "vgbs"), {"alpha": True}),
        ],
    )
    def test_cell_config_errors_raise_before_any_decode(self, monkeypatch, algorithms, option):
        decoded = count_calls(monkeypatch, PolicyValueModel, "initial_state")
        with pytest.raises(ConfigurationError, match=f"^(unknown|{'|'.join(option)}|temperature) "):
            cfg = RunConfig(
                model=M0_SPEC,
                metric=OCC,
                algorithms=tuple(AlgorithmSpec(name, **option) for name in algorithms),
                budgets=(1, 2),
            )
            run_experiment(cfg, m0_dataset(2))
        assert decoded == []

    @pytest.mark.parametrize(
        "model, metric, seed, field",
        [
            (ModelSpec(vocab_size=4.0), OCC, 0, "vocab_size"),
            (ModelSpec(max_len=2.5), OCC, 0, "max_len"),
            (ModelSpec(max_len=True), OCC, 0, "max_len"),
            (ModelSpec(context_order=1.5), OCC, 0, "context_order"),
            (ModelSpec(seed=1.5), OCC, 0, "model seed"),
            (ModelSpec(seed=True), OCC, 0, "model seed"),
            (ModelSpec(prior=M0_PRIOR, seed=1.5, value_noise=0.1), OCC, 0, "model seed"),
            (ModelSpec(), MetricSpec("occupancy", target=0.5), 0, "occupancy target"),
            (ModelSpec(), MetricSpec("occupancy", horizon=2.5), 0, "horizon"),
            (ModelSpec(), MetricSpec("bleu", max_n=2.5), 0, "max_n"),
            (ModelSpec(), MetricSpec("bertscore", embedding_dim=2.5), 0, "dim"),
            (ModelSpec(), MetricSpec("mlbertscore", embedding_seed=1.5), 0, "embedding seed"),
            (ModelSpec(), OCC, 1.5, "seed"),
            (ModelSpec(value_noise=True), OCC, 0, "value_noise"),
            (ModelSpec(value_noise=False), OCC, 0, "value_noise"),
            (ModelSpec(prior=M0_PRIOR, value_noise=True), OCC, 0, "value_noise"),
        ],
        ids=[
            "vocab_size=4.0", "max_len=2.5", "max_len=True", "context_order=1.5", "seed=1.5",
            "seed=True", "prior-seed=1.5", "target=0.5", "horizon=2.5", "max_n=2.5",
            "embedding_dim=2.5", "embedding_seed=1.5", "run-seed=1.5", "value_noise=True",
            "value_noise=False", "prior-value_noise=True",
        ],
    )
    def test_non_integer_spec_fields_raise_before_any_decode(
        self, monkeypatch, model, metric, seed, field
    ):
        # A bool is not an integer, nor is a float of integral value.
        decoded = count_calls(monkeypatch, PolicyValueModel, "initial_state")
        cfg = RunConfig(
            model=model, metric=metric, algorithms=(AlgorithmSpec("greedy"),), seed=seed
        )
        dataset = [Instance("a", (0, 1), reference=(0, 1))]
        with pytest.raises(ConfigurationError, match=f"^{field} "):
            run_experiment(cfg, dataset)
        assert decoded == []

    @pytest.mark.parametrize("algorithm", ["greedy", "vgbs", "sample_rerank", "mcts"])
    @pytest.mark.parametrize("budgets", [(1.5,), (True,), (1, 2.0)], ids=["1.5", "True", "2.0"])
    def test_non_integer_budgets_raise_before_any_decode(self, monkeypatch, algorithm, budgets):
        decoded = count_calls(monkeypatch, PolicyValueModel, "initial_state")
        cfg = RunConfig(algorithms=(AlgorithmSpec(algorithm),), budgets=budgets)
        with pytest.raises(ConfigurationError, match="^budget must be an integer, not "):
            run_experiment(cfg, [Instance("a", (0, 1))])
        assert decoded == []

    @pytest.mark.parametrize(
        "instance_id, source, reference, message",
        [
            ("b", (-1,), None, "'b': source token id -1 is not"),
            ("b", (True, 1), None, "'b': source token id True is not"),
            ("b", (1.0, 1), None, "'b': source token id 1.0 is not"),
            ("b", (0, 1), (0, -2), "'b': reference token id -2 is not"),
            ("a", (1, 0), None, "instance id 'a' is given twice"),
            (1, (1, 0), None, "instance id 1 is not a string"),
            (b"b", (1, 0), None, "instance id b'b' is not a string"),
        ],
        ids=[
            "negative", "bool", "float", "negative-reference", "duplicate-id", "int-id", "bytes-id"
        ],
    )
    def test_bad_instances_raise_before_any_decode(
        self, monkeypatch, instance_id, source, reference, message
    ):
        decoded = count_calls(monkeypatch, PolicyValueModel, "initial_state")
        dataset = [Instance("a", (0, 1)), Instance(instance_id, source, reference=reference)]
        with pytest.raises(ConfigurationError, match=message):
            run_experiment(RunConfig(), dataset)
        assert decoded == []

    def test_negative_value_noise_rejected(self):
        # A fixed prior takes the model-building branch that the CLI test does not reach.
        cfg = RunConfig(model=ModelSpec(prior=M0_PRIOR, value_noise=-0.5), metric=OCC)
        with pytest.raises(ConfigurationError, match="^value_noise must be a finite number >= 0"):
            run_experiment(cfg, m0_dataset(1))

    def test_fixed_prior_accepts_a_negative_seed(self):
        # A fixed prior uses the seed only to hash its value noise.
        cfg = RunConfig(model=ModelSpec(prior=M0_PRIOR, seed=-1, value_noise=0.1), metric=OCC)
        assert len(run_experiment(cfg, m0_dataset(1)).cells) == 1

    def test_out_of_vocabulary_reference_rejected(self):
        # A fixed prior of length 3 makes id 3 out of vocabulary, whatever vocab_size says.
        cfg = RunConfig(model=ModelSpec(prior=M0_PRIOR, vocab_size=8), metric=OCC)
        dataset = [Instance("a", (0,), reference=(0, 3))]
        with pytest.raises(ConfigurationError, match="'a': reference token id 3"):
            run_experiment(cfg, dataset)

    def test_privileged_metric_requires_references(self):
        cfg = RunConfig(model=M0_SPEC, metric=MetricSpec(name="bleu"))
        with pytest.raises(ConfigurationError, match="reference"):
            run_experiment(cfg, [Instance("a", (0,))])

    def test_privileged_metric_with_references_runs(self):
        cfg = RunConfig(
            model=M0_SPEC,
            metric=MetricSpec(name="bleu", max_n=1),
            algorithms=(AlgorithmSpec("greedy"), AlgorithmSpec("sample_rerank_value")),
            budgets=(4,),
        )
        dataset = [Instance("a", (0,), reference=(0, 0, 0))]
        report = run_experiment(cfg, dataset)
        greedy = [c for c in report.cells if c.algorithm == "greedy"][0]
        assert greedy.sequence == (0, 0, 0, 2)
        assert greedy.score == 1.0


class TestSharedModel:
    """A run decodes every cell with one provider; before, each cell built its own."""

    @pytest.mark.parametrize(
        "metric, algorithm_options, value_noise",
        [
            ("coverage", {}, 0.0),
            ("coverage", {}, 0.2),
            ("coverage", {"value_source": "rollout"}, 0.0),
            ("bleu", {"backup": "max"}, 0.0),
        ],
        ids=["coverage", "value_noise", "rollout", "bleu"],
    )
    def test_run_equals_one_cell_runs_on_fresh_models(
        self, tmp_path, metric, algorithm_options, value_noise
    ):
        names = [n for n in ALGORITHMS if not (metric == "bleu" and n == "sample_rerank")]
        cfg = RunConfig(
            model=ModelSpec(seed=1, vocab_size=5, max_len=4, context_order=1,
                            value_noise=value_noise),
            metric=MetricSpec(name=metric, max_n=2),
            algorithms=tuple(AlgorithmSpec(n, **algorithm_options) for n in names),
            budgets=(1, 6),
            seed=2,
        )  # fmt: skip
        # "a" and "b" share a source but not a reference.
        dataset = [
            Instance("b", (0, 1), reference=(1, 1)),
            Instance("a", (0, 1), reference=(0, 2, 3)),
            Instance("c", (3, 2, 1), reference=(2,)),
        ]
        one_cell_runs = Report(
            [
                cell
                for instance in sorted(dataset, key=lambda i: i.id)
                for algo in cfg.algorithms
                for budget in cfg.budgets
                for cell in run_experiment(
                    replace(cfg, algorithms=(algo,), budgets=(budget,)), [instance]
                ).cells
            ]
        )
        shared, fresh = tmp_path / "shared.json", tmp_path / "fresh.json"
        emit_report(run_experiment(cfg, dataset), shared)
        emit_report(one_cell_runs, fresh)
        assert shared.read_bytes() == fresh.read_bytes()


    @pytest.mark.parametrize(
        "metric, algorithm_options, value_noise",
        [
            ("coverage", {}, 0.0),
            ("coverage", {}, 0.2),
            (
                "coverage",
                {"value_source": "rollout", "backup": "max", "root_selection": "max_value"},
                0.0,
            ),
            ("bleu", {}, 0.0),
        ],
        ids=["coverage", "value_noise", "rollout_max", "bleu"],
    )
    def test_four_budget_run_equals_one_cell_runs_on_fresh_models(
        self, tmp_path, monkeypatch, metric, algorithm_options, value_noise
    ):
        # MCTS decodes an instance's four budgets in one batch; every cell must still be
        # what a run of that cell alone gives.
        names = [n for n in ALGORITHMS if not (metric == "bleu" and n == "sample_rerank")]
        cfg = RunConfig(
            model=ModelSpec(seed=1, vocab_size=5, max_len=4, context_order=1,
                            value_noise=value_noise),
            metric=MetricSpec(name=metric, max_n=2),
            algorithms=tuple(AlgorithmSpec(n, **algorithm_options) for n in names),
            budgets=(1, 3, 8, 20),
            seed=2,
        )  # fmt: skip
        dataset = [
            Instance("b", (0, 1), reference=(1, 1)),
            Instance("a", (0, 1), reference=(0, 2, 3)),
            Instance("c", (3, 2, 1), reference=(2,)),
        ]
        one_cell_runs = Report(
            [
                cell
                for instance in sorted(dataset, key=lambda i: i.id)
                for algo in cfg.algorithms
                for budget in cfg.budgets
                for cell in run_experiment(
                    replace(cfg, algorithms=(algo,), budgets=(budget,)), [instance]
                ).cells
            ]
        )
        calls = count_calls(monkeypatch, harness, "decode_mcts")
        shared, fresh = tmp_path / "shared.json", tmp_path / "fresh.json"
        emit_report(run_experiment(cfg, dataset), shared)
        emit_report(one_cell_runs, fresh)
        assert shared.read_bytes() == fresh.read_bytes()
        assert [len(args[1]) for args in calls] == [len(cfg.budgets)] * len(dataset)

    @pytest.mark.parametrize("value_noise", [0.0, 0.2], ids=["plain", "value_noise"])
    def test_value_cache_holds_one_instance(self, tmp_path, monkeypatch, value_noise):
        cfg = RunConfig(
            model=ModelSpec(seed=1, vocab_size=5, max_len=4, context_order=1,
                            value_noise=value_noise),
            metric=MetricSpec(name="coverage"),
            algorithms=tuple(AlgorithmSpec(n) for n in ALGORITHMS),
            budgets=(1, 6),
            seed=2,
        )  # fmt: skip
        # "a" and "b" share a source but not a reference.
        dataset = [
            Instance("b", (0, 1), reference=(1, 1)),
            Instance("a", (0, 1), reference=(0, 2, 3)),
            Instance("c", (3, 2, 1), reference=(2,)),
        ]
        kept, cleared = tmp_path / "kept.json", tmp_path / "cleared.json"
        with monkeypatch.context() as patch:
            patch.setattr(PolicyValueModel, "clear_value_cache", lambda self: None)
            emit_report(run_experiment(cfg, dataset), kept)

        held = []  # (model, memo keys) at each clear; a noisy model shares its inner memo
        clear = PolicyValueModel.clear_value_cache

        def memo_keys(model):
            scored = {key for scores in model._rewards.values() for key in scores}
            return set(model._completions) | scored

        def recording_clear(model):
            held.append((model, memo_keys(model)))
            clear(model)

        monkeypatch.setattr(PolicyValueModel, "clear_value_cache", recording_clear)
        emit_report(run_experiment(cfg, dataset), cleared)
        assert cleared.read_bytes() == kept.read_bytes()

        assert len(held) == len(dataset)  # one clear per instance
        for k, (instance, (model, keys)) in enumerate(
            zip(sorted(dataset, key=lambda i: i.id), held)
        ):
            assert keys, k
            assert {(source, reference) for source, reference, _ in keys} == {
                (instance.source, instance.reference)
            }, k
            assert not memo_keys(model), k


class TestSeedDerivation:
    def test_stable_across_processes(self):
        # Frozen value: the derivation must never drift between runs/platforms.
        assert stable_cell_seed(0, "inst-0", "greedy", 1) == 14432114905420959477

    def test_distinct_cells_get_distinct_seeds(self):
        seeds = {
            stable_cell_seed(0, inst, algo, budget)
            for inst in ("a", "b")
            for algo in ("greedy", "mcts")
            for budget in (1, 2)
        }
        assert len(seeds) == 8


class TestReportEmission:
    def _report(self):
        cfg = RunConfig(
            model=M0_SPEC,
            metric=OCC,
            algorithms=(AlgorithmSpec("greedy"), AlgorithmSpec("beam", theta=1.0)),
            budgets=(1, 4, 8),
        )
        return run_experiment(cfg, m0_dataset(2))

    def test_json_roundtrip(self, tmp_path):
        report = self._report()
        path = tmp_path / "report.json"
        emit_report(report, path, format="json")
        assert json.loads(path.read_text()) == report.to_dict()

    def test_table_layout(self, tmp_path):
        report = self._report()
        table = format_table(report)
        lines = table.splitlines()
        assert len(lines) == 4  # header + one row per budget
        header = lines[0].split()
        assert header == ["budget", "beam", "greedy"]
        for line in lines[1:]:
            cells = line.split()
            assert len(cells) == 3
            for value in cells[1:]:
                whole, frac = value.split(".")
                assert len(frac) == 4

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            emit_report(Report(), tmp_path / "x", format="xml")


class TestTreeExport:
    def _arena(self, sims):
        from conftest import make_m0
        from seqdecode import occupancy_metric

        model = make_m0(value_metric=occupancy_metric(0, 3))
        cfg = SearchConfig(num_simulations=sims, num_sparse_actions=3)
        arena = ArenaSearch(model, [model.initial_state(())], cfg)
        arena.run()
        return arena

    def test_zero_simulations_single_root(self, tmp_path):
        path = tmp_path / "tree.dot"
        export_tree(self._arena(0), path)
        text = path.read_text()
        assert text.count('label="root') == 1
        assert "->" not in text

    def test_node_and_edge_counts(self, tmp_path):
        path = tmp_path / "tree.dot"
        export_tree(self._arena(3), path)
        text = path.read_text()
        assert sum(1 for line in text.splitlines() if "[label=" in line and "->" not in line) == 4
        assert text.count("->") == 3

    def test_export_is_byte_deterministic(self, tmp_path):
        arena = self._arena(3)
        a, b = tmp_path / "a.dot", tmp_path / "b.dot"
        export_tree(arena, a)
        export_tree(arena, b)
        assert a.read_bytes() == b.read_bytes()
