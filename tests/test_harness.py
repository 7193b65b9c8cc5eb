from __future__ import annotations

import json

import pytest

from seqdecode import (
    AlgorithmSpec,
    ArenaSearch,
    ConfigurationError,
    Instance,
    MetricSpec,
    ModelSpec,
    Report,
    RunConfig,
    SearchConfig,
    emit_report,
    export_tree,
    format_table,
    load_dataset,
    load_report,
    run_experiment,
    save_dataset,
    stable_cell_seed,
    vgbs_width_for_budget,
)

from conftest import M0_PRIOR, A

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
        )
        for bad in bad_lines:
            path.write_text('{"id": "1", "source": [0]}\n' + bad + "\n", encoding="utf-8")
            with pytest.raises(ValueError, match="malformed dataset line 2"):
                load_dataset(path)

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
            budgets=(6,),
        )
        report = run_experiment(cfg, m0_dataset(2))
        for cell in report.cells:
            assert cell.evaluations == cell.tokens * (6 + 1)

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
        import seqdecode.harness as harness

        built = []
        real_build = harness._build_model
        monkeypatch.setattr(
            harness, "_build_model", lambda *args: built.append(args) or real_build(*args)
        )
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
        assert built == []

    @pytest.mark.parametrize(
        "algorithms, option",
        [
            (("greedy", "beam", "mcts"), {"c_puct": 0.0}),
            (("greedy", "vgbs"), {"alpha": 2.0}),
            (("greedy", "sample_rerank"), {"tau": 0.0}),
        ],
    )
    def test_cell_config_errors_raise_before_any_decode(self, monkeypatch, algorithms, option):
        import seqdecode.harness as harness

        built = []
        real_build = harness._build_model
        monkeypatch.setattr(
            harness, "_build_model", lambda *args: built.append(args) or real_build(*args)
        )
        cfg = RunConfig(
            model=M0_SPEC,
            metric=OCC,
            algorithms=tuple(AlgorithmSpec(name, **option) for name in algorithms),
            budgets=(1, 2),
        )
        with pytest.raises(ConfigurationError):
            run_experiment(cfg, m0_dataset(2))
        assert built == []

    def test_negative_value_noise_rejected(self):
        # A fixed prior takes the model-building branch that the CLI test does not reach.
        cfg = RunConfig(model=ModelSpec(prior=M0_PRIOR, value_noise=-0.5), metric=OCC)
        with pytest.raises(ConfigurationError, match="amplitude"):
            run_experiment(cfg, m0_dataset(1))

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
        assert load_report(path) == report

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
        arena = ArenaSearch(
            model, 1, SearchConfig(num_simulations=sims, num_sparse_actions=3)
        )
        arena.run([model.initial_state(())])
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
