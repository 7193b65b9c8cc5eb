from __future__ import annotations

import hashlib
import json
import re

import pytest

from seqdecode import (
    AlgorithmSpec,
    DecodeState,
    Instance,
    MetricSpec,
    ModelSpec,
    PolicyValueModel,
    save_dataset,
)
from seqdecode import cli, harness
from seqdecode.cli import main

from conftest import count_calls


@pytest.fixture
def dataset_path(tmp_path):
    path = tmp_path / "data.jsonl"
    save_dataset(
        [
            Instance("a", (0, 1), reference=(0, 0, 0)),
            Instance("b", (1, 0), reference=(0, 0)),
        ],
        path,
    )
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestDecode:
    def test_greedy_decode_writes_report(self, dataset_path, tmp_path):
        out = tmp_path / "report.json"
        code = run(
            "decode", "--dataset", dataset_path, "--algorithm", "greedy",
            "--metric", "occupancy", "--metric-target", 0, "--metric-horizon", 3,
            "--out", out,
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert {c["instance_id"] for c in report["cells"]} == {"a", "b"}

    def test_table_format(self, dataset_path, tmp_path):
        out = tmp_path / "report.txt"
        code = run(
            "decode", "--dataset", dataset_path, "--algorithm", "beam",
            "--budget", 4, "--theta", "1.0", "--out", out, "--format", "table",
        )
        assert code == 0
        assert out.read_text().startswith("budget")


class TestSweep:
    def test_grid_over_algorithms_and_budgets(self, dataset_path, tmp_path):
        out = tmp_path / "sweep.json"
        code = run(
            "sweep", "--dataset", dataset_path,
            "--algorithms", "greedy,mcts", "--budgets", "1,4",
            "--out", out,
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert {(a["algorithm"], a["budget"]) for a in report["aggregates"]} == {
            ("greedy", 1), ("greedy", 4), ("mcts", 1), ("mcts", 4)
        }


class TestOracle:
    def test_writes_exact_baselines(self, dataset_path, tmp_path):
        out = tmp_path / "oracle.json"
        code = run("oracle", "--dataset", dataset_path, "--out", out)
        assert code == 0
        rows = json.loads(out.read_text())
        assert [r["id"] for r in rows] == ["a", "b"]
        assert all("argmax_likelihood" in r and "argmax_metric" in r for r in rows)

    def test_value_noise_leaves_the_report_alone_and_builds_no_state(
        self, dataset_path, tmp_path, monkeypatch
    ):
        # The oracles read priors alone, so a noisy value head changes no byte, and
        # the wrapped table's priors are gathered off the walk's prefix arrays.
        flags = ("--vocab-size", 4, "--max-len", 4, "--context-order", 1, "--metric", "bertscore")
        plain, noisy = tmp_path / "plain.json", tmp_path / "noisy.json"
        assert run("oracle", "--dataset", dataset_path, *flags, "--out", plain) == 0
        reads = count_calls(monkeypatch, PolicyValueModel, "priors")
        roots = count_calls(monkeypatch, PolicyValueModel, "initial_state")
        built = count_calls(monkeypatch, DecodeState, "__post_init__")
        noisy_flags = (*flags, "--value-noise", 0.2)
        assert run("oracle", "--dataset", dataset_path, *noisy_flags, "--out", noisy) == 0
        assert noisy.read_bytes() == plain.read_bytes()
        assert reads == []
        # Besides the roots, a state is built, checked, only for each table row drawn, to
        # name it should the row be refused: the empty context and the three tokens.
        rows = sorted(state.prefix for (state,) in built)
        assert rows == sorted([()] * len(roots) + [(), (0,), (1,), (2,)])


class TestParser:
    def test_one_parser_serves_every_call(self, dataset_path, tmp_path, monkeypatch):
        # The parser is built once per process; one call's flags do not leak into the next.
        parsed = []
        monkeypatch.setattr(cli, "_cmd_decode", lambda args: parsed.append(args) or 0)
        argv = ("decode", "--algorithm", "greedy", "--dataset", dataset_path, "--out", tmp_path)
        assert run(*argv, "--format", "table", "--metric", "bleu") == 0
        assert run(*argv) == 0
        assert [(args.format, args.metric) for args in parsed] == [
            ("table", "bleu"),
            ("json", "occupancy"),
        ]
        assert cli.build_parser() is cli.build_parser()


class TestTree:
    def test_writes_dot_file(self, dataset_path, tmp_path):
        out = tmp_path / "tree.dot"
        code = run(
            "tree", "--dataset", dataset_path, "--instance-id", "a",
            "--simulations", 3, "--out", out,
        )
        assert code == 0
        text = out.read_text()
        assert text.startswith("digraph mcts {")
        assert text.count("->") == 3

    def test_zero_simulations_is_the_root_alone(self, dataset_path, tmp_path):
        out = tmp_path / "tree.dot"
        code = run("tree", "--dataset", dataset_path, "--simulations", 0, "--out", out)
        assert code == 0
        assert "->" not in out.read_text()

    @pytest.mark.parametrize(
        "flags, digest",
        [
            (("--simulations", 60),
             "f471eeba73687b0b9a13842d451616d4da78a550de18b26e16ceabd7dda9dd41"),
            (("--simulations", 80, "--backup", "max"),
             "c5673303a3dab32f8769a14301eaff9a270e81add55b297655d71e5e98880148"),
            (("--simulations", 40, "--value-source", "rollout"),
             "d647b5faf194b7e57e6cd566af9b89b1b5297e640b7cbc4140366dcef5d93b56"),
            (("--simulations", 300),
             "54ce94afc6a23a40271f61ac94d8d167ae630e3aa395932e6607713ee0365093"),
            (("--simulations", 120, "--instance-id", "b", "--c-puct", 0.3,
              "--root-selection", "max_value"),
             "fe4f2b3c012459658af4bc5eecbc2865244829a54029481a7c7706cbd2eddfa7"),
        ],
        ids=["average", "max", "rollout", "deep", "instance-b"],
    )
    def test_dot_bytes_are_pinned(self, tmp_path, flags, digest):
        # Golden DOT files: any change to the arena's statistics or tree shape shows here.
        data = tmp_path / "data.jsonl"
        data.write_text(
            '{"id": "a", "source": [1, 2, 3], "reference": [1, 2, 3, 4]}\n'
            '{"id": "b", "source": [0, 5], "reference": [5, 0]}\n',
            encoding="utf-8",
        )
        out = tmp_path / "tree.dot"
        code = run(
            "tree", "--dataset", data, "--vocab-size", 8, "--max-len", 5,
            "--context-order", 1, "--metric", "coverage", *flags, "--out", out,
        )
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        # EOS (id 7 of V=8) ends the episode: no edge leaves a node entered by it.
        text = out.read_text()
        terminal = set(re.findall(r'  (n\d+) \[label="token 7\\n', text))
        sources = re.findall(r"  (n\d+) -> n\d+", text)
        assert terminal and sources and terminal.isdisjoint(sources)


class TestModelConstruction:
    @pytest.mark.parametrize(
        "argv",
        [
            ("decode", "--algorithm", "vgbs", "--budget", 4),
            ("sweep", "--algorithms", "greedy,sample_rerank_value,mcts", "--budgets", "1,3"),
            ("oracle",),
            ("tree", "--simulations", 4),
        ],
        ids=lambda argv: argv[0],
    )
    def test_each_command_builds_one_provider(self, dataset_path, tmp_path, monkeypatch, argv):
        from seqdecode.models import ModelSpec

        built = count_calls(monkeypatch, ModelSpec, "build")
        code = run(*argv, "--dataset", dataset_path, "--value-noise", 0.1, "--out", tmp_path / "x")
        assert code == 0
        assert len(built) == 1


class TestDefaults:
    @pytest.mark.parametrize(
        "argv, names",
        [
            (("decode", "--algorithm", "beam"), ("beam",)),
            (
                ("sweep", "--algorithms", "greedy,vgbs,mcts", "--budgets", 2),
                ("greedy", "vgbs", "mcts"),
            ),
            (("tree",), ("mcts",)),
        ],
        ids=["decode", "sweep", "tree"],
    )
    def test_flag_defaults_are_the_spec_defaults(
        self, dataset_path, tmp_path, monkeypatch, argv, names
    ):
        # tree validates its config in cli; decode and sweep through run_experiment.
        in_cli = count_calls(monkeypatch, cli, "validate_run_config")
        in_harness = count_calls(monkeypatch, harness, "validate_run_config")
        assert run(*argv, "--dataset", dataset_path, "--out", tmp_path / "x") == 0
        [(cfg, _dataset)] = in_cli + in_harness
        assert cfg.model == ModelSpec()
        assert cfg.metric == MetricSpec()
        assert cfg.algorithms == tuple(AlgorithmSpec(name) for name in names)


class TestExitCodes:
    def test_configuration_error_is_one(self, dataset_path, tmp_path):
        code = run(
            "decode", "--dataset", dataset_path, "--algorithm", "sample_rerank",
            "--metric", "bleu", "--out", tmp_path / "x.json",
        )
        assert code == 1

    def test_out_of_vocabulary_source_names_the_id(self, tmp_path, capsys):
        # Id 4 is EOS at V=5; id 6 lies outside the vocabulary altogether.
        path = tmp_path / "oov.jsonl"
        save_dataset([Instance("ok", (0, 1), reference=(0,)), Instance("bad", (4, 6))], path)
        for command in ("oracle", "decode", "tree"):
            extra = ("--algorithm", "greedy") if command == "decode" else ()
            extra += ("--instance-id", "bad") if command == "tree" else ()
            code = run(
                command, "--dataset", path, "--vocab-size", 5, *extra, "--out", tmp_path / "x"
            )
            assert code == 1, command
            err = capsys.readouterr().err
            assert "'bad'" in err and "token id 6" in err, (command, err)
            assert "EOS may only appear" not in err

    def test_reference_with_an_inner_eos_is_one(self, tmp_path, monkeypatch, capsys):
        # Id 4 is EOS at V=5: it may end a reference, as it may end a source, but nothing else.
        roots = count_calls(monkeypatch, PolicyValueModel, "initial_state")
        path = tmp_path / "eos.jsonl"
        save_dataset(
            [Instance("ok", (0, 1), reference=(0, 4)), Instance("bad", (0,), (1, 4, 0))], path
        )
        for command in ("oracle", "decode", "tree"):
            extra = ("--algorithm", "greedy") if command == "decode" else ()
            extra += ("--instance-id", "bad") if command == "tree" else ()
            code = run(
                command, "--dataset", path, "--vocab-size", 5, "--metric", "bleu", *extra,
                "--out", tmp_path / "x",
            )
            assert code == 1, command
            err = capsys.readouterr().err
            assert "'bad'" in err and "EOS (id 4) may only end the reference" in err, (command, err)
        assert roots == []

    def test_out_of_vocabulary_sweep_fails_before_any_model(self, tmp_path, monkeypatch):
        decoded = count_calls(monkeypatch, PolicyValueModel, "initial_state")
        path = tmp_path / "oov.jsonl"
        save_dataset([Instance("x", (5, 6))], path)
        code = run(
            "sweep", "--dataset", path, "--vocab-size", 3,
            "--algorithms", "greedy,mcts", "--budgets", "1", "--out", tmp_path / "x.json",
        )
        assert code == 1
        assert decoded == []

    @pytest.mark.parametrize("target", [9, 3, -1])
    def test_occupancy_target_outside_the_content_ids_fails_before_any_decode(
        self, dataset_path, tmp_path, monkeypatch, capsys, target
    ):
        # At V=4 the content ids are 0..2; id 3 is EOS, which is stripped before scoring.
        decoded = count_calls(monkeypatch, PolicyValueModel, "initial_state")
        code = run(
            "sweep", "--dataset", dataset_path, "--vocab-size", 4, "--algorithms", "greedy,mcts",
            "--budgets", 2, "--metric", "occupancy", "--metric-target", target,
            "--out", tmp_path / "x.json",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and f"target {target} " in err, err
        assert decoded == []

    @pytest.mark.parametrize(
        "flags, problem",
        [
            (("--metric", "occupancy", "--metric-horizon", 0), "horizon must be >= 1"),
            (("--metric", "bleu", "--metric-max-n", 0), "max_n must be >= 1"),
        ],
    )
    def test_bad_metric_parameters_fail_before_any_decode(
        self, dataset_path, tmp_path, monkeypatch, capsys, flags, problem
    ):
        decoded = count_calls(monkeypatch, PolicyValueModel, "initial_state")
        code = run(
            "sweep", "--dataset", dataset_path, "--algorithms", "greedy", "--budgets", 1,
            *flags, "--out", tmp_path / "x.json",
        )
        assert code == 1
        assert problem in capsys.readouterr().err
        assert decoded == []

    def test_missing_reference_fails_before_any_enumeration(self, tmp_path, monkeypatch, capsys):
        import seqdecode.cli as cli

        calls = count_calls(monkeypatch, cli, "exact_argmax_likelihood")
        calls += count_calls(monkeypatch, cli, "exact_argmax_metric")
        path = tmp_path / "refs.jsonl"
        save_dataset([Instance("a", (0, 1), reference=(0, 1)), Instance("b", (1, 0))], path)
        code = run("oracle", "--dataset", path, "--metric", "bleu", "--out", tmp_path / "x")
        assert code == 1
        assert "'b'" in capsys.readouterr().err
        assert calls == []

    def test_tree_missing_reference_fails_before_any_model(self, tmp_path, monkeypatch, capsys):
        import seqdecode.cli as cli

        searches = count_calls(monkeypatch, cli, "ArenaSearch")
        path = tmp_path / "refs.jsonl"
        save_dataset([Instance("b", (1, 0))], path)
        code = run("tree", "--dataset", path, "--metric", "bleu", "--out", tmp_path / "x.dot")
        assert code == 1
        assert "'b'" in capsys.readouterr().err
        assert searches == []

    @pytest.mark.parametrize("command", ["sweep", "oracle"])
    @pytest.mark.parametrize(
        "flags", [("--max-len", 0), ("--vocab-size", 1), ("--value-noise", -1)]
    )
    def test_bad_model_flags_fail_on_an_empty_dataset(self, tmp_path, command, flags):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        extra = ("--algorithms", "greedy", "--budgets", 1) if command == "sweep" else ()
        code = run(command, "--dataset", path, *extra, *flags, "--out", tmp_path / "x.json")
        assert code == 1

    @pytest.mark.parametrize(
        "lines, flags",
        [
            (['{"id": "a", "source": [0]}'], ("--algorithm", "mcts", "--c-puct", 0)),
            (['{"id": "a", "source": [0]}', "not json"], ("--algorithm", "greedy")),
            (['{"id": "a", "source": [0]}'] * 2, ("--algorithm", "greedy")),
            (['{"id": "a", "source": [2, 0]}'], ("--algorithm", "greedy")),
            (['{"id": "a", "source": [0]}'], ("--algorithm", "beam", "--theta", -1)),
            (['{"id": "a", "source": [0]}'], ("--algorithm", "greedy", "--max-len", 0)),
            (['{"id": "a", "source": [0]}'], ("--algorithm", "greedy", "--value-noise", -1)),
        ],
    )
    def test_user_input_errors_are_one(self, tmp_path, capsys, lines, flags):
        path = tmp_path / "data.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run("decode", "--dataset", path, *flags, "--out", tmp_path / "x.json")
        assert code == 1
        assert capsys.readouterr().err.startswith("configuration error: ")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "algorithm, flag",
        [
            ("mcts", "--c-puct"),
            ("mcts", "--tau"),
            ("beam", "--theta"),
            ("sample_rerank", "--tau"),
            ("greedy", "--value-noise"),
        ],
    )
    def test_non_finite_flags_fail_before_any_model(
        self, tmp_path, monkeypatch, capsys, algorithm, flag, value
    ):
        decoded = count_calls(monkeypatch, PolicyValueModel, "initial_state")
        path = tmp_path / "data.jsonl"
        save_dataset([Instance("a", (0, 1))], path)
        code = run(
            "sweep", "--dataset", path, "--vocab-size", 4, "--max-len", 3,
            "--algorithms", algorithm, "--budgets", 2, flag, value, "--out", tmp_path / "x.json",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "finite" in err, err
        assert decoded == []

    @pytest.mark.parametrize("command", ["sweep", "decode", "oracle", "tree"])
    @pytest.mark.parametrize(
        "flags, problem",
        [
            (("--model-seed", -1), "model seed must be >= 0, got -1"),
            (("--metric", "bertscore", "--embedding-seed", -1), "embedding seed must be >= 0"),
        ],
        ids=["model", "embedding"],
    )
    def test_negative_seed_fails_before_any_decode(
        self, dataset_path, tmp_path, monkeypatch, capsys, command, flags, problem
    ):
        roots = count_calls(monkeypatch, PolicyValueModel, "initial_state")
        extra = {
            "sweep": ("--algorithms", "greedy,mcts", "--budgets", 2),
            "decode": ("--algorithm", "greedy"),
        }.get(command, ())
        code = run(command, "--dataset", dataset_path, *extra, *flags, "--out", tmp_path / "x")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and problem in err, err
        assert roots == []

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("sweep", ("--algorithms", "greedy,mcts", "--budgets", "1,2")),
            ("oracle", ()),
            ("tree", ("--instance-id", "b")),
        ],
        ids=["sweep", "oracle", "tree"],
    )
    def test_coverage_of_an_empty_source_fails_before_any_decode(
        self, tmp_path, monkeypatch, capsys, command, extra
    ):
        roots = count_calls(monkeypatch, PolicyValueModel, "initial_state")
        path = tmp_path / "data.jsonl"
        save_dataset([Instance("a", (0,)), Instance("b", ())], path)
        code = run(
            command, "--dataset", path, "--metric", "coverage", *extra, "--out", tmp_path / "x"
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "'b'" in err, err
        assert roots == []

    def test_coverage_of_an_eos_only_source_fails_before_any_decode(
        self, tmp_path, monkeypatch, capsys
    ):
        # Id 2 is EOS at V=3. A source's closing EOS is not scored, so EOS alone covers nothing.
        roots = count_calls(monkeypatch, PolicyValueModel, "initial_state")
        path = tmp_path / "data.jsonl"
        save_dataset([Instance("a", (0, 2)), Instance("b", (2,))], path)
        code = run(
            "sweep", "--dataset", path, "--algorithms", "greedy", "--budgets", 1,
            "--metric", "coverage", "--out", tmp_path / "x",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "'b'" in err and "coverage needs a non-empty source" in err, err
        assert roots == []

    def test_non_object_dataset_line_is_one(self, tmp_path, capsys):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "a", "source": [0]}\n["x"]\n', encoding="utf-8")
        code = run("decode", "--dataset", path, "--algorithm", "greedy", "--out", tmp_path / "x")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "malformed dataset line 2" in err, err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--algorithms", "mcts,greedy,mcts", "--budgets", "2"), "algorithm 'mcts'"),
            (("--algorithms", "mcts", "--budgets", "2,3,2"), "budget 2"),
        ],
        ids=["algorithm", "budget"],
    )
    def test_repeated_sweep_value_fails_before_any_model(
        self, dataset_path, tmp_path, monkeypatch, capsys, flags, message
    ):
        builds = count_calls(monkeypatch, ModelSpec, "build")
        code = run("sweep", "--dataset", dataset_path, *flags, "--out", tmp_path / "x.json")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and f"{message} is given twice" in err, err
        assert builds == []

    @pytest.mark.parametrize(
        "command, extra, message",
        [
            ("sweep", ("--algorithms", "greedy,sample_rerank_value", "--budgets", "1,10001"),
             "budget 10001 exceeds the budget guard of 10000"),
            ("decode", ("--algorithm", "sample_rerank_value", "--budget", 10001),
             "budget 10001 exceeds the budget guard of 10000"),
            ("decode", ("--algorithm", "mcts", "--budget", 10001),
             "budget 10001 exceeds the budget guard of 10000"),
            ("tree", ("--simulations", 10001),
             "--simulations 10001 exceeds the budget guard of 10000"),
            ("sweep", ("--algorithms", "greedy,mcts", "--budgets", "1,0"),
             "budget must be >= 1, not 0"),
            ("decode", ("--algorithm", "mcts", "--budget", 0), "budget must be >= 1, not 0"),
            ("tree", ("--simulations", -1), "--simulations must be >= 0, not -1"),
        ],
        ids=["sweep", "decode-sample", "decode-mcts", "tree", "sweep-zero", "decode-zero",
             "tree-negative"],
    )
    def test_budget_above_the_guard_fails_before_any_model(
        self, dataset_path, tmp_path, monkeypatch, capsys, command, extra, message
    ):
        # A budget below its least value fails as early as one above the guard.
        builds = count_calls(monkeypatch, ModelSpec, "build")
        roots = count_calls(monkeypatch, PolicyValueModel, "initial_state")
        code = run(command, "--dataset", dataset_path, *extra, "--out", tmp_path / "x")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: "), err
        assert message in err, err
        assert builds == [] and roots == []

    def test_oversize_oracle_is_one(self, tmp_path, capsys):
        path = tmp_path / "data.jsonl"
        save_dataset([Instance("a", (0, 1))], path)
        code = run(
            "oracle", "--dataset", path, "--vocab-size", 8, "--max-len", 9,
            "--out", tmp_path / "x.json",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert "8^9 = 134217728" in err and "guard of 1000000" in err, err

    def test_tree_rollout_under_privileged_metric_fails_before_any_model(
        self, dataset_path, tmp_path, monkeypatch, capsys
    ):
        import seqdecode.cli as cli

        searches = count_calls(monkeypatch, cli, "ArenaSearch")
        code = run(
            "tree", "--dataset", dataset_path, "--value-source", "rollout", "--metric", "bleu",
            "--out", tmp_path / "x.dot",
        )
        assert code == 1
        assert "'mcts'" in capsys.readouterr().err
        assert searches == []

    @pytest.mark.parametrize("flag, value", [("--algorithms", ","), ("--budgets", "")])
    def test_empty_sweep_grid_is_one(self, dataset_path, tmp_path, capsys, flag, value):
        grid = {"--algorithms": "greedy", "--budgets": "1", flag: value}
        out = tmp_path / "x.json"
        code = run("sweep", "--dataset", dataset_path, *sum(grid.items(), ()), "--out", out)
        assert code == 1
        assert f"configuration error: {flag} " in capsys.readouterr().err
        assert not out.exists()

    def test_bad_budgets_and_encoding_are_one(self, dataset_path, tmp_path):
        code = run(
            "sweep", "--dataset", dataset_path, "--algorithms", "greedy", "--budgets", "1,x",
            "--out", tmp_path / "x.json",
        )
        assert code == 1
        latin = tmp_path / "latin.jsonl"
        latin.write_bytes(b'{"id": "\xe9", "source": [0]}\n')
        code = run("decode", "--dataset", latin, "--algorithm", "greedy", "--out", tmp_path / "y")
        assert code == 1

    def test_internal_value_error_is_not_a_configuration_error(
        self, dataset_path, tmp_path, monkeypatch, capsys
    ):
        import seqdecode.harness as harness

        def broken(*args, **kwargs):
            raise ValueError("internal bug")

        monkeypatch.setattr(harness, "greedy_decode", broken)
        with pytest.raises(ValueError, match="internal bug"):
            run(
                "decode", "--dataset", dataset_path, "--algorithm", "greedy",
                "--out", tmp_path / "x",
            )
        assert "configuration error" not in capsys.readouterr().err

    def test_io_error_is_two(self, tmp_path):
        code = run(
            "decode", "--dataset", tmp_path / "missing.jsonl", "--algorithm", "greedy",
            "--out", tmp_path / "x.json",
        )
        assert code == 2
