from __future__ import annotations

import json

import pytest

from seqdecode import Instance, load_report, save_dataset
from seqdecode.cli import main


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
        report = load_report(out)
        assert {c.instance_id for c in report.cells} == {"a", "b"}

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
        report = load_report(out)
        assert set(report.aggregates) == {("greedy", 1), ("greedy", 4), ("mcts", 1), ("mcts", 4)}


class TestOracle:
    def test_writes_exact_baselines(self, dataset_path, tmp_path):
        out = tmp_path / "oracle.json"
        code = run("oracle", "--dataset", dataset_path, "--out", out)
        assert code == 0
        rows = json.loads(out.read_text())
        assert [r["id"] for r in rows] == ["a", "b"]
        assert all("argmax_likelihood" in r and "argmax_metric" in r for r in rows)


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

    def test_out_of_vocabulary_sweep_fails_before_any_model(self, tmp_path, monkeypatch):
        import seqdecode.harness as harness

        built = []
        monkeypatch.setattr(harness, "_build_model", lambda *args: built.append(args))
        path = tmp_path / "oov.jsonl"
        save_dataset([Instance("x", (5, 6))], path)
        code = run(
            "sweep", "--dataset", path, "--vocab-size", 3,
            "--algorithms", "greedy,mcts", "--budgets", "1", "--out", tmp_path / "x.json",
        )
        assert code == 1
        assert built == []

    def test_missing_reference_fails_before_any_enumeration(self, tmp_path, monkeypatch, capsys):
        import seqdecode.cli as cli

        calls = []
        original = cli.exact_argmax_metric
        monkeypatch.setattr(
            cli, "exact_argmax_metric", lambda *args: calls.append(args) or original(*args)
        )
        path = tmp_path / "refs.jsonl"
        save_dataset([Instance("a", (0, 1), reference=(0, 1)), Instance("b", (1, 0))], path)
        code = run("oracle", "--dataset", path, "--metric", "bleu", "--out", tmp_path / "x")
        assert code == 1
        assert "'b'" in capsys.readouterr().err
        assert calls == []

    def test_tree_missing_reference_fails_before_any_model(self, tmp_path, monkeypatch, capsys):
        import seqdecode.cli as cli

        built = []
        monkeypatch.setattr(cli, "_build_model", lambda *args: built.append(args))
        path = tmp_path / "refs.jsonl"
        save_dataset([Instance("b", (1, 0))], path)
        code = run("tree", "--dataset", path, "--metric", "bleu", "--out", tmp_path / "x.dot")
        assert code == 1
        assert "'b'" in capsys.readouterr().err
        assert built == []

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
