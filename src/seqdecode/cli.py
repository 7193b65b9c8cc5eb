"""Command-line front end.

Subcommands:
  decode  one algorithm over a dataset at a single budget
  sweep   a budget grid over several algorithms
  oracle  exact likelihood/metric argmax baselines per instance
  tree    run one search and export the tree as DOT

Exit codes: 0 success, 1 configuration error (a bad, unknown or missing
flag included), 2 I/O error. Any other exception is a bug and propagates
with its traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

from .harness import (
    ALGORITHMS,
    METRICS,
    AlgorithmSpec,
    Instance,
    MetricSpec,
    ModelSpec,
    RunConfig,
    check_budget,
    emit_report,
    export_tree,
    load_dataset,
    run_experiment,
    validate_run_config,
)
from .mcts import BACKUP_RULES, ROOT_SELECTIONS, VALUE_SOURCES, ArenaSearch
from .mdp import ConfigurationError
from .oracle import exact_argmax_likelihood, exact_argmax_metric


class _Parser(argparse.ArgumentParser):
    """A usage error (bad, unknown or missing flag) is a configuration error, not exit 2."""

    def error(self, message: str):
        raise ConfigurationError(message)


# Each spec with its flags in --help order, flag -> the field it sets. A flag takes
# its default and type from that field; only choices and help are written here.
_MODEL = ModelSpec, {
    "--model-seed": "seed",
    "--vocab-size": "vocab_size",
    "--max-len": "max_len",
    "--context-order": "context_order",
    "--value-noise": "value_noise",
}
_METRIC = MetricSpec, {
    "--metric": "name",
    "--metric-target": "target",
    "--metric-horizon": "horizon",
    "--metric-max-n": "max_n",
    "--embedding-dim": "embedding_dim",
    "--embedding-seed": "embedding_seed",
}
_ALGORITHM = AlgorithmSpec, {
    "--theta": "theta",
    "--tau": "tau",
    "--alpha": "alpha",
    "--value-source": "value_source",
    "--sparse-actions": "num_sparse_actions",
    "--c-puct": "c_puct",
    "--backup": "backup",
    "--root-selection": "root_selection",
}
_FLAG_OPTIONS = {
    "--metric": {"choices": METRICS},
    "--theta": {"help": "beam length-normalization exponent"},
    "--tau": {"help": "sampling / mcts prior temperature"},
    "--alpha": {"help": "vgbs likelihood weight"},
    "--value-source": {"choices": VALUE_SOURCES},
    "--backup": {"choices": BACKUP_RULES},
    "--root-selection": {"choices": ROOT_SELECTIONS},
}


def _add_spec_args(p: argparse.ArgumentParser, *tables: tuple[type, dict[str, str]]) -> None:
    for spec, flags in tables:
        defaults = {f.name: f.default for f in dataclasses.fields(spec)}
        for flag, name in flags.items():
            default = defaults[name]
            p.add_argument(flag, type=type(default), default=default, **_FLAG_OPTIONS.get(flag, {}))


def _spec(table: tuple[type, dict[str, str]], args: argparse.Namespace, **fixed):
    """The table's spec built from its parsed flags, plus the ``fixed`` fields no flag sets."""
    spec, flags = table
    values = {name: getattr(args, flag[2:].replace("-", "_")) for flag, name in flags.items()}
    return spec(**values, **fixed)


@functools.cache  # parsing leaves no state in the parser, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    # The docstring is laid out by hand: one subcommand per line.
    parser = _Parser(
        prog="seqdecode", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_decode = sub.add_parser("decode", help="decode a dataset with one algorithm")
    p_decode.add_argument("--dataset", required=True)
    p_decode.add_argument("--algorithm", choices=ALGORITHMS, required=True)
    p_decode.add_argument("--budget", type=int, default=1)
    p_decode.add_argument("--seed", type=int, default=0)
    p_decode.add_argument("--out", required=True)
    p_decode.add_argument("--format", choices=("json", "table"), default="json")
    _add_spec_args(p_decode, _MODEL, _METRIC, _ALGORITHM)

    p_sweep = sub.add_parser("sweep", help="budget grid over several algorithms")
    p_sweep.add_argument("--dataset", required=True)
    p_sweep.add_argument("--algorithms", required=True, help="comma-separated algorithm names")
    p_sweep.add_argument("--budgets", required=True, help="comma-separated budgets")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--format", choices=("json", "table"), default="json")
    _add_spec_args(p_sweep, _MODEL, _METRIC, _ALGORITHM)

    p_oracle = sub.add_parser("oracle", help="exact argmax baselines per instance")
    p_oracle.add_argument("--dataset", required=True)
    p_oracle.add_argument("--out", required=True)
    _add_spec_args(p_oracle, _MODEL, _METRIC)

    p_tree = sub.add_parser("tree", help="run one search and export its tree as DOT")
    p_tree.add_argument("--dataset", required=True)
    p_tree.add_argument("--instance-id", default=None, help="defaults to the first instance")
    p_tree.add_argument("--simulations", type=int, default=8)
    p_tree.add_argument("--out", required=True)
    _add_spec_args(p_tree, _MODEL, _METRIC, _ALGORITHM)

    return parser


def _run(
    args: argparse.Namespace, dataset: list[Instance], names: list[str], budgets: tuple[int, ...]
) -> int:
    """Sweep ``names`` over ``budgets`` and write the report to ``--out``."""
    cfg = RunConfig(
        model=_spec(_MODEL, args),
        metric=_spec(_METRIC, args),
        algorithms=tuple(_spec(_ALGORITHM, args, name=n) for n in names),
        budgets=budgets,
        seed=args.seed,
    )
    emit_report(run_experiment(cfg, dataset), args.out, format=args.format)
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    return _run(args, load_dataset(args.dataset), [args.algorithm], (args.budget,))


def _cmd_sweep(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    names = [n.strip() for n in args.algorithms.split(",") if n.strip()]
    try:
        budgets = tuple(int(b) for b in args.budgets.split(",") if b.strip())
    except ValueError as exc:
        raise ConfigurationError(f"--budgets must be comma-separated integers: {exc}") from exc
    for flag, values in (("--algorithms", names), ("--budgets", budgets)):
        if not values:
            raise ConfigurationError(f"{flag} names no value")
    return _run(args, dataset, names, budgets)


def _cmd_oracle(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    cfg = RunConfig(model=_spec(_MODEL, args), metric=_spec(_METRIC, args), algorithms=())
    model, metric, _ = validate_run_config(cfg, dataset)
    rows = []
    for inst in sorted(dataset, key=lambda i: i.id):
        root = model.initial_state(inst.source, inst.reference)
        best_ll = exact_argmax_likelihood(model, root)
        best_metric = exact_argmax_metric(model, root, metric)
        rows.append(
            {
                "id": inst.id,
                "argmax_likelihood": list(best_ll.sequence),
                "log_likelihood": best_ll.log_likelihood,
                "argmax_metric": list(best_metric.sequence),
                "metric_score": best_metric.score,
            }
        )
    Path(args.out).write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    if not dataset:
        raise ConfigurationError("dataset is empty")
    if args.instance_id is None:
        instance = sorted(dataset, key=lambda i: i.id)[0]
    else:
        matches = [i for i in dataset if i.id == args.instance_id]
        if not matches:
            raise ConfigurationError(f"no instance with id {args.instance_id!r}")
        instance = matches[0]

    algo = _spec(_ALGORITHM, args, name="mcts")
    # No sweep budget: unlike a budget, --simulations 0 is valid (a tree of the root alone).
    check_budget(args.simulations, "--simulations", least=0)
    cfg = RunConfig(
        model=_spec(_MODEL, args), metric=_spec(_METRIC, args), algorithms=(algo,), budgets=()
    )
    model, metric, _ = validate_run_config(cfg, [instance])
    search_cfg = algo.search_config(args.simulations, model.vocab_size)
    root = model.initial_state(instance.source, instance.reference)
    arena = ArenaSearch(model, [root], search_cfg, metric=metric)
    arena.run()
    export_tree(arena, args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    commands = {
        "decode": _cmd_decode,
        "sweep": _cmd_sweep,
        "oracle": _cmd_oracle,
        "tree": _cmd_tree,
    }
    try:
        args = build_parser().parse_args(argv)
        return commands[args.command](args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
