"""Command-line front end.

Subcommands:
  decode  one algorithm over a dataset at a single budget
  sweep   a budget grid over several algorithms
  oracle  exact likelihood/metric argmax baselines per instance
  tree    run one search and export the tree as DOT

Exit codes: 0 success, 1 configuration error, 2 I/O error. Any other
exception is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .harness import (
    ALGORITHMS,
    METRICS,
    AlgorithmSpec,
    MetricSpec,
    ModelSpec,
    RunConfig,
    _build_model,
    check_references,
    check_token_ids,
    emit_report,
    export_tree,
    load_dataset,
    run_experiment,
)
from .mcts import ArenaSearch
from .mdp import ConfigurationError
from .oracle import exact_argmax_likelihood, exact_argmax_metric


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model-seed", type=int, default=0)
    p.add_argument("--vocab-size", type=int, default=3)
    p.add_argument("--max-len", type=int, default=3)
    p.add_argument("--context-order", type=int, default=0)
    p.add_argument("--value-noise", type=float, default=0.0)


def _add_metric_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--metric", choices=METRICS, default="occupancy")
    p.add_argument("--metric-target", type=int, default=0)
    p.add_argument("--metric-horizon", type=int, default=3)
    p.add_argument("--metric-max-n", type=int, default=4)
    p.add_argument("--embedding-dim", type=int, default=8)
    p.add_argument("--embedding-seed", type=int, default=0)


def _add_algorithm_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theta", type=float, default=0.0, help="beam length-normalization exponent")
    p.add_argument("--tau", type=float, default=1.0, help="sampling / mcts prior temperature")
    p.add_argument("--alpha", type=float, default=0.5, help="vgbs likelihood weight")
    p.add_argument("--value-source", choices=("model", "rollout"), default="model")
    p.add_argument("--sparse-actions", type=int, default=3)
    p.add_argument("--c-puct", type=float, default=1.0)
    p.add_argument("--backup", choices=("average", "max"), default="average")
    p.add_argument("--root-selection", choices=("visit_count", "max_value"), default="visit_count")


def _model_spec(args: argparse.Namespace) -> ModelSpec:
    return ModelSpec(
        seed=args.model_seed,
        vocab_size=args.vocab_size,
        max_len=args.max_len,
        context_order=args.context_order,
        value_noise=args.value_noise,
    )


def _metric_spec(args: argparse.Namespace) -> MetricSpec:
    return MetricSpec(
        name=args.metric,
        target=args.metric_target,
        horizon=args.metric_horizon,
        max_n=args.metric_max_n,
        embedding_dim=args.embedding_dim,
        embedding_seed=args.embedding_seed,
    )


def _algorithm_spec(name: str, args: argparse.Namespace) -> AlgorithmSpec:
    return AlgorithmSpec(
        name=name,
        theta=args.theta,
        tau=args.tau,
        alpha=args.alpha,
        value_source=args.value_source,
        num_sparse_actions=args.sparse_actions,
        c_puct=args.c_puct,
        backup=args.backup,
        root_selection=args.root_selection,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="seqdecode", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_decode = sub.add_parser("decode", help="decode a dataset with one algorithm")
    p_decode.add_argument("--dataset", required=True)
    p_decode.add_argument("--algorithm", choices=ALGORITHMS, required=True)
    p_decode.add_argument("--budget", type=int, default=1)
    p_decode.add_argument("--seed", type=int, default=0)
    p_decode.add_argument("--out", required=True)
    p_decode.add_argument("--format", choices=("json", "table"), default="json")
    _add_model_args(p_decode)
    _add_metric_args(p_decode)
    _add_algorithm_args(p_decode)

    p_sweep = sub.add_parser("sweep", help="budget grid over several algorithms")
    p_sweep.add_argument("--dataset", required=True)
    p_sweep.add_argument("--algorithms", required=True, help="comma-separated algorithm names")
    p_sweep.add_argument("--budgets", required=True, help="comma-separated budgets")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--format", choices=("json", "table"), default="json")
    _add_model_args(p_sweep)
    _add_metric_args(p_sweep)
    _add_algorithm_args(p_sweep)

    p_oracle = sub.add_parser("oracle", help="exact argmax baselines per instance")
    p_oracle.add_argument("--dataset", required=True)
    p_oracle.add_argument("--out", required=True)
    _add_model_args(p_oracle)
    _add_metric_args(p_oracle)

    p_tree = sub.add_parser("tree", help="run one search and export its tree as DOT")
    p_tree.add_argument("--dataset", required=True)
    p_tree.add_argument("--instance-id", default=None, help="defaults to the first instance")
    p_tree.add_argument("--simulations", type=int, default=8)
    p_tree.add_argument("--out", required=True)
    _add_model_args(p_tree)
    _add_metric_args(p_tree)
    _add_algorithm_args(p_tree)

    return parser


def _cmd_decode(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    cfg = RunConfig(
        model=_model_spec(args),
        metric=_metric_spec(args),
        algorithms=(_algorithm_spec(args.algorithm, args),),
        budgets=(args.budget,),
        seed=args.seed,
    )
    report = run_experiment(cfg, dataset)
    emit_report(report, args.out, format=args.format)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    names = [n.strip() for n in args.algorithms.split(",") if n.strip()]
    try:
        budgets = tuple(int(b) for b in args.budgets.split(",") if b.strip())
    except ValueError as exc:
        raise ConfigurationError(f"--budgets must be comma-separated integers: {exc}") from exc
    cfg = RunConfig(
        model=_model_spec(args),
        metric=_metric_spec(args),
        algorithms=tuple(_algorithm_spec(n, args) for n in names),
        budgets=budgets,
        seed=args.seed,
    )
    report = run_experiment(cfg, dataset)
    emit_report(report, args.out, format=args.format)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    metric = _metric_spec(args).build()
    spec = _model_spec(args)
    check_token_ids(spec, dataset)
    check_references(metric, dataset)
    rows = []
    for inst in sorted(dataset, key=lambda i: i.id):
        model = _build_model(spec, metric)
        best_ll = exact_argmax_likelihood(model, inst.source)
        best_metric = exact_argmax_metric(model, inst.source, metric, inst.reference)
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

    spec = _model_spec(args)
    check_token_ids(spec, [instance])
    metric = _metric_spec(args).build()
    check_references(metric, [instance])
    model = _build_model(spec, metric)
    algo = _algorithm_spec("mcts", args)
    cfg = algo.search_config(args.simulations, model.vocab_size)
    if metric.privileged and algo.uses_score_directly():
        raise ConfigurationError("rollout value source cannot be used with a privileged metric")
    arena = ArenaSearch(model, 1, cfg, metric=metric)
    arena.run([model.initial_state(instance.source, instance.reference)])
    export_tree(arena, args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {
        "decode": _cmd_decode,
        "sweep": _cmd_sweep,
        "oracle": _cmd_oracle,
        "tree": _cmd_tree,
    }
    try:
        return commands[args.command](args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
