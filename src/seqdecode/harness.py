"""Experiment runner: datasets, algorithm/budget sweeps, reports, tree export.

A run decodes every dataset instance under every (algorithm, budget) cell
with a fresh model and ledger per cell, deriving all randomness from a stable
hash of (global seed, instance id, algorithm, budget) so reports are
byte-identical across repeats. Every cell's decoder config is built, and so
checked, before the first decode. Models are built from the run config alone;
an instance's reference enters through the root state of its cells.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .decoders import (
    BeamConfig,
    Candidate,
    VgbsConfig,
    beam_search,
    greedy_decode,
    rerank_by_score,
    rerank_by_value,
    sample_sequences,
    value_guided_beam_search,
)
from .mcts import ArenaSearch, SearchConfig, decode_mcts
from .mdp import ConfigurationError, Sequence, terminal_reward
from .models import (
    FixedPriorModel,
    NoisyValueModel,
    PolicyValueModel,
    SeededTabularModel,
    model_value_fn,
    rollout_value_fn,
)
from .scoring import (
    Metric,
    SeededUnitEmbeddings,
    bert_style_metric,
    bleu_metric,
    coverage_metric,
    multilingual_bert_style_metric,
    occupancy_metric,
)

ALGORITHMS = ("greedy", "beam", "vgbs", "sample_rerank", "sample_rerank_value", "mcts")
METRICS = ("occupancy", "coverage", "bleu", "bertscore", "mlbertscore")

# What one (algorithm, budget) cell hands its decoder; greedy and sampling need none.
CellConfig = BeamConfig | VgbsConfig | SearchConfig | None


@dataclass(frozen=True)
class Instance:
    id: str
    source: Sequence
    reference: Sequence | None = None


@dataclass(frozen=True)
class ModelSpec:
    seed: int = 0
    vocab_size: int = 3
    max_len: int = 3
    context_order: int = 0
    value_noise: float = 0.0
    # When set, overrides the seeded table with one fixed prior (fixture models).
    prior: tuple[float, ...] | None = None

    @property
    def effective_vocab_size(self) -> int:
        """Vocabulary size of the built models; a fixed prior sets it by its length."""
        return len(self.prior) if self.prior is not None else self.vocab_size


@dataclass(frozen=True)
class MetricSpec:
    name: str = "occupancy"
    target: int = 0  # occupancy only
    horizon: int = 3  # occupancy only
    max_n: int = 4  # bleu only
    embedding_dim: int = 8  # bert-style only
    embedding_seed: int = 0  # bert-style only

    def build(self) -> Metric:
        if self.name == "occupancy":
            return occupancy_metric(self.target, self.horizon)
        if self.name == "coverage":
            return coverage_metric()
        if self.name == "bleu":
            return bleu_metric(self.max_n)
        if self.name == "bertscore":
            return bert_style_metric(SeededUnitEmbeddings(self.embedding_dim, self.embedding_seed))
        if self.name == "mlbertscore":
            return multilingual_bert_style_metric(
                SeededUnitEmbeddings(self.embedding_dim, self.embedding_seed)
            )
        raise ConfigurationError(f"unknown metric {self.name!r} (choose from {METRICS})")


@dataclass(frozen=True)
class AlgorithmSpec:
    """One decoder plus its budget-independent settings.

    The sweep budget maps onto each algorithm's natural knob: beam width for
    beam search, the smallest k with k + k^2 >= budget for value-guided beam
    search, the pool size for sampling, and the simulation count for MCTS.
    Greedy ignores the budget.
    """

    name: str
    theta: float = 0.0  # beam
    tau: float = 1.0  # sampling / mcts prior temperature
    alpha: float = 0.5  # vgbs
    value_source: str = "model"  # vgbs / mcts: "model" or "rollout"
    num_sparse_actions: int = 3  # mcts
    c_puct: float = 1.0  # mcts
    backup: str = "average"  # mcts
    root_selection: str = "visit_count"  # mcts

    def __post_init__(self) -> None:
        if self.name not in ALGORITHMS:
            raise ConfigurationError(f"unknown algorithm {self.name!r} (choose from {ALGORITHMS})")

    def uses_score_directly(self) -> bool:
        return self.name == "sample_rerank" or (
            self.name in ("mcts", "vgbs") and self.value_source == "rollout"
        )

    def search_config(self, num_simulations: int, vocab_size: int) -> SearchConfig:
        """MCTS settings for one simulation budget; A is capped at the vocabulary size."""
        return SearchConfig(
            num_simulations=num_simulations,
            num_sparse_actions=min(self.num_sparse_actions, vocab_size),
            c_puct=self.c_puct,
            tau=self.tau,
            backup=self.backup,
            root_selection=self.root_selection,
            value_source=self.value_source,
        )

    def cell_config(self, budget: int, vocab_size: int) -> CellConfig:
        """The decoder config for one budget; building it runs every check the cell needs."""
        if self.name == "beam":
            return BeamConfig(k=budget, theta=self.theta)
        if self.name == "vgbs":
            k = vgbs_width_for_budget(budget)
            if k > vocab_size:
                raise ConfigurationError(
                    f"budget {budget} implies beam width {k} > vocabulary size {vocab_size}"
                )
            return VgbsConfig(k=k, alpha=self.alpha)
        if self.name == "mcts":
            return self.search_config(budget, vocab_size)
        if self.name in ("sample_rerank", "sample_rerank_value") and self.tau <= 0:
            raise ConfigurationError("temperature must be > 0")
        return None


@dataclass(frozen=True)
class RunConfig:
    model: ModelSpec = ModelSpec()
    metric: MetricSpec = MetricSpec()
    algorithms: tuple[AlgorithmSpec, ...] = (AlgorithmSpec("greedy"),)
    budgets: tuple[int, ...] = (1,)
    seed: int = 0


@dataclass(frozen=True)
class CellResult:
    instance_id: str
    algorithm: str
    budget: int
    sequence: Sequence
    score: float
    log_likelihood: float
    evaluations: int
    tokens: int


@dataclass
class Report:
    cells: list[CellResult] = field(default_factory=list)
    # (algorithm, budget) -> {"mean_score", "mean_evaluations_per_token"}
    aggregates: dict[tuple[str, int], dict[str, float]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "cells": [asdict(c) | {"sequence": list(c.sequence)} for c in self.cells],
            "aggregates": [
                {"algorithm": a, "budget": b, **stats}
                for (a, b), stats in sorted(self.aggregates.items())
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Report":
        cells = [
            CellResult(
                instance_id=c["instance_id"],
                algorithm=c["algorithm"],
                budget=c["budget"],
                sequence=tuple(c["sequence"]),
                score=c["score"],
                log_likelihood=c["log_likelihood"],
                evaluations=c["evaluations"],
                tokens=c["tokens"],
            )
            for c in data["cells"]
        ]
        aggregates = {
            (a["algorithm"], a["budget"]): {
                k: v for k, v in a.items() if k not in ("algorithm", "budget")
            }
            for a in data["aggregates"]
        }
        return cls(cells=cells, aggregates=aggregates)


# ------------------------------------------------------------------- dataset


def load_dataset(path: str | Path) -> list[Instance]:
    """Parse a line-delimited UTF-8 file of {"id", "source", "reference"?} objects."""
    instances: list[Instance] = []
    seen: set[str] = set()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not a UTF-8 file: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            reference = obj.get("reference")
            instance = Instance(
                id=str(obj["id"]),
                source=_token_ids(obj["source"]),
                reference=_token_ids(reference) if reference is not None else None,
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"{path}: malformed dataset line {lineno}: {exc}") from exc
        if instance.id in seen:
            raise ConfigurationError(
                f"{path}: duplicate instance id {instance.id!r} at line {lineno}"
            )
        seen.add(instance.id)
        instances.append(instance)
    return instances


def _token_ids(values) -> Sequence:
    """A JSON list of non-negative integers (booleans and floats are not token ids)."""
    if not isinstance(values, list) or any(type(t) is not int or t < 0 for t in values):
        raise ValueError(f"token ids must be a list of non-negative integers, got {values!r}")
    return tuple(values)


def save_dataset(instances: list[Instance], path: str | Path) -> None:
    lines = []
    for inst in instances:
        obj: dict = {"id": inst.id, "source": [int(t) for t in inst.source]}
        if inst.reference is not None:
            obj["reference"] = [int(t) for t in inst.reference]
        lines.append(json.dumps(obj))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


# ------------------------------------------------------------------ execution


def stable_cell_seed(global_seed: int, instance_id: str, algorithm: str, budget: int) -> int:
    """Platform-stable seed for one (instance, algorithm, budget) cell."""
    key = f"{global_seed}|{instance_id}|{algorithm}|{budget}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def vgbs_width_for_budget(budget: int) -> int:
    """Smallest beam width k with k + k^2 >= budget."""
    k = 1
    while k + k * k < budget:
        k += 1
    return k


def _build_model(spec: ModelSpec, metric: Metric) -> PolicyValueModel:
    """A fresh provider with its own ledger; any nonzero ``value_noise`` wraps it."""
    if spec.prior is not None:
        model: PolicyValueModel = FixedPriorModel(spec.prior, spec.max_len, value_metric=metric)
    else:
        model = SeededTabularModel(
            spec.seed, spec.vocab_size, spec.max_len, spec.context_order, metric
        )
    if spec.value_noise != 0.0:
        model = NoisyValueModel(model, spec.value_noise, spec.seed)
    return model


def _decode_cell(
    model: PolicyValueModel,
    algo: AlgorithmSpec,
    budget: int,
    cell_cfg: CellConfig,
    instance: Instance,
    metric: Metric,
    cell_seed: int,
) -> Candidate:
    state = model.initial_state(instance.source, instance.reference)
    if algo.name == "greedy":
        return greedy_decode(model, state)
    if algo.name == "beam":
        return beam_search(model, state, cell_cfg)
    if algo.name == "vgbs":
        if algo.value_source == "rollout":
            value_fn = rollout_value_fn(model, metric)
        else:
            value_fn = model_value_fn(model)
        return value_guided_beam_search(model, value_fn, state, cell_cfg)
    if algo.name in ("sample_rerank", "sample_rerank_value"):
        pool = sample_sequences(model, state, n=budget, tau=algo.tau, seed=cell_seed)
        if algo.name == "sample_rerank":
            winner = rerank_by_score(pool, metric)
        else:
            winner = rerank_by_value(pool, model_value_fn(model))
        model.ledger.charge_tokens(len(winner.sequence))
        return winner
    if algo.name == "mcts":
        return decode_mcts(model, [state], cell_cfg, metric=metric)[0]
    raise ConfigurationError(f"unknown algorithm {algo.name!r}")


def check_token_ids(spec: ModelSpec, dataset: list[Instance]) -> None:
    """Reject source or reference ids outside the vocabulary of the models ``spec`` builds,
    and sources with EOS (the last id) before their final token."""
    vocab_size = spec.effective_vocab_size
    for inst in dataset:
        for name, tokens in (("source", inst.source), ("reference", inst.reference or ())):
            for t in tokens:
                if t >= vocab_size:
                    raise ConfigurationError(
                        f"instance {inst.id!r}: {name} token id {t} is outside the "
                        f"vocabulary of size {vocab_size}"
                    )
        if vocab_size - 1 in inst.source[:-1]:
            raise ConfigurationError(
                f"instance {inst.id!r}: EOS (id {vocab_size - 1}) may only end the source"
            )


def check_references(metric: Metric, dataset: list[Instance]) -> None:
    """Reject instances without the reference a privileged metric needs."""
    if metric.privileged:
        for inst in dataset:
            if inst.reference is None:
                raise ConfigurationError(
                    f"instance {inst.id!r} lacks the reference required by {metric.name!r}"
                )


def validate_run_config(
    cfg: RunConfig, dataset: list[Instance]
) -> list[tuple[AlgorithmSpec, int, CellConfig]]:
    """Every check a run needs, made before anything is decoded.

    Returns each (algorithm, budget) cell with its decoder config, algorithm-major.
    """
    check_token_ids(cfg.model, dataset)
    metric = cfg.metric.build()
    for algo in cfg.algorithms:
        if metric.privileged and algo.uses_score_directly():
            raise ConfigurationError(
                f"algorithm {algo.name!r} consults the score at decode time and "
                f"cannot be used with the privileged metric {metric.name!r}"
            )
    check_references(metric, dataset)
    if any(budget < 1 for budget in cfg.budgets):
        raise ConfigurationError("budgets must be >= 1")
    vocab_size = cfg.model.effective_vocab_size
    return [
        (algo, budget, algo.cell_config(budget, vocab_size))
        for algo in cfg.algorithms
        for budget in cfg.budgets
    ]


def run_experiment(cfg: RunConfig, dataset: list[Instance]) -> Report:
    """Decode every instance under every (algorithm, budget) cell."""
    cell_configs = validate_run_config(cfg, dataset)
    metric = cfg.metric.build()
    report = Report()

    for instance in sorted(dataset, key=lambda i: i.id):
        for algo, budget, cell_cfg in cell_configs:
            cell_seed = stable_cell_seed(cfg.seed, instance.id, algo.name, budget)
            model = _build_model(cfg.model, metric)
            candidate = _decode_cell(model, algo, budget, cell_cfg, instance, metric, cell_seed)
            evaluations, tokens = model.ledger.snapshot()
            report.cells.append(
                CellResult(
                    instance_id=instance.id,
                    algorithm=algo.name,
                    budget=budget,
                    sequence=candidate.sequence,
                    score=terminal_reward(candidate.state, metric),
                    log_likelihood=candidate.log_likelihood,
                    evaluations=evaluations,
                    tokens=tokens,
                )
            )

    for algo, budget, _ in cell_configs:
        cells = [c for c in report.cells if c.algorithm == algo.name and c.budget == budget]
        if not cells:
            continue
        report.aggregates[(algo.name, budget)] = {
            "mean_score": sum(c.score for c in cells) / len(cells),
            "mean_evaluations_per_token": sum(c.evaluations / c.tokens for c in cells)
            / len(cells),
        }
    return report


# ------------------------------------------------------------------ reporting


def format_table(report: Report) -> str:
    """Budget-by-algorithm grid of mean scores, 4 decimal places."""
    algorithms = sorted({a for a, _ in report.aggregates})
    budgets = sorted({b for _, b in report.aggregates})
    header = ["budget"] + algorithms
    rows = [header]
    for b in budgets:
        row = [str(b)]
        for a in algorithms:
            stats = report.aggregates.get((a, b))
            row.append(f"{stats['mean_score']:.4f}" if stats else "-")
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    return "\n".join("  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows)


def emit_report(report: Report, path: str | Path, format: str = "json") -> None:
    """Persist a report as round-trippable JSON or a budget-by-algorithm text grid."""
    if format == "json":
        Path(path).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    elif format == "table":
        Path(path).write_text(format_table(report) + "\n", encoding="utf-8")
    else:
        raise ConfigurationError(f"unknown report format {format!r}")


def load_report(path: str | Path) -> Report:
    return Report.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


# ---------------------------------------------------------------- tree export


def export_tree(arena: ArenaSearch, path: str | Path, batch_index: int = 0) -> None:
    """Write one element's search tree as a DOT graph.

    Nodes show (token, visit count, value) in expansion order; edges carry
    the stored child prior. Output is deterministic for a given arena.
    """
    b = batch_index
    lines = ["digraph mcts {", "  node [shape=box];"]
    n_nodes = arena.allocated_nodes()
    for i in range(n_nodes):
        token = arena.node_token(b, i)
        label = "root" if token is None else f"token {token}"
        label += f"\\nvisits {int(arena.visit_counts[b, i])}"
        label += f"\\nvalue {float(arena.values[b, i]):.4f}"
        lines.append(f'  n{i} [label="{label}"];')
    for i in range(1, n_nodes):
        parent = int(arena.parents[b, i])
        sparse = int(arena.action_from_parents[b, i])
        prior = float(arena.children_prior[b, parent, sparse])
        lines.append(f'  n{parent} -> n{i} [label="{prior:.4f}"];')
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
