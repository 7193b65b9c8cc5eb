"""Experiment runner: datasets, algorithm/budget sweeps, reports, tree export.

A run decodes every dataset instance under every (algorithm, budget) cell
with the one model built when the run is validated, deriving all randomness
from a stable hash of (global seed, instance id, algorithm, budget) so reports
are byte-identical across repeats. Each algorithm decodes an instance at all
the run's budgets through one decoder, ``decode(root, cell_seeds)``, built by
:meth:`AlgorithmSpec.instance_decoder` when the run is validated, so every
cell is checked before the first decode. MCTS decodes them in one search
batch over copies of the root, one simulation count per copy, and charges
each cell what the search charged its copy; every other algorithm decodes
one budget at a time and charges each cell the ledger counts its own decode
adds. The model is built from the run config alone; an instance's reference
enters through the root state each cell decodes.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .decoders import (
    BeamConfig,
    VgbsConfig,
    beam_search,
    greedy_decode,
    rerank_by_score,
    rerank_by_value,
    sample_sequences,
    value_guided_beam_search,
)
from .mcts import VALUE_SOURCES, ArenaSearch, SearchConfig, decode_mcts
from .mdp import (
    Candidate,
    ConfigurationError,
    DecodeState,
    Sequence,
    check_integer,
    check_real,
    is_integer,
    terminal_reward,
)
from .models import ModelSpec, PolicyValueModel, model_value_fn, rollout_value_fn
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

# The largest sweep budget or tree simulation count a run may ask for. Sampling builds a
# generator per sample and the arena sizes its (B, S + 1, A) arrays by the largest budget.
BUDGET_GUARD = 10_000

# One (algorithm, budget) cell: decode(root, cell_seed) -> the cell's output.
CellDecoder = Callable[[DecodeState, int], Candidate]
# A cell's output with the evaluations and tokens charged for it.
CellOutput = tuple[Candidate, int, int]
# One algorithm at every budget of a run: decode(root, cell_seeds) -> one output per budget.
InstanceDecoder = Callable[[DecodeState, list[int]], list[CellOutput]]


@dataclass(frozen=True)
class Instance:
    id: str
    source: Sequence
    reference: Sequence | None = None


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
        if self.value_source not in VALUE_SOURCES:
            raise ConfigurationError(
                f"unknown value source {self.value_source!r} (choose from {VALUE_SOURCES})"
            )

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

    def instance_decoder(
        self, budgets: tuple[int, ...], model: PolicyValueModel, metric: Metric
    ) -> InstanceDecoder:
        """The decoder of this algorithm's cells at ``budgets``, in that order; building it
        runs every check the cells need.

        MCTS decodes one ``decode_mcts`` batch of ``len(budgets)`` copies of the root, each
        with its budget as its simulation count, and charges each cell its copy's
        evaluations and output length. Every other algorithm decodes budget by budget and
        charges each cell its decode's ledger delta. Decoders are looked up in this
        module's globals when a cell decodes, so a wrapper installed on those names, such
        as a tracer, sees every call.
        """
        if self.name == "mcts":
            search_cfg = self.search_config(max(budgets, default=0), model.vocab_size)

            def decode_budgets(root: DecodeState, _seeds: list[int]) -> list[CellOutput]:
                roots = [root] * len(budgets)
                candidates = decode_mcts(model, roots, search_cfg, metric, budgets)
                return [(c, c.evaluations, len(c.sequence)) for c in candidates]

            return decode_budgets

        cells = [self._cell_decoder(budget, model, metric) for budget in budgets]

        def decode_each(root: DecodeState, seeds: list[int]) -> list[CellOutput]:
            outputs = []
            for decode, seed in zip(cells, seeds):
                evaluations, tokens = model.ledger.snapshot()
                candidate = decode(root, seed)
                after = model.ledger.snapshot()
                outputs.append((candidate, after[0] - evaluations, after[1] - tokens))
            return outputs

        return decode_each

    def _cell_decoder(self, budget: int, model: PolicyValueModel, metric: Metric) -> CellDecoder:
        """The decoder of one budget cell of an algorithm other than MCTS."""
        if self.name == "greedy":
            return lambda state, _seed: greedy_decode(model, state)
        if self.name == "beam":
            beam_cfg = BeamConfig(k=budget, theta=self.theta)
            return lambda state, _seed: beam_search(model, state, beam_cfg)
        if self.name == "vgbs":
            k = vgbs_width_for_budget(budget)
            if k > model.vocab_size:
                raise ConfigurationError(
                    f"budget {budget} implies beam width {k} > vocabulary size {model.vocab_size}"
                )
            vgbs_cfg = VgbsConfig(k=k, alpha=self.alpha)
            if self.value_source == "rollout":
                value_fn = rollout_value_fn(model, metric)
            else:
                value_fn = model_value_fn(model)
            return lambda state, _seed: value_guided_beam_search(model, value_fn, state, vgbs_cfg)
        check_real("temperature", self.tau, 0, strict=True)

        def sample_rerank(state: DecodeState, cell_seed: int) -> Candidate:
            pool = sample_sequences(model, state, n=budget, tau=self.tau, seed=cell_seed)
            if self.name == "sample_rerank":
                winner = rerank_by_score(pool, metric)
            else:
                winner = rerank_by_value(pool, model_value_fn(model))
            model.ledger.charge_tokens(len(winner.sequence))
            return winner

        return sample_rerank


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

    @property
    def aggregates(self) -> dict[tuple[str, int], dict[str, float]]:
        """(algorithm, budget) -> {"mean_score", "mean_evaluations_per_token"} over its cells."""
        groups: dict[tuple[str, int], list[CellResult]] = {}
        for c in self.cells:
            groups.setdefault((c.algorithm, c.budget), []).append(c)
        return {
            key: {
                "mean_score": sum(c.score for c in cells) / len(cells),
                "mean_evaluations_per_token": sum(c.evaluations / c.tokens for c in cells)
                / len(cells),
            }
            for key, cells in groups.items()
        }

    def to_dict(self) -> dict:
        return {
            "cells": [asdict(c) | {"sequence": list(c.sequence)} for c in self.cells],
            "aggregates": [
                {"algorithm": a, "budget": b, **stats}
                for (a, b), stats in sorted(self.aggregates.items())
            ],
        }


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
            if not isinstance(obj, dict):
                raise ValueError(f"expected a JSON object, got {obj!r}")
            if type(obj["id"]) not in (str, int):  # a boolean is not an id
                raise ValueError(f"id must be a JSON string or integer, got {obj['id']!r}")
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


def check_instance_ids(dataset: list[Instance]) -> None:
    """Reject an instance id that is not a string or is given twice: ids name report rows
    and seed cells, and a run sorts instances by id."""
    seen: set[str] = set()
    for inst in dataset:
        if not isinstance(inst.id, str):
            raise ConfigurationError(f"instance id {inst.id!r} is not a string")
        if inst.id in seen:
            raise ConfigurationError(f"instance id {inst.id!r} is given twice")
        seen.add(inst.id)


def check_token_ids(vocab_size: int, dataset: list[Instance]) -> None:
    """Reject source or reference ids that are not integers (a bool or a float among them),
    are negative or lie outside the vocabulary, and sources or references with EOS (the
    last id) before their final token."""
    for inst in dataset:
        for name, tokens in (("source", inst.source), ("reference", inst.reference or ())):
            for t in tokens:
                if not is_integer(t) or t < 0:
                    raise ConfigurationError(
                        f"instance {inst.id!r}: {name} token id {t!r} is not a non-negative "
                        "integer"
                    )
                if t >= vocab_size:
                    raise ConfigurationError(
                        f"instance {inst.id!r}: {name} token id {t} is outside the "
                        f"vocabulary of size {vocab_size}"
                    )
            if vocab_size - 1 in tokens[:-1]:
                raise ConfigurationError(
                    f"instance {inst.id!r}: EOS (id {vocab_size - 1}) may only end the {name}"
                )


def check_algorithms(metric: Metric, algorithms: tuple[AlgorithmSpec, ...]) -> None:
    """Reject algorithms that consult the score at decode time under a privileged metric."""
    if metric.privileged:
        for algo in algorithms:
            if algo.uses_score_directly():
                raise ConfigurationError(
                    f"algorithm {algo.name!r} consults the score at decode time and "
                    f"cannot be used with the privileged metric {metric.name!r}"
                )


def check_references(metric: Metric, dataset: list[Instance]) -> None:
    """Reject instances without the reference a privileged metric needs."""
    if metric.privileged:
        for inst in dataset:
            if inst.reference is None:
                raise ConfigurationError(
                    f"instance {inst.id!r} lacks the reference required by {metric.name!r}"
                )


def check_budget(budget: int, name: str = "budget", least: int = 1) -> None:
    """Reject a budget that is not an integer (a bool or a float among them), or is below
    ``least`` or above ``BUDGET_GUARD``; ``name`` is what the message calls it."""
    check_integer(name, budget)
    if budget < least:
        raise ConfigurationError(f"{name} must be >= {least}, not {budget}")
    if budget > BUDGET_GUARD:
        raise ConfigurationError(f"{name} {budget} exceeds the budget guard of {BUDGET_GUARD}")


def validate_run_config(
    cfg: RunConfig, dataset: list[Instance]
) -> tuple[PolicyValueModel, Metric, list[tuple[AlgorithmSpec, InstanceDecoder]]]:
    """Every check a run needs, made before anything is decoded.

    Returns the run's one model, its metric, and each algorithm with the decoder
    of its cells at the run's budgets. Building the model checks its spec.
    """
    check_integer("seed", cfg.seed)
    check_instance_ids(dataset)
    for budget in cfg.budgets:
        check_budget(budget)
    names = [algo.name for algo in cfg.algorithms]
    for what, values in (("algorithm", names), ("budget", cfg.budgets)):
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ConfigurationError(f"{what} {value!r} is given twice; cells must differ")
    metric = cfg.metric.build()
    model = cfg.model.build(metric)
    check_token_ids(model.vocab_size, dataset)
    # EOS is stripped before scoring, so only a content id can ever be counted.
    target = cfg.metric.target
    content = is_integer(target) and 0 <= target <= model.vocab_size - 2
    if cfg.metric.name == "occupancy" and not content:
        raise ConfigurationError(
            f"occupancy target {target!r} is not a content token id "
            f"(0..{model.vocab_size - 2} at vocabulary size {model.vocab_size})"
        )
    # Coverage is a share of the source's distinct tokens, its closing EOS not counted.
    if cfg.metric.name == "coverage":
        for inst in dataset:
            if not set(inst.source) - {model.vocab_size - 1}:
                raise ConfigurationError(f"instance {inst.id!r}: coverage needs a non-empty source")
    check_algorithms(metric, cfg.algorithms)
    check_references(metric, dataset)
    decoders = [
        (algo, algo.instance_decoder(cfg.budgets, model, metric)) for algo in cfg.algorithms
    ]
    return model, metric, decoders


def run_experiment(cfg: RunConfig, dataset: list[Instance]) -> Report:
    """Decode every instance under every (algorithm, budget) cell, instance by instance.

    Rows are algorithm-major within an instance. The model's greedy-completion memo, its
    one store of values, is keyed by state and so by instance; it is emptied after each
    instance's last cell and holds one instance's values at most.
    """
    model, metric, decoders = validate_run_config(cfg, dataset)
    report = Report()

    for instance in sorted(dataset, key=lambda i: i.id):
        for algo, decode in decoders:
            seeds = [stable_cell_seed(cfg.seed, instance.id, algo.name, b) for b in cfg.budgets]
            root = model.initial_state(instance.source, instance.reference)
            outputs = decode(root, seeds)
            for budget, (candidate, evaluations, tokens) in zip(cfg.budgets, outputs):
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
        model.clear_value_cache()
    return report


# ------------------------------------------------------------------ reporting


def format_table(report: Report) -> str:
    """Budget-by-algorithm grid of mean scores, 4 decimal places."""
    aggregates = report.aggregates
    algorithms = sorted({a for a, _ in aggregates})
    budgets = sorted({b for _, b in aggregates})
    header = ["budget"] + algorithms
    rows = [header]
    for b in budgets:
        row = [str(b)]
        for a in algorithms:
            stats = aggregates.get((a, b))
            row.append(f"{stats['mean_score']:.4f}" if stats else "-")
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    return "\n".join("  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows)


def emit_report(report: Report, path: str | Path, format: str = "json") -> None:
    """Persist a report as JSON (``Report.to_dict``) or a budget-by-algorithm text grid."""
    if format == "json":
        Path(path).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    elif format == "table":
        Path(path).write_text(format_table(report) + "\n", encoding="utf-8")
    else:
        raise ConfigurationError(f"unknown report format {format!r}")


# ---------------------------------------------------------------- tree export


def export_tree(arena: ArenaSearch, path: str | Path) -> None:
    """Write the search tree of the arena's first element as a DOT graph.

    Nodes show (token, visit count, value) in expansion order; edges carry
    the stored child prior. Output is deterministic for a given arena.
    """
    b = 0
    lines = ["digraph mcts {", "  node [shape=box];"]
    n_nodes = int(arena.node_counts[b])
    # Every node but the root is held by one (parent, slot) entry of children_index; in
    # child order, entry i - 1 is node i's incoming edge.
    children = arena.children_index[b, :n_nodes]
    parents, slots = (children >= 0).nonzero()
    order = children[parents, slots].argsort()
    parents, slots = parents[order], slots[order]
    tokens = arena.topk_mapping[b, parents, slots].tolist()
    priors = arena.children_prior[b, parents, slots].tolist()
    for i in range(n_nodes):
        label = "root" if i == 0 else f"token {tokens[i - 1]}"
        label += f"\\nvisits {int(arena.visit_counts[b, i])}"
        label += f"\\nvalue {float(arena.values[b, i]):.4f}"
        lines.append(f'  n{i} [label="{label}"];')
    for i, (parent, prior) in enumerate(zip(parents.tolist(), priors), 1):
        lines.append(f'  n{parent} -> n{i} [label="{prior:.4f}"];')
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
