"""Decoding strategies for autoregressive token models.

The package frames decoding as search over a deterministic token MDP and
provides likelihood-based decoders (greedy, beam), value-guided decoders
(value-guided beam search, batched MCTS), score-based reranking, exact
desk-scale oracles, and an experiment harness with inference-budget
accounting.
"""

from .decoders import (
    BeamConfig,
    VgbsConfig,
    beam_search,
    greedy_decode,
    length_normalizer,
    rerank_by_score,
    rerank_by_value,
    sample_sequences,
    value_guided_beam_search,
)
from .harness import (
    AlgorithmSpec,
    CellResult,
    Instance,
    MetricSpec,
    Report,
    RunConfig,
    emit_report,
    export_tree,
    format_table,
    load_dataset,
    run_experiment,
    save_dataset,
    stable_cell_seed,
    vgbs_width_for_budget,
)
from .mcts import ArenaSearch, SearchConfig, decode_mcts
from .mdp import (
    Candidate,
    ConfigurationError,
    ContractViolation,
    DecodeState,
    Sequence,
    complete,
    step,
    terminal_reward,
)
from .models import (
    BudgetLedger,
    FixedPriorModel,
    ModelSpec,
    ModelState,
    NoisyValueModel,
    PolicyValueModel,
    SeededTabularModel,
    TransformedValueModel,
    apply_temperature,
    greedy_policy,
    make_seeded_model,
    model_value_fn,
    rollout_value,
    rollout_value_fn,
    top_actions,
)
from .oracle import (
    GuardExceeded,
    enumerate_sequences,
    exact_argmax_likelihood,
    exact_argmax_metric,
)
from .scoring import (
    Metric,
    SeededUnitEmbeddings,
    bert_style_metric,
    bleu,
    bleu_metric,
    coverage_metric,
    multilingual_bert_style_metric,
    occupancy_metric,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
