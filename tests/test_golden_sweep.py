"""Pinned SHA-256 digests of canonical-shape ``seqdecode sweep`` reports.

The instances are five seeded source/reference pairs over the content tokens of
a V=8 vocabulary; the model has max_len 5 and context order 1, and every sweep
runs budgets 1,10,25,50. Each case is one gate flag set. A change that moves any
decoded token, score, log-likelihood or ledger count moves a digest. Under a
privileged metric (bleu, bertscore) plain ``sample_rerank`` may not run, so
``sample_rerank_value`` takes its place.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from seqdecode import Instance, save_dataset
from seqdecode.cli import main

VOCAB, MAX_LEN, INSTANCES = 8, 5, 5
REFERENCE_LEN = 4
BUDGETS = "1,10,25,50"
UNPRIVILEGED = "greedy,beam,vgbs,sample_rerank,mcts"
PRIVILEGED = "greedy,beam,vgbs,sample_rerank_value,mcts"

CASES = {
    "coverage": (
        UNPRIVILEGED,
        ["--metric", "coverage"],
        "51f5ed0f16d74576f6902c5c5e95c79a967c8976388854fc5d3feb05d729d9cd",
    ),
    "bleu-max-backup": (
        PRIVILEGED,
        ["--metric", "bleu", "--backup", "max"],
        "be7bf60622b1ba6b7d9a1d6c869801bba7d54c3bd27d5e23143da86e62517958",
    ),
    "bertscore-value-noise": (
        PRIVILEGED,
        ["--metric", "bertscore", "--value-noise", "0.2"],
        "42b58029031d1eb468ebe871f1ebafab8317e4a5786b5c8108cf405f90c4dcf8",
    ),
    "rollout": (
        UNPRIVILEGED,
        ["--value-source", "rollout", "--metric", "coverage"],
        "19e350882476c16f9c997974d3c43c587b1059d86f790df3dff7e1a061e8ec92",
    ),
}


def golden_instances() -> list[Instance]:
    """Distinct seeded sources and references over the content ids 0..VOCAB-2."""
    rng = random.Random(19)
    content = range(VOCAB - 1)
    sources = rng.sample([(a, b, c) for a in content for b in content for c in content], INSTANCES)
    return [
        Instance(f"g{i}", source, tuple(rng.choices(content, k=REFERENCE_LEN)))
        for i, source in enumerate(sources)
    ]


@pytest.mark.parametrize("case", sorted(CASES))
def test_sweep_report_matches_its_pinned_digest(case, tmp_path):
    algorithms, flags, digest = CASES[case]
    dataset, out = tmp_path / "data.jsonl", tmp_path / "report.json"
    save_dataset(golden_instances(), dataset)
    code = main([
        "sweep", "--dataset", str(dataset), "--out", str(out),
        "--algorithms", algorithms, "--budgets", BUDGETS,
        "--vocab-size", str(VOCAB), "--max-len", str(MAX_LEN), "--context-order", "1",
        *flags,
    ])  # fmt: skip
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
