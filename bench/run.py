"""seqdecode benchmark: run one workload and print its metrics.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

The workload runs in a fresh worker process whose BLAS/OpenMP thread pools
are pinned to one thread. With ``--trace 0`` set-up is also measured in eight
further fresh processes and the median is reported. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "mcts_batch", "oracle")
SETUP_PROBES = 8
DEADLINE_S = 170.0
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _worker(args: list[str], env: dict[str, str], deadline: float) -> dict:
    """Run the worker to completion and return its JSON line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (Path.cwd() / "src" / "seqdecode" / "__init__.py").is_file():
        print("bench: src/seqdecode not found; run from the repository root", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, PYTHONHASHSEED="0", **{k: "1" for k in PINNED_THREADS})
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    try:
        setups = []
        if not args.trace:
            setups = [
                _worker([*base, "--setup-only"], env, deadline)["setup_s"]
                for _ in range(SETUP_PROBES)
            ]
        run = _worker(
            [*base, "--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline
        )
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    walls, scales = run["walls"], run["scales"]
    speed = (
        "not sampled in a traced run"
        if args.trace
        else f"min {min(scales):.3f} median {statistics.median(scales):.3f} max {max(scales):.3f}"
    )
    print(f"environment: {json.dumps(run['environment'])}")
    print(
        f"{args.workload} seed {args.seed}: {len(walls)} untraced and {len(run['traced_walls'])} "
        f"traced timed calls over chunks {run['chunks']}; untraced call wall time (s) min "
        f"{min(walls):.4f} median {statistics.median(walls):.4f} max {max(walls):.4f}; "
        f"reference seconds per wall second {speed}"
    )
    golden = "checked against bench/golden.json" if run["golden_checked"] else "not the golden seed"
    print(f"output digests by chunk ({golden}): {json.dumps(run['digests'])}")
    print(f"evaluations per token by cell: {json.dumps(run['evals_per_token_by_cell'])}")
    for problem in run["problems"][:50]:
        print(f"FAILED: {problem}")

    metrics = run["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median([run["setup_s"], *setups]), "unit": "s"}
    print(
        json.dumps(
            {
                "correct": run["failed"] == 0 and not run["problems"],
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
