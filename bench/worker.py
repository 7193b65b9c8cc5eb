"""One benchmark workload, measured in this process.

Started by ``bench/run.py`` with the working directory at the repository
root, so ``src/`` is imported from the checkout under test. Prints one JSON
line. See ``bench/README.md`` for the workloads and metrics.

Each workload is a closed loop with one caller: the next timed call starts
when the previous one has returned and been checked. The seed fixes a list of
input chunks; call ``i`` decodes chunk ``i mod chunks``, every chunk is run at
least once, and a chunk met again must give identical output.

The host's CPU speed drifts by tens of percent within a second, so a
``Speedometer`` times a fixed calibration sample every 50 ms during each
timed call and rescales the call's wall time to reference seconds: seconds on
a CPU that runs the sample in ``REFERENCE_S``. Raw wall times are printed
alongside.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up time counts from here, imports included

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".bench_work"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import seqdecode  # noqa: E402
from seqdecode import cli, mcts, models, scoring  # noqa: E402

from tracer import Tracer  # noqa: E402

SOURCE_LEN, REFERENCE_LEN = 3, 4
REFERENCE_S = 0.0015  # calibration sample time that defines one reference second
SETUP_SAMPLES = 9  # calibration samples taken right after set-up to rescale it
_CALIBRATION_ARRAY = np.arange(8.0)


def _calibration_sample() -> float:
    """Time a fixed mix of interpreter arithmetic and small-array work, like the program's own."""
    start = time.perf_counter()
    total = 0
    for i in range(10000):
        total += (i * i) % 7
    a = _CALIBRATION_ARRAY
    for _ in range(250):
        a = a * 1.0001 + 0.5
        float(a.sum())
    return time.perf_counter() - start


def _reference_scale(samples: list[float]) -> float:
    """Reference seconds per wall second while ``samples`` were taken."""
    return REFERENCE_S * statistics.fmean(1.0 / t for t in samples)


class Speedometer:
    """Samples the CPU's speed during timed calls, from a SIGALRM timer.

    A sample runs in this thread between the program's bytecodes; its time is
    taken out of the call's wall time. One sample is also taken just before
    and just after the call. A call's scale, in reference seconds per wall
    second, is ``REFERENCE_S`` times the mean of 1 / sample time: samples are
    evenly spaced in time, so that mean follows the CPU's average speed over
    the call. While disabled, calls are timed raw with scale 1.
    """

    INTERVAL_S = 0.05

    def __init__(self) -> None:
        self.enabled = True
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum=None, frame=None) -> None:
        self.samples.append(_calibration_sample())

    @contextmanager
    def timing(self, rep: "Rep"):
        """Time the body into ``rep.wall`` and ``rep.scale``, also when it raises."""
        if not self.enabled:
            start = time.perf_counter()
            try:
                yield
            finally:
                rep.wall = time.perf_counter() - start
            return
        self.samples.clear()
        self._tick()
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            wall = time.perf_counter() - start
            inside = sum(self.samples[1:])
            self._tick()
            rep.wall = wall - inside
            rep.scale = _reference_scale(self.samples)


METER = Speedometer()


@dataclass
class Rep:
    """One timed call of a workload and what its checks found."""

    chunk: int
    ops: int
    wall: float = 0.0  # seconds in the timed call, calibration samples taken out
    scale: float = 1.0  # reference seconds per wall second, from the Speedometer
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    tokens: int = 0
    sequences: int = 0
    cells: dict[str, list[int]] = field(default_factory=dict)  # cell -> [evaluations, tokens]

    def fail(self, ops: int, problem: str) -> None:
        self.failed = min(self.ops, self.failed + ops)
        self.problems.append(problem)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _distinct_sequences(rng: random.Random, n: int, length: int, tokens: int) -> list[list[int]]:
    pool = list(itertools.product(range(tokens), repeat=length))
    return [list(s) for s in rng.sample(pool, n)]


def _write_dataset(path: Path, ids, sources, references=None) -> None:
    lines = []
    for i, (inst, source) in enumerate(zip(ids, sources)):
        obj = {"id": inst, "source": source}
        if references is not None:
            obj["reference"] = references[i]
        lines.append(json.dumps(obj))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cli_call(chunk: int, argv: list[str], out: Path, ops: int, what: str) -> tuple[Rep, bytes]:
    """Time one in-process CLI call; a nonzero exit or a raise fails all its operations."""
    out.unlink(missing_ok=True)
    rep = Rep(chunk=chunk, ops=ops)
    try:
        with METER.timing(rep):
            code = cli.main(argv)
    except Exception as exc:  # an internal error fails the call's operations, the run goes on
        code = repr(exc)
    if code != 0:
        rep.fail(ops, f"{what} chunk {chunk}: cli returned {code}")
        return rep, b""
    data = out.read_bytes()
    rep.digest = _sha256(data)
    return rep, data


def _vgbs_width(budget: int) -> int:
    k = 1
    while k + k * k < budget:
        k += 1
    return k


def _closed_form(algorithm: str, budget: int, tokens: int) -> int | None:
    """Ledger evaluations a sweep cell must be charged, where a closed form exists."""
    if algorithm == "greedy":
        return tokens
    if algorithm == "vgbs":
        k = _vgbs_width(budget)
        return tokens * (k + k * k)
    if algorithm == "mcts":
        return tokens * (budget + 1)
    return None


class Sweep:
    """``seqdecode sweep`` in-process; every cell decodes at batch size 1."""

    chunks, instances = 50, 1
    algorithms = ("greedy", "beam", "vgbs", "sample_rerank", "mcts")
    budgets = (1, 10, 25, 50)
    vocab, max_len = 8, 5

    def __init__(self, seed: int) -> None:
        n = self.chunks * self.instances
        sources = _distinct_sequences(random.Random(seed), n, SOURCE_LEN, self.vocab - 1)
        ids = [f"{seed}-{i:03d}" for i in range(n)]
        self.out = WORK_DIR / "sweep-report.json"
        self.argvs = []
        for c in range(self.chunks):
            part = slice(c * self.instances, (c + 1) * self.instances)
            dataset = WORK_DIR / f"sweep-{c}.jsonl"
            _write_dataset(dataset, ids[part], sources[part])
            self.argvs.append([
                "sweep", "--dataset", str(dataset), "--out", str(self.out),
                "--algorithms", ",".join(self.algorithms),
                "--budgets", ",".join(str(b) for b in self.budgets),
                "--vocab-size", str(self.vocab), "--max-len", str(self.max_len),
                "--context-order", "1", "--metric", "coverage",
            ])  # fmt: skip
        self.ops = self.instances * len(self.algorithms) * len(self.budgets)

    def run(self, chunk: int) -> Rep:
        rep, data = _cli_call(chunk, self.argvs[chunk], self.out, self.ops, "sweep")
        if not data:
            return rep
        cells = json.loads(data)["cells"]
        if len(cells) != self.ops:
            rep.fail(self.ops, f"sweep chunk {chunk}: {len(cells)} cells, expected {self.ops}")
        for c in cells:
            key = f"{c['algorithm']}/{c['budget']}"
            evaluations, tokens = c["evaluations"], c["tokens"]
            want = _closed_form(c["algorithm"], c["budget"], tokens)
            if tokens < 1 or (want is not None and evaluations != want):
                rep.fail(1, f"sweep cell {c['instance_id']}/{key}: {evaluations} evaluations "
                            f"for {tokens} tokens, closed form {want}")  # fmt: skip
            pair = rep.cells.setdefault(key, [0, 0])
            pair[0] += evaluations
            pair[1] += tokens
        rep.tokens = sum(t for _, t in rep.cells.values())
        rep.sequences = len(cells)
        return rep


class MctsBatch:
    """A model-valued and a rollout-valued batched ``decode_mcts`` call; no harness.

    The two configurations have the shapes of acceptance criteria 11 and 5.
    Chunk ``c`` runs configuration ``c mod 2`` on root set ``c // 2``.
    """

    root_sets, instances = 2, 128
    vocab, max_len = 8, 5
    configs = (
        ("model", mcts.SearchConfig(num_simulations=100, num_sparse_actions=3)),
        ("rollout", mcts.SearchConfig(
            num_simulations=50, num_sparse_actions=3, c_puct=2.0,
            backup="max", root_selection="max_value", value_source="rollout",
        )),
    )  # fmt: skip
    chunks = root_sets * len(configs)

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.sources = [
            _distinct_sequences(rng, self.instances, SOURCE_LEN, self.vocab - 1)
            for _ in range(self.root_sets)
        ]
        self.metric = scoring.coverage_metric()
        self.ops = self.instances

    def run(self, chunk: int) -> Rep:
        rep = Rep(chunk=chunk, ops=self.ops)
        name, cfg = self.configs[chunk % len(self.configs)]
        # A fresh model per call: cold value cache and an empty ledger.
        value_metric = self.metric if cfg.value_source == "model" else None
        model = models.make_seeded_model(0, self.vocab, self.max_len, 1, value_metric=value_metric)
        roots = [model.initial_state(s) for s in self.sources[chunk // len(self.configs)]]
        try:
            with METER.timing(rep):
                out = mcts.decode_mcts(model, roots, cfg, metric=self.metric)
        except Exception as exc:  # a raising call fails its operations, the run goes on
            rep.fail(self.ops, f"mcts_batch {name} chunk {chunk}: raised {exc!r}")
            return rep
        evaluations, tokens = model.ledger.snapshot()
        sequences = [list(c.sequence) for c in out]
        emitted = sum(len(s) for s in sequences)
        want = tokens * (cfg.num_simulations + 1)
        if tokens != emitted:
            rep.fail(self.ops, f"mcts_batch {name} chunk {chunk}: "
                               f"ledger tokens {tokens} != emitted {emitted}")  # fmt: skip
        elif cfg.value_source == "model" and evaluations != want:
            rep.fail(self.ops, f"mcts_batch {name} chunk {chunk}: {evaluations} "
                               f"evaluations for {tokens} tokens, closed form {want}")  # fmt: skip
        rep.cells[f"mcts_{name}/{cfg.num_simulations}"] = [evaluations, tokens]
        rep.tokens = tokens
        rep.sequences = len(out)
        rep.digest = _sha256(json.dumps([name, sequences, [evaluations, tokens]]).encode())
        return rep


class Oracle:
    """``seqdecode oracle`` in-process: exhaustive likelihood and metric argmax."""

    chunks, instances = 8, 1
    vocab, max_len = 6, 6

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        n, content = self.chunks * self.instances, self.vocab - 1
        sources = _distinct_sequences(rng, n, SOURCE_LEN, content)
        references = _distinct_sequences(rng, n, REFERENCE_LEN, content)
        self.ids = [f"{seed}-{i:03d}" for i in range(n)]
        self.out = WORK_DIR / "oracle-report.json"
        self.argvs = []
        for c in range(self.chunks):
            part = slice(c * self.instances, (c + 1) * self.instances)
            dataset = WORK_DIR / f"oracle-{c}.jsonl"
            _write_dataset(dataset, self.ids[part], sources[part], references[part])
            self.argvs.append([
                "oracle", "--dataset", str(dataset), "--out", str(self.out),
                "--vocab-size", str(self.vocab), "--max-len", str(self.max_len),
                "--context-order", "1", "--metric", "bertscore",
            ])  # fmt: skip
        # With strictly positive priors every content string of length 0..max_len,
        # closed by EOS, is enumerated and scored.
        lengths = range(self.max_len + 1)
        self.sequences = sum(content**n for n in lengths)
        self.tokens = sum((n + 1) * content**n for n in lengths)

    def run(self, chunk: int) -> Rep:
        rep, data = _cli_call(chunk, self.argvs[chunk], self.out, self.instances, "oracle")
        if not data:
            return rep
        rows = {row["id"]: row for row in json.loads(data)}
        for inst in self.ids[chunk * self.instances : (chunk + 1) * self.instances]:
            row = rows.get(inst)
            if row is None or not 0.0 <= row["metric_score"] <= 1.0:
                rep.fail(1, f"oracle instance {inst}: missing or out-of-range row")
        rep.sequences = self.sequences * self.instances
        rep.tokens = self.tokens * self.instances
        return rep


WORKLOADS = {"sweep": Sweep, "mcts_batch": MctsBatch, "oracle": Oracle}


def _per_layer(tracer: Tracer, reps: int) -> dict[str, tuple[float, str]]:
    """Per-layer attribution as (value, unit): totals are per traced call, times
    named ``.us`` are per layer call, and ``us_per_state`` is per evaluated state."""

    c, calls, total, self_time = tracer.counts, tracer.calls, tracer.total, tracer.self_time

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def per_rep(value: float, unit: str) -> tuple[float, str]:
        return value / reps, unit

    def per_call_us(name: str, table=total) -> tuple[float, str]:
        return ratio(table[name], calls[name]) * 1e6, "us"

    def per_state_us(name: str) -> tuple[float, str]:
        return ratio(total[name], c[f"{name}.states"]) * 1e6, "us"

    charged = c["models.evaluate_root.states"] + c["models.evaluate_step.states"]
    return {
        "harness.cells": per_rep(c["harness.cells"], "count"),
        "harness.run_experiment.s": per_rep(total["harness.run_experiment"], "s"),
        "harness.self_s": per_rep(self_time["harness.run_experiment"], "s"),
        "harness.load_dataset.s": per_rep(total["harness.load_dataset"], "s"),
        "harness.emit_report.s": per_rep(total["harness.emit_report"], "s"),
        "decoders.greedy_decode.s": per_rep(total["decoders.greedy_decode"], "s"),
        "decoders.beam_search.s": per_rep(total["decoders.beam_search"], "s"),
        "decoders.value_guided_beam_search.s": per_rep(total["decoders.value_guided_beam_search"], "s"),
        "decoders.sample_sequences.s": per_rep(total["decoders.sample_sequences"], "s"),
        "decoders.rerank.s": per_rep(total["decoders.rerank"], "s"),
        "mcts.decode_mcts.s": per_rep(total["mcts.decode_mcts"], "s"),
        "mcts.sims_per_s": (ratio(c["mcts.sims"], total["mcts.decode_mcts"]), "1/s"),
        "mcts.simulate.us": per_call_us("mcts.simulate"),
        "mcts.uct_select_action.us": per_call_us("mcts.uct_select_action"),
        "mcts.descent_depth": (ratio(calls["mcts.uct_select_action"], calls["mcts.simulate"]), "count"),
        "mcts.expand.self_us": per_call_us("mcts.expand", self_time),
        "mcts.backward.us": per_call_us("mcts.backward"),
        "models.evaluate_root.states": per_rep(c["models.evaluate_root.states"], "count"),
        "models.evaluate_root.us_per_state": per_state_us("models.evaluate_root"),
        "models.evaluate_step.states": per_rep(c["models.evaluate_step.states"], "count"),
        "models.evaluate_step.us_per_state": per_state_us("models.evaluate_step"),
        "models.evaluate_step.terminal_share": (
            ratio(c["models.evaluate_step.terminal"], c["models.evaluate_step.states"]), "ratio"
        ),
        "models.rollout_value.calls": per_rep(calls["models.rollout_value"], "count"),
        "models.rollout_value.s": per_rep(total["models.rollout_value"], "s"),
        "models.rollout_value.eval_share": (
            ratio(c["models.rollout_value.evaluations"], charged), "ratio"
        ),
        "mdp.step.calls": per_rep(calls["mdp.step"], "count"),
        "mdp.step.us": per_call_us("mdp.step"),
        "mdp.terminal_reward.us": per_call_us("mdp.terminal_reward"),
        "scoring.metric.calls": per_rep(calls["scoring.metric"], "count"),
        "scoring.metric.us": per_call_us("scoring.metric"),
        "oracle.enumerate_sequences.s": per_rep(total["oracle.enumerate_sequences"], "s"),
        "oracle.exact_argmax_likelihood.s": per_rep(total["oracle.exact_argmax_likelihood"], "s"),
        "oracle.exact_argmax_metric.self_s": per_rep(self_time["oracle.exact_argmax_metric"], "s"),
    }


def _environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    pinned = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in pinned},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = (ROOT / "src").resolve()
    if src not in Path(seqdecode.__file__).resolve().parents:
        print(f"worker: seqdecode imported from {seqdecode.__file__}, not {src}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed)
    setup_wall = time.perf_counter() - T0
    setup_s = setup_wall * _reference_scale([_calibration_sample() for _ in range(SETUP_SAMPLES)])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall": setup_wall}))
        return 0

    # Output digest per chunk: the golden record for its seed, else the chunk's first call.
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    golden_seed = args.seed == golden["seed"]
    expected: dict[int, str] = {}
    if golden_seed:
        expected = dict(enumerate(golden[args.workload]["digests"]))
        if len(expected) != workload.chunks:
            print(f"worker: golden record has {len(expected)} chunks, not {workload.chunks}", file=sys.stderr)
            return 2
    tracer = Tracer() if args.trace else None
    METER.enabled = tracer is None  # per-layer times are raw; samples would land in spans
    untraced: list[Rep] = []
    traced: list[Rep] = []

    def measure(chunk: int, trace_it: bool) -> None:
        if trace_it:
            tracer.install()
            try:
                rep = workload.run(chunk)
            finally:
                tracer.uninstall()
            tracer.flush(WORK_DIR / f"spans-{args.workload}.tsv")
            traced.append(rep)
        else:
            rep = workload.run(chunk)
            untraced.append(rep)
        want = expected.setdefault(chunk, rep.digest)
        if rep.digest != want:
            side = "traced" if trace_it else "untraced"
            rep.fail(rep.ops, f"{args.workload} chunk {chunk} {side}: output digest "
                              f"{rep.digest[:16]} != expected {want[:16]}")  # fmt: skip

    start = time.perf_counter()
    rounds = 0
    while True:
        chunk = rounds % workload.chunks
        if tracer is None:
            measure(chunk, False)
        else:  # the same chunk untraced and traced, alternating which goes first
            for trace_it in (False, True) if rounds % 2 == 0 else (True, False):
                measure(chunk, trace_it)
        rounds += 1
        elapsed = time.perf_counter() - start
        whole_pass = rounds >= workload.chunks or tracer is not None
        if whole_pass and elapsed + elapsed / rounds > args.seconds:  # the next round would overrun
            break

    reps = untraced + traced
    distinct = {r.chunk: r for r in reversed(untraced)}  # first call of each chunk
    cells: dict[str, list[int]] = {}
    for r in distinct.values():
        for key, (e, t) in r.cells.items():
            pair = cells.setdefault(key, [0, 0])
            pair[0] += e
            pair[1] += t
    evaluations = sum(e for e, _ in cells.values())
    tokens = sum(t for _, t in cells.values())
    untraced_wall = sum(r.wall for r in untraced)
    if tracer is None:
        # One pass over the seed's inputs: each chunk's median call, in reference seconds.
        pass_s = sum(
            statistics.median(r.wall * r.scale for r in untraced if r.chunk == c) for c in distinct
        )
        metrics = {
            "wall_s": (pass_s, "s"),
            "tokens_per_s": (sum(r.tokens for r in distinct.values()) / pass_s, "1/s"),
            "sequences_per_s": (sum(r.sequences for r in distinct.values()) / pass_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = _per_layer(tracer, len(traced))
        metrics["ledger.evals_per_token"] = (evaluations / tokens if tokens else 0.0, "count")
        traced_wall = sum(r.wall for r in traced)
        metrics["trace.overhead_pct"] = ((traced_wall - untraced_wall) / untraced_wall * 100.0, "%")
    result = {
        "setup_s": setup_s,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "walls": [r.wall for r in untraced],
        "scales": [r.scale for r in untraced],
        "traced_walls": [r.wall for r in traced],
        "chunks": sorted(distinct),
        "attempted": sum(r.ops for r in reps),
        "failed": sum(r.failed for r in reps),
        "problems": [p for r in reps for p in r.problems],
        "digests": [distinct[c].digest for c in sorted(distinct)],
        "golden_checked": golden_seed,
        "evals_per_token_by_cell": {k: e / t for k, (e, t) in sorted(cells.items())},
        "environment": _environment(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
