"""Span tracing of seqdecode from outside the package.

``Tracer.install()`` replaces the package's public functions and methods with
wrappers that record one span (name, start, end, parent) per call, plus
counts taken at the same boundary. ``uninstall()`` puts the originals back,
so untraced calls run the unmodified code. Nothing under ``src/`` is edited.

Functions are bound into other modules by ``from ... import``, so each
wrapper is installed on every ``seqdecode`` module attribute that holds the
original function (``step`` alone is bound in five modules). Methods are
patched on the class that defines them.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter


def _count_cells(counts, args, result, before):
    counts["harness.cells"] += len(result.cells)


def _count_sims(counts, args, result, before):
    counts["mcts.sims"] += args[0].batch_size


def _count_root_states(counts, args, result, before):
    counts["models.evaluate_root.states"] += len(args[1])


def _count_step_states(counts, args, result, before):
    counts["models.evaluate_step.states"] += len(args[1])
    counts["models.evaluate_step.terminal"] += sum(1 for ms in args[1] if ms.state.terminal)


def _ledger_evaluations(args):
    return args[0].ledger.evaluations


def _count_rollout_evaluations(counts, args, result, before):
    counts["models.rollout_value.evaluations"] += args[0].ledger.evaluations - before


# (module, function, span name, count hook, before hook)
FUNCTIONS = (
    ("cli", "main", "cli.main", None, None),
    ("harness", "load_dataset", "harness.load_dataset", None, None),
    ("harness", "run_experiment", "harness.run_experiment", _count_cells, None),
    ("harness", "emit_report", "harness.emit_report", None, None),
    ("decoders", "greedy_decode", "decoders.greedy_decode", None, None),
    ("decoders", "beam_search", "decoders.beam_search", None, None),
    ("decoders", "value_guided_beam_search", "decoders.value_guided_beam_search", None, None),
    ("decoders", "sample_sequences", "decoders.sample_sequences", None, None),
    ("decoders", "rerank_by_score", "decoders.rerank", None, None),
    ("decoders", "rerank_by_value", "decoders.rerank", None, None),
    ("mcts", "decode_mcts", "mcts.decode_mcts", None, None),
    ("models", "rollout_value", "models.rollout_value", _count_rollout_evaluations, _ledger_evaluations),
    ("mdp", "step", "mdp.step", None, None),
    ("mdp", "terminal_reward", "mdp.terminal_reward", None, None),
    ("oracle", "enumerate_sequences", "oracle.enumerate_sequences", None, None),
    ("oracle", "exact_argmax_likelihood", "oracle.exact_argmax_likelihood", None, None),
    ("oracle", "exact_argmax_metric", "oracle.exact_argmax_metric", None, None),
)

# (module, class, method, span name, count hook)
METHODS = (
    ("mcts", "ArenaSearch", "simulate", "mcts.simulate", _count_sims),
    ("mcts", "ArenaSearch", "uct_select_action", "mcts.uct_select_action", None),
    ("mcts", "ArenaSearch", "expand", "mcts.expand", None),
    ("mcts", "ArenaSearch", "backward", "mcts.backward", None),
    ("models", "PolicyValueModel", "evaluate_root", "models.evaluate_root", _count_root_states),
    ("models", "PolicyValueModel", "evaluate_step", "models.evaluate_step", _count_step_states),
    ("scoring", "Metric", "__call__", "scoring.metric", None),
)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._stack: list[int] = []
        self.counts: Counter = Counter()  # taken at span boundaries by the count hooks
        self.calls: Counter = Counter()
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, count=None, before=None):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        name_ids, starts, ends, parents, stack = (
            self.name_ids, self.starts, self.ends, self.parents, self._stack
        )
        counts = self.counts

        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            pre = before(args) if before is not None else None
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, result, pre)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "seqdecode"]
        for module, attr, name, count, before in FUNCTIONS:
            original = getattr(sys.modules[f"seqdecode.{module}"], attr)
            wrapped = self._wrap(original, name, count, before)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, original))
        for module, cls_name, attr, name, count in METHODS:
            cls = getattr(sys.modules[f"seqdecode.{module}"], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(original, name, count))
            self._undo.append((cls, attr, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def flush(self, path) -> None:
        """Add the recorded spans to the running totals, write them to ``path``
        and drop them.

        A span's self time is its duration minus the durations of its direct
        children.
        """
        n = len(self.starts)
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += durations[i]
        for i in range(n):
            name = self.names[self.name_ids[i]]
            self.calls[name] += 1
            self.total[name] += durations[i]
            self.self_time[name] += durations[i] - child[i]
        self._write_spans(path)
        for buf in (self.name_ids, self.starts, self.ends, self.parents):
            del buf[:]

    def _write_spans(self, path) -> None:
        """One span per line: name, start, end, parent index (-1 for none)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for i in range(len(self.starts)):
                fh.write(
                    f"{self.names[self.name_ids[i]]}\t{self.starts[i]!r}\t"
                    f"{self.ends[i]!r}\t{self.parents[i]}\n"
                )
