"""Tracing from outside the package.

Public functions are replaced where their callers look them up (a module
global such as ``tsred.fis.objective``) by wrappers that record one span per
call, and are put back afterwards.  Nothing under ``src/`` is edited.  Spans
carry a name, start, end and parent index; they stay in memory and are
written out once, at exit.  Private helpers such as ``_two_positions`` and
small primitives such as ``hamming`` are not wrapped, so their time stays in
their caller's self time.

Two lighter shims ride along: ``Observer`` keeps the result objects of FIS
and SA runs (for the search counters), and ``SwapProbe`` counts SA swap
proposals that fall wholly past the covering prefix.  Neither reads a clock.
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import Callable

import numpy as np

# Span name -> (module, attribute) sites where callers look the function up.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "core.objective": (("core", "objective"), ("fis", "objective"), ("baselines", "objective")),
    "core.decode": (("fis", "decode"), ("baselines", "decode")),
    "core.is_cover": (("bench", "is_cover"), ("io", "is_cover"), ("cli", "is_cover")),
    "core.validate_instance": (("io", "validate_instance"),),
    "corpus.builtin": (("corpus", "builtin"),),
    "fuzzy.infer": (("fis", "infer"),),
    "fuzzy.default_rule_base": (("fis", "default_rule_base"),),
    "fis.apply_operator": (("fis", "apply_operator"),),
    "fis.measure": (("fis", "measure_intensification"), ("fis", "measure_diversification")),
    "fis.run_fis": (("bench", "run_fis"),),
    "baselines.sa": (("bench", "simulated_annealing"),),
    "baselines.swap_at": (("baselines", "swap_at"),),
    "baselines.greedy_ge": (("bench", "greedy_ge"),),
    "baselines.greedy_gre": (("bench", "greedy_gre"),),
    "baselines.hgs": (("bench", "hgs"),),
    "oracle.minimum_cover": (
        ("oracle", "minimum_cover"),
        ("bench", "minimum_cover"),
        ("cli", "minimum_cover"),
    ),
    "oracle.enumerate_minimum_covers": (
        ("oracle", "enumerate_minimum_covers"),
        ("cli", "enumerate_minimum_covers"),
    ),
    "io.parse_instance": (("io", "parse_instance"),),
    "io.write_report": (("cli", "write_report"),),
    "cli.main": (("cli", "main"),),
    "bench.run_algorithm": (("bench", "run_algorithm"),),
    "bench.solve_report": (("cli", "solve_report"),),
}

HARNESS = "perfbench.pass"


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self, package):
        self.package = package
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def replace(self, module: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        mod = getattr(self.package, module, None)
        original = getattr(mod, attr, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        setattr(mod, attr, make(original))
        self._undo.append((mod, attr, original))

    def restore(self) -> None:
        while self._undo:
            mod, attr, original = self._undo.pop()
            setattr(mod, attr, original)


class Tracer:
    """In-memory span store.  Index ranges of the store mark phases."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._id(name)
        names, parents, stack = self.name, self.parent, self._stack
        starts, ends = self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self, patches: Patches) -> None:
        for name, sites in LAYERS.items():
            for module, attr in sites:
                patches.replace(module, attr, functools.partial(self.wrap, name))

    def summary(self, lo: int, hi: int) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) and self seconds over the
        spans with index in [lo, hi).  Self time is a span's duration minus
        the durations of its direct children; calls are sequential, so the
        children never overlap."""
        name = np.frombuffer(self.name, dtype=np.uint16)[lo:hi].astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)[lo:hi] - lo
        dur = (np.frombuffer(self.end)[lo:hi] - np.frombuffer(self.start)[lo:hi])
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        return {
            n: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, n in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


class Observer:
    """Keeps every FISResult and SAResult returned to ``tsred.bench``."""

    def __init__(self):
        self.fis: list = []
        self.sa: list = []

    def install(self, patches: Patches) -> None:
        for attr, sink in (("run_fis", self.fis), ("simulated_annealing", self.sa)):
            patches.replace("bench", attr, functools.partial(_keep, sink=sink))

    def take(self) -> tuple[list, list]:
        fis, sa = self.fis[:], self.sa[:]
        self.fis.clear()
        self.sa.clear()
        return fis, sa


def _keep(fn: Callable, sink: list) -> Callable:
    @functools.wraps(fn)
    def kept(*args, **kwargs):
        result = fn(*args, **kwargs)
        sink.append(result)
        return result

    return kept


class SwapProbe:
    """Counts SA proposals whose two swap positions both lie at or past the
    current permutation's covering prefix, where the move cannot change the
    objective.  The current prefix length is the objective value SA last
    computed for the permutation it now swaps in."""

    def __init__(self):
        self.proposals = 0
        self.tail = 0
        self._pending = (None, 0)
        self._current = (None, 0)

    def install(self, patches: Patches) -> None:
        patches.replace("baselines", "objective", self._objective)
        patches.replace("baselines", "swap_at", self._swap_at)

    def _objective(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def seen(instance, permutation):
            value = fn(instance, permutation)
            self._pending = (permutation, value)
            return value

        return seen

    def _swap_at(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(p, i, j):
            if p is self._pending[0]:
                self._current = self._pending
            if p is self._current[0]:
                self.proposals += 1
                self.tail += min(i, j) >= self._current[1]
            return fn(p, i, j)

        return counted

    @property
    def ratio(self) -> float:
        return self.tail / self.proposals if self.proposals else 0.0
