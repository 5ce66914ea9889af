"""Independent answer checks.

Plain set arithmetic over the requirement candidate lists the benchmark fed
to tsred.  Nothing here imports or calls tsred, so a defect in tsred's own
cover check cannot hide a wrong answer.
"""

from __future__ import annotations

from typing import Iterable, Sequence

# Exact minima of the bundled instances, as published.
BUNDLED_MINIMA = {
    "experiment-1": 3,
    "experiment-2": 3,
    "experiment-3": 3,
    "experiment-4": 11,
    "experiment-5": 9,
}


class Checker:
    """Cover checks for one instance given as (requirement id, candidates)."""

    def __init__(self, tests: Iterable[str], requirements: Iterable[tuple[str, Iterable[str]]]):
        self.tests = frozenset(tests)
        self.candidates = tuple(frozenset(c) for _, c in requirements)

    def irredundant(self, selection: Sequence[str]) -> bool:
        """No single test can be dropped with the rest still covering: every
        chosen test is the only chosen candidate of some requirement."""
        chosen = set(selection)
        sole: set[str] = set()
        for c in self.candidates:
            hit = c & chosen
            if len(hit) == 1:
                sole |= hit
        return sole == chosen

    def lower_bound(self) -> int:
        """Requirements with pairwise disjoint candidate sets each need their
        own test, so a greedy packing of them bounds any cover from below."""
        used: set[str] = set()
        bound = 0
        for c in sorted(self.candidates, key=len):
            if not c & used:
                used |= c
                bound += 1
        return bound

    def selection_problems(self, selection: Sequence[str], minimum: int | None = None) -> list[str]:
        problems = []
        if len(set(selection)) != len(selection):
            problems.append("repeats a test")
        unknown = set(selection) - self.tests
        if unknown:
            problems.append(f"unknown tests {sorted(unknown)}")
        missing = sum(1 for c in self.candidates if not c & set(selection))
        if missing:
            problems.append(f"leaves {missing} requirements uncovered")
        if minimum is not None and len(set(selection)) < minimum:
            problems.append(f"size {len(set(selection))} is below the minimum {minimum}")
        return problems

    def minimum_problems(self, size: int, witness: Sequence[str]) -> list[str]:
        """A claimed minimum and its witness."""
        problems = [f"witness {p}" for p in self.selection_problems(witness)]
        if len(witness) != size:
            problems.append(f"witness has {len(witness)} tests, claimed minimum {size}")
        if size < self.lower_bound():
            problems.append(f"minimum {size} is below the packing bound {self.lower_bound()}")
        return problems

    def enumeration_problems(
        self,
        size: int,
        covers: Sequence[Sequence[str]],
        complete: bool,
        cap: int,
        minimum: int,
        witness: Sequence[str],
    ) -> list[str]:
        """Every enumerated cover is a valid, irredundant cover of the
        minimum size, the list has no repeats, and a complete list contains
        the minimum_cover witness."""
        problems = []
        if size != minimum:
            problems.append(f"enumeration size {size} differs from minimum_cover {minimum}")
        keys = [frozenset(c) for c in covers]
        if len(set(keys)) != len(keys):
            problems.append("repeated cover")
        if not keys:
            problems.append("no cover enumerated")
        if len(keys) > cap or (not complete and len(keys) != cap):
            problems.append(f"{len(keys)} covers inconsistent with cap {cap}")
        for c in covers:
            bad = self.selection_problems(c)
            if bad or len(c) != minimum or not self.irredundant(c):
                problems.append(f"bad cover {sorted(c)}: {bad or 'size or redundancy'}")
                break
        if complete and frozenset(witness) not in set(keys):
            problems.append("minimum_cover witness missing from the complete enumeration")
        return problems
