"""Baseline reducers: two greedy strategies, a divide-and-conquer heuristic,
and a single-solution simulated annealer over permutations.

The greedy family works directly on selected-test sets.  All of their
tie-breaks resolve to the lowest test index, which keeps every run
deterministic; where several equally good picks exist the returned set is
one minimal-cardinality choice among them, not necessarily the only one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Instance, ParameterError, Solution, decode, objective, swap_at, two_positions


def greedy_ge(instance: Instance) -> list[int]:
    """Essential tests first, then repeatedly the test covering the most
    uncovered requirements.  Returns test indices in selection order."""
    masks = instance.test_masks
    full = instance.full_mask
    covered = 0
    chosen: set[int] = set()
    selected: list[int] = []

    def take(t: int) -> None:
        nonlocal covered
        chosen.add(t)
        selected.append(t)
        covered |= masks[t]

    for req in instance.requirements:
        if len(req.candidates) == 1:
            (t,) = req.candidates
            if t not in chosen:
                take(t)
    while covered != full:
        best_t, best_gain = -1, 0
        for t in range(instance.n):
            if t in chosen:
                continue
            gain = (masks[t] & ~covered).bit_count()
            if gain > best_gain:
                best_t, best_gain = t, gain
        take(best_t)
    return selected


def greedy_gre(instance: Instance) -> list[int]:
    """Redundancy-and-essentials loop with a greedy fallback.

    Each round drops every test whose uncovered-requirement set is contained
    in another active test's (equal sets keep the lowest index), then selects
    tests that became the sole remaining candidate of some uncovered
    requirement.  Only when a round changes nothing is a single greedy pick
    made.  Redundancy is always evaluated against the currently uncovered
    requirements.
    """
    masks = instance.test_masks
    full = instance.full_mask
    covered = 0
    active = set(range(instance.n))
    selected: list[int] = []

    def take(t: int) -> None:
        nonlocal covered
        active.discard(t)
        selected.append(t)
        covered |= masks[t]

    while covered != full:
        progress = False

        order = sorted(active)
        uncov = {t: masks[t] & ~covered & full for t in order}
        redundant = set()
        for t in order:
            for u in order:
                if u == t:
                    continue
                if uncov[t] & ~uncov[u]:
                    continue  # t contributes something u does not
                if uncov[t] != uncov[u] or u < t:
                    redundant.add(t)
                    break
        if redundant:
            active -= redundant
            progress = True

        for i, req in enumerate(instance.requirements):
            if covered >> i & 1:
                continue
            remaining = [t for t in req.candidates if t in active]
            if len(remaining) == 1:
                take(remaining[0])
                progress = True
        if covered == full or progress:
            continue

        best_t, best_gain = -1, 0
        for t in sorted(active):
            gain = (masks[t] & ~covered).bit_count()
            if gain > best_gain:
                best_t, best_gain = t, gain
        take(best_t)
    return selected


def hgs(instance: Instance) -> list[int]:
    """Requirement-group heuristic.

    Tests from singleton candidate sets come first.  Remaining requirement
    groups are processed in increasing candidate-set cardinality; within a
    cardinality the test occurring in the most unmarked groups wins, with
    ties settled by occurrence counts at the next cardinalities and finally
    by lowest index.  Selecting a test marks every group containing it.
    """
    groups = [set(req.candidates) for req in instance.requirements]
    marked = [False] * len(groups)
    selected: list[int] = []

    def take(t: int) -> None:
        selected.append(t)
        for i, g in enumerate(groups):
            if not marked[i] and t in g:
                marked[i] = True

    for i, g in enumerate(groups):
        if len(g) == 1 and not marked[i]:
            (t,) = g
            take(t)

    cardinalities = sorted({len(g) for g in groups if len(g) > 1})

    def choose(tied: list[int], card: int) -> int:
        for next_card in cardinalities[cardinalities.index(card) :]:
            current = [g for i, g in enumerate(groups) if not marked[i] and len(g) == next_card]
            counts = {t: sum(t in g for g in current) for t in tied}
            top = max(counts.values())
            tied = sorted(t for t in tied if counts[t] == top)
            if len(tied) == 1:
                return tied[0]
        return tied[0]

    for card in cardinalities:
        while True:
            pool = sorted(
                {t for i, g in enumerate(groups) if not marked[i] and len(g) == card for t in g}
            )
            if not pool:
                break
            take(choose(pool, card))
    return selected


STOP_FLOOR = 0.001


@dataclass
class SAParams:
    alpha: float = 0.990
    t_initial: float = 2984.975
    t_final: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError("alpha must lie strictly between 0 and 1")
        if self.t_final < 0.0 or self.t_initial <= self.t_final:
            raise ParameterError("need t_initial > t_final >= 0")


@dataclass(frozen=True)
class SAResult:
    solution: Solution
    history: tuple[int, ...]  # best objective after each temperature step


def simulated_annealing(instance: Instance, params: SAParams | None = None) -> SAResult:
    """Swap-neighborhood annealing on permutations with geometric cooling.

    One proposal per temperature; improving moves are always taken, worse
    ones with probability exp(-delta/T).  Cooling stops once T falls to
    max(t_final, 0.001), which for the default schedule is roughly 1.5e3
    steps.  The best permutation ever seen is decoded and returned.
    """
    p = params or SAParams()
    rng = np.random.default_rng(p.seed)
    n = instance.n
    current = tuple(int(v) for v in rng.permutation(n))
    current_obj = objective(instance, current)
    best, best_obj = current, current_obj
    stop = max(p.t_final, STOP_FLOOR)
    temperature = p.t_initial
    history: list[int] = []
    while temperature > stop:
        if n >= 2:
            candidate = swap_at(current, *two_positions(rng, n))
            cand_obj = objective(instance, candidate)
            delta = cand_obj - current_obj
            if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                current, current_obj = candidate, cand_obj
                if current_obj < best_obj:
                    best, best_obj = current, current_obj
        history.append(best_obj)
        temperature *= p.alpha
    return SAResult(decode(instance, best), tuple(history))
