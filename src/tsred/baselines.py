"""Baseline reducers: two greedy strategies, a divide-and-conquer heuristic,
and a single-solution simulated annealer over permutations.

The greedy family is built from the bitset set-cover moves of `core`.  All
of their tie-breaks resolve to the lowest test index, which keeps every run
deterministic; where several equally good picks exist the returned set is
one minimal-cardinality choice among them, not necessarily the only one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Instance,
    ParameterError,
    Solution,
    best_gain,
    check_seed,
    coverage,
    decode,
    essential_tests,
    greedy_fill,
    objective,
    position_rows,
    undominated,
)
from .oracle import packing_bound


def greedy_ge(instance: Instance) -> list[int]:
    """Essential tests first, then repeatedly the test covering the most
    uncovered requirements.  Returns test indices in selection order."""
    everyone = (1 << instance.n) - 1
    selected = essential_tests(instance.candidate_masks, instance.full_mask, everyone)
    uncovered = instance.full_mask & ~coverage(instance, selected)
    return selected + greedy_fill(instance.test_masks, uncovered, everyone)


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
    active = (1 << instance.n) - 1
    selected: list[int] = []
    while covered != full:
        kept = undominated([m & ~covered for m in masks], instance.candidate_masks, active)
        picks = essential_tests(instance.candidate_masks, full & ~covered, kept)
        if not picks and kept == active:
            picks = [best_gain(masks, full & ~covered, active)]
        active = kept
        for t in picks:
            selected.append(t)
            covered |= masks[t]
            active &= ~(1 << t)
    return selected


def hgs(instance: Instance) -> list[int]:
    """Requirement-group heuristic.

    Tests from singleton candidate sets come first.  Remaining requirement
    groups are processed in increasing candidate-set cardinality; within a
    cardinality the test occurring in the most unmarked groups wins, with
    ties settled by occurrence counts at the next cardinalities and finally
    by lowest index.  Selecting a test marks every group containing it.
    """
    masks = instance.test_masks
    candidates = instance.candidate_masks
    selected = essential_tests(candidates, instance.full_mask, (1 << instance.n) - 1)
    marked = coverage(instance, selected)  # requirements covered so far
    groups_of_size: dict[int, int] = {}  # cardinality -> bitset of requirements
    for i, c in enumerate(candidates):
        size = c.bit_count()
        if size > 1:
            groups_of_size[size] = groups_of_size.get(size, 0) | 1 << i
    cardinalities = sorted(groups_of_size)
    for pos, card in enumerate(cardinalities):
        while open_groups := groups_of_size[card] & ~marked:
            tied = [t for t in range(instance.n) if masks[t] & open_groups]
            for size in cardinalities[pos:]:
                open_of_size = groups_of_size[size] & ~marked
                counts = [(masks[t] & open_of_size).bit_count() for t in tied]
                top = max(counts)
                tied = [t for t, count in zip(tied, counts) if count == top]
                if len(tied) == 1:
                    break
            selected.append(tied[0])
            marked |= masks[tied[0]]
    return selected


STOP_FLOOR = 0.001
MAX_STEPS = 1_000_000  # most temperature steps one annealing run may take


@dataclass(frozen=True)
class SAParams:
    alpha: float = 0.990
    t_initial: float = 2984.975

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError("alpha must lie strictly between 0 and 1")
        if not STOP_FLOOR < self.t_initial < math.inf:
            raise ParameterError(f"t_initial must be finite and above the stop floor {STOP_FLOOR}")
        steps = math.log(STOP_FLOOR / self.t_initial) / math.log(self.alpha)
        if steps > MAX_STEPS:
            raise ParameterError(
                f"cooling schedule takes about {steps:.3g} steps; the limit is {MAX_STEPS}"
            )


@dataclass(frozen=True)
class SAResult:
    solution: Solution
    history: tuple[int, ...]  # best objective after each temperature step


def simulated_annealing(
    instance: Instance, params: SAParams | None = None, seed: int = 0
) -> SAResult:
    """Swap-neighborhood annealing on permutations with geometric cooling,
    under `params` (the default SAParams when None) and seeded by `seed`.

    One proposal per temperature; improving moves are always taken, worse
    ones with probability exp(-delta/T).  Cooling stops once T falls to
    STOP_FLOOR (0.001), which for the default schedule is roughly 1.5e3
    steps.  The best permutation ever seen is decoded and returned.

    The swap positions come from `core.position_rows`, `core.BLOCK` pairs
    per draw; the acceptance draw `rng.random()` is taken one step at a
    time, only for worsening moves, so it falls between the blocks in the
    random stream.  A swap that `core.objective`'s skip rule leaves unscanned
    has delta 0 and is taken, as a scan would decide.  The permutation is
    swapped in place and swapped back when a proposal is rejected.  Once
    the best objective sits on `oracle.packing_bound`'s floor, a step
    proposes nothing and only records the best objective, so `history`
    keeps one entry per step.
    """
    check_seed(seed)
    p = params or SAParams()
    rng = np.random.default_rng(seed)
    n = instance.n
    current = rng.permutation(n).tolist()
    current_obj = objective(instance, current)
    floor = packing_bound(instance)
    best, best_obj = tuple(current), current_obj
    temperature = p.t_initial
    history: list[int] = []
    positions = position_rows(rng, n)
    while temperature > STOP_FLOOR:
        if best_obj > floor:  # never so with fewer than the two tests a swap needs
            i, j = next(positions)
            current[i], current[j] = current[j], current[i]
            lo, hi = (i, j) if i < j else (j, i)  # core.objective's skip rule
            cand_obj = objective(instance, current) if lo < current_obj <= hi + 1 else current_obj
            delta = cand_obj - current_obj
            if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                current_obj = cand_obj
                if current_obj < best_obj:
                    best, best_obj = tuple(current), current_obj
            else:
                current[i], current[j] = current[j], current[i]
        history.append(best_obj)
        temperature *= p.alpha
    return SAResult(decode(instance, best), tuple(history))
