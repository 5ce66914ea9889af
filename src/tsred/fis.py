"""Fuzzy-controlled operator-switching search over test permutations.

A population of permutations is mutated by one shared perturbation operator
per iteration (greedy one-to-one replacement, so a member only changes when
the candidate decodes to a strictly shorter covering prefix).  After each
iteration three search measures are computed from the iteration's best
candidate, and the rule base decides whether to keep the current operator or
swap it for a uniformly random different one.

All randomness flows from numpy PCG64 generators seeded by the run's seed,
so runs are reproducible across platforms.  The run's generator, seeded by
`np.random.SeedSequence(seed)`, draws the starting population, the first
operator and each switch.  The moves draw from a generator of their own,
seeded by that sequence's first spawned child.  Each member of each
iteration, in member order, takes the next row (i, j, mate) of
`core.position_rows` (i and j distinct positions, mate below the population
size), whether or not its move is scored, so no operator or switch changes
which row a member takes.  Swap exchanges positions i and j, insertion moves
position i to j, reversal reverses lo = min(i, j) through hi = max(i, j),
and crossover keeps lo..hi and fills the other slots in the order of member
mate.

Swap, insertion and reversal touch only positions lo through hi, so a member
is scanned only when `core.objective`'s skip rule says the move can change
its objective.  Once the best objective sits on `oracle.packing_bound`'s
floor the run stops (a start on the floor runs no iteration, draws no move
and builds no iteration state); each iteration left records the best
objective and the operator in force when the floor was reached, and the
controller is not consulted again.

Members are lists.  Swap, insertion and reversal move a member in place, and
move it back unless the candidate replaces it; crossover builds a new list.
The iteration's best and the incumbent are copied as tuples only when they
change.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ne
from typing import Sequence

import numpy as np

from .core import Instance, ParameterError, Solution, check_seed, decode, objective, position_rows
from .fuzzy import RuleBase, default_rule_base, infer
from .oracle import packing_bound

OPERATORS: tuple[str, ...] = ("swap", "insertion", "reversal", "crossover")

# The inputs run_fis gives the rule base, and the most objective
# evaluations (population_size x max_iterations) one run may ask for.
MEASURES = frozenset({"quality", "intensification", "diversification"})
MAX_EVALUATIONS = 1_000_000


class LengthMismatchError(ValueError):
    pass


def hamming(p: Sequence[int], q: Sequence[int]) -> float:
    """Fraction of positions where two equal-length sequences differ."""
    if len(p) != len(q):
        raise LengthMismatchError(f"lengths differ: {len(p)} vs {len(q)}")
    if not len(p):
        return 0.0
    return sum(map(ne, p, q)) / len(p)


def measure_quality(previous_objective: int, current_objective: int, n: int) -> float:
    """Improvement signal in [0, 1]; 0.5 is neutral, above 0.5 an improvement."""
    value = 0.5 + (previous_objective - current_objective) / (2 * n)
    return min(1.0, max(0.0, value))


def measure_diversification(
    x: Sequence[int], population: Sequence[Sequence[int]] | np.ndarray
) -> float:
    """Mean hamming distance from x to the population members, given as
    sequences or as the rows of a 2-D int array: the positions where x and a
    member differ, counted over all members, divided by n x members.  The
    count is an exact integer and the quotient is rounded once, so the float
    is the correctly rounded ratio on every Python and platform."""
    if isinstance(population, np.ndarray) and population.ndim != 2:
        raise LengthMismatchError(f"population array is {population.ndim}-D, not 2-D")
    if len(population) == 0:
        raise ValueError("population is empty")
    n = len(x)
    lengths = population.shape[1:] if isinstance(population, np.ndarray) else map(len, population)
    for length in lengths:
        if length != n:
            raise LengthMismatchError(f"lengths differ: {n} vs {length}")
    if not n:
        return 0.0
    return int(np.count_nonzero(np.asarray(population) != x)) / (n * len(population))


def measure_intensification(x: Sequence[int], best: Sequence[int]) -> float:
    """Closeness to the incumbent best: 1 - hamming(x, best)."""
    return 1.0 - hamming(x, best)


def swap(q: list[int], i: int, j: int) -> None:
    """Exchange q[i] and q[j] in place."""
    q[i], q[j] = q[j], q[i]


def insertion(q: list[int], i: int, j: int) -> None:
    """Remove the entry at i and reinsert it at j, in place."""
    q.insert(j, q.pop(i))


def reversal(q: list[int], i: int, j: int) -> None:
    """Reverse q[min(i, j)..max(i, j)] in place."""
    if j < i:
        i, j = j, i
    q[i : j + 1] = q[i : j + 1][::-1]


# The operators run_fis applies in place.  Each is undone by the same move
# with i and j exchanged.
IN_PLACE = {"swap": swap, "insertion": insertion, "reversal": reversal}


def order_crossover(p: Sequence[int], mate: Sequence[int], i: int, j: int) -> list[int]:
    """Keep p[i..j] in place, fill the remaining slots in mate order."""
    segment = list(p[i : j + 1])
    keep = set(segment)
    rest = [t for t in mate if t not in keep]
    return rest[:i] + segment + rest[i:]


@dataclass(frozen=True)
class FISConfig:
    population_size: int = 20
    max_iterations: int = 100
    rule_base: RuleBase | None = None

    def __post_init__(self):
        if self.population_size < 2:
            raise ParameterError("population_size must be at least 2")
        if self.max_iterations < 1:
            raise ParameterError("max_iterations must be at least 1")
        if self.population_size * self.max_iterations > MAX_EVALUATIONS:
            raise ParameterError(
                f"population_size x max_iterations must not exceed {MAX_EVALUATIONS}"
            )
        if self.rule_base is not None and not MEASURES.issuperset(self.rule_base.inputs):
            raise ParameterError(f"rule base inputs must be among {sorted(MEASURES)}")


@dataclass(frozen=True)
class FISResult:
    solution: Solution
    history: tuple[int, ...]  # incumbent objective after each iteration
    operators: tuple[str, ...]  # operator in force during each iteration


def run_fis(instance: Instance, config: FISConfig | None = None, seed: int = 0) -> FISResult:
    check_seed(seed)
    cfg = config or FISConfig()
    rb = cfg.rule_base or default_rule_base()
    seeds = np.random.SeedSequence(seed)
    rng = np.random.default_rng(seeds)
    n = instance.n
    size = cfg.population_size

    population = [rng.permutation(n).tolist() for _ in range(size)]
    objectives = [objective(instance, p) for p in population]
    floor = packing_bound(instance)  # no objective lies below it
    best_idx = min(range(len(population)), key=objectives.__getitem__)
    best_perm, best_obj = tuple(population[best_idx]), objectives[best_idx]
    current_op = OPERATORS[int(rng.integers(len(OPERATORS)))]

    history: list[int] = []
    op_log: list[str] = []
    # The iterations run while the best lies above the floor (never so with a
    # single test); the padding after them records the iterations left.
    if best_obj > floor:
        rows = np.array(population)  # the population as an int array, for diversification
        # one row (i, j, mate) per member and iteration
        positions = position_rows(np.random.default_rng(seeds.spawn(1)[0]), n, size)
        for _ in range(cfg.max_iterations):
            op_log.append(current_op)
            iter_perm: tuple[int, ...] | None = None
            iter_obj = n + 1
            crossover = current_op == "crossover"
            apply = IN_PLACE.get(current_op)
            for k, (i, j, mate) in zip(range(size), positions):
                member, own = population[k], objectives[k]
                lo, hi = (i, j) if i < j else (j, i)
                if crossover:
                    candidate = order_crossover(member, population[mate], lo, hi)
                    cand_obj = objective(instance, candidate)
                else:
                    # The member itself is moved, and moved back below unless
                    # the candidate replaces it.
                    if lo < own <= hi + 1:
                        apply(member, i, j)
                        cand_obj = objective(instance, member)
                    elif own < iter_obj:
                        # lo >= own or hi <= own - 2: the objective stays the member's own
                        apply(member, i, j)
                        cand_obj = own
                    else:
                        continue  # the candidate scores own, which beats neither
                    candidate = member
                if cand_obj < iter_obj:
                    iter_perm, iter_obj = tuple(candidate), cand_obj
                if cand_obj < own:
                    population[k], objectives[k] = candidate, cand_obj
                    rows[k] = candidate
                elif not crossover:
                    apply(member, j, i)  # the same move with i and j exchanged undoes it
            if iter_obj == floor:  # the best reaches the floor, so the run stops
                best_perm, best_obj = iter_perm, iter_obj
                break

            # The controller keeps the operator iff its crisp decision is at least
            # 0.5; below, a different one is drawn uniformly from the rest.
            crisp = infer(
                rb,
                {
                    "quality": measure_quality(best_obj, iter_obj, n),
                    "intensification": measure_intensification(iter_perm, best_perm),
                    "diversification": measure_diversification(iter_perm, rows),
                },
            )
            if iter_obj < best_obj:
                best_perm, best_obj = iter_perm, iter_obj
            history.append(best_obj)
            if crisp < 0.5:
                others = [op for op in OPERATORS if op != current_op]
                current_op = others[int(rng.integers(len(others)))]

    history += [best_obj] * (cfg.max_iterations - len(history))
    op_log += [current_op] * (cfg.max_iterations - len(op_log))
    return FISResult(decode(instance, best_perm), tuple(history), tuple(op_log))
