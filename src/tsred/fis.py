"""Fuzzy-controlled operator-switching search over test permutations.

A population of permutations is mutated by one shared perturbation operator
per iteration (greedy one-to-one replacement, so a member only changes when
the candidate decodes to a strictly shorter covering prefix).  After each
iteration three search measures are computed from the iteration's best
candidate, and the rule base decides whether to keep the current operator or
swap it for a uniformly random different one.

All randomness flows from one numpy PCG64 generator seeded by the run's seed,
so runs are reproducible across platforms.  Position draws come a block of
iterations at a time, in one `rng.integers` call on a full-shape bounds
array (one row per member and iteration), which yields the same values as
drawing them one at a time, member by member and iteration by iteration.  A
block covers one iteration at the start and after a switch, and twice as
many as the last one while the operator stays, up to DRAW_ROWS rows.  When
the controller switches operator before a block is used up, the generator is
set back to where the block began and redraws only the rows used, so the
switch draw, and all that follow, land where per-iteration draws put them.
A move whose lowest touched position lies at or past the member's covering
prefix cannot change that prefix, so it is not re-evaluated: its objective
is the member's own.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ne
from typing import Sequence

import numpy as np

from .core import (
    Instance, ParameterError, Solution, check_seed, decode, objective, step_over, swap_at
)
from .fuzzy import RuleBase, default_rule_base, infer

OPERATORS: tuple[str, ...] = ("swap", "insertion", "reversal", "crossover")

# The inputs run_fis gives the rule base, and the most objective
# evaluations (population_size x max_iterations) one run may ask for.
MEASURES = frozenset({"quality", "intensification", "diversification"})
MAX_EVALUATIONS = 1_000_000
# Most rows of draws (one per member and iteration) one rng.integers call
# makes, so a population of this size or more draws one iteration at a time.
DRAW_ROWS = 1024


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
    sequences or as the rows of a 2-D int array.  The same float as summing
    `hamming(x, p)` member by member: the same quotients, added in order."""
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
    distances = (np.asarray(population) != x).sum(axis=1).tolist()
    return sum([d / n for d in distances]) / len(distances)


def measure_intensification(x: Sequence[int], best: Sequence[int]) -> float:
    """Closeness to the incumbent best: 1 - hamming(x, best)."""
    return 1.0 - hamming(x, best)


def insert_at(p: Sequence[int], src: int, dst: int) -> tuple[int, ...]:
    """Remove the entry at src and reinsert it at dst."""
    q = list(p)
    q.insert(dst, q.pop(src))
    return tuple(q)


def reverse_segment(p: Sequence[int], i: int, j: int) -> tuple[int, ...]:
    q = list(p)
    q[i : j + 1] = reversed(q[i : j + 1])
    return tuple(q)


def order_crossover(p: Sequence[int], mate: Sequence[int], i: int, j: int) -> tuple[int, ...]:
    """Keep p[i..j] in place, fill the remaining slots in mate order."""
    segment = tuple(p[i : j + 1])
    keep = set(segment)
    rest = [t for t in mate if t not in keep]
    return tuple(rest[:i]) + segment + tuple(rest[i:])


def move(op: str, p: Sequence[int], mate: Sequence[int], i: int, j: int) -> tuple[int, ...]:
    """The named operator applied to p at positions i and j.

    swap exchanges p[i] and p[j], insertion moves p[i] to position j,
    reversal reverses p[i..j] and crossover keeps p[i..j] in place and fills
    the other slots in mate order.  Swap, insertion and reversal leave every
    position before min(i, j) as it is.
    """
    if op == "swap":
        return swap_at(p, i, j)
    if op == "insertion":
        return insert_at(p, i, j)
    if op == "reversal":
        return reverse_segment(p, i, j)
    if op == "crossover":
        return order_crossover(p, mate, i, j)
    raise ValueError(f"unknown operator: {op!r}")


def _position_bounds(op: str, n: int) -> tuple[int, ...]:
    """Upper bounds of the position draws one application of `op` to a
    permutation of n makes, in draw order; none when n < 2."""
    if n < 2:
        return ()
    return (n, n) if op == "insertion" else (n, n - 1)


def _member_positions(op: str, draws: np.ndarray) -> tuple[list[int], list[int]]:
    """Every member's positions for `move`, as lists i and j, from a
    (members, k) array of draws whose last two columns lie below
    `_position_bounds` (crossover's mate draws come first).

    Insertion takes its two draws as they are.  The other operators make j
    distinct from i by `core.step_over`; reversal and crossover then order
    the pair.  Without position draws (a single position) each member gets
    (0, 0), which moves nothing.
    """
    if draws.shape[1] < 2:
        zeros = [0] * len(draws)
        return zeros, zeros
    firsts, seconds = draws[:, -2:].T.tolist()
    if op == "insertion":
        return firsts, seconds
    seconds = step_over(firsts, seconds)
    if op == "swap":
        return firsts, seconds
    return (
        [j if j < i else i for i, j in zip(firsts, seconds)],
        [i if j < i else j for i, j in zip(firsts, seconds)],
    )


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
    rng = np.random.default_rng(seed)
    n = instance.n
    size = cfg.population_size

    population = [tuple(int(v) for v in rng.permutation(n)) for _ in range(size)]
    objectives = [objective(instance, p) for p in population]
    rows = np.array(population)  # the population as an int array, for diversification
    best_idx = min(range(len(population)), key=objectives.__getitem__)
    best_perm, best_obj = population[best_idx], objectives[best_idx]
    current_op = OPERATORS[int(rng.integers(len(OPERATORS)))]
    # Per operator, the bounds of the longest block's rows of draws
    # (crossover's mate draw, then the move's position draws).
    longest = max(1, DRAW_ROWS // size)  # iterations
    bounds: dict[str, np.ndarray] = {}
    span = 1  # iterations the next block covers
    # The current block's move positions (and crossover's mates), one per
    # row, and how many of its rows the iterations so far took.
    i_all: list[int] = []
    used = 0

    history: list[int] = []
    op_log: list[str] = []
    for t in range(cfg.max_iterations):
        op_log.append(current_op)
        iter_perm: tuple[int, ...] | None = None
        iter_obj = n + 1
        crossover = current_op == "crossover"
        if used == len(i_all):
            if current_op not in bounds:
                row = ((size,) if crossover else ()) + _position_bounds(current_op, n)
                bounds[current_op] = np.full((longest * size, len(row)), row, np.int64)
            saved = rng.bit_generator.state
            block = min(span, cfg.max_iterations - t) * size
            draws = rng.integers(bounds[current_op][:block])
            mates = draws[:, 0].tolist() if crossover else []
            i_all, j_all = _member_positions(current_op, draws)
            used, span = 0, min(2 * span, longest)
        end = used + size
        for k, i, j in zip(range(size), i_all[used:end], j_all[used:end]):
            member, own = population[k], objectives[k]
            mate = population[mates[used + k]] if crossover else member
            if not crossover and (i if i < j else j) >= own:
                # the move leaves the covering prefix, and so the objective, alone
                if own < iter_obj:
                    iter_perm, iter_obj = move(current_op, member, mate, i, j), own
                continue
            candidate = move(current_op, member, mate, i, j)
            cand_obj = objective(instance, candidate)
            if cand_obj < iter_obj:
                iter_perm, iter_obj = candidate, cand_obj
            if cand_obj < own:
                population[k], objectives[k] = candidate, cand_obj
                rows[k] = candidate
        used = end

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
            if used < len(i_all):
                # Rewind the block and replay only the rows used, so that
                # the switch draw comes where per-iteration draws put it.
                rng.bit_generator.state = saved
                rng.integers(bounds[current_op][:used])
            i_all, used, span = [], 0, 1
            others = [op for op in OPERATORS if op != current_op]
            current_op = others[int(rng.integers(len(others)))]

    return FISResult(decode(instance, best_perm), tuple(history), tuple(op_log))
