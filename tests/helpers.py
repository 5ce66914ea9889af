"""Independent reference implementations used to check the package.

Everything here is deliberately written the slow, obvious way (plain sets,
exhaustive enumeration, one random draw at a time) so it shares no code with
the fast versions under test.  The one exception is the fuzzy controller
that fis_reference consults; tests/test_fuzzy.py checks it on its own.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from tsred import Instance, Solution, validate_instance
from tsred.fuzzy import LinguisticVariable, Rule, RuleBase, Trapezoid, default_rule_base, infer


def covers_naive(instance: Instance, selection) -> bool:
    picked = set(selection)
    return all(req.candidates & picked for req in instance.requirements)


def prefix_by_scan(instance: Instance, permutation) -> int:
    """Shortest covering prefix found by checking every prefix length."""
    for k in range(1, len(permutation) + 1):
        if covers_naive(instance, permutation[:k]):
            return k
    raise AssertionError("permutation does not cover")


def brute_minimum(instance: Instance) -> int:
    """Exhaustive minimum cover size by increasing subset cardinality."""
    tests = range(instance.n)
    for k in range(1, instance.n + 1):
        for combo in itertools.combinations(tests, k):
            if covers_naive(instance, combo):
                return k
    raise AssertionError("instance cannot be covered")


def brute_minimum_covers(instance: Instance) -> list[frozenset[int]]:
    """All minimum covers, exhaustively."""
    k = brute_minimum(instance)
    return [
        frozenset(combo)
        for combo in itertools.combinations(range(instance.n), k)
        if covers_naive(instance, combo)
    ]


def undominated_naive(sets, pool) -> set[int]:
    """The members t of `pool` (a set of indices into `sets`, a list of sets)
    with no other member u whose set holds all of t's; of members with equal
    sets only the lowest index stays."""
    return {
        t
        for t in pool
        if not any(u != t and sets[t] <= sets[u] and (sets[t] != sets[u] or u < t) for u in pool)
    }


def implied_naive(instance: Instance, uncovered: set[int], allowed: set[int]) -> set[int]:
    """The requirements of `uncovered` that no other one of it implies.  j
    implies i when j's candidates within `allowed` all lie inside i's; of
    requirements with equal candidates within `allowed`, the lowest index
    implies the others."""
    own = {i: set(instance.requirements[i].candidates) & allowed for i in uncovered}
    return {
        i
        for i in uncovered
        if not any(j != i and own[j] <= own[i] and (own[j] != own[i] or j < i) for j in uncovered)
    }


def packing_bound_naive(instance: Instance, uncovered: set[int], allowed: set[int]) -> float:
    """The oracle's packing bound: the size of the greedy family of
    requirements of `uncovered` whose candidates within `allowed` are
    pairwise disjoint, taken in ascending candidate count, ties by index.
    Infinite when some requirement of `uncovered` has no allowed candidate."""
    own = {i: set(instance.requirements[i].candidates) & allowed for i in uncovered}
    if not all(own.values()):
        return math.inf
    family_tests: set[int] = set()
    size = 0
    for i in sorted(uncovered, key=lambda i: (len(instance.requirements[i].candidates), i)):
        if not own[i] & family_tests:
            family_tests |= own[i]
            size += 1
    return size


def branch_requirement_naive(instance: Instance, uncovered: set[int], allowed: set[int]) -> int:
    """The requirement the oracle branches on: of `uncovered`, the lowest
    index with at most one candidate within `allowed`, else the lowest index
    of those with the fewest."""
    usable = {i: len(set(instance.requirements[i].candidates) & allowed) for i in uncovered}
    scarce = [i for i in uncovered if usable[i] <= 1]
    if scarce:
        return min(scarce)
    return min(uncovered, key=lambda i: (usable[i], i))


def random_instance(rng: random.Random, max_tests: int = 16, max_requirements: int = 12) -> Instance:
    """Random solvable instance: every requirement names at least one test."""
    n = rng.randint(1, max_tests)
    m = rng.randint(1, max_requirements)
    tests = [f"t{j}" for j in range(n)]
    requirements = []
    for i in range(m):
        size = rng.randint(1, n)
        requirements.append((f"req_{i}", rng.sample(tests, size)))
    return validate_instance(f"random-{n}x{m}", tests, requirements)


def ge_naive(instance: Instance) -> list[int]:
    """GE (Chen & Lau): essential tests, then max-gain picks, lowest index on ties."""
    groups = [set(req.candidates) for req in instance.requirements]
    selected: list[int] = []
    for g in groups:
        if len(g) == 1 and min(g) not in selected:
            selected.append(min(g))
    uncovered = [g for g in groups if not g & set(selected)]
    while uncovered:
        gains = [sum(t in g for g in uncovered) for t in range(instance.n)]
        t = gains.index(max(gains))
        selected.append(t)
        uncovered = [g for g in uncovered if t not in g]
    return selected


def gre_naive(instance: Instance) -> list[int]:
    """GRE (Chen & Lau): per round drop redundant tests, take the sole
    remaining candidates, and make one max-gain pick only if the round
    changed nothing."""
    groups = [set(req.candidates) for req in instance.requirements]
    uncovered = set(range(len(groups)))
    active = set(range(instance.n))
    selected: list[int] = []

    def reqs_of(t):
        return {i for i in uncovered if t in groups[i]}

    def take(t):
        selected.append(t)
        active.discard(t)
        uncovered.difference_update(reqs_of(t))

    while uncovered:
        own = {t: reqs_of(t) for t in active}
        redundant = {
            t
            for t in active
            for u in active
            if u != t and own[t] <= own[u] and (own[t] != own[u] or u < t)
        }
        active -= redundant
        progress = bool(redundant)
        for i, g in enumerate(groups):
            if i in uncovered and len(g & active) == 1:
                take(min(g & active))
                progress = True
        if uncovered and not progress:
            take(max(sorted(active), key=lambda t: len(reqs_of(t))))
    return selected


def hgs_naive(instance: Instance) -> list[int]:
    """HGS (Harrold, Gupta & Soffa): singleton groups first, then groups by
    increasing cardinality, ties settled by counts at the next
    cardinalities and finally by lowest index."""
    groups = [set(req.candidates) for req in instance.requirements]
    marked: set[int] = set()
    selected: list[int] = []

    def take(t):
        selected.append(t)
        marked.update(i for i, g in enumerate(groups) if t in g)

    for i, g in enumerate(groups):
        if len(g) == 1 and i not in marked:
            take(min(g))
    sizes = sorted({len(g) for g in groups if len(g) > 1})

    def unmarked(size):
        return [g for i, g in enumerate(groups) if i not in marked and len(g) == size]

    for pos, size in enumerate(sizes):
        while unmarked(size):
            tied = sorted(set().union(*unmarked(size)))
            for next_size in sizes[pos:]:
                counts = {t: sum(t in g for g in unmarked(next_size)) for t in tied}
                tied = [t for t in tied if counts[t] == max(counts.values())]
                if len(tied) == 1:
                    break
            take(tied[0])
    return selected


def trapezoid_centroid_exact(a, b, c, d) -> Fraction:
    """Closed form centroid of a trapezoidal membership function over its
    support, integrating each piece analytically with exact rationals."""
    a, b, c, d = (Fraction(v) for v in (a, b, c, d))
    area = Fraction(0)
    moment = Fraction(0)
    if b > a:  # rising edge, mu = (x - a) / (b - a)
        area += (b - a) / 2
        moment += (b**3 / 3 - a * b**2 / 2 + a**3 / 6) / (b - a)
    if c > b:  # plateau, mu = 1
        area += c - b
        moment += (c**2 - b**2) / 2
    if d > c:  # falling edge, mu = (d - x) / (d - c)
        area += (d - c) / 2
        moment += (d**3 / 6 - d * c**2 / 2 + c**3 / 3) / (d - c)
    if area == 0:
        raise ValueError("degenerate trapezoid has no area")
    return moment / area


def prefix_length(instance: Instance):
    """A function giving a permutation's shortest covering prefix, found by
    growing the set of covered requirement indices one test at a time."""
    reqs_of = [set() for _ in range(instance.n)]
    for i, req in enumerate(instance.requirements):
        for t in req.candidates:
            reqs_of[t].add(i)

    def length(permutation) -> int:
        covered: set[int] = set()
        for k, t in enumerate(permutation):
            if len(covered) == instance.m:
                return k
            covered |= reqs_of[t]
        assert len(covered) == instance.m, "permutation does not cover"
        return len(permutation)

    return length


def _distinct_pair(rng, n):
    i = int(rng.integers(n))
    j = int(rng.integers(n - 1))
    return i, j + 1 if j >= i else j


def _hamming(p, q) -> float:
    return sum(a != b for a, b in zip(p, q)) / len(p) if p else 0.0


def fis_reference(instance: Instance, population_size=20, max_iterations=100, seed=0,
                  rule_base=None):
    """The FIS search drawn one scalar at a time, every candidate evaluated.

    Per member: crossover's mate draw, then the operator's position draws
    (none below two tests); after each iteration the measures go to the
    fuzzy controller, which is shared with the package and tested on its
    own.  Returns (solution, history, operators).
    """
    ops = ("swap", "insertion", "reversal", "crossover")
    rule_base = rule_base or default_rule_base()
    rng = np.random.default_rng(seed)
    n = instance.n
    length = prefix_length(instance)

    def mutate(op, p, mate):
        q = list(p)
        if n < 2:
            return tuple(q)
        if op == "swap":
            i, j = _distinct_pair(rng, n)
            q[i], q[j] = q[j], q[i]
        elif op == "insertion":
            src = int(rng.integers(n))
            q.insert(int(rng.integers(n)), q.pop(src))
        else:
            i, j = sorted(_distinct_pair(rng, n))
            segment = q[i : j + 1]
            if op == "reversal":
                q[i : j + 1] = segment[::-1]
            else:  # order crossover: keep the segment, the rest in mate order
                rest = [t for t in mate if t not in segment]
                q = rest[:i] + segment + rest[i:]
        return tuple(q)

    population = [tuple(int(v) for v in rng.permutation(n)) for _ in range(population_size)]
    values = [length(p) for p in population]
    first = values.index(min(values))
    best_perm, best_obj = population[first], values[first]
    op = ops[int(rng.integers(len(ops)))]
    history, operators = [], []
    for _ in range(max_iterations):
        operators.append(op)
        previous = best_obj
        iter_perm, iter_obj = None, n + 1
        for k in range(population_size):
            mate = population[int(rng.integers(population_size))] if op == "crossover" else None
            candidate = mutate(op, population[k], mate)
            value = length(candidate)
            if value < iter_obj:
                iter_perm, iter_obj = candidate, value
            if value < values[k]:
                population[k], values[k] = candidate, value
        inputs = {
            "quality": min(1.0, max(0.0, 0.5 + (previous - iter_obj) / (2 * n))),
            "intensification": 1.0 - _hamming(iter_perm, best_perm),
            "diversification": sum(_hamming(iter_perm, p) for p in population) / population_size,
        }
        if iter_obj < best_obj:
            best_perm, best_obj = iter_perm, iter_obj
        history.append(best_obj)
        if infer(rule_base, inputs) < 0.5:
            others = [o for o in ops if o != op]
            op = others[int(rng.integers(len(others)))]
    return Solution(best_perm, best_obj, best_perm[:best_obj]), tuple(history), tuple(operators)


DECISION = LinguisticVariable(
    "decision", {"Change": Trapezoid(0, 0, 0.3, 0.5), "Maintain": Trapezoid(0.5, 0.7, 1, 1)}
)


def always_change() -> RuleBase:
    """A rule base that concludes Change whatever the inputs, so the operator
    switch draws one value after every iteration."""
    anything = LinguisticVariable("quality", {"Any": Trapezoid(0, 0, 1, 1)})
    return RuleBase({"quality": anything}, DECISION, (Rule.of({"quality": "Any"}, "Change"),))


SA_BLOCK = 256  # swap-position pairs per rng.integers call, as in the annealer


def sa_reference(instance: Instance, alpha, t_initial, seed=0):
    """Swap annealing with every proposal evaluated, cooling until T falls
    to 0.001.  Positions come SA_BLOCK (i, j) pairs at a time from one
    rng.integers call, i below n and j below n - 1 (j steps over i);
    rng.random() is drawn in between, for worsening moves only.
    Returns (solution, history)."""
    rng = np.random.default_rng(seed)
    n = instance.n
    length = prefix_length(instance)
    current = tuple(int(v) for v in rng.permutation(n))
    value = length(current)
    best, best_obj = current, value
    temperature = t_initial
    history = []
    pending = []  # the current block's pairs still to use, last one first
    while temperature > 0.001:
        if n >= 2:
            if not pending:
                pending = rng.integers([n, n - 1], size=(SA_BLOCK, 2)).tolist()[::-1]
            i, j = pending.pop()
            if j >= i:
                j += 1
            q = list(current)
            q[i], q[j] = q[j], q[i]
            delta = length(q) - value
            if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                current, value = tuple(q), value + delta
                if value < best_obj:
                    best, best_obj = current, value
        history.append(best_obj)
        temperature *= alpha
    return Solution(best, best_obj, best[:best_obj]), tuple(history)
