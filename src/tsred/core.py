"""Problem model for test redundancy reduction.

An instance is a suite of named tests plus a list of requirements, each
satisfiable by any test from its non-empty candidate set.  A candidate
solution is a permutation of all test indices; it decodes to the shortest
prefix whose tests together satisfy every requirement.  Coverage is computed
on bitsets over requirement indices, so membership checks stay cheap even in
search loops.  The greedy reducers and the oracle's preprocessing are all
built from the same three set-cover moves on these bitsets: take the
essential tests, drop dominated members, pick the test of largest gain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence


# The reducers by name, in table order: bench dispatches on these names and
# a run report naming any other is refused.
ALGORITHMS = ("fis", "sa", "ge", "gre", "hgs")


@dataclass(frozen=True)
class Violation:
    """One failed instance check.

    kind is one of "EmptySuite" (subject: instance name), "EmptyCandidates"
    (subject: requirement id), "UnknownTest" (subject: unknown test id) or
    "DuplicateId".
    """

    kind: str
    subject: str

    def __str__(self) -> str:
        return f"{self.kind}({self.subject})"


class ParameterError(ValueError):
    """A run parameter (solver setting, run count, enumeration cap) is out of range."""


def check_seed(seed: int) -> None:
    """Refuse a negative run seed; every seeded entry point calls this."""
    if seed < 0:
        raise ParameterError("seed must not be negative")


class InvalidInstanceError(ValueError):
    """Candidate instance data violates the instance invariants."""

    def __init__(self, violations: Sequence[Violation]):
        self.violations = tuple(violations)
        super().__init__("; ".join(map(str, self.violations)))


@dataclass(frozen=True)
class Requirement:
    """A coverage obligation; any test index in `candidates` satisfies it."""

    id: str
    candidates: frozenset[int]


@dataclass(frozen=True)
class Instance:
    """An immutable reduction problem over indexed tests.

    Construct through validate_instance so the invariants hold: unique ids,
    non-empty candidate sets, every candidate a known test.
    """

    name: str
    tests: tuple[str, ...]
    requirements: tuple[Requirement, ...]

    @property
    def n(self) -> int:
        return len(self.tests)

    @property
    def m(self) -> int:
        return len(self.requirements)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.m) - 1

    @cached_property
    def test_masks(self) -> tuple[int, ...]:
        """Per-test bitset of satisfied requirements (bit i = requirement i)."""
        masks = [0] * self.n
        for i, req in enumerate(self.requirements):
            for j in req.candidates:
                masks[j] |= 1 << i
        return tuple(masks)

    @cached_property
    def candidate_masks(self) -> tuple[int, ...]:
        """Per-requirement bitset of candidate tests (bit j = test j)."""
        return tuple(sum(1 << j for j in req.candidates) for req in self.requirements)

    @cached_property
    def index_of(self) -> dict[str, int]:
        return {t: j for j, t in enumerate(self.tests)}

    def ids(self, indices: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.tests[j] for j in indices)


def instance_violations(
    name: str,
    tests: Sequence[str],
    requirements: Iterable[tuple[str, Iterable[str]]],
) -> list[Violation]:
    """Collect every invariant violation in raw instance data (empty if valid)."""
    violations: list[Violation] = []
    if not tests:
        violations.append(Violation("EmptySuite", name))
    index: dict[str, int] = {}
    for t in tests:
        if t in index:
            violations.append(Violation("DuplicateId", t))
        else:
            index[t] = len(index)
    seen_reqs: set[str] = set()
    for req_id, candidates in requirements:
        if req_id in seen_reqs or req_id in index:
            violations.append(Violation("DuplicateId", req_id))
        seen_reqs.add(req_id)
        candidates = list(candidates)
        if not candidates:
            violations.append(Violation("EmptyCandidates", req_id))
        for c in candidates:
            if c not in index:
                violations.append(Violation("UnknownTest", c))
    return violations


def validate_instance(
    name: str,
    tests: Sequence[str],
    requirements: Iterable[tuple[str, Iterable[str]]],
) -> Instance:
    """Build an Instance from raw data, or raise InvalidInstanceError.

    The raised error carries the full violation list, not just the first
    offending entry.
    """
    tests = tuple(tests)
    reqs = [(rid, tuple(cands)) for rid, cands in requirements]
    violations = instance_violations(name, tests, reqs)
    if violations:
        raise InvalidInstanceError(violations)
    index = {t: j for j, t in enumerate(tests)}
    built = tuple(
        Requirement(rid, frozenset(index[c] for c in cands)) for rid, cands in reqs
    )
    return Instance(name, tests, built)


def bits(mask: int) -> list[int]:
    """Positions of the set bits of `mask`, lowest first."""
    # string scan: for masks wider than a few bits, faster than x & -x arithmetic
    return [i for i, bit in enumerate(reversed(bin(mask))) if bit == "1"]


def essential_tests(req_masks: Sequence[int], uncovered: int, pool: int) -> list[int]:
    """The tests of `pool` that are the only candidate in `pool` of some
    requirement in `uncovered`, in requirement order, without repeats.
    Every cover drawn from `pool` contains all of them."""
    sole = [req_masks[i] & pool for i in bits(uncovered)]
    return list(dict.fromkeys([c.bit_length() - 1 for c in sole if c.bit_count() == 1]))


def best_gain(masks: Sequence[int], uncovered: int, pool: int) -> int:
    """The lowest-index test of `pool` whose mask covers the most of
    `uncovered`, or -1 if none covers any of it."""
    tests = bits(pool)
    gains = [(masks[t] & uncovered).bit_count() for t in tests]
    top = max(gains, default=0)
    return tests[gains.index(top)] if top else -1


def greedy_fill(masks: Sequence[int], uncovered: int, pool: int) -> list[int]:
    """Max-gain picks from `pool` (`best_gain`), in pick order, until
    `uncovered` is covered or no test of `pool` covers any of the rest."""
    picks: list[int] = []
    while uncovered and (t := best_gain(masks, uncovered, pool)) >= 0:
        picks.append(t)
        uncovered &= ~masks[t]
    return picks


def undominated(sets: Sequence[int], pool: int) -> int:
    """`pool` without every member whose set lies inside another member's
    set; of members with equal sets only the lowest index stays.

    Dominance is a strict partial order, so dropping dominated members all
    at once leaves the same pool as dropping them one by one.
    """
    members = [(t, sets[t]) for t in bits(pool)]
    kept = pool
    for t, s in members:
        for u, su in members:
            if u != t and not s & ~su and (s != su or u < t):
                kept &= ~(1 << t)
                break
    return kept


def coverage(instance: Instance, selection: Iterable[int]) -> int:
    """Bitset of the requirements that the tests in `selection` satisfy."""
    masks = instance.test_masks
    covered = 0
    for j in selection:
        if not 0 <= j < instance.n:
            raise ValueError(f"test index out of range: {j}")
        covered |= masks[j]
    return covered


def is_cover(instance: Instance, selection: Iterable[int]) -> bool:
    """True iff every requirement has at least one candidate in `selection`."""
    return coverage(instance, selection) == instance.full_mask


@dataclass(frozen=True)
class Solution:
    """A permutation of all test indices plus its decoded covering prefix."""

    permutation: tuple[int, ...]
    prefix_len: int
    selected: tuple[int, ...]  # the covering prefix, in selection order


def objective(instance: Instance, permutation: Sequence[int]) -> int:
    """Length of the shortest covering prefix of `permutation`.

    The permutation must contain every test index exactly once; the full test
    set is a cover by the instance invariants, so a covering prefix always
    exists.  With no requirements the empty prefix already covers.
    """
    masks = instance.test_masks
    full = instance.full_mask
    if not full:
        return 0
    covered = 0
    for pos, j in enumerate(permutation):
        covered |= masks[j]
        if covered == full:
            return pos + 1
    raise ValueError("sequence does not cover all requirements")


def decode(instance: Instance, permutation: Sequence[int]) -> Solution:
    """Decode a permutation to its minimal covering prefix."""
    perm = tuple(permutation)
    if len(perm) != instance.n or set(perm) != set(range(instance.n)):
        raise ValueError(f"expected a permutation of all {instance.n} test indices")
    prefix_len = objective(instance, perm)
    return Solution(perm, prefix_len, perm[:prefix_len])


def swap_at(p: Sequence[int], i: int, j: int) -> tuple[int, ...]:
    q = list(p)
    q[i], q[j] = q[j], q[i]
    return tuple(q)


def step_over(firsts: Sequence[int], seconds: Sequence[int]) -> list[int]:
    """Second positions distinct from the first ones, pair by pair: from a
    draw i below n and a draw j below n - 1, j is moved one step up when it
    reaches i, so it is uniform among the other n - 1 positions.

    SA applies it to a block of steps' draws, FIS to a block of members'.
    """
    return [j + 1 if j >= i else j for i, j in zip(firsts, seconds)]


def reduction_percent(n: int, k: int) -> str:
    """Reduction 100*(n-k)/n as text to one decimal; k = 0 (no requirements) is "100.0".

    Int true division is correctly rounded, so the text is that of the exact ratio's
    nearest float.
    """
    if n < 1 or not 0 <= k <= n:
        raise ValueError(f"selected size {k} out of range for suite of {n}")
    return f"{100 * (n - k) / n:.1f}"
