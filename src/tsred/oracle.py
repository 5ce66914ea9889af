"""Exact minimum-cover oracle.

Branch and bound over bitsets.  Intended for the bundled benchmark sizes
(a few dozen tests); anything beyond 64 tests is rejected outright rather
than silently taking forever.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Instance, ParameterError, bits, essential_tests, greedy_fill, undominated

MAX_TESTS = 64
_INF = 1 << 30


class TooLargeError(ValueError):
    """Instance exceeds the size this oracle is willing to attempt."""


@dataclass(frozen=True)
class OracleResult:
    minimum_size: int
    witness: frozenset[int]
    covers: tuple[frozenset[int], ...] | None = None
    complete: bool = True  # False if enumeration stopped at the cap


def _lower_bound(req_masks: tuple[int, ...], uncovered: int, allowed: int) -> int:
    """Greedy family of uncovered requirements with pairwise disjoint
    candidate sets; its size is an admissible bound since each needs its
    own test.  Returns a huge value when some requirement has no candidate
    left at all."""
    bound = 0
    used = 0
    rest = uncovered
    while rest:
        i = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        cands = req_masks[i] & allowed
        if not cands:
            return _INF
        if not cands & used:
            bound += 1
            used |= cands
    return bound


def _branch_requirement(req_masks: tuple[int, ...], uncovered: int, allowed: int) -> int:
    """Uncovered requirement with the fewest usable candidates."""
    best_i, best_count = -1, _INF
    rest = uncovered
    while rest:
        i = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        count = (req_masks[i] & allowed).bit_count()
        if count < best_count:
            best_i, best_count = i, count
            if count <= 1:
                break
    return best_i


def _reduce(instance: Instance, drop_tests: bool) -> tuple[set[int], int, int]:
    """Preprocess to a fixpoint: forced picks, dominated tests (only when
    `drop_tests`), dominated requirements.

    Returns (forced, uncovered, allowed): the tests every cover must
    contain, and as bitmasks the requirements they leave open after
    dominance and the tests the search may still pick.  Test dominance keeps at least one
    optimum but can discard alternative ones, so enumeration turns it off.
    """
    masks = instance.test_masks
    req_masks = instance.candidate_masks
    forced = 0
    allowed = (1 << instance.n) - 1
    uncovered = instance.full_mask
    changed = True
    while changed:
        before = (forced, allowed, uncovered)
        for t in essential_tests(req_masks, uncovered, allowed):
            forced |= 1 << t
            uncovered &= ~masks[t]
        if drop_tests:
            allowed = undominated([m & uncovered for m in masks], allowed & ~forced) | forced
        # j implies i when j's candidates lie inside i's, i.e. i's complement inside j's
        uncovered = undominated([allowed & ~c for c in req_masks], uncovered)
        changed = (forced, allowed, uncovered) != before
    return set(bits(forced)), uncovered, allowed


def _search(
    masks, req_masks, uncovered: int, chosen: set[int], allowed: int, limit: int, leaf
) -> int:
    """Branch and bound over covers of at most `limit` tests.

    `leaf(chosen)` is called on each such cover and returns the new limit;
    a negative limit ends the search.  Returns the limit in force on exit.
    """
    if not uncovered:
        # a sibling may have tightened the limit since this branch began
        return leaf(chosen) if len(chosen) <= limit else limit
    if len(chosen) + _lower_bound(req_masks, uncovered, allowed) > limit:
        return limit
    i = _branch_requirement(req_masks, uncovered, allowed)
    cands = req_masks[i] & allowed
    banned = 0
    while cands:
        t = (cands & -cands).bit_length() - 1
        cands &= cands - 1
        chosen.add(t)
        limit = _search(
            masks, req_masks, uncovered & ~masks[t], chosen, allowed & ~banned, limit, leaf
        )
        chosen.remove(t)
        banned |= 1 << t  # later branches must cover i without t
    return limit


def minimum_cover(instance: Instance) -> OracleResult:
    """Size and one witness of a minimum cover."""
    if instance.n > MAX_TESTS:
        raise TooLargeError(f"{instance.n} tests exceeds the oracle limit of {MAX_TESTS}")
    masks = instance.test_masks
    req_masks = instance.candidate_masks
    forced, uncovered, allowed = _reduce(instance, drop_tests=True)
    best = set(greedy_fill(masks, uncovered, allowed)) | forced  # upper bound to beat

    def improve(chosen: set[int]) -> int:
        nonlocal best
        best = set(chosen)
        return len(best) - 1

    _search(masks, req_masks, uncovered, forced, allowed, len(best) - 1, improve)
    return OracleResult(minimum_size=len(best), witness=frozenset(best))


def enumerate_minimum_covers(instance: Instance, cap: int = 1000) -> OracleResult:
    """All minimum covers, lexicographically sorted, up to `cap` of them."""
    if cap < 1:
        raise ParameterError("cap must be positive")
    k = minimum_cover(instance).minimum_size
    masks = instance.test_masks
    req_masks = instance.candidate_masks
    forced, uncovered, allowed = _reduce(instance, drop_tests=False)
    found: list[tuple[int, ...]] = []

    def record(chosen: set[int]) -> int:
        # no cover is smaller than k, so every leaf within the limit has size k
        found.append(tuple(sorted(chosen)))
        return -1 if len(found) >= cap else k

    complete = _search(masks, req_masks, uncovered, forced, allowed, k, record) >= 0
    covers = tuple(frozenset(c) for c in sorted(found))
    return OracleResult(
        minimum_size=k,
        witness=covers[0] if covers else frozenset(),
        covers=covers,
        complete=complete,
    )
