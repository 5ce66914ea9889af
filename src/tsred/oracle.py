"""Exact minimum-cover oracle.

Branch and bound over bitsets.  Intended for the bundled benchmark sizes
(a few dozen tests); anything beyond 64 tests is rejected outright rather
than silently taking forever.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Instance, ParameterError

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


def _check_size(instance: Instance) -> None:
    if instance.n > MAX_TESTS:
        raise TooLargeError(f"{instance.n} tests exceeds the oracle limit of {MAX_TESTS}")


def _candidate_masks(instance: Instance) -> list[int]:
    """Per-requirement bitmask over test indices."""
    out = [0] * instance.m
    for i, req in enumerate(instance.requirements):
        for t in req.candidates:
            out[i] |= 1 << t
    return out


def _lower_bound(req_masks: list[int], uncovered: int, allowed: int) -> int:
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


def _branch_requirement(req_masks: list[int], uncovered: int, allowed: int) -> int:
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


def _reduce(
    instance: Instance, req_masks: list[int], drop_tests: bool
) -> tuple[set[int], int, int]:
    """Preprocess to a fixpoint: forced picks, dominated tests (only when
    `drop_tests`), dominated requirements.

    Returns (forced, uncovered, allowed): the tests every cover must
    contain, and as bitmasks the requirements they leave open after
    dominance and the tests the search may still pick.  Test dominance keeps at least one
    optimum but can discard alternative ones, so enumeration turns it off.
    """
    masks = instance.test_masks
    forced = 0
    covered = 0
    allowed = (1 << instance.n) - 1
    active_reqs = instance.full_mask
    changed = True
    while changed:
        changed = False
        rest = active_reqs & ~covered
        while rest:
            i = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            cands = req_masks[i] & allowed
            if cands.bit_count() == 1 and not cands & forced:
                forced |= cands
                covered |= masks[cands.bit_length() - 1]
                changed = True
        if drop_tests:
            rest = allowed & ~forced
            while rest:
                t = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                ut = masks[t] & active_reqs & ~covered
                other = allowed & ~(1 << t) & ~forced
                while other:
                    u = (other & -other).bit_length() - 1
                    other &= other - 1
                    uu = masks[u] & active_reqs & ~covered
                    if ut & ~uu:
                        continue
                    if ut != uu or u < t:
                        allowed &= ~(1 << t)
                        changed = True
                        break
        rest = active_reqs & ~covered
        while rest:
            i = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            ci = req_masks[i] & allowed
            other = active_reqs & ~covered & ~(1 << i)
            while other:
                j = (other & -other).bit_length() - 1
                other &= other - 1
                cj = req_masks[j] & allowed
                # any test for j also satisfies i: i is implied by j
                if cj & ~ci:
                    continue
                if ci != cj or j < i:
                    active_reqs &= ~(1 << i)
                    changed = True
                    break
    forced_tests = {t for t in range(instance.n) if forced >> t & 1}
    return forced_tests, active_reqs & ~covered, allowed


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
    _check_size(instance)
    masks = instance.test_masks
    req_masks = _candidate_masks(instance)
    forced, uncovered, allowed = _reduce(instance, req_masks, drop_tests=True)
    best = _greedy_cover(masks, req_masks, uncovered, allowed) | forced

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
    _check_size(instance)
    k = minimum_cover(instance).minimum_size
    masks = instance.test_masks
    req_masks = _candidate_masks(instance)
    forced, uncovered, allowed = _reduce(instance, req_masks, drop_tests=False)
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


def _greedy_cover(masks, req_masks, uncovered: int, allowed: int) -> set[int]:
    """Quick upper bound: plain max-gain greedy restricted to allowed tests."""
    chosen: set[int] = set()
    while uncovered:
        best_t, best_gain = -1, 0
        pool = allowed
        while pool:
            t = (pool & -pool).bit_length() - 1
            pool &= pool - 1
            gain = (masks[t] & uncovered).bit_count()
            if gain > best_gain:
                best_t, best_gain = t, gain
        if best_t < 0:
            # infeasible under this restriction; caller's bound handles it
            break
        chosen.add(best_t)
        uncovered &= ~masks[best_t]
    return chosen
