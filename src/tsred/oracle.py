"""Exact minimum-cover oracle.

Branch and bound over bitsets, bounded by the nodes it visits rather than by
instance size: a search past `MAX_NODES` nodes stops with `complete=False`,
and a stopped `minimum_cover` keeps the best cover found, an upper bound.

The search branches on requirements in their own numbering, but prunes with
a packing bound taken over the requirements in ascending order of candidate
count: requirements with few candidates rarely share one, so the greedy
family of pairwise disjoint ones grows larger and the bound tighter.  An
admissible bound only cuts subtrees that hold no cover within the current
limit, and the limit changes only at such covers, so a stronger bound
changes neither which covers the search reaches nor their order: minima,
witnesses and enumerations are those of any other admissible bound.  The
bound is walked only as far as the prune decision needs: the walk stops
once the family outgrows the tests the limit leaves, so a pruned node pays
only for the part of the bound that prunes it.  It steps from one family
member to the next: each member drops, in one mask operation, every
requirement that shares an allowed candidate with it, so the requirements
it skips cost nothing one by one.

The requirement to branch on, the lowest with at most one allowed
candidate or else the lowest of those with the fewest, is read from counts
kept as bit planes: bit i of plane k is bit k of requirement i's number of
allowed candidates.  The search builds the planes once, by a ripple-carry
add of the allowed tests' masks.  When a branch's test is banned for its
later siblings, a borrow chain subtracts that test's mask into a new list,
which the children share and never change.  The pick then costs a few
operations per plane, not one per open requirement.

Preprocessing drops dominated tests and implied requirements, both found
by the containment walk of `core.holders` rather than pair by pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Instance, ParameterError, bits, essential_tests, greedy_fill, holders, undominated

MAX_NODES = 1_000_000  # most branch-and-bound nodes one search may visit
_INF = 1 << 30


@dataclass(frozen=True)
class OracleResult:
    minimum_size: int
    witness: frozenset[int]
    covers: tuple[frozenset[int], ...] | None = None
    complete: bool = True  # False if stopped at MAX_NODES, or enumeration past the cap
    nodes: int = 0  # branch-and-bound nodes visited; for enumeration, its own search only


def _bound_space(instance: Instance) -> tuple[list[int], tuple[int, ...], list[int], list[int]]:
    """The requirements renumbered by ascending candidate count, ties by
    index.  Returns, in the new numbering, each test's requirement mask,
    each requirement's candidate mask and each requirement's `near` mask
    (the requirements that share a candidate with it, itself included, as
    the OR of its candidates' test masks), and the new number of each
    requirement."""
    reqs = instance.requirements
    # a stable sort, so ties keep index order
    order = sorted(range(instance.m), key=lambda i: len(reqs[i].candidates))
    masks = [0] * instance.n
    rank = [0] * instance.m
    for r, i in enumerate(order):
        rank[i] = r
        for t in reqs[i].candidates:
            masks[t] |= 1 << r
    near = [0] * instance.m
    for r, i in enumerate(order):
        for t in reqs[i].candidates:
            near[r] |= masks[t]
    return masks, tuple(instance.candidate_masks[i] for i in order), near, rank


def _lower_bound(
    req_masks: tuple[int, ...],
    masks: list[int],
    near: list[int],
    uncovered: int,
    allowed: int,
    budget: int = _INF,
) -> int:
    """Greedy family of uncovered requirements with pairwise disjoint
    candidate sets, taken in the order of `req_masks`; its size is an
    admissible bound since each needs its own test.  The search passes the
    requirements of `_bound_space`, in ascending candidate count, which
    usually makes the family larger than index order does.  Returns a huge
    value when some requirement has no candidate left at all.

    The walk visits only the requirements that join the family.  When one
    joins, those that share an allowed candidate with it can no longer
    join, so they leave the walk in one step: the OR of the test masks
    `masks` of its allowed candidates, or its `near` mask when all of its
    candidates are allowed.  A requirement with no allowed candidate is in
    no such OR, so the walk still reaches it where a walk over every
    requirement would, and returns the huge value there.

    The walk stops once the family outgrows `budget`, returning its size
    then: any value above `budget` prunes alike, so only
    `min(bound, budget + 1)` is exact."""
    bound = 0
    rest = uncovered
    while rest:
        i = (rest & -rest).bit_length() - 1
        r = req_masks[i]
        cands = r & allowed
        if not cands:
            return _INF
        bound += 1
        if bound > budget:
            return bound
        if cands == r:
            rest &= ~near[i]
        else:
            blocked = 0
            while cands:
                blocked |= masks[(cands & -cands).bit_length() - 1]
                cands &= cands - 1
            rest &= ~blocked
    return bound


def packing_bound(instance: Instance) -> int:
    """The root packing bound: the size of the greedy family of requirements
    with pairwise disjoint candidate sets, taken in ascending candidate
    count, ties by index.  A requirement joins when its candidate mask is
    disjoint from the OR of those taken so far.  This is the family
    `_lower_bound` walks over `_bound_space` with every requirement open and
    every test allowed, without building the bound space.  No cover is
    smaller; 0 with no requirements.

    Floor stop.  So no permutation's objective lies below this bound, and
    once a search's best objective sits on it no later step can change the
    best permutation.  FIS and SA stop searching there and record the best
    objective for each iteration or temperature step left, so their
    results equal those of the full schedule.  With fewer than two tests
    every start sits on the floor."""
    bound = taken = 0
    for cands in sorted(instance.candidate_masks, key=int.bit_count):
        if not cands & taken:
            bound += 1
            taken |= cands
    return bound


def _count_planes(masks: tuple[int, ...], allowed: int) -> list[int]:
    """Each requirement's number of allowed candidates, bit-sliced: bit i of
    `planes[k]` is bit k of requirement i's count.  Built by a ripple-carry
    add of the test mask of each allowed test."""
    planes: list[int] = []
    for t in bits(allowed):
        carry = masks[t]
        for k, plane in enumerate(planes):
            planes[k] = plane ^ carry
            carry &= plane
            if not carry:
                break
        else:
            planes.append(carry)
    return planes


def _drop_count(planes: list[int], mask: int) -> list[int]:
    """`planes` less one candidate for each requirement of `mask`, by a
    borrow chain, as a new list.  Each of them must count at least one."""
    dropped = planes.copy()
    borrow = mask
    for k, plane in enumerate(planes):
        dropped[k] = plane ^ borrow
        borrow &= ~plane
        if not borrow:
            break
    return dropped


def _branch_requirement(planes: list[int], uncovered: int) -> int:
    """The lowest uncovered requirement with at most one usable candidate,
    else the lowest of those with the fewest, read from the count planes:
    the requirements with no bit set above the lowest plane, else those left
    by narrowing plane by plane from the top to the ones without the bit."""
    high = 0
    for plane in planes[1:]:
        high |= plane
    pick = uncovered & ~high
    if not pick:
        pick = uncovered
        for plane in reversed(planes):
            if pick & ~plane:
                pick &= ~plane
    return (pick & -pick).bit_length() - 1


def _implied(
    masks: tuple[int, ...], req_masks: tuple[int, ...], uncovered: int, allowed: int
) -> int:
    """`uncovered` without the requirements another one of it implies: i is
    implied by j when j's allowed candidates all lie inside i's, so any test
    covering j covers i; of equal ones the lowest index stays.  j implies its
    `holders` among the allowed candidate sets, whose transpose is the test
    masks.  Taking j in index order and skipping those already dropped loses
    nothing: what an implied j implies, the requirement that implies j
    implies too, and the lowest of equal ones stays until its turn."""
    cands = [r & allowed for r in req_masks]
    kept = uncovered
    for j in bits(uncovered):
        if kept >> j & 1:
            kept &= ~holders(cands, masks, kept & ~(1 << j), j)
    return kept


def _reduce(instance: Instance, drop_tests: bool) -> tuple[set[int], int, int]:
    """Preprocess to a fixpoint: forced picks, dominated tests (only when
    `drop_tests`), implied requirements (`_implied`).

    Returns (forced, uncovered, allowed): the tests every cover must
    contain, and as bitmasks the requirements they leave open, less the
    implied ones, and the tests the search may still pick.  Test dominance
    keeps at least one optimum but can discard alternative ones, so
    enumeration turns it off.
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
            allowed = undominated([m & uncovered for m in masks], req_masks, allowed & ~forced)
            allowed |= forced
        uncovered = _implied(masks, req_masks, uncovered, allowed)
        changed = (forced, allowed, uncovered) != before
    return set(bits(forced)), uncovered, allowed


def _search(
    instance: Instance, uncovered: int, chosen: set[int], allowed: int, limit: int, leaf
) -> tuple[int, int]:
    """Branch and bound over covers of at most `limit` tests that extend
    `chosen`.

    `leaf(chosen)` is called on each such cover and returns the new limit;
    a negative limit ends the search at once, as do more than `MAX_NODES` nodes.
    Returns the limit in force on exit and the number of nodes visited.
    """
    masks = instance.test_masks
    req_masks = instance.candidate_masks
    nodes = 0
    max_nodes = MAX_NODES

    def visit(uncovered: int, uncovered_b: int, allowed: int, planes: list[int], limit: int) -> int:
        # uncovered_b: the same requirements in the numbering of the bound;
        # planes: the allowed candidate counts, shared with the children
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            return -1
        if not uncovered:
            # a sibling may have tightened the limit since this branch began
            return leaf(chosen) if len(chosen) <= limit else limit
        budget = limit - len(chosen)
        if _lower_bound(req_b, masks_b, near, uncovered_b, allowed, budget) > budget:
            return limit
        i = _branch_requirement(planes, uncovered)
        cands = req_masks[i] & allowed
        while cands:
            t = (cands & -cands).bit_length() - 1
            cands &= cands - 1
            chosen.add(t)
            limit = visit(uncovered & ~masks[t], uncovered_b & ~masks_b[t], allowed, planes, limit)
            chosen.remove(t)
            if limit < 0:  # the search has stopped: visit no sibling
                return limit
            if cands:  # later branches must cover i without t
                allowed &= ~(1 << t)
                planes = _drop_count(planes, masks[t])
        return limit

    uncovered_b = 0
    planes: list[int] = []
    if uncovered:
        masks_b, req_b, near, rank = _bound_space(instance)
        for i in bits(uncovered):
            uncovered_b |= 1 << rank[i]
        planes = _count_planes(masks, allowed)
    return visit(uncovered, uncovered_b, allowed, planes, limit), nodes


def minimum_cover(instance: Instance) -> OracleResult:
    """Size and one witness of a minimum cover, or of the best found by `MAX_NODES`."""
    forced, uncovered, allowed = _reduce(instance, drop_tests=True)
    best = set(greedy_fill(instance.test_masks, uncovered, allowed)) | forced  # upper bound to beat

    def improve(chosen: set[int]) -> int:
        nonlocal best
        best = set(chosen)
        return len(best) - 1

    _, nodes = _search(instance, uncovered, forced, allowed, len(best) - 1, improve)
    return OracleResult(len(best), frozenset(best), complete=nodes <= MAX_NODES, nodes=nodes)


def enumerate_minimum_covers(instance: Instance, cap: int = 1000) -> OracleResult:
    """All minimum covers, lexicographically sorted, up to `cap` of them.  This
    proves the minimum itself, so a caller wanting both needs only this call:
    `minimum_size` is the minimum, `covers[0]` a witness (the lexicographically
    first, not `minimum_cover`'s), and `complete` says whether every minimum cover
    was found.  If `minimum_cover` stops at `MAX_NODES`, this is its result: k is
    unproven, so `covers` is None and `complete` False."""
    if cap < 1:
        raise ParameterError("cap must be positive")
    best = minimum_cover(instance)
    if not best.complete:
        return best
    k = best.minimum_size
    forced, uncovered, allowed = _reduce(instance, drop_tests=False)
    found: list[tuple[int, ...]] = []

    def record(chosen: set[int]) -> int:
        # no cover is smaller than k, so every leaf within the limit has size k;
        # one cover past the cap shows that the first cap are not all
        found.append(tuple(sorted(chosen)))
        return -1 if len(found) > cap else k

    limit, nodes = _search(instance, uncovered, forced, allowed, k, record)
    covers = tuple(frozenset(c) for c in sorted(found[:cap]))
    return OracleResult(
        minimum_size=k,
        witness=covers[0] if covers else frozenset(),
        covers=covers,
        complete=limit >= 0,
        nodes=nodes,
    )
