"""Seeded synthetic test-suite instances.

Every random draw comes from one numpy PCG64 stream keyed by the workload
seed and a per-workload tag, so one seed always yields the same suites.  A
suite is plain data (test ids and requirement candidate lists); tsred only
ever receives this data, as JSON text or through ``validate_instance``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# Candidates per requirement, inclusive bounds.
CANDIDATES = (2, 6)

# wide-suites: suites with more requirements than one 64-bit word holds.  The
# oracle's time on one such suite varies by about 60% (coefficient of
# variation), and set-up solves each, so 16 suites keep setup_s within about
# 15% from seed to seed (8 suites left about 22%).
WIDE_COUNT = 16
WIDE_TESTS = 48
WIDE_REQUIREMENTS = 120

# oracle-exact: a stratified size schedule, instance k has ORACLE_TESTS
# tests and round(ratio * ORACLE_TESTS) requirements with
# ratio = ORACLE_RATIOS[k % len(ORACLE_RATIOS)], so every seed has the same
# size mix.  Oracle time grows steeply with the number of
# tests, and so does its spread within one size: at 36 tests one suite's
# time varies by about 40% (coefficient of variation), at 42 by about 65%.
# Many suites at the small end keep the pass total nearly independent of
# the seed (about 0.4 / sqrt(180), 3%) while each still has its own tail.
ORACLE_COUNT = 180
ORACLE_TESTS = 36
ORACLE_RATIOS = (2.0, 2.25, 2.5)

_TAGS = {"wide-suites": 1, "oracle-exact": 2}


@dataclass(frozen=True)
class Suite:
    name: str
    tests: tuple[str, ...]
    requirements: tuple[tuple[str, tuple[str, ...]], ...]

    def to_json(self) -> str:
        """The suite in tsred's instance document format."""
        return json.dumps(
            {
                "name": self.name,
                "tests": list(self.tests),
                "requirements": [
                    {"id": rid, "candidates": list(cands)} for rid, cands in self.requirements
                ],
            }
        )


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, _TAGS[workload]])))


def _suite(rng: np.random.Generator, name: str, n: int, m: int) -> Suite:
    tests = tuple(f"t{j:02d}" for j in range(n))
    lo, hi = CANDIDATES
    requirements = []
    for i in range(m):
        k = int(rng.integers(lo, hi + 1))
        picks = sorted(int(j) for j in rng.choice(n, size=k, replace=False))
        requirements.append((f"r{i:03d}", tuple(tests[j] for j in picks)))
    return Suite(name, tests, tuple(requirements))


def wide_suites(seed: int) -> list[Suite]:
    rng = _rng(seed, "wide-suites")
    return [
        _suite(rng, f"wide-{seed}-{k}", WIDE_TESTS, WIDE_REQUIREMENTS) for k in range(WIDE_COUNT)
    ]


def oracle_suites(seed: int) -> list[Suite]:
    rng = _rng(seed, "oracle-exact")
    suites = []
    for k in range(ORACLE_COUNT):
        ratio = ORACLE_RATIOS[k % len(ORACLE_RATIOS)]
        suites.append(_suite(rng, f"exact-{seed}-{k}", ORACLE_TESTS, round(ratio * ORACLE_TESTS)))
    return suites
