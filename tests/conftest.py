import pytest

from tsred import validate_instance


@pytest.fixture
def tiny():
    """Four tests, four requirements; unique minimum cover {t1, t3}."""
    return validate_instance(
        "tiny",
        ["t1", "t2", "t3", "t4"],
        [
            ("r1", ["t1"]),
            ("r2", ["t1", "t2"]),
            ("r3", ["t3", "t4"]),
            ("r4", ["t2", "t3"]),
        ],
    )


@pytest.fixture
def five_cycle():
    """Requirement ri needs ti or t(i+1 mod 5): minimum 3, packing bound 2,
    so no FIS run reaches the floor and stops early."""
    tests = [f"t{j}" for j in range(5)]
    return validate_instance(
        "five-cycle", tests, [(f"r{i}", [tests[i], tests[(i + 1) % 5]]) for i in range(5)]
    )
