"""Shared fixtures: the canonical worked examples.

The 12x12 matrices are rebuilt from the frozen generalized inversion
table (the canonical fixture builder); every statistic asserted against
them is an independently known value.
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest

from asmc import (
    AsmMatrix,
    GenInvTable,
    enumerate_asm,
    pair_from_table,
    partial_discharge,
    restore,
    validate_asm,
)

# the smallest ASM with a -1
DIAMOND_ROWS = ((0, 1, 0), (1, -1, 1), (0, 1, 0))

# frozen encoding of the neutral half of the 12x12 worked example
TABLE12 = GenInvTable(k=10, a=(0, 0, 2, 2, 0, 0, 1, 5, 0, 3, 6, 6), b=4, beta=5)


@pytest.fixture
def diamond() -> AsmMatrix:
    return validate_asm(DIAMOND_ROWS)


@pytest.fixture(scope="session")
def pair12():
    return pair_from_table(TABLE12)


@pytest.fixture(scope="session")
def neutral12(pair12) -> AsmMatrix:
    return pair12.matrix


@pytest.fixture(scope="session")
def charged12(pair12) -> AsmMatrix:
    return restore(pair12)


@pytest.fixture(scope="session")
def perm12(neutral12) -> AsmMatrix:
    return partial_discharge(neutral12)


@lru_cache(maxsize=None)
def all_asm(n: int) -> tuple[AsmMatrix, ...]:
    return tuple(enumerate_asm(n))


@lru_cache(maxsize=None)
def one_minus(n: int) -> tuple[AsmMatrix, ...]:
    return tuple(enumerate_asm(n, s=1))


def random_valid_table(rng: random.Random, n: int) -> GenInvTable:
    """A valid table of order ``n``: free ``a_i`` in ``[0, i-1]`` (condition
    2), then the block at k drawn inside conditions 3 and 4."""
    k = rng.randint(3, n)
    a = [rng.randint(0, i - 1) for i in range(1, n + 1)]
    ak = rng.randint(1, k - 2)
    ak1 = rng.randint(0, ak - 1)
    b = rng.randint(0, k - 2 - ak)
    beta = rng.randint(0, ak + b - ak1 - 1)
    a[k - 1], a[k - 2] = ak, ak1
    return GenInvTable(k=k, a=tuple(a), b=b, beta=beta)
