"""The census past the exhaustive range: ``distribution`` against closed
forms, the symmetries of the paper, the Counter engines of ``conftest``,
its two engines against each other, and its guards on the output size
and on the work of the transfer count."""

import itertools
from collections import Counter
from fractions import Fraction
from math import comb, factorial

import pytest

import asmc.enumeration
from asmc import distribution, formula_count
from asmc.enumeration import (
    DISTRIBUTION_KEYS,
    MAX_DISTRIBUTION_KEYS,
    MAX_TRANSFER_STATES,
    _predicted_keys,
    _row_moves,
)
from asmc.errors import BadArgument
from conftest import all_asm, counter_table_space_distribution, counter_transfer_distribution


def refined_count(n: int, k: int) -> int:
    """Order-n ASMs whose first row has its 1 in column k (Zeilberger,
    *Proof of the refined alternating sign matrix conjecture*, 1996)."""
    scale = Fraction(1)
    for j in range(n - 1):
        scale *= Fraction(factorial(3 * j + 1), factorial(n + j))
    value = comb(n + k - 2, k - 1) * Fraction(factorial(2 * n - k - 1), factorial(n - k)) * scale
    assert value.denominator == 1
    return int(value)


def one_minus_count(n: int) -> int:
    """Order-n ASMs with one -1: ``n! C(n,3) / 6``."""
    return factorial(n) * comb(n, 3) // 6


def project(census: Counter, names: tuple[str, ...], keys) -> Counter:
    """The counts of ``census``, whose tuples name ``names``, per tuple of
    ``keys``."""
    out = Counter()
    for values, count in census.items():
        named = dict(zip(names, values))
        out[tuple(named[k] for k in keys)] += count
    return out


SUBSETS = [
    keys
    for size in range(1, len(DISTRIBUTION_KEYS) + 1)
    for keys in itertools.combinations(DISTRIBUTION_KEYS, size)
]
REPEATED = [("r", "r"), ("i", "s", "i"), ("E", "E"), ("J", "r", "B", "J"), ("B", "i", "E", "s", "B")]
FIVE = ("r", "i", "E", "B", "J")


class TestClosedForms:
    def test_refined_count_by_enumeration(self):
        for n in range(1, 7):
            firsts = Counter(m.rows[0].index(1) + 1 for m in all_asm(n))
            assert firsts == {k: refined_count(n, k) for k in range(1, n + 1)}

    @pytest.mark.parametrize("n", range(1, 11))
    def test_total_refined_count_and_two_enumeration(self, n):
        counts = distribution(n, ("r", "s"), cap=None)
        assert sum(counts.values()) == formula_count(n)
        by_r = project(counts, ("r", "s"), ("r",))
        assert by_r == {(k - 1,): refined_count(n, k) for k in range(1, n + 1)}
        assert sum(count << s for (_, s), count in counts.items()) == 2 ** comb(n, 2)

    def test_charge_key_totals_up_to_order_30(self):
        for n in range(3, 31):
            for key in ("E", "B", "J"):
                assert sum(distribution(n, [key], cap=None).values()) == one_minus_count(n), (n, key)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_hidden_symmetry_and_reflection(self, n):
        """E and B trade places with r, i and J fixed, and vertical
        reflection maps (r, i, E, B) to (n-1-r, C(n,2)+1-i, -E, -B)."""
        census = distribution(n, FIVE, cap=None)
        assert sum(census.values()) == one_minus_count(n)
        swapped = Counter({(r, i, b, e, j): c for (r, i, e, b, j), c in census.items()})
        mirrored = Counter(
            {(n - 1 - r, comb(n, 2) + 1 - i, -e, -b, j): c for (r, i, e, b, j), c in census.items()}
        )
        assert swapped == census
        assert mirrored == census


class TestCrossEngine:
    @pytest.mark.parametrize("n", range(8, 12))
    def test_transfer_count_at_one_minus_equals_the_table_space_marginal(self, n):
        """Matrices with one -1 counted over column-sum states and counted
        over generalized inversion tables agree on (r, i)."""
        transfer = distribution(n, ("r", "s", "i"), cap=None)
        at_one = Counter({(r, i): c for (r, s, i), c in transfer.items() if s == 1})
        tables = project(distribution(n, ("r", "i", "J"), cap=None), ("r", "i", "J"), ("r", "i"))
        assert at_one == tables
        assert sum(at_one.values()) == one_minus_count(n)


class TestCounterEngines:
    """The packed counts equal the Counter engines they replace."""

    def test_every_key_subset_at_order_8(self):
        n = 8
        plain = counter_transfer_distribution(n, ("r", "s", "i"))
        charged = counter_table_space_distribution(n, DISTRIBUTION_KEYS)
        for keys in SUBSETS + REPEATED:
            if any(k in ("E", "B", "J") for k in keys):
                expected = project(charged, DISTRIBUTION_KEYS, keys)
            else:
                expected = project(plain, ("r", "s", "i"), keys)
            got = distribution(n, keys, cap=None)
            assert got == expected and len(got) == len(expected), keys
            assert len(got) <= _predicted_keys(n, keys), keys

    def test_census_keys_at_order_9(self):
        keys = ("r", "s", "i")
        assert distribution(9, keys, cap=None) == counter_transfer_distribution(9, keys)
        assert distribution(9, FIVE, cap=None) == counter_table_space_distribution(9, FIVE)

    def test_more_coefficients_than_one_chunk(self):
        """At order 13 i reaches 78, past the 64 coefficients of one chunk
        of a packed polynomial."""
        keys = ("i", "J")
        assert distribution(13, keys, cap=None) == counter_table_space_distribution(13, keys)

    def test_row_inversion_shares_are_never_negative(self):
        """The transfer count shifts left by each row's inversion share."""
        for n in range(1, 9):
            for state in range(1 << n):
                assert all(inv >= 0 for *_, inv in _row_moves(n, state)), (n, state)


class TestOutputGuard:
    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(n, keys):
            raise AssertionError(f"counted distribution({n}, {keys})")

        for engine in ("_table_space_distribution", "_transfer_distribution"):
            monkeypatch.setattr(asmc.enumeration, engine, refuse)

    def test_five_keys_at_order_30_raise_before_counting(self, no_work):
        with pytest.raises(BadArgument, match="predicts"):
            distribution(30, FIVE, cap=None)

    def test_transfer_keys_past_order_12_raise_before_counting(self, no_work):
        assert 1 << 12 <= MAX_TRANSFER_STATES < 1 << 13
        for keys in SUBSETS + REPEATED:
            if not any(k in ("E", "B", "J") for k in keys):
                with pytest.raises(BadArgument, match="column-sum states"):
                    distribution(13, keys, cap=None)
        with pytest.raises(BadArgument, match="column-sum states"):
            distribution(60, ("r", "i"), cap=None)

    def test_charge_keys_are_not_bounded_by_the_states(self, monkeypatch):
        monkeypatch.setattr(asmc.enumeration, "_table_space_distribution", lambda n, keys: ({}, 0))
        for keys in (("E",), ("r", "s", "i", "J"), ("B", "i")):
            assert distribution(60, keys, cap=None) == Counter()

    def test_every_key_set_up_to_order_12_is_allowed(self, monkeypatch):
        for engine in ("_table_space_distribution", "_transfer_distribution"):
            monkeypatch.setattr(asmc.enumeration, engine, lambda n, keys: ({}, 0))
        for n in range(1, 13):
            for keys in SUBSETS + REPEATED:
                assert _predicted_keys(n, keys) <= MAX_DISTRIBUTION_KEYS
                assert distribution(n, keys, cap=None) == Counter()
