"""Enumeration: totals, ordering, filters and distributions."""

import itertools
from collections import Counter
from math import comb

import pytest

import asmc
from asmc import (
    AsmcError,
    CapExceeded,
    InternalInvariantViolation,
    SignClass,
    charges,
    classical_params,
    distribution,
    enumerate_asm,
    formula_count,
    validate_asm,
)
from asmc.enumeration import DISTRIBUTION_KEYS
from asmc.errors import BadArgument
from asmc.verify import run_property
from conftest import DIAMOND_ROWS, factorial_count


class TestTotals:
    @pytest.mark.parametrize(
        "n,total", [(1, 1), (2, 2), (3, 7), (4, 42), (5, 429)]
    )
    def test_counts_match_formula(self, n, total):
        assert formula_count(n) == total
        assert sum(1 for _ in enumerate_asm(n)) == total

    def test_formula_matches_the_factorial_product(self):
        for n in [*range(61), 100, 200]:
            assert formula_count(n) == factorial_count(n), n

    def test_an_inexact_ratio_is_an_internal_fault(self, monkeypatch):
        monkeypatch.setattr("asmc.enumeration.comb", lambda a, b: comb(a, b) + 1)
        with pytest.raises(InternalInvariantViolation, match="did not divide evenly"):
            formula_count(5)

    def test_diamond_is_the_only_one_minus_order_3(self):
        mats = list(enumerate_asm(3, s=1))
        assert [m.rows for m in mats] == [DIAMOND_ROWS]

    def test_naive_filter_oracle_order_3(self):
        naive = set()
        for cells in itertools.product((-1, 0, 1), repeat=9):
            grid = [cells[0:3], cells[3:6], cells[6:9]]
            try:
                naive.add(validate_asm(grid).rows)
            except AsmcError:
                continue
        assert naive == {m.rows for m in enumerate_asm(3)}

    def test_every_yielded_matrix_validates(self):
        for n in (1, 2, 3, 4, 5):
            for m in enumerate_asm(n):
                validate_asm(m.rows)


class TestOrdering:
    def test_stream_is_row_lexicographic_and_duplicate_free(self):
        rows = [m.rows for m in enumerate_asm(5)]
        assert rows == sorted(rows)
        assert len(set(rows)) == len(rows)

    def test_two_runs_are_identical(self):
        assert list(enumerate_asm(4)) == list(enumerate_asm(4))


class TestFilters:
    def test_minus_count_filter_partitions_the_total(self):
        totals = [sum(1 for _ in enumerate_asm(4, s=s)) for s in range(0, 3)]
        assert sum(totals) == 42
        assert totals[0] == 24  # permutation matrices

    def test_sign_filter_partitions_one_minus(self):
        counts = {
            cls: sum(1 for _ in enumerate_asm(4, s=1, sign=cls)) for cls in SignClass
        }
        assert sum(counts.values()) == 16
        assert counts[SignClass.POSITIVE] == counts[SignClass.NEGATIVE]

    def test_sign_filter_requires_one_minus(self):
        with pytest.raises(ValueError):
            list(enumerate_asm(4, sign=SignClass.NEUTRAL))

    def test_cap(self):
        with pytest.raises(CapExceeded):
            list(enumerate_asm(8))
        assert sum(1 for _ in enumerate_asm(4, cap=4)) == 42
        with pytest.raises(CapExceeded):
            list(enumerate_asm(5, cap=4))

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            list(enumerate_asm(0))


class TestDistribution:
    def test_first_one_position_counts_order_3(self):
        assert distribution(3, ["r"]) == {(0,): 2, (1,): 3, (2,): 2}

    def test_electric_mass_sits_at_zero_for_order_3(self):
        assert distribution(3, ["E"]) == {(0,): 1}

    def test_electric_and_magnetic_marginals_agree(self):
        assert distribution(4, ["E"]) == distribution(4, ["B"])

    def test_charge_keys_restrict_to_one_minus(self):
        total = sum(distribution(4, ["J"]).values())
        assert total == 16  # only the one-minus matrices are counted

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            distribution(3, ["q"])
        with pytest.raises(ValueError):
            distribution(3, [])

    def test_bad_arguments_are_domain_errors(self):
        for call in (
            lambda: distribution(3, ["q"]),
            lambda: distribution(3, []),
            lambda: distribution(0, ["r"]),
            lambda: list(enumerate_asm(0)),
            lambda: list(enumerate_asm(4, sign=SignClass.NEUTRAL)),
        ):
            with pytest.raises(BadArgument) as info:
                call()
            assert isinstance(info.value, AsmcError)

    def test_cap_applies_to_both_counts(self):
        with pytest.raises(CapExceeded):
            distribution(8, ["r"])
        with pytest.raises(CapExceeded):
            distribution(5, ["E"], cap=4)


def _census(n: int) -> Counter:
    """Every order-n matrix by its six statistics, E/B/J as None when
    ``s != 1``: the enumeration oracle for :func:`distribution`."""
    counts = Counter()
    for m in enumerate_asm(n):
        cp = classical_params(m)
        ch = charges(m) if cp.s == 1 else None
        counts[(cp.r, cp.s, cp.i, *((ch.e, ch.b, ch.j) if ch else (None,) * 3))] += 1
    return counts


def _marginal(census: Counter, keys) -> Counter:
    """The counts of ``census`` per tuple of ``keys``, restricted to
    one-minus matrices when a charge key is asked for."""
    charged = any(k in ("E", "B", "J") for k in keys)
    out = Counter()
    for values, count in census.items():
        if charged and values[1] != 1:
            continue
        named = dict(zip(DISTRIBUTION_KEYS, values))
        out[tuple(named[k] for k in keys)] += count
    return out


SUBSETS = [
    keys
    for size in range(1, len(DISTRIBUTION_KEYS) + 1)
    for keys in itertools.combinations(DISTRIBUTION_KEYS, size)
]
REPEATED = [("r", "r"), ("i", "s", "i"), ("E", "E"), ("J", "r", "B", "J"), ("B", "i", "E", "s", "B")]


class TestDistributionOracle:
    """The counts equal a census of the enumerated matrices."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_key_subset(self, n):
        census = _census(n)
        for keys in SUBSETS + REPEATED:
            assert distribution(n, keys) == _marginal(census, keys), keys

    def test_order_seven(self):
        census = _census(7)
        for keys in (("r", "s", "i"), ("r", "i", "E", "B", "J")):
            assert distribution(7, keys) == _marginal(census, keys), keys

    @pytest.mark.parametrize("n", [1, 2])
    def test_charge_keys_below_order_three_count_nothing(self, n):
        assert distribution(n, ["E"]) == Counter()
        assert distribution(n, ["r", "J"]) == Counter()

    def test_verify_catches_a_wrong_distribution(self, monkeypatch):
        real = asmc.enumeration.distribution

        def off_by_one(n, keys, cap=7):
            counts = real(n, keys, cap)
            counts[next(iter(counts))] += 1
            return counts

        monkeypatch.setattr(asmc.enumeration, "distribution", off_by_one)
        result = run_property("distribution-mirror", range(3, 6), cap=5)
        assert not result.ok
        assert "disagrees with the enumerated matrices" in result.counterexample
