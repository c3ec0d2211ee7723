"""Acceptance criteria, one test per criterion.

Each test enforces exact integer equalities (no tolerances anywhere) and
its stated wall-clock budget, and prints one line on success.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import time

import pytest

import asmc.neutral
from asmc import (
    NeutralPair,
    SignClass,
    cell_sums,
    charges,
    classical_params,
    discharge,
    enumerate_asm,
    formula_count,
    neutralize,
    pair_from_table,
    reflect,
    restore,
    sign_class,
    v_shift,
)
from asmc.verify import run_property
from conftest import TABLE12

CAP = 7
FULL_RANGE = range(3, 7)  # 3 <= n <= 6


def _report(number: int, message: str) -> None:
    print(f"[criterion {number}] PASS: {message}")


def _run_all(names, n_range):
    results = [run_property(name, n_range, cap=CAP) for name in names]
    bad = [r for r in results if not r.ok]
    assert not bad, "counterexamples found:\n" + "\n".join(
        f"  {r.name}: {r.counterexample}" for r in bad
    )
    return sum(r.checked for r in results)


def test_criterion_1_worked_example_reproduction():
    start = time.perf_counter()
    pair = pair_from_table(TABLE12)
    neutral = pair.matrix
    charged = restore(NeutralPair(neutral, 3))

    for m in (neutral, charged):
        p = classical_params(m)
        assert (p.r, p.i) == (6, 30)
    ch_a, ch_n = charges(charged), charges(neutral)
    assert (ch_a.e, ch_a.b, ch_a.j) == (3, -1, 7)
    assert (ch_n.e, ch_n.b, ch_n.j) == (0, 2, 7)
    t_a, t_n = discharge(charged), discharge(neutral)
    assert (t_a.opening_row, t_a.closing_sum, t_a.charge) == (3, 1, 3)
    assert (t_n.opening_row, t_n.closing_sum, t_n.charge) == (3, 4, 0)
    assert t_a.perm == t_n.perm

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(1, f"12x12 worked example reproduced exactly in {elapsed:.3f}s")


def test_criterion_2_vertical_displacement_golden():
    start = time.perf_counter()
    src = (
        (0, 0, 0, 0),
        (0, 0, 0, 1),
        (0, 0, 0, 0),
        (0, 0, 0, 0),
        (0, 0, 1, 0),
        (1, 0, 0, 0),
    )
    expected = (
        (0, 0, 0, 1),
        (0, 0, 1, 0),
        (0, 0, 0, 0),
        (0, 0, 0, 0),
        (1, 0, 0, 0),
        (0, 0, 0, 0),
    )
    assert v_shift(src) == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(2, f"6x4 displacement example matches byte for byte in {elapsed:.3f}s")


def test_criterion_3_exhaustive_bijection_suite():
    start = time.perf_counter()
    checked = _run_all(
        (
            "neutralize-roundtrip",
            "neutralize-image",
            "discharge-bijection",
            "paths-roundtrip",
            "table-characterization",
        ),
        FULL_RANGE,
    )
    # the inverse direction of the pair encoding, explicitly
    both_ways = 0
    for n in FULL_RANGE:
        for m in enumerate_asm(n, s=1, cap=CAP):
            if sign_class(m) is not SignClass.NEUTRAL:
                continue
            sums = cell_sums(m)
            for e in range(-sums.ell, sums.c + 1):
                pair = NeutralPair(m, e)
                assert neutralize(restore(pair)) == pair
                both_ways += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    _report(
        3,
        f"bijection suite clean over 3<=n<=6 ({checked + both_ways} checks, {elapsed:.1f}s)",
    )


def test_criterion_4_parameter_transport_suite():
    start = time.perf_counter()
    checked = _run_all(
        (
            "neutralize-transport",
            "discharge-structure",
            "table-roundtrip",
            "paths-params",
        ),
        FULL_RANGE,
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    _report(4, f"parameter transport clean over 3<=n<=6 ({checked} checks, {elapsed:.1f}s)")


CRITERION_5_PROPERTIES = (
    "charge-flip-involution",
    "charge-swap",
    "charge-swap-reflect",
    "table-duality",
    "paths-duality",
)


def test_criterion_5_involution_and_duality_suite():
    start = time.perf_counter()
    checked = _run_all(CRITERION_5_PROPERTIES, FULL_RANGE)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    _report(5, f"involution/duality suite clean over 3<=n<=6 ({checked} checks, {elapsed:.1f}s)")


def test_criterion_6_reflection_identities_for_all_s():
    from math import comb

    start = time.perf_counter()
    checked = 0
    for n in range(1, 6):
        for m in enumerate_asm(n):
            p, rp = classical_params(m), classical_params(reflect(m))
            assert p.r + rp.r == n - 1
            assert p.i + rp.i == comb(n, 2) + p.s
            assert rp.s == p.s
            checked += 1
    elapsed = time.perf_counter() - start
    _report(6, f"reflection identities hold for all {checked} matrices with n<=5 ({elapsed:.1f}s)")


def test_criterion_7_enumeration_totals():
    expected = {1: 1, 2: 2, 3: 7, 4: 42, 5: 429, 6: 7436, 7: 218348}
    start = time.perf_counter()
    for n in range(1, 7):
        assert sum(1 for _ in enumerate_asm(n)) == expected[n] == formula_count(n)
    small = time.perf_counter() - start
    assert small < 10.0, f"n<=6 took {small:.2f}s"
    start7 = time.perf_counter()
    assert sum(1 for _ in enumerate_asm(7)) == expected[7] == formula_count(7)
    big = time.perf_counter() - start7
    assert big < 300.0, f"n=7 took {big:.2f}s"
    _report(7, f"totals 1..7 match the product formula (n<=6 in {small:.1f}s, n=7 in {big:.1f}s)")


def test_criterion_8_harness_catches_a_mutated_charge_flip(monkeypatch):
    def off_by_one(pair):
        sums = pair.sums
        return NeutralPair(pair.matrix, sums.c - sums.ell - pair.charge + 1)

    monkeypatch.setattr(asmc.neutral, "flip_charge", off_by_one)
    results = [run_property(name, range(3, 6), cap=CAP) for name in CRITERION_5_PROPERTIES]
    failing = [r for r in results if not r.ok]
    assert failing, "the corrupted charge flip went unnoticed"
    assert any("matrix rows" in r.counterexample for r in failing)
    monkeypatch.undo()
    assert run_property("charge-flip-involution", range(3, 5), cap=CAP).ok
    witness = next(r for r in failing if "matrix rows" in r.counterexample)
    _report(8, f"mutation caught by {witness.name} with counterexample: {witness.counterexample[:60]}...")
