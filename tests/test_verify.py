"""The property sweep itself: completeness, reporting, and the ability to
catch a deliberately broken involution."""

import dataclasses
import itertools
import json
import sys

import pytest

import asmc.inv_table
import asmc.matrix
import asmc.neutral
import asmc.verify
from asmc import NeutralPair, enumerate_asm, verify_suite
from asmc.verify import PROPERTIES, run_property
from conftest import dense_reads


def test_sweep_passes_at_small_order():
    report = verify_suite(4)
    assert report.ok
    assert all(r.counterexample is None for r in report.results)
    assert all(r.checked > 0 for r in report.results)


def test_registry_has_at_least_fifteen_properties():
    assert len(PROPERTIES) >= 15
    names = [name for name, _, _ in PROPERTIES]
    assert len(set(names)) == len(names)


def test_text_report_lists_every_property():
    report = verify_suite(3)
    text = report.to_text()
    for name, _, _ in PROPERTIES:
        assert name in text
    assert f"{len(PROPERTIES)}/{len(PROPERTIES)} properties passed" in text
    assert "  n = 3 " in text and "checks/s" in text
    assert text.splitlines()[-1].endswith("properties passed")


def test_json_report_parses():
    report = verify_suite(3)
    payload = json.loads(report.to_json())
    assert payload["ok"] is True
    assert len(payload["properties"]) == len(PROPERTIES)


def test_cap_guard():
    from asmc import CapExceeded

    with pytest.raises(CapExceeded):
        verify_suite(9)


@pytest.fixture
def broken_charge_flip(monkeypatch):
    """An off-by-one charge flip, installed in place of the real one."""

    def off_by_one(pair):
        sums = pair.sums
        return NeutralPair(pair.matrix, sums.c - sums.ell - pair.charge + 1)

    monkeypatch.setattr(asmc.neutral, "flip_charge", off_by_one)


def test_mutated_charge_flip_is_caught(broken_charge_flip):
    result = run_property("charge-flip-involution", range(3, 6), cap=5)
    assert not result.ok
    assert "matrix rows" in result.counterexample  # a concrete witness

    swap = run_property("charge-swap", range(3, 6), cap=5)
    assert not swap.ok
    assert "matrix rows" in swap.counterexample


def test_mutation_does_not_leak_between_tests():
    assert run_property("charge-flip-involution", range(3, 5), cap=4).ok


# Per-property check counts of verify_suite(5), pinned so that checks per
# second measure the same work from one version of the sweep to the next.
CHECKED_AT_5 = {
    "reflect-classical": 478, "reflect-charges": 217, "neutral-cell-swap": 133,
    "permutation-inversions": 150, "perm-table-roundtrip": 150,
    "discharge-structure": 175, "discharge-neutral-shortcut": 133,
    "discharge-bijection": 350, "neutralize-roundtrip": 217, "neutralize-image": 434,
    "neutralize-transport": 217, "neutralize-reflect": 217, "charge-range": 217,
    "charge-flip-involution": 217, "charge-swap": 217, "charge-swap-reflect": 217,
    "table-roundtrip": 217, "table-characterization": 434, "table-duality": 217,
    "paths-roundtrip": 217, "paths-params": 217, "paths-duality": 217,
    "enumeration-totals": 478, "distribution-mirror": 434,
}


def test_checked_counts_at_order_5():
    report = verify_suite(5)
    assert report.ok
    assert {r.name: r.checked for r in report.results} == CHECKED_AT_5
    assert [o.n for o in report.orders] == [3, 4, 5]
    assert sum(o.checked for o in report.orders) == sum(CHECKED_AT_5.values())


def test_one_dense_scan_per_matrix_at_order_5():
    """A record reads the sparse view of its matrix once: ``s`` is the
    ``s`` of its classical parameters, and the view a scan reads is kept
    for the charges, the encodings and the reflection, which mirrors it."""
    with dense_reads() as (scans, _):
        assert verify_suite(5).ok
    # the 478 ASMs of orders 3..5, enumerated by the sweep and again by the
    # whole-order properties; no reflection is scanned
    assert 478 <= len(scans) <= 2 * 478
    assert set(scans.values()) == {1}


def _result(report, name):
    return next(r for r in report.results if r.name == name)


def test_mutated_swap_charges_is_caught(monkeypatch):
    monkeypatch.setattr(asmc.neutral, "swap_charges", lambda a: a)  # swaps nothing
    swap = _result(verify_suite(4), "charge-swap")
    assert not swap.ok
    assert "matrix rows" in swap.counterexample


def test_mutated_neutralize_is_caught(monkeypatch):
    real = asmc.neutral.neutralize

    def uncharged(a):  # a valid pair, but the charge is dropped
        return NeutralPair(real(a).matrix, 0)

    monkeypatch.setattr(asmc.neutral, "neutralize", uncharged)
    roundtrip = _result(verify_suite(4), "neutralize-roundtrip")
    assert not roundtrip.ok
    assert "matrix rows" in roundtrip.counterexample


def _calls_per_matrix(monkeypatch, name):
    """Average calls of ``asmc.neutral.<name>`` per one-minus matrix over
    ``verify_suite(5)``, counted on every asmc module that binds it."""
    real = getattr(asmc.neutral, name)
    calls = 0

    def counting(a):
        nonlocal calls
        calls += 1
        return real(a)

    bound = [mod for key, mod in sys.modules.items()
             if key.split(".")[0] == "asmc" and getattr(mod, name, None) is real]
    assert asmc.neutral in bound
    for mod in bound:
        monkeypatch.setattr(mod, name, counting)
    assert verify_suite(5).ok
    matrices = sum(1 for n in range(3, 6) for _ in enumerate_asm(n, s=1))
    assert matrices == 217
    return calls / matrices


def test_neutralize_calls_per_matrix(monkeypatch):
    """The matrix, its reflection and its charge swap are each neutralized
    once for all the properties that read them."""
    assert _calls_per_matrix(monkeypatch, "neutralize") <= 7.5


def test_restore_calls_per_matrix(monkeypatch):
    """neutralize-roundtrip and neutralize-image share one restore of the
    pair (5.97 calls per matrix; 7.16 when each made its own)."""
    assert _calls_per_matrix(monkeypatch, "restore") <= 6.3


def test_mutated_classical_params_is_caught(monkeypatch):
    real = asmc.matrix.classical_params

    def miscounted(a):  # one inversion too many on permutation matrices
        p = real(a)
        return p if p.s else asmc.matrix.ClassicalParams(p.r, p.s, p.i + 1)

    monkeypatch.setattr(asmc.matrix, "classical_params", miscounted)
    result = run_property("permutation-inversions", range(3, 5), cap=4)
    assert not result.ok
    assert "matrix rows" in result.counterexample


def test_mutated_gen_table_is_caught(monkeypatch):
    real = asmc.inv_table.gen_table

    def beta_zero(pair):  # a valid table, but beta is dropped
        return dataclasses.replace(real(pair), beta=0)

    monkeypatch.setattr(asmc.inv_table, "gen_table", beta_zero)
    result = run_property("table-characterization", range(3, 6), cap=5)
    assert not result.ok
    assert "matrix rows" in result.counterexample


def test_mutated_neutralize_fails_neutralize_image(monkeypatch):
    real = asmc.neutral.neutralize

    def uncharged(a):  # a valid pair, but the charge is dropped
        return NeutralPair(real(a).matrix, 0)

    monkeypatch.setattr(asmc.neutral, "neutralize", uncharged)
    result = run_property("neutralize-image", range(3, 6), cap=5)
    assert not result.ok
    # caught on the first charged matrix, not by a collision further on
    assert result.counterexample.startswith("restore does not invert neutralize; matrix rows")


def test_short_tuple_count_is_caught(monkeypatch):
    real = asmc.verify._iter_valid_tuples
    monkeypatch.setattr(asmc.verify, "_iter_valid_tuples", lambda n: itertools.islice(real(n), 1, None))
    result = run_property("discharge-bijection", range(3, 6), cap=5)
    assert not result.ok
    assert result.counterexample == "0 elements counted in the codomain, 1 checked (n=3)"
