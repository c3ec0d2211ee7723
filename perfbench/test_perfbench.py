"""Tests of the benchmark's own parts: the table sampler, the workload
oracles and the metric lists.  Run from the repository root with

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
from collections import Counter
from math import factorial
from pathlib import Path

from probe import use_checkout_source

use_checkout_source()

import asmc  # noqa: E402
from run import END_TO_END  # noqa: E402
from spans import Tracer, library  # noqa: E402
from tables import block_count, random_table  # noqa: E402
from workloads import (  # noqa: E402
    PER_LAYER, WORKLOADS, CliPipeline, RoundtripLarge, charge_class, run_passes,
)

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_block_counts_give_the_one_minus_totals():
    for n, total in zip(range(3, 8), (1, 16, 200, 2400, 29400)):
        count = sum(block_count(k) * factorial(n) // ((k - 1) * k) for k in range(3, n + 1))
        assert count == total == sum(1 for _ in asmc.enumerate_asm(n, s=1))


def test_every_sample_is_a_valid_table():
    rng = random.Random(0)
    for n in list(range(3, 40)) + [100, 200]:
        for _ in range(20):
            t = random_table(n, rng)
            assert t.n == n
            assert asmc.table_valid(t), t


def test_support_at_n5_is_the_image_of_gen_table():
    image = {asmc.gen_table(asmc.neutralize(m)) for m in asmc.enumerate_asm(5, s=1)}
    rng = random.Random(1)
    counts = Counter(random_table(5, rng) for _ in range(20000))
    assert set(counts) == image
    # 200 tables, 100 draws each on average: every table well inside 50..150
    assert 50 < min(counts.values()) and max(counts.values()) < 150


def test_all_three_sign_classes_occur_and_are_recorded():
    wl = RoundtripLarge(seed=3, workdir=Path("."))
    for n in range(5, 30):
        for _ in range(10):
            t = random_table(n, wl.rng)
            cls = asmc.sign_class(asmc.restore(asmc.pair_from_table(t))).value
            assert charge_class(t) == cls
            wl.classes[cls] += 1
    shares = wl.inputs_summary()
    assert all(shares[f"{c}_share"] > 0 for c in ("positive", "neutral", "negative"))
    assert abs(sum(shares.values()) - 1) < 1e-9


def test_roundtrip_oracle_catches_a_broken_operation():
    wl = RoundtripLarge(seed=4, workdir=Path("."))
    t = random_table(12, random.Random(4))
    ok, broken = library(), library()
    broken.swap_charges = lambda m: m
    (good, bad) = run_passes_on(wl, [ok, broken], [t])
    assert good.failed == 0 and good.attempted == 1
    assert bad.failed == 1


def test_cli_oracle_catches_a_failed_command(tmp_path):
    wl = CliPipeline(seed=5, workdir=tmp_path)
    case = next(wl.rounds())[0]
    broken = library()
    broken.main = lambda argv: 2
    (good, bad) = run_passes_on(wl, [library(), broken], [case])
    assert good.failed == 0 and good.attempted == 6
    assert bad.failed == 6


def test_traced_library_records_nested_spans():
    tracer = Tracer()
    lib = library(tracer)
    with lib.span("outer"):
        lib.neutralize(asmc.restore(asmc.pair_from_table(random_table(8, random.Random(6)))))
    durations = tracer.durations()
    assert set(durations) == {"outer", "neutral.neutralize"}
    assert tracer.parent[1] == 0 and tracer.parent[0] == -1


def test_metric_lists_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER


def test_every_per_layer_metric_is_measured_by_some_workload(tmp_path):
    # small inputs where the workload allows them; the per-layer replays
    # keep their own fixed orders
    inputs = {
        "verify6": [4],
        "census7": [5],
        "roundtrip_large": [random_table(n, random.Random(7)) for n in RoundtripLarge.GRID],
    }
    measured = {"trace.overhead_ms_per_op", "trace.overhead_frac", "trace.spans"}
    for name, cls in WORKLOADS.items():
        wl = cls(seed=7, workdir=tmp_path / name)
        tracer = Tracer()
        libs = [library(), library(tracer)]
        # two rounds of cli cases give the 100 commands cli.op_ms_p90 needs
        batch = inputs.get(name) or [c for r, _ in zip(wl.rounds(), range(2)) for c in r]
        untraced, traced = run_passes_on(wl, libs, batch)
        measured |= set(wl.per_layer(libs[1], traced, untraced))
    assert measured == set(PER_LAYER)


def run_passes_on(workload, libs, inputs):
    """One pass per library over exactly ``inputs``."""
    workload.rounds = lambda: iter([inputs])
    return run_passes(workload, libs, seconds=0, keep_inputs=True)
