"""Re-measure the baseline rows of ROADMAP.md and store them.

    python3 perfbench/baseline.py

writes ``perfbench/results/BENCH_baseline.json``.

Rows: the wall time of ``verify_suite(6)`` with its slowest properties,
the order-7 enumeration drains, and the mean microseconds per call of
``charges``, ``gen_table``, ``config_from_pair``, ``restore``,
``neutralize`` and ``swap_charges`` over all 29,400 one-``-1`` matrices
of order 7.  The values ROADMAP.md quotes are stored beside them.
"""

from __future__ import annotations

import json
import os
import time

from probe import use_checkout_source, warm

use_checkout_source()

import asmc  # noqa: E402
from run import HERE, environment, speed_probe_ms  # noqa: E402
from spans import Tracer, library  # noqa: E402

ROADMAP_US_N7 = {"cells.charges": 43, "inv_table.gen_table": 61, "paths.config_from_pair": 81,
                 "neutral.restore": 194, "neutral.neutralize": 290, "neutral.swap_charges": 440}
ROADMAP_VERIFY6_S = 24.6
ROADMAP_ENUM7_S = {"all": 0.53, "one_minus": 0.11}


def main() -> int:
    load_start, speed_start = os.getloadavg(), speed_probe_ms()
    warm()

    t0 = time.perf_counter()
    report = asmc.verify_suite(6)
    verify_s = time.perf_counter() - t0
    slowest = sorted(report.results, key=lambda r: -r.seconds)[:4]

    enum_s = {}
    for label, s in (("all", None), ("one_minus", 1)):
        t0 = time.perf_counter()
        count = sum(1 for _ in asmc.enumerate_asm(7, s=s))
        enum_s[label] = {"seconds": time.perf_counter() - t0, "matrices": count}

    tracer = Tracer()
    lib = library(tracer)
    mats = list(asmc.enumerate_asm(7, s=1))
    for idx, m in enumerate(mats):
        tracer.item = idx
        lib.charges(m)
        pair = lib.neutralize(m)
        lib.restore(pair)
        lib.gen_table(pair)
        lib.config_from_pair(pair)
        lib.swap_charges(m)
    us_n7 = {name: sum(d for _, d in spans) / len(spans) / 1e3
             for name, spans in tracer.durations().items()}

    record = {
        "what": "ROADMAP baseline rows re-measured by perfbench/baseline.py",
        "env": environment(load_start, speed_start),
        "verify_suite_6": {
            "seconds": verify_s,
            "ok": report.ok,
            "slowest": {r.name: r.seconds for r in slowest},
            "roadmap_seconds": ROADMAP_VERIFY6_S,
        },
        "enumerate_7": {label: {**row, "roadmap_seconds": ROADMAP_ENUM7_S[label]}
                        for label, row in enum_s.items()},
        "us_per_call_n7": {name: {"us": us_n7[name], "calls": len(mats),
                                  "roadmap_us": ROADMAP_US_N7[name]}
                           for name in ROADMAP_US_N7},
    }
    (HERE / "results" / "BENCH_baseline.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
