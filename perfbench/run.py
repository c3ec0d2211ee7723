"""asmc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) in this single-threaded process,
from the root of a source checkout: the library is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
runs the workload untraced and then traced on the same inputs, reports
the per-layer metrics and the tracing overhead, and writes the spans to
``perfbench/out/spans-<workload>-seed<N>.jsonl``.  The lines before the
result name every metric with its unit and sample count, the inputs and
the environment (Python version, CPU count, load average and speed probe
at start and end, commit); ``perfbench/out/`` keeps each result with
them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from probe import SRC, use_checkout_source, warm

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 15

# name -> unit; the end-to-end metrics every untraced run reports.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ms_p50": "ms",
    "items_per_s": "1/s",
}


def commit_hash() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def speed_probe_ms() -> float:
    """Median milliseconds of a fixed pure-Python kernel that does not use
    asmc.  The load average misses contention from outside this machine;
    this rises with it, so runs made on a slowed machine can be flagged."""
    times = []
    for _ in range(15):
        t0 = time.perf_counter()
        table = {}
        for i in range(3000):
            key = tuple(range(i % 7, i % 7 + 12))
            table[key, i] = sum(key) + len(table)
        sorted(table.values())
        times.append(time.perf_counter() - t0)
    return median(times) * 1e3


def environment(loadavg_start, speed_start: float) -> dict:
    """The record that lets a comparison across machines or under load be
    flagged: Python, CPU count, load average and speed probe at start and
    end, and the commit."""
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "loadavg_start": loadavg_start,
        "loadavg_end": os.getloadavg(),
        "speed_probe_ms_start": speed_start,
        "speed_probe_ms_end": speed_probe_ms(),
        "commit": commit_hash(),
    }


def setup_seconds() -> list[float]:
    """Set-up time of SETUP_PROBES fresh interpreters (see probe.py)."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py")],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def end_to_end(p, setup: list[float]) -> dict[str, tuple[float, str]]:
    ops = len(p.latencies)
    return {
        "setup_s": (median(setup), f"median of {len(setup)} fresh interpreters"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "ru_maxrss of this process"),
        "op_ms_p50": (median(p.latencies) * 1e3, f"median of {ops} operations"),
        "items_per_s": (p.count / sum(p.latencies), f"{p.count} items in {ops} operations"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_start, speed_start = os.getloadavg(), speed_probe_ms()
    if not (SRC / "asmc" / "__init__.py").is_file():
        print(f"perfbench: no asmc sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    use_checkout_source()
    from spans import Tracer, library
    from workloads import PER_LAYER, WORKLOADS, run_passes

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    setup = setup_seconds() if not args.trace else []
    warm()
    workdir = OUT / f"tmp-{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, workdir)

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    tracer = Tracer() if args.trace else None
    libs = [library()] + ([library(tracer)] if tracer is not None else [])
    try:
        passes = run_passes(workload, libs, args.seconds, keep_inputs=tracer is not None)
        untraced = passes[0]
        if tracer is not None:
            traced = passes[1]
            found = workload.per_layer(libs[1], traced, untraced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    errors = [e for p in passes for e in p.errors]
    for message in errors[:20]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    if not untraced.latencies:
        print("perfbench: no operation completed", file=sys.stderr)
        return 1
    if tracer is not None:
        extra = sum(traced.latencies) - sum(untraced.latencies)
        found["trace.overhead_ms_per_op"] = extra / len(traced.latencies) * 1e3
        found["trace.overhead_frac"] = extra / sum(untraced.latencies)
        found["trace.spans"] = len(tracer)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        # The result line names every per-layer metric; a layer this
        # workload does not reach reads 0 there, is not printed below and
        # is listed under "not_reached" in the stored record.
        not_reached = [name for name in PER_LAYER if name not in found]
        metrics = {name: (found.get(name, 0.0), "") for name in PER_LAYER}
        units = PER_LAYER
    else:
        metrics = end_to_end(untraced, setup)
        units = END_TO_END
        not_reached = []

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for name, (value, detail) in metrics.items():
        if name not in not_reached:
            print(f"metric {name} = {value:.6g} {units[name]}" + (f" ({detail})" if detail else ""))
    if not_reached:
        print(f"not reached by {args.workload}: {len(not_reached)} per-layer metrics "
              "(0 in the result line)")
    summary = getattr(workload, "inputs_summary", dict)()
    env = environment(load_start, speed_start)
    print("inputs: " + json.dumps({"operations": len(untraced.latencies), **summary}))
    print("env: " + json.dumps(env))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "inputs": summary,
              "not_reached": not_reached, **result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
