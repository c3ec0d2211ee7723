"""The four benchmark workloads.

Each workload is a closed loop with one caller: it takes its next input
only after the previous operation and the checks on its outputs are done.
Inputs come in rounds made from the seed; the library sees only the
inputs.  Every output is checked by an oracle, and a failed check is
counted against the operations attempted instead of stopping the run.
In the traced run a workload also measures its layers (``per_layer``).
"""

from __future__ import annotations

import json
import math
import random
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import asmc
from asmc import GenInvTable, SignClass

from tables import random_table

# The 24 properties of the verify registry, as `asmc verify` names them.
PROPERTY_NAMES = (
    "reflect-classical", "reflect-charges", "neutral-cell-swap", "permutation-inversions",
    "perm-table-roundtrip", "discharge-structure", "discharge-neutral-shortcut",
    "discharge-bijection", "neutralize-roundtrip", "neutralize-image",
    "neutralize-transport", "neutralize-reflect", "charge-range", "charge-flip-involution",
    "charge-swap", "charge-swap-reflect", "table-roundtrip", "table-characterization",
    "table-duality", "paths-roundtrip", "paths-params", "paths-duality",
    "enumeration-totals", "distribution-mirror",
)

# Functions the per-matrix replay calls once per matrix.
REPLAY_FNS = (
    "matrix.validate_asm", "cells.charges", "discharge.discharge", "discharge.recharge",
    "neutral.neutralize", "neutral.restore", "neutral.swap_charges",
    "inv_table.gen_table", "inv_table.pair_from_table", "inv_table.dual_table",
    "paths.config_from_pair", "paths.config_params", "paths.dual_config",
    "paths.pair_from_config",
)

DECODE_FNS = ("inv_table.pair_from_table", "neutral.restore", "matrix.matrix_to_json")
ENCODE_FNS = (
    "matrix.matrix_from_json", "matrix.classical_params", "cells.charges",
    "neutral.neutralize", "inv_table.gen_table", "paths.config_from_pair",
    "paths.config_params", "paths.dual_config", "neutral.swap_charges",
)

CLI_COMMANDS = ("pipeline", "prime", "table", "from-table", "paths", "dual")
CLI_REPLAY_FNS = ("matrix.matrix_from_text", "paths.render_svg", "paths.render_ascii")

# name -> unit; the per-layer metrics.  Each workload measures the layers
# it reaches; a traced run names them all and marks the others.
PER_LAYER = {
    **{f"verify.{name}.s": "s" for name in PROPERTY_NAMES},
    **{f"{fn}.us_n6": "us" for fn in REPLAY_FNS},
    "enumeration.enumerate_asm.us_per_matrix_n6": "us",
    "enumeration.enumerate_asm.s_all": "s",
    "enumeration.enumerate_asm.s_one_minus": "s",
    "enumeration.distribution.self_s": "s",
    **{f"{fn}.us": "us" for fn in DECODE_FNS + ENCODE_FNS},
    **{f"{fn}.n_exponent": "1" for fn in DECODE_FNS + ENCODE_FNS},
    "roundtrip.encode_ms_p50": "ms", "roundtrip.encode_ms_largest_n": "ms",
    "roundtrip.decode_ms_p50": "ms", "roundtrip.decode_ms_largest_n": "ms",
    "cli.op_ms_p90": "ms",
    **{f"cli.{cmd}.ms": "ms" for cmd in CLI_COMMANDS},
    **{f"{fn}.us": "us" for fn in CLI_REPLAY_FNS},
    "trace.overhead_ms_per_op": "ms",
    "trace.overhead_frac": "1",
    "trace.spans": "count",
}

# The 12x12 worked example (TABLE12 in tests/conftest.py).
TABLE12 = GenInvTable(k=10, a=(0, 0, 2, 2, 0, 0, 1, 5, 0, 3, 6, 6), b=4, beta=5)


def percentile(values, q: float) -> float:
    """Linearly interpolated q-quantile (0 <= q <= 1) of the values."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def n_exponent(samples) -> float:
    """Least-squares slope of log(time) against log(n) over (n, ns) pairs."""
    pts = [(math.log(n), math.log(ns)) for n, ns in samples if ns > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


@dataclass
class Pass:
    """What one pass of a workload over its inputs measured."""

    inputs: list = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)  # seconds per operation
    phases: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    count: int = 0  # items processed (checks, matrices or commands)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, seconds: float, count: int, **phases: float) -> None:
        self.latencies.append(seconds)
        self.count += count
        for name, value in phases.items():
            self.phases[name].append(value)

    def tally(self, attempted: int, failures: dict[str, str]) -> None:
        self.attempted += attempted
        self.failed += len(failures)
        self.errors += [f"{label}: {msg}" for label, msg in failures.items()]


def run_passes(workload, libs, seconds: float, keep_inputs: bool = False) -> list[Pass]:
    """Run whole rounds until ``seconds`` have passed, each input once per
    library in ``libs``; the order alternates from input to input so that
    neither library always meets the input first.  ``keep_inputs`` keeps
    the inputs in each pass, for the per-layer measurements."""
    passes = [Pass() for _ in libs]
    start = time.perf_counter()
    idx = 0
    for batch in workload.rounds():
        for inp in batch:
            for k in (range(len(libs)) if idx % 2 == 0 else reversed(range(len(libs)))):
                lib, p = libs[k], passes[k]
                if lib.tracer is not None:
                    lib.tracer.item = idx
                if keep_inputs:
                    p.inputs.append(inp)
                try:
                    failures = workload.check(inp, workload.operate(lib, inp, p))
                except Exception as exc:  # a crash fails the input's operations; keep going
                    failures = {"crash": f"{type(exc).__name__}: {exc}"}
                    p.failed += workload.ops_per_input - 1
                p.tally(workload.ops_per_input, failures)
            idx += 1
        if time.perf_counter() - start >= seconds:
            break
    return passes


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def replay(lib, matrices) -> dict[str, str]:
    """Call each of REPLAY_FNS once per matrix and check every output;
    returns the failed matrices."""
    failures = {}
    for idx, m in enumerate(matrices):
        if lib.tracer is not None:
            lib.tracer.item = idx
        problems = []
        if lib.validate_asm(m.rows) != m:
            problems.append("validate_asm changed the matrix")
        ch = lib.charges(m)
        if asmc.sign_class(m) is not SignClass.NEGATIVE:  # discharge needs E >= 0
            if lib.recharge(lib.discharge(m)) != m:
                problems.append("recharge(discharge(m)) != m")
        pair = lib.neutralize(m)
        if lib.restore(pair) != m:
            problems.append("restore(neutralize(m)) != m")
        swapped = asmc.charges(lib.swap_charges(m))
        if (swapped.e, swapped.b, swapped.j) != (ch.b, ch.e, ch.j):
            problems.append("swap_charges does not swap E and B")
        table = lib.gen_table(pair)
        if lib.pair_from_table(table) != pair:
            problems.append("pair_from_table(gen_table(p)) != p")
        dual = lib.dual_table(table)
        if asmc.dual_table(dual) != table:
            problems.append("dual_table is not an involution")
        cfg = lib.config_from_pair(pair)
        if tuple(lib.config_params(cfg)) != tuple(asmc.table_params(table)):
            problems.append("config_params and table_params disagree")
        if lib.dual_config(cfg) != asmc.config_from_table(dual):
            problems.append("dual_config does not match dual_table")
        if lib.pair_from_config(cfg) != pair:
            problems.append("pair_from_config(config_from_pair(p)) != p")
        if problems:
            failures[f"matrix {idx}"] = "; ".join(problems)
    return failures


def mean_us(durations, name: str) -> float:
    spans = durations.get(name, ())
    return sum(ns for _, ns in spans) / len(spans) / 1e3 if spans else 0.0


class Verify6:
    """``verify_suite(6)`` with a fresh pool: the ``asmc verify`` job.

    The sweep has no input, so the seed only orders the traced replay.
    """

    ops_per_input = len(PROPERTY_NAMES)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def rounds(self):
        while True:
            yield [6]

    def operate(self, lib, n, p):
        report, seconds = _timed(lib.verify_suite, n)
        p.record(seconds, sum(r.checked for r in report.results))
        self.report = report
        return report

    def check(self, n, report):
        got = {r.name: r for r in report.results}
        failures = {}
        for name in PROPERTY_NAMES:
            if name not in got:
                failures[name] = "missing from the report"
            elif not got[name].ok:
                failures[name] = got[name].counterexample
        if report.n_max != n:
            failures["n_max"] = f"report covers n <= {report.n_max}"
        return failures

    def per_layer(self, lib, traced: Pass, untraced: Pass) -> dict[str, float]:
        out = {f"verify.{r.name}.s": r.seconds for r in self.report.results}
        tracer = lib.tracer
        with lib.span("enumeration.enumerate_asm.drain_n6"):
            total = sum(1 for _ in asmc.enumerate_asm(6))
        mats = list(asmc.enumerate_asm(6, s=1))
        random.Random(self.seed).shuffle(mats)
        first = len(tracer)
        with lib.span("replay_n6"):
            failures = replay(lib, mats)
        traced.tally(len(mats), failures)
        durations = tracer.durations(since=first)
        for fn in REPLAY_FNS:
            out[f"{fn}.us_n6"] = mean_us(durations, fn)
        drain = tracer.durations()["enumeration.enumerate_asm.drain_n6"][0][1]
        out["enumeration.enumerate_asm.us_per_matrix_n6"] = drain / total / 1e3
        return out


class Census7:
    """The two order-7 censuses of ``asmc dist``: the walk pruned to s=1
    and the full walk.  Like the sweep it has no input."""

    ops_per_input = 2
    PRUNED_KEYS = ("r", "i", "E", "B", "J")
    FULL_KEYS = ("r", "s", "i")
    ONE_MINUS_7 = 29400

    def __init__(self, seed: int, workdir: Path):
        pass

    def rounds(self):
        while True:
            yield [7]

    def operate(self, lib, n, p):
        pruned, t_pruned = _timed(lib.distribution, n, self.PRUNED_KEYS)
        full, t_full = _timed(lib.distribution, n, self.FULL_KEYS)
        count = sum(pruned.values()) + sum(full.values())
        p.record(t_pruned + t_full, count)
        return pruned, full

    def check(self, n, out):
        pruned, full = out
        failures = {}
        e_counts, b_counts = Counter(), Counter()
        for (r, i, e, b, j), count in pruned.items():
            e_counts[e] += count
            b_counts[b] += count
        if sum(pruned.values()) != self.ONE_MINUS_7:
            failures["pruned"] = f"{sum(pruned.values())} one-minus matrices, expected 29400"
        elif any(e_counts[v] != e_counts[-v] for v in e_counts) or e_counts != b_counts:
            failures["pruned"] = "E and B marginals do not mirror"
        if sum(full.values()) != asmc.formula_count(n):
            failures["full"] = f"{sum(full.values())} matrices, formula gives {asmc.formula_count(n)}"
        return failures

    def per_layer(self, lib, traced: Pass, untraced: Pass) -> dict[str, float]:
        span = lib.span
        with span("drain_all"):
            n_all = sum(1 for _ in asmc.enumerate_asm(7))
        with span("drain_one_minus"):
            n_one = sum(1 for _ in asmc.enumerate_asm(7, s=1))
        with span("replay.classical_params"):
            for m in asmc.enumerate_asm(7):
                asmc.classical_params(m)
        with span("replay.charges"):
            for m in asmc.enumerate_asm(7, s=1):
                asmc.charges(m)
        s = {name: spans[0][1] / 1e9 for name, spans in lib.tracer.durations().items()
             if name.startswith(("drain", "replay"))}
        cp_us = (s["replay.classical_params"] - s["drain_all"]) / n_all * 1e6
        ch_us = (s["replay.charges"] - s["drain_one_minus"]) / n_one * 1e6
        tallied = n_all + n_one
        self_s = (median(traced.latencies) - s["drain_all"] - s["drain_one_minus"]
                  - (cp_us * tallied + ch_us * n_one) / 1e6)
        return {
            "enumeration.enumerate_asm.s_all": s["drain_all"],
            "enumeration.enumerate_asm.s_one_minus": s["drain_one_minus"],
            "matrix.classical_params.us": cp_us,
            "cells.charges.us": ch_us,
            "enumeration.distribution.self_s": self_s,
        }


def _grid(lo: int, hi: int, strata: int) -> tuple[int, ...]:
    """Midpoints of ``strata`` equal strata of the orders lo..hi."""
    width = (hi - lo + 1) / strata
    return tuple(lo + int(width * (j + 0.5)) for j in range(strata))


def charge_class(table: GenInvTable) -> str:
    charge = table.a[table.k - 2] + 1 - table.a[table.k - 1] + table.beta
    return "positive" if charge > 0 else "negative" if charge < 0 else "neutral"


def class_shares(classes: Counter) -> dict[str, float]:
    """Shares of positive, neutral and negative matrices among the inputs."""
    total = sum(classes.values())
    return {f"{c}_share": classes[c] / total if total else 0.0
            for c in ("positive", "neutral", "negative")}


class RoundtripLarge:
    """Decode and re-encode single large matrices.

    Each round draws one uniformly random valid table at each order of an
    even grid over 25..200, in a seeded order, so every run covers the
    same orders and only the tables change with the seed.
    """

    ops_per_input = 1
    # Five strata put the median and the 90th percentile in the middle of
    # the third and the fifth stratum, away from the steps between orders.
    GRID = _grid(25, 200, 5)

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.classes = Counter()

    def rounds(self):
        while True:
            order = list(self.GRID)
            self.rng.shuffle(order)
            yield [random_table(n, self.rng) for n in order]

    def operate(self, lib, t, p):
        t0 = time.perf_counter()
        with lib.span("roundtrip.decode"):
            pair = lib.pair_from_table(t)
            m = lib.restore(pair)
            js = lib.matrix_to_json(m)
        t1 = time.perf_counter()
        with lib.span("roundtrip.encode"):
            m2 = lib.matrix_from_json(js)
            cp = lib.classical_params(m2)
            ch = lib.charges(m2)
            pair2 = lib.neutralize(m2)
            t2 = lib.gen_table(pair2)
            cfg = lib.config_from_pair(pair2)
            pv = lib.config_params(cfg)
            dual = lib.dual_config(cfg)
            swapped = lib.swap_charges(m2)
        t3 = time.perf_counter()
        p.record(t3 - t0, 1, decode=t1 - t0, encode=t3 - t1)
        self.classes[charge_class(t)] += 1
        return pair, m, m2, cp, ch, pair2, t2, cfg, pv, dual, swapped

    def check(self, t, out):
        pair, m, m2, cp, ch, pair2, t2, cfg, pv, dual, swapped = out
        problems = []
        if m2 != m or pair2 != pair:
            problems.append("restore/pair_from_table do not invert neutralize")
        if t2 != t:
            problems.append("gen_table does not invert pair_from_table")
        if asmc.pair_from_config(cfg) != pair2:
            problems.append("pair_from_config does not invert config_from_pair")
        stats = (cp.r, cp.i, ch.e, ch.b, ch.j)
        if cp.s != 1 or tuple(asmc.table_params(t)) != stats or tuple(pv) != stats:
            problems.append(f"statistics disagree: matrix {stats}, table/paths differ")
        if dual != asmc.config_from_pair(asmc.neutralize(asmc.reflect(m))):
            problems.append("dual_config does not match reflection")
        sp, sc = asmc.classical_params(swapped), asmc.charges(swapped)
        if (sp.r, sp.i, sc.e, sc.b, sc.j) != (cp.r, cp.i, ch.b, ch.e, ch.j):
            problems.append("swap_charges does not swap E and B")
        return {f"n={t.n}": "; ".join(problems)} if problems else {}

    def inputs_summary(self) -> dict:
        return class_shares(self.classes)

    def per_layer(self, lib, traced: Pass, untraced: Pass) -> dict[str, float]:
        ns = [t.n for t in traced.inputs]
        durations = lib.tracer.durations()
        out = {}
        for name in DECODE_FNS + ENCODE_FNS:
            out[f"{name}.us"] = mean_us(durations, name)
            out[f"{name}.n_exponent"] = n_exponent((ns[item], d) for item, d in durations[name])
        # A run holds a few dozen operations, too few for a 90th percentile
        # with ten samples beyond it; the tail is the median at the largest
        # order instead.
        largest = [k for k, t in enumerate(untraced.inputs) if t.n == self.GRID[-1]]
        for phase in ("encode", "decode"):
            values = untraced.phases[phase]
            out[f"roundtrip.{phase}_ms_p50"] = median(values) * 1e3
            out[f"roundtrip.{phase}_ms_largest_n"] = median([values[k] for k in largest]) * 1e3
        return out


@dataclass
class CliCase:
    """One generated matrix with its input files and expected outputs."""

    index: int
    table: GenInvTable
    matrix_text: str
    matrix_file: str
    table_file: str
    config_file: str
    expected: dict[str, str]


class CliPipeline:
    """Six ``asmc`` commands run in-process through ``asmc.cli.main`` on
    seeded inputs, one per order of an even grid over 8..40, plus the 12x12
    worked example.  Matrices and tables alternate between the text and the
    JSON formats."""

    ops_per_input = len(CLI_COMMANDS)
    GRID = _grid(8, 40, 8)

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.classes = Counter()

    def rounds(self):
        while True:
            order = list(self.GRID)
            self.rng.shuffle(order)
            tables = [random_table(n, self.rng) for n in order] + [TABLE12]
            yield [self._case(i, t) for i, t in enumerate(tables)]

    def _case(self, index: int, t: GenInvTable) -> CliCase:
        m = asmc.restore(asmc.pair_from_table(t))
        text = asmc.matrix_to_text(m)
        as_json = index % 2 == 1
        cfg = asmc.config_from_table(t)
        expected = {
            "matrix": text,
            "table": t.to_text() + "\n",
            "svg": asmc.render_svg(cfg),
            "dual": asmc.render_ascii(asmc.config_from_table(asmc.dual_table(t))),
        }
        return CliCase(
            index=index,
            table=t,
            matrix_text=text,
            matrix_file=json.dumps(asmc.matrix_to_json(m)) if as_json else text,
            table_file=json.dumps(t.to_json()) if as_json else t.to_text() + "\n",
            config_file=json.dumps(cfg.to_json()),
            expected=expected,
        )

    def operate(self, lib, case: CliCase, p):
        d = self.workdir
        matrix, table, config = (str(d / f"{kind}.in") for kind in ("matrix", "table", "config"))
        Path(matrix).write_text(case.matrix_file, encoding="utf-8")
        Path(table).write_text(case.table_file, encoding="utf-8")
        Path(config).write_text(case.config_file, encoding="utf-8")
        argvs = {
            "pipeline": ["pipeline", matrix],
            "prime": ["prime", matrix],
            "table": ["table", matrix],
            "from-table": ["from-table", table],
            "paths": ["paths", matrix, "--format", "svg"],
            "dual": ["dual", config, "--format", "ascii"],
        }
        outputs = {}
        for cmd in CLI_COMMANDS:
            target = d / f"{cmd}.out"
            target.unlink(missing_ok=True)
            t0 = time.perf_counter()
            with lib.span(f"cli.{cmd}"):
                code = lib.main(argvs[cmd] + ["-o", str(target)])
            seconds = time.perf_counter() - t0
            p.record(seconds, 1)
            outputs[cmd] = (code, target.read_text(encoding="utf-8") if target.exists() else "")
        self.classes[charge_class(case.table)] += 1
        return outputs

    def check(self, case: CliCase, outputs):
        exp = case.expected
        failures = {}
        for cmd, (code, text) in outputs.items():
            if code != 0:
                failures[cmd] = f"exit code {code}"
        if failures:
            return failures
        bundle = json.loads(outputs["pipeline"][1])
        back = asmc.restore(asmc.pair_from_table(asmc.table_from_json(bundle["table"])))
        if asmc.matrix_to_text(back) != exp["matrix"] or bundle["table"] != case.table.to_json():
            failures["pipeline"] = "bundle table does not decode back to the input"
        primed = asmc.matrix_from_text(outputs["prime"][1])
        r, i, e, b, j = asmc.table_params(case.table)
        pp, pc = asmc.classical_params(primed), asmc.charges(primed)
        if (pp.r, pp.i, pc.e, pc.b, pc.j) != (r, i, b, e, j):
            failures["prime"] = "prime does not swap E and B"
        if outputs["table"][1] != exp["table"]:
            failures["table"] = "table differs from the generating table"
        if outputs["from-table"][1] != exp["matrix"]:
            failures["from-table"] = "from-table does not rebuild the matrix"
        if outputs["paths"][1] != exp["svg"]:
            failures["paths"] = "svg differs from the table's configuration"
        if outputs["dual"][1] != exp["dual"]:
            failures["dual"] = "dual differs from the dual table's configuration"
        return failures

    def inputs_summary(self) -> dict:
        return class_shares(self.classes)

    def per_layer(self, lib, traced: Pass, untraced: Pass) -> dict[str, float]:
        durations = lib.tracer.durations()
        out = {f"cli.{cmd}.ms": mean_us(durations, f"cli.{cmd}") / 1e3 for cmd in CLI_COMMANDS}
        # The 90th percentile is reported only with ten samples beyond it;
        # a 15 s run holds several hundred commands.
        if len(untraced.latencies) >= 100:
            out["cli.op_ms_p90"] = percentile(untraced.latencies, 0.9) * 1e3
        first = len(lib.tracer)
        for idx, case in enumerate(traced.inputs):
            lib.tracer.item = idx
            lib.matrix_from_text(case.matrix_text)
            lib.render_svg(asmc.config_from_table(case.table))
            lib.render_ascii(asmc.config_from_table(asmc.dual_table(case.table)))
        durations = lib.tracer.durations(since=first)
        for fn in CLI_REPLAY_FNS:
            out[f"{fn}.us"] = mean_us(durations, fn)
        return out


WORKLOADS = {
    "verify6": Verify6,
    "census7": Census7,
    "roundtrip_large": RoundtripLarge,
    "cli_pipeline": CliPipeline,
}
