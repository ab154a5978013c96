"""cyclebetti benchmark: one workload, one seed, one fresh process.

    python3 bench/run.py --workload oracle-ladder --seed 1 --seconds 20 --trace 0

Runs whole passes over the workload's ops for about --seconds (one thread),
then checks every result exactly, outside the timed phase.  The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1, passes
alternate untraced and traced and the metrics are the per-layer ones.
A human-readable summary, including every failed op, goes to stderr.
See bench/README.md for the metrics and the workloads.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
LAYER_MODULES = ("cli", "families", "monomials", "formulas", "recursion", "oracle", "verify")
SETUP_PROBES = {0: 9, 1: 3}

import workloads as wl  # noqa: E402  (after the paths above; imports no cyclebetti)
from clock import (NOMINAL_STARTUP_S, CalibratedClock, CheckpointHooks,  # noqa: E402
                   calibrate, startup_reference)
from spans import Tracer  # noqa: E402


class ProgramMissing(RuntimeError):
    """The checkout holds no cyclebetti sources to measure."""


def load_program() -> dict:
    """Import cyclebetti from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import cyclebetti
    except ImportError as exc:
        raise ProgramMissing(f"cannot import cyclebetti from {SRC}: {exc}") from None
    if Path(cyclebetti.__file__).resolve().parent.parent != SRC:
        raise ProgramMissing(f"cyclebetti imported from {cyclebetti.__file__}, not {SRC}")
    import importlib
    return {name: importlib.import_module(f"cyclebetti.{name}") for name in LAYER_MODULES}


# ---------------------------------------------------------------------------
# Set-up: fresh interpreter to first timed op
# ---------------------------------------------------------------------------

def setup_probe(workload: str, seed: int, size: str) -> None:
    """Child side: import the program, make the inputs, report and exit."""
    start = time.perf_counter()
    load_program()
    import_s = time.perf_counter() - start
    wl.WORKLOADS[workload].inputs(seed, size)
    print(json.dumps({"import_s": import_s}), flush=True)


def measure_setup(workload: str, seed: int, size: str, count: int) -> list[dict]:
    """Time `count` fresh interpreters from spawn until their inputs are ready,
    each scaled by a start-up reference taken just before it (see clock.py)."""
    samples = []
    for _ in range(count):
        scale = NOMINAL_STARTUP_S / startup_reference()
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                 "--workload", workload, "--seed", str(seed), "--size", size],
                cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter() - start
            child.stdout.read()
            child.wait(timeout=120)
        if child.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe exited with {child.returncode}")
        samples.append({"setup_s": ready * scale,
                        "import_s": json.loads(line)["import_s"] * scale})
    return samples


# ---------------------------------------------------------------------------
# Timed passes
# ---------------------------------------------------------------------------

def run_pass(workload, ops, mods, api, tracer=None) -> dict:
    """One pass over the ops, in calibrated seconds (see clock.py).

    Cache resets and calibrations between ops are not timed.  Traced passes
    checkpoint only between ops, so that no calibration lands inside a span.
    """
    raw = time.perf_counter
    gc.collect()
    wl.cold(mods)
    results, errors, samples = [], [], []
    busy = raw_busy = 0.0
    first = None
    clock = CalibratedClock()
    hooks = CheckpointHooks(mods, clock) if tracer is None else nullcontext()
    clock.start()
    with hooks, tracer if tracer is not None else nullcontext():
        if tracer is not None:
            tracer.reset()
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op = index
            got, arrivals, error = [], [], None
            start = raw()
            try:
                for result in workload.stream(api, op):
                    arrivals.append(raw())
                    got.append(result)
            except Exception as exc:  # a failed op is counted, never dropped
                error = f"{type(exc).__name__}: {str(exc)[:200]}"
            end = raw()
            if workload.cold_per_op:
                wl.cold(mods)
            clock.checkpoint()
            begin = clock.elapsed(start)
            duration = clock.elapsed(end) - begin
            if arrivals and first is None:
                first = busy + clock.elapsed(arrivals[0]) - begin
            samples += [clock.elapsed(a) - begin for a in arrivals] or [duration]
            busy += duration
            raw_busy += end - start
            results.append(got)
            errors.append(error)
    return {"wall_s": busy, "raw_wall_s": raw_busy,
            "first_s": first if first is not None else busy,
            "samples": samples, "results": results, "errors": errors,
            "traced": tracer is not None}


def timed_phase(workload, ops, mods, seconds: float, tracer=None) -> list[dict]:
    """Whole passes until the next one would overrun `seconds`.

    With a tracer, passes alternate untraced and traced, starting untraced,
    and there are at least two.
    """
    plain = SimpleNamespace(**mods)
    passes = []
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        record = run_pass(workload, ops, mods, tracer.api if traced else plain,
                          tracer if traced else None)
        if traced:
            record["layers"] = layer_snapshot(tracer, record)
        passes.append(record)
        elapsed = time.perf_counter() - started
        if (len(passes) >= (2 if tracer is not None else 1)
                and elapsed + record["raw_wall_s"] > seconds):
            return passes


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def check_passes(workload, ops, mods, passes) -> tuple[int, list[str]]:
    """Attempted count and one line per failed result, over every pass."""
    pins = wl.load_pins()
    expected = [workload.reference(mods, pins, op) for op in ops]
    attempted, failures = 0, []
    for number, record in enumerate(passes):
        for op, want, got, error in zip(ops, expected, record["results"], record["errors"]):
            verdicts = workload.verdicts(op, got, want, error or "missing result")
            if error is not None and error not in verdicts:
                verdicts.append(error)
            attempted += len(verdicts)
            failures += [f"pass {number}: {op.label}: {v}" for v in verdicts if v is not None]
    # traced and untraced passes must give the same outputs
    first = passes[0]
    for record in passes[1:]:
        for op, a, b in zip(ops, first["results"], record["results"]):
            if list(map(workload.fingerprint, a)) != list(map(workload.fingerprint, b)):
                failures.append(f"{op.label}: output differs between passes "
                                f"(traced={record['traced']})")
    return attempted, failures


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def op_latencies(passes) -> list[float]:
    """Each op's median latency over the passes (per report, for verify-all)."""
    return [statistics.median(column) for column in zip(*(p["samples"] for p in passes))]


def end_to_end(passes, setup) -> dict:
    latencies = op_latencies(passes)
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in setup), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "op_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "op_p90_ms": (1000 * quantile(latencies, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


SUITE_NAMES = ("example-row", "long-path-oracle", "short-path-oracle", "main-identity",
               "three-route", "splittings", "residuals", "delta-edge", "support-facts")


def layer_snapshot(tracer, record) -> dict:
    """Per-layer numbers of one traced pass."""
    self_s, counts = tracer.self_s, tracer.counts
    candidates = counts["monomials.candidates"]
    reports = [r for got in record["results"] for r in got if hasattr(r, "status")]
    snap = {
        "cli.parse_s": (self_s["cli"], "s"),
        "monomials.build_s": (self_s["monomials"], "s"),
        "monomials.candidates": (candidates, "count"),
        "monomials.gens_out": (counts["monomials.gens_out"], "count"),
        "monomials.keep_ratio": (counts["monomials.gens_out"] / candidates if candidates else 0.0,
                                 "ratio"),
        "families.build_s": (self_s["families"], "s"),
        "formulas.eval_s": (self_s["formulas"], "s"),
        "formulas.values": (counts["formulas.calls"] - counts["formulas.errors"], "count"),
        "recursion.eval_s": (self_s["recursion"], "s"),
        "recursion.values": (counts["recursion.calls"] - counts["recursion.errors"], "count"),
        "recursion.errors": (counts["recursion.errors"], "count"),
        "oracle.table_s": (self_s["oracle"], "s"),
        "verify.reports": (len(reports), "count"),
        "verify.mismatches": (sum(r.status != "match" for r in reports), "count"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    for suite in SUITE_NAMES:
        snap[f"verify.suite_s.{suite}"] = (tracer.total_s[f"verify.suite.{suite}"], "s")
    return snap


def oracle_phases(mods, calls: dict) -> tuple[dict, list[str]]:
    """Re-derive every oracle table of a pass through the public phase functions.

    lcm_lattice -> upper_koszul -> homology_dims, accumulated as graded_betti
    does; the result must equal graded_betti's table exactly.
    """
    oracle, monomial = mods["oracle"], mods["monomials"].Monomial
    clock = time.perf_counter
    t = Counter()
    size = subsets = faces = nonzero = max_faces = 0
    failures = []
    for (ideal, p), table in calls.items():
        start = clock()
        lattice = oracle.lcm_lattice(ideal)
        t["lattice"] += clock() - start
        entries = Counter()
        for b in lattice:
            start = clock()
            complex_ = oracle.upper_koszul(ideal, monomial(b))
            t["koszul"] += clock() - start
            start = clock()
            dims = oracle.homology_dims(complex_, p)
            t["homology"] += clock() - start
            count = sum(len(level) for level in complex_.faces.values())
            faces += count
            max_faces = max(max_faces, count)
            subsets += 2 ** len(complex_.vertices)
            nonzero += any(dims)
            for i, h in enumerate(dims):
                if h:
                    entries[(i, sum(b))] += h
        size += len(lattice)
        if dict(entries) != table.entries:
            failures.append(f"oracle phases disagree with graded_betti on "
                            f"{len(ideal)}-generator ideal at p={p}")
    metrics = {
        "oracle.lattice_s": (t["lattice"], "s"),
        "oracle.lattice_size": (size, "count"),
        "oracle.koszul_s": (t["koszul"], "s"),
        "oracle.subsets_tested": (subsets, "count"),
        "oracle.faces": (faces, "count"),
        "oracle.face_yield": (faces / subsets if subsets else 0.0, "ratio"),
        "oracle.max_faces": (max_faces, "count"),
        "oracle.homology_s": (t["homology"], "s"),
        "oracle.nonzero_share": (nonzero / size if size else 0.0, "ratio"),
    }
    return metrics, failures


def per_layer(passes, setup, phases) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = {"cli.import_s": (statistics.median(p["import_s"] for p in setup), "s")}
    for name, (_, unit) in traced[0]["layers"].items():
        metrics[name] = (statistics.median(p["layers"][name][0] for p in traced), unit)
    metrics.update(phases)
    has_reports = metrics["verify.reports"][0] > 0
    metrics["verify.first_report_s"] = (
        statistics.median(p["first_s"] for p in plain) if has_reports else 0.0, "s")
    metrics["trace.overhead_s"] = (statistics.median(p["raw_wall_s"] for p in traced)
                                   - statistics.median(p["raw_wall_s"] for p in plain), "s")
    return metrics


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            size: str = "full", known_defects: bool = False, probes: int | None = None,
            write_spans: bool = True) -> dict:
    """Run one benchmark in this process; returns the result and its details."""
    mods = load_program()
    workload = wl.WORKLOADS[workload_name]
    ops = workload.inputs(seed, size, known_defects)
    calibrate()  # the first call pays for numpy's lazy set-up
    stages = {"start": time.perf_counter()}
    count = SETUP_PROBES[int(trace)] if probes is None else probes
    setup = measure_setup(workload_name, seed, size, count) if count else [
        {"setup_s": float("nan"), "import_s": float("nan")}]
    stages["set-up probes"] = time.perf_counter()
    tracer = Tracer(mods) if trace else None
    passes = timed_phase(workload, ops, mods, seconds, tracer)
    stages["timed passes"] = time.perf_counter()
    if trace:
        phases, failures = oracle_phases(mods, tracer.oracle_calls)
        metrics = per_layer(passes, setup, phases)
        if write_spans:
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{workload_name}-{seed}.jsonl")
    else:
        failures = []
        metrics = end_to_end(passes, setup)
    stages["trace analysis"] = time.perf_counter()
    attempted, check_failures = check_passes(workload, ops, mods, passes)
    failures = check_failures + failures
    stages["checks"] = time.perf_counter()
    return {
        "stages": stages,
        "line": {"correct": not failures, "attempted": attempted, "failed": len(failures),
                 "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
        "failures": failures,
        "ops": ops,
        "passes": passes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=wl.SIZES, default="full",
                        help="tiny runs every workload on small inputs, for self-tests")
    parser.add_argument("--known-defects", action="store_true",
                        help="add the inputs known to fail (see bench/README.md)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed, args.size)
            return 0
        outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.size, args.known_defects)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    line = outcome["line"]
    passes = outcome["passes"]
    samples = sum(len(p["samples"]) for p in passes)
    raw_wall = statistics.median(p["raw_wall_s"] for p in passes)
    print(f"{args.workload} seed={args.seed}: {len(passes)} passes, {len(outcome['ops'])} ops "
          f"per pass, {samples} op samples, {line['failed']}/{line['attempted']} failed, "
          f"raw pass wall {raw_wall:.3f} s", file=sys.stderr)
    marks = list(outcome["stages"].items())
    print("  stages: " + ", ".join(f"{name} {t - prev:.1f} s" for (_, prev), (name, t)
                                   in zip(marks, marks[1:])), file=sys.stderr)
    for failure in outcome["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, metric in line["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
