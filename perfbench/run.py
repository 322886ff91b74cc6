"""Benchmark of casimir_impedance: one workload, one seed, one run.

    python3 perfbench/run.py --workload zeroT-plates --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
With ``--trace 0`` the run times the workload in a closed loop (one caller,
the next operation starts when the previous one returns) and reports the
end-to-end metrics.  With ``--trace 1`` it alternates untraced and traced
passes of the same operations and reports the per-layer split.  Every
operation's result is checked against an oracle after the loop; repeated
operations must give identical values, evaluation counts and CSV bytes, and
the deterministic counts must match earlier runs of the same seed and code.
The last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "perfbench"

# Fresh interpreters timed for setup_s; the median is reported.
SETUP_SAMPLES = 5
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import casimir_impedance as ci
ci.force_pp0(1e-6, ci.ImpedanceModel(ci.ImpedanceKind.PLASMA_EXACT), ci.ALUMINUM)
print(repr(time.perf_counter() - t0))
"""

# Tail percentile over the operations of a pass: the highest one with at
# least 10 repeats of operations beyond it in a 30 s run on a 2-core
# machine.  It is fixed, so that faster and slower code compare one
# percentile.
TAIL_PCT = {"zeroT-plates": 98.0, "lowT-matsubara": 80.0, "cli-scans": 80.0}

# Counts that must repeat exactly between passes and between runs of a seed.
DETERMINISTIC = (
    "quadrature.calls", "quadrature.evaluations", "quadrature.integrand_calls",
    "matsubara.calls", "matsubara.terms", "reflection.calls",
    "observable.calls", "series.calls", "cli.rows",
)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def declared_units(trace: int) -> dict[str, str]:
    """The metrics a run reports, with units, as BENCHMARK.json lists them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def cli_threads() -> int:
    """The CLI's default pool size, capped at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    if (os.cpu_count() or 1) > nproc:
        os.environ["CASIMIR_THREADS"] = str(nproc)
    env = os.environ.get("CASIMIR_THREADS")
    return int(env) if env else min(32, os.cpu_count() or 1)


def measure_setup() -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def code_digest() -> str:
    """Hash of the package and benchmark sources, keying the counts gate."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_pass(ops, tracer=None, op_base=0):
    """One pass over the operations; returns (outcomes, latencies, wall)."""
    from workloads import Outcome

    outcomes, latencies = [], []
    t_pass = time.perf_counter()
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            raw = op.call() if tracer is None else tracer.run_op(op_base + i, op.kind, op.call)
            error = ""
        except Exception as exc:  # a failing operation is counted, not fatal
            raw, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        outcomes.append(Outcome((), False, error=error) if error else op.observe(raw))
    return outcomes, latencies, time.perf_counter() - t_pass


def closed_loop(seconds: float, one_pass):
    """Repeat whole passes until about ``seconds`` have gone."""
    t0 = time.perf_counter()
    passes = []
    while True:
        passes.append(one_pass(len(passes)))
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * elapsed / len(passes) >= seconds:
            return passes


def check_all(ops, passes) -> tuple[int, int, list[str]]:
    """Oracle checks of every outcome, plus equality with the first pass."""
    from workloads import repeat_failures

    attempted = failed = 0
    messages = []
    first = passes[0]
    for outcomes in passes:
        for op, out, ref in zip(ops, outcomes, first):
            fails = op.check(out) + (repeat_failures(ref, out) if out is not ref else [])
            attempted += 1
            if fails:
                failed += 1
                messages.append(f"{op.label}: {'; '.join(fails)}")
    return attempted, failed, messages


def counts_gate(workload: str, seed: int, mode: str, counts) -> str:
    """Compare deterministic counts with earlier runs of this seed and code."""
    path = WORKDIR / "counts" / f"{workload}-{seed}-{code_digest()}.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    if mode in stored:
        return "" if stored[mode] == counts else f"{mode} counts differ from an earlier run"
    stored[mode] = counts
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(stored))
    return ""


def op_latencies(passes) -> list[float]:
    """Each operation's mean latency over its repeats in the run.

    The 2-core host this was written on alternates, for seconds to minutes
    at a time, between two speeds about 1.6x apart (the same pure-Python
    loop takes 0.10 s or 0.17 s).  A median over raw samples then jumps
    between the two speeds as the share of slow time in a run varies
    (spreads up to 28% between runs), and a fastest repeat depends on rare
    fast moments (up to 31% with the CLI's two threads).  A mean over each
    operation's repeats moves in proportion to the slow share instead.
    """
    return [statistics.fmean(lat) for lat in zip(*(p[1] for p in passes))]


def end_to_end(args, ops, setup):
    passes = closed_loop(args.seconds, lambda k: run_pass(ops))
    latency = op_latencies(passes)
    wall = sum(p[2] for p in passes)
    pct = TAIL_PCT[args.workload]
    tail = float(np.percentile(latency, pct))
    beyond = sum(1 for x in latency if x > tail)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(passes) * len(ops) / wall,
        "op_p50_ms": 1e3 * statistics.median(latency),
        "op_tail_ms": 1e3 * tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        f"setup_s: median of {len(setup)} fresh interpreters "
        f"({', '.join(f'{s:.3f}' for s in setup)})",
        f"ops: {len(passes) * len(ops)} in {len(passes)} passes of {len(ops)}, "
        f"{wall:.2f} s; latencies are each operation's mean over its repeats",
        f"op_tail_ms: p{pct:g} of {len(latency)} operations; {beyond} operations "
        f"({beyond * len(passes)} samples) beyond it"
        + ("" if beyond * len(passes) >= 10 else " (fewer than 10 samples)"),
    ]
    counts = [o.evaluations for o in passes[0][0]]
    return metrics, [p[0] for p in passes], notes, counts, ""


def per_layer(args, ops):
    import tracing
    from workloads import data_rows

    tracer = tracing.Tracer()
    untraced, traced = [], []

    def pair(k):
        untraced.append(run_pass(ops))
        tracer.install()
        try:
            traced.append(run_pass(ops, tracer, k * len(ops)))
        finally:
            tracer.remove()

    closed_loop(args.seconds, pair)
    table = tracer.table()
    per_pass = []
    for k, (outs, lats, _) in enumerate(traced):
        rows = table[(table[:, 5] >= k * len(ops)) & (table[:, 5] < (k + 1) * len(ops))]
        m = tracing.layer_metrics(rows, tracer.names, tracer.layer_of, sum(lats))
        m["cli.rows"] = sum(data_rows(o.text) for o in outs)
        per_pass.append(m)
    tracer.write(WORKDIR / f"trace-{args.workload}.npz")

    # The fastest traced pass, whole, so that its self times add up.
    metrics = dict(min(per_pass, key=lambda m: m["trace.op_s"]))
    metrics["trace.overhead_frac"] = (
        min(p[2] for p in traced) / min(p[2] for p in untraced) - 1.0)
    counts = {name: per_pass[0][name] for name in DETERMINISTIC}
    unequal = [name for name in DETERMINISTIC if any(m[name] != counts[name] for m in per_pass)]
    absent = tracer.absent_layers()
    notes = [
        f"{len(traced)} traced passes of {len(ops)} operations; times are "
        "totals of the fastest traced pass",
        f"self times add up to {metrics['trace.attributed_s']:.4f} s of "
        f"{metrics['trace.op_s']:.4f} s traced operation time; unattributed "
        f"{metrics['trace.unattributed_s']:+.4f} s"
        + (" (negative: spans overlap in pool threads)"
           if metrics["trace.unattributed_s"] < 0 else ""),
        "absent boundaries: " + (", ".join(tracer.absent) or "none"),
        "absent layers: " + (", ".join(absent) or "none"),
    ]
    gate = ("counts differ between traced passes: " + ", ".join(unequal)) if unequal else ""
    return metrics, [p[0] for p in untraced + traced], notes, counts, gate


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "casimir_impedance" / "__init__.py").is_file():
        return fail(f"no package source at {SRC.relative_to(ROOT)}/casimir_impedance")
    sys.path.insert(0, str(SRC))
    import casimir_impedance
    if SRC not in Path(casimir_impedance.__file__).resolve().parents:
        return fail(f"imported casimir_impedance from {casimir_impedance.__file__}")
    import numpy
    import scipy
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    threads = cli_threads()
    ops = workloads.build(args.workload, args.seed, WORKDIR / "csv")
    (WORKDIR / "csv").mkdir(parents=True, exist_ok=True)
    for op in ops:
        op.prepare()
    # One untimed pass at minimum size lets lazy set-up and allocator growth
    # finish; first-call cost is what setup_s measures.
    run_pass(workloads.build(args.workload, args.seed, WORKDIR / "csv", min_size=True))

    if args.trace:
        metrics, passes, notes, counts, gate = per_layer(args, ops)
    else:
        setup = measure_setup()
        metrics, passes, notes, counts, gate = end_to_end(args, ops, setup)
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        return fail(f"metrics {sorted(set(metrics) ^ set(units))} are not as BENCHMARK.json lists")
    attempted, failed, messages = check_all(ops, passes)
    gate = gate or counts_gate(args.workload, args.seed, f"trace{args.trace}", counts)
    correct = failed == 0 and not gate

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}; "
          f"nproc {len(os.sched_getaffinity(0))}, CLI threads {threads}, "
          f"Python {sys.version.split()[0]}, numpy {numpy.__version__}, "
          f"scipy {scipy.__version__}")
    for name in units:
        print(f"  {name:40s} {metrics[name]:.6g} {units[name]}")
    print(f"  {'failed_frac':40s} {failed / attempted:.6g} ratio ({failed} of {attempted})")
    for line in notes + messages[:20] + ([gate] if gate else []):
        print(f"  {line}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
