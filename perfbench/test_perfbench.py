"""Self-test of the benchmark.

Runs each workload once at minimum size, shows that every oracle check
rejects a perturbed value, and checks the span arithmetic and the gates.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Outcome, repeat_failures  # noqa: E402

SEED = 7


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def minimum(request):
    ops = workloads.build(request.param, SEED, run.WORKDIR / "selftest", min_size=True)
    (run.WORKDIR / "selftest").mkdir(parents=True, exist_ok=True)
    for op in ops:
        op.prepare()
    outcomes, _, _ = run.run_pass(ops)
    return request.param, ops, outcomes


def test_minimum_size_run_passes_every_check(minimum):
    _, ops, outcomes = minimum
    attempted, failed, messages = run.check_all(ops, [outcomes, outcomes])
    assert attempted == 2 * len(ops)
    assert failed == 0, messages


def _scaled(out: Outcome, factor: float) -> Outcome:
    return dataclasses.replace(out, values=(out.values[0] * factor,))


def _shifted(out: Outcome, delta: float) -> Outcome:
    return dataclasses.replace(out, values=(out.values[0] + delta,))


def perturbations(op, out):
    """(check, perturbed outcome, text the rejection must contain)."""
    if op.kind == "cli.main":
        rows = [ln for ln in out.text.splitlines() if ln and not ln.startswith("#")]
        yield "status", dataclasses.replace(out, status=2), "exit status"
        yield "rows", dataclasses.replace(out, text=out.text.replace(rows[-1] + "\n", "")), "rows"
        yield "converged", dataclasses.replace(out, converged=False), "converged"
        yield "finite", dataclasses.replace(out, values=out.values + (float("nan"),)), "non-finite"
        return
    yield "raised", dataclasses.replace(out, error="RuntimeError: x"), "raised"
    yield "converged", dataclasses.replace(out, converged=False), "not converged"
    yield "finite", _scaled(out, float("nan")), "non-finite"
    yield "sign", _scaled(out, -1.0), "not negative"
    ref = op.ref
    ideal = "ideal/" in op.label
    if ideal and op.kind in ("force_ppT",):
        yield "ideal thermal", _scaled(out, 1 + 1e-8), "ideal thermal"
    elif ideal:
        yield "ideal closed form", _scaled(out, 1 + 1e-6), "ideal closed form"
    else:
        yield "ideal bound", dataclasses.replace(out, values=(1.001 * ref["ideal"],)), "exceeds"
    if "pert" in ref:
        yield "normal skin", _scaled(out, 0.9), "normal-skin"
    if "mapped" in ref:
        yield "sphere mapping", _scaled(out, 1 + 1e-9), "2 pi R"
    if "delta" in ref:
        step = 1e-2 if op.kind == "force_ppT" else 1e-3
        yield "thermal expansion", _shifted(out, step * ref["delta"]), "expansion"


EXPECTED_CHECKS = {
    "zeroT-plates": {"raised", "converged", "finite", "sign", "ideal closed form",
                     "ideal bound", "normal skin", "sphere mapping"},
    "lowT-matsubara": {"raised", "converged", "finite", "sign", "ideal thermal",
                       "ideal bound", "thermal expansion"},
    "cli-scans": {"status", "rows", "converged", "finite"},
}


def test_each_check_rejects_a_perturbed_value(minimum):
    name, ops, outcomes = minimum
    seen = set()
    for op, out in zip(ops, outcomes):
        assert op.check(out) == []
        for check, bad, text in perturbations(op, out):
            fails = op.check(bad)
            assert any(text in f for f in fails), (op.label, check, fails)
            seen.add(check)
    assert seen == EXPECTED_CHECKS[name]


def test_repeat_check_rejects_changed_values_counts_and_bytes():
    out = Outcome((-1.0,), True, evaluations=10, text="# a\n1.0\n")
    assert repeat_failures(out, dataclasses.replace(out)) == []
    for change in ({"values": (-1.0000000000000002,)}, {"evaluations": 11},
                   {"text": "# a\n1.1\n"}):
        assert repeat_failures(out, dataclasses.replace(out, **change))


def test_counts_gate_fails_on_a_changed_count():
    path_seed = -SEED
    try:
        assert run.counts_gate("selftest", path_seed, "trace0", [1, 2, 3]) == ""
        assert run.counts_gate("selftest", path_seed, "trace0", [1, 2, 3]) == ""
        assert run.counts_gate("selftest", path_seed, "trace0", [1, 2, 4]) != ""
    finally:
        for path in (run.WORKDIR / "counts").glob(f"selftest-{path_seed}-*.json"):
            path.unlink()


def _row(sid, start, end, parent, op=0):
    return [sid, 0, start, end, parent, op, 0, 0]


def test_self_time_subtracts_the_union_of_children():
    # Root 0..100 with two children overlapping on 20..30 (pool threads) and
    # a grandchild inside the first child.
    t = np.array([
        _row(0, 0, 100, -1),
        _row(1, 10, 30, 0),
        _row(2, 20, 50, 0),
        _row(3, 12, 18, 1),
    ], dtype=np.int64)
    assert tracing.self_times(t).tolist() == [100 - 40, 20 - 6, 30, 6]
    assert tracing.union_length(t[1:3, 2:4]) == 40


def test_traced_pass_attributes_operation_time_and_repeats_counts():
    ops = workloads.build("lowT-matsubara", SEED, run.WORKDIR / "selftest", min_size=True)[:2]
    tracer = tracing.Tracer()
    metrics = []
    for k in range(2):
        tracer.install()
        try:
            _, lats, _ = run.run_pass(ops, tracer, k * len(ops))
        finally:
            tracer.remove()
        table = tracer.table()
        rows = table[(table[:, 5] >= k * len(ops)) & (table[:, 5] < (k + 1) * len(ops))]
        metrics.append(tracing.layer_metrics(rows, tracer.names, tracer.layer_of, sum(lats)))
    assert tracer.absent == [] and tracer.absent_layers() == []
    for name in run.DETERMINISTIC:
        assert metrics[0][name] == metrics[1][name], name
    m = metrics[0]
    assert m["matsubara.terms"] > 0 and m["quadrature.calls"] == m["matsubara.terms"]
    assert 0 <= m["trace.unattributed_s"] < 0.05 * m["trace.op_s"]


def test_missing_boundary_is_reported_absent(monkeypatch):
    monkeypatch.delattr(tracing.cli, "series_force")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.remove()
    assert tracer.absent == ["cli.series_force"]
    assert tracer.absent_layers() == ["series"]


def test_run_fails_without_the_package_source():
    bare = run.WORKDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "zeroT-plates",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
    with pytest.raises(json.JSONDecodeError):
        json.loads(done.stdout or "x")
