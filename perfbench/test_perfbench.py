"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

The smoke tests take seconds; the exact headline counters trace the full
rook n=5, lambda=2 matrices twice and take about a minute.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from array import array
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# span-name prefixes each workload must reach
MODULES_REACHED = {
    "rook-headline": {"gram", "algebra", "diagram", "cells", "msmall", "params"},
    "cells-dims": {"gram", "algebra", "diagram", "cells", "msmall", "params", "cli",
                   "repcount"},
}


def bench_run(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_pass(workload: str, smoke: bool, work_dir: Path):
    """Each job once under a fresh tracer: [(sample, stats)]."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        jobs = workloads.build(workload, 1, str(work_dir), smoke)
        samples = [run.execute(job, tracer) for job in jobs]
    finally:
        tracer.uninstall()
    return [(s, tracer.execution_stats(*s.spans)) for s in samples]


def test_benchmark_json_mirrors_the_tables():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCH["per_layer"]} == tracing.METRICS
    assert BENCH["paths"] == ["perfbench"]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    out = bench_run("--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", trace, "--smoke")
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    listed = BENCH["per_layer"] if trace == "1" else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    if trace == "0":
        assert all(v["value"] > 0 for v in out["metrics"].values())
        return
    # the written spans read back: every execution is rooted at a job span
    # and every span's parent precedes it
    stem = str(run.OUT_DIR / f"trace-{workload}")
    spans = tracing.load_spans(stem)
    executions = json.loads(Path(stem + ".json").read_text())["executions"]
    assert executions and all(spans[e["spans"][0]][0] == tracing.JOB_SPAN for e in executions)
    assert all(parent < i for i, (_, parent, *_rest) in enumerate(spans))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_spans_reach_the_listed_modules(workload, tmp_path):
    executions = traced_pass(workload, True, tmp_path)
    assert all(sample.problem is None for sample, _ in executions)
    reached = {
        name.split(".")[0]
        for _, stats in executions
        for name, s in stats["spans"].items()
        if s["calls"] and name != tracing.JOB_SPAN
    }
    assert MODULES_REACHED[workload] <= reached


def test_headline_counters_are_exact_and_repeat(tmp_path):
    first, second = (traced_pass("rook-headline", False, tmp_path) for _ in range(2))
    nonzeros = {"gram-rook-n5-l2-110": 1250, "gram-rook-n5-l2-111": 7290}
    counters = [k for k, (unit, _) in tracing.METRICS.items() if unit == "count"]
    by_job = {}
    for passes in (first, second):
        for sample, stats in passes:
            assert sample.problem is None
            # self times partition the job span, which the outer timer encloses
            assert stats["self_sum_s"] <= sample.wall_s
            m = tracing.execution_metrics(stats)
            assert m["algebra.compose_calls"] == 72_900
            assert m["gram.entries"] == 72_900
            assert m["diagram.star_calls"] == 72_900
            assert (m["gram.blocks"], m["gram.max_block_dim"]) == (10, 27)
            assert m["gram.nonzero_entries"] == nonzeros[sample.job]
            assert m["cells.halves"] == 270
            by_job.setdefault(sample.job, []).append({k: m[k] for k in counters if k in m})
    for job, (a, b) in by_job.items():
        assert a == b, job


def test_failures_are_counted_not_fatal(tmp_path):
    def boom():
        raise ValueError("boom")

    jobs = [workloads.Job("raises", boom, lambda out: None),
            workloads.Job("wrong", lambda: 1, lambda out: "wrong answer"),
            workloads.Job("right", lambda: 1, lambda out: None)]
    samples = run.closed_loop(jobs, 0, 0.0)
    assert [bool(s.problem) for s in samples] == [True, True, False]
    assert run.end_to_end(samples, 0.1)["ok_ratio"]["value"] == pytest.approx(1 / 3)


def test_yardstick_kernel_is_the_rook_monoid():
    diagrams = yardstick.rook_diagrams(4)
    assert len(diagrams) == len(set(diagrams)) == 209  # sum of C(4,k)^2 k!
    identity = (0, 1, 2, 3, 0, 1, 2, 3)
    assert all(yardstick.compose(identity, d, 4) == (d, 0) for d in diagrams)
    assert all(yardstick.compose(d, identity, 4) == (d, 0) for d in diagrams)
    closed = {yardstick.compose(a, b, 4)[0] for a in diagrams for b in diagrams[::7]}
    assert closed <= set(diagrams)


def test_probes_inside_a_job_are_taken_out():
    yard = yardstick.Yardstick()
    yard.start()
    try:
        sample = run.execute(workloads.Job("sleep", lambda: time.sleep(0.5), lambda out: None),
                             yard=yard)
    finally:
        yard.stop()
    probe_wall, _ = yard.inside(*sample.window)
    assert probe_wall > 0
    assert sample.wall_s == pytest.approx(sample.window[1] - sample.window[0] - probe_wall)
    assert len(yard.walls) >= yardstick.EDGE_PROBES + 3


def test_scaling_uses_the_probes_around_each_job():
    yard = yardstick.Yardstick()
    # the host runs the probe at half the reference speed from t = 10 on
    ref = yardstick.REF_S
    yard.starts = array("d", [0.0, 1.0, 2.0, 10.0, 11.0, 12.0])
    yard.walls = array("d", [ref] * 3 + [2 * ref] * 3)
    yard.cpus = array("d", [ref / 2] * 3 + [ref] * 3)
    samples = [run.Sample("a", 4.0, 3.0, None, window=(0.5, 1.5)),
               run.Sample("b", 4.0, 3.0, None, window=(10.5, 11.5))]
    a, b = run.scaled(samples, yard)
    assert (a.wall_s, a.cpu_s) == pytest.approx((4.0, 6.0))
    assert (b.wall_s, b.cpu_s) == pytest.approx((2.0, 3.0))
    with pytest.raises(RuntimeError, match="no yardstick probe"):
        yard.factors(5.0, 6.0)


def test_missing_binding_site_fails_loudly(monkeypatch):
    monkeypatch.setattr(tracing, "REQUIRED_BINDINGS",
                        tracing.REQUIRED_BINDINGS + ("moebius.gram:no_such_name",))
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError, match="no_such_name"):
        tracer.install()
    tracer.uninstall()
    import moebius.gram

    assert not hasattr(moebius.gram.star, "__wrapped__")


def test_install_reaches_copied_bindings_and_uninstall_restores():
    import moebius
    import moebius.algebra
    import moebius.diagram
    import moebius.gram

    originals = (moebius.gram.star, moebius.algebra.series_coeff, moebius.diagram.Diagram.make)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert moebius.gram.star.__wrapped__ is originals[0]
        assert moebius.star.__wrapped__ is originals[0]
        assert moebius.algebra.series_coeff.__wrapped__ is originals[1]
        assert moebius.diagram.Diagram.make.__wrapped__ is originals[2]
    finally:
        tracer.uninstall()
    assert (moebius.gram.star, moebius.algebra.series_coeff,
            moebius.diagram.Diagram.make) == originals


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rook-headline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
