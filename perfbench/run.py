"""Benchmark entry point: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload rook-headline --seed 1 --seconds 58 --trace 0

Jobs of the workload run back to back on one thread.  The seed only
permutes job order.  Every job runs at least once; further jobs start while
their previous duration still fits in ``--seconds``.  Each job's output is
checked exactly; a wrong result or an exception is counted, never fatal.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Traced runs also
write their spans under ``.bench_build/perfbench/`` in the repository.

End-to-end times are scaled to a reference host speed by the yardstick
(``yardstick.py``), probed inside the same jobs; the raw figures go to
standard error.  Per-layer times are raw.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"

SETUP_PROBES = 11


@dataclass
class Sample:
    job: str
    wall_s: float
    cpu_s: float
    problem: str | None
    spans: tuple[int, int] | None = None
    window: tuple[float, float] = (0.0, 0.0)  # perf_counter at start and end


def execute(job, tracer=None, yard=None) -> Sample:
    """Run one job, time it, then check its output outside the timed span.

    With a yardstick, the probes that ran inside the job are taken out of
    its times."""
    t0, c0 = time.perf_counter(), time.process_time()
    spans = None
    if tracer is None:
        try:
            result, error = job.run(), None
        except Exception as exc:  # a failed job is counted, never fatal
            result, error = None, exc
    else:
        result, error, spans = tracer.job(job.run)
    t1, c1 = time.perf_counter(), time.process_time()
    wall, cpu = t1 - t0, c1 - c0
    if yard is not None:
        probe_wall, probe_cpu = yard.inside(t0, t1)
        wall, cpu = wall - probe_wall, cpu - probe_cpu
    if error is not None:
        problem = "".join(traceback.format_exception_only(type(error), error)).strip()
    else:
        try:
            problem = job.check(result)
        except Exception as exc:
            problem = f"check raised {exc!r}"
    if problem:
        print(f"FAILED {job.name}: {problem}", file=sys.stderr)
    return Sample(job.name, wall, cpu, problem, spans, (t0, t1))


def closed_loop(jobs, seconds: float, started: float, tracer=None,
                yard=None) -> list[Sample]:
    """Every job once, then more passes while a job's last duration fits."""
    samples = [execute(job, tracer, yard) for job in jobs]
    last = {s.job: s.wall_s for s in samples}
    while True:
        ran = False
        for job in jobs:
            if time.perf_counter() - started + last[job.name] <= seconds:
                sample = execute(job, tracer, yard)
                samples.append(sample)
                last[job.name] = sample.wall_s
                ran = True
        if not ran:
            return samples


def per_job_median(samples: list[Sample], field: str) -> float:
    """Time for one pass over the job list: the sum of per-job medians."""
    by_job: dict[str, list[float]] = {}
    for s in samples:
        by_job.setdefault(s.job, []).append(getattr(s, field))
    return sum(statistics.median(v) for v in by_job.values())


def measure_setup(args) -> float:
    """Median time from interpreter start to a built job list, over fresh
    interpreters that import the library and construct the inputs.  Each
    time is scaled by the probes its interpreter times right after."""
    cmd = [sys.executable, str(Path(__file__)), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.smoke:
        cmd.append("--smoke")
    raw, scaled_times = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            built = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            probe = proc.stdout.read()
        # no timeout: with one, Popen.wait polls in steps of up to 50 ms
        if proc.wait() != 0 or built != "built\n":
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        raw.append(elapsed)
        scaled_times.append(elapsed * yardstick.REF_S / float(probe))
    print(f"setup_s raw {statistics.median(raw):.6f} s", file=sys.stderr)
    return statistics.median(scaled_times)


def scaled(samples: list[Sample], yard) -> list[Sample]:
    """The samples with their times in reference seconds."""
    out = []
    for s in samples:
        wall_factor, cpu_factor = yard.factors(*s.window)
        out.append(Sample(s.job, s.wall_s * wall_factor, s.cpu_s * cpu_factor, s.problem,
                          s.spans, s.window))
    return out


def end_to_end(samples: list[Sample], setup_s: float) -> dict:
    failed = sum(1 for s in samples if s.problem)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return {
        "wall_s": {"value": per_job_median(samples, "wall_s"), "unit": "s"},
        "cpu_s": {"value": per_job_median(samples, "cpu_s"), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mib": {"value": peak_kib / 1024, "unit": "MiB"},
        "ok_ratio": {"value": (len(samples) - failed) / len(samples), "unit": "ratio"},
    }


def per_layer(tracer, traced: list[Sample], untraced: list[Sample]) -> tuple[dict, list]:
    """Per-layer metrics for one pass: per-job medians, summed over jobs."""
    import tracing

    by_job: dict[str, list[dict]] = {}
    executions = []
    for s in traced:
        stats = tracer.execution_stats(*s.spans)
        by_job.setdefault(s.job, []).append(tracing.execution_metrics(stats))
        executions.append({"job": s.job, "spans": list(s.spans), "wall_s": stats["wall_s"],
                           "self_sum_s": stats["self_sum_s"],
                           "metrics": by_job[s.job][-1]})
    totals: dict[str, float] = {}
    for runs in by_job.values():
        for key in runs[0]:
            value = statistics.median(r[key] for r in runs)
            if key in tracing.MAX_METRICS:
                totals[key] = max(totals.get(key, 0), value)
            else:
                totals[key] = totals.get(key, 0) + value
    metrics = tracing.finish(totals)
    metrics["trace.overhead_s"] = (
        per_job_median(traced, "wall_s") - per_job_median(untraced, "wall_s")
    )
    return metrics, executions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instances of every job, for the benchmark's own tests")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "moebius" / "__init__.py").is_file():
        print(f"moebius sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    work_dir = OUT_DIR / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    if args.probe_setup:  # the child side of measure_setup
        workloads.build(args.workload, args.seed, str(work_dir), args.smoke)
        print("built", flush=True)
        yard = yardstick.Yardstick()
        for _ in range(yardstick.EDGE_PROBES):
            yard.probe()
        print(statistics.fmean(yard.walls), flush=True)
        return 0

    setup_s = measure_setup(args)
    jobs = workloads.build(args.workload, args.seed, str(work_dir), args.smoke)
    yard = None if args.trace else yardstick.Yardstick()
    started = time.perf_counter()
    if yard is not None:
        yard.start()
        try:
            samples = closed_loop(jobs, args.seconds, started, yard=yard)
        finally:
            yard.stop()
        print(f"raw wall_s {per_job_median(samples, 'wall_s'):.6f} s, "
              f"cpu_s {per_job_median(samples, 'cpu_s'):.6f} s; {len(yard.walls)} "
              f"yardstick probes", file=sys.stderr)
        metrics = end_to_end(scaled(samples, yard), setup_s)
    else:
        import tracing

        untraced = [execute(job) for job in jobs]
        tracer = tracing.Tracer()
        tracer.install()
        traced = closed_loop(jobs, args.seconds, started, tracer)
        tracer.uninstall()
        samples = untraced + traced
        metrics, executions = per_layer(tracer, traced, untraced)
        tracer.write(str(OUT_DIR / f"trace-{args.workload}"),
                     {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
                      "executions": executions})
        if set(metrics) != set(tracing.METRICS):
            raise RuntimeError(f"per-layer metrics differ from the table: "
                               f"{sorted(set(metrics) ^ set(tracing.METRICS))}")
        metrics = {name: {"value": metrics[name], "unit": unit}
                   for name, (unit, _) in tracing.METRICS.items()}
    failed = sum(1 for s in samples if s.problem)
    print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
