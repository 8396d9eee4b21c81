"""Run workloads repeatedly and print every metric with its median and quartiles.

    python3 perfbench/report.py                        # all workloads, 5 seeds
    python3 perfbench/report.py --workload cells-dims --runs 10 --save a.json
    python3 perfbench/report.py --runs 10 --baseline a.json
    python3 perfbench/report.py --trace                # per-layer metrics

Each run is a fresh ``run.py`` process with its own seed (1, 2, ...).  For
every metric the table shows the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median.
End-to-end metrics also show their bound from BENCHMARK.json: ``steady``
when the spread is below a third of the bound, ``wide`` when it exceeds
the bound.  With ``--baseline`` each median is compared with the saved
one and marked ``worse`` when it moved the wrong way by more than the bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--save", help="write the raw results to this JSON file")
    parser.add_argument("--baseline", help="compare medians with a file written by --save")
    args = parser.parse_args(argv)
    baseline = json.loads(Path(args.baseline).read_text()) if args.baseline else {}

    raw: dict[str, list[dict]] = {}
    verdict = 0
    for workload in args.workload or names:
        runs = []
        for seed in range(1, args.runs + 1):
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed}: done", file=sys.stderr, flush=True)
        raw[workload] = runs
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"\n== {workload}: {len(runs)} runs, {attempted} jobs attempted, {failed} failed, "
              f"correct={all(r['correct'] for r in runs)}")
        print(f"{'metric':34} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, spread = summarize(values)
            line = (f"{name:34} {first['unit']:6} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                    f"{spread:8.2%}")
            if name in bounds:
                bound = bounds[name]["bound"]
                mark = "wide" if spread > bound and name != "setup_s" else (
                    "steady" if spread < bound / 3 else "ok")
                line += f"  bound {bound:.0%} {mark}"
                verdict |= mark == "wide"
                base = baseline.get(workload)
                if base:
                    old = statistics.median(r["metrics"][name]["value"] for r in base)
                    change = (median - old) / old
                    if bounds[name]["better"] == "higher":
                        change = -change
                    worse = change > bound
                    line += f"  vs baseline {change:+.2%}{' worse' if worse else ''}"
                    verdict |= worse
            print(line)
    if args.save:
        Path(args.save).write_text(json.dumps(raw))
    return 1 if verdict else 0


if __name__ == "__main__":
    sys.exit(main())
