"""Steadiness evidence: repeated benchmark runs, back to back.

    python3 perfbench/repeat.py --runs 10
    python3 perfbench/repeat.py --runs 5 --workloads race-closed --first-seed 100
    python3 perfbench/repeat.py --compare .bench_out/repeat-A.json .bench_out/repeat-B.json

Runs ``perfbench/run.py`` ``--runs`` times per workload, one seed per
round, alternating the workload order between rounds so a drifting
machine does not always hit the same workload last.  For every metric
it prints the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread (interquartile distance over the median), and flags a spread
wider than the metric's bound in ``BENCHMARK.json``.  The raw results
go to ``.bench_out/repeat-<time>.json``.

Each bound in ``BENCHMARK.json`` is also the share by which a metric's
median may get worse from one set of runs to the next.  ``--compare``
reads two such raw files and flags every median that got worse by more
than its bound.  Both checks cover every end-to-end metric, ``setup_s``
included.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}: "
            f"{proc.stderr.strip()[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["record"] = json.loads(lines[-2])
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def compare(first: Path, second: Path, bench: dict) -> int:
    """Print every median of ``second`` against ``first``'s, flagging
    those worse by more than the metric's bound."""
    sets = [json.loads(path.read_text()) for path in (first, second)]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    flagged = 0
    print(f"{'workload':16} {'metric':20} {'median 1':>12} {'median 2':>12} "
          f"{'worse by':>8} {'bound':>6}")
    for workload in sets[0]:
        if workload not in sets[1]:
            continue
        for name, metric in metrics.items():
            med1, med2 = (
                statistics.median(r["metrics"][name]["value"]
                                  for r in runs[workload])
                for runs in sets
            )
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (med2 - med1) / med1 if med1 else 0.0
            flag = worse > metric["bound"]
            flagged += flag
            print(f"{workload:16} {name:20} {med1:12.6g} {med2:12.6g} "
                  f"{worse:8.3f} {metric['bound']:>6}"
                  f"{'  WORSE THAN BOUND' if flag else ''}")
    print(f"# {flagged} median(s) worse than their bound")
    return 0


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--compare", nargs=2, type=Path, metavar="RAW",
                        help="compare the medians of two raw result files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, bench)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for workload in order:
            result = run_once(workload, args.first_seed + i, args.seconds)
            runs[workload].append(result)
            record = result["record"]
            walls = ", ".join(f"{w:.2f}" for w in record["wall_s"])
            print(f"# {workload} seed {args.first_seed + i}: "
                  f"pass walls {walls} s, calibration "
                  f"{record['calibration_s']}", flush=True)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    dump = out / f"repeat-{int(time.time())}.json"
    dump.write_text(json.dumps(runs, indent=1))
    flagged = 0
    print(f"{'workload':16} {'metric':34} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}")
    for workload in workloads:
        results = runs[workload]
        if len(results) < 2:
            continue
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, width = spread(values)
            bound = bounds.get(name)
            flag = bound is not None and width > bound
            flagged += flag
            print(f"{workload:16} {name:34} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {width:7.3f} "
                  f"{'' if bound is None else bound:>6}"
                  f"{'  WIDER THAN BOUND' if flag else ''}")
    print(f"# {flagged} metric(s) wider than their bound; raw runs in "
          f"{dump.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
