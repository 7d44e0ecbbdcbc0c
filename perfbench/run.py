"""Serving benchmark: one named workload, every metric, checked answers.

    python3 perfbench/run.py --workload race-closed --seed 1 --seconds 45 --trace 0

Drives the library API of ``repro.serve`` from one process with one
client.  ``--trace 0`` serves the workload's timed passes (after an
untimed warm-up pass where there are several) and reports the
end-to-end metrics over them; ``--trace 1`` runs the workload once untraced,
after a short warm-up, and once under the span recorder
(``perfbench/spans.py``), and reports the per-layer metrics.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the machine.  A failed correctness check exits 1.

Every run of a workload serves the same pinned devices
(``perfbench/fleet.py``).  The closed-loop workloads serve them in pool
order; ``--seed`` places the repeats in the ``stream-journal`` stream.
``--seconds`` is accepted for the benchmark interface but does not
change the work: each fleet has a fixed size, and a run takes about
40 s on a 2-core machine.
Workloads, metrics and the layer each per-layer metric should move are
described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from fleet import load_pool, pin_hash_seed, solutions_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

#: Workload -> service options, devices taken per design from the pool
#: (in pool order), copies of each device in the stream, serving mode,
#: and timed passes per untraced run.  A workload with several passes
#: first serves its fleet once untimed, so lazily built cone templates
#: are in place.  The race serves one pass of many devices instead: a
#: device's race latency is bimodal, and with 21 devices over three
#: passes its median latency spread 26% and 41% over two 10-run sets,
#: against 14-26% over four sets with 60 devices in one pass.  The
#: runner is not pinned to a CPU (see perfbench/README.md).
WORKLOADS = {
    "race-closed": {
        "service": {},
        "take": {"sim1423": 45, "sim6669": 15},
        "copies": 1,
        "stream": False,
        "passes": 1,
    },
    "bsat-complete": {
        "service": {"strategies": ("bsat",), "policy": "complete"},
        "take": {"sim1423": 16},
        "copies": 1,
        "stream": False,
        "passes": 3,
    },
    "stream-journal": {
        # One shard: with two, the window took 10-18 s over 10 runs at
        # a steady 11-13 s of CPU, as the second core came and went on
        # a shared host.
        "service": {"strategies": ("greedy-stochastic",), "n_shards": 1},
        "take": {"sim1423": 56, "sim6669": 19},
        "copies": 4,
        "stream": True,
        "passes": 3,
    },
}

UNMEASURED = {
    "serve.procpool": "unmeasured: worker processes do not fit a "
    "one-client run on a 2-core shared machine",
    "arena-jit": "unmeasured: needs numba",
    "serve.degrade": "unmeasured: runs only on timeouts, which no "
    "workload has",
}

#: Cold set-ups per run; setup_s is their median.
SETUP_PROBES = 5


def import_repro():
    """Import the checkout's ``repro`` (and nothing installed elsewhere)."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"repro imported from {repro.__file__}, not {src}")
    return repro


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop (machine drift marker)."""
    t0 = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x = (x * 31 + i) & 0xFFFF
    return time.perf_counter() - t0


def host_counters() -> dict:
    """Host-wide stall counters, in seconds: CPU time stolen by the
    hypervisor, I/O wait, and the CPU and I/O pressure-stall totals
    (absent where the kernel does not report them)."""
    counters = {}
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        hz = os.sysconf("SC_CLK_TCK")
        counters["iowait_s"] = int(fields[5]) / hz
        counters["steal_s"] = int(fields[8]) / hz
    except (OSError, IndexError, ValueError):
        pass
    for kind in ("cpu", "io"):
        try:
            some = Path(f"/proc/pressure/{kind}").read_text().split("\n")[0]
            counters[f"{kind}_stall_s"] = int(some.rsplit("=", 1)[1]) / 1e6
        except (OSError, IndexError, ValueError):
            pass
    return counters


def machine_record(cores: int) -> dict:
    import numpy

    from repro.sat.backends import available_backends

    return {
        "cores": cores,
        "runner_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "sat_backends": list(available_backends()),
        "unmeasured": UNMEASURED,
    }


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def fleet_lines(spec: dict, pool_lines: list[str], seed: int) -> list[str]:
    """The intake lines one run serves, in serving order."""
    wanted = dict(spec["take"])
    picked = []
    for line in pool_lines:
        design = json.loads(line)["design"]
        if wanted.get(design, 0) > 0:
            wanted[design] -= 1
            picked.append(line)
    if any(wanted.values()):
        raise ValueError(f"pool too small for {spec['take']}")
    lines, by_id = [], {}
    for line in picked:
        wire = json.loads(line)
        for copy in range(spec["copies"]):
            if spec["copies"] > 1:
                wire["id"] = f"{wire['id'].split('~')[0]}~{copy}"
            lines.append(json.dumps(wire, sort_keys=True))
            by_id[wire["id"]] = lines[-1]
    if spec["stream"]:
        # The seed interleaves the repeats; the first occurrences keep
        # pool order, so the diagnoses queued ahead of each one (and
        # with them its latency) do not change with the seed.
        random.Random(seed).shuffle(lines)
        order = [json.loads(x)["id"] for x in picked]
        rank: dict[str, str] = {}
        for i, line in enumerate(lines):
            wire = json.loads(line)
            base, copy = wire["id"].split("~")
            if base not in rank:
                rank[base] = order[len(rank)]
            lines[i] = by_id[f"{rank[base]}~{copy}"]
    return lines


def base_id(device_id: str) -> str:
    return device_id.split("~")[0]


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------
def setup(spec: dict, designs, journal_path: Path | None = None):
    """Design artifacts for every fleet design plus the service."""
    from repro.serve import DesignCache

    cache = DesignCache()
    for design in designs:
        cache.get(design)
    return cache, make_service(spec, cache, journal_path)


def make_service(spec: dict, cache, journal_path: Path | None = None):
    """A service over ``cache``, journaling to a fresh ``journal_path``."""
    from repro.serve import DiagnosisService, ResultJournal

    journal = None
    if journal_path is not None:
        journal_path.unlink(missing_ok=True)
        journal = ResultJournal(journal_path)
    return DiagnosisService(
        design_cache=cache, journal=journal, **spec["service"]
    )


def forget_answers(cache, designs) -> None:
    """Empty every design's signature memo, so a pass diagnoses afresh."""
    from repro.serve.design import SignatureMemo

    for design in designs:
        cache.get(design).result_memo = SignatureMemo(cache.memo_max_entries)


def serve(spec: dict, lines: list[str], passes: int = 1, warm_up: bool = False,
          tracer=None, journal_path: Path | None = None) -> dict:
    """Set up, then serve ``lines`` ``passes`` times, each pass in its own
    timed window, after an untimed ``warm_up`` pass.

    Every pass gets a fresh service and empty signature memos over the
    one set-up ``DesignCache``, so passes repeat the same diagnoses; the
    warm-up pass builds the cone templates the cache fills lazily.
    """
    from repro.serve import read_device_stream

    designs = sorted(spec["take"])
    cache, service = setup(spec, designs, journal_path)

    def span(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    def register(devices):
        if tracer is not None:
            for d in devices:
                tracer.device_of_tests[id(d.tests)] = d.device_id

    runs = []
    for i in range(int(warm_up) + passes):
        if i > 0:
            forget_answers(cache, designs)
            service = make_service(spec, cache, journal_path)
        if spec["stream"]:
            run = stream_pass(spec, cache, service, lines, journal_path,
                              span, register)
        else:
            devices = list(read_device_stream(lines))
            register(devices)
            run = closed_pass(service, devices)
        runs.append(run)
    return {"passes": runs[int(warm_up):]}


def closed_pass(service, devices) -> dict:
    """One client hands over one device at a time; latency is hand-over
    to result."""
    results, latencies = [], {}
    host0 = host_counters()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for device in devices:
        start = time.perf_counter()
        results.append(service.run([device])[0])
        latencies[device.device_id] = time.perf_counter() - start
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    return _pass(devices, results, None, latencies, wall, cpu, service,
                 host0)


def stream_pass(spec, cache, service, lines, journal_path, span,
                register) -> dict:
    """Parse the stream, serve it in one batch through a journal, then
    resume a fresh service from that journal over the same devices."""
    from repro.serve import DiagnosisService, read_device_stream, read_journal

    host0 = host_counters()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    with span("intake.parse"):
        devices = list(read_device_stream(lines))
    register(devices)
    results = service.run(devices)
    service.journal.close()
    with span("journal.read"):
        replay = read_journal(journal_path)
    with span("journal.resume"):
        resumer = DiagnosisService(
            design_cache=cache, resume_from=replay, **spec["service"]
        )
        resumed = resumer.run(devices)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    journal_path.unlink()
    # A repeat is a sub-millisecond memo hit whose latency is GIL
    # hand-offs, so latency is taken over each signature's first
    # occurrence: admission to result of a diagnosis.
    latencies = {}
    for r in results:
        latencies.setdefault(base_id(r.device_id), r.latency)
    return _pass(devices, results, resumed, latencies, wall, cpu, service,
                 host0)


def _pass(devices, results, resumed, latencies, wall, cpu, service,
          host0) -> dict:
    host1 = host_counters()
    return {
        "devices": devices, "results": results, "resumed": resumed,
        "latencies": latencies, "wall": wall, "cpu": cpu,
        "stats": service.stats(),
        "host": {k: round(host1[k] - host0[k], 3) for k in host0},
    }


# ----------------------------------------------------------------------
# correctness (outside the timed window)
# ----------------------------------------------------------------------
def check(workload: str, run: dict, refs: dict) -> list[str]:
    """Every failed check, as a message (empty: the run is correct)."""
    from repro.circuits.library import get_circuit
    from repro.diagnosis.validity import is_valid_correction

    problems: list[str] = []
    circuits: dict[str, object] = {}
    valid: dict[tuple, bool] = {}
    first: dict[str, object] = {}
    for device, result in zip(run["devices"], run["results"]):
        if result.device_id != device.device_id:
            problems.append(f"{device.device_id}: result for {result.device_id}")
            continue
        if result.status != "ok":
            continue
        key = (device.signature(), result.answer)
        if key not in valid:
            if device.design not in circuits:
                circuits[device.design] = get_circuit(device.design)
            valid[key] = is_valid_correction(
                circuits[device.design], device.tests, result.answer
            )
        if not valid[key]:
            problems.append(f"{device.device_id}: answer {result.answer} "
                            "is not a valid correction")
        ref = refs[base_id(device.device_id)]
        if workload == "bsat-complete":
            if solutions_digest(result.solutions) != ref["digest"]:
                problems.append(f"{device.device_id}: solution set differs "
                                "from the reference enumeration")
        seen = first.setdefault(base_id(device.device_id), result)
        if _answer(seen) != _answer(result):
            problems.append(f"{device.device_id}: duplicate answer differs "
                            f"from {seen.device_id}")
    resumed = run["resumed"]
    if resumed is not None:
        for before, after in zip(run["results"], resumed):
            if not after.journal_replayed:
                problems.append(f"{after.device_id}: not replayed on resume")
            elif _answer(before) != _answer(after):
                problems.append(f"{after.device_id}: replayed answer differs")
    return problems


def _answer(result) -> tuple:
    return (
        result.status,
        result.answer,
        result.cardinality,
        tuple(sorted(tuple(sorted(s)) for s in result.solutions)),
    )


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def cold_setup_seconds(workload: str) -> float:
    """Median wall time of fresh runner processes reaching 'ready'."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE,
        )
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
        finally:
            proc.stdout.close()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed")
    return statistics.median(samples)


def end_to_end(passes: list[dict], refs: dict, setup_s: float) -> dict:
    """The end-to-end metrics over the timed passes of one run.

    Each device's latency is its median over the passes, and the
    window's wall and CPU time are the medians of the passes' windows.
    """
    n = len(passes[0]["results"])
    results = [r for p in passes for r in p["results"]]
    ok = sum(r.status == "ok" for r in results)
    minimal = sum(
        r.status == "ok"
        and r.cardinality == refs[base_id(r.device_id)]["min_card"]
        for r in results
    )
    lat = [
        statistics.median(p["latencies"][key] for p in passes)
        for key in passes[0]["latencies"]
    ]
    return {
        "devices_per_sec": n / statistics.median(p["wall"] for p in passes),
        "latency_p50_s": statistics.median(lat),
        "latency_p90_s": statistics.quantiles(lat, n=10)[8],
        "cpu_s_per_device": statistics.median(p["cpu"] for p in passes) / n,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ok_rate": ok / len(results),
        "min_card_rate": minimal / len(results),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pool-seed", type=int, default=0,
                        help="mint and serve another pool (default: the "
                        "committed pool 0)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_hash_seed()
    spec = WORKLOADS[args.workload]
    cores = os.sched_getaffinity(0)
    try:
        import_repro()
    except ImportError as exc:
        print(f"cannot import the repro package from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        setup(spec, sorted(spec["take"]))
        print("ready", flush=True)
        return 0

    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    pool_lines, refs = load_pool(args.pool_seed)
    lines = fleet_lines(spec, pool_lines, args.seed)
    OUT.mkdir(exist_ok=True)
    journal_path = (
        OUT / f"{args.workload}-{os.getpid()}.wal" if spec["stream"] else None
    )
    record = {"workload": args.workload, "seed": args.seed,
              "machine": machine_record(len(cores)), "calibration_s": [calibrate()]}
    problems: list[str] = []
    if args.trace:
        from spans import Tracer, layer_metrics

        # The first pass of a process runs cold (a cold untraced pass
        # made the ratio read 0.93), so a tenth of the inputs warms the
        # process up before the untraced baseline.  Both measured
        # passes then start from a fresh set-up.
        serve(spec, lines[: max(1, len(lines) // 10)],
              journal_path=journal_path)
        plain = serve(spec, lines, journal_path=journal_path)["passes"][0]
        problems += check(args.workload, plain, refs)
        tracer = Tracer()
        tracer.install()
        try:
            run = serve(spec, lines, tracer=tracer,
                        journal_path=journal_path)["passes"][0]
        finally:
            tracer.uninstall()
        problems += check(args.workload, run, refs)
        metrics = layer_metrics(tracer, run["results"], run["stats"])
        metrics["trace.overhead_ratio"] = run["wall"] / plain["wall"]
        spans_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path)
        record["spans"] = str(spans_path.relative_to(ROOT))
        declared = bench["per_layer"]
        passes = [run]
    else:
        setup_s = cold_setup_seconds(args.workload)
        passes = serve(spec, lines, passes=spec["passes"],
                       warm_up=spec["passes"] > 1,
                       journal_path=journal_path)["passes"]
        for run in passes:
            problems += check(args.workload, run, refs)
        metrics = end_to_end(passes, refs, setup_s)
        declared = bench["end_to_end"]
    record["calibration_s"].append(calibrate())
    record.update(devices=len(passes[0]["results"]),
                  wall_s=[p["wall"] for p in passes],
                  cpu_s=[p["cpu"] for p in passes],
                  host_stalls_s=[p["host"] for p in passes],
                  problems=problems[:20])
    print(json.dumps(record), flush=True)
    for problem in problems:
        print(problem, file=sys.stderr)
    results = [r for p in passes for r in p["results"]]
    print(json.dumps({
        "correct": not problems,
        "attempted": len(results),
        "failed": sum(r.status != "ok" for r in results),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }), flush=True)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
