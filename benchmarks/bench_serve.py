"""Serving-policy bench: the sharded ladder service vs. sequential runs.

The PR-7 acceptance bench.  A pinned multi-design device fleet (each
device = one injected-fault workload's *observed* responses against the
golden design netlist, with repeated failure signatures mixed in) flows
through :class:`repro.serve.DiagnosisService` — sharded, per-design
artifact cache, the min-cardinality strategy ladder (greedy, which
reports its sweep's singleton layer before any climb, then bsat; first
rung with an answer wins) — and through the
**single-session sequential baseline**: one fresh session per device,
every rung of the same ladder run back to back *to completion* (the
pre-service way of producing every answer, cf. the per-instance races
of ``bench_candidate_search.py``).

Gates (all assert-or-fail):

* throughput: the service beats the baseline in devices/sec AND at both
  p50 and p99 per-device latency (baseline latencies are queue-free —
  generous to the baseline);
* build-once: the per-design master-encoding skeleton is built exactly
  once per design however many devices flow through (cache counters);
* batching: every repeated-signature device is served from the memo;
* parity: every service answer is observation-consistent, and replaying
  the winning rung sequentially on a fresh single session reproduces
  the service's solutions bit-identically (validity + cardinality
  parity); with the ladder restricted to ``bsat`` (policy ``complete``)
  the service's per-device answers are bit-identical to the sequential
  reference enumeration;
* fall-through: on the fleet's devices with no valid single-gate
  correction greedy's singleton layer is empty and its climbs answer;
  served closed-loop, the default ladder's per-device p50 on them stays
  within 1.5x of a greedy-only service's.

* deadline bound: the tight-deadline leg serves 16 two-error
  sim1423/sim6669 devices with a 30 ms deadline and two attempts on a
  warm design cache; every device must resolve within
  ``attempts x (timeout + GRACE_S)`` plus the watchdog interval and a
  small slack, whatever it resolves as.  The counts of ``ok``,
  ``degraded/valid-sampled``, ``degraded/guidance`` and ``timeout``
  and the p50/p99 latency are reported, not gated.

``--chaos`` adds a robustness leg (the PR-9 serve-chaos CI job): the
same fleet reruns under seeded shard-kill injection with a result
journal attached, gating that throughput stays within 2x the clean
service wall, every device still resolves ``ok``, and resuming from the
journal replays the whole fleet bit-identically without re-diagnosis.

``--workers N`` adds the process-mode leg (the PR-10 acceptance, CI's
``serve-procs`` job): a **core-bound** multi-design fleet — bsat-only,
``policy="complete"``, unique signatures, so every device is genuinely
GIL-bound solver work with no cheap ladder rung or memo shortcut to
hide behind — runs through the thread service (``--workers 0``
semantics) and through :class:`repro.serve.ProcessDiagnosisService`
with ``N`` design-sharded worker processes.  Gates: process mode is
>=1.5x devices/sec over thread mode (enforced when >=2 cores are
available — the whole point is core parallelism; on a single core the
ratio is reported but the gate and its baseline entry are skipped with
the reason), per-device result sets bit-identical to both thread mode
and the sequential reference enumeration, skeletons built exactly once
per design *per owning worker*, and a kill-worker chaos sub-leg
(SIGKILL of a live worker mid-fleet, parent journal attached) where
every device still resolves exactly once and the journal replays
bit-identically on resume.

Run directly (CI runs ``--smoke``, ``--smoke --chaos`` and
``--smoke --workers 2``)::

    PYTHONPATH=../src python bench_serve.py --smoke

Artifacts: ``benchmarks/out/serve.json`` with a ``gated_ratios`` block
diffed against the committed ``BENCH_serve.json`` by
``compare_baseline.py``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import statistics
import sys
import time
from pathlib import Path

from repro.circuits.library import get_circuit
from repro.diagnosis import DiagnosisSession
from repro.experiments import make_workload
from repro.serve import (
    DEFAULT_STRATEGIES,
    ChaosInjector,
    DesignCache,
    DeviceReport,
    DiagnosisService,
    ProcessDiagnosisService,
    ResultJournal,
    check_invariants,
    read_journal,
    signature_seed,
)
from repro.serve.design import SignatureMemo
from repro.serve.race import run_leg
from repro.serve.service import GRACE_S, WATCHDOG_INTERVAL_S
from repro.testgen import TestSet
from repro.testgen.testset import Test

OUT_DIR = Path(__file__).parent / "out"

#: (design, workload seeds, duplicated-signature count) — the duplicates
#: repeat the design's first seeds verbatim, exercising the batching
#: path.  Seeds are pinned; the fleet is the "test floor".
SMOKE_FLEET = [
    # The backbone is a mid-size design where the sequential
    # run-to-completion baseline pays a real enumeration tail
    # (~0.4s/device) — the work the racing service reclaims.  A fleet of
    # trivia-size circuits would need no serving policy at all.
    ("sim1423", (1, 2, 5), 2),
    ("c17", (3, 5), 1),
]
FULL_EXTRA_FLEET = [
    ("sim1423", (7, 11, 13), 1),
    ("fig5b", (1, 2), 1),
]

#: (design, workload seed) of two-error devices (p=2, up to 8 failing
#: tests) that have no valid single-gate correction: greedy's singleton
#: layer is empty and its climbs answer.  They join the
#: fleet in both modes and carry the fall-through latency gate.
FALLTHROUGH_DEVICES = [("sim1423", 1), ("sim6669", 4)]

#: Cardinality bound carried by every device (drives the bsat rung).
K = 2
N_SHARDS = 2


def _make_device(
    circuit, design: str, seed: int, p: int = 1, m_max: int = 4
) -> DeviceReport | None:
    w = make_workload(circuit, p=p, m_max=m_max, seed=seed, allow_fewer=True)
    if not w.tests.m:
        return None
    tests = TestSet(
        tuple(Test(dict(t.vector), t.output, t.value ^ 1) for t in w.tests)
    )
    return DeviceReport(
        device_id=f"{design}-s{seed}" + (f"-p{p}" if p != 1 else ""),
        design=design,
        tests=tests,
        k=K,
    )


def _make_fallthrough_devices() -> list[DeviceReport]:
    return [
        _make_device(get_circuit(design), design, seed, p=2, m_max=8)
        for design, seed in FALLTHROUGH_DEVICES
    ]


def _make_two_error_devices(fleet) -> list[DeviceReport]:
    """Two-error devices (p=2, up to 8 failing tests) for each
    (design, seeds) entry of ``fleet``, in order."""
    return [
        _make_device(get_circuit(design), design, seed, p=2, m_max=8)
        for design, seeds in fleet
        for seed in seeds
    ]


def _make_devices(fleet) -> list[DeviceReport]:
    devices: list[DeviceReport] = []
    for design, seeds, n_dup in fleet:
        circuit = get_circuit(design)
        first_of_design: list[DeviceReport] = []
        for seed in seeds:
            device = _make_device(circuit, design, seed)
            if device is None:
                continue
            devices.append(device)
            first_of_design.append(device)
        for j in range(min(n_dup, len(first_of_design))):
            src = first_of_design[j]
            devices.append(
                DeviceReport(
                    device_id=f"{src.device_id}-dup",
                    design=design,
                    tests=src.tests,
                    k=K,
                )
            )
    return devices


def _fresh_session(
    device: DeviceReport, backend: str | None = None
) -> DiagnosisSession:
    return DiagnosisSession(
        get_circuit(device.design),
        device.tests,
        seed=signature_seed(device.signature()),
        solver_backend=backend,
    )


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[idx]


def run_baseline(devices, backend: str | None = None) -> dict:
    """One fresh session per device, every ladder rung sequentially to
    completion — no sharding, no cache, no early exit."""
    latencies: list[float] = []
    answers: dict[str, dict] = {}
    start = time.perf_counter()
    for device in devices:
        t0 = time.perf_counter()
        session = _fresh_session(device, backend)
        legs = {
            name: run_leg(
                session, name, device.k, first_only=False
            )
            for name in DEFAULT_STRATEGIES
        }
        latencies.append(time.perf_counter() - t0)
        answers[device.device_id] = legs
    wall = time.perf_counter() - start
    return {"wall": wall, "latencies": latencies, "legs": answers}


def run_service(
    devices, backend: str | None = None
) -> tuple[DiagnosisService, list, float]:
    service = DiagnosisService(
        n_shards=N_SHARDS,
        timeout=120.0,
        design_cache=DesignCache(),
        solver_backend=backend,
    )
    start = time.perf_counter()
    results = service.run(devices)
    wall = time.perf_counter() - start
    return service, results, wall


def check_parity(
    devices, results, failures: list[str], backend: str | None = None
) -> None:
    by_id = {d.device_id: d for d in devices}
    replayed: dict[tuple, tuple] = {}
    for result in results:
        device = by_id[result.device_id]
        if result.status != "ok":
            failures.append(
                f"{result.device_id}: status {result.status} "
                f"({result.error})"
            )
            continue
        if result.answer is None:
            failures.append(f"{result.device_id}: no answer")
            continue
        # Validity: the answer must be consistent with every observation.
        if not _fresh_session(device, backend).consistent(result.answer):
            failures.append(
                f"{result.device_id}: answer {result.answer} inconsistent"
            )
        # Replay the signature's winning rung sequentially on a fresh
        # single session: bit-identical solutions (and hence identical
        # answer cardinality) — the ladder only changes *when* the
        # answer arrives, never *what* the winning strategy computes.
        sig = device.signature()
        if sig not in replayed:
            replay = run_leg(
                _fresh_session(device, backend),
                result.winner,
                device.k,
                first_only=True,
            )
            replayed[sig] = tuple(replay.solutions)
        if tuple(result.solutions) != replayed[sig]:
            failures.append(
                f"{result.device_id}: {result.winner} ladder solutions "
                f"differ from the sequential replay"
            )


def check_bsat_reference(
    devices, failures: list[str], backend: str | None = None
) -> None:
    service = DiagnosisService(
        n_shards=N_SHARDS,
        strategies=("bsat",),
        policy="complete",
        timeout=120.0,
        design_cache=DesignCache(),
        solver_backend=backend,
    )
    results = service.run(devices)
    for device, result in zip(devices, results):
        if result.status != "ok":
            failures.append(
                f"{device.device_id}: bsat-only status {result.status}"
            )
            continue
        reference = run_leg(
            _fresh_session(device, backend),
            "bsat",
            device.k,
            first_only=False,
        )
        if tuple(result.solutions) != tuple(reference.solutions):
            failures.append(
                f"{device.device_id}: bsat-only service not bit-identical "
                f"to the sequential reference"
            )


#: ROADMAP's ladder gate: on fall-through devices the default ladder's
#: per-device p50 may be at most this multiple of greedy alone (greedy
#: is the ladder's first rung, so the ladder adds only its own
#: bookkeeping).
FALLTHROUGH_GATE_RATIO = 1.5

#: Closed-loop services per device and ladder; a device's latency is
#: the median, with the two ladders interleaved against host drift.
#: With three repeats one run in six read the ratio at ~2x on an
#: unchanged tree on a shared 2-vCPU host (0.95-1.02x in the others).
FALLTHROUGH_REPEATS = 7


def run_fallthrough_gate(
    devices, failures: list[str], backend: str | None = None
) -> dict:
    """Default ladder vs. greedy alone on the fall-through devices.

    Each device is served alone (one ``run([device])`` per service, one
    shard, warm design cache, emptied signature memo), so its latency
    has no queue wait in it.  Gates (appended to ``failures``): every
    default-ladder answer comes from the greedy rung (its climbs, since
    the singleton layer is empty), and the ladder's per-device p50 is at most
    :data:`FALLTHROUGH_GATE_RATIO` x the greedy-only service's.
    """
    ladders = {"ladder": DEFAULT_STRATEGIES, "greedy": ("greedy-stochastic",)}
    cache = DesignCache()
    latencies: dict[str, list[float]] = {name: [] for name in ladders}
    for device in devices:
        samples: dict[str, list[float]] = {name: [] for name in ladders}
        for _ in range(FALLTHROUGH_REPEATS):
            for name, strategies in ladders.items():
                artifacts = cache.get(device.design)
                artifacts.result_memo = SignatureMemo(cache.memo_max_entries)
                service = DiagnosisService(
                    n_shards=1,
                    strategies=strategies,
                    timeout=120.0,
                    design_cache=cache,
                    solver_backend=backend,
                )
                (result,) = service.run([device])
                if result.status != "ok":
                    failures.append(
                        f"fall-through: {device.device_id}: {name} status "
                        f"{result.status}"
                    )
                elif result.winner != "greedy-stochastic":
                    failures.append(
                        f"fall-through: {device.device_id}: {name} won by "
                        f"{result.winner}, not the greedy rung"
                    )
                samples[name].append(result.latency)
        for name in ladders:
            latencies[name].append(statistics.median(samples[name]))
    p50 = {name: statistics.median(v) for name, v in latencies.items()}
    ratio = p50["ladder"] / p50["greedy"]
    if ratio > FALLTHROUGH_GATE_RATIO:
        failures.append(
            f"fall-through: ladder p50 {p50['ladder'] * 1e3:.1f}ms is "
            f"{ratio:.2f}x greedy alone ({p50['greedy'] * 1e3:.1f}ms; "
            f"> {FALLTHROUGH_GATE_RATIO}x)"
        )
    return {
        "devices": [d.device_id for d in devices],
        "ladder_p50": p50["ladder"],
        "greedy_p50": p50["greedy"],
        "ratio": ratio,
        "gate_ratio": FALLTHROUGH_GATE_RATIO,
    }


#: Tight-deadline leg: two-error devices (p=2, up to 8 failing tests)
#: per design, unique signatures, a deadline shorter than most of their
#: ladders, two attempts each.
TIGHT_FLEET = [("sim1423", range(1, 9)), ("sim6669", range(1, 9))]
TIGHT_TIMEOUT = 0.03
TIGHT_ATTEMPTS = 2

#: Scheduling slack on the tight-deadline bound: dispatch, GIL hand-offs
#: between the shards, the client and the watchdog.
TIGHT_SLACK = 0.1


def run_tight_deadline_leg(
    failures: list[str], backend: str | None = None
) -> dict:
    """Serve :data:`TIGHT_FLEET` under :data:`TIGHT_TIMEOUT` on a warm
    design cache.

    Gate (appended to ``failures``): every device resolves within
    ``TIGHT_ATTEMPTS x (TIGHT_TIMEOUT + GRACE_S)`` plus the watchdog
    interval and :data:`TIGHT_SLACK`.  What the devices resolve as is
    reported, not gated: it depends on how much of each ladder fits in
    the deadline on the host.
    """
    devices = _make_two_error_devices(TIGHT_FLEET)
    cache = DesignCache()
    for design, _ in TIGHT_FLEET:
        cache.get(design)
    service = DiagnosisService(
        n_shards=N_SHARDS,
        timeout=TIGHT_TIMEOUT,
        max_attempts=TIGHT_ATTEMPTS,
        design_cache=cache,
        solver_backend=backend,
    )
    results = service.run(devices)
    counts = collections.Counter(
        f"degraded/{r.validity}" if r.status == "degraded" else r.status
        for r in results
    )
    latencies = [r.latency for r in results]
    bound = (
        TIGHT_ATTEMPTS * (TIGHT_TIMEOUT + GRACE_S)
        + WATCHDOG_INTERVAL_S
        + TIGHT_SLACK
    )
    for result in results:
        if result.latency > bound:
            failures.append(
                f"tight deadline: {result.device_id} resolved "
                f"{result.status} after {result.latency:.3f}s "
                f"(> {bound:.3f}s bound)"
            )
    return {
        "n_devices": len(devices),
        "timeout": TIGHT_TIMEOUT,
        "max_attempts": TIGHT_ATTEMPTS,
        "bound": bound,
        "counts": {
            key: counts.get(key, 0)
            for key in (
                "ok", "degraded/valid-sampled", "degraded/guidance",
                "timeout", "error",
            )
        },
        "p50": _percentile(latencies, 0.50),
        "p99": _percentile(latencies, 0.99),
        "max": max(latencies),
    }


#: Shard count for the chaos leg: killing one of three leaves two
#: survivors, so the 2x-of-clean throughput gate measures re-routing
#: cost, not the raw serialization of a lone surviving shard.
CHAOS_SHARDS = 3

#: Absolute allowance on the chaos throughput gate: one shard kill
#: legitimately costs re-running a single device's ladder from scratch
#: plus a watchdog tick — a fixed cost that dwarfs a sub-100ms smoke
#: fleet's clean wall but is irrelevant at scale.  The gate still trips
#: on what it guards: a killed shard parking devices until their full
#: attempt deadline (a 120s hang, not a 0.x-second retry).
CHAOS_WALL_SLACK = 0.75


def run_chaos(
    devices,
    failures: list[str],
    solver_backend: str | None = None,
    seed: int = 0,
    journal_path=None,
) -> dict:
    """Chaos leg: the same fleet under seeded shard-kills with a journal.

    Gates (appended to ``failures``):

    * the injections actually fired, and every device still resolved
      ``ok`` (retried elsewhere — no lost or duplicated devices, per
      :func:`repro.serve.check_invariants`);
    * throughput under shard-kill stays within 2x of a clean reference
      pass at the same shard count, plus the fixed
      :data:`CHAOS_WALL_SLACK` cost of the one retried device
      (re-routing a dead shard's backlog is bounded work — the gate
      exists to catch devices parked until their attempt deadline);
    * the journal written during the chaos run replays **bit-identically**
      on resume: a fresh service serves the whole fleet from the WAL
      without re-diagnosing a single device.
    """
    path = (
        Path(journal_path)
        if journal_path is not None
        else OUT_DIR / "serve-chaos.wal"
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        path.unlink()  # the journal appends; each bench run starts clean

    # Clean reference at the chaos shard count — measured back to back
    # with the chaos pass so the 2x gate compares like with like.
    clean = DiagnosisService(
        n_shards=CHAOS_SHARDS,
        timeout=120.0,
        design_cache=DesignCache(),
        solver_backend=solver_backend,
    )
    start = time.perf_counter()
    clean.run(devices)
    clean_wall = time.perf_counter() - start

    injector = ChaosInjector(
        seed=seed, kinds=("kill_shard",), max_per_kind=1, horizon=4
    )
    journal = ResultJournal(path)
    service = DiagnosisService(
        n_shards=CHAOS_SHARDS,
        timeout=120.0,
        max_attempts=3,
        design_cache=DesignCache(),
        solver_backend=solver_backend,
        fault_hook=injector.fault_hook,
        journal=journal,
    )
    start = time.perf_counter()
    results = service.run(devices)
    wall = time.perf_counter() - start
    journal.close()

    if injector.fired("kill_shard") == 0:
        failures.append("chaos: no shard-kill injection fired")
    for problem in check_invariants(
        devices, results, service=service, journal_path=path
    ):
        failures.append(f"chaos: {problem}")
    for result in results:
        if result.status != "ok":
            failures.append(
                f"chaos: {result.device_id}: status {result.status} "
                f"under shard-kill"
            )
    if wall > 2.0 * clean_wall + CHAOS_WALL_SLACK:
        failures.append(
            f"chaos: wall {wall:.3f}s exceeds 2x the clean service "
            f"wall {clean_wall:.3f}s (+{CHAOS_WALL_SLACK}s retry slack)"
        )

    replay = read_journal(path)
    resumed = DiagnosisService(
        n_shards=CHAOS_SHARDS,
        timeout=120.0,
        design_cache=DesignCache(),
        solver_backend=solver_backend,
        resume_from=replay,
    )
    replayed = resumed.run(devices)
    for original, again in zip(results, replayed):
        if not again.journal_replayed:
            failures.append(
                f"chaos: {again.device_id}: re-diagnosed on resume "
                f"instead of served from the journal"
            )
        elif again.answer != original.answer or tuple(
            again.solutions
        ) != tuple(original.solutions):
            failures.append(
                f"chaos: {again.device_id}: journal replay is not "
                f"bit-identical"
            )
    return {
        "seed": seed,
        "n_shards": CHAOS_SHARDS,
        "shard_kills_fired": injector.fired("kill_shard"),
        "injections": [
            {"kind": e.kind, "site": e.site, "occurrence": e.occurrence}
            for e in injector.log
        ],
        "wall": wall,
        "clean_wall": clean_wall,
        "overhead_ratio": wall / clean_wall if clean_wall > 0 else None,
        "shard_deaths": service.stats()["shard_deaths"],
        "retries": service.stats()["retries"],
        "journal": {
            "path": str(path),
            "records": replay.records,
            "resolved": len(replay.resolved),
            "stats": dict(journal.stats),
        },
        "replayed": sum(1 for r in replayed if r.journal_replayed),
    }


#: Core-bound fleet for the process-mode (`--workers N`) leg, as
#: (design, workload seeds): bsat-only complete enumeration (the
#: pure-Python CDCL solver holds the GIL for the whole solve), two
#: mid-size designs whose crc32 routing lands them on *different*
#: workers at ``--workers 2`` with near-equal aggregate solve time per
#: worker (~2-2.5 s each, so the ratio measures parallel speedup rather
#: than the straggler), unique signatures only — no duplicate to serve
#: from the memo.  Every device is two-error (p=2, up to 8 failing
#: tests) with an empty singleton layer, so the forced-value sweep
#: settles nothing and the enumeration runs in the CDCL search from
#: bound 2: no cheap rung answers first.  Thread mode has nothing left
#: to hide behind; a throughput win here is core parallelism or
#: nothing.
WORKERS_FLEET = [
    ("sim6669", (1, 6)),
    ("sim38417", (2,)),
]

#: Floor on process-mode devices/sec over thread mode at the same
#: workload (the ISSUE acceptance bar).  Enforced only when the parent
#: can actually schedule on >=2 cores — on a single core the process
#: pool *cannot* beat threads (it pays spawn + IPC for the same serial
#: CPU) and the ratio is reported ungated with the reason.
WORKERS_GATE_RATIO = 1.5

#: Solve deadline for the workers leg: generous, because the gate here
#: is relative throughput of complete enumerations, not tail-cutting.
WORKERS_TIMEOUT = 240.0

#: Admission bound of each worker in the timed process-mode pass: 3
#: queued plus the one running keeps 4 attempts in flight per worker,
#: the depth this leg has always measured at.  The fleet lists its
#: sim6669 devices first; a bound below their count would block the
#: submitter behind the sim6669 worker and start the sim38417 worker
#: later, measuring that instead of parallel speedup.
WORKERS_QUEUE_SIZE = 3

#: Worker count for the kill-worker chaos sub-leg: killing one of three
#: leaves two survivors to absorb the rerouted backlog.
WORKERS_CHAOS_WORKERS = 3


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _workers_thread_reference(
    devices, solver_backend: str | None
) -> tuple[list, float]:
    """The ``--workers 0`` side of the ratio: the thread service on the
    identical bsat-only complete workload."""
    service = DiagnosisService(
        n_shards=N_SHARDS,
        strategies=("bsat",),
        policy="complete",
        timeout=WORKERS_TIMEOUT,
        design_cache=DesignCache(),
        solver_backend=solver_backend,
    )
    start = time.perf_counter()
    results = service.run(devices)
    wall = time.perf_counter() - start
    return results, wall


def run_workers_leg(
    n_workers: int,
    failures: list[str],
    solver_backend: str | None = None,
    journal_path=None,
) -> dict:
    """Process-mode leg: design-sharded worker processes vs. threads.

    Gates (appended to ``failures``):

    * every device resolves ``ok`` in both modes;
    * process-mode per-device solution sets are **bit-identical** to
      thread mode *and* to the sequential reference enumeration
      (``run_leg`` on a fresh single session);
    * each design's master-encoding skeleton is built exactly once
      fleet-wide, inside the one worker that owns the design;
    * process mode is >= :data:`WORKERS_GATE_RATIO` x devices/sec over
      thread mode — enforced only when >=2 cores are available (the
      ratio is always reported; ``gated`` records whether it counted);
    * the kill-worker chaos sub-leg (:func:`run_workers_chaos`).
    """
    devices = _make_two_error_devices(WORKERS_FLEET)
    thread_results, thread_wall = _workers_thread_reference(
        devices, solver_backend
    )

    # Spawn + per-worker warm-up happen before the timed window: the
    # pool is a long-lived server, its startup is not per-fleet cost.
    pool = ProcessDiagnosisService(
        n_workers=n_workers,
        queue_size=WORKERS_QUEUE_SIZE,
        strategies=("bsat",),
        policy="complete",
        timeout=WORKERS_TIMEOUT,
        solver_backend=solver_backend,
    )
    try:
        start = time.perf_counter()
        proc_results = pool.run(devices)
        proc_wall = time.perf_counter() - start
        stats = pool.stats()
    finally:
        pool.close()

    by_id = {r.device_id: r for r in thread_results}
    for result in proc_results:
        if result.status != "ok":
            failures.append(
                f"workers: {result.device_id}: status {result.status} "
                f"({result.error})"
            )
            continue
        thread_result = by_id[result.device_id]
        if thread_result.status != "ok":
            failures.append(
                f"workers: {result.device_id}: thread-mode status "
                f"{thread_result.status}"
            )
            continue
        if tuple(result.solutions) != tuple(thread_result.solutions):
            failures.append(
                f"workers: {result.device_id}: process-mode solutions "
                f"differ from thread mode"
            )
        device = next(d for d in devices if d.device_id == result.device_id)
        reference = run_leg(
            _fresh_session(device, solver_backend),
            "bsat",
            device.k,
            first_only=False,
        )
        if tuple(result.solutions) != tuple(reference.solutions):
            failures.append(
                f"workers: {result.device_id}: process mode not "
                f"bit-identical to the sequential reference"
            )

    # Build-once per design *per owning worker*: fleet-wide each design
    # skeleton is built exactly once, and only inside one worker.
    builds_by_worker = {
        name: block.get("skeleton_builds", {})
        for name, block in stats.get("workers", {}).items()
    }
    for design, _ in WORKERS_FLEET:
        owners = {
            name: builds[design]
            for name, builds in builds_by_worker.items()
            if builds.get(design)
        }
        if sum(owners.values()) != 1 or len(owners) != 1:
            failures.append(
                f"workers: {design}: skeleton builds {owners or 0} "
                f"(must be exactly once in exactly one owning worker)"
            )

    cores = _available_cores()
    gated = cores >= 2
    throughput_ratio = thread_wall / proc_wall if proc_wall > 0 else None
    if gated and (
        throughput_ratio is None or throughput_ratio < WORKERS_GATE_RATIO
    ):
        failures.append(
            f"workers: process mode {throughput_ratio:.2f}x thread mode "
            f"(< {WORKERS_GATE_RATIO}x floor, {cores} cores)"
        )

    leg = {
        "n_workers": n_workers,
        "n_devices": len(devices),
        "cores": cores,
        "gated": gated,
        "gate_skip_reason": (
            None if gated else f"only {cores} core(s) available"
        ),
        "thread_wall": thread_wall,
        "proc_wall": proc_wall,
        "thread_devices_per_sec": len(devices) / thread_wall,
        "proc_devices_per_sec": len(devices) / proc_wall,
        "throughput_ratio": throughput_ratio,
        "stats": stats,
    }
    leg["chaos"] = run_workers_chaos(
        devices,
        failures,
        solver_backend=solver_backend,
        journal_path=journal_path,
    )
    return leg


def run_workers_chaos(
    devices,
    failures: list[str],
    solver_backend: str | None = None,
    seed: int = 0,
    journal_path=None,
) -> dict:
    """Kill-worker chaos sub-leg: SIGKILL a live worker mid-fleet.

    Gates (appended to ``failures``): the kill actually fired and a
    worker actually died; every device still resolves ``ok`` exactly
    once (rerouted to survivors, per
    :func:`repro.serve.check_invariants`); and the parent-owned journal
    replays the whole fleet **bit-identically** on resume — through a
    *fresh* process pool at a different worker count, because the WAL
    is topology-agnostic.
    """
    path = (
        Path(journal_path)
        if journal_path is not None
        else OUT_DIR / "serve-procs.wal"
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        path.unlink()  # the journal appends; each bench run starts clean

    injector = ChaosInjector(
        seed=seed, kinds=("kill_worker",), max_per_kind=1, horizon=4
    )
    journal = ResultJournal(path)
    pool = ProcessDiagnosisService(
        n_workers=WORKERS_CHAOS_WORKERS,
        strategies=("bsat",),
        policy="complete",
        timeout=WORKERS_TIMEOUT,
        solver_backend=solver_backend,
        journal=journal,
        worker_kill_hook=injector.worker_kill_hook,
    )
    try:
        start = time.perf_counter()
        results = pool.run(devices)
        wall = time.perf_counter() - start
        stats = pool.stats()
        problems = check_invariants(
            devices, results, service=pool, journal_path=path
        )
    finally:
        pool.close()
        journal.close()

    if injector.fired("kill_worker") == 0:
        failures.append("workers-chaos: no kill-worker injection fired")
    if stats["worker_deaths"] == 0:
        failures.append("workers-chaos: injection fired but no worker died")
    for problem in problems:
        failures.append(f"workers-chaos: {problem}")
    for result in results:
        if result.status != "ok":
            failures.append(
                f"workers-chaos: {result.device_id}: status "
                f"{result.status} under worker-kill ({result.error})"
            )

    replay = read_journal(path)
    resumed = ProcessDiagnosisService(
        n_workers=2,
        strategies=("bsat",),
        policy="complete",
        timeout=WORKERS_TIMEOUT,
        solver_backend=solver_backend,
        resume_from=replay,
    )
    try:
        replayed = resumed.run(devices)
    finally:
        resumed.close()
    for original, again in zip(results, replayed):
        if not again.journal_replayed:
            failures.append(
                f"workers-chaos: {again.device_id}: re-diagnosed on "
                f"resume instead of served from the journal"
            )
        elif again.answer != original.answer or tuple(
            again.solutions
        ) != tuple(original.solutions):
            failures.append(
                f"workers-chaos: {again.device_id}: journal replay is "
                f"not bit-identical"
            )
    return {
        "seed": seed,
        "n_workers": WORKERS_CHAOS_WORKERS,
        "worker_kills_fired": injector.fired("kill_worker"),
        "injections": [
            {"kind": e.kind, "site": e.site, "occurrence": e.occurrence}
            for e in injector.log
        ],
        "wall": wall,
        "worker_deaths": stats["worker_deaths"],
        "reroutes": stats["reroutes"],
        "journal": {
            "path": str(path),
            "records": replay.records,
            "resolved": len(replay.resolved),
            "stats": dict(journal.stats),
        },
        "replayed": sum(1 for r in replayed if r.journal_replayed),
    }


def run(
    smoke: bool,
    solver_backend: str | None = None,
    chaos: bool = False,
    chaos_seed: int = 0,
    chaos_journal=None,
    workers: int = 0,
    workers_journal=None,
) -> dict:
    fleet = list(SMOKE_FLEET)
    if not smoke:
        fleet += FULL_EXTRA_FLEET
    fallthrough = _make_fallthrough_devices()
    devices = _make_devices(fleet) + fallthrough
    n_dup = sum(min(d, len(s)) for _, s, d in fleet)
    failures: list[str] = []

    baseline = run_baseline(devices, solver_backend)
    service, results, service_wall = run_service(devices, solver_backend)
    stats = service.stats()

    service_latencies = [r.latency for r in results]
    base_p50 = _percentile(baseline["latencies"], 0.50)
    base_p99 = _percentile(baseline["latencies"], 0.99)
    serve_p50 = _percentile(service_latencies, 0.50)
    serve_p99 = _percentile(service_latencies, 0.99)
    throughput_ratio = baseline["wall"] / service_wall
    report = {
        "smoke": smoke,
        "solver_backend": solver_backend or "arena",
        "n_devices": len(devices),
        "n_designs": len({d.design for d in devices}),
        "n_shards": N_SHARDS,
        "baseline": {
            "wall": baseline["wall"],
            "devices_per_sec": len(devices) / baseline["wall"],
            "p50": base_p50,
            "p99": base_p99,
        },
        "service": {
            "wall": service_wall,
            "devices_per_sec": len(devices) / service_wall,
            "p50": serve_p50,
            "p99": serve_p99,
            "stats": stats,
        },
        "devices": [r.to_dict() for r in results],
        "gated_ratios": {
            "serve:throughput": throughput_ratio,
            "serve:p50": base_p50 / serve_p50 if serve_p50 > 0 else None,
            "serve:p99": base_p99 / serve_p99 if serve_p99 > 0 else None,
        },
    }

    # -- acceptance gates ---------------------------------------------
    for key, ratio in report["gated_ratios"].items():
        if ratio is None or ratio <= 1.0:
            failures.append(
                f"{key}: service does not beat the sequential baseline "
                f"(ratio {ratio})"
            )
    builds = stats["design_cache"]["skeleton_builds"]
    for design in sorted({d.design for d in devices}):
        if builds.get(design, 0) != 1:
            failures.append(
                f"{design}: skeleton built {builds.get(design, 0)} times "
                f"(must be exactly once per design)"
            )
    cached = sum(1 for r in results if r.cached)
    if cached != n_dup:
        failures.append(
            f"signature batching: {cached} memo-served devices, "
            f"expected {n_dup}"
        )
    check_parity(devices, results, failures, solver_backend)
    check_bsat_reference(devices, failures, solver_backend)
    report["fallthrough"] = run_fallthrough_gate(
        fallthrough, failures, solver_backend
    )
    report["tight_deadline"] = run_tight_deadline_leg(
        failures, solver_backend
    )
    if chaos:
        report["chaos"] = run_chaos(
            devices,
            failures,
            solver_backend,
            seed=chaos_seed,
            journal_path=chaos_journal,
        )
    if workers:
        leg = run_workers_leg(
            workers,
            failures,
            solver_backend,
            journal_path=workers_journal,
        )
        report["workers"] = leg
        if leg["gated"] and leg["throughput_ratio"] is not None:
            # Published (and hence baseline-diffed) only when the >=2
            # core gate applied: compare_baseline skips baseline-only
            # keys, so single-core runs neither fail nor water it down.
            report["gated_ratios"]["serve:procpool_throughput"] = leg[
                "throughput_ratio"
            ]
    report["failures"] = failures
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small pinned fleet only (the CI configuration)",
    )
    parser.add_argument(
        "--out", default=str(OUT_DIR / "serve.json"),
        help="JSON artifact path",
    )
    parser.add_argument(
        "--chaos", action="store_true",
        help="add the chaos leg: rerun the fleet under seeded "
        "shard-kills with a result journal, gating throughput (within "
        "2x clean) and bit-identical journal replay on resume",
    )
    parser.add_argument(
        "--chaos-seed", type=int, default=0, metavar="N",
        help="injection-schedule seed for --chaos",
    )
    parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="add the process-mode leg: run the core-bound fleet "
        "through ProcessDiagnosisService with N design-sharded worker "
        "processes, gating >=1.5x devices/sec over thread mode (when "
        ">=2 cores are available), bit-identical bsat-only results, "
        "build-once per design per owning worker, and kill-worker "
        "chaos with bit-identical journal replay on resume; 0 skips "
        "the leg",
    )
    parser.add_argument(
        "--solver-backend", default=None, metavar="NAME",
        help="SAT backend for every rung of the ladder — both the "
        "sequential baseline and the service (e.g. arena-jit, pitting "
        "the compiled kernels against the interpreted baseline); skips "
        "cleanly when the backend's optional dependency is unavailable",
    )
    args = parser.parse_args(argv)
    if args.solver_backend is not None:
        from repro.sat.backends import SAT_BACKENDS, unavailable_backends

        if args.solver_backend not in SAT_BACKENDS:
            reason = unavailable_backends().get(args.solver_backend)
            if reason is not None:
                print(
                    f"skipping --solver-backend {args.solver_backend}: "
                    f"{reason}"
                )
                return 0
            print(
                f"unknown backend {args.solver_backend!r}; registered: "
                f"{sorted(SAT_BACKENDS)}",
                file=sys.stderr,
            )
            return 2
    report = run(
        smoke=args.smoke,
        solver_backend=args.solver_backend,
        chaos=args.chaos,
        chaos_seed=args.chaos_seed,
        workers=args.workers,
    )
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out_path}")
    base, serve = report["baseline"], report["service"]
    print(
        f"fleet: {report['n_devices']} devices / {report['n_designs']} "
        f"designs / {report['n_shards']} shards"
    )
    print(
        f"baseline  {base['devices_per_sec']:8.1f} dev/s  "
        f"p50 {base['p50'] * 1e3:7.2f}ms  p99 {base['p99'] * 1e3:7.2f}ms"
    )
    print(
        f"service   {serve['devices_per_sec']:8.1f} dev/s  "
        f"p50 {serve['p50'] * 1e3:7.2f}ms  p99 {serve['p99'] * 1e3:7.2f}ms"
    )
    for key, ratio in report["gated_ratios"].items():
        print(f"  {key:<18} {ratio:6.2f}x")
    winners = serve["stats"]["race_winners"]
    print(
        f"ladder winners: {winners}  skipped rungs: "
        f"{serve['stats']['skipped_legs']}  signature hits: "
        f"{serve['stats']['signature_hits']}"
    )
    fall = report["fallthrough"]
    print(
        f"fall-through p50: ladder {fall['ladder_p50'] * 1e3:.1f}ms vs "
        f"greedy alone {fall['greedy_p50'] * 1e3:.1f}ms = "
        f"{fall['ratio']:.2f}x (gate <= {fall['gate_ratio']}x)"
    )
    tight = report["tight_deadline"]
    print(
        f"tight deadline ({tight['timeout'] * 1e3:.0f}ms x "
        f"{tight['max_attempts']} attempts): "
        + ", ".join(f"{n} {key}" for key, n in tight["counts"].items())
        + f"; p50 {tight['p50'] * 1e3:.1f}ms p99 {tight['p99'] * 1e3:.1f}ms "
        f"(bound {tight['bound'] * 1e3:.0f}ms)"
    )
    if "chaos" in report:
        chaos = report["chaos"]
        print(
            f"chaos: {chaos['shard_kills_fired']} shard kills "
            f"(seed {chaos['seed']})  wall {chaos['wall']:.3f}s "
            f"({chaos['overhead_ratio']:.2f}x clean)  journal replayed "
            f"{chaos['replayed']}/{report['n_devices']} devices"
        )
    if "workers" in report:
        leg = report["workers"]
        gate = (
            "gated"
            if leg["gated"]
            else f"ungated: {leg['gate_skip_reason']}"
        )
        print(
            f"workers({leg['n_workers']}): "
            f"{leg['proc_devices_per_sec']:.1f} dev/s vs thread "
            f"{leg['thread_devices_per_sec']:.1f} dev/s = "
            f"{leg['throughput_ratio']:.2f}x ({gate})"
        )
        wchaos = leg["chaos"]
        print(
            f"workers-chaos: {wchaos['worker_kills_fired']} worker kills  "
            f"deaths {wchaos['worker_deaths']}  reroutes "
            f"{wchaos['reroutes']}  journal replayed "
            f"{wchaos['replayed']}/{leg['n_devices']} devices"
        )
    if report["failures"]:
        for failure in report["failures"]:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("all serving acceptance gates passed")
    return 0


def test_serve_smoke():
    """Pytest entry point mirroring ``--smoke`` (bench suite style)."""
    report = run(smoke=True)
    assert not report["failures"], report["failures"]


def test_serve_chaos_smoke(tmp_path):
    """The chaos leg alone: seeded shard-kills with a journal, gated
    exactly as ``--smoke --chaos``."""
    devices = _make_devices(SMOKE_FLEET) + _make_fallthrough_devices()
    failures: list[str] = []
    run_chaos(
        devices, failures, journal_path=tmp_path / "serve-chaos.wal"
    )
    assert not failures, failures


def test_serve_workers_smoke(tmp_path):
    """The process-mode leg alone, gated exactly as
    ``--smoke --workers 2`` (throughput gate auto-skips below 2
    cores; bit-identity, build-once and kill-worker chaos always run)."""
    failures: list[str] = []
    run_workers_leg(
        2, failures, journal_path=tmp_path / "serve-procs.wal"
    )
    assert not failures, failures


if __name__ == "__main__":
    sys.exit(main())
