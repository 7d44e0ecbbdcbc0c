"""Process-pool service: design sharding, kills, cancels, journal.

Every test here spawns real worker processes (~0.5s each), so the
suite stays deliberately lean: one pool per scenario, small fleets,
the heavy mid-solve-cancel device only where the test needs a solve
long enough to cancel.
"""

import threading
import time

import pytest

from repro.circuits import library
from repro.diagnosis import DiagnosisSession, diagnose
from repro.serve import (
    DEFAULT_STRATEGIES,
    ChaosInjector,
    DiagnosisService,
    ProcessDiagnosisService,
    ResultJournal,
    check_invariants,
    read_journal,
    signature_seed,
)

from tests.serve._devices import make_device


def _fleet():
    """Two designs (crc32-routed to different workers at 2), one
    duplicated signature to exercise the worker-local memo."""
    return [
        make_device("d0", design="c17", seed=3),
        make_device("d1", design="sim1423", seed=1, k=2),
        make_device("d2", design="c17", seed=5),
        make_device("d3", design="c17", seed=3),  # same signature as d0
    ]


def test_exactly_once_order_and_memo():
    devices = _fleet()
    with ProcessDiagnosisService(n_workers=2, timeout=60.0) as pool:
        results = pool.run(devices)
        stats = pool.stats()
    assert [r.device_id for r in results] == ["d0", "d1", "d2", "d3"]
    assert all(r.status == "ok" for r in results)
    by_id = {r.device_id: r for r in results}
    # The duplicate signature is served from the owning worker's memo
    # with the identical answer — the memo contract stays process-local.
    assert by_id["d3"].cached is True
    assert by_id["d3"].answer == by_id["d0"].answer
    # Same design -> same owning worker (design sharding, not devices).
    assert by_id["d3"].worker == by_id["d0"].worker == by_id["d2"].worker
    assert by_id["d1"].worker != by_id["d0"].worker
    assert stats["devices"] == 4
    assert stats["signature_hits"] == 1
    assert stats["failures"] == 0
    assert stats["worker_deaths"] == 0


def test_stats_sum_per_worker_counters():
    devices = _fleet()
    with ProcessDiagnosisService(n_workers=2, timeout=60.0) as pool:
        pool.run(devices)
        stats = pool.stats()
    blocks = list(stats["workers"].values())
    # Dispatcher totals are exactly the per-worker sums — lossless for
    # every counter an operator reads off thread mode.
    for key in ("signature_hits", "memo_stores", "cancelled_legs",
                "skipped_legs"):
        assert sum(b[key] for b in blocks) == stats[key]
    assert stats["signature_hits"] == 1
    assert stats["memo_stores"] == 3
    assert stats["timeouts"] == stats["retries"] == 0
    # The dispatcher counts one winner per resolution; clean run = every
    # worker-side ladder run or memo hit surfaced exactly once.
    assert sum(stats["race_winners"].values()) == 4
    assert sum(b["races"] + b["signature_hits"] for b in blocks) == 4
    # --stats surfaces: per-worker processed, queue high-water, liveness.
    assert sum(b["processed"] for b in blocks) == stats["devices"] == 4
    assert all(b["queue_high_water"] >= 1 for b in blocks)
    assert all(b["alive"] is True for b in blocks)
    # Design artifacts live only in the workers: one build per design,
    # in its owning worker, and no parent-side design cache.
    assert "design_cache" not in stats
    assert sum(b["designs_built"] for b in blocks) == 2


def test_bsat_only_bit_identical_to_thread_mode():
    devices = [
        make_device("b0", design="c17", seed=3, k=2),
        make_device("b1", design="sim1423", seed=1, k=2),
        make_device("b2", design="sim1423", seed=2, k=2),
    ]
    # The bsat-only reference mode, and the default ladder.
    for options in (
        {"strategies": ("bsat",), "policy": "complete"},
        {"strategies": DEFAULT_STRATEGIES, "policy": "first"},
    ):
        thread = DiagnosisService(n_shards=2, timeout=60.0, **options)
        expected = {r.device_id: r for r in thread.run(devices)}
        with ProcessDiagnosisService(
            n_workers=2, timeout=60.0, **options
        ) as pool:
            results = pool.run(devices)
        for result in results:
            assert result.status == "ok"
            reference = expected[result.device_id]
            assert result.answer == reference.answer
            assert result.cardinality == reference.cardinality
            assert result.winner == reference.winner
            assert tuple(result.solutions) == tuple(reference.solutions)


def test_worker_death_reroutes_to_survivors():
    devices = _fleet()
    killed: list[int] = []

    def kill_first(worker_index: int, device_id: str) -> bool:
        if not killed:
            killed.append(worker_index)
            return True
        return False

    with ProcessDiagnosisService(
        n_workers=2, timeout=60.0, worker_kill_hook=kill_first
    ) as pool:
        results = pool.run(devices)
        stats = pool.stats()
    assert killed, "kill hook never fired"
    assert all(r.status == "ok" for r in results), [
        (r.device_id, r.status, r.error) for r in results
    ]
    assert stats["worker_deaths"] == 1
    assert stats["reroutes"] >= 1
    assert stats["workers"][f"worker{killed[0]}"]["alive"] is False
    assert len(results) == len(devices)


def test_kill_worker_chaos_exactly_once_and_replay(tmp_path):
    devices = _fleet()
    path = tmp_path / "procs.wal"
    injector = ChaosInjector(
        seed=0, kinds=("kill_worker",), max_per_kind=1, horizon=4
    )
    journal = ResultJournal(path)
    with ProcessDiagnosisService(
        n_workers=2,
        timeout=60.0,
        journal=journal,
        worker_kill_hook=injector.worker_kill_hook,
    ) as pool:
        results = pool.run(devices)
        problems = check_invariants(
            devices, results, service=pool, journal_path=path
        )
    journal.close()
    assert injector.fired("kill_worker") == 1
    assert problems == []
    assert all(r.status == "ok" for r in results)
    # Resume through a *fresh* pool at a different worker count: the
    # parent-owned WAL is topology-agnostic and replays bit-identically
    # without re-diagnosing a single device.
    with ProcessDiagnosisService(
        n_workers=1, timeout=60.0, resume_from=read_journal(path)
    ) as resumed:
        replayed = resumed.run(devices)
        assert resumed.stats()["journal_replayed"] == len(devices)
    for original, again in zip(results, replayed):
        assert again.journal_replayed is True
        assert again.answer == original.answer
        assert tuple(again.solutions) == tuple(original.solutions)


def test_cancel_device_mid_solve_abandons_without_killing_worker():
    # No single-gate correction, so the complete bsat enumeration
    # reaches the CDCL search at bound 2 (~3 s): long enough to cancel
    # midway.
    heavy = make_device("heavy", design="sim6669", seed=4, p=2, m_max=8, k=2)
    quick = make_device("after", design="sim6669", seed=1, k=2)
    with ProcessDiagnosisService(
        n_workers=1, strategies=("bsat",), policy="complete", timeout=60.0,
        max_attempts=3,
    ) as pool:
        canceller = threading.Timer(
            0.15, lambda: pool.cancel_device("heavy")
        )
        canceller.start()
        t0 = time.monotonic()
        (result,) = pool.run([heavy])
        elapsed = time.monotonic() - t0
        canceller.cancel()
        assert result.status == "timeout"
        assert "externally cancelled" in result.error
        # Abandonment, not failure handling: no retry, no degraded answer.
        assert result.attempts == 1
        assert result.degraded_rung is None
        assert elapsed < 30.0  # resolved by the cancel, not the deadline
        stats = pool.stats()
        assert stats["cancels_sent"] == 1
        assert stats["retries"] == 0 and stats["degraded"] == 0
        # The worker survives the cancel and keeps serving; the
        # abandoned attempt's late outcome is dropped, not resolved.
        (after,) = pool.run([quick])
        assert after.status == "ok"
        assert pool.stats()["late_results_dropped"] == 1
        assert pool.stats()["workers"]["worker0"]["alive"] is True


def test_deadline_exhaustion_degrades_from_the_workers_partial():
    # A device with no single-gate correction on a worker whose design
    # is warm, under the complete policy: the sweep and the first greedy
    # climbs fit inside the deadline, all sixteen climbs do not.  Each
    # of the sixteen finds a new minimum, and the deadline is half the
    # same full greedy run timed here, so the cut falls among the
    # climbs however fast the host.  The worker's outcome carries the
    # corrections found so far and the parent resolves the device with
    # them.
    device = make_device("d0", design="sim6669", seed=4, p=2, m_max=8, k=2)
    circuit = library.get_circuit("sim6669")
    full_s = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        full = diagnose(
            DiagnosisSession(
                circuit, device.tests,
                seed=signature_seed(device.signature()),
            ),
            strategy="greedy-stochastic",
        )
        full_s = min(full_s, time.perf_counter() - t0)
    assert full.extras["climbs"] == full.extras["distinct_minima"] == 16
    with ProcessDiagnosisService(
        n_workers=1, policy="complete", timeout=60.0, max_attempts=1,
    ) as pool:
        warm = make_device("warm", design="sim6669", seed=3, p=2, m_max=8)
        assert pool.run([warm])[0].status == "ok"
        pool.timeout = full_s / 2  # read per dispatch
        (result,) = pool.run([device])
        stats = pool.stats()
    assert result.status == "degraded", result.error
    assert (result.degraded_rung, result.validity) == (
        "approximate", "valid-sampled"
    )
    # The partial is a prefix of the same seeded greedy run, cut short.
    assert result.solutions
    assert set(result.solutions) < set(full.solutions)
    assert result.answer == tuple(
        sorted(min(result.solutions, key=lambda s: (len(s), sorted(s))))
    )
    assert "deadline exceeded on worker 0" in result.error
    assert stats["timeouts"] == 1 and stats["late_results_dropped"] == 0
    assert stats["degraded"] == 1 and stats["failures"] == 0
    assert "design_cache" not in stats
    assert stats["workers"]["worker0"]["designs_built"] == 1


def test_deadline_exhaustion_without_degrade_times_out():
    # No single-gate correction: the bsat rung needs the CDCL search.
    heavy = make_device("heavy", design="sim6669", seed=4, p=2, m_max=8, k=2)
    with ProcessDiagnosisService(
        n_workers=1, strategies=("bsat",), policy="complete", timeout=0.05,
        max_attempts=2, degrade=False,
    ) as pool:
        (result,) = pool.run([heavy])
        stats = pool.stats()
    assert result.status == "timeout"
    assert result.attempts == 2
    assert "deadline exceeded on worker 0" in result.error
    assert stats["timeouts"] == 2 and stats["failures"] == 1
    assert "design_cache" not in stats


def test_journal_resume_without_chaos(tmp_path):
    devices = _fleet()
    path = tmp_path / "clean.wal"
    journal = ResultJournal(path)
    with ProcessDiagnosisService(
        n_workers=2, timeout=60.0, journal=journal
    ) as pool:
        results = pool.run(devices)
    journal.close()
    with ProcessDiagnosisService(
        n_workers=2, timeout=60.0, resume_from=read_journal(path)
    ) as resumed:
        replayed = resumed.run(devices)
        stats = resumed.stats()
    assert all(r.journal_replayed for r in replayed)
    assert stats["journal_replayed"] == len(devices)
    assert [r.answer for r in replayed] == [r.answer for r in results]


def test_invalid_configuration_rejected_before_spawn():
    with pytest.raises(ValueError, match="n_workers"):
        ProcessDiagnosisService(n_workers=0)
    with pytest.raises(ValueError, match="unknown strategy"):
        ProcessDiagnosisService(strategies=("bsat", "nope"))
    with pytest.raises(ValueError, match="policy"):
        ProcessDiagnosisService(policy="sometimes")
    with pytest.raises(ValueError, match="at least one strategy"):
        ProcessDiagnosisService(strategies=())
    with pytest.raises(TypeError, match="fault_hook"):
        ProcessDiagnosisService(fault_hook=lambda shard, attempt: None)


def test_duplicate_device_ids_rejected():
    with ProcessDiagnosisService(n_workers=1, timeout=60.0) as pool:
        with pytest.raises(ValueError, match="duplicate device id"):
            pool.run(
                [make_device("x", seed=3), make_device("x", seed=5)]
            )
        # The rejection leaves the pool serviceable.
        (result,) = pool.run([make_device("x", seed=3)])
        assert result.status == "ok"
