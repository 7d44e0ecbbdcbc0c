"""The sharded service: exactly-once, batching, faults, retries."""

import threading
import time

import pytest

from repro.circuits import library
from repro.circuits.scan import to_combinational
from repro.diagnosis import DiagnosisSession, diagnose
from repro.diagnosis.validity import is_valid_correction
from repro.serve import (
    DesignCache,
    DeviceReport,
    DiagnosisService,
    ResultJournal,
    ShardKilled,
    check_invariants,
    read_journal,
    signature_seed,
)
from repro.serve.service import GRACE_S, WATCHDOG_INTERVAL_S
from repro.testgen import TestSet
from repro.testgen.testset import Test

from tests.diagnosis.test_singleton_sweep import full_sweep_words
from tests.serve._devices import make_device, top_marked


def test_exactly_once_and_signature_batching():
    devices = [
        make_device("d0", seed=3),
        make_device("d1", seed=5),
        make_device("d2", seed=7),
        make_device("d3", seed=3),  # identical signature to d0
    ]
    service = DiagnosisService(n_shards=2, timeout=30.0)
    results = service.run(devices)
    assert [r.device_id for r in results] == ["d0", "d1", "d2", "d3"]
    assert all(r.status == "ok" for r in results)
    by_id = {r.device_id: r for r in results}
    # d3 is the same workload as d0: it must be served from the memo...
    assert by_id["d3"].cached is True
    assert by_id["d0"].cached is False
    # ...with the identical answer (batching, not re-diagnosis).
    assert by_id["d3"].answer == by_id["d0"].answer
    stats = service.stats()
    assert stats["signature_hits"] == 1
    assert stats["memo_stores"] == 3  # one per unique signature
    assert stats["duplicate_results_dropped"] == 0
    assert stats["late_results_dropped"] == 0
    assert stats["failures"] == 0
    # The observation-independent artifacts were built exactly once.
    assert stats["design_cache"]["skeleton_builds"] == {"c17": 1}
    # Every resolution records its winning strategy — the memo-served
    # device inherits the winner of the race it batched onto.
    assert sum(stats["race_winners"].values()) == 4


def test_duplicate_device_ids_rejected():
    service = DiagnosisService(n_shards=1)
    with pytest.raises(ValueError, match="duplicate device id"):
        service.run([make_device("x", seed=3), make_device("x", seed=5)])


def test_unknown_design_resolves_as_error_not_crash():
    bad = DeviceReport(
        device_id="u0",
        design="no_such_design",
        tests=make_device("seed").tests,
    )
    service = DiagnosisService(n_shards=2, timeout=10.0)
    results = service.run([bad, make_device("ok0", seed=5)])
    assert results[0].status == "error"
    assert "no_such_design" in results[0].error
    assert results[1].status == "ok"
    assert service.stats()["failures"] == 1


def test_unknown_strategy_rejected_at_construction():
    with pytest.raises(ValueError, match="unknown strategy"):
        DiagnosisService(strategies=("greedy-stochastic", "nope"))


def test_shard_death_retries_on_another_shard():
    state = {"killed": None}

    def hook(shard_index, attempt):
        if attempt.device.device_id == "d0" and state["killed"] is None:
            state["killed"] = shard_index
            raise ShardKilled("injected crash")

    service = DiagnosisService(
        n_shards=3, timeout=30.0, max_attempts=2, fault_hook=hook
    )
    results = service.run(
        [make_device("d0", seed=3), make_device("d1", seed=5)]
    )
    assert [r.device_id for r in results] == ["d0", "d1"]
    assert all(r.status == "ok" for r in results)
    d0 = results[0]
    assert d0.attempts == 2
    assert d0.shard != state["killed"]  # retried *elsewhere*
    stats = service.stats()
    assert stats["shard_deaths"] == 1
    assert stats["retries"] == 1
    assert stats["duplicate_results_dropped"] == 0


def test_hung_shard_watchdog_retries_elsewhere():
    state = {"hung": None}

    def hook(shard_index, attempt):
        if attempt.device.device_id == "d0" and state["hung"] is None:
            state["hung"] = shard_index
            time.sleep(0.5)

    service = DiagnosisService(
        n_shards=2, timeout=0.15, max_attempts=2, fault_hook=hook
    )
    results = service.run([make_device("d0", seed=3, k=2)])
    (d0,) = results
    assert d0.status == "ok"
    assert d0.attempts == 2
    assert d0.shard != state["hung"]
    stats = service.stats()
    assert stats["timeouts"] == 1
    assert stats["retries"] == 1
    # The hung attempt's late outcome was dropped, not double-counted:
    # exactly one extra resolution attempt, zero lost devices.
    assert (
        stats["duplicate_results_dropped"] + stats["late_results_dropped"]
        == 1
    )


def test_deadline_exhausts_attempts_to_timeout_status():
    def hook(shard_index, attempt):
        time.sleep(0.4)

    service = DiagnosisService(
        n_shards=2, timeout=0.1, max_attempts=2, fault_hook=hook,
        degrade=False,
    )
    results = service.run([make_device("d0", seed=3, k=2)])
    (d0,) = results
    assert d0.status == "timeout"
    assert d0.attempts == 2
    assert "deadline exceeded" in d0.error
    stats = service.stats()
    assert stats["timeouts"] == 2
    assert stats["failures"] == 1


def test_hung_attempts_time_out_even_with_degrade():
    # Same hang as above with degradation on: no attempt ever ran its
    # ladder, so there is nothing to degrade to.
    def hook(shard_index, attempt):
        time.sleep(0.4)

    service = DiagnosisService(
        n_shards=2, timeout=0.1, max_attempts=2, fault_hook=hook
    )
    (d0,) = service.run([make_device("d0", seed=3, k=2)])
    assert d0.status == "timeout" and d0.degraded_rung is None
    assert service.stats()["degraded"] == 0


def _wait_for_stop(budget) -> None:
    while not budget.poll():
        time.sleep(0.002)


def _warm_cache(*designs: str) -> DesignCache:
    cache = DesignCache()
    for design in designs:
        cache.get(design)
    return cache


def _climbs_wait_for_stop(monkeypatch) -> None:
    """Make every greedy climb wait for its budget to stop first, so a
    ladder that climbs outlasts any deadline, however fast the host."""
    import repro.diagnosis.greedy as greedy_mod

    minimize = greedy_mod._minimize

    def wait_then_climb(*args, budget=None, **kwargs):
        _wait_for_stop(budget)
        return minimize(*args, budget=budget, **kwargs)

    monkeypatch.setattr(greedy_mod, "_minimize", wait_then_climb)


def _serve_climbs_into_the_deadline(monkeypatch, **options):
    # A device with no single-gate correction: each attempt's sweep
    # finishes, then its first greedy climb runs into the attempt's
    # deadline.
    _climbs_wait_for_stop(monkeypatch)
    device = make_device("d0", design="sim1423", seed=1, p=2, m_max=8, k=2)
    service = DiagnosisService(
        n_shards=2,
        timeout=0.3,
        max_attempts=2,
        design_cache=_warm_cache("sim1423"),
        **options,
    )
    (result,) = service.run([device])
    return device, service, result


def test_deadline_exhaustion_degrades_instead_of_timing_out(monkeypatch):
    # The last attempt's ladder resolves the device from what it already
    # held: the finished sweep's top-marked gates, as guidance.
    device, service, d0 = _serve_climbs_into_the_deadline(monkeypatch)
    assert d0.status == "degraded"
    assert (d0.degraded_rung, d0.validity) == ("guidance", "guidance")
    assert d0.answer is None and d0.cardinality is None
    assert d0.solutions == top_marked(device)
    assert d0.attempts == 2
    assert "deadline exceeded on shard" in d0.error
    stats = service.stats()
    assert stats["degraded"] == 1 and stats["failures"] == 0
    assert stats["timeouts"] == 2 and stats["retries"] == 1
    # Each attempt's own cancelled outcome retried or resolved the
    # device; the watchdog never beat it to one.
    assert stats["late_results_dropped"] == 0
    assert check_invariants([device], [d0], service=service) == []


def test_no_degrade_ignores_the_partial(monkeypatch):
    _, service, d0 = _serve_climbs_into_the_deadline(
        monkeypatch, degrade=False
    )
    assert d0.status == "timeout" and d0.degraded_rung is None
    assert d0.solutions == () and d0.attempts == 2
    assert service.stats()["failures"] == 1


def test_interrupted_complete_rung_resolves_valid_sampled(monkeypatch):
    # A complete-policy greedy rung interrupted by the deadline after its
    # first climb: its solutions so far are the degraded answer.
    import repro.diagnosis.greedy as greedy_mod

    minimize = greedy_mod._minimize

    def climb_then_wait(*args, budget=None, **kwargs):
        minimal = minimize(*args, budget=budget, **kwargs)
        _wait_for_stop(budget)
        return minimal

    monkeypatch.setattr(greedy_mod, "_minimize", climb_then_wait)
    device = make_device("d0", design="sim1423", seed=1, p=2, m_max=8)
    service = DiagnosisService(
        n_shards=1,
        strategies=("greedy-stochastic",),
        policy="complete",
        timeout=0.3,
        max_attempts=1,
        design_cache=_warm_cache("sim1423"),
    )
    (d0,) = service.run([device])
    assert d0.status == "degraded"
    assert (d0.degraded_rung, d0.validity) == ("approximate", "valid-sampled")
    assert d0.solutions
    assert d0.answer == tuple(
        sorted(min(d0.solutions, key=lambda s: (len(s), sorted(s))))
    )
    assert d0.cardinality == len(d0.answer)
    # Def. 3: every sampled solution is a valid correction.
    circuit = library.get_circuit("sim1423")
    for solution in d0.solutions:
        assert is_valid_correction(circuit, device.tests, solution)
    assert check_invariants([device], [d0], service=service) == []


def test_timeouts_in_one_run_resolve_within_the_deadline_bound(monkeypatch):
    # Eight devices with no single-gate correction, whose first greedy
    # climb waits for the stop: every ladder outlasts the deadline, on
    # any host, and they time out together.  No dispatcher thread
    # diagnoses, so every device resolves within its attempts'
    # deadlines plus grace, whatever the others do.  One attempt keeps
    # the bound tight enough that resolving the failures one after
    # another on one thread would overrun it.
    _climbs_wait_for_stop(monkeypatch)
    timeout, attempts = 0.03, 1
    devices = [
        make_device(f"{design}-{seed}", design=design, seed=seed, p=2,
                    m_max=8, k=2)
        for design, seeds in (("sim6669", (1, 4, 6, 10)),
                              ("sim1423", (1, 5, 8, 12)))
        for seed in seeds
    ]
    service = DiagnosisService(
        n_shards=2,
        timeout=timeout,
        max_attempts=attempts,
        design_cache=_warm_cache("sim6669", "sim1423"),
    )
    results = service.run(devices)
    assert service.stats()["timeouts"] >= 4
    bound = attempts * (timeout + GRACE_S) + WATCHDOG_INTERVAL_S + 0.1
    late = [
        (r.device_id, round(r.latency, 3))
        for r in results
        if r.latency > bound
    ]
    assert late == [], f"resolved past {bound:.2f}s"
    assert check_invariants(devices, results, service=service) == []


def test_bsat_only_service_matches_sequential_baseline_bitwise():
    devices = [
        make_device("d0", seed=3, k=2),
        make_device("d1", seed=5, k=2),
    ]
    service = DiagnosisService(
        n_shards=2, strategies=("bsat",), policy="complete", timeout=60.0
    )
    results = service.run(devices)
    for device, result in zip(devices, results):
        assert result.status == "ok"
        circuit = library.get_circuit(device.design)
        fresh = DiagnosisSession(
            circuit,
            device.tests,
            seed=signature_seed(device.signature()),
        )
        baseline = diagnose(fresh, k=2, strategy="bsat-auto-k")
        assert result.solutions == tuple(baseline.solutions)


def test_multi_lane_device_served_equals_direct_diagnose():
    """A sim1423 device with 96 tests: its words span two uint64 lanes
    and its sweep rows twelve bytes.  Served, it equals a direct
    greedy ``diagnose`` on the same seed, and its singleton words equal
    the whole-circuit stuck-at sweep's."""
    device = make_device("ml", design="sim1423", seed=2, p=1, m_max=96)
    assert 64 < len(device.tests) <= 128
    service = DiagnosisService(n_shards=1, timeout=60.0)
    [result] = service.run([device])
    assert result.status == "ok"
    assert result.winner == "greedy-stochastic"
    circuit = library.get_circuit(device.design)
    session = DiagnosisSession(
        circuit, device.tests, seed=device.session_seed()
    )
    direct = diagnose(
        session, k=None, strategy="greedy-stochastic", max_solutions=1
    )
    assert result.solutions == tuple(direct.solutions)
    space = session.space()
    assert space.singleton_rect_words() == full_sweep_words(
        circuit, device.tests, space.pool
    )


def test_service_run_is_reusable():
    service = DiagnosisService(n_shards=2, timeout=30.0)
    first = service.run([make_device("a", seed=3)])
    second = service.run([make_device("b", seed=3)])
    assert first[0].status == "ok" and second[0].status == "ok"
    # Same signature across runs: the memo survives in the design cache.
    assert second[0].cached is True
    assert second[0].answer == first[0].answer


def test_arena_jit_warm_up_paid_at_construction_not_first_device(
    monkeypatch,
):
    """No warm-up cliff on the first device: constructing the service
    with a JIT backend pays the compile up front."""
    import repro.serve.service as service_mod
    from repro.sat import compiled

    calls: list[float] = []

    def fake_warm_up():
        calls.append(time.perf_counter())
        if len(calls) == 1:
            time.sleep(0.25)  # the compile cliff, first call only

    monkeypatch.setattr(compiled, "warm_up", fake_warm_up)
    monkeypatch.setattr(
        service_mod, "resolve_backend", lambda backend: "arena-jit"
    )
    t0 = time.perf_counter()
    service = DiagnosisService(n_shards=1, timeout=30.0)
    construction = time.perf_counter() - t0
    assert len(calls) == 1
    assert construction >= 0.25  # the cliff landed here...
    (result,) = service.run([make_device("w0", seed=3)])
    assert result.status == "ok"
    assert result.latency < 0.25  # ...not on the first device
    assert len(calls) == 1  # and is never re-paid on the device path


def test_non_jit_backends_skip_eager_warm_up(monkeypatch):
    import repro.serve.service as service_mod
    from repro.sat import compiled

    calls: list[int] = []
    monkeypatch.setattr(compiled, "warm_up", lambda: calls.append(1))
    monkeypatch.setattr(
        service_mod, "resolve_backend", lambda backend: "arena"
    )
    DiagnosisService(n_shards=1, timeout=30.0)
    assert calls == []


def test_cancel_device_abandons_without_retry_or_degrade():
    # No single-gate correction, so the complete bsat enumeration
    # reaches the CDCL search at bound 2 (~3 s): long enough to cancel
    # midway.
    heavy = make_device("heavy", design="sim6669", seed=4, p=2, m_max=8, k=2)
    service = DiagnosisService(
        n_shards=1,
        strategies=("bsat",),
        policy="complete",
        timeout=30.0,
        max_attempts=3,
    )
    timer = threading.Timer(0.15, lambda: service.cancel_device("heavy"))
    timer.start()
    t0 = time.perf_counter()
    (result,) = service.run([heavy])
    elapsed = time.perf_counter() - t0
    timer.cancel()
    assert result.status == "timeout"
    assert "externally cancelled" in result.error
    # Abandonment, not failure handling: no retry, no degraded answer.
    assert result.attempts == 1
    assert result.degraded_rung is None
    assert service.stats()["retries"] == 0
    assert service.stats()["degraded"] == 0
    assert service.stats()["cancels_sent"] == 1
    assert elapsed < 10.0  # resolved by the cancel, not the deadline
    # Unknown and already-resolved devices are not cancelled.
    assert service.cancel_device("heavy") is False


def test_memo_cap_evictions_surface_in_stats():
    service = DiagnosisService(
        n_shards=1,
        timeout=30.0,
        design_cache=DesignCache(memo_max_entries=1),
    )
    devices = [
        make_device("m0", seed=3),
        make_device("m1", seed=5),
        make_device("m2", seed=7),
    ]
    results = service.run(devices)
    assert all(r.status == "ok" for r in results)
    # Three unique signatures through a one-entry memo: two evictions.
    assert service.stats()["design_cache"]["memo_evictions"] == 2
    assert service.stats()["memo_stores"] == 3


def _passing_device(device_id: str) -> DeviceReport:
    # A sim1423 device with its flipped responses flipped back: every
    # observation matches the golden design, so nothing fails.
    failing = make_device("src", design="sim1423", seed=3, k=2)
    tests = TestSet(
        tuple(
            Test(vector=dict(t.vector), output=t.output, value=t.value ^ 1)
            for t in failing.tests
        )
    )
    return DeviceReport(
        device_id=device_id, design="sim1423", tests=tests, k=2
    )


@pytest.mark.parametrize(
    "strategies",
    [None, ("greedy-stochastic",), ("bsat",)],
    ids=["default", "greedy", "bsat"],
)
def test_device_without_failures_resolves_empty_correction(
    strategies, tmp_path
):
    # Definition 3: when no observation fails the empty correction is
    # valid, so it is the only minimal one — on every ladder, and after
    # a journal round trip.
    device = _passing_device("p0")
    session = DiagnosisSession(
        library.get_circuit("sim1423"), device.tests
    )
    assert session.failing_word() == 0
    assert diagnose(session, k=2, strategy="bsat").solutions == (
        frozenset(),
    )
    options = {} if strategies is None else {"strategies": strategies}
    path = tmp_path / "serve.wal"
    journal = ResultJournal(path)
    service = DiagnosisService(
        n_shards=1, timeout=30.0, journal=journal, **options
    )
    (result,) = service.run([device])
    journal.close()
    assert result.status == "ok"
    assert result.answer == () and result.cardinality == 0
    assert result.solutions == (frozenset(),)
    (replayed,) = DiagnosisService(
        n_shards=1, resume_from=read_journal(path), **options
    ).run([device])
    assert replayed.journal_replayed
    assert replayed.answer == () and replayed.cardinality == 0


def test_sequential_design_served_on_its_full_scan_view():
    # make_workload diagnoses s27's full-scan view; the design cache
    # must load that same view, not the sequential netlist.
    device = make_device("s0", design="s27", seed=3)
    cache = DesignCache()
    assert cache.get("s27").circuit.is_combinational
    (result,) = DiagnosisService(
        n_shards=1, timeout=30.0, design_cache=cache
    ).run([device])
    assert result.status == "ok", result.error
    scan = to_combinational(library.get_circuit("s27")).circuit
    assert is_valid_correction(scan, device.tests, result.answer)


def test_shard_thread_outlives_runs_and_exits_when_idle(monkeypatch):
    # A closed-loop client calls run() once per device: the shard's
    # thread carries over between runs, exits once idle, and the next
    # attempt starts a fresh one.
    import repro.serve.shard as shard_mod

    monkeypatch.setattr(shard_mod, "IDLE_EXIT_S", 0.2)
    service = DiagnosisService(n_shards=1)
    (shard,) = service._executors
    service.run([make_device("a", seed=3)])
    thread = shard._thread
    assert thread is not None and thread.is_alive()
    service.run([make_device("b", seed=5)])
    assert shard._thread is thread
    thread.join(timeout=5.0)
    assert not thread.is_alive() and shard._thread is None
    (result,) = service.run([make_device("c", seed=7)])
    assert result.status == "ok"
    assert shard._thread is not None and shard._thread is not thread
