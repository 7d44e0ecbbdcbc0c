"""The durable result journal: WAL roundtrip, torn tails, resume."""

import contextlib
import json
from pathlib import Path

import pytest

from repro.serve import (
    DiagnosisService,
    ProcessDiagnosisService,
    ResultJournal,
    intake,
    read_journal,
    signature_key,
)
from repro.serve.service import DeviceResult

from tests.serve._devices import make_device


def _result(device_id="d0", status="ok", answer=("G10",)):
    return DeviceResult(
        device_id=device_id,
        design="c17",
        status=status,
        answer=answer,
        cardinality=len(answer) if answer is not None else None,
        solutions=(frozenset(answer),) if answer is not None else (),
        winner="bsat",
    )


# ----------------------------------------------------------------------
# WAL roundtrip
# ----------------------------------------------------------------------
def test_roundtrip_accepted_and_resolved(tmp_path):
    path = tmp_path / "serve.wal"
    with ResultJournal(path) as journal:
        journal.accepted("d0", "c17", "sig-0")
        journal.resolved("sig-0", _result())
    replay = read_journal(path)
    assert replay.records == 2
    assert replay.bad_records == 0
    assert not replay.truncated
    assert replay.accepted == {"sig-0"}
    record = replay.resolved["sig-0"]
    assert record["status"] == "ok"
    assert record["answer"] == ["G10"]
    assert record["solutions"] == [["G10"]]
    assert record["winner"] == "bsat"


def test_resolved_solutions_decode_bit_identically(tmp_path):
    path = tmp_path / "serve.wal"
    result = _result(answer=("G3", "G7"))
    result.solutions = (frozenset(("G3", "G7")), frozenset(("G9",)))
    with ResultJournal(path) as journal:
        journal.resolved("sig-0", result)
    from repro.serve.journal import _decode_solutions

    record = read_journal(path).resolved["sig-0"]
    assert _decode_solutions(record["solutions"]) == result.solutions


def test_append_after_close_raises(tmp_path):
    journal = ResultJournal(tmp_path / "serve.wal")
    journal.close()
    with pytest.raises(RuntimeError):
        journal.accepted("d0", "c17", "sig-0")


# ----------------------------------------------------------------------
# crash-mid-record tolerance
# ----------------------------------------------------------------------
def test_torn_tail_is_skipped_not_fatal(tmp_path):
    path = tmp_path / "serve.wal"
    with ResultJournal(path) as journal:
        journal.resolved("sig-0", _result())
    with open(path, "ab") as fh:
        fh.write(b'{"type":"resolved","sig":"sig-1","status"')
    replay = read_journal(path)
    assert replay.truncated
    assert replay.bad_records == 0
    assert set(replay.resolved) == {"sig-0"}
    # A later run appending past the torn tail would start with a
    # newline-terminated record; re-reading stays convergent.
    assert read_journal(path).resolved == replay.resolved


def test_corrupted_record_rejected_by_crc(tmp_path):
    path = tmp_path / "serve.wal"
    with ResultJournal(path) as journal:
        journal.resolved("sig-0", _result())
        journal.resolved("sig-1", _result("d1"))
    lines = path.read_bytes().splitlines()
    # Flip the answer inside record 0 without touching its CRC.
    doctored = lines[0].replace(b'"G10"', b'"G11"')
    assert doctored != lines[0]
    path.write_bytes(b"\n".join([doctored, lines[1]]) + b"\n")
    replay = read_journal(path)
    assert replay.bad_records == 1
    assert set(replay.resolved) == {"sig-1"}


def test_unknown_record_type_counted_bad(tmp_path):
    path = tmp_path / "serve.wal"
    record = {"type": "mystery", "sig": "sig-0"}
    from repro.serve.journal import _payload_crc

    record["crc"] = _payload_crc(record)
    path.write_text(json.dumps(record) + "\n")
    replay = read_journal(path)
    assert replay.bad_records == 1
    assert replay.records == 0


def test_missing_file_is_empty_replay(tmp_path):
    replay = read_journal(tmp_path / "never-written.wal")
    assert replay.records == 0
    assert not replay.resolved and not replay.truncated


# ----------------------------------------------------------------------
# fsync batching
# ----------------------------------------------------------------------
def test_group_commit_batches_appends(tmp_path):
    path = tmp_path / "serve.wal"
    journal = ResultJournal(path, batch_size=1000, flush_interval=30.0)
    try:
        for i in range(10):
            journal.accepted(f"d{i}", "c17", f"sig-{i}")
        journal.flush()
        stats = dict(journal.stats)
    finally:
        journal.close()
    assert stats["appended"] == 10
    assert stats["synced_records"] == 10
    # One explicit commit covered all ten appends — no fsync per record.
    assert stats["commits"] == 1


# ----------------------------------------------------------------------
# service integration: journal + resume
# ----------------------------------------------------------------------
def test_service_journals_and_resumes_exactly_once(tmp_path):
    path = tmp_path / "serve.wal"
    devices = [make_device(f"d{i}", seed=3 + i, k=2) for i in range(3)]

    with ResultJournal(path) as journal:
        first = DiagnosisService(
            n_shards=2, timeout=30.0, journal=journal
        ).run(devices)
    assert all(r.status == "ok" for r in first)
    assert not any(r.journal_replayed for r in first)

    replay = read_journal(path)
    assert len(replay.resolved) == len(
        {d.signature() for d in devices}
    )
    for d in devices:
        assert signature_key(d.signature()) in replay.accepted

    with ResultJournal(path) as journal:
        service = DiagnosisService(
            n_shards=2,
            timeout=30.0,
            journal=journal,
            resume_from=replay,
        )
        second = service.run(devices)
    assert all(r.journal_replayed for r in second)
    assert service.stats()["journal_replayed"] == len(devices)
    for r1, r2 in zip(first, second):
        # Bit-identical replay: the journal stores the answer, not a
        # summary of it.
        assert r2.answer == r1.answer
        assert tuple(r2.solutions) == tuple(r1.solutions)
        assert r2.winner == r1.winner
        assert r2.cardinality == r1.cardinality
    # Replayed results are not re-journaled: the WAL does not grow with
    # resolved duplicates on every resume.
    assert len(read_journal(path).resolved) == len(replay.resolved)


def test_resume_reruns_accepted_but_unresolved_devices(tmp_path):
    path = tmp_path / "serve.wal"
    device = make_device("d0", seed=3, k=2)
    key = signature_key(device.signature())
    with ResultJournal(path) as journal:
        journal.accepted("d0", "c17", key)
    replay = read_journal(path)
    assert replay.replayable(key) is None

    with ResultJournal(path) as journal:
        service = DiagnosisService(
            n_shards=1, timeout=30.0, journal=journal, resume_from=replay
        )
        (result,) = service.run([device])
    assert result.status == "ok"
    assert not result.journal_replayed
    assert service.stats()["journal_replayed"] == 0
    # The re-run's resolution landed in the journal this time.
    assert read_journal(path).replayable(key) is not None


def test_timeout_records_are_not_replayed(tmp_path):
    path = tmp_path / "serve.wal"
    device = make_device("d0", seed=3, k=2)
    key = signature_key(device.signature())
    with ResultJournal(path) as journal:
        journal.resolved(
            key,
            _result(status="timeout", answer=None),
        )
    replay = read_journal(path)
    assert key in replay.resolved
    # timeout/error resolutions re-run on resume — a restart is a fresh
    # chance; only answer-bearing statuses replay.
    assert replay.replayable(key) is None

    service = DiagnosisService(n_shards=1, timeout=30.0, resume_from=replay)
    (result,) = service.run([device])
    assert result.status == "ok"
    assert not result.journal_replayed


# ----------------------------------------------------------------------
# signature keys: one encode per unique signature per run
# ----------------------------------------------------------------------
def _count_encodes(monkeypatch) -> list:
    """Count calls of the one canonical encode of a failure signature
    (in this process)."""
    calls = []
    encode = intake._signature_digests

    def counted(signature):
        calls.append(signature)
        return encode(signature)

    monkeypatch.setattr(intake, "_signature_digests", counted)
    return calls


def _duplicated_stream(copies=4, n=3):
    """``copies`` distinct reports of each of ``n`` c17 signatures,
    interleaved the way a tester stream repeats failures."""
    devices = [
        make_device(f"d{i}-{c}", seed=3 + i)
        for c in range(copies)
        for i in range(n)
    ]
    assert len({d.signature() for d in devices}) == n
    return devices


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_journaled_run_and_resume_encode_each_signature_once(
    mode, tmp_path, monkeypatch
):
    devices = _duplicated_stream()
    calls = _count_encodes(monkeypatch)
    path = tmp_path / "serve.wal"
    with ResultJournal(path) as journal:
        with _service(mode, timeout=30.0, journal=journal) as service:
            first = service.run(devices)
            assert service._run_keys == {}
    with _service(
        mode, timeout=30.0, resume_from=read_journal(path)
    ) as resumer:
        resumed = resumer.run(devices)
        assert resumer._run_keys == {}
    assert all(r.status == "ok" for r in first)
    assert all(r.journal_replayed for r in resumed)
    # Admission keys each unique signature once (its seed comes from
    # the same encode); duplicates and the resume over the same reports
    # encode nothing more.
    assert len(calls) == len(set(calls)) == 3
    assert {r["sig"] for r in map(json.loads, open(path))} == {
        signature_key(d.signature()) for d in devices
    }


def test_unjournaled_run_encodes_only_for_diagnosed_devices(monkeypatch):
    # The c17 signatures are answered by greedy's singleton layer; the
    # sim1423 device has no single-gate correction, so its ladder climbs.
    climber = make_device("climb", design="sim1423", seed=1, p=2, m_max=8,
                          k=2)
    devices = _duplicated_stream() + [climber]
    calls = _count_encodes(monkeypatch)
    service = DiagnosisService(n_shards=1, timeout=30.0)
    results = service.run(devices)
    stats = service.stats()
    assert all(r.status == "ok" for r in results)
    # No journal, no resume: no key at admission, one seed per ladder
    # run that climbs (the first climb reads it), none for a run the
    # singleton layer answers, and memo hits encode nothing.
    assert stats["shards"]["shard0"]["races"] == 4
    assert stats["signature_hits"] == len(devices) - 4
    assert calls == [climber.signature()]
    assert service._run_keys == {}


# ----------------------------------------------------------------------
# the one DeviceResult codec, and byte-compatible resume in both modes
# ----------------------------------------------------------------------
DATA = Path(__file__).parent / "data"

#: The devices behind ``data/golden.wal``: a journal recorded before
#: thread and process mode shared one dispatcher, holding ok, degraded
#: and timeout resolutions for c17 and sim1423.
GOLDEN_DEVICES = [
    ("g-ok-c17", "c17", 3, None),
    ("g-ok-s1423", "sim1423", 1, 2),
    ("g-deg-c17", "c17", 5, None),
    ("g-deg-s1423", "sim1423", 2, 2),
    ("g-tmo-c17", "c17", 7, None),
    ("g-tmo-s1423", "sim1423", 3, 2),
]


@contextlib.contextmanager
def _service(mode, **options):
    if mode == "thread":
        yield DiagnosisService(n_shards=2, **options)
    else:
        with ProcessDiagnosisService(n_workers=2, **options) as pool:
            yield pool


@pytest.mark.parametrize("status", ["ok", "degraded", "timeout", "error"])
def test_record_round_trip_per_status(status):
    answer = None if status in ("timeout", "error") else ("G3", "G7")
    result = DeviceResult(
        device_id="d0",
        design="c17",
        status=status,
        answer=answer,
        cardinality=len(answer) if answer is not None else None,
        solutions=(
            (frozenset(answer), frozenset(("G9",))) if answer else ()
        ),
        winner="bsat" if status == "ok" else None,
        attempts=2,
        shard=0,
        latency=0.125,
        cached=status == "ok",
        error=None if status == "ok" else f"{status}: why",
        worker=1,
        degraded_rung="approximate" if status == "degraded" else None,
        validity="valid-sampled" if status == "degraded" else None,
    )
    record = result.to_record()
    assert json.loads(json.dumps(record)) == record  # plain JSON data
    assert DeviceResult.from_record(record) == result
    # The CLI line is the record with a solution count.
    line = result.to_dict()
    assert line["n_solutions"] == len(result.solutions)
    assert list(line) == [
        "n_solutions" if key == "solutions" else key for key in record
    ]


def test_golden_wal_keys_match_new_records(tmp_path):
    golden = [json.loads(line) for line in open(DATA / "golden.wal")]
    want = {
        kind: {frozenset(r) for r in golden if r["type"] == kind}
        for kind in ("accepted", "resolved")
    }
    assert all(len(keys) == 1 for keys in want.values())
    path = tmp_path / "serve.wal"
    with ResultJournal(path) as journal:
        DiagnosisService(n_shards=1, timeout=30.0, journal=journal).run(
            [make_device("n0", seed=3), make_device("n1", seed=5)]
        )
        for status in ("degraded", "timeout", "error"):
            journal.resolved(f"sig-{status}", _result(status=status))
    written = [json.loads(line) for line in open(path)]
    for kind, keys in want.items():
        assert {
            frozenset(r) for r in written if r["type"] == kind
        } == keys


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_golden_wal_replays_bit_identically(mode):
    devices = [
        make_device(i, design=d, seed=s, k=k)
        for i, d, s, k in GOLDEN_DEVICES
    ]
    expected = json.loads((DATA / "golden_replay.json").read_text())
    with _service(
        mode, timeout=30.0, resume_from=read_journal(DATA / "golden.wal")
    ) as service:
        results = service.run(devices)
    replayed = []
    for result in results:
        line = result.to_dict()
        line.pop("latency")
        if result.journal_replayed:
            replayed.append(line)
        else:
            # timeout records re-run on resume.
            assert result.device_id.startswith("g-tmo-")
            assert result.status == "ok"
    assert replayed == expected


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_resume_counts_no_race_winners(mode, tmp_path):
    devices = [make_device("r0", seed=3), make_device("r1", seed=5)]
    path = tmp_path / "serve.wal"
    with ResultJournal(path) as journal:
        with _service(mode, timeout=30.0, journal=journal) as first:
            first.run(devices)
            assert sum(first.stats()["race_winners"].values()) == 2
    with _service(
        mode, timeout=30.0, resume_from=read_journal(path)
    ) as resumed:
        results = resumed.run(devices)
        stats = resumed.stats()
    assert all(r.journal_replayed for r in results)
    assert stats["journal_replayed"] == 2
    # No ladder ran on resume, so no rung won.
    assert stats["race_winners"] == {}
