"""The per-attempt function: memo lookup, early stop, ladder run."""

import threading
import time

import pytest

from repro.serve import shard
from repro.serve.design import DesignCache
from repro.serve.race import DEFAULT_STRATEGIES
from repro.serve.shard import COUNTERS, Ladder, run_attempt

from tests.serve._devices import make_device

LADDER = Ladder(
    strategies=DEFAULT_STRATEGIES, first_only=True, solver_backend=None
)


def _attempt(cache, device, cancel, deadline):
    counters = dict.fromkeys(COUNTERS, 0)
    memo, outcome = run_attempt(
        LADDER, cache, threading.Lock(), counters, device, cancel, deadline
    )
    return memo, outcome, counters


@pytest.fixture
def no_session(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a stopped attempt built a session")

    monkeypatch.setattr(shard, "DiagnosisSession", refuse)


@pytest.mark.parametrize(
    "cancelled, expired", [(True, False), (False, True), (True, True)]
)
def test_stopped_attempt_builds_no_session(no_session, cancelled, expired):
    cancel = threading.Event()
    if cancelled:
        cancel.set()
    deadline = time.monotonic() - 1.0 if expired else None
    memo, outcome, counters = _attempt(
        DesignCache(), make_device("d0", seed=3, k=2), cancel, deadline
    )
    assert memo is None
    assert outcome.cancelled
    assert outcome.timed_out is expired
    assert outcome.cancelled_legs == len(LADDER.strategies)
    assert outcome.answer is None and outcome.partial is None
    assert counters["races"] == 0 and counters["processed"] == 1


def test_memo_hit_wins_over_a_fired_cancel():
    cache = DesignCache()
    device = make_device("d0", seed=3, k=2)
    _, first, _ = _attempt(cache, device, threading.Event(), None)
    assert not first.cancelled and first.answer is not None
    cancel = threading.Event()
    cancel.set()
    memo, outcome, counters = _attempt(
        cache, device, cancel, time.monotonic() - 1.0
    )
    assert outcome is None
    assert memo["answer"] == first.answer
    assert counters["signature_hits"] == 1


def test_live_attempt_still_runs_the_ladder():
    memo, outcome, counters = _attempt(
        DesignCache(),
        make_device("d0", seed=3, k=2),
        threading.Event(),
        time.monotonic() + 60.0,
    )
    assert memo is None
    assert not outcome.cancelled and outcome.winner is not None
    assert counters["races"] == 1
