"""Executors: where the dispatcher's attempts run.

:class:`~repro.serve.service.DiagnosisService` is the one orchestrator
(routing, deadlines, retries, exactly-once).  It hands each device
attempt to an *executor*, something that can

* take an attempt under bounded backpressure (``queue_size``),
* cancel an attempt,
* report whether it is alive,
* hand back the attempts it was holding when it died, and
* report its own counters.

:class:`Executor` implements that protocol's bookkeeping once.  Two
executors fill in where the work runs: :class:`ServiceShard` (here), a
thread of the serving process, and
:class:`~repro.serve.procpool.WorkerProcess`, a spawned worker process
(``serve --workers N``).  Both run the same per-attempt function,
:func:`run_attempt`: memo lookup (signature batching), else a session
stamped from the design skeleton and the strategy ladder
(:func:`~repro.serve.race.race_device`), then a memo store.

Thread shards share one :class:`~repro.serve.design.DesignCache`: the
compiled circuit, the master-encoding skeleton and the signature memo
are large mutable object graphs, and sharing them across threads keeps
the build-once-per-design contract.  Their throughput win is
algorithmic (the cheapest-rung-first ladder, batching, skeleton reuse),
not core parallelism; worker processes are the lever for core-bound
traffic.

A :class:`ShardKilled` escape (fault injection, tests) kills the shard
thread; the shard then hands its in-flight attempt and its backlog back
to the dispatcher, which retries and re-routes them.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..diagnosis.core import DiagnosisSession
from ..sat.budget import Budget
from .intake import DeviceReport
from .race import CONFLICT_POLL_INTERVAL, RaceOutcome, race_device

if TYPE_CHECKING:  # pragma: no cover
    from .design import DesignCache
    from .service import DiagnosisService, _Attempt

__all__ = ["Executor", "Ladder", "ServiceShard", "ShardKilled", "run_attempt"]


#: Seconds an idle shard thread waits for work before it exits.
IDLE_EXIT_S = 1.0


class ShardKilled(RuntimeError):
    """Raised (by fault hooks) to kill a shard thread mid-device."""


@dataclass(frozen=True)
class Ladder:
    """What every attempt of one service runs (picklable: it is also a
    worker process's configuration)."""

    strategies: tuple[str, ...]
    first_only: bool
    solver_backend: str | None


#: Per-executor counters :func:`run_attempt` maintains.
COUNTERS = (
    "processed", "signature_hits", "races", "cancelled_legs",
    "skipped_legs", "memo_stores", "errors",
)


def run_attempt(
    ladder: Ladder,
    cache: "DesignCache",
    memo_lock,
    counters: dict,
    device: DeviceReport,
    cancel: threading.Event,
    deadline: float | None,
) -> tuple[dict | None, RaceOutcome | None]:
    """One attempt at one device: ``(memo, None)`` on a signature-memo
    hit, else ``(None, outcome)`` of the ladder run.

    A finished ladder's answer is memoized for every later device with
    the same signature; a cancelled one (stopped by ``cancel`` or
    ``deadline`` before any rung answered) never is.  An attempt whose
    cancel flag or deadline has already fired when its memo lookup
    misses returns a cancelled outcome at once, with no session built
    and no rung run.
    """
    counters["processed"] += 1
    artifacts = cache.get(device.design)
    signature = device.signature()
    with memo_lock:
        memo = artifacts.result_memo.get(signature)
    if memo is not None:
        counters["signature_hits"] += 1
        return memo, None
    # One budget per attempt, the ladder's stop signal.  An attempt
    # stopped before it started builds no session: it would only be
    # thrown away at the ladder's first poll.
    budget = Budget(
        should_stop=cancel.is_set,
        deadline=deadline,
        conflict_poll_interval=CONFLICT_POLL_INTERVAL,
    )
    if budget.poll():
        return None, RaceOutcome(
            timed_out=budget.reason == "deadline",
            cancelled=True,
            cancelled_legs=len(ladder.strategies),
        )
    session = DiagnosisSession(
        artifacts.circuit,
        device.tests,
        solver_backend=ladder.solver_backend,
        seed=device.session_seed,
    )
    session.master_skeleton = artifacts.skeleton
    counters["races"] += 1
    outcome = race_device(
        session,
        strategies=ladder.strategies,
        k=device.k,
        first_only=ladder.first_only,
        budget=budget,
    )
    counters["cancelled_legs"] += outcome.cancelled_legs
    counters["skipped_legs"] += outcome.skipped_legs
    if not outcome.cancelled:
        memo = {
            "answer": outcome.answer,
            "cardinality": (
                len(outcome.answer) if outcome.answer is not None else None
            ),
            "solutions": outcome.solutions,
            "winner": outcome.winner,
        }
        with memo_lock:
            if artifacts.result_memo.store(signature, memo):
                counters["memo_stores"] += 1
    return None, outcome


class Executor:
    """Admission, held attempts and death hand-back for one executor.

    ``_held`` maps attempt keys to the attempts this executor admitted
    and has not yet *taken* (started, for a shard thread; answered, for
    a worker process).  ``submit`` admits into it under the
    ``capacity`` bound and :meth:`take_stranded` empties it under the
    same lock, so an attempt is either admitted to a live executor or
    refused — never parked on a dead one.
    """

    #: Counter/stats name: "shard" or "worker".
    kind = "shard"

    def __init__(self, index: int, service: "DiagnosisService",
                 capacity: int) -> None:
        self.index = index
        self._service = service
        self.capacity = capacity
        self._room = threading.Condition()
        self._held: OrderedDict[int, "_Attempt"] = OrderedDict()
        self.alive = True
        self.counters = dict.fromkeys((*COUNTERS, "queue_high_water"), 0)

    def __str__(self) -> str:
        return f"{self.kind} {self.index}"

    def submit(self, attempt: "_Attempt", wait: float | None) -> bool:
        """Admit ``attempt``; False when this executor is dead, or still
        full after ``wait`` seconds.  ``wait=None`` admits past the
        bound: a retry issued from an executor's own thread must never
        wait on a queue only that thread drains."""
        with self._room:
            if wait is not None and self.alive and self._full():
                self._room.wait(wait)
            if not self.alive or (wait is not None and self._full()):
                return False
            self._held[attempt.key] = attempt
            depth = len(self._held)
            if depth > self.counters["queue_high_water"]:
                self.counters["queue_high_water"] = depth
            self._deliver(attempt)
            return True

    def _full(self) -> bool:
        return len(self._held) >= self.capacity

    def _deliver(self, attempt: "_Attempt") -> None:
        """Hand an admitted attempt to the executing side (under the
        admission lock; must not block)."""
        self._room.notify_all()

    def _take(self, key: int) -> "_Attempt | None":
        with self._room:
            attempt = self._held.pop(key, None)
            self._room.notify_all()
            return attempt

    def take_stranded(self) -> tuple["_Attempt | None", list["_Attempt"]]:
        """Mark this executor dead and hand back what it held: the
        attempt it was running (None if idle) and those that never
        started."""
        with self._room:
            self.alive = False
            held = list(self._held.values())
            self._held.clear()
            self._room.notify_all()
        return None, held

    def cancel(self, attempt: "_Attempt") -> None:
        """Stop ``attempt`` at its running rung's next poll."""
        attempt.cancel.set()

    def start(self) -> None:
        """Get ready to serve one ``run()``."""

    def stop(self) -> None:
        """``run()`` is over: every device resolved."""

    def snapshot(self) -> dict:
        return {**self.counters, "alive": self.alive}

    def result_fields(self) -> dict:
        """Where a result says it was served."""
        return {"shard": self.index, "worker": None}


class ServiceShard(Executor):
    """A thread of the serving process draining its bounded queue.

    The thread starts with the first attempt it is handed and exits
    after :data:`IDLE_EXIT_S` without work, so a closed-loop client that
    calls ``run()`` once per device reuses it, and a dropped service
    leaves no thread behind for long.
    """

    def __init__(self, index: int, service: "DiagnosisService",
                 queue_size: int = 2) -> None:
        super().__init__(index, service, queue_size)
        self._thread: threading.Thread | None = None
        self._running: "_Attempt | None" = None

    def start(self) -> None:
        self.alive = True  # revives a shard killed in an earlier run

    def stop(self) -> None:
        with self._room:
            # Whatever is still queued belongs to resolved devices; a
            # stale attempt still running gets a second to finish.
            self._held.clear()
            self._room.wait_for(lambda: self._running is None, timeout=1.0)

    def _deliver(self, attempt: "_Attempt") -> None:
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name=f"repro-shard-{self.index}",
                daemon=True,
            )
            self._thread.start()
        self._room.notify_all()

    def take_stranded(self):
        _, queued = super().take_stranded()
        return self._running, queued

    def _loop(self) -> None:  # pragma: no cover - exercised via service
        service = self._service
        while True:
            with self._room:
                if not self._room.wait_for(lambda: self._held, IDLE_EXIT_S):
                    self._thread = None
                    return
                _, attempt = self._held.popitem(last=False)
                self._running = attempt
                self._room.notify_all()
            try:
                if service.fault_hook is not None:
                    service.fault_hook(self.index, attempt)
                self._process(attempt)
            except ShardKilled as exc:
                service._executor_died(self, exc)
                with self._room:
                    self._thread = self._running = None
                    self._room.notify_all()
                return
            except Exception as exc:
                self.counters["errors"] += 1
                service._attempt_error(
                    self, attempt, f"{type(exc).__name__}: {exc}"
                )
            with self._room:
                self._running = None
                self._room.notify_all()

    def _process(self, attempt: "_Attempt") -> None:
        service = self._service
        memo, outcome = run_attempt(
            service.ladder,
            service.design_cache,
            service._memo_lock,
            self.counters,
            attempt.device,
            attempt.cancel,
            attempt.deadline,
        )
        service._attempt_finished(self, attempt, memo, outcome)
