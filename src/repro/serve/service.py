"""The diagnosis service: one dispatcher over a list of executors.

:class:`DiagnosisService` is the only orchestrator.  The diagnosis
itself happens in its executors (:mod:`repro.serve.shard`): thread
shards here, worker processes in
:class:`~repro.serve.procpool.ProcessDiagnosisService`, which differs
only in the executors it builds.  The dispatcher owns:

* **Routing**: each device goes to an executor chosen by a stable hash
  of its design, so all devices of one design share that executor's
  warm artifacts; retries rotate to a *different* executor.
* **Deadline/retry**: every attempt's ladder enforces the attempt's
  deadline itself (its :class:`~repro.sat.budget.Budget`) and reports a
  cancelled outcome, which retries the device elsewhere, up to
  ``max_attempts``.  A watchdog thread only steps in for attempts still
  silent :data:`GRACE_S` past their deadline (a hung or stalled
  executor): it cancels them and retries the same way.  An executor
  that dies hands back its in-flight attempt (retried) and its backlog
  (re-routed).  No dispatcher thread does diagnosis work.
* **Exactly-once**: every device resolves to exactly one
  :class:`DeviceResult` however many attempts raced for it — the first
  resolution wins under the service lock, late/duplicate attempt
  results are counted and dropped.
* **Degradation**: a device whose last attempt was cancelled resolves
  from what that attempt's ladder already held (its outcome's
  ``partial``, see :mod:`repro.serve.race`): ``status="degraded"`` with
  the verified corrections found so far or the finished sweep's
  top-marked gates, stamped with their validity class; ``timeout`` when
  it held nothing.
* **Durability**: with a :class:`~repro.serve.journal.ResultJournal`
  every accepted device and resolution is appended to a fsync-batched
  WAL; resuming from its replay skips already-resolved signatures —
  exactly-once across process death.
* **Observability**: dispatcher counters plus each executor's own
  (:meth:`DiagnosisService.stats`).

:class:`DeviceResult` carries the one result codec:
:meth:`~DeviceResult.to_record` / :meth:`~DeviceResult.from_record`
feed the CLI line, the journal record and journal replay.
"""

from __future__ import annotations

import itertools
import threading
import time
import zlib
from dataclasses import dataclass, field, fields
from typing import Iterable, Sequence

from ..sat.backends import resolve_backend
from .design import DesignCache
from .intake import DeviceReport
from .journal import (
    JournalReplay,
    ResultJournal,
    _decode_solutions,
    _encode_solutions,
)
from .race import DEFAULT_STRATEGIES, RaceOutcome
from .shard import Executor, Ladder, ServiceShard

__all__ = ["DeviceResult", "DiagnosisService"]

#: Seconds past an attempt's deadline the watchdog waits for the
#: attempt's own cancelled outcome before it gives up on the attempt as
#: hung.  A ladder reports within one poll of its deadline (default
#: ladder: ~20 ms median, under 0.1 s, on a 2-vCPU host); what overruns
#: this is work the budget cannot interrupt (an executor stalled, a
#: bsat instance still building).
GRACE_S = 0.25

#: Upper bound of the watchdog's polling period.
WATCHDOG_INTERVAL_S = 0.02


def _eager_warm_up() -> None:
    """JIT-compile the arena-jit kernels now, off the device path."""
    from ..sat import compiled

    compiled.warm_up()


#: DeviceResult field -> record key, where they differ.
_RECORD_KEYS = {"device_id": "id"}


@dataclass
class DeviceResult:
    """Exactly-once outcome for one device."""

    device_id: str
    design: str
    status: str  # "ok" | "degraded" | "timeout" | "error"
    answer: tuple[str, ...] | None = None
    cardinality: int | None = None
    solutions: tuple = ()
    winner: str | None = None
    attempts: int = 1
    #: Thread shard that served the last attempt (0 in a worker
    #: process, which runs one attempt loop).
    shard: int | None = None
    latency: float = 0.0
    cached: bool = False
    error: str | None = None
    #: Worker-process index in process mode (``serve --workers N``);
    #: None for thread shards.
    worker: int | None = None
    #: What a ``"degraded"`` result holds: "approximate" (verified
    #: corrections the interrupted ladder found, validity
    #: "valid-sampled") or "guidance" (top-marked gates of the
    #: finished sweep, unverified, validity "guidance") — see
    #: :mod:`repro.serve.race`.
    degraded_rung: str | None = None
    validity: str | None = None
    #: True when the answer was replayed from the durable journal on
    #: resume instead of being re-diagnosed.
    journal_replayed: bool = False

    def to_record(self) -> dict:
        """Every field as JSON-shaped data, in field order: the one
        encoding of a result (``answer`` a list, ``solutions`` sorted
        lists, ``device_id`` keyed ``"id"``)."""
        record = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "answer" and value is not None:
                value = list(value)
            elif f.name == "solutions":
                value = _encode_solutions(value)
            record[_RECORD_KEYS.get(f.name, f.name)] = value
        return record

    @classmethod
    def from_record(cls, record: dict, **overrides) -> "DeviceResult":
        """Invert :meth:`to_record`.  Keys the record lacks (a journal
        record keeps only the answer-bearing ones) take their defaults;
        ``overrides`` set fields directly."""
        values = {
            f.name: record[_RECORD_KEYS.get(f.name, f.name)]
            for f in fields(cls)
            if _RECORD_KEYS.get(f.name, f.name) in record
        }
        if values.get("answer") is not None:
            values["answer"] = tuple(values["answer"])
        values["solutions"] = _decode_solutions(values.get("solutions", ()))
        values.update(overrides)
        return cls(**values)

    def to_dict(self) -> dict:
        """The CLI's JSON line: the record with ``n_solutions`` in place
        of the solution sets."""
        return {
            ("n_solutions" if key == "solutions" else key): (
                len(value) if key == "solutions" else value
            )
            for key, value in self.to_record().items()
        }


@dataclass(eq=False)
class _Attempt:
    device: DeviceReport
    state: "_DeviceState"
    number: int
    #: Unique per service, so a late reply can never be taken for a
    #: later attempt.
    key: int
    executor: Executor
    cancel: threading.Event = field(default_factory=threading.Event)
    deadline: float | None = None


@dataclass
class _DeviceState:
    device: DeviceReport
    order: int
    #: The device's journal key, found at admission when the service
    #: journals or resumes (None otherwise).
    key: str | None = None
    submitted_at: float = 0.0
    attempts: int = 0
    resolved: bool = False
    result: DeviceResult | None = None
    current_attempt: _Attempt | None = None


class DiagnosisService:
    """Sharded, exactly-once diagnosis over a device stream.

    Parameters
    ----------
    n_shards:
        Executor threads (each with a bounded queue — the queue bound is
        the admission control that keeps reported latencies honest).
    strategies:
        The ladder of rungs tried in order per device, first rung with
        solutions wins (:data:`~repro.serve.race.DEFAULT_STRATEGIES`:
        greedy, then bsat; any of them, in any order);
        ``("bsat",)`` gives the bit-reproducible reference mode.
    policy:
        ``"first"`` — each rung stops at its first valid answer;
        ``"complete"`` — each rung runs to completion (use with one
        strategy for reference answers).
    timeout:
        Per-attempt deadline in seconds, counted from dispatch and
        enforced by the attempt's ladder (None: no deadline, no
        watchdog).
    max_attempts:
        Total attempts per device (1 = no retry).
    queue_size:
        Attempts an executor may hold that it has not started; past it
        :meth:`run` blocks (backpressure).
    degrade:
        When a device's last attempt is cancelled, resolve it
        ``status="degraded"`` from what that attempt's ladder already
        held (its outcome's ``partial``) instead of an empty
        ``timeout``.  Off: a partial is ignored.
    journal:
        A :class:`~repro.serve.journal.ResultJournal`: every accepted
        device and every resolution is appended to the durable WAL.
        ``resume_from`` (a :class:`~repro.serve.journal.JournalReplay`,
        usually ``read_journal(path)`` of the same file) replays
        already-resolved signatures without re-diagnosing —
        exactly-once across process death.
    design_cache:
        The artifacts the thread shards share (a fresh
        :class:`~repro.serve.design.DesignCache` when None).
    fault_hook:
        Chaos/test injection: ``hook(shard_index, attempt)`` called
        before a shard processes each attempt; may sleep (hang) or raise
        :class:`~repro.serve.shard.ShardKilled` (crash).  See
        :mod:`repro.serve.chaos`.

    Constructing the service with an ``arena-jit`` backend eagerly
    JIT-compiles the kernels (``sat.compiled.warm_up()``) so the
    compile cost lands at construction time, never on the first
    device's latency.
    """

    #: What the executors are called in counters and stats.
    executor_kind = "shard"

    def __init__(
        self,
        n_shards: int = 2,
        strategies: Sequence[str] = DEFAULT_STRATEGIES,
        policy: str = "first",
        timeout: float | None = None,
        max_attempts: int = 2,
        queue_size: int = 2,
        degrade: bool = True,
        journal: ResultJournal | None = None,
        resume_from: JournalReplay | None = None,
        design_cache: DesignCache | None = None,
        solver_backend: str | None = None,
        fault_hook=None,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_{self.executor_kind}s must be at least 1")
        if policy not in ("first", "complete"):
            raise ValueError("policy must be 'first' or 'complete'")
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        strategies = tuple(strategies)
        if not strategies:
            raise ValueError("at least one strategy is required")
        for name in strategies:
            if name not in DEFAULT_STRATEGIES:
                raise ValueError(
                    f"unknown strategy {name!r} (expected one of "
                    f"{', '.join(DEFAULT_STRATEGIES)})"
                )
        self.ladder = Ladder(
            strategies=strategies,
            first_only=policy == "first",
            solver_backend=solver_backend,
        )
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.queue_size = queue_size
        self.degrade = degrade
        self.journal = journal
        self.resume_from = resume_from
        self.solver_backend = solver_backend
        self.design_cache = design_cache
        self.fault_hook = fault_hook
        self._lock = threading.Lock()
        self._memo_lock = threading.Lock()
        self._keys = itertools.count()
        self._inflight: set[_Attempt] = set()
        self._states: dict[str, _DeviceState] = {}
        #: Failure signature -> journal key, for one ``run()``: each
        #: unique signature is encoded once per run, its duplicates
        #: cost a hash and an equality check.
        self._run_keys: dict[tuple, str] = {}
        self._resolved_count = 0
        self._all_done = threading.Event()
        self._stopping = threading.Event()
        self.counters = {
            "devices": 0,
            "timeouts": 0,
            "retries": 0,
            f"{self.executor_kind}_deaths": 0,
            "reroutes": 0,
            "cancels_sent": 0,
            "failures": 0,
            "duplicate_results_dropped": 0,
            "late_results_dropped": 0,
            "degraded": 0,
            "journal_replayed": 0,
            "race_winners": {},
        }
        self._executors: list[Executor] = self._make_executors(n_shards)

    def _make_executors(self, n: int) -> list[Executor]:
        if resolve_backend(self.solver_backend) == "arena-jit":
            # Pay the JIT compile now, off every device's latency path
            # (idempotent: a warm process returns immediately).
            _eager_warm_up()
        if self.design_cache is None:
            self.design_cache = DesignCache()
        return [ServiceShard(i, self, self.queue_size) for i in range(n)]

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, devices: Iterable[DeviceReport]) -> list[DeviceResult]:
        """Diagnose every device; results in input order, exactly once."""
        device_list = list(devices)
        seen: set[str] = set()
        for d in device_list:
            if d.device_id in seen:
                raise ValueError(
                    f"duplicate device id {d.device_id!r} in the stream"
                )
            seen.add(d.device_id)
        if not device_list:
            return []
        with self._lock:
            self.counters["devices"] += len(device_list)
            for order, device in enumerate(device_list):
                self._states[device.device_id] = _DeviceState(
                    device=device, order=order
                )
        for executor in self._executors:
            executor.start()
        watchdog = None
        if self.timeout is not None:
            watchdog = threading.Thread(
                target=self._watchdog_loop,
                name="repro-serve-watchdog",
                daemon=True,
            )
            watchdog.start()
        keyed = self.journal is not None or self.resume_from is not None
        try:
            for device in device_list:
                state = self._states[device.device_id]
                state.submitted_at = time.monotonic()
                if keyed:
                    state.key = self._journal_key(device)
                if self._replay_from_journal(state):
                    continue
                if self.journal is not None:
                    self.journal.accepted(
                        device.device_id, device.design, state.key
                    )
                try:
                    self._dispatch(state, block=True)
                except RuntimeError as exc:  # no live executors remain
                    self._resolve(
                        state, self._result(state, None, "timeout",
                                            error=str(exc))
                    )
            self._all_done.wait()
        finally:
            self._stopping.set()
            if watchdog is not None:
                watchdog.join(timeout=1.0)
            for executor in self._executors:
                executor.stop()
            self._stopping.clear()
            if self.journal is not None:
                self.journal.flush()
        ordered = sorted(self._states.values(), key=lambda s: s.order)
        results = [s.result for s in ordered]
        with self._lock:
            self._states.clear()
            self._run_keys.clear()
            self._inflight.clear()
            self._resolved_count = 0
            self._all_done.clear()
        return results

    def cancel_device(self, device_id: str) -> bool:
        """Abandon ``device_id``: stop its running attempt mid-solve and
        resolve it ``timeout`` ("externally cancelled") now, with no
        retry and no degraded answer; the attempt's late outcome is
        dropped.

        True when the device was in flight and unresolved.
        """
        with self._lock:
            state = self._states.get(device_id)
            attempt = state.current_attempt if state is not None else None
        if attempt is None or not self._retry_or_fail(
            state, attempt, error="externally cancelled", abandoned=True
        ):
            return False
        with self._lock:
            self.counters["cancels_sent"] += 1
        return True

    def stats(self) -> dict:
        """Dispatcher + executor (+ thread mode's design-cache) counters
        (JSON-friendly)."""
        blocks = {
            f"{e.kind}{e.index}": e.snapshot() for e in self._executors
        }
        with self._lock:
            counters = {
                k: (dict(v) if isinstance(v, dict) else v)
                for k, v in self.counters.items()
            }
        for key in (
            "signature_hits", "cancelled_legs", "skipped_legs", "memo_stores"
        ):
            counters[key] = sum(b[key] for b in blocks.values())
        cache = self.design_cache
        return {
            **counters,
            **(
                {"journal": dict(self.journal.stats)}
                if self.journal is not None
                else {}
            ),
            **(
                {"design_cache": {
                    "designs_built": cache.stats["designs_built"],
                    "design_hits": cache.stats["design_hits"],
                    "skeleton_builds": dict(cache.stats["skeleton_builds"]),
                    "memo_evictions": cache.memo_evictions(),
                }}
                if cache is not None
                else {}
            ),
            f"{self.executor_kind}s": blocks,
        }

    # ------------------------------------------------------------------
    # journal keys and resume
    # ------------------------------------------------------------------
    def _journal_key(self, device: DeviceReport) -> str:
        """``device``'s journal key, encoded once per unique signature
        in this run."""
        signature = device.signature()
        key = self._run_keys.get(signature)
        if key is None:
            key = self._run_keys[signature] = device.journal_key()
        return key

    def _replay_from_journal(self, state: _DeviceState) -> bool:
        """Resolve ``state`` from the resume journal when its signature
        already carries an answer-bearing resolution (exactly-once
        across process death); ``timeout``/``error`` records re-run."""
        if self.resume_from is None:
            return False
        device = state.device
        record = self.resume_from.replayable(state.key)
        if record is None:
            return False
        with self._lock:
            self.counters["journal_replayed"] += 1
        self._resolve(
            state,
            DeviceResult.from_record(
                record,
                device_id=device.device_id,
                attempts=0,
                latency=time.monotonic() - state.submitted_at,
                cached=True,
                error=None,
                journal_replayed=True,
            ),
        )
        return True

    # ------------------------------------------------------------------
    # routing and dispatch
    # ------------------------------------------------------------------
    def _route(
        self, design: str, attempt_number: int, exclude: int | None
    ) -> Executor:
        alive = [e for e in self._executors if e.alive]
        if not alive:
            raise RuntimeError(f"no live {self.executor_kind}s remain")
        pool = [e for e in alive if e.index != exclude] or alive
        idx = (
            zlib.crc32(design.encode("utf-8")) + (attempt_number - 1)
        ) % len(pool)
        return pool[idx]

    def _dispatch(
        self,
        state: _DeviceState,
        exclude: int | None = None,
        block: bool = False,
    ) -> None:
        """Start the device's next attempt.  ``block`` waits out the
        executor's backpressure (the client's submit loop); retries
        from executor and watchdog threads never wait."""
        with self._lock:
            if state.resolved:
                return
            state.attempts += 1
            number = state.attempts
        executor = self._route(state.device.design, number, exclude)
        deadline = (
            time.monotonic() + self.timeout
            if self.timeout is not None
            else None
        )
        attempt = _Attempt(
            device=state.device,
            state=state,
            number=number,
            key=next(self._keys),
            executor=executor,
            deadline=deadline,
        )
        with self._lock:
            state.current_attempt = attempt
            if deadline is not None:
                self._inflight.add(attempt)
        self._submit(attempt, executor, block)

    def _submit(
        self, attempt: _Attempt, executor: Executor, block: bool
    ) -> None:
        # Bounded-queue backpressure with a liveness check: if the
        # target executor dies while we wait, re-route instead of
        # blocking forever.
        while True:
            attempt.executor = executor
            if executor.submit(attempt, 0.05 if block else None):
                return
            if attempt.state.resolved or attempt.cancel.is_set():
                return
            if not executor.alive:
                executor = self._route(
                    attempt.device.design, attempt.number + 1, executor.index
                )

    # ------------------------------------------------------------------
    # executor callbacks
    # ------------------------------------------------------------------
    def _attempt_finished(
        self,
        executor: Executor,
        attempt: _Attempt,
        memo: dict | None,
        outcome: RaceOutcome | None,
    ) -> None:
        state = attempt.state
        with self._lock:
            self._inflight.discard(attempt)
        if memo is not None:
            self._resolve(state, self._result(
                state, attempt, "ok", cached=True, **memo
            ))
            return
        if outcome.cancelled:
            if not self._retry_or_fail(
                state, attempt, error=f"deadline exceeded on {executor}",
                timed_out=True, partial=outcome.partial,
            ):
                # The watchdog (or a cancel) already moved on from this
                # attempt: its outcome is late.
                with self._lock:
                    self.counters["late_results_dropped"] += 1
            return
        self._resolve(state, self._result(
            state,
            attempt,
            "ok",
            answer=outcome.answer,
            cardinality=(
                len(outcome.answer) if outcome.answer is not None else None
            ),
            solutions=outcome.solutions,
            winner=outcome.winner,
        ))

    def _attempt_error(
        self, executor: Executor, attempt: _Attempt, error: str
    ) -> None:
        # Deterministic processing error (unknown design, inconsistent
        # tests): retrying elsewhere cannot help — resolve as an error.
        with self._lock:
            self._inflight.discard(attempt)
        self._resolve(
            attempt.state,
            self._result(attempt.state, attempt, "error", error=error),
        )

    def _executor_died(self, executor: Executor, reason) -> None:
        """Rescue what a dead executor held: its running attempt died
        with it and retries elsewhere; attempts it never started are
        re-routed with their attempt number."""
        running, queued = executor.take_stranded()
        with self._lock:
            self.counters[f"{self.executor_kind}_deaths"] += 1
            self.counters["reroutes"] += len(queued) + (running is not None)
        if running is not None:
            self._retry_or_fail(
                running.state, running, error=f"{executor} died: {reason}"
            )
        for attempt in queued:
            state = attempt.state
            if state.resolved or state.current_attempt is not attempt:
                continue
            try:
                self._submit(attempt, self._route(
                    attempt.device.design, attempt.number, executor.index
                ), block=False)
            except RuntimeError as exc:  # no live executors remain
                self._retry_or_fail(state, attempt, error=str(exc))

    # ------------------------------------------------------------------
    # watchdog / retry / exactly-once
    # ------------------------------------------------------------------
    def _watchdog_loop(self) -> None:
        """Give up on attempts still silent :data:`GRACE_S` past their
        deadline; an attempt's own ladder stops at the deadline."""
        interval = min(WATCHDOG_INTERVAL_S, self.timeout / 5)
        while not self._stopping.wait(interval):
            now = time.monotonic()
            with self._lock:
                expired = [
                    a for a in self._inflight if now >= a.deadline + GRACE_S
                ]
                for a in expired:
                    self._inflight.discard(a)
            for attempt in expired:
                self._retry_or_fail(
                    attempt.state, attempt,
                    error=f"deadline exceeded on {attempt.executor}",
                    timed_out=True,
                )

    def _retry_or_fail(
        self,
        state: _DeviceState,
        attempt: _Attempt,
        error: str,
        timed_out: bool = False,
        abandoned: bool = False,
        partial: dict | None = None,
    ) -> bool:
        """The attempt failed: retry elsewhere, else resolve
        ``degraded`` from its ``partial`` (what its ladder already held),
        else ``timeout``.  An ``abandoned`` device (cancelled on request)
        neither retries nor degrades.

        Exactly one caller handles each attempt's failure (the watchdog,
        its executor, a death or a cancel may all try): False for the
        others.
        """
        attempt.executor.cancel(attempt)
        with self._lock:
            self._inflight.discard(attempt)
            if state.resolved or state.current_attempt is not attempt:
                return False
            state.current_attempt = None
            if timed_out:
                self.counters["timeouts"] += 1
            retry = not abandoned and state.attempts < self.max_attempts
            if retry:
                self.counters["retries"] += 1
        if retry:
            try:
                self._dispatch(state, exclude=attempt.executor.index)
                return True
            except RuntimeError as exc:  # no live executors remain
                error = f"{error}; retry impossible ({exc})"
        if partial is not None and self.degrade and not abandoned:
            status, fields = "degraded", partial
        else:
            status, fields = "timeout", {}
        self._resolve(
            state, self._result(state, attempt, status, error=error, **fields)
        )
        return True

    def _result(
        self,
        state: _DeviceState,
        attempt: _Attempt | None,
        status: str,
        **fields,
    ) -> DeviceResult:
        """A result for ``state`` stamped with its last attempt."""
        if attempt is not None:
            fields.update(
                attempts=attempt.number, **attempt.executor.result_fields()
            )
        else:
            fields["attempts"] = state.attempts
        return DeviceResult(
            device_id=state.device.device_id,
            design=state.device.design,
            status=status,
            latency=time.monotonic() - state.submitted_at,
            **fields,
        )

    def _resolve(self, state: _DeviceState, result: DeviceResult) -> bool:
        """Exactly-once: the first resolution wins, the rest are counted
        and dropped."""
        with self._lock:
            if state.resolved:
                self.counters["duplicate_results_dropped"] += 1
                return False
            state.resolved = True
            state.result = result
            if result.status == "degraded":
                self.counters["degraded"] += 1
            elif result.status in ("timeout", "error"):
                self.counters["failures"] += 1
            # Only a ladder that ran wins (a memo hit inherits the win
            # it batched onto); replayed results ran nothing.
            if result.winner is not None and not result.journal_replayed:
                winners = self.counters["race_winners"]
                winners[result.winner] = winners.get(result.winner, 0) + 1
            self._resolved_count += 1
            if self._resolved_count >= len(self._states):
                self._all_done.set()
        # The winning resolution is journaled outside the service lock:
        # the append is a buffered write (the fsync batch happens on the
        # journal's flusher thread), so durability stays off the result
        # path.  Replayed results came *from* the journal — re-appending
        # them would grow the WAL on every resume.
        if self.journal is not None and not result.journal_replayed:
            self.journal.resolved(state.key, result)
        return True
