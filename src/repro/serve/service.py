"""The sharded asynchronous diagnosis service.

Orchestration only — the diagnosis itself happens in the shards
(:mod:`repro.serve.shard`), each running a device's strategy ladder
inline (:mod:`repro.serve.race`).  The service owns:

* **Routing**: each device goes to a shard chosen by a stable hash of
  its design, so all devices of one design share that shard's warm
  sessions and the global :class:`~repro.serve.design.DesignCache`
  artifacts; retries rotate to a *different* shard.
* **Deadline/retry**: a watchdog thread cancels attempts past their
  deadline (the running rung stops at its next ``should_stop`` poll) and
  re-queues the device elsewhere, up to ``max_attempts``; a shard that
  dies (:class:`~repro.serve.shard.ShardKilled`) has its in-flight
  device and queued backlog re-routed the same way.
* **Exactly-once**: every device resolves to exactly one
  :class:`DeviceResult` however many attempts raced for it — the first
  resolution wins under the service lock, late/duplicate attempt
  results are counted and dropped.
* **Batching**: resolved answers are memoized per (design, failure
  signature); identical-signature devices collapse onto the first
  one's uint64-lane simulation and ladder.
* **Degradation**: a device that exhausts every attempt does not
  produce an empty ``timeout`` — the degradation ladder
  (:mod:`repro.serve.degrade`) salvages a bounded approximate answer or
  simulation-based guidance, stamped ``status="degraded"`` with its
  validity class.
* **Durability**: with a :class:`~repro.serve.journal.ResultJournal`
  every accepted device and resolution is appended to a fsync-batched
  WAL; resuming from its replay skips already-resolved signatures —
  exactly-once across process death.
* **Observability**: per-shard and service-wide counters
  (:meth:`DiagnosisService.stats`).
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..diagnosis.core import DiagnosisSession
from ..sat.backends import resolve_backend
from .degrade import run_degradation_ladder
from .design import DesignArtifacts, DesignCache
from .intake import DeviceReport, signature_seed
from .journal import JournalReplay, ResultJournal, signature_key
from .race import DEFAULT_STRATEGIES, RUNGS, RaceOutcome
from .shard import ServiceShard

__all__ = ["DeviceResult", "DiagnosisService"]


def _eager_warm_up() -> None:
    """JIT-compile the arena-jit kernels now, off the device path."""
    from ..sat import compiled

    compiled.warm_up()


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
    shard: int | None = None
    latency: float = 0.0
    cached: bool = False
    error: str | None = None
    #: Worker-process index in process mode (``serve --workers N``);
    #: None for the in-process thread service.
    worker: int | None = None
    #: Ladder rung that produced a ``"degraded"`` result
    #: ("approximate" | "guidance"), with its validity class
    #: ("valid-sampled" | "guidance") — see :mod:`repro.serve.degrade`.
    degraded_rung: str | None = None
    validity: str | None = None
    #: True when the answer was replayed from the durable journal on
    #: resume instead of being re-diagnosed.
    journal_replayed: bool = False

    def to_dict(self) -> dict:
        return {
            "id": self.device_id,
            "design": self.design,
            "status": self.status,
            "answer": list(self.answer) if self.answer is not None else None,
            "cardinality": self.cardinality,
            "n_solutions": len(self.solutions),
            "winner": self.winner,
            "attempts": self.attempts,
            "shard": self.shard,
            "latency": self.latency,
            "cached": self.cached,
            "error": self.error,
            "worker": self.worker,
            "degraded_rung": self.degraded_rung,
            "validity": self.validity,
            "journal_replayed": self.journal_replayed,
        }


class _LinkedCancel:
    """Event-shaped cancel flag linked to an externally owned event.

    Process mode hands the service one external cancel event per device
    (set by the parent's control message).  ``set()`` flips only the
    local per-attempt flag — a retry gets a fresh local flag and must
    not be pre-cancelled by its predecessor — while ``is_set()`` ORs in
    the external event, so a parent-sent cancel reaches the running
    rung's ``Budget.should_stop`` polls mid-solve exactly like a watchdog
    deadline does.
    """

    __slots__ = ("_local", "_external")

    def __init__(self, external: threading.Event) -> None:
        self._local = threading.Event()
        self._external = external

    def set(self) -> None:
        self._local.set()

    def is_set(self) -> bool:
        return self._local.is_set() or self._external.is_set()

    @property
    def external_set(self) -> bool:
        return self._external.is_set()


@dataclass(eq=False)
class _Attempt:
    device: DeviceReport
    state: "_DeviceState"
    number: int
    shard_index: int
    cancel: threading.Event = field(default_factory=threading.Event)
    deadline: float | None = None


@dataclass
class _DeviceState:
    device: DeviceReport
    order: int
    submitted_at: float = 0.0
    attempts: int = 0
    resolved: bool = False
    result: DeviceResult | None = None
    current_attempt: _Attempt | None = None


class DiagnosisService:
    """Sharded, racing, exactly-once diagnosis over a device stream.

    Parameters
    ----------
    n_shards:
        Worker threads (each with a bounded queue — the queue bound is
        the admission control that keeps reported latencies honest).
    strategies:
        The ladder of rungs tried in order per device, first rung with
        solutions wins (:data:`~repro.serve.race.DEFAULT_STRATEGIES`:
        single-fix, greedy, bsat; any of :data:`~repro.serve.race.RUNGS`);
        ``("bsat",)`` gives the bit-reproducible reference mode.
    policy:
        ``"first"`` — each rung stops at its first valid answer;
        ``"complete"`` — each rung runs to completion (use with one
        strategy for reference answers).
    timeout:
        Per-attempt deadline in seconds (None: no watchdog).
    max_attempts:
        Total attempts per device (1 = no retry).
    conflict_poll_interval:
        Solver-level cancellation granularity: every rung carries a
        :class:`~repro.sat.budget.Budget` polled at least this often
        (in conflicts), so a deadline or cancellation lands mid-solve
        within a bounded number of conflicts rather than at the next
        solver-call boundary.
    degrade:
        When a device exhausts every attempt, walk the degradation
        ladder (:mod:`repro.serve.degrade`) — a bounded approximate
        search, then simulation-based guidance — and resolve
        ``status="degraded"`` instead of an empty ``timeout``.
        ``degrade_budget`` bounds the ladder's approximate rung in
        seconds.
    journal:
        A :class:`~repro.serve.journal.ResultJournal`: every accepted
        device and every resolution is appended to the durable WAL.
        ``resume_from`` (a :class:`~repro.serve.journal.JournalReplay`,
        usually ``read_journal(path)`` of the same file) replays
        already-resolved signatures without re-diagnosing —
        exactly-once across process death.
    fault_hook:
        Chaos/test injection: ``hook(shard_index, attempt)`` called
        before each attempt is processed; may sleep (hang) or raise
        :class:`~repro.serve.shard.ShardKilled` (crash).  See
        :mod:`repro.serve.chaos`.
    external_cancels:
        Mutable mapping ``device_id -> threading.Event`` consulted at
        dispatch: when a device has an entry its attempts carry a
        cancel flag linked to that event, and setting the event (the
        process-mode parent does, on a cancel message) stops the
        in-flight ladder mid-solve and resolves the device as
        ``status="timeout"`` without retry or degradation — the parent
        asked the device to be abandoned, not salvaged.

    Constructing the service with an ``arena-jit`` backend eagerly
    JIT-compiles the kernels (``sat.compiled.warm_up()``) so the
    compile cost lands at construction time, never on the first
    device's latency.
    """

    def __init__(
        self,
        n_shards: int = 2,
        strategies: Sequence[str] = DEFAULT_STRATEGIES,
        policy: str = "first",
        timeout: float | None = None,
        max_attempts: int = 2,
        queue_size: int = 2,
        conflict_poll_interval: int = 64,
        degrade: bool = True,
        degrade_budget: float = 0.25,
        journal: ResultJournal | None = None,
        resume_from: JournalReplay | None = None,
        design_cache: DesignCache | None = None,
        solver_backend: str | None = None,
        fault_hook=None,
        external_cancels: dict[str, threading.Event] | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        if policy not in ("first", "complete"):
            raise ValueError("policy must be 'first' or 'complete'")
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.strategies = tuple(strategies)
        if not self.strategies:
            raise ValueError("at least one strategy is required")
        for name in self.strategies:
            if name not in RUNGS:
                raise ValueError(
                    f"unknown strategy {name!r} (expected one of "
                    f"{', '.join(RUNGS)})"
                )
        if conflict_poll_interval < 1:
            raise ValueError("conflict_poll_interval must be at least 1")
        self.policy = policy
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.queue_size = queue_size
        self.conflict_poll_interval = conflict_poll_interval
        self.degrade = degrade
        self.degrade_budget = degrade_budget
        self.journal = journal
        self.resume_from = resume_from
        self.solver_backend = solver_backend
        self.design_cache = (
            design_cache if design_cache is not None else DesignCache()
        )
        self.fault_hook = fault_hook
        self.external_cancels = external_cancels
        if resolve_backend(solver_backend) == "arena-jit":
            # Pay the JIT compile now, off every device's latency path
            # (idempotent: a warm process returns immediately).
            _eager_warm_up()
        self._shards = [
            ServiceShard(i, self, queue_size=queue_size)
            for i in range(n_shards)
        ]
        self._lock = threading.Lock()
        self._memo_lock = threading.Lock()
        self._inflight: set[_Attempt] = set()
        self._states: dict[str, _DeviceState] = {}
        self._resolved_count = 0
        self._all_done = threading.Event()
        self._stopping = threading.Event()
        self._watchdog: threading.Thread | None = None
        self.counters = {
            "devices": 0,
            "timeouts": 0,
            "retries": 0,
            "shard_deaths": 0,
            "failures": 0,
            "duplicate_results_dropped": 0,
            "late_results_dropped": 0,
            "memo_stores": 0,
            "degraded": 0,
            "journal_replayed": 0,
            "race_winners": {},
        }

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
        for i, shard in enumerate(self._shards):
            if shard.is_alive():
                continue
            if shard.ident is not None:
                # A previous run() finished (or killed) this worker;
                # threads are one-shot, so replace it, carrying the
                # cumulative counters over.
                fresh = ServiceShard(
                    shard.index, self, queue_size=self.queue_size
                )
                fresh.stats = shard.stats
                self._shards[i] = shard = fresh
            shard.start()
        if self.timeout is not None and self._watchdog is None:
            self._watchdog = threading.Thread(
                target=self._watchdog_loop,
                name="repro-serve-watchdog",
                daemon=True,
            )
            self._watchdog.start()
        try:
            for device in device_list:
                state = self._states[device.device_id]
                state.submitted_at = time.monotonic()
                if self._replay_from_journal(state):
                    continue
                if self.journal is not None:
                    self.journal.accepted(
                        device.device_id,
                        device.design,
                        signature_key(device.signature()),
                    )
                self._dispatch(state)
            self._all_done.wait()
        finally:
            self._shutdown()
            if self.journal is not None:
                self.journal.flush()
        ordered = sorted(
            (s for s in self._states.values()), key=lambda s: s.order
        )
        results = [s.result for s in ordered]
        with self._lock:
            self._states.clear()
            self._resolved_count = 0
            self._all_done.clear()
        return results

    def stats(self) -> dict:
        """Service + shard + design-cache counters (JSON-friendly)."""
        shard_stats = {
            f"shard{s.index}": dict(s.stats) for s in self._shards
        }
        signature_hits = sum(
            s.stats["signature_hits"] for s in self._shards
        )
        cancelled_legs = sum(
            s.stats["cancelled_legs"] for s in self._shards
        )
        skipped_legs = sum(
            s.stats["skipped_legs"] for s in self._shards
        )
        return {
            **{k: v for k, v in self.counters.items()},
            "signature_hits": signature_hits,
            "cancelled_legs": cancelled_legs,
            "skipped_legs": skipped_legs,
            **(
                {"journal": dict(self.journal.stats)}
                if self.journal is not None
                else {}
            ),
            "design_cache": {
                "designs_built": self.design_cache.stats["designs_built"],
                "design_hits": self.design_cache.stats["design_hits"],
                "skeleton_builds": dict(
                    self.design_cache.stats["skeleton_builds"]
                ),
                "memo_evictions": self.design_cache.memo_evictions(),
            },
            "shards": shard_stats,
        }

    # ------------------------------------------------------------------
    # journal resume
    # ------------------------------------------------------------------
    def _replay_from_journal(self, state: _DeviceState) -> bool:
        """Resolve ``state`` from the resume journal when its signature
        already carries an answer-bearing resolution (exactly-once
        across process death); ``timeout``/``error`` records re-run."""
        if self.resume_from is None:
            return False
        device = state.device
        record = self.resume_from.replayable(
            signature_key(device.signature())
        )
        if record is None:
            return False
        from .journal import _decode_solutions

        with self._lock:
            self.counters["journal_replayed"] += 1
        self._resolve(
            state,
            DeviceResult(
                device_id=device.device_id,
                design=device.design,
                status=record["status"],
                answer=(
                    tuple(record["answer"])
                    if record["answer"] is not None
                    else None
                ),
                cardinality=record["cardinality"],
                solutions=_decode_solutions(record["solutions"]),
                winner=record["winner"],
                attempts=0,
                shard=None,
                latency=time.monotonic() - state.submitted_at,
                cached=True,
                degraded_rung=record.get("degraded_rung"),
                validity=record.get("validity"),
                journal_replayed=True,
            ),
        )
        return True

    # ------------------------------------------------------------------
    # routing and dispatch
    # ------------------------------------------------------------------
    def _route(
        self, design: str, attempt_number: int, exclude: int | None
    ) -> ServiceShard:
        alive = [s for s in self._shards if s.alive_for_routing]
        if not alive:
            raise RuntimeError("no live shards remain")
        pool = alive
        if exclude is not None and len(alive) > 1:
            pool = [s for s in alive if s.index != exclude] or alive
        idx = (
            zlib.crc32(design.encode("utf-8")) + (attempt_number - 1)
        ) % len(pool)
        return pool[idx]

    def _dispatch(
        self, state: _DeviceState, exclude: int | None = None
    ) -> None:
        with self._lock:
            if state.resolved:
                return
            state.attempts += 1
            number = state.attempts
        shard = self._route(state.device.design, number, exclude)
        deadline = (
            time.monotonic() + self.timeout
            if self.timeout is not None
            else None
        )
        attempt = _Attempt(
            device=state.device,
            state=state,
            number=number,
            shard_index=shard.index,
            deadline=deadline,
        )
        if self.external_cancels is not None:
            external = self.external_cancels.get(state.device.device_id)
            if external is not None:
                attempt.cancel = _LinkedCancel(external)
        with self._lock:
            state.current_attempt = attempt
            if deadline is not None:
                self._inflight.add(attempt)
        self._submit(shard, attempt)

    def _submit(self, shard: ServiceShard, attempt: _Attempt) -> None:
        # Bounded-queue backpressure with a liveness check: if the
        # target shard dies while we wait, re-route instead of blocking
        # forever.
        while True:
            try:
                shard.submit(attempt, timeout=0.05)
                return
            except Exception:
                if attempt.state.resolved or attempt.cancel.is_set():
                    return
                if not shard.alive_for_routing or not shard.is_alive():
                    shard = self._route(
                        attempt.device.design,
                        attempt.number + 1,
                        shard.index,
                    )
                    attempt.shard_index = shard.index

    # ------------------------------------------------------------------
    # shard callbacks
    # ------------------------------------------------------------------
    def _memo_lookup(
        self, artifacts: DesignArtifacts, signature: tuple
    ) -> dict | None:
        with self._memo_lock:
            return artifacts.result_memo.get(signature)

    def _memo_store(
        self, artifacts: DesignArtifacts, signature: tuple, memo: dict
    ) -> None:
        with self._memo_lock:
            if artifacts.result_memo.store(signature, memo):
                self.counters["memo_stores"] += 1

    def _attempt_finished(
        self,
        shard: ServiceShard,
        attempt: _Attempt,
        memo: dict | None,
        outcome: RaceOutcome | None,
    ) -> None:
        state = attempt.state
        with self._lock:
            self._inflight.discard(attempt)
        if memo is not None:
            self._resolve(state, self._result_from_memo(state, attempt, memo))
            return
        assert outcome is not None
        lost_race = outcome.answer is None and (
            outcome.cancelled or outcome.timed_out
        )
        if lost_race:
            with self._lock:
                stale = (
                    state.resolved or state.current_attempt is not attempt
                )
            if stale:
                # The watchdog already re-queued (or resolved) this
                # device; the cancelled attempt's empty outcome is late.
                with self._lock:
                    self.counters["late_results_dropped"] += 1
                return
            self._handle_timeout(state, attempt)
            return
        result = self._result_from_outcome(state, attempt, outcome)
        if self._resolve(state, result) and result.status == "ok":
            artifacts = self.design_cache.get(attempt.device.design)
            self._memo_store(
                artifacts,
                attempt.device.signature(),
                {
                    "answer": result.answer,
                    "cardinality": result.cardinality,
                    "solutions": result.solutions,
                    "winner": result.winner,
                },
            )

    def _attempt_error(
        self, shard: ServiceShard, attempt: _Attempt, exc: Exception
    ) -> None:
        # Deterministic processing error (unknown design, inconsistent
        # tests): retrying elsewhere cannot help — resolve as an error.
        state = attempt.state
        with self._lock:
            self._inflight.discard(attempt)
            self.counters["failures"] += 1
        self._resolve(
            state,
            DeviceResult(
                device_id=state.device.device_id,
                design=state.device.design,
                status="error",
                attempts=attempt.number,
                shard=shard.index,
                latency=time.monotonic() - state.submitted_at,
                error=f"{type(exc).__name__}: {exc}",
            ),
        )

    def _shard_died(
        self, shard: ServiceShard, attempt: _Attempt, exc: Exception
    ) -> None:
        shard.alive_for_routing = False
        with self._lock:
            self.counters["shard_deaths"] += 1
            self._inflight.discard(attempt)
        # The in-flight device retries elsewhere (its attempt died with
        # the shard)...
        self._retry_or_fail(
            attempt.state, attempt,
            error=f"shard {shard.index} died: {exc}",
        )
        # ...and the dead shard's queued backlog is re-routed wholesale
        # (those attempts never started; they keep their attempt number).
        while True:
            try:
                item = shard.queue.get_nowait()
            except Exception:
                break
            if item is None or not isinstance(item, _Attempt):
                continue
            target = self._route(
                item.device.design, item.number, shard.index
            )
            item.shard_index = target.index
            self._submit(target, item)

    # ------------------------------------------------------------------
    # watchdog / retry / exactly-once
    # ------------------------------------------------------------------
    def _watchdog_loop(self) -> None:
        interval = min(0.02, (self.timeout or 1.0) / 5)
        while not self._stopping.is_set():
            now = time.monotonic()
            with self._lock:
                expired = [
                    a
                    for a in self._inflight
                    if a.deadline is not None and now >= a.deadline
                ]
                for a in expired:
                    self._inflight.discard(a)
            for attempt in expired:
                attempt.cancel.set()
                state = attempt.state
                with self._lock:
                    if (
                        state.resolved
                        or state.current_attempt is not attempt
                    ):
                        continue
                    self.counters["timeouts"] += 1
                self._retry_or_fail(
                    state, attempt,
                    error=f"deadline exceeded on shard "
                    f"{attempt.shard_index}",
                )
            self._rescue_dead_shard_stragglers()
            self._stopping.wait(interval)

    def _rescue_dead_shard_stragglers(self) -> None:
        """Re-route attempts parked in a dead shard's queue.

        ``_shard_died`` drains the dead shard's backlog, but a submitter
        blocked on that queue's backpressure can still land an attempt
        *after* the drain (the death and the put race).  Whoever pops an
        item off the queue owns it, so draining again here is safe — and
        turns a straggler's worst case from its full attempt deadline
        into one watchdog tick.
        """
        for shard in self._shards:
            if shard.alive_for_routing:
                continue
            while True:
                try:
                    item = shard.queue.get_nowait()
                except Exception:
                    break
                if not isinstance(item, _Attempt) or item.state.resolved:
                    continue
                try:
                    target = self._route(
                        item.device.design, item.number, shard.index
                    )
                except RuntimeError:  # no live shards remain
                    self._retry_or_fail(
                        item.state, item,
                        error="no live shards remain",
                    )
                    continue
                item.shard_index = target.index
                self._submit(target, item)

    def _handle_timeout(self, state: _DeviceState, attempt: _Attempt) -> None:
        with self._lock:
            self.counters["timeouts"] += 1
        self._retry_or_fail(
            state, attempt,
            error=f"deadline exceeded on shard {attempt.shard_index}",
        )

    def _retry_or_fail(
        self, state: _DeviceState, attempt: _Attempt, error: str
    ) -> None:
        attempt.cancel.set()
        # An externally cancelled device is abandoned on request — no
        # retry (the next attempt would inherit the set external flag
        # and spin) and no degradation ladder (the canceller wants the
        # slot back now, not a salvaged answer later).
        abandoned = getattr(attempt.cancel, "external_set", False)
        with self._lock:
            if state.resolved or state.current_attempt is not attempt:
                return
            retry = not abandoned and state.attempts < self.max_attempts
            if retry:
                self.counters["retries"] += 1
        if abandoned:
            error = "externally cancelled"
        if retry:
            try:
                self._dispatch(state, exclude=attempt.shard_index)
                return
            except RuntimeError as exc:  # no live shards remain
                error = f"{error}; retry impossible ({exc})"
        if self.degrade and not abandoned:
            degraded = self._degrade(state, attempt, error)
            if degraded is not None:
                with self._lock:
                    self.counters["degraded"] += 1
                self._resolve(state, degraded)
                return
        with self._lock:
            self.counters["failures"] += 1
        self._resolve(
            state,
            DeviceResult(
                device_id=state.device.device_id,
                design=state.device.design,
                status="timeout",
                attempts=attempt.number,
                shard=attempt.shard_index,
                latency=time.monotonic() - state.submitted_at,
                error=error,
            ),
        )

    def _degrade(
        self, state: _DeviceState, attempt: _Attempt, error: str
    ) -> DeviceResult | None:
        """Walk the degradation ladder after the last exact attempt
        failed; None when the ladder also comes up empty.

        Runs on the caller's thread (watchdog or shard) but is bounded:
        the approximate rung carries its own ``degrade_budget`` deadline
        Budget and the guidance rung is one vectorized sweep.
        """
        device = state.device
        try:
            artifacts = self.design_cache.get(device.design)
            session = DiagnosisSession(
                artifacts.circuit,
                device.tests,
                solver_backend=self.solver_backend,
                seed=signature_seed(device.signature()),
            )
            session.master_skeleton = artifacts.skeleton
            found = run_degradation_ladder(
                session, k=device.k, budget_seconds=self.degrade_budget
            )
        except Exception:
            return None
        if found is None:
            return None
        return DeviceResult(
            device_id=device.device_id,
            design=device.design,
            status="degraded",
            answer=found.answer,
            cardinality=(
                len(found.answer) if found.answer is not None else None
            ),
            solutions=found.solutions,
            winner=None,
            attempts=attempt.number,
            shard=attempt.shard_index,
            latency=time.monotonic() - state.submitted_at,
            error=error,
            degraded_rung=found.rung,
            validity=found.validity,
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
            if result.winner is not None:
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
            self.journal.resolved(
                signature_key(state.device.signature()), result
            )
        return True

    # ------------------------------------------------------------------
    # result construction
    # ------------------------------------------------------------------
    def _result_from_outcome(
        self, state: _DeviceState, attempt: _Attempt, outcome: RaceOutcome
    ) -> DeviceResult:
        return DeviceResult(
            device_id=state.device.device_id,
            design=state.device.design,
            status="ok",
            answer=outcome.answer,
            cardinality=(
                len(outcome.answer) if outcome.answer is not None else None
            ),
            solutions=outcome.solutions,
            winner=outcome.winner,
            attempts=attempt.number,
            shard=attempt.shard_index,
            latency=time.monotonic() - state.submitted_at,
            cached=False,
        )

    def _result_from_memo(
        self, state: _DeviceState, attempt: _Attempt, memo: dict
    ) -> DeviceResult:
        return DeviceResult(
            device_id=state.device.device_id,
            design=state.device.design,
            status="ok",
            answer=memo["answer"],
            cardinality=memo["cardinality"],
            solutions=memo["solutions"],
            winner=memo["winner"],
            attempts=attempt.number,
            shard=attempt.shard_index,
            latency=time.monotonic() - state.submitted_at,
            cached=True,
        )

    # ------------------------------------------------------------------
    def _shutdown(self) -> None:
        self._stopping.set()
        if self._watchdog is not None:
            self._watchdog.join(timeout=1.0)
            self._watchdog = None
        for shard in self._shards:
            if shard.is_alive():
                shard.shutdown()
        for shard in self._shards:
            shard.join(timeout=1.0)
        self._stopping.clear()
