"""Process-level scale-out: design-sharded worker processes.

The thread service (:mod:`repro.serve.service`) gets good latency from
its cheapest-rung-first ladder, but under the GIL its shards share one
core — the compute-bound rungs (pure-Python CDCL, the interpreted glue
around the compiled kernels) serialize however many shards run.  This
module partitions *designs* (not devices) across worker **processes**,
each running the existing thread-based
:class:`~repro.serve.service.DiagnosisService` over its design subset,
so throughput scales with cores while every per-design contract stays
process-local:

* the :class:`~repro.serve.design.DesignCache` build-once-per-design
  guarantee holds *per owning worker* — a design's circuit, skeleton
  and signature memo live in exactly one process (until a death
  re-routes its devices), and nothing large ever crosses a process
  boundary;
* only plain dicts flow over the ``multiprocessing`` queues: intake
  wire dicts (:func:`~repro.serve.intake.device_to_wire`) down, result
  records (the journal's encoding) up — spawn-safe, no custom pickling.

Topology and protocol::

    parent                                  worker i (spawned)
    ------                                  ------------------
    router: crc32(design) % alive  ------>  task_q:   ("device", wire)
    bounded inflight / backpressure         ("shutdown",)
    watchdog: death detect, backstop ---->  ctrl_q:   ("cancel", id)
    reader thread per worker  <-----------  result_q: ("ready", i)
      -> in-process inbox ->                ("result", i, payload, stats)
    collector: exactly-once resolve         ("bye", i, stats)
    journal: the one WAL (parent)

Each worker gets its **own** result queue, drained by a dedicated
parent reader thread into one in-process inbox.  This is a survival
property, not a convenience: a SIGKILL can land mid-``put``, leaving a
truncated pickle in the pipe, and on a shared queue that torn tail
desynchronizes the stream for every surviving worker — per-worker
queues contain the damage to the process that died (its devices
re-route and re-diagnose; the parent's exactly-once resolution absorbs
the duplicate work).

Semantics carried over from the thread service, one level up:

* **Routing** — a stable hash of the design picks the owning worker;
  re-routes (death, explicit exclude) rotate deterministically, the
  same idiom as shard routing.
* **Lifecycle** — workers are spawned at construction and ``warm_up()``
  their compiled backend *before* the ready handshake, so JIT compile
  cost never lands on a device; shutdown drains cleanly (the shutdown
  sentinel queues FIFO behind remaining work).
* **Death** — the parent watchdog polls worker liveness; a dead
  worker's unacknowledged devices re-route to survivors (the PR-9
  dead-shard rescue, generalized to processes), bounded so a
  deterministic crasher cannot ping-pong forever.
* **Cancellation** — the parent sends ``("cancel", id)``; the worker's
  control listener sets the device's external cancel event, which the
  service links into every attempt's cancel flag — the running rung sees
  it at its next ``Budget.should_stop`` poll, so cancellation still
  lands *mid-solve*.  A backstop deadline in the parent covers a
  worker too wedged to answer even that.
* **Durability** — exactly one WAL, owned by the parent: workers ship
  resolutions up and the parent appends them, so replay/resume
  (:func:`~repro.serve.journal.read_journal`) is byte-compatible with
  thread mode and resolution stays exactly-once across process death —
  the parent's, via resume, and a worker's, via re-route.
* **Observability** — :meth:`ProcessDiagnosisService.stats` merges the
  per-worker service snapshots (timeouts, retries, memo, race winners)
  with the parent's own routing/death/cancel counters and per-worker
  ``processed`` / ``queue_high_water``, so routing skew is visible.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .design import DEFAULT_MEMO_MAX_ENTRIES, DesignCache
from .intake import DeviceReport, device_to_wire, parse_device
from .journal import (
    JournalReplay,
    ResultJournal,
    _decode_solutions,
    _encode_solutions,
    signature_key,
)
from .race import DEFAULT_STRATEGIES, RUNGS
from .service import DeviceResult, DiagnosisService

__all__ = ["ProcessDiagnosisService"]


# ----------------------------------------------------------------------
# wire encoding (plain JSON-shaped dicts only)
# ----------------------------------------------------------------------
def _result_to_wire(result: DeviceResult) -> dict:
    return {
        "id": result.device_id,
        "design": result.design,
        "status": result.status,
        "answer": (
            list(result.answer) if result.answer is not None else None
        ),
        "cardinality": result.cardinality,
        "solutions": _encode_solutions(result.solutions),
        "winner": result.winner,
        "attempts": result.attempts,
        "shard": result.shard,
        "latency": result.latency,
        "cached": result.cached,
        "error": result.error,
        "degraded_rung": result.degraded_rung,
        "validity": result.validity,
    }


def _result_from_wire(payload: dict, worker_index: int) -> DeviceResult:
    return DeviceResult(
        device_id=payload["id"],
        design=payload["design"],
        status=payload["status"],
        answer=(
            tuple(payload["answer"])
            if payload["answer"] is not None
            else None
        ),
        cardinality=payload["cardinality"],
        solutions=_decode_solutions(payload["solutions"]),
        winner=payload["winner"],
        attempts=payload["attempts"],
        shard=payload["shard"],
        latency=payload["latency"],
        cached=payload["cached"],
        error=payload["error"],
        worker=worker_index,
        degraded_rung=payload["degraded_rung"],
        validity=payload["validity"],
    )


# ----------------------------------------------------------------------
# the worker process
# ----------------------------------------------------------------------
def _worker_main(
    worker_index: int,
    config: dict,
    task_q,
    ctrl_q,
    result_q,
) -> None:
    """Entry point of one spawned worker.

    Builds a worker-local :class:`DiagnosisService` (which eagerly
    ``warm_up()``s an arena-jit backend — that is why the ready
    handshake comes *after* construction), then serves devices one at a
    time: the bounded-inflight parent router is the admission control,
    the worker's own shards/watchdog/degradation handle everything
    within a device exactly as in thread mode.
    """
    cancels: dict[str, threading.Event] = {}
    cancels_lock = threading.Lock()
    service = DiagnosisService(
        n_shards=config["worker_shards"],
        strategies=config["strategies"],
        policy=config["policy"],
        timeout=config["timeout"],
        max_attempts=config["max_attempts"],
        queue_size=config["queue_size"],
        conflict_poll_interval=config["conflict_poll_interval"],
        degrade=config["degrade"],
        degrade_budget=config["degrade_budget"],
        design_cache=DesignCache(
            memo_max_entries=config["memo_max_entries"]
        ),
        solver_backend=config["solver_backend"],
        external_cancels=cancels,
    )
    processed = 0

    def snapshot() -> dict:
        return {"processed": processed, **service.stats()}

    def control_loop() -> None:
        # Cancels ride a dedicated queue so they overtake queued tasks;
        # a cancel for a not-yet-seen device pre-creates its event, so
        # the cancel-before-dequeue race resolves instantly.
        while True:
            msg = ctrl_q.get()
            if msg[0] == "stop":
                return
            if msg[0] == "cancel":
                with cancels_lock:
                    event = cancels.get(msg[1])
                    if event is None:
                        event = threading.Event()
                        cancels[msg[1]] = event
                event.set()

    listener = threading.Thread(
        target=control_loop,
        name=f"repro-procpool-w{worker_index}-ctrl",
        daemon=True,
    )
    listener.start()
    result_q.put(("ready", worker_index))
    while True:
        msg = task_q.get()
        if msg[0] == "shutdown":
            result_q.put(("bye", worker_index, snapshot()))
            return
        data = msg[1]
        device_id = data.get("id") if isinstance(data, dict) else None
        try:
            device = parse_device(
                data, where=f"worker{worker_index}.device"
            )
            with cancels_lock:
                cancels.setdefault(device.device_id, threading.Event())
            result = service.run([device])[0]
            payload = _result_to_wire(result)
        except Exception as exc:  # never let one device kill the worker
            payload = {
                "id": device_id if device_id is not None else "?",
                "design": (
                    data.get("design", "?")
                    if isinstance(data, dict)
                    else "?"
                ),
                "status": "error",
                "answer": None,
                "cardinality": None,
                "solutions": [],
                "winner": None,
                "attempts": 0,
                "shard": None,
                "latency": 0.0,
                "cached": False,
                "error": f"{type(exc).__name__}: {exc}",
                "degraded_rung": None,
                "validity": None,
            }
        finally:
            if device_id is not None:
                with cancels_lock:
                    cancels.pop(device_id, None)
        processed += 1
        result_q.put(("result", worker_index, payload, snapshot()))


# ----------------------------------------------------------------------
# parent-side state
# ----------------------------------------------------------------------
@dataclass(eq=False)
class _WorkerHandle:
    index: int
    process: multiprocessing.process.BaseProcess
    task_q: object
    ctrl_q: object
    result_q: object
    alive: bool = True
    inflight: int = 0
    inflight_high_water: int = 0
    last_stats: dict = field(default_factory=dict)


@dataclass(eq=False)
class _ProcState:
    device: DeviceReport
    order: int
    submitted_at: float = 0.0
    routes: int = 0
    worker_index: int | None = None
    resolved: bool = False
    result: DeviceResult | None = None
    backstop_deadline: float | None = None
    cancel_sent_at: float | None = None


class ProcessDiagnosisService:
    """Design-sharded diagnosis over worker processes.

    ``DiagnosisService``-compatible ``run()``/``stats()``; construction
    spawns (and warms) the workers, so build it once and reuse it —
    ``close()`` (or the context manager) drains and reaps them.

    Parameters mirror :class:`~repro.serve.service.DiagnosisService`
    where they configure the per-worker services (``worker_shards`` is
    each worker's internal thread-shard count), plus:

    n_workers:
        Worker processes (the design partitions).
    inflight_per_worker:
        Unacknowledged devices a worker may hold (queued + running) —
        the parent blocks submission past it, the admission control of
        the bounded shard queues one level up.
    backstop_slack / cancel_grace:
        The parent-side last-resort deadline: a device is given
        ``inflight_per_worker * (timeout * max_attempts +
        degrade_budget) + backstop_slack`` seconds of wall time (its
        worker enforces the real per-attempt deadlines); past that the
        parent sends a cancel, and ``cancel_grace`` later resolves the
        device as ``timeout`` itself.  Only meaningful with a
        ``timeout``.
    worker_kill_hook:
        Chaos injection (``hook(worker_index, device_id) -> bool``,
        see :meth:`~repro.serve.chaos.ChaosInjector.worker_kill_hook`):
        consulted after every submit; True hard-kills the target worker.
    mp_context:
        ``multiprocessing`` start method; ``"spawn"`` (default) is the
        portable, no-inherited-locks choice the wire protocol assumes.
    """

    def __init__(
        self,
        n_workers: int = 2,
        worker_shards: int = 1,
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
        solver_backend: str | None = None,
        memo_max_entries: int = DEFAULT_MEMO_MAX_ENTRIES,
        inflight_per_worker: int = 4,
        start_timeout: float = 120.0,
        backstop_slack: float = 2.0,
        cancel_grace: float = 5.0,
        worker_kill_hook: Callable[[int, str], bool] | None = None,
        mp_context: str = "spawn",
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        if inflight_per_worker < 1:
            raise ValueError("inflight_per_worker must be at least 1")
        strategies = tuple(strategies)
        if not strategies:
            raise ValueError("at least one strategy is required")
        for name in strategies:
            if name not in RUNGS:
                raise ValueError(
                    f"unknown strategy {name!r} (expected one of "
                    f"{', '.join(RUNGS)})"
                )
        if policy not in ("first", "complete"):
            raise ValueError("policy must be 'first' or 'complete'")
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.n_workers = n_workers
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.degrade = degrade
        self.degrade_budget = degrade_budget
        self.journal = journal
        self.resume_from = resume_from
        self.inflight_per_worker = inflight_per_worker
        self.backstop_slack = backstop_slack
        self.cancel_grace = cancel_grace
        self.worker_kill_hook = worker_kill_hook
        self._config = {
            "worker_shards": worker_shards,
            "strategies": strategies,
            "policy": policy,
            "timeout": timeout,
            "max_attempts": max_attempts,
            "queue_size": queue_size,
            "conflict_poll_interval": conflict_poll_interval,
            "degrade": degrade,
            "degrade_budget": degrade_budget,
            "solver_backend": solver_backend,
            "memo_max_entries": memo_max_entries,
        }
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._states: dict[str, _ProcState] = {}
        self._resolved_count = 0
        self._all_done = threading.Event()
        self._run_stopping = threading.Event()
        self._closed = False
        self.counters = {
            "devices": 0,
            "journal_replayed": 0,
            "worker_deaths": 0,
            "reroutes": 0,
            "cancels_sent": 0,
            "backstop_timeouts": 0,
            "degraded": 0,
            "failures": 0,
            "duplicate_results_dropped": 0,
            "late_results_dropped": 0,
            "race_winners": {},
        }
        self._ctx = multiprocessing.get_context(mp_context)
        # In-process fan-in of the per-worker result queues: the reader
        # threads are the only consumers of the cross-process pipes, so
        # a worker killed mid-put can wedge at most its own reader.
        self._inbox: queue_mod.Queue = queue_mod.Queue()
        self._workers: list[_WorkerHandle] = []
        self._readers: list[threading.Thread] = []
        for i in range(n_workers):
            task_q = self._ctx.Queue()
            ctrl_q = self._ctx.Queue()
            result_q = self._ctx.Queue()
            process = self._ctx.Process(
                target=_worker_main,
                args=(i, self._config, task_q, ctrl_q, result_q),
                name=f"repro-procpool-w{i}",
                daemon=True,
            )
            process.start()
            worker = _WorkerHandle(
                index=i,
                process=process,
                task_q=task_q,
                ctrl_q=ctrl_q,
                result_q=result_q,
            )
            self._workers.append(worker)
            reader = threading.Thread(
                target=self._reader_loop,
                args=(worker,),
                name=f"repro-procpool-reader-{i}",
                daemon=True,
            )
            reader.start()
            self._readers.append(reader)
        self._await_ready(start_timeout)

    def _reader_loop(self, worker: _WorkerHandle) -> None:
        """Forward one worker's results into the in-process inbox.

        Exits on the worker's ``bye`` or on a broken/torn stream (the
        worker was killed mid-put) — never propagates the damage.
        """
        while True:
            try:
                msg = worker.result_q.get()
            except Exception:
                return
            self._inbox.put((worker, msg))
            if msg[0] == "bye":
                return

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _await_ready(self, start_timeout: float) -> None:
        pending = {w.index for w in self._workers}
        deadline = time.monotonic() + start_timeout
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.close()
                raise RuntimeError(
                    f"workers {sorted(pending)} failed to start within "
                    f"{start_timeout}s"
                )
            try:
                _, msg = self._inbox.get(timeout=min(remaining, 0.2))
            except queue_mod.Empty:
                for w in self._workers:
                    if w.index in pending and not w.process.is_alive():
                        self.close()
                        raise RuntimeError(
                            f"worker {w.index} died during startup "
                            f"(exit code {w.process.exitcode})"
                        )
                continue
            if msg[0] == "ready":
                pending.discard(msg[1])

    def close(self, timeout: float = 10.0) -> None:
        """Drain and reap every worker; idempotent."""
        if self._closed:
            return
        self._closed = True
        expecting = set()
        for w in self._workers:
            if w.alive and w.process.is_alive():
                try:
                    w.task_q.put(("shutdown",))
                    expecting.add(w.index)
                except Exception:
                    pass
        deadline = time.monotonic() + timeout
        while expecting and time.monotonic() < deadline:
            try:
                worker, msg = self._inbox.get(timeout=0.2)
            except queue_mod.Empty:
                expecting = {
                    i
                    for i in expecting
                    if self._workers[i].process.is_alive()
                }
                continue
            if msg[0] == "bye":
                worker.last_stats = msg[2]
                expecting.discard(worker.index)
            elif msg[0] == "result":
                worker.last_stats = msg[3]
        for w in self._workers:
            w.alive = False
            w.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if w.process.is_alive():
                w.process.terminate()
                w.process.join(timeout=1.0)
            for q in (w.task_q, w.ctrl_q, w.result_q):
                try:
                    q.close()
                    q.cancel_join_thread()
                except Exception:
                    pass

    def __enter__(self) -> "ProcessDiagnosisService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, devices: Iterable[DeviceReport]) -> list[DeviceResult]:
        """Diagnose every device; results in input order, exactly once."""
        if self._closed:
            raise RuntimeError("service is closed")
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
                self._states[device.device_id] = _ProcState(
                    device=device, order=order
                )
        self._run_stopping.clear()
        collector = threading.Thread(
            target=self._collector_loop,
            name="repro-procpool-collector",
            daemon=True,
        )
        watchdog = threading.Thread(
            target=self._watchdog_loop,
            name="repro-procpool-watchdog",
            daemon=True,
        )
        collector.start()
        watchdog.start()
        try:
            for device in device_list:
                state = self._states[device.device_id]
                state.submitted_at = time.monotonic()
                if self.timeout is not None:
                    wall = self.inflight_per_worker * (
                        self.timeout * self.max_attempts
                        + (self.degrade_budget if self.degrade else 0.0)
                    )
                    state.backstop_deadline = (
                        state.submitted_at + wall + self.backstop_slack
                    )
                if self._replay_from_journal(state):
                    continue
                if self.journal is not None:
                    self.journal.accepted(
                        device.device_id,
                        device.design,
                        signature_key(device.signature()),
                    )
                self._submit_device(state)
            self._all_done.wait()
        finally:
            self._run_stopping.set()
            collector.join(timeout=2.0)
            watchdog.join(timeout=2.0)
            if self.journal is not None:
                self.journal.flush()
        ordered = sorted(
            self._states.values(), key=lambda s: s.order
        )
        results = [s.result for s in ordered]
        with self._lock:
            self._states.clear()
            self._resolved_count = 0
            self._all_done.clear()
        return results

    def cancel_device(self, device_id: str) -> bool:
        """Ask the owning worker to abandon ``device_id`` mid-solve.

        True when a cancel message went out (the device was known,
        unresolved and routed); the resolution then arrives through the
        normal result path as ``status="timeout"``.
        """
        with self._lock:
            state = self._states.get(device_id)
            if state is None or state.resolved:
                return False
            worker_index = state.worker_index
            state.cancel_sent_at = time.monotonic()
        if worker_index is None:
            return False
        worker = self._workers[worker_index]
        try:
            worker.ctrl_q.put(("cancel", device_id))
        except Exception:
            return False
        with self._lock:
            self.counters["cancels_sent"] += 1
        return True

    def stats(self) -> dict:
        """Parent counters + merged per-worker service snapshots."""
        merged = {
            "timeouts": 0,
            "retries": 0,
            "shard_deaths": 0,
            "memo_stores": 0,
            "memo_evictions": 0,
            "signature_hits": 0,
            "cancelled_legs": 0,
            "skipped_legs": 0,
        }
        worker_winners: dict[str, int] = {}
        workers_block = {}
        queue_high_water = {}
        for w in self._workers:
            snap = w.last_stats or {}
            for key in (
                "timeouts",
                "retries",
                "shard_deaths",
                "memo_stores",
                "signature_hits",
                "cancelled_legs",
                "skipped_legs",
            ):
                merged[key] += snap.get(key, 0)
            merged["memo_evictions"] += snap.get("design_cache", {}).get(
                "memo_evictions", 0
            )
            for name, count in snap.get("race_winners", {}).items():
                worker_winners[name] = worker_winners.get(name, 0) + count
            shard_qhw = max(
                (
                    s.get("queue_high_water", 0)
                    for s in snap.get("shards", {}).values()
                ),
                default=0,
            )
            queue_high_water[f"worker{w.index}"] = shard_qhw
            workers_block[f"worker{w.index}"] = {
                "alive": w.alive and w.process.is_alive(),
                "processed": snap.get("processed", 0),
                "inflight": w.inflight,
                "inflight_high_water": w.inflight_high_water,
                "queue_high_water": shard_qhw,
                "service": snap or None,
            }
        with self._lock:
            parent = {
                k: (dict(v) if isinstance(v, dict) else v)
                for k, v in self.counters.items()
            }
        return {
            **parent,
            # Worker-side timeouts plus the parent's backstop ones: the
            # total a thread-mode operator would read off "timeouts".
            "timeouts": parent["backstop_timeouts"] + merged["timeouts"],
            "retries": merged["retries"],
            "shard_deaths": merged["shard_deaths"],
            "memo_stores": merged["memo_stores"],
            "memo_evictions": merged["memo_evictions"],
            "signature_hits": merged["signature_hits"],
            "cancelled_legs": merged["cancelled_legs"],
            "skipped_legs": merged["skipped_legs"],
            "worker_race_winners": worker_winners,
            "queue_high_water": queue_high_water,
            **(
                {"journal": dict(self.journal.stats)}
                if self.journal is not None
                else {}
            ),
            "workers": workers_block,
        }

    # ------------------------------------------------------------------
    # journal resume (parent-side, byte-compatible with thread mode)
    # ------------------------------------------------------------------
    def _replay_from_journal(self, state: _ProcState) -> bool:
        if self.resume_from is None:
            return False
        device = state.device
        record = self.resume_from.replayable(
            signature_key(device.signature())
        )
        if record is None:
            return False
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
    # routing / submission
    # ------------------------------------------------------------------
    def _route(
        self, design: str, route_number: int, exclude: int | None
    ) -> _WorkerHandle:
        alive = [w for w in self._workers if w.alive]
        if not alive:
            raise RuntimeError("no live workers remain")
        pool = alive
        if exclude is not None and len(alive) > 1:
            pool = [w for w in alive if w.index != exclude] or alive
        idx = (
            zlib.crc32(design.encode("utf-8")) + route_number
        ) % len(pool)
        return pool[idx]

    def _submit_device(
        self, state: _ProcState, exclude: int | None = None
    ) -> None:
        while True:
            with self._lock:
                if state.resolved:
                    return
                if state.routes > len(self._workers) + 1:
                    # A device that keeps landing on dying workers is
                    # not going to resolve by routing harder.
                    break
            try:
                worker = self._route(
                    state.device.design, state.routes, exclude
                )
            except RuntimeError:
                break
            with self._cond:
                while (
                    worker.alive
                    and worker.inflight >= self.inflight_per_worker
                    and not state.resolved
                ):
                    self._cond.wait(0.05)
                if state.resolved:
                    return
                if not worker.alive:
                    exclude = worker.index
                    continue
                worker.inflight += 1
                worker.inflight_high_water = max(
                    worker.inflight_high_water, worker.inflight
                )
                state.worker_index = worker.index
                state.routes += 1
            try:
                worker.task_q.put(
                    ("device", device_to_wire(state.device))
                )
            except Exception:
                with self._cond:
                    worker.inflight -= 1
                    self._cond.notify_all()
                exclude = worker.index
                continue
            if self.worker_kill_hook is not None and self.worker_kill_hook(
                worker.index, state.device.device_id
            ):
                self._kill_worker(worker)
            return
        with self._lock:
            self.counters["failures"] += 1
        self._resolve(
            state,
            DeviceResult(
                device_id=state.device.device_id,
                design=state.device.design,
                status="timeout",
                attempts=state.routes,
                latency=time.monotonic() - state.submitted_at,
                error="no live workers remain",
            ),
        )

    def _kill_worker(self, worker: _WorkerHandle) -> None:
        """Chaos surface: hard-kill (SIGKILL) — a real process death,
        detected and recovered exactly like an organic one."""
        try:
            worker.process.kill()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # collector: the one inbox consumer during a run
    # ------------------------------------------------------------------
    def _collector_loop(self) -> None:
        while True:
            try:
                worker, msg = self._inbox.get(timeout=0.05)
            except queue_mod.Empty:
                if self._run_stopping.is_set():
                    return
                continue
            kind = msg[0]
            if kind == "result":
                payload, snap = msg[2], msg[3]
                worker.last_stats = snap
                with self._cond:
                    if worker.inflight > 0:
                        worker.inflight -= 1
                    self._cond.notify_all()
                with self._lock:
                    state = self._states.get(payload["id"])
                if state is None:
                    with self._lock:
                        self.counters["late_results_dropped"] += 1
                    continue
                result = _result_from_wire(payload, worker.index)
                # End-to-end latency as the parent saw it (queueing
                # included) — the number an operator's SLO is about.
                result.latency = time.monotonic() - state.submitted_at
                self._resolve(state, result)
            elif kind == "bye":
                worker.last_stats = msg[2]

    # ------------------------------------------------------------------
    # watchdog: death detection + backstop deadlines
    # ------------------------------------------------------------------
    def _watchdog_loop(self) -> None:
        while not self._run_stopping.is_set():
            for worker in self._workers:
                if worker.alive and not worker.process.is_alive():
                    self._on_worker_death(worker)
            self._rescue_stranded()
            if self.timeout is not None:
                self._enforce_backstops()
            self._run_stopping.wait(0.05)

    def _on_worker_death(self, worker: _WorkerHandle) -> None:
        with self._cond:
            if not worker.alive:
                return
            worker.alive = False
            worker.inflight = 0
            self.counters["worker_deaths"] += 1
            self._cond.notify_all()

    def _rescue_stranded(self) -> None:
        """Re-route unresolved devices owned by a dead worker.

        A periodic sweep rather than a one-shot drain at death time
        (the process-level analog of the thread service's
        ``_rescue_dead_shard_stragglers``): a submit racing the death
        detection can land a device on the dead worker *after* any
        single drain ran, so ownership is re-checked every watchdog
        tick.  Claiming clears ``worker_index`` under the lock, so a
        device is re-routed by exactly one sweep.
        """
        dead = {w.index for w in self._workers if not w.alive}
        if not dead:
            return
        with self._lock:
            stranded = [
                s
                for s in self._states.values()
                if not s.resolved and s.worker_index in dead
            ]
            for state in stranded:
                state.worker_index = None
                self.counters["reroutes"] += 1
        for state in stranded:
            self._submit_device(state)

    def _enforce_backstops(self) -> None:
        now = time.monotonic()
        with self._lock:
            overdue = [
                s
                for s in self._states.values()
                if not s.resolved
                and s.backstop_deadline is not None
                and now >= s.backstop_deadline
            ]
        for state in overdue:
            if state.cancel_sent_at is None:
                self.cancel_device(state.device.device_id)
                with self._lock:
                    # cancel_device stamps cancel_sent_at only when a
                    # message went out; start the grace clock anyway so
                    # an unroutable device still times out.
                    if state.cancel_sent_at is None:
                        state.cancel_sent_at = now
            elif now >= state.cancel_sent_at + self.cancel_grace:
                with self._lock:
                    self.counters["backstop_timeouts"] += 1
                self._resolve(
                    state,
                    DeviceResult(
                        device_id=state.device.device_id,
                        design=state.device.design,
                        status="timeout",
                        attempts=state.routes,
                        worker=state.worker_index,
                        latency=now - state.submitted_at,
                        error="parent backstop deadline exceeded",
                    ),
                )

    # ------------------------------------------------------------------
    # exactly-once resolution (parent authority)
    # ------------------------------------------------------------------
    def _resolve(self, state: _ProcState, result: DeviceResult) -> bool:
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
            if result.winner is not None and not result.journal_replayed:
                winners = self.counters["race_winners"]
                winners[result.winner] = winners.get(result.winner, 0) + 1
            self._resolved_count += 1
            if self._resolved_count >= len(self._states):
                self._all_done.set()
        with self._cond:
            self._cond.notify_all()
        if self.journal is not None and not result.journal_replayed:
            self.journal.resolved(
                signature_key(state.device.signature()), result
            )
        return True
