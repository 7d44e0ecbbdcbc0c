"""Process executors: design-sharded worker processes.

Under the GIL, thread shards share one core, so compute-bound rungs
(pure-Python CDCL, the interpreted glue around the compiled kernels)
serialize however many shards run.  :class:`ProcessDiagnosisService`
is the same :class:`~repro.serve.service.DiagnosisService` dispatcher
over :class:`WorkerProcess` executors instead of threads: the crc32
design routing sends every device of a design to one worker, so
throughput scales with cores while every per-design contract stays
process-local — a design's circuit, skeleton and signature memo live
in the one worker that owns it, and nothing large crosses a process
boundary.

Each spawned worker runs one loop of
:func:`~repro.serve.shard.run_attempt`, the per-attempt function thread
shards run, and answers with the race outcome, the memo hit or the
error; the parent builds the :class:`~repro.serve.service.DeviceResult`,
so routing, deadlines, retries, degradation (from the partial answer
the outcome carries), exactly-once and the one WAL are the
dispatcher's, exactly as in thread mode.  The parent holds no design
artifacts at all::

    parent (dispatcher)                  worker i (spawned)
    -------------------                  ------------------
    WorkerProcess.submit  ------------>  tasks:   (key, device wire, deadline)
    WorkerProcess.cancel  ------------>  control: ("cancel", key)
    reader thread  <-------------------  replies: ("memo"|"outcome"|"error",
                                                   key, payload, counters)

Tasks and cancels ride ``multiprocessing`` queues (a put never
blocks); replies ride a pipe only the worker writes, so a dead worker
shows up as end-of-file on its reader — a SIGKILL mid-reply included —
and the reader hands the worker's unanswered attempts back to the
dispatcher, which retries the running one and re-routes the rest.  A
cancel reaches the worker's control thread, which sets the attempt's
cancel event, so the running rung stops at its next poll of the
ladder's :class:`~repro.sat.budget.Budget`: cancellation still lands
mid-solve.

Workers ``warm_up()`` a compiled backend before their ready handshake,
so JIT compile cost never lands on a device.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import threading
import time
from typing import Callable

from ..sat.backends import resolve_backend
from .design import DEFAULT_MEMO_MAX_ENTRIES, DesignCache
from .intake import device_to_wire, parse_device
from .service import DiagnosisService, _eager_warm_up
from .shard import COUNTERS, Executor, Ladder, run_attempt

__all__ = ["ProcessDiagnosisService", "WorkerProcess"]

#: Seconds every worker gets to spawn, import and warm up.
START_TIMEOUT = 120.0

#: ``multiprocessing`` start method: portable, inherits no locks.
MP_CONTEXT = "spawn"


def _worker_main(
    ladder: Ladder, memo_max_entries: int, tasks, control, replies
) -> None:
    """Entry point of one spawned worker: serve attempts until the
    ``None`` task."""
    if resolve_backend(ladder.solver_backend) == "arena-jit":
        _eager_warm_up()
    cache = DesignCache(memo_max_entries=memo_max_entries)
    counters = dict.fromkeys(COUNTERS, 0)
    memo_lock = threading.Lock()
    cancels: dict[int, threading.Event] = {}
    cancels_lock = threading.Lock()

    def cancel_event(key: int) -> threading.Event:
        # A cancel may overtake its task: it then pre-creates the event.
        with cancels_lock:
            return cancels.setdefault(key, threading.Event())

    def listen() -> None:
        for _, key in iter(control.get, None):
            cancel_event(key).set()

    def snapshot() -> dict:
        return {
            **counters,
            "designs_built": cache.stats["designs_built"],
            "skeleton_builds": dict(cache.stats["skeleton_builds"]),
            "memo_evictions": cache.memo_evictions(),
        }

    threading.Thread(target=listen, daemon=True).start()
    replies.send(("ready", None, None, snapshot()))
    for key, wire, deadline in iter(tasks.get, None):
        try:
            device = parse_device(wire, where=f"attempt {key}")
            memo, outcome = run_attempt(
                ladder, cache, memo_lock, counters, device,
                cancel_event(key), deadline,
            )
            if memo is not None:
                reply = ("memo", key, memo)
            else:
                # The per-rung summaries stay here.
                reply = ("outcome", key, dataclasses.replace(outcome, legs={}))
        except Exception as exc:  # never let one device kill the worker
            counters["errors"] += 1
            reply = ("error", key, f"{type(exc).__name__}: {exc}")
        with cancels_lock:
            cancels.pop(key, None)
        replies.send((*reply, snapshot()))
    replies.send(("bye", None, None, snapshot()))


class WorkerProcess(Executor):
    """One spawned worker process and the parent thread reading it.

    It holds at most ``queue_size`` attempts besides the one it runs:
    the parent cannot see when a worker starts an attempt, so the bound
    counts every attempt sent and not yet answered.
    """

    kind = "worker"

    def __init__(
        self, index: int, service: "ProcessDiagnosisService", ctx
    ) -> None:
        super().__init__(index, service, service.queue_size + 1)
        self._tasks = ctx.Queue()
        self._control = ctx.Queue()
        self._replies, child_end = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_worker_main,
            args=(
                service.ladder, service.memo_max_entries,
                self._tasks, self._control, child_end,
            ),
            name=f"repro-worker-{index}",
            daemon=True,
        )
        self.process.start()
        # Only the worker may hold the write end: its death is then
        # end-of-file here.
        child_end.close()
        self._reader: threading.Thread | None = None
        self._closing = False

    def result_fields(self) -> dict:
        return {"shard": 0, "worker": self.index}

    def await_ready(self, deadline: float) -> None:
        """Wait for the ready handshake, then start the reader."""
        try:
            ready = self._replies.poll(max(0.0, deadline - time.monotonic()))
            if ready:
                self.counters.update(self._replies.recv()[3])
        except (EOFError, OSError):  # it died during startup
            ready = False
        if not ready:
            raise RuntimeError(
                f"worker {self.index} did not start within {START_TIMEOUT}s "
                f"(exit code {self.process.exitcode})"
            )
        self._reader = threading.Thread(
            target=self._read, name=f"repro-worker-{self.index}-reader",
            daemon=True,
        )
        self._reader.start()

    def _deliver(self, attempt) -> None:
        self._tasks.put(
            (attempt.key, device_to_wire(attempt.device), attempt.deadline)
        )
        hook = self._service.worker_kill_hook
        if hook is not None and hook(self.index, attempt.device.device_id):
            # Chaos: a real SIGKILL, detected like any other death.
            self.process.kill()

    def cancel(self, attempt) -> None:
        super().cancel(attempt)
        with self._room:
            # An answered attempt's cancel would only park an event in
            # the worker for good.
            if self.alive and attempt.key in self._held:
                self._control.put(("cancel", attempt.key))

    def take_stranded(self):
        _, held = super().take_stranded()
        # The worker serves its tasks in order: the oldest was running.
        return (held[0], held[1:]) if held else (None, [])

    def _read(self) -> None:
        service = self._service
        while True:
            try:
                kind, key, payload, counters = self._replies.recv()
            except Exception:  # end-of-file, or a reply torn by a kill
                break
            self.counters.update(counters)
            if kind == "bye":
                return
            attempt = self._take(key)
            if attempt is None:
                continue
            if kind == "error":
                service._attempt_error(self, attempt, payload)
            elif kind == "memo":
                service._attempt_finished(self, attempt, payload, None)
            else:
                service._attempt_finished(self, attempt, None, payload)
        if not self._closing:
            self.process.join(timeout=1.0)
            service._executor_died(
                self, f"exit code {self.process.exitcode}"
            )

    def shut(self) -> None:
        """Ask the worker to exit once its queued tasks are done."""
        self._closing = True
        if self.alive and self.process.is_alive():
            self._tasks.put(None)
            self._control.put(None)

    def reap(self, deadline: float) -> None:
        """Wait for the worker's goodbye (or ``deadline``), then reap."""
        if self._reader is not None:
            self._reader.join(timeout=max(0.0, deadline - time.monotonic()))
        self.alive = False
        self.process.join(timeout=max(0.0, deadline - time.monotonic()))
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=1.0)
        for q in (self._tasks, self._control):
            q.close()
            q.cancel_join_thread()
        self._replies.close()


class ProcessDiagnosisService(DiagnosisService):
    """The dispatcher over ``n_workers`` worker processes.

    Options are :class:`~repro.serve.service.DiagnosisService`'s, plus:

    memo_max_entries:
        Per-design signature-memo bound inside each worker.
    worker_kill_hook:
        Chaos injection (``hook(worker_index, device_id) -> bool``, see
        :meth:`~repro.serve.chaos.ChaosInjector.worker_kill_hook`):
        consulted after every submit; True hard-kills the target worker.

    Construction spawns (and warms) the workers, so build it once and
    reuse it; ``close()`` (or the context manager) drains and reaps
    them.  Design artifacts live only in the workers: the parent has no
    ``design_cache``, and ``stats()`` reports each worker's
    ``designs_built``, ``skeleton_builds`` and ``memo_evictions`` in its
    ``workers`` block.
    """

    executor_kind = "worker"

    def __init__(
        self,
        n_workers: int = 2,
        memo_max_entries: int = DEFAULT_MEMO_MAX_ENTRIES,
        worker_kill_hook: Callable[[int, str], bool] | None = None,
        **options,
    ) -> None:
        for name in ("n_shards", "design_cache", "fault_hook"):
            if name in options:  # thread-mode options: no worker sees them
                raise TypeError(f"unexpected keyword argument {name!r}")
        self.memo_max_entries = memo_max_entries
        self.worker_kill_hook = worker_kill_hook
        self._closed = False
        super().__init__(n_shards=n_workers, **options)

    def _make_executors(self, n: int) -> list[Executor]:
        ctx = multiprocessing.get_context(MP_CONTEXT)
        self._executors = [WorkerProcess(i, self, ctx) for i in range(n)]
        deadline = time.monotonic() + START_TIMEOUT
        try:
            for worker in self._executors:
                worker.await_ready(deadline)
        except RuntimeError:
            self.close()
            raise
        return self._executors

    def run(self, devices):
        if self._closed:
            raise RuntimeError("service is closed")
        return super().run(devices)

    def close(self, timeout: float = 10.0) -> None:
        """Drain and reap every worker; idempotent."""
        if self._closed:
            return
        self._closed = True
        deadline = time.monotonic() + timeout
        for worker in self._executors:
            worker.shut()
        for worker in self._executors:
            worker.reap(deadline)

    def __enter__(self) -> "ProcessDiagnosisService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
