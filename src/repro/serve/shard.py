"""One service shard: a worker thread owning a bounded device queue.

Sharding within one process is **thread-based**, deliberately.  The
artifacts a shard needs — the design's compiled circuit, the
master-encoding skeleton, the per-signature result memo — are large
mutable object graphs living in the shared
:class:`~repro.serve.design.DesignCache`; sharing them across threads
keeps the build-once-per-design contract, and the cooperative
``should_stop`` cancellation the strategy rungs poll only works with
shared memory.  The thread service's throughput win is algorithmic
(the cheapest-rung-first ladder, signature batching, skeleton reuse),
not core-parallelism.  When the workload *is* core-bound — many
designs, compute-heavy rungs — the scale-out lever is one level up:
:mod:`repro.serve.procpool` shards *designs* (not devices) across
worker processes, each worker running this thread machinery over its
design subset so every per-design contract stays process-local
(``serve --workers N``).

A shard dequeues one attempt at a time: memo lookup first (signature
batching), else a fresh session stamped from the design skeleton and
the strategy ladder, run inline on the shard thread
(:func:`~repro.serve.race.race_device`).  Failures are reported to the
service, which owns retry/exactly-once; a :class:`ShardKilled` escape
(fault injection, tests) kills the worker thread itself, and the
service re-routes both the in-flight device and the dead shard's
queue.
"""

from __future__ import annotations

import queue
import threading
from typing import TYPE_CHECKING

from ..diagnosis.core import DiagnosisSession
from .intake import signature_seed
from .race import race_device

if TYPE_CHECKING:  # pragma: no cover
    from .service import DiagnosisService, _Attempt

__all__ = ["ServiceShard", "ShardKilled", "SHUTDOWN"]

#: Queue sentinel ending a shard's run loop.
SHUTDOWN = object()


class ShardKilled(RuntimeError):
    """Raised (by fault hooks) to kill a shard thread mid-device."""


class ServiceShard(threading.Thread):
    """Worker thread bound to one bounded attempt queue."""

    def __init__(
        self,
        index: int,
        service: "DiagnosisService",
        queue_size: int = 2,
    ) -> None:
        super().__init__(name=f"repro-shard-{index}", daemon=True)
        self.index = index
        self._service = service
        self.queue: queue.Queue = queue.Queue(maxsize=queue_size)
        #: False once the worker died (ShardKilled) — the service stops
        #: routing here and drains the queue.
        self.alive_for_routing = True
        self.stats = {
            "processed": 0,
            "signature_hits": 0,
            "races": 0,
            "cancelled_legs": 0,
            "skipped_legs": 0,
            "errors": 0,
            "queue_high_water": 0,
        }

    # ------------------------------------------------------------------
    def submit(self, attempt: "_Attempt", timeout: float | None = None):
        """Enqueue an attempt (blocking — the service's backpressure)."""
        if not self.alive_for_routing:
            # A dead worker never drains its queue; rejecting here makes
            # the submitter re-route instead of parking the attempt.
            raise RuntimeError(f"shard {self.index} is dead")
        self.queue.put(attempt, timeout=timeout)
        depth = self.queue.qsize()
        if depth > self.stats["queue_high_water"]:
            self.stats["queue_high_water"] = depth

    def shutdown(self) -> None:
        self.queue.put(SHUTDOWN)

    # ------------------------------------------------------------------
    def run(self) -> None:  # pragma: no cover - exercised via service
        while True:
            item = self.queue.get()
            if item is SHUTDOWN:
                return
            try:
                hook = self._service.fault_hook
                if hook is not None:
                    hook(self.index, item)
                self._process(item)
            except ShardKilled as exc:
                self.alive_for_routing = False
                self._service._shard_died(self, item, exc)
                return
            except Exception as exc:
                self.stats["errors"] += 1
                self._service._attempt_error(self, item, exc)

    def _process(self, attempt: "_Attempt") -> None:
        service = self._service
        device = attempt.device
        self.stats["processed"] += 1
        artifacts = service.design_cache.get(device.design)
        signature = device.signature()
        memo = service._memo_lookup(artifacts, signature)
        if memo is not None:
            self.stats["signature_hits"] += 1
            service._attempt_finished(
                self, attempt, memo=memo, outcome=None
            )
            return
        session = DiagnosisSession(
            artifacts.circuit,
            device.tests,
            solver_backend=service.solver_backend,
            seed=signature_seed(signature),
        )
        session.master_skeleton = artifacts.skeleton
        self.stats["races"] += 1
        outcome = race_device(
            session,
            strategies=service.strategies,
            k=device.k,
            first_only=service.policy == "first",
            cancel=attempt.cancel,
            deadline=attempt.deadline,
            conflict_poll_interval=service.conflict_poll_interval,
        )
        self.stats["cancelled_legs"] += outcome.cancelled_legs
        self.stats["skipped_legs"] += outcome.skipped_legs
        service._attempt_finished(self, attempt, memo=None, outcome=outcome)
