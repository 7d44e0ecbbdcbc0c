"""Chaos-injection harness for the serving stack.

PR 7 introduced one ad-hoc fault hook (raise
:class:`~repro.serve.shard.ShardKilled` inside a shard); this module
generalizes it into a seeded injection registry covering every failure
surface the service claims to survive:

``kill_shard``
    The shard worker thread dies mid-device (the original hook) — the
    service must re-route the in-flight device and the dead shard's
    backlog.
``raise_in_solver``
    A deterministic exception out of attempt processing — the service
    must resolve the device as ``status="error"`` without retry loops.
``hang_leg``
    An attempt stalls — the watchdog must cancel it at the deadline and
    retry elsewhere (with budgets wired, the hung leg stops within one
    conflict-poll interval).
``corrupt_intake_line``
    A torn JSONL record in the device stream — skip-and-count intake
    (:func:`~repro.serve.intake.read_device_stream` with ``on_error``)
    must drop exactly that line and keep the queue moving.
``crash_before_flush`` / ``crash_after_flush``
    Simulated process death on either side of the journal's fsync
    group-commit boundary (:class:`JournalCrash` out of the journal's
    flush hooks) — replaying the journal must converge and resume must
    keep resolution exactly-once.
``kill_worker``
    Process mode only: a worker *process* is hard-killed (SIGKILL)
    right after a device is routed to it — the parent must detect the
    death, re-route the worker's unacknowledged devices to survivors,
    and keep resolution exactly-once with a convergent journal.  The
    :class:`~repro.serve.procpool.ProcessDiagnosisService` consults
    :meth:`ChaosInjector.worker_kill_hook` on every submit.

Injections fire on a **seeded schedule**: at construction the injector
draws, per enabled kind, which occurrence of that kind's site fires.
The same seed therefore produces the same injection *counts* however
threads interleave, and the chaos tests sweep seeds in CI.

:func:`check_invariants` asserts what must hold under any of this:
every submitted device resolves exactly once, statuses are legal,
service counters balance, and the journal replays convergently.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .intake import DeviceReport
from .journal import read_journal
from .shard import ShardKilled

__all__ = [
    "ALL_INJECTION_KINDS",
    "ChaosInjector",
    "InjectionEvent",
    "JournalCrash",
    "check_invariants",
]

ALL_INJECTION_KINDS = (
    "kill_shard",
    "raise_in_solver",
    "hang_leg",
    "corrupt_intake_line",
    "crash_before_flush",
    "crash_after_flush",
    "kill_worker",
)

#: Statuses a resolved device may legally carry.
_LEGAL_STATUSES = ("ok", "degraded", "timeout", "error")

#: The (degraded_rung, validity) pairs a degraded result may carry:
#: verified corrections are "valid-sampled" (Def. 3), simulation marks
#: only ever "guidance" (Lemma 2).
_DEGRADED_LABELS = (
    ("approximate", "valid-sampled"),
    ("guidance", "guidance"),
)


class JournalCrash(RuntimeError):
    """Simulated process death at the journal commit boundary."""


@dataclass
class InjectionEvent:
    """One injection that actually fired (the injector's log entry)."""

    kind: str
    site: str
    occurrence: int
    detail: dict = field(default_factory=dict)


class ChaosInjector:
    """Seeded fault injection across the service's failure surfaces.

    Parameters
    ----------
    seed:
        Drives which occurrence of each site fires — same seed, same
        schedule.
    kinds:
        Enabled injection kinds (default: all).
    max_per_kind:
        Injections of each kind over the injector's lifetime.
    horizon:
        Occurrence window the schedule is drawn from: each firing index
        is uniform in ``[0, horizon)``.
    hang_s:
        Stall duration for ``hang_leg``.

    Wire it up with ``fault_hook`` (pass to
    :class:`~repro.serve.service.DiagnosisService`), ``wrap_lines``
    (around the intake lines) and ``before_flush``/``after_flush``
    (pass to :class:`~repro.serve.journal.ResultJournal`).
    """

    def __init__(
        self,
        seed: int = 0,
        kinds: Sequence[str] = ALL_INJECTION_KINDS,
        max_per_kind: int = 1,
        horizon: int = 8,
        hang_s: float = 0.05,
    ) -> None:
        for kind in kinds:
            if kind not in ALL_INJECTION_KINDS:
                raise ValueError(
                    f"unknown injection kind {kind!r} (expected one of "
                    f"{', '.join(ALL_INJECTION_KINDS)})"
                )
        self.kinds = tuple(kinds)
        self.hang_s = hang_s
        rng = random.Random(seed)
        # The schedule: kind -> sorted occurrence indices that fire.
        # Drawn up front so thread interleaving cannot change how many
        # injections a seed produces.
        self.schedule: dict[str, tuple[int, ...]] = {
            kind: tuple(
                sorted(
                    rng.sample(
                        range(horizon), min(max_per_kind, horizon)
                    )
                )
            )
            for kind in ALL_INJECTION_KINDS
        }
        self._seen: dict[str, int] = {k: 0 for k in ALL_INJECTION_KINDS}
        self.log: list[InjectionEvent] = []

    def _fire(self, kind: str, site: str, **detail) -> bool:
        if kind not in self.kinds:
            return False
        occurrence = self._seen[kind]
        self._seen[kind] += 1
        if occurrence not in self.schedule[kind]:
            return False
        self.log.append(
            InjectionEvent(
                kind=kind, site=site, occurrence=occurrence, detail=detail
            )
        )
        return True

    def fired(self, kind: str) -> int:
        """How many injections of ``kind`` actually fired."""
        return sum(1 for e in self.log if e.kind == kind)

    # ------------------------------------------------------------------
    # service surface
    # ------------------------------------------------------------------
    def fault_hook(self, shard_index: int, attempt) -> None:
        """Pass as ``DiagnosisService(fault_hook=...)``."""
        device_id = getattr(
            getattr(attempt, "device", None), "device_id", None
        )
        if self._fire(
            "kill_shard", f"shard{shard_index}", device=device_id
        ):
            raise ShardKilled(f"chaos: shard {shard_index} killed")
        if self._fire(
            "raise_in_solver", f"shard{shard_index}", device=device_id
        ):
            raise RuntimeError("chaos: solver raised mid-attempt")
        if self._fire(
            "hang_leg", f"shard{shard_index}", device=device_id
        ):
            time.sleep(self.hang_s)

    def worker_kill_hook(self, worker_index: int, device_id: str) -> bool:
        """Process-mode kill schedule: consulted by the parent on every
        device submit; True means "hard-kill worker ``worker_index``
        now" (the parent SIGKILLs the process, so the death is real —
        no cooperation from the worker)."""
        return self._fire(
            "kill_worker", f"worker{worker_index}", device=device_id
        )

    # ------------------------------------------------------------------
    # intake surface
    # ------------------------------------------------------------------
    def wrap_lines(self, lines: Iterable[str]) -> list[str]:
        """Corrupt scheduled non-comment lines (torn-record shape)."""
        wrapped: list[str] = []
        for line in lines:
            stripped = line.strip()
            if (
                stripped
                and not stripped.startswith("#")
                and self._fire("corrupt_intake_line", "intake")
            ):
                wrapped.append(line[: max(1, len(line) // 2)])
            else:
                wrapped.append(line)
        return wrapped

    # ------------------------------------------------------------------
    # journal surface
    # ------------------------------------------------------------------
    def before_flush(self) -> None:
        """Pass as ``ResultJournal(before_flush=...)``."""
        if self._fire("crash_before_flush", "journal"):
            raise JournalCrash("chaos: died before fsync commit")

    def after_flush(self) -> None:
        """Pass as ``ResultJournal(after_flush=...)``."""
        if self._fire("crash_after_flush", "journal"):
            raise JournalCrash("chaos: died after fsync commit")


def check_invariants(
    devices: Sequence[DeviceReport],
    results: Sequence,
    service=None,
    journal_path=None,
) -> list[str]:
    """Invariants that must hold under any injection schedule.

    Returns failure strings (empty = all good):

    * every submitted device resolved exactly once, legal status;
    * a degraded result carries a legal ``(degraded_rung, validity)``
      pair, and a guidance result no ``answer``;
    * service counters balance (resolutions account for every device);
    * the journal replays convergently — two reads agree record for
      record, and re-reading is idempotent.
    """
    failures: list[str] = []
    want = [d.device_id for d in devices]
    got = [r.device_id for r in results if r is not None]
    if len(results) != len(want):
        failures.append(
            f"{len(results)} results for {len(want)} devices"
        )
    if len(got) != len(results):
        failures.append(
            f"{len(results) - len(got)} unresolved (None) results"
        )
    if sorted(got) != sorted(want):
        lost = set(want) - set(got)
        extra = set(got) - set(want)
        dup = {i for i in got if got.count(i) > 1}
        failures.append(
            f"device identity broken: lost={sorted(lost)} "
            f"extra={sorted(extra)} duplicated={sorted(dup)}"
        )
    for r in results:
        if r is None:
            continue
        if r.status not in _LEGAL_STATUSES:
            failures.append(
                f"{r.device_id}: illegal status {r.status!r}"
            )
        if r.status == "ok" and r.answer is None and not r.solutions:
            failures.append(f"{r.device_id}: ok with no answer")
        if r.status == "degraded":
            label = (r.degraded_rung, r.validity)
            if label not in _DEGRADED_LABELS:
                failures.append(
                    f"{r.device_id}: illegal degraded label {label!r}"
                )
            if r.validity == "guidance" and r.answer is not None:
                failures.append(
                    f"{r.device_id}: guidance carries an answer"
                )
    if service is not None:
        stats = service.stats()
        n_ok = sum(
            1 for r in results if r is not None and r.status == "ok"
        )
        if stats["degraded"] != sum(
            1 for r in results if r is not None and r.status == "degraded"
        ):
            failures.append("degraded counter does not match results")
        if stats["journal_replayed"] < sum(
            1 for r in results if r is not None and r.journal_replayed
        ):
            failures.append(
                "journal_replayed counter below replayed results"
            )
        resolved = n_ok + sum(
            1
            for r in results
            if r is not None and r.status in ("degraded", "timeout", "error")
        )
        if resolved != len([r for r in results if r is not None]):
            failures.append("status accounting does not cover results")
    if journal_path is not None:
        first = read_journal(journal_path)
        second = read_journal(journal_path)
        if first.resolved != second.resolved:
            failures.append("journal replay is not idempotent")
        if first.bad_records != second.bad_records:
            failures.append("journal bad-record count is unstable")
        for key, record in first.resolved.items():
            if record["status"] not in _LEGAL_STATUSES:
                failures.append(
                    f"journal {key[:12]}: illegal status "
                    f"{record['status']!r}"
                )
    return failures
