"""Cooperative solver budgets: bounded-overrun cancellation.

A :class:`Budget` is the one stop signal of a diagnosis run: a deadline
and a cancel hook, polled both at a strategy's coarse check points and
inside the SAT search loops, so one hard query cannot overrun a
deadline unboundedly:

* the interpreted arena solver (:class:`repro.sat.solver.Solver`) polls
  the budget every :attr:`~Budget.conflict_poll_interval` conflicts
  (and every :data:`PROPAGATION_POLL_INTERVAL` propagations, so
  decision-heavy, conflict-light instances stay responsive);
* the compiled backend re-enters its jitted kernel in chunks of at most
  ``conflict_poll_interval`` conflicts, polling between chunks and
  carrying the learnt clauses across re-entries (see
  :meth:`repro.sat.compiled.CompiledSolver.solve`);
* strategies poll :meth:`Budget.poll` once per check point (a bound, a
  climb step, a hitting-set round, an enumerated solution).

An interrupted search returns ``None`` from ``solve()`` — the same
answer surface as a ``conflict_limit`` stop — and the budget's
:attr:`~Budget.interrupted` flag and :attr:`~Budget.reason` tell the
two apart (the enumeration layer raises :class:`SearchInterrupted` for
a budget stop and plain :class:`TimeoutError` for a conflict limit).

Budgets are stateful: the work counters are cumulative across every
solver call charged against the same instance (one budget for a whole
ladder, not per query), and a tripped budget stays tripped.  They are
not thread-safe — give each ladder its own instance and share only the
``should_stop`` callable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

__all__ = ["Budget", "SearchInterrupted", "PROPAGATION_POLL_INTERVAL"]

#: Secondary poll cadence of the arena solver on conflict-light
#: stretches, in propagations.
PROPAGATION_POLL_INTERVAL = 20000


class SearchInterrupted(TimeoutError):
    """A search stopped because its :class:`Budget` tripped.

    Subclasses :class:`TimeoutError` so pre-budget handlers (which
    treated every ``None`` answer as a conflict-limit stop) keep
    working unchanged while new code can tell the two apart.
    """


@dataclass
class Budget:
    """A deadline plus a cooperative cancel hook.

    Parameters
    ----------
    should_stop:
        Zero-argument callable polled at every check; ``True`` trips
        the budget with reason ``"cancelled"``.
    deadline:
        Absolute :func:`time.monotonic` timestamp; reaching it trips
        the budget with reason ``"deadline"``.
    conflict_poll_interval:
        How many conflicts a search loop may run between polls — the
        bound on cancellation overrun the serving layer asserts.
    """

    should_stop: Callable[[], bool] | None = None
    deadline: float | None = None
    conflict_poll_interval: int = 64

    #: Work charged so far (cumulative, all solver calls).
    conflicts: int = 0
    propagations: int = 0
    #: Set once the budget trips; never reset.
    interrupted: bool = False
    #: Why it tripped: "cancelled" or "deadline" (None while live).
    reason: str | None = None

    def __post_init__(self) -> None:
        if self.conflict_poll_interval < 1:
            raise ValueError("conflict_poll_interval must be >= 1")

    def _trip(self, reason: str) -> bool:
        self.interrupted = True
        self.reason = reason
        return True

    def poll(self) -> bool:
        """Check the deadline, then the cancel hook; ``True`` means stop
        now.

        Once tripped a budget stays tripped — later polls return True
        immediately without re-evaluating the conditions.
        """
        if self.interrupted:
            return True
        if self.deadline is not None and time.monotonic() >= self.deadline:
            return self._trip("deadline")
        if self.should_stop is not None and self.should_stop():
            return self._trip("cancelled")
        return False

    def charge(self, conflicts: int = 0, propagations: int = 0) -> bool:
        """Record consumed work, then :meth:`poll`."""
        self.conflicts += conflicts
        self.propagations += propagations
        return self.poll()

    def note(self, conflicts: int = 0, propagations: int = 0) -> None:
        """Record consumed work *without* polling (cheap bookkeeping on
        the solver's normal-exit path)."""
        self.conflicts += conflicts
        self.propagations += propagations
