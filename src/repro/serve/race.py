"""Min-cardinality strategy ladder: cheapest rung first, first answer wins.

One device, one :class:`~repro.diagnosis.core.DiagnosisSession`, and a
*ladder* of strategy rungs run inline on the caller's (shard) thread, in
order:

``greedy-stochastic``
    One fault-parallel forced-value sweep, then SAFARI climbs over its
    cached rectification words.  The sweep's all-ones words are the
    singleton layer, which greedy reports before any climb.  This is the
    paper's central relation: for a single error, simulation finds
    exactly BSAT's size-1 corrections, so when a valid singleton exists
    the layer *is* the complete minimum-cardinality answer and no climb
    runs.  Otherwise the climbs give valid answers, usually of minimum
    cardinality.
``bsat``
    Incremental auto-``k`` BSAT enumeration: the complete fallback.
    It reads bound 1 off the same session's sweep, so a device whose
    singleton layer is non-empty never builds a SAT instance, and
    after greedy (whose layer was empty, or it would have won) the
    SAT probes start at bound 2.

The first rung that returns solutions wins and the rungs after it are
skipped (never started).  Every rung only reports *verified valid*
corrections, so the winner needs no post-hoc validation.  ``single-fix``
(the size-1 reference) and ``ihs`` (the minimum-cardinality oracle) stay
registered strategies for the differentials, not rungs: greedy's
singleton layer already is ``single-fix``, and ``ihs`` never beat greedy
on a device without one.

Rungs run one after another, not as concurrent threads: under the GIL
a concurrent heavier rung only slows the one that would have won (a
threaded race with a 20 ms stagger spent ~0.3 s of CPU per
sim1423/sim6669 device, where the ladder answers most of them with one
sweep; see ROADMAP.md, "Serving guide").

Every rung carries the device's :class:`~repro.sat.budget.Budget`, its
one stop signal: the deadline plus the dispatcher's cancel flag, polled
at each rung's check points and in the SAT search every
:data:`CONFLICT_POLL_INTERVAL` conflicts, so a cancel or deadline lands
mid-solve and the ladder stops at the rung it interrupted.

An interrupted ladder is an anytime search (SAFARI's framing): it
returns what it already holds as the outcome's ``partial``, the
degraded answer the dispatcher resolves a device with once its last
attempt is spent.  In order of preference:

``approximate``
    The interrupted rung's solutions so far.  Every rung only reports
    verified corrections (Def. 3), so they are valid, but a sample, not
    the complete set: validity ``"valid-sampled"``, ``answer`` the
    smallest.
``guidance``
    The :data:`GUIDANCE_TOP` gates with the most marks in the session's
    finished sweep (BSIM's ``M(g)``: the failing observations one
    forced value at the gate fixes).  By Lemma 2 these are hints that
    may not be valid corrections: validity ``"guidance"``, ``answer``
    None, the gates as singletons in ``solutions``.  A sweep the stop
    came before is never started.

With ``strategies=("bsat",)`` the ladder is one complete enumeration —
the reference mode whose answers are bit-identical to the sequential
baseline (used by the parity gate of ``bench_serve.py``); on a device
with a valid singleton that enumeration is the sweep's singleton layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..diagnosis.base import Correction, SolutionSetResult
from ..diagnosis.core import DiagnosisSession, diagnose
from ..sat.budget import Budget

__all__ = ["RaceOutcome", "race_device", "DEFAULT_STRATEGIES"]

#: The ladder's rungs, in order; a ladder runs any of them.
DEFAULT_STRATEGIES = ("greedy-stochastic", "bsat")

#: auto-k cap for the BSAT rung when the device carries no ``k`` hint.
_DEFAULT_K_MAX = 4

#: A guidance partial names at most this many top-marked gates.
GUIDANCE_TOP = 8

#: Conflicts the SAT search may run between two polls of the ladder's
#: budget: the bound on how far a cancel or deadline overruns mid-solve.
CONFLICT_POLL_INTERVAL = 64


@dataclass
class RaceOutcome:
    """What one device's ladder produced."""

    winner: str | None = None
    #: The winning rung's minimum-size solution, sorted (None: no rung
    #: produced a solution before cancellation/timeout).
    answer: tuple[str, ...] | None = None
    solutions: tuple[Correction, ...] = ()
    #: The ladder stopped because its deadline passed.
    timed_out: bool = False
    #: The ladder was stopped (cancel flag or deadline) before a winner.
    cancelled: bool = False
    #: The interrupted rung plus every rung after it.
    cancelled_legs: int = 0
    #: Rungs after the winner: never started.
    skipped_legs: int = 0
    #: Rung name -> summary dict (for observability counters).
    legs: dict = field(default_factory=dict)
    #: A cancelled ladder's degraded answer, as ``DeviceResult`` fields
    #: (``degraded_rung``, ``validity``, ``answer``, ``cardinality``,
    #: ``solutions``); None when it held nothing.
    partial: dict | None = None


def _pick_answer(
    solutions: tuple[Correction, ...]
) -> tuple[str, ...] | None:
    if not solutions:
        return None
    return tuple(sorted(min(solutions, key=lambda s: (len(s), sorted(s)))))


def _partial(
    result: SolutionSetResult, session: DiagnosisSession
) -> dict | None:
    """What a ladder interrupted in ``result``'s rung already holds:
    its solutions, else the marks of ``session``'s sweep if it finished."""
    if result.solutions:
        answer = _pick_answer(tuple(result.solutions))
        return {
            "degraded_rung": "approximate",
            "validity": "valid-sampled",
            "answer": answer,
            "cardinality": len(answer),
            "solutions": tuple(result.solutions),
        }
    space = session.space()
    if not space.swept:
        return None
    marks = space.marks()
    ranked = sorted(
        (g for g, m in marks.items() if m > 0), key=lambda g: (-marks[g], g)
    )[:GUIDANCE_TOP]
    if not ranked:
        return None
    return {
        "degraded_rung": "guidance",
        "validity": "guidance",
        "answer": None,
        "cardinality": None,
        "solutions": tuple(frozenset((g,)) for g in ranked),
    }


def run_leg(
    session: DiagnosisSession,
    strategy: str,
    k: int | None,
    first_only: bool,
    solver_backend: str | None = None,
    budget: Budget | None = None,
) -> SolutionSetResult:
    """One strategy rung with ladder-appropriate limits.

    ``first_only`` runs the rung to its *first* solution (the serving
    mode); otherwise it runs to completion (the reference mode).
    ``budget`` is the rung's stop signal: the rung polls it at its own
    check points and the SAT search every
    ``budget.conflict_poll_interval`` conflicts, so a cancelled or
    past-deadline rung stops mid-solve instead of at the next
    solver-call boundary.
    """
    options: dict = {"budget": budget}
    if solver_backend is not None:
        options["solver_backend"] = solver_backend
    if strategy == "greedy-stochastic":
        if first_only:
            options["max_solutions"] = 1
        return diagnose(
            session, k=None, strategy="greedy-stochastic", **options
        )
    if strategy == "bsat":
        if first_only:
            options["solution_limit"] = 1
        return diagnose(
            session,
            k=k if k is not None else _DEFAULT_K_MAX,
            strategy="bsat-auto-k",
            **options,
        )
    raise ValueError(
        f"unknown race strategy {strategy!r} (expected one of "
        f"{', '.join(DEFAULT_STRATEGIES)})"
    )


def race_device(
    session: DiagnosisSession,
    strategies: tuple[str, ...] = DEFAULT_STRATEGIES,
    k: int | None = None,
    first_only: bool = True,
    budget: Budget | None = None,
    solver_backend: str | None = None,
) -> RaceOutcome:
    """Run the ``strategies`` ladder on one prepared session; the first
    rung with solutions wins.

    ``budget`` is the device's stop signal (the attempt's deadline and
    the dispatcher's cancel flag), shared by every rung; once it trips,
    the running rung stops at its next poll, the rest never start, and
    the outcome reports ``cancelled=True`` (plus ``timed_out=True`` when
    the budget's reason is the deadline) and what the ladder already
    held as ``partial``.
    """
    if not strategies:
        raise ValueError("the race needs at least one strategy")
    outcome = RaceOutcome()
    for i, name in enumerate(strategies):
        result = run_leg(
            session, name, k, first_only,
            solver_backend=solver_backend,
            budget=budget,
        )
        outcome.legs[name] = _leg_summary(result)
        if result.extras.get("cancelled"):
            outcome.cancelled = True
            outcome.cancelled_legs = len(strategies) - i
            outcome.timed_out = budget.reason == "deadline"
            outcome.partial = _partial(result, session)
            break
        if result.solutions:
            outcome.winner = name
            outcome.solutions = tuple(result.solutions)
            outcome.answer = _pick_answer(outcome.solutions)
            outcome.skipped_legs = len(strategies) - i - 1
            break
    return outcome


def _leg_summary(result: SolutionSetResult) -> dict:
    return {
        "approach": result.approach,
        "solutions": len(result.solutions),
        "complete": result.complete,
        "cancelled": bool(result.extras.get("cancelled")),
        "t_first": result.t_first,
        "t_all": result.t_all,
    }
