"""Degradation ladder: bounded fallbacks instead of empty timeouts.

When every exact attempt for a device exhausts its deadline or budget,
the service does not give up with an empty ``timeout`` result — it
walks a ladder of ever-cheaper answer classes, each bounded by its own
:class:`~repro.sat.budget.Budget`:

``exact``
    The normal strategy ladder (single-fix, greedy, bsat).  Not run
    here — reaching the ladder *means* exact already failed.
``approximate``
    A short budget-bounded SAFARI run
    (:func:`~repro.diagnosis.greedy.greedy_stochastic_diagnose`):
    every solution it reports is still a **verified valid correction**,
    but the set is a sample, not an enumeration — validity class
    ``"valid-sampled"``.
``guidance``
    The BSIM-style per-gate mark counts read off the session's
    rectification words: gates ranked by how many failing observations
    a single forced value at the gate fixes.  Pure simulation, no
    solver.  These are ranked suspects, **not** verified corrections —
    validity class ``"guidance"`` (``answer`` stays ``None``; the
    ranked singletons land in ``solutions``).

A rung that produces nothing (or dies) falls through to the next; when
the whole ladder comes up empty the service reports the classic
``timeout``.  The service stamps ladder results ``status="degraded"``
with ``degraded_rung`` and ``validity`` so downstream consumers can
tell a sampled-but-valid answer from mere guidance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..diagnosis.core import DiagnosisSession
from ..diagnosis.greedy import greedy_stochastic_diagnose
from ..sat.budget import Budget

__all__ = ["DegradedAnswer", "LADDER_RUNGS", "run_degradation_ladder"]

#: Ladder order (exact is implicit — it already ran and failed).
LADDER_RUNGS = ("approximate", "guidance")

#: Guidance rung: at most this many ranked candidates are reported.
_GUIDANCE_TOP = 8

#: Approximate rung: independent SAFARI climbs attempted within budget.
_APPROX_RETRIES = 4


@dataclass
class DegradedAnswer:
    """What one ladder rung salvaged for a device."""

    rung: str
    #: ``"valid-sampled"`` (verified corrections, sampled) or
    #: ``"guidance"`` (ranked suspects, unverified).
    validity: str
    #: Minimum-size verified correction (approximate rung only).
    answer: tuple[str, ...] | None
    solutions: tuple = ()
    detail: dict = field(default_factory=dict)


def _approximate(
    session: DiagnosisSession, k: int | None, budget: Budget
) -> DegradedAnswer | None:
    result = greedy_stochastic_diagnose(
        session.circuit,
        session.tests,
        k=k,
        retries=_APPROX_RETRIES,
        max_solutions=1,
        session=session,
        budget=budget,
    )
    if not result.solutions:
        return None
    best = min(result.solutions, key=lambda s: (len(s), sorted(s)))
    return DegradedAnswer(
        rung="approximate",
        validity="valid-sampled",
        answer=tuple(sorted(best)),
        solutions=tuple(result.solutions),
        detail={
            "climbs": result.extras.get("climbs", 0),
            "interrupted": bool(result.extras.get("interrupted")),
        },
    )


def _guidance(session: DiagnosisSession) -> DegradedAnswer | None:
    space = session.space()
    marks = space.marks()
    ranked = sorted(
        (g for g, m in marks.items() if m > 0),
        key=lambda g: (-marks[g], g),
    )[:_GUIDANCE_TOP]
    if not ranked:
        return None
    return DegradedAnswer(
        rung="guidance",
        validity="guidance",
        answer=None,
        solutions=tuple(frozenset((g,)) for g in ranked),
        detail={"marks": {g: marks[g] for g in ranked}},
    )


def run_degradation_ladder(
    session: DiagnosisSession,
    k: int | None = None,
    budget_seconds: float = 0.25,
    rungs: tuple[str, ...] = LADDER_RUNGS,
) -> DegradedAnswer | None:
    """Walk the ladder on one prepared session, first rung to answer
    wins.

    ``budget_seconds`` bounds the *approximate* rung through a solver-
    level :class:`Budget` (deadline + conflict polling); the guidance
    rung is one vectorized sweep and needs no budget.  Rung failures
    (including unexpected exceptions) fall through — the ladder itself
    must never raise into the service's retry path.
    """
    for rung in rungs:
        if rung not in LADDER_RUNGS:
            raise ValueError(f"unknown ladder rung {rung!r}")
    for rung in rungs:
        try:
            if rung == "approximate":
                budget = Budget.from_deadline(budget_seconds)
                found = _approximate(session, k, budget)
            else:
                found = _guidance(session)
            if found is not None:
                return found
        except Exception:
            # A dying rung degrades to the next one, by design.
            continue
    return None
