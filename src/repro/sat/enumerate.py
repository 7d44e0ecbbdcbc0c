"""All-solutions enumeration over a projection of the variables.

``BasicSATDiagnose`` needs *every* solution of the diagnosis instance,
projected onto the multiplexer select lines ("Enumerate all solutions and
add a blocking clause for each solution", paper Fig. 3).  The enumerator
repeatedly solves, yields the set of true projection variables, and blocks
it:

* ``block="superset"`` adds ``(¬s_a ∨ ¬s_b ∨ …)`` — no later solution may
  contain this one, which combined with increasing cardinality bounds
  yields exactly the inclusion-minimal ("essential candidates only",
  Lemma 3) solutions;
* ``block="exact"`` blocks only the precise projection assignment,
  enumerating all distinct projections.

The enumerator owns **no** solver state: it drives the caller's solver
in place — blocking clauses are added to it directly (no clause re-adding
per solution, no instance copies), so learnt clauses, saved phases and
the arena solver's reusable trail all persist across the loop *and*
remain with the caller afterwards.  ``block_extra`` appends activation
literals to every blocking clause, which is how the persistent diagnosis
instances scope one enumeration's blocks away from the next query
(see :mod:`repro.sat` docstring), and ``stats_deltas`` records what each
solution cost (restarts/learned/conflict/... deltas) for the benchmark
artifacts.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from .budget import SearchInterrupted
from .solver import Solver

__all__ = ["enumerate_solutions"]

#: Stats keys reported per solution in ``stats_deltas``.
_DELTA_KEYS = (
    "restarts",
    "learned",
    "conflicts",
    "decisions",
    "propagations",
)


def enumerate_solutions(
    solver: Solver,
    projection: Sequence[int],
    assumptions: Sequence[int] = (),
    block: str = "superset",
    limit: int | None = None,
    conflict_limit: int | None = None,
    on_solution: Callable[[frozenset[int]], None] | None = None,
    block_extra: Sequence[int] = (),
    stats_deltas: list | None = None,
    budget=None,
) -> Iterator[frozenset[int]]:
    """Yield sets of true projection variables, blocking each one found.

    Parameters
    ----------
    projection:
        The variables solutions are projected onto (select lines).
    assumptions:
        Extra assumptions per solve call (e.g. the totalizer bound literal
        and the activation literal matching ``block_extra``).
    block:
        ``"superset"`` or ``"exact"`` (see module docstring).
    limit:
        Stop after this many solutions (None = all).
    conflict_limit:
        Per-solve conflict budget; raises :class:`TimeoutError` when hit so
        callers can distinguish exhaustion from completion.
    budget:
        :class:`repro.sat.budget.Budget` threaded into every solve call;
        when it trips mid-search the enumerator raises
        :class:`~repro.sat.budget.SearchInterrupted` (a
        :class:`TimeoutError` subclass, so pre-budget handlers still
        catch it) rather than the plain conflict-limit TimeoutError.
    block_extra:
        Literals appended to every blocking clause.  Pass the negation of
        an activation literal that is also assumed in ``assumptions`` to
        make the blocks retractable (drop the assumption and they are
        vacuously satisfiable) — the persistent-instance scoping used by
        :mod:`repro.diagnosis.satdiag`.
    stats_deltas:
        When a list is passed, one dict per enumerated solution is
        appended with the change in the solver's ``restarts``/``learned``/
        ``conflicts``/``decisions``/``propagations`` counters that finding
        the solution cost.

    Notes
    -----
    Blocking clauses are added permanently (modulo ``block_extra``
    scoping): enumerating with bound ``i`` and then ``i+1`` never repeats
    (or extends, under superset blocking) a solution — this is what makes
    the paper's incremental ``k`` loop return only corrections with
    essential candidates.
    """
    if block not in ("superset", "exact"):
        raise ValueError("block must be 'superset' or 'exact'")
    extra = list(block_extra)
    count = 0
    while limit is None or count < limit:
        before = (
            {k: solver.stats[k] for k in _DELTA_KEYS}
            if stats_deltas is not None
            else None
        )
        result = solver.solve(
            assumptions=assumptions,
            conflict_limit=conflict_limit,
            budget=budget,
        )
        if result is None:
            if budget is not None and budget.interrupted:
                raise SearchInterrupted(
                    f"enumeration interrupted by budget ({budget.reason})"
                )
            raise TimeoutError(
                f"enumeration hit the conflict limit ({conflict_limit})"
            )
        if not result:
            return
        true_vars = frozenset(v for v in projection if solver.value(v))
        if before is not None:
            stats_deltas.append(
                {k: solver.stats[k] - before[k] for k in _DELTA_KEYS}
            )
        if on_solution is not None:
            on_solution(true_vars)
        yield true_vars
        count += 1
        if block == "superset":
            clause = [-v for v in true_vars]
        else:
            clause = [(-v if v in true_vars else v) for v in projection]
        clause.extend(extra)
        if not clause:
            # The empty projection solution blocks everything else.
            return
        if not solver.add_clause(clause):
            return
