"""Implicit-hitting-set diagnosis (Ignatiev/Morgado/Marques-Silva style).

*Model Based Diagnosis of Multiple Observations with Implicit Hitting
Sets* (PAPERS.md) computes minimum-cardinality diagnoses consistent with
*every* observation by dualizing: maintain a growing set of **conflicts**
— gate sets of which every valid correction must contain at least one —
and alternate between (a) a minimum hitting set of the conflicts and (b)
a consistency check of that hitting set against each observation.  An
inconsistent candidate yields a *new* conflict that excludes it, and the
loop repeats until a hitting set survives all observations.

Both engines of the repo feed the loop:

* **Sim side** — the candidate space's per-observation rectification
  sets (derived from the vectorized deductive fault lists /
  fault-parallel sweeps) are each observation's size-1 minimal
  correction sets; a hitting set that hits one rectifying gate per
  observation is consistent *without any SAT call*, and the exact
  bit-parallel forced-value check settles small candidates.
* **SAT side** — when an observation rejects a candidate, the session's
  cached incremental per-observation solver
  (:meth:`~repro.diagnosis.core.DiagnosisSession.rectify_solver`) proves
  it under assumptions ``¬s_g`` for every gate outside the candidate;
  the assumption core is a sound conflict (every correction valid for
  that observation selects at least one core gate), typically far
  smaller than the structural cone.

Hitting sets are enumerated with the repo's own CNF machinery — one
selection variable per pool gate, one clause per conflict, an
:class:`repro.sat.cardinality.IncrementalTotalizer` bound incremented
from 1 — so the first consistent candidates found are
minimum-cardinality, and with superset blocking every reported solution
is subset-minimal within the explored bound.  Initial conflicts are the
failing outputs' fan-in cones (sound: a correction must change the
erroneous output's value, hence contain a cone gate).

The hitting-set instance is **persistent per session**
(:meth:`~repro.diagnosis.core.DiagnosisSession.ihs_state`): selection
variables, accumulated conflicts and the solver's learnt state survive
across calls — conflicts are facts about the problem, so later calls
start from everything earlier calls proved — while each call's
solution-blocking clauses are scoped with an activation literal exactly
like the BSAT enumerations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from ..circuits.netlist import Circuit
from ..sat.cardinality import IncrementalTotalizer
from ..sat.cnf import CNF
from ..testgen.testset import TestSet
from .base import Correction, SolutionSetResult
from .core import ALL_SYSTEM_KINDS, DiagnosisSession, register_strategy

__all__ = ["ihs_diagnose"]


@dataclass
class _HitterState:
    """Session-persistent hitting-set instance for one (pool, backend)."""

    cnf: CNF
    var_of: dict[str, int]
    gate_of: dict[int, str]
    totalizer: IncrementalTotalizer
    solver: object
    conflicts: list[frozenset[str]]
    seen_conflicts: set[frozenset[str]] = field(default_factory=set)
    scope_count: int = 0

    def add_conflict(self, gates: frozenset[str]) -> bool:
        """Record a sound conflict permanently; False when already known."""
        if not gates or gates in self.seen_conflicts:
            return False
        self.seen_conflicts.add(gates)
        self.conflicts.append(gates)
        self.solver.add_clause([self.var_of[g] for g in sorted(gates)])
        return True

    def begin_scope(self) -> int:
        self.scope_count += 1
        act = self.cnf.new_var(f"act:{self.scope_count}")
        self.solver.ensure_vars(act)
        return act

    def end_scope(self, act: int) -> None:
        self.solver.add_clause([-act])
        self.cnf.add_clause([-act])


def ihs_diagnose(
    circuit: Circuit | None,
    tests: TestSet | None,
    k: int | None = None,
    pool: Sequence[str] | None = None,
    solution_limit: int | None = None,
    max_rounds: int = 10_000,
    session: DiagnosisSession | None = None,
    solver_backend: str | None = None,
) -> SolutionSetResult:
    """Implicit hitting set search for minimum-cardinality corrections.

    Parameters
    ----------
    k:
        Largest candidate cardinality to consider (default: the pool
        size — the loop stops at the first cardinality admitting a
        consistent candidate anyway).
    pool:
        Suspect pool (default: every functional gate).
    solution_limit:
        Stop after this many consistent candidates (None: enumerate all
        candidates of the successful cardinality).
    max_rounds:
        Safety valve on hitting-set/consistency-check iterations.

    Returns a :class:`SolutionSetResult` (``approach="IHS"``): all
    reported solutions are verified valid corrections of the smallest
    cardinality that admits one; ``extras`` records the conflict and
    SAT-core counts.  ``complete`` is True when the enumeration of that
    cardinality was exhausted.
    """
    start = time.perf_counter()
    if session is None:
        if circuit is None:
            raise ValueError(
                "ihs_diagnose requires a circuit or an existing session"
            )
        session = DiagnosisSession(circuit, tests)
    space = session.space(pool)
    pool_gates = list(space.pool)
    if not pool_gates:
        raise ValueError("empty suspect pool")
    k_max = len(pool_gates) if k is None else min(k, len(pool_gates))
    if k_max < 1:
        raise ValueError("k must be at least 1")

    # Seed MCSes (sim side): each observation's singleton rectifiers.
    rect_sets = [
        space.observation_candidates(j) for j in range(session.m)
    ]
    from ..sat.backends import resolve_backend

    backend = resolve_backend(
        solver_backend
        if solver_backend is not None
        else session.solver_backend
    )
    pool_key = tuple(pool_gates)

    def build_state() -> _HitterState:
        # Sound initial conflicts: each failing observation's structural
        # conflict (the fan-in cone for circuits, the system-declared
        # component set otherwise).  Only observations that actually
        # fail constrain the correction this way (a passing observation
        # is rectified by the empty correction).
        failing = session.failing_word()
        conflicts: list[frozenset[str]] = []
        seen: set[frozenset[str]] = set()
        for j in range(session.m):
            if not (failing >> j) & 1:
                continue
            cone = space.observation_conflict(j)
            if cone and cone not in seen:
                seen.add(cone)
                conflicts.append(cone)
        # Hitting-set instance: one selection var per pool gate, one
        # clause per conflict, an incremental totalizer for the
        # cardinality bound.  Clauses for new conflicts are added
        # incrementally (CDCL keeps its learnt state).
        cnf = CNF()
        var_of = {g: cnf.new_var(f"h:{g}") for g in pool_gates}
        for conflict in conflicts:
            cnf.add_clause([var_of[g] for g in sorted(conflict)])
        tot = IncrementalTotalizer(
            cnf, [var_of[g] for g in pool_gates], k_max
        )
        hitter = cnf.to_solver(backend=backend)
        tot.bind_solver(hitter)
        return _HitterState(
            cnf=cnf,
            var_of=var_of,
            gate_of={v: g for g, v in var_of.items()},
            totalizer=tot,
            solver=hitter,
            conflicts=conflicts,
            seen_conflicts=seen,
        )

    state: _HitterState = session.ihs_state(
        ("ihs", pool_key, backend), build_state
    )
    state.totalizer.extend(k_max)
    var_of = state.var_of
    gate_of = state.gate_of
    hitter = state.solver
    conflicts = state.conflicts
    t_build = time.perf_counter() - start

    def consistent_with_observation(h: tuple[str, ...], j: int) -> bool:
        """Exact check of one observation, cheapest engine first."""
        if rect_sets[j] & set(h):
            return True  # hits a size-1 MCS of the observation
        return bool(session.rect_word(h) & (1 << j))

    # Conflict extraction runs through the system description
    # (:meth:`DiagnosisSession.observation_core`): for circuits that is
    # the per-observation *master* rectify solver (muxes on every
    # functional gate, pool selected by assumption pins), so pool churn
    # across calls — repair radii, partitioned funnels, refined IHS
    # pools — reuses one encoding and its learnt state per observation
    # instead of rebuilding per pool.  Other system kinds return their
    # own UNSAT-core / coverage conflicts through the same call.
    pool_set = set(pool_gates)

    def extract_conflict(h: tuple[str, ...], j: int) -> frozenset[str]:
        """Sound conflict from an observation that rejects ``h``."""
        core = session.observation_core(h, j, solver_backend=backend)
        # Restrict to the pool: a valid pool correction is also a valid
        # all-components correction, so it intersects the core — hence
        # the pool slice stays a sound conflict (empty slice = the pool
        # cannot rectify the observation at any cardinality).
        return frozenset(c for c in core if c in pool_set)

    act = state.begin_scope()
    search_start = time.perf_counter()
    solutions: list[Correction] = []
    t_first: float | None = None
    complete = True
    rounds = 0
    cores = 0
    found_bound: int | None = None
    infeasible = False
    try:
        for bound in range(1, k_max + 1):
            if found_bound is not None or infeasible:
                break
            assumptions = state.totalizer.bound_assumptions(bound) + [act]
            while True:
                if rounds >= max_rounds:
                    complete = False
                    infeasible = True  # stop escalating the bound too
                    break
                rounds += 1
                if not hitter.solve(assumptions=assumptions):
                    break  # no hitting set of this cardinality remains
                h = tuple(
                    sorted(
                        gate_of[v]
                        for v in var_of.values()
                        if hitter.value(v)
                    )
                )
                rejecting = None
                for j in range(session.m):
                    if not consistent_with_observation(h, j):
                        rejecting = j
                        break
                if rejecting is None:
                    candidate = frozenset(h)
                    if not any(sol <= candidate for sol in solutions):
                        solutions.append(candidate)
                        if t_first is None:
                            t_first = time.perf_counter() - search_start
                    found_bound = bound
                    # Block supersets (scoped to this call) and keep
                    # enumerating this cardinality.
                    hitter.add_clause(
                        [-var_of[g] for g in h] + [-act]
                    )
                    if (
                        solution_limit is not None
                        and len(solutions) >= solution_limit
                    ):
                        complete = False
                        break
                else:
                    core = extract_conflict(h, rejecting)
                    cores += 1
                    if core:
                        state.add_conflict(core)
                    else:
                        # Empty core: the observation is unrectifiable
                        # even with every pool gate free — no solution
                        # exists at any cardinality.
                        infeasible = True
                        break
    finally:
        state.end_scope(act)
    t_all = time.perf_counter() - search_start
    return SolutionSetResult(
        approach="IHS",
        k=found_bound if found_bound is not None else k_max,
        solutions=tuple(solutions),
        complete=complete,
        t_build=t_build,
        t_first=t_first if t_first is not None else t_all,
        t_all=t_all,
        extras={
            "pool_size": len(pool_gates),
            "rounds": rounds,
            "conflicts": len(conflicts),
            "sat_cores": cores,
        },
    )


@register_strategy(
    "ihs",
    "implicit hitting sets over sim MCSes and SAT cores, minimum "
    "cardinality first",
    kinds=ALL_SYSTEM_KINDS,
)
def _ihs_strategy(
    session: DiagnosisSession, k: int | None = None, **options
) -> SolutionSetResult:
    return ihs_diagnose(
        session.circuit, session.tests, k, session=session, **options
    )
