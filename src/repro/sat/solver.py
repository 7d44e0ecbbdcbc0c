"""Conflict-driven clause-learning (CDCL) SAT solver on a flat clause arena.

A from-scratch reimplementation of the solver class the paper relies on
(Zchaff, ref [15]): two-watched-literal Boolean constraint propagation,
VSIDS-style decision heuristic with phase saving, first-UIP conflict
analysis with clause minimization, Luby restarts, activity-driven learnt
clause deletion, and *incremental* solving under assumptions — the feature
(paper ref [19], SATIRE) that makes the iterative ``k = 1 .. k_max``
diagnosis loop cheap, since learned clauses survive between calls.

Clause storage is a single flat Python int list (the *arena*): a clause is
an offset ``ref`` into the arena with its literals at ``arena[ref :
ref + size]`` and a two-int header (``size``, ``learnt`` flag) just below.
Watch lists are literal-indexed flat lists of ``(ref, blocker)`` pairs, so
the propagation inner loop touches only small-int list slots — no per-
clause Python objects, no attribute lookups — and learnt-clause deletion
compacts the arena in place.  **Binary clauses** (the bulk of Tseitin
gate encodings) bypass the pair watch lists entirely: each literal keeps
a flat implicit adjacency of ``(other-lit, ref)`` ints that propagation
walks *before* the clause-arena pass, so BCP over a binary clause is two
list reads and an assignment — no blocker indirection, no arena access,
no watch-list rewriting.  Learnt binaries are routed into the same
structure (they are never deleted, so the adjacency only grows).  The
search (decision order, conflict analysis, restarts, deletion policy)
matches the legacy object-graph solver
(:class:`repro.sat.legacy.LegacySolver`) except for **chronological
backtracking** on long backjumps (Nadel/Ryvchin 2018): when the
assertion level sits far below the conflict level, only one level is
undone and the asserting literal is implied there — its recorded level
over-approximates the assertion level, which analysis tolerates because
reason levels never exceed the implied literal's.  Solution sets are
unaffected (the differential suite in ``tests/sat/test_backends.py``
pins arena against legacy and brute force), but a diagnosis
enumeration keeps its ~10k-assignment implied trail alive across
blocking conflicts instead of redescending it.

Trail reuse across solve() calls
--------------------------------

The solver never discards more search state than it must.  Within one
:meth:`Solver.solve` call the trail persists across restarts; *between*
calls it is kept alive and re-entered under the **longest common
assumption prefix**: assumptions are applied positionally as
pseudo-decision levels ``1..n``, so when the next call's assumption list
shares a prefix of length ``L`` with the previous call's, only the
levels above ``L`` are undone — the implied trail segment of the shared
prefix (e.g. the fan-out of ``¬s_g`` suspect pins of a master diagnosis
view, or a totalizer bound literal) is not re-propagated.  A re-solve
under *identical* assumptions after a SAT answer resumes the full
descent (the PR-4 behaviour, now the ``L = n`` special case), and the
trail survives assumption-level UNSAT answers too, so bound sweeps
(``k = 1 .. k_max``) and scoped enumerations redescend only what their
assumptions actually changed.  :meth:`add_clause` cooperates by
inserting new clauses *chronologically* — a falsified blocking clause
undoes only the deepest trail level instead of backjumping to its
assertion level — and :meth:`load_clauses` bulk-loads a CNF at the root
with one deferred propagation pass.

The public literal convention is DIMACS (positive/negative ints).  Two
hooks exist specifically for the paper's hybrid future-work direction
(§6): :meth:`Solver.bump_activity` seeds the decision order from outside
(e.g. with path-tracing mark counts) and :meth:`Solver.set_phase` presets
the polarity a variable is first tried with.
"""

from __future__ import annotations

import heapq
from heapq import heappop, heappush
from typing import Iterable, Sequence

from .budget import PROPAGATION_POLL_INTERVAL
from .types import to_dimacs, to_internal

__all__ = ["Solver", "SolveResult"]

#: Solve outcome: True = SAT, False = UNSAT, None = conflict limit hit.
SolveResult = bool | None

#: Arena header layout: ``arena[ref - 2]`` is the clause size and
#: ``arena[ref - 1]`` the learnt flag; literals live at ``arena[ref:ref+size]``.
_HEADER = 2


class Solver:
    """Incremental CDCL SAT solver (arena clause storage).

    Example
    -------
    >>> s = Solver()
    >>> a, b = s.new_var(), s.new_var()
    >>> _ = s.add_clause([a, b]); _ = s.add_clause([-a, b])
    >>> s.solve()
    True
    >>> s.value(b)
    True
    >>> s.solve(assumptions=[-b])
    False
    >>> s.core() == [-b]
    True
    """

    def __init__(self) -> None:
        self._num_vars = 0
        #: Flat clause storage; clause refs index the first literal.
        self._arena: list[int] = []
        self._clauses: list[int] = []  # problem clause refs
        self._learnts: list[int] = []  # learnt clause refs
        #: Per-literal flat watch lists of (clause ref, blocker lit) pairs.
        self._watches: list[list[int]] = [[], []]
        #: Implicit binary-clause adjacency: ``_bin_watches[l]`` holds
        #: flat (other-lit, clause ref) pairs for every binary clause
        #: containing ``l`` — visited when ``l`` becomes false, *before*
        #: the arena walk; never rewritten, excluded from the pair watch
        #: lists entirely.
        self._bin_watches: list[list[int]] = [[], []]
        self._assigns: list[int] = [2]  # index 0 unused; 0/1 assigned, >=2 free
        self._level: list[int] = [0]
        self._reason: list[int] = [0]  # clause ref, 0 = decision/unit
        self._activity: list[float] = [0.0]
        self._polarity: list[int] = [1]  # 1 = try the negative phase first
        self._seen: list[int] = [0]
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._ok = True
        self._var_inc = 1.0
        self._var_decay = 1.0 / 0.95
        self._cla_inc = 1.0
        self._cla_decay = 1.0 / 0.999
        self._cla_activity: dict[int, float] = {}  # learnt ref -> activity
        self._order_heap: list[tuple[float, int]] = []
        # Cursor for zero-activity variables: the heap only tracks variables
        # that conflicts ever touched; the long tail of never-bumped
        # variables (e.g. the free c_g^i values of diagnosis instances) is
        # scanned linearly, which avoids millions of heap operations on
        # instances whose search is decision-heavy but conflict-light.
        self._scan_cursor = 1
        self._conflict_core: list[int] = []
        self._model: list[int] = []
        # Trail-reuse bookkeeping: after a SAT answer the trail is kept
        # alive, and a re-solve under the *same* assumptions resumes the
        # search instead of re-descending from the root — the step that
        # makes all-solutions enumeration (solve / block / solve ...)
        # cost one shallow backjump per solution instead of a full
        # descent (see also add_clause's minimal-backjump insertion).
        self._last_assumptions: tuple[int, ...] | None = None
        self._last_status: SolveResult = None
        self._proof = None  # ProofLog when DRAT logging is active
        self.stats: dict[str, int] = {
            "conflicts": 0,
            "decisions": 0,
            "propagations": 0,
            "restarts": 0,
            "learned": 0,
            "deleted": 0,
        }

    # ------------------------------------------------------------------
    # problem construction
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        """Allocate a fresh variable; returns its (positive) DIMACS index."""
        self._num_vars += 1
        self._assigns.append(2)
        self._level.append(0)
        self._reason.append(0)
        self._activity.append(0.0)
        self._polarity.append(1)
        self._seen.append(0)
        self._watches.append([])
        self._watches.append([])
        self._bin_watches.append([])
        self._bin_watches.append([])
        return self._num_vars

    def ensure_vars(self, n: int) -> None:
        """Grow the variable table so that variables ``1..n`` exist."""
        while self._num_vars < n:
            self.new_var()

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        return len(self._clauses)

    def clause_lits(self, ref: int) -> list[int]:
        """The DIMACS literals of the clause at ``ref`` (debug/test aid)."""
        size = self._arena[ref - 2]
        return [to_dimacs(l) for l in self._arena[ref : ref + size]]

    def _alloc_clause(self, lits: list[int], learnt: bool) -> int:
        arena = self._arena
        arena.append(len(lits))
        arena.append(1 if learnt else 0)
        ref = len(arena)
        arena.extend(lits)
        return ref

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause of DIMACS literals.

        Returns False when the solver becomes trivially UNSAT (empty clause,
        or a unit contradicting the root trail).  Clauses may be added
        between :meth:`solve` calls — *without* discarding the current
        trail: the clause is inserted with a minimal backjump (only deep
        enough to restore the watch invariant), so enumeration loops that
        alternate solve / blocking-clause keep their descent alive.
        Duplicate literals are merged; tautologies are dropped.
        """
        if not self._ok:
            return False
        assigns = self._assigns
        levels = self._level
        internal: list[int] = []
        seen_lits: set[int] = set()
        max_var = 0
        for lit in lits:
            max_var = max(max_var, abs(lit))
        if max_var > self._num_vars:
            self.ensure_vars(max_var)
        for lit in lits:
            il = to_internal(lit)
            if il ^ 1 in seen_lits:
                return True  # tautology: trivially satisfied
            if il not in seen_lits:
                seen_lits.add(il)
                internal.append(il)
        # Simplify against the *root* trail only — deeper assignments are
        # search state, not facts.
        simplified: list[int] = []
        for il in internal:
            var = il >> 1
            val = assigns[var] ^ (il & 1)
            if val < 2 and levels[var] == 0:
                if val == 1:
                    return True  # root-satisfied
                continue  # root-false literal: drop
            simplified.append(il)
        if not simplified:
            self._cancel_until(0)
            self._ok = False
            self._last_status = None
            if self._proof is not None:
                self._proof.add([])
            return False
        if len(simplified) == 1:
            self._cancel_until(0)
            lit = simplified[0]
            if not self._enqueue(lit, 0):
                self._ok = False
                if self._proof is not None:
                    self._proof.add([])
                return False
            self._ok = self._propagate() == 0
            if not self._ok and self._proof is not None:
                self._proof.add([])
            return self._ok
        # Choose the two watched literals under the current (possibly
        # deep) assignment, backtracking just enough that the watch
        # invariant holds: watches must be non-false, or the clause is
        # satisfied/unit-enqueued right here.
        nonfalse = [
            il for il in simplified if assigns[il >> 1] ^ (il & 1) != 0
        ]
        if len(nonfalse) < 2 and self._trail_lim:
            false_lits = [
                il for il in simplified if assigns[il >> 1] ^ (il & 1) == 0
            ]
            false_levels = sorted(
                (levels[il >> 1] for il in false_lits), reverse=True
            )
            if not nonfalse:
                # Falsified clause (the enumeration blocking case):
                # *chronological* insertion — undo only the deepest
                # level, keeping the rest of the trail alive.  When the
                # clause becomes unit it is implied at the current
                # (chronological) level even though its reason literals
                # sit lower; the recorded level over-approximates the
                # assertion level, which conflict analysis tolerates
                # (reason levels stay <= the implied literal's level).
                # This is what makes enumeration redescend ~one select
                # cascade per solution instead of the whole c_g^i tail.
                target = false_levels[0] - 1
                self._cancel_until(max(target, 0))
                nonfalse = [
                    il
                    for il in simplified
                    if assigns[il >> 1] ^ (il & 1) != 0
                ]
        if len(nonfalse) >= 2:
            watch0, watch1 = nonfalse[0], nonfalse[1]
            clause_lits = [watch0, watch1] + [
                il for il in simplified if il != watch0 and il != watch1
            ]
            unit = 0
        else:
            # Exactly one non-false literal: the clause is unit (or
            # satisfied when that literal is already true).  Watch it
            # together with the deepest false literal.
            watch0 = nonfalse[0]
            false_sorted = sorted(
                (il for il in simplified if il != watch0),
                key=lambda il: levels[il >> 1],
                reverse=True,
            )
            watch1 = false_sorted[0]
            clause_lits = [watch0, watch1] + false_sorted[1:]
            val = assigns[watch0 >> 1] ^ (watch0 & 1)
            unit = watch0 if val >= 2 else 0
        ref = self._alloc_clause(clause_lits, learnt=False)
        self._clauses.append(ref)
        if len(clause_lits) == 2:
            # Binary clause: implicit adjacency (no blocker pair, no
            # arena access during propagation).
            bws = self._bin_watches[watch0]
            bws.append(watch1)
            bws.append(ref)
            bws = self._bin_watches[watch1]
            bws.append(watch0)
            bws.append(ref)
        else:
            # watches[l] holds (clause ref, blocker) pairs in which l is
            # watched; propagation visits watches[l] when l becomes
            # false.  The blocker is the other watched literal at append
            # time — any true literal of the clause proves it satisfied,
            # so a true blocker lets propagation skip the clause without
            # touching the arena at all.
            ws = self._watches[watch0]
            ws.append(ref)
            ws.append(watch1)
            ws = self._watches[watch1]
            ws.append(ref)
            ws.append(watch0)
        if unit:
            if not self._trail_lim:
                if not self._enqueue(unit, 0):
                    self._ok = False
                    if self._proof is not None:
                        self._proof.add([])
                    return False
                self._ok = self._propagate() == 0
                if not self._ok and self._proof is not None:
                    self._proof.add([])
                return self._ok
            self._enqueue(unit, ref)
        return True

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> bool:
        ok = True
        for clause in clauses:
            ok = self.add_clause(clause) and ok
        return ok

    def load_clauses(self, clauses: Iterable[Sequence[int]]) -> bool:
        """Bulk-load clauses at the root (the ``CNF.to_solver`` fast path).

        Behaviourally equivalent to :meth:`add_clause` per clause when
        the trail is at the root, with two shortcuts that make loading
        the mux-heavy diagnosis CNFs ~2× cheaper: duplicate-literal /
        tautology normalization is skipped (harmless — a duplicate
        behaves as one watch slot, a tautological clause can never
        propagate wrongly), and *transitive* root implications are
        propagated once at the end instead of after every unit clause.
        Falls back to :meth:`add_clause` when the trail is deep.
        """
        if not self._ok:
            return False
        if self._trail_lim:
            return self.add_clauses(clauses)
        assigns = self._assigns
        num_vars = self._num_vars
        for clause in clauses:
            satisfied = False
            w0 = w1 = 0
            for lit in clause:
                if lit > 0:
                    il = lit << 1
                else:
                    il = ((-lit) << 1) | 1
                var = il >> 1
                if var > num_vars:
                    self.ensure_vars(var)
                    assigns = self._assigns
                    num_vars = self._num_vars
                val = assigns[var] ^ (il & 1)
                if val == 1:
                    satisfied = True
                    break
                if val >= 2:
                    if w0 == 0:
                        w0 = il
                    elif w1 == 0 and il != w0:
                        w1 = il
            if satisfied:
                continue
            if w0 == 0:
                self._ok = False
                if self._proof is not None:
                    self._proof.add([])
                return False
            if w1 == 0:
                # Unit (duplicates of w0 and root-false literals only).
                if not self._enqueue(w0, 0):
                    self._ok = False
                    if self._proof is not None:
                        self._proof.add([])
                    return False
                continue
            lits = [w0, w1]
            for lit in clause:
                il = (lit << 1) if lit > 0 else (((-lit) << 1) | 1)
                if il != w0 and il != w1:
                    lits.append(il)
            ref = self._alloc_clause(lits, learnt=False)
            self._clauses.append(ref)
            if len(lits) == 2:
                bws = self._bin_watches[w0]
                bws.append(w1)
                bws.append(ref)
                bws = self._bin_watches[w1]
                bws.append(w0)
                bws.append(ref)
            else:
                ws = self._watches[w0]
                ws.append(ref)
                ws.append(w1)
                ws = self._watches[w1]
                ws.append(ref)
                ws.append(w0)
        self._ok = self._propagate() == 0
        if not self._ok and self._proof is not None:
            self._proof.add([])
        return self._ok

    # ------------------------------------------------------------------
    # proof logging (DRAT, see repro.sat.proof)
    # ------------------------------------------------------------------
    def start_proof(self):
        """Begin DRAT proof logging; returns the live ProofLog.

        Every learnt clause, learnt-clause deletion and the final empty
        clause are recorded.  Start logging *before* solving; the checker
        needs the full original formula separately
        (:func:`repro.sat.proof.check_drat`).  Assumption-based UNSAT
        answers are not certified — only formula-level UNSAT ends in the
        empty clause.

        When logging is *not* active (``self._proof is None``, the
        default) every call site is guarded by that single identity
        check, so the off path performs no method calls, literal
        conversions or list builds anywhere in the search loop
        (``benchmarks/bench_proof_overhead.py`` asserts the off-path
        overhead stays under 2%).
        """
        from .proof import ProofLog  # local import to avoid a cycle

        self._proof = ProofLog()
        return self._proof

    def _log_learnt(self, internal_lits: list[int]) -> None:
        # Call sites guard on ``self._proof is not None``; kept as a
        # helper for the logging-on path only.
        self._proof.add([to_dimacs(l) for l in internal_lits])

    def _log_deleted(self, internal_lits: list[int]) -> None:
        self._proof.delete([to_dimacs(l) for l in internal_lits])

    # ------------------------------------------------------------------
    # heuristic hooks (used by the hybrid diagnosis approaches, paper §6)
    # ------------------------------------------------------------------
    def bump_activity(self, var: int, amount: float = 1.0) -> None:
        """Externally increase the VSIDS score of ``var``.

        The hybrid approach seeds these scores with path-tracing mark counts
        so the solver branches on likely error sites first.
        """
        self._activity[var] += amount * self._var_inc
        if self._activity[var] > 1e100:
            self._rescale_activity()
        heapq.heappush(self._order_heap, (-self._activity[var], var))

    def set_phase(self, var: int, value: bool) -> None:
        """Preset the polarity first tried when deciding ``var``."""
        self._polarity[var] = 0 if value else 1

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_limit: int | None = None,
        budget=None,
    ) -> SolveResult:
        """Run the CDCL search.

        Returns True (SAT; model available via :meth:`value`/:meth:`model`),
        False (UNSAT; :meth:`core` returns the failed assumptions), or None
        if ``conflict_limit`` conflicts were exceeded — or if ``budget``
        (a :class:`repro.sat.budget.Budget`) tripped, in which case
        ``budget.interrupted`` is True.  The budget is polled inside
        :meth:`_search` every ``budget.conflict_poll_interval``
        conflicts (and every
        :data:`~repro.sat.budget.PROPAGATION_POLL_INTERVAL` propagations
        on conflict-light stretches), so cancellation
        overrun is bounded by the poll interval rather than by however
        long the query takes.
        """
        if not self._ok:
            self._conflict_core = []
            return False
        if budget is not None and budget.poll():
            self._last_status = None
            return None
        for a in assumptions:
            self.ensure_vars(abs(a))
        internal_assumptions = [to_internal(a) for a in assumptions]
        # Trail reuse: the trail is kept alive between calls (after SAT
        # *and* after assumption-level UNSAT), and assumptions occupy
        # decision levels positionally, so the search backtracks only to
        # the longest common prefix of the previous and the new
        # assumption lists instead of to the root.  Identical
        # assumptions after a SAT answer keep the full descent (the
        # blocking clauses added since were inserted with a minimal
        # backjump); a changed suffix undoes exactly the levels whose
        # assumptions changed, preserving the implied trail segment of
        # the shared prefix (suspect pins, bound literals, ...).
        new_assumptions = tuple(internal_assumptions)
        prev = self._last_assumptions
        if prev is not None and self._trail_lim:
            if not (self._last_status is True and new_assumptions == prev):
                shared = 0
                for a, b in zip(prev, new_assumptions):
                    if a != b:
                        break
                    shared += 1
                self._cancel_until(shared)
        else:
            self._cancel_until(0)
        if not self._trail_lim:
            if self._propagate() != 0:
                self._ok = False
                self._last_status = None
                if self._proof is not None:
                    self._proof.add([])
                return False
        self._conflict_core = []
        self._model = []
        self._last_assumptions = tuple(internal_assumptions)
        start_conflicts = self.stats["conflicts"]
        restart_idx = 0
        while True:
            restart_idx += 1
            limit = 100 * _luby(restart_idx)
            status = self._search(limit, internal_assumptions, budget)
            if status is None and budget is not None and budget.poll():
                # Either _search tripped the budget, or this
                # restart-boundary poll does: _search notes its
                # sub-interval remainder without polling, so without
                # this check the poll grid drifts and overrun could
                # reach ~2x the configured interval.
                self._cancel_until(0)
                self._last_status = None
                return None
            if status is not None:
                # The trail survives SAT *and* assumption-level UNSAT
                # answers: the next call backtracks only to the longest
                # common assumption prefix (see the class docstring).
                self._last_status = status
                return status
            self.stats["restarts"] += 1
            if (
                conflict_limit is not None
                and self.stats["conflicts"] - start_conflicts >= conflict_limit
            ):
                self._cancel_until(0)
                self._last_status = None
                return None

    def value(self, var: int) -> bool | None:
        """Truth value of ``var`` in the last model (None if unassigned)."""
        if not self._model:
            raise RuntimeError("no model: last solve() did not return True")
        v = self._model[var]
        return None if v >= 2 else bool(v)

    def model(self) -> list[int]:
        """The last model as DIMACS literals (assigned variables only)."""
        if not self._model:
            raise RuntimeError("no model: last solve() did not return True")
        return [
            (v if self._model[v] == 1 else -v)
            for v in range(1, self._num_vars + 1)
            if self._model[v] < 2
        ]

    def core(self) -> list[int]:
        """Subset of the assumptions responsible for the last UNSAT answer."""
        return list(self._conflict_core)

    # ------------------------------------------------------------------
    # CDCL machinery
    # ------------------------------------------------------------------
    def _search(
        self, conflict_budget: int, assumptions: list[int], budget=None
    ) -> SolveResult:
        # The whole hot path — two-watched-literal BCP, decision picking
        # and trail pushing — is fused into one loop over local variable
        # bindings.  On the decision-heavy, conflict-light diagnosis
        # instances the per-decision cost is dominated by interpreter
        # overhead, so avoiding the _propagate/_pick_branch/_enqueue call
        # chain per decision is worth the duplication with
        # :meth:`_propagate` (which stays for the cold add_clause/solve
        # root-propagation paths).
        watches = self._watches
        bin_watches = self._bin_watches
        assigns = self._assigns
        levels = self._level
        reason = self._reason
        trail = self._trail
        trail_lim = self._trail_lim
        arena = self._arena
        heap = self._order_heap
        activity = self._activity
        polarity = self._polarity
        stats = self.stats
        num_vars = self._num_vars
        n_assumptions = len(assumptions)
        conflicts = 0
        props = 0
        decisions = 0
        qhead = self._qhead
        # Budget polling cadence: every poll_every conflicts, plus every
        # prop_poll propagations so conflict-light decision stretches
        # still reach a poll.  charged_c/charged_p track what has been
        # handed to the budget so the finally block can settle the rest.
        poll_every = 0 if budget is None else budget.conflict_poll_interval
        prop_poll = 0 if budget is None else PROPAGATION_POLL_INTERVAL
        charged_c = 0
        charged_p = 0
        try:
            while True:
                # ---- inlined BCP -----------------------------------
                confl = 0
                dlevel = len(trail_lim)
                while qhead < len(trail):
                    p = trail[qhead]
                    qhead += 1
                    props += 1
                    false_lit = p ^ 1
                    # Binary adjacency first: two list reads and an
                    # assignment per clause — no blockers, no arena.
                    bws = bin_watches[false_lit]
                    bi = 0
                    bn = len(bws)
                    while bi < bn:
                        other = bws[bi]
                        val = assigns[other >> 1] ^ (other & 1)
                        if val == 1:
                            bi += 2
                            continue
                        cref = bws[bi + 1]
                        bi += 2
                        if val == 0:
                            confl = cref
                            qhead = len(trail)
                            break
                        # keep the implied literal at arena index 0 (the
                        # invariant conflict analysis relies on)
                        if arena[cref] != other:
                            arena[cref] = other
                            arena[cref + 1] = false_lit
                        var = other >> 1
                        assigns[var] = 1 ^ (other & 1)
                        levels[var] = dlevel
                        reason[var] = cref
                        trail.append(other)
                    if confl:
                        break
                    ws = watches[false_lit]
                    i = j = 0
                    n = len(ws)
                    while i < n:
                        cref = ws[i]
                        blocker = ws[i + 1]
                        i += 2
                        if assigns[blocker >> 1] ^ (blocker & 1) == 1:
                            ws[j] = cref
                            ws[j + 1] = blocker
                            j += 2
                            continue
                        l0 = arena[cref]
                        if l0 == false_lit:
                            first = arena[cref + 1]
                            arena[cref] = first
                            arena[cref + 1] = false_lit
                        else:
                            first = l0
                        fval = assigns[first >> 1] ^ (first & 1)
                        if fval == 1:
                            ws[j] = cref
                            ws[j + 1] = first
                            j += 2
                            continue
                        end = cref + arena[cref - 2]
                        moved = False
                        for k in range(cref + 2, end):
                            lk = arena[k]
                            if assigns[lk >> 1] ^ (lk & 1) != 0:
                                arena[cref + 1] = lk
                                arena[k] = false_lit
                                wlk = watches[lk]
                                wlk.append(cref)
                                wlk.append(first)
                                moved = True
                                break
                        if moved:
                            continue
                        ws[j] = cref
                        ws[j + 1] = first
                        j += 2
                        if fval == 0:
                            while i < n:  # keep remaining watchers
                                ws[j] = ws[i]
                                ws[j + 1] = ws[i + 1]
                                j += 2
                                i += 2
                            confl = cref
                            qhead = len(trail)
                        else:
                            var = first >> 1
                            assigns[var] = 1 ^ (first & 1)
                            levels[var] = dlevel
                            reason[var] = cref
                            trail.append(first)
                    del ws[j:]
                    if confl:
                        break
                # ---- conflict handling -----------------------------
                if confl:
                    conflicts += 1
                    stats["conflicts"] += 1
                    if not trail_lim:
                        self._ok = False
                        if self._proof is not None:
                            self._proof.add([])
                        self._qhead = qhead
                        return False
                    self._qhead = qhead
                    learnt, back_level = self._analyze(confl)
                    # Chronological backtracking (Nadel/Ryvchin style)
                    # for long backjumps: undo a single level and imply
                    # the asserting literal there (its recorded level
                    # over-approximates the assertion level; reason
                    # levels stay below it).  On the enumeration
                    # workloads this keeps the ~10k-assignment implied
                    # trail of a diagnosis instance alive instead of
                    # redescending it after every blocking conflict.
                    cur_level = len(trail_lim)
                    if len(learnt) > 1 and cur_level - back_level > 16:
                        back_level = cur_level - 1
                    self._cancel_until(back_level)
                    self._record_learnt(learnt)
                    self._decay_activities()
                    qhead = self._qhead
                    # learnt compaction / activity rescaling may have
                    # replaced these containers
                    arena = self._arena
                    heap = self._order_heap
                    if poll_every and conflicts - charged_c >= poll_every:
                        stop = budget.charge(
                            conflicts - charged_c, props - charged_p
                        )
                        charged_c = conflicts
                        charged_p = props
                        if stop:
                            self._qhead = qhead
                            self._cancel_until(0)
                            qhead = self._qhead
                            return None
                    continue
                if conflicts >= conflict_budget:
                    self._qhead = qhead
                    self._cancel_until(0)
                    qhead = self._qhead
                    return None
                if prop_poll and props - charged_p >= prop_poll:
                    stop = budget.charge(
                        conflicts - charged_c, props - charged_p
                    )
                    charged_c = conflicts
                    charged_p = props
                    if stop:
                        self._qhead = qhead
                        self._cancel_until(0)
                        qhead = self._qhead
                        return None
                # ---- decision --------------------------------------
                decision = 0
                if dlevel < n_assumptions:
                    lit = assumptions[dlevel]
                    val = assigns[lit >> 1] ^ (lit & 1)
                    if val == 1:
                        trail_lim.append(len(trail))
                        continue
                    if val == 0:
                        self._qhead = qhead
                        self._analyze_final(lit, assumptions)
                        return False
                    decision = lit
                if not decision:
                    # inlined _pick_branch: VSIDS heap first, then the
                    # zero-activity scan cursor
                    while heap:
                        neg_act, var = heappop(heap)
                        if assigns[var] < 2:
                            continue
                        if -neg_act != activity[var]:
                            heappush(heap, (-activity[var], var))
                            continue
                        decision = (var << 1) | polarity[var]
                        break
                    if not decision:
                        var = self._scan_cursor
                        while var <= num_vars and assigns[var] < 2:
                            var += 1
                        self._scan_cursor = var
                        if var <= num_vars:
                            decision = (var << 1) | polarity[var]
                    if not decision:
                        self._model = list(assigns)
                        self._qhead = qhead
                        return True
                    decisions += 1
                trail_lim.append(len(trail))
                # inlined decision enqueue (variable known unassigned)
                var = decision >> 1
                assigns[var] = 1 ^ (decision & 1)
                levels[var] = dlevel + 1
                reason[var] = 0
                trail.append(decision)
        finally:
            stats["propagations"] += props
            stats["decisions"] += decisions
            if budget is not None:
                budget.note(conflicts - charged_c, props - charged_p)

    def _propagate(self) -> int:
        """Two-watched-literal BCP over the arena; returns the conflicting
        clause ref (0 = no conflict)."""
        watches = self._watches
        bin_watches = self._bin_watches
        assigns = self._assigns
        level = self._level
        reason = self._reason
        trail = self._trail
        arena = self._arena
        props = 0
        confl = 0
        qhead = self._qhead
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            props += 1
            false_lit = p ^ 1
            bws = bin_watches[false_lit]
            bi = 0
            bn = len(bws)
            while bi < bn:
                other = bws[bi]
                val = assigns[other >> 1] ^ (other & 1)
                if val == 1:
                    bi += 2
                    continue
                cref = bws[bi + 1]
                bi += 2
                if val == 0:
                    confl = cref
                    qhead = len(trail)
                    break
                if arena[cref] != other:
                    arena[cref] = other
                    arena[cref + 1] = false_lit
                var = other >> 1
                assigns[var] = 1 ^ (other & 1)
                level[var] = len(self._trail_lim)
                reason[var] = cref
                trail.append(other)
            if confl != 0:
                break
            ws = watches[false_lit]
            i = j = 0
            n = len(ws)
            while i < n:
                cref = ws[i]
                blocker = ws[i + 1]
                i += 2
                if assigns[blocker >> 1] ^ (blocker & 1) == 1:
                    ws[j] = cref
                    ws[j + 1] = blocker
                    j += 2
                    continue
                l0 = arena[cref]
                if l0 == false_lit:
                    first = arena[cref + 1]
                    arena[cref] = first
                    arena[cref + 1] = false_lit
                else:
                    first = l0
                fval = assigns[first >> 1] ^ (first & 1)
                if fval == 1:
                    ws[j] = cref
                    ws[j + 1] = first
                    j += 2
                    continue
                end = cref + arena[cref - 2]
                moved = False
                for k in range(cref + 2, end):
                    lk = arena[k]
                    if assigns[lk >> 1] ^ (lk & 1) != 0:
                        arena[cref + 1] = lk
                        arena[k] = false_lit
                        wlk = watches[lk]
                        wlk.append(cref)
                        wlk.append(first)
                        moved = True
                        break
                if moved:
                    continue
                ws[j] = cref
                ws[j + 1] = first
                j += 2
                if fval == 0:
                    while i < n:  # keep remaining watchers before bailing
                        ws[j] = ws[i]
                        ws[j + 1] = ws[i + 1]
                        j += 2
                        i += 2
                    confl = cref
                    qhead = len(trail)
                else:
                    var = first >> 1
                    assigns[var] = 1 ^ (first & 1)
                    level[var] = len(self._trail_lim)
                    reason[var] = cref
                    trail.append(first)
            del ws[j:]
            if confl != 0:
                break
        self._qhead = qhead
        self.stats["propagations"] += props
        return confl

    def _enqueue(self, lit: int, reason_ref: int) -> bool:
        var = lit >> 1
        current = self._assigns[var] ^ (lit & 1)
        if current < 2:
            return current == 1
        self._assigns[var] = 1 ^ (lit & 1)
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason_ref
        self._trail.append(lit)
        return True

    def _analyze(self, confl: int) -> tuple[list[int], int]:
        """First-UIP conflict analysis; returns (learnt clause, backjump level).

        Relies on the invariant that a reason clause always carries its
        implied literal at index 0 (maintained by ``_propagate`` and
        ``_record_learnt``).
        """
        seen = self._seen
        level = self._level
        trail = self._trail
        arena = self._arena
        learnt: list[int] = [0]
        counter = 0
        p = -1
        index = len(trail) - 1
        cur_level = len(self._trail_lim)
        while True:
            if arena[confl - 1]:  # learnt flag
                self._bump_clause(confl)
            # skip the implied literal of reason clauses
            start = confl if p == -1 else confl + 1
            for q in arena[start : confl + arena[confl - 2]]:
                v = q >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = 1
                    self._bump_var(v)
                    if level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            v = p >> 1
            next_reason = self._reason[v]
            seen[v] = 0
            counter -= 1
            index -= 1
            if counter == 0:
                break
            assert next_reason != 0, "UIP walk hit a decision too early"
            confl = next_reason
        learnt[0] = p ^ 1
        # Local minimization: drop a literal when its reason is covered by
        # the other marked literals (self-subsumption with the reason).
        keep = [learnt[0]]
        for q in learnt[1:]:
            reason = self._reason[q >> 1]
            if reason == 0:
                keep.append(q)
                continue
            redundant = True
            for r in arena[reason + 1 : reason + arena[reason - 2]]:
                if seen[r >> 1] != 1 and level[r >> 1] != 0:
                    redundant = False
                    break
            if not redundant:
                keep.append(q)
        for q in learnt[1:]:
            seen[q >> 1] = 0
        learnt = keep
        if len(learnt) == 1:
            return learnt, 0
        max_i = 1
        for i in range(2, len(learnt)):
            if level[learnt[i] >> 1] > level[learnt[max_i] >> 1]:
                max_i = i
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, level[learnt[1] >> 1]

    def _analyze_final(self, assumption_lit: int, assumptions: list[int]) -> None:
        """Build the failed-assumption core after ``assumption_lit`` came up
        false during assumption application."""
        core = [to_dimacs(assumption_lit)]
        var0 = assumption_lit >> 1
        if self._level[var0] == 0:
            self._conflict_core = core
            return
        seen = self._seen
        arena = self._arena
        seen[var0] = 1
        pending = 1  # outstanding marks below the walk position
        for lit in reversed(self._trail):
            v = lit >> 1
            if not seen[v]:
                continue
            seen[v] = 0
            pending -= 1
            reason = self._reason[v]
            if reason == 0:
                if self._level[v] > 0:
                    core.append(to_dimacs(lit))
            else:
                for q in arena[reason + 1 : reason + arena[reason - 2]]:
                    qv = q >> 1
                    if self._level[qv] > 0 and not seen[qv]:
                        seen[qv] = 1
                        pending += 1
            if not pending:
                break  # nothing marked further down the trail
        self._conflict_core = core

    def _record_learnt(self, learnt: list[int]) -> None:
        self.stats["learned"] += 1
        if self._proof is not None:
            self._log_learnt(learnt)
        if len(learnt) == 1:
            self._enqueue(learnt[0], 0)
            return
        ref = self._alloc_clause(learnt, learnt=True)
        self._cla_activity[ref] = self._cla_inc
        self._learnts.append(ref)
        w0, w1 = learnt[0], learnt[1]
        if len(learnt) == 2:
            # Learnt binaries join the implicit adjacency (they are
            # never deleted — _reduce_learnts keeps size <= 2).
            bws = self._bin_watches[w0]
            bws.append(w1)
            bws.append(ref)
            bws = self._bin_watches[w1]
            bws.append(w0)
            bws.append(ref)
        else:
            ws = self._watches[w0]
            ws.append(ref)
            ws.append(w1)
            ws = self._watches[w1]
            ws.append(ref)
            ws.append(w0)
        self._enqueue(learnt[0], ref)
        if len(self._learnts) > max(2000, 2 * len(self._clauses)):
            self._reduce_learnts()

    def _reduce_learnts(self) -> None:
        """Drop the less active half of the learnt clauses (keep locked and
        binary ones) and compact the arena in place."""
        arena = self._arena
        locked = {
            self._reason[lit >> 1]
            for lit in self._trail
            if self._reason[lit >> 1] != 0
        }
        activity = self._cla_activity
        self._learnts.sort(key=lambda ref: activity[ref])
        cut = len(self._learnts) // 2
        keep: list[int] = []
        dropped: set[int] = set()
        for idx, ref in enumerate(self._learnts):
            if idx >= cut or ref in locked or arena[ref - 2] <= 2:
                keep.append(ref)
            else:
                dropped.add(ref)
        if not dropped:
            self._learnts = keep
            return
        self.stats["deleted"] += len(dropped)
        if self._proof is not None:
            for ref in self._learnts:
                if ref in dropped:
                    self._log_deleted(
                        arena[ref : ref + arena[ref - 2]]
                    )
        for ref in dropped:
            del activity[ref]
        self._learnts = keep
        self._compact(dropped)

    def _compact(self, dropped: set[int]) -> None:
        """Rebuild the arena without ``dropped`` clauses, remapping every
        clause ref (watch lists, reasons, clause indexes, activities)."""
        arena = self._arena
        new_arena: list[int] = []
        remap: dict[int, int] = {}
        pos = _HEADER
        end = len(arena)
        while pos < end:
            size = arena[pos - 2]
            if pos not in dropped:
                new_arena.append(size)
                new_arena.append(arena[pos - 1])
                remap[pos] = len(new_arena)
                new_arena.extend(arena[pos : pos + size])
            pos += size + _HEADER
        self._arena = new_arena
        self._clauses = [remap[r] for r in self._clauses]
        self._learnts = [remap[r] for r in self._learnts]
        self._cla_activity = {
            remap[r]: a for r, a in self._cla_activity.items()
        }
        reason = self._reason
        for lit in self._trail:
            var = lit >> 1
            r = reason[var]
            if r != 0:
                reason[var] = remap[r]
        for ws in self._watches:
            j = 0
            for i in range(0, len(ws), 2):
                ref = ws[i]
                if ref in dropped:
                    continue
                ws[j] = remap[ref]
                ws[j + 1] = ws[i + 1]
                j += 2
            del ws[j:]
        # Binary clauses are never dropped — their refs only move.
        for bws in self._bin_watches:
            for i in range(1, len(bws), 2):
                bws[i] = remap[bws[i]]

    def _pick_branch(self) -> int:
        heap = self._order_heap
        activity = self._activity
        assigns = self._assigns
        while heap:
            neg_act, var = heapq.heappop(heap)
            if assigns[var] < 2:
                continue
            if -neg_act != activity[var]:
                heapq.heappush(heap, (-activity[var], var))
                continue
            return (var << 1) | self._polarity[var]
        var = self._scan_cursor
        n = self._num_vars
        while var <= n and assigns[var] < 2:
            var += 1
        self._scan_cursor = var
        if var <= n:
            return (var << 1) | self._polarity[var]
        return 0

    def _bump_var(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            self._rescale_activity()
        heapq.heappush(self._order_heap, (-self._activity[var], var))

    def _rescale_activity(self) -> None:
        for v in range(1, self._num_vars + 1):
            self._activity[v] *= 1e-100
        self._var_inc *= 1e-100
        self._order_heap = [
            (-self._activity[v], v)
            for v in range(1, self._num_vars + 1)
            if self._assigns[v] >= 2
        ]
        heapq.heapify(self._order_heap)

    def _bump_clause(self, ref: int) -> None:
        activity = self._cla_activity
        activity[ref] += self._cla_inc
        if activity[ref] > 1e20:
            for c in self._learnts:
                activity[c] *= 1e-20
            self._cla_inc *= 1e-20

    def _decay_activities(self) -> None:
        self._var_inc *= self._var_decay
        self._cla_inc *= self._cla_decay

    def _cancel_until(self, target_level: int) -> None:
        if len(self._trail_lim) <= target_level:
            return
        boundary = self._trail_lim[target_level]
        heap = self._order_heap
        activity = self._activity
        assigns = self._assigns
        reason = self._reason
        polarity = self._polarity
        cursor = self._scan_cursor
        for lit in reversed(self._trail[boundary:]):
            var = lit >> 1
            assigns[var] = 2
            reason[var] = 0
            polarity[var] = lit & 1  # phase saving
            if activity[var] > 0.0:
                heapq.heappush(heap, (-activity[var], var))
            elif var < cursor:
                cursor = var
        self._scan_cursor = cursor
        del self._trail[boundary:]
        del self._trail_lim[target_level:]
        self._qhead = len(self._trail)


def _luby(i: int) -> int:
    """The Luby restart sequence (1-based): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...

    >>> [_luby(i) for i in range(1, 9)]
    [1, 1, 2, 1, 1, 2, 4, 1]
    """
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1
