"""The legacy object-graph CDCL solver, kept as a differential oracle.

This is the original from-scratch solver (pre arena rewrite): clauses are
``_Clause`` objects carrying a Python list of literals, watch lists hold
clause object references.  :class:`~repro.sat.solver.Solver` replaced it
as the default with a flat int-arena representation of the *same* search
(same decisions, same models, same cores, same stats on identical input),
so this implementation now serves as the reference the differential suite
(``tests/sat/test_backends.py``) and the backend registry
(:mod:`repro.sat.backends`, name ``"legacy"``) check the fast solver
against.

The public literal convention is DIMACS (positive/negative ints).  The
heuristic hooks (:meth:`LegacySolver.bump_activity`,
:meth:`LegacySolver.set_phase`) match the arena solver's.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from .types import to_dimacs, to_internal

__all__ = ["LegacySolver"]

#: Solve outcome: True = SAT, False = UNSAT, None = conflict limit hit.
SolveResult = bool | None


class _Clause:
    __slots__ = ("lits", "learnt", "activity")

    def __init__(self, lits: list[int], learnt: bool) -> None:
        self.lits = lits
        self.learnt = learnt
        self.activity = 0.0


class LegacySolver:
    """Incremental CDCL SAT solver (object-graph clause representation).

    Example
    -------
    >>> s = LegacySolver()
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
        self._clauses: list[_Clause] = []
        self._learnts: list[_Clause] = []
        self._watches: list[list[_Clause]] = [[], []]
        self._assigns: list[int] = [2]  # index 0 unused; 0/1 assigned, >=2 free
        self._level: list[int] = [0]
        self._reason: list[_Clause | None] = [None]
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
        self._order_heap: list[tuple[float, int]] = []
        # Cursor for zero-activity variables: the heap only tracks variables
        # that conflicts ever touched; the long tail of never-bumped
        # variables (e.g. the free c_g^i values of diagnosis instances) is
        # scanned linearly, which avoids millions of heap operations on
        # instances whose search is decision-heavy but conflict-light.
        self._scan_cursor = 1
        self._conflict_core: list[int] = []
        self._model: list[int] = []
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
        self._reason.append(None)
        self._activity.append(0.0)
        self._polarity.append(1)
        self._seen.append(0)
        self._watches.append([])
        self._watches.append([])
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

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause of DIMACS literals.

        Returns False when the solver becomes trivially UNSAT (empty clause,
        or a unit contradicting the root trail).  Clauses may be added
        between :meth:`solve` calls; the solver backtracks to level 0 first.
        Duplicate literals are merged; tautologies are dropped.
        """
        if not self._ok:
            return False
        self._cancel_until(0)
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
        simplified: list[int] = []
        for il in internal:
            val = self._assigns[il >> 1] ^ (il & 1)
            if val == 1:  # root-satisfied (trail is at level 0 here)
                return True
            if val == 0:
                continue  # root-false literal: drop
            simplified.append(il)
        if not simplified:
            self._ok = False
            self._log_learnt([])
            return False
        if len(simplified) == 1:
            if not self._enqueue(simplified[0], None):
                self._ok = False
                self._log_learnt([])
                return False
            self._ok = self._propagate() is None
            if not self._ok:
                self._log_learnt([])
            return self._ok
        clause = _Clause(simplified, learnt=False)
        self._clauses.append(clause)
        # watches[l] holds the clauses in which l is watched; propagation
        # visits watches[l] when l becomes false.
        self._watches[simplified[0]].append(clause)
        self._watches[simplified[1]].append(clause)
        return True

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> bool:
        ok = True
        for clause in clauses:
            ok = self.add_clause(clause) and ok
        return ok

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
        """
        from .proof import ProofLog  # local import to avoid a cycle

        self._proof = ProofLog()
        return self._proof

    def _log_learnt(self, internal_lits: list[int]) -> None:
        if self._proof is not None:
            self._proof.add([to_dimacs(l) for l in internal_lits])

    def _log_deleted(self, internal_lits: list[int]) -> None:
        if self._proof is not None:
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
        if ``conflict_limit`` conflicts were exceeded.  ``budget``
        (:class:`repro.sat.budget.Budget`) is polled at restart
        boundaries only — the oracle solver keeps its loop simple; use
        the arena backends where bounded overrun matters.
        """
        if not self._ok:
            self._conflict_core = []
            return False
        if budget is not None and budget.poll():
            return None
        self._cancel_until(0)
        if self._propagate() is not None:
            self._ok = False
            self._log_learnt([])
            return False
        internal_assumptions = [to_internal(a) for a in assumptions]
        for a in assumptions:
            self.ensure_vars(abs(a))
        self._conflict_core = []
        self._model = []
        start_conflicts = self.stats["conflicts"]
        charged_conflicts = start_conflicts
        restart_idx = 0
        while True:
            restart_idx += 1
            limit = 100 * _luby(restart_idx)
            status = self._search(limit, internal_assumptions)
            if status is not None:
                self._cancel_until(0)
                return status
            self.stats["restarts"] += 1
            if budget is not None:
                stop = budget.charge(
                    conflicts=self.stats["conflicts"] - charged_conflicts
                )
                charged_conflicts = self.stats["conflicts"]
                if stop:
                    self._cancel_until(0)
                    return None
            if (
                conflict_limit is not None
                and self.stats["conflicts"] - start_conflicts >= conflict_limit
            ):
                self._cancel_until(0)
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
        self, conflict_budget: int, assumptions: list[int]
    ) -> SolveResult:
        conflicts = 0
        while True:
            confl = self._propagate()
            if confl is not None:
                conflicts += 1
                self.stats["conflicts"] += 1
                if not self._trail_lim:
                    self._ok = False
                    self._log_learnt([])
                    return False
                learnt, back_level = self._analyze(confl)
                self._cancel_until(back_level)
                self._record_learnt(learnt)
                self._decay_activities()
                continue
            if conflicts >= conflict_budget:
                self._cancel_until(0)
                return None
            decision = 0
            level = len(self._trail_lim)
            if level < len(assumptions):
                lit = assumptions[level]
                val = self._assigns[lit >> 1] ^ (lit & 1)
                if val == 1:
                    self._trail_lim.append(len(self._trail))
                    continue
                if val == 0:
                    self._analyze_final(lit, assumptions)
                    return False
                decision = lit
            if not decision:
                decision = self._pick_branch()
                if not decision:
                    self._model = list(self._assigns)
                    return True
                self.stats["decisions"] += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(decision, None)

    def _propagate(self) -> _Clause | None:
        watches = self._watches
        assigns = self._assigns
        level = self._level
        reason = self._reason
        trail = self._trail
        props = 0
        confl: _Clause | None = None
        while self._qhead < len(trail):
            p = trail[self._qhead]
            self._qhead += 1
            props += 1
            false_lit = p ^ 1
            ws = watches[false_lit]
            i = j = 0
            n = len(ws)
            while i < n:
                clause = ws[i]
                i += 1
                lits = clause.lits
                if lits[0] == false_lit:
                    lits[0] = lits[1]
                    lits[1] = false_lit
                first = lits[0]
                if assigns[first >> 1] ^ (first & 1) == 1:
                    ws[j] = clause
                    j += 1
                    continue
                moved = False
                for k in range(2, len(lits)):
                    lk = lits[k]
                    if assigns[lk >> 1] ^ (lk & 1) != 0:
                        lits[1] = lk
                        lits[k] = false_lit
                        watches[lk].append(clause)
                        moved = True
                        break
                if moved:
                    continue
                ws[j] = clause
                j += 1
                if assigns[first >> 1] ^ (first & 1) == 0:
                    while i < n:  # keep remaining watchers before bailing
                        ws[j] = ws[i]
                        j += 1
                        i += 1
                    confl = clause
                    self._qhead = len(trail)
                else:
                    var = first >> 1
                    assigns[var] = 1 ^ (first & 1)
                    level[var] = len(self._trail_lim)
                    reason[var] = clause
                    trail.append(first)
            del ws[j:]
            if confl is not None:
                break
        self.stats["propagations"] += props
        return confl

    def _enqueue(self, lit: int, reason: _Clause | None) -> bool:
        var = lit >> 1
        current = self._assigns[var] ^ (lit & 1)
        if current < 2:
            return current == 1
        self._assigns[var] = 1 ^ (lit & 1)
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)
        return True

    def _analyze(self, confl: _Clause) -> tuple[list[int], int]:
        """First-UIP conflict analysis; returns (learnt clause, backjump level).

        Relies on the invariant that a reason clause always carries its
        implied literal at index 0 (maintained by ``_propagate`` and
        ``_record_learnt``).
        """
        seen = self._seen
        level = self._level
        trail = self._trail
        learnt: list[int] = [0]
        counter = 0
        p = -1
        index = len(trail) - 1
        cur_level = len(self._trail_lim)
        while True:
            if confl.learnt:
                self._bump_clause(confl)
            start = 0 if p == -1 else 1  # skip the implied literal of reasons
            for q in confl.lits[start:]:
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
            assert next_reason is not None, "UIP walk hit a decision too early"
            confl = next_reason
        learnt[0] = p ^ 1
        # Local minimization: drop a literal when its reason is covered by
        # the other marked literals (self-subsumption with the reason).
        keep = [learnt[0]]
        for q in learnt[1:]:
            reason = self._reason[q >> 1]
            if reason is None:
                keep.append(q)
                continue
            redundant = all(
                seen[r >> 1] == 1 or level[r >> 1] == 0
                for r in reason.lits[1:]
            )
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
        seen[var0] = 1
        for lit in reversed(self._trail):
            v = lit >> 1
            if not seen[v]:
                continue
            seen[v] = 0
            reason = self._reason[v]
            if reason is None:
                if self._level[v] > 0:
                    core.append(to_dimacs(lit))
            else:
                for q in reason.lits[1:]:
                    if self._level[q >> 1] > 0:
                        seen[q >> 1] = 1
        self._conflict_core = core

    def _record_learnt(self, learnt: list[int]) -> None:
        self.stats["learned"] += 1
        self._log_learnt(learnt)
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
            return
        clause = _Clause(learnt, learnt=True)
        clause.activity = self._cla_inc
        self._learnts.append(clause)
        self._watches[learnt[0]].append(clause)
        self._watches[learnt[1]].append(clause)
        self._enqueue(learnt[0], clause)
        if len(self._learnts) > max(2000, 2 * len(self._clauses)):
            self._reduce_learnts()

    def _reduce_learnts(self) -> None:
        """Drop the less active half of the learnt clauses (keep locked and
        binary ones)."""
        locked = {
            id(self._reason[lit >> 1])
            for lit in self._trail
            if self._reason[lit >> 1] is not None
        }
        self._learnts.sort(key=lambda c: c.activity)
        cut = len(self._learnts) // 2
        keep: list[_Clause] = []
        dropped: set[int] = set()
        for idx, clause in enumerate(self._learnts):
            if idx >= cut or id(clause) in locked or len(clause.lits) <= 2:
                keep.append(clause)
            else:
                dropped.add(id(clause))
        if not dropped:
            self._learnts = keep
            return
        self.stats["deleted"] += len(dropped)
        if self._proof is not None:
            for clause in self._learnts:
                if id(clause) in dropped:
                    self._log_deleted(clause.lits)
        for ws in self._watches:
            ws[:] = [c for c in ws if id(c) not in dropped]
        self._learnts = keep

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

    def _bump_clause(self, clause: _Clause) -> None:
        clause.activity += self._cla_inc
        if clause.activity > 1e20:
            for c in self._learnts:
                c.activity *= 1e-20
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
            reason[var] = None
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
