"""Compiled CDCL backend: the arena hot loop as numba-jitted kernels.

:class:`repro.sat.solver.Solver` drove the interpreted CDCL loop to its
floor (flat int arena, implicit binary watches, trail reuse); the next
order of magnitude is leaving the interpreter.  This module ports the
``_search``/BCP/analyze hot loop to *kernel* functions over flat numpy
``int32``/``int8``/``float64`` arrays — watch lists as linked lists in
parallel arrays, the trail and reasons as flat vectors, VSIDS as an
indexed binary max-heap — written in the numba-compatible subset of
Python.  When numba is importable the kernels are ``@njit``-compiled
(``cache=True``, so the compilation cost is paid once per machine);
when it is not, the *same* functions run interpreted, which keeps the
backend differential-testable on minimal installs even though it is
only registered (as ``arena-jit``) when numba is present.

Design points, relative to the interpreted arena solver:

* **One-shot kernel per solve.**  Each :meth:`CompiledSolver.solve`
  hands the whole clause database (persistent, amortized numpy
  buffers) to one kernel call that runs the complete search.  There is
  no cross-call trail reuse — rebuilding watches is a linear scan that
  the compiled loop amortizes in microseconds, and it keeps the kernel
  free of persistent heap-allocated state numba cannot hold.
* **Same answer surface.**  ``solve(assumptions=, conflict_limit=)``
  returns True/False/None with model / failed-assumption core exactly
  like the native solvers; assumption handling mirrors the arena
  solver's ``_analyze_final`` trail walk, so cores are comparable.
* **No learnt-clause deletion.**  The kernel keeps every learnt clause
  (``stats["deleted"]`` stays 0): the diagnosis workloads are many
  short queries, where deletion bookkeeping costs more than the
  clauses it trims.  Restarts follow the same ``100 * luby`` schedule
  as the arena solver.
* **Per-process warm-up.**  :func:`warm_up` runs two tiny solves (SAT
  and assumption-UNSAT) through every kernel path so JIT compilation
  never lands inside a measured query; the backend factory calls it on
  first instantiation.

``python -m repro backends`` reports the backend as unavailable (with
the numba import error) instead of raising, and
``resolve_backend("arena-jit")`` degrades to ``arena`` so portfolio
configurations stay runnable everywhere (see
:mod:`repro.sat.backends`).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "NUMBA_AVAILABLE",
    "NUMBA_IMPORT_ERROR",
    "CompiledSolver",
    "warm_up",
]

try:  # pragma: no cover - exercised only where numba is installed
    import numba

    NUMBA_AVAILABLE = True
    NUMBA_IMPORT_ERROR: str | None = None
except ImportError as exc:  # minimal installs: interpreted kernels
    numba = None
    NUMBA_AVAILABLE = False
    NUMBA_IMPORT_ERROR = str(exc)


def _jit(fn):
    """``numba.njit`` when available, identity otherwise.

    The kernels below are written in the numba-compatible subset, so
    the exact same code runs interpreted on minimal installs (slow but
    bit-identical — the differential tests rely on this).
    """
    if numba is not None:  # pragma: no cover - numba-only path
        return numba.njit(cache=True)(fn)
    return fn


# ----------------------------------------------------------------------
# VSIDS indexed max-heap (flat arrays; module-level so numba can inline)
# ----------------------------------------------------------------------
@_jit
def _heap_up(heap, pos, act, i):
    v = heap[i]
    a = act[v]
    while i > 0:
        p = (i - 1) >> 1
        pv = heap[p]
        if act[pv] >= a:
            break
        heap[i] = pv
        pos[pv] = i
        i = p
    heap[i] = v
    pos[v] = i


@_jit
def _heap_down(heap, pos, act, size, i):
    v = heap[i]
    a = act[v]
    while True:
        left = 2 * i + 1
        if left >= size:
            break
        best = left
        right = left + 1
        if right < size and act[heap[right]] > act[heap[left]]:
            best = right
        bv = heap[best]
        if a >= act[bv]:
            break
        heap[i] = bv
        pos[bv] = i
        i = best
    heap[i] = v
    pos[v] = i


@_jit
def _heap_insert(heap, pos, act, size, v):
    if pos[v] >= 0:
        return size
    heap[size] = v
    pos[v] = size
    _heap_up(heap, pos, act, size)
    return size + 1


@_jit
def _heap_pop(heap, pos, act, size):
    v = heap[0]
    pos[v] = -1
    size -= 1
    if size > 0:
        last = heap[size]
        heap[0] = last
        pos[last] = 0
        _heap_down(heap, pos, act, size, 0)
    return v, size


@_jit
def _luby(i):
    """Luby restart sequence (1-based): 1 1 2 1 1 2 4 1 ..."""
    while True:
        k = 0
        j = i
        while j:
            k += 1
            j >>= 1
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


@_jit
def _grow_i32(buf, need):
    if need <= buf.shape[0]:
        return buf
    cap = buf.shape[0]
    while cap < need:
        cap *= 2
    new = np.empty(cap, np.int32)
    new[: buf.shape[0]] = buf
    return new


# ----------------------------------------------------------------------
# the solve kernel
# ----------------------------------------------------------------------
_SAT = 1
_UNSAT = 0
_UNKNOWN = 2


@_jit
def _solve_kernel(
    n_vars,
    lits0,
    starts0,
    sizes0,
    n_clauses,
    assumps,
    conflict_limit,
    budget_conflicts,
    activity,
    polarity,
    model_out,
    stats_out,
):
    """Run one CDCL search; returns ``(status, core, llits, lsizes, units)``.

    Internal literal encoding ``il = (var << 1) | sign`` (sign 1 =
    negative); clause ``c`` occupies ``lits[starts[c] : starts[c] +
    sizes[c]]`` with the two watched literals at positions 0 and 1 and
    — for reason clauses — the implied literal at position 0 (the
    arena solver's invariant, which the core/analyze walks rely on).
    ``activity``/``polarity`` are views of the wrapper's persistent
    arrays, so VSIDS seeds and saved phases survive across calls.

    ``budget_conflicts >= 0`` turns the call into one *chunk* of a
    budgeted search: the kernel returns ``_UNKNOWN`` after exactly that
    many conflicts (checked per conflict, unlike ``conflict_limit``'s
    restart-boundary check), handing back the clauses it learnt
    (``llits`` flat, ``lsizes`` per clause) and its root-level implied
    literals (``units``) so the wrapper can poll Python-side stop
    conditions and re-enter without losing search progress — learnt
    clauses are implied, so re-feeding them as problem clauses is
    sound.  The extra arrays are empty on every other return path.
    """
    empty = np.empty(0, np.int32)
    core = empty
    n_clauses_in = n_clauses
    # --- growable clause store (learnts append at the end) -----------
    cap_l = max(2 * lits0.shape[0], 64)
    lits = np.empty(cap_l, np.int32)
    lits[: lits0.shape[0]] = lits0
    n_lits = lits0.shape[0]
    cap_c = max(2 * n_clauses, 64)
    starts = np.empty(cap_c, np.int32)
    starts[:n_clauses] = starts0[:n_clauses]
    sizes = np.empty(cap_c, np.int32)
    sizes[:n_clauses] = sizes0[:n_clauses]

    # --- assignment state --------------------------------------------
    assigns = np.full(n_vars + 1, 2, np.int8)  # 0 false / 1 true / 2 unset
    level = np.zeros(n_vars + 1, np.int32)
    reason = np.full(n_vars + 1, -1, np.int32)
    seen = np.zeros(n_vars + 1, np.int8)
    trail = np.empty(n_vars + 1, np.int32)
    trail_len = 0
    trail_lim = np.empty(n_vars + 2, np.int32)
    n_levels = 0
    qhead = 0

    # --- watch lists: two linked-list nodes per clause (ids 2c, 2c+1)
    head = np.full(2 * n_vars + 2, -1, np.int32)
    w_next = np.empty(2 * cap_c, np.int32)
    w_blocker = np.empty(2 * cap_c, np.int32)

    # --- VSIDS heap ---------------------------------------------------
    heap = np.empty(n_vars + 1, np.int32)
    heap_pos = np.full(n_vars + 1, -1, np.int32)
    heap_size = 0
    for v in range(1, n_vars + 1):
        heap_size = _heap_insert(heap, heap_pos, activity, heap_size, v)
    var_inc = 1.0

    # --- scratch for conflict analysis --------------------------------
    lbuf = np.empty(n_vars + 2, np.int32)  # learnt under construction
    lvars = np.empty(n_vars + 2, np.int32)  # vars to clear from `seen`

    # attach watches + collect root units
    for c in range(n_clauses):
        s = starts[c]
        sz = sizes[c]
        if sz >= 2:
            a = lits[s]
            b = lits[s + 1]
            w_next[2 * c] = head[a]
            head[a] = 2 * c
            w_blocker[2 * c] = b
            w_next[2 * c + 1] = head[b]
            head[b] = 2 * c + 1
            w_blocker[2 * c + 1] = a
    for c in range(n_clauses):
        if sizes[c] != 1:
            continue
        il = lits[starts[c]]
        v = il >> 1
        val = assigns[v] ^ (il & 1)
        if val == 0:  # contradicting root units: formula UNSAT
            return _UNSAT, core, empty, empty, empty
        if val != 1:
            assigns[v] = (il & 1) ^ 1
            level[v] = 0
            reason[v] = c
            trail[trail_len] = il
            trail_len += 1

    n_assumps = assumps.shape[0]
    restart_idx = 0
    conflicts_since_restart = 0
    restart_limit = 100
    total_conflicts = 0

    while True:
        # ---------------- propagation --------------------------------
        conflict = -1
        while qhead < trail_len:
            p = trail[qhead]
            qhead += 1
            stats_out[2] += 1  # propagations
            fl = p ^ 1
            prev = -1
            w = head[fl]
            while w != -1:
                nxt = w_next[w]
                blk = w_blocker[w]
                if (assigns[blk >> 1] ^ (blk & 1)) == 1:
                    prev = w
                    w = nxt
                    continue
                c = w >> 1
                s = starts[c]
                if lits[s] == fl:
                    lits[s] = lits[s + 1]
                    lits[s + 1] = fl
                first = lits[s]
                if (
                    first != blk
                    and (assigns[first >> 1] ^ (first & 1)) == 1
                ):
                    w_blocker[w] = first
                    prev = w
                    w = nxt
                    continue
                sz = sizes[c]
                found = -1
                for k in range(s + 2, s + sz):
                    q = lits[k]
                    if (assigns[q >> 1] ^ (q & 1)) != 0:  # not false
                        found = k
                        break
                if found >= 0:
                    nl = lits[found]
                    lits[found] = fl
                    lits[s + 1] = nl
                    if prev == -1:
                        head[fl] = nxt
                    else:
                        w_next[prev] = nxt
                    w_next[w] = head[nl]
                    head[nl] = w
                    w_blocker[w] = first
                    w = nxt
                    continue
                w_blocker[w] = first
                if (assigns[first >> 1] ^ (first & 1)) == 0:  # conflict
                    conflict = c
                    qhead = trail_len
                    break
                # unit: imply `first` with reason c
                fv = first >> 1
                assigns[fv] = (first & 1) ^ 1
                level[fv] = n_levels
                reason[fv] = c
                trail[trail_len] = first
                trail_len += 1
                prev = w
                w = nxt
            if conflict >= 0:
                break

        if conflict >= 0:
            # ---------------- conflict analysis ----------------------
            total_conflicts += 1
            conflicts_since_restart += 1
            stats_out[0] += 1
            if n_levels == 0:
                return _UNSAT, core, empty, empty, empty
            # first-UIP resolution
            n_learnt = 1  # slot 0 reserved for the asserting literal
            n_seen = 0
            count = 0
            p = -1
            idx = trail_len - 1
            c = conflict
            while True:
                s = starts[c]
                sz = sizes[c]
                k0 = s if p == -1 else s + 1
                for k in range(k0, s + sz):
                    q = lits[k]
                    qv = q >> 1
                    if seen[qv] == 0 and level[qv] > 0:
                        seen[qv] = 1
                        lvars[n_seen] = qv
                        n_seen += 1
                        activity[qv] += var_inc
                        if activity[qv] > 1e100:
                            for vv in range(1, n_vars + 1):
                                activity[vv] *= 1e-100
                            var_inc *= 1e-100
                        if heap_pos[qv] >= 0:
                            _heap_up(heap, heap_pos, activity, heap_pos[qv])
                        if level[qv] >= n_levels:
                            count += 1
                        else:
                            lbuf[n_learnt] = q
                            n_learnt += 1
                while seen[trail[idx] >> 1] == 0:
                    idx -= 1
                p = trail[idx]
                c = reason[p >> 1]
                seen[p >> 1] = 0
                count -= 1
                idx -= 1
                if count == 0:
                    break
            lbuf[0] = p ^ 1
            # local minimization: drop literals covered by their reason
            j = 1
            for i in range(1, n_learnt):
                l = lbuf[i]
                r = reason[l >> 1]
                redundant = r >= 0
                if redundant:
                    rs = starts[r]
                    for k in range(rs + 1, rs + sizes[r]):
                        qv = lits[k] >> 1
                        if level[qv] > 0 and seen[qv] == 0:
                            redundant = False
                            break
                if not redundant:
                    lbuf[j] = l
                    j += 1
            n_learnt = j
            for i in range(n_seen):
                seen[lvars[i]] = 0
            # backjump level = second-highest decision level
            if n_learnt == 1:
                bj = 0
            else:
                mi = 1
                for i in range(2, n_learnt):
                    if level[lbuf[i] >> 1] > level[lbuf[mi] >> 1]:
                        mi = i
                tmp = lbuf[1]
                lbuf[1] = lbuf[mi]
                lbuf[mi] = tmp
                bj = level[lbuf[1] >> 1]
            # backtrack
            lim = trail_lim[bj]
            for i in range(trail_len - 1, lim - 1, -1):
                il = trail[i]
                v = il >> 1
                polarity[v] = il & 1
                assigns[v] = 2
                heap_size = _heap_insert(
                    heap, heap_pos, activity, heap_size, v
                )
            trail_len = lim
            qhead = lim
            n_levels = bj
            # record the learnt clause + assert its first literal
            stats_out[4] += 1
            al = lbuf[0]
            av = al >> 1
            if n_learnt == 1:
                assigns[av] = (al & 1) ^ 1
                level[av] = 0
                reason[av] = -1
                trail[trail_len] = al
                trail_len += 1
            else:
                lits = _grow_i32(lits, n_lits + n_learnt)
                if n_clauses + 1 > cap_c:
                    cap_c *= 2
                    ns = np.empty(cap_c, np.int32)
                    ns[:n_clauses] = starts[:n_clauses]
                    starts = ns
                    nz = np.empty(cap_c, np.int32)
                    nz[:n_clauses] = sizes[:n_clauses]
                    sizes = nz
                    nw = np.empty(2 * cap_c, np.int32)
                    nw[: 2 * n_clauses] = w_next[: 2 * n_clauses]
                    w_next = nw
                    nb = np.empty(2 * cap_c, np.int32)
                    nb[: 2 * n_clauses] = w_blocker[: 2 * n_clauses]
                    w_blocker = nb
                c_new = n_clauses
                n_clauses += 1
                starts[c_new] = n_lits
                sizes[c_new] = n_learnt
                for i in range(n_learnt):
                    lits[n_lits + i] = lbuf[i]
                n_lits += n_learnt
                a = lits[starts[c_new]]
                b = lits[starts[c_new] + 1]
                w_next[2 * c_new] = head[a]
                head[a] = 2 * c_new
                w_blocker[2 * c_new] = b
                w_next[2 * c_new + 1] = head[b]
                head[b] = 2 * c_new + 1
                w_blocker[2 * c_new + 1] = a
                assigns[av] = (al & 1) ^ 1
                level[av] = n_levels
                reason[av] = c_new
                trail[trail_len] = al
                trail_len += 1
            var_inc /= 0.95
            # restart / budget checks.  The chunk budget is per-conflict
            # (bounded-overrun re-entry point); conflict_limit keeps its
            # historical restart-boundary granularity.
            chunk_done = (
                budget_conflicts >= 0
                and total_conflicts >= budget_conflicts
            )
            if chunk_done or conflicts_since_restart >= restart_limit:
                if not chunk_done:
                    stats_out[3] += 1
                lim0 = trail_lim[0] if n_levels > 0 else trail_len
                if n_levels > 0:
                    for i in range(trail_len - 1, lim0 - 1, -1):
                        il = trail[i]
                        v = il >> 1
                        polarity[v] = il & 1
                        assigns[v] = 2
                        heap_size = _heap_insert(
                            heap, heap_pos, activity, heap_size, v
                        )
                    trail_len = lim0
                    qhead = lim0
                    n_levels = 0
                if chunk_done:
                    # Package search progress for kernel re-entry: the
                    # learnt clauses appended past the input DB and the
                    # root-level implied literals (as future units).
                    n_new = n_clauses - n_clauses_in
                    lsizes = np.empty(n_new, np.int32)
                    total = 0
                    for i in range(n_new):
                        lsizes[i] = sizes[n_clauses_in + i]
                        total += lsizes[i]
                    llits = np.empty(total, np.int32)
                    pos = 0
                    for i in range(n_new):
                        s = starts[n_clauses_in + i]
                        for k in range(s, s + lsizes[i]):
                            llits[pos] = lits[k]
                            pos += 1
                    units = trail[:trail_len].copy()
                    return _UNKNOWN, core, llits, lsizes, units
                if conflict_limit >= 0 and total_conflicts >= conflict_limit:
                    return _UNKNOWN, core, empty, empty, empty
                restart_idx += 1
                conflicts_since_restart = 0
                restart_limit = 100 * _luby(restart_idx + 1)
            continue

        # ---------------- decide (assumptions first) -----------------
        if n_levels < n_assumps:
            p = assumps[n_levels]
            val = assigns[p >> 1] ^ (p & 1)
            if val == 1:  # already satisfied: empty positional level
                trail_lim[n_levels] = trail_len
                n_levels += 1
                continue
            if val == 0:  # failed assumption -> core via trail walk
                ncore = 1
                cbuf = np.empty(n_assumps + 1, np.int32)
                cbuf[0] = -(p >> 1) if p & 1 else (p >> 1)
                if level[p >> 1] > 0:
                    seen[p >> 1] = 1
                    pending = 1
                    for i in range(trail_len - 1, -1, -1):
                        il = trail[i]
                        v = il >> 1
                        if seen[v] == 0:
                            continue
                        seen[v] = 0
                        pending -= 1
                        r = reason[v]
                        if r < 0:
                            if level[v] > 0:
                                cbuf[ncore] = (
                                    -(il >> 1) if il & 1 else (il >> 1)
                                )
                                ncore += 1
                        else:
                            rs = starts[r]
                            for k in range(rs + 1, rs + sizes[r]):
                                q = lits[k]
                                qv = q >> 1
                                if level[qv] > 0 and seen[qv] == 0:
                                    seen[qv] = 1
                                    pending += 1
                        if pending == 0:
                            break
                return _UNSAT, cbuf[:ncore].copy(), empty, empty, empty
            trail_lim[n_levels] = trail_len
            n_levels += 1
            pv = p >> 1
            assigns[pv] = (p & 1) ^ 1
            level[pv] = n_levels
            reason[pv] = -1
            trail[trail_len] = p
            trail_len += 1
            continue

        # ---------------- decide (VSIDS) -----------------------------
        dv = 0
        while heap_size > 0:
            cand, heap_size = _heap_pop(heap, heap_pos, activity, heap_size)
            if assigns[cand] == 2:
                dv = cand
                break
        if dv == 0:
            for v in range(1, n_vars + 1):
                model_out[v] = assigns[v]
            return _SAT, core, empty, empty, empty
        stats_out[1] += 1  # decisions
        trail_lim[n_levels] = trail_len
        n_levels += 1
        il = (dv << 1) | polarity[dv]
        assigns[dv] = (il & 1) ^ 1
        level[dv] = n_levels
        reason[dv] = -1
        trail[trail_len] = il
        trail_len += 1


# ----------------------------------------------------------------------
# the Solver-surface wrapper
# ----------------------------------------------------------------------
class CompiledSolver:
    """The repo's ``Solver`` surface over the compiled CDCL kernel.

    Clauses accumulate in persistent capacity-doubling numpy buffers;
    each :meth:`solve` is one kernel call over the whole database.
    VSIDS seeds (:meth:`bump_activity`) and phase presets
    (:meth:`set_phase`) persist across calls like the native solvers'.
    ``add_clause`` returns False only once the formula is trivially
    UNSAT (empty clause); root-level unit contradictions surface at the
    next :meth:`solve` (compare *solve outcomes* across backends, not
    ``add_clause`` flags).
    """

    def __init__(self) -> None:
        self._num_vars = 0
        self._ok = True
        self._lit_buf = np.empty(1024, np.int32)
        self._n_lits = 0
        self._starts = np.empty(256, np.int32)
        self._sizes = np.empty(256, np.int32)
        self._n_clauses = 0
        self._activity = np.zeros(64, np.float64)
        self._polarity = np.ones(64, np.int8)
        self._has_model = False
        self._model_buf: np.ndarray | None = None
        self._core: list[int] = []
        self.stats: dict[str, int] = {
            "conflicts": 0,
            "decisions": 0,
            "propagations": 0,
            "restarts": 0,
            "learned": 0,
            "deleted": 0,
        }

    # -- variables -----------------------------------------------------
    def new_var(self) -> int:
        self._num_vars += 1
        self._grow_vars(self._num_vars)
        return self._num_vars

    def ensure_vars(self, n: int) -> None:
        if n > self._num_vars:
            self._num_vars = n
            self._grow_vars(n)

    def _grow_vars(self, n: int) -> None:
        if n + 1 > self._activity.shape[0]:
            cap = self._activity.shape[0]
            while cap < n + 1:
                cap *= 2
            act = np.zeros(cap, np.float64)
            act[: self._activity.shape[0]] = self._activity
            self._activity = act
            pol = np.ones(cap, np.int8)
            pol[: self._polarity.shape[0]] = self._polarity
            self._polarity = pol

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        return self._n_clauses

    # -- clauses -------------------------------------------------------
    def _push_clause(self, clause: Sequence[int]) -> None:
        n = len(clause)
        need = self._n_lits + n
        if need > self._lit_buf.shape[0]:
            cap = self._lit_buf.shape[0]
            while cap < need:
                cap *= 2
            buf = np.empty(cap, np.int32)
            buf[: self._n_lits] = self._lit_buf[: self._n_lits]
            self._lit_buf = buf
        if self._n_clauses + 1 > self._starts.shape[0]:
            cap = 2 * self._starts.shape[0]
            st = np.empty(cap, np.int32)
            st[: self._n_clauses] = self._starts[: self._n_clauses]
            self._starts = st
            sz = np.empty(cap, np.int32)
            sz[: self._n_clauses] = self._sizes[: self._n_clauses]
            self._sizes = sz
        base = self._n_lits
        for i, lit in enumerate(clause):
            v = abs(lit)
            self._lit_buf[base + i] = (v << 1) | (lit < 0)
        self._starts[self._n_clauses] = base
        self._sizes[self._n_clauses] = n
        self._n_clauses += 1
        self._n_lits = base + n

    def add_clause(self, lits: Iterable[int]) -> bool:
        clause: list[int] = []
        seen: set[int] = set()
        for raw in lits:
            lit = int(raw)
            if -lit in seen:
                return self._ok  # tautology: drop silently
            if lit not in seen:
                seen.add(lit)
                clause.append(lit)
                self.ensure_vars(abs(lit))
        if not clause:
            self._ok = False
            return False
        self._push_clause(clause)
        return self._ok

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> bool:
        ok = True
        for clause in clauses:
            ok = self.add_clause(clause) and ok
        return ok

    def load_clauses(self, clauses: Iterable[Sequence[int]]) -> bool:
        """Bulk-load without normalization (the ``CNF.to_solver`` fast
        path); the watch scheme tolerates duplicate literals and
        tautologies, exactly like the arena solver's bulk loader."""
        for clause in clauses:
            if not clause:
                self._ok = False
                continue
            for lit in clause:
                self.ensure_vars(abs(lit))
            self._push_clause(clause)
        return self._ok

    # -- heuristic hooks ----------------------------------------------
    def bump_activity(self, var: int, amount: float = 1.0) -> None:
        self.ensure_vars(var)
        self._activity[var] += amount

    def set_phase(self, var: int, value: bool) -> None:
        self.ensure_vars(var)
        self._polarity[var] = 0 if value else 1

    # -- solving -------------------------------------------------------
    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_limit: int | None = None,
        budget=None,
    ) -> bool | None:
        """One-shot kernel call — or, with ``budget``, *chunked kernel
        re-entry*: the jitted loop runs at most
        ``budget.conflict_poll_interval`` conflicts per call, returns
        its learnt clauses and root-level units to Python, the budget
        is polled, and the kernel re-enters with the carried-over
        clauses (sound: learnt clauses are implied).  Cancellation
        overrun is therefore bounded by the poll interval even though
        the compiled loop itself never calls back into Python.
        """
        self._has_model = False
        self._core = []
        if not self._ok:
            return False
        if budget is not None and budget.poll():
            return None
        for a in assumptions:
            self.ensure_vars(abs(a))
        assumps = np.array(
            [(abs(a) << 1) | (a < 0) for a in assumptions], np.int32
        )
        n = self._num_vars
        model_out = np.full(n + 1, 2, np.int8)
        # Chunk-local clause store: starts as views of the persistent
        # buffers; learnt carry-over grows copies local to this solve so
        # the persistent DB stays exactly the problem clauses.
        lits = self._lit_buf[: self._n_lits]
        starts = self._starts
        sizes = self._sizes
        n_clauses = self._n_clauses
        n_lits = self._n_lits
        seen_units: set[int] = set()
        total_conflicts = 0
        while True:
            if budget is None:
                chunk = -1
                limit = -1 if conflict_limit is None else conflict_limit
            else:
                chunk = budget.conflict_poll_interval
                # the wrapper enforces conflict_limit cumulatively
                limit = -1
            stats_out = np.zeros(6, np.int64)
            status, core, llits, lsizes, units = _solve_kernel(
                n,
                lits[:n_lits],
                starts,
                sizes,
                n_clauses,
                assumps,
                limit,
                chunk,
                self._activity[: n + 1],
                self._polarity[: n + 1],
                model_out,
                stats_out,
            )
            for i, key in enumerate(
                (
                    "conflicts",
                    "decisions",
                    "propagations",
                    "restarts",
                    "learned",
                )
            ):
                self.stats[key] += int(stats_out[i])
            total_conflicts += int(stats_out[0])
            tripped = budget is not None and budget.charge(
                int(stats_out[0]), int(stats_out[2])
            )
            if status == _SAT:
                self._has_model = True
                self._model_buf = model_out
                return True
            if status == _UNSAT:
                self._core = [int(x) for x in core]
                return False
            if budget is None:
                return None  # conflict_limit hit inside the kernel
            if tripped:
                return None
            if (
                conflict_limit is not None
                and total_conflicts >= conflict_limit
            ):
                return None
            # fold the chunk's progress into the local DB and re-enter
            new_units = [u for u in units.tolist() if u not in seen_units]
            seen_units.update(new_units)
            n_new = lsizes.shape[0] + len(new_units)
            if n_new:
                grown = np.concatenate(
                    [
                        lits[:n_lits],
                        llits,
                        np.array(new_units, np.int32),
                    ]
                )
                new_starts = np.empty(n_clauses + n_new, np.int32)
                new_sizes = np.empty(n_clauses + n_new, np.int32)
                new_starts[:n_clauses] = starts[:n_clauses]
                new_sizes[:n_clauses] = sizes[:n_clauses]
                pos = n_lits
                idx = n_clauses
                for i in range(lsizes.shape[0]):
                    new_starts[idx] = pos
                    new_sizes[idx] = int(lsizes[i])
                    pos += int(lsizes[i])
                    idx += 1
                for _ in new_units:
                    new_starts[idx] = pos
                    new_sizes[idx] = 1
                    pos += 1
                    idx += 1
                lits = grown
                starts = new_starts
                sizes = new_sizes
                n_lits = pos
                n_clauses = idx

    def value(self, var: int) -> bool | None:
        if not self._has_model:
            raise RuntimeError("no model: last solve() did not return True")
        v = self._model_buf[var]
        return None if v >= 2 else bool(v)

    def model(self) -> list[int]:
        if not self._has_model:
            raise RuntimeError("no model: last solve() did not return True")
        buf = self._model_buf
        return [
            (v if buf[v] == 1 else -v)
            for v in range(1, self._num_vars + 1)
            if buf[v] < 2
        ]

    def core(self) -> list[int]:
        return list(self._core)

    def start_proof(self):
        raise NotImplementedError(
            "DRAT logging is only available on the native backends"
        )


_WARMED = False


def warm_up() -> None:
    """Compile (or pre-touch) every kernel path once per process.

    Runs a tiny SAT query, an assumption-UNSAT query and a
    conflict-limited query so numba's JIT compilation — tens of seconds
    on first use, milliseconds from cache — never lands inside a
    measured solve.  Idempotent and cheap when already warm.
    """
    global _WARMED
    if _WARMED:
        return
    from .budget import Budget

    s = CompiledSolver()
    s.add_clauses([[1, 2], [-1, 2], [1, -2], [2, 3]])
    assert s.solve() is True
    assert s.solve(assumptions=[-2]) is False and s.core() == [-2]
    s.solve(assumptions=[1, 3], conflict_limit=0)
    # chunked re-entry path (budgeted solve): learn-and-carry return
    s2 = CompiledSolver()
    s2.add_clauses(
        [[1, 2], [-1, 2], [1, -2], [-2, 3], [-2, -3], [2, 3], [3, 1]]
    )
    s2.solve(budget=Budget(conflict_poll_interval=1))
    _WARMED = True
