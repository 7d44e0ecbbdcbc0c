"""Greedy stochastic diagnosis search (Feldman/Provan/van Gemund, SAFARI).

*Approximate Model-Based Diagnosis Using Greedy Stochastic Search*
(PAPERS.md) trades completeness for speed: instead of enumerating every
correction the way BSAT does, SAFARI runs a number of randomized climbs.
Each climb starts from a trivially consistent candidate — here the whole
suspect pool, which can always realize the correct responses — and
repeatedly tries to *retract* a random gate, keeping the retraction
whenever the shrunk candidate is still consistent with every observation;
after ``patience`` consecutive failed retractions the climb stops and a
deterministic sweep trims the survivor to a subset-minimal candidate.

The search never re-simulates from scratch: all observations live as
uint64 lanes in one shared :class:`~repro.diagnosis.core.DiagnosisSession`
and every gate's *rectification word* (which observations one forced
value at the gate fixes) comes from a single fault-parallel sweep.  A
retraction is then a word-algebra question — does the remaining pool
still cover every observation? — tracked incrementally with per-
observation cover counts, exactly the "cheap candidate application per
test-lane" the vectorized substrate was built for.  Two bit masks over
the observations (covered at most once, covered by none) make the
check one AND of the gate's word, and a retraction costs O(popcount)
of that word: it walks only the word's set bits and drops the gate by
its drawn index, so a climb is no longer quadratic in the pool.  The
climb reads the session's seed only when it builds its first RNG.
Candidates whose
cover check fails may still be consistent through multi-gate effects;
``deep_check`` escalates those to the session's exact oracle
(:func:`~repro.diagnosis.validity.rect_word_by_forcing`): the
observations the cover words leave open are packed into one
bit-parallel pass over the fan-in cones of their outputs, with only the
candidate's gates inside those cones forced (SAT when more than
``validity._SIM_LIMIT`` of them are).

Before any climb the search reports its *singleton layer*, the gates
whose word is all-ones.  By the paper's single-error relation these are
exactly BSAT's size-1 corrections (what ``single-fix`` reports), so the
sampler is exact at size 1; on a pool with no singleton the climbs run,
and draw, exactly as without the layer.

Every reported candidate is verified consistent — valid corrections in
the sense of Definition 3 — but beyond size 1 the set of candidates is
a sample, not an enumeration, and minimality is with respect to the
checks performed (subset-minimal under ``deep_check``).
"""

from __future__ import annotations

import random
import time
import zlib
from typing import Sequence

from ..circuits.netlist import Circuit
from ..testgen.testset import TestSet
from .base import Correction, SolutionSetResult
from .core import ALL_SYSTEM_KINDS, DiagnosisSession, register_strategy

__all__ = ["greedy_stochastic_diagnose"]

#: Above this candidate size the exact consistency oracle is skipped
#: during minimization (the 2^|C| bit-parallel check would blow up and
#: the SAT fallback dominates the climb); the cover-word check alone is
#: still sound, only minimality may be coarser.
_DEEP_CHECK_LIMIT = 12


def _minimize(
    session: DiagnosisSession,
    words: dict[str, int],
    candidate: list[str],
    rng: random.Random,
    patience: int,
    deep_check: bool,
    budget=None,
) -> Correction | None:
    """One SAFARI climb: stochastic retraction, then deterministic trim.

    ``candidate`` must be consistent on entry (its cover words span all
    observations, or it was deep-checked) and hold no gate twice.
    Retractions keep the cover invariant: gate ``g`` may leave while
    every observation it covers is covered by another remaining gate;
    when the cover check blocks a retraction and the candidate is
    small, the exact oracle gets the final say.

    The cover check reads two bit masks over the observations (see
    :class:`_Cover`), so it is one AND of ``g``'s word; a retraction
    walks only the set bits of that word and removes ``g`` by its drawn
    index.  A retraction costs O(popcount of the word), not O(m) plus a
    search of the candidate list; the exact oracle, when consulted, is
    the one cost that grows with the candidate.

    ``budget`` is polled once per retraction attempt; a cancelled
    climb returns None (its partial candidate is consistent but not yet
    minimal, so it is discarded rather than reported).
    """
    cover = _Cover(words, candidate, session.m)
    current = list(candidate)
    misses = 0
    while misses < patience and len(current) > 1:
        if budget is not None and budget.poll():
            return None
        i = rng.randrange(len(current))
        word = words[current[i]]
        if cover.spares(word) or (
            deep_check
            and len(current) - 1 <= _DEEP_CHECK_LIMIT
            and session.consistent(current[:i] + current[i + 1 :])
        ):
            del current[i]
            cover.remove(word)
            misses = 0
        else:
            misses += 1
    # Deterministic trim to a subset-minimal candidate: one full pass in
    # random order; a second pass is never needed because retraction
    # opportunities only shrink as gates leave... except through exact
    # multi-gate effects, so loop until a full pass retracts nothing.
    # ``alive`` keeps the candidate's order with O(1) removal.
    alive = dict.fromkeys(current)
    changed = True
    while changed and len(alive) > 1:
        changed = False
        order = list(alive)
        rng.shuffle(order)
        for g in order:
            if len(alive) == 1:
                break
            if budget is not None and budget.poll():
                return None
            word = words[g]
            if cover.spares(word) or (
                deep_check
                and len(alive) - 1 <= _DEEP_CHECK_LIMIT
                and session.consistent([h for h in alive if h != g])
            ):
                del alive[g]
                cover.remove(word)
                changed = True
    return frozenset(alive)


class _Cover:
    """Per-observation cover counts of a candidate's words.

    ``low`` and ``zero`` are bit masks over the observations: bit ``j``
    is set iff observation ``j`` is covered by at most one member
    (``low``) or by none (``zero``).  Counts only fall, so the masks
    only gain bits.
    """

    __slots__ = ("counts", "low", "zero")

    def __init__(
        self, words: dict[str, int], candidate: list[str], m: int
    ) -> None:
        counts = [0] * m
        for g in candidate:
            w = words[g]
            while w:
                bit = w & -w
                counts[bit.bit_length() - 1] += 1
                w ^= bit
        self.counts = counts
        self.low = sum(1 << j for j, c in enumerate(counts) if c <= 1)
        self.zero = sum(1 << j for j, c in enumerate(counts) if not c)

    def spares(self, word: int) -> bool:
        """True iff a member with ``word`` can leave on the cover
        argument alone.  That argument is only sound while the *whole*
        candidate is cover-consistent (every observation covered by
        some member's own word); once consistency rests on a multi-gate
        effect (some count is 0), every retraction needs the exact
        oracle."""
        return not self.zero and not word & self.low

    def remove(self, word: int) -> None:
        """Take one member with ``word`` out of the counts."""
        counts = self.counts
        while word:
            bit = word & -word
            j = bit.bit_length() - 1
            count = counts[j] = counts[j] - 1
            if count <= 1:
                self.low |= bit
                if not count:
                    self.zero |= bit
            word ^= bit


def greedy_stochastic_diagnose(
    circuit: Circuit | None,
    tests: TestSet | None,
    k: int | None = None,
    retries: int = 16,
    patience: int = 6,
    seed: int | None = None,
    pool: Sequence[str] | None = None,
    max_solutions: int | None = None,
    deep_check: bool = True,
    session: DiagnosisSession | None = None,
    solver_backend: str | None = None,
    budget=None,
) -> SolutionSetResult:
    """SAFARI-style greedy stochastic search for valid corrections.

    Parameters
    ----------
    k:
        Keep only candidates with at most ``k`` gates (None: keep every
        minimal candidate found).
    retries:
        Number of independent randomized climbs.
    patience:
        Consecutive failed retractions before a climb settles.
    seed:
        Base RNG seed (None: the session's own ``seed``, so repeated
        calls on one session are reproducible without threading a seed
        through every caller).  Climb ``r`` draws from a stream derived
        from the seed, the retry index, and the system *kind*, so the
        same seed explores decorrelated orders on different system
        descriptions while circuit runs keep their historical streams.
    pool:
        Suspect pool (default: every functional gate).
    deep_check:
        Escalate blocked retractions of small candidates to the exact
        consistency oracle (catches multi-gate corrections the cover
        words cannot see).
    max_solutions:
        Climb until this many solutions are held (None: every climb).
        The singleton layer is reported whole, even past it.
    session:
        Reuse a prepared session (shared caches) instead of building one.
    budget:
        :class:`repro.sat.budget.Budget`, the cooperative stop signal
        (the serving ladder's deadline and cancel flag): polled once
        before the sweep (a run stopped there does no work), before
        each climb and once per retraction attempt inside a climb (the
        climbs are pure simulation — each retraction is one bounded
        cover-word update, so per-retraction polling bounds the
        overrun).  A cancelled run returns the minima found so far with
        ``extras["cancelled"]=True``; the interrupted climb's partial
        candidate is discarded, so every reported solution is still a
        verified subset-minimal correction.

    Returns a :class:`SolutionSetResult` (``approach="SAFARI"``); every
    solution is a verified valid correction.  ``complete`` is always
    False — beyond size 1 the search is a sample of the solution space
    by design.
    """
    start = time.perf_counter()
    if session is None:
        if circuit is None:
            raise ValueError(
                "greedy_stochastic_diagnose requires a circuit or an "
                "existing session"
            )
        session = DiagnosisSession(circuit, tests)
    if budget is not None and budget.poll():
        return SolutionSetResult(
            approach="SAFARI", k=k or 0, solutions=(), complete=False,
            extras={"cancelled": True},
        )
    # Per-kind stream offset: 0 for circuits (preserving the historical
    # seed -> climb mapping), a kind-hash otherwise, so gcnf/spectrum
    # sessions with the same numeric seed do not replay the circuit
    # retraction order.
    kind_offset = (
        0 if session.kind == "circuit"
        else zlib.crc32(session.kind.encode("ascii"))
    )
    space = session.space(pool)
    words = space.singleton_rect_words()
    t_build = time.perf_counter() - start

    search_start = time.perf_counter()
    t_first: float | None = None
    solutions: list[Correction] = []
    seen: set[Correction] = set()
    full = list(space.pool)
    cover = 0
    for g in full:
        cover |= words[g]
    pool_consistent = cover == session.all_mask or session.consistent(full)
    climbs = 0
    cancelled = False
    if space.nothing_fails():
        # Nothing fails: the empty correction is the only subset-minimal
        # one, and a climb never retracts its last gate.
        solutions.append(frozenset())
        t_first = 0.0
    elif pool_consistent:
        # The singleton layer, one complete answer at size 1, is
        # reported whole; ``seen`` keeps the climbs from repeating it.
        layer = [frozenset((g,)) for g in space.singletons()]
        seen.update(layer)
        if layer and (k is None or k >= 1):
            solutions.extend(layer)
            t_first = time.perf_counter() - search_start
        for r in range(retries):
            if max_solutions is not None and len(solutions) >= max_solutions:
                break
            if budget is not None and budget.poll():
                cancelled = True
                break
            if seed is None:
                # Read only when a climb draws: the session may resolve
                # its seed on this first read (see DiagnosisSession.seed).
                seed = session.seed
            rng = random.Random(seed * 1_000_003 + kind_offset + r)
            minimal = _minimize(
                session, words, list(full), rng, patience, deep_check,
                budget=budget,
            )
            if minimal is None:
                cancelled = True
                break
            climbs += 1
            if minimal in seen:
                continue
            seen.add(minimal)
            if k is not None and len(minimal) > k:
                continue
            solutions.append(minimal)
            if t_first is None:
                t_first = time.perf_counter() - search_start
    t_all = time.perf_counter() - search_start
    solutions.sort(key=lambda s: (len(s), sorted(s)))
    return SolutionSetResult(
        approach="SAFARI",
        k=k if k is not None else max((len(s) for s in solutions), default=0),
        solutions=tuple(solutions),
        complete=False,
        t_build=t_build,
        t_first=t_first if t_first is not None else t_all,
        t_all=t_all,
        extras={
            "pool_size": len(space),
            "climbs": climbs,
            "pool_consistent": pool_consistent,
            "distinct_minima": len(seen),
            **({"cancelled": True} if cancelled else {}),
        },
    )


@register_strategy(
    "greedy-stochastic",
    "SAFARI climbs: retract-at-random over cover words, verified valid",
    kinds=ALL_SYSTEM_KINDS,
)
def _greedy_strategy(
    session: DiagnosisSession, k: int | None = None, **options
) -> SolutionSetResult:
    return greedy_stochastic_diagnose(
        session.circuit, session.tests, k, session=session, **options
    )
