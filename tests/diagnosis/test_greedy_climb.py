"""The greedy climb against its list-based reference.

:func:`repro.diagnosis.greedy._minimize` keeps the candidate's cover
counts as two bit masks over the observations and retracts a gate by
its drawn index.  :func:`list_minimize` below is the climb it replaced,
kept here as the oracle: per-observation counts scanned over all ``m``
bits, ``list.remove`` and ``g in current``.  The two must draw the same
random numbers, ask the exact oracle the same questions in the same
order and settle on the same minimum.  The slow test pins greedy's
solution tuples on the no-singleton pool devices the serving tests use.
"""

import random
import zlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.circuits import library
from repro.diagnosis import DiagnosisSession, diagnose
from repro.diagnosis import greedy
from repro.diagnosis.greedy import _DEEP_CHECK_LIMIT

from tests.serve._devices import make_device


def list_minimize(session, words, candidate, rng, patience, deep_check):
    """Reference climb: the list-based bookkeeping, every draw the same."""
    counts = [0] * session.m
    for g in candidate:
        w = words[g]
        for j in range(session.m):
            if (w >> j) & 1:
                counts[j] += 1
    current = list(candidate)

    def can_retract(gate):
        if all(counts):
            w = words[gate]
            if all(counts[j] > 1 for j in range(session.m) if (w >> j) & 1):
                return True
        if deep_check and len(current) - 1 <= _DEEP_CHECK_LIMIT:
            return session.consistent([g for g in current if g != gate])
        return False

    def retract(gate):
        current.remove(gate)
        w = words[gate]
        for j in range(len(counts)):
            if (w >> j) & 1:
                counts[j] -= 1

    misses = 0
    while misses < patience and len(current) > 1:
        g = current[rng.randrange(len(current))]
        if can_retract(g):
            retract(g)
            misses = 0
        else:
            misses += 1
    changed = True
    while changed and len(current) > 1:
        changed = False
        order = list(current)
        rng.shuffle(order)
        for g in order:
            if len(current) == 1:
                break
            if g in current and can_retract(g):
                retract(g)
                changed = True
    return frozenset(current)


class RecordingOracle:
    """Stands in for a session: ``m`` observations and an exact oracle
    that records every candidate it is asked about.  Its answer is a
    fixed function of the candidate: consistent when the candidate's
    words cover every observation, or when a CRC of its sorted names
    says so (a stand-in for multi-gate effects)."""

    def __init__(self, m, words):
        self.m = m
        self.words = words
        self.calls = []

    def consistent(self, candidate):
        candidate = list(candidate)
        self.calls.append(candidate)
        cover = 0
        for g in candidate:
            cover |= self.words[g]
        if cover == (1 << self.m) - 1:
            return True
        return zlib.crc32(" ".join(sorted(candidate)).encode()) % 3 == 0


@st.composite
def climbs(draw):
    m = draw(st.integers(1, 130))
    n = draw(st.integers(1, 40))
    # Sparse, dense and zero words, so every count and mask state shows.
    word = st.one_of(
        st.just(0),
        st.integers(0, (1 << m) - 1),
        st.sampled_from([(1 << m) - 1, 1 << (m - 1), 1]),
    )
    pool = [f"g{i}" for i in range(n)]
    words = {g: draw(word) for g in pool}
    patience = draw(st.integers(1, 8))
    deep_check = draw(st.booleans())
    seed = draw(st.integers(0, 2**31 - 1))
    return m, words, pool, patience, deep_check, seed


@given(climbs())
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_climb_equals_the_list_based_reference(case):
    m, words, pool, patience, deep_check, seed = case
    runs = []
    for climb in (greedy._minimize, list_minimize):
        oracle = RecordingOracle(m, words)
        rng = random.Random(seed)
        minimum = climb(oracle, words, list(pool), rng, patience, deep_check)
        runs.append((minimum, rng.getstate(), oracle.calls))
    assert runs[0] == runs[1]


#: Greedy's first-only and sixteen-climb solution tuples, recorded
#: before the climb kept its counts as bit masks.  Keys: (design, seed,
#: m_max) of the p=2 devices with no single-gate correction; the 96-test
#: device's words span two uint64 lanes.
PINNED = {
    ("sim1423", 1, 8): (
        (("g230", "g518"),),
        (("g230", "g271"), ("g230", "g282"), ("g230", "g304"),
         ("g230", "g318"), ("g230", "g330"), ("g230", "g424"),
         ("g230", "g426"), ("g230", "g518"), ("g230", "g547"),
         ("g230", "g579")),
    ),
    ("sim6669", 4, 8): (
        (("g282", "g45"),),
        (("g282", "g45"), ("g282", "g564"), ("g33", "g483"),
         ("g483", "g575"), ("g634", "g730"), ("g730", "g86"),
         ("g1067", "g701", "g921"), ("g1132", "g346", "g648"),
         ("g1154", "g346", "g524"), ("g1154", "g665", "g86"),
         ("g1154", "g834", "g847"), ("g183", "g575", "g698"),
         ("g33", "g524", "g698"), ("g346", "g708", "g897"),
         ("g564", "g642", "g648"), ("g634", "g667", "g698")),
    ),
    ("sim1423", 1, 96): (
        (("g230", "g518"),),
        (("g230", "g304"), ("g230", "g318"), ("g230", "g398"),
         ("g230", "g424"), ("g230", "g426"), ("g230", "g439"),
         ("g230", "g471"), ("g230", "g518"), ("g230", "g540"),
         ("g230", "g579"), ("g230", "g583")),
    ),
}


@pytest.mark.slow
@pytest.mark.parametrize("design, seed, m_max", sorted(PINNED))
def test_greedy_solution_tuples_are_pinned(design, seed, m_max):
    device = make_device(
        "d0", design=design, seed=seed, p=2, m_max=m_max, k=2
    )
    circuit = library.get_circuit(design)

    def solutions(**options):
        # The seed is handed over unresolved, as the serving path does.
        session = DiagnosisSession(
            circuit, device.tests, seed=device.session_seed
        )
        result = diagnose(session, strategy="greedy-stochastic", **options)
        return tuple(tuple(sorted(s)) for s in result.solutions)

    first, full = PINNED[design, seed, m_max]
    assert solutions(max_solutions=1) == first
    assert solutions() == full
