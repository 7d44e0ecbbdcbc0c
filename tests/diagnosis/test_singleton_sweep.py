"""Differential tests of the cone-restricted singleton sweep.

:func:`repro.diagnosis.validity.single_gate_rect_words` sweeps only the
fan-in cones of the outputs the observations constrain and gives every
other pool gate the passing-observation word.  Here its words are
compared bit for bit against two references kept in test code: the
unrestricted sweep (both stuck-at rows of every pool gate over the whole
circuit) and the per-gate, per-test :func:`is_valid_correction` oracle.
The slow tests check that the ladder's answers do not move when the
restricted sweep, or the packed multi-gate oracle
(:func:`~repro.diagnosis.validity.rect_word_by_forcing`), is swapped
for its whole-netlist reference.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.circuits import GateType, random_circuit
from repro.diagnosis import DiagnosisSession, diagnose, is_valid_correction
from repro.diagnosis import validity
from repro.diagnosis.validity import (
    _lanes_to_word,
    single_gate_rect_words,
    want_care_lanes,
)
from repro.experiments import make_workload
from repro.faults.models import StuckAtFault
from repro.sim import simulate
from repro.sim.batchfault import batch_output_lanes
from repro.sim.compiled import compile_circuit
from repro.testgen.testset import Test, TestSet

from tests.diagnosis.test_packed_oracle import per_test_sim


def full_sweep_words(circuit, tests, pool, constrain_all_outputs=False):
    """Reference: one sweep of the whole circuit, both rows per gate."""
    tests = tests if isinstance(tests, TestSet) else TestSet(tuple(tests))
    pool = list(pool)
    if not len(tests) or not pool:
        return {g: 0 for g in pool}
    mask = (1 << len(tests)) - 1
    want, care, _ = want_care_lanes(circuit, tests, constrain_all_outputs)
    faults = [StuckAtFault(g, v) for g in pool for v in (0, 1)]
    lanes, _, _ = batch_output_lanes(circuit, faults, tests.vectors())
    miss = np.bitwise_or.reduce((lanes ^ want) & care, axis=1)
    return {
        g: mask & ~_lanes_to_word(miss[2 * i] & miss[2 * i + 1], mask)
        for i, g in enumerate(pool)
    }


def oracle_words(circuit, tests, pool, constrain_all_outputs=False):
    """Reference: the per-gate, per-test validity oracle."""
    return {
        g: sum(
            1 << j
            for j, test in enumerate(tests)
            if is_valid_correction(
                circuit, [test], (g,), constrain_all_outputs
            )
        )
        for g in pool
    }


@st.composite
def sweep_cases(draw):
    """A random circuit, a pool and observations that may pass or fail.

    The circuit may gain a gate that drives no output (outside every
    cone, even with all outputs constrained) and an output driven
    directly by a primary input.  The test count covers row strides of
    one to seventeen bytes and words of one to three uint64 lanes; the
    pool may repeat a name and hold primary inputs.
    """
    seed = draw(st.integers(0, 10_000))
    circuit = random_circuit(
        n_inputs=draw(st.integers(2, 6)),
        n_outputs=draw(st.integers(1, 4)),
        n_gates=draw(st.integers(4, 25)),
        seed=seed,
    )
    rng = random.Random(seed)
    pis = circuit.inputs
    if draw(st.booleans()):
        circuit.add_gate(
            "dangling", GateType.NAND, [pis[0], pis[-1]]
        )
    if pis[0] not in circuit.outputs and draw(st.booleans()):
        circuit.add_output(pis[0])
    outputs = circuit.outputs
    observed = draw(
        st.lists(st.sampled_from(outputs), min_size=1, unique=True)
    )
    m = draw(st.sampled_from([1, 7, 8, 9, 31, 33, 64, 65, 130]))
    tests = []
    for _ in range(m):
        vector = {pi: rng.getrandbits(1) for pi in pis}
        response = simulate(circuit, vector)
        # Expected responses flip each output with probability 1/4, so
        # some observations pass and some fail.
        expected = {o: response[o] ^ (rng.random() < 0.25) for o in outputs}
        out = rng.choice(observed)
        tests.append(Test(vector, out, expected[out], expected))
    signals = list(circuit.nodes)
    pool = draw(st.lists(st.sampled_from(signals), min_size=1))
    return circuit, TestSet(tuple(tests)), pool


@given(sweep_cases(), st.booleans())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_restricted_words_equal_full_sweep_and_oracle(case, constrain):
    circuit, tests, pool = case
    words = single_gate_rect_words(circuit, tests, pool, constrain)
    assert list(words) == list(dict.fromkeys(pool))
    assert words == full_sweep_words(circuit, tests, pool, constrain)
    assert words == oracle_words(circuit, tests, pool, constrain)


def _dangling_circuit():
    circuit = random_circuit(n_inputs=4, n_outputs=2, n_gates=12, seed=5)
    circuit.add_gate("dangling", GateType.AND, ["pi0", "pi1"])
    assert "pi2" not in circuit.outputs
    circuit.add_output("pi2")  # an output driven by a primary input
    return circuit


def test_gate_outside_every_cone_gets_passing_word():
    circuit = _dangling_circuit()
    rng = random.Random(3)
    tests = []
    for j in range(70):  # two lanes
        vector = {pi: rng.getrandbits(1) for pi in circuit.inputs}
        response = simulate(circuit, vector)
        out = circuit.outputs[j % len(circuit.outputs)]
        # Every third observation fails.
        value = response[out] ^ (j % 3 == 0)
        expected = dict(response)
        expected[out] = value
        tests.append(Test(vector, out, value, expected))
    pool = list(circuit.gate_names)
    for constrain in (False, True):
        words = single_gate_rect_words(circuit, tests, pool, constrain)
        passing = sum(1 << j for j in range(70) if j % 3)
        assert words["dangling"] == passing
        assert words == full_sweep_words(circuit, tests, pool, constrain)


def test_chunked_sweep_matches_one_pass(monkeypatch):
    """A test set wider than the pass budget is swept in byte-aligned
    chunks of tests, one pass each; the words are the same."""
    circuit = _dangling_circuit()
    rng = random.Random(7)
    tests = []
    for j in range(130):
        vector = {pi: rng.getrandbits(1) for pi in circuit.inputs}
        response = simulate(circuit, vector)
        out = circuit.outputs[j % len(circuit.outputs)]
        expected = {o: v ^ (rng.random() < 0.25) for o, v in response.items()}
        tests.append(Test(vector, out, expected[out], expected))
    pool = ["pi0", *circuit.gate_names]
    for constrain in (False, True):
        whole = single_gate_rect_words(circuit, tests, pool, constrain)
        assert whole == full_sweep_words(circuit, tests, pool, constrain)
        calls = []
        simulate_words = validity.simulate_words

        def counting(*args, **kwargs):
            calls.append(args[2])
            return simulate_words(*args, **kwargs)

        monkeypatch.setattr(validity, "_SWEEP_BITS", 1)  # 8 tests a pass
        monkeypatch.setattr(validity, "simulate_words", counting)
        assert single_gate_rect_words(
            circuit, tests, pool, constrain
        ) == whole
        monkeypatch.undo()
        assert len(calls) == 17  # 16 passes of 8 tests, one of 2


def test_output_driven_by_primary_input():
    """Only the PI-driven output is observed: its cone is the input
    alone, so every gate gets the passing word and the input, when in
    the pool, rectifies everything."""
    circuit = _dangling_circuit()
    vector = {pi: 0 for pi in circuit.inputs}
    tests = [
        Test(vector, "pi2", 1),  # fails: pi2 is 0
        Test({**vector, "pi2": 1}, "pi2", 1),  # passes
    ]
    pool = ["pi2", *circuit.gate_names]
    words = single_gate_rect_words(circuit, tests, pool)
    assert words["pi2"] == 0b11
    assert all(words[g] == 0b10 for g in circuit.gate_names)
    assert words == full_sweep_words(circuit, tests, pool)


def test_non_signal_rejected_before_cone_filtering():
    """A pool name that is no signal raises the sweep's ValueError even
    though it could never lie in an observed cone."""
    circuit = _dangling_circuit()
    vector = {pi: 0 for pi in circuit.inputs}
    tests = [Test(vector, circuit.outputs[0], 1)]
    with pytest.raises(ValueError, match="is not a signal of circuit"):
        single_gate_rect_words(
            circuit, tests, [*circuit.gate_names, "no_such_gate"]
        )


def test_pool_index_is_cached_per_pool_tuple():
    """The sweep's de-duplicated pool and index array are built once per
    pool tuple and design; another pool, equal or not, gets its own."""
    circuit = random_circuit(n_inputs=5, n_outputs=3, n_gates=30, seed=4)
    comp = compile_circuit(circuit)
    pool = circuit.gate_names
    names, indices = comp.pool_index(pool)
    assert names == pool
    assert indices.tolist() == [comp.index[g] for g in pool]
    assert not indices.flags.writeable
    assert comp.pool_index(pool)[1] is indices
    # Equal but not the same tuple: rebuilt, with repeats dropped.
    repeated = (*pool, pool[0])
    names, kept = comp.pool_index(repeated)
    assert names == pool and kept is not indices
    # A list is never cached, and a bad name raises and caches nothing.
    assert comp.pool_index(list(pool))[0] == pool
    with pytest.raises(KeyError):
        comp.pool_index((*pool, "no_such_gate"))
    assert comp.pool_index(repeated)[1] is kept
    tests = [
        Test({pi: (i >> j) & 1 for j, pi in enumerate(circuit.inputs)},
             circuit.outputs[i % 3], i & 1)
        for i in range(12)
    ]
    words = single_gate_rect_words(circuit, tests, pool)
    assert single_gate_rect_words(circuit, tests, pool) == words
    assert words == full_sweep_words(circuit, tests, list(pool))


@pytest.mark.slow
@pytest.mark.parametrize("design", ["sim1423", "sim6669"])
@pytest.mark.parametrize("p", [1, 2])
def test_ladder_answers_equal_full_sweep_answers(design, p, monkeypatch):
    """single-fix and greedy give the same answers on the restricted
    words as on the full sweep's (their RNG draws see the same words)."""
    w = make_workload(design, p=p, m_max=8, seed=p)

    def answers():
        session = DiagnosisSession(w.faulty, w.tests)
        single = diagnose(session, strategy="single-fix")
        greedy = diagnose(
            DiagnosisSession(w.faulty, w.tests),
            strategy="greedy-stochastic",
            max_solutions=1,
        )
        return single.solutions, greedy.solutions

    restricted = answers()
    monkeypatch.setattr(
        validity, "single_gate_rect_words", full_sweep_words
    )
    assert answers() == restricted


def per_test_rect_word(circuit, tests, gates, constrain_all_outputs=False,
                       known=0):
    """Reference multi-gate oracle: one whole-netlist pass per unknown
    test with every candidate gate forced (SAT above the sim limit)."""
    check = (
        validity._rectifiable_sat
        if len(gates) > validity._SIM_LIMIT
        else per_test_sim
    )
    word = known
    for j, test in enumerate(tests):
        if not (known >> j) & 1 and check(
            circuit, test, gates, constrain_all_outputs
        ):
            word |= 1 << j
    return word


@pytest.mark.slow
@pytest.mark.parametrize("design", ["sim1423", "sim6669"])
@pytest.mark.parametrize("seed", [2, 4, 6])
def test_greedy_answers_equal_per_test_oracle_answers(
    design, seed, monkeypatch
):
    """greedy-stochastic gives the same answers on the packed oracle as
    on the per-test whole-netlist one (every deep check returns the same
    word, so the climbs draw the same random numbers)."""
    w = make_workload(design, p=2, m_max=8, seed=seed)
    checks = []
    packed = validity.rect_word_by_forcing

    def recording(*args, **kwargs):
        word = packed(*args, **kwargs)
        checks.append(word)
        return word

    def answers():
        # Three answers past the singleton layer, so the climbs (and
        # their deep checks) run.
        session = DiagnosisSession(w.faulty, w.tests)
        layer = len(session.space().singletons())
        return diagnose(
            session, strategy="greedy-stochastic", max_solutions=layer + 3
        ).solutions

    monkeypatch.setattr(validity, "rect_word_by_forcing", recording)
    new = answers()
    assert checks, "no deep check ran"
    monkeypatch.setattr(validity, "rect_word_by_forcing", per_test_rect_word)
    assert answers() == new


def test_sweep_builds_no_fault_objects_and_one_row_per_swept_gate(
    monkeypatch,
):
    """The session sweep is one :func:`simulate_words` pass, through
    ``validity``'s module global, of one byte-aligned row block per pool
    gate inside the observed cones plus the fault-free row: its XOR
    words name exactly those gates, and it constructs no
    StuckAtFault."""
    w = make_workload("sim1423", p=2, m_max=8, seed=3)
    session = DiagnosisSession(w.faulty, w.tests)
    pool = session.space().pool
    observed = {t.output for t in w.tests}
    cone = frozenset().union(*map(w.faulty.fanin_cone, observed))
    swept = [g for g in pool if g in cone]
    assert 0 < len(swept) < len(pool)
    calls = []
    simulate = validity.simulate_words

    def recording(circuit, input_words, n_patterns, *args, **kwargs):
        calls.append((n_patterns, dict(kwargs.get("xor_words") or {})))
        return simulate(circuit, input_words, n_patterns, *args, **kwargs)

    def no_faults(self):
        raise AssertionError("the singleton sweep built a StuckAtFault")

    monkeypatch.setattr(validity, "simulate_words", recording)
    monkeypatch.setattr(StuckAtFault, "__post_init__", no_faults)
    words = session.space().singleton_rect_words()
    stride = 8  # m = 8 tests: one byte per row
    assert len(calls) == 1
    n_patterns, xor_words = calls[0]
    assert n_patterns == (len(swept) + 1) * stride
    assert list(xor_words) == swept
    block = (1 << stride) - 1
    assert all(
        xor_words[g] == block << (r * stride) for r, g in enumerate(swept)
    )
    monkeypatch.undo()
    assert words == full_sweep_words(w.faulty, w.tests, pool)
