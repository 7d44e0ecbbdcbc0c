"""Cross-engine tests for the fault-parallel batched simulation engine.

The batch engine must be bit-exact against every older engine it can
replace: the serial forced-value signature (:func:`fault_signature`), the
scalar :func:`stuck_at_response`, and the deductive fault simulator.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import library, random_circuit
from repro.diagnosis.stuckat import fault_signature, full_fault_list
from repro.faults.models import StuckAtFault
from repro.sim import (
    batch_detected,
    batch_fault_coverage,
    deductive_coverage,
    deductive_detected,
    exact_match_faults,
    fault_signatures_batch,
    pack_patterns,
    stuck_at_response,
    unpack_word,
)


@st.composite
def circuit_faults_patterns(draw):
    seed = draw(st.integers(0, 10_000))
    n_outputs = draw(st.integers(1, 4))
    circuit = random_circuit(
        n_inputs=draw(st.integers(2, 7)),
        n_outputs=n_outputs,
        n_gates=draw(st.integers(n_outputs, 40)),
        seed=seed,
    )
    rng = random.Random(seed)
    n_patterns = draw(st.integers(1, 70))
    patterns = [
        {pi: rng.getrandbits(1) for pi in circuit.inputs}
        for _ in range(n_patterns)
    ]
    return circuit, patterns


@given(circuit_faults_patterns())
@settings(max_examples=30, deadline=None)
def test_batch_signatures_match_serial_engine(data):
    """Property: batch signatures equal per-fault serial signatures for the
    full fault universe — gate outputs, fanout stems and primary inputs."""
    circuit, patterns = data
    faults = full_fault_list(circuit)  # includes primary-input faults
    words = pack_patterns(patterns, circuit.inputs)
    serial = [
        fault_signature(circuit, f, words, len(patterns)) for f in faults
    ]
    batch = fault_signatures_batch(circuit, faults, patterns)
    assert batch == serial


@given(circuit_faults_patterns())
@settings(max_examples=15, deadline=None)
def test_batch_signatures_match_scalar_responses(data):
    """Property: every pattern-bit of a batch signature equals the scalar
    stuck_at_response of that pattern."""
    circuit, patterns = data
    faults = full_fault_list(circuit)
    rng = random.Random(len(patterns))
    sample = rng.sample(faults, min(6, len(faults)))
    batch = fault_signatures_batch(circuit, sample, patterns)
    for fault, sig in zip(sample, batch):
        for j, pattern in enumerate(patterns):
            scalar = stuck_at_response(
                circuit, pattern, fault.signal, fault.value
            )
            batched = tuple(
                (sig[out] >> j) & 1 for out in circuit.outputs
            )
            assert batched == scalar, (fault, j)


def test_fanout_stem_and_input_faults_on_c17():
    """Exhaustive c17 check: stems (G10/G11/G16 feed multiple gates) and
    PI faults, every input combination, both engines bit-identical."""
    c17 = library.c17()
    patterns = [
        dict(zip(c17.inputs, bits))
        for bits in itertools.product([0, 1], repeat=len(c17.inputs))
    ]
    faults = full_fault_list(c17)
    assert any(f.signal in c17.inputs for f in faults)
    batch = fault_signatures_batch(c17, faults, patterns)
    words = pack_patterns(patterns, c17.inputs)
    for fault, sig in zip(faults, batch):
        assert sig == fault_signature(c17, fault, words, len(patterns))


@given(circuit_faults_patterns())
@settings(max_examples=20, deadline=None)
def test_batch_detected_matches_deductive(data):
    circuit, patterns = data
    faults = full_fault_list(circuit, include_inputs=False)
    assert batch_detected(circuit, patterns[0], faults) == deductive_detected(
        circuit, patterns[0], faults
    )


@pytest.mark.parametrize("drop", [True, False])
@pytest.mark.parametrize("block", [64, 256])
def test_batch_coverage_matches_deductive(drop, block):
    circuit = random_circuit(n_inputs=7, n_outputs=3, n_gates=45, seed=17)
    rng = random.Random(17)
    patterns = [
        {pi: rng.getrandbits(1) for pi in circuit.inputs} for _ in range(150)
    ]
    faults = full_fault_list(circuit, include_inputs=False)
    batch = batch_fault_coverage(
        circuit, patterns, faults, drop_detected=drop, block_patterns=block
    )
    deductive = deductive_coverage(circuit, patterns, faults=faults)
    assert dict(batch.first_detection) == dict(deductive.first_detection)
    assert batch.coverage == deductive.coverage
    assert batch.n_patterns == deductive.n_patterns


def test_exact_match_faults_agrees_with_full_ranking():
    from repro.diagnosis import diagnose_stuck_at
    from repro.faults import apply_error
    from repro.sim import output_values

    circuit = random_circuit(n_inputs=6, n_outputs=3, n_gates=30, seed=23)
    defect = StuckAtFault(circuit.gates[10].name, 1)
    dut = apply_error(circuit, defect)
    rng = random.Random(23)
    patterns = [
        {pi: rng.getrandbits(1) for pi in circuit.inputs} for _ in range(130)
    ]
    observed = [output_values(dut, p) for p in patterns]
    exact = exact_match_faults(
        circuit, patterns, observed, block_patterns=64
    )
    ranking = diagnose_stuck_at(
        circuit, patterns, observed, engine="serial"
    ).extras["matches"]
    expected = [m.fault for m in ranking if m.exact]
    assert sorted(exact, key=str) == sorted(expected, key=str)
    assert defect in exact


def test_unknown_fault_site_rejected(maj3):
    with pytest.raises(ValueError, match="not a signal"):
        fault_signatures_batch(
            maj3, [StuckAtFault("no_such_signal", 0)], [{"a": 0, "b": 0, "c": 0}]
        )


def test_empty_patterns_rejected(maj3):
    with pytest.raises(ValueError, match="pattern"):
        fault_signatures_batch(maj3, [], [])


def test_empty_faults_gives_empty_signatures(maj3):
    assert fault_signatures_batch(maj3, [], [{"a": 0, "b": 0, "c": 0}]) == []


def test_signature_words_masked_to_pattern_count():
    """Padding bits above n_patterns must be cleared (NAND-heavy circuits
    produce all-ones words whose padding would otherwise leak through)."""
    circuit = random_circuit(n_inputs=4, n_outputs=2, n_gates=15, seed=5)
    rng = random.Random(5)
    patterns = [
        {pi: rng.getrandbits(1) for pi in circuit.inputs} for _ in range(7)
    ]
    faults = full_fault_list(circuit)
    for sig in fault_signatures_batch(circuit, faults, patterns):
        for word in sig.values():
            assert word < (1 << len(patterns))
            assert len(unpack_word(word, len(patterns))) == len(patterns)


def test_observed_response_missing_output_raises(maj3):
    """A tester log entry missing an output must raise (like the serial
    matcher), not silently default the output to 0."""
    from repro.diagnosis import FaultDictionary, diagnose_stuck_at
    from repro.sim import pack_responses

    patterns = [{"a": 1, "b": 1, "c": 0}, {"a": 0, "b": 1, "c": 1}]
    good = [{"out": 1}, {"out": 1}]
    broken = [{"out": 1}, {}]  # second response lost its output
    assert pack_responses(maj3.outputs, good).shape == (1, 1)
    with pytest.raises(KeyError):
        pack_responses(maj3.outputs, broken)
    fd = FaultDictionary(maj3, patterns, engine="batch")
    with pytest.raises(KeyError):
        fd.match(broken)
    with pytest.raises(KeyError):
        diagnose_stuck_at(maj3, patterns, broken, engine="batch")
    with pytest.raises(KeyError):
        exact_match_faults(maj3, patterns, broken)


def test_popcount_fallback_matches_bitwise_count():
    """The numpy<2 fallback must agree with np.bitwise_count elementwise."""
    import numpy as np

    from repro.sim.batchfault import _popcount_fallback

    rng = np.random.default_rng(3)
    arr = rng.integers(0, 2**63, size=(5, 3, 4), dtype=np.uint64)
    arr[0, 0, 0] = np.uint64(0xFFFFFFFFFFFFFFFF)
    arr[0, 0, 1] = 0
    expected = np.bitwise_count(arr)
    assert (_popcount_fallback(arr) == expected).all()
    # Strided views (the shape _output_stack hands downstream) work too.
    view = arr.transpose(1, 0, 2)
    assert (_popcount_fallback(view) == np.bitwise_count(view)).all()


def test_blocked_sweep_matches_single_sweep(monkeypatch):
    """Pattern sets wider than the sweep budget are swept in lane-aligned
    blocks; the concatenated result must be bit-identical."""
    import repro.sim.batchfault as bf

    circuit = random_circuit(n_inputs=6, n_outputs=3, n_gates=25, seed=8)
    rng = random.Random(8)
    patterns = [
        {pi: rng.getrandbits(1) for pi in circuit.inputs} for _ in range(300)
    ]
    faults = full_fault_list(circuit)
    whole = fault_signatures_batch(circuit, faults, patterns)
    monkeypatch.setattr(bf, "_SWEEP_BUDGET", 1)  # force 64-pattern blocks
    blocked = fault_signatures_batch(circuit, faults, patterns)
    assert blocked == whole


@given(circuit_faults_patterns(), st.data())
@settings(max_examples=30, deadline=None)
def test_output_restricted_sweep_matches_full_sweep(data, draw):
    """``outputs=`` evaluates only those outputs' fan-in cones and returns
    exactly the full sweep's rows for them, in the order given."""
    from repro.sim.batchfault import batch_output_lanes

    circuit, patterns = data
    faults = full_fault_list(circuit)
    outputs = draw.draw(
        st.lists(st.sampled_from(circuit.outputs), unique=True)
    )
    full, good, mask = batch_output_lanes(circuit, faults, patterns)
    cols = [circuit.outputs.index(o) for o in outputs]
    part, part_good, part_mask = batch_output_lanes(
        circuit, faults, patterns, outputs=outputs
    )
    assert part.shape == (len(faults), len(outputs), full.shape[2])
    assert (part == full[:, cols]).all()
    assert (part_good == good[cols]).all()
    assert (part_mask == mask).all()


@st.composite
def flip_cases(draw):
    """A random circuit, 1-90 patterns (multi-lane from 65) and an
    optional subset of outputs to restrict the sweep to."""
    seed = draw(st.integers(0, 10_000))
    n_outputs = draw(st.integers(1, 4))
    circuit = random_circuit(
        n_inputs=draw(st.integers(2, 7)),
        n_outputs=n_outputs,
        n_gates=draw(st.integers(n_outputs, 40)),
        seed=seed,
    )
    rng = random.Random(seed)
    n_patterns = draw(st.sampled_from([1, 17, 64, 65, 90]))
    patterns = [
        {pi: rng.getrandbits(1) for pi in circuit.inputs}
        for _ in range(n_patterns)
    ]
    outputs = draw(
        st.none()
        | st.lists(st.sampled_from(circuit.outputs), min_size=1, unique=True)
    )
    return circuit, patterns, outputs


@given(flip_cases())
@settings(max_examples=40, deadline=None)
def test_flip_row_equals_the_stuck_at_row_that_changes_something(case):
    """Lane by lane, a signal's flip row equals whichever of its two
    stuck-at rows differs from the fault-free row (where neither does,
    both equal it).  Flip rows follow the stuck-at rows, and a sweep of
    flips alone returns the same rows."""
    import numpy as np

    from repro.sim.batchfault import batch_output_lanes

    circuit, patterns, outputs = case
    signals = list(circuit.nodes)
    faults = [StuckAtFault(s, v) for s in signals for v in (0, 1)]
    lanes, good, mask = batch_output_lanes(
        circuit, faults, patterns, outputs=outputs, flips=signals
    )
    n = len(signals)
    assert lanes.shape[0] == 3 * n
    sa0, sa1, flip = lanes[0 : 2 * n : 2], lanes[1 : 2 * n : 2], lanes[2 * n :]
    # One word per (signal, lane): a set bit marks a pattern under which
    # stuck-at-0 changes some output.
    changed0 = np.bitwise_or.reduce(sa0 ^ good, axis=1)[:, None, :]
    expected = (sa0 & changed0) | (sa1 & ~changed0)
    assert ((flip ^ expected) & mask == 0).all()
    alone, alone_good, _ = batch_output_lanes(
        circuit, (), patterns, outputs=outputs, flips=signals
    )
    assert (alone == flip).all()
    assert (alone_good == good).all()


def test_flip_signals_must_be_distinct_signals():
    from repro.sim.batchfault import batch_output_lanes

    maj3 = library.majority()
    pattern = [{"a": 0, "b": 1, "c": 1}]
    with pytest.raises(ValueError, match="distinct"):
        batch_output_lanes(maj3, (), pattern, flips=["ab", "ab"])
    with pytest.raises(ValueError, match="is not a signal of circuit"):
        batch_output_lanes(maj3, (), pattern, flips=["no_such_signal"])
