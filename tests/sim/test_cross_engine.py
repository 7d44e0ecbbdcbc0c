"""Property-based cross-validation of all simulation engines.

Two layers:

* **value engines** — the scalar, bit-parallel, ternary and event-driven
  simulators implement the same two-valued semantics; hypothesis
  generates random circuits, vectors and forced-value sets and asserts
  they agree signal-for-signal.
* **fault-engine matrix** — every pair of fault-simulation engines
  (serial, pattern-parallel, batchfault, codegen, deductive,
  deductive-numpy) and the two shapes the event-driven simulator runs in
  (event: one single-pattern simulator per pattern, as a session with
  one failing test builds it; batch-event: all patterns packed into
  lanes) is compared on seeded random circuits from
  :mod:`repro.circuits.generator` with seeded pattern sets: they must
  agree on per-pattern detected-fault sets, full output signatures and
  coverage (first-detection indices and counts).  Each engine computes
  its results through its own code path; agreement of all pairs is the
  executable definition of "bit-identical".
"""

import itertools
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import random_circuit
from repro.diagnosis.stuckat import fault_signature, full_fault_list
from repro.sim import (
    BatchEventSimulator,
    batch_detected,
    batch_fault_coverage,
    codegen_detected,
    codegen_fault_coverage,
    deductive_coverage,
    deductive_coverage_numpy,
    deductive_detected,
    deductive_detected_numpy,
    deductive_fault_lists,
    fault_signatures_batch,
    fault_signatures_codegen,
    output_values,
    pack_patterns,
    simulate,
    simulate_patterns,
    simulate_ternary,
    simulate_words,
    unpack_word,
)


@st.composite
def circuit_and_vectors(draw):
    seed = draw(st.integers(0, 10_000))
    n_inputs = draw(st.integers(2, 7))
    n_gates = draw(st.integers(3, 35))
    circuit = random_circuit(
        n_inputs=n_inputs,
        n_outputs=draw(st.integers(1, 3)),
        n_gates=n_gates,
        seed=seed,
    )
    n_vectors = draw(st.integers(1, 5))
    vectors = [
        {pi: draw(st.integers(0, 1)) for pi in circuit.inputs}
        for _ in range(n_vectors)
    ]
    return circuit, vectors


@pytest.mark.slow
@given(circuit_and_vectors())
@settings(max_examples=40, deadline=None)
def test_parallel_equals_scalar(data):
    circuit, vectors = data
    batched = simulate_patterns(circuit, vectors)
    for vec, batch in zip(vectors, batched):
        assert simulate(circuit, vec) == batch


@pytest.mark.slow
@given(circuit_and_vectors())
@settings(max_examples=40, deadline=None)
def test_ternary_equals_scalar_on_binary(data):
    circuit, vectors = data
    for vec in vectors:
        scalar = simulate(circuit, vec)
        ternary = simulate_ternary(circuit, vec)
        assert all(ternary[s] == scalar[s] for s in circuit.nodes)


@pytest.mark.slow
@given(circuit_and_vectors(), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_event_sim_equals_scalar_under_forcing(data, force_seed):
    circuit, vectors = data
    rng = random.Random(force_seed)
    sim = BatchEventSimulator(circuit, vectors)
    forced: dict[str, int] = {}
    signals = list(circuit.nodes)
    for step in range(8):
        if rng.randrange(3) or not forced:  # force an input or a gate
            name = rng.choice(signals)
            forced[name] = rng.randint(0, 1)
            sim.force(name, forced[name])
        else:  # unforce
            name = rng.choice(sorted(forced))
            del forced[name]
            sim.unforce(name)
        for j, vector in enumerate(vectors):
            assert sim.pattern_values(j) == simulate(
                circuit, vector, forced=forced
            )


@pytest.mark.slow
@given(circuit_and_vectors())
@settings(max_examples=40, deadline=None)
def test_forced_words_equal_scalar_forcing(data):
    circuit, vectors = data
    rng = random.Random(len(vectors))
    gates = list(circuit.gate_names)
    forced_scalar = {g: rng.randint(0, 1) for g in gates[:3]}
    n = len(vectors)
    mask = (1 << n) - 1
    words = pack_patterns(vectors, circuit.inputs)
    forced_words = {
        g: (mask if v else 0) for g, v in forced_scalar.items()
    }
    batch = simulate_words(circuit, words, n, forced_words=forced_words)
    for j, vec in enumerate(vectors):
        scalar = simulate(circuit, vec, forced=forced_scalar)
        for sig in circuit.nodes:
            assert (batch[sig] >> j) & 1 == scalar[sig]


# ======================================================================
# fault-engine differential matrix
# ======================================================================
#
# Every engine exposes (through its own code path) the same three views
# of a (circuit, faults, patterns) workload:
#
#   signatures(case)      -> tuple of {output: word} in fault order
#   detected(case)        -> tuple of per-pattern detected frozensets
#   first_detection(case) -> {fault: first pattern index}
#
# and every engine pair must agree exactly.

CASES = [
    # (circuit seed, n_inputs, n_outputs, n_gates, pattern seed, n_patterns)
    (11, 5, 2, 22, 1, 11),
    (42, 6, 3, 35, 2, 17),
    (7, 4, 1, 14, 3, 66),  # >64 patterns: crosses a uint64 lane boundary
]


@lru_cache(maxsize=None)
def _case(i):
    seed, n_in, n_out, n_gates, pat_seed, n_pat = CASES[i]
    circuit = random_circuit(
        n_inputs=n_in, n_outputs=n_out, n_gates=n_gates, seed=seed
    )
    rng = random.Random(pat_seed)
    patterns = tuple(
        {pi: rng.getrandbits(1) for pi in circuit.inputs}
        for _ in range(n_pat)
    )
    faults = tuple(full_fault_list(circuit))  # gate and primary-input sites
    good = tuple(output_values(circuit, p) for p in patterns)
    return circuit, faults, patterns, good


def _words_from_rows(circuit, rows):
    """Fold per-pattern {output: bit} rows into one {output: word}."""
    sig = {out: 0 for out in circuit.outputs}
    for j, row in enumerate(rows):
        for out in circuit.outputs:
            if row[out] & 1:
                sig[out] |= 1 << j
    return sig


def _sig_serial(i):
    from repro.sim import stuck_at_response

    circuit, faults, patterns, _ = _case(i)
    sigs = []
    for f in faults:
        rows = [
            dict(
                zip(
                    circuit.outputs,
                    stuck_at_response(circuit, p, f.signal, f.value),
                )
            )
            for p in patterns
        ]
        sigs.append(_words_from_rows(circuit, rows))
    return tuple(sigs)


def _sig_pattern_parallel(i):
    circuit, faults, patterns, _ = _case(i)
    words = pack_patterns(list(patterns), circuit.inputs)
    return tuple(
        fault_signature(circuit, f, words, len(patterns)) for f in faults
    )


def _sig_batchfault(i):
    circuit, faults, patterns, _ = _case(i)
    return tuple(fault_signatures_batch(circuit, faults, list(patterns)))


def _sig_codegen(i):
    circuit, faults, patterns, _ = _case(i)
    return tuple(fault_signatures_codegen(circuit, faults, list(patterns)))


def _sig_deductive_common(i, lists_fn):
    """Signature from fault lists: a fault flips exactly the output bits
    whose per-pattern list contains it — sig = good XOR flips."""
    circuit, faults, patterns, good = _case(i)
    flips = [
        {out: 0 for out in circuit.outputs} for _ in faults
    ]
    for j, pattern in enumerate(patterns):
        lists = lists_fn(circuit, pattern, faults=faults)
        for k, f in enumerate(faults):
            for out in circuit.outputs:
                if f in lists[out]:
                    flips[k][out] |= 1 << j
    good_words = _words_from_rows(circuit, good)
    return tuple(
        {out: good_words[out] ^ flip[out] for out in circuit.outputs}
        for flip in flips
    )


def _sig_deductive(i):
    return _sig_deductive_common(i, deductive_fault_lists)


def _sig_deductive_numpy(i):
    from repro.sim import deductive_fault_lists_numpy

    return _sig_deductive_common(i, deductive_fault_lists_numpy)


def _sig_event(i):
    circuit, faults, patterns, _ = _case(i)
    rows_per_fault = [[] for _ in faults]
    for pattern in patterns:
        sim = BatchEventSimulator(circuit, [pattern])
        for k, f in enumerate(faults):
            sim.force(f.signal, f.value)
            rows_per_fault[k].append(sim.output_words())
            sim.unforce(f.signal)
    return tuple(
        _words_from_rows(circuit, rows) for rows in rows_per_fault
    )


def _sig_batch_event(i):
    circuit, faults, patterns, _ = _case(i)
    sim = BatchEventSimulator(circuit, list(patterns))
    sigs = []
    for f in faults:
        sim.force(f.signal, f.value)
        sigs.append(sim.output_words())
        sim.unforce(f.signal)
    return tuple(sigs)


def _detected_from_signatures(i, sigs):
    """Per-pattern detected sets derived from an engine's signatures."""
    circuit, faults, patterns, good = _case(i)
    good_words = _words_from_rows(circuit, good)
    result = []
    for j in range(len(patterns)):
        det = set()
        for f, sig in zip(faults, sigs):
            if any(
                ((sig[out] ^ good_words[out]) >> j) & 1
                for out in circuit.outputs
            ):
                det.add(f)
        result.append(frozenset(det))
    return tuple(result)


def _detected_direct(i, detect_fn):
    circuit, faults, patterns, _ = _case(i)
    return tuple(
        detect_fn(circuit, p, list(faults)) for p in patterns
    )


def _first_detection_from_signatures(i, sigs):
    circuit, faults, patterns, good = _case(i)
    good_words = _words_from_rows(circuit, good)
    first = {}
    for f, sig in zip(faults, sigs):
        diff = 0
        for out in circuit.outputs:
            diff |= sig[out] ^ good_words[out]
        if diff:
            first[f] = (diff & -diff).bit_length() - 1
    return first


def _coverage_direct(i, coverage_fn):
    circuit, faults, patterns, _ = _case(i)
    return dict(
        coverage_fn(circuit, list(patterns), list(faults)).first_detection
    )


#: engine -> (signatures, detected, first_detection); engines without a
#: native function for a view derive it from their own signatures.
ENGINES = {
    "serial": (
        _sig_serial,
        lambda i: _detected_from_signatures(i, _sig_serial(i)),
        lambda i: _first_detection_from_signatures(i, _sig_serial(i)),
    ),
    "pattern-parallel": (
        _sig_pattern_parallel,
        lambda i: _detected_from_signatures(i, _sig_pattern_parallel(i)),
        lambda i: _first_detection_from_signatures(
            i, _sig_pattern_parallel(i)
        ),
    ),
    "batchfault": (
        _sig_batchfault,
        lambda i: _detected_direct(i, batch_detected),
        lambda i: _coverage_direct(i, batch_fault_coverage),
    ),
    "codegen": (
        _sig_codegen,
        lambda i: _detected_direct(i, codegen_detected),
        lambda i: _coverage_direct(i, codegen_fault_coverage),
    ),
    "deductive": (
        _sig_deductive,
        lambda i: _detected_direct(i, deductive_detected),
        lambda i: _coverage_direct(i, deductive_coverage),
    ),
    "deductive-numpy": (
        _sig_deductive_numpy,
        lambda i: _detected_direct(i, deductive_detected_numpy),
        lambda i: _coverage_direct(i, deductive_coverage_numpy),
    ),
    "event": (
        _sig_event,
        lambda i: _detected_from_signatures(i, _sig_event(i)),
        lambda i: _first_detection_from_signatures(i, _sig_event(i)),
    ),
    "batch-event": (
        _sig_batch_event,
        lambda i: _detected_from_signatures(i, _sig_batch_event(i)),
        lambda i: _first_detection_from_signatures(i, _sig_batch_event(i)),
    ),
}

_PAIRS = list(itertools.combinations(sorted(ENGINES), 2))


@lru_cache(maxsize=None)
def _view(engine, view, i):
    return ENGINES[engine][view](i)


@pytest.mark.parametrize("case", range(len(CASES)))
@pytest.mark.parametrize("a,b", _PAIRS, ids=[f"{a}~{b}" for a, b in _PAIRS])
def test_matrix_signatures_agree(a, b, case):
    circuit, faults, _, _ = _case(case)
    sig_a, sig_b = _view(a, 0, case), _view(b, 0, case)
    assert len(sig_a) == len(sig_b) == len(faults)
    for f, wa, wb in zip(faults, sig_a, sig_b):
        assert wa == wb, (f, a, b)


@pytest.mark.parametrize("case", range(len(CASES)))
@pytest.mark.parametrize("a,b", _PAIRS, ids=[f"{a}~{b}" for a, b in _PAIRS])
def test_matrix_detected_sets_agree(a, b, case):
    _, _, patterns, _ = _case(case)
    det_a, det_b = _view(a, 1, case), _view(b, 1, case)
    assert len(det_a) == len(det_b) == len(patterns)
    for j, (da, db) in enumerate(zip(det_a, det_b)):
        assert da == db, (j, a, b)


@pytest.mark.parametrize("case", range(len(CASES)))
@pytest.mark.parametrize("a,b", _PAIRS, ids=[f"{a}~{b}" for a, b in _PAIRS])
def test_matrix_coverage_agrees(a, b, case):
    fd_a, fd_b = _view(a, 2, case), _view(b, 2, case)
    assert fd_a == fd_b, (a, b)
    assert len(fd_a) == len(fd_b)  # detected-fault counts


# ======================================================================
# single-vector fast path (ATPG drop-query shape)
# ======================================================================
#
# ``deductive_*_numpy`` dispatches one-pattern blocks to a dedicated
# 1-lane big-int path (the ROADMAP single-vector gap).  Parity with the
# pure-Python propagator must hold per signal and per fault — including
# when a multi-pattern coverage sweep is forced through one-pattern
# blocks.


@pytest.mark.parametrize("case", range(len(CASES)))
def test_single_vector_fast_path_matches_serial_deductive(case):
    from repro.sim import deductive_fault_lists_numpy

    circuit, faults, patterns, _ = _case(case)
    for pattern in patterns[:4]:
        serial = deductive_fault_lists(circuit, pattern, faults=faults)
        fast = deductive_fault_lists_numpy(circuit, pattern, faults=faults)
        assert serial == fast
        assert deductive_detected(
            circuit, pattern, faults=faults
        ) == deductive_detected_numpy(circuit, pattern, faults=faults)


@pytest.mark.parametrize("case", range(len(CASES)))
def test_single_pattern_blocks_match_block_coverage(case):
    circuit, faults, patterns, _ = _case(case)
    blocked = deductive_coverage_numpy(
        circuit, list(patterns), list(faults), block_patterns=1
    )
    whole = deductive_coverage_numpy(
        circuit, list(patterns), list(faults), block_patterns=128
    )
    serial = deductive_coverage(circuit, list(patterns), list(faults))
    assert blocked.first_detection == whole.first_detection
    assert blocked.first_detection == serial.first_detection


@pytest.mark.parametrize("case", range(len(CASES)))
def test_output_fault_lists_block_pass_matches_per_pattern(case):
    from repro.sim.deductive_numpy import (
        deductive_fault_lists_numpy,
        deductive_output_fault_lists,
    )

    circuit, faults, patterns, _ = _case(case)
    block = deductive_output_fault_lists(
        circuit, list(patterns), faults=list(faults)
    )
    assert len(block) == len(patterns)
    for j, pattern in enumerate(patterns[:3]):
        per = deductive_fault_lists_numpy(circuit, pattern, faults=faults)
        for out in circuit.outputs:
            assert block[j][out] == per[out]
