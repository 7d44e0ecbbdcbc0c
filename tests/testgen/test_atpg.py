"""Tests for the production-test ATPG flow."""

import pytest

from repro.circuits import Circuit, GateType, random_circuit
from repro.circuits.library import c17, ripple_carry_adder
from repro.faults import StuckAtFault, collapse_faults, full_stuck_at_universe
from repro.sim import deductive_coverage, response, stuck_at_response
from repro.testgen.atpg import (
    compact_patterns,
    generate_tests,
    sat_stuck_at_test,
)


def _detects(circuit, vector, fault):
    return stuck_at_response(
        circuit, vector, fault.signal, fault.value
    ) != response(circuit, vector)


# ----------------------------------------------------------------------
# SAT backend
# ----------------------------------------------------------------------


def test_sat_test_detects_fault(c17):
    fault = StuckAtFault("G16", 0)
    vector = sat_stuck_at_test(c17, fault)
    assert vector is not None
    assert _detects(c17, vector, fault)


def test_sat_proves_redundancy():
    c = Circuit("taut")
    c.add_input("a")
    c.add_gate("n", GateType.NOT, ["a"])
    c.add_gate("z", GateType.OR, ["a", "n"])
    c.add_output("z")
    c.validate()
    assert sat_stuck_at_test(c, StuckAtFault("z", 1)) is None


def test_sat_handles_pi_fault(c17):
    vector = sat_stuck_at_test(c17, StuckAtFault("G1", 1))
    assert vector is not None
    assert _detects(c17, vector, StuckAtFault("G1", 1))


def test_sat_unobservable_site_undetectable():
    c = Circuit("dead")
    c.add_input("a")
    c.add_gate("z", GateType.NOT, ["a"])
    c.add_gate("dangling", GateType.NOT, ["a"])
    c.add_output("z")
    c.validate()
    assert sat_stuck_at_test(c, StuckAtFault("dangling", 0)) is None


@pytest.mark.parametrize("seed", [0, 1])
def test_backends_agree_on_detectability(seed):
    circuit = random_circuit(n_inputs=5, n_outputs=3, n_gates=22, seed=seed)
    from repro.testgen.podem import podem

    for fault in full_stuck_at_universe(circuit, include_inputs=False):
        sat_vec = sat_stuck_at_test(circuit, fault)
        outcome = podem(circuit, fault, backtrack_limit=50_000)
        assert (sat_vec is not None) == outcome.found, fault


# ----------------------------------------------------------------------
# full flow
# ----------------------------------------------------------------------


def test_c17_full_coverage(c17):
    result = generate_tests(c17, seed=1)
    assert result.fault_coverage == 1.0
    assert result.fault_efficiency == 1.0
    assert not result.undetectable and not result.aborted
    assert result.test_count >= 1


def test_flow_sat_backend(c17):
    result = generate_tests(c17, backend="sat")
    assert result.fault_coverage == 1.0
    assert result.backend == "sat"


def test_unknown_backend_rejected(c17):
    with pytest.raises(ValueError, match="backend"):
        generate_tests(c17, backend="dalg")


def test_patterns_cover_uncollapsed_universe(c17):
    """Coverage on the collapsed list implies coverage of the universe."""
    result = generate_tests(c17, seed=2)
    universe = full_stuck_at_universe(c17)
    cov = deductive_coverage(c17, list(result.patterns), faults=universe)
    assert cov.coverage == 1.0


def test_redundant_fault_reported():
    c = Circuit("taut")
    c.add_input("a")
    c.add_input("b")
    c.add_gate("n", GateType.NOT, ["a"])
    c.add_gate("t", GateType.OR, ["a", "n"])
    c.add_gate("z", GateType.AND, ["t", "b"])
    c.add_output("z")
    c.validate()
    result = generate_tests(c, collapse=False)
    assert StuckAtFault("t", 1) in result.undetectable
    assert result.fault_efficiency == 1.0
    assert result.fault_coverage < 1.0


def test_explicit_fault_list(c17):
    targets = [StuckAtFault("G22", 0), StuckAtFault("G23", 1)]
    result = generate_tests(c17, faults=targets)
    assert result.target_faults == tuple(targets)
    assert result.fault_coverage == 1.0


def test_flow_deterministic(c17):
    a = generate_tests(c17, seed=3)
    b = generate_tests(c17, seed=3)
    assert a.patterns == b.patterns


def test_adder_flow_with_and_without_collapse():
    rca = ripple_carry_adder(2)
    collapsed = generate_tests(rca, seed=4)
    full = generate_tests(rca, collapse=False, seed=4)
    assert collapsed.fault_coverage == 1.0
    assert full.fault_coverage == 1.0
    # The collapsed run targets fewer faults.
    assert len(collapsed.target_faults) < len(full.target_faults)


def test_redundancy_verdicts_exhaustively_valid():
    """Every fault the flow calls redundant really is (all 2^n vectors)."""
    from itertools import product

    from repro.sim import pack_patterns, simulate_words

    circuit = random_circuit(n_inputs=10, n_outputs=12, n_gates=80, seed=77)
    result = generate_tests(circuit, backend="podem", seed=1)
    assert result.undetectable  # the funnel topology guarantees some
    vecs = [
        dict(zip(circuit.inputs, bits))
        for bits in product((0, 1), repeat=len(circuit.inputs))
    ]
    words = pack_patterns(vecs, circuit.inputs)
    n = len(vecs)
    mask = (1 << n) - 1
    good = simulate_words(circuit, words, n)
    for fault in result.undetectable:
        forced = {fault.signal: mask if fault.value else 0}
        bad = simulate_words(circuit, words, n, forced_words=forced)
        assert all(
            not ((good[o] ^ bad[o]) & mask) for o in circuit.outputs
        ), fault


def test_summary_mentions_key_numbers(c17):
    result = generate_tests(c17, seed=1)
    text = result.summary()
    assert "coverage" in text and "patterns" in text
    assert c17.name in text


# ----------------------------------------------------------------------
# compaction
# ----------------------------------------------------------------------


def test_compaction_preserves_coverage():
    rca = ripple_carry_adder(3)
    result = generate_tests(rca, seed=5, compact=False)
    faults = list(result.target_faults)
    before = deductive_coverage(rca, list(result.patterns), faults=faults)
    compacted = compact_patterns(rca, list(result.patterns), faults)
    after = deductive_coverage(rca, compacted, faults=faults)
    assert after.detected == before.detected
    assert len(compacted) <= result.test_count


def test_compaction_drops_redundant_patterns(c17):
    # Duplicate every pattern: compaction must not keep the copies.
    result = generate_tests(c17, seed=6, compact=False)
    doubled = list(result.patterns) * 2
    compacted = compact_patterns(c17, doubled, list(result.target_faults))
    assert len(compacted) <= result.test_count


def test_compaction_of_empty_set(c17):
    assert compact_patterns(c17, [], list(full_stuck_at_universe(c17))) == []


def test_flow_compact_flag(c17):
    loose = generate_tests(c17, seed=7, compact=False)
    tight = generate_tests(c17, seed=7, compact=True)
    assert tight.test_count <= loose.test_count
    assert tight.fault_coverage == loose.fault_coverage == 1.0


def test_sim_engines_produce_identical_flows():
    """The batch fault simulator must be a drop-in for the deductive one:
    same patterns, same coverage, same compaction, for both backends."""
    circuit = random_circuit(n_inputs=7, n_outputs=4, n_gates=45, seed=19)
    batch = generate_tests(circuit, seed=4, sim_engine="batch")
    deductive = generate_tests(circuit, seed=4, sim_engine="deductive")
    assert batch.patterns == deductive.patterns
    assert batch.coverage.first_detection == deductive.coverage.first_detection
    assert batch.undetectable == deductive.undetectable


def test_compaction_engines_agree(c17):
    result = generate_tests(c17, seed=9, compact=False)
    faults = list(result.target_faults)
    patterns = [dict(p) for p in result.patterns]
    assert compact_patterns(
        c17, patterns, faults, sim_engine="batch"
    ) == compact_patterns(c17, patterns, faults, sim_engine="deductive")


def test_unknown_sim_engine_rejected(c17):
    with pytest.raises(ValueError, match="sim_engine"):
        generate_tests(c17, sim_engine="nope")


def test_all_sim_engines_produce_identical_flows():
    """Every fault-simulation engine ATPG accepts — including the
    generated kernel and the vectorized deductive one — must be a
    drop-in: same patterns, same coverage, same compaction."""
    circuit = random_circuit(n_inputs=6, n_outputs=3, n_gates=30, seed=21)
    reference = generate_tests(circuit, seed=4, sim_engine="deductive")
    for engine in ("batch", "codegen", "deductive-numpy"):
        result = generate_tests(circuit, seed=4, sim_engine=engine)
        assert result.patterns == reference.patterns, engine
        assert (
            result.coverage.first_detection
            == reference.coverage.first_detection
        ), engine
        assert result.undetectable == reference.undetectable, engine


def test_all_compaction_engines_agree(c17):
    result = generate_tests(c17, seed=9, compact=False)
    faults = list(result.target_faults)
    patterns = [dict(p) for p in result.patterns]
    reference = compact_patterns(c17, patterns, faults, sim_engine="deductive")
    for engine in ("batch", "codegen", "deductive-numpy"):
        assert (
            compact_patterns(c17, patterns, faults, sim_engine=engine)
            == reference
        ), engine
