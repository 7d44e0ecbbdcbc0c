"""Substrate bench — the production-test ATPG flow (§1 motivation).

Runs the full flow (collapse → generate → drop → compact) with both
engines on three circuits and reports pattern counts, coverage and the
collapse ratio.  PODEM and SAT must agree on coverage; their runtimes
differ (structural search vs CNF solving) — this quantifies the trade-off
for the EXPERIMENTS.md record.

Artifact: ``benchmarks/out/atpg.txt``.
"""

from conftest import write_artifact

from repro.circuits import random_circuit
from repro.circuits.library import c17, ripple_carry_adder
from repro.faults import collapse_faults
from repro.testgen import generate_tests


def _circuits():
    # Note on the random circuit: its output-funnel trees make many faults
    # *provably* redundant (the redundancy verdicts are exhaustively
    # validated in the test-suite), so fault efficiency — not raw coverage
    # — is the meaningful column there.  c17 and the adder are irredundant
    # and must reach 100% coverage.
    return [
        c17(),
        ripple_carry_adder(8),
        random_circuit(n_inputs=12, n_outputs=20, n_gates=150, seed=77),
    ]


def _flow(backend):
    rows = []
    for circuit in _circuits():
        result = generate_tests(circuit, backend=backend, seed=1)
        col = collapse_faults(circuit)
        rows.append(
            (
                circuit.name,
                len(col.universe),
                len(result.target_faults),
                result.test_count,
                result.fault_coverage,
                result.fault_efficiency,
            )
        )
    return rows


def test_atpg_podem_flow(benchmark):
    rows = benchmark.pedantic(lambda: _flow("podem"), rounds=1, iterations=1)
    lines = [
        "ATPG flow (PODEM backend)",
        f"{'circuit':12} {'universe':>8} {'collapsed':>9} {'tests':>6} "
        f"{'coverage':>9} {'efficiency':>10}",
    ]
    for name, universe, collapsed, tests, cov, eff in rows:
        lines.append(
            f"{name:12} {universe:>8} {collapsed:>9} {tests:>6} "
            f"{100 * cov:>8.1f}% {100 * eff:>9.1f}%"
        )
    write_artifact("atpg.txt", "\n".join(lines))
    for _name, universe, collapsed, _tests, _cov, eff in rows:
        assert collapsed < universe  # collapsing must shrink the list
        assert eff == 1.0  # every fault resolved (no aborts)


def test_atpg_sat_flow(benchmark):
    rows = benchmark.pedantic(lambda: _flow("sat"), rounds=1, iterations=1)
    podem_rows = _flow("podem")
    for sat_row, podem_row in zip(rows, podem_rows):
        # Backends must agree on achievable coverage, fault by fault list.
        assert sat_row[4] == podem_row[4], sat_row[0]


def test_podem_single_fault(benchmark):
    from repro.faults import StuckAtFault
    from repro.testgen import analyze_testability, podem

    circuit = random_circuit(n_inputs=12, n_outputs=20, n_gates=150, seed=77)
    measures = analyze_testability(circuit)
    fault = StuckAtFault(circuit.gate_names[75], 1)

    def run():
        return podem(circuit, fault, testability=measures)

    outcome = benchmark(run)
    assert outcome.status is not None


def test_deductive_fault_sim_pass(benchmark):
    import random as _random

    from repro.sim import deductive_detected

    circuit = random_circuit(n_inputs=12, n_outputs=20, n_gates=150, seed=77)
    rng = _random.Random(5)
    vector = {pi: rng.getrandbits(1) for pi in circuit.inputs}

    detected = benchmark(lambda: deductive_detected(circuit, vector))
    assert detected


def test_atpg_sim_engine_speedup(benchmark):
    """ATPG flow (generate → drop → compact) per fault-simulation engine.

    All engines must emit identical pattern sets and coverage; the
    artifact records where the vectorized engines pay on the full flow
    (dominant cost there is per-vector dropping, a single-pattern
    workload).  Artifact: ``benchmarks/out/atpg_engines.txt``.
    """
    import time

    from repro.circuits import random_circuit as _rc
    from repro.sim.engines import ATPG, available_engines
    from repro.testgen import generate_tests as _gen

    circuit = _rc(n_inputs=12, n_outputs=20, n_gates=150, seed=77)
    timings = {}
    results = {}

    def run_all():
        for engine in available_engines(ATPG):
            t0 = time.perf_counter()
            results[engine] = _gen(circuit, seed=1, sim_engine=engine)
            timings[engine] = time.perf_counter() - t0
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    reference = results["deductive"]
    for engine, result in results.items():
        assert result.patterns == reference.patterns, engine
        assert (
            result.coverage.first_detection
            == reference.coverage.first_detection
        ), engine
    base = timings["deductive"]
    lines = [
        f"ATPG flow ({circuit.name}) by sim_engine",
        f"{'engine':16} {'time':>8} {'vs deductive':>12}",
    ]
    for engine, t in timings.items():
        lines.append(f"{engine:16} {t * 1e3:>6.0f}ms {base / max(t, 1e-9):>11.2f}x")
    write_artifact("atpg_engines.txt", "\n".join(lines))
