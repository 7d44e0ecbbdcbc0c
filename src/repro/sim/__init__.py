"""Simulation substrate: scalar, bit-parallel, ternary, event-driven and
fault-batched engines.

All engines agree on two-valued semantics (asserted by cross-engine property
tests) and support *forced values* — the primitive behind the paper's
simulation-based effect analysis.

Engine selection guide
----------------------

* :func:`simulate` / :func:`output_values` — one scalar pass, one pattern;
  the ground-truth oracle everything else is tested against.
* :func:`simulate_words` — bit-parallel over patterns on Python's
  unbounded ints (no 64-pattern limit), dispatched through the design's
  index step table (:attr:`CompiledCircuit.steps`); best for up to a
  few hundred patterns on one circuit configuration, or for one wide
  word of many blocks of patterns.  ``outputs=`` evaluates only those
  signals' fan-in cones (:meth:`CompiledCircuit.cone_mask`).
  ``forced_words=`` overrides a signal everywhere; ``xor_words=``
  complements it in the blocks its word covers, so one pass carries one
  *flip row* per signal.  Both diagnosis simulations are such passes:
  the consistency oracle
  (:func:`repro.diagnosis.validity.rect_word_by_forcing`) packs every
  open test's ``2^n'`` forced combinations into one word, and the
  singleton sweep (:func:`repro.diagnosis.validity.
  single_gate_rect_words`) packs one byte-aligned row block of the tests
  per pool gate inside the observed cones, plus the fault-free row.
* :func:`simulate_words_numpy` — uint64-lane vectorization of the same
  idea, for thousands of patterns.
* :mod:`repro.sim.batchfault` (:func:`fault_signatures_batch`,
  :func:`batch_detected`, :func:`batch_fault_coverage`,
  :func:`exact_match_faults`) — fault-parallel × pattern-parallel: F
  stuck-at faults stacked along a numpy batch axis and swept in one
  vectorized pass, with fault dropping at pattern-block granularity.
  This is the fast path behind ``FaultDictionary``, ``diagnose_stuck_at``
  and the ATPG coverage loop (their ``engine`` / ``sim_engine``
  parameters select it; the serial engines remain the equivalence
  oracle).  The diagnosis singleton sweep is not a batchfault sweep: at
  its 8-test width each ufunc call on a ``(rows, 1)`` lane array is
  almost all fixed overhead, and one :func:`simulate_words` pass with a
  flip row per gate is 2-4× faster on sim1423/sim6669 devices.
* :func:`deductive_fault_lists` — the classic deductive fault simulator
  (one pass per pattern, all faults at once); pure-Python set propagation,
  kept as the reference the vectorized port's per-signal fault lists are
  tested against.
* :mod:`repro.sim.deductive_numpy` (:func:`deductive_fault_lists_numpy`,
  :func:`deductive_detected_numpy`, :func:`deductive_coverage_numpy`) —
  the vectorized port of the deductive engine: fault lists are uint64
  bitset matrices and whole pattern blocks propagate in one netlist
  pass.  The engine of choice when per-signal fault *lists* (not just
  output detections) are needed at ATPG scale; ≥5× the pure-Python
  propagator on the 600-gate workload
  (``benchmarks/bench_faultsim_engines.py`` records the factor).
  Single-pattern calls (the ATPG drop query: one vector × many faults)
  dispatch to a dedicated 1-lane big-int path, so the drop loop no
  longer falls back to the pure-Python propagator for that shape.
* :class:`BatchEventSimulator` — incremental re-evaluation: force/unforce
  whole uint64 pattern words at once, re-evaluating only the fanout
  cone.  Backs the :class:`~repro.diagnosis.core.DiagnosisSession`
  what-if loop of :mod:`repro.diagnosis.advanced_sim`.  Not a
  fault-simulation engine: a force/unforce cycle per fault swept the
  663-gate coverage workload ~13× slower than batchfault.  Nor is it the
  singleton candidate screen: one row-packed :func:`simulate_words`
  pass over the observed outputs' fan-in cones, with one flip row per
  gate, beats a force/unforce cycle per gate.
* :mod:`repro.sim.codegen` (:func:`compile_kernel`,
  :func:`codegen_detected`, :func:`codegen_fault_coverage`,
  :func:`exact_match_faults_codegen`) — the compiled floor of the
  batchfault sweep: one generated straight-line numpy kernel per
  circuit (levelized fused ops, liveness-based slot reuse, grouped
  fault forcing), cached on the circuit and invalidated with its
  compiled form.  Pays one kernel build (~tens of ms) on first use,
  then sweeps ~2× faster than ``batchfault``
  (``benchmarks/bench_faultsim_engines.py`` gates the ratio).  The
  engine of choice when many sweeps hit the *same* circuit —
  ``FaultDictionary(engine="codegen")`` / ATPG ``sim_engine="codegen"``
  opt in; bit-identical to every interpreted engine.  Pure numpy: no
  optional dependency.

Picking an engine: scalar/ternary for single oracles, ``simulate_words``
(or its numpy twin) for many patterns on a *fixed* circuit configuration,
batchfault when many faults must be swept anyway, codegen when those
sweeps repeat on one circuit (dictionary builds, ATPG drop loops),
deductive/-numpy when the per-signal fault lists themselves matter, and
the event simulator when changes arrive one at a time and fanout cones
are small.  All fault engines are bit-identical —
``tests/sim/test_cross_engine.py`` holds the full differential matrix —
and :data:`repro.sim.engines.SIM_ENGINES` is the only table of the
engine names ``FaultDictionary``/``diagnose_stuck_at`` (``engine=``) and
``generate_tests``/``compact_patterns`` (``sim_engine=``) accept, each
row with the reason it stays (``python -m repro engines`` prints it).
"""

from .compiled import CompiledCircuit, compile_circuit
from .logicsim import simulate, output_values, simulate_sequence
from .parallel import (
    pack_patterns,
    pack_patterns_numpy,
    unpack_word,
    simulate_words,
    simulate_patterns,
    simulate_words_numpy,
)
from .threevalued import simulate_ternary, x_reaches, x_propagation_set
from .faultsim import (
    response,
    failing_outputs,
    fault_table,
    detects,
    stuck_at_response,
)
from .deductive import (
    deductive_fault_lists,
    deductive_detected,
    FaultCoverage,
    deductive_coverage,
)
from .deductive_numpy import (
    deductive_fault_lists_numpy,
    deductive_detected_numpy,
    deductive_detected_many,
    deductive_coverage_numpy,
)
from .batchevent import BatchEventSimulator
from .batchfault import (
    fault_signatures_batch,
    lanes_to_words,
    pack_responses,
    popcount,
    batch_output_lanes,
    batch_detected,
    batch_fault_coverage,
    exact_match_faults,
)
from .codegen import (
    CodegenKernel,
    compile_kernel,
    codegen_source,
    codegen_output_lanes,
    fault_signatures_codegen,
    codegen_detected,
    codegen_fault_coverage,
    exact_match_faults_codegen,
)
from .engines import (
    SIM_ENGINES,
    available_engines,
    engine_summary,
    resolve_engine,
)

__all__ = [
    "CompiledCircuit",
    "compile_circuit",
    "simulate",
    "output_values",
    "simulate_sequence",
    "pack_patterns",
    "pack_patterns_numpy",
    "unpack_word",
    "simulate_words",
    "simulate_patterns",
    "simulate_words_numpy",
    "simulate_ternary",
    "x_reaches",
    "x_propagation_set",
    "response",
    "failing_outputs",
    "fault_table",
    "detects",
    "stuck_at_response",
    "deductive_fault_lists",
    "deductive_detected",
    "FaultCoverage",
    "deductive_coverage",
    "deductive_fault_lists_numpy",
    "deductive_detected_numpy",
    "deductive_detected_many",
    "deductive_coverage_numpy",
    "BatchEventSimulator",
    "fault_signatures_batch",
    "lanes_to_words",
    "pack_responses",
    "popcount",
    "batch_output_lanes",
    "batch_detected",
    "batch_fault_coverage",
    "exact_match_faults",
    "CodegenKernel",
    "compile_kernel",
    "codegen_source",
    "codegen_output_lanes",
    "fault_signatures_codegen",
    "codegen_detected",
    "codegen_fault_coverage",
    "exact_match_faults_codegen",
    "SIM_ENGINES",
    "available_engines",
    "engine_summary",
    "resolve_engine",
]
