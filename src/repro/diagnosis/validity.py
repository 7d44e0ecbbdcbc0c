"""Valid-correction and essential-candidate checking (Definitions 3 and 4).

A correction ``C`` is *valid* for a test-set when, for every test, some
assignment of values to the gates in ``C`` produces the correct value at
the erroneous output.  Because an arbitrary function replacement at a gate
is — under a fixed input vector — exactly a forced output value, validity
reduces to a per-test exists-check over ``2^|C|`` forced combinations.

The simulation checker evaluates *all* combinations in a single
bit-parallel pass (combination ``j`` lives in bit ``j`` of every signal
word); a SAT fallback covers large corrections.  These checkers are the
executable form of Lemmas 1-4 and the cross-validation oracle for BSAT.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from ..circuits.netlist import Circuit
from ..faults.models import StuckAtFault
from ..sat.cnf import CNF
from ..sat.tseitin import encode_gate
from ..sim.batchfault import _lane_mask, batch_output_lanes
from ..sim.parallel import pack_patterns_numpy, simulate_words
from ..testgen.testset import Test, TestSet
from .base import Correction

__all__ = [
    "rectifiable_by_forcing",
    "is_valid_correction",
    "valid_single_gate_corrections",
    "single_gate_rect_words",
    "has_only_essential_candidates",
    "all_valid_corrections",
]

#: Above this correction size the 2^|C| bit-parallel check yields to SAT.
_SIM_LIMIT = 14


def _counter_words(n_gates: int) -> list[int]:
    """Word ``j`` has bit ``i`` set iff combination index ``i`` sets gate ``j``.

    This lays out all ``2^n_gates`` forced-value combinations across the
    bit-parallel patterns.
    """
    n_patterns = 1 << n_gates
    words = []
    for j in range(n_gates):
        block = 1 << j
        run_mask = (1 << block) - 1
        w = 0
        i = block  # bit j of the pattern index: runs of 2^j, period 2^(j+1)
        while i < n_patterns:
            w |= run_mask << i
            i += 2 * block
        words.append(w)
    return words


def rectifiable_by_forcing(
    circuit: Circuit,
    test: Test,
    gates: Sequence[str],
    constrain_all_outputs: bool = False,
) -> bool:
    """Can forcing values at ``gates`` produce the correct response to ``test``?

    Checks all ``2^len(gates)`` combinations in one bit-parallel simulation.
    With ``constrain_all_outputs`` every output must match the test's
    ``expected_outputs`` simultaneously.
    """
    if not gates:
        # Empty correction: the implementation itself must already pass.
        gates = ()
    n = len(gates)
    if n > _SIM_LIMIT:
        return _rectifiable_sat(circuit, test, gates, constrain_all_outputs)
    n_patterns = 1 << n
    mask = (1 << n_patterns) - 1
    input_words = {
        pi: (mask if test.vector[pi] else 0) for pi in circuit.inputs
    }
    forced = dict(zip(gates, _counter_words(n)))
    values = simulate_words(circuit, input_words, n_patterns, forced_words=forced)
    if constrain_all_outputs:
        if test.expected_outputs is None:
            raise ValueError("test lacks expected_outputs")
        match = mask
        for out in circuit.outputs:
            want = mask if test.expected_outputs[out] else 0
            match &= ~(values[out] ^ want) & mask
        return match != 0
    want = mask if test.value else 0
    return (~(values[test.output] ^ want) & mask) != 0


def _rectifiable_sat(
    circuit: Circuit,
    test: Test,
    gates: Sequence[str],
    constrain_all_outputs: bool,
) -> bool:
    """SAT fallback: free the gates' outputs and ask for a correct response."""
    gate_set = set(gates)
    cnf = CNF()
    var_of: dict[str, int] = {}
    for name in circuit.topological_order():
        gate = circuit.node(name)
        var = cnf.new_var()
        var_of[name] = var
        if gate.is_input:
            cnf.add_clause([var if test.vector[name] else -var])
        elif name in gate_set:
            continue  # free output value
        else:
            encode_gate(cnf, gate.gtype, var, [var_of[f] for f in gate.fanins])
    if constrain_all_outputs:
        if test.expected_outputs is None:
            raise ValueError("test lacks expected_outputs")
        for out in circuit.outputs:
            want = test.expected_outputs[out]
            cnf.add_clause([var_of[out] if want else -var_of[out]])
    else:
        cnf.add_clause([var_of[test.output] if test.value else -var_of[test.output]])
    return bool(cnf.to_solver().solve())


def is_valid_correction(
    circuit: Circuit,
    tests: TestSet | Iterable[Test],
    gates: Iterable[str],
    constrain_all_outputs: bool = False,
) -> bool:
    """Definition 3: every test is rectifiable by changing ``gates``."""
    gate_list = tuple(gates)
    return all(
        rectifiable_by_forcing(
            circuit, test, gate_list, constrain_all_outputs
        )
        for test in tests
    )


def want_care_lanes(
    circuit: Circuit,
    tests: TestSet,
    constrain_all_outputs: bool = False,
    outputs: Sequence[str] | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """``(want, care, lanes)`` response-goal lanes for a test-set.

    Bit ``j`` of ``care[o]`` is set iff test ``j`` constrains output
    ``o``; ``want`` carries the required value there.  Single
    failing-output semantics by default; with ``constrain_all_outputs``
    every output is constrained to its golden value.  Rows follow
    ``outputs`` (default: every circuit output, in circuit order); a
    test whose failing output is not among them raises ``ValueError``.
    Shared by the single-gate screens below and the
    :class:`~repro.diagnosis.core.DiagnosisSession` caches.
    """
    m = len(tests)
    outputs = circuit.outputs if outputs is None else tuple(outputs)
    if constrain_all_outputs:
        for t in tests:
            if t.expected_outputs is None:
                raise ValueError("test lacks expected_outputs")
        # Index every output explicitly so a partial expected_outputs
        # raises KeyError exactly like the per-gate oracle, instead of
        # silently packing the missing outputs as expected-0.
        want_lanes, lanes = pack_patterns_numpy(
            [{o: t.expected_outputs[o] for o in outputs} for t in tests],
            outputs,
        )
        care = np.broadcast_to(
            _lane_mask(m, lanes), (len(outputs), lanes)
        ).copy()
    else:
        # Only the test's erroneous output is constrained: bit j of the
        # care word for output o is set iff test j observes o.
        want_lanes, lanes = pack_patterns_numpy(
            [{t.output: t.value} for t in tests], outputs
        )
        care_lanes, _ = pack_patterns_numpy(
            [{t.output: 1} for t in tests], outputs
        )
        care = np.stack([care_lanes[out] for out in outputs])
    want = np.stack([want_lanes[out] for out in outputs])
    return want, care, lanes


def _lanes_to_word(lanes: np.ndarray, mask: int) -> int:
    """Fold a uint64 lane array into one python int word (bit j = test j)."""
    raw = np.ascontiguousarray(lanes).astype("<u8", copy=False)
    return int.from_bytes(raw.tobytes(), "little") & mask


def _rows_to_words(rows: np.ndarray, mask: int) -> list[int]:
    """:func:`_lanes_to_word` for every row of a ``(n, lanes)`` array."""
    raw = np.ascontiguousarray(rows).astype("<u8", copy=False).tobytes()
    step = rows.shape[1] * 8
    return [
        int.from_bytes(raw[i : i + step], "little") & mask
        for i in range(0, len(raw), step)
    ]


def single_gate_rect_words(
    circuit: Circuit,
    tests: TestSet | Iterable[Test],
    pool: Sequence[str],
    constrain_all_outputs: bool = False,
) -> dict[str, int]:
    """Per-gate *rectification words* over ``pool``, one engine sweep.

    Bit ``j`` of the word for gate ``g`` is set iff some single forced
    value at ``g`` rectifies test ``j`` (a stuck-at signature realizes
    the correct response).  Only the outputs the tests constrain matter
    (every output under ``constrain_all_outputs``), so one fault-parallel
    sweep (:func:`repro.sim.batchfault.batch_output_lanes` with
    ``outputs=``) evaluates just ``U``, the union of their fan-in cones,
    with both stuck-at rows of every pool gate inside ``U``.  Forcing a
    gate outside ``U`` changes no constrained output, so such a gate
    rectifies exactly the tests that already pass: its word is read off
    the same sweep's fault-free row.  Every word is bit-identical to a
    sweep of the whole circuit with both rows of every pool gate.
    """
    tests = tests if isinstance(tests, TestSet) else TestSet(tuple(tests))
    pool = list(pool)
    if not len(tests) or not pool:
        return {g: 0 for g in pool}
    for gate in pool:
        if gate not in circuit.nodes:
            raise ValueError(
                f"fault site {gate!r} is not a signal of "
                f"circuit {circuit.name!r}"
            )
    mask = (1 << len(tests)) - 1
    if constrain_all_outputs:
        outputs = circuit.outputs
    else:
        observed = {t.output for t in tests}
        outputs = tuple(o for o in circuit.outputs if o in observed)
    want, care, _ = want_care_lanes(
        circuit, tests, constrain_all_outputs, outputs
    )
    cone = frozenset().union(*map(circuit.fanin_cone, outputs))
    swept = [gate for gate in pool if gate in cone]
    faults = [
        StuckAtFault(gate, value) for gate in swept for value in (0, 1)
    ]
    fault_lanes, good, _ = batch_output_lanes(
        circuit, faults, tests.vectors(), outputs=outputs
    )
    # A set bit marks a test the fault-free circuit fails.
    failing = np.bitwise_or.reduce((good ^ want) & care, axis=0)
    words = dict.fromkeys(pool, mask & ~_lanes_to_word(failing, mask))
    # One word per (row, lane): a set bit marks a test the forced value
    # fails to rectify.
    miss = np.bitwise_or.reduce((fault_lanes ^ want) & care, axis=1)
    # Candidate {g} fails a test only when *both* forced values miss it.
    both = _rows_to_words(miss[0::2] & miss[1::2], mask)
    for gate, fails in zip(swept, both):
        words[gate] = mask & ~fails
    return words


def valid_single_gate_corrections(
    circuit: Circuit,
    tests: TestSet | Iterable[Test],
    pool: Sequence[str],
    constrain_all_outputs: bool = False,
) -> list[str]:
    """All gates of ``pool`` that are valid size-1 corrections, batched.

    Semantically ``[g for g in pool if is_valid_correction(circuit, tests,
    (g,))]``, but vectorized through :func:`single_gate_rect_words`: a
    gate is valid alone iff its rectification word covers every test.
    Pool order is preserved.
    """
    tests = tests if isinstance(tests, TestSet) else TestSet(tuple(tests))
    pool = list(pool)
    if not len(tests) or not pool:
        return pool
    words = single_gate_rect_words(
        circuit, tests, pool, constrain_all_outputs
    )
    mask = (1 << len(tests)) - 1
    return [g for g in pool if words[g] == mask]


def has_only_essential_candidates(
    circuit: Circuit,
    tests: TestSet | Iterable[Test],
    gates: Iterable[str],
    constrain_all_outputs: bool = False,
) -> bool:
    """Definition 4: valid, and no proper subset of it is valid.

    (Checking immediate one-removals suffices: validity is monotone — any
    valid subset extends to a valid ``C \\ {g}``.)
    """
    tests = TestSet(tuple(tests)) if not isinstance(tests, TestSet) else tests
    gate_list = tuple(gates)
    if not is_valid_correction(
        circuit, tests, gate_list, constrain_all_outputs
    ):
        return False
    for g in gate_list:
        rest = tuple(x for x in gate_list if x != g)
        if is_valid_correction(circuit, tests, rest, constrain_all_outputs):
            return False
    return True


def all_valid_corrections(
    circuit: Circuit,
    tests: TestSet,
    k: int,
    pool: Sequence[str] | None = None,
    essential_only: bool = True,
    constrain_all_outputs: bool = False,
) -> list[Correction]:
    """Exhaustive reference enumeration of valid corrections up to size ``k``.

    Exponential in ``k`` over ``pool`` (default: all gates) — intended for
    the test-suite, where it is the ground truth BSAT must match exactly.
    With ``essential_only`` the result contains exactly the corrections with
    only essential candidates (what BSAT returns per Lemma 3).
    """
    gate_pool = tuple(pool) if pool is not None else circuit.gate_names
    found: list[Correction] = []
    for size in range(1, k + 1):
        for subset in combinations(gate_pool, size):
            candidate = frozenset(subset)
            if essential_only and any(sol <= candidate for sol in found):
                continue
            if is_valid_correction(
                circuit, tests, subset, constrain_all_outputs
            ):
                found.append(candidate)
    return found
