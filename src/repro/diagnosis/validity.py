"""Valid-correction and essential-candidate checking (Definitions 3 and 4).

A correction ``C`` is *valid* for a test-set when, for every test, some
assignment of values to the gates in ``C`` produces the correct value at
the erroneous output.  Because an arbitrary function replacement at a gate
is — under a fixed input vector — exactly a forced output value, validity
reduces to a per-test exists-check over ``2^|C|`` forced combinations.

One function answers that check for a whole test-set:
:func:`rect_word_by_forcing`.  Forcing a gate outside the fan-in cones
of the outputs the tests constrain cannot change those outputs, so only
the ``n'`` gates of ``C`` inside the cones are forced.  Every test still
to be checked gets its own block of ``2^n'`` bit-parallel patterns
(pattern ``block * 2^n' + combination``), and one cone-restricted
:func:`~repro.sim.parallel.simulate_words` pass evaluates them all; a
test is rectifiable iff some pattern of its block matches.  A SAT
fallback, encoding only the constrained cones, covers ``n'`` above
``_SIM_LIMIT``.  :func:`rectifiable_by_forcing` (one test) and
:func:`is_valid_correction` (every test) are views of it.  These
checkers are the executable form of Lemmas 1-4 and the
cross-validation oracle for BSAT.
"""

from __future__ import annotations

from itertools import combinations, compress
from typing import Iterable, Sequence

import numpy as np

from ..circuits.netlist import Circuit
from ..sat.cnf import CNF
from ..sat.tseitin import encode_gate
# batch_output_lanes is not called here.  It stays a name of this module
# because tracers such as perfbench/spans.py wrap it by name.
from ..sim.batchfault import _lane_mask, batch_output_lanes  # noqa: F401
from ..sim.compiled import compile_circuit
from ..sim.parallel import (
    _pack_lanes,
    _rows_to_words,
    pack_patterns,
    simulate_words,
)
from ..testgen.testset import Test, TestSet
from .base import Correction

__all__ = [
    "rect_word_by_forcing",
    "rectifiable_by_forcing",
    "is_valid_correction",
    "valid_single_gate_corrections",
    "single_gate_rect_words",
    "has_only_essential_candidates",
    "all_valid_corrections",
]

#: Above this many forced gates the 2^n' bit-parallel check yields to SAT.
_SIM_LIMIT = 14

#: Widest packed word one oracle pass simulates, in patterns: the tests
#: to check are split into chunks of at most ``_PACK_WIDTH >> n'``.
_PACK_WIDTH = 1 << 16
assert _PACK_WIDTH >= 1 << _SIM_LIMIT  # one block always fits

#: Cap on one singleton-sweep pass, in bits of signal words (row blocks
#: times signals in the cone): longer test sets are swept in chunks of
#: tests, so memory is bounded by the design, not by the test count.
_SWEEP_BITS = 1 << 30


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


def rect_word_by_forcing(
    circuit: Circuit,
    tests: Sequence[Test],
    gates: Iterable[str],
    constrain_all_outputs: bool = False,
    known: int = 0,
) -> int:
    """Rectification word of ``gates``: bit ``j`` set iff forcing values
    at ``gates`` can produce the correct response to ``tests[j]``.

    Bits already set in ``known`` are kept and their tests are not
    checked (a caller's cheaper screen, e.g. the singleton words).  The
    other tests are *pending*.  Only the gates inside the union of the
    fan-in cones of the pending tests' observed outputs (every output
    under ``constrain_all_outputs``) are forced; with ``n'`` of them,
    each pending test gets its own block of ``2^n'`` patterns in one
    cone-restricted :func:`~repro.sim.parallel.simulate_words` pass per
    chunk of tests (``_PACK_WIDTH`` caps the packed width).  A forced
    primary input overrides the test's vector.  Above ``_SIM_LIMIT``
    forced gates each pending test is one SAT call instead.

    With ``constrain_all_outputs`` every output must match a pending
    test's ``expected_outputs`` simultaneously; a pending test without
    them raises ``ValueError``.  A name that is no signal of the circuit
    raises :class:`~repro.circuits.netlist.CircuitError`.
    """
    gate_list = tuple(dict.fromkeys(gates))
    for gate in gate_list:
        circuit.node(gate)
    pending = [j for j in range(len(tests)) if not (known >> j) & 1]
    word = known
    if not pending:
        return word
    if constrain_all_outputs:
        for j in pending:
            if tests[j].expected_outputs is None:
                raise ValueError("test lacks expected_outputs")
        outputs = circuit.outputs
    else:
        outputs = tuple(dict.fromkeys(tests[j].output for j in pending))
    comp = compile_circuit(circuit)
    in_cone = comp.cone_mask(outputs).tolist()
    index = comp.index
    forced = [gate for gate in gate_list if in_cone[index[gate]]]
    n = len(forced)
    if n > _SIM_LIMIT:
        for j in pending:
            if _rectifiable_sat(
                circuit, tests[j], forced, constrain_all_outputs
            ):
                word |= 1 << j
        return word
    counters = dict(zip(forced, _counter_words(n)))
    inputs = [pi for pi in circuit.inputs if in_cone[index[pi]]]
    per_chunk = _PACK_WIDTH >> n
    for start in range(0, len(pending), per_chunk):
        chunk = [tests[j] for j in pending[start : start + per_chunk]]
        hits = _packed_matches(
            circuit, chunk, counters, outputs, inputs, constrain_all_outputs
        )
        for j, hit in zip(pending[start:], hits):
            if hit:
                word |= 1 << j
    return word


def _packed_matches(
    circuit: Circuit,
    tests: Sequence[Test],
    counters: dict[str, int],
    outputs: Sequence[str],
    inputs: Sequence[str],
    constrain_all_outputs: bool,
) -> np.ndarray:
    """One packed pass over ``tests``: entry ``b`` is True iff some
    forced combination in block ``b`` (test ``b``) matches its goal.
    ``counters`` maps each forced gate to its one-block counter word;
    ``inputs`` are the primary inputs inside the outputs' cones."""
    block = 1 << len(counters)
    n_patterns = len(tests) * block
    fill = (1 << block) - 1

    def spread(bits: Iterable[int]) -> int:
        # Bit b*block stands for block b; the product fills the block.
        sparse = 0
        for b, bit in enumerate(bits):
            if bit:
                sparse |= 1 << (b * block)
        return sparse * fill

    mask = (1 << n_patterns) - 1
    repeat = mask // fill  # bit b*block set for every block b
    input_words = {pi: spread(t.vector[pi] for t in tests) for pi in inputs}
    forced_words = {g: word * repeat for g, word in counters.items()}
    values = simulate_words(
        circuit, input_words, n_patterns,
        forced_words=forced_words, outputs=outputs,
    )
    mismatch = 0
    for out in outputs:
        if constrain_all_outputs:
            want = spread(t.expected_outputs[out] for t in tests)
            mismatch |= values[out] ^ want
        else:
            care = spread(t.output == out for t in tests)
            want = spread(t.output == out and t.value for t in tests)
            mismatch |= (values[out] ^ want) & care
    match = ~mismatch & mask
    raw = np.frombuffer(
        match.to_bytes((n_patterns + 7) // 8, "little"), dtype=np.uint8
    )
    bits = np.unpackbits(raw, bitorder="little")[:n_patterns]
    return bits.reshape(len(tests), block).any(axis=1)


def rectifiable_by_forcing(
    circuit: Circuit,
    test: Test,
    gates: Sequence[str],
    constrain_all_outputs: bool = False,
) -> bool:
    """Can forcing values at ``gates`` produce the correct response to ``test``?

    The one-test view of :func:`rect_word_by_forcing`: all ``2^n'``
    combinations of the gates inside the observed cone(s) in one
    bit-parallel pass (SAT above ``_SIM_LIMIT``).  With
    ``constrain_all_outputs`` every output must match the test's
    ``expected_outputs`` simultaneously.
    """
    return bool(
        rect_word_by_forcing(circuit, (test,), gates, constrain_all_outputs)
    )


def _rectifiable_sat(
    circuit: Circuit,
    test: Test,
    gates: Sequence[str],
    constrain_all_outputs: bool,
) -> bool:
    """SAT fallback: free the gates' values and ask for a correct response.

    Only the fan-in cone of the constrained outputs (the observed one,
    or every output under ``constrain_all_outputs``) is encoded: nothing
    outside it can change them.
    """
    if constrain_all_outputs:
        if test.expected_outputs is None:
            raise ValueError("test lacks expected_outputs")
        goal = {out: test.expected_outputs[out] for out in circuit.outputs}
    else:
        goal = {test.output: test.value}
    cone = frozenset().union(*map(circuit.fanin_cone, goal))
    gate_set = set(gates)
    cnf = CNF()
    var_of: dict[str, int] = {}
    for name in circuit.topological_order():
        if name not in cone:
            continue
        gate = circuit.node(name)
        var = cnf.new_var()
        var_of[name] = var
        if name in gate_set:
            continue  # free value (a forced input overrides the vector)
        if gate.is_input:
            cnf.add_clause([var if test.vector[name] else -var])
        else:
            encode_gate(cnf, gate.gtype, var, [var_of[f] for f in gate.fanins])
    for out, want in goal.items():
        cnf.add_clause([var_of[out] if want else -var_of[out]])
    return bool(cnf.to_solver().solve())


def is_valid_correction(
    circuit: Circuit,
    tests: TestSet | Iterable[Test],
    gates: Iterable[str],
    constrain_all_outputs: bool = False,
) -> bool:
    """Definition 3: every test is rectifiable by changing ``gates``
    (the all-tests view of :func:`rect_word_by_forcing`)."""
    tests = tuple(tests)
    word = rect_word_by_forcing(circuit, tests, gates, constrain_all_outputs)
    return word == (1 << len(tests)) - 1


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
        want, lanes = _pack_lanes(
            [{o: t.expected_outputs[o] for o in outputs} for t in tests],
            outputs,
        )
        care = np.broadcast_to(
            _lane_mask(m, lanes), (len(outputs), lanes)
        ).copy()
    else:
        # Only the test's erroneous output is constrained: bit j of the
        # care word for output o is set iff test j observes o.
        want, lanes = _pack_lanes(
            [{t.output: t.value} for t in tests], outputs
        )
        care, _ = _pack_lanes([{t.output: 1} for t in tests], outputs)
    return want, care, lanes


def _lanes_to_word(lanes: np.ndarray, mask: int) -> int:
    """Fold a uint64 lane array into one python int word (bit j = test j)."""
    raw = np.ascontiguousarray(lanes).astype("<u8", copy=False)
    return int.from_bytes(raw.tobytes(), "little") & mask


def single_gate_rect_words(
    circuit: Circuit,
    tests: TestSet | Iterable[Test],
    pool: Sequence[str],
    constrain_all_outputs: bool = False,
) -> dict[str, int]:
    """Per-gate *rectification words* over ``pool``, one simulator pass.

    Bit ``j`` of the word for gate ``g`` is set iff some single forced
    value at ``g`` rectifies test ``j``.  Only the outputs the tests
    constrain matter (every output under ``constrain_all_outputs``), so
    the pass evaluates just ``U``, the union of their fan-in cones.  Of
    the two forced values at ``g``, the one equal to the fault-free
    value reproduces the fault-free circuit: it rectifies exactly the
    tests that already pass.  So only the other one matters for a
    failing test, the gate's *flip*:
    ``word(g) = passing | (failing & ~miss(flip of g))``.

    The pass is one cone-restricted
    :func:`~repro.sim.parallel.simulate_words` call on words of ``R``
    row blocks of ``S`` bits (``S``: ``len(tests)`` rounded up to whole
    bytes).  Block ``r < R - 1`` is the flip row of the ``r``-th pool
    gate inside ``U``: its ``xor_words`` entry complements the gate in
    that block only, after the gate is evaluated, and the gate's cone is
    fault-free within the block, so the flip is exact.  The last block
    is the fault-free row.  Each input's packed test word is copied into
    every block by one multiplication.  A test set whose pass would
    exceed ``_SWEEP_BITS`` is swept in chunks of tests, one pass each.
    Forcing a gate outside ``U`` changes no constrained output, so it
    gets no row and its word is the passing word.  Every word is
    bit-identical to a sweep of the whole circuit with both stuck-at
    rows of every pool gate.  A pool name that is no signal of the
    circuit raises ``ValueError``.  The de-duplicated pool and its
    compiled-index array are cached per compiled design, keyed on the
    identity of the pool tuple
    (:meth:`~repro.sim.compiled.CompiledCircuit.pool_index`): every
    device of a design sweeps the same ``gate_names`` tuple, so only
    the cone filter and the result dict scale with the pool per device.
    """
    tests = tests if isinstance(tests, TestSet) else TestSet(tuple(tests))
    if not len(tests) or not pool:
        return dict.fromkeys(pool, 0)
    comp = compile_circuit(circuit)
    try:
        pool, indices = comp.pool_index(pool)  # one flip row per gate
    except KeyError as exc:
        raise ValueError(
            f"pool gate {exc.args[0]!r} is not a signal of circuit "
            f"{circuit.name!r}"
        ) from None
    if constrain_all_outputs:
        outputs = circuit.outputs
    else:
        observed = {t.output for t in tests}
        outputs = tuple(o for o in circuit.outputs if o in observed)
    cone = comp.cone_mask(outputs)
    swept = list(compress(pool, cone[indices].tolist()))
    in_cone = cone.tolist()
    inputs = [pi for pi in circuit.inputs if in_cone[comp.index[pi]]]
    cells = (len(swept) + 1) * max(1, sum(in_cone))
    per_pass = max(8, _SWEEP_BITS // cells // 8 * 8)
    row_words: list[int] | None = None
    passing = 0
    for start in range(0, len(tests), per_pass):
        chunk = TestSet(tests.tests[start : start + per_pass])
        rows, chunk_passing = _flip_rows(
            circuit, chunk, swept, outputs, inputs, constrain_all_outputs
        )
        passing |= chunk_passing << start
        row_words = rows if row_words is None else [
            word | row << start for word, row in zip(row_words, rows)
        ]
    words = dict.fromkeys(pool, passing)
    words.update(zip(swept, row_words))
    return words


def _flip_rows(
    circuit: Circuit,
    tests: TestSet,
    swept: Sequence[str],
    outputs: Sequence[str],
    inputs: Sequence[str],
    constrain_all_outputs: bool,
) -> tuple[list[int], int]:
    """One row-packed pass of :func:`single_gate_rect_words` over
    ``tests``: the word of every gate of ``swept`` and the passing word.
    ``inputs`` are the primary inputs inside the outputs' cones."""
    m = len(tests)
    mask = (1 << m) - 1
    width = (m + 7) // 8  # row stride in bytes
    stride = 8 * width
    rows = len(swept) + 1
    # Bit r * stride set for every row r: x * ones copies an S-bit x
    # into every row block.
    ones = int.from_bytes(b"\x01".ljust(width, b"\0") * rows, "little")
    block = (1 << stride) - 1
    packed = pack_patterns([t.vector for t in tests], circuit.inputs)
    values = simulate_words(
        circuit,
        {pi: packed[pi] * ones for pi in inputs},
        rows * stride,
        outputs=outputs,
        xor_words={g: block << (r * stride) for r, g in enumerate(swept)},
    )
    want, care, _ = want_care_lanes(
        circuit, tests, constrain_all_outputs, outputs
    )
    # A set bit marks a test its row leaves failing.
    miss = 0
    for out, want_word, care_word in zip(
        outputs, _rows_to_words(want, mask), _rows_to_words(care, mask)
    ):
        miss |= (values[out] ^ want_word * ones) & care_word * ones
    failing = miss >> (len(swept) * stride)  # the fault-free row
    # word(g) = passing | (failing & ~miss(g)) = mask ^ (miss(g) & failing)
    raw = ((miss & failing * ones) ^ mask * ones).to_bytes(
        rows * width, "little"
    )
    # Each row widened to whole uint64 lanes, then folded into an int.
    lanes = -(-width // 8)
    padded = np.zeros((rows, 8 * lanes), dtype=np.uint8)
    padded[:, :width] = np.frombuffer(raw, dtype=np.uint8).reshape(rows, width)
    return _rows_to_words(padded.view("<u8"), mask)[:-1], mask ^ failing


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
