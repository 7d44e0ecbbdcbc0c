"""Fault-parallel × pattern-parallel stuck-at simulation on numpy lanes.

The serial engines in this package simulate one fault per netlist pass
(:func:`repro.diagnosis.stuckat.fault_signature`,
:func:`repro.sim.faultsim.stuck_at_response`), which makes the dominant
diagnosis/ATPG loop O(faults × gates × patterns) in pure Python.  This
module batches the *fault* axis on top of the uint64 *pattern* lanes of
:func:`repro.sim.parallel.simulate_words_numpy`:

* every signal is a ``(rows, lanes)`` uint64 array — row ``k`` is the
  circuit with fault ``k`` active, bit ``b`` of lane ``l`` is pattern
  ``64*l + b``;
* one extra trailing row carries the fault-free circuit, so the good
  response falls out of the same sweep;
* fault ``k``'s forced value is applied only in row ``k``, at the fault
  site, as the site's value is assigned — exactly where the serial engine
  applies its ``forced`` override, so results are bit-identical (the
  cross-engine property suite asserts this).

A full sweep is a handful of vectorized numpy passes instead of one
Python netlist walk per fault.  On the 600-gate / 1382-fault /
256-pattern production-test workload this is >10× faster than the serial
path (``benchmarks/bench_stuckat.py`` records the factor).

*Fault dropping* is supported at pattern-block granularity: the
pattern set is processed in blocks of lanes, and faults whose output
words are already resolved — detected (:func:`batch_fault_coverage`) or
mismatching the observed responses (:func:`exact_match_faults`) — are
masked out of the batch for all subsequent blocks, shrinking the row
count as the sweep progresses.

Within the vectorized lineup this engine owns the *sweep-everything*
workload.  When only per-change increments are needed, the batched event
simulator (:mod:`repro.sim.batchevent`) re-evaluates fanout cones instead;
when per-signal fault lists are needed, the bitset deductive engine
(:mod:`repro.sim.deductive_numpy`) propagates them directly.  All three
are bit-identical on shared queries (``tests/sim/test_cross_engine.py``).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..circuits.gates import GateType
from ..circuits.netlist import Circuit
from ..faults.collapse import full_stuck_at_universe
from ..faults.models import StuckAtFault
from .compiled import CompiledCircuit, compile_circuit
from .deductive import FaultCoverage
from .parallel import pack_patterns_numpy

__all__ = [
    "fault_signatures_batch",
    "lanes_to_words",
    "pack_responses",
    "first_set_bit",
    "batch_output_lanes",
    "batch_detected",
    "batch_fault_coverage",
    "exact_match_faults",
]

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Soft cap on the sweep buffer (bytes); longer pattern sets are swept in
#: lane-aligned blocks and concatenated.
_SWEEP_BUDGET = 256 << 20


def _popcount_fallback(a: np.ndarray) -> np.ndarray:
    """Per-element popcount for numpy < 2.0 (no ``np.bitwise_count``)."""
    b = np.ascontiguousarray(a)
    u8 = b.view(np.uint8).reshape(b.shape + (8,))
    return np.unpackbits(u8, axis=-1).sum(axis=-1, dtype=np.uint64)


popcount = getattr(np, "bitwise_count", _popcount_fallback)


def first_set_bit(words: np.ndarray) -> int | None:
    """Pattern index of the lowest set bit of a lane array, or ``None``.

    The shared first-detection scan of the batched coverage engines: bit
    ``b`` of lane ``l`` is pattern ``64*l + b``.
    """
    for lane, word in enumerate(words):
        w = int(word)
        if w:
            return 64 * lane + (w & -w).bit_length() - 1
    return None


def _fault_rows(
    comp: CompiledCircuit, faults: Sequence[StuckAtFault]
) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
    """Map signal index -> batch rows forced to 0 / forced to 1."""
    rows0: dict[int, list[int]] = {}
    rows1: dict[int, list[int]] = {}
    for row, fault in enumerate(faults):
        idx = comp.index.get(fault.signal)
        if idx is None:
            raise ValueError(
                f"fault site {fault.signal!r} is not a signal of "
                f"circuit {comp.circuit.name!r}"
            )
        (rows1 if fault.value else rows0).setdefault(idx, []).append(row)
    return rows0, rows1


_GATE_OPS = {
    GateType.AND: (np.bitwise_and, False),
    GateType.NAND: (np.bitwise_and, True),
    GateType.OR: (np.bitwise_or, False),
    GateType.NOR: (np.bitwise_or, True),
    GateType.XOR: (np.bitwise_xor, False),
    GateType.XNOR: (np.bitwise_xor, True),
}


def _sweep(
    comp: CompiledCircuit,
    faults: Sequence[StuckAtFault],
    input_lanes: Mapping[str, np.ndarray],
    lanes: int,
) -> np.ndarray:
    """One batched netlist pass.

    Returns a ``(n_signals, rows, lanes)`` uint64 array; row ``k <
    len(faults)`` has fault ``k`` forced, the final row is fault-free.
    All gate evaluations write in place into the one preallocated buffer —
    no per-gate allocation, which keeps the cold-cache sweep as fast as a
    warm one.
    """
    rows = len(faults) + 1
    rows0, rows1 = _fault_rows(comp, faults)
    buf = np.empty((comp.n, rows, lanes), dtype=np.uint64)

    def place(idx: int) -> None:
        r0 = rows0.get(idx)
        r1 = rows1.get(idx)
        if r0:
            buf[idx, r0] = 0
        if r1:
            buf[idx, r1] = _ALL_ONES

    for name in comp.circuit.inputs:
        idx = comp.index[name]
        buf[idx] = input_lanes[name]  # broadcast over the fault rows
        place(idx)
    for idx in comp.eval_order:
        gtype = comp.gtypes[idx]
        fin = comp.fanins[idx]
        v = buf[idx]
        op_invert = _GATE_OPS.get(gtype)
        if op_invert is not None:
            op, invert = op_invert
            if len(fin) == 1:
                np.copyto(v, buf[fin[0]])
            else:
                op(buf[fin[0]], buf[fin[1]], out=v)
                for f in fin[2:]:
                    op(v, buf[f], out=v)
            if invert:
                np.invert(v, out=v)
        elif gtype in (GateType.DFF, GateType.CONST0):
            v[...] = 0
        elif gtype is GateType.CONST1:
            v[...] = _ALL_ONES
        elif gtype is GateType.NOT:
            np.invert(buf[fin[0]], out=v)
        elif gtype is GateType.INPUT:
            # Defensive only: eval_order excludes INPUT nodes (they are
            # assigned, and fault-forced, in the inputs loop above).
            continue
        else:  # BUF
            np.copyto(v, buf[fin[0]])
        place(idx)
    return buf


def _lane_mask(n_patterns: int, lanes: int) -> np.ndarray:
    """Per-lane mask clearing the padding bits above ``n_patterns``."""
    mask = np.full(lanes, _ALL_ONES)
    rem = n_patterns % 64
    if rem:
        mask[-1] = np.uint64((1 << rem) - 1)
    return mask


def _output_stack(comp: CompiledCircuit, buf: np.ndarray) -> np.ndarray:
    """Extract outputs into a ``(rows, n_outputs, lanes)`` array.

    The fancy index copies (so the full sweep buffer is not kept alive);
    the transpose stays a view — downstream XOR/popcount reductions handle
    the strides.
    """
    return buf[list(comp.output_indices)].transpose(1, 0, 2)


def batch_output_lanes(
    circuit: Circuit,
    faults: Sequence[StuckAtFault],
    patterns: Sequence[Mapping[str, int]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Low-level batched sweep: output words for all faults at once.

    Returns ``(fault_lanes, good_lanes, lane_mask)`` where ``fault_lanes``
    has shape ``(len(faults), n_outputs, lanes)`` (outputs in circuit
    output order), ``good_lanes`` is the fault-free response
    ``(n_outputs, lanes)``, and ``lane_mask`` clears the padding bits of
    the last lane.  Padding bits are *not* pre-masked in the value arrays.

    Pattern sets too wide for the ~256 MB sweep-buffer budget are swept in
    lane-aligned blocks and concatenated, so memory stays bounded by the
    circuit/fault dimensions, never by the pattern count.
    """
    if not patterns:
        raise ValueError("need at least one pattern")
    comp = compile_circuit(circuit)
    rows = len(faults) + 1
    per_lane = comp.n * rows * 8
    block_lanes = max(1, _SWEEP_BUDGET // max(per_lane, 1))
    block = 64 * block_lanes  # lane-aligned: blocks pack without padding
    stacks = []
    for start in range(0, len(patterns), block):
        chunk = patterns[start : start + block]
        input_lanes, lanes = pack_patterns_numpy(chunk, circuit.inputs)
        buf = _sweep(comp, faults, input_lanes, lanes)
        stacks.append(_output_stack(comp, buf))
    stack = stacks[0] if len(stacks) == 1 else np.concatenate(stacks, axis=2)
    lanes = stack.shape[2]
    return stack[:-1], stack[-1], _lane_mask(len(patterns), lanes)


def fault_signatures_batch(
    circuit: Circuit,
    faults: Sequence[StuckAtFault],
    patterns: Sequence[Mapping[str, int]],
) -> list[dict[str, int]]:
    """Output signature of every fault in one fault-parallel sweep.

    Drop-in batched replacement for calling
    :func:`repro.diagnosis.stuckat.fault_signature` per fault: returns, in
    fault order, ``{output: word}`` dictionaries whose bit ``j`` is the
    output's value under pattern ``j`` with the fault active — bit-exact
    against the serial engine.

    >>> from repro.circuits.library import majority
    >>> from repro.faults.models import StuckAtFault
    >>> sigs = fault_signatures_batch(
    ...     majority(), [StuckAtFault("ab", 1)], [{"a": 0, "b": 0, "c": 0}]
    ... )
    >>> sigs[0]["out"]
    1
    """
    faults = list(faults)
    if not faults:
        if not patterns:
            raise ValueError("need at least one pattern")
        return []
    fault_lanes, _, _ = batch_output_lanes(circuit, faults, patterns)
    return lanes_to_words(fault_lanes, circuit.outputs, len(patterns))


def lanes_to_words(
    fault_lanes: np.ndarray, outputs: Sequence[str], n_patterns: int
) -> list[dict[str, int]]:
    """Convert a ``(rows, n_outputs, lanes)`` lane array to per-row
    ``{output: word}`` dictionaries (the serial engines' signature format)."""
    rows, n_out, lanes = fault_lanes.shape
    mask = (1 << n_patterns) - 1
    stride = lanes * 8
    raw = np.ascontiguousarray(fault_lanes).astype("<u8", copy=False).tobytes()
    view = memoryview(raw)
    words: list[dict[str, int]] = []
    pos = 0
    for _ in range(rows):
        sig: dict[str, int] = {}
        for out in outputs:
            sig[out] = int.from_bytes(view[pos : pos + stride], "little") & mask
            pos += stride
        words.append(sig)
    return words


def pack_responses(
    outputs: Sequence[str], observed: Sequence[Mapping[str, int]]
) -> np.ndarray:
    """Pack per-pattern output responses into an ``(n_outputs, lanes)``
    uint64 array, in ``outputs`` order.

    Unlike input packing, a response missing an output is an error (a
    tester log always carries every output) — raises ``KeyError`` like the
    serial matching path, rather than silently defaulting to 0.
    """
    n = len(observed)
    lanes = max(1, -(-n // 64))
    words = {out: 0 for out in outputs}
    for j, response in enumerate(observed):
        for out in outputs:
            if response[out] & 1:
                words[out] |= 1 << j
    nbytes = lanes * 8
    return np.stack(
        [
            np.frombuffer(words[out].to_bytes(nbytes, "little"), dtype="<u8")
            for out in outputs
        ]
    ).astype(np.uint64)


def batch_detected(
    circuit: Circuit,
    vector: Mapping[str, int],
    faults: Sequence[StuckAtFault] | None = None,
) -> frozenset[StuckAtFault]:
    """Faults that ``vector`` detects at some primary output.

    Batched drop-in for :func:`repro.sim.deductive.deductive_detected`:
    one fault-parallel sweep instead of one fault-list propagation pass,
    with identical results on complete vectors (differential tests assert
    this).  One convention difference: inputs missing from ``vector``
    default to 0 here (the :func:`repro.sim.parallel.pack_patterns` /
    ``simulate_words`` convention), where the deductive engine raises.
    """
    if faults is None:
        faults = full_stuck_at_universe(circuit)
    faults = list(faults)
    if not faults:
        return frozenset()
    fault_lanes, good, mask = batch_output_lanes(circuit, faults, [vector])
    diff = (fault_lanes ^ good) & mask
    hit = diff.reshape(len(faults), -1).any(axis=1)
    return frozenset(f for f, h in zip(faults, hit) if h)


def batch_fault_coverage(
    circuit: Circuit,
    patterns: Sequence[Mapping[str, int]],
    faults: Sequence[StuckAtFault] | None = None,
    drop_detected: bool = True,
    block_patterns: int = 256,
) -> FaultCoverage:
    """Fault coverage of a pattern set, batched with fault dropping.

    Batched drop-in for :func:`repro.sim.deductive.deductive_coverage`:
    patterns are processed in blocks of ``block_patterns``; with
    ``drop_detected`` (default) faults detected in one block leave the
    batch for all later blocks — the classic dropping that keeps the batch
    narrow as coverage climbs.  Dropping never changes the result, only
    the cost.  ``first_detection`` indices are exact (per pattern, not per
    block).
    """
    if faults is None:
        faults = full_stuck_at_universe(circuit)
    faults = list(faults)
    patterns = list(patterns)
    first_detection: dict[StuckAtFault, int] = {}
    if faults and patterns:
        block_patterns = max(64, block_patterns)
        active = faults
        for start in range(0, len(patterns), block_patterns):
            if not active:
                break
            block = patterns[start : start + block_patterns]
            fault_lanes, good, mask = batch_output_lanes(
                circuit, active, block
            )
            # One word per (fault, lane): a set bit means some output
            # differs from fault-free under that pattern.
            diff = np.bitwise_or.reduce((fault_lanes ^ good) & mask, axis=1)
            hit = diff.any(axis=1)
            survivors: list[StuckAtFault] = []
            for row, fault in enumerate(active):
                if not hit[row]:
                    survivors.append(fault)
                    continue
                if fault in first_detection:  # without dropping, re-hits
                    continue
                first = first_set_bit(diff[row])
                assert first is not None  # hit[row] guarantees a set bit
                first_detection[fault] = start + first
            if drop_detected:
                active = survivors
    return FaultCoverage(
        faults=tuple(faults),
        first_detection=first_detection,
        n_patterns=len(patterns),
    )


def exact_match_faults(
    circuit: Circuit,
    patterns: Sequence[Mapping[str, int]],
    observed: Sequence[Mapping[str, int]],
    faults: Sequence[StuckAtFault] | None = None,
    block_patterns: int = 256,
) -> list[StuckAtFault]:
    """Faults whose full signature equals the observed responses.

    The fault-dropping flavour of exact-match diagnosis: candidates whose
    output words mismatch the observation in one pattern block are masked
    out of all subsequent blocks, so the batch narrows rapidly toward the
    perfect explanations.  Equivalent to keeping the ``mismatch_bits == 0``
    faults of :func:`repro.diagnosis.stuckat.diagnose_stuck_at` over the
    *same* candidate list, but without paying for the full ranking.  Note
    the *default* lists differ: ``None`` means
    :func:`~repro.faults.collapse.full_stuck_at_universe` here (which
    omits the tied polarity of constant gates), while ``diagnose_stuck_at``
    defaults to :func:`~repro.diagnosis.stuckat.full_fault_list` (which
    keeps it); on circuits without constant gates the two coincide.
    """
    if len(patterns) != len(observed):
        raise ValueError("patterns and observed responses must align")
    if not patterns:
        raise ValueError("need at least one pattern")
    if faults is None:
        faults = full_stuck_at_universe(circuit)
    active = list(faults)
    block_patterns = max(64, block_patterns)
    for start in range(0, len(patterns), block_patterns):
        if not active:
            break
        block = patterns[start : start + block_patterns]
        fault_lanes, _, mask = batch_output_lanes(circuit, active, block)
        obs = pack_responses(
            circuit.outputs, observed[start : start + block_patterns]
        )
        diff = (fault_lanes ^ obs) & mask
        clean = ~diff.reshape(len(active), -1).any(axis=1)
        active = [f for f, ok in zip(active, clean) if ok]
    return active
