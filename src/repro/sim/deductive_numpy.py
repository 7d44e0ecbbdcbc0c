"""Vectorized (bitset-matrix) deductive fault simulation.

This is the numpy lane port of :mod:`repro.sim.deductive`: the same
Armstrong single-fault propagation rules, but fault lists are *bitsets* —
``(patterns, fault_lanes)`` uint64 matrices, one per signal, where bit
``k`` of the fault-lane axis marks fault ``k`` as flipping the signal —
instead of Python ``set`` objects.  Set union/intersection/difference
become ``|``/``&``/``& ~`` on uint64 words and the engine propagates *all
patterns of a block at once*: the per-gate branch on controlling inputs is
resolved with boolean pattern masks (``np.where``), so one pass over the
netlist replaces one Python pass per pattern.

The propagation rules are identical to the serial engine (see the
:mod:`repro.sim.deductive` module docstring for their statement) and
exact for single faults, including the hard cases — reconvergent fanout
and XOR/XNOR parity cancellation — which the regression suite pins for
both implementations and the cross-engine matrix checks differentially.

On the ~600-gate × ~1400-fault × 256-pattern ATPG workload this engine is
far more than the required 5× faster than the pure-Python propagator
(``benchmarks/bench_faultsim_engines.py`` records the factor); it is the
engine of choice when full per-signal fault lists (not just output
detections) are needed at scale, and a third independent implementation
for the differential matrix.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..circuits.gates import CONTROLLING_VALUE, GateType
from ..circuits.netlist import Circuit
from ..faults.collapse import full_stuck_at_universe
from ..faults.models import StuckAtFault
from .batchfault import _ALL_ONES, _sweep
from .compiled import CompiledCircuit, compile_circuit
from .deductive import FaultCoverage
from .parallel import _pack_lanes

__all__ = [
    "deductive_fault_lists_numpy",
    "deductive_detected_numpy",
    "deductive_detected_many",
    "deductive_output_fault_lists",
    "deductive_coverage_numpy",
]

_ONE = np.uint64(1)


def _check_vectors(
    circuit: Circuit, patterns: Sequence[Mapping[str, int]]
) -> None:
    """Serial-engine input convention: every PI must be assigned.

    The serial deductive engine simulates with :func:`repro.sim.logicsim.
    simulate`, which raises ``KeyError`` on a missing primary input; the
    numpy engine keeps that contract instead of the pack-to-0 convention
    of :func:`repro.sim.parallel.pack_patterns`.
    """
    for vector in patterns:
        for pi in circuit.inputs:
            if pi not in vector:
                raise KeyError(f"no value for primary input {pi!r}")


def _fault_id_tables(
    comp: CompiledCircuit, faults: Sequence[StuckAtFault]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-signal fault ids: ``(sa0_ids, sa1_ids)``, -1 where absent.

    Duplicate faults map to their first id (like the serial engine's
    ``dict``-based table); faults at names that are not signals of the
    circuit simply never fire, again matching the serial engine.
    """
    sa0 = np.full(comp.n, -1, dtype=np.int64)
    sa1 = np.full(comp.n, -1, dtype=np.int64)
    for fid, fault in enumerate(faults):
        idx = comp.index.get(fault.signal)
        if idx is None:
            continue
        table = sa1 if fault.value else sa0
        if table[idx] < 0:
            table[idx] = fid
    return sa0, sa1


def _good_bits(
    comp: CompiledCircuit, patterns: Sequence[Mapping[str, int]]
) -> np.ndarray:
    """Fault-free value of every signal: bool matrix ``(n_signals, P)``."""
    input_lanes, lanes = _pack_lanes(patterns, comp.circuit.inputs)
    buf = _sweep(comp, [], input_lanes, lanes)  # rows == 1: fault-free only
    words = np.ascontiguousarray(buf[:, 0, :])
    bits = np.unpackbits(
        words.view(np.uint8), axis=-1, bitorder="little"
    )
    return bits[:, : len(patterns)].astype(bool)


def _propagate_single(
    comp: CompiledCircuit,
    vector: Mapping[str, int],
    faults: Sequence[StuckAtFault],
) -> tuple[list[np.ndarray], np.ndarray]:
    """Dedicated 1-lane fast path (ATPG drop queries: one vector × many
    faults).

    Same propagation rules as :func:`_propagate_block`, but each fault
    list is one Python big-int bitset: with a single pattern the per-gate
    controlling-input branch is a scalar comparison and set algebra is
    one CPython limb-vector op per fanin — no ``np.where``, no
    per-pattern masks, no small-array numpy dispatch overhead.  This is
    what closes the ROADMAP single-vector gap: the pure-Python deductive
    pass (set objects) used to win this shape.

    Returns ``(lists, good)`` shaped like ``_propagate_block`` with
    ``P == 1``.
    """
    fl = max(1, -(-len(faults) // 64))
    sa0: dict[int, int] = {}
    sa1: dict[int, int] = {}
    for fid, fault in enumerate(faults):
        idx = comp.index.get(fault.signal)
        if idx is None:
            continue
        table = sa1 if fault.value else sa0
        table.setdefault(idx, fid)
    good: list[int] = [0] * comp.n
    lists: list[int] = [0] * comp.n
    for idx in range(comp.n):
        gtype = comp.gtypes[idx]
        fin = comp.fanins[idx]
        if gtype is GateType.INPUT:
            g = int(vector[comp.names[idx]]) & 1
            result = 0
        elif gtype in (GateType.DFF, GateType.CONST0):
            g = 0
            result = 0
        elif gtype is GateType.CONST1:
            g = 1
            result = 0
        elif gtype in (GateType.BUF, GateType.NOT):
            g = good[fin[0]] ^ (1 if gtype is GateType.NOT else 0)
            result = lists[fin[0]]
        elif gtype in (GateType.XOR, GateType.XNOR):
            g = 1 if gtype is GateType.XNOR else 0
            result = 0
            for f in fin:
                g ^= good[f]
                result ^= lists[f]
        else:
            control = CONTROLLING_VALUE[gtype]
            inverted = gtype in (GateType.NAND, GateType.NOR)
            ctrl = [f for f in fin if good[f] == control]
            if not ctrl:
                g = (control ^ 1) ^ (1 if inverted else 0)
                result = 0
                for f in fin:
                    result |= lists[f]
            else:
                g = control ^ (1 if inverted else 0)
                result = lists[ctrl[0]]
                for f in ctrl[1:]:
                    result &= lists[f]
                for f in fin:
                    if good[f] != control:
                        result &= ~lists[f]
        own = sa0.get(idx) if g else sa1.get(idx)
        if own is not None:
            result |= 1 << own
        good[idx] = g
        lists[idx] = result
    n_bytes = fl * 8
    packed = b"".join(r.to_bytes(n_bytes, "little") for r in lists)
    rows = np.frombuffer(packed, dtype="<u8").astype(np.uint64).reshape(
        comp.n, 1, fl
    )
    good_arr = np.array(good, dtype=bool).reshape(-1, 1)
    return [rows[idx] for idx in range(comp.n)], good_arr


def _propagate_block(
    comp: CompiledCircuit,
    patterns: Sequence[Mapping[str, int]],
    faults: Sequence[StuckAtFault],
) -> tuple[list[np.ndarray], np.ndarray]:
    """One vectorized deductive pass over a pattern block.

    Returns ``(lists, good)`` where ``lists[idx]`` is the ``(P, FL)``
    uint64 fault-list bitset of signal ``idx`` (bit ``k`` of the fault
    axis set iff fault ``k`` flips the signal under that pattern) and
    ``good`` is the fault-free bool value matrix ``(n_signals, P)``.
    Single-pattern blocks dispatch to the flat 1-lane fast path.
    """
    n_p = len(patterns)
    if n_p == 1:
        return _propagate_single(comp, patterns[0], faults)
    fl = max(1, -(-len(faults) // 64))
    sa0, sa1 = _fault_id_tables(comp, faults)
    good = _good_bits(comp, patterns)
    ones = np.full((n_p, fl), _ALL_ONES)
    lists: list[np.ndarray] = [None] * comp.n  # type: ignore[list-item]
    for idx in range(comp.n):
        gtype = comp.gtypes[idx]
        fin = comp.fanins[idx]
        if gtype in (
            GateType.INPUT,
            GateType.DFF,
            GateType.CONST0,
            GateType.CONST1,
        ):
            result = np.zeros((n_p, fl), dtype=np.uint64)
        elif gtype in (GateType.BUF, GateType.NOT):
            result = lists[fin[0]].copy()
        elif gtype in (GateType.XOR, GateType.XNOR):
            # Parity rule: a fault flips the output iff it flips an odd
            # number of fanins — symmetric difference is bitwise XOR.
            result = lists[fin[0]].copy()
            for f in fin[1:]:
                result ^= lists[f]
        else:
            control = CONTROLLING_VALUE[gtype]
            # ctrl[i] marks, per pattern, fanin i at the controlling value.
            ctrl = [good[f] == control for f in fin]
            any_ctrl = ctrl[0].copy()
            for c in ctrl[1:]:
                any_ctrl |= c
            union = lists[fin[0]].copy()
            for f in fin[1:]:
                union |= lists[f]
            inter = ones.copy()
            nonctrl = np.zeros((n_p, fl), dtype=np.uint64)
            zero = np.zeros((n_p, fl), dtype=np.uint64)
            for f, c in zip(fin, ctrl):
                cm = c[:, None]
                inter &= np.where(cm, lists[f], ones)
                nonctrl |= np.where(cm, zero, lists[f])
            result = np.where(
                any_ctrl[:, None], inter & ~nonctrl, union
            )
        # The signal's own stuck-at-(1-v) fault joins its list.
        g = good[idx]
        own1 = sa1[idx]  # s-a-1 flips patterns where the good value is 0
        if own1 >= 0:
            result[~g, own1 >> 6] |= _ONE << np.uint64(own1 & 63)
        own0 = sa0[idx]
        if own0 >= 0:
            result[g, own0 >> 6] |= _ONE << np.uint64(own0 & 63)
        lists[idx] = result
    return lists, good


def _detected_matrix(
    comp: CompiledCircuit, lists: list[np.ndarray]
) -> np.ndarray:
    """Union of the primary-output fault lists: ``(P, FL)`` bitsets."""
    detected = lists[comp.output_indices[0]].copy()
    for idx in comp.output_indices[1:]:
        detected |= lists[idx]
    return detected


def _bitset_rows_to_sets(
    rows: np.ndarray, faults: Sequence[StuckAtFault]
) -> list[frozenset[StuckAtFault]]:
    """Explode ``(P, FL)`` bitset rows into per-pattern fault frozensets."""
    n_faults = len(faults)
    bits = np.unpackbits(
        np.ascontiguousarray(rows).view(np.uint8), axis=-1, bitorder="little"
    )[:, :n_faults]
    return [
        frozenset(faults[k] for k in np.nonzero(row)[0]) for row in bits
    ]


def deductive_fault_lists_numpy(
    circuit: Circuit,
    vector: Mapping[str, int],
    faults: Sequence[StuckAtFault] | None = None,
) -> dict[str, frozenset[StuckAtFault]]:
    """Vectorized drop-in for :func:`repro.sim.deductive.deductive_fault_lists`.

    Same signature, same result (the differential suite asserts set
    equality per signal); the propagation runs on uint64 bitsets.

    >>> from repro.circuits.library import majority
    >>> from repro.faults.models import StuckAtFault
    >>> lists = deductive_fault_lists_numpy(majority(), {"a": 1, "b": 1, "c": 0})
    >>> StuckAtFault("ab", 0) in lists["out"]
    True
    """
    if faults is None:
        faults = full_stuck_at_universe(circuit)
    faults = list(faults)
    comp = compile_circuit(circuit)
    _check_vectors(circuit, [vector])
    lists, _ = _propagate_block(comp, [vector], faults)
    out: dict[str, frozenset[StuckAtFault]] = {}
    for idx, name in enumerate(comp.names):
        out[name] = _bitset_rows_to_sets(lists[idx], faults)[0]
    return out


def deductive_detected_numpy(
    circuit: Circuit,
    vector: Mapping[str, int],
    faults: Sequence[StuckAtFault] | None = None,
) -> frozenset[StuckAtFault]:
    """Vectorized drop-in for :func:`repro.sim.deductive.deductive_detected`.

    >>> from repro.circuits.library import c17
    >>> from repro.faults.models import StuckAtFault
    >>> vec = {"G1": 1, "G2": 1, "G3": 1, "G6": 1, "G7": 1}
    >>> StuckAtFault("G16", 0) in deductive_detected_numpy(c17(), vec)
    True
    """
    return deductive_detected_many(circuit, [vector], faults)[0]


def deductive_detected_many(
    circuit: Circuit,
    patterns: Sequence[Mapping[str, int]],
    faults: Sequence[StuckAtFault] | None = None,
) -> list[frozenset[StuckAtFault]]:
    """Detected-fault set of every pattern, one vectorized pass for all.

    Equivalent to ``[deductive_detected(circuit, p, faults) for p in
    patterns]`` but the whole block is propagated at once.
    """
    if faults is None:
        faults = full_stuck_at_universe(circuit)
    faults = list(faults)
    if not patterns:
        return []
    comp = compile_circuit(circuit)
    _check_vectors(circuit, patterns)
    lists, _ = _propagate_block(comp, patterns, faults)
    return _bitset_rows_to_sets(_detected_matrix(comp, lists), faults)


def deductive_output_fault_lists(
    circuit: Circuit,
    patterns: Sequence[Mapping[str, int]],
    faults: Sequence[StuckAtFault] | None = None,
) -> list[dict[str, frozenset[StuckAtFault]]]:
    """Primary-output fault lists of every pattern, one block pass.

    Equivalent to ``[{o: deductive_fault_lists_numpy(circuit, p,
    faults)[o] for o in circuit.outputs} for p in patterns]`` but the
    whole pattern block propagates in one vectorized pass and only the
    output rows are exploded into sets.  This is the per-observation
    candidate extraction of the diagnosis candidate space
    (:meth:`repro.diagnosis.core.CandidateSpace.observation_candidates`).
    """
    if faults is None:
        faults = full_stuck_at_universe(circuit)
    faults = list(faults)
    patterns = list(patterns)
    if not patterns:
        return []
    comp = compile_circuit(circuit)
    _check_vectors(circuit, patterns)
    lists, _ = _propagate_block(comp, patterns, faults)
    per_output = {
        name: _bitset_rows_to_sets(lists[comp.index[name]], faults)
        for name in circuit.outputs
    }
    return [
        {out: per_output[out][j] for out in circuit.outputs}
        for j in range(len(patterns))
    ]


def deductive_coverage_numpy(
    circuit: Circuit,
    patterns: Sequence[Mapping[str, int]],
    faults: Sequence[StuckAtFault] | None = None,
    drop_detected: bool = True,
    block_patterns: int = 128,
) -> FaultCoverage:
    """Vectorized drop-in for :func:`repro.sim.deductive.deductive_coverage`.

    Patterns are propagated in blocks of ``block_patterns``; with
    ``drop_detected`` (default) faults detected in one block leave the
    simulated universe for all later blocks, shrinking the fault-lane
    axis as coverage climbs.  Dropping never changes the result, only the
    cost; ``first_detection`` indices are exact (per pattern, not per
    block) — bit-identical to the serial engine and to
    :func:`repro.sim.batchfault.batch_fault_coverage`.
    """
    if faults is None:
        faults = full_stuck_at_universe(circuit)
    faults = list(faults)
    patterns = list(patterns)
    comp = compile_circuit(circuit)
    _check_vectors(circuit, patterns)
    first_detection: dict[StuckAtFault, int] = {}
    if faults and patterns:
        block_patterns = max(1, block_patterns)
        active = faults
        for start in range(0, len(patterns), block_patterns):
            if not active:
                break
            block = patterns[start : start + block_patterns]
            lists, _ = _propagate_block(comp, block, active)
            det = _detected_matrix(comp, lists)
            bits = np.unpackbits(
                np.ascontiguousarray(det).view(np.uint8),
                axis=-1,
                bitorder="little",
            )[:, : len(active)]
            hit = bits.any(axis=0)
            first = bits.argmax(axis=0)
            survivors: list[StuckAtFault] = []
            for k, fault in enumerate(active):
                if not hit[k]:
                    survivors.append(fault)
                    continue
                if fault in first_detection:  # without dropping, re-hits
                    continue
                first_detection[fault] = start + int(first[k])
            if drop_detected:
                active = survivors
    return FaultCoverage(
        faults=tuple(faults),
        first_detection=first_detection,
        n_patterns=len(patterns),
    )
