"""Bit-parallel pattern simulation.

The paper emphasizes that simulation-based diagnosis can use "efficient
parallel simulation techniques with linear runtimes".  This engine packs an
arbitrary number of patterns into Python's unbounded integers — bit ``j`` of
every signal word is the signal's value under pattern ``j`` — so a single
pass over the netlist evaluates all patterns at once.  For the circuit
sizes of the reproduction this outperforms the single-pattern loop by
roughly the pattern count.

Words are plain ``int``; there is no 64-pattern limit.  A numpy variant
(:func:`simulate_words_numpy`) is provided for very large pattern counts
where fixed-width vectorization wins.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..circuits.gates import GateType
from ..circuits.netlist import Circuit
from .compiled import compile_circuit

__all__ = [
    "pack_patterns",
    "pack_patterns_numpy",
    "unpack_word",
    "simulate_words",
    "simulate_patterns",
    "simulate_words_numpy",
]


def pack_patterns(
    patterns: Sequence[Mapping[str, int]], inputs: Sequence[str]
) -> dict[str, int]:
    """Pack per-pattern input assignments into one word per input.

    Inputs a pattern omits default to 0, matching the convention of
    :func:`simulate_words` (``input_words.get(name, 0)``); a pattern
    assigning a name *not* in ``inputs`` raises ``ValueError`` — a
    silently dropped assignment is almost always a typo'd input name.
    Each word is one row of :func:`_pack_lanes` (which also packs
    :func:`pack_patterns_numpy`) folded into an int.

    >>> pack_patterns([{"a": 1}, {"a": 0}, {"a": 1}], ["a"])
    {'a': 5}
    """
    rows, lanes = _pack_lanes(patterns, inputs)
    raw = rows.astype("<u8", copy=False).tobytes()
    step = 8 * lanes
    return {
        name: int.from_bytes(raw[i * step : (i + 1) * step], "little")
        for i, name in enumerate(inputs)
    }


def pack_patterns_numpy(
    patterns: Sequence[Mapping[str, int]], inputs: Sequence[str]
) -> tuple[dict[str, np.ndarray], int]:
    """Pack patterns into fixed-width uint64 lane arrays.

    Returns ``(words, lanes)`` where ``words[name]`` is a uint64 array of
    ``lanes`` elements; bit ``b`` of lane ``l`` is the input's value under
    pattern ``64*l + b``.  Same packing as :func:`pack_patterns`
    (:func:`_pack_lanes` does both): missing inputs default to 0,
    unknown input names raise ``ValueError``.  This is the input format
    of :func:`simulate_words_numpy` and the batched fault engines
    (:mod:`repro.sim.batchfault`, :mod:`repro.sim.batchevent`).
    """
    rows, lanes = _pack_lanes(patterns, inputs)
    return dict(zip(inputs, rows)), lanes


def _pack_lanes(
    patterns: Sequence[Mapping[str, int]], inputs: Sequence[str]
) -> tuple[np.ndarray, int]:
    """:func:`pack_patterns_numpy` as one ``(len(inputs), lanes)`` uint64
    array, row ``i`` for ``inputs[i]``: every bit packed by one
    ``np.packbits`` call, with no per-input array."""
    lanes = max(1, -(-len(patterns) // 64))
    known = frozenset(inputs)
    bits = np.zeros((len(inputs), 64 * lanes), dtype=np.uint8)
    for j, pattern in enumerate(patterns):
        if not known.issuperset(pattern):
            unknown = next(name for name in pattern if name not in known)
            raise ValueError(f"pattern {j} assigns unknown input {unknown!r}")
        bits[:, j] = [pattern.get(name, 0) & 1 for name in inputs]
    # Byte k of a row holds patterns 8k..8k+7, lowest bit first, so
    # eight consecutive bytes are one little-endian lane.
    packed = np.packbits(bits, axis=1, bitorder="little")
    return packed.view("<u8").astype(np.uint64, copy=False), lanes


def unpack_word(word: int, n_patterns: int) -> list[int]:
    """Explode ``word`` into a list of ``n_patterns`` bits (LSB = pattern 0)."""
    return [(word >> j) & 1 for j in range(n_patterns)]


def simulate_words(
    circuit: Circuit,
    input_words: Mapping[str, int],
    n_patterns: int,
    forced_words: Mapping[str, int] | None = None,
    outputs: Sequence[str] | None = None,
) -> dict[str, int]:
    """Bit-parallel simulation with one integer word per signal.

    ``forced_words`` overrides whole signal words (all patterns at once),
    mirroring the ``forced`` parameter of the scalar simulator.  DFFs are
    treated as constant-0 present state; diagnosis always runs on the
    full-scan view where no DFFs remain.

    ``outputs`` restricts the pass to those signals' fan-in cones
    (:meth:`~repro.circuits.netlist.Circuit.fanin_cone`): only the union
    of the cones is evaluated, and only those signals' words are
    returned, in the order given.  Forcing a signal outside the union
    cannot change them, so every returned word equals the full pass's.
    An unknown name raises :class:`~repro.circuits.netlist.CircuitError`.
    """
    comp = compile_circuit(circuit)
    mask = (1 << n_patterns) - 1
    forced_words = forced_words or {}
    values: list[int] = [0] * comp.n
    inputs = circuit.inputs
    eval_order = comp.eval_order
    if outputs is not None:
        cone = frozenset().union(*map(circuit.fanin_cone, outputs))
        names = comp.names
        inputs = [name for name in inputs if name in cone]
        eval_order = [idx for idx in eval_order if names[idx] in cone]
    for name in inputs:
        idx = comp.index[name]
        if name in forced_words:
            values[idx] = forced_words[name] & mask
        else:
            values[idx] = input_words.get(name, 0) & mask
    forced_idx = {
        comp.index[name]: val & mask
        for name, val in forced_words.items()
        if not circuit.node(name).is_input
    }
    for idx in eval_order:
        gtype = comp.gtypes[idx]
        fin = comp.fanins[idx]
        if gtype is GateType.DFF:
            v = 0
        elif gtype is GateType.CONST0:
            v = 0
        elif gtype is GateType.CONST1:
            v = mask
        elif gtype is GateType.AND:
            v = mask
            for f in fin:
                v &= values[f]
        elif gtype is GateType.NAND:
            v = mask
            for f in fin:
                v &= values[f]
            v = ~v & mask
        elif gtype is GateType.OR:
            v = 0
            for f in fin:
                v |= values[f]
        elif gtype is GateType.NOR:
            v = 0
            for f in fin:
                v |= values[f]
            v = ~v & mask
        elif gtype is GateType.XOR:
            v = 0
            for f in fin:
                v ^= values[f]
        elif gtype is GateType.XNOR:
            v = 0
            for f in fin:
                v ^= values[f]
            v = ~v & mask
        elif gtype is GateType.NOT:
            v = ~values[fin[0]] & mask
        else:  # BUF
            v = values[fin[0]]
        values[idx] = forced_idx.get(idx, v)
    if outputs is not None:
        return {name: values[comp.index[name]] for name in outputs}
    return {name: values[comp.index[name]] for name in comp.names}


def simulate_patterns(
    circuit: Circuit, patterns: Sequence[Mapping[str, int]]
) -> list[dict[str, int]]:
    """Simulate a batch of input assignments; returns one valuation per pattern.

    Semantically identical to calling the scalar simulator per pattern (the
    test-suite asserts this equivalence) but with a single netlist pass.
    """
    n = len(patterns)
    if n == 0:
        return []
    words = pack_patterns(patterns, circuit.inputs)
    word_values = simulate_words(circuit, words, n)
    result: list[dict[str, int]] = [{} for _ in range(n)]
    for name, word in word_values.items():
        for j in range(n):
            result[j][name] = (word >> j) & 1
    return result


def simulate_words_numpy(
    circuit: Circuit,
    input_words: Mapping[str, np.ndarray],
    forced_words: Mapping[str, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """Fixed-width (uint64 lanes) vectorized variant.

    Every signal is a numpy ``uint64`` array of lanes; lane ``l`` bit ``b``
    is pattern ``64*l + b``.  All input arrays must share a common lane
    count.  Useful when simulating thousands of random patterns for test
    generation.
    """
    comp = compile_circuit(circuit)
    forced_words = forced_words or {}
    lanes = None
    for label, mapping in (("input", input_words), ("forced", forced_words)):
        for name, arr in mapping.items():
            n = len(np.atleast_1d(np.asarray(arr)))
            if lanes is None:
                lanes = n
            elif n != lanes:
                raise ValueError(
                    f"lane count mismatch: {label} word {name!r} has "
                    f"{n} lanes, expected {lanes}"
                )
    if not input_words:
        raise ValueError("input_words must not be empty")
    assert lanes is not None
    ones = np.full(lanes, np.uint64(0xFFFFFFFFFFFFFFFF))
    zeros = np.zeros(lanes, dtype=np.uint64)
    values: list[np.ndarray] = [zeros] * comp.n
    for name in circuit.inputs:
        idx = comp.index[name]
        source = forced_words.get(name, input_words.get(name))
        values[idx] = (
            zeros if source is None else np.asarray(source, dtype=np.uint64)
        )
    forced_idx = {
        comp.index[name]: np.asarray(arr, dtype=np.uint64)
        for name, arr in forced_words.items()
        if not circuit.node(name).is_input
    }
    for idx in comp.eval_order:
        gtype = comp.gtypes[idx]
        fin = comp.fanins[idx]
        if gtype in (GateType.DFF, GateType.CONST0):
            v = zeros
        elif gtype is GateType.CONST1:
            v = ones
        elif gtype in (GateType.AND, GateType.NAND):
            v = values[fin[0]].copy()
            for f in fin[1:]:
                v &= values[f]
            if gtype is GateType.NAND:
                v = ~v
        elif gtype in (GateType.OR, GateType.NOR):
            v = values[fin[0]].copy()
            for f in fin[1:]:
                v |= values[f]
            if gtype is GateType.NOR:
                v = ~v
        elif gtype in (GateType.XOR, GateType.XNOR):
            v = values[fin[0]].copy()
            for f in fin[1:]:
                v ^= values[f]
            if gtype is GateType.XNOR:
                v = ~v
        elif gtype is GateType.NOT:
            v = ~values[fin[0]]
        else:  # BUF
            v = values[fin[0]]
        values[idx] = forced_idx.get(idx, v)
    return {name: values[comp.index[name]] for name in comp.names}
