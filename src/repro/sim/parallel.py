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

from operator import itemgetter
from typing import Mapping, Sequence

import numpy as np

from ..circuits.netlist import Circuit
from .compiled import AND, OR, UFUNCS, CompiledCircuit, compile_circuit

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
    :func:`pack_patterns_numpy`) folded into an int
    (:func:`_rows_to_words`).

    >>> pack_patterns([{"a": 1}, {"a": 0}, {"a": 1}], ["a"])
    {'a': 5}
    """
    rows, _ = _pack_lanes(patterns, inputs)
    return dict(zip(inputs, _rows_to_words(rows)))


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
    bits = np.zeros((len(inputs), 64 * lanes), dtype=np.uint8)
    rows = _assignments(patterns, inputs)
    if rows and inputs:
        try:  # values in 0..255 (bits, bools): one bytes copy
            values = np.frombuffer(b"".join(map(bytes, rows)), np.uint8)
        except (TypeError, ValueError):  # other ints keep Python's & 1
            values = np.array(rows)
        bits[:, : len(rows)] = (values.reshape(len(rows), -1) & 1).T
    # Byte k of a row holds patterns 8k..8k+7, lowest bit first, so
    # eight consecutive bytes are one little-endian lane.
    packed = np.packbits(bits, axis=1, bitorder="little")
    return packed.view("<u8").astype(np.uint64, copy=False), lanes


def _assignments(
    patterns: Sequence[Mapping[str, int]], inputs: Sequence[str]
) -> list[Sequence[int]]:
    """Each pattern's values at ``inputs``, in order, missing ones 0.

    A pattern that assigns exactly ``inputs`` is read by one
    ``itemgetter`` call; only the others are checked for a name outside
    ``inputs``, which raises ``ValueError``.
    """
    known = frozenset(inputs)
    if len(inputs) > 1:
        fetch = itemgetter(*inputs)
    else:  # itemgetter of one name returns the value, not a tuple
        def fetch(pattern):
            return tuple(pattern[name] for name in inputs)
    rows = []
    for j, pattern in enumerate(patterns):
        try:
            row = fetch(pattern)
        except KeyError:
            row = None
        if row is None or len(pattern) != len(known):
            if not known.issuperset(pattern):
                unknown = next(name for name in pattern if name not in known)
                raise ValueError(
                    f"pattern {j} assigns unknown input {unknown!r}"
                )
            row = fetch({**dict.fromkeys(inputs, 0), **pattern})
        rows.append(row)
    return rows


def _rows_to_words(rows: np.ndarray, mask: int = -1) -> list[int]:
    """Every row of a ``(n, lanes)`` uint64 array as one python int
    (bit ``64*l + b`` is bit ``b`` of lane ``l``), ANDed with ``mask``
    (``-1`` keeps every bit)."""
    # One list of python ints per lane, folded from the top lane down.
    lanes = rows.T.tolist()
    words = lanes.pop()
    while lanes:
        words = [(w << 64) | low for w, low in zip(words, lanes.pop())]
    return words if mask == -1 else [w & mask for w in words]


def unpack_word(word: int, n_patterns: int) -> list[int]:
    """Explode ``word`` into a list of ``n_patterns`` bits (LSB = pattern 0)."""
    return [(word >> j) & 1 for j in range(n_patterns)]


def simulate_words(
    circuit: Circuit,
    input_words: Mapping[str, int],
    n_patterns: int,
    forced_words: Mapping[str, int] | None = None,
    outputs: Sequence[str] | None = None,
    xor_words: Mapping[str, int] | None = None,
) -> dict[str, int]:
    """Bit-parallel simulation with one integer word per signal.

    ``forced_words`` overrides whole signal words (all patterns at once),
    mirroring the ``forced`` parameter of the scalar simulator.
    ``xor_words`` XORs a word into a signal after it is evaluated and
    forced, primary inputs included, before its fanout reads it: a word
    that covers one block of patterns complements the signal in that
    block only, so one pass carries one *flip row* per signal (the
    diagnosis singleton sweep,
    :func:`repro.diagnosis.validity.single_gate_rect_words`).  DFFs are
    treated as constant-0 present state; diagnosis always runs on the
    full-scan view where no DFFs remain.

    ``outputs`` restricts the pass to those signals' fan-in cones
    (:meth:`~repro.sim.compiled.CompiledCircuit.cone_mask`): only the
    union of the cones is evaluated, and only those signals' words are
    returned, in the order given.  Forcing a signal outside the union
    cannot change them, so every returned word equals the full pass's.
    An unknown name raises :class:`~repro.circuits.netlist.CircuitError`.
    """
    comp = compile_circuit(circuit)
    mask = (1 << n_patterns) - 1
    forced = _by_index(comp, forced_words, mask)
    flips = _by_index(comp, xor_words, mask)
    touched = forced.keys() | flips.keys()
    if outputs is None:
        inputs, eval_order = comp.input_indices, comp.eval_order
    else:
        inputs, eval_order = comp.cone_order(comp.cone_mask(outputs))
    values = [0] * (comp.n + 1)  # the last slot is the zero slot
    names = comp.names
    for idx in inputs:
        v = input_words.get(names[idx], 0) & mask
        if idx in touched:
            v = forced.get(idx, v) ^ flips.get(idx, 0)
        values[idx] = v
    steps = comp.steps
    for idx in eval_order:
        op, invert, first, rest = steps[idx]
        v = values[first]
        if rest:
            if op == AND:
                for f in rest:
                    v &= values[f]
            elif op == OR:
                for f in rest:
                    v |= values[f]
            else:
                for f in rest:
                    v ^= values[f]
        if invert:
            v ^= mask
        if idx in touched:
            v = forced.get(idx, v)
            if idx in flips:
                v ^= flips[idx]
        values[idx] = v
    if outputs is not None:
        index = comp.index
        return {name: values[index[name]] for name in outputs}
    return dict(zip(names, values))


def _by_index(
    comp: CompiledCircuit, words: Mapping[str, int] | None, mask: int
) -> dict[int, int]:
    """``words`` keyed by signal index and masked; a name that is no
    signal raises :class:`~repro.circuits.netlist.CircuitError`."""
    if not words:
        return {}
    index = comp.index
    try:
        # A word already inside the mask is kept as it is: comparing
        # costs less than masking a wide word.
        return {
            index[name]: word if 0 <= word <= mask else word & mask
            for name, word in words.items()
        }
    except KeyError as exc:
        comp.circuit.node(exc.args[0])  # raises, naming the signal
        raise


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
    zeros = np.zeros(lanes, dtype=np.uint64)
    values: list[np.ndarray] = [zeros] * (comp.n + 1)  # last: zero slot
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
    steps = comp.steps
    for idx in comp.eval_order:
        op, invert, first, rest = steps[idx]
        v = values[first]
        if rest:
            ufunc = UFUNCS[op]
            v = ufunc(v, values[rest[0]])
            for f in rest[1:]:
                ufunc(v, values[f], v)
        if invert:
            v = ~v
        values[idx] = forced_idx.get(idx, v)
    return {name: values[comp.index[name]] for name in comp.names}
