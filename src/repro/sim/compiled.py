"""Compiled (index-based) circuit form shared by the simulators.

Name-keyed dictionaries are convenient for construction and diagnosis
book-keeping but slow to simulate.  :class:`CompiledCircuit` freezes a
:class:`~repro.circuits.netlist.Circuit` into parallel arrays — names,
gate-type codes, fanin index tuples, topological evaluation order — that the
single-pattern, bit-parallel and event-driven engines all share.

The compiled form is cached on the circuit and invalidated automatically
when the circuit mutates (the circuit's internal cache is cleared on every
structural change).  So are the per-design tables the word-parallel
engines dispatch through: one evaluation step per signal
(:attr:`CompiledCircuit.steps`) and every signal's fan-in cone as one
bit word (:meth:`CompiledCircuit.cone_mask`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..circuits.gates import GateType
from ..circuits.netlist import Circuit

__all__ = ["CompiledCircuit", "compile_circuit", "AND", "OR", "XOR", "UFUNCS"]

#: Fold operators of :attr:`CompiledCircuit.steps`.
AND, OR, XOR = range(3)

#: The numpy ufunc of each fold operator, for the lane engines.
UFUNCS = {AND: np.bitwise_and, OR: np.bitwise_or, XOR: np.bitwise_xor}

#: Gate type -> (fold operator, invert the result).  A one-fanin fold
#: is the fanin itself, so BUF and NOT are folds too.
_FOLDS = {
    GateType.AND: (AND, False),
    GateType.NAND: (AND, True),
    GateType.OR: (OR, False),
    GateType.NOR: (OR, True),
    GateType.XOR: (XOR, False),
    GateType.XNOR: (XOR, True),
    GateType.BUF: (AND, False),
    GateType.NOT: (AND, True),
}


@dataclass(frozen=True)
class CompiledCircuit:
    """Immutable index-based view of a circuit.

    ``eval_order`` lists node indices in topological order *excluding*
    sources (inputs, constants are included since they still need a value,
    DFF handling is the engine's business).  ``fanins`` is parallel to
    ``names``.
    """

    circuit: Circuit
    names: tuple[str, ...]
    index: dict[str, int]
    gtypes: tuple[GateType, ...]
    fanins: tuple[tuple[int, ...], ...]
    eval_order: tuple[int, ...]
    input_indices: tuple[int, ...]
    output_indices: tuple[int, ...]
    dff_indices: tuple[int, ...]
    steps: tuple[tuple[int, bool, int, tuple[int, ...]], ...]
    _eval_array: np.ndarray = field(repr=False, compare=False)
    _input_array: np.ndarray = field(repr=False, compare=False)
    _cones: list[tuple[int, ...]] = field(
        default_factory=list, repr=False, compare=False
    )
    _pool: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.names)

    def cone_mask(self, signals: Sequence[str]) -> np.ndarray:
        """Boolean mask over signal indices of the union of the fan-in
        cones of ``signals``, each the same signal set as
        :meth:`~repro.circuits.netlist.Circuit.fanin_cone` (DFFs
        crossed).  A name that is no signal raises
        :class:`~repro.circuits.netlist.CircuitError`."""
        cones = self._cone_words()
        union = 0
        for name in signals:
            idx = self.index.get(name)
            if idx is None:
                self.circuit.node(name)  # raises, naming the signal
            union |= cones[idx]
        raw = union.to_bytes(-(-self.n // 8), "little")
        bits = np.unpackbits(
            np.frombuffer(raw, np.uint8), count=self.n, bitorder="little"
        )
        return bits.view(bool)

    def pool_index(
        self, pool: Sequence[str]
    ) -> tuple[tuple[str, ...], np.ndarray]:
        """``(names, indices)``: ``pool`` without repeats, in order, and
        the read-only index array of those signals.  A name that is no
        signal raises ``KeyError``.  The answer for the last *tuple*
        pool is kept, keyed on its identity: a diagnosis pool is the
        circuit's ``gate_names`` tuple, the same object on every device
        of a design, so each design pays for its pool index once."""
        cached = self._pool
        if cached is not None and cached[0] is pool:
            return cached[1], cached[2]
        names = tuple(dict.fromkeys(pool))
        indices = np.fromiter(
            map(self.index.__getitem__, names), dtype=np.intp,
            count=len(names),
        )
        indices.flags.writeable = False
        if isinstance(pool, tuple):
            # Published whole: a thread that races this build reads
            # either the old entry or all of this one.
            object.__setattr__(self, "_pool", (pool, names, indices))
        return names, indices

    def _cone_words(self) -> tuple[int, ...]:
        """Bit ``i`` of word ``idx`` is set iff signal ``i`` is in the
        fan-in cone of signal ``idx``: every cone of the design, built
        on first use in one pass over the fanins (more only where a
        DFF's fanin follows it)."""
        if not self._cones:
            words = [1 << idx for idx in range(self.n)]
            changed = True
            while changed:
                changed = False
                for idx, fanins in enumerate(self.fanins):
                    word = words[idx]
                    for f in fanins:
                        word |= words[f]
                    if word != words[idx]:
                        words[idx] = word
                        changed = True
                # Fanins precede their signal, except a DFF's: without
                # DFFs the first pass is already closed.
                changed = changed and bool(self.dff_indices)
            # Published whole: a thread that races this build reads
            # either nothing (and builds the same words) or all of them.
            self._cones.append(tuple(words))
        return self._cones[0]

    def cone_order(self, cone: np.ndarray) -> tuple[list[int], list[int]]:
        """``(inputs, eval_order)`` restricted to the signals of the
        boolean mask ``cone`` (closed under fan-in), in the same order."""
        inputs = self._input_array
        order = self._eval_array
        return inputs[cone[inputs]].tolist(), order[cone[order]].tolist()


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """Compile (and cache) ``circuit`` into array form."""
    cached = circuit._cache.get("compiled")
    if isinstance(cached, CompiledCircuit):
        return cached
    topo = circuit.topological_order()
    names = tuple(topo)
    index = {name: i for i, name in enumerate(names)}
    gtypes = tuple(circuit.node(name).gtype for name in names)
    fanins = tuple(
        tuple(index[f] for f in circuit.node(name).fanins) for name in names
    )
    eval_order = tuple(
        i
        for i, name in enumerate(names)
        if gtypes[i] is not GateType.INPUT
    )
    input_indices = tuple(index[name] for name in circuit.inputs)
    zero = len(names)  # the zero slot
    steps = tuple(
        (*_FOLDS[gtype], fin[0], fin[1:])
        if gtype in _FOLDS
        else (AND, gtype is GateType.CONST1, zero, ())
        for gtype, fin in zip(gtypes, fanins)
    )
    compiled = CompiledCircuit(
        circuit=circuit,
        names=names,
        index=index,
        gtypes=gtypes,
        fanins=fanins,
        eval_order=eval_order,
        input_indices=input_indices,
        output_indices=tuple(index[name] for name in circuit.outputs),
        dff_indices=tuple(
            i for i, t in enumerate(gtypes) if t is GateType.DFF
        ),
        steps=steps,
        _eval_array=np.asarray(eval_order, dtype=np.intp),
        _input_array=np.asarray(input_indices, dtype=np.intp),
    )
    circuit._cache["compiled"] = compiled
    return compiled
