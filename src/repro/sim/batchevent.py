"""Batched event-driven simulation on uint64 pattern lanes.

The advanced diagnosis loops ask "what happens at the outputs if this
signal is forced to v?" for *every failing test at once*.
:class:`BatchEventSimulator` answers it incrementally: the current
valuation is one ``(n_signals, lanes)`` uint64 matrix — bit ``b`` of lane
``l`` is pattern ``64*l + b`` — and a force/unforce event re-evaluates
only the fanout cone of the changed signal, in level order, with one
vectorized gate evaluation per touched gate.

Forcing a whole-word value (a per-pattern lane array) is supported, which
is what effect analysis needs: "flip this gate in every failing test" is
``force(g, ~base_word)``.  Forcing the constant 0/1 across all lanes is a
stuck-at fault, so a force/read/unforce cycle per fault reproduces the
fault-parallel sweep of :mod:`repro.sim.batchfault` bit-for-bit — the
property suite drives random force/unforce sequences against from-scratch
sweeps to pin that (stale-cone bugs die here).

Engine economics: :func:`repro.sim.batchfault.batch_fault_coverage` wins
when every fault must be swept anyway (it amortizes the netlist walk over
the whole batch); the event simulator wins when changes arrive one at a
time and cones are small — the interactive what-if loop of
:mod:`repro.diagnosis.advanced_sim`.  Single-gate candidate screening
left it: one batchfault sweep restricted to the observed outputs'
fan-in cones beat a force/unforce cycle per gate from 10-gate pools
up.  It is not a fault-simulation engine of
:mod:`repro.sim.engines`: sweeping every fault through it measured
~13× slower than ``batchfault``.
"""

from __future__ import annotations

import heapq
from typing import Mapping, Sequence

import numpy as np

from ..circuits.gates import GateType
from ..circuits.netlist import Circuit
from ..circuits.structure import levels
from .batchfault import _ALL_ONES, _GATE_OPS, _lane_mask
from .compiled import compile_circuit
from .parallel import pack_patterns_numpy

__all__ = ["BatchEventSimulator"]


class BatchEventSimulator:
    """Incremental bit-parallel simulator over uint64 pattern lanes.

    Example
    -------
    >>> from repro.circuits.library import majority
    >>> sim = BatchEventSimulator(
    ...     majority(),
    ...     [{"a": 1, "b": 1, "c": 0}, {"a": 0, "b": 0, "c": 1}],
    ... )
    >>> sim.value_word("out")
    1
    >>> _ = sim.force("ab", 0)      # what-if: AND(a,b) stuck at 0
    >>> sim.value_word("out")
    0
    >>> _ = sim.unforce("ab")
    >>> sim.value_word("out")
    1
    """

    def __init__(
        self, circuit: Circuit, patterns: Sequence[Mapping[str, int]]
    ) -> None:
        if not patterns:
            raise ValueError("need at least one pattern")
        self._circuit = circuit
        self._comp = compile_circuit(circuit)
        comp = self._comp
        input_lanes, lanes = pack_patterns_numpy(patterns, circuit.inputs)
        self._lanes = lanes
        self._n_patterns = len(patterns)
        self._mask = _lane_mask(len(patterns), lanes)
        self._word_mask = (1 << len(patterns)) - 1
        level_by_name = levels(circuit)
        self._level = [level_by_name[name] for name in comp.names]
        self._fanouts: list[list[int]] = [[] for _ in range(comp.n)]
        for idx in range(comp.n):
            for f in comp.fanins[idx]:
                self._fanouts[f].append(idx)
        self._values = np.zeros((comp.n, lanes), dtype=np.uint64)
        self._inputs = np.zeros((comp.n, lanes), dtype=np.uint64)
        for name in circuit.inputs:
            idx = comp.index[name]
            self._inputs[idx] = input_lanes[name]
            self._values[idx] = input_lanes[name]
        self._forced: dict[int, np.ndarray] = {}
        for idx in comp.eval_order:
            self._values[idx] = self._evaluate(idx)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def n_patterns(self) -> int:
        return self._n_patterns

    def value_lanes(self, name: str) -> np.ndarray:
        """Current lane array of ``name`` (a copy; padding bits cleared)."""
        return self._values[self._comp.index[name]] & self._mask

    def value_word(self, name: str) -> int:
        """Current value of ``name`` as one int word (bit j = pattern j)."""
        return self._word(self._comp.index[name])

    def values_words(self) -> dict[str, int]:
        """``{signal: word}`` for every signal — the
        :func:`repro.sim.parallel.simulate_words` result format."""
        return {
            name: self._word(idx)
            for idx, name in enumerate(self._comp.names)
        }

    def output_lanes(self) -> np.ndarray:
        """``(n_outputs, lanes)`` array of the primary outputs (a copy,
        padding cleared), in circuit output order."""
        return self._values[list(self._comp.output_indices)] & self._mask

    def output_words(self) -> dict[str, int]:
        """``{output: word}`` — the serial engines' signature format."""
        comp = self._comp
        return {comp.names[idx]: self._word(idx) for idx in comp.output_indices}

    def pattern_values(self, j: int) -> dict[str, int]:
        """Scalar valuation of pattern ``j`` — the
        :func:`repro.sim.logicsim.simulate` result format."""
        if not 0 <= j < self._n_patterns:
            raise IndexError(f"pattern index {j} out of range")
        lane, bit = divmod(j, 64)
        col = (self._values[:, lane] >> np.uint64(bit)) & np.uint64(1)
        return dict(zip(self._comp.names, col.tolist()))

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def force(self, name: str, value) -> set[str]:
        """Force ``name``; returns the names of changed signals.

        ``value`` may be an ``int`` 0/1 (broadcast to every pattern — the
        stuck-at convention) or a uint64 lane array giving a per-pattern
        word (the what-if convention: ``force(g, ~base)`` flips ``g``
        everywhere).
        """
        idx = self._comp.index[name]
        lanes = self._coerce(value)
        self._forced[idx] = lanes
        if np.array_equal(self._values[idx], lanes):
            return set()
        self._values[idx] = lanes
        return self._propagate([idx])

    def unforce(self, name: str) -> set[str]:
        """Remove a forced value, restoring normal evaluation."""
        idx = self._comp.index[name]
        self._forced.pop(idx, None)
        fresh = self._evaluate(idx)
        if np.array_equal(fresh, self._values[idx]):
            return set()
        self._values[idx] = fresh
        return self._propagate([idx])

    def clear_forces(self) -> set[str]:
        """Drop all forced values at once."""
        forced = list(self._forced)
        self._forced.clear()
        dirty: list[int] = []
        for idx in forced:
            fresh = self._evaluate(idx)
            if not np.array_equal(fresh, self._values[idx]):
                self._values[idx] = fresh
                dirty.append(idx)
        return self._propagate(dirty)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _word(self, idx: int) -> int:
        raw = np.ascontiguousarray(self._values[idx]).astype("<u8", copy=False)
        return int.from_bytes(raw.tobytes(), "little") & self._word_mask

    def _coerce(self, value) -> np.ndarray:
        if isinstance(value, (int, np.integer)):
            return np.full(
                self._lanes,
                _ALL_ONES if (int(value) & 1) else np.uint64(0),
            )
        arr = np.asarray(value, dtype=np.uint64)
        if arr.shape != (self._lanes,):
            raise ValueError(
                f"forced lane array must have shape ({self._lanes},), "
                f"got {arr.shape}"
            )
        return arr.copy()

    def _evaluate(self, idx: int) -> np.ndarray:
        comp = self._comp
        gtype = comp.gtypes[idx]
        fin = comp.fanins[idx]
        values = self._values
        if gtype is GateType.INPUT:
            return self._inputs[idx]
        if gtype in (GateType.DFF, GateType.CONST0):
            return np.zeros(self._lanes, dtype=np.uint64)
        if gtype is GateType.CONST1:
            return np.full(self._lanes, _ALL_ONES)
        if gtype is GateType.NOT:
            return ~values[fin[0]]
        op_invert = _GATE_OPS.get(gtype)
        if op_invert is None:  # BUF
            return values[fin[0]].copy()
        op, invert = op_invert
        if len(fin) == 1:
            v = values[fin[0]].copy()
        else:
            v = op(values[fin[0]], values[fin[1]])
            for f in fin[2:]:
                op(v, values[f], out=v)
        return ~v if invert else v

    def _propagate(self, dirty: list[int]) -> set[str]:
        comp = self._comp
        heap: list[tuple[int, int]] = []
        queued: set[int] = set()
        changed: set[str] = set()

        def schedule(idx: int) -> None:
            if idx not in queued:
                queued.add(idx)
                heapq.heappush(heap, (self._level[idx], idx))

        for idx in dirty:
            changed.add(comp.names[idx])
            for fo in self._fanouts[idx]:
                schedule(fo)
        while heap:
            _, idx = heapq.heappop(heap)
            queued.discard(idx)
            if idx in self._forced:
                continue
            fresh = self._evaluate(idx)
            if not np.array_equal(fresh, self._values[idx]):
                changed.add(comp.names[idx])
                self._values[idx] = fresh
                for fo in self._fanouts[idx]:
                    schedule(fo)
        return changed
