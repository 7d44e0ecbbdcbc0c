"""Deductive fault simulation.

Classic single-fault deductive simulation (Armstrong): one topological pass
per pattern propagates, for every signal, the *fault list* — the set of
single stuck-at faults whose presence would flip that signal's value under
the current input vector.  The union of the primary-output lists is the set
of faults the pattern detects; one pass replaces one full simulation per
fault.

This is the pure-Python reference deductive engine, kept as the
equivalence oracle for its vectorized port
(:mod:`repro.sim.deductive_numpy`, which propagates the same lists as
uint64 bitset matrices, whole pattern blocks at once) and one leg of the
fault-engine lineup next to the serial forced-value simulator, the
bit-parallel pattern simulator, the fault-parallel batch sweep
(:mod:`repro.sim.batchfault`) and the batched event simulator
(:mod:`repro.sim.batchevent`).  All engines agree
bit-for-bit — ``tests/sim/test_cross_engine.py`` holds the full
differential matrix.

Propagation rules, for a gate ``z`` with fault-free value ``v`` and fanin
lists ``L_i``:

* no fanin at a controlling value → ``L_z = ∪ L_i`` (any flipped input
  flips the output);
* fanins ``C`` at the controlling value → ``L_z = (∩_{i∈C} L_i) −
  (∪_{j∉C} L_j)`` (every controlling input must flip, no non-controlling
  one may);
* XOR/XNOR → a fault flips ``z`` iff it flips an odd number of fanins
  (symmetric difference);
* finally ``z``'s own stuck-at-``(1−v)`` fault joins ``L_z``.

The rules are exact for single faults, including the hard cases —
reconvergent fanout (a stem fault must flip *every* controlling fanin to
propagate, and is masked when it also flips a non-controlling one) and
XOR/XNOR parity cancellation — which is what makes the engine a strong
differential oracle.  Those cases are pinned by regression tests for both
this implementation and the numpy port.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..circuits.gates import CONTROLLING_VALUE, GateType
from ..circuits.netlist import Circuit
from ..faults.collapse import full_stuck_at_universe
from ..faults.models import StuckAtFault
from .logicsim import simulate

__all__ = [
    "deductive_fault_lists",
    "deductive_detected",
    "FaultCoverage",
    "deductive_coverage",
]


def _fault_ids(
    faults: Sequence[StuckAtFault],
) -> tuple[dict[StuckAtFault, int], list[StuckAtFault]]:
    by_id = list(faults)
    return {f: i for i, f in enumerate(by_id)}, by_id


def deductive_fault_lists(
    circuit: Circuit,
    vector: Mapping[str, int],
    faults: Sequence[StuckAtFault] | None = None,
) -> dict[str, frozenset[StuckAtFault]]:
    """Fault list of every signal of ``circuit`` under ``vector``.

    ``faults`` restricts the simulated universe (default: the full stuck-at
    universe).  DFFs act as pseudo-inputs holding their (constant-0)
    present state; use the full-scan view for sequential circuits.

    >>> from repro.circuits.library import majority
    >>> from repro.faults.models import StuckAtFault
    >>> lists = deductive_fault_lists(majority(), {"a": 1, "b": 1, "c": 0})
    >>> StuckAtFault("ab", 0) in lists["out"]
    True
    """
    if faults is None:
        faults = full_stuck_at_universe(circuit)
    fid, by_id = _fault_ids(faults)
    values = simulate(circuit, vector)
    lists: dict[str, set[int]] = {}
    for name in circuit.topological_order():
        gate = circuit.node(name)
        gtype = gate.gtype
        good = values[name]
        if gtype in (GateType.INPUT, GateType.DFF, GateType.CONST0, GateType.CONST1):
            result: set[int] = set()
        elif gtype in (GateType.BUF, GateType.NOT):
            result = set(lists[gate.fanins[0]])
        elif gtype in (GateType.XOR, GateType.XNOR):
            result = set()
            for fin in gate.fanins:
                result ^= lists[fin]
        else:
            control = CONTROLLING_VALUE[gtype]
            controlling = [f for f in gate.fanins if values[f] == control]
            if not controlling:
                result = set()
                for fin in gate.fanins:
                    result |= lists[fin]
            else:
                result = set(lists[controlling[0]])
                for fin in controlling[1:]:
                    result &= lists[fin]
                for fin in gate.fanins:
                    if values[fin] != control:
                        result -= lists[fin]
        own = StuckAtFault(name, good ^ 1)
        own_id = fid.get(own)
        if own_id is not None:
            result.add(own_id)
        lists[name] = result
    return {
        name: frozenset(by_id[i] for i in ids) for name, ids in lists.items()
    }


def deductive_detected(
    circuit: Circuit,
    vector: Mapping[str, int],
    faults: Sequence[StuckAtFault] | None = None,
) -> frozenset[StuckAtFault]:
    """Faults of ``circuit`` that ``vector`` detects at some primary output.

    >>> from repro.circuits.library import c17
    >>> from repro.faults.models import StuckAtFault
    >>> vec = {"G1": 1, "G2": 1, "G3": 1, "G6": 1, "G7": 1}
    >>> StuckAtFault("G16", 0) in deductive_detected(c17(), vec)
    True
    """
    lists = deductive_fault_lists(circuit, vector, faults=faults)
    detected: set[StuckAtFault] = set()
    for out in circuit.outputs:
        detected |= lists[out]
    return frozenset(detected)


@dataclass(frozen=True)
class FaultCoverage:
    """Coverage of a pattern set over a fault list.

    ``first_detection`` maps every detected fault to the index of the first
    pattern that exposes it — the per-fault view a fault dictionary is
    built from.
    """

    faults: tuple[StuckAtFault, ...]
    first_detection: Mapping[StuckAtFault, int]
    n_patterns: int

    @property
    def detected(self) -> frozenset[StuckAtFault]:
        return frozenset(self.first_detection)

    @property
    def undetected(self) -> tuple[StuckAtFault, ...]:
        return tuple(f for f in self.faults if f not in self.first_detection)

    @property
    def coverage(self) -> float:
        """Fraction of the fault list detected (1.0 when empty)."""
        if not self.faults:
            return 1.0
        return len(self.first_detection) / len(self.faults)


def deductive_coverage(
    circuit: Circuit,
    patterns: Sequence[Mapping[str, int]],
    faults: Sequence[StuckAtFault] | None = None,
    drop_detected: bool = True,
) -> FaultCoverage:
    """Simulate ``patterns`` in order, accumulating detected faults.

    With ``drop_detected`` (default) already-detected faults leave the
    simulated universe — the standard *fault dropping* that keeps fault
    lists small as coverage climbs.  Dropping never changes the result,
    only the cost.
    """
    if faults is None:
        faults = full_stuck_at_universe(circuit)
    remaining = list(faults)
    first_detection: dict[StuckAtFault, int] = {}
    for idx, vector in enumerate(patterns):
        if not remaining:
            break
        target = remaining if drop_detected else faults
        detected = deductive_detected(circuit, vector, faults=target)
        newly = [f for f in detected if f not in first_detection]
        for fault in newly:
            first_detection[fault] = idx
        if drop_detected and newly:
            dropped = set(newly)
            remaining = [f for f in remaining if f not in dropped]
    return FaultCoverage(
        faults=tuple(faults),
        first_detection=first_detection,
        n_patterns=len(patterns),
    )
