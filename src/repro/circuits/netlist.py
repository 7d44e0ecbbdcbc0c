"""Gate-level netlist representation.

:class:`Circuit` is the central data structure of the library: a named
directed acyclic graph of gates (plus ``DFF`` elements for sequential
designs).  It is deliberately simple — a dict of :class:`Gate` records keyed
by signal name — with derived structure (fanout lists, topological order,
levels) computed lazily and invalidated on mutation.

All diagnosis algorithms treat the circuit as the *implementation* ``I`` of
the paper; error injection (:mod:`repro.faults`) produces mutated copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .gates import COMBINATIONAL_TYPES, FUNCTIONAL_TYPES, GateType

__all__ = ["Gate", "Circuit", "CircuitError"]


class CircuitError(ValueError):
    """Raised for structural problems: unknown fanins, cycles, bad arity."""


@dataclass(frozen=True)
class Gate:
    """One node of the netlist.

    ``name`` is the output signal name of the gate (signal names and gate
    names coincide, as in the ``.bench`` format).  ``fanins`` lists the
    driving signal names in order.
    """

    name: str
    gtype: GateType
    fanins: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.gtype in (GateType.INPUT, GateType.CONST0, GateType.CONST1):
            if self.fanins:
                raise CircuitError(f"{self.gtype} node {self.name!r} cannot have fanins")
        elif self.gtype in (GateType.BUF, GateType.NOT, GateType.DFF):
            if len(self.fanins) != 1:
                raise CircuitError(
                    f"{self.gtype} gate {self.name!r} requires exactly 1 fanin, "
                    f"got {len(self.fanins)}"
                )
        elif not self.fanins:
            raise CircuitError(f"{self.gtype} gate {self.name!r} requires fanins")

    @property
    def is_input(self) -> bool:
        return self.gtype is GateType.INPUT

    @property
    def is_dff(self) -> bool:
        return self.gtype is GateType.DFF

    @property
    def is_functional(self) -> bool:
        """True for gates computing a Boolean function (not inputs/DFFs/consts)."""
        return self.gtype in FUNCTIONAL_TYPES


class Circuit:
    """A gate-level netlist.

    Nodes are added with :meth:`add_input` / :meth:`add_gate`; primary
    outputs are declared with :meth:`add_output` and may name any node.
    Iteration order of :attr:`nodes` is insertion order; derived orders are
    cached and recomputed after mutation.

    Example
    -------
    >>> c = Circuit("half_adder")
    >>> c.add_input("a"); c.add_input("b")
    >>> c.add_gate("sum", GateType.XOR, ["a", "b"])
    >>> c.add_gate("carry", GateType.AND, ["a", "b"])
    >>> c.add_output("sum"); c.add_output("carry")
    >>> c.validate()
    """

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self._nodes: dict[str, Gate] = {}
        self._inputs: list[str] = []
        self._outputs: list[str] = []
        self._cache: dict[str, object] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> None:
        """Declare a primary input signal."""
        self._insert(Gate(name, GateType.INPUT))
        self._inputs.append(name)

    def add_gate(
        self, name: str, gtype: GateType, fanins: Sequence[str] = ()
    ) -> None:
        """Add a gate driving signal ``name``.

        Fanins may be declared later (forward references are resolved at
        :meth:`validate` time), which makes netlist parsing single-pass.
        """
        if gtype is GateType.INPUT:
            raise CircuitError("use add_input() for primary inputs")
        self._insert(Gate(name, gtype, tuple(fanins)))

    def add_output(self, name: str) -> None:
        """Declare signal ``name`` as a primary output (node may not exist yet)."""
        if name in self._outputs:
            raise CircuitError(f"duplicate output declaration {name!r}")
        self._outputs.append(name)
        self._invalidate()

    def _insert(self, gate: Gate) -> None:
        if gate.name in self._nodes:
            raise CircuitError(f"duplicate signal name {gate.name!r}")
        self._nodes[gate.name] = gate
        self._invalidate()

    def _invalidate(self) -> None:
        self._cache.clear()

    # ------------------------------------------------------------------
    # mutation (used by error injection)
    # ------------------------------------------------------------------
    def replace_gate(
        self,
        name: str,
        gtype: GateType | None = None,
        fanins: Sequence[str] | None = None,
    ) -> None:
        """Replace the function and/or fanins of an existing gate in place.

        Primary inputs cannot be replaced.  The caller is responsible for
        keeping the circuit acyclic; :meth:`validate` re-checks.
        """
        old = self.node(name)
        if old.is_input:
            raise CircuitError(f"cannot replace primary input {name!r}")
        new_type = old.gtype if gtype is None else gtype
        new_fanins = old.fanins if fanins is None else tuple(fanins)
        self._nodes[name] = Gate(name, new_type, new_fanins)
        self._invalidate()

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def node(self, name: str) -> Gate:
        try:
            return self._nodes[name]
        except KeyError:
            raise CircuitError(f"unknown signal {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._nodes.values())

    @property
    def nodes(self) -> Mapping[str, Gate]:
        return self._nodes

    @property
    def inputs(self) -> tuple[str, ...]:
        """Primary inputs in declaration order."""
        return tuple(self._inputs)

    @property
    def outputs(self) -> tuple[str, ...]:
        """Primary outputs in declaration order."""
        return tuple(self._outputs)

    @property
    def gates(self) -> tuple[Gate, ...]:
        """All functional gates (excludes inputs, constants and DFFs;
        cached until the next mutation)."""
        cached = self._cache.get("gates")
        if cached is None:
            cached = tuple(
                g for g in self._nodes.values() if g.is_functional
            )
            self._cache["gates"] = cached
        return cached  # type: ignore[return-value]

    @property
    def gate_names(self) -> tuple[str, ...]:
        cached = self._cache.get("gate_names")
        if cached is None:
            cached = tuple(g.name for g in self.gates)
            self._cache["gate_names"] = cached
        return cached  # type: ignore[return-value]

    @property
    def dffs(self) -> tuple[Gate, ...]:
        return tuple(g for g in self._nodes.values() if g.is_dff)

    @property
    def is_sequential(self) -> bool:
        return any(g.is_dff for g in self._nodes.values())

    @property
    def num_gates(self) -> int:
        """Size |I| of the circuit: the number of functional gates."""
        return len(self.gates)

    # ------------------------------------------------------------------
    # derived structure
    # ------------------------------------------------------------------
    def fanouts(self) -> Mapping[str, tuple[str, ...]]:
        """Map each signal to the names of gates it drives (cached)."""
        cached = self._cache.get("fanouts")
        if cached is None:
            result: dict[str, list[str]] = {name: [] for name in self._nodes}
            for gate in self._nodes.values():
                for fin in gate.fanins:
                    if fin not in result:
                        raise CircuitError(
                            f"gate {gate.name!r} references unknown signal {fin!r}"
                        )
                    result[fin].append(gate.name)
            cached = {k: tuple(v) for k, v in result.items()}
            self._cache["fanouts"] = cached
        return cached  # type: ignore[return-value]

    def fanin_cone(self, signal: str) -> frozenset[str]:
        """Every signal in the transitive fan-in of ``signal``, itself
        included (cached per signal until the next mutation).

        The structural cone crosses DFFs, like
        :func:`repro.circuits.structure.fanin_cone`.  Forcing a signal
        outside the cone of output ``o`` cannot change ``o``: the
        diagnosis sweeps, conflicts and encodings restrict to it.
        """
        cones = self._cache.get("fanin_cones")
        if cones is None:
            cones = self._cache["fanin_cones"] = {}
        cached = cones.get(signal)  # type: ignore[union-attr]
        if cached is None:
            cached = frozenset(subcircuit_names(self, (signal,)))
            cones[signal] = cached  # type: ignore[index]
        return cached

    def topological_order(self) -> tuple[str, ...]:
        """Signal names in topological order (fanins before fanouts).

        DFF fanins are *not* treated as combinational dependencies: a DFF
        breaks the cycle, matching standard sequential-circuit semantics.
        Raises :class:`CircuitError` on a combinational cycle.
        """
        cached = self._cache.get("topo")
        if cached is None:
            indeg: dict[str, int] = {}
            dependents: dict[str, list[str]] = {name: [] for name in self._nodes}
            for gate in self._nodes.values():
                deps = () if gate.is_dff else gate.fanins
                indeg[gate.name] = len(deps)
                for fin in deps:
                    if fin not in dependents:
                        raise CircuitError(
                            f"gate {gate.name!r} references unknown signal {fin!r}"
                        )
                    dependents[fin].append(gate.name)
            # Kahn's algorithm, preserving insertion order among ready nodes
            # for deterministic output.
            ready = [n for n in self._nodes if indeg[n] == 0]
            order: list[str] = []
            head = 0
            while head < len(ready):
                node = ready[head]
                head += 1
                order.append(node)
                for dep in dependents[node]:
                    indeg[dep] -= 1
                    if indeg[dep] == 0:
                        ready.append(dep)
            if len(order) != len(self._nodes):
                cyclic = sorted(n for n, d in indeg.items() if d > 0)
                raise CircuitError(f"combinational cycle involving {cyclic[:10]}")
            cached = tuple(order)
            self._cache["topo"] = cached
        return cached  # type: ignore[return-value]

    def validate(self) -> None:
        """Check structural sanity; raises :class:`CircuitError` on problems."""
        for gate in self._nodes.values():
            for fin in gate.fanins:
                if fin not in self._nodes:
                    raise CircuitError(
                        f"gate {gate.name!r} references unknown signal {fin!r}"
                    )
        for out in self._outputs:
            if out not in self._nodes:
                raise CircuitError(f"undriven primary output {out!r}")
        self.topological_order()

    @property
    def is_combinational(self) -> bool:
        return all(g.gtype in COMBINATIONAL_TYPES for g in self._nodes.values())

    # ------------------------------------------------------------------
    # copying / equality
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "Circuit":
        """Deep-enough copy: gates are immutable so sharing them is safe."""
        dup = Circuit(self.name if name is None else name)
        dup._nodes = dict(self._nodes)
        dup._inputs = list(self._inputs)
        dup._outputs = list(self._outputs)
        return dup

    def structurally_equal(self, other: "Circuit") -> bool:
        """True if both circuits have identical nodes, inputs and outputs."""
        return (
            self._nodes == other._nodes
            and self._inputs == other._inputs
            and self._outputs == other._outputs
        )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Summary counts used in experiment reports."""
        by_type: dict[str, int] = {}
        for gate in self._nodes.values():
            by_type[gate.gtype.value] = by_type.get(gate.gtype.value, 0) + 1
        return {
            "inputs": len(self._inputs),
            "outputs": len(self._outputs),
            "gates": self.num_gates,
            "dffs": len(self.dffs),
            "nodes": len(self._nodes),
            **{f"type_{k}": v for k, v in sorted(by_type.items())},
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Circuit({self.name!r}, inputs={len(self._inputs)}, "
            f"outputs={len(self._outputs)}, gates={self.num_gates}, "
            f"dffs={len(self.dffs)})"
        )


def subcircuit_names(circuit: Circuit, roots: Iterable[str]) -> set[str]:
    """Names of all nodes in the transitive fanin cone of ``roots`` (inclusive)."""
    seen: set[str] = set()
    stack = list(roots)
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        stack.extend(circuit.node(name).fanins)
    return seen
