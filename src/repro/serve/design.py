"""Per-design artifact cache shared by every shard of the service.

All devices of one circuit design share everything that does not depend
on the observed failures: the parsed netlist, its compiled levelized
form (:func:`repro.sim.compiled.compile_circuit` caches into the
circuit object, so keeping one ``Circuit`` per design keeps the lane
simulator warm), the topological order, and — the expensive one — the
:class:`~repro.diagnosis.satdiag.MasterEncodingSkeleton`: select-line
layout, per-output fan-in cones and pre-encoded cone clause templates.
A device's master SAT instance is then *stamped* from the skeleton
instead of re-walking the netlist (see ``satdiag``).

The cache also holds the per-design **result memo** keyed by failure
signature: devices carrying an identical signature are the same
diagnosis workload by construction, so the first one's uint64-lane
simulation and race answer serve all of them (the batching path).
The memo is an LRU bounded by ``memo_max_entries`` (per design) —
million-device traffic with ever-fresh signatures evicts the coldest
entries instead of growing without bound; evictions are counted.

``stats`` counts builds and hits; the serve benchmark asserts
``skeleton_builds[design] == 1`` however many devices of the design
flow through — the acceptance criterion that the observation-
independent half is built exactly once per design.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..circuits import bench, library
from ..circuits.netlist import Circuit
from ..circuits.scan import to_combinational
from ..diagnosis.satdiag import MasterEncodingSkeleton
from ..sim.compiled import compile_circuit

__all__ = [
    "DEFAULT_MEMO_MAX_ENTRIES",
    "DesignArtifacts",
    "DesignCache",
    "SignatureMemo",
    "load_design",
]

#: Default per-design LRU bound for the signature result memo.  Generous
#: on purpose: a memo entry is a few answer tuples, so even thousands
#: per design are cheap — the cap only exists so an endless stream of
#: unique signatures cannot grow the map without bound.
DEFAULT_MEMO_MAX_ENTRIES = 4096


class SignatureMemo:
    """Bounded LRU of failure signature -> resolved-answer memo.

    The drop-in replacement for the unbounded dict the memo used to be:
    ``get`` refreshes recency, ``store`` is first-writer-wins (the
    service's exactly-once memo semantics) and evicts the least
    recently used entries past ``max_entries``.  Not thread-safe on its
    own — the service serializes access under its memo lock.
    """

    def __init__(self, max_entries: int = DEFAULT_MEMO_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = max_entries
        self.evictions = 0
        self._entries: OrderedDict[tuple, dict] = OrderedDict()

    def get(self, signature: tuple) -> dict | None:
        memo = self._entries.get(signature)
        if memo is not None:
            self._entries.move_to_end(signature)
        return memo

    def store(self, signature: tuple, memo: dict) -> bool:
        """Insert unless present; True when this call stored the entry."""
        if signature in self._entries:
            self._entries.move_to_end(signature)
            return False
        self._entries[signature] = memo
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
        return True

    def __contains__(self, signature: tuple) -> bool:
        return signature in self._entries

    def __len__(self) -> int:
        return len(self._entries)


def load_design(spec: str) -> Circuit:
    """Default design loader: a library name or a ``.bench`` path.

    A sequential design resolves to its full-scan combinational view
    (:func:`~repro.circuits.scan.to_combinational`), the circuit test
    floors observe and :func:`~repro.experiments.make_workload`
    diagnoses.
    """
    if spec in library.available_circuits():
        circuit = library.get_circuit(spec)
    else:
        path = Path(spec)
        if not path.exists():
            raise ValueError(
                f"design {spec!r} is neither a library circuit "
                f"({', '.join(library.available_circuits())}) nor a file"
            )
        circuit = bench.load(path)
    if circuit.is_sequential:
        circuit = to_combinational(circuit).circuit
    return circuit


@dataclass
class DesignArtifacts:
    """Everything device-independent about one circuit design."""

    name: str
    circuit: Circuit
    skeleton: MasterEncodingSkeleton
    #: Failure-signature -> resolved answer (the service fills this; one
    #: entry serves every device carrying the signature).  LRU-bounded.
    result_memo: SignatureMemo = field(default_factory=SignatureMemo)


class DesignCache:
    """Thread-safe once-per-design artifact store."""

    def __init__(
        self,
        loader: Callable[[str], Circuit] | None = None,
        memo_max_entries: int = DEFAULT_MEMO_MAX_ENTRIES,
    ) -> None:
        if memo_max_entries < 1:
            raise ValueError("memo_max_entries must be at least 1")
        self._loader = loader if loader is not None else load_design
        self.memo_max_entries = memo_max_entries
        self._lock = threading.Lock()
        self._designs: dict[str, DesignArtifacts] = {}
        self.stats = {
            "designs_built": 0,
            "design_hits": 0,
            "skeleton_builds": {},
        }

    def get(self, name: str) -> DesignArtifacts:
        """Artifacts for ``name``, built exactly once per design."""
        with self._lock:
            artifacts = self._designs.get(name)
            if artifacts is not None:
                self.stats["design_hits"] += 1
                return artifacts
            circuit = self._loader(name)
            # Warm the circuit-attached caches every device will hit:
            # the compiled levelized form feeds the uint64-lane
            # simulator, the topological order feeds the encoders.
            compile_circuit(circuit)
            circuit.topological_order()
            skeleton = MasterEncodingSkeleton(circuit)
            artifacts = DesignArtifacts(
                name=name,
                circuit=circuit,
                skeleton=skeleton,
                result_memo=SignatureMemo(self.memo_max_entries),
            )
            self._designs[name] = artifacts
            self.stats["designs_built"] += 1
            builds = self.stats["skeleton_builds"]
            builds[name] = builds.get(name, 0) + 1
            return artifacts

    def inputs_of(self, name: str) -> tuple[str, ...]:
        """Primary-input order of ``name`` (for ``bits`` intake)."""
        return tuple(self.get(name).circuit.inputs)

    def memo_evictions(self) -> int:
        """Total LRU evictions across every design's result memo."""
        with self._lock:
            return sum(
                a.result_memo.evictions for a in self._designs.values()
            )

    def __len__(self) -> int:
        return len(self._designs)
