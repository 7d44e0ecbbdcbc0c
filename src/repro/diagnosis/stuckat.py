"""Stuck-at fault diagnosis for production test (paper §1 motivation).

The paper opens with diagnosis arising in "dynamic verification, property
checking, equivalence checking and production test", and ref [1] treats
error location and fault diagnosis as the same problem.  This module
implements the classic *cause-effect* flavour for the production-test
setting: a device fails on the tester with observed output responses; the
candidate stuck-at faults are those whose simulated faulty behaviour
matches the observation.

Three interchangeable signature engines back the module (``engine``
parameter of :class:`FaultDictionary` and :func:`diagnose_stuck_at`,
resolved through :data:`repro.sim.engines.SIM_ENGINES`):

* ``"serial"`` — one bit-parallel simulation pass per fault
  (:func:`fault_signature`), the original serial-fault / parallel-pattern
  oracle;
* ``"batch"`` — the fault-parallel × pattern-parallel numpy engine
  (:mod:`repro.sim.batchfault`): all faults stacked along a batch axis and
  swept in one vectorized pass, with matching done by vectorized popcount.
* ``"codegen"`` — the same sweep through the per-circuit generated
  straight-line kernel (:mod:`repro.sim.codegen`): an opt-in fast path
  that pays one kernel build per circuit and then sweeps ~2× faster
  than ``"batch"``.

``"auto"`` (the default) selects ``"batch"``.  All engines produce
bit-identical signatures and rankings — the test-suite and
``benchmarks/bench_stuckat.py`` assert the equivalence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..circuits.netlist import Circuit
from ..faults.models import StuckAtFault
from ..sim.batchfault import (
    batch_output_lanes,
    lanes_to_words,
    pack_responses,
    popcount,
)
from ..sim.codegen import codegen_output_lanes
from ..sim.engines import DICTIONARY, resolve_engine
from ..sim.parallel import pack_patterns, simulate_words
from .base import SolutionSetResult

__all__ = [
    "FaultMatch",
    "FaultDictionary",
    "full_fault_list",
    "fault_signature",
    "diagnose_stuck_at",
]


@dataclass(frozen=True)
class FaultMatch:
    """One ranked candidate fault.

    ``mismatch_bits`` counts output-bits (over all patterns and outputs)
    where the fault's simulated behaviour differs from the observation;
    0 means a perfect explanation.
    """

    fault: StuckAtFault
    mismatch_bits: int

    @property
    def exact(self) -> bool:
        return self.mismatch_bits == 0


def _output_lanes_fn(engine: str):
    """The batched-sweep implementation for a lane-based engine."""
    return codegen_output_lanes if engine == "codegen" else batch_output_lanes


def full_fault_list(
    circuit: Circuit, include_inputs: bool = True
) -> list[StuckAtFault]:
    """Both stuck-at polarities on every gate output (and optionally every
    primary-input stem).

    Primary-input stuck-ats are modelled by forcing the input signal, which
    the checker supports even though the *injector* cannot rewrite an input
    node.  Classic equivalence collapsing is deliberately not applied: the
    diagnosis ranks all sites so ties expose equivalent faults naturally.
    """
    faults: list[StuckAtFault] = []
    for gate in circuit.gates:
        faults.append(StuckAtFault(gate.name, 0))
        faults.append(StuckAtFault(gate.name, 1))
    if include_inputs:
        for pi in circuit.inputs:
            faults.append(StuckAtFault(pi, 0))
            faults.append(StuckAtFault(pi, 1))
    return faults


def fault_signature(
    circuit: Circuit,
    fault: StuckAtFault,
    input_words: Mapping[str, int],
    n_patterns: int,
) -> dict[str, int]:
    """Output words of ``circuit`` with ``fault`` active on all patterns."""
    mask = (1 << n_patterns) - 1
    forced = {fault.signal: mask if fault.value else 0}
    values = simulate_words(
        circuit, input_words, n_patterns, forced_words=forced
    )
    return {out: values[out] for out in circuit.outputs}


def _rank(
    faults: Sequence[StuckAtFault],
    mismatches: Sequence[int],
    max_candidates: int | None,
) -> list[FaultMatch]:
    matches = [
        FaultMatch(fault, int(bits)) for fault, bits in zip(faults, mismatches)
    ]
    matches.sort(key=lambda m: (m.mismatch_bits, m.fault.signal, m.fault.value))
    if max_candidates is not None:
        matches = matches[:max_candidates]
    return matches


class FaultDictionary:
    """Precomputed cause-effect dictionary for one pattern set.

    Production test lines diagnose *many* devices against the *same*
    pattern set; simulating every fault per device (what
    :func:`diagnose_stuck_at` does) wastes that structure.  This class
    simulates each candidate fault once up front and then matches any
    number of observed responses — with the default ``"batch"`` engine the
    build is one fault-parallel numpy sweep and each match a vectorized
    XOR + popcount over the signature matrix.

    >>> from repro.circuits.library import c17
    >>> from repro.testgen import generate_tests
    >>> circuit = c17()
    >>> patterns = [dict(p) for p in generate_tests(circuit).patterns]
    >>> fd = FaultDictionary(circuit, patterns)
    >>> fd.n_faults > 0
    True
    """

    def __init__(
        self,
        circuit: Circuit,
        patterns: Sequence[Mapping[str, int]],
        faults: Sequence[StuckAtFault] | None = None,
        engine: str = "auto",
    ) -> None:
        if not patterns:
            raise ValueError("need at least one pattern")
        self._circuit = circuit
        self._patterns = [dict(p) for p in patterns]
        self._n = len(self._patterns)
        self._engine = resolve_engine(engine, DICTIONARY)
        self._faults = (
            list(faults) if faults is not None else full_fault_list(circuit)
        )
        self._signature_words: list[dict[str, int]] | None = None
        if self._engine in ("batch", "codegen"):
            self._fault_lanes, good_lanes, self._lane_mask = (
                _output_lanes_fn(self._engine)(
                    circuit, self._faults, self._patterns
                )
            )
            self._good_lanes = good_lanes & self._lane_mask
        else:
            input_words = pack_patterns(self._patterns, circuit.inputs)
            self._signature_words = [
                fault_signature(circuit, fault, input_words, self._n)
                for fault in self._faults
            ]
            good = simulate_words(circuit, input_words, self._n)
            self._good = {out: good[out] for out in circuit.outputs}

    @property
    def n_faults(self) -> int:
        return len(self._faults)

    @property
    def n_patterns(self) -> int:
        return self._n

    @property
    def engine(self) -> str:
        return self._engine

    def signatures(self) -> list[dict[str, int]]:
        """Per-fault ``{output: word}`` signatures, in fault order.

        Engine-independent canonical form — the benchmark suite uses it to
        verify the batch and serial dictionaries bit-identical.
        """
        if self._signature_words is None:
            self._signature_words = lanes_to_words(
                self._fault_lanes, self._circuit.outputs, self._n
            )
        return [dict(sig) for sig in self._signature_words]

    def _check_length(self, observed: Sequence[Mapping[str, int]]) -> None:
        if len(observed) != self._n:
            raise ValueError(
                f"observed {len(observed)} responses for {self._n} patterns"
            )

    def match(
        self,
        observed: Sequence[Mapping[str, int]],
        max_candidates: int | None = None,
    ) -> list[FaultMatch]:
        """Rank the dictionary's faults against one device's responses.

        ``observed`` holds the device's full output response per pattern,
        in the dictionary's pattern order.
        """
        self._check_length(observed)
        if self._engine in ("batch", "codegen"):
            obs = pack_responses(self._circuit.outputs, observed)
            diff = (self._fault_lanes ^ obs) & self._lane_mask
            counts = popcount(diff).sum(axis=(1, 2))
            return _rank(self._faults, counts, max_candidates)
        observed_words = {out: 0 for out in self._circuit.outputs}
        for j, response in enumerate(observed):
            for out in self._circuit.outputs:
                if response[out] & 1:
                    observed_words[out] |= 1 << j
        assert self._signature_words is not None
        counts = [
            sum(
                bin(signature[out] ^ observed_words[out]).count("1")
                for out in self._circuit.outputs
            )
            for signature in self._signature_words
        ]
        return _rank(self._faults, counts, max_candidates)

    def passes(self, observed: Sequence[Mapping[str, int]]) -> bool:
        """True when the responses equal the fault-free ones (a good die)."""
        self._check_length(observed)
        if self._engine in ("batch", "codegen"):
            obs = pack_responses(self._circuit.outputs, observed)
            return not ((obs ^ self._good_lanes) & self._lane_mask).any()
        for j, response in enumerate(observed):
            for out in self._circuit.outputs:
                if (response[out] & 1) != ((self._good[out] >> j) & 1):
                    return False
        return True


def diagnose_stuck_at(
    circuit: Circuit,
    patterns: Sequence[Mapping[str, int]],
    observed: Sequence[Mapping[str, int]],
    faults: Sequence[StuckAtFault] | None = None,
    max_candidates: int | None = None,
    engine: str = "auto",
) -> SolutionSetResult:
    """Rank stuck-at faults by how well they explain ``observed``.

    Parameters
    ----------
    patterns:
        The tester's input patterns.
    observed:
        The DUT's observed output values per pattern (full responses, as a
        tester log provides).
    faults:
        Candidate list (default: :func:`full_fault_list`).
    engine:
        ``"batch"`` (one fault-parallel sweep; default via ``"auto"``),
        ``"codegen"`` (the same sweep through the generated per-circuit
        kernel) or ``"serial"`` (one simulation pass per fault; the
        oracle).

    Returns a :class:`SolutionSetResult` whose solutions are the signal
    names of the *exact-match* faults (perfect explanations), with the full
    ranking in ``extras["matches"]``.
    """
    if len(patterns) != len(observed):
        raise ValueError("patterns and observed responses must align")
    if not patterns:
        raise ValueError("need at least one pattern")
    engine = resolve_engine(engine, DICTIONARY)
    start = time.perf_counter()
    n = len(patterns)
    if faults is None:
        faults = full_fault_list(circuit)
    faults = list(faults)
    if engine in ("batch", "codegen"):
        fault_lanes, _, lane_mask = _output_lanes_fn(engine)(
            circuit, faults, list(patterns)
        )
        obs = pack_responses(circuit.outputs, observed)
        diff = (fault_lanes ^ obs) & lane_mask
        counts: Sequence[int] = popcount(diff).sum(axis=(1, 2))
    else:
        input_words = pack_patterns(list(patterns), circuit.inputs)
        observed_words: dict[str, int] = {out: 0 for out in circuit.outputs}
        for j, response in enumerate(observed):
            for out in circuit.outputs:
                if response[out] & 1:
                    observed_words[out] |= 1 << j
        counts = []
        for fault in faults:
            signature = fault_signature(circuit, fault, input_words, n)
            counts.append(
                sum(
                    bin(signature[out] ^ observed_words[out]).count("1")
                    for out in circuit.outputs
                )
            )
    matches = _rank(faults, counts, max_candidates)
    exact = [m for m in matches if m.exact]
    runtime = time.perf_counter() - start
    return SolutionSetResult(
        approach="STUCKAT",
        k=1,
        solutions=tuple(frozenset({m.fault.signal}) for m in exact),
        complete=True,
        t_build=0.0,
        t_first=runtime,
        t_all=runtime,
        extras={"matches": matches, "n_faults": len(faults), "engine": engine},
    )
