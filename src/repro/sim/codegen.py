"""Codegen fault simulator: one straight-line numpy kernel per circuit.

The interpreted batched engine (:mod:`repro.sim.batchfault`) walks the
compiled netlist per sweep — a Python loop whose per-gate dispatch
(gate-type lookup, fanin tuple indexing) is interpreter overhead, and
whose ``(n_signals, rows, lanes)`` value buffer is touched far outside
the cache (the 600-gate production workload needs a ~30 MB buffer for a
~160-signal live set).  This module *compiles the netlist away* instead:
:func:`compile_kernel` emits one specialized Python function per
:class:`~repro.sim.compiled.CompiledCircuit` — a straight line of
vectorized numpy statements over uint64 lanes, one per gate, with no
dispatch left — and ``exec``-compiles it once per circuit.

Three properties make the generated kernel faster than interpreting the
same numpy ops:

* **Liveness-based slot reuse** — codegen knows each signal's last
  consumer, so signal values live in a small rotating pool of buffer
  slots instead of one slot per signal.  The working set shrinks to the
  circuit's *live width* (~4× smaller on the production workload), which
  keeps the whole sweep in cache.
* **Levelized emission with grouped fault forcing** — gates are emitted
  level by level, and the per-site stuck-at forcing of
  :func:`repro.sim.batchfault._sweep` collapses into at most four
  vectorized scatters per level (rows forced to 0/1, work/output
  region) instead of two fancy-index writes per fault site.
* **A dedicated output region** — primary outputs are computed straight
  into a separate array, so the response stack needs no gather over the
  sweep buffer afterwards.

The kernel is cached on the circuit (``circuit._cache["codegen"]``)
alongside the compiled form, so it is invalidated by exactly the same
structural mutations; fault-forcing plans and the sweep workspace are
cached on the kernel and keyed by the fault list / sweep shape.

Results are bit-identical to :mod:`repro.sim.batchfault` — same
evaluation order per gate, same left-fold over fanins, same forced-value
placement — and the cross-engine differential matrix
(``tests/sim/test_cross_engine.py``) pins the engine against all the
interpreted ones.  This is a *pure numpy* compiled path: it needs no
optional dependency, so the ≥2× speedup over ``batchfault``
(``benchmarks/bench_faultsim_engines.py`` gates the ratio) holds on
every install.

>>> from repro.circuits.library import majority
>>> from repro.faults.models import StuckAtFault
>>> sigs = fault_signatures_codegen(
...     majority(), [StuckAtFault("ab", 1)], [{"a": 0, "b": 0, "c": 0}]
... )
>>> sigs[0]["out"]
1
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..circuits.gates import GateType
from ..circuits.netlist import Circuit
from ..faults.collapse import full_stuck_at_universe
from ..faults.models import StuckAtFault
from .batchfault import (
    _ALL_ONES,
    _SWEEP_BUDGET,
    _fault_rows,
    _lane_mask,
    lanes_to_words,
    pack_responses,
)
from .compiled import CompiledCircuit, compile_circuit
from .deductive import FaultCoverage
from .parallel import pack_patterns_numpy

__all__ = [
    "CodegenKernel",
    "compile_kernel",
    "codegen_source",
    "codegen_output_lanes",
    "fault_signatures_codegen",
    "codegen_detected",
    "codegen_fault_coverage",
    "exact_match_faults_codegen",
]

#: Gate type -> (numpy ufunc name, invert result); mirrors
#: ``repro.sim.batchfault._GATE_OPS`` so generated code is bit-identical.
_OP_NAMES = {
    GateType.AND: ("bitwise_and", False),
    GateType.NAND: ("bitwise_and", True),
    GateType.OR: ("bitwise_or", False),
    GateType.NOR: ("bitwise_or", True),
    GateType.XOR: ("bitwise_xor", False),
    GateType.XNOR: ("bitwise_xor", True),
}

#: Cap on cached fault-forcing plans per kernel (coverage loops with
#: fault dropping produce one shrinking fault tuple per block).
_PLAN_CACHE_LIMIT = 16


def _apply_forces(entry, bflat, oflat) -> None:
    """Scatter one level's stuck-at forces into the flat value regions."""
    b0, b1, o0, o1 = entry
    if b0 is not None:
        bflat[b0] = 0
    if b1 is not None:
        bflat[b1] = _ALL_ONES
    if o0 is not None:
        oflat[o0] = 0
    if o1 is not None:
        oflat[o1] = _ALL_ONES


class CodegenKernel:
    """A compiled straight-line sweep kernel for one circuit.

    Built by :func:`compile_kernel`; holds the generated source
    (``self.source``), the executable kernel, the signal->buffer-slot
    placement used to aim fault forces, and the workspace / forcing-plan
    caches.  See the module docstring for the design.
    """

    def __init__(self, comp: CompiledCircuit) -> None:
        self.comp = comp
        # one output-region row per *unique* output signal (an output
        # listed twice shares its row; the final stack gathers per name)
        out_rows: dict[int, int] = {}
        for s in comp.output_indices:
            if s not in out_rows:
                out_rows[s] = len(out_rows)
        self.n_out_rows = len(out_rows)
        gather = [out_rows[s] for s in comp.output_indices]
        self._out_gather = (
            None if gather == list(range(len(gather))) else np.array(gather)
        )
        self._build(comp, out_rows)
        self._plans: dict[tuple[StuckAtFault, ...], tuple] = {}
        self._ws: tuple | None = None

    # ------------------------------------------------------------------
    # code generation
    # ------------------------------------------------------------------
    def _build(
        self, comp: CompiledCircuit, out_rows: dict[int, int]
    ) -> None:
        gtypes = comp.gtypes
        fanins = comp.fanins
        # Levelize: inputs at 0; source-like gates (constants, DFF — the
        # combinational engines treat DFF outputs as constant 0, so their
        # fanins are never read and may even close a sequential cycle) at
        # 1; everything else one past its deepest fanin.  Levels come out
        # dense, and sorting the topological order by level (stably)
        # keeps producers ahead of consumers.
        level = [0] * comp.n
        for idx in comp.eval_order:
            gt = gtypes[idx]
            if gt in (GateType.DFF, GateType.CONST0, GateType.CONST1):
                level[idx] = 1
                continue
            fin = fanins[idx]
            if not fin:
                raise ValueError(
                    f"gate {comp.names[idx]!r} ({gt.name}) has no fanins"
                )
            level[idx] = 1 + max(level[f] for f in fin)
        self._level = level
        n_levels = (max(level) if comp.eval_order else 0) + 1
        self.n_levels = n_levels
        by_level: list[list[int]] = [[] for _ in range(n_levels)]
        for idx in comp.eval_order:
            by_level[level[idx]].append(idx)

        def reads(idx: int) -> tuple[int, ...]:
            gt = gtypes[idx]
            if gt in _OP_NAMES:
                return fanins[idx]
            if gt in (GateType.DFF, GateType.CONST0, GateType.CONST1):
                return ()
            return fanins[idx][:1]  # NOT / BUF

        last_use: dict[int, int] = {}
        pos = 0
        for lv in range(1, n_levels):
            for idx in by_level[lv]:
                for f in reads(idx):
                    last_use[f] = pos
                pos += 1

        # slot allocation: LIFO free list; a slot freed at level L joins
        # the pool only at L+1, so the level's grouped force scatter still
        # sees the values it aims at.
        slot: dict[int, int] = {}
        place: dict[int, tuple[bool, int]] = {}  # idx -> (is_out, row)
        free: list[int] = []
        pending: list[int] = []
        next_slot = 0

        def alloc() -> int:
            nonlocal next_slot
            if free:
                return free.pop()
            s = next_slot
            next_slot += 1
            return s

        lines = ["def kern(b, out, inp, F, bflat, oflat):"]

        def bind(idx: int) -> str:
            name = f"v{idx}"
            if idx in out_rows:
                place[idx] = (True, out_rows[idx])
                lines.append(f"    {name} = out[{out_rows[idx]}]")
            else:
                s = alloc()
                slot[idx] = s
                place[idx] = (False, s)
                lines.append(f"    {name} = b[{s}]")
            return name

        def hook(lv: int) -> None:
            lines.append(f"    _f = F[{lv}]")
            lines.append("    if _f is not None: _apply(_f, bflat, oflat)")
            free.extend(pending)
            pending.clear()

        def release(idx: int, p: int) -> None:
            # the destination of a dead gate (no consumer, not an
            # output) frees immediately; read fanins free after their
            # last consumer
            if last_use.get(idx) is None and idx not in out_rows:
                pending.append(slot[idx])

        for k, idx in enumerate(comp.input_indices):
            v = bind(idx)
            lines.append(f"    {v}[...] = inp[{k}]")
            release(idx, -1)
        hook(0)

        pos = 0
        for lv in range(1, n_levels):
            for idx in by_level[lv]:
                gt = gtypes[idx]
                fin = fanins[idx]
                v = bind(idx)
                op_invert = _OP_NAMES.get(gt)
                if op_invert is not None:
                    op, invert = op_invert
                    if len(fin) == 1:
                        lines.append(f"    np.copyto({v}, v{fin[0]})")
                    else:
                        lines.append(
                            f"    np.{op}(v{fin[0]}, v{fin[1]}, out={v})"
                        )
                        for f in fin[2:]:
                            lines.append(f"    np.{op}({v}, v{f}, out={v})")
                    if invert:
                        lines.append(f"    np.invert({v}, out={v})")
                elif gt in (GateType.DFF, GateType.CONST0):
                    lines.append(f"    {v}[...] = 0")
                elif gt is GateType.CONST1:
                    lines.append(f"    {v}[...] = AO")
                elif gt is GateType.NOT:
                    lines.append(f"    np.invert(v{fin[0]}, out={v})")
                else:  # BUF
                    lines.append(f"    np.copyto({v}, v{fin[0]})")
                for f in set(reads(idx)):
                    if last_use[f] == pos and f not in out_rows:
                        pending.append(slot[f])
                release(idx, pos)
                pos += 1
            hook(lv)

        self.n_slots = next_slot
        self._place = place
        self.source = "\n".join(lines)
        namespace = {"np": np, "AO": _ALL_ONES, "_apply": _apply_forces}
        exec(compile(self.source, "<codegen-kernel>", "exec"), namespace)
        self.fn = namespace["kern"]

    # ------------------------------------------------------------------
    # per-call data: forcing plans and the sweep workspace
    # ------------------------------------------------------------------
    def _forcing_plan(self, faults: tuple[StuckAtFault, ...]) -> tuple:
        plan = self._plans.get(faults)
        if plan is not None:
            return plan
        rows = len(faults) + 1
        rows0, rows1 = _fault_rows(self.comp, faults)
        buckets: list[list] = [[None] * 4 for _ in range(self.n_levels)]
        for value, rowmap in ((0, rows0), (1, rows1)):
            for idx, rlist in rowmap.items():
                is_out, s = self._place[idx]
                which = (2 if is_out else 0) + value
                flat = [s * rows + r for r in rlist]
                entry = buckets[self._level[idx]]
                if entry[which] is None:
                    entry[which] = flat
                else:
                    entry[which].extend(flat)
        built = tuple(
            None
            if all(part is None for part in entry)
            else tuple(
                None if part is None else np.array(part, dtype=np.intp)
                for part in entry
            )
            for entry in buckets
        )
        if len(self._plans) >= _PLAN_CACHE_LIMIT:
            self._plans.clear()
        self._plans[faults] = built
        return built

    def _workspace(self, rows: int, lanes: int):
        ws = self._ws
        if ws is not None and ws[0] == rows and ws[1] == lanes:
            return ws[2:]
        b = np.empty((self.n_slots, rows, lanes), dtype=np.uint64)
        out = np.empty((self.n_out_rows, rows, lanes), dtype=np.uint64)
        self._ws = (rows, lanes, b, out, b.reshape(-1, lanes), out.reshape(-1, lanes))
        return self._ws[2:]

    # ------------------------------------------------------------------
    # sweeping
    # ------------------------------------------------------------------
    def sweep(
        self,
        faults: tuple[StuckAtFault, ...],
        input_lanes: Mapping[str, np.ndarray],
        lanes: int,
    ) -> np.ndarray:
        """Run one batched pass; returns the (cached) output region of
        shape ``(n_out_rows, rows, lanes)`` — valid until the next sweep."""
        rows = len(faults) + 1
        b, out, bflat, oflat = self._workspace(rows, lanes)
        plan = self._forcing_plan(faults)
        inp = [input_lanes[name] for name in self.comp.circuit.inputs]
        self.fn(b, out, inp, plan, bflat, oflat)
        return out

    def output_stack(self, out: np.ndarray) -> np.ndarray:
        """Copy the output region into a fresh ``(rows, n_outputs,
        lanes)`` stack in circuit output order (the
        ``batch_output_lanes`` layout)."""
        gathered = out if self._out_gather is None else out[self._out_gather]
        return np.ascontiguousarray(gathered.transpose(1, 0, 2))


def compile_kernel(circuit: Circuit) -> CodegenKernel:
    """Build (and cache) the straight-line sweep kernel for ``circuit``.

    Cached under ``circuit._cache["codegen"]``, which the circuit clears
    on every structural mutation — the same invalidation that covers the
    compiled form itself.
    """
    cached = circuit._cache.get("codegen")
    if isinstance(cached, CodegenKernel):
        return cached
    kernel = CodegenKernel(compile_circuit(circuit))
    circuit._cache["codegen"] = kernel
    return kernel


def codegen_source(circuit: Circuit) -> str:
    """The generated kernel source for ``circuit`` (debug/test aid)."""
    return compile_kernel(circuit).source


def codegen_output_lanes(
    circuit: Circuit,
    faults: Sequence[StuckAtFault],
    patterns: Sequence[Mapping[str, int]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched sweep through the generated kernel.

    Drop-in for :func:`repro.sim.batchfault.batch_output_lanes`:
    same ``(fault_lanes, good_lanes, lane_mask)`` contract,
    bit-identical values, same lane-aligned blocking of pattern sets
    that exceed the sweep-buffer budget (scaled to the slot pool, which
    is what actually gets allocated here).
    """
    if not patterns:
        raise ValueError("need at least one pattern")
    kernel = compile_kernel(circuit)
    faults = tuple(faults)
    rows = len(faults) + 1
    per_lane = (kernel.n_slots + kernel.n_out_rows) * rows * 8
    block_lanes = max(1, _SWEEP_BUDGET // max(per_lane, 1))
    block = 64 * block_lanes
    stacks = []
    for start in range(0, len(patterns), block):
        chunk = patterns[start : start + block]
        input_lanes, lanes = pack_patterns_numpy(chunk, circuit.inputs)
        out = kernel.sweep(faults, input_lanes, lanes)
        stacks.append(kernel.output_stack(out))
    stack = stacks[0] if len(stacks) == 1 else np.concatenate(stacks, axis=2)
    lanes = stack.shape[2]
    return stack[:-1], stack[-1], _lane_mask(len(patterns), lanes)


def fault_signatures_codegen(
    circuit: Circuit,
    faults: Sequence[StuckAtFault],
    patterns: Sequence[Mapping[str, int]],
) -> list[dict[str, int]]:
    """Per-fault output signatures through the generated kernel
    (codegen twin of :func:`repro.sim.batchfault.fault_signatures_batch`)."""
    faults = list(faults)
    if not faults:
        if not patterns:
            raise ValueError("need at least one pattern")
        return []
    fault_lanes, _, _ = codegen_output_lanes(circuit, faults, patterns)
    return lanes_to_words(fault_lanes, circuit.outputs, len(patterns))


def codegen_detected(
    circuit: Circuit,
    vector: Mapping[str, int],
    faults: Sequence[StuckAtFault] | None = None,
) -> frozenset[StuckAtFault]:
    """Faults ``vector`` detects, through the generated kernel (codegen
    twin of :func:`repro.sim.batchfault.batch_detected`, same defaults)."""
    if faults is None:
        faults = full_stuck_at_universe(circuit)
    faults = list(faults)
    if not faults:
        return frozenset()
    fault_lanes, good, mask = codegen_output_lanes(circuit, faults, [vector])
    diff = (fault_lanes ^ good) & mask
    hit = diff.reshape(len(faults), -1).any(axis=1)
    return frozenset(f for f, h in zip(faults, hit) if h)


def codegen_fault_coverage(
    circuit: Circuit,
    patterns: Sequence[Mapping[str, int]],
    faults: Sequence[StuckAtFault] | None = None,
    drop_detected: bool = True,
    block_patterns: int = 256,
) -> FaultCoverage:
    """Fault coverage with dropping, through the generated kernel.

    Codegen twin of :func:`repro.sim.batchfault.batch_fault_coverage`:
    identical blocking, dropping and exact ``first_detection`` indices —
    only the sweep underneath is the compiled straight-line kernel.
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
            fault_lanes, good, mask = codegen_output_lanes(
                circuit, active, block
            )
            diff = np.bitwise_or.reduce((fault_lanes ^ good) & mask, axis=1)
            hit = diff.any(axis=1)
            # vectorized first_set_bit: lowest set lane, then the lowest
            # set bit of that word via bitwise_count(lowbit - 1)
            hit_rows = np.flatnonzero(hit)
            if hit_rows.size:
                d = diff[hit_rows]
                lane = np.argmax(d != 0, axis=1)
                w = d[np.arange(hit_rows.size), lane]
                low = w & (~w + np.uint64(1))
                first = 64 * lane + np.bitwise_count(low - np.uint64(1))
                for row, pat in zip(hit_rows.tolist(), first.tolist()):
                    fault = active[row]
                    if fault not in first_detection:  # re-hits w/o dropping
                        first_detection[fault] = start + pat
            if drop_detected:
                active = [f for f, h in zip(active, hit) if not h]
    return FaultCoverage(
        faults=tuple(faults),
        first_detection=first_detection,
        n_patterns=len(patterns),
    )


def exact_match_faults_codegen(
    circuit: Circuit,
    patterns: Sequence[Mapping[str, int]],
    observed: Sequence[Mapping[str, int]],
    faults: Sequence[StuckAtFault] | None = None,
    block_patterns: int = 256,
) -> list[StuckAtFault]:
    """Exact-signature diagnosis through the generated kernel (codegen
    twin of :func:`repro.sim.batchfault.exact_match_faults`)."""
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
        fault_lanes, _, mask = codegen_output_lanes(circuit, active, block)
        obs = pack_responses(
            circuit.outputs, observed[start : start + block_patterns]
        )
        diff = (fault_lanes ^ obs) & mask
        clean = ~diff.reshape(len(active), -1).any(axis=1)
        active = [f for f, ok in zip(active, clean) if ok]
    return active
