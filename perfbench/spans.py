"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each service layer at run
time, at the name each caller looks up (``repro.serve.shard.race_device``
for the shard's race call, ``repro.diagnosis.validity.simulate_words``
for the validity oracle's simulation, class attributes for methods), and
records one span per call: id, parent, name, start, end, device id and
an optional payload.  It is thread-aware: each thread keeps its own span
stack, shard threads learn their device from the attempt they process,
and race-leg threads map their session back to the device through
``session.tests`` and parent their spans under that device's race span.

Spans stay in memory; :meth:`Tracer.write` dumps them when the run ends
and :func:`layer_metrics` derives the per-layer metrics from them.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import statistics
import threading
import time

#: Span name -> layer.  A span's layer time counts only spans not nested
#: inside another span of the same layer (``consistent`` calling
#: ``rect_word`` is one oracle call, ``what_if`` forcing gates is one
#: simulation).
LAYERS = {
    "design.get": "design",
    "design.skeleton": "skeleton",
    "intake.parse": "intake",
    "service.run": "service",
    "service.stats": "service.stats",
    "shard.process": "shard",
    "race.device": "race",
    "race.leg": "race.leg",
    "leg.diagnose": "leg",
    "session.build": "session",
    "space.rect_words": "space",
    "oracle.rect_word": "oracle",
    "oracle.consistent": "oracle",
    "encode.instance": "encode",
    "sat.solve": "sat",
    "sim.simulate_words": "sim",
    "sim.batch_output_lanes": "sim",
    "sim.force": "sim",
    "sim.what_if": "sim",
    "journal.append": "journal",
    "journal.read": "journal.read",
    "journal.resume": "journal.resume",
}

_SAT_COUNTERS = ("conflicts", "propagations", "decisions")


class Tracer:
    """In-memory, thread-aware span recorder with runtime patching."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: id(TestSet) -> device id, so any session maps to its device.
        self.device_of_tests: dict[int, str] = {}
        #: device id -> id of its open race span (parent of leg threads).
        self._race_span: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, device: str | None) -> list:
        stack = self._stack()
        if device is None and stack:
            device = stack[-1][5]
        if stack:
            parent = stack[-1][0]
        else:
            parent = self._race_span.get(device) if device else None
        span = [next(self._ids), parent, name, 0.0, 0.0, device, None]
        stack.append(span)
        span[3] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, device: str | None = None):
        """Record one span around the caller's code."""
        span = self._open(name, device)
        try:
            yield span
        finally:
            self._close(span)

    def device_of(self, session) -> str | None:
        tests = getattr(session, "tests", None)
        return self.device_of_tests.get(id(tests)) if tests is not None else None

    # -- patching -------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, device=None, before=None,
             after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``device(args, kwargs)`` names the call's device (else it is
        inherited from the enclosing span); ``before(args, kwargs)``
        returns state handed to ``after(span, state, args, kwargs,
        result)``, which may fill the span's payload.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer._open(name, device(args, kwargs) if device else None)
            state = before(args, kwargs) if before else None
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._close(span)
                raise
            tracer._close(span)
            if after is not None:
                after(span, state, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics need."""
        from repro.diagnosis import core, satdiag, validity
        from repro.sat import solver
        from repro.serve import design, journal, race, service, shard
        from repro.sim import batchevent

        def by_self(a, k):
            return self.device_of(a[0])

        def by_tests_arg(a, k):
            tests = k.get("tests", a[2] if len(a) > 2 else None)
            return self.device_of_tests.get(id(tests))

        def by_attempt(a, k):
            return a[1].device.device_id

        def race_enter(a, k):
            device = self.device_of(a[0])
            span = self._stack()[-1]
            if device is not None:
                self._race_span[device] = span[0]
            return device

        def race_exit(span, device, a, k, outcome):
            self._race_span.pop(device, None)
            n_legs = len(k.get("strategies", race.DEFAULT_STRATEGIES))
            span[6] = {
                "winner": outcome.winner,
                "started": n_legs - outcome.skipped_legs,
                "cancelled": outcome.cancelled_legs,
                "skipped": outcome.skipped_legs,
            }

        def leg_exit(span, state, a, k, result):
            strategy = a[1] if len(a) > 1 else k.get("strategy")
            span[6] = {"strategy": strategy}

        def diagnose_exit(span, state, a, k, result):
            span[6] = {"strategy": k.get("strategy")}

        def stats_before(a, k):
            return dict(a[0].stats)

        def solve_exit(span, before, a, k, result):
            after = a[0].stats
            span[6] = {
                key: after.get(key, 0) - before.get(key, 0)
                for key in _SAT_COUNTERS
            }

        self.wrap(design.DesignCache, "get", "design.get")
        self.wrap(satdiag.MasterEncodingSkeleton, "__init__", "design.skeleton")
        self.wrap(service.DiagnosisService, "run", "service.run")
        self.wrap(service.DiagnosisService, "stats", "service.stats")
        self.wrap(shard.ServiceShard, "_process", "shard.process",
                  device=by_attempt)
        self.wrap(shard, "race_device", "race.device", device=by_self,
                  before=race_enter, after=race_exit)
        self.wrap(race, "run_leg", "race.leg", device=by_self,
                  after=leg_exit)
        self.wrap(race, "diagnose", "leg.diagnose", device=by_self,
                  after=diagnose_exit)
        self.wrap(core.DiagnosisSession, "__init__", "session.build",
                  device=by_tests_arg)
        self.wrap(core.CandidateSpace, "singleton_rect_words",
                  "space.rect_words",
                  device=lambda a, k: self.device_of(a[0].session))
        self.wrap(core.DiagnosisSession, "rect_word", "oracle.rect_word",
                  device=by_self)
        self.wrap(core.DiagnosisSession, "consistent", "oracle.consistent",
                  device=by_self)
        self.wrap(core.DiagnosisSession, "instance", "encode.instance",
                  device=by_self)
        self.wrap(core.DiagnosisSession, "what_if", "sim.what_if",
                  device=by_self)
        self.wrap(solver.Solver, "solve", "sat.solve", before=stats_before,
                  after=solve_exit)
        self.wrap(validity, "simulate_words", "sim.simulate_words")
        self.wrap(validity, "batch_output_lanes", "sim.batch_output_lanes")
        self.wrap(batchevent.BatchEventSimulator, "force", "sim.force")
        self.wrap(journal.ResultJournal, "accepted", "journal.append")
        self.wrap(journal.ResultJournal, "resolved", "journal.append")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Dump every span, with its self time, as JSON lines."""
        own = self_times(self.spans)
        with open(path, "w") as fh:
            for sid, parent, name, start, end, device, extra in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": start, "end": end, "self": own[sid],
                    "device": device, "extra": extra,
                }) + "\n")


def _union(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for s, e in sorted(intervals):
        if s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span[1] is not None:
            children.setdefault(span[1], []).append((span[3], span[4]))
    return {
        span[0]: (span[4] - span[3])
        - _union(
            (max(s, span[3]), min(e, span[4]))
            for s, e in children.get(span[0], ())
            if e > span[3] and s < span[4]
        )
        for span in spans
    }


def _outermost(spans) -> list[list]:
    """Spans not nested inside another span of their own layer."""
    by_id = {span[0]: span for span in spans}
    keep = []
    for span in spans:
        layer = LAYERS[span[2]]
        parent = by_id.get(span[1])
        while parent is not None and LAYERS[parent[2]] != layer:
            parent = by_id.get(parent[1])
        if parent is None:
            keep.append(span)
    return keep


def layer_metrics(tracer: Tracer, results, stats: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run (see ``perfbench/README.md``).

    ``results`` are the served devices' results (a device's queue wait
    is its latency minus its shard processing span); ``stats`` is the
    serving service's ``stats()``.
    """
    spans = _outermost(tracer.spans)
    n = max(len(results), 1)
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    by_name: dict[str, list] = {}
    for span in spans:
        name = span[2]
        total[name] = total.get(name, 0.0) + span[4] - span[3]
        count[name] = count.get(name, 0) + 1
        by_name.setdefault(name, []).append(span)

    def t(*names):
        return sum(total.get(x, 0.0) for x in names)

    def c(*names):
        return sum(count.get(x, 0) for x in names)

    skeleton_parents = {s[1] for s in by_name.get("design.skeleton", ())}
    build_s = sum(
        s[4] - s[3] for s in by_name.get("design.get", ())
        if s[0] in skeleton_parents
    )
    processing = by_name.get("shard.process", [])
    process_of = {s[5]: s[4] - s[3] for s in processing}
    waits = [
        max(0.0, r.latency - process_of[r.device_id])
        for r in results
        if r.device_id in process_of
    ]
    races = by_name.get("race.device", [])
    won = [s for s in races if s[6] and s[6]["winner"]]
    legs = by_name.get("race.leg", [])
    winner_of = {s[0]: s[6]["winner"] for s in races if s[6]}
    leg_busy = sum(s[4] - s[3] for s in legs)
    useful = sum(
        s[4] - s[3] for s in legs
        if s[6] and winner_of.get(s[1]) == s[6]["strategy"]
    )
    by_strategy: dict[str, float] = {}
    for s in by_name.get("leg.diagnose", ()):
        key = (s[6] or {}).get("strategy")
        by_strategy[key] = by_strategy.get(key, 0.0) + s[4] - s[3]
    sat_spans = by_name.get("sat.solve", [])
    sat = {
        key: sum((s[6] or {}).get(key, 0) for s in sat_spans)
        for key in _SAT_COUNTERS
    }
    appends = c("journal.append")
    resumes = {s[0] for s in by_name.get("journal.resume", ())}
    serve_runs = [
        s for s in by_name.get("service.run", ()) if s[1] not in resumes
    ]
    js = stats.get("journal", {})
    metrics = {
        "design.build_s": build_s,
        "design.builds": c("design.skeleton"),
        "intake.parse_s_per_device": t("intake.parse") / n,
        "service.overhead_s_per_device": max(
            0.0,
            sum(s[4] - s[3] for s in serve_runs)
            - _union((s[3], s[4]) for s in processing),
        ) / n,
        "service.memo_hits": stats.get("signature_hits", 0),
        "service.queue_wait_s_p50": (
            statistics.median(waits) if waits else 0.0
        ),
        "race.s_per_device": t("race.device") / n,
        "race.legs_started_per_device": sum(
            s[6]["started"] for s in races if s[6]
        ) / n,
        "race.legs_cancelled_per_device": sum(
            s[6]["cancelled"] for s in races if s[6]
        ) / n,
        "race.legs_skipped_per_device": sum(
            s[6]["skipped"] for s in races if s[6]
        ) / n,
        "race.useful_leg_ratio": useful / leg_busy if leg_busy else 0.0,
        "race.greedy_win_share": (
            sum(s[6]["winner"] == "greedy-stochastic" for s in won)
            / len(won) if won else 0.0
        ),
        "session.build_s_per_device": t("session.build") / n,
        "space.rect_words_s_per_device": t("space.rect_words") / n,
        "session.oracle_calls_per_device": c(
            "oracle.rect_word", "oracle.consistent"
        ) / n,
        "leg.greedy_s_per_device": by_strategy.get(
            "greedy-stochastic", 0.0) / n,
        "leg.ihs_s_per_device": by_strategy.get("ihs", 0.0) / n,
        "leg.bsat_s_per_device": by_strategy.get("bsat-auto-k", 0.0) / n,
        "encode.instance_s_per_device": t("encode.instance") / n,
        "sat.solve_calls_per_device": c("sat.solve") / n,
        "sat.solve_s_per_device": t("sat.solve") / n,
        "sat.conflicts_per_device": sat["conflicts"] / n,
        "sat.propagations_per_device": sat["propagations"] / n,
        "sat.decisions_per_device": sat["decisions"] / n,
        "sim.calls_per_device": c(
            "sim.simulate_words", "sim.batch_output_lanes", "sim.force",
            "sim.what_if",
        ) / n,
        "sim.s_per_device": t(
            "sim.simulate_words", "sim.batch_output_lanes", "sim.force",
            "sim.what_if",
        ) / n,
        "journal.append_s_per_record": (
            t("journal.append") / appends if appends else 0.0
        ),
        "journal.records_per_commit": (
            js.get("synced_records", 0) / js["commits"]
            if js.get("commits") else 0.0
        ),
        "journal.replay_s_per_device": (
            t("journal.read", "journal.resume") / n if resumes else 0.0
        ),
    }
    return metrics
