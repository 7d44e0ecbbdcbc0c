"""Device intake: the failing-device reports a diagnosis service consumes.

A *device* is one failing unit on the test floor: an instance of a known
circuit *design* plus the failing responses the tester observed.  The
service diagnoses the **design netlist** against those observations —
each test constrains one output to the value the tester observed (which
the design netlist does not produce), so the reported corrections are
the defect-site candidates that explain the device's behavior.

The JSON shape (one object per device, JSON-lines on the wire)::

    {"id": "lot3-die41", "design": "c17", "k": 1,
     "tests": [{"vector": {"a": 0, "b": 1, ...},
                "output": "o1", "value": 0}, ...]}

``tests[j].vector`` may be replaced by ``tests[j].bits``, a 0/1 string
in the design's primary-input order (the tester-log shape); parsing
``bits`` needs the design's input order, supplied by the caller as
``inputs_of``.  ``k`` optionally bounds the error cardinality for the
complete-enumeration rungs (default: incremental auto-``k``).

All parsing raises :class:`ValueError` naming the offending field
(``devices[3].tests[1].output`` style) — never a bare ``KeyError`` /
``IndexError`` — matching the malformed-GCNF errors of
:mod:`repro.sat.dimacs`.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ..testgen.testset import Test, TestSet

__all__ = [
    "DeviceReport",
    "device_to_wire",
    "parse_device",
    "parse_device_line",
    "read_device_stream",
    "signature_key",
    "signature_seed",
]


@dataclass(frozen=True)
class DeviceReport:
    """One failing device: identity, design, observed failing tests.

    The failure signature and the two values derived from it — the
    journal key (:func:`signature_key`) and the session seed
    (:func:`signature_seed`) — are computed on first use and cached on
    the report, the key and the seed from one canonical encode of the
    signature, so the serving layers that ask for them again (admission,
    resolution, resume, the attempt's session) pay nothing more.  An
    attempt hands :meth:`session_seed` to its session uncalled, so the
    seed is computed only when a greedy climb draws.  Without a
    journal (which keys every admitted device), a device that no climb
    draws for never encodes its signature.
    """

    device_id: str
    design: str
    tests: TestSet
    #: Error-cardinality bound for the enumeration rungs (None: auto-k).
    k: int | None = None
    _signature: tuple = field(default=None, compare=False, repr=False)
    _digests: tuple = field(default=None, compare=False, repr=False)

    def signature(self) -> tuple:
        """Canonical failure signature.

        Devices of one design with equal signatures are *identical
        workloads* — the service collapses them onto one diagnosis (the
        batching path), so the signature must capture everything that
        influences the answer: every test's input vector, observed
        output and value, plus the cardinality bound.
        """
        sig = self._signature
        if sig is None:
            sig = (
                self.design,
                self.k,
                tuple(
                    (
                        tuple(sorted(t.vector.items())),
                        t.output,
                        t.value,
                    )
                    for t in self.tests
                ),
            )
            object.__setattr__(self, "_signature", sig)
        return sig

    def journal_key(self) -> str:
        """``signature_key(self.signature())``, computed once."""
        return self._derived()[0]

    def session_seed(self) -> int:
        """``signature_seed(self.signature())``, computed once.  The
        serving path passes this method itself as the session's
        ``seed=``, which calls it on the first climb's draw."""
        return self._derived()[1]

    def _derived(self) -> tuple[str, int]:
        digests = self._digests
        if digests is None:
            digests = _signature_digests(self.signature())
            object.__setattr__(self, "_digests", digests)
        return digests


def _signature_digests(signature: tuple) -> tuple[str, int]:
    """``(journal key, session seed)`` of one failure signature.

    The one place the signature is encoded: its ``repr``, UTF-8 encoded
    once, hashed by SHA-256 (the key) and CRC32 (the seed).
    """
    data = repr(signature).encode("utf-8")
    return hashlib.sha256(data).hexdigest(), zlib.crc32(data) & 0x7FFFFFFF


def signature_key(signature: tuple) -> str:
    """Stable hex key for one failure signature: the journal's key.

    SHA-256 of the signature's ``repr`` — the same canonical form
    :func:`signature_seed` hashes, so equal signatures (and only those)
    collide across processes and runs.  :meth:`DeviceReport.journal_key`
    caches it per report.
    """
    return _signature_digests(signature)[0]


def signature_seed(signature: tuple) -> int:
    """Deterministic session seed for one failure signature.

    Derived from the signature (not the device id) so that every device
    carrying the same signature — and the sequential baseline replaying
    it — draws the identical stochastic-search stream: CRC32 of the
    signature's ``repr``, masked to 31 bits.
    :meth:`DeviceReport.session_seed` caches it per report.
    """
    return _signature_digests(signature)[1]


def device_to_wire(device: DeviceReport) -> dict:
    """The intake-JSON dict for ``device`` — the process-mode wire form.

    The exact inverse of :func:`parse_device` (in ``vector`` shape):
    only plain ``str``/``int`` containers, so the dict crosses a spawned
    ``multiprocessing`` queue without pickling any repro object, and
    re-parsing it yields a report with an identical failure signature
    (hence identical seeds, memo keys and journal keys).
    """
    wire: dict = {
        "id": device.device_id,
        "design": device.design,
        "tests": [
            {
                "vector": {k: int(v) for k, v in t.vector.items()},
                "output": t.output,
                "value": int(t.value),
            }
            for t in device.tests
        ],
    }
    if device.k is not None:
        wire["k"] = device.k
    return wire


def _require(data: Mapping, key: str, where: str):
    try:
        return data[key]
    except KeyError:
        raise ValueError(f"{where} is missing the {key!r} field") from None


_STR = {str}
_INT = {int}
_BITS = {0, 1}


def _bit(value, where: str) -> int:
    if not isinstance(value, bool) and value not in (0, 1):
        raise ValueError(f"{where} must be 0/1 or a boolean, got {value!r}")
    return int(value)


def _parse_test(
    data: object,
    where: str,
    inputs: Sequence[str] | None,
) -> Test:
    if not isinstance(data, Mapping):
        raise ValueError(f"{where} must be an object")
    output = _require(data, "output", where)
    if not isinstance(output, str):
        raise ValueError(f"{where}.output must be an output name (string)")
    value = _bit(_require(data, "value", where), f"{where}.value")
    if "vector" in data:
        raw = data["vector"]
        if not isinstance(raw, Mapping):
            raise ValueError(
                f"{where}.vector must map input names to 0/1"
            )
        values = raw.values()
        if (
            set(map(type, raw)) <= _STR
            and set(map(type, values)) <= _INT
            and set(values) <= _BITS
        ):
            # Every key a str, every value the int 0 or 1: the vector
            # is valid as it is (Test copies it).
            vector = raw
        else:
            # The per-bit check, which names the first offending entry.
            vector = {}
            for name, bit in raw.items():
                if not isinstance(name, str):
                    raise ValueError(
                        f"{where}.vector keys must be input names (strings)"
                    )
                vector[name] = _bit(bit, f"{where}.vector[{name!r}]")
    elif "bits" in data:
        bits = data["bits"]
        if not isinstance(bits, str) or set(bits) - {"0", "1"}:
            raise ValueError(f"{where}.bits must be a 0/1 string")
        if inputs is None:
            raise ValueError(
                f"{where}.bits needs the design's input order; pass "
                "'vector' instead or supply inputs_of"
            )
        if len(bits) != len(inputs):
            raise ValueError(
                f"{where}.bits has {len(bits)} bits for "
                f"{len(inputs)} primary inputs"
            )
        vector = {name: int(b) for name, b in zip(inputs, bits)}
    else:
        raise ValueError(
            f"{where} needs a 'vector' (or 'bits') input assignment"
        )
    return Test(vector=vector, output=output, value=value)


def parse_device(
    data: object,
    where: str = "device",
    inputs_of: Callable[[str], Sequence[str]] | None = None,
) -> DeviceReport:
    """Validate one device object into a :class:`DeviceReport`."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{where} must be a JSON object")
    device_id = _require(data, "id", where)
    if not isinstance(device_id, str) or not device_id:
        raise ValueError(f"{where}.id must be a non-empty string")
    design = _require(data, "design", where)
    if not isinstance(design, str) or not design:
        raise ValueError(f"{where}.design must be a non-empty string")
    k = data.get("k")
    if k is not None:
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise ValueError(
                f"{where}.k must be a positive integer, got {k!r}"
            )
    raw_tests = _require(data, "tests", where)
    if isinstance(raw_tests, (str, bytes)) or not isinstance(
        raw_tests, Sequence
    ):
        raise ValueError(f"{where}.tests must be a list of test objects")
    if not raw_tests:
        raise ValueError(f"{where}.tests must not be empty")
    inputs = None
    if inputs_of is not None and any(
        isinstance(t, Mapping) and "bits" in t for t in raw_tests
    ):
        inputs = inputs_of(design)
    tests = TestSet(
        tuple(
            _parse_test(t, f"{where}.tests[{j}]", inputs)
            for j, t in enumerate(raw_tests)
        )
    )
    return DeviceReport(
        device_id=device_id, design=design, tests=tests, k=k
    )


def parse_device_line(
    line: str,
    lineno: int,
    inputs_of: Callable[[str], Sequence[str]] | None = None,
) -> DeviceReport:
    """Parse one JSON-lines record (1-based ``lineno`` for messages)."""
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"line {lineno}: invalid JSON ({exc})") from None
    return parse_device(
        data, where=f"line {lineno}: device", inputs_of=inputs_of
    )


def read_device_stream(
    lines: Iterable[str],
    inputs_of: Callable[[str], Sequence[str]] | None = None,
    on_error: Callable[[int, str], None] | None = None,
) -> Iterator[DeviceReport]:
    """Devices from a JSON-lines stream (blank / ``#`` lines skipped).

    By default a malformed line raises :class:`ValueError` (naming the
    line).  Pass ``on_error`` to run in skip-and-count mode instead:
    each bad line is reported as ``on_error(lineno, message)`` and the
    stream continues — one corrupt record cannot poison the devices
    behind it in the queue.
    """
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            yield parse_device_line(stripped, lineno, inputs_of=inputs_of)
        except ValueError as exc:
            if on_error is None:
                raise
            on_error(lineno, str(exc))
