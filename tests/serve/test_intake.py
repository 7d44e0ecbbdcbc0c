"""Device intake: hardened parsing and failure signatures."""

import json
from collections.abc import Mapping
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import library
from repro.serve import (
    device_to_wire,
    intake,
    parse_device,
    parse_device_line,
    read_device_stream,
    signature_key,
    signature_seed,
)
from repro.testgen.testset import Test

from tests.serve._devices import device_json, make_device


VALID = {
    "id": "lot1-die3",
    "design": "c17",
    "tests": [{"vector": {"1": 0, "2": 1, "3": 0, "6": 1, "7": 0},
               "output": "22", "value": 1}],
}


def test_parse_valid_device():
    device = parse_device(VALID)
    assert device.device_id == "lot1-die3"
    assert device.design == "c17"
    assert device.tests.m == 1
    assert device.k is None


@pytest.mark.parametrize(
    "mutate, needle",
    [
        (lambda d: d.pop("id"), "'id'"),
        (lambda d: d.pop("design"), "'design'"),
        (lambda d: d.pop("tests"), "'tests'"),
        (lambda d: d.update(id=7), "device.id"),
        (lambda d: d.update(design=""), "device.design"),
        (lambda d: d.update(k=0), "device.k"),
        (lambda d: d.update(k=True), "device.k"),
        (lambda d: d.update(tests=[]), "device.tests"),
        (lambda d: d.update(tests="oops"), "device.tests"),
        (lambda d: d["tests"][0].pop("output"), "device.tests[0]"),
        (lambda d: d["tests"][0].pop("value"), "device.tests[0]"),
        (lambda d: d["tests"][0].update(value=2), "device.tests[0].value"),
        (lambda d: d["tests"][0].pop("vector"), "device.tests[0]"),
        (
            lambda d: d["tests"][0]["vector"].update({"1": "x"}),
            "device.tests[0].vector['1']",
        ),
    ],
)
def test_malformed_device_names_offending_field(mutate, needle):
    data = json.loads(json.dumps(VALID))
    mutate(data)
    with pytest.raises(ValueError, match="device") as excinfo:
        parse_device(data)
    assert needle in str(excinfo.value)


def test_bits_form_needs_input_order():
    data = json.loads(json.dumps(VALID))
    data["tests"][0] = {"bits": "01010", "output": "22", "value": 1}
    with pytest.raises(ValueError, match="input order"):
        parse_device(data)
    inputs = library.c17().inputs
    device = parse_device(data, inputs_of=lambda name: inputs)
    assert device.tests[0].vector == dict(zip(inputs, (0, 1, 0, 1, 0)))


def test_bits_form_length_mismatch():
    data = json.loads(json.dumps(VALID))
    data["tests"][0] = {"bits": "010", "output": "22", "value": 1}
    with pytest.raises(ValueError, match="3 bits for 5 primary inputs"):
        parse_device(data, inputs_of=lambda name: library.c17().inputs)


def test_parse_device_line_reports_line_number():
    with pytest.raises(ValueError, match="line 4: invalid JSON"):
        parse_device_line("{nope", 4)
    with pytest.raises(ValueError, match="line 9: device is missing"):
        parse_device_line('{"id": "x"}', 9)


def test_read_device_stream_skips_blanks_and_comments():
    lines = [
        "# tester log header",
        "",
        json.dumps(device_json(make_device("d0"))),
        "   ",
        json.dumps(device_json(make_device("d1", seed=5))),
    ]
    devices = list(read_device_stream(lines))
    assert [d.device_id for d in devices] == ["d0", "d1"]


def test_read_device_stream_strict_raises_on_malformed_line():
    lines = [
        json.dumps(device_json(make_device("d0"))),
        '{"id": "torn',
    ]
    with pytest.raises(ValueError, match="line 2: invalid JSON"):
        list(read_device_stream(lines))


def test_read_device_stream_skips_and_counts_malformed_midstream():
    # One bad line mid-stream must cost exactly that line — counted,
    # reported with its line number — while every device behind it in
    # the queue still parses.
    lines = [
        "# tester log header",
        json.dumps(device_json(make_device("d0"))),
        '{"id": "torn-record", "design": "c17", "tests": [{"vec',
        json.dumps(device_json(make_device("d1", seed=5))),
        '{"id": "no-tests", "design": "c17"}',
        json.dumps(device_json(make_device("d2", seed=7))),
    ]
    errors = []
    devices = list(
        read_device_stream(
            lines, on_error=lambda n, msg: errors.append((n, msg))
        )
    )
    assert [d.device_id for d in devices] == ["d0", "d1", "d2"]
    assert [n for n, _ in errors] == [3, 5]
    assert "line 3: invalid JSON" in errors[0][1]
    assert "line 5: device is missing the 'tests' field" in errors[1][1]


def test_signature_identity_and_seed():
    a = make_device("a", seed=3)
    b = make_device("b", seed=3)  # same workload, different device id
    c = make_device("c", seed=5)
    assert a.signature() == b.signature()
    assert a.signature() != c.signature()
    assert signature_seed(a.signature()) == signature_seed(b.signature())
    # The seed derives from the signature, not the device identity.
    assert signature_seed(a.signature()) != signature_seed(c.signature())


def test_signature_captures_k():
    a = make_device("a", seed=3, k=1)
    b = make_device("b", seed=3, k=2)
    assert a.signature() != b.signature()


# ----------------------------------------------------------------------
# the cached journal key and session seed
# ----------------------------------------------------------------------
_NAMES = st.text("abxyz019_", min_size=1, max_size=6)


@st.composite
def _device_objects(draw):
    """A valid device object (vector or bits shape) and its design's
    input order."""
    inputs = draw(st.lists(_NAMES, min_size=1, max_size=12, unique=True))
    shape = draw(st.sampled_from(["vector", "bits"]))
    rows = draw(st.lists(
        st.tuples(
            st.lists(st.integers(0, 1), min_size=len(inputs),
                     max_size=len(inputs)),
            st.sampled_from(["o1", "o2", "22"]),
            st.integers(0, 1),
        ),
        min_size=1,
        max_size=90,
    ))
    tests = []
    for bits, output, value in rows:
        test = {"output": output, "value": value}
        if shape == "vector":
            test["vector"] = dict(zip(inputs, bits))
        else:
            test["bits"] = "".join(map(str, bits))
        tests.append(test)
    data = {"id": "d0", "design": draw(_NAMES), "tests": tests}
    k = draw(st.none() | st.integers(1, 4))
    if k is not None:
        data["k"] = k
    return data, inputs


@settings(max_examples=60, deadline=None)
@given(_device_objects(), st.booleans())
def test_cached_key_and_seed_equal_the_exported_functions(case, seed_first):
    data, inputs = case
    device = parse_device(data, inputs_of=lambda design: inputs)
    if seed_first:  # either value fills the cache for both
        seed, key = device.session_seed(), device.journal_key()
    else:
        key, seed = device.journal_key(), device.session_seed()
    assert key == signature_key(device.signature())
    assert seed == signature_seed(device.signature())
    # The process-mode wire form re-parses to the same key and seed.
    wired = parse_device(device_to_wire(device))
    assert wired.journal_key() == key
    assert wired.session_seed() == seed


# ----------------------------------------------------------------------
# bulk-checked vectors: a differential against the per-bit parser
# ----------------------------------------------------------------------
def _per_bit_parse_test(data, where, inputs):
    """The per-bit ``_parse_test`` the bulk check must agree with."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{where} must be an object")
    output = intake._require(data, "output", where)
    if not isinstance(output, str):
        raise ValueError(f"{where}.output must be an output name (string)")
    value = intake._bit(intake._require(data, "value", where),
                        f"{where}.value")
    if "vector" in data:
        raw = data["vector"]
        if not isinstance(raw, Mapping):
            raise ValueError(
                f"{where}.vector must map input names to 0/1"
            )
        vector = {}
        for name, bit in raw.items():
            if not isinstance(name, str):
                raise ValueError(
                    f"{where}.vector keys must be input names (strings)"
                )
            vector[name] = intake._bit(bit, f"{where}.vector[{name!r}]")
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


class _ReadOnlyMapping(Mapping):
    """A mapping that is not a dict: the parser must use the Mapping
    API."""

    def __init__(self, pairs):
        self._data = dict(pairs)

    def __getitem__(self, key):
        return self._data[key]

    def __iter__(self):
        return iter(self._data)

    def __len__(self):
        return len(self._data)


_ANY_BIT = st.sampled_from(
    [0, 1, True, False, 0.0, 1.0, 2, -1, "1", None, [], {}]
)
_ANY_KEY = _NAMES | st.integers(-1, 3) | st.none()
_VECTOR_PAIRS = (
    st.lists(st.tuples(_NAMES, st.integers(0, 1)), max_size=10)
    | st.lists(st.tuples(_ANY_KEY, _ANY_BIT), max_size=10)
)


def _parsed(data):
    try:
        device = parse_device(data)
    except ValueError as exc:
        return "error", str(exc)
    # repr tells 1 from True and 1.0, which == does not.
    return device, repr(device.signature())


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(_VECTOR_PAIRS, st.booleans(), st.integers(0, 1)),
        min_size=1,
        max_size=3,
    )
)
def test_bulk_vector_check_matches_the_per_bit_parser(rows):
    tests = [
        {
            "vector": (_ReadOnlyMapping if as_mapping else dict)(pairs),
            "output": "o1",
            "value": value,
        }
        for pairs, as_mapping, value in rows
    ]
    data = {"id": "d0", "design": "c17", "tests": tests}
    with mock.patch.object(intake, "_parse_test", _per_bit_parse_test):
        expected = _parsed(data)
    assert _parsed(data) == expected


@pytest.mark.parametrize(
    "workload, key, seed",
    [
        (
            {"seed": 3},
            "bb556ddc1fa7f315f8a59e594b99ba4a41151a32c3f2fb97f81f8b3a3cd820b1",
            1193551585,
        ),
        (
            {"design": "sim1423", "seed": 1, "k": 2},
            "275800786e1ec884aefcc39b383443b3dc891c482e6c2bf95f77b3479c798b90",
            1033163584,
        ),
    ],
)
def test_key_and_seed_values_are_pinned(workload, key, seed):
    device = make_device("d0", **workload)
    # Journals written by earlier runs are keyed by these values, and
    # the seed fixes every stochastic draw of the device's session.
    assert device.journal_key() == signature_key(device.signature()) == key
    assert device.session_seed() == signature_seed(device.signature()) == seed
