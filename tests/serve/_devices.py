"""Shared helpers: mint failing-device reports from workloads.

A device carries the *observed* (flipped) responses of an injected-fault
workload, paired with the golden design netlist — the test-floor shape
the service diagnoses (see ``repro.serve.intake``).
"""

from repro.circuits import library
from repro.diagnosis import DiagnosisSession
from repro.experiments import make_workload
from repro.serve import DeviceReport
from repro.serve.race import GUIDANCE_TOP
from repro.testgen import TestSet
from repro.testgen.testset import Test


def make_device(
    device_id: str,
    design: str = "c17",
    seed: int = 3,
    p: int = 1,
    m_max: int = 4,
    k: int | None = None,
) -> DeviceReport:
    w = make_workload(library.get_circuit(design), p=p, m_max=m_max, seed=seed)
    tests = TestSet(
        tuple(
            Test(vector=dict(t.vector), output=t.output, value=t.value ^ 1)
            for t in w.tests
        )
    )
    return DeviceReport(
        device_id=device_id, design=design, tests=tests, k=k
    )


def device_json(device: DeviceReport) -> dict:
    return {
        "id": device.device_id,
        "design": device.design,
        **({"k": device.k} if device.k is not None else {}),
        "tests": [
            {"vector": dict(t.vector), "output": t.output, "value": t.value}
            for t in device.tests
        ],
    }


def top_marked(device: DeviceReport) -> tuple:
    """The guidance a cancelled ladder reports for ``device`` after its
    single-fix sweep: the top-marked gates, as singletons."""
    marks = DiagnosisSession(
        library.get_circuit(device.design), device.tests
    ).space().marks()
    ranked = sorted(
        (g for g in marks if marks[g] > 0), key=lambda g: (-marks[g], g)
    )
    return tuple(frozenset((g,)) for g in ranked[:GUIDANCE_TOP])
