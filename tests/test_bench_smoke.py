"""The benchmark in perfbench/ keeps working against the package: every
callable its tracer wraps still exists, and every workload passes its own
oracles at its smallest size."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_tracer_installs_on_every_traced_attribute():
    import locsys.laurent

    mul = locsys.laurent.LaurentPoly.__dict__["__mul__"]
    tracer = Tracer()
    try:
        tracer.install()  # reads owner.__dict__[attr] for each traced callable
        assert locsys.laurent.LaurentPoly.__dict__["__mul__"] is not mul
    finally:
        tracer.uninstall()
    assert locsys.laurent.LaurentPoly.__dict__["__mul__"] is mul


@pytest.mark.parametrize("name", ["master", "evaluate", "verify"])
def test_workload_smoke(tmp_path, name):
    workload = WORKLOADS[name](0, str(tmp_path), size="smoke")
    for op in workload.operations():
        assert workload.record(op, op.run()), op.name
    assert workload.check() == []


def test_traced_qgn_times_the_inversion(tmp_path):
    """`qgn` inverts through counting.c_from_a, so a traced `master` qgn op
    reports the inversion's time and its a_from_c calls per inverse."""
    workload = WORKLOADS["master"](0, str(tmp_path), size="smoke")
    ops = workload.operations()
    for op in ops:
        if op.group == "forward":  # writes the A-table that qgn reads
            assert workload.record(op, op.run()), op.name
    [qgn] = [op for op in ops if op.group == "qgn"]
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op_id = 0
        output = qgn.run()
    finally:
        tracer.op_id = -1
        tracer.uninstall()
    assert qgn.oracle(output)
    metrics = tracer.summarize([0])
    assert metrics["counting.c_from_a.s"] > 0
    assert metrics["counting.a_from_c.calls_per_inverse"] > 0
