"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at its smallest size twice: as it is, where no call may
fail, and with every oracle's expected value off by one, where every op must
fail, which shows that each oracle is live.  Then checks the calibration
counts, which must repeat exactly: A-table term counts of the planting that
uses random.Random(0) for ranks 2..n, and the `verify all --seed 0` check
counts.  Exit code 0 when everything holds.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import OUT, failed_calls, import_package, run_loop  # noqa: E402

CALIBRATION_TERMS = {(2, 5): 671, (3, 4): 4617}
CALIBRATION_CHECKS = {"kappa": 400, "matrix-tree": 100, "matr": 100, "delta": 9138,
                      "gm-family": 16, "cones": 833, "lattice": 65, "integrality": 1300,
                      "combinat": 2902, "aggregation": 50, "roundtrip": 6}


def smoke_workload(cls, corrupt):
    workdir = tempfile.mkdtemp(prefix="smoke-", dir=OUT)
    try:
        workload = cls(0, workdir, size="smoke", corrupt=corrupt)
        ops = workload.operations()
        passes = run_loop(workload, ops, 0)
        return {op.name for op in ops}, set(failed_calls(passes, workload))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def calibration():
    from locsys.counting import CTable, a_from_c
    from locsys.laurent import pic_polynomial
    from locsys.verify import random_invariant
    from workloads import call_cli

    problems = []
    for (g, n), want in CALIBRATION_TERMS.items():
        rng = random.Random(0)
        planted = {1: pic_polynomial(g)}
        for s in range(2, n + 1):
            planted[s] = random_invariant(rng, g)
        got = len(a_from_c(n, g, CTable.concrete(g, planted)).terms)
        if got != want:
            problems.append(f"A[{g},{n}] has {got} terms, calibration says {want}")
    code, out, _ = call_cli(["--json", "verify", "all", "--seed", "0", "--jobs", "1"])
    got = {r["suite"]: r["checks"] for r in json.loads(out)["suites"]} if code == 0 else {}
    if got != CALIBRATION_CHECKS:
        problems.append(f"verify --seed 0 check counts {got}, calibration says "
                        f"{CALIBRATION_CHECKS}")
    return problems


def main():
    import_package()
    from workloads import WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    problems = []
    for name, cls in WORKLOADS.items():
        ops, failed = smoke_workload(cls, corrupt=False)
        print(f"{name}: {len(ops)} ops, failing as is: {sorted(failed)}")
        if failed:
            problems.append(f"{name}: ops fail on correct expected values: {sorted(failed)}")
        ops, failed = smoke_workload(cls, corrupt=True)
        print(f"{name}: with corrupted expected values, passing: {sorted(ops - failed)}")
        if ops - failed:
            problems.append(f"{name}: oracles not live for {sorted(ops - failed)}")
    problems += calibration()
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
