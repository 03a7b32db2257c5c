"""Acceptance suite: the eight gate criteria, one test each.

Every expected value is frozen here rather than imported from the package:
table figures come from the published comparison tables, and the divergent
LOOK rows were brute-checked over both sweep directions. Each test prints a
PASS line (visible with ``pytest -s``) once its assertions hold.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction

from seeksim.model import (
    DiskGeometry,
    TransferModel,
    average_seek,
    transfer_time,
    validate_instance,
)
from seeksim.report import display, run_comparison, run_property_campaign
from seeksim.schedulers import (
    schedule_cscan,
    schedule_fifo,
    schedule_look,
    schedule_odsa,
    schedule_scan,
    schedule_sstf,
)
from seeksim.workload import reference_case

MODEL = TransferModel()
SEED = 20260810

# (published average, published transfer) per case; LOOK omitted from cases
# 1-2 where the published figures are not reproducible (criterion 4).
TABLES = {
    1: {
        "FIFO": ("48", "48.01191"),
        "SSTF": ("35.625", "35.63691"),
        "SCAN": ("38.125", "38.13691"),
        "C-SCAN": ("42.5", "42.51191"),
        "ODSA": ("24.375", "24.38691"),
    },
    2: {
        "FIFO": ("38.875", "38.88691"),
        "SSTF": ("19.5", "19.51191"),
        "SCAN": ("22.75", "22.76191"),
        "C-SCAN": ("43.875", "43.88691"),
        "ODSA": ("18.75", "18.76191"),
    },
    3: {
        "FIFO": ("35.375", "35.38691"),
        "SSTF": ("29.375", "29.38691"),
        "SCAN": ("35.625", "35.63691"),
        "C-SCAN": ("40.625", "40.63691"),
        "LOOK": ("29.375", "29.38691"),
        "ODSA": ("21.25", "21.26191"),
    },
}


def spanning(queue, head):
    """A validated instance on a geometry that just spans the queue and the
    head; FIFO, SSTF, LOOK and ODSA never read it."""
    geometry = DiskGeometry(min((head, *queue)), max((head, *queue)) + 1)
    return validate_instance(queue, head, geometry)


def case_report(case_id):
    queue, head, geometry = reference_case(case_id)
    instance = validate_instance(queue, head, geometry)
    return run_comparison(instance, MODEL, case_id=case_id), len(queue)


def check_table(case_id):
    report, n = case_report(case_id)
    for name, (avg_text, transfer_text) in TABLES[case_id].items():
        row = next(r for r in report.rows if r.algorithm == name)
        # averages must match as exact rationals
        assert Fraction(row.total_seek, n) == Fraction(avg_text), name
        assert average_seek(row) == float(Fraction(avg_text)), name
        # transfer times within 5e-6 of the printed figures
        shown = display(transfer_time(average_seek(row), MODEL))
        assert shown == transfer_text, name
        assert abs(float(shown) - float(transfer_text)) <= 5e-6, name


def test_criterion_1_table1_reproduction():
    start = time.perf_counter()
    check_table(1)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS criterion 1: case-1 table reproduced exactly ({elapsed:.3f}s)")


def test_criterion_2_table2_reproduction():
    check_table(2)
    print("PASS criterion 2: case-2 table reproduced exactly")


def test_criterion_3_table3_reproduction():
    check_table(3)
    print("PASS criterion 3: case-3 table reproduced exactly (LOOK included)")


def _look_sweep_total(queue, head, upward):
    if upward:
        order = sorted(t for t in queue if t >= head) + sorted(
            (t for t in queue if t < head), reverse=True
        )
    else:
        order = sorted((t for t in queue if t <= head), reverse=True) + sorted(
            t for t in queue if t > head
        )
    path = [head] + order
    return sum(abs(b - a) for a, b in zip(path, path[1:]))


def test_criterion_4_look_divergence_documented():
    # independent check: totals of both possible LOOK sweeps per case
    q1, h1, _ = reference_case(1)
    q2, h2, _ = reference_case(2)
    assert {_look_sweep_total(list(q1), h1, up) for up in (True, False)} == {285, 195}
    assert {_look_sweep_total(list(q2), h2, up) for up in (True, False)} == {150}
    # the published totals (37.5*8=300, 23.875*8=191) match neither direction
    assert 300 not in {285, 195} and 191 not in {150}

    assert schedule_look(validate_instance(q1, h1)).total_seek == 285  # average 35.625
    assert schedule_look(validate_instance(q2, h2)).total_seek == 150  # average 18.75

    for case_id, published in ((1, "37.5"), (2, "23.875")):
        proc = subprocess.run(
            [sys.executable, "-m", "seeksim", "run", "--case", str(case_id), "--paper-table"],
            capture_output=True,
            text=True,
            check=True,
        )
        look_row = [l for l in proc.stdout.splitlines() if l.startswith("LOOK,")][0]
        assert published in look_row
        assert "differs from published table" in look_row
    print("PASS criterion 4: LOOK computes 35.625/18.75 with published 37.5/23.875 flagged")


def test_criterion_5_worked_illustration():
    s = schedule_odsa(validate_instance(*reference_case(1)))
    assert s.service_order == (10, 25, 46, 62, 74, 111, 151, 170)
    assert s.head_path()[:2] == (45, 10)
    assert s.step_seeks[0] == 35
    assert s.total_seek == 195
    assert Fraction(s.total_seek, 8) == Fraction("24.375")
    assert display(transfer_time(24.375, MODEL)) == "24.38691"
    print("PASS criterion 5: worked single-sweep example reproduced end to end")


def test_criterion_6_oracle_equivalence_campaign():
    start = time.perf_counter()
    summary = run_property_campaign(trials=1000, seed=SEED, max_n=8)
    elapsed = time.perf_counter() - start
    assert summary.trials == 1000
    assert summary.failures == 0, summary.first_counterexample
    assert summary.passes == 1000
    assert elapsed < 30.0
    print(f"PASS criterion 6: 1000/1000 oracle-equivalence trials ({elapsed:.1f}s)")


def test_oracle_equivalence_campaign_at_larger_n():
    # beside criterion 6: queues of up to 64 requests, far beyond what an
    # exhaustive search over service orders could check
    summary = run_property_campaign(trials=200, seed=SEED, max_n=64)
    assert summary.failures == 0, summary.first_counterexample
    assert summary.passes == 200


def test_criterion_7_invariance_suite():
    rng = random.Random(SEED)
    geometry_free = {
        "FIFO": schedule_fifo,
        "SSTF": schedule_sstf,
        "LOOK": schedule_look,
        "ODSA": schedule_odsa,
    }
    geom = DiskGeometry()
    violations = []
    for trial in range(500):
        n = rng.randint(1, 8)
        head = rng.randint(0, 180)
        queue = [rng.randint(0, 180) for _ in range(n)]
        inst = spanning(queue, head)
        base = {name: algo(inst).total_seek for name, algo in geometry_free.items()}

        shift = rng.randint(-min(queue + [head]), 60)
        moved = spanning([t + shift for t in queue], head + shift)
        mirrored = spanning([180 - t for t in queue], 180 - head)
        for name, algo in geometry_free.items():
            if algo(moved).total_seek != base[name]:
                violations.append(("translation", name, queue, head, shift))
            if algo(mirrored).total_seek != base[name]:
                violations.append(("reflection", name, queue, head))

        shuffled = rng.sample(queue, len(queue))
        for name, algo in (("SSTF", schedule_sstf), ("LOOK", schedule_look), ("ODSA", schedule_odsa)):
            if algo(spanning(shuffled, head)).total_seek != base[name]:
                violations.append(("order", name, queue, head))
        arrived = validate_instance(queue, head, geom)
        permuted = validate_instance(shuffled, head, geom)
        if schedule_scan(permuted).total_seek != schedule_scan(arrived).total_seek:
            violations.append(("order", "SCAN", queue, head))
        if schedule_cscan(permuted).total_seek != schedule_cscan(arrived).total_seek:
            violations.append(("order", "C-SCAN", queue, head))
    assert violations == []
    print("PASS criterion 7: 500-instance invariance suite, zero violations")


def test_criterion_8_byte_identical_cli_output():
    argv = [sys.executable, "-m", "seeksim", "run", "--case", "1", "--algo", "all", "--format", "csv"]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.startswith(b"algorithm,total_seek,average_seek")
    print("PASS criterion 8: identical invocations give byte-identical output")
