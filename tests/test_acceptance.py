"""Acceptance suite: one test per criterion, one printed verdict line each.

Every check is exact (integer arithmetic throughout, zero tolerance) and
carries a wall-clock ceiling. Run with ``pytest tests/test_acceptance.py -v -s``
to see the verdict lines.
"""

import io
import json
import math
import random
import time

from ringrigidity import (
    GroupSpec,
    SearchConfig,
    all_matrices,
    classify_cyclic,
    enumerate_multiplications,
    expand_to_full_table,
    find_pm1_violation,
    find_unit_windowed,
    full_table_oracle,
    IntegerWindow,
    ScaledMult,
    mat_add,
    mat_mul_hadamard,
    mat_mul_standard,
    noncommutativity_witness,
    rigidity_report,
    scaled_unit_sweep,
    check_scaled_unitality,
    unit_matrix,
    usual_cyclic_ring,
)
from ringrigidity.cli import run as run_cli
from ringrigidity.matrices import HADAMARD, STANDARD, random_matrix
from ringrigidity.scaled import scaled_identity_failure


def _criterion(number: int, description: str, limit_s: float, body) -> None:
    start = time.perf_counter()
    try:
        body()
        ok = True
        detail = ""
    except AssertionError as exc:
        ok = False
        detail = f" [{exc}]"
    elapsed = time.perf_counter() - start
    in_time = elapsed < limit_s
    verdict = "PASS" if (ok and in_time) else "FAIL"
    print(
        f"criterion {number}: {verdict} - {description} "
        f"({elapsed:.3f}s, limit {limit_s:g}s){detail}"
    )
    assert ok, f"criterion {number} failed{detail}"
    assert in_time, f"criterion {number} took {elapsed:.3f}s, limit {limit_s}s"


def test_criterion_1_scaled_identity_suite():
    def body():
        rng = random.Random(20_240_817)
        for _ in range(10_000):
            a = rng.randint(-100, 100)
            n = rng.randint(-10_000, 10_000)
            m = rng.randint(-10_000, 10_000)
            k = rng.randint(-10_000, 10_000)
            failure = scaled_identity_failure(a, n, m, k)
            assert failure is None, failure

    _criterion(
        1,
        "associativity and distributivity of a*n*m on 10^4 random quadruples",
        1.0,
        body,
    )


def test_criterion_2_unit_scan_equivalence():
    def body():
        window = IntegerWindow(1000)
        for a in range(-100, 101):
            found = find_unit_windowed(ScaledMult(a), window)
            if a in (1, -1):
                assert found == a, f"scale {a}: scan found {found}"
            else:
                assert found is None, f"scale {a}: spurious unit {found}"

    _criterion(
        2,
        "windowed unit scan finds a unit iff the scale is +-1, and unit equals scale",
        5.0,
        body,
    )


def test_criterion_3_cyclic_classification():
    def body():
        for modulus in range(2, 17):
            entries = classify_cyclic(modulus)  # raises on any mismatch
            assert len(entries) == modulus, (
                f"Z/{modulus}: {len(entries)} multiplications"
            )
            assert sorted(e.scale for e in entries) == list(range(modulus))

    _criterion(
        3,
        "Z/N carries exactly N multiplications, each the scaled form of its mul(1,1)",
        5.0,
        body,
    )


def test_criterion_4_oracle_equivalence():
    def body():
        for modulus in (2, 3):
            oracle = full_table_oracle(modulus)
            expanded = frozenset(
                expand_to_full_table(r.mult)
                for r in enumerate_multiplications(GroupSpec((modulus,)))
            )
            assert oracle == expanded, f"N={modulus}: survivor sets differ"

    _criterion(
        4,
        "full-table oracle survivors equal the expanded structure-constant census",
        10.0,
        body,
    )


def test_criterion_5_unitality_census():
    def body():
        for modulus in range(2, 17):
            report = rigidity_report(GroupSpec((modulus,)))
            coprime = sum(
                1 for a in range(modulus) if math.gcd(a, modulus) == 1
            )
            assert report.unital_count == coprime, (
                f"Z/{modulus}: scan says {report.unital_count}, "
                f"coprime count is {coprime}"
            )

    _criterion(
        5,
        "brute-force unital count matches the coprime-scale count on Z/2..Z/16",
        5.0,
        body,
    )


def test_criterion_6_matrix_non_rigidity():
    def body():
        rng = random.Random(76)
        for product in (mat_mul_standard, mat_mul_hadamard):
            for _ in range(1000):
                a = random_matrix(rng, 2, 7)
                b = random_matrix(rng, 2, 7)
                c = random_matrix(rng, 2, 7)
                assert product(a, product(b, c)) == product(product(a, b), c)
                assert product(a, mat_add(b, c)) == mat_add(
                    product(a, b), product(a, c)
                )
                assert product(mat_add(a, b), c) == mat_add(
                    product(a, c), product(b, c)
                )
        wa, wb = noncommutativity_witness(2, 7)
        assert mat_mul_standard(wa, wb) != mat_mul_standard(wb, wa)
        for _ in range(1000):
            a = random_matrix(rng, 2, 7)
            b = random_matrix(rng, 2, 7)
            assert mat_mul_hadamard(a, b) == mat_mul_hadamard(b, a)
        mats = list(all_matrices(2, 2))
        for mode, product in ((STANDARD, mat_mul_standard), (HADAMARD, mat_mul_hadamard)):
            identities = [
                u
                for u in mats
                if all(product(u, x) == x and product(x, u) == x for x in mats)
            ]
            assert identities == [unit_matrix(mode, 2, 2)], (
                f"{mode}: identities {identities}"
            )
        assert unit_matrix(STANDARD, 2, 7).rows == ((1, 0), (0, 1))
        assert unit_matrix(HADAMARD, 2, 7).rows == ((1, 1), (1, 1))

    _criterion(
        6,
        "standard vs entrywise matrix products: two rings on one addition",
        2.0,
        body,
    )


def test_criterion_7_scaled_unitality_and_hypothesis():
    def body():
        for modulus in (3, 4, 6):
            ring = usual_cyclic_ring(modulus)
            assert find_pm1_violation(ring) is None, f"Z/{modulus}"
            entries = check_scaled_unitality(ring)
            unital = sorted(
                e.scale.coords[0] for e in entries if e.unit is not None
            )
            assert unital == sorted({1, modulus - 1}), f"Z/{modulus}: {unital}"
        for modulus in (5, 8, 12):
            ring = usual_cyclic_ring(modulus)
            assert find_pm1_violation(ring) is not None, f"Z/{modulus}"
            entries = scaled_unit_sweep(ring)
            unital = {e.scale.coords[0] for e in entries if e.unit is not None}
            beyond = unital - {1, modulus - 1}
            assert beyond, f"Z/{modulus}: no unital scale beyond +-1"
            if modulus == 5:
                assert 2 in unital

    _criterion(
        7,
        "scaled rings unital exactly at +-1 when reciprocal pairs allow only +-1",
        2.0,
        body,
    )


def test_criterion_8_determinism_and_parallel_soundness():
    def body():
        outputs = []
        for workers in ("1", "4"):
            buf = io.StringIO()
            code = run_cli(
                [
                    "enumerate", "--group", "2,2",
                    "--workers", workers, "--no-timing",
                ],
                stdout=buf,
            )
            assert code == 0
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1], "worker counts produced different JSON"
        json.loads(outputs[0])  # well-formed

    _criterion(
        8,
        "enumerate --group 2,2 gives identical JSON for 1 and 4 workers",
        2.0,
        body,
    )
