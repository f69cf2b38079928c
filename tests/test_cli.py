import ast
import importlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import jsonschema
import pytest

import ringrigidity
from ringrigidity import (
    ScaledMult,
    StructureConstants,
    cli,
    enumeration,
    matrices,
    scaled,
)
from ringrigidity.cli import run

from conftest import KLEIN_NODES

GOLDEN = Path(__file__).parent / "golden"
SCHEMA = json.loads(
    (Path(__file__).parent.parent / "docs" / "schema.json").read_text()
)


def run_cli(*args: str) -> tuple[int, str]:
    buf = io.StringIO()
    code = run(list(args), stdout=buf)
    return code, buf.getvalue()


def run_json(*args: str) -> tuple[int, dict]:
    code, text = run_cli(*args)
    return code, json.loads(text)


def assert_node_boundary(monkeypatch, group, nodes, counts, workers):
    """The exact node count of the census passes, one less exits 3."""
    monkeypatch.setenv("RIGIDITY_BUDGET", str(nodes))
    code, doc = run_json("enumerate", "--group", group, "--workers", workers)
    payload = doc["payload"]
    assert code == 0
    assert [payload["total"], payload["commutative"], payload["unital"]] == counts
    monkeypatch.setenv("RIGIDITY_BUDGET", str(nodes - 1))
    code, doc = run_json("enumerate", "--group", group, "--workers", workers)
    assert code == 3
    assert f"more than {nodes - 1} search nodes" in doc["payload"]["message"]


class TestGoldenFiles:
    @pytest.mark.parametrize(
        "name,args",
        [
            ("classify_2", ["classify", "--modulus", "2"]),
            ("classify_3", ["classify", "--modulus", "3"]),
            ("classify_6", ["classify", "--modulus", "6"]),
            ("classify_12", ["classify", "--modulus", "12"]),
            ("enumerate_2_2", ["enumerate", "--group", "2,2"]),
            ("matrix_demo_2_7", ["matrix-demo", "--n", "2", "--mod", "7"]),
            ("classify_48", ["classify", "--modulus", "48"]),
            ("enumerate_64", ["enumerate", "--group", "64"]),
            ("scaled_units_12", ["scaled-units", "--modulus", "12"]),
            ("enumerate_2_6", ["enumerate", "--group", "2,6"]),
            ("enumerate_2_2_2", ["enumerate", "--group", "2,2,2"]),
            ("matrix_demo_8_11", ["matrix-demo", "--n", "8", "--mod", "11"]),
            ("matrix_demo_8_65537", ["matrix-demo", "--n", "8", "--mod", "65537"]),
            (
                "matrix_demo_3_4294967311",
                ["matrix-demo", "--n", "3", "--mod", "4294967311"],
            ),
            ("matrix_demo_1_5", ["matrix-demo", "--n", "1", "--mod", "5"]),
        ],
    )
    def test_byte_stable(self, name, args):
        code, first = run_cli(*args, "--no-timing")
        assert code == 0
        _, second = run_cli(*args, "--no-timing")
        assert first == second
        assert first == (GOLDEN / f"{name}.json").read_text()


class TestSchema:
    @pytest.mark.parametrize(
        "args",
        [
            ["enumerate", "--group", "6"],
            ["enumerate", "--group", "2,2"],
            ["enumerate", "--group", "2,3"],
            ["classify", "--modulus", "2"],
            ["classify", "--modulus", "3"],
            ["classify", "--modulus", "12"],
            ["verify-scaled", "--a", "-1", "--bound", "50"],
            ["verify-scaled", "--a", "3", "--bound", "50"],
            ["matrix-demo", "--n", "1", "--mod", "5"],
            ["matrix-demo", "--n", "2", "--mod", "7"],
            ["matrix-demo", "--n", "3", "--mod", "2"],
            ["scaled-units", "--modulus", "2"],
            ["scaled-units", "--modulus", "3"],
            ["scaled-units", "--modulus", "5"],
        ],
    )
    def test_ok_payloads_validate(self, args):
        code, doc = run_json(*args)
        assert code == 0
        assert doc["status"] == "ok"
        jsonschema.validate(doc, SCHEMA)

    def test_scaled_form_all_false_is_invalid(self):
        # an ok payload has passed the scaled-form check, so false never appears
        _, doc = run_json("enumerate", "--group", "6")
        doc["payload"]["scaled_form_all"] = False
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, SCHEMA)

    def test_integers_only(self):
        def assert_no_floats(node):
            if isinstance(node, float):
                raise AssertionError(f"float leaked into output: {node}")
            if isinstance(node, dict):
                for v in node.values():
                    assert_no_floats(v)
            if isinstance(node, list):
                for v in node:
                    assert_no_floats(v)

        for args in (
            ["enumerate", "--group", "2,2"],
            ["classify", "--modulus", "12"],
            ["verify-scaled", "--a", "1", "--bound", "20"],
        ):
            _, doc = run_json(*args)
            assert_no_floats(doc)


class TestExitCodes:
    def test_ok_is_zero(self):
        code, doc = run_json("classify", "--modulus", "4")
        assert code == 0 and doc["status"] == "ok"

    def test_usage_error_is_two(self):
        code, doc = run_json("enumerate", "--group", "1")
        assert code == 2
        assert doc["status"] == "error"
        assert "modulus must be >= 2" in doc["payload"]["message"]

    def test_unparseable_group_is_two(self):
        code, doc = run_json("enumerate", "--group", "2,x")
        assert code == 2

    def test_matrix_modulus_one_is_two(self):
        code, doc = run_json("matrix-demo", "--n", "2", "--mod", "1")
        assert code == 2

    def test_argparse_failure_is_two(self):
        with pytest.raises(SystemExit) as exc:
            run(["classify"])  # missing --modulus
        assert exc.value.code == 2

    def test_capacity_is_three(self, monkeypatch):
        # the census of 2,2 visits KLEIN_NODES search nodes: that budget
        # passes, one less exits 3
        for workers in ("1", "2"):
            monkeypatch.setenv("RIGIDITY_BUDGET", str(KLEIN_NODES - 1))
            code, doc = run_json("enumerate", "--group", "2,2", "--workers", workers)
            assert code == 3
            message = doc["payload"]["message"]
            assert f"more than {KLEIN_NODES - 1} search nodes" in message
            monkeypatch.setenv("RIGIDITY_BUDGET", str(KLEIN_NODES))
            code, doc = run_json("enumerate", "--group", "2,2", "--workers", workers)
            assert code == 0 and doc["payload"]["total"] == 28

    @pytest.mark.parametrize(
        "group,nodes,counts,workers",
        [
            pytest.param("2,2,2", 14_259, [1688, 988, 532], "1", id="2,2,2"),
            # a part's share is 1,781 nodes and the largest part has 2,935,
            # so the pool's parts are cut short and run again in the parent
            pytest.param(
                "2,2,2", 14_259, [1688, 988, 532], "2", id="2,2,2-workers2"
            ),
            pytest.param("2,2,4", 64_333, [4864, 2272, 992], "1", id="2,2,4"),
        ],
    )
    def test_rank_three_node_boundary(self, monkeypatch, group, nodes, counts, workers):
        assert_node_boundary(monkeypatch, group, nodes, counts, workers)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_rank_two_node_boundary(self, monkeypatch, workers):
        # the 6 values of cell 00 name the parts, each searching cells 01 on
        assert_node_boundary(monkeypatch, "6,6", 11_649, [3388, 2310, 864], workers)

    def test_serial_run_never_reruns_a_part(self, monkeypatch):
        # a serial part's cap is the whole rest of the budget, so each of the
        # 8 values of cell 00 of 2,2,4 runs once, and none twice when the
        # budget is short
        part = enumeration._part
        values = []

        def spy(task):
            values.append(task[1])
            return part(task)

        monkeypatch.setattr(enumeration, "_part", spy)
        monkeypatch.delenv("RIGIDITY_BUDGET", raising=False)
        code, doc = run_json("enumerate", "--group", "2,2,4")
        assert code == 0
        assert len(values) == len(set(values)) == 8
        values.clear()
        monkeypatch.setenv("RIGIDITY_BUDGET", "64332")
        code, doc = run_json("enumerate", "--group", "2,2,4")
        assert code == 3
        assert len(values) == len(set(values))

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_charge_precedes_candidate_sets(self, monkeypatch, workers):
        # (Z/2)^12 has 144 cells of 4096 candidates, all built by ``_plan``;
        # the prefix charge is taken from the set sizes, so it never runs
        built = []
        monkeypatch.setattr(enumeration, "_plan", built.append)
        monkeypatch.setenv("RIGIDITY_BUDGET", "1")
        code, doc = run_json(
            "enumerate", "--group", ",".join(["2"] * 12), "--workers", workers
        )
        assert code == 3
        assert "more than 1 search nodes" in doc["payload"]["message"]
        assert built == []

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_plan_refused_before_its_candidate_sets(self, monkeypatch, workers):
        # (Z/2)^12 under a budget of 5000: cell 00's 4096 nodes fit, but its
        # 144 cells hold 589,824 candidates, so ``_plan`` never runs
        built = []
        monkeypatch.setattr(enumeration, "_plan", built.append)
        monkeypatch.setenv("RIGIDITY_BUDGET", "5000")
        code, doc = run_json(
            "enumerate", "--group", ",".join(["2"] * 12), "--workers", workers
        )
        assert code == 3
        jsonschema.validate(doc, SCHEMA)
        message = doc["payload"]["message"]
        assert "589824 candidate cell values" in message
        assert "over the budget of 5000" in message
        assert built == []

    def test_node_charge_stops_search(self, monkeypatch):
        # 2,4,4 has 3.4e10 candidate tables; the search itself meets the budget
        monkeypatch.setenv("RIGIDITY_BUDGET", "1000")
        start = time.perf_counter()
        code, doc = run_json("enumerate", "--group", "2,4,4")
        assert time.perf_counter() - start < 1.0
        assert code == 3
        jsonschema.validate(doc, SCHEMA)
        assert "more than 1000 search nodes" in doc["payload"]["message"]

    def test_zero_workers_is_usage_error(self):
        code, doc = run_json("enumerate", "--group", "2,2", "--workers", "0")
        assert code == 2

    def test_classify_capacity_is_three(self):
        code, doc = run_json("classify", "--modulus", "20000")
        assert code == 3

    def test_classify_charge_precedes_closed_rows(self, monkeypatch):
        # 3000^3 products are over the default budget; the 3000^2 closed-row
        # slots (72 MB) must not be built before the charge refuses them
        monkeypatch.delenv("RIGIDITY_BUDGET", raising=False)
        tracemalloc.start()
        try:
            code, doc = run_json("classify", "--modulus", "3000")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert "scaled-form products on Z/3000" in doc["payload"]["message"]
        assert peak < 2**20

    @pytest.mark.parametrize("budget,code", [("1728", 0), ("1727", 3)])
    def test_classify_charges_scaled_form_check(self, monkeypatch, budget, code):
        # Z/12: 12 rings x 12^2 products = 1728 checked cells
        monkeypatch.setenv("RIGIDITY_BUDGET", budget)
        got, doc = run_json("classify", "--modulus", "12")
        assert got == code
        jsonschema.validate(doc, SCHEMA)
        if code:
            assert "1728" in doc["payload"]["message"]
            assert "1727" in doc["payload"]["message"]

    @pytest.mark.parametrize("budget,code", [("1728", 0), ("1727", 3)])
    def test_enumerate_charges_scaled_form_check(self, monkeypatch, budget, code):
        monkeypatch.setenv("RIGIDITY_BUDGET", budget)
        got, doc = run_json("enumerate", "--group", "12")
        assert got == code
        jsonschema.validate(doc, SCHEMA)
        if code:
            assert "1728" in doc["payload"]["message"]
            assert "1727" in doc["payload"]["message"]

    def test_classify_9999_refused_up_front(self, monkeypatch):
        def no_census(*args):
            raise AssertionError("the census started before the work charge")

        monkeypatch.setattr(enumeration, "_tables", no_census)
        start = time.perf_counter()
        code, doc = run_json("classify", "--modulus", "9999")
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert doc["status"] == "error"
        assert str(9999**3) in doc["payload"]["message"]
        jsonschema.validate(doc, SCHEMA)

    def test_overflow_is_four(self):
        code, doc = run_json(
            "verify-scaled", "--a", "100000000000", "--bound", "100000"
        )
        assert code == 4
        assert "overflow" in doc["payload"]["message"].lower()

    def test_negative_samples_is_two(self):
        code, doc = run_json(
            "verify-scaled", "--a", "1", "--bound", "10", "--samples", "-5"
        )
        assert code == 2
        jsonschema.validate(doc, SCHEMA)
        assert doc["status"] == "error"
        assert "samples must be >= 0" in doc["payload"]["message"]

    def test_zero_samples_accepted(self):
        code, doc = run_json(
            "verify-scaled", "--a", "1", "--bound", "10", "--samples", "0"
        )
        assert code == 0
        jsonschema.validate(doc, SCHEMA)
        assert doc["payload"]["samples"] == 0

    def test_invariant_violation_is_five(self, shifted_product):
        code, doc = run_json("classify", "--modulus", "6")
        assert code == 5
        jsonschema.validate(doc, SCHEMA)
        assert doc["status"] == "error"
        assert "not the scaled form" in doc["payload"]["message"]

    def test_enumerate_invariant_violation_is_five(self, shifted_product):
        code, doc = run_json("enumerate", "--group", "6")
        assert code == 5
        jsonschema.validate(doc, SCHEMA)
        assert doc["status"] == "error"
        assert "not the scaled form" in doc["payload"]["message"]

    @pytest.mark.parametrize(
        "args", [["classify", "--modulus", "6"], ["enumerate", "--group", "6"]]
    )
    def test_reused_closed_row_violation_is_five(self, shifted_reused_row, args):
        code, doc = run_json(*args)
        assert code == 5
        jsonschema.validate(doc, SCHEMA)
        assert doc["status"] == "error"
        assert "own mul(1,1) = 5" in doc["payload"]["message"]

    def test_status_ok_iff_exit_zero(self):
        for args, expected in [
            (("classify", "--modulus", "5"), 0),
            (("enumerate", "--group", "0"), 2),
            (("classify", "--modulus", "99999"), 3),
        ]:
            code, doc = run_json(*args)
            assert code == expected
            assert (doc["status"] == "ok") == (code == 0)


class TestWorkCharges:
    @pytest.mark.parametrize(
        "args,work",
        [
            (("scaled-units", "--modulus", "12"), 5 * 12**2 + 7 * 12),
            (("matrix-demo", "--n", "3", "--mod", "5"), 9014 * 3**3 + 9008 * 3**2),
            # the queries of perfbench's window workload, at 10_000 samples
            (("verify-scaled", "--a", "-1", "--bound", "1000"), 126_003),
            (("verify-scaled", "--a", "3", "--bound", "100000"), 720_003),
        ],
        ids=[
            "scaled-units", "matrix-demo", "verify-scaled-1000", "verify-scaled-100000"
        ],
    )
    @pytest.mark.parametrize("slack,code", [(0, 0), (-1, 3)], ids=["at", "below"])
    def test_budget_boundary(self, monkeypatch, args, work, slack, code):
        monkeypatch.setenv("RIGIDITY_BUDGET", str(work + slack))
        got, doc = run_json(*args)
        assert got == code
        jsonschema.validate(doc, SCHEMA)
        if code:
            assert str(work) in doc["payload"]["message"]
            assert str(work - 1) in doc["payload"]["message"]

    def test_matrix_demo_60_refused_up_front(self):
        start = time.perf_counter()
        code, doc = run_json("matrix-demo", "--n", "60", "--mod", "11")
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert doc["status"] == "error"
        jsonschema.validate(doc, SCHEMA)

    @pytest.mark.parametrize(
        "args",
        [
            ("matrix-demo", "--n", "60", "--mod", "1"),
            ("scaled-units", "--modulus", "-5000"),
        ],
        ids=["matrix-demo", "scaled-units"],
    )
    def test_invalid_input_is_usage_error_before_charge(self, args):
        # both would be charged over the default budget
        code, doc = run_json(*args)
        assert code == 2
        jsonschema.validate(doc, SCHEMA)

    @pytest.mark.parametrize("modulus", [2, 3, 4, 5, 6, 8, 12, 30])
    def test_scaled_units_charge_bounds_products(self, monkeypatch, modulus):
        # one product per product() call (eval and find_unit go through it),
        # N per product_row or product_column
        count = [0]
        product = StructureConstants.product
        row = StructureConstants.product_row
        column = StructureConstants.product_column

        def counted_product(self, x, y):
            count[0] += 1
            return product(self, x, y)

        def counted_row(self, x):
            count[0] += self.group.order
            return row(self, x)

        def counted_column(self, y):
            count[0] += self.group.order
            return column(self, y)

        monkeypatch.setattr(StructureConstants, "product", counted_product)
        monkeypatch.setattr(StructureConstants, "product_row", counted_row)
        monkeypatch.setattr(StructureConstants, "product_column", counted_column)
        code, _ = run_json("scaled-units", "--modulus", str(modulus))
        assert code == 0
        assert 0 < count[0] <= cli._scaled_units_work(modulus)

    @pytest.mark.parametrize("modulus", [2, 3, 4, 6])
    def test_scaled_units_scans_once(self, monkeypatch, modulus):
        calls = [0]
        original = scaled.find_pm1_violation

        def counted(ring):
            calls[0] += 1
            return original(ring)

        monkeypatch.setattr(scaled, "find_pm1_violation", counted)
        code, doc = run_json("scaled-units", "--modulus", str(modulus))
        assert code == 0
        assert doc["payload"]["pm1_only_units"]
        assert calls[0] == 1

    def test_scaled_units_unit_at_wrong_scale_is_five(self, unit_at_every_scale):
        code, doc = run_json("scaled-units", "--modulus", "6")
        assert code == 5
        jsonschema.validate(doc, SCHEMA)
        assert doc["status"] == "error"
        assert "scale" in doc["payload"]["message"]

    def test_scaled_units_failed_unit_check_is_five(self, rotated_column):
        # the base ring's unit fails find_unit's two-sided check: a bug
        code, doc = run_json("scaled-units", "--modulus", "12")
        assert code == 5
        jsonschema.validate(doc, SCHEMA)
        assert doc["status"] == "error"
        assert "not a two-sided unit" in doc["payload"]["message"]

    @pytest.mark.parametrize(
        "window",
        [("--bound", "1000000000"), ("--bound", "10", "--samples", "1000000000")],
        ids=["bound", "samples"],
    )
    def test_verify_scaled_refused_up_front(self, window):
        start = time.perf_counter()
        code, doc = run_json("verify-scaled", "--a", "1", *window)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        jsonschema.validate(doc, SCHEMA)

    @pytest.mark.parametrize("bound", [1, 5, 100])
    @pytest.mark.parametrize("a", [-3, -1, 0, 1, 2, 7])
    def test_verify_scaled_charge_bounds_multiplications(self, monkeypatch, a, bound):
        # 12 per identity sample exactly; the unit scan within 3(2b + 1)
        count = [0]

        def counting(scale):
            mul = ScaledMult(scale)

            def counted(n, m):
                count[0] += 1
                return mul(n, m)

            return counted

        monkeypatch.setattr(scaled, "ScaledMult", counting)
        counts = []
        for samples in (0, 7):
            count[0] = 0
            code, _ = run_json(
                "verify-scaled", "--a", str(a), "--bound", str(bound),
                "--samples", str(samples),
            )
            assert code == 0
            assert 0 < count[0] <= cli._verify_scaled_work(samples, bound)
            counts.append(count[0])
        assert counts[1] - counts[0] == 12 * 7

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matrix_demo_charge_bounds_multiply_adds(self, monkeypatch, n):
        count = [0]

        # the kernels serve the axiom samples and, through the public
        # functions, the unit checks and the witness
        def counting(kernel, cost):
            def counted(modulus, a, b):
                count[0] += cost
                return kernel(modulus, a, b)

            return counted

        monkeypatch.setattr(matrices, "_standard", counting(matrices._standard, n**3))
        monkeypatch.setattr(matrices, "_hadamard", counting(matrices._hadamard, n**2))
        code, _ = run_json("matrix-demo", "--n", str(n), "--mod", "5")
        assert code == 0
        if n >= 2:
            assert count[0] == cli._matrix_demo_work(n)
        else:  # no witness at n = 1
            assert 0 < count[0] <= cli._matrix_demo_work(n)

    def test_matrix_demo_work_closed_form(self):
        for n in (1, 2, 8, 19):
            assert cli._matrix_demo_work(n) == 9014 * n**3 + 9008 * n**2

    def test_verify_scaled_default_samples(self):
        code, doc = run_json("verify-scaled", "--a", "2", "--bound", "5")
        assert code == 0
        assert doc["params"]["samples"] == scaled.IDENTITY_SAMPLES
        assert doc["payload"]["samples"] == scaled.IDENTITY_SAMPLES


class TestBudgetEnv:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("RIGIDITY_BUDGET", "10")
        code, _ = run_json("enumerate", "--group", "2,2")
        assert code == 3

    def test_budget_flag_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            run(["enumerate", "--group", "2,2", "--budget", "100000"])
        assert exc.value.code == 2

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv("RIGIDITY_BUDGET", "lots")
        code, doc = run_json("enumerate", "--group", "2,2")
        assert code == 2

    @pytest.mark.parametrize("value", ["0", "-1", "lots"])
    @pytest.mark.parametrize(
        "args",
        [
            ("enumerate", "--group", "2,2"),
            ("classify", "--modulus", "6"),
            ("verify-scaled", "--a", "1", "--bound", "10"),
            ("scaled-units", "--modulus", "6"),
            ("matrix-demo", "--n", "2", "--mod", "7"),
        ],
        ids=lambda args: args[0],
    )
    def test_invalid_budget_is_two_everywhere(self, monkeypatch, args, value):
        monkeypatch.setenv("RIGIDITY_BUDGET", value)
        code, doc = run_json(*args)
        assert code == 2
        jsonschema.validate(doc, SCHEMA)
        assert "RIGIDITY_BUDGET" in doc["payload"]["message"]


class TestWorkers:
    def test_worker_counts_identical_json(self):
        _, one = run_cli("enumerate", "--group", "2,2", "--workers", "1", "--no-timing")
        _, four = run_cli("enumerate", "--group", "2,2", "--workers", "4", "--no-timing")
        assert one == four


class TestOutputsMatchSpecExamples:
    def test_enumerate_six(self):
        _, doc = run_json("enumerate", "--group", "6")
        payload = doc["payload"]
        assert payload["total"] == 6
        assert payload["unital_scales"] == [1, 5]
        assert payload["scaled_form_all"] is True

    def test_enumerate_klein_has_two_unital_tables(self):
        _, doc = run_json("enumerate", "--group", "2,2")
        examples = doc["payload"]["unital_examples"]
        assert len(examples) == 2
        assert examples[0]["table"] != examples[1]["table"]

    def test_classify_small_oracle_agrees(self):
        for modulus in (2, 3):
            _, doc = run_json("classify", "--modulus", str(modulus))
            assert doc["payload"]["oracle"] == "agree"
            assert len(doc["payload"]["candidates"]) == modulus

    def test_classify_twelve(self):
        _, doc = run_json("classify", "--modulus", "12")
        assert doc["payload"]["unital_scales"] == [1, 5, 7, 11]
        assert "oracle" not in doc["payload"]

    def test_verify_scaled_minus_one(self):
        _, doc = run_json("verify-scaled", "--a", "-1", "--bound", "1000")
        payload = doc["payload"]
        assert payload["passed"] and payload["unit"] == -1
        assert payload["note"] == "alternate ring"

    def test_verify_scaled_three(self):
        _, doc = run_json("verify-scaled", "--a", "3", "--bound", "1000")
        payload = doc["payload"]
        assert payload["passed"] and payload["unit"] is None

    def test_verify_scaled_one(self):
        _, doc = run_json("verify-scaled", "--a", "1", "--bound", "1000")
        payload = doc["payload"]
        assert payload["passed"] and payload["unit"] == 1
        assert payload["note"] == "usual ring"

    def test_matrix_demo_units(self):
        _, doc = run_json("matrix-demo", "--n", "2", "--mod", "7")
        payload = doc["payload"]
        assert payload["units"]["standard"] == [[1, 0], [0, 1]]
        assert payload["units"]["hadamard"] == [[1, 1], [1, 1]]
        assert payload["noncommutativity_witness"] is not None

    def test_matrix_demo_dimension_one(self):
        _, doc = run_json("matrix-demo", "--n", "1", "--mod", "5")
        payload = doc["payload"]
        assert payload["note"] == "modes coincide at n=1"
        assert payload["noncommutativity_witness"] is None

    def test_scaled_units_three(self):
        _, doc = run_json("scaled-units", "--modulus", "3")
        payload = doc["payload"]
        assert payload["pm1_only_units"] is True
        assert payload["unital_scales"] == [1, 2]
        assert payload["matches_pm1_rule"] is True

    def test_scaled_units_five(self):
        _, doc = run_json("scaled-units", "--modulus", "5")
        payload = doc["payload"]
        assert payload["pm1_only_units"] is False
        assert payload["violation"] == {"a": 2, "u": 3}
        assert payload["unital_scales"] == [1, 2, 3, 4]
        assert payload["departures"] == [2, 3]

    def test_scaled_units_two(self):
        _, doc = run_json("scaled-units", "--modulus", "2")
        payload = doc["payload"]
        assert payload["pm1_only_units"] is True
        assert payload["unital_scales"] == [1]
        assert payload["pm_one_scales"] == [1]


class TestScaleRows:
    @pytest.mark.parametrize("modulus", range(2, 31))
    def test_classify_matches_scaled_units(self, modulus):
        # the census path and the scale_ring path answer each scale alike
        _, census = run_json("classify", "--modulus", str(modulus))
        _, scaled_rings = run_json("scaled-units", "--modulus", str(modulus))
        assert census["payload"]["candidates"] == scaled_rings["payload"]["entries"]
        assert (
            census["payload"]["unital_scales"]
            == scaled_rings["payload"]["unital_scales"]
        )

    @pytest.mark.parametrize("modulus", [2, 3])
    def test_oracle_missing_a_table_disagrees(self, monkeypatch, modulus):
        original = enumeration.full_table_oracle

        def short(n):
            return frozenset(sorted(original(n))[1:])

        monkeypatch.setattr(cli, "full_table_oracle", short)
        code, doc = run_json("classify", "--modulus", str(modulus))
        assert code == 0
        assert doc["payload"]["oracle"] == "disagree"

    @pytest.mark.parametrize(
        "args", [["classify", "--modulus", "12"], ["enumerate", "--group", "12"]]
    )
    def test_kernel_answers_every_row(self, monkeypatch, args):
        # the scaled-form check compares the kernel's own row for every ring
        # and every x, so no row of kernel output may be memoised
        original = StructureConstants.product_row
        asked = set()

        def spy(self, x):
            asked.add((self.table[0][0][0], x[0]))
            return original(self, x)

        monkeypatch.setattr(StructureConstants, "product_row", spy)
        code, _ = run_json(*args)
        assert code == 0
        assert asked >= set(itertools.product(range(12), range(12)))


class TestTextMode:
    def test_text_renders(self):
        code, text = run_cli("classify", "--modulus", "3", "--text", "--no-timing")
        assert code == 0
        assert "command: classify" in text
        assert "status: ok" in text

    def test_json_flag_is_gone(self):
        # JSON is the only other format, so a flag asking for it said nothing
        with pytest.raises(SystemExit) as exc:
            run(["classify", "--modulus", "3", "--json"])
        assert exc.value.code == 2


# run in a fresh interpreter with the CLI arguments: prints which of the
# watched modules are loaded, then the CLI's output
LEAN_PROBE = """
import io, json, sys
import ringrigidity.cli
out = io.StringIO()
ringrigidity.cli.run(sys.argv[1:], stdout=out)
watched = {"dataclasses", "multiprocessing", "random"}
watched |= {"ringrigidity.scaled", "ringrigidity.matrices"}
print(json.dumps(sorted(watched & set(sys.modules))))
sys.stdout.write(out.getvalue())
"""


def fresh_interpreter(*args: str) -> subprocess.CompletedProcess:
    """``python -S`` with ``args``, importing the package this suite imported.

    A fresh interpreter, since pytest itself imports the watched modules;
    -S keeps site's own imports out of the modules the child reports. Its
    stdout is a pipe, and block-buffered even where PYTHONUNBUFFERED is set.
    """
    src = str(Path(ringrigidity.__file__).parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run(
        [sys.executable, "-S", *args],
        capture_output=True,
        text=True,
        env={**env, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


# run in a fresh interpreter, whose stdout is block-buffered: a
# line printed before a two-worker census, then the census, and the forks
POOL_PROBE = """
import os
fork = os.fork
forks = []
os.fork = lambda: forks.append(1) or fork()
os.sched_getaffinity = lambda pid: {0, 1}  # a pool even on one CPU
from ringrigidity import GroupSpec, SearchConfig, rigidity_report
print("printed before the census")
report = rigidity_report(GroupSpec((3, 3)), SearchConfig(workers=2))
print(report.total, len(forks))
"""


class TestEntryPoint:
    def test_python_dash_m(self):
        # the child must import the package this suite imported, also when
        # only pytest's own pythonpath setting put it on sys.path
        src = str(Path(ringrigidity.__file__).parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "ringrigidity", "classify", "--modulus", "2",
             "--no-timing"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["payload"]["unital_scales"] == [1]

    @pytest.mark.parametrize(
        "argv, workers, loaded",
        [
            # the census commands load neither scaled nor matrices, nor random
            (["enumerate", "--group", "2,2"], ["--workers", "1"], []),
            # a pool forks its workers: it loads neither multiprocessing nor random
            (["enumerate", "--group", "3,3"], ["--workers", "2"], []),
            (["classify", "--modulus", "6"], [], []),
            # the other commands load their own module, and random where they draw
            (
                ["verify-scaled", "--a", "2", "--bound", "5"],
                [],
                ["random", "ringrigidity.scaled"],
            ),
            (["scaled-units", "--modulus", "6"], [], ["ringrigidity.scaled"]),
            (
                ["matrix-demo", "--n", "2", "--mod", "5"],
                [],
                ["random", "ringrigidity.matrices"],
            ),
        ],
        ids=[
            "enumerate-1", "enumerate-2", "classify", "verify-scaled",
            "scaled-units", "matrix-demo",
        ],
    )
    def test_lean_imports(self, argv, workers, loaded):
        argv = [*argv, "--no-timing"]
        proc = fresh_interpreter("-c", LEAN_PROBE, *argv, *workers)
        reported, output = proc.stdout.split("\n", 1)
        assert json.loads(reported) == loaded
        assert output == run_cli(*argv)[1]  # in this process, on one worker

    def test_pool_workers_never_flush_the_parent(self):
        # forked workers inherit the buffered line but leave by os._exit
        proc = fresh_interpreter("-c", POOL_PROBE)
        assert proc.stdout == "printed before the census\n121 2\n"

    def test_no_generated_code(self):
        # no module runs source it builds: the exec, eval and compile
        # builtins are never called, while methods of those names, such as
        # StructureConstants.eval, are ordinary calls
        paths = sorted(Path(ringrigidity.__file__).parent.glob("*.py"))
        assert len(paths) > 1
        calls = [
            (path.name, node.lineno, node.func.id)
            for path in paths
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("exec", "eval", "compile")
        ]
        assert calls == []

    def test_console_script_prints_the_golden(self, capsys):
        # pyproject's [project.scripts] target, read with a regex because
        # Python 3.10 has no tomllib
        text = (Path(__file__).parent.parent / "pyproject.toml").read_text()
        section = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
        (module, attr), = re.findall(
            r'^ringrigidity\s*=\s*"([\w.]+):(\w+)"$', section.group(1), re.M
        )
        main = getattr(importlib.import_module(module), attr)
        assert main is cli.main
        assert main(["enumerate", "--group", "2,2", "--no-timing"]) == 0
        assert capsys.readouterr().out == (GOLDEN / "enumerate_2_2.json").read_text()

    def test_timing_reported_without_flag(self):
        _, doc = run_json("classify", "--modulus", "2")
        assert isinstance(doc["elapsed_ms"], int)
        assert doc["elapsed_ms"] >= 0


# every public name of the package, by the module that defines it
PUBLIC_NAMES = {
    "abelian": (
        "DEFAULT_ELEMENT_CAP", "INT_CAPACITY", "GroupElement", "GroupSpec",
        "IntegerWindow", "add", "all_elements", "checked", "element_order",
        "scalar_mul",
    ),
    "enumeration": (
        "CyclicClassification", "RigidityReport", "SearchConfig",
        "classify_cyclic", "enumerate_multiplications", "expand_to_full_table",
        "full_table_oracle", "rigidity_report", "search_space_size",
    ),
    "errors": (
        "CapacityError", "IntegerOverflowError", "InvariantViolation", "UsageError",
    ),
    "matrices": (
        "HADAMARD", "STANDARD", "MatrixElement", "all_matrices", "mat_add",
        "mat_mul_hadamard", "mat_mul_standard", "noncommutativity_witness",
        "unit_matrix",
    ),
    "scaled": (
        "ScaledMult", "check_scaled_unitality", "extract_scale",
        "find_pm1_violation", "find_unit_windowed", "scale_ring",
        "scaled_unit_sweep", "unit_of_scaled", "usual_cyclic_ring",
        "verify_scaled_form",
    ),
    "structures": (
        "RingStructure", "StructureConstants", "check_associativity",
        "check_commutativity", "check_distributivity_blackbox",
        "cyclic_constants", "find_unit",
    ),
}


class TestPackageNames:
    def test_forty_nine_names(self):
        assert sum(map(len, PUBLIC_NAMES.values())) == 49

    @pytest.mark.parametrize("module", sorted(PUBLIC_NAMES))
    def test_each_name_is_its_modules(self, module):
        source = importlib.import_module(f"ringrigidity.{module}")
        for name in PUBLIC_NAMES[module]:
            assert getattr(ringrigidity, name) is getattr(source, name), name

    def test_from_import(self):
        from ringrigidity import MatrixElement, ScaledMult

        assert ScaledMult is scaled.ScaledMult
        assert MatrixElement is matrices.MatrixElement

    def test_unknown_name(self):
        assert not hasattr(ringrigidity, "no_such_name")
        with pytest.raises(AttributeError, match="no_such_name"):
            ringrigidity.no_such_name

    def test_dir_lists_every_name(self):
        listed = set(dir(ringrigidity))
        for names in PUBLIC_NAMES.values():
            assert listed >= set(names)

    def test_lookup_reads_the_submodule(self, monkeypatch):
        # no copy in the package: a rebinding in the submodule is seen
        monkeypatch.setattr(scaled, "scale_ring", len)
        monkeypatch.setattr(matrices, "unit_matrix", len)
        assert ringrigidity.scale_ring is len
        assert ringrigidity.unit_matrix is len

    def test_import_loads_neither_scaled_nor_matrices(self):
        probe = (
            "import json, sys, ringrigidity; "
            "print(json.dumps(sorted(m for m in sys.modules if 'ringrigidity' in m)))"
        )
        proc = fresh_interpreter("-c", probe)
        assert json.loads(proc.stdout) == [
            "ringrigidity",
            "ringrigidity.abelian",
            "ringrigidity.enumeration",
            "ringrigidity.errors",
            "ringrigidity.structures",
        ]
