import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from ringrigidity import (
    INT_CAPACITY,
    GroupSpec,
    IntegerOverflowError,
    IntegerWindow,
    InvariantViolation,
    RingStructure,
    ScaledMult,
    SearchConfig,
    UsageError,
    all_elements,
    check_distributivity_blackbox,
    check_scaled_unitality,
    enumerate_multiplications,
    extract_scale,
    find_pm1_violation,
    find_unit_windowed,
    scale_ring,
    scaled_unit_sweep,
    unit_of_scaled,
    usual_cyclic_ring,
    verify_scaled_form,
)
from ringrigidity import scaled
from ringrigidity.scaled import pm1_scales, scaled_identity_failure, scaled_identity_suite

from conftest import pm1_violation_by_eval
from test_structures import componentwise_constants, klein_field_constants


class TestMakeScaled:
    def test_usual(self):
        assert ScaledMult(1)(3, 4) == 12

    def test_negated(self):
        assert ScaledMult(-1)(3, 4) == -12

    def test_zero_scale(self):
        mul = ScaledMult(0)
        assert mul(17, -23) == 0

    def test_overflow_checked(self):
        message = (
            f"integer {10**20} exceeds the checked capacity {INT_CAPACITY} "
            "in 10000000000*100000*100000"
        )
        with pytest.raises(IntegerOverflowError, match=re.escape(message)):
            ScaledMult(10**10)(10**5, 10**5)

    @pytest.mark.parametrize(
        "scale, n, m",
        [(1, INT_CAPACITY, 1), (-1, INT_CAPACITY, 1), (1, 1, -INT_CAPACITY)],
    )
    def test_capacity_boundary_returned(self, scale, n, m):
        assert ScaledMult(scale)(n, m) == scale * n * m

    @pytest.mark.parametrize(
        "scale, n, m, value",
        [
            (1, INT_CAPACITY + 1, 1, INT_CAPACITY + 1),
            (-1, INT_CAPACITY + 1, 1, -(INT_CAPACITY + 1)),
            (2, -(2**62), 1, -(2**63)),
        ],
    )
    def test_capacity_boundary_raises(self, scale, n, m, value):
        message = (
            f"integer {value} exceeds the checked capacity {INT_CAPACITY} "
            f"in {scale}*{n}*{m}"
        )
        with pytest.raises(IntegerOverflowError, match=re.escape(message)):
            ScaledMult(scale)(n, m)

    @pytest.mark.parametrize("scale", [2.0, 0.5, "3", None])
    def test_non_int_scale_refused_when_built(self, scale):
        message = f"ScaledMult needs an int scale, got {scale!r}"
        with pytest.raises(UsageError, match=re.escape(message)):
            ScaledMult(scale)

    @pytest.mark.parametrize("a", [1, -1, -8])
    def test_black_box_of_verify_scaled_form(self, a):
        mul = ScaledMult(a)
        seen = set()

        def spy(n, m):
            seen.add((n, m))
            return mul(n, m)

        report = verify_scaled_form(spy, IntegerWindow(20))
        assert report.ok and report.scale == a and not report.rejected
        assert report.counterexample is None
        window = range(-20, 21)
        assert seen >= {(n, m) for n in window for m in window}


class TestAlternate:
    def test_negates_products(self):
        assert ScaledMult(-1)(2, 5) == -10

    def test_absorbs_zero(self):
        assert ScaledMult(-1)(7, 0) == 0

    def test_minus_one_squares_to_itself(self):
        # -((-1)*(-1)) = -1, which is also this multiplication's unit
        assert ScaledMult(-1)(-1, -1) == -1

    def test_is_scale_minus_one(self):
        mul = ScaledMult(-1)
        ref = lambda n, m: -(n * m)
        for n in range(-10, 11):
            for m in range(-10, 11):
                assert mul(n, m) == ref(n, m)


class TestUnitOfScaled:
    def test_one(self):
        assert unit_of_scaled(1) == 1

    def test_minus_one(self):
        assert unit_of_scaled(-1) == -1

    @pytest.mark.parametrize("a", [0, 2, -2, 17, -100])
    def test_other_scales_non_unital(self, a):
        assert unit_of_scaled(a) is None

    def test_agrees_with_windowed_scan(self):
        window = IntegerWindow(1000)
        for a in range(-100, 101):
            assert find_unit_windowed(ScaledMult(a), window) == unit_of_scaled(a)

    @pytest.mark.parametrize("a", [-1, 1, 2])
    def test_windowed_scan_stays_within_its_charge(self, a):
        # one screen product per candidate, 2 per window element for the unit
        window = IntegerWindow(50)
        calls = [0]

        def counted(n, m):
            calls[0] += 1
            return a * n * m

        assert find_unit_windowed(counted, window) == unit_of_scaled(a)
        assert 0 < calls[0] <= 3 * len(window)


class TestExtractScale:
    def test_usual(self):
        assert extract_scale(lambda n, m: n * m) == 1

    def test_round_trip(self):
        for a in range(-1000, 1001):
            assert extract_scale(ScaledMult(a)) == a

    def test_alternate(self):
        assert extract_scale(ScaledMult(-1)) == -1


class TestScaledIdentities:
    def test_random_suite(self):
        # 10^4 random quadruples, |a| <= 100, |n|,|m|,|k| <= 10^4
        rng = random.Random(2024)
        for _ in range(10_000):
            a = rng.randint(-100, 100)
            n = rng.randint(-10_000, 10_000)
            m = rng.randint(-10_000, 10_000)
            k = rng.randint(-10_000, 10_000)
            assert scaled_identity_failure(a, n, m, k) is None

    @given(
        st.integers(-100, 100),
        st.integers(-10_000, 10_000),
        st.integers(-10_000, 10_000),
        st.integers(-10_000, 10_000),
    )
    @settings(max_examples=300)
    def test_identities_property(self, a, n, m, k):
        assert scaled_identity_failure(a, n, m, k) is None

    @given(st.integers(-50, 50), st.integers(-10**4, 10**4), st.integers(-10**4, 10**4))
    @settings(max_examples=300)
    def test_commutes(self, a, n, m):
        mul = ScaledMult(a)
        assert mul(n, m) == mul(m, n)

    def test_suite_runner_reports_ok(self):
        report = scaled_identity_suite(-7, 1000, samples=2000)
        assert report.ok and report.failure is None

    def test_suite_runner_flags_overflow(self):
        with pytest.raises(IntegerOverflowError, match="a="):
            scaled_identity_suite(10**12, 10**6, samples=100)

    def test_suite_runner_rejects_negative_samples(self):
        with pytest.raises(UsageError, match="samples"):
            scaled_identity_suite(1, 10, samples=-1)
        assert scaled_identity_suite(1, 10, samples=0).ok

    @pytest.mark.parametrize("bound", [0, -5])
    def test_suite_runner_rejects_empty_window(self, bound):
        with pytest.raises(UsageError, match="bound"):
            scaled_identity_suite(1, bound, samples=10)

    def test_suite_runner_draws_m_and_k_from_half_the_window(self, monkeypatch):
        draws = []

        def record(mul, a, n, m, k):
            draws.append((n, m, k))
            return None

        monkeypatch.setattr(scaled, "_identity_failure", record)
        assert scaled_identity_suite(1, 5, samples=500).ok
        assert len(draws) == 500
        assert all(abs(n) <= 5 and abs(m) <= 2 and abs(k) <= 2 for n, m, k in draws)
        assert {m for _, m, _ in draws} == {-2, -1, 0, 1, 2}

    def test_suite_builds_one_closure(self, monkeypatch):
        # the closure is built once per suite, not once per sample
        built = []
        real = scaled.ScaledMult
        monkeypatch.setattr(scaled, "ScaledMult", lambda a: built.append(a) or real(a))
        assert scaled_identity_suite(-7, 100, samples=500).ok
        assert built == [-7]


class TestVerifyScaledForm:
    def test_usual_multiplication(self):
        report = verify_scaled_form(lambda n, m: n * m, IntegerWindow(100))
        assert report.ok and report.scale == 1 and not report.rejected

    def test_alternate(self):
        report = verify_scaled_form(ScaledMult(-1), IntegerWindow(100))
        assert report.ok and report.scale == -1

    def test_non_int_black_box_is_a_usage_error(self):
        # float products equal the scaled ones, but the checked sums of the
        # distributivity probe need ints
        with pytest.raises(UsageError, match="checked arithmetic needs an int, got "):
            verify_scaled_form(lambda n, m: 2.0 * n * m, IntegerWindow(5))

    def test_non_distributive_rejected(self):
        report = verify_scaled_form(lambda n, m: n * m + 1, IntegerWindow(10))
        assert not report.ok
        assert report.rejected
        assert report.scale is None
        assert report.rejection is not None

    def test_distributive_but_unscaled_is_impossible_on_true_bilinear(self):
        # a multiplication that is distributive on the window but not of
        # scaled form cannot exist over the integers; simulate the report
        # path with a dishonest function that breaks far from the origin
        def sneaky(n, m):
            if abs(n) > 40 or abs(m) > 40:
                return 0
            return n * m

        report = verify_scaled_form(sneaky, IntegerWindow(8))
        assert report.ok  # looks scaled inside the small window
        wide = verify_scaled_form(sneaky, IntegerWindow(60))
        assert not wide.ok

    @pytest.mark.parametrize("bound", [1, 2, 3, 4, 5])
    def test_small_window_accepts_a_product_clipped_outside(self, bound):
        # 2nm inside the window and 0 beyond: distributive wherever n, m, k
        # and m + k all lie in the window, so a probe that stays inside
        # cannot reject it
        def clipped(n, m):
            return 2 * n * m if abs(n) <= bound and abs(m) <= bound else 0

        report = verify_scaled_form(clipped, IntegerWindow(bound))
        assert report.ok and report.scale == 2

    @pytest.mark.parametrize("bound", [1, 2, 3])
    def test_small_window_rejects_any_pair_broken_inside(self, bound):
        # up to bound 3 the exhaustive phase covers every in-window triple,
        # so changing 2nm at a single pair (p, q) is always caught:
        # (p, q - s, s) with s = +-1 splits q into two unbroken pairs
        window = IntegerWindow(bound)
        for p in window:
            for q in window:
                def broken(n, m):
                    if (n, m) == (p, q):
                        return 2 * n * m + 1
                    return 2 * n * m

                report = verify_scaled_form(broken, window)
                assert not report.ok and report.rejection is not None, (p, q)

    def test_small_window_rejects_non_distributive_products(self):
        def zero_at_3_3(n, m):
            return 0 if (n, m) == (3, 3) else 2 * n * m

        for mul, bound in [(zero_at_3_3, 3), (lambda n, m: abs(n * m), 1)]:
            report = verify_scaled_form(mul, IntegerWindow(bound))
            assert not report.ok and report.rejection is not None

    @pytest.mark.parametrize("bound", range(1, 9))
    def test_never_evaluates_outside_the_window(self, bound):
        window = IntegerWindow(bound)
        seen = set()

        def spy(n, m):
            seen.add((n, m))
            return 3 * n * m

        assert verify_scaled_form(spy, window).ok
        assert all(n in window and m in window for n, m in seen)

    @staticmethod
    def _unprobed(window):
        # the pairs, in row-major order, that the distributivity probe
        # never evaluates, so breaking them leaves the probe passing
        seen = set()

        def spy(n, m):
            seen.add((n, m))
            return 2 * n * m

        assert check_distributivity_blackbox(spy, window).ok
        return [(n, m) for n in window for m in window if (n, m) not in seen]

    @pytest.mark.parametrize("same_row", [True, False], ids=["same-row", "two-rows"])
    def test_reports_the_row_major_first_mismatch(self, same_row):
        window = IntegerWindow(40)
        free = self._unprobed(window)
        if same_row:
            broken = [p for p in free if p[0] == 17][-2:]
        else:
            # the later row's pair has the smaller m, so a column-major
            # scan would report it first
            n1, m1 = next(p for p in free if p[1] > 0)
            broken = [(n1, m1), next(p for p in free if p[0] > n1 and p[1] < m1)]

        def mul(n, m):
            return 2 * n * m + ((n, m) in broken)

        report = verify_scaled_form(mul, window)
        assert not report.rejected
        assert not report.ok and report.scale == 2
        assert report.counterexample == min(broken)

    def test_evaluates_every_pair_once_after_the_probe(self):
        window = IntegerWindow(40)
        probe_calls = []

        def counting(n, m):
            probe_calls.append((n, m))
            return 3 * n * m

        assert check_distributivity_blackbox(counting, window).ok
        calls = []

        def box(n, m):
            calls.append((n, m))
            return 3 * n * m

        report = verify_scaled_form(box, window)
        assert report.ok and report.scale == 3
        probe = len(probe_calls)
        assert len(calls) == probe + 1 + len(window) ** 2
        assert calls[:probe] == probe_calls and calls[probe] == (1, 1)
        assert calls[probe + 1 :] == [(n, m) for n in window for m in window]

    @pytest.mark.parametrize(
        "corner", [(1000, 1000), (-1000, -1000), (1000, -1000)], ids=str
    )
    def test_reports_a_broken_corner_at_bound_1000(self, corner):
        # the probe never evaluates these corners, so only the row phase
        # can see them
        p, q = corner

        def mul(n, m):
            return 2 * n * m + (n == p and m == q)

        report = verify_scaled_form(mul, IntegerWindow(1000))
        assert not report.rejected and report.scale == 2
        assert report.counterexample == corner

    def test_overflowing_corner_raises(self):
        # the probe's split sums stay below a*1001*1000 <= INT_CAPACITY, so
        # only the window's corner a*1001^2 leaves the checked range
        bound, a = 1001, 9_210_000_000_000
        assert a * bound * (bound - 1) <= INT_CAPACITY < a * bound * bound
        with pytest.raises(IntegerOverflowError, match=r"n=-1001, m=-1001"):
            verify_scaled_form(lambda n, m: a * n * m, IntegerWindow(bound))

    def test_recovers_every_scale_up_to_50(self):
        window = IntegerWindow(200)
        for a in range(-50, 51):
            report = verify_scaled_form(ScaledMult(a), window)
            assert report.ok and report.scale == a


class TestSignExtension:
    # distributivity alone forces mul(-n, m) = -mul(n, m) and mul(0, m) = 0;
    # the window verification must therefore hold on all four quadrants,
    # not just positive arguments
    def test_negatives_follow_from_additivity(self):
        for mul in (ScaledMult(4), ScaledMult(-1), lambda n, m: 0):
            for n in range(0, 61):
                for m in range(-30, 31):
                    assert mul(-n, m) == -mul(n, m)
                    assert mul(m, -n) == -mul(m, n)
            assert mul(0, 17) == 0 and mul(17, 0) == 0

    def test_window_verification_covers_all_quadrants(self):
        seen = set()

        def spy(n, m):
            seen.add((n > 0, m > 0))
            return 3 * n * m

        report = verify_scaled_form(spy, IntegerWindow(20))
        assert report.ok
        assert seen == {(True, True), (True, False), (False, True), (False, False)}


class TestScaleRing:
    def test_scaling_usual_mod_6(self):
        ring = usual_cyclic_ring(6)
        spec = ring.group
        scaled = scale_ring(ring, spec.element(5))
        assert scaled.eval(spec.element(2), spec.element(3)) == spec.element(0)
        # exhaustive table oracle: the scaled product is 5*x*y mod 6
        for x in range(6):
            for y in range(6):
                expected = spec.element(5 * x * y)
                assert scaled.eval(spec.element(x), spec.element(y)) == expected

    def test_scale_by_unit_returns_same_multiplication(self):
        ring = usual_cyclic_ring(7)
        scaled = scale_ring(ring, ring.unit)
        assert scaled.table == ring.mult.table

    def test_scale_by_zero_gives_zero_multiplication(self):
        ring = usual_cyclic_ring(5)
        spec = ring.group
        scaled = scale_ring(ring, spec.zero())
        for g in all_elements(spec):
            for h in all_elements(spec):
                assert scaled.eval(g, h) == spec.zero()

    def test_result_is_associative(self):
        from ringrigidity import check_associativity

        ring = usual_cyclic_ring(9)
        for a in all_elements(ring.group):
            assert check_associativity(scale_ring(ring, a))

    def test_noncentral_scale_rejected(self):
        # dig a noncommutative associative multiplication out of the census
        spec = GroupSpec((2, 2))
        noncomm = [
            ring
            for ring in enumerate_multiplications(spec, SearchConfig())
            if not ring.commutative
        ]
        assert noncomm, "census should contain noncommutative structures"
        tripped = False
        for ring in noncomm:
            for a in all_elements(spec):
                central = all(
                    ring.mult.eval(a, g) == ring.mult.eval(g, a)
                    for g in all_elements(spec)
                )
                if central:
                    scale_ring(ring, a)  # must be accepted
                else:
                    with pytest.raises(UsageError, match="not central"):
                        scale_ring(ring, a)
                    tripped = True
        assert tripped


class TestPm1UnitProperty:
    @pytest.mark.parametrize("modulus,expected", [
        (2, True), (3, True), (4, True), (6, True),
        (5, False), (7, False), (8, False), (12, False),
    ])
    def test_cyclic_rings(self, modulus, expected):
        assert (find_pm1_violation(usual_cyclic_ring(modulus)) is None) is expected

    def test_violation_witness_mod_5(self):
        ring = usual_cyclic_ring(5)
        witness = find_pm1_violation(ring)
        assert witness is not None
        a, u = witness
        assert ring.mult.eval(a, u) == ring.unit
        assert a.coords[0] not in (1, 4)

    def test_violation_witness_mod_8(self):
        # 3*3 = 9 = 1 mod 8 with 3 outside {1, 7}
        witness = find_pm1_violation(usual_cyclic_ring(8))
        assert witness is not None

    def test_row_scan_builds_only_the_pair(self, element_count):
        witness = find_pm1_violation(usual_cyclic_ring(200))
        assert witness is not None
        assert element_count[0] <= 3  # the base unit and the pair

    @pytest.mark.parametrize(
        "ring",
        [usual_cyclic_ring(n) for n in range(2, 41)]
        + [
            RingStructure.from_constants(klein_field_constants()),
            RingStructure.from_constants(componentwise_constants(GroupSpec((2, 4)))),
        ],
        ids=[f"Z{n}" for n in range(2, 41)] + ["klein_field", "componentwise_2_4"],
    )
    def test_row_scan_matches_eval_scan(self, ring):
        assert find_pm1_violation(ring) == pm1_violation_by_eval(ring)

    def test_needs_unit(self):
        spec = GroupSpec((4,))
        zero_ring = RingStructure.from_constants(
            __import__("ringrigidity").cyclic_constants(4, 0)
        )
        assert zero_ring.unit is None
        with pytest.raises(UsageError):
            find_pm1_violation(zero_ring)


class TestPm1Scales:
    @pytest.mark.parametrize(
        "ring,expected",
        [
            (usual_cyclic_ring(2), {(1,)}),
            (usual_cyclic_ring(12), {(1,), (11,)}),
            (
                RingStructure.from_constants(componentwise_constants(GroupSpec((2, 4)))),
                {(1, 1), (1, 3)},
            ),
        ],
        ids=["Z2", "Z12", "componentwise_2_4"],
    )
    def test_coordinates_of_plus_and_minus_one(self, ring, expected):
        assert pm1_scales(ring) == expected


class TestScaledUnitality:
    @pytest.mark.parametrize("modulus", [2, 3, 4, 6])
    def test_good_base_rings(self, modulus):
        ring = usual_cyclic_ring(modulus)
        entries = check_scaled_unitality(ring)
        assert len(entries) == modulus
        unital = sorted(e.scale.coords[0] for e in entries if e.unit is not None)
        assert unital == sorted({1, modulus - 1})
        # the unit of the scaled ring is the scale itself here
        for e in entries:
            if e.unit is not None:
                assert e.unit == e.scale

    @pytest.mark.parametrize("modulus", [5, 7, 8, 12])
    def test_precondition_rejected(self, modulus):
        with pytest.raises(UsageError, match="precondition"):
            check_scaled_unitality(usual_cyclic_ring(modulus))

    def test_diagnostic_sweep_mod_5(self):
        # without the reciprocal-pair hypothesis, every nonzero scale is
        # invertible mod 5 and so every scaled ring is unital
        entries = scaled_unit_sweep(usual_cyclic_ring(5))
        unital = sorted(e.scale.coords[0] for e in entries if e.unit is not None)
        assert unital == [1, 2, 3, 4]

    def test_diagnostic_sweep_mod_8(self):
        entries = scaled_unit_sweep(usual_cyclic_ring(8))
        unital = sorted(e.scale.coords[0] for e in entries if e.unit is not None)
        assert unital == [1, 3, 5, 7]

    def test_sweep_units_verified(self):
        ring = usual_cyclic_ring(6)
        for entry in scaled_unit_sweep(ring):
            if entry.unit is None:
                continue
            scaled = scale_ring(ring, entry.scale)
            for g in all_elements(ring.group):
                assert scaled.eval(entry.unit, g) == g

    def test_klein_field_fails_rule(self):
        # the four-element field has units {1, w, w^2} but 1 is its own
        # negative, so a*u = 1 admits (w, w^2): property fails
        ring = RingStructure.from_constants(klein_field_constants())
        assert find_pm1_violation(ring) is not None
        entries = scaled_unit_sweep(ring)
        unital = [e.scale for e in entries if e.unit is not None]
        assert len(unital) == 3  # every nonzero element of a field


class TestInvariantGuard:
    def test_non_commutative_base_refused(self):
        spec = GroupSpec((2, 2))
        ring = next(
            r for r in enumerate_multiplications(spec, SearchConfig())
            if not r.commutative
        )
        for check in (check_scaled_unitality, scaled_unit_sweep):
            with pytest.raises(UsageError, match="commutative"):
                check(ring)

    def test_violation_raised_on_unit_at_wrong_scale(self, unit_at_every_scale):
        # Z/6 meets the hypothesis, so a unit at scale 0 contradicts the
        # theorem and must not come back as a result
        with pytest.raises(InvariantViolation, match="scale"):
            check_scaled_unitality(usual_cyclic_ring(6))
