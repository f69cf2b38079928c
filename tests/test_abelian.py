import itertools
import random
import re

import pytest
from hypothesis import given, strategies as st

from ringrigidity import (
    CapacityError,
    GroupSpec,
    IntegerOverflowError,
    IntegerWindow,
    UsageError,
    add,
    all_elements,
    checked,
    element_order,
    scalar_mul,
)
from ringrigidity.abelian import INT_CAPACITY

from conftest import factor_sequences, iterated_add


class TestGroupSpec:
    def test_parse_single(self):
        assert GroupSpec.parse("4").moduli == (4,)

    def test_parse_product(self):
        spec = GroupSpec.parse("2,2,3")
        assert spec.moduli == (2, 2, 3)
        assert spec.order == 12

    def test_parse_tolerates_spaces(self):
        assert GroupSpec.parse(" 2, 6 ").moduli == (2, 6)

    @pytest.mark.parametrize("bad", ["", "x", "2,,3", "1", "0", "-4", "2.5"])
    def test_parse_rejects(self, bad):
        with pytest.raises(UsageError):
            GroupSpec.parse(bad)

    def test_no_canonicalization(self):
        # Z/2 x Z/3 and Z/6 stay distinct specs on purpose
        assert GroupSpec((2, 3)) != GroupSpec((6,))

    def test_order_is_product(self):
        assert GroupSpec((4, 5, 6)).order == 120

    def test_cyclic_means_single_factor(self):
        assert GroupSpec((6,)).is_cyclic
        assert not GroupSpec((2, 3)).is_cyclic


class TestAdd:
    def test_mod_reduction(self):
        spec = GroupSpec((4,))
        assert add(spec.element(3), spec.element(2)) == spec.element(1)

    def test_coordinatewise(self):
        spec = GroupSpec((2, 2))
        assert spec.element((1, 0)) + spec.element((1, 1)) == spec.element((0, 1))

    def test_zero_is_identity(self):
        spec = GroupSpec((3, 5))
        g = spec.element((2, 4))
        assert g + spec.zero() == g

    def test_mismatched_specs_rejected(self):
        with pytest.raises(UsageError):
            add(GroupSpec((4,)).element(1), GroupSpec((5,)).element(1))


@st.composite
def spec_and_coords(draw, points=3):
    moduli = tuple(draw(st.lists(st.integers(2, 9), min_size=1, max_size=3)))
    spec = GroupSpec(moduli)
    pts = tuple(
        spec.element(tuple(draw(st.integers(0, n - 1)) for n in moduli))
        for _ in range(points)
    )
    return spec, pts


class TestGroupLaws:
    @given(spec_and_coords(points=2))
    def test_add_commutes(self, data):
        _, (g, h) = data
        assert g + h == h + g

    @given(spec_and_coords(points=3))
    def test_add_associates(self, data):
        _, (g, h, k) = data
        assert (g + h) + k == g + (h + k)

    @given(spec_and_coords(points=1))
    def test_negation_cancels(self, data):
        spec, (g,) = data
        assert g + (-g) == spec.zero()


class TestScalarMul:
    def test_repeated_addition(self):
        spec = GroupSpec((4,))
        assert scalar_mul(3, spec.element(1)) == spec.element(3)

    def test_negation(self):
        spec = GroupSpec((2, 3))
        assert scalar_mul(-1, spec.element((1, 1))) == spec.element((1, 2))

    def test_zero_scalar(self):
        spec = GroupSpec((5, 7))
        assert scalar_mul(0, spec.element((3, 2))) == spec.zero()

    def test_agrees_with_iterated_add(self):
        # exhaustive: every element of every group of order <= 100 from a
        # representative family, scalars 0..20
        specs = [s for s in factor_sequences(100) if len(s) <= 2][:40]
        specs += [(2, 2, 5), (3, 3, 3), (2, 5, 10)]
        for moduli in specs:
            spec = GroupSpec(moduli)
            for g in all_elements(spec):
                for c in range(21):
                    assert scalar_mul(c, g) == iterated_add(g, c), (moduli, g, c)

    @given(spec_and_coords(points=1), st.integers(-20, 20))
    def test_matches_iteration_signed(self, data, c):
        _, (g,) = data
        assert scalar_mul(c, g) == iterated_add(g, c)


class TestElementOrder:
    def test_generator_of_cyclic(self):
        assert element_order(GroupSpec((6,)).element(1)) == 6

    def test_torsion(self):
        assert element_order(GroupSpec((6,)).element(2)) == 3

    def test_zero(self):
        assert element_order(GroupSpec((6, 4)).zero()) == 1

    def test_divides_group_order(self):
        # every factor shape up to order 200, every element; orders up to
        # 1000 are covered by the sampled sweep below (the fully
        # exhaustive 1000 sweep costs over a minute)
        for moduli in factor_sequences(200):
            spec = GroupSpec(moduli)
            for g in all_elements(spec):
                assert spec.order % element_order(g) == 0

    def test_divides_group_order_large(self):
        for moduli in [(720,), (31, 31), (8, 9, 13), (1000,), (2, 3, 4, 5, 8)]:
            spec = GroupSpec(moduli)
            for g in itertools.islice(all_elements(spec), 0, spec.order, 7):
                assert spec.order % element_order(g) == 0

    def test_matches_iteration(self):
        spec = GroupSpec((4, 6))
        for g in all_elements(spec):
            d = element_order(g)
            assert iterated_add(g, d).is_zero()
            for smaller in range(1, d):
                assert not iterated_add(g, smaller).is_zero()


class TestAllElements:
    def test_cyclic_order(self):
        spec = GroupSpec((3,))
        assert [g.coords for g in all_elements(spec)] == [(0,), (1,), (2,)]

    def test_lexicographic_product(self):
        spec = GroupSpec((2, 2))
        assert [g.coords for g in all_elements(spec)] == [
            (0, 0), (0, 1), (1, 0), (1, 1),
        ]

    def test_emits_order_distinct_elements(self):
        spec = GroupSpec((3, 4, 5))
        seen = set(all_elements(spec))
        assert len(seen) == spec.order

    def test_default_cap_boundary(self):
        spec = GroupSpec((10**6 + 1,))
        with pytest.raises(CapacityError):
            next(all_elements(spec))


class TestIntegerWindow:
    def test_membership_and_size(self):
        w = IntegerWindow(3)
        assert list(w) == [-3, -2, -1, 0, 1, 2, 3]
        assert len(w) == 7
        assert 3 in w and -3 in w and 4 not in w

    @pytest.mark.parametrize("bad", [0, -1])
    def test_bound_must_be_positive(self, bad):
        with pytest.raises(UsageError):
            IntegerWindow(bad)

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**31])
    @pytest.mark.parametrize("bound", [1, 2, 5, 6, 1000, 10**6])
    def test_random_triples_repeat_the_inline_draw(self, bound, seed):
        # the reference draw: n from the window, then m and k from its half,
        # in that order, so seeded checks keep drawing the same triples
        rng = random.Random(seed)
        half = bound // 2
        expected = []
        for _ in range(300):
            n = rng.randint(-bound, bound)
            m = rng.randint(-half, half)
            k = rng.randint(-half, half)
            expected.append((n, m, k))
        window = IntegerWindow(bound)
        assert list(window.random_triples(300, seed)) == expected
        assert all(m + k in window for _, m, k in expected)

    def test_random_triples_count(self):
        assert list(IntegerWindow(4).random_triples(0, 0)) == []
        assert len(list(IntegerWindow(4).random_triples(17, 3))) == 17


class TestCheckedArithmetic:
    def test_capacity_is_all_ones(self):
        # |value| <= INT_CAPACITY iff value.bit_length() <= its bit length,
        # the one test checked and ScaledMult make, only for 2^k - 1
        assert INT_CAPACITY == 2**INT_CAPACITY.bit_length() - 1

    def test_passthrough(self):
        assert checked(INT_CAPACITY) == INT_CAPACITY
        assert checked(-INT_CAPACITY) == -INT_CAPACITY

    @pytest.mark.parametrize("value", [INT_CAPACITY + 1, -(INT_CAPACITY + 1)])
    def test_overflow_raises(self, value):
        with pytest.raises(IntegerOverflowError):
            checked(value)

    def test_no_silent_wraparound(self):
        # 2^63 would wrap to a negative value in fixed-width arithmetic;
        # here it must raise instead.
        with pytest.raises(IntegerOverflowError):
            checked(2**63)

    @pytest.mark.parametrize("value", [2.0, 1.5, "7", None])
    def test_non_int_is_a_usage_error(self, value):
        # named with its context, not an AttributeError from bit_length
        message = f"checked arithmetic needs an int, got {value!r}"
        with pytest.raises(UsageError, match=re.escape(message) + "$"):
            checked(value)
        with pytest.raises(UsageError, match=re.escape(message + " in a sum") + "$"):
            checked(value, "a sum")

    def test_overflow_names_its_context(self):
        message = f"integer {2**63} exceeds the checked capacity {INT_CAPACITY}"
        message += " in a sum"
        with pytest.raises(IntegerOverflowError, match=re.escape(message) + "$"):
            checked(2**63, "a sum")
