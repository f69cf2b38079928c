"""The contract of the fourteen value types: immutable, hashable, picklable.

The seven records are ``typing.NamedTuple``s; the seven value types that
validate or derive fields are ``abelian.Frozen`` slots classes. Both kinds
must survive ``pickle`` and ``copy``, refuse assignment, hash equal values
equally and never equal an instance of another class.
"""

import copy
import itertools
import pickle

import pytest

from ringrigidity import (
    GroupSpec,
    IntegerWindow,
    MatrixElement,
    RingStructure,
    ScaledMult,
    SearchConfig,
    check_distributivity_blackbox,
    classify_cyclic,
    cyclic_constants,
    rigidity_report,
    scaled_unit_sweep,
    usual_cyclic_ring,
    verify_scaled_form,
)
from ringrigidity.abelian import Frozen
from ringrigidity.scaled import scaled_identity_suite


def _broken(n: int, m: int) -> int:
    return n * m + 1  # not distributive: n*(m+k) misses one 1


# one fresh instance of each class per call
MAKERS = [
    lambda: GroupSpec((2, 4)),
    lambda: GroupSpec((2, 4)).element((1, 3)),
    lambda: IntegerWindow(5),
    lambda: SearchConfig(workers=2, budget=1000),
    lambda: cyclic_constants(4, 2),
    lambda: RingStructure(cyclic_constants(4, 1)),
    lambda: MatrixElement(5, ((1, 2), (3, 9))),
    lambda: rigidity_report(GroupSpec((2, 2))),
    lambda: classify_cyclic(4)[1],
    lambda: scaled_identity_suite(2, 10, 5),
    lambda: verify_scaled_form(ScaledMult(3), IntegerWindow(4)),
    lambda: scaled_unit_sweep(usual_cyclic_ring(5))[1],
    lambda: check_distributivity_blackbox(_broken, IntegerWindow(3)).counterexample,
    lambda: check_distributivity_blackbox(_broken, IntegerWindow(3)),
]
IDS = [type(make()).__name__ for make in MAKERS]


def fields(value) -> tuple[str, ...]:
    return type(value)._fields if isinstance(value, tuple) else type(value).__slots__


def test_fourteen_classes():
    assert len(set(IDS)) == 14
    assert sum(isinstance(make(), Frozen) for make in MAKERS) == 7
    assert sum(isinstance(make(), tuple) for make in MAKERS) == 7


@pytest.mark.parametrize("make", MAKERS, ids=IDS)
class TestValueContract:
    def test_pickle_round_trip(self, make):
        value = make()
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(value, protocol))
            assert type(back) is type(value) and back == value
            assert [getattr(back, f) for f in fields(value)] == [
                getattr(value, f) for f in fields(value)
            ]

    def test_copy_round_trip(self, make):
        value = make()
        for twin in (copy.copy(value), copy.deepcopy(value)):
            assert type(twin) is type(value) and twin == value
            assert hash(twin) == hash(value)

    def test_fields_refuse_assignment(self, make):
        value = make()
        for name in fields(value):
            before = getattr(value, name)
            with pytest.raises(AttributeError):
                setattr(value, name, before)
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert getattr(value, name) is before
        with pytest.raises(AttributeError):
            value.extra = 1

    def test_equal_values_hash_equal(self, make):
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def test_classes_never_compare_equal():
    values = [make() for make in MAKERS]
    for a, b in itertools.permutations(values, 2):
        assert a != b and not a == b


def test_same_slots_in_another_class_differ():
    # equality checks the class first, so equal slot values are not enough
    element = GroupSpec((2,)).element(1)
    twin = object.__new__(MatrixElement)
    twin.__setstate__([element.group, element.coords])
    assert twin != element and element != twin
    group = "GroupSpec(moduli=(2,), order=2)"
    assert repr(element) == f"GroupElement(group={group}, coords=(1,))"
