"""Finite abelian groups as explicit products of cyclic factors.

A group is given by its factor moduli ``(n_1, ..., n_k)`` and carries
elements as residue vectors. Z/2 x Z/3 and Z/6 are deliberately distinct
specs: no Smith-normal-form canonicalization is performed, which keeps the
element representation transparent.

The module also provides ``IntegerWindow``, a bounded symmetric slice of
the integers used to machine-check statements about (Z, +) at desk scale
(its ``random_triples`` feeds every sampled window check), together with
capacity-checked integer arithmetic. All arithmetic is exact;
a value that leaves the fixed-width representation range raises
``IntegerOverflowError`` instead of wrapping around.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterator

from .errors import CapacityError, IntegerOverflowError, UsageError

# Signed 64-bit range, the representation the checked arithmetic emulates.
INT_CAPACITY = 2**63 - 1
# INT_CAPACITY is 2^k - 1, so |value| <= INT_CAPACITY iff value has at most
# k bits: one bit-length test replaces two range comparisons
_CAPACITY_BITS = INT_CAPACITY.bit_length()

DEFAULT_ELEMENT_CAP = 10**6


def checked(value: int, context: str = "") -> int:
    """Return the int *value* unchanged, or raise if it left the representable
    range; a value with no ``bit_length``, such as a float, is a usage error."""
    try:
        if value.bit_length() <= _CAPACITY_BITS:
            return value
        error = IntegerOverflowError
        problem = f"integer {value} exceeds the checked capacity {INT_CAPACITY}"
    except AttributeError:
        error, problem = UsageError, f"checked arithmetic needs an int, got {value!r}"
    raise error(problem + (f" in {context}" if context else ""))


class Frozen:
    """An immutable value, shown and pickled by its slots and compared, in
    its class only, and hashed by those its ``__init__`` takes, which
    determine the rest. A slot named ``_...`` is a cache those determine
    too: it is not shown, and it pickles as None, its unbuilt state. It
    replaces ``@dataclass(frozen=True)``, whose import (``inspect`` too)
    and class builds took a third of the CLI's start."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        init = cls.__init__.__code__
        cls._key = operator.attrgetter(*init.co_varnames[1 : init.co_argcount])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self.__slots__ if f[0] != "_"
        )
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: {name!r}")

    __delattr__ = __setattr__

    def __getstate__(self) -> list:
        return [None if f[0] == "_" else getattr(self, f) for f in self.__slots__]

    def __setstate__(self, state: list) -> None:
        for f, value in zip(self.__slots__, state):
            object.__setattr__(self, f, value)


class GroupSpec(Frozen):
    """Z/n_1 x ... x Z/n_k, each factor modulus n_i >= 2; ``order`` is prod n_i."""

    __slots__ = ("moduli", "order")

    def __init__(self, moduli: tuple[int, ...]) -> None:
        if not moduli:
            raise UsageError("a group spec needs at least one factor")
        for n in moduli:
            if not isinstance(n, int) or n < 2:
                raise UsageError(f"modulus must be >= 2, got {n!r}")
        order = math.prod(moduli)
        checked(order, "group order")
        object.__setattr__(self, "moduli", tuple(moduli))
        object.__setattr__(self, "order", order)

    @classmethod
    def parse(cls, text: str) -> GroupSpec:
        """Parse a comma-separated modulus list such as ``"4"`` or ``"2,2,3"``."""
        parts = [p.strip() for p in text.split(",")]
        try:
            moduli = tuple(int(p) for p in parts if p != "")
        except ValueError:
            raise UsageError(f"cannot parse group spec {text!r}") from None
        if len(moduli) != len(parts):
            raise UsageError(f"cannot parse group spec {text!r}")
        return cls(moduli)

    @property
    def rank(self) -> int:
        return len(self.moduli)

    @property
    def is_cyclic(self) -> bool:
        """True for single-factor specs. Z/2 x Z/3 counts as two factors."""
        return len(self.moduli) == 1

    def element(self, coords) -> GroupElement:
        """Build an element, reducing each coordinate modulo its factor."""
        if isinstance(coords, int):
            coords = (coords,)
        return GroupElement(self, tuple(coords))

    def zero(self) -> GroupElement:
        return GroupElement(self, (0,) * len(self.moduli))

    def generators(self) -> tuple[GroupElement, ...]:
        """The standard generators e_1, ..., e_k."""
        k = len(self.moduli)
        return tuple(
            GroupElement(self, tuple(1 if j == i else 0 for j in range(k)))
            for i in range(k)
        )

    def __str__(self) -> str:
        return " x ".join(f"Z/{n}" for n in self.moduli)


class GroupElement(Frozen):
    """A residue vector in its owning group spec."""

    __slots__ = ("group", "coords")

    def __init__(self, group: GroupSpec, coords: tuple[int, ...]) -> None:
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coords", coords)
        self.__post_init__()  # the construction hook, patched to count elements

    def __post_init__(self) -> None:
        moduli = self.group.moduli
        if len(self.coords) != len(moduli):
            raise UsageError(
                f"element has {len(self.coords)} coordinates, "
                f"group {self.group} has {len(moduli)} factors"
            )
        object.__setattr__(
            self, "coords", tuple(map(operator.mod, self.coords, moduli))
        )

    def __add__(self, other: GroupElement) -> GroupElement:
        return add(self, other)

    def __neg__(self) -> GroupElement:
        return scalar_mul(-1, self)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"


def _same_group(g: GroupElement, h: GroupElement, op: str) -> None:
    if g.group != h.group:
        raise UsageError(f"{op}: elements of {g.group} and {h.group} do not mix")


def add(g: GroupElement, h: GroupElement) -> GroupElement:
    """Coordinatewise sum modulo each factor."""
    _same_group(g, h, "add")
    return GroupElement(
        g.group, tuple(a + b for a, b in zip(g.coords, h.coords))
    )


def scalar_mul(c: int, g: GroupElement) -> GroupElement:
    """The c-fold sum of g (inverse-sum for negative c).

    Computed by modular multiplication per coordinate, which agrees with
    iterated addition; the test suite pins that agreement down.
    """
    return GroupElement(g.group, tuple(c * x for x in g.coords))


def element_order(g: GroupElement) -> int:
    """Least d >= 1 with d*g = 0; always divides the group order.

    Computed exactly from the coordinate orders: the order of residue x in
    Z/n is n / gcd(x, n), and the order of a vector is the lcm over factors.
    """
    return math.lcm(
        *(n // math.gcd(x, n) for x, n in zip(g.coords, g.group.moduli))
    )


def all_coords(spec: GroupSpec) -> Iterator[tuple[int, ...]]:
    """Every reduced coordinate vector exactly once, in lexicographic order."""
    if spec.order > DEFAULT_ELEMENT_CAP:
        raise CapacityError(
            f"group order {spec.order} exceeds the enumeration cap "
            f"{DEFAULT_ELEMENT_CAP}"
        )
    return itertools.product(*(range(n) for n in spec.moduli))


def all_elements(spec: GroupSpec) -> Iterator[GroupElement]:
    """Every element exactly once, in lexicographic coordinate order."""
    for coords in all_coords(spec):
        yield GroupElement(spec, coords)


class IntegerWindow(Frozen):
    """The symmetric slice {-bound, ..., bound} of the integers."""

    __slots__ = ("bound",)

    def __init__(self, bound: int) -> None:
        if not isinstance(bound, int) or bound < 1:
            raise UsageError(f"window bound must be a positive integer, got {bound!r}")
        object.__setattr__(self, "bound", bound)

    def __contains__(self, n: int) -> bool:
        return -self.bound <= n <= self.bound

    def __iter__(self) -> Iterator[int]:
        return iter(range(-self.bound, self.bound + 1))

    def __len__(self) -> int:
        return 2 * self.bound + 1

    def random_triples(self, count: int, seed: int) -> Iterator[tuple[int, int, int]]:
        """Seeded (n, m, k): n in the window, m and k in its half, so m + k too.

        Each draw is ``randint(-b, b)``'s own: ``getrandbits`` of the bit
        length of 2b + 1, redrawn while it is not below 2b + 1, minus b.
        """
        import random  # so that a census never loads it

        bits, b, h = random.Random(seed).getrandbits, self.bound, self.bound // 2
        width, half = 2 * b + 1, 2 * h + 1
        width_bits, half_bits = width.bit_length(), half.bit_length()
        for _ in range(count):
            n, m, k = width, half, half
            while n >= width:
                n = bits(width_bits)
            while m >= half:
                m = bits(half_bits)
            while k >= half:
                k = bits(half_bits)
            yield n - b, m - h, k - h
