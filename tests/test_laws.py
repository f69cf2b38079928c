"""Closed-form census counts across primes, compared with ``rigidity_report``.

Each law maps a prime p to the census (total, commutative, unital) of one
family of groups. The CI step "Closed-form census laws" checks the same
functions on larger primes in fresh processes.
"""

import functools
import itertools
import math

import pytest

from ringrigidity import GroupSpec, rigidity_report


@functools.lru_cache(maxsize=None)
def census(*moduli):
    report = rigidity_report(GroupSpec(moduli))
    return report.total, report.commutative_count, report.unital_count


def square_law(p):
    """(Z/p)^2, derived from Fine's 8 rings of order p^2 ("Classification of
    finite rings of order p^2", Math. Mag. 66 (1993)): each ring gives
    |GL_2(F_p)| / |Aut| tables, and the orbits sum to these counts."""
    return p**4 + p**3 + 2 * p**2 - p - 2, p**4 + p**3 - p, p**4 - p**2


def mixed_law(p):
    """Z/p x Z/p^2, fitted to the census at p = 2, 3 and 5, not derived."""
    return p**5 + 2 * p**4 + p**3 - 3 * p**2, p**5 + p**4 - p**2, (p - 1) * p**4


def unital_cube_law(p):
    """The unital count of (Z/p)^3, derived from the seven unital algebras of
    dimension 3 over F_p and their automorphism groups."""
    return (p**3 - 1) * p**2 * (p**4 + p**2 - 1)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_square_law(p):
    assert census(p, p) == square_law(p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_mixed_law(p):
    assert census(p, p * p) == mixed_law(p)


def test_unital_cube_law():
    assert census(2, 2, 2)[2] == unital_cube_law(2) == 532


def test_laws_at_the_primes_ci_checks():
    # the figures the fresh-process CI step reads from the census
    assert square_law(11) == (16_201, 15_961, 14_520)
    assert square_law(13) == (31_081, 30_745, 28_392)
    assert mixed_law(7) == (21_805, 19_159, 14_406)


def maximal_order_elements(moduli):
    """The elements whose additive order is the exponent lcm(moduli), the
    additive order of any unit."""
    exponent = math.lcm(*moduli)
    return sum(
        math.lcm(*(n // math.gcd(n, x) for x, n in zip(coords, moduli))) == exponent
        for coords in itertools.product(*map(range, moduli))
    )


@pytest.mark.parametrize(
    "moduli,per_unit",
    [((12,), 1), ((30,), 1), ((2, 2), 4), ((3, 3), 9), ((5, 5), 25), ((2, 2, 2), 76)],
)
def test_unital_tables_per_unit(moduli, per_unit):
    # Z/N has one unital table per unit ("nearly rigid"); (Z/p)^2 has p^2,
    # the rings F_p[x]/(x^2 - bx - a); (Z/p)^3 has p^2 (p^4 + p^2 - 1)
    assert census(*moduli)[2] == per_unit * maximal_order_elements(moduli)
