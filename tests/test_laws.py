"""Closed-form census counts across primes, compared with ``rigidity_report``.

Each law maps a prime p to the census (total, commutative, unital) of one
family of groups. The CI step "Closed-form census laws" checks the same
functions on larger primes in fresh processes.
"""

import functools
import itertools
import math

import pytest

from ringrigidity import GroupSpec, SearchConfig, rigidity_report
from ringrigidity import enumeration
from ringrigidity.structures import unit_coords


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


# rank-2 groups past (Z/p)^2, with and without a common prime
RANK_TWO = [
    (2, 4), (4, 2), (2, 6), (3, 6), (4, 6), (6, 4), (2, 8), (3, 9), (4, 4),
    (6, 9), (3, 12), (4, 8), (6, 2), (8, 2), (2, 3), (4, 9),
]


@pytest.mark.parametrize(
    "moduli,per_unit",
    [((12,), 1), ((30,), 1), ((2, 2), 4), ((3, 3), 9), ((5, 5), 25), ((2, 2, 2), 76)]
    + [(moduli, math.gcd(*moduli) ** 2) for moduli in RANK_TWO],
)
def test_unital_tables_per_unit(moduli, per_unit):
    # Z/N has one unital table per unit ("nearly rigid"); (Z/p)^3 has
    # p^2 (p^4 + p^2 - 1). A rank-2 group has gcd(n_1, n_2)^2, (Z/p)^2 the
    # p^2 rings F_p[x]/(x^2 - bx - a): a unit u has the maximal order d_2,
    # so Z/d_2 u is a direct summand (Fuchs, "Infinite Abelian Groups" I,
    # 1970), R = Z/d_2 u + Z/d_1 x with d_1 = gcd(n_1, n_2), and
    # x^2 = a u + b x takes d_1 values of a (d_1 a = 0) and d_1 of b
    assert census(*moduli)[2] == per_unit * maximal_order_elements(moduli)


@pytest.mark.parametrize("moduli", RANK_TWO, ids=lambda m: ",".join(map(str, m)))
def test_unital_rank_two_tables_commute(moduli):
    # R = Z/d_2 u + Z/d_1 x is generated by u and x, which commute, so
    # every unital kept table is its own transpose
    cells = enumeration._cells(moduli)
    parts = enumeration._tables(GroupSpec(moduli), SearchConfig(), cells)
    unital = [t for part in parts for t in part if unit_coords(moduli, t) is not None]
    assert unital
    assert all(t == tuple(zip(*t)) for t in unital)
