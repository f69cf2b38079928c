"""Shared helpers: independent oracles and small-group generators.

The oracles here deliberately avoid the library's own shortcuts: repeated
addition instead of modular scalar multiplication, full element scans
instead of generator checks. Tests compare the fast path against these.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest

from ringrigidity import GroupElement, GroupSpec, StructureConstants, all_elements
from ringrigidity import scaled
from ringrigidity.structures import associative_table

# the census of 2,2 visits exactly this many search nodes (cell values
# tried), the library stream as the CLI
KLEIN_NODES = 77


def iterated_add(g: GroupElement, count: int) -> GroupElement:
    """count-fold sum of g using only the group addition."""
    acc = g.group.zero()
    step = g if count >= 0 else -g
    for _ in range(abs(count)):
        acc = acc + step
    return acc


def naive_eval(
    table, g: GroupElement, h: GroupElement
) -> GroupElement:
    """Bilinear product computed purely by iterated addition.

    `table` is a k x k grid of coordinate tuples; the coordinates of g and
    h are used as plain repetition counts.
    """
    acc = g.group.zero()
    for i, gi in enumerate(g.coords):
        for j, hj in enumerate(h.coords):
            acc = acc + iterated_add(g.group.element(table[i][j]), gi * hj)
    return acc


def factor_sequences(max_order: int) -> list[tuple[int, ...]]:
    """Every ordered factor list (entries >= 2) with product <= max_order."""
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], product: int) -> None:
        if prefix:
            out.append(prefix)
        f = 2
        while product * f <= max_order:
            extend(prefix + (f,), product * f)
            f += 1

    extend((), 1)
    return sorted(out)


def allowed_entries(spec: GroupSpec, i: int, j: int) -> list[GroupElement]:
    """Elements usable at table cell (i, j): order divides gcd(n_i, n_j)."""
    d = math.gcd(spec.moduli[i], spec.moduli[j])
    return [g for g in all_elements(spec) if iterated_add(g, d).is_zero()]


def object_path_census(spec: GroupSpec) -> list:
    """Associative tables in row-major order, decided on full product tables.

    Walks every well-defined table over ``allowed_entries`` and keeps those
    whose |G|^2 products, built with ``naive_eval``, are associative on all
    |G|^3 triples. Returns coordinate tables, the census's emission format.
    """
    k = spec.rank
    elements = list(all_elements(spec))
    cells = [allowed_entries(spec, i, j) for i in range(k) for j in range(k)]
    found = []
    for flat in itertools.product(*cells):
        table = tuple(
            tuple(e.coords for e in flat[i * k : (i + 1) * k]) for i in range(k)
        )
        mult = {(g, h): naive_eval(table, g, h) for g in elements for h in elements}
        if all(
            mult[(mult[(a, b)], c)] == mult[(a, mult[(b, c)])]
            for a in elements
            for b in elements
            for c in elements
        ):
            found.append(table)
    return found


def exhaustive_census(spec: GroupSpec) -> list:
    """Associative tables in row-major order, over the whole candidate product.

    Walks every well-defined table, with no pruning and no partition, and
    keeps those that pass ``associative_table``. Returns coordinate tables,
    the census's emission format.
    """
    k, moduli = spec.rank, spec.moduli
    cells = [
        list(itertools.product(*(range(0, n, n // math.gcd(n, a, b)) for n in moduli)))
        for a in moduli
        for b in moduli
    ]
    found = []
    for flat in itertools.product(*cells):
        table = tuple(flat[i * k : (i + 1) * k] for i in range(k))
        if associative_table(moduli, table):
            found.append(table)
    return found


def random_constants(spec: GroupSpec, rng: random.Random) -> StructureConstants:
    """A uniformly random well-defined structure-constant table."""
    k = spec.rank
    table = tuple(
        tuple(rng.choice(allowed_entries(spec, i, j)).coords for j in range(k))
        for i in range(k)
    )
    return StructureConstants(spec, table)


def pm1_violation_by_eval(ring):
    """First (a, u) with a*u = 1 beyond (1, 1) and (-1, -1), scanning ``eval``."""
    one = ring.unit
    minus_one = -one
    for a in all_elements(ring.group):
        for u in all_elements(ring.group):
            if ring.mult.eval(a, u) == one and (a, u) not in [
                (one, one), (minus_one, minus_one)
            ]:
                return (a, u)
    return None


def full_mult_table(constants: StructureConstants) -> dict:
    """Precomputed products over all element pairs, for fast exhaustive scans."""
    elements = list(all_elements(constants.group))
    return {(g, h): constants.eval(g, h) for g in elements for h in elements}


def _shift_product(monkeypatch, scale: int, x: int) -> None:
    """Make row x of the Z/6 ring of ``scale`` read one more at entry 3."""
    original = StructureConstants.product_row

    def shifted(self, y):
        row = original(self, y)
        if (
            self.group.moduli == (6,)
            and self.table[0][0] == (scale,)
            and tuple(y) == (x,)
        ):
            row[3] = ((row[3][0] + 1) % 6,)
        return row

    monkeypatch.setattr(StructureConstants, "product_row", shifted)


@pytest.fixture
def shifted_product(monkeypatch):
    """Break the scaled form on Z/6 at scale 1: the product 2*3 reads 1, not 0.

    The product sits at row 2, entry 3 of ``product_row``. The associativity
    and unit checks never read that row, so the ring still reaches the
    scaled-form check, which must catch it.
    """
    _shift_product(monkeypatch, 1, 2)


@pytest.fixture
def shifted_reused_row(monkeypatch):
    """Break the scaled form on Z/6 at scale 5: the product 2*3 reads 1, not 0.

    Row 2 of scale 5 is the closed row of 5*2 = 4 (mod 6), which the rings of
    scales 2 and 4 have already been compared with, so a check that reused
    an earlier comparison would miss it. The unit check reads only row 5.
    """
    _shift_product(monkeypatch, 5, 2)


@pytest.fixture
def element_count(monkeypatch):
    """A one-item list counting ``GroupElement`` constructions from now on."""
    count = [0]
    original = GroupElement.__post_init__

    def counted(self):
        count[0] += 1
        original(self)

    monkeypatch.setattr(GroupElement, "__post_init__", counted)
    return count


@pytest.fixture
def unit_at_every_scale(monkeypatch):
    """Make every scaled ring report a unit, so scale 0 breaks the +-1 rule."""
    monkeypatch.setattr(scaled, "find_unit", lambda constants: constants.group.zero())


@pytest.fixture
def rotated_column(monkeypatch):
    """Rotate every ``product_column`` by one entry, so the unit screens'
    survivor fails ``find_unit``'s two-sided check; tables without a unit
    never reach the check."""
    original = StructureConstants.product_column

    def rotated(self, y):
        column = original(self, y)
        return column[1:] + column[:1]

    monkeypatch.setattr(StructureConstants, "product_column", rotated)
