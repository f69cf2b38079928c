import itertools
import math
import pickle
import random
import sys
import tracemalloc

import pytest

from ringrigidity import (
    DEFAULT_ELEMENT_CAP,
    CapacityError,
    GroupSpec,
    IntegerOverflowError,
    IntegerWindow,
    InvariantViolation,
    RingStructure,
    ScaledMult,
    SearchConfig,
    StructureConstants,
    UsageError,
    all_elements,
    check_associativity,
    check_commutativity,
    check_distributivity_blackbox,
    cyclic_constants,
    enumerate_multiplications,
    find_unit,
    rigidity_report,
)
from ringrigidity import enumeration, structures
from ringrigidity.abelian import all_coords
from ringrigidity.structures import (
    DISTRIBUTIVITY_SAMPLES,
    ENTRY_BYTES,
    SCREEN_BYTES,
    associative_table,
    associative_triple,
    unit_coords,
)

from conftest import (
    allowed_entries,
    factor_sequences,
    full_mult_table,
    iterated_add,
    naive_eval,
    random_constants,
)


def klein_field_constants() -> StructureConstants:
    # the four-element field on Z/2 x Z/2: e0 acts as 1, e1 as a root of
    # x^2 + x + 1, so e1*e1 = e1 + e0
    spec = GroupSpec((2, 2))
    return StructureConstants(spec, (((1, 0), (0, 1)), ((0, 1), (1, 1))))


class TestEval:
    def test_usual_product_mod_4(self):
        c = cyclic_constants(4, 1)
        spec = c.group
        assert c.eval(spec.element(2), spec.element(3)) == spec.element(2)

    def test_scaled_product_mod_4(self):
        # 2*3*3 = 18 = 2 mod 4; frozen after confirming with the
        # iterated-addition oracle below
        c = cyclic_constants(4, 2)
        spec = c.group
        g = spec.element(3)
        assert c.eval(g, g) == spec.element(2)
        assert naive_eval(c.table, g, g) == spec.element(2)

    def test_zero_absorbs(self):
        c = klein_field_constants()
        spec = c.group
        for h in all_elements(spec):
            assert c.eval(spec.zero(), h) == spec.zero()
            assert c.eval(h, spec.zero()) == spec.zero()

    def test_mismatched_group_rejected(self):
        c = cyclic_constants(4, 1)
        other = GroupSpec((5,))
        with pytest.raises(UsageError):
            c.eval(other.element(1), other.element(2))

    def test_agrees_with_iterated_addition_oracle(self):
        rng = random.Random(11)
        for moduli in [(4,), (2, 2), (2, 4), (3, 3), (6,), (2, 3)]:
            spec = GroupSpec(moduli)
            for _ in range(4):
                c = random_constants(spec, rng)
                for g in all_elements(spec):
                    for h in all_elements(spec):
                        assert c.eval(g, h) == naive_eval(c.table, g, h)


class TestBilinearity:
    @pytest.mark.parametrize(
        "moduli", [(4,), (2, 3), (8,), (2, 2, 2), (3, 3), (12,), (8, 8)]
    )
    def test_exhaustive_small_groups(self, moduli):
        # groups up to order 64, checked over every triple via lookup tables
        spec = GroupSpec(moduli)
        rng = random.Random(spec.order)
        c = random_constants(spec, rng)
        elements = list(all_elements(spec))
        mult = full_mult_table(c)
        add_t = {(g, h): g + h for g in elements for h in elements}
        for g in elements:
            for g2 in elements:
                gg = add_t[(g, g2)]
                for h in elements:
                    assert mult[(gg, h)] == add_t[(mult[(g, h)], mult[(g2, h)])]
                    assert mult[(h, gg)] == add_t[(mult[(h, g)], mult[(h, g2)])]

    def test_sampled_large_group(self):
        spec = GroupSpec((50, 20))  # order 1000
        rng = random.Random(99)
        c = random_constants(spec, rng)

        def rand_el():
            return spec.element(tuple(rng.randrange(n) for n in spec.moduli))

        for _ in range(10_000):
            g, g2, h = rand_el(), rand_el(), rand_el()
            assert c.eval(g + g2, h) == c.eval(g, h) + c.eval(g2, h)
            assert c.eval(h, g + g2) == c.eval(h, g) + c.eval(h, g2)


def full_associativity_scan(constants: StructureConstants) -> bool:
    elements = list(all_elements(constants.group))
    mult = full_mult_table(constants)
    return all(
        mult[(mult[(a, b)], c)] == mult[(a, mult[(b, c)])]
        for a in elements
        for b in elements
        for c in elements
    )


class TestAssociativity:
    @pytest.mark.parametrize("modulus", range(2, 9))
    def test_cyclic_always_associative(self, modulus):
        # both triple products collapse to a*a*n*m*k
        for a in range(modulus):
            c = cyclic_constants(modulus, a)
            assert check_associativity(c)
            assert full_associativity_scan(c)

    def test_field_of_four(self):
        c = klein_field_constants()
        assert check_associativity(c)
        assert full_associativity_scan(c)  # all 64 triples

    def test_zero_table(self):
        spec = GroupSpec((3, 3))
        zero = spec.zero().coords
        c = StructureConstants(spec, ((zero, zero), (zero, zero)))
        assert check_associativity(c)

    def test_generator_check_matches_full_scan(self):
        # on every group shape of order <= 16, the generator-triple check
        # must agree with the full |G|^3 scan
        rng = random.Random(5)
        for moduli in factor_sequences(16):
            spec = GroupSpec(moduli)
            for _ in range(5):
                c = random_constants(spec, rng)
                assert check_associativity(c) == full_associativity_scan(c), (
                    moduli,
                    c.table,
                )


def full_read_triple(moduli, table, i, j, l) -> bool:
    """The triple identity summed over every s, zero coefficients included."""
    return all(
        sum(
            table[i][j][s] * table[s][l][t] - table[j][l][s] * table[i][s][t]
            for s in range(len(moduli))
        )
        % n
        == 0
        for t, n in enumerate(moduli)
    )


def triples(k: int):
    return itertools.product(range(k), repeat=3)


class TestAssociativeTriple:
    SHAPES = [m for m in factor_sequences(16) if len(m) <= 3] + [(4, 6, 9)]

    def test_matches_full_read_formula(self):
        rng = random.Random(23)
        for moduli in self.SHAPES:
            spec = GroupSpec(moduli)
            for _ in range(8):
                table = random_constants(spec, rng).table
                for i, j, l in triples(spec.rank):
                    assert associative_triple(moduli, table, i, j, l) == (
                        full_read_triple(moduli, table, i, j, l)
                    ), (moduli, table, (i, j, l))

    def test_reads_only_the_support(self):
        # every cell outside (i, j), (j, l), (s, l) for s in the support of
        # C[i][j] and (i, s) for s in the support of C[j][l] is None
        rng = random.Random(29)
        for moduli in self.SHAPES:
            spec = GroupSpec(moduli)
            k = spec.rank
            for _ in range(8):
                table = random_constants(spec, rng).table
                for i, j, l in triples(k):
                    read = {(i, j), (j, l)}
                    read |= {(s, l) for s, a in enumerate(table[i][j]) if a}
                    read |= {(i, s) for s, b in enumerate(table[j][l]) if b}
                    sparse = [
                        [table[a][b] if (a, b) in read else None for b in range(k)]
                        for a in range(k)
                    ]
                    assert associative_triple(moduli, sparse, i, j, l) == (
                        full_read_triple(moduli, table, i, j, l)
                    )

    def test_decided_while_row_one_is_unknown(self):
        # on Z/2 x Z/2, triple (0, 0, 1) reads cell (s, 1) where C[0][0]_s != 0
        # and cell (0, s) where C[0][1]_s != 0; with C[0][0] zero or e_0,
        # every cell it reads lies in row 0
        unknown = [None, None]
        assert not associative_triple((2, 2), [[(0, 0), (0, 1)], unknown], 0, 0, 1)
        assert associative_triple((2, 2), [[(1, 0), (1, 0)], unknown], 0, 0, 1)


class TestCommutativity:
    def test_cyclic_tables_commute(self):
        assert check_commutativity(cyclic_constants(7, 3))

    def test_asymmetric_table(self):
        spec = GroupSpec((2, 2))
        c = StructureConstants(spec, (((0, 0), (1, 0)), ((0, 0), (0, 0))))
        assert not check_commutativity(c)

    def test_zero_table(self):
        spec = GroupSpec((2, 2))
        zero = spec.zero().coords
        assert check_commutativity(StructureConstants(spec, ((zero, zero), (zero, zero))))

    def test_matches_full_pair_scan(self):
        rng = random.Random(17)
        for moduli in [(2, 2), (2, 4), (3, 3), (2, 2, 2), (6,)]:
            spec = GroupSpec(moduli)
            elements = list(all_elements(spec))
            for _ in range(6):
                c = random_constants(spec, rng)
                full = all(
                    c.eval(g, h) == c.eval(h, g)
                    for g in elements
                    for h in elements
                )
                assert check_commutativity(c) == full


class TestFindUnit:
    def test_usual_ring_mod_4(self):
        c = cyclic_constants(4, 1)
        assert find_unit(c) == c.group.element(1)

    def test_doubling_mod_4_has_none(self):
        # 2*u = 1 mod 4 has no solution
        assert find_unit(cyclic_constants(4, 2)) is None

    def test_scaled_by_two_mod_5(self):
        # 2*3 = 6 = 1 mod 5
        c = cyclic_constants(5, 2)
        assert find_unit(c) == c.group.element(3)

    def test_returned_unit_passes_full_verification(self):
        for modulus, scale in [(4, 1), (5, 2), (9, 4), (6, 5)]:
            c = cyclic_constants(modulus, scale)
            u = find_unit(c)
            assert u is not None
            for g in all_elements(c.group):
                assert c.eval(u, g) == g
                assert c.eval(g, u) == g

    def test_unit_unique_by_exhaustive_scan(self):
        for constants in [cyclic_constants(6, 1), klein_field_constants()]:
            matches = [
                u
                for u in all_elements(constants.group)
                if all(
                    constants.eval(u, g) == g and constants.eval(g, u) == g
                    for g in all_elements(constants.group)
                )
            ]
            assert len(matches) == 1
            assert find_unit(constants) == matches[0]

    def test_klein_field_unit(self):
        c = klein_field_constants()
        assert find_unit(c) == c.group.element((1, 0))

    def test_failed_two_sided_check_raises(self, rotated_column):
        # by bilinearity the screens' survivor is the unit, so a kernel that
        # disagrees with them is a bug, never "no unit"
        with pytest.raises(InvariantViolation, match="not a two-sided unit"):
            find_unit(cyclic_constants(4, 1))
        with pytest.raises(InvariantViolation, match="not a two-sided unit"):
            find_unit(klein_field_constants())
        assert find_unit(cyclic_constants(4, 2)) is None

    @pytest.mark.parametrize(
        "moduli",
        [m for m in factor_sequences(12) if len(m) == 2] + [(2, 2, 2)],
        ids=lambda m: ",".join(map(str, m)),
    )
    def test_census_units_match_two_sided_scan(self, moduli):
        # every ring of the census: the unit is the u with u*x = x = x*u for
        # all x, found by scanning every product
        spec = GroupSpec(moduli)
        elements = list(all_coords(spec))
        for ring in enumerate_multiplications(spec):
            c = ring.mult
            products = {(x, y): c.product(x, y) for x in elements for y in elements}
            units = [
                u
                for u in elements
                if all(products[u, x] == x == products[x, u] for x in elements)
            ]
            assert len(units) <= 1
            assert ring.unit == (spec.element(units[0]) if units else None), c.table


def unital_by_construction(spec: GroupSpec, rng: random.Random) -> StructureConstants:
    """A random table whose row 0 and column 0 make e_0 a two-sided identity.

    Well-defined only when every n_j divides n_0; the other cells are
    random, so the table is mostly not associative.
    """
    table = [list(row) for row in random_constants(spec, rng).table]
    for j, e in enumerate(spec.generators()):
        table[0][j] = table[j][0] = e.coords
    return StructureConstants(spec, table)


class TestUnitOracle:
    """``unit_coords`` against the two-sided identity found by brute force."""

    @pytest.mark.parametrize(
        "moduli",
        [m for m in factor_sequences(16) if len(m) <= 2] + [(3, 9), (2, 2, 2)],
        ids=lambda m: ",".join(map(str, m)),
    )
    def test_every_census_table_and_random_tables(self, moduli):
        # every census table (unital or not), random well-defined tables and,
        # where every n_j divides n_0, random tables with e_0 as identity;
        # the unit is the u with u*x = x = x*u for every x, by naive_eval
        spec = GroupSpec(moduli)
        rng = random.Random(",".join(map(str, moduli)))
        tables = [ring.mult.table for ring in enumerate_multiplications(spec)]
        tables += [random_constants(spec, rng).table for _ in range(20)]
        if all(moduli[0] % n == 0 for n in moduli):
            tables += [unital_by_construction(spec, rng).table for _ in range(10)]
        # rank 1 and coprime Z/a x Z/b have only associative tables
        if spec.rank > 1 and math.gcd(*moduli) > 1:
            assert not all(associative_table(moduli, t) for t in tables)
        elements = list(all_elements(spec))
        for table in tables:
            units = [
                u.coords
                for u in elements
                if all(
                    naive_eval(table, u, x) == x == naive_eval(table, x, u)
                    for x in reversed(elements)  # zero, which always passes, last
                )
            ]
            assert len(units) <= 1
            assert unit_coords(moduli, table) == (units[0] if units else None), table

    def test_cache_bounded(self):
        # tables on Z/16^3 (order 4096) whose first side, row 0 with e_0*u =
        # e_0, differs for each of 3 * 512 tables: the cache keeps its masks
        # of 4096 bits within the bytes 512 of them would take with up to a
        # kilobyte each for their keys, links and dict slots
        moduli = (16, 16, 16)
        zero = (0, 0, 0)
        rows = [(zero,) * 3] * 2
        coefficients = itertools.product(range(16), repeat=3)
        structures._masks.clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for a, b, c in itertools.islice(coefficients, 3 * 512):
                unit_coords(moduli, [((a, 0, 0), (b, 0, 0), (c, 0, 0)), *rows])
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            structures._masks.clear()
        assert held < 512 * (16**3 // 8 + 1024)

    def test_small_masks_bounded_by_their_entries(self):
        # 8000 distinct rows 0 on Z/4^3 (order 64, masks of 8 bytes): only
        # the per-entry charge keeps them under the byte bound
        moduli = (4, 4, 4)
        cells = list(itertools.product(range(4), repeat=3))
        rows = itertools.product(cells, repeat=3)
        tail = [((0, 1, 0), (1, 0, 0), (0, 0, 0)), ((0, 0, 1), (0, 0, 0), (1, 0, 0))]
        structures._masks.clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for row in itertools.islice(rows, 8000):
                unit_coords(moduli, (row, *tail))
            held = tracemalloc.get_traced_memory()[0] - before
            charged = structures._masks.held
            kept = len(structures._masks)
        finally:
            tracemalloc.stop()
            structures._masks.clear()
        assert held < SCREEN_BYTES
        assert charged <= SCREEN_BYTES and kept * ENTRY_BYTES <= SCREEN_BYTES

    def test_masks_drop_oldest_first(self):
        masks = structures._Masks(3 * ENTRY_BYTES + 1)
        for key in range(4):
            assert masks.keep(key, 1) == 1
        assert list(masks) == [1, 2, 3] and masks.held == 3 * ENTRY_BYTES
        # a mask over the whole limit empties the cache, itself included
        assert masks.keep("wide", 1 << 8 * masks.limit) == 1 << 8 * masks.limit
        assert list(masks) == [] and masks.held == 0

    def test_second_census_round_builds_no_mask(self, monkeypatch):
        # the six groups of the census benchmark, twice in one process: the
        # second round finds every side it needs in the cache
        groups = [(2, 2), (2, 4), (2, 6), (3, 3), (3, 9), (4, 4)]
        structures._masks.clear()
        first = [rigidity_report(GroupSpec(m)) for m in groups]
        built = count_built_masks(monkeypatch)
        assert [rigidity_report(GroupSpec(m)) for m in groups] == first
        assert built == []
        structures._masks.clear()

    def test_second_cyclic_pass_builds_no_mask(self, monkeypatch):
        # Z/1000 has a distinct side for each of its 1000 tables, and on a
        # rank-1 group a side is its one screen, kept once
        spec = GroupSpec((1000,))
        parts = enumeration._tables(spec, SearchConfig(), enumeration._cells((1000,)))
        tables = [t for part in parts for t in part]
        assert len(tables) == 1000
        structures._masks.clear()
        first = [unit_coords(spec.moduli, t) for t in tables]
        assert len(structures._masks) == 1000
        built = count_built_masks(monkeypatch)
        assert [unit_coords(spec.moduli, t) for t in tables] == first
        assert built == []
        assert sum(u is not None for u in first) == 400  # phi(1000)
        structures._masks.clear()

    def test_element_cap_before_any_screen(self, monkeypatch):
        spec = GroupSpec((1001, 1000))
        assert spec.order > DEFAULT_ELEMENT_CAP
        zero = (0, 0)
        c = StructureConstants(spec, ((zero, zero), (zero, zero)))
        built = count_built_masks(monkeypatch)
        with pytest.raises(CapacityError):
            find_unit(c)
        assert built == []


def count_built_masks(monkeypatch) -> list:
    """The keys of the masks built from now on: each is kept once built."""
    built = []
    keep = structures._masks.keep

    def counted(key, mask):
        built.append(key)
        return keep(key, mask)

    monkeypatch.setattr(structures._masks, "keep", counted)
    return built


def componentwise_constants(spec: GroupSpec) -> StructureConstants:
    """The product ring Z/n_1 x ... x Z/n_k: e_i e_i = e_i, other products 0."""
    gens = spec.generators()
    k = spec.rank
    return StructureConstants(
        spec,
        tuple(
            tuple((gens[i] if i == j else spec.zero()).coords for j in range(k))
            for i in range(k)
        ),
    )


class TestKernelAgainstIteratedAddition:
    """``product_row``, ``eval`` and ``find_unit`` against ``naive_eval``."""

    @pytest.mark.parametrize(
        "moduli", factor_sequences(12), ids=lambda m: ",".join(map(str, m))
    )
    def test_every_product(self, moduli):
        spec = GroupSpec(moduli)
        rng = random.Random(spec.order * 31 + spec.rank)
        cases = [componentwise_constants(spec)]
        cases += [random_constants(spec, rng) for _ in range(2)]
        elements = list(all_elements(spec))
        for c in cases:
            naive = {
                (g, h): naive_eval(c.table, g, h)
                for g in elements
                for h in elements
            }
            for g in elements:
                assert c.product_row(g.coords) == [
                    naive[(g, h)].coords for h in elements
                ]
                for h in elements:
                    assert c.eval(g, h) == naive[(g, h)]
            units = [
                u
                for u in elements
                if all(
                    naive[(u, g)] == g and naive[(g, u)] == g for g in elements
                )
            ]
            assert find_unit(c) == (units[0] if units else None)
        # the componentwise ring is unital with unit (1, ..., 1)
        assert find_unit(cases[0]) == spec.element((1,) * spec.rank)

    def test_row_reduces_unreduced_input(self):
        # coordinates outside [0, n) act through their residues
        c = cyclic_constants(6, 5)
        assert c.product_row((8,)) == c.product_row((2,))
        assert c.product_row((-1,)) == c.product_row((5,))


class TestCyclicRows:
    """Rows on Z/N from the object's shared residue tuples."""

    @pytest.mark.parametrize("n", [*range(2, 71), 1000])
    def test_rows_and_columns_are_naive(self, n):
        # scales and arguments outside [0, N), negative ones included, act
        # through their residues; gcd(c, N) runs from 1 to N
        values = sorted({-2 * n - 1, -n, -1, 0, 1, 2, n - 1, n, n + 2, 3 * n - 2, 6})
        spec = GroupSpec((n,))
        for scale in values:
            c = cyclic_constants(n, scale)
            for x in values:
                naive = [(scale * x * m % n,) for m in range(n)]
                assert c.product_row((x,)) == naive
                assert c.product_column((x,)) == naive
                # the single products go through the same rank-1 image
                for y in values:
                    expected = (scale * x * y % n,)
                    assert c.product((x,), (y,)) == expected
                    assert c.eval(spec.element(x), spec.element(y)).coords == expected

    def test_each_call_returns_its_own_list(self):
        c = cyclic_constants(12, 5)
        first, second = c.product_row((2,)), c.product_row((2,))
        assert first is not second and first == second
        first[3] = (7,)
        first.append((0,))
        assert c.product_row((2,)) == second == [(10 * m % 12,) for m in range(12)]
        column = c.product_column((2,))
        assert column is not c.product_column((2,)) and column == second

    def test_residues_kept_are_one_row(self):
        # the object keeps the n tuples of one row, built by the first row,
        # shared by the later ones and referenced by nothing else
        n = 100_000
        c = cyclic_constants(n, 3)
        assert c._residues is None
        rows = [c.product_row((x,)) for x in (1, 7, -2, n + 5, 0)]
        rows.append(c.product_column((11,)))
        residues = c._residues
        assert len(residues) == n
        kept = set(map(id, residues))
        assert all(id(t) in kept for row in rows for t in row)
        assert cyclic_constants(n, 3)._residues is None
        del c, rows
        assert sys.getrefcount(residues) == 2  # this name and the call's argument

    def test_residues_are_not_part_of_the_value(self):
        c = cyclic_constants(6, 5)
        shown = repr(c)
        c.product_row((1,))
        assert c._residues is not None
        assert repr(c) == shown and "_residues" not in shown
        back = pickle.loads(pickle.dumps(c))
        assert back == c and back._residues is None
        assert back.product_row((1,)) == c.product_row((1,))


    @pytest.mark.parametrize("n", [2, 5, 12, 64, 997, 2**40 + 15])
    def test_rank_one_product_is_the_general_formula(self, n):
        # x*y = sum_j y_j (x*e_j) with x*e_j = sum_i x_i C[i][j], as every
        # larger rank computes it, on random scales and arguments
        rng = random.Random(n)
        for _ in range(200):
            c = cyclic_constants(n, rng.randrange(-2 * n, 2 * n))
            x, y = (rng.randrange(-3 * n, 3 * n),), (rng.randrange(-3 * n, 3 * n),)
            (image,) = c._images(y, [c._images(x, zip(*c.table))])
            assert c.product(x, y) == (image[0] % n,)


class TestCoordinateLength:
    """Tuples whose length is not the group's rank are refused, not truncated."""

    def test_klein_product_refuses_a_short_left_factor(self):
        c = StructureConstants(GroupSpec((2, 2)), (((1, 0), (0, 0)), ((0, 0), (0, 1))))
        assert c.product((1, 0), (1, 1)) == (1, 0)
        with pytest.raises(UsageError, match="rank 2"):
            c.product((1,), (1, 1))
        with pytest.raises(UsageError, match="rank 2"):
            c.product((1, 0), (1, 1, 0))

    def test_cyclic_product_refuses_a_long_left_factor(self):
        c = cyclic_constants(5, 1)
        assert c.product((1,), (2,)) == (2,)
        with pytest.raises(UsageError, match="rank 1"):
            c.product((1, 3), (2,))
        with pytest.raises(UsageError, match="rank 1"):
            c.product((1,), ())

    @pytest.mark.parametrize("moduli", [(5,), (2, 2), (2, 3, 4)])
    def test_rows_and_columns_refuse_other_lengths(self, moduli):
        c = componentwise_constants(GroupSpec(moduli))
        for length in {0, len(moduli) - 1, len(moduli) + 1} - {len(moduli)}:
            coords = (1,) * length
            with pytest.raises(UsageError, match=f"rank {len(moduli)}"):
                c.product_row(coords)
            with pytest.raises(UsageError, match=f"rank {len(moduli)}"):
                c.product_column(coords)


class TestWellDefinedness:
    def test_violating_table_rejected(self):
        spec = GroupSpec((2, 4))
        bad = (0, 1)  # order 4, every cell bound is gcd <= 2 for row 0
        good = (0, 0)
        with pytest.raises(UsageError):
            StructureConstants(spec, ((bad, good), (good, good)))

    def test_takes_reduced_coordinates(self):
        # bare residues stand for rank-1 coordinates; entries are reduced
        assert StructureConstants(GroupSpec((6,)), ((8,),)).table == (((2,),),)
        assert StructureConstants(GroupSpec((6,)), (((-1,),),)).table == (((5,),),)
        with pytest.raises(UsageError, match="coordinates per entry"):
            StructureConstants(GroupSpec((2, 2)), ((1, 0), (0, 1)))

    def test_rejection_message_names_cell(self):
        spec = GroupSpec((2, 4))
        bad = (0, 1)
        zero = (0, 0)
        with pytest.raises(UsageError, match=r"\[0\]\[1\]"):
            StructureConstants(spec, ((zero, bad), (zero, zero)))

    def test_rejected_tables_genuinely_ill_defined(self):
        # negative-case oracle: for any rejected table, shifting one
        # generator representative by its modulus changes the
        # iterated-addition expansion of some product
        rng = random.Random(23)
        specs = [
            GroupSpec(m)
            for m in factor_sequences(36)
            if len(m) >= 2 and len(set(m)) > 1
        ]
        tested = 0
        for spec in specs[:12]:
            k = spec.rank
            elements = list(all_elements(spec))
            for _ in range(8):
                table = [
                    [rng.choice(elements) for _ in range(k)] for _ in range(k)
                ]
                legal = all(
                    e in allowed_entries(spec, i, j)
                    for i, row in enumerate(table)
                    for j, e in enumerate(row)
                )
                if legal:
                    continue
                with pytest.raises(UsageError):
                    StructureConstants(
                        spec, tuple(tuple(e.coords for e in r) for r in table)
                    )
                assert self._expansions_disagree(spec, table)
                tested += 1
        assert tested >= 10

    @staticmethod
    def _expansions_disagree(spec, table) -> bool:
        k = spec.rank
        for i in range(k):
            for j in range(k):
                base = iterated_add(table[i][j], 1 * 1)
                # representative of e_i shifted by n_i: coefficient 1 + n_i
                shifted = iterated_add(table[i][j], (1 + spec.moduli[i]) * 1)
                if base != shifted:
                    return True
                shifted = iterated_add(table[i][j], 1 * (1 + spec.moduli[j]))
                if base != shifted:
                    return True
        return False


class TestRingStructure:
    def test_flags_recomputed(self):
        ring = RingStructure.from_constants(klein_field_constants())
        assert check_associativity(ring.mult)
        assert ring.commutative
        assert ring.unit == ring.group.element((1, 0))

    def test_flags_for_zero_scale(self):
        ring = RingStructure.from_constants(cyclic_constants(5, 0))
        assert check_associativity(ring.mult)
        assert ring.commutative and ring.unit is None

    def test_non_associative_table_refused(self):
        # e_0 e_0 = e_1 and e_1 e_1 = e_0: (e_0 e_0) e_1 = e_0 but
        # e_0 (e_0 e_1) = 0
        constants = StructureConstants(
            GroupSpec((2, 2)), (((0, 1), (0, 0)), ((0, 0), (1, 0)))
        )
        mult = full_mult_table(constants)
        elements = list(all_elements(constants.group))
        assert any(
            mult[(mult[(a, b)], c)] != mult[(a, mult[(b, c)])]
            for a in elements
            for b in elements
            for c in elements
        )
        with pytest.raises(UsageError, match="associative"):
            RingStructure(constants)

    def test_flags_are_not_arguments(self):
        with pytest.raises(TypeError):
            RingStructure(mult=cyclic_constants(4, 1), commutative=True)


class TestBlackboxDistributivity:
    def test_ordinary_multiplication(self):
        report = check_distributivity_blackbox(
            lambda n, m: n * m, IntegerWindow(100)
        )
        assert report.ok and report.counterexample is None

    def test_shifted_product_fails(self):
        report = check_distributivity_blackbox(
            lambda n, m: n * m + 1, IntegerWindow(100)
        )
        assert not report.ok
        ce = report.counterexample
        # recompute both sides of the reported violation
        mul = lambda n, m: n * m + 1  # noqa: E731
        if ce.side == "left":
            assert mul(ce.n, ce.m + ce.k) == ce.lhs
            assert mul(ce.n, ce.m) + mul(ce.n, ce.k) == ce.rhs
        else:
            assert mul(ce.m + ce.k, ce.n) == ce.lhs
            assert mul(ce.m, ce.n) + mul(ce.k, ce.n) == ce.rhs
        assert ce.lhs != ce.rhs

    def test_negated_product_distributes(self):
        report = check_distributivity_blackbox(
            lambda n, m: -(n * m), IntegerWindow(100)
        )
        assert report.ok

    def test_small_triples_always_covered(self):
        # small violations are found by the exhaustive phase, before any
        # random sample: |n|, |m|, |k| <= 3 with |m + k| <= 5 at bound 5
        report = check_distributivity_blackbox(
            lambda n, m: n * m + 1, IntegerWindow(5)
        )
        assert not report.ok
        assert report.checked <= 7 * (7 * 7 - 2)

    @pytest.mark.parametrize(
        "bound,count",
        [(1, 3 * 7), (2, 5 * 19), (3, 7 * 37), (4, 7 * 43 + DISTRIBUTIVITY_SAMPLES)],
    )
    def test_random_phase_only_above_bound_3(self, bound, count):
        # up to bound 3 the exhaustive phase is every in-window triple,
        # (2b + 1) values of n times the (m, k) with m + k in the window
        report = check_distributivity_blackbox(ScaledMult(3), IntegerWindow(bound))
        assert report.ok and report.checked == count

    def test_overflow_identifies_triple(self):
        def huge(n, m):
            from ringrigidity import checked

            return checked(n * m * 10**18)

        with pytest.raises(IntegerOverflowError, match=r"n=.*m=.*k="):
            check_distributivity_blackbox(huge, IntegerWindow(10**4))
