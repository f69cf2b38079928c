import itertools
import math
import os
import pickle
import random
import signal
import threading
import time

import pytest

from ringrigidity import (
    CapacityError,
    GroupSpec,
    InvariantViolation,
    RingStructure,
    SearchConfig,
    StructureConstants,
    UsageError,
    check_associativity,
    classify_cyclic,
    cyclic_constants,
    enumerate_multiplications,
    expand_to_full_table,
    full_table_oracle,
    rigidity_report,
    search_space_size,
)
from ringrigidity import enumeration
from ringrigidity.abelian import all_coords
from ringrigidity.structures import associative_triple

from conftest import KLEIN_NODES, exhaustive_census, factor_sequences
from conftest import object_path_census

# the groups whose census plan is checked step by step
SCHEDULE_GROUPS = [m for m in factor_sequences(16) if len(m) <= 3] + [(4, 6, 9)]

# those whose complete census is small enough to compare table by table
SMALL_GROUPS = [m for m in SCHEDULE_GROUPS if math.prod(m) <= 16]


def coords_tables(spec, config=SearchConfig()):
    return [r.mult.table for r in enumerate_multiplications(spec, config)]


class MapPool:
    """A stand-in pool with only ``map``, as perfbench's traced pool has: no
    processes; records its sizes and runs every task of a call at once, as
    a real pool's workers may."""

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        self.mapped.append(len(tasks))
        return [fn(task) for task in tasks]


class SerialPool(MapPool):
    """``MapPool`` with a lazy ``imap``: a task runs when its result is taken."""

    def imap(self, fn, tasks):
        self.mapped.append(len(tasks))
        return map(fn, tasks)


def install_pool(monkeypatch, base):
    """Install a subclass of ``base`` with fresh records; returns it."""
    pool = type("RecordingPool", (base,), {"sizes": [], "mapped": []})
    monkeypatch.setattr(enumeration, "Pool", pool)
    return pool


@pytest.fixture
def serial_pool(monkeypatch):
    return install_pool(monkeypatch, SerialPool)


class TestCyclicCountLaw:
    @pytest.mark.parametrize("modulus", range(2, 17))
    def test_exactly_n_multiplications(self, modulus):
        rings = list(enumerate_multiplications(GroupSpec((modulus,))))
        assert len(rings) == modulus
        scales = sorted(r.mult.table[0][0][0] for r in rings)
        assert scales == list(range(modulus))

    @pytest.mark.parametrize("modulus", range(2, 17))
    def test_all_commutative(self, modulus):
        for ring in enumerate_multiplications(GroupSpec((modulus,))):
            assert ring.commutative
            assert check_associativity(ring.mult)

    def test_associativity_filter_vacuous_on_cyclic(self):
        # every well-defined bilinear table on Z/N is already associative,
        # so the filter removes nothing: candidate space == survivor count
        for modulus in range(2, 13):
            spec = GroupSpec((modulus,))
            assert search_space_size(spec) == modulus
            assert len(list(enumerate_multiplications(spec))) == modulus


class TestClassifyCyclic:
    def test_scales_cover_residues(self):
        entries = classify_cyclic(6)
        assert [e.scale for e in entries] == [0, 1, 2, 3, 4, 5]
        assert sorted(e.scale for e in entries if e.unit is not None) == [1, 5]

    def test_two_element_carrier(self):
        entries = classify_cyclic(2)
        assert [e.scale for e in entries] == [0, 1]
        assert [e.unit is not None for e in entries] == [False, True]

    def test_nine(self):
        entries = classify_cyclic(9)
        assert sorted(e.scale for e in entries if e.unit is not None) == [
            1, 2, 4, 5, 7, 8,
        ]

    def test_units_equal_inverse_of_scale(self):
        for modulus in range(2, 17):
            for e in classify_cyclic(modulus):
                if e.unit is not None:
                    assert (e.scale * e.unit) % modulus == 1 % modulus

    def test_minus_one_flag(self):
        entries = classify_cyclic(5)
        assert [e.scale == 5 - 1 for e in entries] == [
            False, False, False, False, True,
        ]


class TestScaledFormViolation:
    def test_classify_raises(self, shifted_product):
        with pytest.raises(InvariantViolation, match=r"mul\(1,1\) = 1"):
            classify_cyclic(6)

    def test_report_raises(self, shifted_product):
        with pytest.raises(InvariantViolation, match=r"mul\(1,1\) = 1"):
            rigidity_report(GroupSpec((6,)))

    def test_classify_raises_on_a_reused_closed_row(self, shifted_reused_row):
        with pytest.raises(InvariantViolation, match=r"mul\(1,1\) = 5"):
            classify_cyclic(6)

    def test_report_raises_on_a_reused_closed_row(self, shifted_reused_row):
        with pytest.raises(InvariantViolation, match=r"mul\(1,1\) = 5"):
            rigidity_report(GroupSpec((6,)))


class TestUnitalityCensus:
    @pytest.mark.parametrize("modulus", range(2, 17))
    def test_brute_force_count_matches_coprimality(self, modulus):
        # the scan is the verdict; gcd counting is only the cross-check
        report = rigidity_report(GroupSpec((modulus,)))
        coprime = sum(1 for a in range(modulus) if math.gcd(a, modulus) == 1)
        assert report.unital_count == coprime
        assert report.unital_scales == tuple(
            a for a in range(modulus) if math.gcd(a, modulus) == 1
        )

    def test_twelve(self):
        report = rigidity_report(GroupSpec((12,)))
        assert report.total == 12
        assert report.commutative_count == 12
        assert report.unital_count == 4
        assert report.unital_scales == (1, 5, 7, 11)
        assert report.scaled_form_all is True

    def test_two(self):
        report = rigidity_report(GroupSpec((2,)))
        assert report.total == 2  # the zero ring and the usual one
        assert report.unital_count == 1

    def test_degenerate_modulus_rejected(self):
        with pytest.raises(UsageError):
            rigidity_report(GroupSpec((1,)))

    @pytest.mark.parametrize("modulus", [2, 5, 8, 12, 16])
    def test_count_ordering_on_cyclic(self, modulus):
        report = rigidity_report(GroupSpec((modulus,)))
        assert report.unital_count <= report.commutative_count <= report.total


class TestOracleEquivalence:
    @pytest.mark.parametrize("modulus", [2, 3])
    def test_survivors_match_expanded_enumeration(self, modulus):
        oracle = full_table_oracle(modulus)
        expanded = frozenset(
            expand_to_full_table(r.mult)
            for r in enumerate_multiplications(GroupSpec((modulus,)))
        )
        assert oracle == expanded

    def test_two_element_tables(self):
        survivors = full_table_oracle(2)
        assert len(survivors) == 2  # out of 16 raw tables

    def test_three_element_tables(self):
        survivors = full_table_oracle(3)
        assert len(survivors) == 3  # out of 19683 raw tables
        for table in survivors:
            a = table[1][1]
            for n in range(3):
                for f in range(3):
                    assert table[n][f] == (a * n * f) % 3

    @pytest.mark.parametrize("modulus,tables", [(2, 16), (3, 19_683)])
    def test_every_table_is_decided(self, monkeypatch, modulus, tables):
        # N^(N^2) raw tables, each one tested for distributivity
        decided = []
        original = enumeration._table_distributive

        def counted(table, n):
            decided.append(table)
            return original(table, n)

        monkeypatch.setattr(enumeration, "_table_distributive", counted)
        full_table_oracle(modulus)
        assert len(decided) == tables

    @pytest.mark.parametrize("modulus", [2, 3])
    def test_flat_walk_matches_nested_loops(self, modulus):
        def nested(table, n):  # the three nested loops the flat walk replaced
            rng = range(n)
            for a in rng:
                row = table[a]
                for b in rng:
                    for c in rng:
                        if row[(b + c) % n] != (row[b] + row[c]) % n:
                            return False
                        if table[(b + c) % n][a] != (table[b][a] + table[c][a]) % n:
                            return False
            return True

        rows = list(itertools.product(range(modulus), repeat=modulus))
        for table in itertools.product(rows, repeat=modulus):
            assert enumeration._table_distributive(table, modulus) == nested(
                table, modulus
            )

    def test_cap_enforced(self):
        with pytest.raises(CapacityError):
            full_table_oracle(4)

    @pytest.mark.parametrize(
        "call,argument",
        [
            *((full_table_oracle, m) for m in (0, 1, True, False, -2, 2.0, "2")),
            (
                expand_to_full_table,
                StructureConstants(GroupSpec((2, 2)), [[(0, 0)] * 2] * 2),
            ),
        ],
    )
    def test_bad_input_refused(self, call, argument):
        with pytest.raises(UsageError):
            call(argument)


class TestObjectPathOracle:
    @pytest.mark.parametrize(
        "moduli",
        [m for m in factor_sequences(8) if len(m) <= 2],
        ids=lambda m: ",".join(map(str, m)),
    )
    def test_ordered_stream_matches(self, moduli):
        spec = GroupSpec(moduli)
        assert coords_tables(spec) == object_path_census(spec)

    def test_constants_built_only_for_the_examples(self, monkeypatch):
        # the census counts on coordinate tables: of its 121 rings, only the
        # two unital examples become StructureConstants and RingStructures
        calls = {StructureConstants: 0, RingStructure: 0}
        for cls in calls:
            original = cls.__post_init__

            def counted(self, cls=cls, original=original):
                calls[cls] += 1
                original(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        report = rigidity_report(GroupSpec((3, 3)))
        assert report.total == 121
        assert len(report.unital_examples) == 2
        assert calls == {StructureConstants: 2, RingStructure: 2}

    def test_cyclic_report_builds_few_elements(self, element_count):
        # the scaled-form check and the unit search run on coordinate
        # tuples; an object per product would take N^3 = 262144 here
        report = rigidity_report(GroupSpec((64,)))
        assert report.total == 64 and report.scaled_form_all is True
        assert element_count[0] < 2 * 64**2

    def test_census_builds_elements_only_for_units(self, element_count):
        # tables, candidate sets and the unit screens are coordinate tuples;
        # the only elements are the units of the two unital examples
        report = rigidity_report(GroupSpec((4, 4)))
        assert report.unital_count == 192
        assert element_count[0] <= 2

    def test_parts_return_only_tuples(self):
        # a pool worker pickles its part's tables as nested int tuples,
        # with no library object in them
        moduli = (2, 2, 4)
        cell = list(enumeration._plan(moduli)[0][2])
        task = (moduli, cell[1], enumeration.DEFAULT_BUDGET)
        part = enumeration._part(task)
        tables, nodes = part
        assert tables and nodes
        assert b"ringrigidity" not in pickle.dumps(part)


class TestCountPathAgainstObjectPath:
    """``rigidity_report`` counts on tables; the public stream builds rings."""

    @pytest.mark.parametrize(
        "moduli",
        SMALL_GROUPS + [(3, 9), (48,), (64,)],
        ids=lambda m: ",".join(map(str, m)),
    )
    def test_report_matches_ring_flags(self, moduli):
        # the report searches one table of each mirror pair; the public
        # stream builds every ring, and each ring derives its own flags
        spec = GroupSpec(moduli)
        rings = list(enumerate_multiplications(spec))
        unital = [ring for ring in rings if ring.unit is not None]
        for workers in (1, 2):
            report = rigidity_report(spec, SearchConfig(workers=workers))
            assert (report.total, report.commutative_count, report.unital_count) == (
                len(rings), sum(ring.commutative for ring in rings), len(unital)
            )
            assert report.unital_examples == tuple(unital[:2])
            if spec.is_cyclic:
                scales = tuple(ring.mult.table[0][0][0] for ring in unital)
                assert report.unital_scales == scales

    @pytest.mark.parametrize("modulus", range(2, 49))
    def test_classify_units_match_ring_units(self, modulus):
        for entry in classify_cyclic(modulus):
            unit = RingStructure(cyclic_constants(modulus, entry.scale)).unit
            assert entry.unit == (None if unit is None else unit.coords[0])


class TestExhaustiveOracle:
    @pytest.mark.parametrize(
        "moduli",
        [m for m in SMALL_GROUPS if search_space_size(GroupSpec(m)) <= 10**5]
        + [(3, 9)],
        ids=lambda m: ",".join(map(str, m)),
    )
    def test_pruned_stream_equals_exhaustive_walk(self, moduli):
        # same tables in the same order, serial and through a real pool: the
        # expanded mirror-pair search against a walk of every candidate
        spec = GroupSpec(moduli)
        walk = exhaustive_census(spec)
        for workers in (1, 2):
            assert coords_tables(spec, SearchConfig(workers=workers)) == walk


class TestProductGroups:
    def test_coprime_factors_force_zero_cross_constants(self):
        spec = GroupSpec((2, 3))
        rings = list(enumerate_multiplications(spec))
        assert len(rings) == 6
        zero = spec.zero().coords
        for ring in rings:
            assert ring.mult.table[0][1] == zero
            assert ring.mult.table[1][0] == zero

    def test_klein_census(self):
        spec = GroupSpec((2, 2))
        assert search_space_size(spec) == 256
        report = rigidity_report(spec)
        assert report.total == 28
        assert report.commutative_count == 22
        assert report.unital_count == 12
        assert report.unital_scales is None
        assert report.scaled_form_all is None

    @pytest.mark.parametrize(
        "group,counts",
        [
            ("2,4", (60, 44, 16)),
            ("2,6", (84, 66, 24)),
            ("3,3", (121, 105, 72)),
            ("3,9", (405, 315, 162)),
            ("4,4", (616, 400, 192)),
            ("2,2,2", (1688, 988, 532)),
            ("2,2,4", (4864, 2272, 992)),
        ],
    )
    def test_known_census(self, group, counts):
        # (total, commutative, unital)
        report = rigidity_report(GroupSpec.parse(group))
        assert (
            report.total, report.commutative_count, report.unital_count
        ) == counts

    def test_klein_non_rigidity_witness(self):
        # at least two unital structures with different tables share the
        # same addition
        report = rigidity_report(GroupSpec((2, 2)))
        assert len(report.unital_examples) >= 2
        first, second = report.unital_examples[:2]
        assert first.mult.table != second.mult.table
        assert first.unit is not None and second.unit is not None


def primary_parts(moduli: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The p-primary parts of Z/n_1 x ... x Z/n_k, one factor list per prime."""
    parts = {}
    for n in moduli:
        p = 2
        while n > 1:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            if q > 1:
                parts.setdefault(p, []).append(q)
            p += 1
    return [tuple(parts[p]) for p in sorted(parts)]


class TestPrimaryDecomposition:
    def test_parts(self):
        assert primary_parts((6, 9)) == [(2,), (3, 9)]
        assert primary_parts((12,)) == [(4,), (3,)]
        assert primary_parts((2, 2, 4)) == [(2, 2, 4)]

    @pytest.mark.parametrize(
        "group", ["2,6", "2,10", "2,12", "3,6", "6,9", "6,6", "12", "18"]
    )
    def test_counts_multiply_over_primary_parts(self, group):
        # a finite ring is the product of its p-primary parts: G_p G_q = 0
        # for p != q by bilinearity, so the total, commutative and unital
        # counts of G are the products of those of its parts
        def counts(spec):
            report = rigidity_report(spec)
            return report.total, report.commutative_count, report.unital_count

        spec = GroupSpec.parse(group)
        parts = [counts(GroupSpec(part)) for part in primary_parts(spec.moduli)]
        assert len(parts) > 1
        assert counts(spec) == tuple(map(math.prod, zip(*parts)))


class TestSchedule:
    @pytest.mark.parametrize(
        "moduli", SCHEDULE_GROUPS, ids=lambda m: ",".join(map(str, m))
    )
    def test_each_triple_due_once_at_its_last_read_cell(self, moduli):
        # the search tests an entry of tests[d] when its table, looked up at
        # the reaches of cells (i, j) and (j, l), gives d; for every pair of
        # values that must happen at exactly one depth, the deepest of the
        # cells the triple reads: (i, j), (j, l), (s, l) where C[i][j]_s != 0
        # and (i, s) where C[j][l]_s != 0
        plan = enumeration._plan(moduli)
        order = [cell for cell, *_ in plan]
        sets = [list(itertools.product(*coords)) for _, coords, *_ in plan]
        tests = [solved + tested for *_, solved, tested in plan]
        depth = {cell: d for d, cell in enumerate(order)}
        r = range(len(moduli))

        def reach(x):
            return max((s + 1 for s in r if x[s]), default=0)

        # for i == j == l the two cells are one, so y = x; every listed
        # entry must be due at its depth for at least one such pair
        for i, j, l in itertools.product(r, r, r):
            listed = [
                (d, due)
                for d, entries in enumerate(tests)
                for *triple, due in entries
                if triple == [i, j, l]
            ]
            pairs = (
                [(x, x) for x in sets[depth[i, i]]]
                if i == j == l
                else itertools.product(sets[depth[i, j]], sets[depth[j, l]])
            )
            used = set()
            for x, y in pairs:
                read = [(i, j), (j, l)]
                read += [(s, l) for s in r if x[s]] + [(i, s) for s in r if y[s]]
                tested = [d for d, due in listed if due[reach(x)][reach(y)] == d]
                assert tested == [max(depth[c] for c in read)], (i, j, l, x, y)
                used.update(tested)
            assert used == {d for d, _ in listed}, (i, j, l)

    @pytest.mark.parametrize(
        "moduli", SCHEDULE_GROUPS, ids=lambda m: ",".join(map(str, m))
    )
    def test_steps_match_a_scan_of_the_group(self, moduli):
        # each cell once; its candidates are the x with gcd(n_i, n_j)*x = 0,
        # found by a scan of every element; reach_of is the last non-zero
        # coordinate plus one; an entry is tested where the cell is its
        # (i, j) or (j, l), else solved, and never both or twice; _part
        # checks cell 00 with its tested entries alone, so step 0 solves none
        r = range(len(moduli))
        plan = enumeration._plan(moduli)
        assert sorted(cell for cell, *_ in plan) == list(itertools.product(r, r))
        elements = list(all_coords(GroupSpec(moduli)))
        for d, ((i, j), coords, reach_of, solved, tested) in enumerate(plan):
            g = math.gcd(moduli[i], moduli[j])
            expected = [
                x for x in elements if all(g * c % n == 0 for c, n in zip(x, moduli))
            ]
            assert list(itertools.product(*coords)) == expected, (i, j)
            assert reach_of == {
                x: max((s + 1 for s in r if x[s]), default=0) for x in expected
            }
            assert list(reach_of) == expected
            entries = solved + tested
            assert len(set(entries)) == len(entries), (i, j)
            assert all((i, j) in (e[:2], e[1:3]) for e in tested), (i, j)
            assert not any((i, j) in (e[:2], e[1:3]) for e in solved), (i, j)
            assert d or solved == (), (i, j)


class TestLinearSolve:
    @pytest.mark.parametrize(
        "moduli", SCHEDULE_GROUPS, ids=lambda m: ",".join(map(str, m))
    )
    def test_solve_matches_brute_force(self, moduli):
        # on seeded random partial tables at every depth d, the solved
        # values of cell (a, b) = order[d] are the candidates that pass every
        # triple due at d that reads the cell but not as (i, j) or (j, l);
        # every unfixed cell, (a, b) too, holds None and has reach None, so
        # the solve reads none of them
        plan = enumeration._plan(moduli)
        order = [cell for cell, *_ in plan]
        sets = [list(itertools.product(*coords)) for _, coords, *_ in plan]
        depth = {cell: d for d, cell in enumerate(order)}
        k = len(moduli)
        r = range(k)
        rng = random.Random(",".join(map(str, moduli)))

        def reach(x):
            return max((s + 1 for s in r if x[s]), default=0)

        def last_read(table, i, j, l):
            x, y = table[i][j], table[j][l]
            read = [(i, j), (j, l)]
            read += [(s, l) for s in r if x[s]] + [(i, s) for s in r if y[s]]
            return max(depth[c] for c in read)

        cut = 0
        for d, (a, b) in enumerate(order):
            for _ in range(20):
                table = [[None] * k for _ in r]
                reaches = [[None] * k for _ in r]
                for i, j in order[:d]:
                    table[i][j] = rng.choice(sets[depth[i, j]])
                    reaches[i][j] = reach(table[i][j])
                solved = list(
                    itertools.product(
                        *enumeration._solve(moduli, table, reaches, d, plan[d])
                    )
                )
                linear = [
                    (i, j, l)
                    for i, j, l in itertools.product(r, r, r)
                    if max(depth[i, j], depth[j, l]) < d
                    and last_read(table, i, j, l) == d
                ]
                expected = []
                for x in sets[d]:
                    table[a][b] = x
                    if all(associative_triple(moduli, table, *t) for t in linear):
                        expected.append(x)
                assert solved == expected, (d, table)
                cut += len(sets[d]) - len(expected)
        if math.gcd(*moduli) > 1 and k > 1:
            assert cut  # the solve did cut, so the comparison is not vacuous

    def test_split_covers_each_entry_once(self):
        # every entry of a step is either solved or tested there, not both;
        # each triple is tested at the later of its cells (i, j) and (j, l),
        # where the zero vector, a candidate of every cell, puts it due
        plan = enumeration._plan((2, 4, 4))
        depth = {cell: d for d, (cell, *_) in enumerate(plan)}
        anchors = set()
        for d, (cell, _, _, solved, tested) in enumerate(plan):
            entries = [e[:3] for e in solved + tested]
            assert len(set(entries)) == len(entries), cell
            assert all(cell in (e[:2], e[1:3]) for e in tested)
            assert not any(cell in (e[:2], e[1:3]) for e in solved)
            anchors.update(
                (i, j, l)
                for i, j, l, _ in tested
                if d == max(depth[i, j], depth[j, l])
            )
        assert anchors == set(itertools.product(range(3), repeat=3))


def transpose(table):
    """The table of the opposite ring: entry (i, j) is entry (j, i)."""
    return tuple(zip(*table))


def transport(table, perm):
    """The table on the generators reordered by ``perm``: generator t of the
    new group is generator perm[t] of the old one, in cells and coordinates."""
    return tuple(
        tuple(tuple(table[a][b][c] for c in perm) for b in perm) for a in perm
    )


class TestCanonicalSearch:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "moduli", SMALL_GROUPS, ids=lambda m: ",".join(map(str, m))
    )
    def test_each_mirror_pair_searched_once(self, moduli, workers):
        # a part holds the tables of one value of cell 00, in search order,
        # the parts come in order of cell 00, and they never hold a table
        # twice or together with its distinct transpose; the library stream
        # is the parts with their transposes, sorted
        spec = GroupSpec(moduli)
        config = SearchConfig(workers=workers)
        parts = list(enumeration._tables(spec, config))
        assert all(len({t[0][0] for t in part}) == 1 for part in parts)
        cells = [part[0][0][0] for part in parts if part]
        assert cells == sorted(set(cells))
        canonical = [t for part in parts for t in part]
        emitted = set(canonical)
        assert len(emitted) == len(canonical)
        assert not any(transpose(t) != t and transpose(t) in emitted for t in canonical)
        complete = coords_tables(spec, config)
        assert complete == sorted(emitted | set(map(transpose, canonical)))
        if len(moduli) > 1 and math.gcd(*moduli[:2]) > 1:
            assert len(canonical) < len(complete)  # the filter did cut

    @pytest.mark.parametrize(
        "moduli", [(2, 2, 2), (2, 2, 4)], ids=lambda m: ",".join(map(str, m))
    )
    def test_report_independent_of_part_order(self, monkeypatch, serial_pool, moduli):
        # only the library stream orders tables: with every part reversed,
        # in-process and through a stand-in pool of two, the report keeps
        # its counts and its examples
        spec = GroupSpec(moduli)
        expected = rigidity_report(spec)
        part = enumeration._part
        reversed_parts = []

        def reversed_part(task):
            tables, nodes = part(task)
            reversed_parts.append(task[1])
            return tables[::-1], nodes

        monkeypatch.setattr(enumeration, "_part", reversed_part)
        monkeypatch.setattr(
            enumeration.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
        )
        for workers in (1, 2):
            assert rigidity_report(spec, SearchConfig(workers=workers)) == expected
        parts = enumeration._set_size(moduli, moduli[0], moduli[0])
        assert len(reversed_parts) == 2 * parts
        assert serial_pool.sizes == [2]

    @pytest.mark.parametrize(
        "moduli", [(2, 2, 2), (2, 2, 4), (2, 2, 3)], ids=lambda m: ",".join(map(str, m))
    )
    def test_closed_under_generator_permutations(self, moduli):
        # reordering the generators maps the rings of one factor list onto
        # those of the reordered list, such as 2,2,4 onto 2,4,2 and 4,2,2;
        # the transpose filter knows nothing of these maps. The complete
        # tables are the searched ones with their transposes, as the library
        # stream builds them (test_each_mirror_pair_searched_once), without
        # a ring for each
        streams = {}
        for perm in itertools.permutations(range(len(moduli))):
            target = tuple(moduli[t] for t in perm)
            if target not in streams:
                parts = enumeration._tables(GroupSpec(target), SearchConfig())
                streams[target] = sorted(
                    {u for t in itertools.chain(*parts) for u in (t, transpose(t))}
                )
            moved = sorted(transport(t, perm) for t in streams[moduli])
            assert moved == streams[target], perm


class TestDeterminismAndParallelism:
    def test_two_runs_identical(self):
        spec = GroupSpec((2, 2))
        assert coords_tables(spec) == coords_tables(spec)

    @pytest.mark.parametrize("group", ["2,2", "2,4", "3,3"])
    def test_worker_counts_agree(self, group):
        spec = GroupSpec.parse(group)
        serial = coords_tables(spec, SearchConfig(workers=1))
        parallel = coords_tables(spec, SearchConfig(workers=4))
        assert serial == parallel

    def test_worker_counts_agree_cyclic(self):
        spec = GroupSpec((8,))
        serial = coords_tables(spec, SearchConfig(workers=1))
        parallel = coords_tables(spec, SearchConfig(workers=3))
        assert serial == parallel

    def test_pool_capped_at_cpu_count(self, monkeypatch, serial_pool):
        spec = GroupSpec((8,))
        serial = coords_tables(spec)
        # without an affinity call the CPUs are os.cpu_count(), 1 if unknown
        monkeypatch.delattr(enumeration.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 3)
        assert coords_tables(spec, SearchConfig(workers=5000)) == serial
        monkeypatch.setattr(enumeration.os, "cpu_count", lambda: None)
        assert coords_tables(spec, SearchConfig(workers=5000)) == serial
        monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 64)
        assert coords_tables(spec, SearchConfig(workers=2)) == serial
        # 8 one-cell tasks bound the pool when CPUs and workers are many;
        # one CPU runs the parts in-process, with no pool at all
        assert coords_tables(spec, SearchConfig(workers=5000)) == serial
        assert serial_pool.sizes == [3, 2, 8]

    def test_pool_sized_by_affinity(self, monkeypatch, serial_pool):
        # pinned to one CPU of 64, two workers run in-process, with no pool
        spec = GroupSpec((2, 2))
        serial = coords_tables(spec)
        monkeypatch.setattr(
            enumeration.os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 64)
        assert coords_tables(spec, SearchConfig(workers=2)) == serial
        assert serial_pool.sizes == []
        monkeypatch.setattr(enumeration.os, "sched_getaffinity", lambda pid: {0, 5, 9})
        assert coords_tables(spec, SearchConfig(workers=5000)) == serial
        assert serial_pool.sizes == [3]

    def test_pool_maps_a_part_per_value_of_cell_00(self, monkeypatch, serial_pool):
        # at every rank the values of cell 00 name the parts: 4 on 2,2 and
        # 8 on 2,2,2
        for moduli, parts in [((2, 2), 4), ((2, 2, 2), 8)]:
            spec = GroupSpec(moduli)
            serial = coords_tables(spec)
            assert coords_tables(spec, SearchConfig(workers=2)) == serial
            assert serial_pool.mapped == [parts]
            serial_pool.mapped.clear()
        # the parent takes each part's tables as they arrive, so the first
        # table of 4,4 has run only the first of its 16 parts
        part = enumeration._part
        run = []
        monkeypatch.setattr(
            enumeration, "_part", lambda task: run.append(task[1]) or part(task)
        )
        stream = enumeration._tables(GroupSpec((4, 4)), SearchConfig(workers=2))
        next(stream)
        stream.close()
        assert serial_pool.mapped == [16]
        assert run == [(0, 0)]

    def test_pool_without_imap_maps_chunks(self, monkeypatch):
        # a pool that offers only map runs each chunk at once, same stream
        pool = install_pool(monkeypatch, MapPool)
        spec = GroupSpec((2, 2))
        assert coords_tables(spec, SearchConfig(workers=2)) == coords_tables(spec)
        assert pool.mapped == [4]

    def test_rank_three_order_matches_serial(self):
        # the library stream sorts each part with its transposes, so it
        # stays sorted although the rank-3 search order is not
        spec = GroupSpec((2, 2, 2))
        serial = coords_tables(spec)
        assert len(serial) == 1688
        assert serial == sorted(serial)
        assert coords_tables(spec, SearchConfig(workers=2)) == serial

    def test_lexicographic_emission_order(self):
        tables = coords_tables(GroupSpec((5,)))
        assert tables == sorted(tables)


def slow_square(x):
    time.sleep(0.02 * (x % 3 == 0))  # results arrive out of task order
    return x * x


def fails_at_three(x):
    if x == 3:
        raise UsageError(f"task {x} is refused")
    return x


def expire(signum, frame):
    raise TimeoutError("the pool did not finish within 60 s")


@pytest.fixture
def forks(monkeypatch):
    """Two CPUs for the census, whatever this machine has, a record of every
    fork and 60 s to finish; after the test no child process and no new
    thread is left."""
    threads = threading.active_count()
    record = []
    fork = os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", lambda: record.append(1) or fork())
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield record
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert threading.active_count() == threads


@pytest.mark.usefixtures("forks")
class TestForkedPool:
    def test_results_in_task_order(self):
        # a closure is never pickled: the workers inherit it with the tasks
        offset = 1
        with enumeration.Pool(2) as pool:
            results = list(pool.imap(lambda x: slow_square(x) + offset, range(9)))
        assert results == [x * x + 1 for x in range(9)]

    def test_exception_keeps_its_type(self, forks):
        with enumeration.Pool(2) as pool:
            with pytest.raises(UsageError, match="task 3 is refused"):
                list(pool.imap(fails_at_three, range(6)))
        assert len(forks) == 2

    def test_exception_comes_in_task_order(self):
        with enumeration.Pool(2) as pool:
            results = pool.imap(fails_at_three, range(6))
            assert [next(results) for _ in range(3)] == [0, 1, 2]
            with pytest.raises(UsageError):
                next(results)

    def test_worker_exit_is_a_capacity_error(self):
        def exits(x):
            if x == 2:
                os._exit(9)
            return x

        with enumeration.Pool(2) as pool:
            with pytest.raises(CapacityError, match=r"exit status 9 with \d+ results"):
                list(pool.imap(exits, range(6)))

    def test_killed_worker_is_a_capacity_error(self):
        def killed(x):
            if x == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            return x

        with enumeration.Pool(2) as pool:
            with pytest.raises(CapacityError, match=f"signal {int(signal.SIGKILL)} "):
                list(pool.imap(killed, range(6)))

    def test_tasks_beyond_a_chunk_refused(self):
        with enumeration.Pool(2) as pool:
            with pytest.raises(UsageError, match="at most 256 tasks"):
                next(pool.imap(abs, range(enumeration.POOL_CHUNK + 1)))

    def test_complete_census_leaves_nothing(self, forks):
        spec = GroupSpec((3, 3))
        report = rigidity_report(spec, SearchConfig(workers=2))
        assert report == rigidity_report(spec)
        assert len(forks) == 2

    def test_parent_unpickles_each_part_once(self, forks, monkeypatch):
        # the 4 parts of 2,2: each worker pickles a part's tables once, and
        # the parent unpickles them once
        loads = pickle.loads
        calls = []
        monkeypatch.setattr(pickle, "loads", lambda b: calls.append(1) or loads(b))
        spec = GroupSpec((2, 2))
        report = rigidity_report(spec, SearchConfig(workers=2))
        assert len(calls) == 4
        assert report == rigidity_report(spec)

    def test_census_beyond_a_chunk(self, forks):
        # the 257 values of cell 00 on 257,2 take two imap calls, of 256
        # parts on two workers and of one part on one
        spec = GroupSpec((257, 2))
        report = rigidity_report(spec, SearchConfig(workers=2))
        assert len(forks) == 3
        assert report == rigidity_report(spec)

    def test_budget_cut_leaves_nothing(self, forks):
        # 2,2,4 needs 64,333 nodes: the stream raises once the parts' counts
        # pass the budget
        config = SearchConfig(workers=2, budget=64332)
        with pytest.raises(CapacityError, match="more than 64332 search nodes"):
            rigidity_report(GroupSpec((2, 2, 4)), config)
        assert len(forks) == 2

    def test_closed_stream_leaves_nothing(self, forks):
        spec = GroupSpec((2, 2, 4))
        stream = enumerate_multiplications(spec, SearchConfig(workers=2))
        first = next(stream)
        stream.close()
        assert first.mult.table == next(enumerate_multiplications(spec)).mult.table
        assert len(forks) == 2


class TestCapsAndBudget:
    def test_budget_exceeded_names_size(self):
        # one node short of the search stops it, whatever the worker count
        spec = GroupSpec((2, 2))
        for workers in (1, 2):
            config = SearchConfig(workers=workers, budget=KLEIN_NODES - 1)
            with pytest.raises(CapacityError, match=f"more than {KLEIN_NODES - 1} "):
                list(enumerate_multiplications(spec, config))

    def test_budget_boundary_accepted(self):
        spec = GroupSpec((2, 2))
        for workers in (1, 2):
            config = SearchConfig(workers=workers, budget=KLEIN_NODES)
            assert len(list(enumerate_multiplications(spec, config))) == 28

    def test_pool_work_bounded_past_the_budget(self, monkeypatch):
        # the parts of a pool call share the rest of the budget, so a search
        # over it stops after about twice the budget's work
        visited = [0]
        part = enumeration._part

        def counted(task):
            rings, nodes = part(task)
            visited[0] += nodes
            return rings, nodes

        monkeypatch.setattr(enumeration, "_part", counted)
        pool = install_pool(monkeypatch, MapPool)  # runs every part of a call
        config = SearchConfig(workers=2, budget=1000)
        with pytest.raises(CapacityError, match="more than 1000 search nodes"):
            list(enumerate_multiplications(GroupSpec((2, 4, 4)), config))
        assert pool.mapped == [8]
        cell_nodes = 8  # cell 00 holds 8 values
        assert 1000 < cell_nodes + visited[0] <= 2 * 1000 + enumeration.POOL_CHUNK + 1

    def test_product_size_not_charged(self):
        # 2,2,2 has 8^9 candidate tables, over the default budget, yet the
        # search runs: only the nodes it visits are charged
        spec = GroupSpec((2, 2, 2))
        assert search_space_size(spec) > enumeration.DEFAULT_BUDGET
        zero = spec.zero().coords
        assert next(enumerate_multiplications(spec)).mult.table == ((zero,) * 3,) * 3

    def test_plan_size_refused_not_charged(self):
        # the 4 cells of 2,2 hold 16 candidates: a budget below that is
        # refused before the plan is built, and at 16 the search runs and is
        # cut by its nodes alone
        spec = GroupSpec((2, 2))
        with pytest.raises(CapacityError, match="16 candidate cell values.* 15$"):
            list(enumerate_multiplications(spec, SearchConfig(budget=15)))
        with pytest.raises(CapacityError, match="more than 16 search nodes"):
            list(enumerate_multiplications(spec, SearchConfig(budget=16)))
        # on Z/N the plan is cell 00, whose N values are the whole search
        rings = enumerate_multiplications(GroupSpec((5,)), SearchConfig(budget=5))
        assert len(list(rings)) == 5

    def test_scaled_form_work_charged(self):
        # Z/N checks N rings of N^2 products each, before any work starts
        spec = GroupSpec((12,))
        assert rigidity_report(spec, SearchConfig(budget=1728)).total == 12
        assert len(classify_cyclic(12, SearchConfig(budget=1728))) == 12
        with pytest.raises(CapacityError, match=r"1728.*1727"):
            rigidity_report(spec, SearchConfig(budget=1727))
        with pytest.raises(CapacityError, match=r"1728.*1727"):
            classify_cyclic(12, SearchConfig(budget=1727))

    def test_group_order_cap(self):
        with pytest.raises(CapacityError):
            next(enumerate_multiplications(GroupSpec((10_001,))))

    def test_nonpositive_config_rejected(self):
        from ringrigidity import UsageError

        with pytest.raises(UsageError):
            SearchConfig(budget=0)
        with pytest.raises(UsageError):
            SearchConfig(workers=0)
