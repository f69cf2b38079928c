import random

import pytest

from ringrigidity import (
    HADAMARD,
    STANDARD,
    MatrixElement,
    UsageError,
    all_matrices,
    mat_add,
    mat_mul_hadamard,
    mat_mul_standard,
    noncommutativity_witness,
    unit_matrix,
)
from ringrigidity import matrices
from ringrigidity.matrices import random_matrix, sample_axioms


def m(modulus, *rows):
    return MatrixElement(modulus, tuple(tuple(r) for r in rows))


# around every slot-width boundary of the packed standard product, whose
# slots hold n (m-1)^2: 1 | 2 bytes at m = 16 | 17, 2 | 4 at 256 | 257,
# 4 | 8 at 65536 | 65537 and 8 bytes | wider at 2^32 | 2^32 + 1 (n = 1;
# a larger n moves each boundary down)
SLOT_MODULI = [
    2, 7, 16, 17, 256, 257, 65536, 65537, 2**32, 2**32 + 1, 2**32 + 15, 2**70 + 1
]


class TestMatrixElement:
    def test_entries_reduced(self):
        a = m(5, [6, -1], [10, 3])
        assert a.rows == ((1, 4), (0, 3))
        assert a.entries == (1, 4, 0, 3) and a.n == 2

    @pytest.mark.parametrize(
        "modulus,rows",
        [
            (7.0, ((1.5, 2), (3, 4))),
            (7.0, ((1, 2), (3, 4))),
            (7, ((1.5, 2), (3, 4))),
            (7, ((1, 2), (3, "4"))),
            ("7", ((1,),)),
            (None, ((1,),)),
        ],
    )
    def test_rejects_non_int_modulus_or_entry(self, modulus, rows):
        with pytest.raises(UsageError):
            MatrixElement(modulus, rows)

    def test_rejects_non_square(self):
        with pytest.raises(UsageError):
            MatrixElement(5, ((1, 2), (3,)))

    def test_rejects_small_modulus(self):
        with pytest.raises(UsageError):
            MatrixElement(1, ((0,),))


class TestTrustedKernels:
    # the kernels skip the public constructor, so each result must already
    # be what MatrixElement(...) makes of its rows
    @pytest.mark.parametrize("modulus", [12, *SLOT_MODULI])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_results_are_reduced(self, n, modulus):
        rng = random.Random(100 * n + modulus)
        top = m(modulus, *[[modulus - 1] * n] * n)  # every sum and product wraps
        results = [f(top, top) for f in (mat_add, mat_mul_standard, mat_mul_hadamard)]
        for _ in range(20):
            a = random_matrix(rng, n, modulus)
            b = random_matrix(rng, n, modulus)
            results += [a, mat_add(a, b), mat_mul_standard(a, b), mat_mul_hadamard(a, b)]
        for result in results:
            assert result.modulus == modulus and result.n == n
            assert type(result.entries) is tuple and len(result.entries) == n * n
            for row in result.rows:
                assert type(row) is tuple and all(x in range(modulus) for x in row)
            public = MatrixElement(result.modulus, result.rows)
            assert result == public and hash(result) == hash(public)

    @pytest.mark.parametrize(
        "n,modulus", [(0, 7), (-1, 7), (2, 1), (2, 0), (2, 7.0)]
    )
    def test_random_matrix_validates_its_arguments(self, n, modulus):
        with pytest.raises(UsageError):
            random_matrix(random.Random(0), n, modulus)

    @pytest.mark.parametrize(
        "n,modulus",
        [(1, 2), (2, 7), (3, 5), (8, 11), (8, 65537), (3, 2**32 + 15), (2, 2**62 + 1)],
    )
    @pytest.mark.parametrize("seed", [0, 7, 31])
    def test_draws_follow_choices(self, n, modulus, seed):
        # three draws from one generator are the row-major splits of three
        # rng.choices calls, so every seeded sample is pinned; above 2^53,
        # where a float draw misses residues, of n * n exact randrange draws
        mine, theirs = random.Random(seed), random.Random(seed)
        for _ in range(3):
            if modulus > 2**53:
                flat = [theirs.randrange(modulus) for _ in range(n * n)]
            else:
                flat = theirs.choices(range(modulus), k=n * n)
            rows = tuple(tuple(flat[i : i + n]) for i in range(0, n * n, n))
            assert random_matrix(mine, n, modulus).rows == rows

    def test_draws_above_float_precision_are_uniform(self):
        # a 53-bit float draw scaled to 2^70 + 1 lands on multiples of 2^17
        modulus = 2**70 + 1
        entries = random_matrix(random.Random(7), 30, modulus).entries
        assert len(entries) == 900
        assert all(0 <= e < modulus for e in entries)
        assert any(e % 2**17 for e in entries)

    def test_float_stream_kept_at_two_to_the_53(self):
        # the largest modulus still drawn as rng.choices draws, where
        # floor(random() * 2^53) is exact
        modulus = 2**53
        mine, theirs = random.Random(3), random.Random(3)
        flat = tuple(theirs.choices(range(modulus), k=16))
        assert random_matrix(mine, 4, modulus).entries == flat


class TestAddition:
    def test_entrywise_mod_5(self):
        a = m(5, [1, 2], [3, 4])
        b = m(5, [4, 3], [2, 1])
        assert mat_add(a, b) == m(5, [0, 0], [0, 0])

    def test_zero_identity(self):
        a = m(7, [1, 2], [3, 4])
        assert mat_add(a, m(7, [0, 0], [0, 0])) == a

    def test_one_by_one(self):
        assert mat_add(m(2, [1]), m(2, [1])) == m(2, [0])

    def test_shape_mismatch(self):
        with pytest.raises(UsageError):
            mat_add(m(5, [1]), m(5, [1, 0], [0, 1]))

    def test_modulus_mismatch(self):
        with pytest.raises(UsageError):
            mat_add(m(5, [1]), m(7, [1]))


class TestStandardProduct:
    def test_identity_law(self):
        a = m(7, [1, 2], [3, 4])
        eye = unit_matrix(STANDARD, 2, 7)
        assert mat_mul_standard(a, eye) == a
        assert mat_mul_standard(eye, a) == a

    def test_noncommutativity_witness_products(self):
        a = m(7, [0, 1], [0, 0])
        b = m(7, [0, 0], [1, 0])
        assert mat_mul_standard(a, b) == m(7, [1, 0], [0, 0])
        assert mat_mul_standard(b, a) == m(7, [0, 0], [0, 1])

    def test_zero_absorbs(self):
        a = m(5, [1, 2], [3, 4])
        zero = m(5, [0, 0], [0, 0])
        assert mat_mul_standard(a, zero) == zero


class TestHadamardProduct:
    def test_entrywise(self):
        a = m(100, [1, 2], [3, 4])
        b = m(100, [5, 6], [7, 8])
        assert mat_mul_hadamard(a, b) == m(100, [5, 12], [21, 32])

    def test_all_ones_identity(self):
        a = m(9, [1, 5], [7, 2])
        ones = unit_matrix(HADAMARD, 2, 9)
        assert mat_mul_hadamard(a, ones) == a
        assert mat_mul_hadamard(ones, a) == a

    def test_commutative_sampled(self):
        rng = random.Random(3)
        for _ in range(200):
            a = random_matrix(rng, 3, 7)
            b = random_matrix(rng, 3, 7)
            assert mat_mul_hadamard(a, b) == mat_mul_hadamard(b, a)

    def test_commutative_exhaustive_tiny(self):
        mats = list(all_matrices(2, 2))
        assert len(mats) == 16
        for a in mats:
            for b in mats:
                assert mat_mul_hadamard(a, b) == mat_mul_hadamard(b, a)


class TestKernelsMatchNaiveLoops:
    @staticmethod
    def _raw_pairs(n, modulus):
        # entries outside 0..modulus-1, so the reduction is checked as well;
        # the all-(-1) pair fills every product slot to its bound n (m-1)^2
        rng = random.Random(1000 * n + modulus)

        def row():
            return tuple(rng.randrange(-3 * modulus, 3 * modulus) for _ in range(n))

        top = ((-1,) * n,) * n
        return [(top, top)] + [
            (tuple(row() for _ in range(n)), tuple(row() for _ in range(n)))
            for _ in range(3)
        ]

    @pytest.mark.parametrize("modulus", [11, *SLOT_MODULI])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_products_and_sum(self, n, modulus):
        for x, y in self._raw_pairs(n, modulus):
            a, b = MatrixElement(modulus, x), MatrixElement(modulus, y)
            standard = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    for t in range(n):
                        standard[i][j] += x[i][t] * y[t][j]
                    standard[i][j] %= modulus
            hadamard = [
                [x[i][j] * y[i][j] % modulus for j in range(n)] for i in range(n)
            ]
            total = [
                [(x[i][j] + y[i][j]) % modulus for j in range(n)] for i in range(n)
            ]
            assert mat_mul_standard(a, b).to_lists() == standard
            assert mat_mul_hadamard(a, b).to_lists() == hadamard
            assert mat_add(a, b).to_lists() == total


class TestUnits:
    def test_standard_unit(self):
        assert unit_matrix(STANDARD, 2, 7).rows == ((1, 0), (0, 1))

    def test_hadamard_unit(self):
        assert unit_matrix(HADAMARD, 2, 7).rows == ((1, 1), (1, 1))

    def test_modes_coincide_at_dimension_one(self):
        assert unit_matrix(STANDARD, 1, 5) == unit_matrix(HADAMARD, 1, 5)

    def test_units_differ_beyond_dimension_one(self):
        for n in (2, 3, 4):
            assert unit_matrix(STANDARD, n, 5) != unit_matrix(HADAMARD, n, 5)

    def test_unknown_mode(self):
        with pytest.raises(UsageError):
            unit_matrix("kronecker", 2, 5)

    def test_dimension_validated(self):
        with pytest.raises(UsageError):
            unit_matrix(STANDARD, 0, 5)

    @pytest.mark.parametrize(
        "mode,product", [(STANDARD, mat_mul_standard), (HADAMARD, mat_mul_hadamard)]
    )
    def test_unique_two_sided_identity_exhaustive(self, mode, product):
        # 16-element scan over all 2x2 matrices mod 2
        mats = list(all_matrices(2, 2))
        unit = unit_matrix(mode, 2, 2)
        identities = [
            u
            for u in mats
            if all(product(u, a) == a and product(a, u) == a for a in mats)
        ]
        assert identities == [unit]


class TestTwoRingStructures:
    @pytest.mark.parametrize("n,modulus", [(2, 5), (3, 7)])
    def test_both_products_are_ring_multiplications(self, n, modulus):
        # associativity and two-sided distributivity over shared addition,
        # 10^3 sampled triples each
        rng = random.Random(n * 100 + modulus)
        for product in (mat_mul_standard, mat_mul_hadamard):
            for _ in range(1000):
                a = random_matrix(rng, n, modulus)
                b = random_matrix(rng, n, modulus)
                c = random_matrix(rng, n, modulus)
                assert product(a, product(b, c)) == product(product(a, b), c)
                assert product(a, mat_add(b, c)) == mat_add(
                    product(a, b), product(a, c)
                )
                assert product(mat_add(a, b), c) == mat_add(
                    product(a, c), product(b, c)
                )

    def test_same_addition_different_multiplications(self):
        witness = noncommutativity_witness(2, 7)
        assert witness is not None
        a, b = witness
        assert mat_mul_standard(a, b) != mat_mul_standard(b, a)
        assert mat_mul_hadamard(a, b) == mat_mul_hadamard(b, a)

    def test_witness_exists_for_all_larger_dimensions(self):
        for n in (2, 3, 5):
            for modulus in (2, 3, 7):
                a, b = noncommutativity_witness(n, modulus)
                assert mat_mul_standard(a, b) != mat_mul_standard(b, a)

    def test_no_witness_at_dimension_one(self):
        assert noncommutativity_witness(1, 5) is None

    def test_sampled_axiom_summaries(self):
        standard = sample_axioms(STANDARD, 2, 7)
        hadamard = sample_axioms(HADAMARD, 2, 7)
        assert standard["associative"] and standard["distributive"]
        assert not standard["commutative"]
        assert hadamard["associative"] and hadamard["distributive"]
        assert hadamard["commutative"]

    def test_unknown_mode_refused(self):
        with pytest.raises(UsageError, match="unknown multiplication mode"):
            sample_axioms("bogus", 2, 7)

    @pytest.mark.parametrize("n,modulus", [(0, 7), (-1, 7), (2, 1), (2, 7.0)])
    def test_bad_shape_refused(self, n, modulus):
        with pytest.raises(UsageError):
            sample_axioms(STANDARD, n, modulus)

    def test_broken_standard_kernel_is_not_associative(self, monkeypatch):
        product = matrices._standard

        def off_by_one(modulus, a, b):
            entries = product(modulus, a, b)
            return ((entries[0] + 1) % modulus,) + entries[1:]

        assert sample_axioms(STANDARD, 2, 7)["associative"]
        monkeypatch.setattr(matrices, "_standard", off_by_one)
        assert not sample_axioms(STANDARD, 2, 7)["associative"]

    def test_broken_hadamard_kernel_is_not_commutative(self, monkeypatch):
        def left_factor(modulus, a, b):  # a * b = a: associative, not commutative
            return a

        assert sample_axioms(HADAMARD, 2, 7)["commutative"]
        monkeypatch.setattr(matrices, "_hadamard", left_factor)
        summary = sample_axioms(HADAMARD, 2, 7)
        assert summary["associative"] and not summary["commutative"]

    @pytest.mark.parametrize(
        "n,modulus", [(1, 5), (2, 7), (3, 2**32 + 15), (2, 2**53 + 1), (2, 2**70 + 1)]
    )
    def test_samples_are_three_random_matrices_per_triple(self, monkeypatch, n, modulus):
        # every product sees the triple's matrices, in draw order, as three
        # random_matrix calls on one seed-7 generator make them
        rng = random.Random(7)
        expected = [
            tuple(random_matrix(rng, n, modulus).entries for _ in range(3))
            for _ in range(matrices.AXIOM_TRIPLES)
        ]
        seen = []
        product = matrices._hadamard

        def recording(m, a, b):
            seen.append((a, b))
            return product(m, a, b)

        monkeypatch.setattr(matrices, "_hadamard", recording)
        sample_axioms(HADAMARD, n, modulus)
        # the first three products of a triple are ab, ba and bc
        assert len(seen) == 9 * matrices.AXIOM_TRIPLES
        triples = [(a, b, seen[k + 2][1]) for k, (a, b) in enumerate(seen) if k % 9 == 0]
        assert triples == expected
