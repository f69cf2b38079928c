"""Two ring multiplications sharing one additive group of square matrices.

The n x n matrices over Z/m form an abelian group under entrywise
addition. That single addition supports (at least) two genuinely different
ring multiplications: the usual row-by-column product, noncommutative for
n >= 2 with the diagonal identity matrix as unit, and the entrywise
(Hadamard) product, commutative with the all-ones matrix as unit. The base
ring is Z/m rather than the reals so every claim here can be checked
exactly, and exhaustively on tiny carriers. Only ``MatrixElement(...)``
validates. The kernels ``_standard``, ``_hadamard`` and ``_plus`` take a
modulus and two flat row-major entry tuples and return the reduced entry
tuple, by ``map`` chains or, for the standard product, packed ints; the
public functions check the shapes and wrap the result unchecked
(``_reduced``), and ``sample_axioms`` runs on the tuples alone.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import struct
from itertools import repeat, starmap
from operator import add, and_, attrgetter, mod, mul, rshift
from typing import Iterator

from .abelian import Frozen
from .errors import InvariantViolation, UsageError

STANDARD = "standard"
HADAMARD = "hadamard"

# random triples in each mode's axiom summary, and samples in each unit check
AXIOM_TRIPLES = 1000
UNIT_CHECKS = 4


class MatrixElement(Frozen):
    """A square matrix: one row-major tuple of entries reduced modulo a base modulus."""

    __slots__ = ("modulus", "entries")

    def __init__(self, modulus: int, rows: tuple[tuple[int, ...], ...]) -> None:
        if not isinstance(modulus, int) or modulus < 2:
            raise UsageError(f"matrix modulus must be an int >= 2, got {modulus!r}")
        n = len(rows)
        if n < 1 or any(len(row) != n for row in rows):
            raise UsageError("matrix must be square with dimension >= 1")
        flat = list(itertools.chain.from_iterable(rows))
        if not all(map(isinstance, flat, repeat(int))):
            raise UsageError(f"matrix entries must be ints, got {rows!r}")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "entries", tuple(map(mod, flat, repeat(modulus))))

    @property
    def n(self) -> int:
        return math.isqrt(len(self.entries))

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*[iter(self.entries)] * self.n))

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.rows]


MatrixElement._key = attrgetter("modulus", "entries")  # not rows, rebuilt per read


def _reduced(modulus: int, entries: tuple[int, ...]) -> MatrixElement:
    """A matrix from n^2 row-major entries in range(modulus), unchecked."""
    matrix = object.__new__(MatrixElement)
    object.__setattr__(matrix, "modulus", modulus)
    object.__setattr__(matrix, "entries", entries)
    return matrix


def _common_modulus(a: MatrixElement, b: MatrixElement, op: str) -> int:
    if len(a.entries) != len(b.entries) or a.modulus != b.modulus:
        raise UsageError(
            f"{op}: shapes {a.n}x{a.n} mod {a.modulus} and "
            f"{b.n}x{b.n} mod {b.modulus} do not mix"
        )
    return a.modulus


def _plus(m: int, a: tuple, b: tuple) -> tuple[int, ...]:
    return tuple(map(mod, map(add, a, b), repeat(m)))


def mat_add(a: MatrixElement, b: MatrixElement) -> MatrixElement:
    m = _common_modulus(a, b, "mat_add")
    return _reduced(m, _plus(m, a.entries, b.entries))


@functools.lru_cache(maxsize=64)
def _layout(count: int, m: int) -> tuple:
    """Pack, unpack, column-0 mask, column shifts and row cuts of count = n^2
    little-endian slots, the least of 1, 2, 4, 8 bytes (or more) holding n (m-1)^2."""
    n = math.isqrt(count)
    need = ((n * (m - 1) ** 2).bit_length() + 7) // 8
    width = 1 << (need - 1).bit_length() if need <= 8 else need
    if width <= 8:
        code = {1: "B", 2: "H", 4: "I", 8: "Q"}[width]
        pack, unpack = attrgetter("pack", "unpack")(struct.Struct(f"<{count}{code}"))
    else:  # no struct format is that wide
        def pack(*entries):
            return b"".join(map(int.to_bytes, entries, repeat(width), repeat("little")))

        def unpack(data):
            return map(int.from_bytes, zip(*[iter(data)] * width), repeat("little"))
    column = int.from_bytes((b"\xff" * width).ljust(width * n, b"\0") * n, "little")
    row_cuts = [slice(k, k + width * n) for k in range(0, width * count, width * n)]
    return pack, unpack, column, range(0, 8 * width * n, 8 * width), row_cuts


def _standard(m: int, a: tuple, b: tuple) -> tuple[int, ...]:
    """Row-by-column product modulo m. With z = 2^(8 w), w the slot width,
    column t of a packs to sum_i a[i][t] z^(i n) and row t of b to
    sum_j b[t][j] z^j; summed over t, their products hold entry ij at z^(i n + j)."""
    pack, unpack, column, shifts, row_cuts = _layout(len(a), m)
    whole_a = int.from_bytes(pack(*a), "little")
    columns = map(and_, map(rshift, repeat(whole_a), shifts), repeat(column))
    packed_b = pack(*b)
    rows_b = map(int.from_bytes, map(packed_b.__getitem__, row_cuts), repeat("little"))
    total = sum(map(mul, columns, rows_b)).to_bytes(len(packed_b), "little")
    return tuple(map(mod, unpack(total), repeat(m)))


def _hadamard(m: int, a: tuple, b: tuple) -> tuple[int, ...]:
    return tuple(map(mod, map(mul, a, b), repeat(m)))


def mat_mul_standard(a: MatrixElement, b: MatrixElement) -> MatrixElement:
    """Row-by-column product modulo the base modulus."""
    m = _common_modulus(a, b, "mat_mul_standard")
    return _reduced(m, _standard(m, a.entries, b.entries))


def mat_mul_hadamard(a: MatrixElement, b: MatrixElement) -> MatrixElement:
    """Entrywise product modulo the base modulus."""
    m = _common_modulus(a, b, "mat_mul_hadamard")
    return _reduced(m, _hadamard(m, a.entries, b.entries))


def _product(mode: str, kernel: bool = False):
    """The public product of a mode, or its kernel, read from the module
    globals so a rebinding is seen."""
    if mode == STANDARD:
        return _standard if kernel else mat_mul_standard
    if mode == HADAMARD:
        return _hadamard if kernel else mat_mul_hadamard
    raise UsageError(f"unknown multiplication mode {mode!r}")


def unit_matrix(mode: str, n: int, modulus: int) -> MatrixElement:
    """The two-sided identity of the chosen product.

    Diagonal-ones for the standard product, all-ones for the Hadamard
    product; the two coincide only at n = 1. The construction self-checks
    against ``UNIT_CHECKS`` deterministic sample elements.
    """
    if n < 1:
        raise UsageError(f"matrix dimension must be >= 1, got {n}")
    product = _product(mode)
    rows = [[int(mode == HADAMARD or i == j) for j in range(n)] for i in range(n)]
    unit = MatrixElement(modulus, rows)

    rng = random.Random(31 * n + modulus)
    for _ in range(UNIT_CHECKS):
        sample = random_matrix(rng, n, modulus)
        if product(unit, sample) != sample or product(sample, unit) != sample:
            raise InvariantViolation(
                f"{mode} unit failed the identity check against {sample.rows}"
            )
    return unit


def random_matrix(rng: random.Random, n: int, modulus: int) -> MatrixElement:
    """A uniform n x n matrix over Z/modulus, n * n draws in row-major order.

    Up to modulus 2^53, entry k is floor(random() * modulus) of draw k, as
    ``rng.choices(range(modulus), k=n * n)`` draws. Above it the 53 bits of
    ``random()`` cannot reach every residue (at 2^70 + 1 every entry would
    be a multiple of 2^17), so each entry is ``rng.randrange(modulus)``.
    """
    return _reduced(modulus, tuple(_draws(rng, n, modulus, 1)))


def _draws(rng: random.Random, n: int, modulus: int, count: int) -> Iterator[int]:
    """The entries of count n x n matrices over Z/modulus as ``random_matrix``
    draws them one after another, drawn as they are read."""
    if n < 1 or not isinstance(modulus, int) or modulus < 2:
        raise UsageError(f"random matrix needs n >= 1 and modulus >= 2: {n}, {modulus}")
    if modulus > 2**53:
        return map(rng.randrange, repeat(modulus, count * n * n))
    draws = starmap(rng.random, repeat((), count * n * n))
    return map(math.floor, map(mul, draws, repeat(float(modulus))))


def all_matrices(n: int, modulus: int) -> Iterator[MatrixElement]:
    """Every n x n matrix over Z/modulus, lexicographic by flattened entries."""
    for flat in itertools.product(range(modulus), repeat=n * n):
        yield MatrixElement(modulus, [flat[i : i + n] for i in range(0, n * n, n)])


def noncommutativity_witness(
    n: int, modulus: int
) -> tuple[MatrixElement, MatrixElement] | None:
    """A fixed pair A, B with A.B != B.A under the standard product.

    Embeds the 2x2 single-entry witness in the top-left corner: A has a
    lone 1 at (0, 1), B at (1, 0), so A.B and B.A land on different
    diagonal cells. Returns None at n = 1, where no witness exists.
    """
    if n < 2:
        return None
    a = MatrixElement(modulus, [(0, 1) + (0,) * (n - 2)] + [(0,) * n] * (n - 1))
    b = MatrixElement(modulus, [(0,) * n, (1,) + (0,) * (n - 1)] + [(0,) * n] * (n - 2))
    if mat_mul_standard(a, b) == mat_mul_standard(b, a):
        raise InvariantViolation("stored noncommutativity witness commutes")
    return a, b


def sample_axioms(mode: str, n: int, modulus: int) -> dict:
    """Sampled ring-axiom summary for one of the two products.

    Checks associativity and two-sided distributivity over entrywise
    addition on ``AXIOM_TRIPLES`` random triples (seed 7), and
    commutativity on the corresponding pairs; for the standard product the
    stored witness is consulted too, so the commutativity verdict at
    n >= 2 never depends on sampling luck. The products ab and ba and the
    sum b + c serve every comparison that reads them, so a triple takes 9
    products and 3 additions. The triples are entry tuples, drawn as three
    ``random_matrix`` calls each, and every product and sum is its kernel's.
    """
    product, plus, m = _product(mode, kernel=True), _plus, modulus
    entries = _draws(random.Random(7), n, modulus, 3 * AXIOM_TRIPLES)
    matrices = zip(*[entries] * (n * n))
    associative = True
    distributive = True
    commutative = True
    for a, b, c in zip(*[matrices] * 3):
        ab, ba, b_plus_c = product(m, a, b), product(m, b, a), plus(m, b, c)
        if product(m, a, product(m, b, c)) != product(m, ab, c):
            associative = False
        if product(m, a, b_plus_c) != plus(m, ab, product(m, a, c)):
            distributive = False
        if product(m, b_plus_c, a) != plus(m, ba, product(m, c, a)):
            distributive = False
        if ab != ba:
            commutative = False
    if mode == STANDARD and noncommutativity_witness(n, modulus) is not None:
        commutative = False
    return {
        "triples": AXIOM_TRIPLES,
        "associative": associative,
        "distributive": distributive,
        "commutative": commutative,
    }
